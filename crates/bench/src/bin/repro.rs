//! Regenerates every table and figure of the paper's evaluation, plus this
//! repository's device sweeps and ablations.
//!
//! ```text
//! cargo run --release -p repro-bench --bin repro -- all
//! cargo run --release -p repro-bench --bin repro -- table1 table5 --quick
//! ```
//!
//! Each command names one row of the `EXPERIMENTS` table. `all`, or no
//! command, runs every row in table order, and a row named twice runs once.
//! Outputs aligned text to stdout and CSV files under `results/`.
//!
//! Flags:
//! * `--quick`       small geometry, 2 groups, 1 P/E point (smoke run)
//! * `--groups N`    independent 4-pool groups to average (default 3; the paper's 24 chips correspond to 6)
//! * `--blocks N`    blocks per pool (default 1600)
//! * `--pe-step N`   P/E sweep step for table experiments (default 1500)
//! * `--gc MODE`     `tenants` collector: `off` (default; volume below the GC watermarks) or `on` (GC-active volume + sliced preemptive collection)
//! * `--out DIR`     output directory (default `results`)
//!
//! A bad argument, or an output directory that cannot be created, prints a
//! usage error and exits with status 2 before any experiment runs.

use flash_model::{CellType, Geometry};
use ftl::GcBudget;
use repro_bench::experiments as exp;
use repro_bench::report::{pct, us, TextTable};
use repro_bench::runner::{ExperimentParams, PoolCache};
use std::path::PathBuf;

/// What every experiment reads: the command line's settings and the one
/// characterization cache the whole invocation shares, so `table1 table5
/// fig13` characterize each (group, P/E) pool once in total.
struct Ctx {
    params: ExperimentParams,
    cache: PoolCache,
    out: PathBuf,
    quick: bool,
    gc: bool,
}

impl Ctx {
    /// Prints `table` under an `== title ==` header and writes it to `file`.
    fn emit(&self, title: &str, table: &TextTable, file: &str) {
        println!("== {title} ==\n{}", table.render());
        self.csv(table, file);
    }

    /// Writes `table` as CSV to `file` in the output directory.
    fn csv(&self, table: &TextTable, file: &str) {
        table.write_csv(self.out.join(file)).expect("write csv");
    }
}

/// One experiment: the commands that select it and the function that runs it.
struct Experiment {
    names: &'static [&'static str],
    run: fn(&Ctx),
}

/// Every experiment, in the order `all` runs them.
static EXPERIMENTS: &[Experiment] = &[
    Experiment { names: &["table1"], run: table1 },
    Experiment { names: &["table2"], run: table2 },
    // One run writes both Table V and Figure 12.
    Experiment { names: &["table5", "fig12"], run: table5 },
    Experiment { names: &["fig5"], run: fig5 },
    Experiment { names: &["fig6"], run: fig6 },
    Experiment { names: &["fig13"], run: fig13 },
    Experiment { names: &["fig14"], run: fig14 },
    Experiment { names: &["fig15"], run: fig15 },
    Experiment { names: &["overhead"], run: overhead },
    Experiment { names: &["ablation"], run: ablation },
    Experiment { names: &["stats"], run: stats },
    Experiment { names: &["qstr-sweep"], run: qstr_sweep },
    Experiment { names: &["ers-corr"], run: ers_corr },
    Experiment { names: &["retry"], run: retry },
    Experiment { names: &["resilience"], run: resilience },
    Experiment { names: &["parity"], run: parity },
    Experiment { names: &["recovery"], run: recovery },
    Experiment { names: &["queueing"], run: queueing },
    Experiment { names: &["tenants"], run: tenants },
    Experiment { names: &["fleet"], run: fleet },
    Experiment { names: &["integrity"], run: integrity },
    Experiment { names: &["ssd"], run: ssd },
];

const USAGE: &str = "usage: repro [COMMAND...] [--quick] [--groups N] [--blocks N] \
[--pe-step N] [--gc on|off] [--out DIR]";

/// A flag's value: a whole number of at least 1.
fn positive<T: std::str::FromStr + From<u8> + PartialEq>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n != T::from(0) => Ok(n),
        Ok(_) => Err(format!("{flag} must be at least 1")),
        Err(_) => Err(format!("{flag} takes a number, got {value:?}")),
    }
}

/// The experiments `names` select, each once, in the order first named;
/// `all` selects every experiment.
fn select(names: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for &name in names {
        let mut known = false;
        for e in EXPERIMENTS.iter().filter(|e| name == "all" || e.names.contains(&name)) {
            known = true;
            if !selected.iter().any(|&s| std::ptr::eq(s, e)) {
                selected.push(e);
            }
        }
        if !known {
            let all: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.names.iter().copied()).collect();
            return Err(format!("unknown command {name:?}; known: all, {}", all.join(", ")));
        }
    }
    Ok(selected)
}

/// Parses the command line (without the program name) into the selected
/// experiments and their context, creating the output directory; a bad
/// argument is an error message, never a panic.
fn parse_cli(args: &[String]) -> Result<(Vec<&'static Experiment>, Ctx), String> {
    let mut names = Vec::new();
    let mut groups = 3u64;
    let mut blocks = 1600u32;
    let mut pe_step = 1500u32;
    let mut quick = false;
    let mut gc = false;
    let mut out = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => quick = true,
            "--gc" => {
                gc = match value("--gc")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--gc takes 'on' or 'off', got {other:?}")),
                };
            }
            "--groups" => groups = positive("--groups", value("--groups")?)?,
            "--blocks" => blocks = positive("--blocks", value("--blocks")?)?,
            "--pe-step" => pe_step = positive("--pe-step", value("--pe-step")?)?,
            "--out" => out = PathBuf::from(value("--out")?),
            name => names.push(name),
        }
    }
    if quick {
        groups = 2;
        blocks = 400;
        pe_step = 3000;
    }
    if names.is_empty() {
        names.push("all");
    }
    let selected = select(&names)?;
    let mut params = ExperimentParams {
        group_seeds: (0..groups).collect(),
        pe_points: (0..=3000).step_by(pe_step as usize).collect(),
        ..ExperimentParams::default()
    };
    params.config.geometry = Geometry::new(4, 1, blocks, 96, 4, CellType::Tlc);
    std::fs::create_dir_all(&out)
        .map_err(|e| format!("cannot create output directory {}: {e}", out.display()))?;
    let cache = params.cache();
    Ok((selected, Ctx { params, cache, out, quick, gc }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, ctx) = parse_cli(&args).unwrap_or_else(|msg| {
        eprintln!("repro: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let t0 = std::time::Instant::now();
    for e in selected {
        eprintln!("[{:?}] running {} ...", t0.elapsed(), e.names.join("/"));
        (e.run)(&ctx);
    }
    eprintln!("done in {:?}; results under {}", t0.elapsed(), ctx.out.display());
}

fn comparison_table(ctx: &Ctx, title: &str, r: &exp::ComparisonResult, file: &str) {
    let mut t = TextTable::new(["Method", "Extra PGM LTN", "Extra ERS LTN", "PGM LTN ↓", "Imp. %"]);
    t.row([
        r.baseline.name.clone(),
        us(r.baseline.extra_pgm_us),
        us(r.baseline.extra_ers_us),
        "-".into(),
        "-".into(),
    ]);
    for s in &r.schemes {
        t.row([
            s.name.clone(),
            us(s.extra_pgm_us),
            us(s.extra_ers_us),
            us(s.pgm_reduction_us(&r.baseline)),
            pct(s.pgm_improvement_pct(&r.baseline)),
        ]);
    }
    ctx.emit(title, &t, file);
}

fn table1(ctx: &Ctx) {
    comparison_table(
        ctx,
        "Table I: eight directions",
        &exp::table1(&ctx.params, &ctx.cache),
        "table1.csv",
    );
}

fn table2(ctx: &Ctx) {
    comparison_table(
        ctx,
        "Table II: STR-RANK window sizes",
        &exp::table2(&ctx.params, &ctx.cache),
        "table2.csv",
    );
}

fn table5(ctx: &Ctx) {
    let r = exp::table5(&ctx.params, &ctx.cache);
    comparison_table(ctx, "Table V: extra program and erase latency", &r, "table5.csv");
    // Figure 12: improvement percentages.
    let mut t = TextTable::new(["Method", "PGM Imp. %", "ERS Imp. %"]);
    for s in &r.schemes {
        t.row([
            s.name.clone(),
            pct(s.pgm_improvement_pct(&r.baseline)),
            pct(s.ers_improvement_pct(&r.baseline)),
        ]);
    }
    ctx.emit("Figure 12: improvement over random", &t, "fig12.csv");
}

fn fig5(ctx: &Ctx) {
    let d = exp::fig5(ctx.params.group_seeds[0], ctx.params.config.geometry.blocks_per_plane());
    let mut e = TextTable::new(["chip", "plane", "block", "tBERS_us"]);
    for (c, p, b, t) in &d.erase_rows {
        e.row([c.to_string(), p.to_string(), b.to_string(), format!("{t:.1}")]);
    }
    ctx.csv(&e, "fig5_erase.csv");
    let mut pr = TextTable::new(["chip", "plane", "block", "lwl", "tPROG_us"]);
    for (c, p, b, w, t) in &d.program_rows {
        pr.row([c.to_string(), p.to_string(), b.to_string(), w.to_string(), format!("{t:.1}")]);
    }
    ctx.csv(&pr, "fig5_program.csv");
    let mean_bers = d.erase_rows.iter().map(|r| r.3).sum::<f64>() / d.erase_rows.len() as f64;
    println!(
        "== Figure 5 == wrote {} erase rows and {} program rows (mean tBERS {}); see fig5_*.csv\n",
        d.erase_rows.len(),
        d.program_rows.len(),
        us(mean_bers)
    );
}

fn fig6(ctx: &Ctx) {
    let d = exp::fig6(&ctx.params, &ctx.cache);
    let mut t = TextTable::new(["superblock", "extra_pgm_us", "extra_ers_us"]);
    for (i, p, e) in &d.per_superblock {
        t.row([i.to_string(), format!("{p:.1}"), format!("{e:.1}")]);
    }
    ctx.csv(&t, "fig6_superblocks.csv");
    let mut t2 = TextTable::new(["pe", "extra_pgm_us", "extra_ers_us"]);
    for (pe, p, e) in &d.per_pe {
        t2.row([pe.to_string(), format!("{p:.1}"), format!("{e:.1}")]);
    }
    ctx.emit("Figure 6: random assembly extra latency", &t2, "fig6_pe.csv");
}

fn fig13(ctx: &Ctx) {
    let hists = exp::fig13(&ctx.params, &ctx.cache, 500.0);
    let max_bins = hists.iter().map(|h| h.counts.len()).max().unwrap_or(0);
    let mut header = vec!["bin_lo_us".to_string()];
    header.extend(hists.iter().map(|h| h.name.clone()));
    let mut t = TextTable::new(header);
    for bin in 0..max_bins {
        let mut row = vec![format!("{:.0}", bin as f64 * 500.0)];
        for h in &hists {
            row.push(h.counts.get(bin).copied().unwrap_or(0).to_string());
        }
        t.row(row);
    }
    ctx.emit("Figure 13: extra PGM latency distribution", &t, "fig13.csv");
}

fn fig14(ctx: &Ctx) {
    let d = exp::fig14(&ctx.params, &ctx.cache);
    let mut t = TextTable::new(["rank", "str_med_us", "qstr_med_us", "random_us"]);
    for (i, s, q, r) in &d.rows {
        t.row([i.to_string(), format!("{s:.1}"), format!("{q:.1}"), format!("{r:.1}")]);
    }
    ctx.csv(&t, "fig14.csv");
    let mean = |f: fn(&(usize, f64, f64, f64)) -> f64| {
        d.rows.iter().map(f).sum::<f64>() / d.rows.len() as f64
    };
    println!(
        "== Figure 14 == mean extra PGM: STR-MED {} vs QSTR-MED {} vs random {} ({} superblocks); fig14.csv\n",
        us(mean(|r| r.1)),
        us(mean(|r| r.2)),
        us(mean(|r| r.3)),
        d.rows.len()
    );
}

fn fig15(ctx: &Ctx) {
    let pe_points: Vec<u32> = (0..=3000).step_by(300).collect();
    let d = exp::fig15(&ctx.params, &ctx.cache, &pe_points);
    let mut t = TextTable::new(["pe", "random_pgm", "qstr_pgm", "random_ers", "qstr_ers"]);
    for (pe, rp, qp, re, qe) in &d.rows {
        t.row([
            pe.to_string(),
            format!("{rp:.1}"),
            format!("{qp:.1}"),
            format!("{re:.2}"),
            format!("{qe:.2}"),
        ]);
    }
    ctx.emit("Figure 15: P/E sensitivity", &t, "fig15.csv");
}

fn overhead(ctx: &Ctx) {
    let o = exp::overhead_analysis(&ctx.params, &ctx.cache);
    println!("== Overhead (§VI-B-2, §VI-D) ==");
    println!("STR-MED(4) distance checks / superblock : {}", o.str_med_checks);
    println!("QSTR-MED(4) distance checks / superblock: {}", o.qstr_med_checks);
    println!("reduction                               : {}", pct(o.reduction_pct));
    println!("measured QSTR checks per superblock     : {:.2}", o.measured_checks_per_superblock);
    let mut t = TextTable::new(["capacity_B", "block_B", "lwls", "metadata_B"]);
    for (cap, blk, lwls, bytes) in &o.space_rows {
        t.row([cap.to_string(), blk.to_string(), lwls.to_string(), bytes.to_string()]);
    }
    println!("{}", t.render());
    ctx.csv(&t, "overhead.csv");
}

fn ablation(ctx: &Ctx) {
    let rows = exp::ablation(&ctx.params);
    let mut t = TextTable::new(["model variant", "random extra PGM", "random extra ERS"]);
    for (name, p, e) in &rows {
        t.row([name.clone(), us(*p), us(*e)]);
    }
    ctx.emit("Ablation: variation sources", &t, "ablation.csv");
}

fn stats(ctx: &Ctx) {
    let s = exp::pool_stats(&ctx.params, &ctx.cache);
    println!("== Characterization statistics (§III) ==");
    println!("erase-program correlation          : {:.3}", s.bers_pgm_correlation);
    println!("same-offset eigen distance (norm.) : {:.4}", s.same_offset_eigen_distance);
    println!("random-pair eigen distance (norm.) : {:.4}", s.random_pair_eigen_distance);
    println!(
        "offset similarity premise          : {}",
        if s.offset_similarity_holds() { "holds" } else { "violated" }
    );
    let mut t = TextTable::new(["pool", "mean PGM sum", "std PGM sum", "mean tBERS", "std tBERS"]);
    for (i, p) in s.per_pool.iter().enumerate() {
        t.row([
            i.to_string(),
            us(p.mean_pgm_sum_us),
            us(p.std_pgm_sum_us),
            us(p.mean_tbers_us),
            us(p.std_tbers_us),
        ]);
    }
    println!("{}", t.render());
    ctx.csv(&t, "stats.csv");
}

fn qstr_sweep(ctx: &Ctx) {
    let rows = exp::qstr_candidate_sweep(&ctx.params, &ctx.cache);
    let mut t = TextTable::new(["candidates", "extra PGM LTN", "checks/superblock"]);
    for (c, pgm, checks) in &rows {
        t.row([c.to_string(), us(*pgm), format!("{checks:.1}")]);
    }
    ctx.emit("Ablation: QSTR-MED candidate depth", &t, "qstr_sweep.csv");
}

fn ers_corr(ctx: &Ctx) {
    let rows = exp::ers_corr_ablation(&ctx.params);
    let mut t = TextTable::new(["ers_pgm_corr", "random ERS", "QSTR-MED ERS"]);
    for (corr, rnd, qstr) in &rows {
        t.row([format!("{corr:.2}"), us(*rnd), us(*qstr)]);
    }
    ctx.emit("Ablation: erase-program correlation", &t, "ers_corr.csv");
}

fn retry(ctx: &Ctx) {
    let rows = exp::retry_sensitivity(ctx.params.group_seeds[0]);
    let mut t = TextTable::new(["pe", "retention_h", "mean read us", "mean retries"]);
    for (pe, ret, lat, retries) in &rows {
        t.row([pe.to_string(), format!("{ret:.0}"), format!("{lat:.1}"), format!("{retries:.2}")]);
    }
    ctx.emit("Read-retry sensitivity (wear + retention)", &t, "retry.csv");
}

fn resilience(ctx: &Ctx) {
    // Small enough that the write stream cycles every block several
    // times — wear is what makes the fault axis bite.
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    let (writes, rates): (usize, &[f64]) = if ctx.quick {
        (20_000, &[0.0, 0.01, 0.02])
    } else {
        (60_000, &[0.0, 0.002, 0.005, 0.01, 0.02])
    };
    let rows = exp::resilience_experiment(&geo, writes, 7, rates);
    let mut t = TextTable::new([
        "fault rate",
        "Scheme",
        "write mean",
        "write p99",
        "WAF",
        "extra PGM/op",
        "retired",
        "remapped",
        "refreshed",
        "degraded SBs",
    ]);
    for r in &rows {
        t.row([
            format!("{:.3}", r.fault_rate),
            r.scheme.clone(),
            us(r.write_mean_us),
            us(r.write_p99_us),
            format!("{:.3}", r.waf),
            us(r.extra_pgm_per_op_us),
            r.retired_blocks.to_string(),
            r.remapped_writes.to_string(),
            r.refresh_relocations.to_string(),
            r.degraded_superblocks.to_string(),
        ]);
    }
    ctx.emit("Resilience: fault-rate sweep (§VI-C)", &t, "resilience.csv");
}

fn parity(ctx: &Ctx) {
    // Same small geometry as the resilience sweep; the experiment
    // retunes the fault injector to page-granular losses (weak-block
    // MSB pages just past the retry ladder) — the regime where a
    // single parity page per super word-line can actually rebuild.
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    // 40k writes: enough wear that the fault axis bites, while the
    // highest-rate parity cell (whose stripe stream programs 12
    // physical pages per 11 logical) still keeps GC ahead of
    // block retirement.
    let (writes, rates): (usize, &[f64]) = if ctx.quick {
        (20_000, &[0.0, 0.01, 0.02])
    } else {
        (40_000, &[0.0, 0.005, 0.01, 0.015, 0.02])
    };
    let rows = exp::parity_experiment(&geo, writes, 7, rates);
    let mut t = TextTable::new([
        "fault rate",
        "Scheme",
        "parity",
        "logical pages",
        "capacity",
        "uncorrectable",
        "rebuilt",
        "dbl-fail",
        "sweep unc",
        "sweep lost",
        "mean rebuild",
        "rebuild ok",
        "straggler",
        "refreshed",
        "read p99",
        "write p99",
    ]);
    for r in &rows {
        t.row([
            format!("{:.3}", r.fault_rate),
            r.scheme.clone(),
            if r.parity { "on" } else { "off" }.to_string(),
            r.logical_pages.to_string(),
            format!("{:.3}", r.capacity_ratio),
            r.uncorrectable_reads.to_string(),
            r.rebuilds_ok.to_string(),
            r.rebuilds_failed.to_string(),
            r.sweep_uncorrectable.to_string(),
            r.sweep_lost.to_string(),
            us(r.mean_rebuild_us),
            us(r.mean_rebuild_ok_us),
            us(r.mean_rebuild_straggler_us),
            r.refresh_relocations.to_string(),
            us(r.read_p99_us),
            us(r.write_p99_us),
        ]);
    }
    ctx.emit("Superpage parity: off/on × scheme × fault rate", &t, "parity.csv");
    // Capacity cost is exactly the reserved stripe slot, never more.
    for r in rows.iter().filter(|r| r.parity) {
        assert!(
            r.capacity_ratio > 0.90 && r.capacity_ratio < 1.0,
            "parity reserve should cost one page per super word-line, got ratio {:.3}",
            r.capacity_ratio
        );
    }
    // Headline (a): on the identical final read-back sweep,
    // wherever the parity-off device lost pages, the parity-on
    // twin rebuilt some and lost strictly fewer.
    for off in rows.iter().filter(|r| !r.parity && r.sweep_lost > 0) {
        let on = rows
            .iter()
            .find(|r| r.parity && r.scheme == off.scheme && r.fault_rate == off.fault_rate)
            .expect("every off cell has an on twin");
        assert!(
            on.rebuilds_ok > 0,
            "{} @ {}: parity must rebuild some of the {} lost pages",
            off.scheme,
            off.fault_rate,
            off.sweep_lost
        );
        assert!(
            on.sweep_lost < off.sweep_lost,
            "{} @ {}: parity-on swept {} lost pages vs parity-off {}",
            off.scheme,
            off.fault_rate,
            on.sweep_lost,
            off.sweep_lost
        );
    }
    // Headline (b): a rebuild fans its sibling reads out across the
    // stripe members and waits for the slowest chain, so its wall
    // time is the stripe's mean chain plus a straggler cost.
    // QSTR-MED's unified tBR bounds that straggler below PV-blind
    // sequential assembly's. Measured over successful rebuilds —
    // failed attempts read rotten siblings at the full retry
    // ladder — and as critical-minus-mean so that *which* pool the
    // rebuilt stripes sit in (wear, hot/cold skew) cancels out.
    let straggler = |scheme: &str| -> f64 {
        let cells: Vec<&exp::ParityRow> =
            rows.iter().filter(|r| r.parity && r.scheme == scheme).collect();
        let ok: u64 = cells.iter().map(|r| r.rebuilds_ok).sum();
        let total: f64 =
            cells.iter().map(|r| r.mean_rebuild_straggler_us * r.rebuilds_ok as f64).sum();
        total / ok.max(1) as f64
    };
    let (seq, med) = (straggler("Sequential"), straggler("QstrMed { candidates: 4 }"));
    println!(
        "mean rebuild straggler cost (critical path over the stripe's mean member \
         chain): PV-blind sequential {} vs QSTR-MED {} ({} lower)",
        us(seq),
        us(med),
        pct(100.0 * (seq - med) / seq.max(1e-9)),
    );
    assert!(
        med < seq,
        "QSTR-MED's unified tBR must bound the rebuild straggler cost below \
         PV-blind sequential's slowest member ({med:.2} vs {seq:.2} µs)"
    );
    // Fleet soak leg: the stripe active on every shard, the patrol
    // verifying parity during its existing scan, and the hardened
    // no-data-loss invariant (which now also demands zero failed
    // rebuilds) holding end to end.
    let (users, devices) = if ctx.quick { (3_000, 2) } else { (6_000, 3) };
    let soak = exp::parity_soak_experiment(users, devices, 23, 0);
    let mismatches: u64 = soak.devices.iter().map(|d| d.parity_mismatch).sum();
    println!(
        "parity fleet soak: {} devices, {} live pages, {} unreadable, {} stripes \
         parity-verified ({} mismatches), {} rebuilds ok / {} failed — no data loss: {}\n",
        soak.devices.len(),
        soak.live_lpns,
        soak.unreadable_lpns,
        soak.parity_verified,
        mismatches,
        soak.rebuilds_ok,
        soak.rebuilds_failed,
        soak.no_data_loss(),
    );
    assert!(
        soak.parity_verified > 0,
        "the patrol pass must verify sealed stripes' parity during its scan"
    );
    assert_eq!(mismatches, 0, "a sealed stripe's XOR no longer closed to zero");
    assert!(
        soak.no_data_loss(),
        "parity fleet soak lost data: an unreadable page or a failed rebuild"
    );
}

fn recovery(ctx: &Ctx) {
    // Same small geometry as the resilience sweep: the write stream
    // cycles the device several times, so the crash lands in a
    // steady state with sealed superblocks and live GC.
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    let (writes, intervals): (usize, &[u64]) =
        if ctx.quick { (20_000, &[0, 64, 256]) } else { (60_000, &[0, 16, 64, 256, 1024]) };
    let rows = exp::recovery_experiment(&geo, writes, 7, intervals);
    let mut t = TextTable::new([
        "Scheme",
        "ckpt interval",
        "crashed at req",
        "scan pages",
        "recovered",
        "torn discarded",
        "recovery_us",
        "known blocks",
        "durable",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            r.checkpoint_interval.to_string(),
            r.crashed_at_request.to_string(),
            r.scan_pages.to_string(),
            r.recovered_mappings.to_string(),
            r.torn_writes_discarded.to_string(),
            format!("{:.0}", r.recovery_time_us),
            r.known_blocks_after.to_string(),
            if r.durable_ok { "ok".into() } else { "LOST DATA".to_string() },
        ]);
    }
    ctx.emit("Crash recovery: checkpoint-interval sweep", &t, "recovery.csv");
    assert!(rows.iter().all(|r| r.durable_ok), "recovery must be exact");
}

fn queueing(ctx: &Ctx) {
    // Saturating arrival rate (mean gap well under the mean per-op
    // service time) so the serial and per-chip clocks separate.
    let geo = Geometry::new(4, 1, 48, 24, 4, CellType::Tlc);
    let writes = if ctx.quick { 20_000 } else { 60_000 };
    let rows = exp::queueing_experiment(&geo, writes, 7, 30.0);
    let mut t = TextTable::new([
        "Scheme",
        "Model",
        "write mean",
        "write p99",
        "makespan_us",
        "service_us",
        "peak QD",
        "mean util",
        "peak util",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            r.queue_model.clone(),
            us(r.write_mean_us),
            us(r.write_p99_us),
            format!("{:.0}", r.makespan_us),
            format!("{:.0}", r.service_us),
            r.queue_depth_max.to_string(),
            format!("{:.3}", r.mean_chip_utilization),
            format!("{:.3}", r.peak_chip_utilization),
        ]);
    }
    ctx.emit("Queueing: timing model sweep (scheme x queue model)", &t, "queueing.csv");
}

fn tenants(ctx: &Ctx) {
    // Small geometry (as in the resilience sweep). With --gc off
    // the write volume stays below the GC watermarks so tail
    // latency reflects where each tenant's programs land; with
    // --gc on the volume exceeds the watermarks and the sliced
    // preemptive collector keeps the LC tail monotone anyway.
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    let (per_tenant, budget) = if ctx.gc {
        let n = if ctx.quick { 8_000 } else { 14_000 };
        (n, GcBudget::Sliced { slice_us: 300.0 })
    } else {
        eprintln!(
            "warning: tenants --gc off (default): write volume is sized below the GC \
             watermarks, so collection never runs; pass --gc on for the GC-active sweep"
        );
        (if ctx.quick { 1_200 } else { 2_000 }, GcBudget::Unbounded)
    };
    let (rows, gc) = exp::tenants_experiment(&geo, per_tenant, 7, 2500.0, budget);
    let gc_label = if ctx.gc { "on" } else { "off" };
    let mut t = TextTable::new([
        "Scheme",
        "Arb",
        "GC",
        "Tenant",
        "QoS",
        "weight",
        "completed",
        "write p50",
        "write p99",
        "read p99",
        "mean wait",
        "peak depth",
        "backpressured",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            r.arbitration.clone(),
            gc_label.to_string(),
            r.tenant.clone(),
            r.qos.clone(),
            r.weight.to_string(),
            r.completed.to_string(),
            us(r.write_p50_us),
            us(r.write_p99_us),
            us(r.read_p99_us),
            us(r.mean_queue_wait_us),
            r.depth_high_water.to_string(),
            r.backpressured.to_string(),
        ]);
    }
    ctx.emit("Multi-tenant QoS: tenant mix x arbitration x scheme", &t, "tenants.csv");
    // Headline: QSTR-MED's fast/slow split should widen the p99
    // write-latency gap between the background and latency-critical
    // tenants beyond what PV-blind sequential assembly shows.
    let p99 = |scheme: &str, tenant: &str| -> f64 {
        rows.iter()
            .filter(|r| r.scheme.starts_with(scheme) && r.tenant == tenant)
            .map(|r| r.write_p99_us)
            .sum::<f64>()
            / 2.0
    };
    let seq_gap = p99("Sequential", "bg") - p99("Sequential", "lc");
    let qstr_gap = p99("QstrMed", "bg") - p99("QstrMed", "lc");
    println!(
        "bg-vs-lc write p99 gap (mean over arbitrations): sequential {} vs QSTR-MED {}\n",
        us(seq_gap),
        us(qstr_gap)
    );
    if ctx.gc {
        println!(
            "GC activity: {} victims collected over {} slices ({} parked mid-victim); \
             slice time p50 {} / p99 {} / max {}; worst per-command stall {}",
            gc.runs,
            gc.slices,
            gc.yields,
            us(gc.slice_us.quantile_us(0.5)),
            us(gc.slice_us.quantile_us(0.99)),
            us(gc.slice_us.max_us()),
            us(gc.max_stall_us),
        );
        // The tentpole's success metric: with GC active, the
        // QSTR-MED write p99 stays monotone in QoS class for every
        // replicate seed, not just on average.
        let mut all_ok = true;
        for arb in ["rr", "wrr"] {
            let find = |tenant: &str| {
                rows.iter()
                    .find(|r| {
                        r.scheme.starts_with("QstrMed")
                            && r.arbitration == arb
                            && r.tenant == tenant
                    })
                    .expect("QSTR-MED row exists for every tenant")
            };
            let (lc, std_t, bg) = (find("lc"), find("std"), find("bg"));
            let reps = lc.write_p99_reps_us.len();
            let ok = (0..reps).all(|i| {
                lc.write_p99_reps_us[i] <= std_t.write_p99_reps_us[i]
                    && std_t.write_p99_reps_us[i] <= bg.write_p99_reps_us[i]
            });
            all_ok &= ok;
            let fmt = |r: &[f64]| r.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>().join("/");
            println!(
                "QSTR-MED {arb}: LC <= Std <= Bg write p99 per replicate: {} \
                 (lc {} | std {} | bg {})",
                if ok { "monotone in all replicates" } else { "VIOLATED" },
                fmt(&lc.write_p99_reps_us),
                fmt(&std_t.write_p99_reps_us),
                fmt(&bg.write_p99_reps_us),
            );
        }
        assert!(all_ok, "GC-active QSTR-MED p99 must stay monotone in QoS class");
        println!();
    }
}

fn fleet(ctx: &Ctx) {
    // Fleet-scale sweep: one sharded multi-user workload replayed
    // over N GC-active devices per (scheme, arbitration) cell. The
    // full run shards a million users; --quick keeps the same
    // GC-active regime (each shard overwrites its logical space
    // several times) on a two-device fleet.
    let (users, devices, mean_ops) = if ctx.quick { (10_000, 4, 8.0) } else { (1_000_000, 8, 4.0) };
    let rows = exp::fleet_experiment(users, devices, mean_ops, 11, 0);
    let mut t = TextTable::new([
        "Scheme",
        "Arb",
        "devices",
        "users",
        "commands",
        "fleet p99",
        "fleet p999",
        "fleet p9999",
        "max",
        "max dev p99",
        "med dev p99",
        "skew",
        "backpressured",
        "GC slices",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            r.arbitration.clone(),
            r.devices.to_string(),
            r.users.to_string(),
            r.commands.to_string(),
            us(r.fleet_p99_us),
            us(r.fleet_p999_us),
            us(r.fleet_p9999_us),
            us(r.max_us),
            us(r.max_device_p99_us),
            us(r.median_device_p99_us),
            format!("{:.2}", r.device_skew),
            r.backpressured.to_string(),
            r.gc_slices.to_string(),
        ]);
    }
    ctx.emit("Fleet: scheme x arbitration over a sharded user population", &t, "fleet.csv");
    // Headline: at fleet scale, PV-aware placement must move the
    // tail of tails — the p999 over every command on every device.
    let p999 = |scheme: &str| -> f64 {
        rows.iter().filter(|r| r.scheme.starts_with(scheme)).map(|r| r.fleet_p999_us).sum::<f64>()
            / 2.0
    };
    let (seq, qstr) = (p999("Sequential"), p999("QstrMed"));
    let verdict = if qstr <= seq {
        "lower with PV-aware placement"
    } else if ctx.quick {
        "higher — quick sizing leaves only dozens of samples past p999; \
         run without --quick for the powered comparison"
    } else {
        "HIGHER — regression"
    };
    println!(
        "fleet p999 (mean over arbitrations): sequential {} vs QSTR-MED {} ({} {})",
        us(seq),
        us(qstr),
        pct(100.0 * (seq - qstr) / seq),
        verdict,
    );
    // Placement quality shows up hardest in the unluckiest shard:
    // PV-blind assembly leaves some device with a slow-pool-heavy
    // mix, QSTR-MED evens the fleet out.
    let skew = |scheme: &str| -> f64 {
        rows.iter().filter(|r| r.scheme.starts_with(scheme)).map(|r| r.device_skew).sum::<f64>()
            / 2.0
    };
    println!(
        "device skew, max/median shard p99 (mean over arbitrations): sequential {:.2} vs \
         QSTR-MED {:.2}\n",
        skew("Sequential"),
        skew("QstrMed"),
    );
    assert!(
        (seq - qstr).abs() > f64::EPSILON,
        "placement scheme must move the fleet p999 (both cells read {seq})"
    );
}

fn integrity(ctx: &Ctx) {
    // Accelerated retention aging: a hot set churns in the fast
    // pool while a cold set rots in the slow pool and is read back
    // round-robin; uncorrectable cold reads are the score. The
    // patrol interval is a restart cadence, so at the tight
    // interval the idle budget cannot cover the whole device per
    // cycle and the scan order decides who gets protected.
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    let (accels, intervals): (&[f64], &[f64]) =
        if ctx.quick { (&[0.006], &[50_000.0]) } else { (&[0.004, 0.006], &[50_000.0, 150_000.0]) };
    let rows = exp::integrity_experiment(&geo, 9_000, 7, accels, intervals);
    let mut t = TextTable::new([
        "Scheme",
        "patrol",
        "interval_us",
        "accel h/us",
        "uncorrectable",
        "patrol refresh",
        "scanned",
        "passes",
        "patrol_us",
        "refresh_us",
        "clock_us",
        "read p99",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            r.patrol.clone(),
            format!("{:.0}", r.interval_us),
            format!("{:.3}", r.accel_h_per_us),
            r.cold_uncorrectable.to_string(),
            r.patrol_refreshes.to_string(),
            r.patrol_scanned_pages.to_string(),
            r.patrol_passes.to_string(),
            format!("{:.0}", r.patrol_us),
            format!("{:.0}", r.refresh_us),
            format!("{:.0}", r.clock_us),
            us(r.read_p99_us),
        ]);
    }
    ctx.emit("Data integrity: patrol x aging x scheme", &t, "integrity.csv");
    // Headlines: the scrubber must beat no-patrol on the aged cold
    // tail, and PV-aware ordering must protect it at least as well
    // as a blind sealed-order scan of the same budget.
    let mean = |label: &str| -> f64 {
        let cells: Vec<u64> =
            rows.iter().filter(|r| r.patrol == label).map(|r| r.cold_uncorrectable).collect();
        cells.iter().sum::<u64>() as f64 / cells.len().max(1) as f64
    };
    let (off, blind, slow) = (mean("off"), mean("blind"), mean("slow-first"));
    println!(
        "uncorrectable cold reads per cell: no patrol {off:.0} vs blind patrol \
         {blind:.0} vs PV-aware slow-pool-first {slow:.0} ({} fewer than no patrol)",
        pct(100.0 * (off - slow) / off.max(1.0)),
    );
    assert!(slow < off, "patrol must cut uncorrectable reads on the aged cold tail");
    assert!(blind < off, "even a blind scrubber must beat no patrol");
    assert!(
        slow <= blind,
        "PV-aware slow-pool-first ordering must protect the cold tail at least as \
         well as a blind scan"
    );
    // Fleet soak: every shard ages under the same machinery, then
    // every live LPN is swept. The invariant — not a latency — is
    // the deliverable: nothing is silently lost.
    let (users, devices) = if ctx.quick { (3_000, 2) } else { (6_000, 3) };
    let soak = exp::soak_experiment(users, devices, 23, 0);
    println!(
        "fleet soak: {} devices, {} live pages, {} unreadable, {} sweep uncorrectable \
         (all refreshed in-path), {} patrol refreshes — no data loss: {}\n",
        soak.devices.len(),
        soak.live_lpns,
        soak.unreadable_lpns,
        soak.sweep_uncorrectable,
        soak.patrol_refreshes,
        soak.no_data_loss(),
    );
    assert!(soak.no_data_loss(), "fleet soak lost data: a live page failed to read back");
}

fn ssd(ctx: &Ctx) {
    let geo = Geometry::new(4, 1, 48, 24, 4, CellType::Tlc);
    let rows = exp::ssd_experiment(&geo, 60_000, 7);
    let mut t = TextTable::new([
        "Scheme",
        "write mean",
        "write p99",
        "WAF",
        "extra PGM/op",
        "extra ERS/op",
        "checks",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            us(r.write_mean_us),
            us(r.write_p99_us),
            format!("{:.3}", r.waf),
            us(r.extra_pgm_per_op_us),
            us(r.extra_ers_per_op_us),
            r.distance_checks.to_string(),
        ]);
    }
    ctx.emit("End-to-end SSD (hot/cold 80/20)", &t, "ssd.csv");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_and_aliased_names_select_each_experiment_once() {
        let selected = select(&["table5", "fig12", "all"]).expect("known commands");
        assert_eq!(selected.len(), 22);
        assert_eq!(selected[0].names[0], "table5");
        for e in EXPERIMENTS {
            let n = selected.iter().filter(|&&s| std::ptr::eq(s, e)).count();
            assert_eq!(n, 1, "{:?}", e.names);
        }
        // No name selects two experiments, and none shadows `all`.
        let mut names: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|e| e.names.iter().copied()).collect();
        names.push("all");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name appears in two rows");
    }
}
