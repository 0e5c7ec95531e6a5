//! Calibration summary: prints the Table I / Table V quantities for the
//! current `VariationConfig` defaults next to the paper's targets, so the
//! model parameters can be tuned until shapes match.
//!
//! Usage: `cargo run --release -p repro-bench --bin calibrate [--quick]`

use repro_bench::report::{pct, us, TextTable};
use repro_bench::runner::{run_scheme, run_schemes_parallel, ExperimentParams, SchemeKind};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut params = ExperimentParams::default();
    if quick {
        params.group_seeds = vec![0, 1];
        params.pe_points = vec![0];
        params.config.geometry =
            flash_model::Geometry::new(4, 1, 400, 96, 4, flash_model::CellType::Tlc);
    }

    // Paper targets: (name, extra PGM µs, improvement %, extra ERS µs).
    let targets: Vec<(&str, SchemeKind, f64, f64, Option<f64>)> = vec![
        ("Random", SchemeKind::Random, 13084.17, 0.0, Some(41.71)),
        ("Sequential", SchemeKind::Sequential, 11716.60, 10.45, Some(40.12)),
        ("ERS-LTN", SchemeKind::ErsLatency, 11965.82, 8.55, None),
        ("PGM-LTN", SchemeKind::PgmLatency, 11727.79, 10.37, None),
        ("Optimal(8)", SchemeKind::Optimal(8), 10533.44, 19.49, Some(22.65)),
        ("LWL-RANK(8)", SchemeKind::LwlRank(8), 11238.53, 14.11, None),
        ("PWL-RANK(8)", SchemeKind::PwlRank(8), 11047.31, 15.57, None),
        ("STR-RANK(8)", SchemeKind::StrRank(8), 10694.12, 18.27, None),
        ("STR-RANK(6)", SchemeKind::StrRank(6), 10723.11, 18.05, None),
        ("STR-RANK(4)", SchemeKind::StrRank(4), 10805.03, 17.42, None),
        ("STR-RANK(2)", SchemeKind::StrRank(2), 11118.39, 15.02, None),
        ("STR-MED(4)", SchemeKind::StrMed(4), 10894.23, 16.74, Some(24.97)),
        ("QSTR-MED(4)", SchemeKind::QstrMed(4), 10911.53, 16.61, Some(25.10)),
    ];

    eprintln!(
        "calibrating on {} groups x {} blocks/pool x {} P/E points ...",
        params.group_seeds.len(),
        params.config.geometry.blocks_per_plane(),
        params.pe_points.len()
    );

    let t0 = std::time::Instant::now();
    let cache = params.cache();
    let baseline = run_scheme(&params, &cache, SchemeKind::Random);
    eprintln!("baseline done in {:?}", t0.elapsed());
    let kinds: Vec<SchemeKind> = targets.iter().skip(1).map(|t| t.1).collect();
    let results = run_schemes_parallel(&params, &cache, &kinds);
    eprintln!("all schemes done in {:?}", t0.elapsed());

    let mut table = TextTable::new([
        "Method",
        "PGM meas",
        "PGM paper",
        "Imp% meas",
        "Imp% paper",
        "ERS meas",
        "ERS paper",
    ]);
    table.row([
        "Random".to_string(),
        us(baseline.extra_pgm_us),
        us(13084.17),
        "-".to_string(),
        "-".to_string(),
        us(baseline.extra_ers_us),
        us(41.71),
    ]);
    for (t, r) in targets.iter().skip(1).zip(&results) {
        table.row([
            t.0.to_string(),
            us(r.extra_pgm_us),
            us(t.2),
            pct(r.pgm_improvement_pct(&baseline)),
            pct(t.3),
            us(r.extra_ers_us),
            t.4.map_or("-".to_string(), us),
        ]);
    }
    println!("{}", table.render());
}
