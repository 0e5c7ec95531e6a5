//! `assembly_paper`: the paper's offline path — latency synthesis, every
//! organization scheme of Table I plus Random and QSTR-MED, and the
//! extra-latency evaluation of every superblock they build.

use super::{ratio, sub_seed, time_build, SimLatency};
use crate::run::{Checks, Rep, Workload};
use crate::trace::Tracer;
use flash_model::{FlashArray, FlashConfig};
use ftl::LatencyHistogram;
use pvcheck::assembly::{
    Assembler, LatencySortAssembly, OptimalAssembly, QstrMed, RandomAssembly, RankAssembly,
    RankStrategy, SequentialAssembly, SortKey,
};
use pvcheck::{BlockPool, Characterizer, ExtraLatency, Superblock};
use std::collections::HashSet;

/// End-of-life wear, where process variation is widest.
const PE: u32 = 3_000;

/// Spans whose time counts toward `ops_per_s`. `Optimal(8)` runs and is
/// traced in every rep but is left out: its branch-and-bound cost swings
/// about 2.5x with the chip population (0.22-0.58 s over eight seeds at 400
/// blocks per plane), which would make the spread across seeds wider than
/// any usable bound.
const MEASURED: [&str; 5] = [
    "pvcheck.snapshot",
    "pvcheck.assemble_simple",
    "pvcheck.assemble_rank",
    "pvcheck.assemble_qstr_med",
    "pvcheck.eval",
];

pub struct Assembly {
    seed: u64,
    config: FlashConfig,
}

impl Assembly {
    pub fn new(seed: u64, quick: bool) -> Self {
        let config = if quick {
            FlashConfig::builder().blocks_per_plane(128).pwl_layers(24).build()
        } else {
            FlashConfig::paper_platform()
        };
        Assembly { seed, config }
    }

    fn build(&self) -> (FlashArray, Characterizer) {
        (FlashArray::new(self.config.clone(), self.seed), Characterizer::new(&self.config))
    }

    /// The Table I roster plus Random (first) and QSTR-MED(4) (last), each
    /// with the span its assembly time is charged to.
    fn roster(&self) -> Vec<(&'static str, Box<dyn Assembler>)> {
        vec![
            ("pvcheck.assemble_simple", Box::new(RandomAssembly::new(sub_seed(self.seed, 1)))),
            ("pvcheck.assemble_simple", Box::new(SequentialAssembly::new())),
            ("pvcheck.assemble_simple", Box::new(LatencySortAssembly::new(SortKey::Erase))),
            ("pvcheck.assemble_simple", Box::new(LatencySortAssembly::new(SortKey::Program))),
            ("pvcheck.assemble_optimal", Box::new(OptimalAssembly::new(8))),
            ("pvcheck.assemble_rank", Box::new(RankAssembly::new(RankStrategy::Lwl, 8))),
            ("pvcheck.assemble_rank", Box::new(RankAssembly::new(RankStrategy::Pwl, 8))),
            ("pvcheck.assemble_rank", Box::new(RankAssembly::new(RankStrategy::Str, 8))),
            ("pvcheck.assemble_rank", Box::new(RankAssembly::new(RankStrategy::StrMedian, 4))),
            ("pvcheck.assemble_qstr_med", Box::new(QstrMed::with_candidates(4))),
        ]
    }
}

/// Superblocks that break the assembly contract: a member outside the
/// pool, two members from one pool, a pool left out, or a block reused.
fn invalid(pool: &BlockPool, sbs: &[Superblock]) -> u64 {
    let mut seen = HashSet::new();
    let mut bad = 0;
    for sb in sbs {
        let mut pools = HashSet::new();
        let ok = sb.members.len() == pool.pool_count()
            && sb
                .members
                .iter()
                .all(|&m| seen.insert(m) && pool.pool_of(m).is_some_and(|p| pools.insert(p)));
        bad += u64::from(!ok);
    }
    bad
}

/// Program latency of every super word-line — the slowest member's tPROG,
/// which is what a multi-plane program waits for.
fn superpage_program_us(pool: &BlockPool, sbs: &[Superblock]) -> Vec<f64> {
    let mut out = Vec::new();
    for sb in sbs {
        let members: Vec<&[f64]> =
            sb.members.iter().filter_map(|&m| pool.profile(m)).map(|p| p.tprog_us()).collect();
        let wls = members.first().map_or(0, |m| m.len());
        out.extend((0..wls).map(|wl| members.iter().map(|m| m[wl]).fold(f64::MIN, f64::max)));
    }
    out
}

impl Workload for Assembly {
    fn setup_s(&self) -> f64 {
        time_build(|| self.build())
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut checks = Checks::default();
        let (array, chr) = tr.span("pvcheck.setup", |_| self.build());
        let pool = tr.span("pvcheck.snapshot", |_| chr.snapshot(array.latency_model(), PE));
        let mut superblocks = 0u64;
        let mut means = Vec::new();
        let mut superpages = Vec::new();
        for (span, mut scheme) in self.roster() {
            let sbs = tr.span(span, |_| scheme.assemble(&pool));
            let extras: Vec<_> = tr.span("pvcheck.eval", |_| {
                sbs.iter().map(|sb| ExtraLatency::of_superblock(&pool, sb)).collect()
            });
            tr.span("bench.check", |_| {
                let short = pool.min_pool_len().abs_diff(sbs.len()) as u64;
                let broken = extras.iter().filter(|e| e.is_err()).count() as u64;
                let bad = invalid(&pool, &sbs) + broken + short;
                checks.count(
                    &format!("{} superblocks", scheme.name()),
                    sbs.len() as u64 + short,
                    bad,
                );
                if span == "pvcheck.assemble_qstr_med" {
                    superpages = superpage_program_us(&pool, &sbs);
                }
            });
            superblocks += sbs.len() as u64;
            let sum: f64 = extras.iter().flatten().map(|e| e.program_us).sum();
            means.push(ratio(sum, sbs.len() as f64));
        }
        let (random, qstr) = (means[0], means[means.len() - 1]);
        checks.expect(qstr < random, || {
            format!("QSTR-MED extra {qstr} µs not below Random's {random} µs")
        });

        let mut latency = LatencyHistogram::new();
        latency.extend(&superpages);
        let sim = SimLatency::of(&latency, "superpage program latency", &mut checks);
        let measured_s = MEASURED.iter().map(|n| tr.total(n)).sum();
        let blocks = self.config.geometry.total_blocks();
        let mut rep = Rep::finish(tr, tr.total("pvcheck.setup"), measured_s, blocks);
        rep.sim = sim.metrics();
        rep.layers = vec![
            ("pvcheck.setup_s", tr.total("pvcheck.setup")),
            ("pvcheck.snapshot_s", tr.total("pvcheck.snapshot")),
            ("pvcheck.assemble_simple_s", tr.total("pvcheck.assemble_simple")),
            ("pvcheck.assemble_optimal_s", tr.total("pvcheck.assemble_optimal")),
            ("pvcheck.assemble_rank_s", tr.total("pvcheck.assemble_rank")),
            ("pvcheck.assemble_qstr_med_s", tr.total("pvcheck.assemble_qstr_med")),
            ("pvcheck.eval_s", tr.total("pvcheck.eval")),
            ("pvcheck.superblocks", superblocks as f64),
            ("sim.samples", sim.samples),
            ("pvcheck.extra_pgm_us", qstr),
            ("pvcheck.qstr_gain_pct", ratio(random - qstr, random) * 100.0),
        ];
        rep.checks = checks;
        rep
    }
}
