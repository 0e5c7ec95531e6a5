//! Fault-injection regression tests.
//!
//! Two contracts guard the fault layer:
//!
//! 1. **Bit-identity with faults disabled.** The injector must be a strict
//!    no-op by default: the end-to-end SSD experiment reproduces the exact
//!    bit patterns recorded before the fault layer existed. Any extra RNG
//!    draw, reordered latency fold or gated-path drift breaks these
//!    constants. The goldens also predate sudden-power-off recovery, whose
//!    OOB programs, seal records, journal and checkpoints are always on,
//!    so they pin that machinery's zero simulated cost too.
//! 2. **Graceful degradation with faults enabled.** At a 2% per-cycle
//!    block-kill rate every scheme completes, blocks retire, lost pages
//!    remap, and QSTR-MED keeps its extra-program-latency win over the
//!    random baseline (the §VI-C claim).

use flash_model::{CellType, Geometry};
use repro_bench::experiments::{resilience_experiment, ssd_experiment};

/// One scheme's pre-fault-layer golden output, recorded as IEEE-754 bit
/// patterns so the comparison is exact.
struct Golden {
    scheme: &'static str,
    write_mean_us: u64,
    write_p99_us: u64,
    waf: u64,
    extra_pgm_per_op_us: u64,
    extra_ers_per_op_us: u64,
    busy_us: u64,
    distance_checks: u64,
}

/// Golden outputs of
/// `ssd_experiment(&Geometry::new(4, 1, 24, 8, 4, Tlc), 20_000, 7)`
/// recorded before the fault layer existed.
const GOLDEN: [Golden; 3] = [
    Golden {
        scheme: "Random",
        write_mean_us: 0x4067d09e6a7eb329,
        write_p99_us: 0x409d7b3333333333,
        waf: 0x3ff16bb98c7e2824,
        extra_pgm_per_op_us: 0x403de9eef61582de,
        extra_ers_per_op_us: 0x4046a08ad8f2fba9,
        busy_us: 0x414d122960ffa9b4,
        distance_checks: 0,
    },
    Golden {
        scheme: "Sequential",
        write_mean_us: 0x4067d0ef371465e8,
        write_p99_us: 0x409d7b3333333333,
        waf: 0x3ff16bb98c7e2824,
        extra_pgm_per_op_us: 0x403dbe3f4b71febc,
        extra_ers_per_op_us: 0x4045d0456c797dd5,
        busy_us: 0x414d128c02bc6666,
        distance_checks: 0,
    },
    Golden {
        scheme: "QstrMed { candidates: 4 }",
        write_mean_us: 0x4067cbd1f3be9ca9,
        write_p99_us: 0x409d7b3333333333,
        waf: 0x3ff16bb98c7e2824,
        extra_pgm_per_op_us: 0x403c6b0969c7a2b0,
        extra_ers_per_op_us: 0x4044a4e1a08ad8f3,
        busy_us: 0x414d0c4dca0a2e3c,
        distance_checks: 519,
    },
];

#[test]
fn disabled_faults_reproduce_prefault_goldens_bit_for_bit() {
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    let rows = ssd_experiment(&geo, 20_000, 7);
    assert_eq!(rows.len(), GOLDEN.len());
    for (row, golden) in rows.iter().zip(&GOLDEN) {
        let scheme = golden.scheme;
        assert_eq!(row.scheme, scheme);
        assert_eq!(
            row.write_mean_us.to_bits(),
            golden.write_mean_us,
            "{scheme} write mean drifted"
        );
        assert_eq!(row.write_p99_us.to_bits(), golden.write_p99_us, "{scheme} write p99 drifted");
        assert_eq!(row.waf.to_bits(), golden.waf, "{scheme} WAF drifted");
        assert_eq!(
            row.extra_pgm_per_op_us.to_bits(),
            golden.extra_pgm_per_op_us,
            "{scheme} extra PGM drifted"
        );
        assert_eq!(
            row.extra_ers_per_op_us.to_bits(),
            golden.extra_ers_per_op_us,
            "{scheme} extra ERS drifted"
        );
        assert_eq!(row.busy_us.to_bits(), golden.busy_us, "{scheme} busy time drifted");
        assert_eq!(row.distance_checks, golden.distance_checks, "{scheme} distance checks drifted");
    }
}

#[test]
fn two_percent_faults_degrade_gracefully_and_preserve_scheme_ordering() {
    let geo = Geometry::new(4, 1, 24, 8, 4, CellType::Tlc);
    let rows = resilience_experiment(&geo, 20_000, 7, &[0.0, 0.02]);
    assert_eq!(rows.len(), 6, "two rates x three schemes");
    let (clean, faulty) = rows.split_at(3);
    for r in clean {
        assert_eq!(r.retired_blocks, 0, "{}: clean media retires nothing", r.scheme);
        assert_eq!(r.remapped_writes, 0);
        assert_eq!(r.refresh_relocations, 0);
        assert_eq!(r.degraded_superblocks, 0);
    }
    for r in faulty {
        assert!(r.retired_blocks > 0, "{}: 2% faults must retire blocks", r.scheme);
        assert!(r.remapped_writes > 0, "{}: failed programs must remap pages", r.scheme);
        assert!(r.waf >= 1.0, "{}: WAF stays sane", r.scheme);
    }
    // The paper's ordering survives faulty media: QSTR-MED still beats the
    // random baseline on extra program latency.
    let pgm = |scheme: &str| {
        faulty
            .iter()
            .find(|r| r.scheme.starts_with(scheme))
            .map(|r| r.extra_pgm_per_op_us)
            .expect("scheme present")
    };
    let random = pgm("Random");
    let qstr = pgm("QstrMed");
    assert!(qstr < random, "QSTR-MED {qstr} must beat random {random} under faults");
}
