//! The frontend's determinism contract: a single tenant with unit weight
//! and an unbounded submission queue must be a structural no-op — the
//! device sees exactly the request stream `Ssd::run_timed` would feed it,
//! so every stat comes out bit-identical. Any reordered float, extra RNG
//! draw or changed dispatch decision in the frontend shows up here.
//!
//! The workload mirrors `crates/ftl/tests/timed_golden.rs` (which pins
//! `run_timed` itself against pre-engine golden bits), so this test
//! transitively pins the frontend to those goldens too.
//!
//! The multi-tenant tables pin frontend fingerprints (device stats and
//! mapping, dispatch order, every per-tenant stat) under arbitration,
//! bounded queues with backpressure, both queue models, a sliced
//! collector, active patrol and parity. They were recorded from the
//! rescan drain over the one-op-at-a-time device replay, back when that
//! pair was the event drain's oracle.

mod support;

use flash_model::FaultConfig;
use ftl::{
    poisson_arrivals, FtlConfig, GcBudget, IntegrityConfig, IoOp, IoRequest, ParityConfig,
    PatrolConfig, PatrolOrder, QosClass, QueueModel, Ssd, Workload,
};
use host::{Arbitration, HostFrontend, TenantSpec};
use support::fingerprint::assert_pinned;

/// Mixed open-loop workload over the small-test device: 3x-capacity random
/// writes over half the LPNs with reads (hits and guaranteed misses) and
/// trims folded in, arriving Poisson at 800 µs mean.
fn workload(dev: &Ssd) -> Vec<(f64, IoRequest)> {
    let info = dev.geometry_info();
    let n = (info.logical_pages * 3) as usize;
    let mut reqs = Workload::random_write(0.5).generate(&info, n, 5);
    for (i, r) in reqs.iter_mut().enumerate() {
        match i % 7 {
            3 => r.op = IoOp::Read,
            5 => *r = IoRequest { op: IoOp::Read, lpn: info.logical_pages - 1 },
            6 if i % 14 == 6 => r.op = IoOp::Trim,
            _ => {}
        }
    }
    poisson_arrivals(&reqs, 800.0, 1)
}

fn device(idle_gc: bool, model: QueueModel) -> Ssd {
    let mut config = FtlConfig::small_test();
    config.idle_gc = idle_gc;
    config.queue_model = model;
    Ssd::new(config, 3).unwrap()
}

#[test]
fn single_tenant_frontend_is_bit_identical_to_run_timed() {
    for idle_gc in [false, true] {
        for model in [QueueModel::Single, QueueModel::PerChip] {
            let tag = format!("idle_gc={idle_gc} model={model:?}");

            let mut direct = device(idle_gc, model);
            let timed = workload(&direct);
            direct.run_timed(&timed).unwrap();

            let mut front = HostFrontend::new(
                device(idle_gc, model),
                vec![TenantSpec::new("only", QosClass::Standard)],
                Arbitration::WeightedRoundRobin,
            );
            front.submit(0, &timed);
            front.run().unwrap();
            assert!(front.drained(), "{tag}");
            assert!(front.dispatch_log().iter().all(|&k| k == 0), "{tag}");

            let (d, f) = (direct.stats(), front.device().stats());
            assert_eq!(d.host_writes, f.host_writes, "{tag} host_writes");
            assert_eq!(d.host_reads, f.host_reads, "{tag} host_reads");
            assert_eq!(d.host_trims, f.host_trims, "{tag} host_trims");
            assert_eq!(d.host_writes_by_class, f.host_writes_by_class, "{tag} by_class");
            assert_eq!(d.gc_runs, f.gc_runs, "{tag} gc_runs");
            assert_eq!(d.gc_relocations, f.gc_relocations, "{tag} gc_relocations");
            assert_eq!(d.superwl_programs, f.superwl_programs, "{tag} superwl_programs");
            assert_eq!(
                d.superblocks_assembled, f.superblocks_assembled,
                "{tag} superblocks_assembled"
            );
            assert_eq!(d.write_latency.len(), f.write_latency.len(), "{tag} write samples");
            assert_eq!(
                d.write_latency.mean_us().to_bits(),
                f.write_latency.mean_us().to_bits(),
                "{tag} write mean drifted"
            );
            assert_eq!(
                d.write_latency.quantile_us(0.99).to_bits(),
                f.write_latency.quantile_us(0.99).to_bits(),
                "{tag} write p99 drifted"
            );
            assert_eq!(
                d.write_latency.max_us().to_bits(),
                f.write_latency.max_us().to_bits(),
                "{tag} write max drifted"
            );
            assert_eq!(d.read_latency.len(), f.read_latency.len(), "{tag} read samples");
            assert_eq!(
                d.read_latency.mean_us().to_bits(),
                f.read_latency.mean_us().to_bits(),
                "{tag} read mean drifted"
            );
            assert_eq!(d.busy_us.to_bits(), f.busy_us.to_bits(), "{tag} busy_us drifted");
            assert_eq!(d.idle_gc_us.to_bits(), f.idle_gc_us.to_bits(), "{tag} idle_gc_us drifted");
            assert_eq!(d.makespan_us.to_bits(), f.makespan_us.to_bits(), "{tag} makespan drifted");
            assert_eq!(d.waf().to_bits(), f.waf().to_bits(), "{tag} WAF drifted");
            assert_eq!(
                d.extra_program_per_op_us().to_bits(),
                f.extra_program_per_op_us().to_bits(),
                "{tag} extra PGM drifted"
            );
            assert_eq!(d.trim_wait_us.to_bits(), f.trim_wait_us.to_bits(), "{tag} trim wait");
            assert_eq!(d.queue_wait_us.to_bits(), f.queue_wait_us.to_bits(), "{tag} queue wait");
            assert_eq!(d.queue_depth_max, f.queue_depth_max, "{tag} device queue depth");
            for (i, (a, b)) in d.chip_busy_us.iter().zip(&f.chip_busy_us).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{tag} chip_busy_us[{i}] drifted");
            }
            assert_eq!(d.chip_busy_us.len(), f.chip_busy_us.len(), "{tag} chip clock count");

            // The frontend's own per-tenant histogram must agree with the
            // device's: with submit == arrival the end-to-end write latency
            // is wait + service, exactly what the device records.
            let t = front.tenant_stats(0);
            assert_eq!(t.completed as usize, timed.len(), "{tag} tenant completions");
            assert_eq!(t.backpressured, 0, "{tag} unbounded queue never backpressures");
            assert_eq!(t.write_latency.len(), f.write_latency.len(), "{tag} tenant write samples");
            assert_eq!(
                t.write_latency.mean_us().to_bits(),
                f.write_latency.mean_us().to_bits(),
                "{tag} tenant write mean matches device"
            );
            assert_eq!(
                t.read_latency.mean_us().to_bits(),
                f.read_latency.mean_us().to_bits(),
                "{tag} tenant read mean matches device"
            );
        }
    }
}

/// One arrival-timed request stream per tenant.
type Streams = Vec<Vec<(f64, IoRequest)>>;

fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("db", QosClass::LatencyCritical).weight(4),
        TenantSpec::new("app", QosClass::Standard).weight(2).queue_depth(6),
        TenantSpec::new("scrub", QosClass::Background).queue_depth(2),
    ]
}

/// Three tenants with different rates and mixes; the scrub tenant's tiny
/// queue plus fast arrivals guarantees backpressure.
fn streams(dev: &Ssd) -> Streams {
    let info = dev.geometry_info();
    let mut out = Vec::new();
    for (tenant, mean_us) in [(0u64, 120.0), (1, 300.0), (2, 40.0)] {
        let n = (info.logical_pages / 2) as usize;
        let mut reqs = Workload::random_write(0.5).generate(&info, n, tenant);
        for (i, r) in reqs.iter_mut().enumerate() {
            match i % 5 {
                2 => r.op = IoOp::Read,
                4 if i % 10 == 4 => r.op = IoOp::Trim,
                _ => {}
            }
        }
        out.push(poisson_arrivals(&reqs, mean_us, tenant + 7));
    }
    out
}

/// Writes-per-tenant beyond capacity so collection stays busy; with
/// `reads`, every fifth command from the third on is a read instead.
fn busy_streams(dev: &Ssd, reads: bool) -> Streams {
    let info = dev.geometry_info();
    let mut out = Vec::new();
    for (tenant, mean_us) in [(0u64, 120.0), (1, 300.0), (2, 40.0)] {
        let n = info.logical_pages as usize;
        let mut reqs = Workload::random_write(0.4).generate(&info, n, tenant);
        for (i, r) in reqs.iter_mut().enumerate() {
            if reads && i % 5 == 2 {
                r.op = IoOp::Read;
            }
        }
        out.push(poisson_arrivals(&reqs, mean_us, tenant + 7));
    }
    out
}

/// Replays `streams` of `config`'s device through [`specs`] under `arb`.
fn replay(config: FtlConfig, arb: Arbitration, streams: fn(&Ssd) -> Streams) -> HostFrontend {
    let dev = Ssd::new(config, 3).unwrap();
    let streams = streams(&dev);
    let mut front = HostFrontend::new(dev, specs(), arb);
    for (tenant, stream) in streams.iter().enumerate() {
        front.submit(tenant, stream);
    }
    front.run().unwrap();
    assert!(front.drained());
    front
}

/// A `PerChip` device with idle GC and a 300 µs sliced collector.
fn sliced_config() -> FtlConfig {
    let mut config = FtlConfig::small_test();
    config.queue_model = QueueModel::PerChip;
    config.idle_gc = true;
    config.gc_budget = GcBudget::Sliced { slice_us: 300.0 };
    config
}

#[test]
fn batched_drain_matches_stepper_drain_bit_for_bit() {
    let cells = [QueueModel::Single, QueueModel::PerChip]
        .into_iter()
        .flat_map(|m| [(m, Arbitration::RoundRobin), (m, Arbitration::WeightedRoundRobin)]);
    for ((model, arb), want) in cells.zip(MULTI_TENANT) {
        let mut config = FtlConfig::small_test();
        config.queue_model = model;
        let front = replay(config, arb, streams);
        assert_pinned(&support::frontend(&front), want, &format!("{model:?} {arb:?}"));
    }
}

#[test]
fn batched_drain_matches_stepper_drain_with_sliced_gc() {
    // With a sliced budget the drain consults `gc_slice_pending()` and
    // masks readiness to latency-critical queues, so the masking decision
    // points show in the dispatch order.
    let front =
        replay(sliced_config(), Arbitration::WeightedRoundRobin, |d| busy_streams(d, false));
    assert!(front.device().stats().gc_slices > 0, "workload must exercise slices");
    assert_pinned(&support::frontend(&front), SLICED, "sliced");
}

#[test]
fn batched_drain_matches_stepper_drain_with_patrol_active() {
    // Full integrity stack under multi-tenant arbitration: every idle-gap
    // patrol slice, every overdue-patrol ladder payment (folded into
    // gc_stall_us) and every reactive refresh.
    let mut config = sliced_config();
    config.integrity = IntegrityConfig {
        track: true,
        retention_hours_per_us: 0.005,
        patrol: PatrolConfig::On {
            interval_us: 20_000.0,
            slice_us: 300.0,
            refresh_fraction: 0.5,
            order: PatrolOrder::SlowPoolFirst,
        },
    };
    let front = replay(config, Arbitration::WeightedRoundRobin, |d| busy_streams(d, true));
    assert!(front.device().stats().patrol_scanned_pages > 0, "patrol: the regime must scan");
    assert_pinned(&support::frontend(&front), PATROL, "patrol");
}

#[test]
fn batched_drain_matches_stepper_drain_with_active_parity() {
    // Parity on + faulty media under multi-tenant arbitration: stripe
    // rebuilds fire mid-drain and their emergency-GC slices land in
    // gc_stall_us. Parity off on the same media must stay inert: no stripe
    // reads.
    for (parity, want) in [(ParityConfig::On, PARITY_ON), (ParityConfig::Off, PARITY_OFF)] {
        let mut config = FtlConfig::small_test();
        config.queue_model = QueueModel::PerChip;
        config.parity = parity;
        config.fault = FaultConfig {
            weak_block_prob: 0.15,
            weak_ber_multiplier: 150.0,
            page_type_ber_spread: 0.35,
            ..FaultConfig::default()
        };
        let front = replay(config, Arbitration::WeightedRoundRobin, streams);
        let s = front.device().stats();
        if parity == ParityConfig::On {
            assert!(s.uncorrectable_reads > 0, "parity: the media must produce uncorrectables");
            assert!(s.rebuild_reads > 0, "parity: rebuilds must fire");
        } else {
            assert_eq!(s.rebuild_reads, 0, "parity off: no stripe reads");
        }
        assert_pinned(&support::frontend(&front), want, &format!("{parity:?}"));
    }
}

#[test]
fn batched_traced_submission_builds_identical_streams() {
    // Interleave three tenants' requests in a deliberately shuffled order
    // with duplicate arrival times; routing them in one call must give the
    // same replay as submitting each request on its own (stats and
    // dispatch order pin the stream contents).
    let build = |batched: bool| {
        let dev = Ssd::new(FtlConfig::small_test(), 3).unwrap();
        let info = dev.geometry_info();
        let mut traced = Vec::new();
        for i in 0..600u64 {
            let tenant = (i % 3) as u8;
            let lpn = (i * 17) % info.logical_pages;
            let line = format!("W,{lpn},1,{tenant}\n");
            let parsed = ftl::trace::parse_trace_tenants(line.as_bytes()).unwrap();
            // Coarse arrival grid: collisions across and within tenants.
            traced.push(((i % 50) as f64 * 100.0, parsed[0]));
        }
        let mut front = HostFrontend::new(dev, specs(), Arbitration::WeightedRoundRobin);
        if batched {
            front.submit_traced_batched(&traced);
        } else {
            for &(arrival, t) in &traced {
                front.submit(t.tenant as usize, &[(arrival, t.request)]);
            }
        }
        front.run().unwrap();
        support::frontend(&front)
    };
    assert_eq!(build(false), build(true), "per-request and batched submission diverged");
}

/// `Single` RR, `Single` WRR, `PerChip` RR, `PerChip` WRR.
#[rustfmt::skip]
const MULTI_TENANT: [&[u64]; 4] = [
    &[
        7257, 2419, 2419, 2419, 1108, 1038, 0, 0, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        603, 21, 14, 7, 0x40d5d06666666662, 0x4090200000000000, 0x4133fd4ddff0794c, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0x41d6c9b79209a342, 0x41a2462b055c8c9b, 9, 0x4133fd7893b467c3,
        0xcbf29ce484222325, 0xa8b7e229a4bacea8, 0x5d2a53b6f779c114, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0xc1f7c3514f015a28, 0x6505026abb9b0fa5, 0xd0456c830255fbb4, 0x3cdd2ecb9e3aefaf,
        0x9fe51add47009cdd,
    ],
    &[
        7257, 2419, 2419, 2419, 1116, 1038, 0, 0, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        603, 21, 14, 7, 0x40d58ffffffffffd, 0x4090200000000000, 0x4133ff8411021c07, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0x41c17750a96f8298, 0x418c04b9081d5ec1, 21, 0x4133ffaec4c60a7e,
        0xcbf29ce484222325, 0xe591c7ce116b0501, 0xee031e66f395259f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0xeec85f051031641e, 0x3203ea79110147e3, 0xe8363c5d6ce78fca, 0x12de1776b7dc020,
        0x3fc0450cde1aa092,
    ],
    &[
        7257, 2419, 2419, 2419, 1108, 1038, 0, 0, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        603, 21, 14, 7, 0x40d5d06666666662, 0x4090200000000000, 0x4133fd4ddff0794c, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0x41d1d0572f76801e, 0, 9, 0x4132e52ddbbd4ca4, 0xdf41efcfd02b0a41,
        0xb2d50d10fbc5493f, 0x2e564cbeb19f1c0e, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0xc1f7c3514f015a28, 0x6505026abb9b0fa5, 0xda3f44f85acdc534, 0x43f8b4a21077f0a5,
        0x9732bee48a91d4b2,
    ],
    &[
        7257, 2419, 2419, 2419, 1116, 1038, 0, 0, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325,
        603, 21, 14, 7, 0x40d58ffffffffffd, 0x4090200000000000, 0x4133ff8411021c07, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0x41b837bcf10bce75, 0, 20, 0x4132cad40c16cc41, 0x4fa95dc44868b96e,
        0xddd153689be3e93f, 0x253e62c8657b3358, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0xeec85f051031641e, 0x3203ea79110147e3, 0x9e04a89fb1765c91, 0x97bc41780241ac7f,
        0x768657f281216bcd,
    ],
];

#[rustfmt::skip]
const SLICED: &[u64] = &[
    20736, 6912, 6912, 6912, 0, 0, 1107, 37, 219, 183, 0x877f4a60638cafd5, 0x411055dee6fb800e,
    0x9ed204d0c20b8355, 1838, 58, 36, 22, 0x40f0ff99999999de, 0x40a53c0000000000,
    0x414c82e11012a347, 0x40d52a8628317c40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x41eaf93197f0d8a3, 0,
    392, 0x414b65976c79d7ca, 0x3e8c752795292a47, 0x54db84ed23ea957d, 0xcbf29ce484222325, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe2d4e31461d1a092, 0x8b835f75322a628b, 0xbe7665f9621955b6,
    0xd3abf4d0b67f8269, 0x2d3b932a2c58a7ad,
];

#[rustfmt::skip]
const PATROL: &[u64] = &[
    16590, 5530, 5530, 5530, 3455, 0, 912, 27, 184, 162, 0x3ad796bb40d2a778, 0x4109fa76bc4e3dfb,
    0xcca706c9ea73a575, 1467, 48, 30, 18, 0x40ea8ecccccccd31, 0x40a1a00000000000,
    0x4148f782c1978264, 0x40d0b44bf4778e3a, 0, 0, 0, 0, 0, 0x40fb5c282c803199, 1576, 20, 6, 0,
    0x41c6b855edd01bca, 0, 1231, 0x4147557921b56295, 0x98a41d8c46fc44bb, 0x7b4c268a45a9827c,
    0x601180239fd81650, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x245c247a79e2be5a, 0x6b9cd23487429cbf,
    0xceb8f4c32b78701c, 0x7642e1664fd8d4e1, 0x1a5c632d41a256ff,
];

#[rustfmt::skip]
const PARITY_ON: &[u64] = &[
    6651, 2217, 2217, 2217, 1027, 951, 0, 0, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325, 605,
    22, 14, 8, 0x40d5e7666666665f, 0x4090b00000000000, 0x41349ef64caebcae, 0, 0, 0, 32, 32,
    0x40bc34cccccccccc, 0, 0, 0, 0, 0, 0x41b91ff5d1f5f297, 0, 20, 0x41336c51511aeffd,
    0xcedef99299790ed7, 0xe8f443aa84ef43fe, 0xa2c06d5e7dcdcf50, 0, 0, 0, 0, 352, 7, 25,
    0x40d8613fdced1868, 0x40b05cd342d5b1fc, 0x40c1032c61b0aa2f, 0, 0, 0xbe79acaa0550a686,
    0xa4cc96f068dc9403, 0x6c1424f9e5b54b3, 0x160667d69008bcb7, 0xf4164949758f8a73,
];

#[rustfmt::skip]
const PARITY_OFF: &[u64] = &[
    7257, 2419, 2419, 2419, 1116, 1038, 0, 0, 0, 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325, 607,
    22, 14, 8, 0x40d5823333333329, 0x4090b00000000000, 0x41349c24617cd28c, 0, 0, 0, 48, 48,
    0x40c54d6666666666, 0, 0, 0, 0, 0, 0x41b91b9fc9541f03, 0, 20, 0x41335bc39bc1d578,
    0x85cfde2c28780957, 0xafd309c2dec7eda1, 0xb4720aad2549703c, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0xc1aca768216a7770, 0x3203ea79110147e3, 0x5731e51a0ad29350, 0xddb3798c4f1f9bda,
    0x1ab3a86d2188c759,
];
