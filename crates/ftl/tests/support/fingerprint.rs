//! Replay fingerprints for golden tables.
//!
//! A fingerprint lists every [`SsdStats`] field in declaration order:
//! counters verbatim, floats as bit patterns, and each sample vector plus
//! `chip_busy_us` folded order-sensitively into one word. The device
//! fingerprint appends the final page mapping, folded the same way. One
//! reassociated float add, skipped RNG draw, reordered sample or moved page
//! changes a word, and the failure names the field.
//!
//! Shared by the `ftl` and `host` integration tests (the host suite pulls
//! this file in by path).

#![allow(dead_code)]

use ftl::{Ssd, SsdStats};

/// FNV-1a over 64-bit words: a flipped bit, a swapped pair or an extra
/// word anywhere in the sequence changes the result.
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |acc, w| (acc ^ w).wrapping_mul(0x100_0000_01b3))
}

/// [`fold`] over the bit patterns of `xs`.
pub fn fold_f64(xs: &[f64]) -> u64 {
    fold(xs.iter().map(|x| x.to_bits()))
}

/// Every field of `s`. The destructuring names each field, so adding one
/// to [`SsdStats`] fails to compile here until the fingerprint covers it.
pub fn stats(s: &SsdStats) -> Vec<(&'static str, u64)> {
    let SsdStats {
        host_writes,
        host_writes_by_class,
        host_reads,
        host_trims,
        gc_relocations,
        gc_runs,
        gc_slices,
        gc_yield_count,
        gc_slice_us,
        gc_stall_us,
        gc_stall,
        superwl_programs,
        superblock_erases,
        superblocks_assembled,
        extra_program_us,
        extra_erase_us,
        busy_us,
        idle_gc_us,
        retired_blocks,
        remapped_writes,
        refresh_relocations,
        uncorrectable_reads,
        refresh_us,
        patrol_us,
        patrol_scanned_pages,
        patrol_refreshes,
        patrol_passes,
        degraded_superblocks,
        queue_wait_us,
        trim_wait_us,
        queue_depth_max,
        makespan_us,
        chip_busy_us,
        write_latency,
        read_latency,
        recovery_scan_pages,
        recovered_mappings,
        torn_writes_discarded,
        recovery_time_us,
        rebuild_reads,
        rebuilds_ok,
        rebuilds_failed,
        rebuild_us,
        rebuild_ok_us,
        rebuild_ok_fanout_us,
        parity_verified,
        parity_mismatch,
    } = s;
    vec![
        ("host_writes", *host_writes),
        ("host_writes_lc", host_writes_by_class[0]),
        ("host_writes_std", host_writes_by_class[1]),
        ("host_writes_bg", host_writes_by_class[2]),
        ("host_reads", *host_reads),
        ("host_trims", *host_trims),
        ("gc_relocations", *gc_relocations),
        ("gc_runs", *gc_runs),
        ("gc_slices", *gc_slices),
        ("gc_yield_count", *gc_yield_count),
        ("gc_slice_us", fold_f64(gc_slice_us.samples_us())),
        ("gc_stall_us", gc_stall_us.to_bits()),
        ("gc_stall", fold_f64(gc_stall.samples_us())),
        ("superwl_programs", *superwl_programs),
        ("superblock_erases", *superblock_erases),
        ("superblocks_assembled.0", superblocks_assembled.0),
        ("superblocks_assembled.1", superblocks_assembled.1),
        ("extra_program_us", extra_program_us.to_bits()),
        ("extra_erase_us", extra_erase_us.to_bits()),
        ("busy_us", busy_us.to_bits()),
        ("idle_gc_us", idle_gc_us.to_bits()),
        ("retired_blocks", *retired_blocks),
        ("remapped_writes", *remapped_writes),
        ("refresh_relocations", *refresh_relocations),
        ("uncorrectable_reads", *uncorrectable_reads),
        ("refresh_us", refresh_us.to_bits()),
        ("patrol_us", patrol_us.to_bits()),
        ("patrol_scanned_pages", *patrol_scanned_pages),
        ("patrol_refreshes", *patrol_refreshes),
        ("patrol_passes", *patrol_passes),
        ("degraded_superblocks", *degraded_superblocks),
        ("queue_wait_us", queue_wait_us.to_bits()),
        ("trim_wait_us", trim_wait_us.to_bits()),
        ("queue_depth_max", *queue_depth_max),
        ("makespan_us", makespan_us.to_bits()),
        ("chip_busy_us", fold_f64(chip_busy_us)),
        ("write_latency", fold_f64(write_latency.samples_us())),
        ("read_latency", fold_f64(read_latency.samples_us())),
        ("recovery_scan_pages", *recovery_scan_pages),
        ("recovered_mappings", *recovered_mappings),
        ("torn_writes_discarded", *torn_writes_discarded),
        ("recovery_time_us", recovery_time_us.to_bits()),
        ("rebuild_reads", *rebuild_reads),
        ("rebuilds_ok", *rebuilds_ok),
        ("rebuilds_failed", *rebuilds_failed),
        ("rebuild_us", rebuild_us.to_bits()),
        ("rebuild_ok_us", rebuild_ok_us.to_bits()),
        ("rebuild_ok_fanout_us", rebuild_ok_fanout_us.to_bits()),
        ("parity_verified", *parity_verified),
        ("parity_mismatch", *parity_mismatch),
    ]
}

/// The logical-to-physical mapping of every exported LPN, folded in LPN
/// order (an unmapped LPN folds a sentinel word).
pub fn mapping(dev: &Ssd) -> u64 {
    let map = dev.mapping();
    fold((0..dev.geometry_info().logical_pages).flat_map(|lpn| match map.lookup(lpn) {
        Some(p) => [
            u64::from(p.wl.block.chip.0),
            u64::from(p.wl.block.plane.0),
            u64::from(p.wl.block.block.0),
            u64::from(p.wl.lwl.0),
            p.page as u64,
        ],
        None => [u64::MAX; 5],
    }))
}

/// [`stats`] of the device followed by its final [`mapping`].
pub fn device(dev: &Ssd) -> Vec<(&'static str, u64)> {
    let mut fp = stats(dev.stats());
    fp.push(("mapping", mapping(dev)));
    fp
}

/// Asserts `got` equals the pinned words `want`, field by field. A length
/// mismatch prints `got` in table form.
pub fn assert_pinned(got: &[(&str, u64)], want: &[u64], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: fingerprint length; got {}", render(got));
    for (i, ((name, have), want)) in got.iter().zip(want).enumerate() {
        assert_eq!(have, want, "{tag}: word {i} ({name}) drifted ({have:#x} vs pinned {want:#x})");
    }
}

/// Renders `got` as a Rust array literal (counters in decimal, every other
/// word in hex), the form the golden tables store.
pub fn render(got: &[(&str, u64)]) -> String {
    let words: Vec<String> = got
        .iter()
        .map(|&(_, w)| if w < 1 << 32 { w.to_string() } else { format!("{w:#x}") })
        .collect();
    format!("[{}]", words.join(", "))
}
