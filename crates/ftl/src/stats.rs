//! Device statistics: latencies, write amplification, extra-latency
//! accounting.

use crate::sched::{from_total_key, total_key};

/// Key bits one counting pass of [`LatencyHistogram::quantile_us`] fixes:
/// 2,048 counters (16 KiB on the stack), six passes over a 64-bit key.
const DIGIT_BITS: u32 = 11;

/// A simple latency sample collector with percentile queries.
///
/// It keeps its samples and nothing else. A quantile query selects its
/// nearest-rank sample in O(n) by counting the samples' order keys, without
/// sorting and without allocating: every caller asks at most a few
/// quantiles of one histogram, and one selection costs a fraction of one
/// sort.
///
/// ```
/// use ftl::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for us in [120.0, 85.0, 310.0, 95.0] {
///     h.record(us);
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.max_us(), 310.0);
/// assert!((h.mean_us() - 152.5).abs() < 1e-12);
/// assert_eq!(h.quantile_us(0.99), 310.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples_us: Vec<f64>,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, us: f64) {
        self.samples_us.push(us);
    }

    /// Appends a batch of samples in order. Appending the same values in
    /// the same order as per-op [`LatencyHistogram::record`] calls leaves
    /// the sample vector — and therefore every mean/quantile/max —
    /// bit-identical.
    pub fn extend(&mut self, samples_us: &[f64]) {
        self.samples_us.extend_from_slice(samples_us);
    }

    /// Folds another histogram's samples into this one (append order:
    /// `self`'s samples first, then `other`'s).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.extend(&other.samples_us);
    }

    /// Builds one histogram from many parts — the cross-device reduction
    /// primitive. Samples are concatenated in part order, so the sample
    /// vector, and every answer, is bit-identical to chaining
    /// [`LatencyHistogram::merge`] over the same parts.
    ///
    /// Nearest-rank quantiles keep their semantics after a fold — which
    /// matters at the deep tail: `quantile_us(0.9999)` reads the sample at
    /// index `round((n - 1) * 0.9999)`, so with fewer than ~5 000 merged
    /// samples p9999 pins to the single maximum sample, and only around
    /// n ≥ 20 001 does it move off the top two. Fleet-level p9999 is
    /// therefore only meaningful on the *merged* population, never on a
    /// per-device histogram of a few thousand commands.
    #[must_use]
    pub fn fold<'a, I>(parts: I) -> LatencyHistogram
    where
        I: IntoIterator<Item = &'a LatencyHistogram>,
    {
        let parts: Vec<&LatencyHistogram> = parts.into_iter().collect();
        let mut samples_us = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            samples_us.extend_from_slice(&part.samples_us);
        }
        LatencyHistogram { samples_us }
    }

    /// The recorded samples in insertion order.
    #[must_use]
    pub fn samples_us(&self) -> &[f64] {
        &self.samples_us
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Mean latency, or 0 when empty.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        self.samples_us.iter().sum::<f64>() / self.samples_us.len() as f64
    }

    /// The `q`-quantile of the recorded samples by nearest-rank, or 0 when
    /// empty.
    ///
    /// The estimator is the conventional nearest-rank over the ascending
    /// [`f64::total_cmp`] order: the returned value is the sample at index
    /// `round((len - 1) * q)` of that order, so the answer is always an
    /// actual recorded sample (no interpolation). `q` outside `[0, 1]` is
    /// clamped rather than panicking — any negative `q` pins to the minimum
    /// sample and any `q > 1` pins to the maximum; a NaN `q` is treated as
    /// `0` (the minimum).
    ///
    /// The rank is selected, not sorted for, over the samples'
    /// [`total_key`]s, whose integer order is the `total_cmp` order: a radix
    /// selection fixes the rank's key `DIGIT_BITS` (11) bits at a time, most
    /// significant first, each pass counting the next digit of the samples
    /// that share the digits fixed so far. Six passes over the samples and
    /// a counter array on the stack, so a query costs O(n), allocates
    /// nothing and leaves the histogram as it was. (A scratch copy of the
    /// keys for `select_nth_unstable` costs about the same time, but
    /// allocates and frees 8 B per sample on every query.)
    ///
    /// ```
    /// use ftl::LatencyHistogram;
    ///
    /// let mut h = LatencyHistogram::new();
    /// for us in [10.0, 20.0, 30.0, 40.0] {
    ///     h.record(us);
    /// }
    /// // Nearest rank: index round(3 * 0.5) = 2 of the sorted samples.
    /// assert_eq!(h.quantile_us(0.5), 30.0);
    /// // Out-of-range quantiles clamp to the extremes instead of panicking.
    /// assert_eq!(h.quantile_us(-0.5), 10.0);
    /// assert_eq!(h.quantile_us(1.5), 40.0);
    /// assert_eq!(h.quantile_us(f64::NAN), 10.0);
    /// ```
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        // NaN must not reach the index arithmetic: `NaN as usize` happens
        // to saturate to 0, but that is an accident, not a contract.
        let q = if q.is_nan() { 0.0 } else { q };
        let mut rank = ((self.samples_us.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        // `key` holds the rank's digits fixed so far, `fixed` their bits;
        // `rank` counts within the samples that share them.
        let (mut key, mut fixed) = (0u64, 0u64);
        let mut counts = [0usize; 1 << DIGIT_BITS];
        let mut shift = u64::BITS;
        while shift > 0 {
            let width = shift.min(DIGIT_BITS);
            shift -= width;
            let digits = (1u64 << width) - 1;
            counts.fill(0);
            for &x in &self.samples_us {
                let k = total_key(x);
                if k & fixed == key {
                    counts[((k >> shift) & digits) as usize] += 1;
                }
            }
            let mut digit = 0;
            while rank >= counts[digit] {
                rank -= counts[digit];
                digit += 1;
            }
            key |= (digit as u64) << shift;
            fixed |= digits << shift;
        }
        from_total_key(key)
    }

    /// Maximum sample, or 0 when empty.
    #[must_use]
    pub fn max_us(&self) -> f64 {
        self.samples_us.iter().copied().fold(0.0, f64::max)
    }
}

/// Counters and histograms of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SsdStats {
    /// Host pages written.
    pub host_writes: u64,
    /// Host pages written per QoS class, indexed by
    /// [`crate::QosClass::index`] (latency-critical, standard, background).
    /// [`crate::Ssd::write`] counts as standard, so legacy runs land
    /// entirely in the middle slot.
    pub host_writes_by_class: [u64; 3],
    /// Host pages read.
    pub host_reads: u64,
    /// Host trims.
    pub host_trims: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Garbage-collection passes.
    pub gc_runs: u64,
    /// GC slices that did relocation work: the ladder and idle-gap slices
    /// of [`crate::GcBudget::Sliced`], plus every emergency-floor reclaim.
    /// Reactive and patrol refreshes take the floor under either budget,
    /// so this is not always zero under `Unbounded`: the `repro --quick
    /// resilience` cell at fault rate 0.02 under Sequential records one.
    pub gc_slices: u64,
    /// Slices that hit their budget and parked the in-progress victim as a
    /// resumable job instead of running it to completion.
    pub gc_yield_count: u64,
    /// Distribution of per-slice relocation time, µs, over the slices
    /// `gc_slices` counts.
    pub gc_slice_us: LatencyHistogram,
    /// Total background time charged to foreground commands, µs: the
    /// collection and overdue-patrol stalls of writes, plus the emergency
    /// floor a parity rebuild's refresh pays on a read. Recorded in both
    /// budget modes; with parity off, `write_latency` minus this is pure
    /// service + transfer time.
    pub gc_stall_us: f64,
    /// Per-command GC stalls (only commands that actually paid one). Under
    /// `Unbounded` each sample is a full multi-victim collection; under
    /// `Sliced` each is capped near the configured budget.
    pub gc_stall: LatencyHistogram,
    /// Super word-line programs issued.
    pub superwl_programs: u64,
    /// Superblock erases issued.
    pub superblock_erases: u64,
    /// Superblocks assembled, by class: (fast, slow).
    pub superblocks_assembled: (u64, u64),
    /// Total extra program latency across super word-line programs, µs.
    pub extra_program_us: f64,
    /// Total extra erase latency across superblock erases, µs.
    pub extra_erase_us: f64,
    /// Total busy time of the device, µs.
    pub busy_us: f64,
    /// Time spent on garbage collection in idle gaps of timed runs, µs
    /// (background work — kept out of `busy_us` so utilization and
    /// throughput reflect foreground service only).
    pub idle_gc_us: f64,
    /// Blocks permanently retired after a program/erase media failure.
    pub retired_blocks: u64,
    /// Pages rewritten elsewhere because their program reported status fail
    /// or their block failed with live data aboard.
    pub remapped_writes: u64,
    /// Pages relocated because a read found them beyond the retry ladder.
    pub refresh_relocations: u64,
    /// Host reads that found their page beyond the deepest retry level —
    /// each one is a (barely) averted data loss the patrol scrubber exists
    /// to prevent.
    pub uncorrectable_reads: u64,
    /// Relocation time spent refreshing at-risk pages, µs. Kept out of the
    /// read latency histogram: a read that triggers a refresh reports only
    /// its sensing + retry + transfer time, and the background rewrite is
    /// accounted here (it still advances `busy_us`).
    pub refresh_us: f64,
    /// Time spent patrol-scrubbing in idle gaps of timed runs, µs
    /// (background work, kept out of `busy_us` like `idle_gc_us`;
    /// foreground ladder payments land in `gc_stall_us` instead).
    pub patrol_us: f64,
    /// Live pages scanned by the patrol scrubber.
    pub patrol_scanned_pages: u64,
    /// Pages the patrol scrubber proactively refreshed (projected error
    /// bits crossed the refresh threshold).
    pub patrol_refreshes: u64,
    /// Completed patrol passes over the sealed superblocks.
    pub patrol_passes: u64,
    /// Degradation events: one per superblock assembled short-handed from
    /// a depleted pool, one per member a program failure dropped, so one
    /// superblock can count more than once.
    pub degraded_superblocks: u64,
    /// Total queueing delay across timed-run requests, µs (time between a
    /// request's arrival and its service starting).
    pub queue_wait_us: f64,
    /// Queueing delay suffered by trims in timed runs, µs. Trims take zero
    /// service time so their wait appears in no latency histogram; this
    /// counter keeps it from vanishing.
    pub trim_wait_us: f64,
    /// Largest number of requests simultaneously queued or in service
    /// during a timed run (including the arriving request).
    pub queue_depth_max: u64,
    /// Completion time of the last piece of work in a timed run, µs (the
    /// replay makespan). Under `PerChip` this drops below the sum of per-op
    /// service times when chips genuinely overlap.
    pub makespan_us: f64,
    /// Occupancy per chip/plane group in a `PerChip` timed run, µs; the
    /// final entry is the host channel/controller (page transfers).
    /// Includes idle-gap GC work. Empty until such a run executes.
    pub chip_busy_us: Vec<f64>,
    /// Host write latency distribution.
    pub write_latency: LatencyHistogram,
    /// Host read latency distribution.
    pub read_latency: LatencyHistogram,
    /// Physical pages read by the post-crash OOB recovery scan.
    pub recovery_scan_pages: u64,
    /// Logical mappings rebuilt by recovery.
    pub recovered_mappings: u64,
    /// Readable pages of torn super word-lines discarded by recovery
    /// (their host writes were never acknowledged).
    pub torn_writes_discarded: u64,
    /// Simulated time the recovery scan took, µs.
    pub recovery_time_us: f64,
    /// Sibling pages read while rebuilding uncorrectable pages from
    /// superpage parity.
    pub rebuild_reads: u64,
    /// Parity rebuilds that recovered the lost payload.
    pub rebuilds_ok: u64,
    /// Parity rebuilds that could not recover the payload (double failure
    /// in one super word-line, a dropped member, or missing parity) — true
    /// data loss, reported rather than silently absorbed.
    pub rebuilds_failed: u64,
    /// Time spent on parity rebuild reads, µs: the slowest-member critical
    /// path per rebuild. Charged like `refresh_us` — it advances `busy_us`
    /// but never lands in the read latency histogram.
    pub rebuild_us: f64,
    /// The `rebuild_us` share spent on *successful* rebuilds. Failed
    /// attempts read uncorrectable siblings at the full retry ladder, so
    /// per-attempt means mix two regimes; this isolates the clean one.
    pub rebuild_ok_us: f64,
    /// Total sibling-read work of successful rebuilds, µs: the sum over
    /// stripe members of each member's read chain. A rebuild's wall time
    /// is the slowest chain (`rebuild_ok_us`); the gap between that
    /// critical path and the mean chain (`rebuild_ok_fanout_us` / member
    /// count) is the straggler cost stripe assembly controls.
    pub rebuild_ok_fanout_us: f64,
    /// Super word-line stripes whose parity checked out during patrol scans.
    pub parity_verified: u64,
    /// Stripes whose parity no longer covers their live pages (degraded or
    /// corrupt); their pages are reactively refreshed like uncorrectable
    /// reads.
    pub parity_mismatch: u64,
}

impl SsdStats {
    /// Write amplification factor: total pages programmed per host page.
    #[must_use]
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            return 0.0;
        }
        (self.host_writes + self.gc_relocations) as f64 / self.host_writes as f64
    }

    /// Mean extra program latency per super word-line program, µs.
    #[must_use]
    pub fn extra_program_per_op_us(&self) -> f64 {
        if self.superwl_programs == 0 {
            return 0.0;
        }
        self.extra_program_us / self.superwl_programs as f64
    }

    /// Mean extra erase latency per superblock erase, µs.
    #[must_use]
    pub fn extra_erase_per_op_us(&self) -> f64 {
        if self.superblock_erases == 0 {
            return 0.0;
        }
        self.extra_erase_us / self.superblock_erases as f64
    }

    /// Per-group utilization of a `PerChip` timed run: occupancy divided by
    /// makespan, in `[0, 1]` per entry. Empty for `Single` runs.
    #[must_use]
    pub fn chip_utilization(&self) -> Vec<f64> {
        // A NaN makespan (a poisoned clock) must report zero utilization,
        // not NaN ratios — `<= 0.0` alone lets NaN through.
        if self.makespan_us.is_nan() || self.makespan_us <= 0.0 {
            return vec![0.0; self.chip_busy_us.len()];
        }
        self.chip_busy_us.iter().map(|&b| b / self.makespan_us).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let mut h = LatencyHistogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.quantile_us(0.0), 1.0);
        assert_eq!(h.quantile_us(0.5), 3.0);
        assert_eq!(h.quantile_us(1.0), 5.0);
        assert_eq!(h.max_us(), 5.0);
        assert!((h.mean_us() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_quantiles_clamp_to_the_extremes() {
        let mut h = LatencyHistogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        // Below 0 pins to the minimum; above 1 pins to the maximum.
        assert_eq!(h.quantile_us(-0.5), 1.0);
        assert_eq!(h.quantile_us(-1e300), 1.0);
        assert_eq!(h.quantile_us(f64::NEG_INFINITY), 1.0);
        assert_eq!(h.quantile_us(1.5), 4.0);
        assert_eq!(h.quantile_us(1e300), 4.0);
        assert_eq!(h.quantile_us(f64::INFINITY), 4.0);
        // NaN is treated as 0 (the minimum), never a panic.
        assert_eq!(h.quantile_us(f64::NAN), 1.0);
        // An empty histogram stays 0 for every out-of-range q.
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile_us(-1.0), 0.0);
        assert_eq!(empty.quantile_us(2.0), 0.0);
        assert_eq!(empty.quantile_us(f64::NAN), 0.0);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn repeated_quantile_queries_agree_with_one_shot_values() {
        // Interleave queries with mutations: every answer must match a
        // freshly sorted histogram (the cache may never serve stale order).
        let samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        let mut h = LatencyHistogram::new();
        for (i, &v) in samples.iter().enumerate() {
            h.record(v);
            for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                // Repeated queries (cached after the first) ...
                let a = h.quantile_us(q);
                let b = h.quantile_us(q);
                // ... against a one-shot histogram built from scratch.
                let mut fresh = LatencyHistogram::new();
                for &w in &samples[..=i] {
                    fresh.record(w);
                }
                let expect = fresh.quantile_us(q);
                assert_eq!(a, expect, "q={q} after {} samples", i + 1);
                assert_eq!(b, expect, "repeat query q={q}");
            }
        }
    }

    #[test]
    fn extend_matches_per_sample_records_bit_for_bit() {
        let batch = [120.0, 85.0, 310.0, 95.0, 85.0, 1e-300, 7.5e9];
        let mut one_by_one = LatencyHistogram::new();
        one_by_one.record(50.0);
        for &v in &batch {
            one_by_one.record(v);
        }
        let mut folded = LatencyHistogram::new();
        folded.record(50.0);
        folded.extend(&batch);
        assert_eq!(folded.samples_us(), one_by_one.samples_us());
        assert_eq!(folded.mean_us().to_bits(), one_by_one.mean_us().to_bits());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(folded.quantile_us(q).to_bits(), one_by_one.quantile_us(q).to_bits());
        }
        assert_eq!(folded.max_us().to_bits(), one_by_one.max_us().to_bits());
    }

    #[test]
    fn extend_invalidates_a_warm_sort_cache() {
        let mut h = LatencyHistogram::new();
        h.record(5.0);
        h.record(9.0);
        assert_eq!(h.quantile_us(0.0), 5.0); // warm the cache
        h.extend(&[1.0, 7.0]);
        assert_eq!(h.quantile_us(0.0), 1.0, "cache must not serve stale order");
        assert_eq!(h.quantile_us(1.0), 9.0);
        // An empty extend is a true no-op: the warm cache survives.
        h.extend(&[]);
        assert_eq!(h.quantile_us(0.0), 1.0);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn merge_appends_other_samples_in_order() {
        let mut a = LatencyHistogram::new();
        a.record(3.0);
        a.record(1.0);
        let mut b = LatencyHistogram::new();
        b.record(2.0);
        b.record(4.0);
        a.merge(&b);
        assert_eq!(a.samples_us(), &[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(a.quantile_us(0.5), 3.0, "nearest rank over the merged sort");
        assert_eq!(b.samples_us(), &[2.0, 4.0], "source histogram untouched");
        // Merging an empty histogram changes nothing.
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn nearest_rank_edges_pin_after_fold() {
        // The nearest-rank contract (index = round((len-1) * q)) must hold
        // identically whether samples arrived one at a time or in a fold.
        let mut h = LatencyHistogram::new();
        h.extend(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(h.quantile_us(0.5), 30.0, "round(3 * 0.5) = 2");
        assert_eq!(h.quantile_us(0.0), 10.0);
        assert_eq!(h.quantile_us(1.0), 40.0);
        assert_eq!(h.quantile_us(-0.5), 10.0);
        assert_eq!(h.quantile_us(1.5), 40.0);
        assert_eq!(h.quantile_us(f64::NAN), 10.0);
        // Single-sample histograms answer that sample for every q.
        let mut single = LatencyHistogram::new();
        single.extend(&[42.0]);
        for q in [0.0, 0.5, 1.0, f64::NAN, -3.0, 7.0] {
            assert_eq!(single.quantile_us(q), 42.0);
        }
    }

    #[test]
    fn fold_matches_a_merge_chain_bit_for_bit() {
        // Three "devices" with overlapping values, duplicates across parts,
        // and one cold cache — fold must agree with sequential merges on
        // samples, every quantile, mean, and max, bit for bit.
        let mut a = LatencyHistogram::new();
        a.extend(&[120.0, 85.0, 310.0, 85.0]);
        let mut b = LatencyHistogram::new();
        b.extend(&[85.0, 40.0, 310.0]);
        let _ = b.quantile_us(0.5); // warm one part's cache
        let c = LatencyHistogram::new(); // empty part
        let mut d = LatencyHistogram::new();
        d.extend(&[1e-300, 7.5e9, 95.0]);

        let folded = LatencyHistogram::fold([&a, &b, &c, &d]);
        let mut chained = LatencyHistogram::new();
        for part in [&a, &b, &c, &d] {
            chained.merge(part);
        }
        assert_eq!(folded.samples_us(), chained.samples_us());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            assert_eq!(folded.quantile_us(q).to_bits(), chained.quantile_us(q).to_bits(), "q={q}");
        }
        assert_eq!(folded.mean_us().to_bits(), chained.mean_us().to_bits());
        assert_eq!(folded.max_us().to_bits(), chained.max_us().to_bits());
        assert_eq!(folded.len(), 10);
    }

    #[test]
    fn fold_of_no_parts_or_empty_parts_is_empty() {
        let folded = LatencyHistogram::fold(std::iter::empty());
        assert!(folded.is_empty());
        assert_eq!(folded.quantile_us(0.5), 0.0);
        let empties = [LatencyHistogram::new(), LatencyHistogram::new()];
        let folded = LatencyHistogram::fold(empties.iter());
        assert!(folded.is_empty());
    }

    #[test]
    fn fold_emits_the_largest_key_after_runs_run_out() {
        // A NaN with every payload bit set has the largest total-order key,
        // the same `u64::MAX` an exhausted run holds in the merge tree, so
        // an exhausted part can win the tie against it. The fold must
        // still emit exactly the merged samples.
        let top = f64::from_bits(u64::MAX >> 1);
        let mut a = LatencyHistogram::new();
        a.extend(&[1.0]);
        let mut b = LatencyHistogram::new();
        b.extend(&[top, 2.0, top]);
        let folded = LatencyHistogram::fold([&a, &b]);
        let sorted: Vec<u64> =
            (0..4).map(|i| folded.quantile_us(f64::from(i) / 3.0).to_bits()).collect();
        assert_eq!(sorted, [1.0f64.to_bits(), 2.0f64.to_bits(), top.to_bits(), top.to_bits()]);
    }

    #[test]
    fn fold_presorts_and_stays_mutable_afterwards() {
        // The pre-seeded cache must serve correct order immediately, and a
        // later record must invalidate it like any other histogram.
        let mut a = LatencyHistogram::new();
        a.extend(&[9.0, 5.0]);
        let mut b = LatencyHistogram::new();
        b.extend(&[7.0, 1.0]);
        let mut folded = LatencyHistogram::fold([&a, &b]);
        assert_eq!(folded.quantile_us(0.0), 1.0);
        assert_eq!(folded.quantile_us(1.0), 9.0);
        folded.record(0.5);
        assert_eq!(folded.quantile_us(0.0), 0.5, "post-fold record must invalidate the cache");
    }

    #[test]
    fn p9999_pins_to_max_on_small_populations() {
        // Documented nearest-rank semantics at the deep tail: below ~5 000
        // samples round((n-1) * 0.9999) is the last index, so p9999 == max.
        let mut small = LatencyHistogram::new();
        small.extend(&(0..4_999).map(f64::from).collect::<Vec<_>>());
        assert_eq!(small.quantile_us(0.9999), small.max_us());
        // At n = 20_001 the rank moves off the maximum: round(20000 * .9999)
        // = 19998, two below the top.
        let mut big = LatencyHistogram::new();
        big.extend(&(0..20_001).map(f64::from).collect::<Vec<_>>());
        assert_eq!(big.quantile_us(0.9999), 19_998.0);
        assert!(big.quantile_us(0.9999) < big.max_us());
    }

    #[test]
    fn cloned_histogram_answers_independently() {
        let mut h = LatencyHistogram::new();
        h.record(2.0);
        h.record(1.0);
        assert_eq!(h.quantile_us(0.0), 1.0); // warm the cache
        let mut c = h.clone();
        c.record(0.25);
        assert_eq!(c.quantile_us(0.0), 0.25);
        assert_eq!(h.quantile_us(0.0), 1.0, "original unaffected");
    }

    #[test]
    fn waf_counts_gc_traffic() {
        let stats = SsdStats { host_writes: 100, gc_relocations: 50, ..SsdStats::default() };
        assert!((stats.waf() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn waf_of_idle_device_is_zero() {
        assert_eq!(SsdStats::default().waf(), 0.0);
    }

    #[test]
    fn chip_utilization_of_empty_run_is_finite() {
        // A run that never executed has zero makespan; a poisoned clock
        // could even leave NaN. Either way the ratios must come back as
        // plain zeros, never NaN or infinity.
        let mut stats = SsdStats { chip_busy_us: vec![10.0, 20.0], ..SsdStats::default() };
        assert_eq!(stats.chip_utilization(), vec![0.0, 0.0]);
        stats.makespan_us = f64::NAN;
        let util = stats.chip_utilization();
        assert_eq!(util, vec![0.0, 0.0]);
        assert!(util.iter().all(|u| u.is_finite()));
    }

    #[test]
    fn per_op_extras() {
        let stats = SsdStats {
            superwl_programs: 4,
            extra_program_us: 100.0,
            superblock_erases: 2,
            extra_erase_us: 30.0,
            ..SsdStats::default()
        };
        assert!((stats.extra_program_per_op_us() - 25.0).abs() < 1e-12);
        assert!((stats.extra_erase_per_op_us() - 15.0).abs() < 1e-12);
    }
}
