//! The multi-queue host frontend event loop.

use crate::arbiter::{Arbiter, Arbitration};
use crate::queue::{Queued, TenantSpec, TenantState, TenantStats};
use ftl::sched::{from_total_key, total_key, Tournament};
use ftl::trace::TracedRequest;
use ftl::{IoOp, IoRequest, QosClass, Ssd, TimedOutcome};

#[cfg(test)]
mod rescan;

/// A multi-queue host frontend: one submission queue per tenant, feeding
/// a single [`Ssd`] through a deterministic event loop.
///
/// Each tenant owns an arrival-timed request stream, a bounded submission
/// queue, and a QoS class. The frontend admits arrivals into the queues,
/// arbitrates over the non-empty ones (round-robin or weighted
/// round-robin), and dispatches one command at a time to the device via
/// its incremental timed engine — so device-side queueing, garbage
/// collection and per-chip clocks all behave exactly as in
/// [`Ssd::run_timed`]. The tenant's QoS class rides along with every
/// write and picks the superblock speed class under function-based
/// placement.
///
/// **Determinism contract**: a single tenant with unit weight and an
/// unbounded queue replays its stream in arrival order with unmodified
/// submission times, which makes the frontend bit-identical to calling
/// [`Ssd::run_timed`] directly (`tests/golden.rs` pins this).
///
/// # Example
///
/// ```
/// use ftl::{poisson_arrivals, FtlConfig, QosClass, Ssd, Workload};
/// use host::{Arbitration, HostFrontend, TenantSpec};
///
/// let ssd = Ssd::new(FtlConfig::small_test(), 42).expect("valid config");
/// let info = ssd.geometry_info();
/// let mut front = HostFrontend::new(
///     ssd,
///     vec![
///         TenantSpec::new("db", QosClass::LatencyCritical).weight(4),
///         TenantSpec::new("scrub", QosClass::Background).queue_depth(8),
///     ],
///     Arbitration::WeightedRoundRobin,
/// );
/// for tenant in 0..2 {
///     let reqs = Workload::random_write(0.4).generate(&info, 500, tenant as u64);
///     front.submit(tenant, &poisson_arrivals(&reqs, 100.0, tenant as u64));
/// }
/// front.run().expect("replay succeeds");
/// assert_eq!(front.tenant_stats(0).completed, 500);
/// assert_eq!(front.tenant_stats(1).completed, 500);
/// ```
#[derive(Debug)]
pub struct HostFrontend {
    ssd: Ssd,
    tenants: Vec<TenantState>,
    arbiter: Arbiter,
    dispatch_log: Vec<usize>,
    now: f64,
}

impl HostFrontend {
    /// Builds a frontend over `specs.len()` submission queues.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty (weights and depths are validated by
    /// [`TenantSpec`]'s builders).
    #[must_use]
    pub fn new(ssd: Ssd, specs: Vec<TenantSpec>, arbitration: Arbitration) -> Self {
        assert!(!specs.is_empty(), "frontend needs at least one tenant");
        let weights = specs.iter().map(|s| s.weight).collect();
        let tenants = specs.into_iter().map(TenantState::new).collect();
        HostFrontend {
            ssd,
            tenants,
            arbiter: Arbiter::new(arbitration, weights),
            dispatch_log: Vec::new(),
            now: 0.0,
        }
    }

    /// Number of tenants (submission queues).
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Appends `(arrival_us, request)` pairs to a tenant's stream. Streams
    /// may be submitted in several batches; they are kept sorted by
    /// arrival time (stable, so equal arrivals preserve submission order).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range or called after [`run`].
    ///
    /// [`run`]: HostFrontend::run
    pub fn submit(&mut self, tenant: usize, requests: &[(f64, IoRequest)]) {
        assert!(self.dispatch_log.is_empty() && self.now == 0.0, "submit before run");
        let state = &mut self.tenants[tenant];
        state.stream.extend_from_slice(requests);
        state.stream.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are not NaN"));
    }

    /// Routes parsed trace requests to their queues by tenant id (the
    /// trace's optional fourth column), pairing each with its arrival: one
    /// routing pass, then one stable sort per tenant, so equal arrivals keep
    /// trace order and the streams equal per-request [`submit`] calls.
    ///
    /// # Panics
    ///
    /// Panics if a tenant id is out of range or called after [`run`].
    ///
    /// [`submit`]: HostFrontend::submit
    /// [`run`]: HostFrontend::run
    pub fn submit_traced_batched(&mut self, requests: &[(f64, TracedRequest)]) {
        assert!(self.dispatch_log.is_empty() && self.now == 0.0, "submit before run");
        let n = self.tenants.len();
        for &(arrival, traced) in requests {
            let tenant = traced.tenant as usize;
            assert!(tenant < n, "trace tenant {tenant} but frontend has {n} queues");
            self.tenants[tenant].stream.push((arrival, traced.request));
        }
        for state in &mut self.tenants {
            state.stream.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are not NaN"));
        }
    }

    /// Replays every submitted stream to completion.
    ///
    /// The drain keeps its bookkeeping constant per command: a winner tree
    /// holds each tenant's next arrival, readiness is a packed bitmask
    /// updated on queue transitions, and a tenant is admitted only when its
    /// next arrival falls due or its own dispatch frees a slot. A test-only
    /// rescan drain, which re-admits every tenant before each dispatch,
    /// holds it to the same dispatches bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first device error (invalid LPN, injected fault,
    /// power loss). The device keeps its partial state and stats.
    pub fn run(&mut self) -> ftl::Result<()> {
        self.ssd.timed_begin();
        let result = self.drain();
        // Fold partial clocks into the stats even on the error path.
        self.ssd.timed_end();
        result
    }

    /// Event-driven drain over [`Events`]. A tenant's admission can only
    /// change its queue when the clock reaches its next arrival or when its
    /// own dispatch frees a slot in a full queue, so those are the only
    /// times it is admitted; which of several tenants due at one instant is
    /// admitted first cannot show, since each admission reads only that
    /// tenant's stream and queue.
    fn drain(&mut self) -> ftl::Result<()> {
        let mut ev = Events::new(&self.tenants);
        for i in 0..self.tenants.len() {
            self.admit_event(&mut ev, i);
        }
        loop {
            // When the device wants a GC slice — or patrol scrubbing has
            // starved past a full interval and will bill foreground
            // commands — drain latency-critical queues first: their
            // commands skip both payments device-side, and granting a
            // lower class first would sandwich the waiting LC command
            // behind that command's slice. Work-conserving — the mask only
            // applies while a latency-critical queue is ready, tested first
            // because `gc_slice_pending` costs more.
            let lc_ready = ev.ready.iter().zip(&ev.lc).any(|(&r, &l)| r & l != 0);
            let pick = if lc_ready && self.ssd.gc_slice_pending() {
                for (m, (&r, &l)) in ev.masked.iter_mut().zip(ev.ready.iter().zip(&ev.lc)) {
                    *m = r & l;
                }
                self.arbiter.pick_mask(&ev.masked)
            } else {
                self.arbiter.pick_mask(&ev.ready)
            };
            let Some(k) = pick else {
                // Every queue is empty, so no tenant is held back by a full
                // queue and the tree's minimum is the next arrival of all.
                let next = from_total_key(ev.due.min().1);
                if !next.is_finite() {
                    return Ok(());
                }
                self.now = self.now.max(next);
                self.admit_due(&mut ev);
                continue;
            };
            self.dispatch(k)?;
            // The clock moved and tenant k's queue shrank.
            self.admit_due(&mut ev);
            self.admit_event(&mut ev, k);
        }
    }

    /// Admits every tenant whose next arrival is due by `self.now`. Each
    /// admission either fills the tenant's queue (no arrival filed) or
    /// files an arrival later than `self.now`, so the loop ends.
    fn admit_due(&mut self, ev: &mut Events) {
        loop {
            let (i, key) = ev.due.min();
            if key == NO_ARRIVAL || from_total_key(key) > self.now {
                return;
            }
            self.admit_event(ev, i);
        }
    }

    /// Admits tenant `i` up to `self.now`, refreshes its readiness bit and
    /// files its next arrival — none while its queue is full, since only
    /// its own dispatch can free a slot.
    fn admit_event(&mut self, ev: &mut Events, i: usize) {
        let tenant = &mut self.tenants[i];
        tenant.admit(self.now);
        let bit = 1u64 << (i % 64);
        if tenant.sq.is_empty() {
            ev.ready[i / 64] &= !bit;
        } else {
            ev.ready[i / 64] |= bit;
        }
        let due = match tenant.next_arrival() {
            Some(arrival) if tenant.sq.len() < tenant.spec.queue_depth => total_key(arrival),
            _ => NO_ARRIVAL,
        };
        if ev.due.key(i) != due {
            ev.due.set(i, due);
        }
    }

    /// Dispatches the front of tenant `k`'s queue, moves the clock to its
    /// completion and records it in the tenant's stats.
    fn dispatch(&mut self, k: usize) -> ftl::Result<()> {
        let state = &mut self.tenants[k];
        let was_full = state.sq.len() >= state.spec.queue_depth;
        let item = state.sq.pop_front().expect("picked queue is ready");
        if was_full {
            // The slot frees the instant the command is fetched.
            state.freed_at = self.now;
        }
        let qos = state.spec.qos;
        let out = self.step_with_slo(k, item, qos)?;
        self.now = self.now.max(out.completion_us);
        self.dispatch_log.push(k);
        let stats = &mut self.tenants[k].stats;
        let wait = out.start_us - item.arrival;
        stats.queue_wait_us += wait;
        match item.req.op {
            IoOp::Write => stats.write_latency.record(wait + out.service_us),
            IoOp::Read => {
                // Mirror the device convention: a miss has no service
                // time but its wait still counts as a latency sample.
                if out.service_us > 0.0 {
                    stats.read_latency.record(wait + out.service_us);
                } else {
                    stats.read_latency.record(wait);
                }
            }
            IoOp::Trim => {}
        }
        stats.completed += 1;
        Ok(())
    }

    /// One device step under tenant `k`'s GC SLO. For a tenant with a
    /// [`crate::GcSlo`], the device's per-command allowance is set
    /// to the window's remaining debt budget before the step, the
    /// collection stall the command was actually charged (the device's
    /// `gc_stall_us` delta — foreground GC slices, overdue patrol-scrub
    /// payments down the same QoS ladder, plus any emergency-floor
    /// reclaim, never idle-gap work) is folded back into the window after
    /// it, and the allowance is restored to `INFINITY` so other tenants
    /// stay uncapped. Tenants without an SLO take the plain step — the
    /// device field never moves off its default, keeping SLO-free runs
    /// bit-identical to builds without this feature.
    fn step_with_slo(
        &mut self,
        k: usize,
        item: Queued,
        qos: QosClass,
    ) -> ftl::Result<TimedOutcome> {
        let Some(allowance) = self.tenants[k].gc_allowance(item.submit) else {
            return self.ssd.timed_step(item.submit, item.req, qos);
        };
        self.ssd.set_gc_allowance(allowance);
        let before = self.ssd.stats().gc_stall_us;
        let result = self.ssd.timed_step(item.submit, item.req, qos);
        // Charge the debt even on the error path, mirroring how partial
        // clocks are folded by `run`.
        let debt = self.ssd.stats().gc_stall_us - before;
        self.ssd.set_gc_allowance(f64::INFINITY);
        let state = &mut self.tenants[k];
        state.charge_gc_debt(debt);
        if allowance <= 0.0 {
            state.stats.gc_throttled += 1;
        }
        result
    }

    /// Whether every submitted request has been dispatched and completed.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.tenants.iter().all(TenantState::drained)
    }

    /// Per-tenant statistics.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn tenant_stats(&self, tenant: usize) -> &TenantStats {
        &self.tenants[tenant].stats
    }

    /// Statistics for every tenant, in queue order.
    #[must_use]
    pub fn all_stats(&self) -> Vec<&TenantStats> {
        self.tenants.iter().map(|t| &t.stats).collect()
    }

    /// The order tenants were granted the device, one entry per command.
    #[must_use]
    pub fn dispatch_log(&self) -> &[usize] {
        &self.dispatch_log
    }

    /// The wrapped device.
    #[must_use]
    pub fn device(&self) -> &Ssd {
        &self.ssd
    }

    /// Consumes the frontend, returning the device (for stats extraction
    /// or further replay).
    #[must_use]
    pub fn into_device(self) -> Ssd {
        self.ssd
    }
}

/// [`Tournament`] key of a tenant with no arrival to file: its stream is
/// exhausted or its queue is full. Above every real arrival's key.
const NO_ARRIVAL: u64 = u64::MAX;

/// Bookkeeping of one event drain, by tenant index.
struct Events {
    /// Slot `i` holds the [`total_key`] of tenant `i`'s next arrival, or
    /// [`NO_ARRIVAL`].
    due: Tournament,
    /// Bit set while the tenant's queue is non-empty.
    ready: Vec<u64>,
    /// Bit set for latency-critical tenants (fixed over the run).
    lc: Vec<u64>,
    /// Scratch for `ready & lc`, kept allocated across dispatches.
    masked: Vec<u64>,
}

impl Events {
    fn new(tenants: &[TenantState]) -> Self {
        let words = tenants.len().div_ceil(64);
        let mut lc = vec![0u64; words];
        for (i, t) in tenants.iter().enumerate() {
            if t.spec.qos == QosClass::LatencyCritical {
                lc[i / 64] |= 1 << (i % 64);
            }
        }
        Events {
            due: Tournament::new(tenants.len()),
            ready: vec![0; words],
            lc,
            masked: vec![0; words],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{poisson_arrivals, FtlConfig, QosClass, Workload};

    fn small_ssd() -> Ssd {
        Ssd::new(FtlConfig::small_test(), 7).unwrap()
    }

    fn timed_writes(ssd: &Ssd, n: usize, seed: u64, mean_us: f64) -> Vec<(f64, IoRequest)> {
        let reqs = Workload::random_write(0.5).generate(&ssd.geometry_info(), n, seed);
        poisson_arrivals(&reqs, mean_us, seed)
    }

    #[test]
    fn two_tenants_complete_everything() {
        let ssd = small_ssd();
        let streams: Vec<_> = (0..2).map(|i| timed_writes(&ssd, 300, i, 120.0)).collect();
        let mut front = HostFrontend::new(
            ssd,
            vec![
                TenantSpec::new("a", QosClass::LatencyCritical),
                TenantSpec::new("b", QosClass::Background),
            ],
            Arbitration::RoundRobin,
        );
        front.submit(0, &streams[0]);
        front.submit(1, &streams[1]);
        front.run().unwrap();
        assert!(front.drained());
        assert_eq!(front.tenant_stats(0).completed, 300);
        assert_eq!(front.tenant_stats(1).completed, 300);
        assert_eq!(front.dispatch_log().len(), 600);
        let dev = front.device();
        assert_eq!(dev.stats().host_writes, 600);
        assert_eq!(dev.stats().host_writes_by_class, [300, 0, 300]);
    }

    #[test]
    fn bounded_queue_backpressures_and_records_high_water() {
        let ssd = small_ssd();
        // Arrivals far faster than the device: everything piles up.
        let stream = timed_writes(&ssd, 400, 3, 1.0);
        let mut front = HostFrontend::new(
            ssd,
            vec![TenantSpec::new("hot", QosClass::Standard).queue_depth(4)],
            Arbitration::RoundRobin,
        );
        front.submit(0, &stream);
        front.run().unwrap();
        let stats = front.tenant_stats(0);
        assert_eq!(stats.completed, 400);
        assert_eq!(stats.depth_high_water, 4, "depth bound is respected");
        assert!(stats.backpressured > 0, "saturating arrivals must backpressure");
        assert!(stats.queue_wait_us > 0.0);
    }

    #[test]
    fn unbounded_queue_never_backpressures() {
        let ssd = small_ssd();
        let stream = timed_writes(&ssd, 400, 3, 1.0);
        let mut front = HostFrontend::new(
            ssd,
            vec![TenantSpec::new("hot", QosClass::Standard)],
            Arbitration::RoundRobin,
        );
        front.submit(0, &stream);
        front.run().unwrap();
        let stats = front.tenant_stats(0);
        assert_eq!(stats.completed, 400);
        assert_eq!(stats.backpressured, 0);
        assert!(stats.depth_high_water > 4, "saturating arrivals pile up in the unbounded queue");
    }

    #[test]
    fn traced_requests_route_by_tenant_column() {
        let trace = b"W,1,1,0\nW,2,1,1\nR,1,1,0\nW,3,2,1\n" as &[u8];
        let parsed = ftl::trace::parse_trace_tenants(trace).unwrap();
        let timed: Vec<(f64, TracedRequest)> =
            parsed.iter().enumerate().map(|(i, &t)| (i as f64 * 50.0, t)).collect();
        let mut front = HostFrontend::new(
            small_ssd(),
            vec![
                TenantSpec::new("t0", QosClass::Standard),
                TenantSpec::new("t1", QosClass::Background),
            ],
            Arbitration::RoundRobin,
        );
        front.submit_traced_batched(&timed);
        front.run().unwrap();
        assert_eq!(front.tenant_stats(0).completed, 2, "W,1 and R,1");
        assert_eq!(front.tenant_stats(1).completed, 3, "W,2 and the 2-page run W,3");
    }

    #[test]
    #[should_panic(expected = "frontend has 1 queues")]
    fn traced_tenant_out_of_range_is_rejected() {
        let parsed = ftl::trace::parse_trace_tenants(b"W,1,1,5\n" as &[u8]).unwrap();
        let mut front = HostFrontend::new(
            small_ssd(),
            vec![TenantSpec::new("only", QosClass::Standard)],
            Arbitration::RoundRobin,
        );
        front.submit_traced_batched(&[(0.0, parsed[0])]);
    }

    #[test]
    fn infinite_arrivals_stop_both_drains_at_the_same_point() {
        // An arrival at +inf is never due: the rescan drain stops when the
        // next arrival is not finite, and the event drain must stop there
        // too rather than jump its clock to infinity.
        let run = |rescan: bool| {
            let mut front = HostFrontend::new(
                small_ssd(),
                vec![
                    TenantSpec::new("a", QosClass::Standard),
                    TenantSpec::new("b", QosClass::Background).queue_depth(1),
                ],
                Arbitration::RoundRobin,
            );
            front.submit(0, &[(0.0, IoRequest::write(1)), (f64::INFINITY, IoRequest::write(2))]);
            front.submit(1, &[(5.0, IoRequest::write(3)), (5.0, IoRequest::write(4))]);
            if rescan { front.run_rescan() } else { front.run() }.unwrap();
            assert!(!front.drained(), "rescan={rescan}: the infinite arrival stays pending");
            (front.dispatch_log().to_vec(), front.device().stats().makespan_us.to_bits())
        };
        let rescan = run(true);
        assert_eq!(rescan.0, [0, 1, 1]);
        assert_eq!(run(false), rescan);
    }

    #[test]
    fn device_error_is_propagated_and_clocks_are_folded() {
        let ssd = small_ssd();
        let cap = ssd.geometry_info().logical_pages;
        let mut front = HostFrontend::new(
            ssd,
            vec![TenantSpec::new("bad", QosClass::Standard)],
            Arbitration::RoundRobin,
        );
        front.submit(0, &[(0.0, IoRequest::write(1)), (10.0, IoRequest::write(cap))]);
        assert!(front.run().is_err());
        let dev = front.device();
        assert_eq!(dev.stats().host_writes, 1, "work before the error sticks");
        assert!(dev.stats().makespan_us > 0.0, "timed_end folded the partial makespan");
    }
}
