//! Per-tenant submission queues and statistics.

use ftl::{IoRequest, LatencyHistogram, QosClass};
use std::collections::VecDeque;

/// Static description of one tenant: its QoS class, its arbitration
/// weight and the depth of its submission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (carried into stats and CSV rows).
    pub name: String,
    /// QoS class — picks the superblock speed class its writes land in.
    pub qos: QosClass,
    /// Weighted-round-robin weight (ignored by plain round-robin).
    pub weight: u32,
    /// Submission-queue depth; arrivals beyond it are backpressured in
    /// host memory until a slot frees.
    pub queue_depth: usize,
}

impl TenantSpec {
    /// A tenant with unit weight and an unbounded submission queue.
    #[must_use]
    pub fn new(name: &str, qos: QosClass) -> Self {
        TenantSpec { name: name.to_string(), qos, weight: 1, queue_depth: usize::MAX }
    }

    /// Sets the weighted-round-robin weight (must be at least 1).
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Bounds the submission queue (must admit at least 1 entry).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }
}

/// Per-tenant completion statistics collected by the frontend.
///
/// Latencies are end-to-end from the tenant's point of view: queueing in
/// the bounded submission queue, waiting for the device, and service.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name (copied from the spec).
    pub name: String,
    /// QoS class (copied from the spec).
    pub qos: QosClass,
    /// Commands completed.
    pub completed: u64,
    /// End-to-end write latencies.
    pub write_latency: LatencyHistogram,
    /// End-to-end read latencies (misses record their wait).
    pub read_latency: LatencyHistogram,
    /// Total time commands spent between arrival and dispatch.
    pub queue_wait_us: f64,
    /// Highest submission-queue occupancy observed.
    pub depth_high_water: usize,
    /// Arrivals that found the submission queue full and had to wait in
    /// host memory for a slot.
    pub backpressured: u64,
}

impl TenantStats {
    fn new(spec: &TenantSpec) -> Self {
        TenantStats {
            name: spec.name.clone(),
            qos: spec.qos,
            completed: 0,
            write_latency: LatencyHistogram::default(),
            read_latency: LatencyHistogram::default(),
            queue_wait_us: 0.0,
            depth_high_water: 0,
            backpressured: 0,
        }
    }

    /// Mean time from arrival to dispatch, over all completed commands.
    #[must_use]
    pub fn mean_queue_wait_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_wait_us / self.completed as f64
        }
    }
}

/// One entry sitting in a submission queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// When the tenant issued the request.
    pub arrival: f64,
    /// When it entered the submission queue (later than `arrival` only
    /// under backpressure).
    pub submit: f64,
    /// The request itself.
    pub req: IoRequest,
}

/// Runtime state of one tenant: its pending arrival stream, its bounded
/// submission queue, and its stats.
///
/// Both frontend drains keep their queue records here and admit through
/// [`TenantState::admit`]; they differ only in *when* they call it (the
/// rescan drain on every dispatch, the event drain when the tenant's next
/// arrival falls due or its own dispatch frees a slot).
#[derive(Debug)]
pub(crate) struct TenantState {
    pub spec: TenantSpec,
    /// Arrival-sorted request stream not yet admitted to the queue.
    pub stream: Vec<(f64, IoRequest)>,
    /// Index of the next stream entry to admit.
    pub next: usize,
    /// The submission queue, records inline, front dispatched first.
    pub sq: VecDeque<Queued>,
    /// When the last slot freed while the queue was full — the earliest
    /// instant a backpressured arrival can enter the queue.
    pub freed_at: f64,
    pub stats: TenantStats,
}

impl TenantState {
    pub(crate) fn new(spec: TenantSpec) -> Self {
        let stats = TenantStats::new(&spec);
        TenantState { spec, stream: Vec::new(), next: 0, sq: VecDeque::new(), freed_at: 0.0, stats }
    }

    /// Arrival time of the next not-yet-admitted request, if any.
    pub(crate) fn next_arrival(&self) -> Option<f64> {
        self.stream.get(self.next).map(|&(arrival, _)| arrival)
    }

    /// Moves every request that has arrived by `now` into the submission
    /// queue, respecting the depth bound.
    pub(crate) fn admit(&mut self, now: f64) {
        while let Some(&(arrival, req)) = self.stream.get(self.next) {
            if arrival > now || self.sq.len() >= self.spec.queue_depth {
                break;
            }
            // A backpressured arrival enters only once a slot freed.
            let submit = arrival.max(self.freed_at);
            if submit > arrival {
                self.stats.backpressured += 1;
            }
            self.sq.push_back(Queued { arrival, submit, req });
            self.stats.depth_high_water = self.stats.depth_high_water.max(self.sq.len());
            self.next += 1;
        }
    }

    /// Whether every submitted request has been admitted and completed.
    pub(crate) fn drained(&self) -> bool {
        self.next == self.stream.len() && self.sq.is_empty()
    }
}
