//! The serving runtime: lock-free admission, continuous batching, and
//! request execution.
//!
//! Admission is a bounded lock-free MPMC ring ([`crossbeam::queue::ArrayQueue`])
//! with shed-don't-block semantics and a per-tenant fairness bound
//! ([`crate::tenants::TenantTable`]); workers drain the ring into
//! signature-keyed batch groups and execute each group as one multi-RHS
//! `iterate_batched` (column-stacked blocks, bitwise identical to serial
//! per-request execution — see DESIGN.md §12).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::queue::ArrayQueue;
use granii_core::cost::FeaturizedInput;
use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::{runtime, CoreError, Granii};
use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;
use granii_telemetry::{
    event, start_sampler, ColumnId, DistinctCounter, SampleKind, SamplerHandle, Sketch,
    SketchSnapshot, TimeSeriesRing, TimeSeriesSnapshot, DEFAULT_SKETCH_ALPHA,
};

use crate::cache::{CachedPlan, PlanCache, PlanKey};
use crate::drift::{DriftConfig, DriftDetector, DriftVerdict};
use crate::incident::{
    render_events, CandidateCost, IncidentBundle, IncidentCapturer, IncidentConfig,
    IncidentTrigger, InputStats, RingEntry, SelectionAuditInfo, TimelineInfo,
};
use crate::inspect::{InputInspector, InputProfile, InspectConfig, InspectVerdict};
use crate::recorder::{FlightRecorder, RecordKind, RecorderConfig, MAX_BATCH_MEMBERS};
use crate::scrape::{ScrapeConfig, ScrapeHandle};
use crate::slo::{Outcome, SloConfig, SloMonitor, SloVerdict};
use crate::status::{
    hex_fp, BatchingStatus, CacheStatus, DriftSignatureStatus, FairnessStatus,
    InputSignatureStatus, LatencySketchStatus, MeteringStatus, RecorderStatus, ServerStatus,
    SloObjectiveStatus, TenantMeterStatus, TenantStatus, WorkerStatus, ALL_OUTCOMES,
};
use crate::tenants::{exact_share, MeterCharge, MeterRow, TenantTable};
use crate::trace::{self, RequestTrace};
use crate::{Result, ServeError};

/// Seed for the deterministic synthetic feature/weight matrices every
/// request binds against. Fixed so that, for a given (model, graph, k1, k2)
/// signature, hits and misses produce bitwise-identical outputs — and so a
/// serial rerun of the same request stream reproduces the served results.
const SERVE_SEED: u64 = 41;

/// How long a worker sleeps between queue polls when parked. The wake
/// protocol below normally wakes workers promptly; the timeout is the
/// belt-and-braces bound on any missed wakeup.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// On-host time-series ring tuning: a background sampler thread captures
/// a frame of the server's counters, gauges, and sketch quantiles (plus a
/// per-tenant lane from the metering ledger) every `interval` into a
/// fixed-capacity [`granii_telemetry::TimeSeriesRing`]. With the defaults
/// (240 frames x 250ms) the ring holds the last minute — enough for an
/// incident bundle to answer "what was trending before this fired".
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Whether to run the sampler thread at all (the ring itself always
    /// exists; disabled just means it stays empty).
    pub enabled: bool,
    /// Retained frames (ring capacity).
    pub capacity: usize,
    /// Sampling period.
    pub interval: Duration,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            enabled: true,
            capacity: 240,
            interval: Duration::from_millis(250),
        }
    }
}

/// Serving runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Maximum queued (accepted but not yet running) requests; submits
    /// beyond this are shed with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Maximum bound plans retained in the LRU cache.
    pub cache_capacity: usize,
    /// Maximum requests coalesced into one signature-keyed batch group
    /// (executed as a single multi-RHS iterate). `1` disables batching.
    pub max_batch: usize,
    /// Per-tenant admission share: one tenant (plan-signature fingerprint)
    /// may hold at most `max(1, queue_depth × fairness_share)` queued
    /// requests. Clamped to `[0, 1]`; `1.0` disables fairness shedding.
    pub fairness_share: f64,
    /// Export a per-request trace lane for every `N`-th request (0 disables
    /// sampling; has no effect unless telemetry is enabled). Unsampled
    /// requests carry no trace state at all.
    pub trace_sample_every: u64,
    /// Online cost-model drift detection tuning.
    pub drift: DriftConfig,
    /// Online input-drift detection tuning (the second lane, keyed on
    /// degree-distribution statistics instead of cost residuals).
    pub inspect: InspectConfig,
    /// Latency-SLO objectives and burn-rate monitoring tuning.
    pub slo: SloConfig,
    /// Always-on flight-recorder ring sizing.
    pub recorder: RecorderConfig,
    /// Automatic incident-capture policy (triggers, rate limits, artifact
    /// directory).
    pub incident: IncidentConfig,
    /// On-host time-series ring + sampler tuning.
    pub timeline: TimelineConfig,
    /// Prometheus-compatible scrape listener (`/metrics`, `/healthz`,
    /// `/readyz`). Disabled by default — serving stays network-free unless
    /// asked.
    pub scrape: ScrapeConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 64,
            max_batch: 8,
            fairness_share: 0.5,
            trace_sample_every: 0,
            drift: DriftConfig::default(),
            inspect: InspectConfig::default(),
            slo: SloConfig::default(),
            recorder: RecorderConfig::default(),
            incident: IncidentConfig::default(),
            timeline: TimelineConfig::default(),
            scrape: ScrapeConfig::default(),
        }
    }
}

/// One inference request: which model to run on which graph at which
/// embedding sizes, and how many iterations the selection should amortize
/// hoisted work over.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// GNN model family.
    pub model: ModelKind,
    /// The input graph (shared — requests are cheap to clone).
    pub graph: Arc<Graph>,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// Iteration count selection amortizes hoisted work over.
    pub iterations: usize,
    /// Optional per-request deadline, measured from submit. Checked when
    /// the request's batch group forms (for a group of one that is the
    /// dequeue): an expired request is not dropped but served degraded
    /// (default composition, no cost-model consultation) unless its
    /// signature's plan is already cached.
    pub timeout: Option<Duration>,
    /// Optional pinned cache signature. By default the plan key hashes the
    /// graph's content fingerprint, so a tenant whose graph mutates simply
    /// misses the cache and re-selects. A pinned signature says "this is
    /// the same logical graph" across mutations — the cache keeps serving
    /// the stale bound plan, which is exactly the blind spot the
    /// input-drift lane exists to close.
    pub signature: Option<u64>,
}

impl ServeRequest {
    /// A request with the paper's default iteration count and no deadline.
    pub fn new(model: ModelKind, graph: Arc<Graph>, k1: usize, k2: usize) -> Self {
        ServeRequest {
            model,
            graph,
            k1,
            k2,
            iterations: runtime::DEFAULT_ITERATIONS,
            timeout: None,
            signature: None,
        }
    }

    /// Sets the amortization iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets a deadline relative to submit time.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Pins the plan-cache signature to a tenant-stable identity instead of
    /// the graph's content fingerprint (see [`ServeRequest::signature`]).
    pub fn with_signature(mut self, signature: u64) -> Self {
        self.signature = Some(signature);
        self
    }

    fn plan_key(&self) -> PlanKey {
        (
            self.model,
            self.signature.unwrap_or_else(|| self.graph.fingerprint()),
            self.k1,
            self.k2,
        )
    }
}

/// Per-request wall-clock breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTiming {
    /// Time spent queued before a worker picked the request up.
    pub queue_seconds: f64,
    /// Time spent choosing and binding a plan (zero on a cache hit).
    pub select_seconds: f64,
    /// Time spent in the steady-state `iterate` (for a batched request:
    /// the whole group's multi-RHS iterate — the wall time this request
    /// actually waited on execution).
    pub execute_seconds: f64,
    /// Submit-to-reply total.
    pub total_seconds: f64,
}

/// The outcome of a served request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The composition that produced the output.
    pub composition: Composition,
    /// The executed layer output (`n x k2`).
    pub output: DenseMatrix,
    /// Wall-clock breakdown.
    pub timing: RequestTiming,
    /// Whether a cached bound plan served the request.
    pub cache_hit: bool,
    /// Whether the request fell back to the default composition (expired
    /// deadline or cost-model prediction failure).
    pub degraded: bool,
    /// Size of the batch group this request executed in (1 = serial).
    pub batch_size: usize,
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests that failed with an error.
    pub failed: u64,
    /// Requests shed at submit because the queue was full.
    pub shed: u64,
    /// Requests shed by the per-tenant fairness bound (subset of `shed`).
    pub tenant_shed: u64,
    /// Requests served via the default-composition fallback.
    pub degraded: u64,
    /// Requests whose deadline had expired when their batch group formed.
    pub deadline_expired: u64,
    /// Batch groups of two or more requests executed as one multi-RHS
    /// iterate.
    pub batches: u64,
    /// Requests served inside such groups.
    pub batched_requests: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Plan-cache entries dropped by drift flags or model hot-swaps.
    pub cache_invalidations: u64,
    /// Bound plans currently cached.
    pub cache_len: usize,
    /// Hit fraction over all cache lookups.
    pub cache_hit_rate: f64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Signatures flagged by the online drift detector (total flags).
    pub drift_flagged: u64,
    /// Signatures flagged by the input-drift lane (total flags).
    pub input_drift_flagged: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    tenant_shed: AtomicU64,
    degraded: AtomicU64,
    deadline_expired: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Cumulative over the server's lifetime — unlike the detector's own
    /// tally, this survives [`Server::replace_granii`] resets.
    drift_flagged: AtomicU64,
    /// Same lifetime semantics, for the input-drift lane.
    input_drift_flagged: AtomicU64,
}

/// Server-owned latency sketches, one per outcome class. Always recorded
/// (like the atomic [`Counters`]) so the status surface, SLO math, and
/// `serve_bench` get SLO-grade quantiles without telemetry being enabled;
/// the telemetry registry gets a gated mirror on the same names.
struct LatencySketches {
    hit: Sketch,
    miss: Sketch,
    degraded: Sketch,
}

impl LatencySketches {
    fn new() -> Self {
        LatencySketches {
            hit: Sketch::new(DEFAULT_SKETCH_ALPHA),
            miss: Sketch::new(DEFAULT_SKETCH_ALPHA),
            degraded: Sketch::new(DEFAULT_SKETCH_ALPHA),
        }
    }

    fn for_outcome(&self, outcome: Outcome) -> &Sketch {
        match outcome {
            Outcome::Hit => &self.hit,
            Outcome::Miss => &self.miss,
            Outcome::Degraded => &self.degraded,
        }
    }

    fn snapshots(&self) -> Vec<SketchSnapshot> {
        vec![
            self.hit.snapshot("serve.latency.hit"),
            self.miss.snapshot("serve.latency.miss"),
            self.degraded.snapshot("serve.latency.degraded"),
        ]
    }
}

/// Per-worker activity slots (status surface): nanoseconds spent processing
/// and requests handled, indexed by worker.
struct WorkerSlot {
    busy_ns: AtomicU64,
    requests: AtomicU64,
}

struct Job {
    id: u64,
    /// Plan key, computed once at submit (the fingerprint feeds tenant
    /// accounting and batch grouping).
    key: PlanKey,
    request: ServeRequest,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Stage stopwatch for 1-in-N sampled requests; `None` (the common
    /// case) adds nothing to the steady-state path.
    trace: Option<Box<RequestTrace>>,
    reply: mpsc::Sender<Result<ServeResponse>>,
}

/// Worker parking: the admission ring is lock-free, so idle workers need a
/// separate wait/wake rendezvous. A submitter wakes a worker only when the
/// sleeper count says one is parked (the uncontended fast path is two
/// atomic loads, no mutex); [`PARK_TIMEOUT`] bounds any lost wakeup.
struct Parking {
    lot: Mutex<()>,
    available: Condvar,
    sleepers: AtomicUsize,
}

struct Inner {
    /// Behind a `RwLock` so [`Server::replace_granii`] can hot-swap cost
    /// models; the per-request read is an uncontended lock + `Arc` clone.
    granii: RwLock<Arc<Granii>>,
    cache: PlanCache,
    drift: DriftDetector,
    inspect: InputInspector,
    slo: SloMonitor,
    latency: LatencySketches,
    /// Batch-group size distribution (recorded per formed group, including
    /// groups of one — sequential traffic honestly shows p50 = 1).
    batch_sizes: Sketch,
    /// Unique plan signatures observed (HyperLogLog; always recorded).
    distinct_signatures: DistinctCounter,
    /// Lock-free bounded MPMC admission ring. Capacity is
    /// `max(queue_depth, 1)`; a configured depth of 0 sheds before ever
    /// touching the ring.
    queue: ArrayQueue<Job>,
    /// Lock-free per-tenant admission bound and resource ledger (see
    /// [`crate::tenants`]).
    tenants: TenantTable,
    shutdown: AtomicBool,
    /// Submits currently inside the admission window (shutdown-check →
    /// push). Workers refuse to exit while this is nonzero, closing the
    /// race where a submit that passed the shutdown check pushes onto a
    /// ring every worker has already abandoned.
    admitting: AtomicU64,
    parking: Parking,
    config: ServeConfig,
    counters: Counters,
    next_request_id: AtomicU64,
    started: Instant,
    workers: Vec<WorkerSlot>,
    /// Always-on flight recorder: every layer streams structured records
    /// into this lock-free ring, telemetry enabled or not.
    recorder: FlightRecorder,
    /// Incident policy + selection-audit table + captured bundles.
    incidents: IncidentCapturer,
    /// Monotone sequence for `serve.batch` spans on the batch trace lane
    /// (two workers can finish groups simultaneously; the exporter needs
    /// distinct seqs).
    batch_trace_seq: AtomicU64,
    /// On-host time-series ring (always present; populated by the sampler
    /// thread when `TimelineConfig::enabled`).
    timeline: Arc<TimeSeriesRing>,
}

impl Inner {
    fn granii(&self) -> Arc<Granii> {
        self.granii
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Wakes one parked worker, if any. The empty lock acquisition is the
    /// standard fence against the window between a parker's sleeper
    /// registration and its `wait`.
    fn wake_one(&self) {
        if self.parking.sleepers.load(Ordering::SeqCst) > 0 {
            drop(
                self.parking
                    .lot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            self.parking.available.notify_one();
        }
    }

    fn wake_all(&self) {
        drop(
            self.parking
                .lot
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.parking.available.notify_all();
    }

    /// Parks the calling worker until woken or [`PARK_TIMEOUT`] elapses.
    /// Re-checks the queue after registering as a sleeper so a push that
    /// raced the registration is never slept through.
    fn park(&self) {
        let guard = self
            .parking
            .lot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.parking.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.queue.is_empty() && !self.shutdown.load(Ordering::SeqCst) {
            let _ = self.parking.available.wait_timeout(guard, PARK_TIMEOUT);
        }
        self.parking.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII guard for [`Inner::admitting`]: the counter must come back down on
/// every submit exit path, success and shed alike.
struct AdmitWindow<'a>(&'a AtomicU64);

impl Drop for AdmitWindow<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A handle to one in-flight request; [`Ticket::wait`] blocks for the reply.
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeResponse>>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<ServeResponse> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }
}

/// A thread-safe serving runtime over one shared [`Granii`] instance.
///
/// Requests flow submit → lock-free bounded ring (per-tenant fairness
/// bound) → worker pool → signature-keyed batch groups → (plan cache, or
/// select + bind) → one multi-RHS `iterate` per group → reply. Dropping the
/// server shuts it down gracefully: queued requests are drained, workers
/// joined.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The timeline sampler thread, when `TimelineConfig::enabled`.
    sampler: Option<SamplerHandle>,
    /// The scrape listener, when `ScrapeConfig::enabled` and the bind
    /// succeeded.
    scrape: Option<ScrapeHandle>,
}

impl Server {
    /// Starts the worker pool.
    pub fn start(granii: Arc<Granii>, config: ServeConfig) -> Self {
        let worker_count = config.workers.max(1);
        let inner = Arc::new(Inner {
            granii: RwLock::new(granii),
            cache: PlanCache::new(config.cache_capacity),
            drift: DriftDetector::new(config.drift),
            inspect: InputInspector::new(config.inspect),
            slo: SloMonitor::new(config.slo.clone()),
            latency: LatencySketches::new(),
            batch_sizes: Sketch::new(DEFAULT_SKETCH_ALPHA),
            distinct_signatures: DistinctCounter::new(),
            queue: ArrayQueue::new(config.queue_depth.max(1)),
            tenants: TenantTable::new(config.queue_depth, config.fairness_share),
            shutdown: AtomicBool::new(false),
            admitting: AtomicU64::new(0),
            parking: Parking {
                lot: Mutex::new(()),
                available: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            recorder: FlightRecorder::new(config.recorder),
            incidents: IncidentCapturer::new(config.incident.clone()),
            batch_trace_seq: AtomicU64::new(0),
            timeline: Arc::new(TimeSeriesRing::new(config.timeline.capacity)),
            config: config.clone(),
            counters: Counters::default(),
            next_request_id: AtomicU64::new(0),
            started: Instant::now(),
            workers: (0..worker_count)
                .map(|_| WorkerSlot {
                    busy_ns: AtomicU64::new(0),
                    requests: AtomicU64::new(0),
                })
                .collect(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("granii-serve-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn serve worker")
            })
            .collect();
        let sampler = inner
            .config
            .timeline
            .enabled
            .then(|| start_timeline_sampler(&inner));
        let scrape = if inner.config.scrape.enabled {
            start_scrape_listener(&inner)
        } else {
            None
        };
        Server {
            inner,
            workers,
            sampler,
            scrape,
        }
    }

    /// Submits a request without blocking on its execution.
    ///
    /// The admission path is lock-free: a depth gate on the ring, a
    /// per-tenant fairness bound, then a CAS push. Assigns the request its
    /// id; every 1-in-`trace_sample_every` id (telemetry permitting)
    /// carries a [`RequestTrace`] that becomes a per-request lane in the
    /// Chrome trace.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity or the
    /// tenant is at its fairness bound (the request is shed — backpressure,
    /// never unbounded growth), or [`ServeError::ShuttingDown`] after
    /// shutdown began.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket> {
        let inner = &*self.inner;
        let now = Instant::now();
        let deadline = request.timeout.map(|t| now + t);
        let id = inner.next_request_id.fetch_add(1, Ordering::Relaxed);
        let trace = if trace::sampled(id, inner.config.trace_sample_every) {
            Some(Box::new(RequestTrace::new(id)))
        } else {
            None
        };
        inner.admitting.fetch_add(1, Ordering::SeqCst);
        let admit_window = AdmitWindow(&inner.admitting);
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // The key is computed before the depth gate so every shed record
        // (and a shed-storm incident) names the signature it turned away.
        let key = request.plan_key();
        let depth = inner.queue.len();
        if depth >= inner.config.queue_depth {
            return Err(shed(inner, id, key, depth, "queue_full"));
        }
        if !inner.tenants.try_admit(key.1) {
            inner.counters.tenant_shed.fetch_add(1, Ordering::Relaxed);
            granii_telemetry::counter_add("serve.tenant_shed", 1);
            return Err(shed(inner, id, key, depth, "tenant_cap"));
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id,
            key,
            request,
            enqueued: now,
            deadline,
            trace,
            reply: tx,
        };
        if inner.queue.push(job).is_err() {
            // The ring filled between the depth gate and the push.
            inner.tenants.cancel_admit(key.1);
            return Err(shed(inner, id, key, inner.queue.len(), "queue_full"));
        }
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        granii_telemetry::counter_add("serve.submitted", 1);
        let depth = inner.queue.len();
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::Enqueue {
                depth: depth as u32,
            },
        );
        granii_telemetry::gauge_set("serve.queue_depth", depth as f64);
        event!("serve.enqueue", id = id, depth = depth);
        // Close the admission window before waking: the push must be
        // visible to any worker deciding whether it may exit.
        drop(admit_window);
        inner.wake_one();
        Ok(Ticket { rx })
    }

    /// Submits a request and blocks until it completes.
    ///
    /// # Errors
    ///
    /// Propagates submit errors and the request's execution outcome.
    pub fn process(&self, request: ServeRequest) -> Result<ServeResponse> {
        self.submit(request)?.wait()
    }

    /// Hot-swaps the underlying [`Granii`] instance (new cost models —
    /// e.g. after an offline retrain repaired a drift-flagged model). Every
    /// cached plan was selected under the old models, so the plan cache is
    /// flushed and the drift detector's residual history dropped; in-flight
    /// requests finish on the instance they started with. The replacement
    /// must target the same device as the original — worker engines are
    /// built once, at startup.
    pub fn replace_granii(&self, granii: Arc<Granii>) {
        *self
            .inner
            .granii
            .write()
            .unwrap_or_else(PoisonError::into_inner) = granii;
        self.inner.cache.clear();
        self.inner.drift.reset();
        self.inner.inspect.reset();
        self.inner.recorder.record(
            0,
            0,
            "",
            RecordKind::CacheInvalidate {
                cause: "model_swap",
            },
        );
        self.inner.recorder.record(0, 0, "", RecordKind::ModelSwap);
        event!("serve.model_swap");
    }

    /// Point-in-time snapshots of the per-outcome latency sketches
    /// (`serve.latency.hit` / `.miss` / `.degraded`). Always populated —
    /// the server records them unconditionally, telemetry or not — and
    /// mergeable, so a caller can fold them into one whole-server
    /// distribution with [`SketchSnapshot::merge`].
    pub fn latency_sketches(&self) -> Vec<SketchSnapshot> {
        self.inner.latency.snapshots()
    }

    /// Snapshot of the batch-group size distribution (`serve.batch.size`),
    /// recorded once per formed group — including groups of one, so
    /// sequential traffic honestly reports p50 = 1.
    pub fn batch_sketch(&self) -> SketchSnapshot {
        self.inner.batch_sizes.snapshot("serve.batch.size")
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Assembles the live status snapshot (see [`ServerStatus`]): queue and
    /// worker utilization, cache counters, batching and fairness state,
    /// degradation rates, the drift detector's per-signature residual
    /// table, and flight-recorder health.
    pub fn status(&self) -> ServerStatus {
        self.inner.status()
    }

    /// The incident bundles captured so far and still retained in memory,
    /// oldest-first (bounded by `IncidentConfig::keep_last`; every bundle
    /// is also written to `IncidentConfig::dir` when one is configured).
    pub fn incidents(&self) -> Vec<IncidentBundle> {
        self.inner.incidents.recent()
    }

    /// A non-destructive snapshot of the flight-recorder ring, oldest
    /// record first.
    pub fn flight_records(&self) -> Vec<crate::recorder::FlightRecord> {
        self.inner.recorder.snapshot()
    }

    /// Flight-recorder write/drop counters: `(written, dropped)`.
    pub fn recorder_counters(&self) -> (u64, u64) {
        (self.inner.recorder.written(), self.inner.recorder.dropped())
    }

    /// Per-tenant meter rows, engine-charged time descending (the ranked
    /// "top tenants" view; see [`crate::tenants::TenantTable::rows`]).
    pub fn metering_rows(&self) -> Vec<MeterRow> {
        self.inner.tenants.rows()
    }

    /// The server-wide metering totals row. The sum of every
    /// [`Server::metering_rows`] counter equals this row exactly — the
    /// ledger attributes integers, never averages.
    pub fn metering_totals(&self) -> MeterRow {
        self.inner.tenants.totals()
    }

    /// A snapshot of the on-host time-series ring (empty when the sampler
    /// is disabled). Render with [`granii_telemetry::timeseries_json`].
    pub fn timeline_snapshot(&self) -> TimeSeriesSnapshot {
        self.inner.timeline.snapshot()
    }

    /// The scrape listener's bound address, when one is running (resolves
    /// a configured port 0 to the actual ephemeral port).
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref().map(ScrapeHandle::addr)
    }

    /// Shuts down gracefully: stops accepting requests, drains the queue,
    /// joins every worker. Equivalent to dropping the server.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Stop the observers first: the sampler reads counters the workers
        // are still writing (fine), but neither should outlive the server.
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(scrape) = self.scrape.take() {
            scrape.stop();
        }
        self.inner.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Inner {
    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            tenant_shed: c.tenant_shed.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            cache_invalidations: self.cache.invalidations(),
            cache_len: self.cache.len(),
            cache_hit_rate: self.cache.hit_rate(),
            queue_depth: self.queue.len(),
            drift_flagged: c.drift_flagged.load(Ordering::Relaxed),
            input_drift_flagged: c.input_drift_flagged.load(Ordering::Relaxed),
        }
    }

    /// `/readyz` semantics: accepting traffic, queue below the shed
    /// threshold, and no SLO objective actively burning its error budget.
    fn readiness(&self) -> std::result::Result<(), String> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err("shutting down".to_owned());
        }
        let depth = self.queue.len();
        if depth >= self.config.queue_depth {
            return Err(format!(
                "queue saturated ({depth}/{})",
                self.config.queue_depth
            ));
        }
        if let Some(row) = self.slo.rows().into_iter().find(|row| row.burning) {
            return Err(format!(
                "slo burning for outcome {}",
                row.objective.outcome.name()
            ));
        }
        Ok(())
    }

    /// Status assembly lives on `Inner` (not [`Server`]) so worker threads
    /// can embed a full snapshot in an incident bundle mid-request.
    fn status(&self) -> ServerStatus {
        let stats = self.stats();
        let uptime_seconds = self.started.elapsed().as_secs_f64();
        let completed = stats.completed.max(1) as f64;
        let batch_sketch = self.batch_sizes.snapshot("serve.batch.size");
        // One tenant-table walk feeds the fairness and metering sections
        // AND the per-tenant request counts on the drift/input tables.
        let (admission_rows, meter_rows) = self.tenants.views();
        let meter_totals = self.tenants.totals();
        let requests_for = |fingerprint: u64| {
            meter_rows
                .iter()
                .find(|row| row.fingerprint == fingerprint)
                .map(|row| row.requests)
        };
        ServerStatus {
            uptime_seconds,
            queue_depth: stats.queue_depth,
            queue_capacity: self.config.queue_depth,
            submitted: stats.submitted,
            completed: stats.completed,
            failed: stats.failed,
            shed: stats.shed,
            degraded: stats.degraded,
            deadline_expired: stats.deadline_expired,
            degraded_rate: if stats.completed == 0 {
                0.0
            } else {
                stats.degraded as f64 / completed
            },
            deadline_expired_rate: if stats.completed == 0 {
                0.0
            } else {
                stats.deadline_expired as f64 / completed
            },
            drift_flagged: stats.drift_flagged,
            input_drift_flagged: stats.input_drift_flagged,
            distinct_signatures: self.distinct_signatures.estimate(),
            batching: BatchingStatus {
                max_batch: self.config.max_batch,
                groups: batch_sketch.count,
                batches: stats.batches,
                batched_requests: stats.batched_requests,
                mean_size: batch_sketch.mean_ns(),
                p50_size: batch_sketch.p50_ns(),
                p95_size: batch_sketch.p95_ns(),
            },
            fairness: FairnessStatus {
                tenant_queue_cap: self.tenants.cap(),
                tenant_shed: stats.tenant_shed,
                tenants: admission_rows
                    .into_iter()
                    .map(|row| TenantStatus {
                        fingerprint: hex_fp(row.fingerprint),
                        queued: row.queued,
                        admitted: row.admitted,
                        shed: row.tenant_shed,
                    })
                    .collect(),
            },
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(index, slot)| {
                    let busy_seconds = slot.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
                    WorkerStatus {
                        index,
                        requests: slot.requests.load(Ordering::Relaxed),
                        busy_seconds,
                        utilization: if uptime_seconds > 0.0 {
                            (busy_seconds / uptime_seconds).min(1.0)
                        } else {
                            0.0
                        },
                    }
                })
                .collect(),
            cache: CacheStatus {
                hits: stats.cache_hits,
                misses: stats.cache_misses,
                evictions: stats.cache_evictions,
                invalidations: stats.cache_invalidations,
                len: stats.cache_len,
                capacity: self.config.cache_capacity,
                hit_rate: stats.cache_hit_rate,
            },
            drift: {
                let mut rows = self.drift.rows();
                // Fingerprint-first ordering so `--status-out` artifacts
                // from different runs diff cleanly regardless of which
                // model family hit the detector first.
                rows.sort_by_key(|row| (row.key.1, row.key.0.name(), row.key.2, row.key.3));
                rows.into_iter()
                    .map(|row| {
                        let (model, fingerprint, k1, k2) = row.key;
                        DriftSignatureStatus {
                            model: model.name().to_owned(),
                            fingerprint: hex_fp(fingerprint),
                            k1,
                            k2,
                            ewma_residual: row.ewma_residual,
                            last_residual: row.last_residual,
                            samples: row.samples,
                            flags: row.flags,
                            cooldown: u64::from(row.cooldown),
                            tenant_requests: requests_for(fingerprint),
                        }
                    })
                    .collect()
            },
            input: {
                let mut rows = self.inspect.rows();
                rows.sort_by_key(|row| (row.key.1, row.key.0.name(), row.key.2, row.key.3));
                rows.into_iter()
                    .map(|row| {
                        let (model, fingerprint, k1, k2) = row.key;
                        InputSignatureStatus {
                            model: model.name().to_owned(),
                            fingerprint: hex_fp(fingerprint),
                            k1,
                            k2,
                            band_l1: row.band_l1,
                            cv_delta: row.cv_delta,
                            live_avg_degree: row.live.avg_degree,
                            live_degree_cv: row.live.degree_cv,
                            reference_degree_cv: row.reference.degree_cv,
                            samples: row.samples,
                            flags: row.flags,
                            cooldown: u64::from(row.cooldown),
                            tenant_requests: requests_for(fingerprint),
                        }
                    })
                    .collect()
            },
            slo: self
                .slo
                .rows()
                .into_iter()
                .map(|row| SloObjectiveStatus {
                    outcome: row.objective.outcome.name().to_owned(),
                    threshold_ms: row.objective.threshold_ms,
                    target: row.objective.target,
                    total: row.total,
                    violations: row.violations,
                    compliance: row.compliance,
                    burn_rate: row.burn_rate,
                    burning: row.burning,
                    windows_closed: row.windows_closed,
                })
                .collect(),
            latency: {
                // Per-outcome rows, then their merge: summary quantiles
                // cannot be re-aggregated across outcomes, so the server
                // exports the whole-server distribution itself.
                let mut sketches = self.latency.snapshots();
                let mut all = sketches[0].clone();
                for s in &sketches[1..] {
                    all.merge(s);
                }
                all.name = format!("serve.latency.{ALL_OUTCOMES}");
                sketches.push(all);
                sketches
                    .into_iter()
                    .map(|s| LatencySketchStatus {
                        outcome: s.name.rsplit('.').next().unwrap_or(&s.name).to_owned(),
                        count: s.count,
                        mean_ms: s.mean_ns() / 1e6,
                        p50_ms: s.p50_ns() / 1e6,
                        p95_ms: s.p95_ns() / 1e6,
                        p99_ms: s.p99_ns() / 1e6,
                        p999_ms: s.p999_ns() / 1e6,
                    })
                    .collect()
            },
            recorder: RecorderStatus {
                capacity: self.recorder.capacity() as u64,
                written: self.recorder.written(),
                dropped: self.recorder.dropped(),
                incidents: self.incidents.captured(),
                suppressed: self.incidents.suppressed(),
                events_dropped: granii_telemetry::events_dropped(),
                last_trigger: self.incidents.last_trigger(),
            },
            metering: MeteringStatus {
                total_requests: meter_totals.requests,
                total_charged_ms: meter_totals.charged_ns as f64 / 1e6,
                total_flops: meter_totals.flops as f64,
                total_bytes: meter_totals.bytes as f64,
                total_sheds: meter_totals.sheds,
                total_slo_violations: meter_totals.slo_violations,
                tenants: meter_rows
                    .into_iter()
                    .map(TenantMeterStatus::from)
                    .collect(),
            },
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Column handles for the global timeline lanes, registered once at
/// startup so the sampler tick itself is lookup-free.
struct TimelineCols {
    submitted: ColumnId,
    completed: ColumnId,
    failed: ColumnId,
    shed: ColumnId,
    degraded: ColumnId,
    cache_hits: ColumnId,
    cache_misses: ColumnId,
    queue_depth: ColumnId,
    cache_entries: ColumnId,
    charged_ms: ColumnId,
    hit_p95_ms: ColumnId,
    miss_p95_ms: ColumnId,
}

/// Spawns the timeline sampler: every tick captures one frame of global
/// counters/gauges/quantiles plus a per-tenant lane
/// (`tenant.<fingerprint>.charged_ms` / `.requests`) from the metering
/// ledger. The thread is an observer — it reads atomics and pushes into
/// the ring; nothing on the request path waits for it.
fn start_timeline_sampler(inner: &Arc<Inner>) -> SamplerHandle {
    let ring = Arc::clone(&inner.timeline);
    let cols = TimelineCols {
        submitted: ring.column("serve.submitted", SampleKind::Counter),
        completed: ring.column("serve.completed", SampleKind::Counter),
        failed: ring.column("serve.failed", SampleKind::Counter),
        shed: ring.column("serve.shed", SampleKind::Counter),
        degraded: ring.column("serve.degraded", SampleKind::Counter),
        cache_hits: ring.column("serve.cache_hits", SampleKind::Counter),
        cache_misses: ring.column("serve.cache_misses", SampleKind::Counter),
        queue_depth: ring.column("serve.queue_depth", SampleKind::Gauge),
        cache_entries: ring.column("serve.cache_entries", SampleKind::Gauge),
        charged_ms: ring.column("serve.charged_ms", SampleKind::Counter),
        hit_p95_ms: ring.column("serve.latency.hit.p95_ms", SampleKind::Gauge),
        miss_p95_ms: ring.column("serve.latency.miss.p95_ms", SampleKind::Gauge),
    };
    let inner = Arc::clone(inner);
    // Tenant columns register lazily, the first tick a tenant shows
    // traffic; the map makes every later tick lookup-only.
    let mut tenant_cols: HashMap<u64, (ColumnId, ColumnId)> = HashMap::new();
    let mut samples: Vec<(ColumnId, f64)> = Vec::with_capacity(32);
    start_sampler(inner.config.timeline.interval, move || {
        samples.clear();
        let stats = inner.stats();
        samples.push((cols.submitted, stats.submitted as f64));
        samples.push((cols.completed, stats.completed as f64));
        samples.push((cols.failed, stats.failed as f64));
        samples.push((cols.shed, stats.shed as f64));
        samples.push((cols.degraded, stats.degraded as f64));
        samples.push((cols.cache_hits, stats.cache_hits as f64));
        samples.push((cols.cache_misses, stats.cache_misses as f64));
        samples.push((cols.queue_depth, stats.queue_depth as f64));
        samples.push((cols.cache_entries, stats.cache_len as f64));
        samples.push((
            cols.charged_ms,
            inner.tenants.totals().charged_ns as f64 / 1e6,
        ));
        samples.push((
            cols.hit_p95_ms,
            inner.latency.hit.snapshot("serve.latency.hit").p95_ns() / 1e6,
        ));
        samples.push((
            cols.miss_p95_ms,
            inner.latency.miss.snapshot("serve.latency.miss").p95_ns() / 1e6,
        ));
        inner.tenants.for_each(|row| {
            let (charged, requests) = *tenant_cols.entry(row.fingerprint).or_insert_with(|| {
                let fp = hex_fp(row.fingerprint);
                (
                    ring.column(&format!("tenant.{fp}.charged_ms"), SampleKind::Counter),
                    ring.column(&format!("tenant.{fp}.requests"), SampleKind::Counter),
                )
            });
            samples.push((charged, row.charged_ns as f64 / 1e6));
            samples.push((requests, row.requests as f64));
        });
        ring.push_now(&samples);
    })
}

/// Binds the scrape listener. A bind failure (address in use, permission)
/// is reported as an event and the server runs without the endpoint —
/// observability must never take serving down.
fn start_scrape_listener(inner: &Arc<Inner>) -> Option<ScrapeHandle> {
    let metrics_inner = Arc::clone(inner);
    let ready_inner = Arc::clone(inner);
    match crate::scrape::start_scrape(
        &inner.config.scrape.addr,
        move || crate::scrape::render_prometheus(&metrics_inner.status()),
        move || ready_inner.readiness(),
    ) {
        Ok(handle) => {
            event!("serve.scrape_listen", addr = format!("{}", handle.addr()));
            Some(handle)
        }
        Err(e) => {
            event!("serve.scrape_bind_failed", error = format!("{e}"));
            None
        }
    }
}

/// Shed bookkeeping shared by every admission-reject path: counters, gauges
/// (a shed must not leave them stale), the shed event, the flight-recorder
/// record, and the shed-storm incident trigger.
fn shed(inner: &Inner, id: u64, key: PlanKey, depth: usize, reason: &'static str) -> ServeError {
    inner.counters.shed.fetch_add(1, Ordering::Relaxed);
    inner.tenants.note_shed(key.1);
    granii_telemetry::counter_add("serve.shed", 1);
    granii_telemetry::gauge_set("serve.queue_depth", depth as f64);
    granii_telemetry::gauge_set("serve.cache_hit_rate", inner.cache.hit_rate());
    inner.recorder.record(
        id,
        key.1,
        key.0.name(),
        RecordKind::Shed {
            depth: depth as u32,
            reason,
        },
    );
    event!("serve.shed", id = id, depth = depth, reason = reason);
    if let Some(sheds) = inner.incidents.note_shed() {
        capture_incident(
            inner,
            IncidentTrigger::ShedStorm {
                sheds,
                window_seconds: inner.incidents.config().shed_window.as_secs_f64(),
            },
        );
    }
    ServeError::Overloaded {
        depth: inner.config.queue_depth,
    }
}

/// Blocks (parking with a timeout) until a job is available or shutdown has
/// drained everything. `None` means the worker may exit: shutdown is set,
/// the ring is empty, and no submit is mid-admission.
fn next_job(inner: &Inner) -> Option<Job> {
    loop {
        if let Some(job) = inner.queue.pop() {
            return Some(job);
        }
        if inner.shutdown.load(Ordering::SeqCst) && inner.admitting.load(Ordering::SeqCst) == 0 {
            // Final sweep: a push may have landed between the failed pop
            // above and the flag checks. After (shutdown ∧ admitting == 0)
            // is observed, no further push can succeed, so an empty ring
            // here is conclusive.
            return inner.queue.pop();
        }
        inner.park();
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    // Each worker owns its engine: `Engine` accumulates a profile under a
    // mutex per kernel charge, so sharing one across workers would serialize
    // them — and the profile is drained per drain-cycle below to keep a
    // long-running server's memory flat.
    let engine = Engine::modeled(inner.granii().device());
    let exec = Exec::real(&engine);
    let max_batch = inner.config.max_batch.max(1);
    loop {
        let Some(first) = next_job(inner) else { return };
        // Continuous batching: opportunistically drain whatever else is
        // already queued, up to the batch bound. No waiting — an empty ring
        // means the batch is whatever arrived while we were busy.
        let mut drained = vec![first];
        while drained.len() < max_batch {
            match inner.queue.pop() {
                Some(job) => drained.push(job),
                None => break,
            }
        }
        for job in &drained {
            inner.tenants.release(job.key.1);
        }
        granii_telemetry::gauge_set("serve.queue_depth", inner.queue.len() as f64);
        // Coalesce by plan signature, preserving first-seen (queue) order.
        let mut groups: Vec<(PlanKey, Vec<Job>)> = Vec::new();
        for job in drained {
            match groups.iter_mut().find(|(k, _)| *k == job.key) {
                Some((_, members)) => members.push(job),
                None => groups.push((job.key, vec![job])),
            }
        }
        for (_, members) in groups {
            let n = members.len() as u64;
            let processing = Instant::now();
            process_group(inner, &exec, members);
            let slot = &inner.workers[index];
            slot.busy_ns
                .fetch_add(processing.elapsed().as_nanos() as u64, Ordering::Relaxed);
            slot.requests.fetch_add(n, Ordering::Relaxed);
        }
        // Keep the per-worker profile from growing without bound.
        engine.take_profile();
    }
}

/// Executes one signature-coalesced group, a group of one included. A
/// failed group of one replies its typed error; a failed larger group
/// retries each member as a group of one, so one member's failure cannot
/// sink its whole group.
fn process_group(inner: &Inner, exec: &Exec, jobs: Vec<Job>) {
    let batch = jobs.len();
    inner.batch_sizes.record_ns(batch as u64);
    granii_telemetry::sketch_record_ns("serve.batch.size", batch as u64);
    // Every formed group — including groups of one — leaves a ring record
    // naming its signature and member ids: the incident timeline can always
    // answer "which batch carried the triggering request".
    let key = jobs[0].key;
    let mut members = [0u64; MAX_BATCH_MEMBERS];
    let tracked = batch.min(MAX_BATCH_MEMBERS);
    for (slot, job) in members.iter_mut().zip(jobs.iter()) {
        *slot = job.id;
    }
    inner.recorder.record(
        jobs[0].id,
        key.1,
        key.0.name(),
        RecordKind::BatchFormed {
            size: batch as u32,
            tracked: tracked as u32,
            members,
        },
    );
    if batch > 1 {
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .counters
            .batched_requests
            .fetch_add(batch as u64, Ordering::Relaxed);
        granii_telemetry::counter_add("serve.batches", 1);
        granii_telemetry::counter_add("serve.batched_requests", batch as u64);
    }
    let Err((jobs, error)) = process_batch(inner, exec, jobs) else {
        return;
    };
    if batch == 1 {
        finish_job(inner, jobs[0].id, key, &jobs[0].reply, Err(error));
        return;
    }
    // Rare path (leader bind error, or a batched kernel error).
    for job in jobs {
        if let Err((jobs, error)) = process_batch(inner, exec, vec![job]) {
            finish_job(inner, jobs[0].id, key, &jobs[0].reply, Err(error));
        }
    }
}

/// Serves one group of same-signature requests: one cache interaction
/// (leader lookup or miss-bind; followers accounted as shared hits), one
/// execution — a multi-RHS `iterate_batched` over column-stacked RHS blocks
/// for two or more members, a plain `iterate` for one — then per-member
/// result extraction, observability and replies. Returns the jobs with the
/// error on failure, before any of them was answered.
fn process_batch(
    inner: &Inner,
    exec: &Exec,
    mut jobs: Vec<Job>,
) -> std::result::Result<(), (Vec<Job>, ServeError)> {
    let key = jobs[0].key;
    let batch = jobs.len();
    let formed = Instant::now();
    let model = jobs[0].request.model.name();
    let _span = if batch == 1 {
        granii_telemetry::span!(
            "serve.request",
            model = model,
            nodes = jobs[0].request.graph.num_nodes(),
        )
    } else {
        granii_telemetry::span!("serve.batch", model = model, size = batch)
    };
    // Per-member dequeue bookkeeping. The deadline is checked here, at
    // group-formation time (not at ring pop): earlier groups from the same
    // drain may have executed in between, and that wait counts. An expired
    // request is still served — a late answer beats none — but a miss skips
    // the cost models.
    let mut queue_seconds = Vec::with_capacity(batch);
    let mut expired = Vec::with_capacity(batch);
    for job in &mut jobs {
        if let Some(t) = job.trace.as_deref_mut() {
            t.mark_dequeued();
        }
        let waited = formed.duration_since(job.enqueued).as_secs_f64();
        granii_telemetry::sketch_record_seconds("serve.queue_wait", waited);
        event!("serve.dequeue", id = job.id, queue_seconds = waited);
        queue_seconds.push(waited);
        let is_expired = job.deadline.is_some_and(|d| formed >= d);
        if is_expired {
            inner
                .counters
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            granii_telemetry::counter_add("serve.deadline_expired", 1);
            inner
                .recorder
                .record(job.id, key.1, key.0.name(), RecordKind::DeadlineExpired);
        }
        expired.push(is_expired);
        inner.distinct_signatures.observe(key.1);
        granii_telemetry::distinct_observe("serve.distinct_signatures", key.1);
    }
    // The input-drift lane inspects every request's graph (one O(nodes)
    // pass, allocation-free on the tracked counters) — the same statistics
    // selection itself keys on.
    let profiles: Vec<Option<InputProfile>> = jobs
        .iter()
        .map(|job| {
            inner
                .inspect
                .config()
                .enabled
                .then(|| InputProfile::extract(&job.request.graph))
        })
        .collect();

    // Leader resolves the entry; followers ride it as shared cache hits.
    // A hit serves even an expired leader at full quality.
    let (entry, leader_hit, leader_degraded, select_seconds) = match inner.cache.lookup(key) {
        Some(entry) => (entry, true, false, 0.0),
        None => {
            let leader = &mut jobs[0];
            match bind_miss(
                inner,
                exec,
                leader.id,
                &leader.request,
                key,
                expired[0],
                profiles[0],
                &mut leader.trace,
            ) {
                Ok((entry, degraded, secs)) => {
                    // Selection just inspected the graph as it is now: pin
                    // it as the input-drift reference for this signature.
                    if let Some(p) = profiles[0] {
                        inner.inspect.rebind(key, p);
                    }
                    (entry, false, degraded, secs)
                }
                Err(error) => return Err((jobs, error)),
            }
        }
    };
    inner.cache.note_shared_hits(batch as u64 - 1);
    if leader_hit {
        granii_telemetry::counter_add("serve.cache_hits", batch as u64);
        inner.recorder.record(
            jobs[0].id,
            key.1,
            key.0.name(),
            RecordKind::CacheHit {
                shared: batch as u32 - 1,
            },
        );
    } else {
        granii_telemetry::counter_add("serve.cache_misses", 1);
        if batch > 1 {
            granii_telemetry::counter_add("serve.cache_hits", batch as u64 - 1);
        }
    }

    // Execute: one multi-RHS iterate for a group of two or more when the
    // plan has a batched lowering (every entry bound by this server
    // pre-warmed its wide buffers at bind time), per-member serial iterates
    // under the same entry lock otherwise (a group of one, or e.g.
    // attention plans).
    let t_execute = Instant::now();
    let batch_start_us = granii_telemetry::now_us();
    for job in &mut jobs {
        if let Some(t) = job.trace.as_deref_mut() {
            t.mark_execute_start();
        }
    }
    let (composition, predicted_steady_seconds, executed) = {
        let mut cached = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let batched =
            batch > 1 && cached.bound.batch_supported() && cached.bound.batch_capacity() >= batch;
        let executed = if batched {
            execute_batched(&mut cached, exec, batch, t_execute)
        } else {
            execute_serial(&mut cached, exec, batch)
        };
        (
            cached.composition,
            cached.predicted_steady_seconds,
            executed,
        )
    };
    let executed = match executed {
        Ok(executed) => executed,
        Err(error) => return Err((jobs, error.into())),
    };
    for job in &mut jobs {
        if let Some(t) = job.trace.as_deref_mut() {
            t.mark_execute_done();
            if batch > 1 {
                t.set_batch(key.1, batch as u64);
            }
        }
    }
    // Batch-causal tracing: one `serve.batch` span per executed group of
    // two or more on the dedicated lane, carrying the group signature and
    // member ids; sampled members' execute children link back via
    // `batch_group`.
    if batch > 1 && granii_telemetry::enabled() {
        let member_ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        trace::record_batch_span(
            key.1,
            key.0.name(),
            &member_ids,
            batch_start_us,
            granii_telemetry::now_us().saturating_sub(batch_start_us),
            inner.batch_trace_seq.fetch_add(1, Ordering::Relaxed),
        );
    }

    // Per-member observability and replies.
    for (i, (job, member)) in jobs.into_iter().zip(executed).enumerate() {
        let Job {
            id,
            request,
            enqueued,
            mut trace,
            reply,
            ..
        } = job;
        if let Some(predicted) = predicted_steady_seconds {
            observe_drift(inner, id, &request, key, member.charged_seconds, predicted);
        }
        if let Some(p) = profiles[i] {
            observe_input(inner, id, &request, key, &p);
        }
        let cache_hit = leader_hit || i > 0;
        let degraded = if i == 0 { leader_degraded } else { false };
        if let Some(t) = trace.take() {
            t.finish(request.model.name(), cache_hit, degraded);
        }
        let (charged_ns, flops, bytes) = member.share;
        inner.tenants.record(
            key.1,
            &MeterCharge {
                charged_ns,
                flops,
                bytes,
                queue_wait_ns: (queue_seconds[i] * 1e9) as u64,
                batch: batch as u32,
                cache_hit,
                degraded,
            },
        );
        let response = ServeResponse {
            composition,
            output: member.output,
            timing: RequestTiming {
                queue_seconds: queue_seconds[i],
                select_seconds: if i == 0 { select_seconds } else { 0.0 },
                execute_seconds: member.wall_seconds,
                total_seconds: enqueued.elapsed().as_secs_f64(),
            },
            cache_hit,
            degraded,
            batch_size: batch,
        };
        finish_job(inner, id, key, &reply, Ok(response));
    }
    Ok(())
}

/// What executing a group produced for one member.
struct Executed {
    output: DenseMatrix,
    /// Modeled engine charge.
    charged_seconds: f64,
    /// Metered `(charged_ns, flops, bytes)`.
    share: (u64, u64, u64),
    /// Wall time of the execution that served the member.
    wall_seconds: f64,
}

/// One multi-RHS iterate for the whole group.
fn execute_batched(
    cached: &mut CachedPlan,
    exec: &Exec,
    batch: usize,
    t_execute: Instant,
) -> std::result::Result<Vec<Executed>, CoreError> {
    let observed = cached.bound.iterate_batched_observed(exec, batch)?;
    let outputs = (0..batch)
        .map(|t| cached.bound.output_block(t))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let wall_seconds = t_execute.elapsed().as_secs_f64();
    // Metering attribution: convert the group's engine charge to integers
    // ONCE, then hand each member an exact integer share — the per-tenant
    // ledger sums back to the group totals bitwise (see
    // `crate::metering::exact_share`).
    let group_charged_ns = (observed.charged_seconds * 1e9).round() as u64;
    Ok(outputs
        .into_iter()
        .enumerate()
        .map(|(member, output)| Executed {
            output,
            // The batched wrappers charge the full group, each member
            // carries an equal share (equal to its serial charge — the
            // drift lane sees no difference).
            charged_seconds: observed.charged_seconds / batch as f64,
            share: (
                exact_share(group_charged_ns, batch, member),
                exact_share(observed.flops, batch, member),
                exact_share(observed.bytes, batch, member),
            ),
            wall_seconds,
        })
        .collect())
}

/// One serial iterate per member, each timed on its own.
fn execute_serial(
    cached: &mut CachedPlan,
    exec: &Exec,
    batch: usize,
) -> std::result::Result<Vec<Executed>, CoreError> {
    (0..batch)
        .map(|_| {
            let t_member = Instant::now();
            let observed = cached.bound.iterate_observed(exec)?;
            Ok(Executed {
                output: cached.bound.output()?.clone(),
                charged_seconds: observed.charged_seconds,
                share: (
                    (observed.charged_seconds * 1e9).round() as u64,
                    observed.flops,
                    observed.bytes,
                ),
                wall_seconds: t_member.elapsed().as_secs_f64(),
            })
        })
        .collect()
}

/// Per-result bookkeeping and the reply send: completion/failure counters,
/// outcome-split latency sketches, SLO window accounting, flight-recorder
/// records (and the SLO-burn incident trigger), and events.
fn finish_job(
    inner: &Inner,
    id: u64,
    key: PlanKey,
    reply: &mpsc::Sender<Result<ServeResponse>>,
    result: Result<ServeResponse>,
) {
    match &result {
        Ok(response) => {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            if response.degraded {
                inner.counters.degraded.fetch_add(1, Ordering::Relaxed);
                granii_telemetry::counter_add("serve.degraded", 1);
            }
            granii_telemetry::counter_add("serve.completed", 1);
            granii_telemetry::sketch_record_seconds(
                "serve.request_latency",
                response.timing.total_seconds,
            );
            // Outcome-split latency: a healthy hit rate can hide a
            // pathological miss tail in the combined figures. Always
            // recorded server-side, with a gated mirror into the telemetry
            // registry under the same name.
            let outcome = if response.degraded {
                Outcome::Degraded
            } else if response.cache_hit {
                Outcome::Hit
            } else {
                Outcome::Miss
            };
            let metric = match outcome {
                Outcome::Hit => "serve.latency.hit",
                Outcome::Miss => "serve.latency.miss",
                Outcome::Degraded => "serve.latency.degraded",
            };
            let latency_ns = if response.timing.total_seconds > 0.0 {
                (response.timing.total_seconds * 1e9) as u64
            } else {
                0
            };
            // Per-tenant SLO accounting: a completed request over its
            // outcome's objective threshold charges the tenant's
            // violation meter (the monitor below keeps the window math).
            if inner.slo.config().objectives.iter().any(|objective| {
                objective.outcome == outcome && latency_ns as f64 > objective.threshold_ms * 1e6
            }) {
                inner.tenants.note_slo_violation(key.1);
            }
            inner.latency.for_outcome(outcome).record_ns(latency_ns);
            granii_telemetry::sketch_record_ns(metric, latency_ns);
            inner.recorder.record(
                id,
                key.1,
                key.0.name(),
                RecordKind::Complete {
                    outcome: outcome.name(),
                    latency_us: latency_ns / 1_000,
                    batch: response.batch_size as u32,
                    degraded: response.degraded,
                },
            );
            match inner.slo.record(outcome, latency_ns) {
                SloVerdict::Ok => {}
                SloVerdict::WindowClosed {
                    objective,
                    burn_rate,
                    crossed,
                } => {
                    let objective = &inner.slo.config().objectives[objective];
                    let name = objective.outcome.name();
                    granii_telemetry::gauge_set(&format!("serve.slo.burn.{name}"), burn_rate);
                    match crossed {
                        Some(true) => {
                            granii_telemetry::counter_add("serve.slo_breached", 1);
                            inner.recorder.record(
                                id,
                                key.1,
                                key.0.name(),
                                RecordKind::SloBurn {
                                    outcome: name,
                                    burn_rate,
                                    threshold_ms: objective.threshold_ms,
                                },
                            );
                            event!(
                                "serve.slo_burn",
                                outcome = name,
                                burn_rate = burn_rate,
                                threshold_ms = objective.threshold_ms,
                                target = objective.target,
                            );
                            // The request that closed the burning window is
                            // the incident's triggering signature.
                            capture_incident(
                                inner,
                                IncidentTrigger::SloBurn {
                                    outcome: name,
                                    burn_rate,
                                    threshold_ms: objective.threshold_ms,
                                    key,
                                },
                            );
                        }
                        Some(false) => {
                            inner.recorder.record(
                                id,
                                key.1,
                                key.0.name(),
                                RecordKind::SloRecover {
                                    outcome: name,
                                    burn_rate,
                                },
                            );
                            event!("serve.slo_recover", outcome = name, burn_rate = burn_rate,);
                        }
                        None => {}
                    }
                }
            }
            granii_telemetry::gauge_set("serve.cache_hit_rate", inner.cache.hit_rate());
            event!(
                "serve.complete",
                id = id,
                total_seconds = response.timing.total_seconds,
                cache_hit = u64::from(response.cache_hit),
                degraded = u64::from(response.degraded),
                batch_size = response.batch_size,
            );
        }
        Err(_) => {
            inner.counters.failed.fetch_add(1, Ordering::Relaxed);
            granii_telemetry::counter_add("serve.failed", 1);
            inner
                .recorder
                .record(id, key.1, key.0.name(), RecordKind::Failed);
            // The gauges must track reality on the failure path too —
            // a failed request still consumed a queue slot and a cache
            // lookup.
            granii_telemetry::gauge_set("serve.cache_hit_rate", inner.cache.hit_rate());
            granii_telemetry::gauge_set("serve.queue_depth", inner.queue.len() as f64);
            event!("serve.failed", id = id);
        }
    }
    // Receiver may have given up; a dead ticket is not a worker error.
    let _ = reply.send(result);
}

/// What `choose_composition` decided: the winner, whether it is the
/// degraded fallback, and every candidate's predicted cost (empty on the
/// degraded path — nothing was predicted).
type Chosen = (Composition, bool, Vec<(Composition, f64)>);

/// Picks the composition for a cache miss. Normal path: full cost-model
/// selection, returning every candidate's predicted cost alongside the
/// winner (the selection audit an incident bundle replays). Degraded path
/// (expired deadline, or the cost models cannot predict a candidate): the
/// plan's default composition — the first eligible candidate, which every
/// compiled model is guaranteed to have — with an empty prediction list
/// (nothing was predicted).
fn choose_composition(
    granii: &Granii,
    request: &ServeRequest,
    cfg: LayerConfig,
    expired: bool,
    id: u64,
) -> Result<Chosen> {
    if !expired {
        match granii.select_with_config(request.model, &request.graph, cfg, request.iterations) {
            Ok(selection) => {
                return Ok((selection.composition, false, selection.predicted));
            }
            Err(CoreError::MissingCostModel { .. }) => {
                event!("serve.degrade", id = id, reason = "missing_cost_model");
            }
            Err(e) => return Err(e.into()),
        }
    } else {
        event!("serve.degrade", id = id, reason = "deadline_expired");
    }
    let plan = granii.compiled(request.model, cfg)?;
    let eligible = plan.eligible(cfg.k_in, cfg.k_out);
    let first = eligible.first().ok_or(CoreError::NoCandidates {
        model: request.model.name().to_owned(),
    })?;
    Ok((first.composition, true, Vec::new()))
}

/// The cache-miss slow path: select (or degrade), build, bind, pre-warm the
/// multi-RHS batch buffers, and insert. Records the selection audit (chosen
/// composition, every candidate's predicted cost, and the input profile
/// that keyed the choice) so a later incident against this signature can
/// replay the decision. Returns the cached entry, whether the degraded
/// composition was used, and the select wall time.
#[allow(clippy::too_many_arguments)]
fn bind_miss(
    inner: &Inner,
    exec: &Exec,
    id: u64,
    request: &ServeRequest,
    key: PlanKey,
    expired: bool,
    profile: Option<InputProfile>,
    trace: &mut Option<Box<RequestTrace>>,
) -> Result<(Arc<Mutex<CachedPlan>>, bool, f64)> {
    let t_select = Instant::now();
    if let Some(t) = trace.as_deref_mut() {
        t.mark_select_start();
    }
    let cfg = LayerConfig::new(request.k1, request.k2);
    let granii = inner.granii();
    let (composition, degraded, predicted) =
        choose_composition(&granii, request, cfg, expired, id)?;
    let plan = granii.compiled(request.model, cfg)?;
    let candidate = plan.candidate(composition)?;
    // The drift detector's reference point: what the current cost
    // models claim one steady-state iteration of this plan costs.
    // Unpredictable (degraded path) → None, which opts the
    // signature out of drift tracking.
    let features = FeaturizedInput::extract(&request.graph, request.k1, request.k2);
    let predicted_steady_seconds = granii
        .cost_models()
        .predict_steady_state(&candidate.program, &features)
        .ok();
    let ctx = GraphCtx::new(&request.graph).map_err(CoreError::from)?;
    let h = DenseMatrix::random(request.graph.num_nodes(), request.k1, 1.0, SERVE_SEED);
    let plan_inputs = PlanInputs::for_model(request.model, cfg, &ctx, h, SERVE_SEED + 1);
    let exec_plan = ExecPlan::build(&candidate.program)?;
    let mut bound = exec_plan.bind(exec, &plan_inputs.as_program_inputs())?;
    if inner.config.max_batch > 1 {
        // Pre-warm the wide multi-RHS buffers while the miss is already
        // paying for allocation: steady-state batched hits then stay on the
        // zero-alloc contract, exactly like serial hits.
        bound.ensure_batch(inner.config.max_batch)?;
    }
    let entry = inner.cache.insert(
        key,
        CachedPlan {
            composition,
            bound,
            predicted_steady_seconds,
        },
    );
    if let Some(t) = trace.as_deref_mut() {
        t.mark_select_done();
    }
    let select_seconds = t_select.elapsed().as_secs_f64();
    inner.incidents.audits().record(
        key,
        SelectionAuditInfo {
            model: key.0.name().to_owned(),
            fingerprint: hex_fp(key.1),
            k1: key.2 as u64,
            k2: key.3 as u64,
            composition: composition.name(),
            degraded,
            predicted: predicted
                .into_iter()
                .map(|(c, predicted_seconds)| CandidateCost {
                    composition: c.name(),
                    predicted_seconds,
                })
                .collect(),
            input: profile.map(InputStats::from),
            captured_at_us: granii_telemetry::now_us(),
        },
    );
    inner.recorder.record(
        id,
        key.1,
        key.0.name(),
        RecordKind::CacheMiss {
            select_us: (select_seconds * 1e6) as u64,
            degraded,
        },
    );
    Ok((entry, degraded, select_seconds))
}

/// Online drift check: compare the engine-charged cost of the iteration
/// just run (a member's equal share, for a batched group) against the cost
/// model's steady-state promise for this plan.
fn observe_drift(
    inner: &Inner,
    id: u64,
    request: &ServeRequest,
    key: PlanKey,
    charged_seconds: f64,
    predicted: f64,
) {
    if let DriftVerdict::Flagged { ewma_residual } =
        inner.drift.observe(key, charged_seconds, predicted)
    {
        inner.cache.invalidate(key);
        inner.counters.drift_flagged.fetch_add(1, Ordering::Relaxed);
        granii_telemetry::counter_add("serve.drift_flagged", 1);
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::CacheInvalidate {
                cause: "drift_flag",
            },
        );
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::DriftFlag { ewma_residual },
        );
        event!(
            "serve.drift",
            id = id,
            model = request.model.name(),
            fingerprint = hex_fp(key.1),
            k1 = request.k1,
            k2 = request.k2,
            ewma_residual = ewma_residual,
        );
        capture_incident(inner, IncidentTrigger::Drift { key, ewma_residual });
    }
}

/// Input-drift check: fold this request's degree statistics into the
/// signature's live profile and compare against what selection saw.
/// Orthogonal to the residual lane above — a stale plan executes its
/// *bound* graph, so its cost residual stays clean while the live input
/// walks away.
fn observe_input(inner: &Inner, id: u64, request: &ServeRequest, key: PlanKey, p: &InputProfile) {
    if let InspectVerdict::Flagged {
        band_l1,
        cv_delta,
        live,
        reference,
    } = inner.inspect.observe(key, p)
    {
        inner.cache.invalidate(key);
        inner
            .counters
            .input_drift_flagged
            .fetch_add(1, Ordering::Relaxed);
        granii_telemetry::counter_add("serve.input_drift_flagged", 1);
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::CacheInvalidate {
                cause: "input_drift_flag",
            },
        );
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::InputDriftFlag {
                band_l1,
                cv_delta,
                live_cv: live.degree_cv,
                reference_cv: reference.degree_cv,
                live_avg_degree: live.avg_degree,
            },
        );
        event!(
            "serve.input_drift",
            id = id,
            model = request.model.name(),
            fingerprint = hex_fp(key.1),
            k1 = request.k1,
            k2 = request.k2,
            band_l1 = band_l1,
            cv_delta = cv_delta,
        );
        capture_incident(
            inner,
            IncidentTrigger::InputDrift {
                key,
                band_l1,
                cv_delta,
            },
        );
    }
}

/// Assembles and stores one incident bundle for `trigger`, subject to the
/// capturer's rate limits. Runs on whichever thread hit the trigger (a
/// worker for SLO burn and drift, a submitter for a shed storm) — capture
/// is rare by construction, so the status/sketch assembly cost never sits
/// on the steady-state path.
fn capture_incident(inner: &Inner, trigger: IncidentTrigger) {
    if !inner.incidents.admit() {
        return;
    }
    let seq = inner.incidents.next_seq();
    granii_telemetry::counter_add("serve.incidents", 1);
    event!("serve.incident", seq = seq, kind = trigger.kind());
    // Ring excerpt: the newest `ring_tail` records, oldest-first.
    let ring_all = inner.recorder.snapshot();
    let tail = inner.incidents.config().ring_tail;
    let ring: Vec<RingEntry> = ring_all[ring_all.len().saturating_sub(tail)..]
        .iter()
        .map(RingEntry::from_record)
        .collect();
    // The triggering signature's selection audit, when the table still
    // holds it (the audit table is separate from the plan cache precisely
    // because the flag invalidated the cache entry a moment ago).
    let selection = trigger
        .key()
        .and_then(|key| inner.incidents.audits().get(key));
    let events = render_events(
        &granii_telemetry::snapshot_events(),
        inner.incidents.config().event_tail,
    );
    let bundle = IncidentBundle {
        seq,
        captured_at_us: granii_telemetry::now_us(),
        trigger: trigger.info(),
        ring,
        selection,
        events,
        // The last minutes of the sampled timeline — empty ring (sampler
        // disabled, or the incident beat the first tick) attaches nothing.
        timeline: {
            let snap = inner.timeline.snapshot();
            (snap.frames() > 0).then(|| TimelineInfo::from_snapshot(&snap))
        },
        status: inner.status(),
    };
    inner.incidents.store(bundle);
}
