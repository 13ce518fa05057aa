//! Concurrent serving runtime for GRANII (the paper's §IV selection, run as
//! a multi-tenant service).
//!
//! GRANII's pitch is that input-aware selection is cheap enough to run
//! online per input — which pays off when one trained [`granii_core::Granii`]
//! instance serves a stream of heterogeneous inference requests. This crate
//! composes the existing thread-safe pieces (compiled-plan cache, compile-once
//! [`granii_core::execplan::ExecPlan`], telemetry) into that runtime:
//!
//! - **Bound-plan LRU cache** ([`PlanCache`]): keyed on
//!   (model, graph fingerprint, k1, k2) so a repeated signature skips
//!   featurize + select + build + bind and goes straight to a zero-alloc
//!   steady-state `iterate`. Capacity-bounded with drop-LRU eviction and
//!   hit/miss/eviction counters.
//! - **Lock-free admission + worker pool** ([`Server`]): submits go through
//!   a bounded lock-free MPMC ring (vendored `crossbeam` `ArrayQueue`) — a
//!   full ring sheds with [`ServeError::Overloaded`] (backpressure instead
//!   of OOM), and a per-tenant fairness bound ([`TenantTable`]) keeps one
//!   hot signature from capturing the whole queue. Each request's deadline
//!   is checked once, when its batch group forms.
//! - **Continuous batching**: workers drain whatever is queued (up to
//!   `ServeConfig::max_batch`), coalesce requests by plan signature, and
//!   execute each group of two or more as ONE multi-RHS `iterate` over
//!   column-stacked blocks — bitwise identical to serial execution, with the
//!   adjacency streamed once per group instead of once per request.
//! - **Graceful degradation**: an expired deadline or a cost-model
//!   prediction failure falls back to the plan's default composition (the
//!   first eligible candidate) instead of failing the request, and the
//!   response is marked `degraded` with a matching counter in
//!   [`ServeStats`].
//! - **Request-scoped tracing** ([`RequestTrace`] via
//!   `ServeConfig::trace_sample_every`): 1-in-N sampled requests export a
//!   per-request lane (queue / select / execute stages) through the
//!   existing Chrome-trace exporter; unsampled requests carry nothing.
//! - **Online drift detection** ([`DriftDetector`]): per plan signature, an
//!   EWMA of the log-space residual between the cost model's steady-state
//!   prediction and the engine-charged cost of each served iteration;
//!   sustained mismatch flags the signature, invalidates its cached plan
//!   (forcing re-selection), and surfaces in metrics, events, and status.
//! - **Input-drift detection** ([`InputInspector`]): the second lane, keyed
//!   on the inputs themselves — per signature, an EWMA of each request
//!   graph's degree-band distribution and CV against the selection-time
//!   reference. Catches the failure mode the residual lane is blind to: a
//!   pinned-signature tenant ([`ServeRequest::with_signature`]) whose graph
//!   mutates under a cached plan.
//! - **Latency SLOs** ([`SloMonitor`]): declarative per-outcome objectives
//!   with tumbling-window error-budget burn rates, backed by
//!   bounded-relative-error latency sketches (p50–p999 on the status
//!   surface, burn events when the budget burns too fast).
//! - **Live status surface** ([`ServerStatus`] from [`Server::status`]):
//!   queue depth, per-worker utilization, cache counters, degradation
//!   rates, and the drift table — as JSON and a human-readable table.
//! - **Always-on flight recorder** ([`FlightRecorder`]): a fixed-slot,
//!   lock-free ring every serve layer streams structured records into —
//!   admission, shed, batch formation (group signature + member ids),
//!   cache traffic, drift flags, SLO burn, completion. Writers never
//!   block (collisions drop-and-count); readers snapshot without
//!   destroying. When a detector fires, the [`IncidentCapturer`]
//!   assembles a correlated [`IncidentBundle`] — ring excerpt, recent
//!   events, the triggering signature's selection audit (chosen
//!   composition, per-candidate predicted costs, and the input statistics
//!   that keyed the choice, recorded at bind time), and the full
//!   [`ServerStatus`], the bundle's only copy of server state (recorder
//!   health, and latency quantiles per outcome plus the whole-server
//!   `all` row) — as one JSON artifact, rate-limited by cooldown +
//!   max-per-window.
//! - **Per-tenant resource metering** ([`TenantTable`], the same table as
//!   the fairness bound): each tenant's slot also accumulates engine
//!   charges, flops/bytes, queue wait, batch share, cache traffic, sheds,
//!   degradations, and SLO violations — with *exact* integer attribution
//!   (the sum of per-tenant charges equals the server totals bitwise, even
//!   for batched execution). Surfaces as a ranked "top tenants" table in
//!   [`ServerStatus`] (one rendering, [`MeteringStatus`]'s `Display`) and
//!   per-tenant time-series rows.
//! - **On-host time-series ring** ([`TimelineConfig`]): a background
//!   sampler captures periodic frames of the server's counters, gauges,
//!   and sketch quantiles into a fixed-capacity
//!   [`granii_telemetry::TimeSeriesRing`] — snapshotable as dashboard
//!   JSON, and incident bundles carry the last minutes of timeline.
//! - **Prometheus scrape endpoint** ([`ScrapeConfig`]): a std-only
//!   `TcpListener` serving `/metrics` in the text exposition format
//!   (per-tenant series labeled `tenant="<fingerprint>"`), plus
//!   `/healthz` and `/readyz` (ready = workers up, queue below the shed
//!   threshold, no SLO objective burning).
//!
//! Outputs are deterministic: for a given request signature, cache hits,
//! misses, and serial re-execution all produce bitwise-identical matrices
//! (fixed synthetic-input seed, stable `iterate`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use granii_core::{Granii, GraniiOptions};
//! use granii_gnn::spec::ModelKind;
//! use granii_graph::datasets::{Dataset, Scale};
//! use granii_matrix::device::DeviceKind;
//! use granii_serve::{ServeConfig, ServeRequest, Server};
//!
//! let granii = Arc::new(
//!     Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast()).unwrap(),
//! );
//! let server = Server::start(granii, ServeConfig::default());
//! let graph = Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap());
//! let response = server
//!     .process(ServeRequest::new(ModelKind::Gcn, graph, 64, 128))
//!     .unwrap();
//! assert!(!response.output.as_slice().is_empty());
//! server.shutdown();
//! ```

mod cache;
mod detector;
mod drift;
mod error;
mod incident;
mod inspect;
mod recorder;
mod scrape;
mod server;
mod slo;
mod status;
mod tenants;
mod trace;

pub use cache::{CachedPlan, PlanCache, PlanKey};
pub use drift::{DriftConfig, DriftDetector, DriftRow, DriftVerdict};
pub use error::{Result, ServeError};
pub use incident::{
    IncidentBundle, IncidentCapturer, IncidentConfig, IncidentTrigger, RingEntry,
    SelectionAuditInfo, TimelineColumnInfo, TimelineInfo, TriggerInfo, AUDIT_CAPACITY,
};
pub use inspect::{
    InputInspector, InputProfile, InputRow, InspectConfig, InspectVerdict, DEGREE_BANDS,
};
pub use recorder::{FlightRecord, FlightRecorder, RecordKind, RecorderConfig, MAX_BATCH_MEMBERS};
pub use scrape::{render_prometheus, start_scrape, ScrapeConfig, ScrapeHandle};
pub use server::{
    RequestTiming, ServeConfig, ServeRequest, ServeResponse, ServeStats, Server, Ticket,
    TimelineConfig,
};
pub use slo::{LatencyObjective, Outcome, SloConfig, SloMonitor, SloRow, SloVerdict};
pub use status::{
    BatchingStatus, CacheStatus, DriftSignatureStatus, FairnessStatus, InputSignatureStatus,
    LatencySketchStatus, MeteringStatus, RecorderStatus, ServerStatus, SloObjectiveStatus,
    TenantMeterStatus, TenantStatus, WorkerStatus,
};
pub use tenants::{exact_share, MeterCharge, MeterRow, TenantTable};
pub use trace::{RequestTrace, BATCH_TRACE_LANE, TRACE_LANE_BASE};
