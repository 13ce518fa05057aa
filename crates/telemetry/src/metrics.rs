//! Metrics registry: named counters, gauges, quantile sketches and
//! distinct-count estimators.
//!
//! All live behind one global mutex keyed by string names. Recording is
//! gated on [`crate::enabled`] so a disabled call site costs one relaxed
//! atomic load, same as spans. [`crate::reset`] drops every entry, so a
//! snapshot lists only what was recorded since the last reset.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::sketch::{DistinctCounter, DistinctSnapshot, Sketch, SketchSnapshot};

struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    sketches: BTreeMap<String, Sketch>,
    distincts: BTreeMap<String, DistinctCounter>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            sketches: BTreeMap::new(),
            distincts: BTreeMap::new(),
        })
    })
}

fn with_registry(f: impl FnOnce(&mut Registry)) {
    f(&mut registry().lock().unwrap_or_else(PoisonError::into_inner));
}

/// Adds `delta` to the counter named `name` (no-op when disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        *r.counters.entry(name.to_owned()).or_insert(0) += delta;
    });
}

/// Sets the gauge named `name` to `value` (no-op when disabled). Unlike
/// counters, a gauge is a last-write-wins instantaneous reading — queue
/// depth, cache occupancy, hit rate — not an accumulation.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name.to_owned(), value);
    });
}

/// Records one nanosecond duration into the registry sketch named `name`,
/// created with [`crate::sketch::DEFAULT_SKETCH_ALPHA`] on first use
/// (no-op when disabled).
pub fn sketch_record_ns(name: &str, ns: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.sketches
            .entry(name.to_owned())
            .or_insert_with(|| Sketch::new(crate::sketch::DEFAULT_SKETCH_ALPHA))
            .record_ns(ns);
    });
}

/// Records a duration given in seconds into the registry sketch named
/// `name` (converted to integer nanoseconds; negative or non-finite values
/// are recorded as zero).
pub fn sketch_record_seconds(name: &str, seconds: f64) {
    let ns = if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e9) as u64
    } else {
        0
    };
    sketch_record_ns(name, ns);
}

/// Folds one key into the registry distinct-count estimator named `name`
/// (no-op when disabled).
pub fn distinct_observe(name: &str, key: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.distincts
            .entry(name.to_owned())
            .or_insert_with(DistinctCounter::new)
            .observe(key);
    });
}

/// Point-in-time copy of every counter, gauge, sketch and distinct count.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic capture timestamp: nanoseconds since the process trace
    /// epoch. Strictly increasing across successive snapshots, so two dumps
    /// from a long-running server can be ordered and rate-diffed.
    pub captured_at_ns: u64,
    /// Nanoseconds since the metrics baseline — the last [`crate::reset`]
    /// (process trace epoch if never reset). The CLI resets at startup, so
    /// for a served process this is its uptime.
    pub uptime_ns: u64,
    /// Events dropped (oldest-first) because the bounded event sink was at
    /// capacity — nonzero means `--events-out` artifacts have a hole.
    pub events_dropped: u64,
    /// Counter name → accumulated value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last set value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Quantile sketches, sorted by name.
    pub sketches: Vec<SketchSnapshot>,
    /// Distinct-count estimates, sorted by name.
    pub distincts: Vec<DistinctSnapshot>,
}

/// Baseline for [`MetricsSnapshot::uptime_ns`]: stamped by `clear_metrics`.
static BASELINE_NS: AtomicU64 = AtomicU64::new(0);

/// Copies the current metrics state without clearing it.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let captured_at_ns = crate::span::now_ns();
    let registry = registry().lock().unwrap_or_else(PoisonError::into_inner);
    MetricsSnapshot {
        captured_at_ns,
        uptime_ns: captured_at_ns.saturating_sub(BASELINE_NS.load(Ordering::Relaxed)),
        events_dropped: crate::events::events_dropped(),
        counters: registry
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        gauges: registry
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        sketches: registry
            .sketches
            .iter()
            .map(|(name, s)| s.snapshot(name))
            .collect(),
        distincts: registry
            .distincts
            .iter()
            .map(|(name, d)| DistinctSnapshot {
                name: name.clone(),
                estimate: d.estimate(),
            })
            .collect(),
    }
}

pub(crate) fn clear_metrics() {
    BASELINE_NS.store(crate::span::now_ns(), Ordering::Relaxed);
    with_registry(|r| {
        r.counters.clear();
        r.gauges.clear();
        r.sketches.clear();
        r.distincts.clear();
    });
}
