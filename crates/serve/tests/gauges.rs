//! Gauge-freshness acceptance: the `serve.queue_depth` gauge must read 0
//! after a graceful shutdown drains the queue, the shed path must refresh the
//! gauges it would otherwise leave stale, and the outcome-split latency
//! sketches must partition completed requests exactly.
//!
//! Single `#[test]` binary: the telemetry metrics registry is
//! process-global, so no other test may record serve metrics concurrently.

use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeError, ServeRequest, Server};
use granii_telemetry::MetricsSnapshot;

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> Option<f64> {
    snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn sketch_count(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .sketches
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}

#[test]
fn queue_depth_gauge_drains_to_zero_and_latency_splits_partition() {
    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap());
    let request = || ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128);

    granii_telemetry::reset();
    granii_telemetry::enable();

    // Burst 8 requests at a single worker so the queue observably builds,
    // then shut down: the drain must serve every accepted request and leave
    // the gauge at its true final value — zero.
    let server = Server::start(
        granii.clone(),
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(request()).expect("queue has room"))
        .collect();
    server.shutdown();
    for ticket in tickets {
        ticket.wait().expect("drained request completes");
    }

    let snapshot = granii_telemetry::metrics_snapshot();
    assert_eq!(
        gauge(&snapshot, "serve.queue_depth"),
        Some(0.0),
        "queue-depth gauge must read 0 after the shutdown drain"
    );
    assert_eq!(
        gauge(&snapshot, "serve.cache_hit_rate").map(|v| v > 0.0),
        Some(true),
        "hit-rate gauge tracks the warmed cache"
    );

    // One signature, 8 requests: exactly 1 miss, 7 hits, 0 degraded — the
    // outcome-split sketches must partition the combined latency sketch.
    assert_eq!(sketch_count(&snapshot, "serve.latency.miss"), 1);
    assert_eq!(sketch_count(&snapshot, "serve.latency.hit"), 7);
    assert_eq!(sketch_count(&snapshot, "serve.latency.degraded"), 0);
    assert_eq!(sketch_count(&snapshot, "serve.request_latency"), 8);

    // Shed path: a zero-depth queue sheds every submit, and the shed branch
    // must still refresh both gauges rather than leave the last drain values.
    let full = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    match full.submit(request()) {
        Err(ServeError::Overloaded { .. }) => {}
        other => panic!("expected Overloaded, got {other:?}", other = other.err()),
    }
    full.shutdown();
    let snapshot = granii_telemetry::metrics_snapshot();
    let shed = snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "serve.shed")
        .map(|&(_, v)| v);
    assert_eq!(shed, Some(1));
    assert_eq!(
        gauge(&snapshot, "serve.queue_depth"),
        Some(0.0),
        "shed branch reports the (full) queue's observed depth"
    );

    granii_telemetry::disable();
    granii_telemetry::reset();
}
