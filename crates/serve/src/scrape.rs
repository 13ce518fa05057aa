//! Prometheus-compatible scrape surface: `/metrics`, `/healthz`, `/readyz`.
//!
//! The serving runtime's observability was snapshot-shaped — files written
//! on demand. A real deployment wants the inverse: an operator points a
//! scraper (Prometheus, a curl in a cron job, a load balancer's readiness
//! probe) at the process and the process answers. This module is that
//! answer with **zero new dependencies**: a `std::net::TcpListener` on its
//! own thread speaking just enough HTTP/1.1 for scrapers, rendering the
//! live [`ServerStatus`] in the Prometheus text exposition format
//! (version 0.0.4) — counters, gauges, latency/batch sketch quantiles as
//! summaries, and per-tenant series labeled `tenant="<fingerprint>"` from
//! the metering ledger.
//!
//! The listener polls a nonblocking accept loop so shutdown never blocks
//! on a connection that isn't coming; per-connection reads are bounded and
//! time-limited so a slow client cannot wedge the thread. One scrape costs
//! one status assembly — nothing here touches the request hot path.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::status::{ServerStatus, ALL_OUTCOMES};

/// Scrape-listener tuning.
#[derive(Debug, Clone)]
pub struct ScrapeConfig {
    /// Whether to start the listener at all.
    pub enabled: bool,
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`crate::Server::scrape_addr`]).
    pub addr: String,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            enabled: false,
            addr: "127.0.0.1:0".to_owned(),
        }
    }
}

/// Owns the listener thread; reports the bound address and stops (joins)
/// on [`ScrapeHandle::stop`] or drop.
pub struct ScrapeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeHandle {
    /// The actually-bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ScrapeHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Starts the scrape listener. `metrics` renders the `/metrics` body on
/// each scrape; `ready` returns `Ok(())` when `/readyz` should say 200 and
/// `Err(reason)` for a 503 with the reason in the body.
///
/// # Errors
///
/// Propagates the bind error (address in use, permission).
pub fn start_scrape<M, R>(addr: &str, metrics: M, ready: R) -> std::io::Result<ScrapeHandle>
where
    M: Fn() -> String + Send + 'static,
    R: Fn() -> Result<(), String> + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("granii-scrape".to_owned())
        .spawn(move || {
            while !flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => serve_connection(stream, &metrics, &ready),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })?;
    Ok(ScrapeHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Reads one request, routes it, writes one response, closes. Any I/O
/// error just drops the connection — the scraper retries.
fn serve_connection<M, R>(mut stream: TcpStream, metrics: &M, ready: &R)
where
    M: Fn() -> String,
    R: Fn() -> Result<(), String>,
{
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let mut len = 0usize;
    // Read until the request line is complete (headers are irrelevant).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(1).any(|w| w == b"\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = match std::str::from_utf8(&buf[..len]) {
        Ok(text) => text.lines().next().unwrap_or(""),
        Err(_) => "",
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status_line, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // The Prometheus text exposition content type.
                "text/plain; version=0.0.4; charset=utf-8",
                metrics(),
            ),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
            "/readyz" => match ready() {
                Ok(()) => ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned()),
                Err(reason) => (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    format!("not ready: {reason}\n"),
                ),
            },
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_owned(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Prometheus text-exposition rendering.
// ---------------------------------------------------------------------------

fn push_value(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    // Scrapers reject NaN/inf samples from buggy exporters; emit 0 instead.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    use std::fmt::Write as _;
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (key, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{key}=\"");
            for c in val.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    push_value(out, value);
    out.push('\n');
}

/// Renders a status snapshot in the Prometheus text exposition format
/// (counters, gauges, summaries, per-tenant labeled series). Pure function
/// of the snapshot so tests can check the format strictly.
pub fn render_prometheus(status: &ServerStatus) -> String {
    let mut out = String::with_capacity(8 * 1024);

    family(
        &mut out,
        "granii_serve_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
    );
    sample(
        &mut out,
        "granii_serve_uptime_seconds",
        &[],
        status.uptime_seconds,
    );

    family(
        &mut out,
        "granii_serve_requests_total",
        "counter",
        "Requests by lifecycle state.",
    );
    for (state, value) in [
        ("submitted", status.submitted),
        ("completed", status.completed),
        ("failed", status.failed),
        ("shed", status.shed),
        ("degraded", status.degraded),
        ("deadline_expired", status.deadline_expired),
    ] {
        sample(
            &mut out,
            "granii_serve_requests_total",
            &[("state", state)],
            value as f64,
        );
    }

    family(
        &mut out,
        "granii_serve_queue_depth",
        "gauge",
        "Requests currently queued.",
    );
    sample(
        &mut out,
        "granii_serve_queue_depth",
        &[],
        status.queue_depth as f64,
    );
    family(
        &mut out,
        "granii_serve_queue_capacity",
        "gauge",
        "Configured admission queue bound.",
    );
    sample(
        &mut out,
        "granii_serve_queue_capacity",
        &[],
        status.queue_capacity as f64,
    );

    family(
        &mut out,
        "granii_serve_cache_lookups_total",
        "counter",
        "Plan-cache lookups by result.",
    );
    for (result, value) in [("hit", status.cache.hits), ("miss", status.cache.misses)] {
        sample(
            &mut out,
            "granii_serve_cache_lookups_total",
            &[("result", result)],
            value as f64,
        );
    }
    family(
        &mut out,
        "granii_serve_cache_evictions_total",
        "counter",
        "Plan-cache entries dropped by LRU pressure.",
    );
    sample(
        &mut out,
        "granii_serve_cache_evictions_total",
        &[],
        status.cache.evictions as f64,
    );
    family(
        &mut out,
        "granii_serve_cache_invalidations_total",
        "counter",
        "Plan-cache entries dropped by drift flags or model swaps.",
    );
    sample(
        &mut out,
        "granii_serve_cache_invalidations_total",
        &[],
        status.cache.invalidations as f64,
    );
    family(
        &mut out,
        "granii_serve_cache_entries",
        "gauge",
        "Bound plans currently cached.",
    );
    sample(
        &mut out,
        "granii_serve_cache_entries",
        &[],
        status.cache.len as f64,
    );

    family(
        &mut out,
        "granii_serve_distinct_signatures",
        "gauge",
        "Estimated distinct plan signatures served (HyperLogLog).",
    );
    sample(
        &mut out,
        "granii_serve_distinct_signatures",
        &[],
        status.distinct_signatures,
    );

    family(
        &mut out,
        "granii_serve_drift_flags_total",
        "counter",
        "Signature flags by drift lane.",
    );
    for (lane, value) in [
        ("cost_model", status.drift_flagged),
        ("input", status.input_drift_flagged),
    ] {
        sample(
            &mut out,
            "granii_serve_drift_flags_total",
            &[("lane", lane)],
            value as f64,
        );
    }

    family(
        &mut out,
        "granii_serve_worker_utilization",
        "gauge",
        "Busy share of uptime per worker.",
    );
    for w in &status.workers {
        let index = w.index.to_string();
        sample(
            &mut out,
            "granii_serve_worker_utilization",
            &[("worker", &index)],
            w.utilization,
        );
    }

    // Latency sketches as Prometheus summaries: quantile-labeled samples
    // plus the _sum/_count pair, one series set per outcome class. The
    // status `all` row is skipped: the `outcome` label partitions requests,
    // so summing `_count` across it must not count a request twice.
    family(
        &mut out,
        "granii_serve_latency_ms",
        "summary",
        "Request latency quantiles (milliseconds) by outcome.",
    );
    for row in status.latency.iter().filter(|r| r.outcome != ALL_OUTCOMES) {
        for (q, value) in [
            ("0.5", row.p50_ms),
            ("0.95", row.p95_ms),
            ("0.99", row.p99_ms),
            ("0.999", row.p999_ms),
        ] {
            sample(
                &mut out,
                "granii_serve_latency_ms",
                &[("outcome", &row.outcome), ("quantile", q)],
                value,
            );
        }
        sample(
            &mut out,
            "granii_serve_latency_ms_sum",
            &[("outcome", &row.outcome)],
            row.mean_ms * row.count as f64,
        );
        sample(
            &mut out,
            "granii_serve_latency_ms_count",
            &[("outcome", &row.outcome)],
            row.count as f64,
        );
    }

    family(
        &mut out,
        "granii_serve_batch_size",
        "summary",
        "Coalesced batch-group size quantiles.",
    );
    for (q, value) in [
        ("0.5", status.batching.p50_size),
        ("0.95", status.batching.p95_size),
    ] {
        sample(
            &mut out,
            "granii_serve_batch_size",
            &[("quantile", q)],
            value,
        );
    }
    sample(
        &mut out,
        "granii_serve_batch_size_sum",
        &[],
        status.batching.mean_size * status.batching.groups as f64,
    );
    sample(
        &mut out,
        "granii_serve_batch_size_count",
        &[],
        status.batching.groups as f64,
    );

    family(
        &mut out,
        "granii_serve_slo_violations_total",
        "counter",
        "Requests over their SLO threshold by outcome.",
    );
    for row in &status.slo {
        sample(
            &mut out,
            "granii_serve_slo_violations_total",
            &[("outcome", &row.outcome)],
            row.violations as f64,
        );
    }
    family(
        &mut out,
        "granii_serve_slo_burn_rate",
        "gauge",
        "Burn rate of the most recently closed SLO window by outcome.",
    );
    for row in &status.slo {
        sample(
            &mut out,
            "granii_serve_slo_burn_rate",
            &[("outcome", &row.outcome)],
            row.burn_rate,
        );
    }
    family(
        &mut out,
        "granii_serve_slo_burning",
        "gauge",
        "Whether the objective's last window was at or above the alert burn (0/1).",
    );
    for row in &status.slo {
        sample(
            &mut out,
            "granii_serve_slo_burning",
            &[("outcome", &row.outcome)],
            if row.burning { 1.0 } else { 0.0 },
        );
    }

    family(
        &mut out,
        "granii_serve_recorder_records_total",
        "counter",
        "Flight-recorder records written and dropped.",
    );
    for (state, value) in [
        ("written", status.recorder.written),
        ("dropped", status.recorder.dropped),
    ] {
        sample(
            &mut out,
            "granii_serve_recorder_records_total",
            &[("state", state)],
            value as f64,
        );
    }
    family(
        &mut out,
        "granii_serve_incidents_total",
        "counter",
        "Incident bundles captured and triggers suppressed.",
    );
    for (state, value) in [
        ("captured", status.recorder.incidents),
        ("suppressed", status.recorder.suppressed),
    ] {
        sample(
            &mut out,
            "granii_serve_incidents_total",
            &[("state", state)],
            value as f64,
        );
    }

    // Per-tenant series from the metering ledger, tenant-labeled with the
    // hex fingerprint — the "which tenant is burning the budget" answer.
    family(
        &mut out,
        "granii_serve_tenant_requests_total",
        "counter",
        "Completed requests per tenant fingerprint.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_requests_total",
            &[("tenant", &t.fingerprint)],
            t.requests as f64,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_charged_ms_total",
        "counter",
        "Engine-charged milliseconds attributed per tenant.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_charged_ms_total",
            &[("tenant", &t.fingerprint)],
            t.charged_ms,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_flops_total",
        "counter",
        "Floating-point operations attributed per tenant.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_flops_total",
            &[("tenant", &t.fingerprint)],
            t.flops,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_bytes_total",
        "counter",
        "Bytes (read + written) attributed per tenant.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_bytes_total",
            &[("tenant", &t.fingerprint)],
            t.bytes,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_sheds_total",
        "counter",
        "Requests shed before execution per tenant.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_sheds_total",
            &[("tenant", &t.fingerprint)],
            t.sheds as f64,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_slo_violations_total",
        "counter",
        "SLO-threshold violations per tenant.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_slo_violations_total",
            &[("tenant", &t.fingerprint)],
            t.slo_violations as f64,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_batch_share",
        "gauge",
        "Mean fraction of an execute occupied per request, per tenant (1 = serial).",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_batch_share",
            &[("tenant", &t.fingerprint)],
            t.mean_batch_share,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_hit_rate",
        "gauge",
        "Plan-cache hit rate per tenant.",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_hit_rate",
            &[("tenant", &t.fingerprint)],
            t.hit_rate,
        );
    }
    family(
        &mut out,
        "granii_serve_tenant_queue_wait_ms",
        "gauge",
        "Mean queue wait per completed request, per tenant (milliseconds).",
    );
    for t in &status.metering.tenants {
        sample(
            &mut out,
            "granii_serve_tenant_queue_wait_ms",
            &[("tenant", &t.fingerprint)],
            t.mean_queue_wait_ms,
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to scrape listener");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn listener_routes_metrics_health_and_readiness() {
        let ready = Arc::new(AtomicBool::new(false));
        let ready_view = Arc::clone(&ready);
        let handle = start_scrape(
            "127.0.0.1:0",
            || "# TYPE up gauge\nup 1\n".to_owned(),
            move || {
                if ready_view.load(Ordering::Relaxed) {
                    Ok(())
                } else {
                    Err("queue saturated".to_owned())
                }
            },
        )
        .expect("bind scrape listener");
        let addr = handle.addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("queue saturated"), "{body}");
        ready.store(true, Ordering::Relaxed);
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ready\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("up 1"));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        handle.stop();
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .map(|mut s| {
                        let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                        let mut buf = String::new();
                        s.set_read_timeout(Some(Duration::from_millis(200)))
                            .unwrap();
                        s.read_to_string(&mut buf).unwrap_or(0) == 0
                    })
                    .unwrap_or(true),
            "stopped listener no longer serves"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        sample(&mut out, "m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(out, "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        let mut out = String::new();
        sample(&mut out, "m", &[], f64::NAN);
        assert_eq!(out, "m 0\n");
    }
}
