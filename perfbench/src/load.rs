//! Open-loop load from one process: the calling thread submits on a
//! pre-drawn Poisson schedule and one drainer thread waits for replies, so
//! the generator adds two threads to the server's workers. Each request is
//! timed from its due time, not from its submit, so a stalled generator
//! shows up as latency; how late it ran is reported on its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use granii_serve::{RequestTiming, ServeError, ServeRequest, Server, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{now_us, Tracer};
use crate::stats::{median, output_hash, quantile};

/// One scheduled arrival: when (from phase start) and which request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at: Duration,
    pub request: usize,
}

/// Poisson arrivals at `rate` per second for `seconds`; `pick` chooses the
/// request of the k-th arrival.
pub fn poisson(
    rate: f64,
    seconds: f64,
    seed: u64,
    mut pick: impl FnMut(&mut StdRng, usize) -> Option<usize>,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate;
        if at >= seconds {
            return out;
        }
        match pick(&mut rng, out.len()) {
            Some(request) => out.push(Arrival {
                at: Duration::from_secs_f64(at),
                request,
            }),
            None => return out,
        }
    }
}

/// A zipf(`skew`) pick over `n` requests: request `i` has weight `1/(i+1)^skew`.
pub fn zipf(n: usize, skew: f64) -> impl FnMut(&mut StdRng, usize) -> Option<usize> {
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(skew);
        cumulative.push(total);
    }
    move |rng, _| {
        let x: f64 = rng.gen_range(0.0..total);
        Some(cumulative.partition_point(|c| *c <= x).min(n - 1))
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub request: usize,
    /// Submit time minus due time.
    pub lateness_s: f64,
    /// Reply receipt minus due time.
    pub latency_s: f64,
    /// How long after this request's submit the drainer began waiting for
    /// its ticket. It waits for tickets in submit order, busy with earlier
    /// ones until then, so a reply that arrived before then was received
    /// late by at most this.
    pub hol_s: f64,
    pub timing: RequestTiming,
    pub cache_hit: bool,
    pub batch_size: usize,
    pub hash: u64,
}

/// What one phase of arrivals produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub offered: usize,
    pub replies: Vec<Reply>,
    pub shed: u64,
    pub errors: u64,
    /// Lateness of every arrival, shed or not.
    pub lateness_s: Vec<f64>,
    /// Outstanding requests seen by the submitter at each arrival.
    pub backlog: Vec<usize>,
    /// The phase (or each pooled phase) on the telemetry clock, in
    /// microseconds.
    pub windows_us: Vec<(u64, u64)>,
    /// Server worker busy seconds, and wall seconds × workers, over the phase.
    pub busy_s: f64,
    pub capacity_s: f64,
}

impl Phase {
    /// Pools another phase's arrivals into this one (the backlog samples
    /// stay per phase and are dropped).
    pub fn absorb(&mut self, other: Phase) {
        self.offered += other.offered;
        self.replies.extend(other.replies);
        self.shed += other.shed;
        self.errors += other.errors;
        self.lateness_s.extend(other.lateness_s);
        self.windows_us.extend(other.windows_us);
        self.busy_s += other.busy_s;
        self.capacity_s += other.capacity_s;
    }

    pub fn worker_busy_ratio(&self) -> f64 {
        if self.capacity_s > 0.0 {
            self.busy_s / self.capacity_s
        } else {
            0.0
        }
    }

    /// Median of the server's own submit-to-reply time over the replies.
    pub fn server_median_s(&self) -> f64 {
        let v: Vec<f64> = self
            .replies
            .iter()
            .map(|r| r.timing.total_seconds)
            .collect();
        median(&v)
    }

    /// (errors + sheds) / offered.
    pub fn failed_ratio(&self) -> f64 {
        (self.shed + self.errors) as f64 / self.offered.max(1) as f64
    }

    /// Latency quantile over every arrival; a shed or failed request
    /// counts as infinitely late.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.replies.iter().map(|r| r.latency_s * 1e3).collect();
        v.resize(self.offered, f64::INFINITY);
        quantile(&v, q)
    }

    /// Whether the outstanding count grew over the phase: the mean of its
    /// last third exceeds the mean of its first third by more than `slack`.
    pub fn backlog_grew(&self, slack: f64) -> bool {
        let third = self.backlog.len() / 3;
        if third == 0 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        mean(&self.backlog[self.backlog.len() - third..]) > mean(&self.backlog[..third]) + slack
    }
}

struct InFlight {
    request: usize,
    due: Instant,
    submitted: Instant,
    lateness_s: f64,
    submitted_us: u64,
    ticket: Ticket,
}

/// Submits `schedule` against `server` and drains every reply. With a
/// tracer, records a `request` span (submit → reply receipt) per request,
/// under id `id_base + arrival index`.
pub fn run_phase(
    server: &Server,
    requests: &[ServeRequest],
    schedule: &[Arrival],
    tracer: Option<(&mut Tracer, u64)>,
) -> Phase {
    let busy = |s: &Server| -> f64 { s.status().workers.iter().map(|w| w.busy_seconds).sum() };
    let before = busy(server);
    let mut phase = submit_and_drain(server, requests, schedule, tracer);
    let (start, end) = phase.windows_us[0];
    phase.busy_s = busy(server) - before;
    phase.capacity_s = (end - start) as f64 * 1e-6 * server.status().workers.len() as f64;
    phase
}

fn submit_and_drain(
    server: &Server,
    requests: &[ServeRequest],
    schedule: &[Arrival],
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Phase {
    let replied = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(u64, InFlight)>();
    let mut phase = Phase {
        offered: schedule.len(),
        ..Phase::default()
    };
    let start_us = now_us();
    let traced = tracer.is_some();
    let (replies, errors, spans) = std::thread::scope(|scope| {
        let replied = &replied;
        let drainer = scope.spawn(move || {
            let mut replies = Vec::new();
            let mut errors = 0u64;
            let mut spans = Vec::new();
            for (k, f) in rx {
                let hol_s = Instant::now()
                    .saturating_duration_since(f.submitted)
                    .as_secs_f64();
                let result = f.ticket.wait();
                let received = Instant::now();
                let received_us = now_us();
                match result {
                    Ok(response) => {
                        replies.push(Reply {
                            request: f.request,
                            lateness_s: f.lateness_s,
                            latency_s: received.duration_since(f.due).as_secs_f64(),
                            hol_s,
                            timing: response.timing,
                            cache_hit: response.cache_hit,
                            batch_size: response.batch_size,
                            hash: output_hash(&response.output),
                        });
                        if traced {
                            spans.push((k, f.submitted_us, received_us));
                        }
                    }
                    Err(e) => {
                        eprintln!("request failed: {e}");
                        errors += 1;
                    }
                }
                replied.fetch_add(1, Ordering::Relaxed);
            }
            (replies, errors, spans)
        });
        let origin = Instant::now() + Duration::from_millis(2);
        let mut submitted = 0usize;
        for (k, arrival) in schedule.iter().enumerate() {
            let due = origin + arrival.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted_us = now_us();
            let submitted_at = Instant::now();
            let lateness_s = submitted_at.saturating_duration_since(due).as_secs_f64();
            phase.lateness_s.push(lateness_s);
            phase
                .backlog
                .push(submitted.saturating_sub(replied.load(Ordering::Relaxed)));
            match server.submit(requests[arrival.request].clone()) {
                Ok(ticket) => {
                    submitted += 1;
                    let flight = InFlight {
                        request: arrival.request,
                        due,
                        submitted: submitted_at,
                        lateness_s,
                        submitted_us,
                        ticket,
                    };
                    tx.send((k as u64, flight)).expect("drainer alive");
                }
                Err(ServeError::Overloaded { .. }) => phase.shed += 1,
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    phase.errors += 1;
                }
            }
        }
        drop(tx);
        drainer.join().expect("drainer thread panicked")
    });
    phase.replies = replies;
    phase.errors += errors;
    phase.windows_us = vec![(start_us, now_us())];
    if let Some((tracer, id_base)) = tracer.as_mut() {
        for (k, start, end) in spans {
            tracer.record("request", *id_base + k, start, end);
        }
    }
    phase
}
