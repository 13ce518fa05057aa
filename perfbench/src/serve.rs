//! `serve-hot` and `serve-cold`: open-loop traffic against `granii-serve`.
//!
//! - `serve-hot`: zipf(1) over the 12 repeated Tiny-graph signatures of
//!   `serve_bench`, all bound during set-up, so every request hits the plan
//!   cache.
//! - `serve-cold`: every request carries a distinct seeded Tiny-scale graph
//!   the server has never seen (each phase starts a fresh server), so every
//!   request runs featurize → select → build → bind → iterate.
//!
//! A run spends `NOMINAL_SHARE` of its seconds at the nominal rate
//! (`serve_ms`, `p50_ms`, `p99_ms`) and the rest bisecting the goodput
//! ladder, in slices interleaved with the set-ups and the direct inputs.
//! Every reply is compared bitwise with a serial, single-worker,
//! `max_batch = 1` reference server fed the same requests.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use granii_core::Granii;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::generators;
use granii_serve::{ServeConfig, ServeRequest, Server};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::{
    ServeSpec, ITERATE_SUM_TOL, LADDER_FAILED_LIMIT, LADDER_HIGH, LADDER_LOW, NOMINAL_SHARE,
    RUNGS_PER_OCTAVE, SETUP_REPEATS, STAGE_SUM_MAX_OUTSIDE, STAGE_SUM_TOL_MS, STAGE_SUM_TOL_REL,
};
use crate::direct::{self, Budget, Input};
use crate::layers::{KernelAgg, Tracer};
use crate::load::{self, Arrival, Phase};
use crate::offline::mix;
use crate::report::Metrics;
use crate::setup::{self, Setup};
use crate::stats::{mean, median, quantile};
use crate::RunResult;

const MODELS: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gin, ModelKind::Sgc];
const WIDTHS: [(usize, usize); 2] = [(64, 128), (128, 64)];

/// Seconds of unmeasured traffic before the first slice's.
const WARMUP_S: f64 = 1.0;

/// Timed loops of one drive of a direct input.
const DIRECT_BUDGET: Budget = Budget {
    iterate_s: 0.02,
    min_iterates: 5,
    steps_s: 0.012,
    min_steps: 2,
};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// The serve configuration under test: `workers` = nproc, the rest default.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: crate::nproc(),
        ..ServeConfig::default()
    }
}

/// The 12 signatures of `serve_bench`: {AU, MC} Tiny × {gcn, gin, sgc} ×
/// {64→128, 128→64}.
fn hot_requests() -> Result<Vec<ServeRequest>, String> {
    let mut out = Vec::new();
    for dataset in [Dataset::CoAuthorsCiteseer, Dataset::Mycielskian17] {
        let graph = Arc::new(dataset.load(Scale::Tiny).map_err(|e| e.to_string())?);
        for model in MODELS {
            for (k1, k2) in WIDTHS {
                out.push(ServeRequest::new(model, graph.clone(), k1, k2));
            }
        }
    }
    Ok(out)
}

/// Tiny-scale families with a seeded generator (RD, OP, AU, CA).
const COLD_FAMILIES: usize = 4;

/// Every (family, model, widths) combination of serve-cold.
pub const COLD_COMBOS: usize = COLD_FAMILIES * MODELS.len() * WIDTHS.len();

/// `count` distinct seeded Tiny-scale graphs, cycling through every
/// (family, model, widths) combination so each seed offers the same mix.
/// The order is shuffled within each block of `COLD_COMBOS` requests, so
/// every stretch of the traffic (each slice's share) offers every
/// combination about equally often. Returns the requests and, per
/// combination, the index of one request (the direct inputs).
fn cold_requests(count: usize, seed: u64) -> Result<(Vec<ServeRequest>, Vec<usize>), String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 7));
    let mut seen = HashSet::new();
    let mut combos = Vec::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let combo = out.len() % COLD_COMBOS;
        let s: u64 = rng.gen();
        let graph = match combo % COLD_FAMILIES {
            0 => generators::power_law(512, 16, s),
            1 => generators::power_law(1024, 12, s),
            2 => generators::community(25, 12, 0.35, 2, s),
            _ => generators::community(16, 20, 0.30, 2, s),
        }
        .map_err(|e| e.to_string())?;
        if !seen.insert(graph.fingerprint()) {
            continue;
        }
        let model = MODELS[combo / COLD_FAMILIES % MODELS.len()];
        let (k1, k2) = WIDTHS[combo / (COLD_FAMILIES * MODELS.len())];
        combos.push(combo);
        out.push(ServeRequest::new(model, Arc::new(graph), k1, k2));
    }
    let mut order: Vec<usize> = (0..count).collect();
    for block in order.chunks_mut(COLD_COMBOS) {
        block.shuffle(&mut rng);
    }
    let requests = order.iter().map(|&i| out[i].clone()).collect();
    let mut first = vec![usize::MAX; COLD_COMBOS];
    for (pos, &i) in order.iter().enumerate() {
        if first[combos[i]] == usize::MAX {
            first[combos[i]] = pos;
        }
    }
    Ok((requests, first))
}

/// Serial single-worker `max_batch = 1` outputs of `requests`, by index.
fn reference_hashes(
    granii: &Arc<Granii>,
    requests: &[ServeRequest],
    used: impl Iterator<Item = usize>,
) -> Result<BTreeMap<usize, u64>, String> {
    let server = Server::start(
        granii.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let mut out = BTreeMap::new();
    for i in used {
        if out.contains_key(&i) {
            continue;
        }
        let response = server
            .process(requests[i].clone())
            .map_err(|e| format!("reference request {i}: {e}"))?;
        out.insert(i, crate::stats::output_hash(&response.output));
    }
    server.shutdown();
    Ok(out)
}

/// Ladder rate of rung `k`.
fn rung_rate(nominal: f64, k: i32) -> f64 {
    nominal * 2f64.powf(k as f64 / RUNGS_PER_OCTAVE as f64)
}

/// Arrivals of one phase: zipf(1) over the hot signatures, or the cold
/// requests from `offset` on, each once.
fn schedule(
    kind: Kind,
    requests: usize,
    rate: f64,
    seconds: f64,
    seed: u64,
    offset: usize,
) -> Vec<Arrival> {
    match kind {
        Kind::Hot => load::poisson(rate, seconds, seed, load::zipf(requests, 1.0)),
        Kind::Cold => load::poisson(rate, seconds, seed, move |_, k| {
            (offset + k < requests).then_some(offset + k)
        }),
    }
}

/// Runs a phase that is not part of the nominal traffic: on `server` for
/// serve-hot, on a fresh server for serve-cold (whose requests must be new
/// to the server).
fn run_on(
    kind: Kind,
    server: &Server,
    granii: &Arc<Granii>,
    requests: &[ServeRequest],
    arrivals: &[Arrival],
    tracer: Option<(&mut Tracer, u64)>,
) -> Phase {
    match kind {
        Kind::Hot => load::run_phase(server, requests, arrivals, tracer),
        Kind::Cold => {
            let fresh = Server::start(granii.clone(), serve_config());
            let p = load::run_phase(&fresh, requests, arrivals, tracer);
            fresh.shutdown();
            p
        }
    }
}

/// Drives every direct input once, pooling each drive into `outcomes`;
/// returns the number of inputs that failed. Each slice drives its inputs
/// twice, before and after its traffic, so an input's best drive is picked
/// from ten moments of the run.
fn direct_round(
    granii: &Granii,
    inputs: &[Input],
    round: usize,
    traced: bool,
    tracer: &mut Tracer,
    outcomes: &mut [Option<direct::Outcome>],
) -> u64 {
    let mut failed = 0;
    for (n, input) in inputs.iter().enumerate() {
        let id = 1_000_000 * (round as u64 + 1) + n as u64;
        match direct::run(
            granii,
            input,
            DIRECT_BUDGET,
            round == 0,
            traced,
            id,
            tracer,
            None,
        ) {
            Ok(o) => match &mut outcomes[n] {
                Some(acc) => acc.merge(o),
                slot => *slot = Some(o),
            },
            Err(e) => {
                eprintln!("FAILED {e}");
                failed += 1;
            }
        }
    }
    failed
}

/// Whether a phase meets the ladder's conditions.
fn passes(spec: &ServeSpec, phase: &Phase) -> bool {
    phase.latency_quantile_ms(0.99) <= spec.p99_limit_ms
        && phase.failed_ratio() <= LADDER_FAILED_LIMIT
        && !phase.backlog_grew(serve_config().max_batch as f64)
}

pub fn run(
    kind: Kind,
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let nominal_s = seconds * NOMINAL_SHARE;
    let slice_s = nominal_s / SETUP_REPEATS as f64;
    // The ladder gets the rest of the seconds: one probe per slice.
    let probe_s = (seconds - nominal_s) / SETUP_REPEATS as f64;
    // Direct inputs: every hot signature, or one cold request per
    // combination.
    let (requests, picks) = match kind {
        Kind::Hot => {
            let r = hot_requests()?;
            let all = (0..r.len()).collect();
            (r, all)
        }
        Kind::Cold => {
            // Distinct graphs for the whole nominal time (and a probe at
            // the top rung), with headroom for the Poisson count.
            let needed = (spec.nominal_rps * nominal_s)
                .max(rung_rate(spec.nominal_rps, LADDER_HIGH) * probe_s);
            cold_requests((needed * 1.2 + 50.0) as usize, seed)?
        }
    };
    let inputs: Vec<Input> = picks
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            let r = &requests[i];
            Input {
                label: format!("{}/{}x{}#{i}", r.model, r.k1, r.k2),
                model: r.model,
                cfg: LayerConfig::new(r.k1, r.k2),
                graph: r.graph.clone(),
                seed: mix(seed, 1000 + n as u64),
            }
        })
        .collect();
    eprintln!(
        "{} requests prepared, {} direct inputs",
        requests.len(),
        inputs.len()
    );

    // The run is cut into slices, each a set-up, a round over the direct
    // inputs, a share of the nominal-rate traffic, and one ladder probe (or,
    // traced, the same traffic again with tracing on), so that every metric
    // samples the whole run rather than one stretch of host noise.
    let mut setup = Setup::default();
    let mut binds = Vec::new();
    let mut outcomes: Vec<Option<direct::Outcome>> = inputs.iter().map(|_| None).collect();
    let mut nominal = Phase::default();
    // Median server submit-to-reply time of each slice's nominal traffic.
    let mut slice_server_s = Vec::new();
    let mut traced_phase = Phase::default();
    let mut kernels = KernelAgg::default();
    let mut probes: Vec<Phase> = Vec::new();
    let mut nominal_rss_mb = 0.0;
    let (mut lo, mut hi) = (0, LADDER_HIGH + 1);
    let mut granii = None;
    let mut failed = 0u64;
    let mut cold_offset = 0;
    for slice in 0..SETUP_REPEATS {
        let (g, server) = setup.time(|| {
            let (g, train_s, compile_s) = setup::granii(&MODELS)?;
            let server = Server::start(g.clone(), serve_config());
            if kind == Kind::Hot {
                for (i, r) in requests.iter().enumerate() {
                    let response = server
                        .process(r.clone())
                        .map_err(|e| format!("binding signature {i}: {e}"))?;
                    binds.push((
                        i,
                        response.timing,
                        crate::stats::output_hash(&response.output),
                    ));
                }
            }
            Ok(((g, server), train_s, compile_s))
        })?;

        failed += direct_round(&g, &inputs, 2 * slice, traced, tracer, &mut outcomes);

        if slice == 0 {
            // Warm-up on the same server, not measured: the first traffic
            // after start-up pays for heap growth that later traffic reuses.
            // Cold warm-up requests come from the end of the pool, which the
            // nominal traffic does not reach.
            let tail = requests
                .len()
                .saturating_sub((2.0 * WARMUP_S * spec.nominal_rps) as usize);
            let arrivals = schedule(
                kind,
                requests.len(),
                spec.nominal_rps,
                WARMUP_S,
                mix(seed, 99),
                tail,
            );
            probes.push(load::run_phase(&server, &requests, &arrivals, None));
        }
        let arrivals = schedule(
            kind,
            requests.len(),
            spec.nominal_rps,
            slice_s,
            mix(seed, slice as u64),
            cold_offset,
        );
        cold_offset += arrivals.len();
        let part = load::run_phase(&server, &requests, &arrivals, None);
        let part_passes = passes(&spec, &part);
        slice_server_s.push(part.server_median_s());
        eprintln!(
            "  slice {slice}: {} offered, server median {:.3} ms, p50 {:.3} ms, p99 {:.3} ms, late p99 {:.3} ms",
            part.offered,
            1e3 * part.server_median_s(),
            part.latency_quantile_ms(0.5),
            part.latency_quantile_ms(0.99),
            1e3 * quantile(&part.lateness_s, 0.99)
        );
        nominal.absorb(part);
        if slice == 0 {
            nominal_rss_mb = crate::stats::peak_rss_mb();
        }
        if traced {
            let base = (slice as u64) << 32;
            granii_telemetry::enable();
            let part = run_on(
                kind,
                &server,
                &g,
                &requests,
                &arrivals,
                Some((&mut *tracer, base)),
            );
            granii_telemetry::disable();
            // Now, before the next direct round drains every thread's spans.
            kernels.add(&granii_telemetry::take_spans(), &part.windows_us);
            traced_phase.absorb(part);
        } else {
            // Bisect the ladder between the highest rung known to pass and
            // the lowest known to fail, one probe per slice.
            if slice == 0 && !part_passes {
                (lo, hi) = (LADDER_LOW - 1, 0);
            }
            if hi - lo > 1 {
                let k = (lo + hi) / 2;
                let rate = rung_rate(spec.nominal_rps, k);
                let seed = mix(seed, 100 + slice as u64);
                let arrivals = schedule(kind, requests.len(), rate, probe_s, seed, 0);
                let p = run_on(kind, &server, &g, &requests, &arrivals, None);
                let ok = passes(&spec, &p);
                eprintln!(
                    "  rung {k:+} {rate:7.1} req/s: p99 {:8.3} ms, failed {:.4}, backlog grew {} -> {}",
                    p.latency_quantile_ms(0.99),
                    p.failed_ratio(),
                    p.backlog_grew(serve_config().max_batch as f64),
                    if ok { "pass" } else { "fail" }
                );
                probes.push(p);
                if ok {
                    lo = k;
                } else {
                    hi = k;
                }
            }
        }
        failed += direct_round(&g, &inputs, 2 * slice + 1, traced, tracer, &mut outcomes);
        server.shutdown();
        granii = Some(g);
    }
    let granii = granii.expect("at least one slice");
    let goodput = if lo >= LADDER_LOW {
        rung_rate(spec.nominal_rps, lo)
    } else {
        0.0
    };
    eprintln!("{}", setup.summary());
    eprintln!(
        "nominal {:.0} req/s: {} offered, p50 {:.3} ms, p99 {:.3} ms, late p99 {:.3} ms, shed {}, errors {}",
        spec.nominal_rps,
        nominal.offered,
        nominal.latency_quantile_ms(0.5),
        nominal.latency_quantile_ms(0.99),
        1e3 * quantile(&nominal.lateness_s, 0.99),
        nominal.shed,
        nominal.errors
    );

    let outcomes: Vec<direct::Outcome> = outcomes.into_iter().flatten().collect();
    let mut checked: u64 = outcomes.iter().map(|o| o.checked).sum();
    failed += outcomes.iter().map(|o| o.failed).sum::<u64>();

    // Bitwise check of every reply against the serial reference.
    let all_phases: Vec<&Phase> = [&nominal, &traced_phase]
        .into_iter()
        .chain(&probes)
        .collect();
    let replies = || {
        all_phases
            .iter()
            .flat_map(|p| p.replies.iter().map(|r| (r.request, r.hash)))
            .chain(binds.iter().map(|b| (b.0, b.2)))
    };
    let reference = reference_hashes(&granii, &requests, replies().map(|(i, _)| i))?;
    let mismatches = replies()
        .filter(|(i, h)| reference.get(i) != Some(h))
        .count() as u64;
    if mismatches > 0 {
        eprintln!("MISMATCH: {mismatches} serve replies differ from the serial reference");
    }
    checked += replies().count() as u64;
    // The workload's operations: the direct checks, the set-up binds, and
    // every request offered at the nominal rate (and, traced, in the traced
    // traffic). Ladder probes are measurements of capacity: their sheds
    // above capacity are not failures, but their replies are still checked.
    let attempted = checked - replies().count() as u64
        + binds.len() as u64
        + (nominal.offered + traced_phase.offered) as u64;
    failed += mismatches + nominal.shed + nominal.errors + traced_phase.shed + traced_phase.errors;

    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut addup_ok = true;
    if traced {
        setup.push_layers(&mut metrics);
        let worst = direct::push_layers(&outcomes, &mut metrics);
        kernels.push_metrics(&mut metrics);
        let outside = push_serve_layers(&traced_phase, &binds, &mut metrics, &mut extra);
        addup_ok = worst <= ITERATE_SUM_TOL && outside <= STAGE_SUM_MAX_OUTSIDE;
        eprintln!(
            "layers add up: worst |iterate - instructions| / iterate {worst:.4} (tolerance {ITERATE_SUM_TOL}); {outside:.4} of requests outside the stage-sum tolerance (allowed {STAGE_SUM_MAX_OUTSIDE})"
        );
        metrics.push("check.iterate_sum_rel.max", worst, "ratio");
        metrics.push("check.stage_sum_outside", outside, "ratio");
        metrics.push(
            "trace.overhead_pct",
            100.0
                * (traced_phase.latency_quantile_ms(0.5) / nominal.latency_quantile_ms(0.5) - 1.0),
            "%",
        );
    } else {
        metrics.push("setup_s", setup.setup_s(), "s");
        direct::push_end_to_end(&outcomes, &mut metrics);
        // Memory at the nominal rate, read after the first slice's traffic:
        // probes above capacity pile up replies and would make the
        // high-water mark depend on the search path.
        metrics.push("peak_rss_mb", nominal_rss_mb, "MB");
        // The serving figures: measured every run, recorded and compared,
        // but on a shared host they follow the host's state too closely to
        // carry a regression bound (see README). `serve_ms` is the serve
        // path by the server's own submit-to-reply median, in the slice
        // whose nominal traffic the host slowed least.
        let serve_s = slice_server_s.iter().copied().fold(f64::INFINITY, f64::min);
        extra.push("serve_ms", 1e3 * serve_s, "ms");
        extra.push("p50_ms", nominal.latency_quantile_ms(0.5), "ms");
        extra.push("p99_ms", nominal.latency_quantile_ms(0.99), "ms");
        extra.push("latency_samples", nominal.offered as f64, "count");
        extra.push("goodput_rps", goodput, "req/s");
        eprintln!(
            "p50/p99 over {} requests at {:.0} req/s; goodput {goodput:.1} req/s",
            nominal.offered, spec.nominal_rps
        );
    }
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        checked,
        addup_ok,
        extra,
    })
}

/// Serve-layer metrics of the traced phase into `out`, and the drainer's
/// figures and the self-time tail into `times`. Returns the share of
/// requests whose stages do not add up to the measured latency within
/// tolerance.
fn push_serve_layers(
    phase: &Phase,
    binds: &[(usize, granii_serve::RequestTiming, u64)],
    out: &mut Metrics,
    times: &mut Metrics,
) -> f64 {
    let r = &phase.replies;
    let ms =
        |f: &dyn Fn(&load::Reply) -> f64| -> Vec<f64> { r.iter().map(|x| 1e3 * f(x)).collect() };
    let queue = ms(&|x| x.timing.queue_seconds);
    out.push("serve.queue_ms.p50", median(&queue), "ms");
    out.push("serve.queue_ms.p99", quantile(&queue, 0.99), "ms");
    out.push(
        "serve.execute_ms.p50",
        median(&ms(&|x| x.timing.execute_seconds)),
        "ms",
    );
    // Select time of the requests that selected: the misses (on serve-hot,
    // the set-up binds).
    let mut selects: Vec<f64> = r
        .iter()
        .filter(|x| !x.cache_hit)
        .map(|x| 1e3 * x.timing.select_seconds)
        .collect();
    if selects.is_empty() {
        selects = binds.iter().map(|b| 1e3 * b.1.select_seconds).collect();
    }
    out.push("serve.select_ms.p50", median(&selects), "ms");
    // The benchmark's own submit-to-receipt time (measured latency less
    // the generator's lateness) must be accounted for by the server's
    // queue, select and execute stages; what they leave is the serve
    // layer's self time. Part of it is the drainer's wait (receipt minus
    // the server's own submit-to-reply time: hand-off, and head-of-line
    // waits behind earlier tickets), reported on its own.
    let own = ms(&|x| x.latency_s - x.lateness_s);
    let stages =
        ms(&|x| x.timing.queue_seconds + x.timing.select_seconds + x.timing.execute_seconds);
    let hol = ms(&|x| x.hol_s);
    let residual: Vec<f64> = own.iter().zip(&stages).map(|(o, s)| o - s).collect();
    let drain = ms(&|x| x.latency_s - x.lateness_s - x.timing.total_seconds);
    out.push("serve.self_ms.p50", median(&residual), "ms");
    times.push("serve.self_ms.p99", quantile(&residual, 0.99), "ms");
    times.push("load.drain_ms.p50", median(&drain), "ms");
    times.push("load.drain_ms.p99", quantile(&drain, 0.99), "ms");
    times.push("load.hol_ms.p99", quantile(&hol, 0.99), "ms");
    // On the benchmark's clock alone, the reply arrived between
    // `own - hol` and `own` after submit: a reply that came while the
    // drainer was busy with earlier tickets was received up to `hol` late.
    // The stages must fall in that window, within the tolerance.
    let outside = (0..r.len())
        .filter(|&i| {
            let tol = STAGE_SUM_TOL_MS + STAGE_SUM_TOL_REL * own[i];
            stages[i] > own[i] + tol || stages[i] < own[i] - hol[i] - tol
        })
        .count();
    out.push(
        "serve.cache_hit_ratio",
        r.iter().filter(|x| x.cache_hit).count() as f64 / r.len().max(1) as f64,
        "ratio",
    );
    out.push(
        "serve.batch_size.mean",
        mean(&r.iter().map(|x| x.batch_size as f64).collect::<Vec<_>>()),
        "count",
    );
    out.push(
        "serve.worker_busy_ratio",
        phase.worker_busy_ratio(),
        "ratio",
    );
    out.push(
        "serve.shed_ratio",
        phase.shed as f64 / phase.offered.max(1) as f64,
        "ratio",
    );
    out.push(
        "load.late_ms.p99",
        1e3 * quantile(&phase.lateness_s, 0.99),
        "ms",
    );
    outside as f64 / r.len().max(1) as f64
}
