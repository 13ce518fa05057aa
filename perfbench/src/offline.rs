//! `offline-large`: a batch of jobs on Small-scale graphs, one at a time.
//!
//! The job set is a fixed balanced design: every model runs once at every
//! width, and the graph family rotates with the width, so each family also
//! appears once per width. The seed draws the graphs (the generator seeds
//! of the RD, OP and AU families; MC and BL are deterministic
//! constructions), the features, weights and targets, and the job order.

use std::sync::Arc;

use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::SETUP_REPEATS;
use crate::direct::{self, Budget, Input};
use crate::layers::{KernelAgg, Tracer};
use crate::report::Metrics;
use crate::setup::{self, Setup};
use crate::stats::median;
use crate::RunResult;

/// Widths `k_in -> k_out`; the last is the K1 < K2 case.
const WIDTHS: [(usize, usize); 3] = [(32, 32), (256, 64), (64, 256)];

/// Graph families at the `Dataset::load(Scale::Small)` sizes.
const FAMILIES: [&str; 5] = ["RD", "MC", "BL", "OP", "AU"];

fn family_graph(family: &str, seed: u64) -> Result<Graph, String> {
    let g = match family {
        "RD" => generators::power_law(16_384, 60, seed),
        "MC" => generators::mycielskian(13),
        "BL" => generators::grid_2d(200, 160),
        "OP" => generators::power_law(40_000, 25, seed),
        "AU" => generators::community(800, 25, 0.30, 4, seed),
        other => unreachable!("unknown family {other}"),
    };
    g.map_err(|e| format!("generating {family}: {e}"))
}

/// Mixes the run seed with a small salt into an independent stream seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let models = ModelKind::EVAL;

    eprintln!("generating graphs...");
    let graphs: Vec<Arc<Graph>> = FAMILIES
        .iter()
        .enumerate()
        .map(|(i, f)| family_graph(f, mix(seed, i as u64)).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let mut jobs: Vec<Input> = Vec::new();
    for (wi, &(k_in, k_out)) in WIDTHS.iter().enumerate() {
        for (mi, &model) in models.iter().enumerate() {
            let fi = (mi + 2 * wi) % FAMILIES.len();
            jobs.push(Input {
                label: format!("{model}/{}/{k_in}x{k_out}", FAMILIES[fi]),
                model,
                cfg: LayerConfig::new(k_in, k_out),
                graph: graphs[fi].clone(),
                seed: mix(seed, 100 + jobs.len() as u64),
            });
        }
    }
    jobs.shuffle(&mut StdRng::seed_from_u64(mix(seed, 99)));

    // Half of the time share goes to steady iterates, half to training.
    let share = seconds / jobs.len() as f64 / 2.0;
    let budget = Budget {
        iterate_s: share,
        min_iterates: 5,
        steps_s: share,
        min_steps: 1,
    };
    let mut kernels = KernelAgg::default();
    let mut outcomes = Vec::new();
    let mut failed = 0;
    // Set-ups are spread over the run, one before every few jobs; each
    // later job runs on the latest instance.
    let mut setup = Setup::default();
    let every = jobs.len().div_ceil(SETUP_REPEATS);
    let mut granii = None;
    for (id, job) in jobs.iter().enumerate() {
        if id % every == 0 {
            granii = Some(setup.time(|| setup::granii(&models))?);
        }
        let granii = granii.as_ref().expect("set up before the first job");
        match direct::run(
            granii,
            job,
            budget,
            true,
            traced,
            id as u64,
            tracer,
            Some(&mut kernels),
        ) {
            Ok(o) => {
                eprintln!(
                    "  {:<20} {:<32} first {:8.2} ms  iterate {:8.2} ms x{:<4} step {:8.2} ms x{}",
                    job.label,
                    o.composition,
                    o.first_result_s[0] * 1e3,
                    median(&o.iterate_s) * 1e3,
                    o.iterate_s.len(),
                    median(&o.steps_s) * 1e3,
                    o.steps_s.len()
                );
                outcomes.push(o);
            }
            Err(e) => {
                eprintln!("FAILED {e}");
                failed += 1;
            }
        }
    }
    eprintln!("{}", setup.summary());
    let checked: u64 = outcomes.iter().map(|o| o.checked).sum();
    failed += outcomes.iter().map(|o| o.failed).sum::<u64>();
    let attempted = checked + (jobs.len() - outcomes.len()) as u64;

    let mut metrics = Metrics::default();
    let mut addup_ok = true;
    if traced {
        setup.push_layers(&mut metrics);
        let worst = direct::push_layers(&outcomes, &mut metrics);
        addup_ok = worst <= crate::config::ITERATE_SUM_TOL;
        eprintln!(
            "layers add up: worst per-job |iterate - instructions| / iterate = {worst:.4} (tolerance {})",
            crate::config::ITERATE_SUM_TOL
        );
        kernels.push_metrics(&mut metrics);
        crate::push_absent_serve_layers(&mut metrics);
        metrics.push("check.iterate_sum_rel.max", worst, "ratio");
        metrics.push(
            "trace.overhead_pct",
            direct::iterate_overhead_pct(&outcomes),
            "%",
        );
    } else {
        metrics.push("setup_s", setup.setup_s(), "s");
        direct::push_end_to_end(&outcomes, &mut metrics);
        metrics.push("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    }
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        checked,
        addup_ok,
        extra: Metrics::default(),
    })
}
