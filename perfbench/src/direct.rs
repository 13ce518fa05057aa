//! One input driven straight through the library's public calls:
//! select → build → bind → first iterate (the first result), timed
//! iterates, `Trainer::step`s under the chosen composition, and the
//! checks (interpreter oracle, steady-output stability, finite losses,
//! modeled regret from `Granii::verify`) outside the timed regions.

use std::sync::Arc;
use std::time::Instant;

use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::runtime::{allocation_counter_total, DEFAULT_ITERATIONS};
use granii_core::{interp, Granii};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::train::Trainer;
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;

use crate::config::DEVICE;
use crate::layers::{now_us, KernelAgg, Tracer};
use crate::stats::{geomean, mean, median, output_hash};

/// One (model, graph, widths) input and the seed of its features,
/// weights and regression target.
#[derive(Debug, Clone)]
pub struct Input {
    pub label: String,
    pub model: ModelKind,
    pub cfg: LayerConfig,
    pub graph: Arc<Graph>,
    pub seed: u64,
}

/// How long the timed loops of one input run: each loop stops once it has
/// both its minimum count and its time share.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub iterate_s: f64,
    pub min_iterates: usize,
    pub steps_s: f64,
    pub min_steps: usize,
}

/// Traced-run extras for one input.
#[derive(Debug, Default)]
pub struct Traced {
    /// Iterates timed with telemetry and the profiler off, run just before
    /// the traced ones: the untraced side of `trace.overhead_pct`.
    pub untraced_iterate_s: Vec<f64>,
    /// Sum of the profiled `iter` instruction times over the traced iterates.
    pub instr_ns: u64,
    /// Allocation-counter delta over the traced iterates.
    pub steady_allocs: u64,
    /// Allocation-counter delta over the training steps.
    pub train_allocs: u64,
    /// Kernel time inside the step windows, in microseconds.
    pub step_kernel_us: u64,
    /// Step windows on the telemetry clock, in microseconds.
    pub step_us: u64,
}

/// What one input measured; [`Outcome::merge`] pools repeated drives of
/// the same input.
#[derive(Debug)]
pub struct Outcome {
    pub composition: String,
    /// Select + build + bind + first iterate, per drive.
    pub first_result_s: Vec<f64>,
    /// Median iterate and median step, per drive.
    pub drive_iterate_s: Vec<f64>,
    pub drive_step_s: Vec<f64>,
    pub featurize_s: Vec<f64>,
    pub cost_eval_s: Vec<f64>,
    pub used_cost_models: bool,
    pub build_s: Vec<f64>,
    pub bind_s: Vec<f64>,
    /// Steady-state iterates (the traced ones in a traced run).
    pub iterate_s: Vec<f64>,
    pub steps_s: Vec<f64>,
    /// Modeled cost of the chosen composition over the modeled oracle's.
    pub cost_vs_oracle: Option<f64>,
    pub checked: u64,
    pub failed: u64,
    pub traced: Option<Traced>,
}

impl Outcome {
    /// Pools another drive of the same input into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.first_result_s.extend(other.first_result_s);
        self.drive_iterate_s.extend(other.drive_iterate_s);
        self.drive_step_s.extend(other.drive_step_s);
        self.featurize_s.extend(other.featurize_s);
        self.cost_eval_s.extend(other.cost_eval_s);
        self.build_s.extend(other.build_s);
        self.bind_s.extend(other.bind_s);
        self.iterate_s.extend(other.iterate_s);
        self.steps_s.extend(other.steps_s);
        self.cost_vs_oracle = self.cost_vs_oracle.or(other.cost_vs_oracle);
        self.checked += other.checked;
        self.failed += other.failed;
        if let (Some(t), Some(o)) = (self.traced.as_mut(), other.traced) {
            t.untraced_iterate_s.extend(o.untraced_iterate_s);
            t.instr_ns += o.instr_ns;
            t.steady_allocs += o.steady_allocs;
            t.train_allocs += o.train_allocs;
            t.step_kernel_us += o.step_kernel_us;
            t.step_us += o.step_us;
        }
    }
}

/// Runs `body` until it has run `min` times and `seconds` have passed
/// (at most 100 000 times), returning each call's wall time.
fn timed_loop(
    min: usize,
    seconds: f64,
    mut body: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || (start.elapsed().as_secs_f64() < seconds && times.len() < 100_000) {
        let t = Instant::now();
        body()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

fn failure(label: &str, what: &str) -> impl Fn(&dyn std::fmt::Display) -> String {
    let prefix = format!("{label}: {what}");
    move |e| format!("{prefix}: {e}")
}

/// Drives one input: the first result (select, build, bind, first
/// iterate), timed iterates, then timed `Trainer::step`s under the chosen
/// composition. Outside the timed regions it checks the first output
/// against the interpreter oracle, the steady output against the first,
/// every loss for finiteness, and with `verify` measures the modeled
/// regret. `traced` switches on telemetry and the plan profiler for the
/// second half of the iterates and for the steps, records the benchmark's
/// spans under `id`, and adds the drive's `kernel.*` spans to `kernels`
/// when the caller reports them.
#[allow(clippy::too_many_arguments)]
pub fn run(
    granii: &Granii,
    input: &Input,
    budget: Budget,
    verify: bool,
    traced: bool,
    id: u64,
    tracer: &mut Tracer,
    kernels: Option<&mut KernelAgg>,
) -> Result<Outcome, String> {
    // The step windows' kernel time feeds `train.kernel_share` even when
    // the caller does not report the drive's kernel classes.
    let mut unreported = KernelAgg::default();
    let kernels = kernels.unwrap_or(&mut unreported);
    let err = |what: &str| failure(&input.label, what);
    let (model, cfg, graph) = (input.model, input.cfg, &*input.graph);
    // Input preparation, outside every timed region.
    let ctx = GraphCtx::new(graph).map_err(|e| err("graph context")(&e))?;
    let n = graph.num_nodes();
    let h = DenseMatrix::random(n, cfg.k_in, 1.0, input.seed);
    let target = DenseMatrix::random(n, cfg.k_out, 1.0, input.seed + 1);
    let inputs = PlanInputs::for_model(model, cfg, &ctx, h.clone(), input.seed + 2);
    let engine = Engine::modeled(DEVICE);
    let exec = Exec::real(&engine);

    let t_select = now_us();
    let t0 = Instant::now();
    let selection = granii
        .select_with_config(model, graph, cfg, DEFAULT_ITERATIONS)
        .map_err(|e| err("select")(&e))?;
    let t_build = now_us();
    let t1 = Instant::now();
    let plan = granii
        .compiled(model, cfg)
        .map_err(|e| err("compiled")(&e))?;
    let candidate = plan
        .candidates
        .iter()
        .find(|c| c.composition == selection.composition)
        .ok_or_else(|| format!("{}: chosen composition is not a candidate", input.label))?;
    let exec_plan = ExecPlan::build(&candidate.program).map_err(|e| err("build")(&e))?;
    let build_s = t1.elapsed().as_secs_f64();
    let t_bind = now_us();
    let t2 = Instant::now();
    let mut bound = exec_plan
        .bind(&exec, &inputs.as_program_inputs())
        .map_err(|e| err("bind")(&e))?;
    let bind_s = t2.elapsed().as_secs_f64();
    let t_first = now_us();
    bound.iterate(&exec).map_err(|e| err("iterate")(&e))?;
    let first_result_s = t0.elapsed().as_secs_f64();
    if traced {
        tracer.record("select", id, t_select, t_build);
        tracer.record("build", id, t_build, t_bind);
        tracer.record("bind", id, t_bind, t_first);
        tracer.record("first_iterate", id, t_first, now_us());
    }

    let mut failed = 0;
    let oracle_engine = Engine::modeled(DEVICE);
    let oracle = interp::execute(
        &Exec::real(&oracle_engine),
        &candidate.program,
        &inputs.as_program_inputs(),
    )
    .map_err(|e| err("interp")(&e))?;
    let first = bound.output().map_err(|e| err("output")(&e))?;
    let first_hash = output_hash(first);
    if first.shape() != oracle.shape() || first.max_abs_diff(&oracle).ok() != Some(0.0) {
        eprintln!(
            "MISMATCH {}: execplan output differs from interp",
            input.label
        );
        failed += 1;
    }
    drop(oracle);

    // Steady-state iterates; traced, the first half of the share runs with
    // telemetry and the profiler off.
    let iter_err = err("iterate");
    let mut extra = traced.then(Traced::default);
    let iterate_s = match extra.as_mut() {
        None => timed_loop(budget.min_iterates, budget.iterate_s, || {
            bound.iterate(&exec).map(|_| ()).map_err(|e| iter_err(&e))
        })?,
        Some(t) => {
            t.untraced_iterate_s = timed_loop(budget.min_iterates, budget.iterate_s / 2.0, || {
                bound.iterate(&exec).map(|_| ()).map_err(|e| iter_err(&e))
            })?;
            granii_telemetry::enable();
            bound.enable_profiling();
            let allocs = allocation_counter_total();
            let mut windows = Vec::new();
            let times = timed_loop(budget.min_iterates, budget.iterate_s / 2.0, || {
                let start = now_us();
                let r = bound.iterate(&exec).map(|_| ()).map_err(|e| iter_err(&e));
                let end = now_us();
                tracer.record("iterate", id, start, end);
                windows.push((start, end));
                r
            })?;
            t.steady_allocs = allocation_counter_total() - allocs;
            granii_telemetry::disable();
            t.instr_ns = bound
                .profile_report(&exec)
                .rows
                .iter()
                .filter(|r| r.phase == "iter")
                .map(|r| r.host_ns)
                .sum();
            bound.disable_profiling();
            kernels.add(&granii_telemetry::take_spans(), &windows);
            times
        }
    };
    let steady = bound.output().map_err(|e| err("output")(&e))?;
    if output_hash(steady) != first_hash {
        eprintln!("MISMATCH {}: steady-state output drifted", input.label);
        failed += 1;
    }
    drop(bound);
    engine.take_profile();

    // Training steps under the chosen composition.
    let step_err = err("train step");
    let mut trainer =
        Trainer::new(model, cfg, input.seed + 3, 0.01).map_err(|e| err("trainer")(&e))?;
    let mut losses = Vec::new();
    let mut windows = Vec::new();
    let allocs = allocation_counter_total();
    if traced {
        granii_telemetry::enable();
    }
    let steps_s = timed_loop(budget.min_steps, budget.steps_s, || {
        let start = now_us();
        let loss = trainer
            .step(&exec, &ctx, &h, &target, selection.composition)
            .map_err(|e| step_err(&e))?;
        if traced {
            let end = now_us();
            tracer.record("train_step", id, start, end);
            windows.push((start, end));
        }
        losses.push(loss);
        Ok(())
    })?;
    if let Some(t) = extra.as_mut() {
        t.train_allocs = allocation_counter_total() - allocs;
        granii_telemetry::disable();
        t.step_kernel_us = kernels
            .add(&granii_telemetry::take_spans(), &windows)
            .iter()
            .sum();
        t.step_us = windows.iter().map(|w| w.1 - w.0).sum();
    }
    engine.take_profile();
    let bad = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    if bad > 0 {
        eprintln!("MISMATCH {}: {bad} non-finite training losses", input.label);
    }
    failed += bad;

    // Modeled regret: deterministic, on the modeled device.
    let cost_vs_oracle = if verify {
        let report = granii
            .verify(model, graph, cfg, DEFAULT_ITERATIONS)
            .map_err(|e| err("verify")(&e))?;
        Some(if report.oracle_seconds > 0.0 {
            report.chosen_seconds / report.oracle_seconds
        } else {
            1.0
        })
    } else {
        None
    };

    Ok(Outcome {
        composition: selection.composition_name(),
        first_result_s: vec![first_result_s],
        drive_iterate_s: vec![median(&iterate_s)],
        drive_step_s: vec![median(&steps_s)],
        featurize_s: vec![selection.featurize_seconds],
        cost_eval_s: vec![selection.select_seconds],
        used_cost_models: selection.used_cost_models,
        build_s: vec![build_s],
        bind_s: vec![bind_s],
        iterate_s,
        steps_s,
        cost_vs_oracle,
        checked: 2 + losses.len() as u64,
        failed,
        traced: extra,
    })
}

/// The end-to-end metrics every workload takes from its direct inputs:
/// `first_result_ms`, `infer_ms` and `train_step_ms`, each the geomean
/// over inputs of the input's best drive (its fastest first result, its
/// lowest per-drive median iterate and step), and
/// `modeled_cost_vs_oracle_pct` (mean over inputs). The drives of an input
/// are spread over the run, so its best drive is the one a slow stretch of
/// the shared host spared.
pub fn push_end_to_end(outcomes: &[Outcome], out: &mut crate::report::Metrics) {
    let best = |f: &dyn Fn(&Outcome) -> &[f64]| -> f64 {
        let per_input: Vec<f64> = outcomes
            .iter()
            .map(|o| f(o).iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        1e3 * geomean(&per_input)
    };
    out.push("first_result_ms", best(&|o| &o.first_result_s), "ms");
    out.push("infer_ms", best(&|o| &o.drive_iterate_s), "ms");
    out.push("train_step_ms", best(&|o| &o.drive_step_s), "ms");
    let cost: Vec<f64> = outcomes
        .iter()
        .map(|o| o.cost_vs_oracle.unwrap_or(1.0))
        .collect();
    out.push("modeled_cost_vs_oracle_pct", 100.0 * mean(&cost), "%");
}

/// Per-layer metrics of the `core` and `gnn` layers from traced direct
/// inputs. Returns the largest per-input relative gap between the profiled
/// instruction time and the benchmark-timed iterate total (the offline
/// layers-add-up check).
pub fn push_layers(outcomes: &[Outcome], out: &mut crate::report::Metrics) -> f64 {
    let ms = |v: Vec<f64>| 1e3 * median(&v);
    let featurized: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.used_cost_models)
        .map(|o| median(&o.featurize_s))
        .collect();
    out.push("select.featurize_ms", 1e3 * median(&featurized), "ms");
    out.push(
        "select.cost_eval_ms",
        ms(outcomes.iter().map(|o| median(&o.cost_eval_s)).collect()),
        "ms",
    );
    out.push(
        "select.cost_model_share",
        featurized.len() as f64 / outcomes.len().max(1) as f64,
        "ratio",
    );
    out.push(
        "execplan.build_ms",
        ms(outcomes.iter().map(|o| median(&o.build_s)).collect()),
        "ms",
    );
    out.push(
        "execplan.bind_ms",
        ms(outcomes.iter().map(|o| median(&o.bind_s)).collect()),
        "ms",
    );
    out.push(
        "execplan.iterate_ms",
        1e3 * geomean(
            &outcomes
                .iter()
                .map(|o| median(&o.iterate_s))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let traced: Vec<(&Outcome, &Traced)> = outcomes
        .iter()
        .filter_map(|o| o.traced.as_ref().map(|t| (o, t)))
        .collect();
    let dispatch: Vec<f64> = traced
        .iter()
        .map(|(o, t)| {
            let total: f64 = o.iterate_s.iter().sum();
            (total - t.instr_ns as f64 * 1e-9) / o.iterate_s.len() as f64
        })
        .collect();
    out.push("execplan.dispatch_ms", 1e3 * median(&dispatch), "ms");
    let iterates: usize = traced.iter().map(|(o, _)| o.iterate_s.len()).sum();
    let steady_allocs: u64 = traced.iter().map(|(_, t)| t.steady_allocs).sum();
    out.push(
        "execplan.steady_allocs",
        steady_allocs as f64 / iterates.max(1) as f64,
        "count",
    );
    let (kernel_us, step_us) = traced.iter().fold((0, 0), |(k, s), (_, t)| {
        (k + t.step_kernel_us, s + t.step_us)
    });
    out.push(
        "train.kernel_share",
        kernel_us as f64 / step_us.max(1) as f64,
        "ratio",
    );
    let steps: usize = traced.iter().map(|(o, _)| o.steps_s.len()).sum();
    let train_allocs: u64 = traced.iter().map(|(_, t)| t.train_allocs).sum();
    out.push(
        "train.allocs_per_step",
        train_allocs as f64 / steps.max(1) as f64,
        "count",
    );
    traced
        .iter()
        .map(|(o, t)| {
            let total: f64 = o.iterate_s.iter().sum();
            (total - t.instr_ns as f64 * 1e-9).abs() / total
        })
        .fold(0.0, f64::max)
}

/// `trace.overhead_pct` of direct inputs: geomean over inputs of the traced
/// over the untraced median iterate, as a percentage above 1.
pub fn iterate_overhead_pct(outcomes: &[Outcome]) -> f64 {
    let ratios: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| {
            let t = o.traced.as_ref()?;
            Some(median(&o.iterate_s) / median(&t.untraced_iterate_s))
        })
        .collect();
    100.0 * (geomean(&ratios) - 1.0)
}
