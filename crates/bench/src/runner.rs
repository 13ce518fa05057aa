//! Measurement core: baseline runs, per-composition ground truth, and GRANII
//! runs for one grid cell. Every inference timing binds a candidate program
//! of the model's compiled plan and charges its iterations — the program the
//! serving runtime and the steady-state engine run.

use granii_core::execplan::{BoundPlan, ExecPlan, PlanInputs};
use granii_core::plan::CompiledModel;
use granii_core::runtime::{run_steady_state, SteadyStateReport};
use granii_core::{CoreError, Granii};
use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::system::System;
use granii_gnn::train::Trainer;
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::{DeviceKind, Engine, Profile};
use granii_matrix::DenseMatrix;

use crate::grid::{EvalConfig, Mode, Record};

/// Run length of the paper's main evaluation (§VI-C: 100 iterations).
pub const ITERATIONS: usize = 100;

/// Deterministic seed for layer parameters across all runs.
const SEED: u64 = 7;

/// Builds `composition`'s candidate program of `plan` and binds it to
/// `inputs`, charging the hoisted setup once.
///
/// # Errors
///
/// Returns [`CoreError::InvalidIr`] if `composition` is not a candidate of
/// `plan`, and propagates build/bind errors.
pub fn bind_composition(
    exec: &Exec,
    plan: &CompiledModel,
    composition: Composition,
    inputs: &PlanInputs,
) -> Result<BoundPlan, CoreError> {
    ExecPlan::build(&plan.candidate(composition)?.program)?.bind(exec, &inputs.as_program_inputs())
}

/// One baseline iteration: `system`'s per-iteration normalization
/// bookkeeping (the binning/scan degree computation plus the `d^{-1/2}`
/// map), then one iteration of its default composition's bound program.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn baseline_iterate(
    system: System,
    model: ModelKind,
    exec: &Exec,
    ctx: &GraphCtx,
    bound: &mut BoundPlan,
) -> Result<(), CoreError> {
    let _span = granii_telemetry::span!(
        "baseline.iterate",
        system = system.name(),
        model = model.name(),
        nodes = ctx.num_nodes(),
    );
    granii_telemetry::counter_add("baseline.iterations", 1);
    system.charge_normalization(model, exec, ctx);
    bound.iterate(exec)?;
    Ok(())
}

/// Measures one grid cell. `graph` must be the dataset of `cfg` (the caller
/// caches loaded graphs), and `granii` must be trained for `cfg.device`.
///
/// # Errors
///
/// Propagates layer, selection, and kernel errors.
pub fn evaluate_config(
    cfg: &EvalConfig,
    graph: &Graph,
    granii: &Granii,
) -> Result<Record, CoreError> {
    assert_eq!(
        granii.device(),
        cfg.device,
        "cost models must match the device"
    );
    let _span = granii_telemetry::span!(
        "bench.evaluate_config",
        system = cfg.system.name(),
        model = cfg.model.name(),
        device = cfg.device.name(),
        k1 = cfg.k1,
        k2 = cfg.k2,
    );
    let ctx = GraphCtx::new(graph)?;
    let layer_cfg = LayerConfig::new(cfg.k1, cfg.k2);
    let plan = granii.compiled(cfg.model, layer_cfg)?;
    let engine = Engine::modeled(cfg.device);
    let exec = Exec::virtual_only(&engine);
    let h = DenseMatrix::zeros(ctx.num_nodes(), cfg.k1)?;
    let target = DenseMatrix::zeros(ctx.num_nodes(), cfg.k2)?;
    let inputs = match cfg.mode {
        Mode::Inference => Some(PlanInputs::for_model(
            cfg.model,
            layer_cfg,
            &ctx,
            h.clone(),
            SEED,
        )),
        Mode::Training => None,
    };

    // A full run of one composition. Inference binds its candidate program
    // (hoisted setup charged once) and charges one iteration, scaled to the
    // run length; training charges one tape step per iteration. A baseline
    // `system` also pays its per-iteration normalization path.
    let run_seconds = |comp: Composition, system: Option<System>| -> Result<f64, CoreError> {
        engine.take_profile();
        let setup = match &inputs {
            Some(inputs) => {
                let mut bound = bind_composition(&exec, &plan, comp, inputs)?;
                let setup = engine.take_profile().total_seconds();
                match system {
                    Some(system) => baseline_iterate(system, cfg.model, &exec, &ctx, &mut bound)?,
                    None => {
                        bound.iterate(&exec)?;
                    }
                }
                setup
            }
            None => {
                let mut trainer = Trainer::new(cfg.model, layer_cfg, SEED, 0.01)?;
                if let Some(system) = system {
                    system.charge_normalization(cfg.model, &exec, &ctx);
                }
                trainer.step(&exec, &ctx, &h, &target, comp)?;
                0.0
            }
        };
        Ok(setup + ITERATIONS as f64 * engine.take_profile().total_seconds())
    };

    let baseline_composition = cfg.system.default_composition(cfg.model, layer_cfg);
    let baseline_seconds = run_seconds(baseline_composition, Some(cfg.system))?;

    // Ground truth per composition, under GRANII's generated code (degree
    // normalization hoisted, setup charged once).
    let mut composition_seconds = Vec::new();
    for comp in Composition::all_for(cfg.model) {
        composition_seconds.push((comp, run_seconds(comp, None)?));
    }
    composition_seconds.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));

    // GRANII: one online selection, then the chosen composition.
    let selection = granii.select_with_config(cfg.model, graph, layer_cfg, ITERATIONS)?;
    let chosen_seconds = composition_seconds
        .iter()
        .find(|(c, _)| *c == selection.composition)
        .map(|(_, s)| *s)
        .expect("selected composition was timed");
    let overhead_seconds = selection.overhead_seconds();

    Ok(Record {
        config: *cfg,
        baseline_composition,
        baseline_seconds,
        composition_seconds,
        granii_composition: selection.composition,
        granii_seconds: chosen_seconds + overhead_seconds,
        overhead_seconds,
        used_cost_models: selection.used_cost_models,
    })
}

/// Runs `composition` for one grid cell through the compile-once engine and
/// reports the plan-build / bind / warm-up / steady-state phase split
/// (real-arithmetic kernels on the modeled device; wall times are host
/// times, charges follow the device model).
///
/// # Errors
///
/// Propagates compile, plan-build, and kernel errors.
pub fn steady_state_report(
    cfg: &EvalConfig,
    graph: &Graph,
    composition: Composition,
) -> Result<SteadyStateReport, CoreError> {
    let ctx = GraphCtx::new(graph)?;
    let layer_cfg = LayerConfig::new(cfg.k1, cfg.k2);
    let plan = CompiledModel::compile(cfg.model, layer_cfg)?;
    let h = DenseMatrix::random(ctx.num_nodes(), cfg.k1, 1.0, SEED);
    let inputs = PlanInputs::for_model(cfg.model, layer_cfg, &ctx, h, SEED);
    let engine = Engine::modeled(cfg.device);
    let exec = Exec::real(&engine);
    run_steady_state(&exec, &plan, composition, &inputs, ITERATIONS)
}

/// Profiles one baseline GCN iteration (DGL's default composition of the
/// GCN `plan`, plus its normalization path) and returns the sparse/dense
/// runtime split (Figure 2's breakdown).
///
/// # Errors
///
/// Returns [`CoreError::InvalidIr`] if `plan` is not GCN's, and propagates
/// bind and kernel errors.
pub fn sparse_dense_breakdown(
    plan: &CompiledModel,
    graph: &Graph,
    k1: usize,
    k2: usize,
    device: DeviceKind,
) -> Result<Profile, CoreError> {
    let ctx = GraphCtx::new(graph)?;
    let engine = Engine::modeled(device);
    let exec = Exec::virtual_only(&engine);
    let cfg = LayerConfig::new(k1, k2);
    let h = DenseMatrix::zeros(ctx.num_nodes(), k1)?;
    let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h, SEED);
    let comp = System::Dgl.default_composition(ModelKind::Gcn, cfg);
    let mut bound = bind_composition(&exec, plan, comp, &inputs)?;
    engine.take_profile();
    baseline_iterate(System::Dgl, ModelKind::Gcn, &exec, &ctx, &mut bound)?;
    Ok(engine.take_profile())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Mode;
    use granii_core::GraniiOptions;
    use granii_graph::datasets::{Dataset, Scale};

    fn granii(device: DeviceKind) -> Granii {
        Granii::train_for_device(device, GraniiOptions::fast()).unwrap()
    }

    #[test]
    fn record_is_internally_consistent() {
        let g = granii(DeviceKind::H100);
        let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let cfg = EvalConfig {
            system: System::WiseGraph,
            device: DeviceKind::H100,
            model: ModelKind::Gcn,
            dataset: Dataset::Reddit,
            k1: 64,
            k2: 64,
            mode: Mode::Inference,
        };
        let rec = evaluate_config(&cfg, &graph, &g).unwrap();
        assert_eq!(rec.composition_seconds.len(), 4);
        assert!(rec.baseline_seconds > 0.0);
        assert!(rec.granii_seconds > 0.0);
        // The chosen composition's time is among the recorded ones.
        assert!(rec.seconds_of(rec.granii_composition).is_some());
        // Optimal is at least as good as GRANII.
        assert!(rec.optimal_speedup() >= rec.speedup() * 0.999);
    }

    #[test]
    fn training_costs_more_than_inference() {
        let g = granii(DeviceKind::H100);
        let graph = Dataset::ComAmazon.load(Scale::Tiny).unwrap();
        let base = EvalConfig {
            system: System::Dgl,
            device: DeviceKind::H100,
            model: ModelKind::Gcn,
            dataset: Dataset::ComAmazon,
            k1: 32,
            k2: 32,
            mode: Mode::Inference,
        };
        let inf = evaluate_config(&base, &graph, &g).unwrap();
        let tr = evaluate_config(
            &EvalConfig {
                mode: Mode::Training,
                ..base
            },
            &graph,
            &g,
        )
        .unwrap();
        assert!(tr.baseline_seconds > inf.baseline_seconds);
        assert!(tr.granii_seconds > inf.granii_seconds);
    }

    #[test]
    fn wisegraph_dense_graph_gets_large_speedup_on_a100() {
        // The §VI-C1 headline: avoiding the binning normalization on dense
        // graphs yields large A100 speedups.
        let g = granii(DeviceKind::A100);
        let graph = Dataset::Mycielskian17.load(Scale::Tiny).unwrap();
        let cfg = EvalConfig {
            system: System::WiseGraph,
            device: DeviceKind::A100,
            model: ModelKind::Gcn,
            dataset: Dataset::Mycielskian17,
            k1: 32,
            k2: 32,
            mode: Mode::Inference,
        };
        let rec = evaluate_config(&cfg, &graph, &g).unwrap();
        assert!(rec.speedup() > 3.0, "speedup {}", rec.speedup());
    }

    #[test]
    fn steady_state_report_covers_all_compositions() {
        let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let cfg = EvalConfig {
            system: System::Dgl,
            device: DeviceKind::Cpu,
            model: ModelKind::Gcn,
            dataset: Dataset::Reddit,
            k1: 16,
            k2: 8,
            mode: Mode::Inference,
        };
        for comp in Composition::all_for(ModelKind::Gcn) {
            let report = steady_state_report(&cfg, &graph, comp).unwrap();
            assert_eq!(report.composition, comp);
            assert_eq!(report.steady_iterations, ITERATIONS - 1);
            assert!(report.setup_seconds() > 0.0, "{report:?}");
            assert!(report.steady_seconds > 0.0, "{report:?}");
        }
    }

    #[test]
    fn breakdown_has_sparse_and_dense_time() {
        let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 32)).unwrap();
        let p = sparse_dense_breakdown(&plan, &graph, 32, 32, DeviceKind::H100).unwrap();
        let f = p.sparse_fraction();
        assert!(f > 0.0 && f < 1.0, "sparse fraction {f}");
    }
}
