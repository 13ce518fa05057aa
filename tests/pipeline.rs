//! Cross-crate integration tests: the full GRANII pipeline from model spec to
//! executed kernels, checked against reference executions.

use granii::core::execplan::{ExecPlan, PlanInputs};
use granii::core::plan::CompiledModel;
use granii::core::{Granii, GraniiOptions};
use granii::gnn::spec::{Composition, LayerConfig, ModelKind};
use granii::gnn::system::System;
use granii::gnn::train::Trainer;
use granii::gnn::{Exec, GraphCtx};
use granii::graph::datasets::{Dataset, Scale};
use granii::matrix::device::{DeviceKind, Engine};
use granii::matrix::DenseMatrix;
use granii_bench::runner::{baseline_iterate, bind_composition};

fn trained(device: DeviceKind) -> Granii {
    Granii::train_for_device(device, GraniiOptions::fast()).expect("offline stage")
}

/// The end-to-end guarantee: whatever composition GRANII selects, executing
/// it produces the same output as the baseline system's default composition
/// (same parameters), for every model, on a real-kernel run.
#[test]
fn selected_composition_matches_baseline_output() {
    let granii = trained(DeviceKind::H100);
    let graph = Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap();
    let ctx = GraphCtx::new(&graph).unwrap();
    let engine = Engine::modeled(DeviceKind::H100);
    let exec = Exec::real(&engine);
    let cfg = LayerConfig::new(12, 6);
    let h = DenseMatrix::random(graph.num_nodes(), 12, 1.0, 3);

    for kind in ModelKind::EVAL {
        let selection = granii.select(kind, &graph, cfg.k_in, cfg.k_out).unwrap();
        let plan = granii.compiled(kind, cfg).unwrap();
        let inputs = PlanInputs::for_model(kind, cfg, &ctx, h.clone(), 42);
        let run = |comp: Composition| {
            let program = &plan.candidate(comp).unwrap().program;
            let mut bound = ExecPlan::build(program)
                .unwrap()
                .bind(&exec, &inputs.as_program_inputs())
                .unwrap();
            bound.iterate(&exec).unwrap().clone()
        };
        let ours = run(selection.composition);
        let reference = run(System::Dgl.default_composition(kind, cfg));

        let diff = ours.max_abs_diff(&reference).unwrap();
        assert!(diff < 1e-3, "{kind}: GRANII output diverges by {diff}");
    }
}

/// Training with the selected composition converges, and its per-step charge
/// is no worse than the worst composition's.
#[test]
fn training_with_selected_composition_converges() {
    let granii = trained(DeviceKind::A100);
    let graph = Dataset::ComAmazon.load(Scale::Tiny).unwrap();
    let ctx = GraphCtx::new(&graph).unwrap();
    let engine = Engine::modeled(DeviceKind::A100);
    let exec = Exec::real(&engine);
    let h = DenseMatrix::random(graph.num_nodes(), 8, 1.0, 4);
    let y = DenseMatrix::random(graph.num_nodes(), 4, 1.0, 5);

    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        let sel = granii.select(kind, &graph, 8, 4).unwrap();
        let mut trainer = Trainer::new(kind, LayerConfig::new(8, 4), 6, 0.05).unwrap();
        let first = trainer.step(&exec, &ctx, &h, &y, sel.composition).unwrap();
        let mut last = first;
        for _ in 0..10 {
            last = trainer.step(&exec, &ctx, &h, &y, sel.composition).unwrap();
        }
        assert!(last < first, "{kind}: loss {first} -> {last}");
    }
}

/// The offline stage's §VI-B counts and the plan's scenario split reproduce
/// exactly through the whole stack.
#[test]
fn offline_stage_counts_match_paper() {
    let gcn = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 256)).unwrap();
    assert_eq!(
        (gcn.enumerated, gcn.pruned, gcn.candidates.len()),
        (12, 8, 4)
    );
    let gat = CompiledModel::compile(ModelKind::Gat, LayerConfig::new(32, 256)).unwrap();
    assert_eq!(
        (gat.enumerated, gat.pruned, gat.candidates.len()),
        (2, 0, 2)
    );
}

/// Input sensitivity across the dataset suite: the GCN decision differs
/// between the densest and sparsest stand-ins at large widths.
#[test]
fn decisions_are_input_sensitive_across_datasets() {
    let granii = trained(DeviceKind::H100);
    let dense = Dataset::Mycielskian17.load(Scale::Small).unwrap();
    let sparse = Dataset::BelgiumOsm.load(Scale::Small).unwrap();
    let a = granii.select(ModelKind::Gcn, &dense, 1024, 1024).unwrap();
    let b = granii.select(ModelKind::Gcn, &sparse, 1024, 1024).unwrap();
    assert_ne!(a.composition, b.composition, "dense {a:?} vs sparse {b:?}");
}

/// Baseline emulation sanity: WiseGraph's binning makes its GCN iteration
/// slower than DGL's on dense graphs for the same modeled device.
#[test]
fn wisegraph_binning_is_visible_in_baselines() {
    let graph = Dataset::Mycielskian17.load(Scale::Tiny).unwrap();
    let ctx = GraphCtx::new(&graph).unwrap();
    let cfg = LayerConfig::new(32, 32);
    let h = DenseMatrix::zeros(graph.num_nodes(), 32).unwrap();

    let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
    let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h, 1);
    let time_for = |system: System| {
        let engine = Engine::modeled(DeviceKind::A100);
        let exec = Exec::virtual_only(&engine);
        let comp = system.default_composition(ModelKind::Gcn, cfg);
        let mut bound = bind_composition(&exec, &plan, comp, &inputs).unwrap();
        engine.take_profile();
        baseline_iterate(system, ModelKind::Gcn, &exec, &ctx, &mut bound).unwrap();
        engine.take_profile().total_seconds()
    };
    assert!(time_for(System::WiseGraph) > 1.5 * time_for(System::Dgl));
}

/// Cost models persist and reload across a (simulated) process boundary —
/// the offline/online decoupling of Fig 5.
#[test]
fn offline_artifacts_round_trip() {
    let granii = trained(DeviceKind::Cpu);
    let json = granii.cost_models().to_json().unwrap();
    let reloaded = granii::core::cost::CostModelSet::from_json(&json).unwrap();
    let online = Granii::with_cost_models(reloaded);
    let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
    for kind in ModelKind::EVAL {
        let a = granii.select(kind, &graph, 64, 128).unwrap();
        let b = online.select(kind, &graph, 64, 128).unwrap();
        assert_eq!(a.composition, b.composition, "{kind}");
    }
}

/// GAT decisions follow the paper's §III-B analysis end to end: shrinking
/// sizes always reuse; the growing case is resolved by the cost models.
#[test]
fn gat_selection_follows_paper_analysis() {
    let granii = trained(DeviceKind::H100);
    let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
    let shrink = granii.select(ModelKind::Gat, &graph, 256, 32).unwrap();
    assert!(!shrink.used_cost_models);
    assert_eq!(shrink.composition.name(), "gat/reuse");
    let grow = granii.select(ModelKind::Gat, &graph, 32, 256).unwrap();
    assert!(grow.used_cost_models);
    assert!(matches!(grow.composition, Composition::Gat(_)));
}
