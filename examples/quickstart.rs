//! Quickstart: the paper's Fig 4 usage pattern.
//!
//! ```text
//! import GRANII
//! graph, node_feats, labels = ...
//! model = GraphConv(..)
//! GRANII(model, graph, node_feats, labels)   # <- Only change
//! res = model(graph, node_feats)
//! ```
//!
//! Run with `cargo run --release --example quickstart`.

use granii::core::execplan::{ExecPlan, PlanInputs};
use granii::core::{Granii, GraniiOptions};
use granii::gnn::spec::{LayerConfig, ModelKind};
use granii::gnn::{Exec, GraphCtx};
use granii::graph::generators;
use granii::matrix::device::{DeviceKind, Engine};
use granii::matrix::DenseMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // graph, node_feats = ...
    let graph = generators::power_law(2_000, 12, 42)?;
    let node_feats = DenseMatrix::random(graph.num_nodes(), 64, 1.0, 7);

    // GRANII(model, graph, ...) — the one-time offline stage (profiling +
    // cost-model training) followed by the online selection for this input.
    let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())?;
    let decision = granii.select(ModelKind::Gcn, &graph, 64, 32)?;
    println!("GRANII selected: {}", decision.composition_name());
    println!(
        "selection overhead: {:.2} ms (featurize {:.2} ms, cost models {:.2} ms)",
        decision.overhead_seconds() * 1e3,
        decision.featurize_seconds * 1e3,
        decision.select_seconds * 1e3,
    );
    for (comp, cost) in &decision.predicted {
        println!("  predicted {:.3} ms  {}", cost * 1e3, comp);
    }

    // res = model(graph, node_feats) — bind the selected composition's
    // compiled program to this input and run it with real kernels, measured
    // on the host CPU.
    let cfg = LayerConfig::new(64, 32);
    let plan = granii.compiled(ModelKind::Gcn, cfg)?;
    let program = &plan.candidate(decision.composition)?.program;
    let ctx = GraphCtx::new(&graph)?;
    let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, node_feats, 1);
    let engine = Engine::cpu_measured();
    let exec = Exec::real(&engine);
    let mut bound = ExecPlan::build(program)?.bind(&exec, &inputs.as_program_inputs())?;
    let out = bound.iterate(&exec)?;
    println!(
        "forward done: output {}x{}, measured {:.2} ms on the CPU",
        out.rows(),
        out.cols(),
        engine.elapsed_seconds() * 1e3
    );
    Ok(())
}
