//! GraphSAGE with neighborhood sampling — the paper's §VI-E scenario:
//! "through sampling, we can support GraphSAGE with GCN aggregation", and a
//! single GRANII call can be reused across sampled subgraphs because random
//! samples of the same fanout barely shift the decision inputs.
//!
//! Run with `cargo run --release --example sampled_sage`.

use granii::core::execplan::{ExecPlan, PlanInputs};
use granii::core::{Granii, GraniiOptions};
use granii::gnn::spec::{LayerConfig, ModelKind};
use granii::gnn::{Exec, GraphCtx};
use granii::graph::{generators, sampling};
use granii::matrix::device::{DeviceKind, Engine};
use granii::matrix::DenseMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A social graph with heavy hubs; sampling caps neighborhoods at a fanout.
    let graph = generators::power_law(5_000, 20, 1)?;
    println!(
        "full graph: {} nodes / {} edges (max degree {})",
        graph.num_nodes(),
        graph.num_edges(),
        graph.row_stats().max
    );

    let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())?;
    let full_decision = granii.select(ModelKind::Sage, &graph, 64, 32)?;
    println!(
        "decision on the full graph: {}",
        full_decision.composition_name()
    );

    // One decision, many samples: check stability across 8 random samples per
    // fanout, then run the layer on one of them with real kernels.
    for fanout in [25usize, 10, 5] {
        let mut agree = 0;
        for seed in 0..8 {
            let sampled = sampling::sample_neighbors(&graph, fanout, seed)?;
            let sel = granii.select(ModelKind::Sage, &sampled, 64, 32)?;
            if sel.composition == full_decision.composition {
                agree += 1;
            }
        }
        println!("fanout {fanout:3}: decision matches the full graph on {agree}/8 samples");
    }

    let sampled = sampling::sample_neighbors(&graph, 10, 123)?;
    let ctx = GraphCtx::new(&sampled)?;
    let cfg = LayerConfig::new(64, 32);
    let plan = granii.compiled(ModelKind::Sage, cfg)?;
    let program = &plan.candidate(full_decision.composition)?.program;
    let h = DenseMatrix::random(sampled.num_nodes(), 64, 1.0, 2);
    let inputs = PlanInputs::for_model(ModelKind::Sage, cfg, &ctx, h, 9);
    let engine = Engine::cpu_measured();
    let exec = Exec::real(&engine);
    let mut bound = ExecPlan::build(program)?.bind(&exec, &inputs.as_program_inputs())?;
    let out = bound.iterate(&exec)?;
    println!(
        "SAGE forward on the sampled graph: output {}x{}, {:.1} ms measured",
        out.rows(),
        out.cols(),
        engine.elapsed_seconds() * 1e3
    );
    Ok(())
}
