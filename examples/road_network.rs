//! Traffic modeling on a road network with GCN — the sparse end of the
//! paper's graph spectrum (belgium_osm class: degree ≤ 4, huge diameter).
//!
//! On road graphs the precompute composition (Eq. 3) wins: the per-node
//! broadcast passes of dynamic normalization dominate when edges are scarce.
//! The example shows GRANII reaching that conclusion from its cost models and
//! compares the modeled latencies of every composition across devices.
//!
//! Run with `cargo run --release --example road_network`.

use granii::core::execplan::{ExecPlan, PlanInputs};
use granii::core::{Granii, GraniiOptions};
use granii::gnn::spec::{LayerConfig, ModelKind};
use granii::gnn::{Exec, GraphCtx};
use granii::graph::generators;
use granii::matrix::device::{DeviceKind, Engine};
use granii::matrix::DenseMatrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 120x100 road grid (12k intersections, degree <= 4).
    let graph = generators::grid_2d(120, 100)?;
    println!(
        "road network: {} nodes, {} directed edges, avg degree {:.1}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.avg_degree()
    );
    let ctx = GraphCtx::new(&graph)?;
    let cfg = LayerConfig::new(128, 128);
    let h = DenseMatrix::random(graph.num_nodes(), cfg.k_in, 1.0, 11);

    for device in [DeviceKind::H100, DeviceKind::A100, DeviceKind::Cpu] {
        let granii = Granii::train_for_device(device, GraniiOptions::fast())?;
        let sel = granii.select(ModelKind::Gcn, &graph, cfg.k_in, cfg.k_out)?;
        println!("\n[{device}] GRANII picks {}", sel.composition_name());

        // Modeled latency of every candidate program over a 100-iteration
        // run: its hoisted setup once, then 100 iterations.
        let engine = Engine::modeled(device);
        let exec = Exec::virtual_only(&engine);
        let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h.clone(), 2);
        for candidate in &granii.compiled(ModelKind::Gcn, cfg)?.candidates {
            let comp = candidate.composition;
            engine.take_profile();
            let mut bound =
                ExecPlan::build(&candidate.program)?.bind(&exec, &inputs.as_program_inputs())?;
            let prep = engine.take_profile().total_seconds();
            bound.iterate(&exec)?;
            let iter = engine.take_profile().total_seconds();
            let total = prep + 100.0 * iter;
            let marker = if comp == sel.composition {
                "  <- selected"
            } else {
                ""
            };
            println!("  {comp}: {:.3} ms / 100 iters{marker}", total * 1e3);
        }
    }
    Ok(())
}
