//! Criterion entry point for Table V: per-layer selection and execution of a
//! multi-layer model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use granii_bench::runner::bind_composition;
use granii_core::execplan::PlanInputs;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::DenseMatrix;

fn bench_table5(c: &mut Criterion) {
    let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast()).unwrap();
    let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
    let ctx = GraphCtx::new(&graph).unwrap();

    let mut group = c.benchmark_group("table5");
    group.sample_size(10);
    for layers in [1usize, 2, 4] {
        let dims: Vec<usize> = std::iter::repeat_n(64usize, layers + 1).collect();
        let selections = granii
            .select_model(ModelKind::Gcn, &graph, &dims, 100)
            .unwrap();
        let comps: Vec<_> = selections.iter().map(|s| s.composition).collect();
        println!(
            "table5[{layers} layers] selections: {:?}",
            comps.iter().map(|c| c.name()).collect::<Vec<_>>()
        );
        let plan = granii
            .compiled(ModelKind::Gcn, LayerConfig::new(64, 64))
            .unwrap();
        let h = DenseMatrix::random(graph.num_nodes(), 64, 1.0, 1);
        // One parameter set per layer, seeded like a stacked model's.
        let inputs: Vec<_> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let cfg = LayerConfig::new(w[0], w[1]);
                PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h.clone(), 7 + i as u64)
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("forward", layers), &layers, |b, _| {
            b.iter(|| {
                let engine = Engine::modeled(DeviceKind::H100);
                let exec = Exec::virtual_only(&engine);
                for (inputs, &comp) in inputs.iter().zip(&comps) {
                    let mut bound = bind_composition(&exec, &plan, comp, inputs).unwrap();
                    bound.iterate(&exec).unwrap();
                }
                engine.elapsed_seconds()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table5);
criterion_main!(benches);
