//! Criterion entry point for Table IV: end-to-end 2-layer forward execution
//! with real (computed) kernels on a tiny Reddit stand-in.

use criterion::{criterion_group, criterion_main, Criterion};
use granii_bench::runner::bind_composition;
use granii_core::execplan::PlanInputs;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::DenseMatrix;

fn bench_table4(c: &mut Criterion) {
    let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast()).unwrap();
    let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
    let ctx = GraphCtx::new(&graph).unwrap();
    let feats = DenseMatrix::random(graph.num_nodes(), 64, 1.0, 1);

    let dims = [(64usize, 32usize), (32, 8)];
    let mut layers = Vec::new();
    for (k1, k2) in dims {
        let cfg = LayerConfig::new(k1, k2);
        let sel = granii
            .select_with_config(ModelKind::Gcn, &graph, cfg, 1)
            .unwrap();
        layers.push((
            cfg,
            granii.compiled(ModelKind::Gcn, cfg).unwrap(),
            sel.composition,
        ));
    }

    let mut group = c.benchmark_group("table4");
    group.sample_size(10);
    group.bench_function("two_layer_forward_real", |b| {
        b.iter(|| {
            let engine = Engine::cpu_measured();
            let exec = Exec::real(&engine);
            let mut h = feats.clone();
            for (cfg, plan, comp) in &layers {
                let inputs = PlanInputs::for_model(ModelKind::Gcn, *cfg, &ctx, h, 7);
                let mut bound = bind_composition(&exec, plan, *comp, &inputs).unwrap();
                h = bound.iterate(&exec).unwrap().clone();
            }
            h
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
