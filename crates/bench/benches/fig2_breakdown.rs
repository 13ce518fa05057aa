//! Criterion entry point for Figure 2: sparse/dense runtime split across
//! graphs, configurations, and hardware.

use criterion::{criterion_group, criterion_main, Criterion};
use granii_bench::runner::sparse_dense_breakdown;
use granii_core::plan::CompiledModel;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;

fn bench_fig2(c: &mut Criterion) {
    let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 32)).unwrap();
    for dataset in [Dataset::Reddit, Dataset::BelgiumOsm] {
        let graph = dataset.load(Scale::Tiny).unwrap();
        for device in DeviceKind::ALL {
            let p = sparse_dense_breakdown(&plan, &graph, 32, 32, device).unwrap();
            println!(
                "fig2[{dataset}/{device}] sparse = {:.0}%",
                p.sparse_fraction() * 100.0
            );
        }
    }
    let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
    let mut group = c.benchmark_group("fig2");
    group.sample_size(20);
    group.bench_function("breakdown_profile", |b| {
        b.iter(|| sparse_dense_breakdown(&plan, &graph, 32, 32, DeviceKind::H100).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
