//! Failure-injection tests: every layer of the stack must turn malformed
//! inputs into typed errors rather than panics or silent corruption.

use granii::boost::{BoostError, Dataset as BoostDataset};
use granii::core::cost::CostModelSet;
use granii::core::execplan::{ExecPlan, PlanInputs};
use granii::core::plan::CompiledModel;
use granii::core::{CoreError, Granii, GraniiOptions};
use granii::gnn::spec::{Composition, LayerConfig, ModelKind};
use granii::gnn::train::Trainer;
use granii::gnn::{Exec, GnnError, GraphCtx};
use granii::graph::{generators, io, Graph, GraphError};
use granii::matrix::device::{DeviceKind, Engine};
use granii::matrix::{CsrMatrix, DenseMatrix, MatrixError};

#[test]
fn kernel_layer_rejects_shape_mismatches() {
    let a = DenseMatrix::zeros(2, 3).unwrap();
    let b = DenseMatrix::zeros(5, 2).unwrap();
    assert!(matches!(
        granii::matrix::ops::gemm(&a, &b),
        Err(MatrixError::ShapeMismatch { op: "gemm", .. })
    ));
}

#[test]
fn oversized_allocations_are_guarded_not_aborted() {
    // The analogue of Table IV's illegal-memory-access row: a typed error.
    let err = DenseMatrix::zeros(1 << 20, 1 << 20).unwrap_err();
    assert!(matches!(err, MatrixError::AllocationTooLarge { .. }));
}

#[test]
fn invalid_csr_structures_are_rejected() {
    assert!(CsrMatrix::from_parts(2, 2, vec![0, 3, 2], vec![0, 1], None).is_err());
    assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![7], None).is_err());
}

#[test]
fn graph_layer_rejects_bad_inputs() {
    assert!(matches!(
        Graph::from_edges(3, &[(0, 9)]),
        Err(GraphError::NodeOutOfRange { node: 9, .. })
    ));
    assert!(generators::erdos_renyi(10, 100.0, 0).is_err());
    assert!(matches!(
        io::read_edge_list("1 banana\n".as_bytes()),
        Err(GraphError::Parse { line: 1, .. })
    ));
}

/// Binding a candidate program checks the features against the graph and
/// the layer before the hoisted setup or any GEMM is charged: a 10-row `H`
/// on a 40-node graph, or a 5-column `H` for `k_in = 8`, is a typed GNN
/// error from `bind`, for every model and candidate.
#[test]
fn gnn_layer_rejects_mismatched_features_and_compositions() {
    let g = generators::power_law(40, 3, 5).unwrap();
    let ctx = GraphCtx::new(&g).unwrap();
    let engine = Engine::modeled(DeviceKind::Cpu);
    let exec = Exec::real(&engine);
    let cfg = LayerConfig::new(8, 6);
    for kind in [
        ModelKind::Gcn,
        ModelKind::Gin,
        ModelKind::Sgc,
        ModelKind::Tagcn,
        ModelKind::Gat,
        ModelKind::Sage,
    ] {
        let plan = CompiledModel::compile(kind, cfg).unwrap();
        for cand in &plan.candidates {
            let exec_plan = ExecPlan::build(&cand.program).unwrap();
            let bind = |rows, cols| {
                let h = DenseMatrix::zeros(rows, cols).unwrap();
                let inputs = PlanInputs::for_model(kind, cfg, &ctx, h, 1);
                exec_plan
                    .bind(&exec, &inputs.as_program_inputs())
                    .map(|_| ())
            };
            let comp = cand.composition;
            assert!(
                matches!(
                    bind(10, 8),
                    Err(CoreError::Gnn(GnnError::FeatureMismatch {
                        nodes: 40,
                        rows: 10
                    }))
                ),
                "{comp}"
            );
            assert!(
                matches!(
                    bind(40, 5),
                    Err(CoreError::Gnn(GnnError::DimensionMismatch {
                        expected: 8,
                        got: 5
                    }))
                ),
                "{comp}"
            );
            assert_eq!(
                engine.elapsed_seconds(),
                0.0,
                "{comp} charged before failing"
            );
        }
        let alien = Composition::all_for(if kind == ModelKind::Gat {
            ModelKind::Gcn
        } else {
            ModelKind::Gat
        })[0];
        assert!(matches!(
            plan.candidate(alien),
            Err(CoreError::InvalidIr(_))
        ));
    }
}

#[test]
fn empty_graphs_are_rejected_by_the_context() {
    let g = Graph::from_edges(0, &[]).unwrap();
    assert!(GraphCtx::new(&g).is_err());
}

#[test]
fn boost_layer_rejects_degenerate_datasets() {
    let empty: &[Vec<f64>] = &[];
    assert_eq!(
        BoostDataset::from_rows(empty, &[]).unwrap_err(),
        BoostError::EmptyDataset
    );
    assert_eq!(
        BoostDataset::from_rows(&[vec![f64::NAN]], &[1.0]).unwrap_err(),
        BoostError::NonFinite
    );
}

#[test]
fn runtime_reports_missing_cost_models() {
    // An empty cost-model set: selection that needs models must fail loudly.
    let empty = CostModelSet::new(
        DeviceKind::H100,
        std::collections::BTreeMap::new(),
        std::collections::BTreeMap::new(),
    );
    let granii = Granii::with_cost_models(empty);
    let g = generators::power_law(100, 4, 1).unwrap();
    // (64, 64) is a shrink-scenario config with two GCN candidates → needs
    // the cost models.
    let err = granii.select(ModelKind::Gcn, &g, 64, 64).unwrap_err();
    assert!(matches!(err, CoreError::MissingCostModel { .. }), "{err}");
    // But a pure embedding-size decision still works without any models.
    let ok = granii.select(ModelKind::Gat, &g, 256, 32).unwrap();
    assert!(!ok.used_cost_models);
}

#[test]
fn corrupt_cost_model_json_is_a_typed_error() {
    assert!(matches!(
        CostModelSet::from_json("{not json"),
        Err(CoreError::Serde(_))
    ));
}

#[test]
fn invalid_layer_configs_are_rejected_everywhere() {
    assert!(Trainer::new(ModelKind::Gcn, LayerConfig::new(0, 8), 1, 0.01).is_err());
    assert!(CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(0, 8)).is_err());
    let granii = Granii::train_for_device(DeviceKind::Cpu, GraniiOptions::fast()).unwrap();
    let g = generators::ring(5).unwrap();
    assert!(granii.select(ModelKind::Gcn, &g, 8, 0).is_err());
}
