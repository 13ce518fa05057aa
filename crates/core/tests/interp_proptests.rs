//! Property-based tests for the program interpreter and the compile-once
//! engine: every promoted association tree of a model computes the same
//! function on arbitrary graphs, features, and embedding sizes, and a bound
//! plan charges the same work whether or not its kernels compute values.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::interp::{self, ProgramInputs};
use granii_core::plan::CompiledModel;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::DenseMatrix;
use proptest::prelude::*;

fn weights(model: ModelKind, cfg: LayerConfig, seed: u64) -> BTreeMap<String, DenseMatrix> {
    let mut w = BTreeMap::new();
    match model {
        ModelKind::Gin => {
            w.insert(
                "W1".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed),
            );
            w.insert(
                "W2".into(),
                DenseMatrix::random(cfg.k_out, cfg.k_out, 0.6, seed + 1),
            );
        }
        ModelKind::Tagcn => {
            for k in 0..=cfg.hops {
                w.insert(
                    format!("W{k}"),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 2 + k as u64),
                );
            }
        }
        ModelKind::Sage => {
            w.insert(
                "W_self".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 7),
            );
            w.insert(
                "W_neigh".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 8),
            );
        }
        _ => {
            w.insert(
                "W".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 9),
            );
            w.insert(
                "a_l".into(),
                DenseMatrix::random(cfg.k_out, 1, 0.6, seed + 10),
            );
            w.insert(
                "a_r".into(),
                DenseMatrix::random(cfg.k_out, 1, 0.6, seed + 11),
            );
        }
    }
    w
}

const MODELS: [ModelKind; 6] = [
    ModelKind::Gcn,
    ModelKind::Gin,
    ModelKind::Sgc,
    ModelKind::Tagcn,
    ModelKind::Gat,
    ModelKind::Sage,
];

/// Every model's compiled plan. Candidate programs do not depend on the
/// embedding sizes, so one compile per model serves every case.
fn plans() -> &'static [CompiledModel] {
    static PLANS: OnceLock<Vec<CompiledModel>> = OnceLock::new();
    PLANS.get_or_init(|| {
        MODELS
            .iter()
            .map(|&m| CompiledModel::compile(m, LayerConfig::new(4, 4)).unwrap())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interpreted promoted programs agree pairwise on random inputs, for
    /// every model.
    #[test]
    fn promoted_programs_agree_on_random_inputs(
        n in 4usize..25,
        edges in proptest::collection::vec((0usize..25, 0usize..25), 2..50),
        k_in in 1usize..7,
        k_out in 1usize..7,
        seed in 0u64..500,
        model_idx in 0usize..6,
    ) {
        let model = MODELS[model_idx];
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let graph = Graph::undirected_from_edges(n, &edges).unwrap();
        let ctx = GraphCtx::new(&graph).unwrap();
        let cfg = LayerConfig::new(k_in, k_out);
        let h = DenseMatrix::random(n, k_in, 1.0, seed);
        let w = weights(model, cfg, seed);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let deg_inv: Vec<f32> = ctx
            .graph()
            .out_degrees()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let raw = matches!(model, ModelKind::Gin | ModelKind::Sage);
        let adj = if raw { ctx.graph().adj().clone() } else { ctx.adj().clone() };
        let inputs = ProgramInputs {
            adj: &adj,
            deg_inv_sqrt: ctx.deg_inv_sqrt(),
            deg_inv: &deg_inv,
            h: &h,
            weights: &w,
            eps: 0.1,
            irregularity: ctx.irregularity(),
        };
        let plan = &plans()[model_idx];
        let mut reference: Option<DenseMatrix> = None;
        for cand in &plan.candidates {
            let out = interp::execute(&exec, &cand.program, &inputs).unwrap();
            prop_assert_eq!(out.shape(), (n, k_out));
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    let diff = out.max_abs_diff(r).unwrap();
                    let tol = 1e-3 * (1.0 + r.frobenius_norm());
                    prop_assert!(diff < tol, "{}/{}: diff {diff}", model, cand.program.expr);
                }
            }
        }
    }

    /// Virtual execution charges exactly what real execution charges — bind
    /// (the hoisted setup) plus one iteration, kernel by kernel, for every
    /// model × candidate. Every repro table binds and iterates under
    /// `Exec::virtual_only`, so this is what makes those tables trustworthy.
    #[test]
    fn virtual_and_real_plans_charge_the_same(
        n in 3usize..25,
        edges in proptest::collection::vec((0usize..25, 0usize..25), 1..60),
        k_in in 1usize..7,
        k_out in 1usize..7,
        seed in 0u64..100,
    ) {
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let graph = Graph::undirected_from_edges(n, &edges).unwrap();
        let ctx = GraphCtx::new(&graph).unwrap();
        let cfg = LayerConfig::new(k_in, k_out);
        let h = DenseMatrix::random(n, k_in, 1.0, seed);
        for plan in plans() {
            let inputs = PlanInputs::for_model(plan.model, cfg, &ctx, h.clone(), seed);
            for cand in &plan.candidates {
                let exec_plan = ExecPlan::build(&cand.program).unwrap();
                let charge = |virtual_mode: bool| {
                    let engine = Engine::modeled(DeviceKind::A100);
                    let exec = if virtual_mode {
                        Exec::virtual_only(&engine)
                    } else {
                        Exec::real(&engine)
                    };
                    let mut bound = exec_plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
                    bound.iterate(&exec).unwrap();
                    engine.take_profile().entries
                };
                let (real, virt) = (charge(false), charge(true));
                prop_assert_eq!(real.len(), virt.len(), "{}", cand.composition);
                for (r, v) in real.iter().zip(&virt) {
                    prop_assert_eq!(r.kind, v.kind, "{}", cand.composition);
                    prop_assert_eq!(r.stats, v.stats, "{}", cand.composition);
                    prop_assert_eq!(r.seconds, v.seconds, "{}", cand.composition);
                }
            }
        }
    }
}
