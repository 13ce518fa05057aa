//! Labelling promoted association trees with their [`Composition`] (paper
//! §IV-D "GRANII lowers the matrix primitives of each association tree to
//! kernel calls that are supported by the underlying GNN framework").
//!
//! Inference runs the tree's own primitive program through
//! [`crate::execplan`]; the label names it in selections and reports, and
//! selects the autodiff tape `granii_gnn::train::Trainer` builds.

use granii_gnn::spec::{Composition, GatStrategy, ModelKind, NormStrategy, OpOrder};
use granii_matrix::PrimitiveKind;

use crate::ir::Dim;

use super::CandidateProgram;

/// Maps a candidate program to the composition label it implements.
///
/// Returns `None` for trees with no label (e.g. mixed-width hybrids that the
/// pruner usually eliminates anyway); the plan compiler drops such
/// candidates.
pub fn lower(model: ModelKind, program: &CandidateProgram) -> Option<Composition> {
    let has_sddmm = program
        .steps
        .iter()
        .any(|s| s.kind == PrimitiveKind::Sddmm && !s.signature.starts_with("att-logits"));
    let spmm_widths: Vec<Dim> = program
        .steps
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                PrimitiveKind::SpmmWeighted | PrimitiveKind::SpmmUnweighted
            )
        })
        .map(|s| s.cols)
        .collect();
    let all_k1 = !spmm_widths.is_empty() && spmm_widths.iter().all(|&w| w == Dim::K1);
    let all_k2 = !spmm_widths.is_empty() && spmm_widths.iter().all(|&w| w == Dim::K2);
    let order = if all_k2 {
        Some(OpOrder::UpdateFirst)
    } else if all_k1 {
        Some(OpOrder::AggregateFirst)
    } else {
        None
    };
    let norm = if has_sddmm {
        NormStrategy::Precompute
    } else {
        NormStrategy::Dynamic
    };

    match model {
        ModelKind::Gcn => Some(Composition::Gcn(norm, order?)),
        ModelKind::Sgc => Some(Composition::Sgc(norm, order?)),
        ModelKind::Tagcn => Some(Composition::Tagcn(norm, order?)),
        ModelKind::Gin => Some(Composition::Gin(order?)),
        ModelKind::Sage => Some(Composition::Sage(order?)),
        ModelKind::Gat => match order? {
            OpOrder::AggregateFirst => Some(Composition::Gat(GatStrategy::Recompute)),
            OpOrder::UpdateFirst => Some(Composition::Gat(GatStrategy::Reuse)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{enumerate, prune};
    use crate::ir::{builder, rewrite};
    use granii_gnn::spec::LayerConfig;
    use std::collections::BTreeSet;

    fn promoted_compositions(kind: ModelKind) -> BTreeSet<String> {
        let ir = builder::build(kind, LayerConfig::new(8, 4));
        let mut cands = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for v in rewrite::variants(&ir) {
            for c in enumerate(&v).unwrap() {
                if seen.insert(c.expr.clone()) {
                    cands.push(c);
                }
            }
        }
        let (promoted, _) = prune(&cands);
        promoted
            .iter()
            .filter_map(|p| lower(kind, &p.program))
            .map(|c| c.name())
            .collect()
    }

    #[test]
    fn gcn_promotes_all_four_executable_compositions() {
        let comps = promoted_compositions(ModelKind::Gcn);
        assert_eq!(comps.len(), 4, "{comps:?}");
        assert!(comps.contains("gcn/dynamic+agg-first"));
        assert!(comps.contains("gcn/dynamic+update-first"));
        assert!(comps.contains("gcn/precompute+agg-first"));
        assert!(comps.contains("gcn/precompute+update-first"));
    }

    #[test]
    fn gat_promotes_reuse_and_recompute() {
        let comps = promoted_compositions(ModelKind::Gat);
        assert_eq!(comps.len(), 2, "{comps:?}");
        assert!(comps.contains("gat/reuse"));
        assert!(comps.contains("gat/recompute"));
    }

    #[test]
    fn gin_and_sage_promote_both_orders() {
        for kind in [ModelKind::Gin, ModelKind::Sage] {
            let comps = promoted_compositions(kind);
            assert_eq!(comps.len(), 2, "{kind}: {comps:?}");
        }
    }

    #[test]
    fn sgc_promotes_norm_and_order_choices() {
        let comps = promoted_compositions(ModelKind::Sgc);
        assert!(comps.len() >= 2, "{comps:?}");
        assert!(comps.iter().any(|c| c.contains("precompute")));
        assert!(comps.iter().any(|c| c.contains("dynamic")));
    }

    /// Lowering soundness: the composition label `lower` assigns is what the
    /// training tape runs, while inference runs the candidate program itself.
    /// Under one seed the two must compute the same function, so the first
    /// loss `Trainer::step` returns (taken before its update) equals the MSE
    /// of the bound program's output against the same target — on an
    /// unweighted graph, the same graph with edge weights, and a graph with
    /// isolated nodes.
    #[test]
    fn lowered_label_computes_the_candidate_program() {
        use crate::execplan::{ExecPlan, PlanInputs};
        use crate::plan::CompiledModel;
        use granii_gnn::train::Trainer;
        use granii_gnn::{Exec, GraphCtx};
        use granii_graph::{generators, Graph};
        use granii_matrix::device::{DeviceKind, Engine};
        use granii_matrix::DenseMatrix;

        let unweighted = generators::power_law(30, 3, 11).unwrap();
        let adj = unweighted.adj().clone().drop_values();
        let weights = (0..adj.nnz())
            .map(|i| 0.5 + (i % 7) as f32 * 0.25)
            .collect();
        let weighted = Graph::from_csr(adj.with_values(weights).unwrap()).unwrap();
        // A path over the first 20 nodes; the last 10 are isolated.
        let path: Vec<_> = (0..19).map(|i| (i, i + 1)).collect();
        let isolated = Graph::undirected_from_edges(30, &path).unwrap();

        let cfg = LayerConfig::new(6, 4);
        let h = DenseMatrix::random(30, 6, 1.0, 12);
        let target = DenseMatrix::random(30, 4, 1.0, 13);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let plan = CompiledModel::compile(kind, cfg).unwrap();
            for graph in [&unweighted, &weighted, &isolated] {
                let ctx = GraphCtx::new(graph).unwrap();
                let inputs = PlanInputs::for_model(kind, cfg, &ctx, h.clone(), 33);
                for cand in &plan.candidates {
                    let mut bound = ExecPlan::build(&cand.program)
                        .unwrap()
                        .bind(&exec, &inputs.as_program_inputs())
                        .unwrap();
                    let out = bound.iterate(&exec).unwrap();
                    let mse = out
                        .as_slice()
                        .iter()
                        .zip(target.as_slice())
                        .map(|(&p, &t)| f64::from(p - t).powi(2))
                        .sum::<f64>()
                        / out.as_slice().len() as f64;
                    let mut trainer = Trainer::new(kind, cfg, 33, 0.01).unwrap();
                    let loss = trainer
                        .step(&exec, &ctx, &h, &target, cand.composition)
                        .unwrap();
                    assert!(
                        (loss - mse).abs() <= 1e-5 * mse.abs(),
                        "{} on {}: trainer loss {loss} vs program mse {mse} ({})",
                        cand.composition,
                        graph.name(),
                        cand.program.expr
                    );
                }
            }
        }
    }
}
