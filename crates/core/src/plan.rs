//! The compiled conditional plan (paper §IV-D, Fig 7).
//!
//! The offline stage ends by emitting, per model, the promoted candidates
//! guarded by runtime conditions: a pure embedding-size condition when a
//! scenario has a single owner ("this avoids the use of the more expensive
//! cost models"), and cost-model comparisons otherwise.

use serde::{Deserialize, Serialize};

use granii_gnn::spec::{Composition, LayerConfig, ModelKind};

use crate::assoc::{self, CandidateProgram};
use crate::ir::{builder, rewrite};
use crate::{CoreError, Result};

/// A promoted candidate: its primitive program and composition label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCandidate {
    /// The association tree's primitive program.
    pub program: CandidateProgram,
    /// The composition label `assoc::lower` gives the program.
    pub composition: Composition,
    /// Eligible when `K1 >= K2`.
    pub shrink: bool,
    /// Eligible when `K1 < K2`.
    pub grow: bool,
}

/// The compiled plan for one model: the output of GRANII's offline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledModel {
    /// The model this plan was compiled from.
    pub model: ModelKind,
    /// Propagation hops the plan was compiled for (SGC/TAGCN).
    pub hops: usize,
    /// Number of association trees enumerated (§VI-B reports these counts).
    pub enumerated: usize,
    /// Number pruned by the input-oblivious rules.
    pub pruned: usize,
    /// Promoted candidates with scenario annotations.
    pub candidates: Vec<PlanCandidate>,
}

impl CompiledModel {
    /// Runs the offline compilation stage for one model: front-end translation
    /// → broadcast rewrite → association enumeration over all algebraic
    /// variants → input-oblivious pruning → lowering.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoCandidates`] if nothing survives (cannot happen
    /// for the built-in models), and propagates enumeration errors.
    pub fn compile(model: ModelKind, cfg: LayerConfig) -> Result<Self> {
        cfg.validate()?;
        let ir = builder::build(model, cfg);
        let mut seen = std::collections::HashSet::new();
        let mut cands = Vec::new();
        let mut last_err = None;
        for variant in rewrite::variants(&ir) {
            // A variant whose forest exceeds the enumeration budget (deep hop
            // chains) is skipped; the remaining variants still yield a valid,
            // if smaller, candidate set.
            match assoc::enumerate(&variant) {
                Ok(variant_cands) => {
                    for cand in variant_cands {
                        if seen.insert(cand.expr.clone()) {
                            cands.push(cand);
                        }
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if cands.is_empty() {
            if let Some(e) = last_err {
                return Err(e);
            }
        }
        let enumerated = cands.len();
        let (promoted, pruned) = assoc::prune(&cands);

        // Lower and merge candidates that map to the same executable
        // composition (keep the cheaper program, union the scenarios).
        let mut candidates: Vec<PlanCandidate> = Vec::new();
        for p in promoted {
            let Some(composition) = assoc::lower(model, &p.program) else {
                continue;
            };
            match candidates.iter_mut().find(|c| c.composition == composition) {
                Some(existing) => {
                    existing.shrink |= p.shrink;
                    existing.grow |= p.grow;
                    if p.program.steps.len() < existing.program.steps.len() {
                        existing.program = p.program;
                    }
                }
                None => candidates.push(PlanCandidate {
                    program: p.program,
                    composition,
                    shrink: p.shrink,
                    grow: p.grow,
                }),
            }
        }
        if candidates.is_empty() {
            return Err(CoreError::NoCandidates {
                model: model.name().into(),
            });
        }
        Ok(Self {
            model,
            hops: cfg.hops,
            enumerated,
            pruned,
            candidates,
        })
    }

    /// The candidate whose program implements `composition`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] if `composition` is not one of this
    /// plan's candidates (e.g. it belongs to another model).
    pub fn candidate(&self, composition: Composition) -> Result<&PlanCandidate> {
        self.candidates
            .iter()
            .find(|c| c.composition == composition)
            .ok_or_else(|| {
                CoreError::InvalidIr(format!(
                    "composition {composition} is not a candidate of {}",
                    self.model.name()
                ))
            })
    }

    /// The candidates eligible under the concrete embedding sizes (Fig 7's
    /// embedding-size conditions).
    pub fn eligible(&self, k1: usize, k2: usize) -> Vec<&PlanCandidate> {
        let shrink = k1 >= k2;
        self.candidates
            .iter()
            .filter(|c| if shrink { c.shrink } else { c.grow })
            .collect()
    }

    /// Whether selecting under these sizes needs the cost models (more than
    /// one eligible candidate).
    pub fn needs_cost_models(&self, k1: usize, k2: usize) -> bool {
        self.eligible(k1, k2).len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_gnn::spec::{GatStrategy, NormStrategy, OpOrder};

    #[test]
    fn gcn_plan_matches_paper_counts() {
        // §VI-B: "the total number of compositions through re-associations
        // and offline pruning pairs of GRANII for GCN ... are 12 and 8".
        let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 256)).unwrap();
        assert_eq!(plan.enumerated, 12);
        assert_eq!(plan.pruned, 8);
        assert_eq!(plan.candidates.len(), 4);
    }

    #[test]
    fn gat_plan_matches_paper_counts() {
        // §VI-B: GAT is "2 and 0".
        let plan = CompiledModel::compile(ModelKind::Gat, LayerConfig::new(32, 256)).unwrap();
        assert_eq!(plan.enumerated, 2);
        assert_eq!(plan.pruned, 0);
        assert_eq!(plan.candidates.len(), 2);
    }

    #[test]
    fn gcn_scenarios_split_by_order() {
        let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 256)).unwrap();
        for c in &plan.candidates {
            match c.composition {
                Composition::Gcn(_, OpOrder::AggregateFirst) => {
                    assert!(c.grow && !c.shrink, "{c:?}")
                }
                Composition::Gcn(_, OpOrder::UpdateFirst) => {
                    assert!(c.shrink && !c.grow, "{c:?}")
                }
                other => panic!("unexpected {other}"),
            }
        }
        // Per scenario: two candidates (dynamic vs precompute) — an
        // input-graph-dependent choice the cost models must make.
        assert_eq!(plan.eligible(256, 32).len(), 2);
        assert_eq!(plan.eligible(32, 256).len(), 2);
        assert!(plan.needs_cost_models(256, 32));
    }

    /// Each label's program has the structure the paper's case study gives
    /// that composition: update-first (and GAT's reuse) aggregates at the
    /// output width `K2`, aggregate-first (recompute) at `K1`; precompute
    /// hoists the SDDMM edge scaling and runs no per-iteration broadcast,
    /// dynamic broadcasts around an unweighted SpMM; GAT's recompute pays
    /// one GEMM more than reuse; SGC's precompute program aggregates once
    /// per hop.
    #[test]
    fn labels_name_their_programs_structure() {
        use crate::ir::Dim;
        use granii_matrix::PrimitiveKind;
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let plan = CompiledModel::compile(kind, LayerConfig::new(8, 4)).unwrap();
            for c in &plan.candidates {
                let at_k2 = match c.composition {
                    Composition::Gcn(_, o)
                    | Composition::Sgc(_, o)
                    | Composition::Tagcn(_, o)
                    | Composition::Gin(o)
                    | Composition::Sage(o) => o == OpOrder::UpdateFirst,
                    Composition::Gat(s) => s == GatStrategy::Reuse,
                };
                let width = if at_k2 { Dim::K2 } else { Dim::K1 };
                let spmm = |k| {
                    matches!(
                        k,
                        PrimitiveKind::SpmmWeighted | PrimitiveKind::SpmmUnweighted
                    )
                };
                assert!(
                    c.program
                        .steps
                        .iter()
                        .filter(|s| spmm(s.kind))
                        .all(|s| s.cols == width),
                    "{c:?}"
                );
            }
        }
        let count = |c: &PlanCandidate, kind: PrimitiveKind, once: bool| {
            c.program
                .steps
                .iter()
                .filter(|s| s.kind == kind && s.once == once)
                .count()
        };
        let gcn = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 256)).unwrap();
        for c in &gcn.candidates {
            let broadcasts = count(c, PrimitiveKind::RowBroadcast, false);
            match c.composition {
                Composition::Gcn(NormStrategy::Precompute, _) => {
                    assert_eq!(count(c, PrimitiveKind::Sddmm, true), 1, "{c:?}");
                    assert_eq!(broadcasts, 0, "{c:?}");
                }
                _ => {
                    assert_eq!(count(c, PrimitiveKind::Sddmm, true), 0, "{c:?}");
                    assert_eq!(broadcasts, 2, "{c:?}");
                    assert_eq!(count(c, PrimitiveKind::SpmmUnweighted, false), 1);
                }
            }
        }
        let gat = CompiledModel::compile(ModelKind::Gat, LayerConfig::new(32, 256)).unwrap();
        let gemms = |s: GatStrategy| {
            count(
                gat.candidate(Composition::Gat(s)).unwrap(),
                PrimitiveKind::Gemm,
                false,
            )
        };
        assert_eq!(gemms(GatStrategy::Recompute), gemms(GatStrategy::Reuse) + 1);
        for hops in 1..=3 {
            let cfg = LayerConfig {
                k_in: 8,
                k_out: 4,
                hops,
            };
            let sgc = CompiledModel::compile(ModelKind::Sgc, cfg).unwrap();
            let comp = Composition::Sgc(NormStrategy::Precompute, OpOrder::AggregateFirst);
            let c = sgc.candidate(comp).unwrap();
            assert_eq!(count(c, PrimitiveKind::SpmmWeighted, false), hops, "{c:?}");
        }
    }

    #[test]
    fn gat_eligibility_follows_strategy() {
        let plan = CompiledModel::compile(ModelKind::Gat, LayerConfig::new(32, 256)).unwrap();
        // Shrinking sizes: recompute is pointless (reuse aggregates narrower
        // anyway); the paper evaluates GAT only on growing sizes because that
        // is where the decision is non-trivial.
        let growing = plan.eligible(32, 256);
        assert_eq!(growing.len(), 2);
        let shrinking = plan.eligible(256, 32);
        assert_eq!(shrinking.len(), 1);
        assert_eq!(
            shrinking[0].composition,
            Composition::Gat(GatStrategy::Reuse)
        );
        assert!(!plan.needs_cost_models(256, 32));
    }

    #[test]
    fn every_model_compiles_with_nonempty_scenarios() {
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let plan = CompiledModel::compile(kind, LayerConfig::new(16, 8)).unwrap();
            assert!(!plan.candidates.is_empty(), "{kind}");
            assert!(
                !plan.eligible(16, 8).is_empty(),
                "{kind} shrink scenario empty"
            );
            assert!(
                !plan.eligible(8, 16).is_empty(),
                "{kind} grow scenario empty"
            );
            assert!(
                plan.enumerated > plan.candidates.len() || plan.pruned == 0,
                "{kind}"
            );
        }
    }

    /// Deep hop counts: SGC's single chain still enumerates at 3 hops, while
    /// TAGCN's multi-term forest exceeds the enumeration budget and reports a
    /// typed error instead of exhausting memory.
    #[test]
    fn deep_hops_are_bounded() {
        let sgc = CompiledModel::compile(
            ModelKind::Sgc,
            LayerConfig {
                k_in: 8,
                k_out: 4,
                hops: 3,
            },
        )
        .unwrap();
        assert!(!sgc.candidates.is_empty());
        let err = CompiledModel::compile(
            ModelKind::Tagcn,
            LayerConfig {
                k_in: 8,
                k_out: 4,
                hops: 3,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidIr(msg) if msg.contains("budget")),
            "wrong error"
        );
    }

    #[test]
    fn sgc_keeps_dynamic_and_precompute_candidates() {
        let plan = CompiledModel::compile(
            ModelKind::Sgc,
            LayerConfig {
                k_in: 16,
                k_out: 8,
                hops: 2,
            },
        )
        .unwrap();
        let has = |n: NormStrategy| {
            plan.candidates
                .iter()
                .any(|c| matches!(c.composition, Composition::Sgc(s, _) if s == n))
        };
        assert!(
            has(NormStrategy::Dynamic) && has(NormStrategy::Precompute),
            "{plan:#?}"
        );
    }
}
