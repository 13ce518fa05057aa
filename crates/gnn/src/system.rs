//! Baseline-system emulation: the *default* primitive compositions of
//! WiseGraph and DGL (paper §VI-B "Baseline Systems").
//!
//! The baselines matter to the evaluation only through which composition they
//! run and what per-iteration bookkeeping they pay:
//!
//! - **WiseGraph** applies the config-based (embedding-size) reordering of
//!   ref.\[17\] to every model, always recomputes GAT's update for increasing
//!   embedding sizes, and computes normalization degrees with a *binning*
//!   scatter-add whose atomic contention is pathological on dense graphs
//!   (§VI-C1) — every iteration.
//! - **DGL** uses dynamic normalization for the GCN family (recomputing
//!   degrees by a cheap scan every forward call, as `dgl.nn.GraphConv` really
//!   does), applies config-based reordering only to GCN, keeps GIN/SGC/TAGCN
//!   at aggregate-first, and always reuses GAT's updated embeddings.

use serde::{Deserialize, Serialize};

use granii_matrix::DenseMatrix;

use crate::spec::{Composition, GatStrategy, LayerConfig, ModelKind, NormStrategy, OpOrder};
use crate::{Exec, GraphCtx};

/// The baseline GNN systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum System {
    /// WiseGraph (EuroSys '24) — the state-of-the-art baseline.
    WiseGraph,
    /// DGL v2.4 (PyTorch backend).
    Dgl,
}

impl System {
    /// Both systems, in the paper's presentation order.
    pub const ALL: [System; 2] = [System::WiseGraph, System::Dgl];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            System::WiseGraph => "wisegraph",
            System::Dgl => "dgl",
        }
    }

    /// The composition this system's available implementation runs by default
    /// for a model and layer configuration.
    pub fn default_composition(self, kind: ModelKind, cfg: LayerConfig) -> Composition {
        let config_order = if cfg.k_in > cfg.k_out {
            OpOrder::UpdateFirst
        } else {
            OpOrder::AggregateFirst
        };
        match (self, kind) {
            (System::WiseGraph, ModelKind::Gcn) => {
                Composition::Gcn(NormStrategy::Dynamic, config_order)
            }
            (System::WiseGraph, ModelKind::Sgc) => {
                Composition::Sgc(NormStrategy::Dynamic, config_order)
            }
            (System::WiseGraph, ModelKind::Tagcn) => {
                Composition::Tagcn(NormStrategy::Dynamic, config_order)
            }
            (System::WiseGraph, ModelKind::Gin) => Composition::Gin(config_order),
            (System::WiseGraph, ModelKind::Gat) => Composition::Gat(if cfg.k_in < cfg.k_out {
                GatStrategy::Recompute
            } else {
                GatStrategy::Reuse
            }),
            (System::WiseGraph, ModelKind::Sage) => Composition::Sage(config_order),
            (System::Dgl, ModelKind::Gcn) => Composition::Gcn(NormStrategy::Dynamic, config_order),
            (System::Dgl, ModelKind::Gin) => Composition::Gin(OpOrder::AggregateFirst),
            (System::Dgl, ModelKind::Sgc) => {
                Composition::Sgc(NormStrategy::Dynamic, OpOrder::AggregateFirst)
            }
            (System::Dgl, ModelKind::Tagcn) => {
                Composition::Tagcn(NormStrategy::Dynamic, OpOrder::AggregateFirst)
            }
            (System::Dgl, ModelKind::Gat) => Composition::Gat(GatStrategy::Reuse),
            (System::Dgl, ModelKind::Sage) => Composition::Sage(OpOrder::AggregateFirst),
        }
    }

    /// Whether the model's implementation in this system recomputes degree
    /// normalization every forward call, and how.
    fn normalization_path(self, kind: ModelKind) -> Option<NormPath> {
        let uses_norm = matches!(kind, ModelKind::Gcn | ModelKind::Sgc | ModelKind::Tagcn);
        if !uses_norm {
            return None;
        }
        Some(match self {
            System::WiseGraph => NormPath::Binning,
            System::Dgl => NormPath::Scan,
        })
    }

    /// Charges the per-iteration normalization bookkeeping this system's
    /// implementation of `kind` pays on every forward call: the binning or
    /// scan degree computation plus the `d^{-1/2}` map. Models without
    /// degree normalization pay nothing. A baseline iteration is this charge
    /// followed by one iteration of the default composition's program.
    pub fn charge_normalization(self, kind: ModelKind, exec: &Exec, ctx: &GraphCtx) {
        if let Some(path) = self.normalization_path(kind) {
            let degs = match path {
                NormPath::Binning => exec.degrees_by_binning(ctx.adj()),
                NormPath::Scan => exec.degrees_by_scan(ctx.adj()),
            };
            // d^{-1/2} map over the nodes.
            let dm = DenseMatrix::from_vec(degs.len(), 1, degs).expect("length matches");
            let _ = exec.map(&dm, 2, |v| if v > 0.0 { 1.0 / v.sqrt() } else { 0.0 });
        }
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a baseline computes normalization degrees each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NormPath {
    /// WiseGraph's scatter-add binning (atomics; §VI-C1).
    Binning,
    /// DGL's row-pointer scan.
    Scan,
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::PrimitiveKind;

    #[test]
    fn config_based_reordering_follows_embedding_sizes() {
        let shrink = LayerConfig::new(256, 32);
        let grow = LayerConfig::new(32, 256);
        assert_eq!(
            System::WiseGraph.default_composition(ModelKind::Gcn, shrink),
            Composition::Gcn(NormStrategy::Dynamic, OpOrder::UpdateFirst)
        );
        assert_eq!(
            System::WiseGraph.default_composition(ModelKind::Gcn, grow),
            Composition::Gcn(NormStrategy::Dynamic, OpOrder::AggregateFirst)
        );
        // DGL does not reorder GIN/SGC.
        assert_eq!(
            System::Dgl.default_composition(ModelKind::Gin, shrink),
            Composition::Gin(OpOrder::AggregateFirst)
        );
        assert_eq!(
            System::Dgl.default_composition(ModelKind::Sgc, shrink),
            Composition::Sgc(NormStrategy::Dynamic, OpOrder::AggregateFirst)
        );
    }

    #[test]
    fn gat_defaults_differ_between_systems() {
        let grow = LayerConfig::new(32, 256);
        assert_eq!(
            System::WiseGraph.default_composition(ModelKind::Gat, grow),
            Composition::Gat(GatStrategy::Recompute)
        );
        assert_eq!(
            System::Dgl.default_composition(ModelKind::Gat, grow),
            Composition::Gat(GatStrategy::Reuse)
        );
    }

    fn normalization_kinds(system: System, kind: ModelKind) -> Vec<PrimitiveKind> {
        let g = generators::power_law(50, 4, 1).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::A100);
        system.charge_normalization(kind, &Exec::real(&engine), &ctx);
        engine
            .take_profile()
            .entries
            .iter()
            .map(|e| e.kind)
            .collect()
    }

    #[test]
    fn wisegraph_charges_binning_every_iteration() {
        let kinds = normalization_kinds(System::WiseGraph, ModelKind::Gcn);
        assert_eq!(
            kinds,
            [PrimitiveKind::Binning, PrimitiveKind::Elementwise],
            "one binning pass plus the d^-1/2 map per call"
        );
    }

    #[test]
    fn dgl_scans_instead_of_binning() {
        let kinds = normalization_kinds(System::Dgl, ModelKind::Gcn);
        assert!(!kinds.contains(&PrimitiveKind::Binning), "{kinds:?}");
        assert!(!kinds.is_empty());
    }

    #[test]
    fn gin_pays_no_normalization() {
        for system in System::ALL {
            assert!(normalization_kinds(system, ModelKind::Gin).is_empty());
        }
    }
}
