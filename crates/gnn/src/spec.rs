//! Model kinds, layer configuration, and the primitive-composition taxonomy.
//!
//! A *composition* is a particular selection and ordering of sparse/dense
//! matrix primitives implementing a GNN layer (the paper's §III case study).
//! Every composition of a model computes the same function; they differ only
//! in cost, and which is cheapest depends on the input — that is the
//! optimization space GRANII searches.

use std::collections::BTreeMap;

use granii_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

use crate::{GnnError, Result};

/// Negative slope of GAT's attention LeakyReLU (the standard 0.2).
pub const GAT_SLOPE: f32 = 0.2;

/// Fixed epsilon of GIN's `(1 + ε)` self-term (DGL's default is 0; a small
/// nonzero value keeps the term exercised).
pub const GIN_EPS: f32 = 0.1;

/// The GNN models of the paper's evaluation (§VI-B), plus GraphSAGE (§VI-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelKind {
    /// Graph Convolutional Network (Kipf & Welling).
    Gcn,
    /// Graph Isomorphism Network (Xu et al.).
    Gin,
    /// Simple Graph Convolution (Wu et al.) — `k`-hop propagation, no
    /// intermediate nonlinearity.
    Sgc,
    /// Topology-Adaptive GCN (Du et al.) — per-hop weights.
    Tagcn,
    /// Graph Attention Network (Veličković et al.), single head.
    Gat,
    /// GraphSAGE (Hamilton et al.) with mean aggregation; evaluated with
    /// neighborhood sampling.
    Sage,
}

impl ModelKind {
    /// The five models of the main evaluation (Table III order).
    pub const EVAL: [ModelKind; 5] = [
        ModelKind::Gcn,
        ModelKind::Gin,
        ModelKind::Sgc,
        ModelKind::Tagcn,
        ModelKind::Gat,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "gcn",
            ModelKind::Gin => "gin",
            ModelKind::Sgc => "sgc",
            ModelKind::Tagcn => "tagcn",
            ModelKind::Gat => "gat",
            ModelKind::Sage => "sage",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one GNN layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerConfig {
    /// Input embedding size (`K1` in the paper's complexity tables).
    pub k_in: usize,
    /// Output embedding size (`K2`).
    pub k_out: usize,
    /// Propagation hops for SGC/TAGCN (ignored by other models).
    pub hops: usize,
}

impl LayerConfig {
    /// A layer configuration with the default hop count (2).
    pub fn new(k_in: usize, k_out: usize) -> Self {
        Self {
            k_in,
            k_out,
            hops: 2,
        }
    }

    /// Validates embedding sizes and hops.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for zero sizes or zero hops.
    pub fn validate(&self) -> Result<()> {
        if self.k_in == 0 || self.k_out == 0 {
            return Err(GnnError::InvalidConfig(format!(
                "embedding sizes must be > 0 (got {} -> {})",
                self.k_in, self.k_out
            )));
        }
        if self.hops == 0 {
            return Err(GnnError::InvalidConfig("hops must be > 0".into()));
        }
        Ok(())
    }
}

/// Deterministic initial parameters of one layer, keyed by the leaf names
/// the model's candidate programs reference: `W` (GCN, SGC, GAT), `W1`/`W2`
/// (GIN), per-hop `W0..=W{hops}` (TAGCN), `W_self`/`W_neigh` (SAGE), and
/// GAT's attention vectors `a_l`/`a_r`. Every matrix is uniform in
/// `±sqrt(2 / (k_in + k_out))`; the `i`-th matrix of a model is seeded
/// `seed + i`. Inference and training both draw their parameters here, so
/// the two compute with bitwise-identical weights under one seed.
pub fn layer_weights(
    kind: ModelKind,
    cfg: LayerConfig,
    seed: u64,
) -> BTreeMap<String, DenseMatrix> {
    let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
    let (k_in, k_out) = (cfg.k_in, cfg.k_out);
    let shapes: Vec<(String, usize, usize)> = match kind {
        ModelKind::Gcn | ModelKind::Sgc => vec![("W".into(), k_in, k_out)],
        ModelKind::Gin => vec![("W1".into(), k_in, k_out), ("W2".into(), k_out, k_out)],
        ModelKind::Tagcn => (0..=cfg.hops)
            .map(|k| (format!("W{k}"), k_in, k_out))
            .collect(),
        ModelKind::Gat => vec![
            ("W".into(), k_in, k_out),
            ("a_l".into(), k_out, 1),
            ("a_r".into(), k_out, 1),
        ],
        ModelKind::Sage => vec![
            ("W_self".into(), k_in, k_out),
            ("W_neigh".into(), k_in, k_out),
        ],
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (name, rows, cols))| {
            (
                name,
                DenseMatrix::random(rows, cols, scale, seed + i as u64),
            )
        })
        .collect()
}

/// How GCN-family layers handle degree normalization (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NormStrategy {
    /// Eq. 2: normalization folded into the features with two row-broadcasts
    /// every iteration. Cheaper on dense graphs (aggregation dominates and can
    /// stay unweighted).
    Dynamic,
    /// Eq. 3: normalized adjacency `Ñ = D^{-1/2} Ã D^{-1/2}` precomputed once
    /// via an SDDMM-style edge scaling; aggregation becomes weighted. Cheaper
    /// on sparse graphs (no per-node broadcast passes).
    Precompute,
}

/// Where the dense update (GEMM with the weight matrix) is placed relative to
/// aggregation — the config-based reordering of ref.\[17\] the paper's baselines use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpOrder {
    /// Aggregate at width `K1`, then update (`(A·H)·W`). Better when
    /// `K1 <= K2`.
    AggregateFirst,
    /// Update to width `K2` first, then aggregate (`A·(H·W)`). Better when
    /// `K1 > K2`.
    UpdateFirst,
}

/// Whether GAT reuses the updated embeddings `Θ = H·W` from the attention
/// stage for aggregation, or recomputes the update after aggregating the raw
/// features (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GatStrategy {
    /// `H' = σ(α · Θ)`: aggregation runs at width `K2`.
    Reuse,
    /// `H' = σ((α · H) · W)`: aggregation runs at width `K1` plus an extra
    /// GEMM. Only sensible when `K1 < K2`.
    Recompute,
}

/// A concrete, executable primitive composition for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Composition {
    /// GCN: normalization strategy × operator order.
    Gcn(NormStrategy, OpOrder),
    /// GIN: operator order (the linear MLP layer commutes with sum
    /// aggregation).
    Gin(OpOrder),
    /// SGC: normalization strategy × operator order.
    Sgc(NormStrategy, OpOrder),
    /// TAGCN: normalization strategy × operator order.
    Tagcn(NormStrategy, OpOrder),
    /// GAT: reuse vs recompute.
    Gat(GatStrategy),
    /// GraphSAGE: operator order of the neighbor branch.
    Sage(OpOrder),
}

impl Composition {
    /// Which model this composition belongs to.
    pub fn model(self) -> ModelKind {
        match self {
            Composition::Gcn(..) => ModelKind::Gcn,
            Composition::Gin(..) => ModelKind::Gin,
            Composition::Sgc(..) => ModelKind::Sgc,
            Composition::Tagcn(..) => ModelKind::Tagcn,
            Composition::Gat(..) => ModelKind::Gat,
            Composition::Sage(..) => ModelKind::Sage,
        }
    }

    /// All executable compositions of a model, in a stable order.
    ///
    /// These are the *promoted* candidates GRANII's offline stage hands to the
    /// online selector (the full enumerated forests, before pruning, are
    /// produced by `granii-core`'s association-tree machinery).
    pub fn all_for(model: ModelKind) -> Vec<Composition> {
        use GatStrategy::*;
        use NormStrategy::*;
        use OpOrder::*;
        match model {
            ModelKind::Gcn => vec![
                Composition::Gcn(Dynamic, AggregateFirst),
                Composition::Gcn(Dynamic, UpdateFirst),
                Composition::Gcn(Precompute, AggregateFirst),
                Composition::Gcn(Precompute, UpdateFirst),
            ],
            ModelKind::Gin => {
                vec![
                    Composition::Gin(AggregateFirst),
                    Composition::Gin(UpdateFirst),
                ]
            }
            ModelKind::Sgc => vec![
                Composition::Sgc(Dynamic, AggregateFirst),
                Composition::Sgc(Dynamic, UpdateFirst),
                Composition::Sgc(Precompute, AggregateFirst),
                Composition::Sgc(Precompute, UpdateFirst),
            ],
            ModelKind::Tagcn => vec![
                Composition::Tagcn(Dynamic, AggregateFirst),
                Composition::Tagcn(Dynamic, UpdateFirst),
                Composition::Tagcn(Precompute, AggregateFirst),
                Composition::Tagcn(Precompute, UpdateFirst),
            ],
            ModelKind::Gat => vec![Composition::Gat(Reuse), Composition::Gat(Recompute)],
            ModelKind::Sage => {
                vec![
                    Composition::Sage(AggregateFirst),
                    Composition::Sage(UpdateFirst),
                ]
            }
        }
    }

    /// A stable short name (used in reports).
    pub fn name(self) -> String {
        match self {
            Composition::Gcn(n, o) | Composition::Sgc(n, o) | Composition::Tagcn(n, o) => {
                format!(
                    "{}/{}+{}",
                    self.model(),
                    match n {
                        NormStrategy::Dynamic => "dynamic",
                        NormStrategy::Precompute => "precompute",
                    },
                    order_name(o)
                )
            }
            Composition::Gin(o) | Composition::Sage(o) => {
                format!("{}/{}", self.model(), order_name(o))
            }
            Composition::Gat(s) => format!(
                "gat/{}",
                match s {
                    GatStrategy::Reuse => "reuse",
                    GatStrategy::Recompute => "recompute",
                }
            ),
        }
    }
}

fn order_name(o: OpOrder) -> &'static str {
    match o {
        OpOrder::AggregateFirst => "agg-first",
        OpOrder::UpdateFirst => "update-first",
    }
}

impl std::fmt::Display for Composition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_counts_per_model() {
        assert_eq!(Composition::all_for(ModelKind::Gcn).len(), 4);
        assert_eq!(Composition::all_for(ModelKind::Gin).len(), 2);
        assert_eq!(Composition::all_for(ModelKind::Sgc).len(), 4);
        assert_eq!(Composition::all_for(ModelKind::Tagcn).len(), 4);
        assert_eq!(Composition::all_for(ModelKind::Gat).len(), 2);
        assert_eq!(Composition::all_for(ModelKind::Sage).len(), 2);
    }

    #[test]
    fn compositions_belong_to_their_model() {
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            for comp in Composition::all_for(kind) {
                assert_eq!(comp.model(), kind);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = ModelKind::EVAL
            .iter()
            .flat_map(|&k| Composition::all_for(k))
            .map(|c| c.name())
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn layer_config_validation() {
        assert!(LayerConfig::new(32, 32).validate().is_ok());
        assert!(LayerConfig::new(0, 32).validate().is_err());
        assert!(LayerConfig::new(32, 0).validate().is_err());
        assert!(LayerConfig {
            k_in: 8,
            k_out: 8,
            hops: 0
        }
        .validate()
        .is_err());
    }
}
