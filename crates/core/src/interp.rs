//! An interpreter for candidate programs — the execution side of GRANII's
//! code generation (paper §IV-D).
//!
//! The paper's back end emits Python calling the framework's kernels; this
//! reproduction's equivalent is executing a [`CandidateProgram`]'s primitive
//! steps directly. Each step's canonical signature (`(D·A·D)`, `((H·W)·a_l)`,
//! `σ(...)`, ...) names its operands, so the interpreter maintains an
//! environment from canonical expressions to computed values, seeds it with
//! the program's leaves, and folds the steps in order. Equal signatures are
//! computed once — the same common-subexpression reuse the enumerator
//! performs.
//!
//! The interpreter is also the ground truth for `assoc::lower`: integration
//! tests assert that every promoted tree's interpreted output equals the
//! lowered composition's kernel-sequence output.

use std::collections::BTreeMap;

use granii_gnn::Exec;
use granii_matrix::ops::BroadcastOp;
use granii_matrix::{CsrMatrix, DenseMatrix, PrimitiveKind, Semiring};

use crate::assoc::{CandidateProgram, PrimStep};
use crate::{CoreError, Result};

/// The operand bindings a program executes against.
#[derive(Debug)]
pub struct ProgramInputs<'a> {
    /// The aggregation mask bound to the leaf `A` (GCN-family programs expect
    /// the self-loop form `Ã`; GIN/SAGE expect the raw adjacency).
    pub adj: &'a CsrMatrix,
    /// `D̃^{-1/2}` bound to the leaf `D`.
    pub deg_inv_sqrt: &'a [f32],
    /// `D^{-1}` bound to the leaf `D^{-1}` (GraphSAGE's mean normalizer).
    pub deg_inv: &'a [f32],
    /// Node features bound to the leaf `H`.
    pub h: &'a DenseMatrix,
    /// Dense weights by leaf name (`W`, `W0`.., `W1`, `W2`, `W_self`,
    /// `W_neigh`, `a_l`, `a_r`).
    pub weights: &'a BTreeMap<String, DenseMatrix>,
    /// GIN's `ε` (the leaf `(1+ε)I` is the constant diagonal `1 + eps`).
    pub eps: f32,
    /// Degree coefficient of variation for the device model.
    pub irregularity: f64,
}

/// A value in the interpreter environment.
#[derive(Debug, Clone)]
enum Value {
    Dense(DenseMatrix),
    Sparse(CsrMatrix),
    Diag(Vec<f32>),
}

/// Executes a candidate program and returns its (dense) result.
///
/// # Errors
///
/// Returns [`CoreError::InvalidIr`] if the program references operands the
/// inputs do not provide or combines values of unexpected kinds, and
/// propagates kernel errors.
pub fn execute(
    exec: &Exec,
    program: &CandidateProgram,
    inputs: &ProgramInputs,
) -> Result<DenseMatrix> {
    let mut env: BTreeMap<String, Value> = BTreeMap::new();
    let n = inputs.adj.rows();
    env.insert("A".into(), Value::Sparse(inputs.adj.clone()));
    env.insert("D".into(), Value::Diag(inputs.deg_inv_sqrt.to_vec()));
    env.insert("D^{-1}".into(), Value::Diag(inputs.deg_inv.to_vec()));
    env.insert("H".into(), Value::Dense(inputs.h.clone()));
    env.insert("(1+ε)I".into(), Value::Diag(vec![1.0 + inputs.eps; n]));
    for (name, w) in inputs.weights {
        env.insert(name.clone(), Value::Dense(w.clone()));
    }

    let mut last_sig = String::new();
    for step in &program.steps {
        let value = eval_step(exec, step, &env, inputs)?;
        // Extra bindings: an add step's value is referenced downstream by the
        // full sum expression; the attention softmax is referenced as `α`.
        if let Some((prefix, rest)) = step.signature.split_once(':') {
            if prefix.starts_with("add") {
                env.insert(rest.to_string(), value.clone());
            }
            if prefix == "att-softmax" {
                env.insert("α".into(), value.clone());
            }
        }
        env.insert(step.signature.clone(), value);
        last_sig = step.signature.clone();
    }
    match lookup(&env, &last_sig)? {
        Value::Dense(m) => Ok(m.clone()),
        other => Err(CoreError::InvalidIr(format!(
            "program result {last_sig} is not dense: {other:?}"
        ))),
    }
}

/// Environment lookup tolerant to the optional outer parentheses of canonical
/// expressions.
fn lookup<'e>(env: &'e BTreeMap<String, Value>, expr: &str) -> Result<&'e Value> {
    if let Some(v) = env.get(expr) {
        return Ok(v);
    }
    let stripped = expr.strip_prefix('(').and_then(|e| e.strip_suffix(')'));
    if let Some(v) = stripped.and_then(|e| env.get(e)) {
        return Ok(v);
    }
    let wrapped = format!("({expr})");
    env.get(&wrapped)
        .ok_or_else(|| CoreError::InvalidIr(format!("unbound operand {expr}")))
}

/// The semiring of an SpMM step. A step the program marks unweighted still
/// reads edge values when the bound adjacency carries them: the cheap
/// `copy_u` aggregation applies only to unweighted graphs (Table I's
/// weighted/unweighted sub-attribute, §III-A). Shared with `execplan`.
pub(crate) fn spmm_semiring(weighted_step: bool, adj: &CsrMatrix) -> Semiring {
    if weighted_step || adj.is_weighted() {
        Semiring::plus_mul()
    } else {
        Semiring::plus_copy_rhs()
    }
}

/// Splits a canonical expression `(a·b·c)` / `(a + b)` at its top level.
/// Shared with the compile-once engine (`execplan`) so both resolve operands
/// identically.
pub(crate) fn split_top(expr: &str, sep: char) -> Vec<String> {
    let inner = expr
        .strip_prefix('(')
        .and_then(|e| e.strip_suffix(')'))
        .unwrap_or(expr);
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in inner.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth -= 1;
                current.push(c);
            }
            c if c == sep && depth == 0 => {
                parts.push(current.trim().to_string());
                current = String::new();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_string());
    }
    parts
}

fn eval_step(
    exec: &Exec,
    step: &PrimStep,
    env: &BTreeMap<String, Value>,
    inputs: &ProgramInputs,
) -> Result<Value> {
    let sig = step.signature.as_str();
    let irr = inputs.irregularity;
    match step.kind {
        PrimitiveKind::Gemm => {
            let parts = split_top(sig, '·');
            let (a, b) = binary(&parts, sig)?;
            let (a, b) = (as_dense(lookup(env, &a)?)?, as_dense(lookup(env, &b)?)?);
            Ok(Value::Dense(exec.gemm(a, b)?))
        }
        PrimitiveKind::SpmmWeighted | PrimitiveKind::SpmmUnweighted => {
            let parts = split_top(sig, '·');
            let (s, x) = binary(&parts, sig)?;
            let sparse = as_sparse(lookup(env, &s)?)?;
            let dense = as_dense(lookup(env, &x)?)?;
            let semiring = spmm_semiring(step.kind == PrimitiveKind::SpmmWeighted, sparse);
            Ok(Value::Dense(exec.spmm(sparse, dense, semiring, irr)?))
        }
        PrimitiveKind::Sddmm => {
            if let Some(theta) = sig.strip_prefix("att-logits:") {
                // GAT logits: per-edge ul_i + vr_j over the mask.
                let ul = as_dense(lookup(env, &format!("({theta}·a_l)"))?)?;
                let vr = as_dense(lookup(env, &format!("({theta}·a_r)"))?)?;
                let mask = inputs.adj;
                return Ok(Value::Sparse(exec.sddmm_u_add_v(
                    mask,
                    ul.as_slice(),
                    vr.as_slice(),
                    irr,
                )?));
            }
            // diag · sparse · diag edge scaling: exactly one sparse part,
            // diagonal factors on either side.
            let parts = split_top(sig, '·');
            let mut dl: Option<Vec<f32>> = None;
            let mut dr: Option<Vec<f32>> = None;
            let mut sparse: Option<CsrMatrix> = None;
            for part in &parts {
                match lookup(env, part)? {
                    Value::Diag(d) => {
                        let slot = if sparse.is_none() { &mut dl } else { &mut dr };
                        *slot = Some(match slot.take() {
                            None => d.clone(),
                            Some(prev) => prev.iter().zip(d).map(|(a, b)| a * b).collect(),
                        });
                    }
                    Value::Sparse(s) => {
                        if sparse.replace(s.clone()).is_some() {
                            return Err(CoreError::InvalidIr(format!(
                                "sddmm {sig} has two sparse operands"
                            )));
                        }
                    }
                    Value::Dense(_) => {
                        return Err(CoreError::InvalidIr(format!(
                            "sddmm {sig} has a dense operand"
                        )))
                    }
                }
            }
            let sparse = sparse.ok_or_else(|| {
                CoreError::InvalidIr(format!("sddmm {sig} lacks a sparse operand"))
            })?;
            Ok(Value::Sparse(exec.scale_csr(
                dl.as_deref(),
                &sparse,
                dr.as_deref(),
                irr,
            )?))
        }
        PrimitiveKind::RowBroadcast => {
            let parts = split_top(sig, '·');
            let (d, x) = binary(&parts, sig)?;
            let d = as_diag(lookup(env, &d)?)?.to_vec();
            let x = as_dense(lookup(env, &x)?)?;
            Ok(Value::Dense(exec.row_broadcast(&d, x, BroadcastOp::Mul)?))
        }
        PrimitiveKind::ColBroadcast => {
            let parts = split_top(sig, '·');
            let (x, d) = binary(&parts, sig)?;
            let x = as_dense(lookup(env, &x)?)?;
            let d = as_diag(lookup(env, &d)?)?.to_vec();
            Ok(Value::Dense(exec.col_broadcast(x, &d, BroadcastOp::Mul)?))
        }
        PrimitiveKind::EdgeSoftmax => {
            let theta = sig
                .strip_prefix("att-softmax:")
                .ok_or_else(|| CoreError::InvalidIr(format!("unexpected softmax {sig}")))?;
            let scored = as_sparse(lookup(env, &format!("att-leaky:{theta}"))?)?;
            Ok(Value::Sparse(exec.edge_softmax(scored, irr)?))
        }
        PrimitiveKind::Elementwise => {
            if let Some(theta) = sig.strip_prefix("att-leaky:") {
                let logits = as_sparse(lookup(env, &format!("att-logits:{theta}"))?)?;
                let slope = granii_gnn::spec::GAT_SLOPE;
                return Ok(Value::Sparse(exec.map_csr_values(logits, move |v| {
                    if v >= 0.0 {
                        v
                    } else {
                        slope * v
                    }
                })?));
            }
            if let Some(inner) = sig.strip_prefix('σ') {
                let x = as_dense(lookup(env, inner)?)?;
                return Ok(Value::Dense(exec.map(x, 1, |v| v.max(0.0))));
            }
            if let Some((_, add_expr)) = sig.split_once(':') {
                // addN:(a + b + ...): the full sum; later addN steps of the
                // same expression find it bound and become no-ops via CSE at
                // generation time, but guard anyway.
                if let Ok(v) = lookup(env, add_expr) {
                    return Ok(v.clone());
                }
                let parts = split_top(add_expr, '+');
                let mut acc: Option<DenseMatrix> = None;
                for part in &parts {
                    let x = as_dense(lookup(env, part)?)?.clone();
                    acc = Some(match acc {
                        None => x,
                        Some(prev) => exec.zip(&prev, &x, 1, |a, b| a + b)?,
                    });
                }
                let sum = acc.ok_or_else(|| CoreError::InvalidIr(format!("empty sum in {sig}")))?;
                return Ok(Value::Dense(sum));
            }
            // Diagonal merge (D·D): element-wise product of per-node vectors.
            let parts = split_top(sig, '·');
            let mut acc: Option<Vec<f32>> = None;
            for part in &parts {
                let d = as_diag(lookup(env, part)?)?;
                acc = Some(match acc {
                    None => d.to_vec(),
                    Some(prev) => {
                        exec.engine()
                            .charge(granii_matrix::WorkStats::elementwise(d.len(), 1));
                        prev.iter().zip(d).map(|(a, b)| a * b).collect()
                    }
                });
            }
            Ok(Value::Diag(acc.ok_or_else(|| {
                CoreError::InvalidIr(format!("unrecognized elementwise step {sig}"))
            })?))
        }
        PrimitiveKind::Binning => Err(CoreError::InvalidIr(
            "binning never appears in GRANII-generated programs".into(),
        )),
    }
}

/// Binds the add expression produced by the Add rule: later steps reference
/// the whole `(a + b)` expression, so store the sum under it too.
fn binary(parts: &[String], sig: &str) -> Result<(String, String)> {
    if parts.len() != 2 {
        return Err(CoreError::InvalidIr(format!(
            "expected a binary product in {sig}, found {} parts",
            parts.len()
        )));
    }
    Ok((parts[0].clone(), parts[1].clone()))
}

fn as_dense(v: &Value) -> Result<&DenseMatrix> {
    match v {
        Value::Dense(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "expected dense, got {other:?}"
        ))),
    }
}

fn as_sparse(v: &Value) -> Result<&CsrMatrix> {
    match v {
        Value::Sparse(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "expected sparse, got {other:?}"
        ))),
    }
}

fn as_diag(v: &Value) -> Result<&[f32]> {
    match v {
        Value::Diag(d) => Ok(d),
        other => Err(CoreError::InvalidIr(format!(
            "expected diagonal, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CompiledModel;
    use granii_gnn::spec::{LayerConfig, ModelKind};
    use granii_gnn::GraphCtx;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::ops;

    /// Weight names are model-specific (GIN's `W2` is its second MLP layer,
    /// TAGCN's `W2` is a per-hop weight), so fixtures are built per model.
    fn weights(model: ModelKind, cfg: LayerConfig) -> BTreeMap<String, DenseMatrix> {
        let mut w = BTreeMap::new();
        let scale = 0.5;
        match model {
            ModelKind::Gin => {
                w.insert(
                    "W1".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 2),
                );
                w.insert(
                    "W2".into(),
                    DenseMatrix::random(cfg.k_out, cfg.k_out, scale, 3),
                );
            }
            ModelKind::Tagcn => {
                for k in 0..=cfg.hops {
                    w.insert(
                        format!("W{k}"),
                        DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 4 + k as u64),
                    );
                }
            }
            ModelKind::Sage => {
                w.insert(
                    "W_self".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 10),
                );
                w.insert(
                    "W_neigh".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 11),
                );
            }
            _ => {
                w.insert(
                    "W".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 1),
                );
                w.insert("a_l".into(), DenseMatrix::random(cfg.k_out, 1, scale, 12));
                w.insert("a_r".into(), DenseMatrix::random(cfg.k_out, 1, scale, 13));
            }
        }
        w
    }

    /// Every promoted candidate of every model interprets to the same value —
    /// the numerical form of "all association trees compute the same
    /// function".
    #[test]
    fn all_promoted_programs_agree_under_interpretation() {
        let g = generators::power_law(25, 3, 7).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(6, 4);
        let h = DenseMatrix::random(25, 6, 1.0, 8);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let deg_inv: Vec<f32> = ctx
            .graph()
            .out_degrees()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();

        for model in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            // GIN and SAGE aggregate over the raw adjacency.
            let raw = matches!(model, ModelKind::Gin | ModelKind::Sage);
            let adj = if raw {
                ctx.graph().adj().clone()
            } else {
                ctx.adj().clone()
            };
            let w = weights(model, cfg);
            let inputs = ProgramInputs {
                adj: &adj,
                deg_inv_sqrt: ctx.deg_inv_sqrt(),
                deg_inv: &deg_inv,
                h: &h,
                weights: &w,
                eps: granii_gnn::spec::GIN_EPS,
                irregularity: ctx.irregularity(),
            };
            let plan = CompiledModel::compile(model, cfg).unwrap();
            let mut reference: Option<DenseMatrix> = None;
            for cand in &plan.candidates {
                let out = execute(&exec, &cand.program, &inputs)
                    .unwrap_or_else(|e| panic!("{model}/{}: {e}", cand.program.expr));
                match &reference {
                    None => reference = Some(out),
                    Some(r) => {
                        let diff = out.max_abs_diff(r).unwrap();
                        assert!(diff < 1e-3, "{model}/{}: diff {diff}", cand.program.expr);
                    }
                }
            }
        }
    }

    /// The interpreted GCN program equals the closed-form reference
    /// `relu(D A D H W)` computed with raw kernels.
    #[test]
    fn gcn_interpretation_matches_closed_form() {
        let g = generators::power_law(20, 3, 9).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(5, 3);
        let h = DenseMatrix::random(20, 5, 1.0, 10);
        let w = weights(ModelKind::Gcn, cfg);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);

        let d = ctx.deg_inv_sqrt();
        let norm = ops::scale_csr(Some(d), ctx.adj(), Some(d)).unwrap();
        let reference = ops::gemm(
            &ops::spmm(&norm, &h, Semiring::plus_mul()).unwrap(),
            &w["W"],
        )
        .unwrap()
        .relu();

        let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
        let deg_inv = vec![0.0f32; 20];
        let inputs = ProgramInputs {
            adj: ctx.adj(),
            deg_inv_sqrt: d,
            deg_inv: &deg_inv,
            h: &h,
            weights: &w,
            eps: 0.0,
            irregularity: 0.0,
        };
        for cand in &plan.candidates {
            let out = execute(&exec, &cand.program, &inputs).unwrap();
            let diff = out.max_abs_diff(&reference).unwrap();
            assert!(diff < 1e-4, "{}: diff {diff}", cand.program.expr);
        }
    }

    /// Unbound operands are reported, not panicked on.
    #[test]
    fn missing_weights_are_typed_errors() {
        let g = generators::ring(6).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(4, 4);
        let h = DenseMatrix::zeros(6, 4).unwrap();
        let empty = BTreeMap::new();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
        let deg_inv = vec![0.0f32; 6];
        let inputs = ProgramInputs {
            adj: ctx.adj(),
            deg_inv_sqrt: ctx.deg_inv_sqrt(),
            deg_inv: &deg_inv,
            h: &h,
            weights: &empty,
            eps: 0.0,
            irregularity: 0.0,
        };
        let err = execute(&exec, &plan.candidates[0].program, &inputs).unwrap_err();
        assert!(matches!(err, CoreError::InvalidIr(_)), "{err}");
    }
}
