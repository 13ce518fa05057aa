//! The profiled primitive executor.
//!
//! Every primitive a model runs goes through [`Exec`], which (1) validates
//! shapes, (2) builds the [`WorkStats`] record for the invocation, and
//! (3) charges it to the underlying [`Engine`] — measuring wall time or
//! modeling device latency depending on the engine's policy.
//!
//! `Exec` has two value modes:
//!
//! - **real**: kernels compute actual values (correctness tests, examples,
//!   small-scale runs),
//! - **virtual**: kernels are skipped; outputs are zero-filled with the right
//!   shape/pattern. Latency charges are identical (they depend only on shapes
//!   and sparsity structure), which is what lets the evaluation harness sweep
//!   the paper's full configuration grid in seconds.

use granii_matrix::device::{ChargeSummary, Engine};
use granii_matrix::ops::{self, BroadcastOp};
use granii_matrix::{CsrMatrix, DenseMatrix, MatrixError, Semiring, WorkStats};

use crate::Result;

/// Primitive executor bound to a device engine.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'e> {
    engine: &'e Engine,
    compute: bool,
}

impl<'e> Exec<'e> {
    /// An executor that computes real values.
    pub fn real(engine: &'e Engine) -> Self {
        Self {
            engine,
            compute: true,
        }
    }

    /// An executor that only propagates shapes/patterns (zero values) but
    /// charges the same latencies.
    pub fn virtual_only(engine: &'e Engine) -> Self {
        Self {
            engine,
            compute: false,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Whether kernels compute real values.
    pub fn computes_values(&self) -> bool {
        self.compute
    }

    /// Marks the current position in the engine's charge log. Pair with
    /// [`Exec::charged_since`] to attribute the kernels a region dispatched
    /// (e.g. one ExecPlan instruction) without draining the profile.
    pub fn profile_mark(&self) -> usize {
        self.engine.profile_len()
    }

    /// Aggregated charges (kernel count, charged/predicted seconds, flops,
    /// bytes) since `mark`, leaving the engine profile intact.
    pub fn charged_since(&self, mark: usize) -> ChargeSummary {
        self.engine.summarize_since(mark)
    }

    /// Dense matrix multiplication.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn gemm(&self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        let stats = WorkStats::gemm(a.rows(), a.cols(), b.cols());
        if self.compute {
            Ok(self.engine.run(stats, || ops::gemm(a, b))?)
        } else {
            if a.cols() != b.rows() {
                return Err(MatrixError::ShapeMismatch {
                    op: "gemm",
                    lhs: a.shape(),
                    rhs: b.shape(),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(DenseMatrix::zeros(a.rows(), b.cols())?)
        }
    }

    /// Generalized SpMM; `irregularity` is the adjacency's degree CV.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn spmm(
        &self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
        semiring: Semiring,
        irregularity: f64,
    ) -> Result<DenseMatrix> {
        let weighted = semiring.mul.reads_edge() && adj.is_weighted();
        let stats = WorkStats::spmm(adj.rows(), adj.nnz(), x.cols(), weighted, irregularity);
        if self.compute {
            Ok(self.engine.run(stats, || ops::spmm(adj, x, semiring))?)
        } else {
            if adj.cols() != x.rows() {
                return Err(MatrixError::ShapeMismatch {
                    op: "spmm",
                    lhs: adj.shape(),
                    rhs: x.shape(),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(DenseMatrix::zeros(adj.rows(), x.cols())?)
        }
    }

    /// Generalized SDDMM (`mask ∘ (U · Vᵀ)`).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn sddmm(
        &self,
        mask: &CsrMatrix,
        u: &DenseMatrix,
        v: &DenseMatrix,
        irregularity: f64,
    ) -> Result<CsrMatrix> {
        let stats = WorkStats::sddmm(mask.rows(), mask.nnz(), u.cols(), irregularity);
        if self.compute {
            Ok(self.engine.run(stats, || ops::sddmm(mask, u, v))?)
        } else {
            if u.cols() != v.cols() || u.rows() != mask.rows() || v.rows() != mask.cols() {
                return Err(MatrixError::ShapeMismatch {
                    op: "sddmm",
                    lhs: u.shape(),
                    rhs: v.shape(),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(mask
                .clone()
                .drop_values()
                .with_values(vec![0.0; mask.nnz()])?)
        }
    }

    /// SDDMM with `u_add_v` on per-node scalars (GAT logits).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn sddmm_u_add_v(
        &self,
        mask: &CsrMatrix,
        ul: &[f32],
        vr: &[f32],
        irregularity: f64,
    ) -> Result<CsrMatrix> {
        let stats = WorkStats::sddmm(mask.rows(), mask.nnz(), 1, irregularity);
        if self.compute {
            Ok(self
                .engine
                .run(stats, || ops::sddmm_u_add_v(mask, ul, vr))?)
        } else {
            if ul.len() != mask.rows() || vr.len() != mask.cols() {
                return Err(MatrixError::ShapeMismatch {
                    op: "sddmm_u_add_v",
                    lhs: mask.shape(),
                    rhs: (ul.len(), vr.len()),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(mask
                .clone()
                .drop_values()
                .with_values(vec![0.0; mask.nnz()])?)
        }
    }

    /// `diag(dl) · a · diag(dr)` edge scaling, charged as an SDDMM with k = 1
    /// (it is the sampled product of two rank-1 factors).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn scale_csr(
        &self,
        dl: Option<&[f32]>,
        a: &CsrMatrix,
        dr: Option<&[f32]>,
        irregularity: f64,
    ) -> Result<CsrMatrix> {
        let stats = WorkStats::sddmm(a.rows(), a.nnz(), 1, irregularity);
        if self.compute {
            Ok(self.engine.run(stats, || ops::scale_csr(dl, a, dr))?)
        } else {
            if dl.is_some_and(|d| d.len() != a.rows()) || dr.is_some_and(|d| d.len() != a.cols()) {
                return Err(MatrixError::ShapeMismatch {
                    op: "scale_csr",
                    lhs: a.shape(),
                    rhs: (dl.map_or(0, <[f32]>::len), dr.map_or(0, <[f32]>::len)),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(a.clone().drop_values().with_values(vec![0.0; a.nnz()])?)
        }
    }

    /// Row-broadcast (`d[i] ⊙ row i`).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn row_broadcast(
        &self,
        d: &[f32],
        m: &DenseMatrix,
        op: BroadcastOp,
    ) -> Result<DenseMatrix> {
        let stats = WorkStats::row_broadcast(m.rows(), m.cols());
        if self.compute {
            Ok(self.engine.run(stats, || ops::row_broadcast(d, m, op))?)
        } else {
            if d.len() != m.rows() {
                return Err(MatrixError::ShapeMismatch {
                    op: "row_broadcast",
                    lhs: (d.len(), 1),
                    rhs: m.shape(),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(DenseMatrix::zeros(m.rows(), m.cols())?)
        }
    }

    /// Column-broadcast (`d[j] ⊙ column j`).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn col_broadcast(
        &self,
        m: &DenseMatrix,
        d: &[f32],
        op: BroadcastOp,
    ) -> Result<DenseMatrix> {
        let stats = WorkStats::col_broadcast(m.rows(), m.cols());
        if self.compute {
            Ok(self.engine.run(stats, || ops::col_broadcast(m, d, op))?)
        } else {
            if d.len() != m.cols() {
                return Err(MatrixError::ShapeMismatch {
                    op: "col_broadcast",
                    lhs: m.shape(),
                    rhs: (d.len(), 1),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(DenseMatrix::zeros(m.rows(), m.cols())?)
        }
    }

    /// Element-wise map over a dense matrix (ReLU and friends).
    pub fn map(&self, m: &DenseMatrix, flops_per_elem: u32, f: impl Fn(f32) -> f32) -> DenseMatrix {
        let stats = WorkStats::elementwise(m.rows() * m.cols(), flops_per_elem);
        if self.compute {
            self.engine.run(stats, || m.map(f))
        } else {
            self.engine.charge(stats);
            DenseMatrix::zeros(m.rows(), m.cols()).expect("same shape as input")
        }
    }

    /// Element-wise combination of two dense matrices.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn zip(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        flops_per_elem: u32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<DenseMatrix> {
        let stats = WorkStats::elementwise(a.rows() * a.cols(), flops_per_elem);
        if self.compute {
            Ok(self.engine.run(stats, || a.zip_with(b, f))?)
        } else {
            if a.shape() != b.shape() {
                return Err(MatrixError::ShapeMismatch {
                    op: "zip_with",
                    lhs: a.shape(),
                    rhs: b.shape(),
                }
                .into());
            }
            self.engine.charge(stats);
            Ok(DenseMatrix::zeros(a.rows(), a.cols())?)
        }
    }

    /// Element-wise map over sparse values (leaky-ReLU on attention logits).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is unweighted.
    pub fn map_csr_values(&self, a: &CsrMatrix, f: impl Fn(f32) -> f32) -> Result<CsrMatrix> {
        let stats = WorkStats::elementwise(a.nnz(), 1);
        let vals = a
            .values()
            .ok_or(MatrixError::MissingValues("map_csr_values"))?;
        if self.compute {
            let out = self
                .engine
                .run(stats, || vals.iter().map(|&v| f(v)).collect::<Vec<_>>());
            Ok(a.clone().drop_values().with_values(out)?)
        } else {
            self.engine.charge(stats);
            Ok(a.clone().drop_values().with_values(vec![0.0; a.nnz()])?)
        }
    }

    /// Edge softmax (attention normalization).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is unweighted.
    pub fn edge_softmax(&self, a: &CsrMatrix, irregularity: f64) -> Result<CsrMatrix> {
        let stats = WorkStats::edge_softmax(a.rows(), a.nnz(), irregularity);
        if self.compute {
            Ok(self.engine.run(stats, || ops::edge_softmax(a))?)
        } else {
            if !a.is_weighted() {
                return Err(MatrixError::MissingValues("edge_softmax").into());
            }
            self.engine.charge(stats);
            Ok(a.clone().drop_values().with_values(vec![0.0; a.nnz()])?)
        }
    }

    /// Degree computation by scatter-add binning (WiseGraph's normalization
    /// path; pays atomic contention on dense graphs).
    pub fn degrees_by_binning(&self, a: &CsrMatrix) -> Vec<f32> {
        let stats = WorkStats::binning(a.nnz(), a.cols());
        if self.compute {
            self.engine.run(stats, || ops::degrees_by_binning(a))
        } else {
            self.engine.charge(stats);
            vec![0.0; a.cols()]
        }
    }

    /// Degree computation by a row-pointer scan (the cheap path), charged as
    /// an element-wise pass over the rows.
    pub fn degrees_by_scan(&self, a: &CsrMatrix) -> Vec<f32> {
        let stats = WorkStats::elementwise(a.rows(), 1);
        self.engine.run(stats, || a.out_degrees())
    }

    // ------------------------------------------------------------------
    // `_into` variants: identical latency charges, but results land in
    // caller-provided buffers. These are the kernels the
    // compile-once execution engine drives in steady state — no allocation,
    // no clone, bitwise-equal outputs.
    // ------------------------------------------------------------------

    /// [`Exec::gemm`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mis-shaped `out`).
    pub fn gemm_into(&self, a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        let stats = WorkStats::gemm(a.rows(), a.cols(), b.cols());
        if self.compute {
            self.engine.run(stats, || ops::gemm_into(a, b, out))?;
        } else {
            if a.cols() != b.rows() {
                return Err(MatrixError::ShapeMismatch {
                    op: "gemm",
                    lhs: a.shape(),
                    rhs: b.shape(),
                }
                .into());
            }
            check_dense_out("gemm_into", (a.rows(), b.cols()), out)?;
            self.engine.charge(stats);
            out.as_mut_slice().fill(0.0);
        }
        Ok(())
    }

    /// [`Exec::spmm`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mis-shaped `out`).
    pub fn spmm_into(
        &self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
        semiring: Semiring,
        irregularity: f64,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let weighted = semiring.mul.reads_edge() && adj.is_weighted();
        let stats = WorkStats::spmm(adj.rows(), adj.nnz(), x.cols(), weighted, irregularity);
        if self.compute {
            self.engine
                .run(stats, || ops::spmm_into(adj, x, semiring, out))?;
        } else {
            if adj.cols() != x.rows() {
                return Err(MatrixError::ShapeMismatch {
                    op: "spmm",
                    lhs: adj.shape(),
                    rhs: x.shape(),
                }
                .into());
            }
            check_dense_out("spmm_into", (adj.rows(), x.cols()), out)?;
            self.engine.charge(stats);
            out.as_mut_slice().fill(0.0);
        }
        Ok(())
    }

    /// [`Exec::sddmm_u_add_v`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mismatched `out` pattern).
    pub fn sddmm_u_add_v_into(
        &self,
        mask: &CsrMatrix,
        ul: &[f32],
        vr: &[f32],
        irregularity: f64,
        out: &mut CsrMatrix,
    ) -> Result<()> {
        let stats = WorkStats::sddmm(mask.rows(), mask.nnz(), 1, irregularity);
        if self.compute {
            self.engine
                .run(stats, || ops::sddmm_u_add_v_into(mask, ul, vr, out))?;
        } else {
            if ul.len() != mask.rows() || vr.len() != mask.cols() {
                return Err(MatrixError::ShapeMismatch {
                    op: "sddmm_u_add_v",
                    lhs: mask.shape(),
                    rhs: (ul.len(), vr.len()),
                }
                .into());
            }
            check_csr_out("sddmm_u_add_v_into", mask, out)?;
            self.engine.charge(stats);
            zero_csr(out);
        }
        Ok(())
    }

    /// [`Exec::scale_csr`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mismatched `out` pattern).
    pub fn scale_csr_into(
        &self,
        dl: Option<&[f32]>,
        a: &CsrMatrix,
        dr: Option<&[f32]>,
        irregularity: f64,
        out: &mut CsrMatrix,
    ) -> Result<()> {
        let stats = WorkStats::sddmm(a.rows(), a.nnz(), 1, irregularity);
        if self.compute {
            self.engine
                .run(stats, || ops::scale_csr_into(dl, a, dr, out))?;
        } else {
            if dl.is_some_and(|d| d.len() != a.rows()) || dr.is_some_and(|d| d.len() != a.cols()) {
                return Err(MatrixError::ShapeMismatch {
                    op: "scale_csr",
                    lhs: a.shape(),
                    rhs: (dl.map_or(0, <[f32]>::len), dr.map_or(0, <[f32]>::len)),
                }
                .into());
            }
            check_csr_out("scale_csr_into", a, out)?;
            self.engine.charge(stats);
            zero_csr(out);
        }
        Ok(())
    }

    /// [`Exec::row_broadcast`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mis-shaped `out`).
    pub fn row_broadcast_into(
        &self,
        d: &[f32],
        m: &DenseMatrix,
        op: BroadcastOp,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let stats = WorkStats::row_broadcast(m.rows(), m.cols());
        if self.compute {
            self.engine
                .run(stats, || ops::row_broadcast_into(d, m, op, out))?;
        } else {
            if d.len() != m.rows() {
                return Err(MatrixError::ShapeMismatch {
                    op: "row_broadcast",
                    lhs: (d.len(), 1),
                    rhs: m.shape(),
                }
                .into());
            }
            check_dense_out("row_broadcast_into", m.shape(), out)?;
            self.engine.charge(stats);
            out.as_mut_slice().fill(0.0);
        }
        Ok(())
    }

    /// [`Exec::col_broadcast`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mis-shaped `out`).
    pub fn col_broadcast_into(
        &self,
        m: &DenseMatrix,
        d: &[f32],
        op: BroadcastOp,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let stats = WorkStats::col_broadcast(m.rows(), m.cols());
        if self.compute {
            self.engine
                .run(stats, || ops::col_broadcast_into(m, d, op, out))?;
        } else {
            if d.len() != m.cols() {
                return Err(MatrixError::ShapeMismatch {
                    op: "col_broadcast",
                    lhs: m.shape(),
                    rhs: (d.len(), 1),
                }
                .into());
            }
            check_dense_out("col_broadcast_into", m.shape(), out)?;
            self.engine.charge(stats);
            out.as_mut_slice().fill(0.0);
        }
        Ok(())
    }

    /// [`Exec::edge_softmax`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is unweighted or `out`'s pattern mismatches.
    pub fn edge_softmax_into(
        &self,
        a: &CsrMatrix,
        irregularity: f64,
        out: &mut CsrMatrix,
    ) -> Result<()> {
        let stats = WorkStats::edge_softmax(a.rows(), a.nnz(), irregularity);
        if self.compute {
            self.engine.run(stats, || ops::edge_softmax_into(a, out))?;
        } else {
            if !a.is_weighted() {
                return Err(MatrixError::MissingValues("edge_softmax").into());
            }
            check_csr_out("edge_softmax_into", a, out)?;
            self.engine.charge(stats);
            zero_csr(out);
        }
        Ok(())
    }

    /// [`Exec::map`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `out` does not match `m`'s shape.
    pub fn map_into(
        &self,
        m: &DenseMatrix,
        flops_per_elem: u32,
        f: impl Fn(f32) -> f32,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        check_dense_out("map_into", m.shape(), out)?;
        let stats = WorkStats::elementwise(m.rows() * m.cols(), flops_per_elem);
        if self.compute {
            self.engine.run(stats, || {
                for (o, &v) in out.as_mut_slice().iter_mut().zip(m.as_slice()) {
                    *o = f(v);
                }
            });
        } else {
            self.engine.charge(stats);
            out.as_mut_slice().fill(0.0);
        }
        Ok(())
    }

    /// [`Exec::zip`] applied in place (`acc = f(acc, b)` element-wise); same
    /// charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn zip_assign(
        &self,
        acc: &mut DenseMatrix,
        b: &DenseMatrix,
        flops_per_elem: u32,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<()> {
        if acc.shape() != b.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "zip_with",
                lhs: acc.shape(),
                rhs: b.shape(),
            }
            .into());
        }
        let stats = WorkStats::elementwise(acc.rows() * acc.cols(), flops_per_elem);
        if self.compute {
            self.engine.run(stats, || {
                for (o, &y) in acc.as_mut_slice().iter_mut().zip(b.as_slice()) {
                    *o = f(*o, y);
                }
            });
        } else {
            self.engine.charge(stats);
            acc.as_mut_slice().fill(0.0);
        }
        Ok(())
    }

    /// [`Exec::map_csr_values`] applied in place over `a`'s stored values;
    /// same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is unweighted.
    pub fn map_csr_assign(&self, a: &mut CsrMatrix, f: impl Fn(f32) -> f32) -> Result<()> {
        let stats = WorkStats::elementwise(a.nnz(), 1);
        let vals = a
            .values_mut()
            .ok_or(MatrixError::MissingValues("map_csr_values"))?;
        if self.compute {
            self.engine.run(stats, || {
                for v in vals.iter_mut() {
                    *v = f(*v);
                }
            });
        } else {
            self.engine.charge(stats);
            vals.fill(0.0);
        }
        Ok(())
    }

    // --- Batched (multi-RHS) variants -----------------------------------
    //
    // One kernel invocation serves `batch` column-stacked requests. The
    // charge contract is "unchanged per-column semantics": the stacked
    // kernel runs under the *single-request* WorkStats, then the same stats
    // are charged `batch - 1` more times — so the total charge equals
    // exactly `batch` serial executions and a per-request share (total /
    // batch) is bitwise the serial per-request charge on the modeled
    // engine.

    /// Charges the single-request `stats` for the `batch - 1` stacked
    /// requests that rode along with the one the kernel ran under.
    fn charge_followers(&self, stats: WorkStats, batch: usize) {
        for _ in 1..batch {
            self.engine.charge(stats);
        }
    }

    /// Batched [`Exec::gemm_into`]: per block `t < batch`,
    /// `out[:, t·k2..) = a[:, t·k1..) · b` (shared `b`), charged as `batch`
    /// serial GEMMs.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn gemm_rhs_blocks_into(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        batch: usize,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let stats = WorkStats::gemm(a.rows(), b.rows(), b.cols());
        if self.compute {
            self.engine
                .run(stats, || ops::gemm_rhs_blocks_into(a, b, batch, out))?;
        } else {
            self.engine.charge(stats);
        }
        self.charge_followers(stats, batch);
        Ok(())
    }

    /// Batched [`Exec::spmm_into`]: one adjacency pass over the leading
    /// `batch · k` columns, charged as `batch` serial `k`-column SpMMs.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    #[allow(clippy::too_many_arguments)]
    pub fn spmm_cols_into(
        &self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        semiring: Semiring,
        irregularity: f64,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let weighted = semiring.mul.reads_edge() && adj.is_weighted();
        let stats = WorkStats::spmm(adj.rows(), adj.nnz(), block_cols, weighted, irregularity);
        if self.compute {
            self.engine.run(stats, || {
                ops::spmm_cols_into(adj, x, batch * block_cols, semiring, out)
            })?;
        } else {
            self.engine.charge(stats);
        }
        self.charge_followers(stats, batch);
        Ok(())
    }

    /// Batched [`Exec::row_broadcast_into`] over the leading `batch ·
    /// block_cols` columns, charged as `batch` serial broadcasts.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn row_broadcast_cols_into(
        &self,
        d: &[f32],
        m: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        op: BroadcastOp,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let stats = WorkStats::row_broadcast(m.rows(), block_cols);
        if self.compute {
            self.engine.run(stats, || {
                ops::row_broadcast_cols_into(d, m, batch * block_cols, op, out)
            })?;
        } else {
            self.engine.charge(stats);
        }
        self.charge_followers(stats, batch);
        Ok(())
    }

    /// Batched [`Exec::col_broadcast_into`]: applies the shared per-column
    /// vector `d` to each of the `batch` blocks, charged as `batch` serial
    /// broadcasts.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn col_broadcast_blocks_into(
        &self,
        m: &DenseMatrix,
        d: &[f32],
        batch: usize,
        op: BroadcastOp,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let stats = WorkStats::col_broadcast(m.rows(), d.len());
        if self.compute {
            self.engine.run(stats, || {
                ops::col_broadcast_blocks_into(m, d, batch, op, out)
            })?;
        } else {
            self.engine.charge(stats);
        }
        self.charge_followers(stats, batch);
        Ok(())
    }

    /// Batched [`Exec::map_into`] over the leading `batch · block_cols`
    /// columns, charged as `batch` serial maps.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn map_cols_into(
        &self,
        m: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        flops_per_elem: u32,
        f: impl Fn(f32) -> f32 + Sync,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let stats = WorkStats::elementwise(m.rows() * block_cols, flops_per_elem);
        if self.compute {
            self.engine
                .run(stats, || ops::map_cols_into(m, batch * block_cols, f, out))?;
        } else {
            self.engine.charge(stats);
        }
        self.charge_followers(stats, batch);
        Ok(())
    }

    /// Batched [`Exec::zip_assign`] over the leading `batch · block_cols`
    /// columns, charged as `batch` serial accumulations.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn zip_cols_assign(
        &self,
        acc: &mut DenseMatrix,
        b: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        flops_per_elem: u32,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<()> {
        let stats = WorkStats::elementwise(acc.rows() * block_cols, flops_per_elem);
        if self.compute {
            self.engine.run(stats, || {
                ops::zip_cols_assign(acc, b, batch * block_cols, f)
            })?;
        } else {
            self.engine.charge(stats);
        }
        self.charge_followers(stats, batch);
        Ok(())
    }
}

/// Validates a dense output buffer's shape for the virtual-mode `_into` paths
/// (real mode validates inside the kernel).
fn check_dense_out(
    op: &'static str,
    want: (usize, usize),
    out: &DenseMatrix,
) -> std::result::Result<(), MatrixError> {
    if out.shape() != want {
        return Err(MatrixError::ShapeMismatch {
            op,
            lhs: want,
            rhs: out.shape(),
        });
    }
    Ok(())
}

/// Validates a CSR output buffer against the pattern source for the
/// virtual-mode `_into` paths.
fn check_csr_out(
    op: &'static str,
    pattern: &CsrMatrix,
    out: &CsrMatrix,
) -> std::result::Result<(), MatrixError> {
    if out.shape() != pattern.shape() || out.nnz() != pattern.nnz() {
        return Err(MatrixError::ShapeMismatch {
            op,
            lhs: pattern.shape(),
            rhs: out.shape(),
        });
    }
    if !out.is_weighted() {
        return Err(MatrixError::MissingValues(op));
    }
    Ok(())
}

/// Zero-fills a weighted CSR's values (virtual-mode output).
fn zero_csr(out: &mut CsrMatrix) {
    if let Some(vals) = out.values_mut() {
        vals.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::CooMatrix;

    fn adj() -> CsrMatrix {
        CooMatrix::from_entries(3, 3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
            .unwrap()
            .to_csr()
    }

    #[test]
    fn real_and_virtual_charge_identical_stats() {
        let e1 = Engine::modeled(DeviceKind::H100);
        let e2 = Engine::modeled(DeviceKind::H100);
        let a = adj();
        let x = DenseMatrix::random(3, 4, 1.0, 1);
        let w = DenseMatrix::random(4, 2, 1.0, 2);

        let run = |exec: Exec| {
            let agg = exec.spmm(&a, &x, Semiring::plus_mul(), 0.0).unwrap();
            let up = exec.gemm(&agg, &w).unwrap();
            exec.map(&up, 1, |v| v.max(0.0))
        };
        let real_out = run(Exec::real(&e1));
        let virt_out = run(Exec::virtual_only(&e2));

        assert_eq!(real_out.shape(), virt_out.shape());
        let p1 = e1.take_profile();
        let p2 = e2.take_profile();
        assert_eq!(p1.entries.len(), p2.entries.len());
        for (a, b) in p1.entries.iter().zip(&p2.entries) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.seconds, b.seconds);
        }
    }

    #[test]
    fn virtual_mode_still_validates_shapes() {
        let e = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::virtual_only(&e);
        let a = DenseMatrix::zeros(2, 3).unwrap();
        let b = DenseMatrix::zeros(4, 2).unwrap();
        assert!(exec.gemm(&a, &b).is_err());
        assert!(exec.spmm(&adj(), &b, Semiring::plus_mul(), 0.0).is_err());
        assert!(exec.row_broadcast(&[1.0], &a, BroadcastOp::Mul).is_err());
    }

    #[test]
    fn unweighted_spmm_charged_as_unweighted() {
        use granii_matrix::PrimitiveKind;
        let e = Engine::modeled(DeviceKind::H100);
        let exec = Exec::virtual_only(&e);
        let x = DenseMatrix::zeros(3, 4).unwrap();
        let unweighted = adj().drop_values();
        exec.spmm(&unweighted, &x, Semiring::plus_copy_rhs(), 0.0)
            .unwrap();
        exec.spmm(&adj(), &x, Semiring::plus_mul(), 0.0).unwrap();
        let p = e.take_profile();
        assert_eq!(p.entries[0].kind, PrimitiveKind::SpmmUnweighted);
        assert_eq!(p.entries[1].kind, PrimitiveKind::SpmmWeighted);
    }

    #[test]
    fn binning_is_costlier_than_scan_on_dense_inputs() {
        let e = Engine::modeled(DeviceKind::A100);
        let exec = Exec::virtual_only(&e);
        let dense_adj = granii_graph::generators::mycielskian(10).unwrap();
        exec.degrees_by_scan(dense_adj.adj());
        let scan_time = e.take_profile().total_seconds();
        exec.degrees_by_binning(dense_adj.adj());
        let bin_time = e.take_profile().total_seconds();
        assert!(
            bin_time > 10.0 * scan_time,
            "binning {bin_time} vs scan {scan_time}"
        );
    }
}
