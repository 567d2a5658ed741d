//! The run-time stage (paper §5).
//!
//! Planning turns input matrix properties into an execution plan:
//!
//! 1. **Batch Counter** ([`group_packs`]) — how many packs of `P` matrices
//!    are packed and computed per super-block, sized to the L1 budget.
//! 2. **Pack Selecter** — whether each operand is packed or streamed
//!    directly (the no-pack strategy), folded into the plan structs.
//! 3. **Execution Plan Generator** — the tile/panel decomposition, kernel
//!    selection, and the command queue binding everything together.
//!
//! Plans are immutable once built and reusable across executions with the
//! same shapes — the paper's point that "it only generates this execution
//! plan at the beginning", amortizing run-time overhead over the group.
//!
//! Every plan type is also a [`CompactOp`]: the op descriptor that lets the
//! one-shot entry path, the autotuner and the plan cache treat GEMM, TRSM
//! and TRMM as rows of one table instead of three copies of one pipeline.

pub mod cache;
pub(crate) mod explain;
pub mod gemm;
pub mod trsm;

pub use cache::PlanCacheStats;
pub use gemm::GemmPlan;
pub use trsm::{TriOp, TriPlan, Trmm, TrmmPlan, Trsm, TrsmPlan};

use crate::autotune::TunedDecision;
use crate::config::{BatchPolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::exec;
use iatf_layout::{CompactBatch, GemmDims, GemmMode, LayoutError, TrsmDims, TrsmMode};
use iatf_obs::PlanExplain;
use iatf_simd::{DType, VecWidth};
use iatf_tune::{TuneKey, TuneOp};

/// The op descriptor: everything the entry path ([`crate::api`]), the
/// autotuner ([`crate::autotune`]) and the [plan cache](cache) need to know
/// about one compact BLAS routine. [`GemmPlan`] and [`TriPlan`] (TRSM and
/// TRMM) implement it; the trait is sealed, so the set of ops is this
/// crate's to extend.
pub trait CompactOp: Sized + Send + Sync + 'static + sealed::Sealed {
    /// The input properties the planner keys on (dims, mode, conjugation).
    type Shape: Copy;
    /// The plan decisions that affect execution; sweep candidates with
    /// equal signatures are measured once.
    type Sig: PartialEq;
    /// Synthetic operands a sweep times the candidate plans on.
    type Operands;

    /// Rejects empty dimensions, as plan construction would.
    fn validate(shape: Self::Shape) -> Result<(), LayoutError>;
    /// The tuning-db key for this input; the plan cache keys on it too.
    fn tune_key(shape: Self::Shape, count: usize, width: VecWidth) -> TuneKey;
    /// Floating-point operations of one call over `count` matrices.
    fn flops(shape: Self::Shape, count: usize) -> f64;
    /// Bytes of all operands of one matrix of the group (sizes sweeps).
    fn matrix_bytes(shape: Self::Shape) -> usize;
    /// Runs the Batch Counter, Pack Selecter and plan generator.
    fn build(shape: Self::Shape, count: usize, cfg: &TuningConfig) -> Result<Self, LayoutError>;
    /// Whether the one-shot API runs this plan on every core.
    fn use_parallel(&self) -> bool;
    /// Structured description of what one execute will do.
    fn explain(&self) -> PlanExplain;
    /// Sweep dedupe signature.
    fn signature(&self) -> Self::Sig;
    /// Packs per super-block (Batch Counter output).
    fn group_packs(&self) -> usize;
    /// Sweep operands sized like the input but `count` matrices long,
    /// chosen so repeated timing reps stay bounded: β = 0 GEMM, identity-A
    /// TRSM/TRMM (each rep is a bitwise fixed point).
    fn operands(shape: Self::Shape, count: usize, width: VecWidth) -> Self::Operands;
    /// Executes the plan once on sweep operands (α = 1).
    fn run_on(&self, parallel: bool, ops: &mut Self::Operands);
}

mod sealed {
    pub trait Sealed {}
}

/// GEMM input properties: the [`CompactOp::Shape`] of [`GemmPlan`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GemmShape {
    /// Problem dimensions.
    pub dims: GemmDims,
    /// Transpose mode.
    pub mode: GemmMode,
    /// Conjugate A as stored.
    pub conj_a: bool,
    /// Conjugate B as stored.
    pub conj_b: bool,
}

impl GemmShape {
    /// Bundles the GEMM input properties.
    pub fn new(dims: GemmDims, mode: GemmMode, conj_a: bool, conj_b: bool) -> Self {
        Self {
            dims,
            mode,
            conj_a,
            conj_b,
        }
    }
}

/// TRSM/TRMM input properties: the [`CompactOp::Shape`] of [`TriPlan`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TriShape {
    /// B's dimensions.
    pub dims: TrsmDims,
    /// Side/transpose/uplo/diag mode.
    pub mode: TrsmMode,
    /// Conjugate A.
    pub conj: bool,
}

impl TriShape {
    /// Bundles the triangular input properties.
    pub fn new(dims: TrsmDims, mode: TrsmMode, conj: bool) -> Self {
        Self { dims, mode, conj }
    }
}

pub(crate) fn gemm_mode_bits(mode: GemmMode) -> u8 {
    (mode.transa.is_trans() as u8) | ((mode.transb.is_trans() as u8) << 1)
}

pub(crate) fn trsm_mode_bits(mode: TrsmMode) -> u8 {
    ((mode.side == iatf_layout::Side::Right) as u8)
        | ((mode.trans.is_trans() as u8) << 1)
        | ((mode.uplo == iatf_layout::Uplo::Upper) as u8) << 2
        | ((mode.diag == iatf_layout::Diag::Unit) as u8) << 3
}

/// Builds a [`TuneKey`] from the op's dims and its (mode, conjugation)
/// bits; dimensions saturate at `u32::MAX`.
pub(crate) fn tune_key(
    op: TuneOp,
    dtype: DType,
    (m, n, k): (usize, usize, usize),
    (mode, conj): (u8, u8),
    count: usize,
    width: VecWidth,
) -> TuneKey {
    let dim32 = |d: usize| u32::try_from(d).unwrap_or(u32::MAX);
    TuneKey {
        op,
        dtype: dtype as u8,
        m: dim32(m),
        n: dim32(n),
        k: dim32(k),
        mode,
        conj,
        count: count as u64,
        width: width.code(),
    }
}

/// Floating-point operations of `macs` multiply-accumulates per matrix.
pub(crate) fn flops<E: CompactElement>(macs: usize, count: usize) -> f64 {
    E::DTYPE.flops_per_mac() as f64 * macs as f64 * count as f64
}

/// Greedy 1-D tile decomposition: `(start, len)` chunks of at most `step`.
/// Shared by every planner's M/N/panel tiling.
pub(crate) fn tiles(len: usize, step: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(len.div_ceil(step));
    let mut i = 0;
    while i < len {
        let h = step.min(len - i);
        out.push((i, h));
        i += h;
    }
    out
}

/// The Batch Counter (paper §5.1): packs per super-block such that the
/// packed working set stays within the L1 budget. At least one pack is
/// always processed (a single small-matrix pack fits L1 by the paper's
/// problem statement).
pub fn group_packs(
    policy: BatchPolicy,
    budget_bytes: usize,
    bytes_per_pack: usize,
    total_packs: usize,
) -> usize {
    let g = match policy {
        BatchPolicy::Fixed(g) => g,
        BatchPolicy::Auto => budget_bytes
            .checked_div(bytes_per_pack)
            .unwrap_or(total_packs),
    };
    g.clamp(1, total_packs.max(1))
}

/// The Batch Counter and the serial→parallel crossover of one plan, with a
/// tuned entry's overrides applied: `(group_packs, use_parallel)`.
pub(crate) fn batching(
    tuned: Option<TunedDecision>,
    cfg: &TuningConfig,
    bytes_per_pack: usize,
    packs: usize,
) -> (usize, bool) {
    let gp = match tuned.and_then(|t| t.group_packs) {
        Some(tuned_gp) => tuned_gp.clamp(1, packs.max(1)),
        None => group_packs(cfg.batch, cfg.l1_budget_bytes(), bytes_per_pack, packs),
    };
    let parallel = tuned.map_or_else(
        || exec::prefers_parallel(packs * bytes_per_pack, packs.div_ceil(gp)),
        |t| t.parallel,
    );
    (gp, parallel)
}

/// Checks one operand batch against the planned width, shape and count.
pub(crate) fn check_shape<E: CompactElement>(
    operand: &'static str,
    batch: &CompactBatch<E>,
    (rows, cols): (usize, usize),
    count: usize,
    width: VecWidth,
) -> Result<(), LayoutError> {
    if batch.width() != width {
        return Err(LayoutError::WidthMismatch {
            operand,
            expected: width,
            got: batch.width(),
        });
    }
    if (batch.rows(), batch.cols()) != (rows, cols) {
        return Err(LayoutError::ShapeMismatch {
            operand,
            expected: (rows, cols),
            got: (batch.rows(), batch.cols()),
        });
    }
    if batch.count() != count {
        return Err(LayoutError::BatchMismatch {
            operand,
            expected: count,
            got: batch.count(),
        });
    }
    Ok(())
}

/// One step of a rendered execution plan — the "command queue" view the
/// paper describes. Execution itself runs the equivalent structured loops;
/// the rendered queue exists for introspection and plan-invariant tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Pack operand A of one pack into the panel buffer.
    PackA {
        /// Pack index.
        pack: usize,
    },
    /// Pack operand B of one pack into the panel buffer.
    PackB {
        /// Pack index.
        pack: usize,
    },
    /// Run a GEMM microkernel on one C tile.
    Gemm {
        /// Pack index.
        pack: usize,
        /// Tile top row.
        i0: usize,
        /// Tile left column.
        j0: usize,
        /// Kernel rows.
        mr: usize,
        /// Kernel columns.
        nr: usize,
    },
    /// Pack one B column panel for TRSM (α applied here).
    PackPanel {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// Panel width.
        w: usize,
    },
    /// Run one fused TRSM block kernel.
    TrsmBlock {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// First canonical row of the block.
        r0: usize,
        /// Block height.
        mb: usize,
        /// Rows eliminated by the rectangular phase.
        kk: usize,
    },
    /// Scatter a solved panel back into B.
    UnpackPanel {
        /// Pack index.
        pack: usize,
        /// First column of the panel.
        j0: usize,
        /// Panel width.
        w: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_counter_clamps() {
        assert_eq!(group_packs(BatchPolicy::Auto, 32768, 1024, 100), 32);
        assert_eq!(group_packs(BatchPolicy::Auto, 32768, 1 << 20, 100), 1);
        assert_eq!(group_packs(BatchPolicy::Auto, 32768, 16, 3), 3);
        assert_eq!(group_packs(BatchPolicy::Fixed(8), 0, 0, 100), 8);
        assert_eq!(group_packs(BatchPolicy::Fixed(800), 0, 0, 10), 10);
        assert_eq!(group_packs(BatchPolicy::Fixed(0), 0, 0, 10), 1);
    }

    #[test]
    fn mode_bits_are_injective() {
        let mut seen = std::collections::HashSet::new();
        for mode in GemmMode::ALL {
            assert!(seen.insert(gemm_mode_bits(mode)));
        }
        let mut seen = std::collections::HashSet::new();
        for mode in TrsmMode::all() {
            assert!(seen.insert(trsm_mode_bits(mode)));
        }
    }
}
