//! TRMM execution plans (extension: the paper's future-work "other BLAS
//! functions under the SIMD-friendly data layout").
//!
//! `B = α·op(A)·B` (left) / `B = α·B·op(A)` (right) with triangular A.
//! Mode canonicalization reuses the TRSM index maps verbatim — the algebra
//! is identical (`X·op(A) = (op(A)ᵀ·Xᵀ)ᵀ`, reversal turns effective-upper
//! into lower). The one structural difference: a canonical-lower *multiply*
//! consumes original rows at or **above** each row, so diagonal blocks are
//! processed **bottom-up** (TRSM solves top-down).

use crate::autotune;
use crate::config::{PackPolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::exec;
use crate::plan::{explain as ex, group_packs, tiles};
use iatf_layout::{CompactBatch, LayoutError, TrsmDims, TrsmMode};
use iatf_simd::VecWidth;
use iatf_obs as obs;
use iatf_pack::trsm as pk;
use iatf_trace as trace;
use iatf_pack::PackBuffer;

/// A reusable execution plan for compact batched TRMM.
#[derive(Clone, Debug)]
pub struct TrmmPlan<E: CompactElement> {
    dims: TrsmDims,
    mode: TrsmMode,
    map: pk::TrsmIndexMap,
    count: usize,
    /// Vector width the plan was built for (from `cfg.width`).
    width: VecWidth,
    /// Interleaving factor at that width.
    p: usize,
    packs: usize,
    /// Packs per super-block (Batch Counter output).
    pub group_packs: usize,
    /// True when B panels must be gathered (mode not canonical on B).
    pub pack_b_structural: bool,
    blocks: Vec<(usize, usize)>,
    a_blocks: Vec<pk::ABlockLayout>,
    a_len: usize,
    panels: Vec<(usize, usize)>,
    /// Kernel handles resolved at build time, one per `(panel, block)`
    /// grid cell (row-major over `panels × blocks`), so the multiply loop
    /// does one indirect call per block with no table walk.
    block_kernels: Vec<E::TrmmK>,
    use_parallel: bool,
    _marker: core::marker::PhantomData<E>,
}

impl<E: CompactElement> TrmmPlan<E> {
    /// Builds a plan from the input matrix properties (B is `m × n`; A has
    /// the order of the selected side, exactly as in TRSM).
    pub fn new(
        dims: TrsmDims,
        mode: TrsmMode,
        conj: bool,
        count: usize,
        cfg: &TuningConfig,
    ) -> Result<Self, LayoutError> {
        let _span = obs::phase(obs::Phase::PlanBuild);
        let _trace = trace::span_arg(trace::SpanKind::PlanBuild, count as u64);
        dims.validate()?;
        if count == 0 {
            return Err(LayoutError::EmptyDimension("batch count"));
        }
        let width = cfg.width;
        let p = E::p_at(width);
        let map = pk::TrsmIndexMap::new(mode, conj, dims.m, dims.n);
        // TRMM has no register-capacity special case to exploit beyond the
        // block kernel size: block uniformly by the kernel height.
        let blocks = pk::block_decomposition(map.t, E::TRSM_TB, E::TRSM_TB);
        let (a_blocks, a_len) = pk::a_layout::<E>(p, &blocks);
        let panels = tiles(map.bn, E::TRSM_NR);
        // A tuned entry (when the policy consults the db) overrides the
        // static Pack Selecter / Batch Counter outputs below.
        let tuned = autotune::lookup_trmm::<E>(dims, mode, conj, count, cfg);
        let identity_b = !map.reversed && !map.side_right;
        let pack_policy = tuned.and_then(|t| t.pack).unwrap_or(cfg.pack);
        let pack_b_structural = match pack_policy {
            PackPolicy::Always => true,
            PackPolicy::Never | PackPolicy::Auto => !identity_b,
        };
        let g = p * E::SCALARS;
        let scalar_bytes = core::mem::size_of::<E::Real>();
        let bytes_per_pack = (a_len + map.t * map.bn * g) * scalar_bytes;
        let packs = count.div_ceil(p);
        let gp = match tuned.and_then(|t| t.group_packs) {
            Some(tuned_gp) => tuned_gp.clamp(1, packs.max(1)),
            None => group_packs(cfg.batch, cfg.l1_budget_bytes(), bytes_per_pack, packs),
        };
        let block_kernels = panels
            .iter()
            .flat_map(|&(_, w)| {
                blocks
                    .iter()
                    .map(move |&(_, mb)| E::trmm_kernel_for(width, mb, w))
            })
            .collect();
        obs::count_plan_build(obs::Op::Trmm, count);
        Ok(Self {
            dims,
            mode,
            map,
            count,
            width,
            p,
            packs,
            group_packs: gp,
            pack_b_structural,
            blocks,
            a_blocks,
            a_len,
            panels,
            block_kernels,
            use_parallel: tuned.map_or_else(
                || exec::prefers_parallel(packs * bytes_per_pack, packs.div_ceil(gp)),
                |t| t.parallel,
            ),
            _marker: core::marker::PhantomData,
        })
    }

    /// Problem dimensions.
    pub fn dims(&self) -> TrsmDims {
        self.dims
    }

    /// Mode.
    pub fn mode(&self) -> TrsmMode {
        self.mode
    }

    /// The diagonal-block decomposition (executed bottom-up).
    pub fn blocks(&self) -> &[(usize, usize)] {
        &self.blocks
    }

    /// Vector width the plan was built for.
    pub fn width(&self) -> VecWidth {
        self.width
    }

    /// Whether this input runs on every core; see
    /// [`GemmPlan::use_parallel`](crate::plan::GemmPlan::use_parallel).
    pub fn use_parallel(&self) -> bool {
        self.use_parallel
    }

    fn validate(&self, a: &CompactBatch<E>, b: &CompactBatch<E>) -> Result<(), LayoutError> {
        for (name, batch) in [("A", a), ("B", b)] {
            if batch.width() != self.width {
                return Err(LayoutError::WidthMismatch {
                    operand: name,
                    expected: self.width,
                    got: batch.width(),
                });
            }
        }
        let t = self.map.t;
        if (a.rows(), a.cols()) != (t, t) {
            return Err(LayoutError::ShapeMismatch {
                operand: "A",
                expected: (t, t),
                got: (a.rows(), a.cols()),
            });
        }
        if (b.rows(), b.cols()) != (self.dims.m, self.dims.n) {
            return Err(LayoutError::ShapeMismatch {
                operand: "B",
                expected: (self.dims.m, self.dims.n),
                got: (b.rows(), b.cols()),
            });
        }
        if a.count() != self.count || b.count() != self.count {
            return Err(LayoutError::BatchMismatch {
                operand: "A/B",
                expected: self.count,
                got: a.count().min(b.count()),
            });
        }
        Ok(())
    }

    /// Panel scratch capacity (0 when streaming B in place).
    fn panel_cap(&self) -> usize {
        if !self.pack_b_structural {
            return 0;
        }
        self.panels
            .iter()
            .map(|&(_, w)| pk::panel_b_len::<E>(self.p, self.map.t, w))
            .max()
            .unwrap_or(0)
    }

    /// Executes the plan: B is overwritten with `α·op(A)·B` (left) or
    /// `α·B·op(A)` (right).
    ///
    /// Scratch comes from the thread-local arena, so repeated executes
    /// are allocation-free after the first call on a thread.
    pub fn execute(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.run(false, alpha, a, b)
    }

    /// Multi-threaded twin of [`Self::execute`]; see
    /// [`GemmPlan::execute_parallel`](crate::plan::GemmPlan::execute_parallel).
    pub fn execute_parallel(
        &self,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.run(true, alpha, a, b)
    }

    fn run(
        &self,
        parallel: bool,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.validate(a, b)?;
        obs::count_execute(obs::Op::Trmm);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        let panel_cap = self.panel_cap();
        let gp = self.group_packs;
        let b_rows = b.rows();
        let bps = b.pack_stride();
        exec::for_each_superblock(
            b.as_scalars_mut(),
            bps * gp,
            parallel,
            |sb_idx, b_chunk, buf| {
                let sb_packs = b_chunk.len() / bps;
                self.run_superblock(
                    alpha,
                    panel_cap,
                    a,
                    b_chunk,
                    bps,
                    b_rows,
                    sb_idx * gp,
                    sb_packs,
                    buf,
                );
            },
        );
        Ok(())
    }

    /// Packs then multiplies one super-block of packs. `b_chunk` is the
    /// contiguous scalar storage of packs `sb..sb + sb_packs` (pack stride
    /// `bps`) — shared by the serial loop and every parallel worker, so
    /// both produce bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn run_superblock(
        &self,
        alpha: E,
        panel_cap: usize,
        a: &CompactBatch<E>,
        b_chunk: &mut [E::Real],
        bps: usize,
        b_rows: usize,
        sb: usize,
        sb_packs: usize,
        buf: &mut PackBuffer<E::Real>,
    ) {
        obs::count_superblock(obs::Op::Trmm, sb_packs);
        let _trace = trace::span_arg(trace::SpanKind::Superblock, sb_packs as u64);
        let a_rows = a.rows();
        let (buf_a, buf_panel) = buf.split_two(self.a_len * sb_packs, panel_cap);
        for slot in 0..sb_packs {
            let _span = obs::phase(obs::Phase::PackA);
            let _trace = trace::span_arg(trace::SpanKind::PackA, (sb + slot) as u64);
            let pack = sb + slot;
            let live = self.p.min(self.count - pack * self.p);
            // direct (non-reciprocal) diagonal for the multiply
            pk::pack_a_tri::<E>(
                &mut buf_a[slot * self.a_len..(slot + 1) * self.a_len],
                a.pack_slice(pack),
                a_rows,
                self.p,
                &self.map,
                &self.a_blocks,
                live,
                false,
            );
            obs::count_packed_bytes_a(self.a_len * core::mem::size_of::<E::Real>());
        }
        for slot in 0..sb_packs {
            let ab = &buf_a[slot * self.a_len..(slot + 1) * self.a_len];
            let b_pack = &mut b_chunk[slot * bps..(slot + 1) * bps];
            self.multiply_pack(alpha, ab, buf_panel, b_pack, b_rows);
        }
    }

    /// Multiplies one pack's B in place, given its packed A strips.
    fn multiply_pack(
        &self,
        alpha: E,
        ab: &[E::Real],
        buf_panel: &mut [E::Real],
        b_pack: &mut [E::Real],
        b_rows: usize,
    ) {
        let g = self.p * E::SCALARS;
        let pack_b = self.pack_b_structural;
        let block_count = self.a_blocks.len();
        for (pi, &(j0, w)) in self.panels.iter().enumerate() {
            let (panel_ptr, row_stride, col_stride) = if pack_b {
                let _span = obs::phase(obs::Phase::Scale);
                let _trace = trace::span_arg(trace::SpanKind::Scale, j0 as u64);
                let len = pk::panel_b_len::<E>(self.p, self.map.t, w);
                pk::pack_b_panel::<E>(
                    &mut buf_panel[..len],
                    b_pack,
                    b_rows,
                    self.p,
                    &self.map,
                    j0,
                    w,
                    E::one(),
                );
                obs::count_packed_bytes_b(len * core::mem::size_of::<E::Real>());
                (buf_panel.as_mut_ptr(), w * g, g)
            } else {
                // SAFETY: `j0` is a validated column-tile origin, so the offset stays inside the `b_rows`-column panel.
                let ptr = unsafe { b_pack.as_mut_ptr().add(j0 * b_rows * g) };
                (ptr, g, b_rows * g)
            };
            {
                let _span = obs::phase(obs::Phase::Compute);
                let _trace = trace::span_arg(trace::SpanKind::Compute, j0 as u64);
                // bottom-up over diagonal blocks: rows above any
                // block stay original until that block consumes them
                for (bi, blk) in self.a_blocks.iter().enumerate().rev() {
                    obs::count_dispatch(
                        obs::Op::Trmm,
                        blk.mb,
                        w,
                        blk.mb == E::TRSM_TB && w == E::TRSM_NR,
                    );
                    // Safety: identical operand coverage to the TRSM
                    // path, validated above; the handle was resolved for
                    // this (block, panel) shape at build time.
                    unsafe {
                        E::trmm_kernel(
                            self.block_kernels[pi * block_count + bi],
                            blk.r0,
                            alpha,
                            ab.as_ptr().add(blk.rect_off),
                            g,
                            blk.mb * g,
                            ab.as_ptr().add(blk.tri_off),
                            panel_ptr,
                            blk.r0,
                            row_stride,
                            col_stride,
                        );
                    }
                }
            }
            if pack_b {
                let _span = obs::phase(obs::Phase::Unpack);
                let _trace = trace::span_arg(trace::SpanKind::Unpack, j0 as u64);
                let len = pk::panel_b_len::<E>(self.p, self.map.t, w);
                pk::unpack_b_panel::<E>(
                    &buf_panel[..len],
                    b_pack,
                    b_rows,
                    self.p,
                    &self.map,
                    j0,
                    w,
                );
            }
        }
    }

    /// Structured description of what one `execute()` will do. `k` is 0
    /// (triangular op); tile classes are diagonal blocks × column panels.
    /// No install-time generator exists for the TRMM kernels yet, so the
    /// kernel-stats list is empty.
    pub fn explain(&self) -> obs::PlanExplain {
        let main = (E::TRSM_TB, E::TRSM_NR);
        let classes = ex::tile_classes(
            self.blocks
                .iter()
                .flat_map(|&(_, mb)| self.panels.iter().map(move |&(_, w)| (mb, w))),
            main,
        );
        let scalar_bytes = core::mem::size_of::<E::Real>() as u64;
        let t = self.map.t;
        // triangular multiply: t(t+1)/2 MACs per B column
        let macs = (t * (t + 1) / 2 * self.map.bn * self.count) as u64;
        let panel_bytes: usize = if self.pack_b_structural {
            self.panels
                .iter()
                .map(|&(_, w)| pk::panel_b_len::<E>(self.p, t, w))
                .sum()
        } else {
            0
        };
        obs::PlanExplain {
            op: "trmm".into(),
            dtype: E::DTYPE.to_string(),
            m: self.dims.m,
            n: self.dims.n,
            k: 0,
            mode: self.mode.to_string(),
            count: self.count,
            p: self.p,
            width_bits: self.width.bits(),
            uarch: iatf_kernels::row_for(self.width).uarch.to_string(),
            packs: self.packs,
            group_packs: self.group_packs,
            main_kernel: main,
            main_area_fraction: ex::main_area_fraction(&classes, t * self.map.bn),
            pack_a: "packed".into(),
            pack_b: if self.pack_b_structural {
                "packed"
            } else {
                "direct"
            }
            .into(),
            predicted_flops: E::DTYPE.flops_per_mac() as u64 * macs,
            predicted_packed_bytes: ((self.a_len + panel_bytes) * self.packs) as u64
                * scalar_bytes,
            predicted_dispatches: (self.blocks.len() * self.panels.len() * self.packs) as u64,
            kernels: Vec::new(),
            // No install-time kernel is dispatched, so there is nothing to
            // certify at plan time.
            verify: None,
            tile_classes: classes,
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_uniform_kernel_height() {
        let cfg = TuningConfig::default();
        let p = TrmmPlan::<f64>::new(TrsmDims::new(11, 4), TrsmMode::LNLN, false, 4, &cfg)
            .unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 4), (8, 3)]);
        let p = TrmmPlan::<iatf_simd::c32>::new(TrsmDims::new(5, 4), TrsmMode::LNLN, false, 4, &cfg)
            .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = TuningConfig::default();
        let plan =
            TrmmPlan::<f32>::new(TrsmDims::new(4, 6), TrsmMode::LNLN, false, 5, &cfg).unwrap();
        let a = CompactBatch::<f32>::zeroed(4, 4, 5);
        let mut b = CompactBatch::<f32>::zeroed(4, 6, 5);
        assert!(plan.execute(1.0, &a, &mut b).is_ok());
        let a_bad = CompactBatch::<f32>::zeroed(5, 5, 5);
        assert!(plan.execute(1.0, &a_bad, &mut b).is_err());
    }
}
