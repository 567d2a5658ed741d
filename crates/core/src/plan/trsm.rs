//! Triangular execution plans: TRSM and, as an extension (the paper's
//! future-work "other BLAS functions under the SIMD-friendly data layout"),
//! TRMM.
//!
//! TRSM solves `op(A)·X = α·B` (left) or `X·op(A) = α·B` (right); TRMM
//! computes `B = α·op(A)·B` (left) or `B = α·B·op(A)` (right); both
//! overwrite B. The two share one plan body, [`TriPlan`]: the same mode
//! canonicalization (`X·op(A) = (op(A)ᵀ·Xᵀ)ᵀ`, reversal turns
//! effective-upper into lower), Batch Counter, Pack Selecter, packed
//! triangle strips and column-panel loop. A [`TriOp`] supplies only what
//! really differs: the diagonal-block cap, reciprocal vs direct diagonal,
//! where α is applied, the block order and the kernel table. A
//! canonical-lower *multiply* consumes original rows at or **above** each
//! row, so TRMM runs its diagonal blocks **bottom-up**; TRSM solves
//! top-down.

use crate::autotune;
use crate::config::{PackPolicy, TuningConfig};
use crate::elem::CompactElement;
use crate::exec;
use crate::plan::{
    batching, check_shape, explain as ex, sealed, tiles, trsm_mode_bits, tune_key, Command,
    CompactOp, TriShape,
};
use iatf_layout::{CompactBatch, LayoutError, StdBatch, TrsmDims, TrsmMode};
use iatf_obs as obs;
use iatf_pack::trsm as pk;
use iatf_pack::PackBuffer;
use iatf_simd::VecWidth;
use iatf_trace as trace;
use iatf_tune::{TuneKey, TuneOp};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// What one triangular routine contributes to the shared [`TriPlan`].
/// Implemented by [`Trsm`] and [`Trmm`] only (sealed).
pub trait TriOp<E: CompactElement>: sealed::Sealed + Send + Sync + 'static {
    /// Routine tag in the tuning db and plan cache.
    const TUNE_OP: TuneOp;
    /// Routine tag in the telemetry counters.
    const OBS_OP: obs::Op;
    /// Routine name in the plan explainer.
    const NAME: &'static str;
    /// Explainer label for a B streamed in place.
    const DIRECT_B: &'static str;
    /// Largest diagonal block one kernel call handles.
    const TMAX: usize;
    /// Pack reciprocal (solve) rather than direct (multiply) diagonals.
    const RECIP: bool;
    /// α is folded into the B panel pack (forcing it when α ≠ 1) rather
    /// than applied by the kernel.
    const ALPHA_IN_PACK: bool;
    /// Visit the diagonal blocks bottom-up.
    const BOTTOM_UP: bool;
    /// Resolved block-kernel handle.
    type Kernel: Copy + Send + Sync + core::fmt::Debug + 'static;

    /// Looks up the `(mb, w)` block kernel.
    fn kernel_for(width: VecWidth, mb: usize, w: usize) -> Self::Kernel;

    /// Invokes a pre-resolved block kernel (`alpha` is ignored when
    /// [`Self::ALPHA_IN_PACK`]).
    ///
    /// # Safety
    /// The addressing contract of `iatf_kernels::RealTrsmKernel`; `kernel`
    /// must match the block shape.
    #[allow(clippy::too_many_arguments)]
    unsafe fn kernel(
        kernel: Self::Kernel,
        kk: usize,
        alpha: E,
        pa_rect: *const E::Real,
        a_i: usize,
        a_k: usize,
        pa_tri: *const E::Real,
        panel: *mut E::Real,
        row0: usize,
        row_stride: usize,
        col_stride: usize,
    );

    /// Install-time stats and certification of the dispatched kernels.
    fn kernel_report(
        blocks: &[(usize, usize)],
        panels: &[(usize, usize)],
    ) -> (Vec<obs::KernelStats>, Option<obs::VerifySummary>);
}

/// Triangular solve (TRSM).
#[derive(Copy, Clone, Debug)]
pub enum Trsm {}

/// Triangular multiply (TRMM).
#[derive(Copy, Clone, Debug)]
pub enum Trmm {}

impl sealed::Sealed for Trsm {}
impl sealed::Sealed for Trmm {}

impl<E: CompactElement> TriOp<E> for Trsm {
    const TUNE_OP: TuneOp = TuneOp::Trsm;
    const OBS_OP: obs::Op = obs::Op::Trsm;
    const NAME: &'static str = "trsm";
    const DIRECT_B: &'static str = "on-demand";
    const TMAX: usize = E::TRSM_TMAX;
    const RECIP: bool = true;
    const ALPHA_IN_PACK: bool = true;
    const BOTTOM_UP: bool = false;
    type Kernel = E::TrsmK;

    fn kernel_for(width: VecWidth, mb: usize, w: usize) -> E::TrsmK {
        E::trsm_kernel_for(width, mb, w)
    }

    // SAFETY: unsafe fn — forwards the caller's pointer/stride contract unchanged to the TRSM shim.
    unsafe fn kernel(
        kernel: E::TrsmK,
        kk: usize,
        _alpha: E,
        pa_rect: *const E::Real,
        a_i: usize,
        a_k: usize,
        pa_tri: *const E::Real,
        panel: *mut E::Real,
        row0: usize,
        rs: usize,
        cs: usize,
    ) {
        E::trsm_kernel(kernel, kk, pa_rect, a_i, a_k, pa_tri, panel, row0, rs, cs);
    }

    fn kernel_report(
        blocks: &[(usize, usize)],
        panels: &[(usize, usize)],
    ) -> (Vec<obs::KernelStats>, Option<obs::VerifySummary>) {
        (
            ex::trsm_kernel_stats(E::DTYPE, blocks, panels),
            (!E::DTYPE.is_complex())
                .then(|| ex::verify_summary(ex::trsm_contracts(E::DTYPE, blocks, panels))),
        )
    }
}

impl<E: CompactElement> TriOp<E> for Trmm {
    const TUNE_OP: TuneOp = TuneOp::Trmm;
    const OBS_OP: obs::Op = obs::Op::Trmm;
    const NAME: &'static str = "trmm";
    const DIRECT_B: &'static str = "direct";
    // No register-capacity special case beyond the block kernel size:
    // block uniformly by the kernel height.
    const TMAX: usize = E::TRSM_TB;
    const RECIP: bool = false;
    const ALPHA_IN_PACK: bool = false;
    const BOTTOM_UP: bool = true;
    type Kernel = E::TrmmK;

    fn kernel_for(width: VecWidth, mb: usize, w: usize) -> E::TrmmK {
        E::trmm_kernel_for(width, mb, w)
    }

    // SAFETY: unsafe fn — forwards the caller's pointer/stride contract unchanged to the TRMM shim.
    unsafe fn kernel(
        kernel: E::TrmmK,
        kk: usize,
        alpha: E,
        pa_rect: *const E::Real,
        a_i: usize,
        a_k: usize,
        pa_tri: *const E::Real,
        panel: *mut E::Real,
        row0: usize,
        rs: usize,
        cs: usize,
    ) {
        E::trmm_kernel(
            kernel, kk, alpha, pa_rect, a_i, a_k, pa_tri, panel, row0, rs, cs,
        );
    }

    // No install-time generator exists for the TRMM kernels yet, so there
    // is nothing to report or certify.
    fn kernel_report(
        _: &[(usize, usize)],
        _: &[(usize, usize)],
    ) -> (Vec<obs::KernelStats>, Option<obs::VerifySummary>) {
        (Vec::new(), None)
    }
}

/// A reusable execution plan for compact batched TRSM:
/// `op(A)·X = α·B` (left) or `X·op(A) = α·B` (right), X overwriting B.
pub type TrsmPlan<E> = TriPlan<E, Trsm>;

/// A reusable execution plan for compact batched TRMM:
/// `B = α·op(A)·B` (left) or `B = α·B·op(A)` (right).
pub type TrmmPlan<E> = TriPlan<E, Trmm>;

/// The triangular plan body shared by [`TrsmPlan`] and [`TrmmPlan`].
#[derive(Clone, Debug)]
pub struct TriPlan<E: CompactElement, K: TriOp<E>> {
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
    /// True when B panels must be gathered (mode not canonical on B; for
    /// TRSM, α ≠ 1 additionally forces packing at execute time).
    pub pack_b_structural: bool,
    blocks: Vec<(usize, usize)>,
    a_blocks: Vec<pk::ABlockLayout>,
    a_len: usize,
    panels: Vec<(usize, usize)>,
    /// Kernel handles resolved at build time, one per `(panel, block)`
    /// grid cell (row-major over `panels × blocks`), so the block loop
    /// does one indirect call per block with no table walk.
    block_kernels: Vec<K::Kernel>,
    use_parallel: bool,
    commands: OnceLock<Vec<Command>>,
    _marker: PhantomData<(E, K)>,
}

impl<E: CompactElement, K: TriOp<E>> TriPlan<E, K> {
    /// Builds a plan from the input matrix properties (B is `m × n`; A has
    /// the order of the selected side).
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
        let blocks = pk::block_decomposition(map.t, E::TRSM_TB, K::TMAX);
        let (a_blocks, a_len) = pk::a_layout::<E>(p, &blocks);
        let panels = tiles(map.bn, E::TRSM_NR);

        // A tuned entry (when the policy consults the db) overrides the
        // static Pack Selecter / Batch Counter outputs below.
        let tuned = autotune::lookup::<Self>(TriShape::new(dims, mode, conj), count, cfg);

        // Pack Selecter: the panel can be streamed in place only when the
        // canonical mapping is the identity on B (left side, no reversal).
        let identity_b = !map.reversed && !map.side_right;
        let pack_b_structural = match tuned.map_or(cfg.pack, |t| t.pack) {
            PackPolicy::Always => true,
            PackPolicy::Never | PackPolicy::Auto => !identity_b,
        };

        let g = p * E::SCALARS;
        let scalar_bytes = core::mem::size_of::<E::Real>();
        // Batch Counter (§5.1): the packed triangle strip plus B cycle L1.
        let bytes_per_pack = (a_len + map.t * map.bn * g) * scalar_bytes;
        let packs = count.div_ceil(p);
        let (gp, use_parallel) = batching(tuned, cfg, bytes_per_pack, packs);

        let block_kernels = panels
            .iter()
            .flat_map(|&(_, w)| {
                blocks
                    .iter()
                    .map(move |&(_, mb)| K::kernel_for(width, mb, w))
            })
            .collect();

        obs::count_plan_build(K::OBS_OP, count);
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
            use_parallel,
            commands: OnceLock::new(),
            _marker: PhantomData,
        })
    }

    /// Problem dimensions.
    pub fn dims(&self) -> TrsmDims {
        self.dims
    }

    /// Side/transpose/uplo/diag mode.
    pub fn mode(&self) -> TrsmMode {
        self.mode
    }

    /// The canonicalizing index map (exposed for tests/diagnostics).
    pub fn index_map(&self) -> &pk::TrsmIndexMap {
        &self.map
    }

    /// The diagonal-block decomposition (TRMM executes it bottom-up).
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
        let t = self.map.t;
        check_shape("A", a, (t, t), self.count, self.width)?;
        check_shape("B", b, (self.dims.m, self.dims.n), self.count, self.width)
    }

    /// Executes the plan, overwriting B with the solution X (TRSM) or the
    /// product (TRMM).
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

    /// Validates, then runs every super-block serially or on every core.
    pub(crate) fn run(
        &self,
        parallel: bool,
        alpha: E,
        a: &CompactBatch<E>,
        b: &mut CompactBatch<E>,
    ) -> Result<(), LayoutError> {
        self.validate(a, b)?;
        obs::count_execute(K::OBS_OP);
        let _trace = trace::span_arg(trace::SpanKind::Execute, self.packs as u64);
        // An α folded into the panel copy forces panel packing.
        let pack_b = self.pack_b_structural || (K::ALPHA_IN_PACK && alpha != E::one());
        let panel_cap = self.panel_cap(pack_b);
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
                    pack_b,
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

    /// Packs then solves/multiplies one super-block of packs. `b_chunk` is
    /// the contiguous scalar storage of packs `sb..sb + sb_packs` (pack
    /// stride `bps`) — shared by the serial loop and every parallel worker,
    /// so both produce bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn run_superblock(
        &self,
        alpha: E,
        pack_b: bool,
        panel_cap: usize,
        a: &CompactBatch<E>,
        b_chunk: &mut [E::Real],
        bps: usize,
        b_rows: usize,
        sb: usize,
        sb_packs: usize,
        buf: &mut PackBuffer<E::Real>,
    ) {
        obs::count_superblock(K::OBS_OP, sb_packs);
        let _trace = trace::span_arg(trace::SpanKind::Superblock, sb_packs as u64);
        let a_rows = a.rows();
        let (buf_a, buf_panel) = buf.split_two(self.a_len * sb_packs, panel_cap);
        // Packing phase: coefficient triangles for the whole super-block.
        for slot in 0..sb_packs {
            let _span = obs::phase(obs::Phase::PackA);
            let _trace = trace::span_arg(trace::SpanKind::PackA, (sb + slot) as u64);
            let pack = sb + slot;
            let live = self.p.min(self.count - pack * self.p);
            pk::pack_a_tri::<E>(
                &mut buf_a[slot * self.a_len..(slot + 1) * self.a_len],
                a.pack_slice(pack),
                a_rows,
                self.p,
                &self.map,
                &self.a_blocks,
                live,
                K::RECIP,
            );
            obs::count_packed_bytes_a(self.a_len * core::mem::size_of::<E::Real>());
        }
        // Compute phase: per pack, per column panel, per diagonal block.
        for slot in 0..sb_packs {
            let ab = &buf_a[slot * self.a_len..(slot + 1) * self.a_len];
            let b_pack = &mut b_chunk[slot * bps..(slot + 1) * bps];
            self.run_pack(alpha, pack_b, ab, buf_panel, b_pack, b_rows);
        }
    }

    /// Panel scratch capacity (0 when streaming B in place).
    fn panel_cap(&self, pack_b: bool) -> usize {
        if !pack_b {
            return 0;
        }
        self.panels
            .iter()
            .map(|&(_, w)| pk::panel_b_len::<E>(self.p, self.map.t, w))
            .max()
            .unwrap_or(0)
    }

    /// Solves/multiplies one pack's B in place, given its packed A strips.
    fn run_pack(
        &self,
        alpha: E,
        pack_b: bool,
        ab: &[E::Real],
        buf_panel: &mut [E::Real],
        b_pack: &mut [E::Real],
        b_rows: usize,
    ) {
        let g = self.p * E::SCALARS;
        let block_count = self.a_blocks.len();
        let panel_alpha = if K::ALPHA_IN_PACK { alpha } else { E::one() };
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
                    panel_alpha,
                );
                obs::count_packed_bytes_b(len * core::mem::size_of::<E::Real>());
                (buf_panel.as_mut_ptr(), w * g, g)
            } else {
                // Stream the compact B columns in place: row stride is one
                // element group, column stride one column.
                // SAFETY: `j0` is a validated column-tile origin, so the offset stays inside the `b_rows`-column panel.
                let ptr = unsafe { b_pack.as_mut_ptr().add(j0 * b_rows * g) };
                (ptr, g, b_rows * g)
            };
            {
                let _span = obs::phase(obs::Phase::Compute);
                let _trace = trace::span_arg(trace::SpanKind::Compute, j0 as u64);
                for step in 0..block_count {
                    // TRMM goes bottom-up: rows above any block stay
                    // original until that block consumes them.
                    let bi = if K::BOTTOM_UP {
                        block_count - 1 - step
                    } else {
                        step
                    };
                    let blk = &self.a_blocks[bi];
                    obs::count_dispatch(
                        K::OBS_OP,
                        blk.mb,
                        w,
                        blk.mb == E::TRSM_TB && w == E::TRSM_NR,
                    );
                    // SAFETY: the panel covers rows 0..t × w columns; the packed
                    // A strips cover blk's rect and triangle; the handle was
                    // resolved for this (block, panel) shape at build time.
                    unsafe {
                        K::kernel(
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
    /// Predicted packed bytes assume α = 1 (for TRSM, α ≠ 1 additionally
    /// forces panel packing at execute time).
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
        // t(t+1)/2 MACs per B column (a solve counts the diagonal
        // division as one)
        let macs = (t * (t + 1) / 2 * self.map.bn * self.count) as u64;
        let panel_bytes: usize = if self.pack_b_structural {
            self.panels
                .iter()
                .map(|&(_, w)| pk::panel_b_len::<E>(self.p, t, w))
                .sum()
        } else {
            0
        };
        let (kernels, verify) = K::kernel_report(&self.blocks, &self.panels);
        obs::PlanExplain {
            op: K::NAME.into(),
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
                K::DIRECT_B
            }
            .into(),
            predicted_flops: E::DTYPE.flops_per_mac() as u64 * macs,
            predicted_packed_bytes: ((self.a_len + panel_bytes) * self.packs) as u64 * scalar_bytes,
            predicted_dispatches: (self.blocks.len() * self.panels.len() * self.packs) as u64,
            kernels,
            verify,
            tile_classes: classes,
        }
    }
}

impl<E: CompactElement> TrsmPlan<E> {
    /// The plan rendered as the paper's command-queue view (assuming packed
    /// panels; the no-pack fast path elides Pack/Unpack commands). Rendered
    /// once on first call and cached in the plan.
    pub fn commands(&self) -> &[Command] {
        self.commands.get_or_init(|| self.render_commands())
    }

    fn render_commands(&self) -> Vec<Command> {
        let mut out = Vec::new();
        let mut sb = 0usize;
        while sb < self.packs {
            let sb_packs = self.group_packs.min(self.packs - sb);
            for slot in 0..sb_packs {
                out.push(Command::PackA { pack: sb + slot });
            }
            for slot in 0..sb_packs {
                let pack = sb + slot;
                for &(j0, w) in &self.panels {
                    if self.pack_b_structural {
                        out.push(Command::PackPanel { pack, j0, w });
                    }
                    for &(r0, mb) in &self.blocks {
                        out.push(Command::TrsmBlock {
                            pack,
                            j0,
                            r0,
                            mb,
                            kk: r0,
                        });
                    }
                    if self.pack_b_structural {
                        out.push(Command::UnpackPanel { pack, j0, w });
                    }
                }
            }
            sb += sb_packs;
        }
        obs::count_plan_commands(out.len());
        out
    }
}

impl<E: CompactElement, K: TriOp<E>> sealed::Sealed for TriPlan<E, K> {}

impl<E: CompactElement, K: TriOp<E>> CompactOp for TriPlan<E, K> {
    type Shape = TriShape;
    type Sig = (bool, usize);
    /// `[A, B]`.
    type Operands = [CompactBatch<E>; 2];

    fn validate(s: TriShape) -> Result<(), LayoutError> {
        s.dims.validate()
    }

    fn tune_key(s: TriShape, count: usize, width: VecWidth) -> TuneKey {
        let bits = (trsm_mode_bits(s.mode), s.conj as u8);
        tune_key(
            K::TUNE_OP,
            E::DTYPE,
            (s.dims.m, s.dims.n, 0),
            bits,
            count,
            width,
        )
    }

    fn flops(s: TriShape, count: usize) -> f64 {
        super::flops::<E>(s.dims.macs(s.mode), count)
    }

    fn matrix_bytes(s: TriShape) -> usize {
        let q = s.dims.triangle_order(s.mode);
        (q * q + s.dims.m * s.dims.n) * core::mem::size_of::<E>()
    }

    fn build(s: TriShape, count: usize, cfg: &TuningConfig) -> Result<Self, LayoutError> {
        Self::new(s.dims, s.mode, s.conj, count, cfg)
    }

    fn use_parallel(&self) -> bool {
        self.use_parallel
    }

    fn explain(&self) -> obs::PlanExplain {
        TriPlan::explain(self)
    }

    fn signature(&self) -> Self::Sig {
        (self.pack_b_structural, self.group_packs)
    }

    fn group_packs(&self) -> usize {
        self.group_packs
    }

    fn operands(s: TriShape, count: usize, width: VecWidth) -> Self::Operands {
        // Identity A makes the repeated in-place solve/multiply a bitwise
        // fixed point: X = 1·B every rep, no drift, no overflow.
        let q = s.dims.triangle_order(s.mode);
        let eye = StdBatch::from_fn(
            q,
            q,
            count,
            |_, i, j| if i == j { E::one() } else { E::zero() },
        );
        let mut a = CompactBatch::from_std_at(&eye, width);
        a.pad_triangle_identity();
        let b = StdBatch::random(s.dims.m, s.dims.n, count, 0xF1D0);
        [a, CompactBatch::from_std_at(&b, width)]
    }

    fn run_on(&self, parallel: bool, [a, b]: &mut Self::Operands) {
        let _ = self.run(parallel, E::one(), a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_layout::{Diag, Side, Trans, Uplo};

    #[test]
    fn canonical_mode_streams_b() {
        let cfg = TuningConfig::default();
        let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert!(!p.pack_b_structural);
        // LTUN: trans flips upper to effective-lower — still identity on B.
        let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), TrsmMode::LTUN, false, 4, &cfg).unwrap();
        assert!(!p.pack_b_structural);
        // LNUN reverses rows — must pack.
        let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), TrsmMode::LNUN, false, 4, &cfg).unwrap();
        assert!(p.pack_b_structural);
        // right side transposes B — must pack.
        let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Lower, Diag::NonUnit);
        let p = TrsmPlan::<f64>::new(TrsmDims::new(4, 8), right, false, 4, &cfg).unwrap();
        assert!(p.pack_b_structural);
    }

    #[test]
    fn block_structure_matches_capacity() {
        let cfg = TuningConfig::default();
        // M = 5 real: single register-resident block.
        let p = TrsmPlan::<f32>::new(TrsmDims::new(5, 5), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 5)]);
        // M = 9: blocked 4+4+1.
        let p = TrsmPlan::<f32>::new(TrsmDims::new(9, 5), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 4), (8, 1)]);
        // complex: capacity 2.
        let p =
            TrsmPlan::<iatf_simd::c64>::new(TrsmDims::new(5, 5), TrsmMode::LNLN, false, 4, &cfg)
                .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn command_queue_solves_blocks_in_order() {
        let cfg = TuningConfig::default();
        let p = TrsmPlan::<f64>::new(TrsmDims::new(9, 4), TrsmMode::LNUN, false, 2, &cfg).unwrap();
        let cmds = p.commands();
        // within each panel the blocks must appear with increasing r0 and
        // kk == r0 (rows solved so far)
        let mut last: Option<(usize, usize, usize)> = None;
        for c in cmds {
            if let Command::TrsmBlock {
                pack, j0, r0, kk, ..
            } = c
            {
                assert_eq!(r0, kk);
                if let Some((lp, lj, lr)) = last {
                    if lp == *pack && lj == *j0 {
                        assert!(*r0 > lr);
                    }
                }
                last = Some((*pack, *j0, *r0));
            }
        }
        // every panel is packed and unpacked exactly once per pack
        let packs = cmds
            .iter()
            .filter(|c| matches!(c, Command::PackPanel { .. }))
            .count();
        let unpacks = cmds
            .iter()
            .filter(|c| matches!(c, Command::UnpackPanel { .. }))
            .count();
        assert_eq!(packs, unpacks);
        assert_eq!(packs, 1); // one pack × one panel of width 4
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = TuningConfig::default();
        let plan =
            TrsmPlan::<f64>::new(TrsmDims::new(3, 4), TrsmMode::LNLN, false, 2, &cfg).unwrap();
        let a = CompactBatch::<f64>::zeroed(3, 3, 2);
        let mut b = CompactBatch::<f64>::zeroed(3, 4, 2);
        assert!(plan.execute(1.0, &a, &mut b).is_ok());
        let a_bad = CompactBatch::<f64>::zeroed(4, 4, 2);
        assert!(plan.execute(1.0, &a_bad, &mut b).is_err());
        let mut b_bad = CompactBatch::<f64>::zeroed(4, 3, 2);
        assert!(plan.execute(1.0, &a, &mut b_bad).is_err());
        // right side: triangle order is N
        let right = TrsmMode::new(Side::Right, Trans::No, Uplo::Upper, Diag::NonUnit);
        let plan = TrsmPlan::<f64>::new(TrsmDims::new(3, 4), right, false, 2, &cfg).unwrap();
        let a4 = CompactBatch::<f64>::zeroed(4, 4, 2);
        let mut b34 = CompactBatch::<f64>::zeroed(3, 4, 2);
        assert!(plan.execute(1.0, &a4, &mut b34).is_ok());
    }

    #[test]
    fn blocks_are_uniform_kernel_height() {
        let cfg = TuningConfig::default();
        let p = TrmmPlan::<f64>::new(TrsmDims::new(11, 4), TrsmMode::LNLN, false, 4, &cfg).unwrap();
        assert_eq!(p.blocks(), &[(0, 4), (4, 4), (8, 3)]);
        let p =
            TrmmPlan::<iatf_simd::c32>::new(TrsmDims::new(5, 4), TrsmMode::LNLN, false, 4, &cfg)
                .unwrap();
        assert_eq!(p.blocks(), &[(0, 2), (2, 2), (4, 1)]);
    }

    #[test]
    fn trmm_rejects_bad_shapes() {
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
