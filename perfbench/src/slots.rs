//! One "slot" is one distinct caller problem: an operation, element type,
//! shape, mode and group, with its resident operands. A visit to a slot
//! makes one library call (GEMM, or a TRSM through the std API) or two
//! (a TRMM followed by a TRSM on the same A, which returns B to where it
//! started).
//!
//! Each call has three forms:
//! * `call` — the public one-shot API a caller uses (`compact_*` or
//!   `std_*_via_compact`). Only this form is timed end to end.
//! * `traced_call` — the same computation made layer by layer
//!   (`from_std_at`, `cached_*_plan`, `execute`, `unpack_into`) with a
//!   span around each. Bit-identical to `call` (serial executor, same
//!   plan). `replay_pack` then repeats the `iatf_pack` calls of that
//!   `execute`, which are not reachable from outside it, with a span.
//! * `before` + `check` — capture the inputs of two sampled matrices (a
//!   random one and the last, which sits in the padded pack) and compare
//!   the outputs with the f64 oracle.

use crate::oracle::{self, Cx, Mat};
use crate::trace::{Layer, Recorder};
use crate::workloads::{Kind, Spec};
use iatf::core::plan::cache;
use iatf::core::plan::gemm::OperandPlan;
use iatf::obs::PlanExplain;
use iatf::simd::Real;
use iatf::{
    CompactBatch, CompactElement, DType, Element, GemmDims, GemmMode, GemmPlan, LayoutError, Side,
    StdBatch, TrmmPlan, TrsmDims, TrsmMode, TrsmPlan, TuningConfig,
};
use iatf_pack::{gemm as pg, trsm as pt};
use std::time::{Duration, Instant};

/// Library time and bytes spent converting layouts in one direction.
#[derive(Copy, Clone, Debug, Default)]
pub struct Tally {
    pub bytes: u64,
    pub time: Duration,
}

impl Tally {
    pub fn add(&mut self, bytes: usize, time: Duration) {
        self.bytes += bytes as u64;
        self.time += time;
    }
}

pub trait Slot {
    fn dtype(&self) -> DType;
    /// Library calls per visit.
    fn steps(&self) -> usize;
    /// Whether the calls go through `std_*_via_compact`.
    fn via_std(&self) -> bool;
    /// Human-readable description of step `step`'s call.
    fn describe(&self, step: usize) -> String;
    /// Useful flops of step `step`, by the paper's MAC convention.
    fn flops(&self, step: usize) -> u64;
    /// Bytes of one operand (the B/C batch).
    fn operand_bytes(&self) -> usize;
    /// Chooses the checked matrices and captures their inputs.
    fn before(&mut self, step: usize, pick: u64);
    fn call(&mut self, step: usize, cfg: &TuningConfig) -> Result<(), LayoutError>;
    fn traced_call(
        &mut self,
        step: usize,
        cfg: &TuningConfig,
        rec: &mut Recorder,
        id: u32,
    ) -> Result<(), LayoutError>;
    /// Replays, with a span, the pack calls `execute` makes for step
    /// `step`, on a freshly built plan. Returns the bytes packed.
    fn replay_pack(
        &mut self,
        step: usize,
        cfg: &TuningConfig,
        rec: &mut Recorder,
        id: u32,
    ) -> Result<usize, LayoutError>;
    /// Compares the sampled outputs with the oracle.
    fn check(&mut self, step: usize) -> bool;
    /// `explain()` of a freshly built plan for step `step`.
    fn explain(&self, step: usize, cfg: &TuningConfig) -> Result<PlanExplain, LayoutError>;
    /// Time of one direct plan build for step `step`.
    fn time_build(&self, step: usize, cfg: &TuningConfig) -> Result<Duration, LayoutError>;
    /// Times `unpack_into` of the output batch (second of two, so page
    /// faults on the destination are not counted). `None` for std slots,
    /// whose calls unpack anyway.
    fn time_unpack(&self) -> Option<(usize, Duration)>;
    /// Self-test hook: perturbs one element of a checked output matrix.
    #[cfg(test)]
    fn corrupt(&mut self);
}

/// Element access shared by both layouts, for the oracle.
trait Source<E: Element> {
    fn shape(&self) -> (usize, usize);
    fn elem(&self, v: usize, i: usize, j: usize) -> E;
    #[cfg(test)]
    fn put(&mut self, v: usize, i: usize, j: usize, x: E);
}

impl<E: Element> Source<E> for CompactBatch<E> {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    fn elem(&self, v: usize, i: usize, j: usize) -> E {
        self.get(v, i, j)
    }
    #[cfg(test)]
    fn put(&mut self, v: usize, i: usize, j: usize, x: E) {
        self.set(v, i, j, x);
    }
}

impl<E: Element> Source<E> for StdBatch<E> {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    fn elem(&self, v: usize, i: usize, j: usize) -> E {
        self.get(v, i, j)
    }
    #[cfg(test)]
    fn put(&mut self, v: usize, i: usize, j: usize, x: E) {
        self.set(v, i, j, x);
    }
}

fn cx<E: Element>(x: E) -> Cx {
    Cx::new(x.re().to_f64(), x.im().to_f64())
}

fn extract<E: Element>(s: &dyn Source<E>, v: usize) -> Mat {
    let (rows, cols) = s.shape();
    Mat::from_fn(rows, cols, |i, j| cx(s.elem(v, i, j)))
}

#[cfg(test)]
fn flip<E: Element>(s: &mut dyn Source<E>, v: usize) {
    let x = s.elem(v, 0, 0);
    s.put(
        v,
        0,
        0,
        E::from_f64s(1.0 - 2.0 * x.re().to_f64(), x.im().to_f64()),
    );
}

fn unit_roundoff<E: Element>() -> f64 {
    oracle::unit_roundoff(E::DTYPE.scalar_bytes() == 8)
}

/// A random matrix of the group and the last one (in the padded pack).
fn pick_samples(pick: u64, count: usize) -> Vec<usize> {
    let v = (pick % count as u64) as usize;
    if v == count - 1 {
        vec![v]
    } else {
        vec![v, count - 1]
    }
}

/// Greedy 1-D tiling, as the planners do it.
fn tiles(len: usize, step: usize) -> Vec<(usize, usize)> {
    (0..len)
        .step_by(step)
        .map(|i| (i, step.min(len - i)))
        .collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn batch_bytes<E: Element>(rows: usize, cols: usize, count: usize) -> usize {
    rows * cols * count * E::DTYPE.elem_bytes()
}

fn to_compact<E: Element>(
    s: &StdBatch<E>,
    cfg: &TuningConfig,
    tally: &mut Tally,
) -> CompactBatch<E> {
    let (c, dt) = timed(|| CompactBatch::from_std_at(s, cfg.width));
    tally.add(batch_bytes::<E>(s.rows(), s.cols(), s.count()), dt);
    c
}

fn unpack_probe<E: Element>(c: &CompactBatch<E>) -> (usize, Duration) {
    let mut dst = StdBatch::zeroed(c.rows(), c.cols(), c.count());
    c.unpack_into(&mut dst);
    let ((), dt) = timed(|| c.unpack_into(&mut dst));
    (batch_bytes::<E>(c.rows(), c.cols(), c.count()), dt)
}

/// The `N` operands of a slot, in the layout its route hands the library.
enum Operands<E: Element, const N: usize> {
    Compact([CompactBatch<E>; N]),
    Std([StdBatch<E>; N]),
}

impl<E: Element, const N: usize> Operands<E, N> {
    fn get(&self, i: usize) -> &dyn Source<E> {
        match self {
            Operands::Compact(v) => &v[i],
            Operands::Std(v) => &v[i],
        }
    }

    #[cfg(test)]
    fn get_mut(&mut self, i: usize) -> &mut dyn Source<E> {
        match self {
            Operands::Compact(v) => &mut v[i],
            Operands::Std(v) => &mut v[i],
        }
    }
}

/// Square GEMM `C = alpha*op(A)*op(B) + beta*C` over one group.
pub struct GemmSlot<E: CompactElement> {
    n: usize,
    count: usize,
    mode: GemmMode,
    alpha: E,
    beta: E,
    visit: usize,
    ops: Operands<E, 3>,
    samples: Vec<usize>,
    pre: Vec<Mat>,
    /// Pack replay scratch: `group_packs` A and B panels.
    scratch: Vec<E::Real>,
}

/// β cycles through zero and two non-zero values, so every third call
/// overwrites C and the state stays bounded by `2*|alpha*A*B|`.
const BETAS: [f64; 3] = [0.0, 0.5, -0.5];

impl<E: CompactElement> GemmSlot<E> {
    /// Generates the operands from `seed` and, for the compact route,
    /// converts them (conversion time lands in `tally`).
    pub fn new(
        n: usize,
        count: usize,
        mode: GemmMode,
        via_std: bool,
        seed: u64,
        cfg: &TuningConfig,
        tally: &mut Tally,
    ) -> Self {
        // alpha follows the shape, not the seed, so every seed runs the
        // same mix of alpha = 1 and alpha != 1 calls.
        let alpha = if E::IS_COMPLEX {
            E::from_f64s(0.6, 0.8)
        } else if n.is_multiple_of(2) {
            E::one()
        } else {
            E::from_f64s(0.5, 0.0)
        };
        let gen = |i: u64| StdBatch::random(n, n, count, seed.wrapping_add(i));
        let ops = if via_std {
            Operands::Std(std::array::from_fn(|i| gen(i as u64)))
        } else {
            Operands::Compact(std::array::from_fn(|i| {
                to_compact(&gen(i as u64), cfg, tally)
            }))
        };
        GemmSlot {
            n,
            count,
            mode,
            alpha,
            beta: E::zero(),
            visit: 0,
            ops,
            samples: Vec::new(),
            pre: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn dims(&self) -> GemmDims {
        GemmDims::square(self.n)
    }

    fn plan(&self, cfg: &TuningConfig) -> Result<GemmPlan<E>, LayoutError> {
        GemmPlan::new(self.dims(), self.mode, false, false, self.count, cfg)
    }
}

/// Replays the pack calls a GEMM `execute` makes, with the plan's
/// geometry: every pack of each operand the Pack Selecter chose to pack,
/// into a super-block-sized buffer. Only the pack loop is inside the span.
/// Returns the bytes written.
fn replay_gemm_pack<E: CompactElement>(
    plan: &GemmPlan<E>,
    cfg: &TuningConfig,
    a: &CompactBatch<E>,
    b: &CompactBatch<E>,
    scratch: &mut Vec<E::Real>,
    rec: &mut Recorder,
    id: u32,
) -> usize {
    let p = E::p_at(cfg.width);
    let d = plan.dims();
    let a_len = if plan.a_plan == OperandPlan::Packed {
        pg::panel_a_len::<E>(p, d.m, d.k)
    } else {
        0
    };
    let b_len = if plan.b_plan == OperandPlan::Packed {
        pg::panel_b_len::<E>(p, d.k, d.n)
    } else {
        0
    };
    let gp = plan.group_packs;
    scratch.resize((a_len + b_len) * gp, E::Real::default());
    let (buf_a, buf_b) = scratch.split_at_mut(a_len * gp);
    let packs = a.packs();
    let t0 = Instant::now();
    for pack in 0..packs {
        let slot = pack % gp;
        if a_len > 0 {
            let dst = &mut buf_a[slot * a_len..(slot + 1) * a_len];
            pg::pack_a(dst, a, pack, plan.mode().transa, false, E::MR, d.m, d.k);
        }
        if b_len > 0 {
            let dst = &mut buf_b[slot * b_len..(slot + 1) * b_len];
            pg::pack_b(dst, b, pack, plan.mode().transb, false, E::NR, d.k, d.n);
        }
    }
    rec.record(id, Layer::Pack, t0, Instant::now());
    (a_len + b_len) * packs * core::mem::size_of::<E::Real>()
}

impl<E: CompactElement> Slot for GemmSlot<E> {
    fn dtype(&self) -> DType {
        E::DTYPE
    }

    fn steps(&self) -> usize {
        1
    }

    fn via_std(&self) -> bool {
        matches!(self.ops, Operands::Std(_))
    }

    fn describe(&self, _step: usize) -> String {
        let route = if self.via_std() {
            "std_gemm_via_compact"
        } else {
            "compact_gemm"
        };
        format!(
            "{route} {} n={} {} count={}",
            E::DTYPE,
            self.n,
            self.mode,
            self.count
        )
    }

    fn flops(&self, _step: usize) -> u64 {
        (E::DTYPE.flops_per_mac() * self.n * self.n * self.n * self.count) as u64
    }

    fn operand_bytes(&self) -> usize {
        batch_bytes::<E>(self.n, self.n, self.count)
    }

    fn before(&mut self, _step: usize, pick: u64) {
        self.beta = E::from_f64s(BETAS[self.visit % BETAS.len()], 0.0);
        self.visit += 1;
        self.samples = pick_samples(pick, self.count);
        self.pre = self
            .samples
            .iter()
            .map(|&v| extract(self.ops.get(2), v))
            .collect();
    }

    fn call(&mut self, _step: usize, cfg: &TuningConfig) -> Result<(), LayoutError> {
        match &mut self.ops {
            Operands::Compact([a, b, c]) => {
                iatf::compact_gemm(self.mode, self.alpha, a, b, self.beta, c, cfg)
            }
            Operands::Std([a, b, c]) => {
                iatf::std_gemm_via_compact(self.mode, self.alpha, a, b, self.beta, c, cfg)
            }
        }
    }

    fn traced_call(
        &mut self,
        _step: usize,
        cfg: &TuningConfig,
        rec: &mut Recorder,
        id: u32,
    ) -> Result<(), LayoutError> {
        let (dims, mode, count) = (self.dims(), self.mode, self.count);
        let (alpha, beta) = (self.alpha, self.beta);
        let t0 = Instant::now();
        match &mut self.ops {
            Operands::Compact([a, b, c]) => {
                let plan = cache::cached_gemm_plan::<E>(dims, mode, false, false, count, cfg)?;
                let t1 = Instant::now();
                plan.execute(alpha, a, b, beta, c)?;
                let t2 = Instant::now();
                rec.record(id, Layer::Cache, t0, t1);
                rec.record(id, Layer::Execute, t1, t2);
                rec.record(id, Layer::Call, t0, t2);
            }
            Operands::Std([a, b, c]) => {
                let ca = CompactBatch::from_std_at(a, cfg.width);
                let cb = CompactBatch::from_std_at(b, cfg.width);
                let mut cc = CompactBatch::from_std_at(c, cfg.width);
                let t1 = Instant::now();
                let plan = cache::cached_gemm_plan::<E>(dims, mode, false, false, count, cfg)?;
                let t2 = Instant::now();
                plan.execute(alpha, &ca, &cb, beta, &mut cc)?;
                let t3 = Instant::now();
                cc.unpack_into(c);
                let t4 = Instant::now();
                rec.record(id, Layer::ToCompact, t0, t1);
                rec.record(id, Layer::Cache, t1, t2);
                rec.record(id, Layer::Execute, t2, t3);
                rec.record(id, Layer::ToStd, t3, t4);
                rec.record(id, Layer::Call, t0, t4);
            }
        }
        Ok(())
    }

    fn replay_pack(
        &mut self,
        _step: usize,
        cfg: &TuningConfig,
        rec: &mut Recorder,
        id: u32,
    ) -> Result<usize, LayoutError> {
        let plan = self.plan(cfg)?;
        Ok(match &self.ops {
            Operands::Compact([a, b, _]) => {
                replay_gemm_pack(&plan, cfg, a, b, &mut self.scratch, rec, id)
            }
            Operands::Std([a, b, _]) => {
                let ca = CompactBatch::from_std_at(a, cfg.width);
                let cb = CompactBatch::from_std_at(b, cfg.width);
                replay_gemm_pack(&plan, cfg, &ca, &cb, &mut self.scratch, rec, id)
            }
        })
    }

    fn check(&mut self, _step: usize) -> bool {
        let u = unit_roundoff::<E>();
        let (alpha, beta) = (cx(self.alpha), cx(self.beta));
        self.samples.iter().zip(&self.pre).all(|(&v, c0)| {
            let a = extract(self.ops.get(0), v).op(self.mode.transa);
            let b = extract(self.ops.get(1), v).op(self.mode.transb);
            let c1 = extract(self.ops.get(2), v);
            oracle::check_gemm(&a, &b, alpha, beta, c0, &c1, u)
        })
    }

    fn explain(&self, _step: usize, cfg: &TuningConfig) -> Result<PlanExplain, LayoutError> {
        Ok(self.plan(cfg)?.explain())
    }

    fn time_build(&self, _step: usize, cfg: &TuningConfig) -> Result<Duration, LayoutError> {
        let (plan, dt) = timed(|| self.plan(cfg));
        plan.map(|_| dt)
    }

    fn time_unpack(&self) -> Option<(usize, Duration)> {
        match &self.ops {
            Operands::Compact([_, _, c]) => Some(unpack_probe(c)),
            Operands::Std(_) => None,
        }
    }

    #[cfg(test)]
    fn corrupt(&mut self) {
        flip(self.ops.get_mut(2), self.samples[0]);
    }
}

/// What a TRMM/TRSM `execute` packs, read off its plan.
struct TriPackGeometry<E> {
    mode: TrsmMode,
    blocks: Vec<(usize, usize)>,
    group_packs: usize,
    /// Whether B column panels are packed and written back.
    pack_b: bool,
    /// Reciprocal diagonals (TRSM) or the stored ones (TRMM).
    recip: bool,
    /// Scale folded into the B pack (TRSM's alpha; 1 for TRMM).
    alpha: E,
}

/// Triangular slot over one group of square problems. On the compact
/// route a visit is `B <- a1*op(A)*B` (TRMM) then `op(A)*X = a2*B` (TRSM)
/// with `a1*a2 = 1`, so B returns to its start. On the std route a visit
/// is one `std_trsm_via_compact`, after which B is restored from a copy
/// outside the timed call.
pub struct TriSlot<E: CompactElement> {
    n: usize,
    count: usize,
    mode: TrsmMode,
    /// (TRMM alpha, TRSM alpha) of the current visit.
    alphas: (E, E),
    visit: usize,
    /// `[A, B]`.
    ops: Operands<E, 2>,
    /// Pristine B for the std route.
    b0: Option<StdBatch<E>>,
    samples: Vec<usize>,
    pre: Vec<Mat>,
    scratch: Vec<E::Real>,
}

impl<E: CompactElement> TriSlot<E> {
    pub fn new(
        n: usize,
        count: usize,
        mode: TrsmMode,
        via_std: bool,
        seed: u64,
        cfg: &TuningConfig,
        tally: &mut Tally,
    ) -> Self {
        let a = StdBatch::random_triangular(n, count, mode.uplo, mode.diag, seed);
        let b = StdBatch::random(n, n, count, seed.wrapping_add(1));
        let (ops, b0) = if via_std {
            let b0 = b.clone();
            (Operands::Std([a, b]), Some(b0))
        } else {
            let ca = to_compact(&a, cfg, tally);
            let cb = to_compact(&b, cfg, tally);
            (Operands::Compact([ca, cb]), None)
        };
        TriSlot {
            n,
            count,
            mode,
            alphas: (E::one(), E::one()),
            visit: 0,
            ops,
            b0,
            samples: Vec::new(),
            pre: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn dims(&self) -> TrsmDims {
        TrsmDims::square(self.n)
    }

    /// Step 0 of a compact visit is the TRMM; every other call is a TRSM.
    fn is_trmm(&self, step: usize) -> bool {
        step == 0 && !self.via_std()
    }

    fn alpha(&self, step: usize) -> E {
        if self.is_trmm(step) {
            self.alphas.0
        } else {
            self.alphas.1
        }
    }

    fn triangle(&self, v: usize) -> Mat {
        extract(self.ops.get(0), v)
            .triangle(self.mode.uplo, self.mode.diag)
            .op(self.mode.trans)
    }

    /// Replays the pack calls of one TRMM/TRSM execute: the coefficient
    /// triangle of every pack, and — when the plan packs B — each column
    /// panel packed and scattered back (into scratch, so B is unchanged).
    fn replay(
        a: &CompactBatch<E>,
        b: &CompactBatch<E>,
        g: &TriPackGeometry<E>,
        scratch: &mut Vec<E::Real>,
        rec: &mut Recorder,
        id: u32,
    ) -> usize {
        let TriPackGeometry {
            mode,
            ref blocks,
            group_packs,
            pack_b,
            recip,
            alpha,
        } = *g;
        let p = a.p();
        let count = a.count();
        let map = pt::TrsmIndexMap::new(mode, false, b.rows(), b.cols());
        let (layout, a_len) = pt::a_layout::<E>(p, blocks);
        let panels = tiles(map.bn, E::TRSM_NR);
        let panel_len = pt::panel_b_len::<E>(p, map.t, E::TRSM_NR);
        let bps = b.pack_stride();
        scratch.resize(a_len * group_packs + panel_len + bps, E::Real::default());
        let (buf_a, rest) = scratch.split_at_mut(a_len * group_packs);
        let (buf_panel, b_out) = rest.split_at_mut(panel_len);
        let mut bytes = 0;
        let t0 = Instant::now();
        for pack in 0..a.packs() {
            let live = p.min(count - pack * p);
            let slot = pack % group_packs;
            let dst = &mut buf_a[slot * a_len..(slot + 1) * a_len];
            pt::pack_a_tri::<E>(
                dst,
                a.pack_slice(pack),
                a.rows(),
                p,
                &map,
                &layout,
                live,
                recip,
            );
            bytes += a_len;
            if pack_b {
                for &(j0, w) in &panels {
                    let len = pt::panel_b_len::<E>(p, map.t, w);
                    let panel = &mut buf_panel[..len];
                    pt::pack_b_panel::<E>(
                        panel,
                        b.pack_slice(pack),
                        b.rows(),
                        p,
                        &map,
                        j0,
                        w,
                        alpha,
                    );
                    pt::unpack_b_panel::<E>(panel, b_out, b.rows(), p, &map, j0, w);
                    bytes += 2 * len;
                }
            }
        }
        rec.record(id, Layer::Pack, t0, Instant::now());
        bytes * core::mem::size_of::<E::Real>()
    }
}

impl<E: CompactElement> Slot for TriSlot<E> {
    fn dtype(&self) -> DType {
        E::DTYPE
    }

    fn steps(&self) -> usize {
        if self.via_std() {
            1
        } else {
            2
        }
    }

    fn via_std(&self) -> bool {
        matches!(self.ops, Operands::Std(_))
    }

    fn describe(&self, step: usize) -> String {
        let op = if self.via_std() {
            "std_trsm_via_compact"
        } else if self.is_trmm(step) {
            "compact_trmm"
        } else {
            "compact_trsm"
        };
        format!(
            "{op} {} n={} {} count={}",
            E::DTYPE,
            self.n,
            self.mode,
            self.count
        )
    }

    fn flops(&self, _step: usize) -> u64 {
        let t = self.n;
        (E::DTYPE.flops_per_mac() * t * (t + 1) / 2 * self.n * self.count) as u64
    }

    fn operand_bytes(&self) -> usize {
        batch_bytes::<E>(self.n, self.n, self.count)
    }

    fn before(&mut self, step: usize, pick: u64) {
        if step == 1 {
            // The TRSM checks against what the TRMM left in B.
            return;
        }
        self.alphas = match (self.visit % 2, E::IS_COMPLEX) {
            (0, _) => (E::one(), E::one()),
            (_, false) => (E::from_f64s(2.0, 0.0), E::from_f64s(0.5, 0.0)),
            (_, true) => (E::from_f64s(0.0, 1.0), E::from_f64s(0.0, -1.0)),
        };
        self.visit += 1;
        self.samples = pick_samples(pick, self.count);
        self.pre = self
            .samples
            .iter()
            .map(|&v| extract(self.ops.get(1), v))
            .collect();
    }

    fn call(&mut self, step: usize, cfg: &TuningConfig) -> Result<(), LayoutError> {
        let (mode, alpha, trmm) = (self.mode, self.alpha(step), self.is_trmm(step));
        match &mut self.ops {
            Operands::Compact([a, b]) => {
                if trmm {
                    iatf::compact_trmm(mode, alpha, a, b, cfg)
                } else {
                    iatf::compact_trsm(mode, alpha, a, b, cfg)
                }
            }
            Operands::Std([a, b]) => iatf::std_trsm_via_compact(mode, alpha, a, b, cfg),
        }
    }

    fn traced_call(
        &mut self,
        step: usize,
        cfg: &TuningConfig,
        rec: &mut Recorder,
        id: u32,
    ) -> Result<(), LayoutError> {
        let (dims, mode, count) = (self.dims(), self.mode, self.count);
        let (alpha, trmm) = (self.alpha(step), self.is_trmm(step));
        let t0 = Instant::now();
        match &mut self.ops {
            Operands::Compact([a, b]) => {
                if trmm {
                    let plan = cache::cached_trmm_plan::<E>(dims, mode, false, count, cfg)?;
                    let t1 = Instant::now();
                    plan.execute(alpha, a, b)?;
                    let t2 = Instant::now();
                    rec.record(id, Layer::Cache, t0, t1);
                    rec.record(id, Layer::Execute, t1, t2);
                    rec.record(id, Layer::Call, t0, t2);
                } else {
                    let plan = cache::cached_trsm_plan::<E>(dims, mode, false, count, cfg)?;
                    let t1 = Instant::now();
                    plan.execute(alpha, a, b)?;
                    let t2 = Instant::now();
                    rec.record(id, Layer::Cache, t0, t1);
                    rec.record(id, Layer::Execute, t1, t2);
                    rec.record(id, Layer::Call, t0, t2);
                }
            }
            Operands::Std([a, b]) => {
                let ca = CompactBatch::from_std_at(a, cfg.width);
                let mut cb = CompactBatch::from_std_at(b, cfg.width);
                let t1 = Instant::now();
                let plan = cache::cached_trsm_plan::<E>(dims, mode, false, count, cfg)?;
                let t2 = Instant::now();
                plan.execute(alpha, &ca, &mut cb)?;
                let t3 = Instant::now();
                cb.unpack_into(b);
                let t4 = Instant::now();
                rec.record(id, Layer::ToCompact, t0, t1);
                rec.record(id, Layer::Cache, t1, t2);
                rec.record(id, Layer::Execute, t2, t3);
                rec.record(id, Layer::ToStd, t3, t4);
                rec.record(id, Layer::Call, t0, t4);
            }
        }
        Ok(())
    }

    fn replay_pack(
        &mut self,
        step: usize,
        cfg: &TuningConfig,
        rec: &mut Recorder,
        id: u32,
    ) -> Result<usize, LayoutError> {
        let (dims, mode, count) = (self.dims(), self.mode, self.count);
        // TRMM packs B unscaled; TRSM folds alpha into the B pack, and
        // alpha != 1 forces that pack at execute time.
        let geometry = if self.is_trmm(step) {
            let plan = TrmmPlan::<E>::new(dims, mode, false, count, cfg)?;
            TriPackGeometry {
                mode,
                blocks: plan.blocks().to_vec(),
                group_packs: plan.group_packs,
                pack_b: plan.pack_b_structural,
                recip: false,
                alpha: E::one(),
            }
        } else {
            let plan = TrsmPlan::<E>::new(dims, mode, false, count, cfg)?;
            let alpha = self.alpha(step);
            TriPackGeometry {
                mode,
                blocks: plan.blocks().to_vec(),
                group_packs: plan.group_packs,
                pack_b: plan.pack_b_structural || alpha != E::one(),
                recip: true,
                alpha,
            }
        };
        Ok(match &self.ops {
            Operands::Compact([a, b]) => Self::replay(a, b, &geometry, &mut self.scratch, rec, id),
            Operands::Std([a, b]) => {
                let ca = CompactBatch::from_std_at(a, cfg.width);
                let cb = CompactBatch::from_std_at(b, cfg.width);
                Self::replay(&ca, &cb, &geometry, &mut self.scratch, rec, id)
            }
        })
    }

    fn check(&mut self, step: usize) -> bool {
        let u = unit_roundoff::<E>();
        let left = self.mode.side == Side::Left;
        let alpha = cx(self.alpha(step));
        let trmm = self.is_trmm(step);
        let mut ok = true;
        let mut post = Vec::with_capacity(self.samples.len());
        for (&v, b0) in self.samples.iter().zip(&self.pre) {
            let t = self.triangle(v);
            let b1 = extract(self.ops.get(1), v);
            ok &= if trmm {
                oracle::check_trmm(&t, left, alpha, b0, &b1, u)
            } else {
                oracle::check_trsm(&t, left, alpha, b0, &b1, u)
            };
            post.push(b1);
        }
        // The TRSM that follows a TRMM is checked against the TRMM output.
        self.pre = post;
        if let (Operands::Std([_, b]), Some(b0)) = (&mut self.ops, &self.b0) {
            b.as_mut_slice().copy_from_slice(b0.as_slice());
        }
        ok
    }

    fn explain(&self, step: usize, cfg: &TuningConfig) -> Result<PlanExplain, LayoutError> {
        if self.is_trmm(step) {
            Ok(TrmmPlan::<E>::new(self.dims(), self.mode, false, self.count, cfg)?.explain())
        } else {
            Ok(TrsmPlan::<E>::new(self.dims(), self.mode, false, self.count, cfg)?.explain())
        }
    }

    fn time_build(&self, step: usize, cfg: &TuningConfig) -> Result<Duration, LayoutError> {
        let (dims, mode, count) = (self.dims(), self.mode, self.count);
        if self.is_trmm(step) {
            let (plan, dt) = timed(|| TrmmPlan::<E>::new(dims, mode, false, count, cfg));
            plan.map(|_| dt)
        } else {
            let (plan, dt) = timed(|| TrsmPlan::<E>::new(dims, mode, false, count, cfg));
            plan.map(|_| dt)
        }
    }

    fn time_unpack(&self) -> Option<(usize, Duration)> {
        match &self.ops {
            Operands::Compact([_, b]) => Some(unpack_probe(b)),
            Operands::Std(_) => None,
        }
    }

    #[cfg(test)]
    fn corrupt(&mut self) {
        flip(self.ops.get_mut(1), self.samples[0]);
    }
}

/// Builds the slot for `spec`, generating its operands from `seed`.
pub fn make_slot(spec: &Spec, seed: u64, cfg: &TuningConfig, tally: &mut Tally) -> Box<dyn Slot> {
    fn mk<E: CompactElement>(
        s: &Spec,
        seed: u64,
        cfg: &TuningConfig,
        tally: &mut Tally,
    ) -> Box<dyn Slot> {
        match s.kind {
            Kind::Tri(mode) => Box::new(TriSlot::<E>::new(
                s.n, s.count, mode, s.via_std, seed, cfg, tally,
            )),
            Kind::Gemm(mode) => Box::new(GemmSlot::<E>::new(
                s.n, s.count, mode, s.via_std, seed, cfg, tally,
            )),
        }
    }
    match spec.dtype {
        DType::F32 => mk::<f32>(spec, seed, cfg, tally),
        DType::F64 => mk::<f64>(spec, seed, cfg, tally),
        DType::C32 => mk::<iatf::c32>(spec, seed, cfg, tally),
        DType::C64 => mk::<iatf::c64>(spec, seed, cfg, tally),
    }
}
