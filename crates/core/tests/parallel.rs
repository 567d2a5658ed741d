//! Multicore execution: results must be bit-identical to the serial path
//! — packs are independent and each super-block runs the same body on
//! either path, so the thread schedule cannot change any rounding.
//!
//! `BatchPolicy::Fixed(1)` and `Fixed(2)` over `9·P − 1` matrices force a
//! real split at every width: 9 and 5 super-blocks (odd counts, more than
//! two per thread on a two-core host), a short last super-block under
//! `Fixed(2)`, and a last pack with one padded lane.

use iatf_core::exec::threads;
use iatf_core::{
    host_profile, BatchPolicy, CompactElement, GemmPlan, PlanCachePolicy, TrmmPlan, TrsmPlan,
    TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, Side, StdBatch, TrsmDims, TrsmMode};
use iatf_simd::{available_widths, c32, c64, VecWidth};

/// Super-block policies that split the group, paired with the config.
fn split_cfgs(width: VecWidth) -> [TuningConfig; 2] {
    [1, 2].map(|g| TuningConfig {
        width,
        batch: BatchPolicy::Fixed(g),
        plan_cache: PlanCachePolicy::Bypass,
        ..TuningConfig::default()
    })
}

fn split_count<E: CompactElement>(width: VecWidth) -> usize {
    9 * E::p_at(width) - 1
}

/// A scale factor that is not 1 (and not real, for the complex types).
fn alpha<E: CompactElement>() -> E {
    E::from_f64s(2.0, 0.5)
}

fn gemm_bitwise<E: CompactElement>(seed: u64) {
    for &width in available_widths() {
        let count = split_count::<E>(width);
        for cfg in split_cfgs(width) {
            for mode in GemmMode::ALL {
                let (m, n, k) = (9usize, 7usize, 5usize);
                let dims = GemmDims::new(m, n, k);
                let (ar, ac) = dims.a_shape(mode);
                let (br, bc) = dims.b_shape(mode);
                let a =
                    CompactBatch::from_std_at(&StdBatch::<E>::random(ar, ac, count, seed), width);
                let b = CompactBatch::from_std_at(
                    &StdBatch::<E>::random(br, bc, count, seed + 1),
                    width,
                );
                let c0 =
                    CompactBatch::from_std_at(&StdBatch::<E>::random(m, n, count, seed + 2), width);
                let plan = GemmPlan::<E>::new(dims, mode, false, false, count, &cfg).unwrap();
                let (alpha, beta) = (alpha::<E>(), E::one());
                let mut c_seq = c0.clone();
                plan.execute(alpha, &a, &b, beta, &mut c_seq).unwrap();
                let mut c_par = c0.clone();
                plan.execute_parallel(alpha, &a, &b, beta, &mut c_par)
                    .unwrap();
                assert_eq!(
                    c_seq.as_scalars(),
                    c_par.as_scalars(),
                    "gemm {:?} {mode} at {width}, group_packs {}",
                    E::DTYPE,
                    plan.group_packs
                );
            }
        }
    }
}

/// Triangular operands for one mode: A (padded with identity so the
/// padded lanes stay finite) and B.
fn tri_operands<E: CompactElement>(
    mode: TrsmMode,
    count: usize,
    width: VecWidth,
    seed: u64,
) -> (CompactBatch<E>, CompactBatch<E>) {
    let (m, n) = (9usize, 6usize);
    let order = if mode.side == Side::Right { n } else { m };
    let a_std = StdBatch::<E>::random_triangular(order, count, mode.uplo, mode.diag, seed);
    let mut a = CompactBatch::from_std_at(&a_std, width);
    a.pad_triangle_identity();
    let b = CompactBatch::from_std_at(&StdBatch::<E>::random(m, n, count, seed + 1), width);
    (a, b)
}

fn trsm_bitwise<E: CompactElement>(seed: u64) {
    for &width in available_widths() {
        let count = split_count::<E>(width);
        for cfg in split_cfgs(width) {
            for mode in TrsmMode::all() {
                let (a, b0) = tri_operands::<E>(mode, count, width, seed);
                let plan =
                    TrsmPlan::<E>::new(TrsmDims::new(9, 6), mode, false, count, &cfg).unwrap();
                // α = 1 streams B in place where the mode allows; α = 2
                // forces the packed-panel path.
                for alpha in [E::one(), alpha::<E>()] {
                    let mut b_seq = b0.clone();
                    plan.execute(alpha, &a, &mut b_seq).unwrap();
                    let mut b_par = b0.clone();
                    plan.execute_parallel(alpha, &a, &mut b_par).unwrap();
                    assert_eq!(
                        b_seq.as_scalars(),
                        b_par.as_scalars(),
                        "trsm {:?} {mode} at {width}, group_packs {}",
                        E::DTYPE,
                        plan.group_packs
                    );
                }
            }
        }
    }
}

fn trmm_bitwise<E: CompactElement>(seed: u64) {
    for &width in available_widths() {
        let count = split_count::<E>(width);
        for cfg in split_cfgs(width) {
            for mode in TrsmMode::all() {
                let (a, b0) = tri_operands::<E>(mode, count, width, seed);
                let plan =
                    TrmmPlan::<E>::new(TrsmDims::new(9, 6), mode, false, count, &cfg).unwrap();
                let alpha = alpha::<E>();
                let mut b_seq = b0.clone();
                plan.execute(alpha, &a, &mut b_seq).unwrap();
                let mut b_par = b0.clone();
                plan.execute_parallel(alpha, &a, &mut b_par).unwrap();
                assert_eq!(
                    b_seq.as_scalars(),
                    b_par.as_scalars(),
                    "trmm {:?} {mode} at {width}, group_packs {}",
                    E::DTYPE,
                    plan.group_packs
                );
            }
        }
    }
}

#[test]
fn parallel_gemm_matches_serial_bitwise_all_dtypes_modes_widths() {
    gemm_bitwise::<f32>(100);
    gemm_bitwise::<f64>(200);
    gemm_bitwise::<c32>(300);
    gemm_bitwise::<c64>(400);
}

#[test]
fn parallel_trsm_matches_serial_bitwise_all_dtypes_modes_widths() {
    trsm_bitwise::<f32>(500);
    trsm_bitwise::<f64>(600);
    trsm_bitwise::<c32>(700);
    trsm_bitwise::<c64>(800);
}

#[test]
fn parallel_trmm_matches_serial_bitwise_all_dtypes_modes_widths() {
    trmm_bitwise::<f32>(900);
    trmm_bitwise::<f64>(1000);
    trmm_bitwise::<c32>(1100);
    trmm_bitwise::<c64>(1200);
}

/// The crossover rule under pure heuristics: a group that fits in L1
/// stays serial, a group several times the per-core L2 runs on every core
/// (when the host has more than one).
#[test]
fn crossover_rule_picks_serial_for_l1_groups_and_parallel_beyond_l2() {
    let cfg = TuningConfig::default();
    let multicore = threads() > 1;
    let dims = GemmDims::square(8);
    let per_matrix = 3 * 8 * 8 * core::mem::size_of::<f32>();
    let l1_count = cfg.l1_budget_bytes() / per_matrix;
    let big_count = 4 * host_profile().l2_bytes / per_matrix;
    let gemm = |count| GemmPlan::<f32>::new(dims, GemmMode::NN, false, false, count, &cfg).unwrap();
    assert!(!gemm(l1_count).use_parallel());
    assert_eq!(gemm(big_count).use_parallel(), multicore);

    let tri = TrsmDims::new(8, 8);
    let tri_per_matrix = 2 * 8 * 8 * core::mem::size_of::<f64>();
    let l1_count = cfg.l1_budget_bytes() / tri_per_matrix;
    let big_count = 4 * host_profile().l2_bytes / tri_per_matrix;
    for mode in [TrsmMode::LNLN, TrsmMode::all()[15]] {
        let trsm = |count| TrsmPlan::<f64>::new(tri, mode, false, count, &cfg).unwrap();
        let trmm = |count| TrmmPlan::<f64>::new(tri, mode, false, count, &cfg).unwrap();
        assert!(!trsm(l1_count).use_parallel(), "trsm {mode}");
        assert!(!trmm(l1_count).use_parallel(), "trmm {mode}");
        assert_eq!(trsm(big_count).use_parallel(), multicore, "trsm {mode}");
        assert_eq!(trmm(big_count).use_parallel(), multicore, "trmm {mode}");
    }
}

/// The largest group of the small-dispatch pattern (n ≤ 8, count ≤ 64,
/// f32/f64) stays serial in every op and mode: a thread spawn would cost
/// more than the whole call.
#[test]
fn small_groups_stay_serial() {
    let cfg = TuningConfig::default();
    let count = 64;
    for mode in GemmMode::ALL {
        let plan =
            GemmPlan::<f64>::new(GemmDims::square(8), mode, false, false, count, &cfg).unwrap();
        assert!(!plan.use_parallel(), "gemm {mode}");
    }
    for mode in TrsmMode::all() {
        let dims = TrsmDims::new(8, 8);
        assert!(!TrsmPlan::<f64>::new(dims, mode, false, count, &cfg)
            .unwrap()
            .use_parallel());
        assert!(!TrmmPlan::<f64>::new(dims, mode, false, count, &cfg)
            .unwrap()
            .use_parallel());
    }
}
