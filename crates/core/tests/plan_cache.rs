//! Plan-cache behaviour: hit/miss accounting, bypass, the eviction bound,
//! and a concurrent mixed-shape stress run.
//!
//! The cache and its counters are process-global, so every test serializes
//! on one mutex and starts from `cache::clear()`.

use iatf_core::plan::cache;
use iatf_core::{
    compact_gemm, compact_trmm, compact_trsm, CompactElement, PlanCachePolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, Diag, GemmMode, StdBatch, TrsmMode, Uplo};
use iatf_simd::{c32, c64, Real};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE.get_or_init(|| Mutex::new(())).lock().unwrap();
    cache::clear();
    guard
}

fn gemm_once(m: usize, n: usize, k: usize, count: usize, cfg: &TuningConfig) -> CompactBatch<f64> {
    let a = CompactBatch::from_std(&StdBatch::<f64>::random(m, k, count, 1));
    let b = CompactBatch::from_std(&StdBatch::<f64>::random(k, n, count, 2));
    let mut c = CompactBatch::<f64>::zeroed(m, n, count);
    compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, cfg).unwrap();
    c
}

#[test]
fn repeat_calls_hit_the_cache() {
    let _g = lock();
    let cfg = TuningConfig::default();
    let first = gemm_once(4, 4, 4, 32, &cfg);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));
    for _ in 0..5 {
        let again = gemm_once(4, 4, 4, 32, &cfg);
        assert_eq!(first.as_scalars(), again.as_scalars());
    }
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (5, 1, 1));

    // a different shape is a different plan
    gemm_once(5, 4, 4, 32, &cfg);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (5, 2, 2));
}

#[test]
fn distinct_ops_and_configs_do_not_collide() {
    let _g = lock();
    let cfg = TuningConfig::default();
    // TRSM and TRMM of the same (m, n, count) must key separately from each
    // other (op tag) even though both use TrsmDims.
    let a = CompactBatch::from_std(&StdBatch::<f64>::random_triangular(
        4,
        8,
        iatf_layout::Uplo::Lower,
        iatf_layout::Diag::NonUnit,
        3,
    ));
    let mut b = CompactBatch::from_std(&StdBatch::<f64>::random(4, 6, 8, 4));
    compact_trsm(TrsmMode::LNLN, 1.0, &a, &mut b, &cfg).unwrap();
    compact_trmm(TrsmMode::LNLN, 1.0, &a, &mut b, &cfg).unwrap();
    assert_eq!(cache::stats().misses, 2);

    // a config that plans differently fingerprints differently
    let small_l1 = TuningConfig {
        l1d_bytes: 1024,
        ..TuningConfig::default()
    };
    compact_trsm(TrsmMode::LNLN, 1.0, &a, &mut b, &small_l1).unwrap();
    let s = cache::stats();
    assert_eq!((s.misses, s.entries), (3, 3));
}

#[derive(Copy, Clone, Debug)]
enum Op {
    Gemm,
    Trsm,
    Trmm,
}

/// Runs `op` once on fixed operands (TRSM/TRMM: upper-triangular A, so B
/// panels are packed; α ≠ 1) and returns the bit pattern of its output.
fn op_once<E: CompactElement>(op: Op, cfg: &TuningConfig) -> Vec<u64> {
    const M: usize = 6;
    const N: usize = 5;
    const COUNT: usize = 37;
    let bits = |x: &CompactBatch<E>| -> Vec<u64> {
        x.as_scalars().iter().map(|v| v.to_f64().to_bits()).collect()
    };
    let half = E::from_f64s(0.5, 0.25);
    let mut out = CompactBatch::<E>::from_std(&StdBatch::random(M, N, COUNT, 3));
    match op {
        Op::Gemm => {
            let a = CompactBatch::<E>::from_std(&StdBatch::random(M, 4, COUNT, 1));
            let b = CompactBatch::<E>::from_std(&StdBatch::random(4, N, COUNT, 2));
            compact_gemm(GemmMode::NN, half, &a, &b, E::one(), &mut out, cfg).unwrap();
        }
        Op::Trsm | Op::Trmm => {
            let tri = StdBatch::random_triangular(M, COUNT, Uplo::Upper, Diag::NonUnit, 4);
            let a = CompactBatch::<E>::from_std(&tri);
            if matches!(op, Op::Trsm) {
                compact_trsm(TrsmMode::LNUN, half, &a, &mut out, cfg).unwrap();
            } else {
                compact_trmm(TrsmMode::LNUN, half, &a, &mut out, cfg).unwrap();
            }
        }
    }
    bits(&out)
}

/// Cache vs bypass for every op at one dtype: bit-identical outputs and
/// exact hit/miss/bypass counts; TRSM and TRMM of equal dims key apart.
fn cache_vs_bypass<E: CompactElement>() {
    let shared = TuningConfig::default();
    let bypass = TuningConfig {
        plan_cache: PlanCachePolicy::Bypass,
        ..TuningConfig::default()
    };
    for op in [Op::Gemm, Op::Trsm, Op::Trmm] {
        cache::clear();
        let what = format!("{op:?} {}", E::DTYPE);
        let cold = op_once::<E>(op, &shared);
        let warm = op_once::<E>(op, &shared);
        let fresh = op_once::<E>(op, &bypass);
        // bypass changes plan lifetime, never results
        assert_eq!(cold, warm, "{what}: cache hit diverged");
        assert_eq!(cold, fresh, "{what}: bypass diverged");
        let s = cache::stats();
        assert_eq!((s.hits, s.misses, s.bypasses, s.entries), (1, 1, 1, 1), "{what}");
        op_once::<E>(op, &bypass);
        let s = cache::stats();
        assert_eq!((s.hits, s.misses, s.bypasses, s.entries), (1, 1, 2, 1), "{what}");
    }
    cache::clear();
    op_once::<E>(Op::Trsm, &shared);
    op_once::<E>(Op::Trmm, &shared);
    let s = cache::stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2), "TRSM/TRMM collided for {}", E::DTYPE);
}

#[test]
fn bypass_policy_skips_the_cache() {
    let _g = lock();
    cache_vs_bypass::<f32>();
    cache_vs_bypass::<f64>();
    cache_vs_bypass::<c32>();
    cache_vs_bypass::<c64>();
}

#[test]
fn capacity_is_bounded_by_eviction() {
    let _g = lock();
    let cfg = TuningConfig::default();
    let distinct = cache::capacity() + 40;
    for count in 1..=distinct {
        gemm_once(2, 2, 2, count, &cfg);
    }
    let s = cache::stats();
    assert_eq!(s.misses, distinct as u64);
    assert!(s.entries <= cache::capacity(), "{} entries", s.entries);
    assert!(s.evictions > 0);
    // evicted plans are rebuilt transparently
    let c = gemm_once(2, 2, 2, 1, &cfg);
    assert_eq!(c.rows(), 2);
}

#[test]
fn concurrent_mixed_shapes_stress() {
    let _g = lock();
    let cfg = TuningConfig::default();
    // More live shapes than one shard holds, hammered from many threads;
    // every cached result must be bit-identical to a bypass (fresh-plan)
    // call, and the bound must hold under concurrency.
    let shapes: Vec<(usize, usize, usize, usize)> = (0..24)
        .map(|i| (2 + i % 5, 2 + (i / 5) % 4, 2 + i % 3, 8 + i))
        .collect();
    let bypass = TuningConfig {
        plan_cache: PlanCachePolicy::Bypass,
        ..TuningConfig::default()
    };
    let expected: Vec<CompactBatch<f64>> = shapes
        .iter()
        .map(|&(m, n, k, count)| gemm_once(m, n, k, count, &bypass))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let shapes = &shapes;
            let expected = &expected;
            let cfg = &cfg;
            scope.spawn(move || {
                for round in 0..20 {
                    let i = (t * 7 + round * 3) % shapes.len();
                    let (m, n, k, count) = shapes[i];
                    let c = gemm_once(m, n, k, count, cfg);
                    assert_eq!(c.as_scalars(), expected[i].as_scalars());
                }
            });
        }
    });
    let s = cache::stats();
    assert_eq!(s.hits + s.misses, 8 * 20);
    assert!(s.entries <= cache::capacity());
    assert!(s.hits > 0);
}
