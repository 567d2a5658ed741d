//! FMA peak at the dispatched vector width.
//!
//! Percent-of-peak is only meaningful against the ceiling of the width the
//! kernels actually run at, so the chain below is instantiated with that
//! width's vector type (`F32x16`/`F64x8` on an AVX-512 host) and compiled
//! with the matching target features.

use iatf::simd::{Real, SimdReal, VecWidth};
use std::time::Instant;

/// Independent accumulator chains: enough to cover FMA latency times the
/// number of FMA ports on current cores.
const CHAINS: usize = 16;
const ITERS: usize = 1 << 16;

#[inline(always)]
fn fma_chain<V: SimdReal>(iters: usize) -> (f64, usize) {
    let mut acc = [V::splat(V::Scalar::from_f64(1.0)); CHAINS];
    let x = V::splat(std::hint::black_box(V::Scalar::from_f64(0.999_999)));
    let y = V::splat(std::hint::black_box(V::Scalar::from_f64(1e-9)));
    for _ in 0..iters {
        for a in &mut acc {
            *a = a.fma(x, y);
        }
    }
    let mut sink = V::zero();
    for a in acc {
        sink = sink.add(a);
    }
    (sink.to_array()[0].to_f64(), V::LANES)
}

#[cfg(target_arch = "x86_64")]
mod wide {
    use super::fma_chain;
    use iatf::simd::{F32x16, F32x8, F64x4, F64x8};

    /// # Safety
    /// The host must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn w512(double: bool, iters: usize) -> (f64, usize) {
        if double {
            fma_chain::<F64x8>(iters)
        } else {
            fma_chain::<F32x16>(iters)
        }
    }

    /// # Safety
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn w256(double: bool, iters: usize) -> (f64, usize) {
        if double {
            fma_chain::<F64x4>(iters)
        } else {
            fma_chain::<F32x8>(iters)
        }
    }
}

fn run(width: VecWidth, double: bool, iters: usize) -> (f64, usize) {
    use iatf::simd::{F32x4, F64x2, S32x4, S64x2};
    match width {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `width` is the dispatched width, which the library only
        // selects after detecting AVX-512F on this host.
        VecWidth::W512 => unsafe { wide::w512(double, iters) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, W256 is dispatched only after AVX2+FMA detection.
        VecWidth::W256 => unsafe { wide::w256(double, iters) },
        VecWidth::Scalar if double => fma_chain::<S64x2>(iters),
        VecWidth::Scalar => fma_chain::<S32x4>(iters),
        _ if double => fma_chain::<F64x2>(iters),
        _ => fma_chain::<F32x4>(iters),
    }
}

/// Best of `reps` timed chains, in GFLOPS (each FMA counts two flops).
pub fn measure(width: VecWidth, double: bool, reps: usize) -> f64 {
    let mut best = 0.0f64;
    let mut sink = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (out, lanes) = run(width, double, std::hint::black_box(ITERS));
        let secs = t0.elapsed().as_secs_f64();
        sink += out;
        best = best.max((ITERS * CHAINS * 2 * lanes) as f64 / secs / 1e9);
    }
    std::hint::black_box(sink);
    best
}
