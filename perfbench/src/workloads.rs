//! The three workloads: which slots exist and in which order a closed-loop
//! caller visits them. Inputs depend only on the seed.
//!
//! * `gemm_stream` — paper Figs. 7/8/11 traffic: large groups of one shape
//!   each, every dtype, orders 1–33, NN/NT/TN/TT in rotation.
//! * `tri_stream` — Figs. 9/10 plus the TRMM extension: TRMM then TRSM on
//!   the same A, the 16 side/trans/uplo/diag modes in rotation.
//! * `small_dispatch` — many small groups (PDE element blocks): about
//!   2–3x the plan-cache capacity in distinct keys, Zipf popularity, a
//!   quarter of the calls through the std-layout API.
//!
//! Stream slots are visited in interleaved round-robin order (one round =
//! every slot once), so slow drift on the host hits every shape equally.

use iatf::layout::SplitMix64;
use iatf::{DType, GemmMode, TrsmMode};

pub const NAMES: [&str; 3] = ["gemm_stream", "tri_stream", "small_dispatch"];

/// Orders of the stream workloads (the paper sweeps 1–33).
const STREAM_ORDERS: [usize; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 33];
/// Each stream operand is about this many times the per-core L2.
pub const STREAM_L2_MULTIPLE: usize = 4;
/// Slots of `small_dispatch`; with a TRMM→TRSM pair holding two plans,
/// this gives 2–3x the plan cache's 128 entries in distinct keys.
const SMALL_SLOTS: usize = 192;
/// Visits per `small_dispatch` round, and rounds before the pick sequence
/// repeats.
const SMALL_ROUND: usize = 4096;
const SMALL_ROUNDS: usize = 64;
/// Fixed generator seed of the `small_dispatch` problem set.
const SMALL_SPECS_SEED: u64 = 0x1a7f_2022;
/// Target share of calls that go through `std_*_via_compact`.
const STD_SHARE: f64 = 0.25;

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Kind {
    Gemm(GemmMode),
    /// TRMM→TRSM pair (compact route) or one TRSM (std route).
    Tri(TrsmMode),
}

#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Spec {
    pub kind: Kind,
    pub dtype: DType,
    pub n: usize,
    pub count: usize,
    pub via_std: bool,
}

impl Spec {
    /// Library calls per visit.
    pub fn steps(&self) -> usize {
        match self.kind {
            Kind::Tri(_) if !self.via_std => 2,
            _ => 1,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub specs: Vec<Spec>,
    /// Slot indices per round; the timed phase cycles through them.
    pub rounds: Vec<Vec<u32>>,
    /// Stream workloads must never miss the plan cache once set up.
    pub stream: bool,
}

/// Group size that makes one `n x n` operand about
/// `STREAM_L2_MULTIPLE x l2_bytes`.
pub fn stream_count(dtype: DType, n: usize, l2_bytes: usize) -> usize {
    (STREAM_L2_MULTIPLE * l2_bytes).div_ceil(n * n * dtype.elem_bytes())
}

pub fn build(name: &str, seed: u64, l2_bytes: usize) -> Option<Workload> {
    let (specs, rounds, stream) = match name {
        "gemm_stream" | "tri_stream" => {
            let specs = stream_specs(name == "tri_stream", l2_bytes);
            let round = (0..specs.len() as u32).collect();
            (specs, vec![round], true)
        }
        "small_dispatch" => {
            // The problem set is part of the workload's definition, not of
            // its inputs: a seed-dependent set would change the mix of
            // shapes, and with it every metric, from seed to seed. The
            // seed draws the call sequence and the operand values.
            let specs = small_specs(&mut SplitMix64::new(SMALL_SPECS_SEED));
            (
                specs,
                zipf_rounds(&mut SplitMix64::new(seed), SMALL_SLOTS),
                false,
            )
        }
        _ => return None,
    };
    let name = NAMES.into_iter().find(|n| *n == name)?;
    Some(Workload {
        name,
        specs,
        rounds,
        stream,
    })
}

/// Stream slots, interleaved by order then dtype. Modes rotate so that
/// every dtype meets several modes and every mode appears. A TRMM→TRSM
/// pair holds two plans, so `tri_stream` gives each dtype every other
/// order (still spanning 1–33): 40 plans, the same as `gemm_stream`, which
/// stays far enough below the 8 x 16-entry sharded plan cache that no
/// shard overflows. Cache pressure is `small_dispatch`'s job.
fn stream_specs(tri: bool, l2_bytes: usize) -> Vec<Spec> {
    let tri_modes = TrsmMode::all();
    let mut specs = Vec::new();
    for (ni, &n) in STREAM_ORDERS.iter().enumerate() {
        for (di, &dtype) in DType::ALL.iter().enumerate() {
            let kind = if !tri {
                Kind::Gemm(GemmMode::ALL[(ni + di) % GemmMode::ALL.len()])
            } else if (ni + di) % 2 == 0 {
                // 7 is coprime with 16: consecutive slots walk all modes.
                Kind::Tri(tri_modes[7 * specs.len() % tri_modes.len()])
            } else {
                continue;
            };
            specs.push(Spec {
                kind,
                dtype,
                n,
                count: stream_count(dtype, n, l2_bytes),
                via_std: false,
            });
        }
    }
    specs
}

/// Distinct small problems in popularity order (index 0 most popular).
/// The std route goes to a slot whenever that keeps the expected std share
/// of calls at or below `STD_SHARE`.
fn small_specs(rng: &mut SplitMix64) -> Vec<Spec> {
    let tri_modes = TrsmMode::all();
    let mut specs: Vec<Spec> = Vec::with_capacity(SMALL_SLOTS);
    let (mut std_w, mut all_w) = (0.0, 0.0);
    while specs.len() < SMALL_SLOTS {
        let kind = if rng.below(2) == 0 {
            Kind::Gemm(GemmMode::ALL[rng.below(4)])
        } else {
            Kind::Tri(tri_modes[rng.below(tri_modes.len())])
        };
        let mut spec = Spec {
            kind,
            dtype: [DType::F32, DType::F64][rng.below(2)],
            n: 1 + rng.below(8),
            count: 8 + rng.below(57),
            via_std: false,
        };
        if specs.iter().any(|s| {
            Spec {
                via_std: false,
                ..*s
            } == spec
        }) {
            continue;
        }
        let rank_w = 1.0 / (specs.len() + 1) as f64;
        let std_calls = rank_w
            * Spec {
                via_std: true,
                ..spec
            }
            .steps() as f64;
        spec.via_std = (std_w + std_calls) / (all_w + std_calls) <= STD_SHARE;
        if spec.via_std {
            std_w += std_calls;
        }
        all_w += rank_w * spec.steps() as f64;
        specs.push(spec);
    }
    specs
}

/// Zipf (s = 1) picks over `slots`, grouped into rounds.
fn zipf_rounds(rng: &mut SplitMix64, slots: usize) -> Vec<Vec<u32>> {
    let mut cdf: Vec<f64> = Vec::with_capacity(slots);
    let mut total = 0.0;
    for r in 1..=slots {
        total += 1.0 / r as f64;
        cdf.push(total);
    }
    (0..SMALL_ROUNDS)
        .map(|_| {
            (0..SMALL_ROUND)
                .map(|_| {
                    let u = rng.next_f64() * total;
                    cdf.partition_point(|&c| c < u).min(slots - 1) as u32
                })
                .collect()
        })
        .collect()
}

/// Distinct plan-cache keys a workload touches.
pub fn distinct_keys(specs: &[Spec]) -> usize {
    specs.iter().map(Spec::steps).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rotations_cover_every_mode_and_dtype() {
        let tri = stream_specs(true, 1 << 20);
        assert_eq!(
            distinct_keys(&tri),
            distinct_keys(&stream_specs(false, 1 << 20))
        );
        for dtype in DType::ALL {
            let orders: Vec<usize> = tri
                .iter()
                .filter(|s| s.dtype == dtype)
                .map(|s| s.n)
                .collect();
            assert!(
                orders.len() == 5 && orders.iter().any(|&n| n >= 24),
                "{dtype}: {orders:?}"
            );
        }
        for mode in TrsmMode::all() {
            assert!(tri.iter().any(|s| s.kind == Kind::Tri(mode)), "{mode}");
        }
        let gemm = stream_specs(false, 1 << 20);
        for mode in GemmMode::ALL {
            for dtype in DType::ALL {
                assert!(gemm
                    .iter()
                    .any(|s| s.kind == Kind::Gemm(mode) && s.dtype == dtype));
            }
        }
    }

    #[test]
    fn small_dispatch_is_seeded_and_sized() {
        let a = build("small_dispatch", 7, 1 << 20).unwrap();
        let b = build("small_dispatch", 7, 1 << 20).unwrap();
        let c = build("small_dispatch", 8, 1 << 20).unwrap();
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.specs, c.specs);
        assert_ne!(a.rounds, c.rounds);
        let keys = distinct_keys(&a.specs);
        let cap = iatf::core::plan::cache::capacity();
        assert!((2 * cap..=3 * cap).contains(&keys), "{keys} keys");
        // Expected share of calls through the std API.
        let h: f64 = (1..=a.specs.len()).map(|r| 1.0 / r as f64).sum();
        let (mut std_calls, mut calls) = (0.0, 0.0);
        for (i, s) in a.specs.iter().enumerate() {
            let w = s.steps() as f64 / (i + 1) as f64 / h;
            calls += w;
            if s.via_std {
                std_calls += w;
            }
        }
        let share = std_calls / calls;
        assert!((0.2..=0.3).contains(&share), "std share {share}");
    }
}
