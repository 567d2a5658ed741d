//! The super-block executor shared by the GEMM, TRSM and TRMM plans, and
//! the serial→parallel crossover rule (the paper's "extend our approach to
//! multicore CPU" future-work item).
//!
//! Parallelism is between packs, never inside one: the unit of work is one
//! super-block, run through the plan's own `run_superblock` body over its
//! disjoint chunk of the output, so a parallel execute is bit-identical to
//! the serial loop by construction. Workers are scoped threads spawned per
//! call; the calling thread runs one share itself. Super-blocks are handed
//! out one at a time from a shared queue, so a worker that a busy host
//! slows down simply claims fewer of them. Every thread leases its own
//! scratch from the thread-local [`arena`], which keeps the Batch Counter's
//! L1 sizing per core.

use iatf_pack::{arena, PackBuffer};
use iatf_simd::Real;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Threads a parallel execute may use: the host's available parallelism,
/// read once per process.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Per-core L2 capacity of the host, read once per process.
fn l2_bytes() -> usize {
    static L2: OnceLock<usize> = OnceLock::new();
    *L2.get_or_init(|| crate::machine::host_profile().l2_bytes)
}

/// The crossover rule applied at plan build when no tuned entry decides:
/// run in parallel when the group's working set (`packs × bytes_per_pack`)
/// is at least the per-core L2 — below that one core's caches hold the
/// whole group and a thread spawn costs more than it saves — and there are
/// at least two super-blocks per thread to balance. Always `false` on a
/// single-core host.
pub(crate) fn prefers_parallel(footprint_bytes: usize, superblocks: usize) -> bool {
    // Two threads need four super-blocks. Testing that first keeps small
    // plans from paying the first read of the host facts (file reads).
    superblocks >= 4 && {
        let t = threads();
        t > 1 && superblocks >= 2 * t && footprint_bytes >= l2_bytes()
    }
}

/// Runs `body(sb_idx, chunk, scratch)` over every `chunk_len`-scalar chunk
/// of `data` (the last one may be short). Serial runs the chunks in order
/// on the calling thread; parallel spreads them over up to [`threads`]
/// threads, capped by the chunk count.
pub(crate) fn for_each_superblock<R, F>(data: &mut [R], chunk_len: usize, parallel: bool, body: F)
where
    R: Real,
    F: Fn(usize, &mut [R], &mut PackBuffer<R>) + Sync,
{
    let workers = if parallel {
        threads().min(data.len().div_ceil(chunk_len))
    } else {
        1
    };
    if workers <= 1 {
        let mut lease = arena::lease::<R>();
        for (sb_idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            body(sb_idx, chunk, lease.buffer());
        }
        return;
    }
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let run = || {
        let mut lease = arena::lease::<R>();
        loop {
            // The guard drops at the end of this statement, before the work.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((sb_idx, chunk)) = next else { break };
            body(sb_idx, chunk, lease.buffer());
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(run);
        }
        run();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_runs_exactly_once_with_its_index() {
        for parallel in [false, true] {
            for (len, chunk) in [(0usize, 4usize), (1, 4), (17, 4), (64, 8), (9, 100)] {
                let mut data: Vec<f64> = vec![0.0; len];
                for_each_superblock(&mut data, chunk, parallel, |sb, c, _| {
                    for v in c.iter_mut() {
                        *v += (sb + 1) as f64;
                    }
                });
                let want: Vec<f64> = (0..len).map(|i| (i / chunk + 1) as f64).collect();
                assert_eq!(data, want, "len {len} chunk {chunk} parallel {parallel}");
            }
        }
    }

    #[test]
    fn crossover_rule_needs_l2_footprint_and_two_superblocks_per_thread() {
        let l2 = l2_bytes();
        let many = 2 * threads();
        assert!(!prefers_parallel(l2 - 1, many));
        assert!(!prefers_parallel(64 * 1024, 1 << 20));
        assert!(!prefers_parallel(l2, many - 1));
        assert_eq!(prefers_parallel(l2, many), threads() > 1);
    }
}
