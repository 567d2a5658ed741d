//! Streaming per-class telemetry: the hot path of the watch layer.
//!
//! Each `(thread, shape-class)` pair owns a [`ClassShard`] of relaxed
//! atomics — a dispatch count, latency sum, min/max, and a log2 latency
//! histogram (same bucketing as `iatf-obs`). Shards are created on a
//! thread's first dispatch of a class, cached in a thread-local map, and
//! registered in a global list that snapshots merge; after that first
//! touch the record path is a handful of relaxed atomic adds with no
//! locks, no allocation, and no syscalls. When a thread exits, its shards
//! fold into one retired shard per class, so the list does not grow with
//! thread churn. Single-writer/multi-reader
//! atomics make the merged totals *exactly* the per-thread sums — the
//! merge test in `lib.rs` asserts equality, not approximation.
//!
//! This module only exists when the `enabled` feature is on; the
//! disabled crate exposes no-op fronts instead.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::sync::{AtomicU64, Ordering::Relaxed};

use iatf_obs::metrics::HIST_BUCKETS;
use iatf_tune::TuneKey;

use crate::drift::{self, ClassWatch};
use crate::snapshot::ThreadClassSnapshot;

/// One thread's telemetry for one shape class.
pub(crate) struct ClassShard {
    pub(crate) tid: u64,
    pub(crate) key: TuneKey,
    pub(crate) flops_per_call: f64,
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl ClassShard {
    fn new(tid: u64, key: TuneKey, flops_per_call: f64) -> Self {
        ClassShard {
            tid,
            key,
            flops_per_call,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Write side of the shard protocol. Field order is load-bearing
    /// against concurrent `read()`: `count` is bumped *before* the
    /// histogram, and `read()` loads the histogram *before* `count`, so a
    /// snapshot's histogram mass never exceeds its count (the merge code
    /// treats count as authoritative). The `loom_models` module below
    /// drives this pairing through every bounded interleaving.
    #[inline]
    fn record(&self, ns: u64) {
        // ordering: Relaxed — single-writer shard: only the owning thread
        // writes, so each atomic is an independent monotonic accumulator
        // and relaxed read-modify-writes lose nothing; no payload is
        // published through these words (snapshot readers tolerate the
        // bounded skew, see `read`). Exactness of the merged totals comes
        // from quiescence at merge time, not from ordering.
        self.count.fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.min_ns.fetch_min(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
        let bucket = (64 - ns.leading_zeros()) as usize;
        self.hist[bucket].fetch_add(1, Relaxed);
    }

    fn zero(&self) {
        // ordering: Relaxed — reset is only called from quiesced test /
        // reset paths; racing writers would merely re-add a sample, which
        // the advisory snapshot tolerates.
        self.count.store(0, Relaxed);
        self.total_ns.store(0, Relaxed);
        self.min_ns.store(u64::MAX, Relaxed);
        self.max_ns.store(0, Relaxed);
        for b in &self.hist {
            b.store(0, Relaxed);
        }
    }

    /// Read side of the shard protocol: histogram first, `count` last —
    /// the mirror image of `record`'s write order — so concurrent
    /// snapshots satisfy `hist mass <= count` (see `record`).
    pub(crate) fn read(&self) -> ThreadClassSnapshot {
        let mut hist = [0u64; HIST_BUCKETS];
        // ordering: Relaxed — advisory snapshot of single-writer
        // accumulators; the only cross-field guarantee needed is the
        // hist-before-count read order above, which program order plus
        // the write order in `record` already gives on every target this
        // crate supports (and which the loom model checks).
        for (dst, src) in hist.iter_mut().zip(self.hist.iter()) {
            *dst = src.load(Relaxed);
        }
        ThreadClassSnapshot {
            tid: self.tid,
            key: self.key,
            count: self.count.load(Relaxed),
            total_ns: self.total_ns.load(Relaxed),
            hist,
        }
    }

    /// Adds an exited thread's totals into this retired shard. Called
    /// under the registry lock, which makes the lock holder the shard's
    /// single writer.
    fn absorb(&self, other: &ClassShard) {
        let s = other.read();
        // ordering: Relaxed — same single-writer accumulators as `record`
        // (the registry lock serializes every writer of a retired shard);
        // `count` first, as in `record`, so concurrent snapshots never see
        // more histogram mass than count.
        self.count.fetch_add(s.count, Relaxed);
        self.total_ns.fetch_add(s.total_ns, Relaxed);
        self.min_ns.fetch_min(other.min_ns(), Relaxed);
        self.max_ns.fetch_max(other.max_ns(), Relaxed);
        for (dst, n) in self.hist.iter().zip(s.hist) {
            dst.fetch_add(n, Relaxed);
        }
    }

    pub(crate) fn min_ns(&self) -> u64 {
        // ordering: Relaxed — advisory snapshot of a single-writer word.
        self.min_ns.load(Relaxed)
    }

    pub(crate) fn max_ns(&self) -> u64 {
        // ordering: Relaxed — advisory snapshot of a single-writer word.
        self.max_ns.load(Relaxed)
    }
}

/// Thread id of the shards that hold the folded totals of exited threads
/// (one per class).
const RETIRED_TID: u64 = 0;

/// Every live thread's shards plus one retired shard per class. A thread's
/// shards fold into the retired ones when the thread exits, so the list
/// stays bounded by live threads × classes + classes however many threads
/// come and go.
pub(crate) fn registry() -> MutexGuard<'static, Vec<Arc<ClassShard>>> {
    static SHARDS: OnceLock<Mutex<Vec<Arc<ClassShard>>>> = OnceLock::new();
    SHARDS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The retired shard of `key`, created on first use.
fn retired_shard(
    shards: &mut Vec<Arc<ClassShard>>,
    key: TuneKey,
    flops_per_call: f64,
) -> Arc<ClassShard> {
    if let Some(r) = shards.iter().find(|s| s.tid == RETIRED_TID && s.key == key) {
        return Arc::clone(r);
    }
    let r = Arc::new(ClassShard::new(RETIRED_TID, key, flops_per_call));
    shards.push(Arc::clone(&r));
    r
}

/// One class's record-path handles: this thread's shard plus the shared
/// per-class detector.
type ClassHandles = (Arc<ClassShard>, Arc<ClassWatch>);

/// This thread's shard + detector handle per class, so the steady state
/// touches no global locks. Dropping it (at thread exit) folds every shard
/// into its class's retired shard.
#[derive(Default)]
struct ThreadCache(HashMap<TuneKey, ClassHandles>);

impl Drop for ThreadCache {
    fn drop(&mut self) {
        let mut shards = registry();
        for (key, (shard, _)) in self.0.drain() {
            shards.retain(|s| !Arc::ptr_eq(s, &shard));
            retired_shard(&mut shards, key, shard.flops_per_call).absorb(&shard);
        }
    }
}

thread_local! {
    static CACHE: RefCell<ThreadCache> = RefCell::new(ThreadCache::default());
}

/// Shards currently registered: live threads' shards plus one retired
/// shard per class.
pub(crate) fn registered() -> usize {
    registry().len()
}

fn thread_id() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        // ordering: Relaxed — id allocator: fetch_add's atomicity alone
        // guarantees uniqueness; no other memory rides on it.
        static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
    }
    TID.with(|t| *t)
}

/// Records one warm dispatch: `ns` wall latency for one call of `key`
/// performing `flops_per_call` flops. First touch of a class on a thread
/// registers a shard; afterwards this is lock-free except the per-class
/// detector update.
pub(crate) fn record(key: TuneKey, ns: u64, flops_per_call: f64) {
    let ns = drift::skewed(key, ns);
    let recorded = CACHE.try_with(|cache| {
        let mut cache = cache.borrow_mut();
        let (shard, watch) = cache.0.entry(key).or_insert_with(|| {
            let shard = Arc::new(ClassShard::new(thread_id(), key, flops_per_call));
            registry().push(Arc::clone(&shard));
            (shard, drift::class_for(key, flops_per_call))
        });
        shard.record(ns);
        watch.observe(ns);
    });
    if recorded.is_err() {
        // Thread teardown, after this thread's shards retired: record into
        // the retired shard, under the lock that serializes its writers.
        retired_shard(&mut registry(), key, flops_per_call).record(ns);
        drift::class_for(key, flops_per_call).observe(ns);
    }
}

/// Zeroes every shard in place (registrations and thread caches stay
/// valid; see `reset()` in the crate root for the full story).
pub(crate) fn zero_all() {
    for shard in registry().iter() {
        shard.zero();
    }
}

/// Bounded model checking of the shard write/read protocol (run with
/// `RUSTFLAGS="--cfg loom" cargo test -p iatf-watch --features enabled
/// --lib loom`): a recording writer against a concurrent snapshot reader,
/// through every interleaving within the model checker's preemption
/// bound.
#[cfg(all(loom, test))]
mod loom_models {
    use super::*;
    use iatf_tune::TuneOp;
    use loom::thread;

    fn model_key() -> TuneKey {
        TuneKey {
            op: TuneOp::Gemm,
            dtype: 1,
            m: 4,
            n: 4,
            k: 4,
            mode: 0,
            conj: 0,
            count: 32,
            width: 1,
        }
    }

    fn mass(hist: &[u64; HIST_BUCKETS]) -> u64 {
        hist.iter().sum()
    }

    /// Invariants: (a) a snapshot taken *while* the owning thread records
    /// never shows more histogram mass than count (`record` bumps count
    /// first, `read` loads it last); (b) once the writer has joined, the
    /// merge is exact — counts, totals, and histogram mass all equal the
    /// per-thread sums, nothing lost and nothing double-counted.
    #[test]
    fn shard_merge_is_exact_and_snapshots_never_overcount() {
        loom::model(|| {
            let shard = Arc::new(ClassShard::new(1, model_key(), 2.0));
            let writer = {
                let shard = Arc::clone(&shard);
                thread::spawn(move || {
                    shard.record(100);
                    shard.record(200);
                })
            };

            // Concurrent snapshot: may land before, between, or inside
            // the two records.
            let mid = shard.read();
            assert!(
                mass(&mid.hist) <= mid.count,
                "snapshot histogram mass {} exceeds count {}",
                mass(&mid.hist),
                mid.count
            );
            assert!(mid.count <= 2);

            writer.join().unwrap();

            // Post-join: the merge is exact, not approximate.
            let fin = shard.read();
            assert_eq!(fin.count, 2);
            assert_eq!(fin.total_ns, 300);
            assert_eq!(mass(&fin.hist), 2);
            assert_eq!(shard.min_ns(), 100);
            assert_eq!(shard.max_ns(), 200);
        });
    }

    /// Two shards (two recording threads) merged by summation: the
    /// single-writer discipline makes the merged totals exactly the sum
    /// of the per-thread sums in every interleaving.
    #[test]
    fn cross_shard_merge_is_exact_under_concurrent_recording() {
        loom::model(|| {
            let a = Arc::new(ClassShard::new(1, model_key(), 2.0));
            let b = Arc::new(ClassShard::new(2, model_key(), 2.0));
            let wa = {
                let a = Arc::clone(&a);
                thread::spawn(move || a.record(100))
            };
            b.record(50);
            wa.join().unwrap();

            let (sa, sb) = (a.read(), b.read());
            assert_eq!(sa.count + sb.count, 2);
            assert_eq!(sa.total_ns + sb.total_ns, 150);
            assert_eq!(mass(&sa.hist) + mass(&sb.hist), 2);
        });
    }
}
