//! Process-wide execution-plan cache.
//!
//! The paper's run-time stage is amortized by design: it "only generates
//! this execution plan at the beginning" and reuses it for the whole group
//! (§5.3). The one-shot entry points in [`crate::api`] extend that
//! amortization **across calls**: plans are keyed by every input property
//! the planner consumes — the op's [`TuneKey`] (routine, element type,
//! dimensions, mode, conjugation flags, group count, width) plus a
//! fingerprint of the tuning config — so steady-state traffic over repeated shapes skips the Batch Counter,
//! Pack Selecter, and tile decomposition entirely and pays only per-call
//! validation.
//!
//! Plan construction here is tens of nanoseconds, so the lookup has to be
//! almost free to be worth anything. Two layers keep it that way:
//!
//! 1. A **thread-local front cache** of the last few plans this thread
//!    dispatched: no lock, no allocation, a linear scan of a handful of
//!    keys. Steady-state same-shape traffic never leaves this layer.
//! 2. A **sharded shared cache** behind it (a `Mutex`-guarded flat vector
//!    per shard, shard picked by a cheap multiply-rotate hash — no
//!    `SipHash` on the dispatch path). It is bounded: each shard holds at
//!    most [`SHARD_CAP`] plans and evicts the least-recently-used entry
//!    when full. Plans are `Arc`s, so eviction never invalidates a plan a
//!    caller (or a front cache) still holds.
//!
//! [`clear`] bumps a global epoch that invalidates every thread's front
//! cache on its next lookup.
//!
//! Callers that manage plan lifetimes themselves set
//! [`PlanCachePolicy::Bypass`](crate::config::PlanCachePolicy) (or build
//! plans directly) and never touch the cache.

use crate::config::{fx_mix, TuningConfig};
use crate::elem::CompactElement;
use crate::plan::{CompactOp, GemmPlan, GemmShape, TriShape, TrmmPlan, TrsmPlan};
use crate::sync::{AtomicU64, Ordering::Relaxed};
use iatf_layout::{GemmDims, GemmMode, LayoutError, TrsmDims, TrsmMode};
use iatf_obs as obs;
use iatf_tune::TuneKey;
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independently locked shards (power of two).
pub const SHARDS: usize = 8;

/// Plans held per shard before LRU eviction kicks in.
pub const SHARD_CAP: usize = 16;

/// Plans remembered per thread in the lock-free front cache.
const FRONT_SLOTS: usize = 8;

/// Shard hash of a cache key: the op's [`TuneKey`] and the config
/// fingerprint (which folds in the db generation for tuning-aware configs).
/// The key's width is left out because the fingerprint already folds it in.
fn hash64(key: &TuneKey, cfg: u64) -> u64 {
    let tags = ((key.op as u64) << 48)
        | (u64::from(key.dtype) << 32)
        | (u64::from(key.mode) << 16)
        | u64::from(key.conj);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fx_mix(h, tags);
    h = fx_mix(h, u64::from(key.m));
    h = fx_mix(h, u64::from(key.n));
    h = fx_mix(h, u64::from(key.k));
    h = fx_mix(h, key.count);
    h = fx_mix(h, cfg);
    h
}

type AnyPlan = Arc<dyn Any + Send + Sync>;

struct Entry {
    hash: u64,
    key: TuneKey,
    cfg: u64,
    plan: AnyPlan,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// Flat storage: at most [`SHARD_CAP`] entries, scanned linearly
    /// (hash compared first). Cheaper than a `HashMap` at this size and
    /// avoids a second hashing pass.
    entries: Vec<Entry>,
    tick: u64,
}

struct PlanCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Bumped by [`clear`]; front caches self-invalidate on mismatch.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
}

fn cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| PlanCache {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        epoch: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        evictions: AtomicU64::new(0),
        bypasses: AtomicU64::new(0),
    })
}

/// The per-thread front of the plan cache. It holds no lock and no
/// atomics of its own; its correctness contract is the *epoch protocol*
/// against [`PlanCache::epoch`]:
///
/// 1. a dispatch loads the global epoch exactly once, at entry;
/// 2. [`revalidate`](FrontCache::revalidate) runs against that observed
///    epoch before any lookup, dropping everything remembered under an
///    older epoch;
/// 3. [`remember`](FrontCache::remember) re-checks the same observed
///    epoch, so a plan is never stored into a front that has since moved
///    on.
///
/// Together these guarantee that a dispatch observing epoch `E` never
/// serves (or stores) a plan remembered under an epoch `< E` — the
/// invariant the `loom_models` module at the bottom of this file drives
/// through every bounded interleaving with a concurrent [`clear`].
struct FrontCache {
    epoch: u64,
    /// Round-robin replacement cursor.
    next: usize,
    entries: Vec<(TuneKey, u64, AnyPlan)>,
}

impl FrontCache {
    const fn new() -> Self {
        FrontCache {
            epoch: 0,
            next: 0,
            entries: Vec::new(),
        }
    }

    /// Step 2 of the epoch protocol: drops every remembered plan unless
    /// it was remembered under `epoch` (the value this dispatch observed
    /// in [`PlanCache::epoch`]).
    fn revalidate(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.entries.clear();
            self.next = 0;
            self.epoch = epoch;
        }
    }

    /// Linear scan over the (few) remembered plans. Only meaningful after
    /// [`revalidate`](Self::revalidate) in the same dispatch.
    fn lookup(&self, key: &TuneKey, cfg: u64) -> Option<AnyPlan> {
        self.entries
            .iter()
            .find(|(k, c, _)| k == key && *c == cfg)
            .map(|(_, _, plan)| Arc::clone(plan))
    }

    /// Step 3 of the epoch protocol: stores `plan` round-robin, unless a
    /// newer epoch was installed since this dispatch observed `epoch` (a
    /// concurrent [`clear`] raced us — the plan is then dropped rather
    /// than remembered under an epoch it does not belong to).
    fn remember(&mut self, epoch: u64, key: TuneKey, cfg: u64, plan: &AnyPlan) {
        if self.epoch != epoch {
            return;
        }
        let slot = self.next;
        if self.entries.len() < FRONT_SLOTS {
            self.entries.push((key, cfg, Arc::clone(plan)));
        } else {
            self.entries[slot] = (key, cfg, Arc::clone(plan));
        }
        self.next = (slot + 1) % FRONT_SLOTS;
    }
}

thread_local! {
    static FRONT: RefCell<FrontCache> = const { RefCell::new(FrontCache::new()) };
}

/// Journal probe for a freshly planned shape (runs only on the shared-
/// cache miss path, so sweep-built and bypass plans stay silent): the
/// chosen pack/tile/width decisions plus a digest of the full explain
/// document. Returns the event id for the cache-insert probe to cite.
fn journal_plan_build(key: &TuneKey, x: &obs::PlanExplain) -> u64 {
    iatf_journal::publish(
        iatf_journal::EventKind::PlanBuild,
        &key.encode(),
        0,
        obs::Json::object()
            .set("op", x.op.as_str())
            .set("dtype", x.dtype.as_str())
            .set("mode", x.mode.as_str())
            .set("p", x.p)
            .set("width_bits", x.width_bits)
            .set("uarch", x.uarch.as_str())
            .set("group_packs", x.group_packs)
            .set("pack_a", x.pack_a.as_str())
            .set("pack_b", x.pack_b.as_str())
            .set("main_mr", x.main_kernel.0)
            .set("main_nr", x.main_kernel.1)
            .set("tiles", x.tiles_per_matrix())
            .set(
                "explain_digest",
                format!("{:016x}", iatf_journal::digest64(&x.to_json().to_compact())).as_str(),
            ),
    )
}

/// Returns the shared plan for this input, building it on first use.
///
/// Looks the key up in the front cache, then its shard; on a miss, builds
/// the plan (outside the shard lock — concurrent same-shape misses may
/// build twice, and the first insert wins) and caches it in both layers.
pub fn cached<P: CompactOp>(
    shape: P::Shape,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<P>, LayoutError> {
    let key = P::tune_key(shape, count, cfg.width);
    let fp = cfg.fingerprint();
    let c = cache();
    // ordering: Relaxed — the epoch is the only shared word of the front
    // protocol and carries no payload of its own: observing a stale value
    // only delays invalidation by one dispatch (the stale front still
    // serves plans remembered under the epoch it observed, which is the
    // invariant; see FrontCache). Plans themselves are published by the
    // shard Mutex, never through this load.
    let epoch = c.epoch.load(Relaxed);

    // Fast path: this thread dispatched the same shape recently.
    let front_hit = FRONT.with(|front| {
        let mut f = front.borrow_mut();
        f.revalidate(epoch);
        f.lookup(&key, fp)
    });
    if let Some(plan) = front_hit {
        // ordering: Relaxed — monotonic statistics counter; no reader
        // infers anything from it about other memory.
        c.hits.fetch_add(1, Relaxed);
        obs::count_plan_cache(obs::CacheEvent::Hit);
        return Ok(plan
            .downcast::<P>()
            .expect("plan cache keys encode the concrete plan type"));
    }

    let hash = hash64(&key, fp);
    let shard = &c.shards[(hash % SHARDS as u64) as usize];
    let shared: Option<AnyPlan> = {
        let mut s = shard.lock().expect("plan cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        s.entries
            .iter_mut()
            .find(|e| e.hash == hash && e.cfg == fp && e.key == key)
            .map(|e| {
                e.last_used = tick;
                Arc::clone(&e.plan)
            })
    };
    let (plan, hit) = match shared {
        Some(plan) => (plan, true),
        None => {
            // build without holding the shard lock — planning allocates
            let planned = P::build(shape, count, cfg)?;
            let build_event = if iatf_journal::is_enabled() {
                journal_plan_build(&key, &planned.explain())
            } else {
                0
            };
            let built: AnyPlan = Arc::new(planned);
            // Journaled outside the shard lock below; `Some` only when
            // this thread actually inserted (the race loser stays quiet).
            let mut evicted: Option<(TuneKey, u64)> = None;
            let mut inserted = false;
            let mut s = shard.lock().expect("plan cache shard poisoned");
            s.tick += 1;
            let tick = s.tick;
            let found = s.entries.iter_mut().find(|e| e.hash == hash && e.cfg == fp && e.key == key);
            let plan = match found {
                // another thread inserted while we built: keep its plan
                Some(e) => {
                    e.last_used = tick;
                    Arc::clone(&e.plan)
                }
                None => {
                    if s.entries.len() >= SHARD_CAP {
                        let oldest = s
                            .entries
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(i, _)| i)
                            .expect("shard at capacity is non-empty");
                        evicted = Some((s.entries[oldest].key, s.entries[oldest].cfg));
                        s.entries.swap_remove(oldest);
                        // ordering: Relaxed — monotonic statistics
                        // counter (shard state is guarded by its Mutex).
                        c.evictions.fetch_add(1, Relaxed);
                        obs::count_plan_cache(obs::CacheEvent::Eviction);
                    }
                    s.entries.push(Entry {
                        hash,
                        key,
                        cfg: fp,
                        plan: Arc::clone(&built),
                        last_used: tick,
                    });
                    inserted = true;
                    built
                }
            };
            drop(s);
            if iatf_journal::is_enabled() && inserted {
                if let Some((old, old_cfg)) = evicted {
                    iatf_journal::publish(
                        iatf_journal::EventKind::CacheEvict,
                        &old.encode(),
                        build_event,
                        obs::Json::object()
                            .set("cfg", format!("{old_cfg:016x}").as_str())
                            .set("shard", (hash % SHARDS as u64) as usize),
                    );
                }
                iatf_journal::publish(
                    iatf_journal::EventKind::CacheInsert,
                    &key.encode(),
                    build_event,
                    obs::Json::object()
                        .set("cfg", format!("{fp:016x}").as_str())
                        .set("shard", (hash % SHARDS as u64) as usize),
                );
            }
            (plan, false)
        }
    };
    // ordering: Relaxed — monotonic statistics counters; no reader infers
    // anything from them about other memory.
    if hit {
        c.hits.fetch_add(1, Relaxed);
        obs::count_plan_cache(obs::CacheEvent::Hit);
    } else {
        c.misses.fetch_add(1, Relaxed);
        obs::count_plan_cache(obs::CacheEvent::Miss);
    }

    // Remember in the front cache (round-robin over a few slots).
    FRONT.with(|front| front.borrow_mut().remember(epoch, key, fp, &plan));

    Ok(plan
        .downcast::<P>()
        .expect("plan cache keys encode the concrete plan type"))
}

/// Records a deliberate cache skip (the `Bypass` policy) in the stats.
pub(crate) fn note_bypass() {
    // ordering: Relaxed — monotonic statistics counter.
    cache().bypasses.fetch_add(1, Relaxed);
    obs::count_plan_cache(obs::CacheEvent::Bypass);
}

/// The shared GEMM plan for this shape (see [`cached`]).
pub fn cached_gemm_plan<E: CompactElement>(
    dims: GemmDims,
    mode: GemmMode,
    conj_a: bool,
    conj_b: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<GemmPlan<E>>, LayoutError> {
    cached(GemmShape::new(dims, mode, conj_a, conj_b), count, cfg)
}

/// The shared TRSM plan for this shape (see [`cached`]).
pub fn cached_trsm_plan<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<TrsmPlan<E>>, LayoutError> {
    cached(TriShape::new(dims, mode, conj), count, cfg)
}

/// The shared TRMM plan for this shape (see [`cached`]).
pub fn cached_trmm_plan<E: CompactElement>(
    dims: TrsmDims,
    mode: TrsmMode,
    conj: bool,
    count: usize,
    cfg: &TuningConfig,
) -> Result<Arc<TrmmPlan<E>>, LayoutError> {
    cached(TriShape::new(dims, mode, conj), count, cfg)
}

/// Point-in-time plan-cache statistics. Always live (plain atomics,
/// independent of the `obs` feature). Hits count both front-cache and
/// shared-cache hits; every lookup is exactly one hit or one miss.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (either layer).
    pub hits: u64,
    /// Lookups that built and inserted a plan.
    pub misses: u64,
    /// Entries discarded by the LRU bound.
    pub evictions: u64,
    /// Calls that skipped the cache via `PlanCachePolicy::Bypass`.
    pub bypasses: u64,
    /// Plans resident in the shared cache (front caches not counted).
    pub entries: usize,
}

/// Snapshot of the cache counters and current occupancy.
pub fn stats() -> PlanCacheStats {
    let c = cache();
    // ordering: Relaxed — point-in-time reads of independent monotonic
    // counters; the snapshot is advisory, not a consistent cut.
    PlanCacheStats {
        hits: c.hits.load(Relaxed),
        misses: c.misses.load(Relaxed),
        evictions: c.evictions.load(Relaxed),
        bypasses: c.bypasses.load(Relaxed),
        entries: c
            .shards
            .iter()
            .map(|s| s.lock().expect("plan cache shard poisoned").entries.len())
            .sum(),
    }
}

/// Drops every cached plan (outstanding `Arc`s stay valid), invalidates
/// all front caches via the epoch, and zeroes the counters. Intended for
/// tests and long-lived processes that change tuning configs wholesale.
pub fn clear() {
    let c = cache();
    // ordering: Relaxed — the bump needs no release fence because it
    // publishes nothing: fronts that observe the new value drop their
    // entries and rebuild through the shard Mutex (which is the real
    // synchronization point), and fronts that observe the old value keep
    // serving plans remembered under it, which is the documented
    // transient-staleness window of `clear`. The bump-before-clear order
    // below is still load-bearing for the *shared* cache: a thread that
    // finds a shard empty after this line can only remember the rebuilt
    // plan under the epoch it observed at entry.
    let epoch = c.epoch.fetch_add(1, Relaxed) + 1;
    if iatf_journal::is_enabled() {
        iatf_journal::publish(
            iatf_journal::EventKind::CacheGenerationBump,
            "*",
            0,
            obs::Json::object().set("epoch", epoch),
        );
    }
    for shard in &c.shards {
        let mut s = shard.lock().expect("plan cache shard poisoned");
        s.entries.clear();
        s.tick = 0;
    }
    // ordering: Relaxed — statistics counters reset; racing dispatches
    // may re-add a count, which the stats snapshot tolerates.
    c.hits.store(0, Relaxed);
    c.misses.store(0, Relaxed);
    c.evictions.store(0, Relaxed);
    c.bypasses.store(0, Relaxed);
}

/// Total capacity of the shared cache in plans.
pub const fn capacity() -> usize {
    SHARDS * SHARD_CAP
}

/// Bounded model checking of the front-cache epoch protocol (run with
/// `RUSTFLAGS="--cfg loom" cargo test -p iatf-core --lib loom`): every
/// interleaving of a dispatching thread against a concurrent `clear()`
/// epoch bump, within the model checker's preemption bound.
#[cfg(all(loom, test))]
mod loom_models {
    use super::*;
    use crate::sync::AtomicU64;
    use loom::thread;

    const CFG: u64 = 7;

    fn model_key() -> TuneKey {
        TuneKey {
            op: iatf_tune::TuneOp::Gemm,
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

    /// Plans in the model are `Arc<u64>` tagged with the epoch they were
    /// remembered under, so a served plan can testify which generation it
    /// belongs to.
    fn tagged(epoch: u64) -> AnyPlan {
        Arc::new(epoch) as AnyPlan
    }

    fn tag_of(plan: &AnyPlan) -> u64 {
        *plan.downcast_ref::<u64>().expect("model plans are epoch tags")
    }

    /// Invariant: a dispatch that observes epoch `E` never serves a plan
    /// remembered under an epoch `< E`, no matter how a concurrent
    /// `clear()` bump interleaves with it.
    #[test]
    fn front_never_serves_plan_from_dead_epoch() {
        loom::model(|| {
            let epoch = Arc::new(AtomicU64::new(0));
            let key = model_key();
            let mut front = FrontCache::new();

            // Dispatch 1 (pre-race): remember a plan under the epoch it
            // observed.
            let e1 = epoch.load(Relaxed);
            front.revalidate(e1);
            front.remember(e1, key, CFG, &tagged(e1));

            // Concurrent clear(): the epoch bump, as clear() issues it.
            let writer = {
                let epoch = Arc::clone(&epoch);
                thread::spawn(move || {
                    epoch.fetch_add(1, Relaxed);
                })
            };

            // Dispatch 2 races the bump: whatever epoch it observes, any
            // plan it serves must carry exactly that epoch.
            let e2 = epoch.load(Relaxed);
            front.revalidate(e2);
            if let Some(plan) = front.lookup(&key, CFG) {
                assert_eq!(
                    tag_of(&plan),
                    e2,
                    "front served a plan remembered under a dead epoch"
                );
            }

            writer.join().unwrap();

            // Dispatch 3 (post-race): the bump is now visible; the plan
            // remembered under epoch 0 must be gone.
            let e3 = epoch.load(Relaxed);
            assert_eq!(e3, 1);
            front.revalidate(e3);
            assert!(
                front.lookup(&key, CFG).is_none(),
                "plan from generation 0 survived the generation bump"
            );
        });
    }

    /// Invariant: `remember` never stores a plan into a front that has
    /// already revalidated against a newer epoch — a build that straddles
    /// a `clear()` is dropped, not cached under the wrong generation.
    #[test]
    fn front_remember_refuses_stale_epoch() {
        loom::model(|| {
            let epoch = Arc::new(AtomicU64::new(0));
            let key = model_key();
            let mut front = FrontCache::new();

            // A dispatch observes epoch 0 and starts building.
            let e1 = epoch.load(Relaxed);
            front.revalidate(e1);

            let writer = {
                let epoch = Arc::clone(&epoch);
                thread::spawn(move || {
                    epoch.fetch_add(1, Relaxed);
                })
            };

            // Another dispatch on the same thread may interleave and
            // observe the bumped epoch before the first one's remember
            // runs (thread-local fronts serialize dispatches, but the
            // remember of a long build can follow a fresher revalidate).
            let e2 = epoch.load(Relaxed);
            front.revalidate(e2);
            front.remember(e1, key, CFG, &tagged(e1));

            // If the front moved on to epoch 1, the stale remember must
            // have been dropped; if it is still on epoch 0, the entry is
            // legitimately epoch-0 and dispatch 3 below clears it.
            if e2 > e1 {
                assert!(
                    front.lookup(&key, CFG).is_none(),
                    "remember stored a plan under a dead epoch"
                );
            }

            writer.join().unwrap();

            let e3 = epoch.load(Relaxed);
            front.revalidate(e3);
            if let Some(plan) = front.lookup(&key, CFG) {
                assert_eq!(tag_of(&plan), e3);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cache behaviour tests live in `tests/plan_cache.rs`, serialized
    // against the global state; here the pure key helpers plus a real-
    // thread stress probe of the front-cache epoch protocol (the loom
    // models above prove the same invariant exhaustively but only within
    // the checker's preemption bound).
    #[test]
    fn key_hash_separates_nearby_keys() {
        let base = TuneKey {
            op: iatf_tune::TuneOp::Gemm,
            dtype: 1,
            m: 4,
            n: 4,
            k: 4,
            mode: 0,
            conj: 0,
            count: 32,
            width: 1,
        };
        let mut hashes = std::collections::HashSet::new();
        hashes.insert(hash64(&base, 7));
        for (i, (variant, cfg)) in [
            (TuneKey { op: iatf_tune::TuneOp::Trsm, ..base }, 7),
            (TuneKey { op: iatf_tune::TuneOp::Trmm, ..base }, 7),
            (TuneKey { dtype: 2, ..base }, 7),
            (TuneKey { m: 5, ..base }, 7),
            (TuneKey { n: 5, ..base }, 7),
            (TuneKey { k: 5, ..base }, 7),
            (TuneKey { mode: 1, ..base }, 7),
            (TuneKey { conj: 1, ..base }, 7),
            (TuneKey { count: 33, ..base }, 7),
            (base, 8),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(hashes.insert(hash64(&variant, cfg)), "collision at field {i}");
        }
    }

    /// Real-thread stress test of the invariant the loom model proves in
    /// the bounded case: a dispatch that observed epoch `E` never serves
    /// a plan remembered under an epoch `< E` (a "dead generation").
    /// Plans are tagged with the epoch they were remembered under, a
    /// bumper thread races `clear()`-style epoch advances against worker
    /// dispatch loops, and every front hit must carry the tag of the
    /// epoch the serving dispatch observed.
    #[test]
    #[cfg(not(loom))]
    fn stress_front_never_serves_dead_generation() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        use std::sync::Arc;

        const WORKERS: usize = 4;
        const DISPATCHES: usize = 100_000;

        let epoch = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let bumper = {
            let (epoch, stop) = (Arc::clone(&epoch), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Relaxed) {
                    epoch.fetch_add(1, Relaxed);
                    std::thread::yield_now();
                }
            })
        };

        let key = TuneKey {
            op: iatf_tune::TuneOp::Gemm,
            dtype: 1,
            m: 8,
            n: 8,
            k: 8,
            mode: 0,
            conj: 0,
            count: 1,
            width: 1,
        };
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let epoch = Arc::clone(&epoch);
                std::thread::spawn(move || {
                    let mut front = FrontCache::new();
                    for _ in 0..DISPATCHES {
                        // The epoch protocol: observe once, revalidate,
                        // lookup, remember under the observed value.
                        let e = epoch.load(Relaxed);
                        front.revalidate(e);
                        if let Some(plan) = front.lookup(&key, 42) {
                            let tag = *plan
                                .downcast::<u64>()
                                .expect("stress plans are epoch tags");
                            assert_eq!(
                                tag, e,
                                "front served a plan remembered under a dead generation"
                            );
                        }
                        let plan: AnyPlan = Arc::new(e);
                        front.remember(e, key, 42, &plan);
                    }
                })
            })
            .collect();

        for w in workers {
            w.join().expect("stress worker panicked");
        }
        stop.store(true, Relaxed);
        bumper.join().expect("epoch bumper panicked");
    }
}
