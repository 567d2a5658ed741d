//! The process-wide flight recorder.
//!
//! Every instrumented thread lazily registers one [`SpanRing`] in a global
//! registry on its first span; [`span`] opens a timing span whose guard
//! pushes a completed event into the *calling thread's* ring on drop
//! (single producer per ring, wait-free, lossy when full). When a thread
//! exits its ring retires: the undrained events move to a bounded buffer
//! and the ring is freed. [`drain`] collects the surviving events of every
//! ring and of that buffer, merged chronologically.
//!
//! With the `enabled` cargo feature off, [`span`] returns a zero-sized
//! guard with no `Drop` impl and [`drain`] is a constant empty vector —
//! the whole recorder compiles away, matching the `iatf-obs` probe
//! pattern.
//!
//! Timestamps are nanoseconds since the process *trace epoch*: the first
//! instant anything touched the recorder. All threads share the epoch, so
//! cross-thread event ordering in the exported trace is meaningful.

use crate::ring::SpanKind;
pub use crate::ring::SpanEvent;

#[cfg(feature = "enabled")]
use crate::ring::SpanRing;
#[cfg(feature = "enabled")]
use crate::sync::{AtomicU64, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::collections::VecDeque;
#[cfg(feature = "enabled")]
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Default per-thread ring capacity in events, overridable (before the
/// first span on a thread) with `IATF_TRACE_CAPACITY`.
pub const DEFAULT_CAPACITY: usize = 8192;

#[cfg(feature = "enabled")]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (0 with the feature off).
pub fn now_ns() -> u64 {
    #[cfg(feature = "enabled")]
    {
        epoch().elapsed().as_nanos() as u64
    }
    #[cfg(not(feature = "enabled"))]
    0
}

/// Every live thread's ring, plus what exited threads left behind: their
/// undrained events (bounded to one ring's capacity, oldest dropped first)
/// and their loss counts. A thread's ring retires into this when the
/// thread exits, so the registry stays as long as the live thread count
/// even when the executor spawns workers on every call.
#[cfg(feature = "enabled")]
struct Registry {
    rings: Vec<Arc<SpanRing>>,
    retired: VecDeque<SpanEvent>,
    retired_dropped: u64,
}

/// The registry, locked. Draining and retiring both hold this lock, so a
/// ring never has two consumers at once.
#[cfg(feature = "enabled")]
fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| {
            Mutex::new(Registry {
                rings: Vec::new(),
                retired: VecDeque::new(),
                retired_dropped: 0,
            })
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(feature = "enabled")]
fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| iatf_obs::env::env_usize("IATF_TRACE_CAPACITY", DEFAULT_CAPACITY, 2))
}

/// The calling thread's ring; dropping it (at thread exit) moves the
/// ring's undrained events and loss count into the registry's retired
/// buffer.
#[cfg(feature = "enabled")]
struct RingHandle(Arc<SpanRing>);

#[cfg(feature = "enabled")]
impl Drop for RingHandle {
    fn drop(&mut self) {
        let mut reg = registry();
        reg.rings.retain(|r| !Arc::ptr_eq(r, &self.0));
        let mut events = Vec::new();
        reg.retired_dropped += self.0.dropped();
        self.0.drain(&mut events);
        reg.retired.extend(events);
        let excess = reg.retired.len().saturating_sub(ring_capacity());
        reg.retired.drain(..excess);
        reg.retired_dropped += excess as u64;
    }
}

#[cfg(feature = "enabled")]
thread_local! {
    static THREAD_RING: RingHandle = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        // ordering: Relaxed — id allocator: fetch_add's atomicity alone
        // guarantees unique tids; nothing else rides on this word.
        let ring = Arc::new(SpanRing::with_capacity(
            NEXT_TID.fetch_add(1, Relaxed),
            ring_capacity(),
        ));
        registry().rings.push(Arc::clone(&ring));
        // Pin the epoch no later than the first registration so the first
        // event's timestamp is near zero.
        let _ = epoch();
        RingHandle(ring)
    };
}

/// Rings currently registered: one per live thread that has recorded a
/// span (0 with the feature off).
pub fn live_rings() -> usize {
    #[cfg(feature = "enabled")]
    {
        registry().rings.len()
    }
    #[cfg(not(feature = "enabled"))]
    0
}

/// Live timing span; pushes a completed event into the calling thread's
/// ring on drop. Zero-sized (and drop-free) with the feature off.
#[must_use = "a span guard records until it drops; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    kind: SpanKind,
    #[cfg(feature = "enabled")]
    arg: u64,
    #[cfg(feature = "enabled")]
    start_ns: u64,
}

/// Opens a flight-recorder span of `kind`.
#[inline(always)]
pub fn span(kind: SpanKind) -> SpanGuard {
    span_arg(kind, 0)
}

/// Opens a span carrying a kind-specific payload (packs in a super-block,
/// batch count of a plan build, …).
#[inline(always)]
pub fn span_arg(kind: SpanKind, arg: u64) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        SpanGuard {
            kind,
            arg,
            start_ns: now_ns(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (kind, arg);
        SpanGuard {}
    }
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = now_ns().saturating_sub(self.start_ns);
        // A span closed during thread teardown, after the ring retired,
        // counts as lost.
        if THREAD_RING
            .try_with(|r| r.0.push(self.kind, self.start_ns, dur, self.arg))
            .is_err()
        {
            registry().retired_dropped += 1;
        }
    }
}

/// Whether the `enabled` feature was compiled in.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Drains every thread's ring, and what exited threads left behind: all
/// surviving undrained events, merged and sorted chronologically by start
/// time. Always empty with the feature off.
pub fn drain() -> Vec<SpanEvent> {
    #[cfg(feature = "enabled")]
    {
        let mut reg = registry();
        let mut out: Vec<SpanEvent> = reg.retired.drain(..).collect();
        reg.retired_dropped = 0;
        for ring in &reg.rings {
            ring.drain(&mut out);
        }
        drop(reg);
        out.sort_by_key(|e| (e.start_ns, e.tid));
        out
    }
    #[cfg(not(feature = "enabled"))]
    Vec::new()
}

/// Total events lost to overwrite-oldest across all rings, live and
/// retired, since the last drain (0 with the feature off).
pub fn dropped() -> u64 {
    #[cfg(feature = "enabled")]
    {
        let reg = registry();
        reg.retired_dropped + reg.rings.iter().map(|r| r.dropped()).sum::<u64>()
    }
    #[cfg(not(feature = "enabled"))]
    0
}

/// Discards every recorded-but-undrained event (test isolation; a no-op
/// with the feature off).
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        let mut reg = registry();
        reg.retired.clear();
        reg.retired_dropped = 0;
        for ring in &reg.rings {
            ring.clear();
        }
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod zero_size_tests {
    use super::*;

    #[test]
    fn guard_is_zero_sized_and_drain_is_empty_when_disabled() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert!(!std::mem::needs_drop::<SpanGuard>());
        {
            let _g = span(SpanKind::Execute);
        }
        assert!(drain().is_empty());
        assert!(!is_enabled());
    }
}

#[cfg(all(test, feature = "enabled"))]
mod recording_tests {
    use super::*;

    /// One test owns all recorder-global assertions: rings are global and
    /// the harness runs tests concurrently, so sibling tests must not
    /// depend on drain contents.
    #[test]
    fn spans_record_nest_and_drain_chronologically() {
        reset();
        {
            let _outer = span_arg(SpanKind::Execute, 3);
            let _inner = span(SpanKind::PackA);
            std::hint::black_box(0u64);
        }
        {
            let _later = span(SpanKind::Compute);
            std::hint::black_box(0u64);
        }
        let events = drain();
        // Concurrent tests on other threads may contribute events; filter
        // to this thread's.
        let here: Vec<&SpanEvent> = {
            // our tid: record one more span and find its tid
            {
                let _probe = span_arg(SpanKind::TuneSweep, 0xC0FFEE);
            }
            let all = drain();
            let tid = all
                .iter()
                .find(|e| e.kind == SpanKind::TuneSweep && e.arg == 0xC0FFEE)
                .map(|e| e.tid)
                .expect("probe span must drain");
            events.iter().filter(|e| e.tid == tid).collect()
        };
        assert!(here.iter().any(|e| e.kind == SpanKind::PackA));
        assert!(here.iter().any(|e| e.kind == SpanKind::Execute && e.arg == 3));
        assert!(here.iter().any(|e| e.kind == SpanKind::Compute));
        // nesting: inner span closed no later than the outer
        let outer = here.iter().find(|e| e.kind == SpanKind::Execute).unwrap();
        let inner = here.iter().find(|e| e.kind == SpanKind::PackA).unwrap();
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert!(here.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }
}
