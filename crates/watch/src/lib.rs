//! iatf-watch: always-on dispatch telemetry, performance envelopes, and
//! online drift detection with retune remediation.
//!
//! The paper's tuning story ends when a winner lands in the tuning db —
//! but tuned decisions go stale: cores throttle, neighbors appear,
//! governors change. This crate closes the loop at run time:
//!
//! * [`dispatch_span`] — a scoped probe `iatf-core` wraps around every
//!   warm dispatch. Per shape class (the autotuner's [`TuneKey`]) it
//!   streams latency into per-thread lock-free log2 histograms
//!   ([`stats`]-internal) and feeds the class's drift detector.
//! * **Performance envelopes** — expected latency/throughput per class,
//!   seeded from the tuning db's measurements (or self-calibrated) and
//!   persisted in [`iatf_tune::EnvelopeDb`] next to the tuning db.
//! * **Drift detection** — an EWMA/CUSUM [`ControlChart`] per class trips
//!   on sustained regressions past a noise-aware slack, raising a bounded
//!   queue of structured [`DriftEvent`]s with a suspected cause
//!   (machine-wide throttle vs shape-local staleness).
//! * **Remediation** — a tripped class is flagged; the next dispatch of
//!   that class (under a db-backed tune policy) evicts its tuning-db
//!   entry — bumping the db generation, which invalidates cached plans —
//!   re-sweeps, and re-arms the chart via [`note_retuned`].
//! * **Exposition** — [`snapshot`] (JSON via
//!   [`WatchSnapshot::to_json`], unified with the obs counters by
//!   [`unified_json`]) and [`render_prometheus`].
//!
//! Everything stateful is behind the `enabled` cargo feature
//! (workspace: `watch`). Disabled, [`dispatch_span`] returns a
//! zero-sized guard with no `Drop` impl and never calls its closure,
//! [`take_retune`] is a constant `false`, and snapshots are empty — the
//! warm dispatch hot path compiles exactly as before. The chart math,
//! snapshot types, and Prometheus renderer stay available either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod prom;
pub mod snapshot;

#[cfg(feature = "enabled")]
mod drift;
#[cfg(feature = "enabled")]
mod stats;
#[cfg(feature = "enabled")]
mod sync;

pub use chart::{ControlChart, WatchConfig};
pub use iatf_tune::{EnvelopeDb, EnvelopeSource, PerfEnvelope, TuneKey};
pub use prom::render_prometheus;
pub use snapshot::{ClassSnapshot, DriftCause, DriftEvent, ThreadClassSnapshot, WatchSnapshot};

use iatf_obs::{Json, MetricsSnapshot};

/// Whether the dispatch probes are compiled in.
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Scoped telemetry for one warm dispatch: records wall latency for the
/// shape class on drop. Zero-sized with no `Drop` impl when disabled.
#[must_use = "the guard records on drop; binding it to _ discards the span"]
pub struct DispatchGuard {
    #[cfg(feature = "enabled")]
    key: TuneKey,
    #[cfg(feature = "enabled")]
    flops_per_call: f64,
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

#[cfg(feature = "enabled")]
impl Drop for DispatchGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        stats::record(self.key, ns, self.flops_per_call);
    }
}

/// Opens a dispatch span. The closure supplies the shape class and the
/// flops one call performs; it is only invoked when the feature is on,
/// so a disabled build pays nothing — not even the key construction.
#[inline(always)]
pub fn dispatch_span<F: FnOnce() -> (TuneKey, f64)>(f: F) -> DispatchGuard {
    #[cfg(feature = "enabled")]
    {
        let (key, flops_per_call) = f();
        DispatchGuard {
            key,
            flops_per_call,
            start: std::time::Instant::now(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = f;
        DispatchGuard {}
    }
}

/// Feeds one synthetic dispatch sample (used by tests and reproduction
/// harnesses that need deterministic latencies). No-op when disabled.
#[inline(always)]
pub fn observe_ns(key: TuneKey, ns: u64, flops_per_call: f64) {
    #[cfg(feature = "enabled")]
    stats::record(key, ns, flops_per_call);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (key, ns, flops_per_call);
    }
}

/// Snapshot of all watch state (empty with `enabled: false` when the
/// feature is off).
pub fn snapshot() -> WatchSnapshot {
    #[cfg(feature = "enabled")]
    {
        drift::snapshot()
    }
    #[cfg(not(feature = "enabled"))]
    {
        WatchSnapshot::default()
    }
}

/// Per-thread shards currently registered: one per (live thread, class)
/// plus one retired shard per class holding exited threads' totals (0
/// with the feature off).
pub fn registered_shards() -> usize {
    #[cfg(feature = "enabled")]
    {
        stats::registered()
    }
    #[cfg(not(feature = "enabled"))]
    0
}

/// Zeroes telemetry, detector state, events, flags, and the injection
/// shim in place. Class registrations and persisted envelopes survive.
pub fn reset() {
    #[cfg(feature = "enabled")]
    drift::reset();
}

/// Removes and returns all queued drift events, oldest first.
pub fn drain_events() -> Vec<DriftEvent> {
    #[cfg(feature = "enabled")]
    {
        drift::drain_events()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Drift events ever raised (monotonic; unaffected by [`drain_events`]).
pub fn events_total() -> u64 {
    #[cfg(feature = "enabled")]
    {
        drift::events_total()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// Claims a pending retune flag for `key`. `iatf-core` polls this at
/// dispatch: `true` means "evict the tuning-db entry and re-sweep now".
/// Constant `false` when disabled, so the remediation branch folds away.
#[inline(always)]
pub fn take_retune(key: &TuneKey) -> bool {
    take_retune_cause(key).is_some()
}

/// Like [`take_retune`], but also hands back the journal id of the drift
/// event that raised the flag (0 when the journal feature is off), so the
/// remediation can publish its work under that cause. Constant `None`
/// when disabled, so the remediation branch folds away.
#[inline(always)]
pub fn take_retune_cause(key: &TuneKey) -> Option<u64> {
    #[cfg(feature = "enabled")]
    {
        drift::take_retune(key)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = key;
        None
    }
}

/// Whether `key` is currently flagged for retune (observability only —
/// does not claim the flag).
pub fn retune_pending(key: &TuneKey) -> bool {
    #[cfg(feature = "enabled")]
    {
        drift::retune_pending(key)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = key;
        false
    }
}

/// Reports a completed retune: re-seeds the class envelope from the
/// fresh sweep (`tuned_gflops`, relative `noise`) and re-arms its chart.
/// Pass `tuned_gflops <= 0.0` if the sweep failed — the class falls back
/// to self-calibration.
pub fn note_retuned(key: &TuneKey, tuned_gflops: f64, noise: f64) {
    #[cfg(feature = "enabled")]
    drift::note_retuned(key, tuned_gflops, noise);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (key, tuned_gflops, noise);
    }
}

/// Sweep budget for drift-triggered retunes, milliseconds
/// (`IATF_WATCH_RETUNE_MS`).
pub fn retune_budget_ms() -> u64 {
    #[cfg(feature = "enabled")]
    {
        drift::config().retune_budget_ms
    }
    #[cfg(not(feature = "enabled"))]
    {
        WatchConfig::default().retune_budget_ms
    }
}

/// Test hook: multiplies recorded latencies for one shape class by a
/// skew factor (`None` disarms). The dispatch itself is untouched — only
/// the telemetry sees the slowdown, letting reproduction harnesses prove
/// the detect→retune→recover loop without actually degrading anything.
pub fn inject_latency_skew(skew: Option<(TuneKey, f64)>) {
    #[cfg(feature = "enabled")]
    drift::set_injection(skew);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = skew;
    }
}

/// One document carrying both halves of the runtime's observability: the
/// obs counters and the watch telemetry.
pub fn unified_json(watch: &WatchSnapshot, metrics: &MetricsSnapshot) -> Json {
    Json::object()
        .set("metrics", metrics.to_json())
        .set("watch", watch.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf_tune::TuneOp;

    fn key(m: u32, count: u64) -> TuneKey {
        TuneKey {
            op: TuneOp::Gemm,
            dtype: 1,
            m,
            n: m,
            k: m,
            mode: 0,
            conj: 0,
            count,
            width: 1,
        }
    }

    /// Keep the global stores away from the developer's real cache files:
    /// tests in this binary share a process, so disable persistence once.
    fn isolate() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            std::env::set_var("IATF_WATCH_ENVELOPES", "");
            std::env::set_var("IATF_TUNE_DB", "");
        });
    }

    #[test]
    fn guard_is_zero_sized_when_disabled() {
        if !is_enabled() {
            assert_eq!(std::mem::size_of::<DispatchGuard>(), 0);
            assert!(!std::mem::needs_drop::<DispatchGuard>());
        }
    }

    #[test]
    fn disabled_probes_are_inert() {
        isolate();
        if is_enabled() {
            return;
        }
        let k = key(4, 64);
        observe_ns(k, 1_000, 1.0e3);
        let _guard = dispatch_span(|| (k, 1.0e3));
        drop(_guard);
        let s = snapshot();
        assert!(!s.enabled);
        assert!(s.classes.is_empty());
        assert!(!take_retune(&k));
        assert_eq!(events_total(), 0);
    }

    /// The tentpole's exactness claim: N threads hammer a mix of shared
    /// and private shape classes; the merged per-class totals must equal
    /// the per-thread shard sums *exactly*, and the histogram mass must
    /// equal the counts. The snapshot is taken while the threads are still
    /// alive (their shards fold into retired shards when they exit, which
    /// the second half checks).
    #[test]
    fn concurrent_shard_merge_is_exact() {
        isolate();
        if !is_enabled() {
            return;
        }
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let shared = key(6, 4096);
        let recorded = std::sync::Arc::new(std::sync::Barrier::new(THREADS as usize + 1));
        let snapped = std::sync::Arc::new(std::sync::Barrier::new(THREADS as usize + 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (recorded, snapped) = (recorded.clone(), snapped.clone());
                std::thread::spawn(move || {
                    let private = key(100 + t as u32, 4096);
                    for i in 0..PER_THREAD {
                        // Deterministic latencies spread across buckets.
                        observe_ns(shared, 1000 + i * 7 + t, 1.0e6);
                        observe_ns(private, 500 + i, 1.0e6);
                    }
                    recorded.wait();
                    snapped.wait();
                })
            })
            .collect();
        recorded.wait();
        let s = snapshot();
        snapped.wait();
        for h in handles {
            h.join().unwrap();
        }
        let after_exit = snapshot();
        assert!(s.enabled);
        let merged = s
            .classes
            .iter()
            .find(|c| c.key == shared)
            .expect("shared class missing");
        assert_eq!(merged.count, THREADS * PER_THREAD);

        // Exact equality against the per-thread shards, field by field.
        let shards: Vec<_> = s.threads.iter().filter(|t| t.key == shared).collect();
        assert!(shards.len() >= 2, "expected multiple shards for the shared class");
        assert_eq!(merged.count, shards.iter().map(|t| t.count).sum::<u64>());
        assert_eq!(merged.total_ns, shards.iter().map(|t| t.total_ns).sum::<u64>());
        for b in 0..merged.hist.len() {
            assert_eq!(
                merged.hist[b],
                shards.iter().map(|t| t.hist[b]).sum::<u64>(),
                "bucket {b} merge mismatch"
            );
        }
        assert_eq!(merged.hist.iter().sum::<u64>(), merged.count);

        // Private classes: one shard each, merged == shard.
        for t in 0..THREADS {
            let k = key(100 + t as u32, 4096);
            let c = s.classes.iter().find(|c| c.key == k).unwrap();
            assert_eq!(c.count, PER_THREAD);
            let shards: Vec<_> = s.threads.iter().filter(|th| th.key == k).collect();
            assert_eq!(shards.len(), 1);
            assert_eq!(shards[0].count, c.count);
        }

        // Exited threads' shards folded into one retired shard per class
        // (tid 0), with the merged totals unchanged.
        for k in std::iter::once(shared).chain((0..THREADS).map(|t| key(100 + t as u32, 4096))) {
            let before = s.classes.iter().find(|c| c.key == k).unwrap();
            let after = after_exit.classes.iter().find(|c| c.key == k).unwrap();
            assert_eq!(after.count, before.count);
            assert_eq!(after.total_ns, before.total_ns);
            assert_eq!(after.hist, before.hist);
            assert_eq!((after.min_ns, after.max_ns), (before.min_ns, before.max_ns));
            let shards: Vec<_> = after_exit.threads.iter().filter(|t| t.key == k).collect();
            assert_eq!(shards.len(), 1, "exited threads must fold into one shard");
            assert_eq!(shards[0].tid, 0);
        }
    }

    /// End-to-end inside the crate: calibration → injected sustained
    /// slowdown → drift event with sane fields → retune flag → rearm →
    /// healthy again.
    #[test]
    fn injected_slowdown_trips_flags_and_rearms() {
        isolate();
        if !is_enabled() {
            return;
        }
        let k = key(24, 1024);
        let flops = 2.0e6;
        let healthy = 10_000u64;

        // Calibration + steady healthy traffic: no events for this key.
        for _ in 0..200 {
            observe_ns(k, healthy, flops);
        }
        assert!(
            !drain_events().iter().any(|e| e.key == k),
            "false positive under steady traffic"
        );

        // Sustained 2.5x via the injection shim.
        inject_latency_skew(Some((k, 2.5)));
        let mut fired = false;
        for _ in 0..200 {
            observe_ns(k, healthy, flops);
            if retune_pending(&k) {
                fired = true;
                break;
            }
        }
        assert!(fired, "no drift event within 200 slow dispatches");
        inject_latency_skew(None);

        let events = drain_events();
        let ev = events.iter().find(|e| e.key == k).expect("event missing");
        assert!(ev.ratio > 1.5, "ratio {} not elevated", ev.ratio);
        assert!(ev.observed_ns > ev.expected_ns);
        assert!((0.05..=0.99).contains(&ev.confidence));
        assert!(events_total() >= 1);

        let class = snapshot().classes.into_iter().find(|c| c.key == k).unwrap();
        assert!(class.drifting);
        assert!(class.retune_pending);

        // Remediation: claim the flag (idempotent), re-arm at the slower
        // reality, and verify steady traffic no longer trips.
        assert!(take_retune(&k));
        assert!(!take_retune(&k), "flag not consumed");
        note_retuned(&k, flops / (2.5 * healthy as f64), 0.02);
        let class = snapshot().classes.into_iter().find(|c| c.key == k).unwrap();
        assert!(!class.drifting, "trip latch survived retune");
        inject_latency_skew(Some((k, 2.5)));
        for _ in 0..100 {
            observe_ns(k, healthy, flops);
        }
        inject_latency_skew(None);
        assert!(
            !drain_events().iter().any(|e| e.key == k),
            "re-armed chart tripped at its own expectation"
        );
    }

    #[test]
    fn unified_json_carries_both_halves() {
        isolate();
        let doc = unified_json(&snapshot(), &iatf_obs::snapshot());
        let parsed = iatf_obs::parse_json(&doc.to_pretty()).unwrap();
        assert!(parsed.get("metrics").is_some());
        assert!(parsed
            .get("watch")
            .and_then(|w| w.get("events_total"))
            .is_some());
    }
}
