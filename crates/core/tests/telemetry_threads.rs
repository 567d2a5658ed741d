//! Per-thread telemetry stays bounded under the parallel executor, which
//! spawns its workers on every call: each exiting thread's obs phase slot,
//! trace ring and watch shards fold into retired totals, so the registries
//! stay as long as the live thread count while totals stay exact and trace
//! loss is still reported.
//!
//! Run with `--features obs,trace,watch`. The binary holds this one test so
//! no sibling test's threads are live while it counts.

#![cfg(all(feature = "obs", feature = "trace", feature = "watch"))]

use iatf_core::{
    compact_gemm, obs, trace, watch, BatchPolicy, GemmPlan, PlanCachePolicy, TuningConfig,
};
use iatf_layout::{CompactBatch, GemmDims, GemmMode, StdBatch};
use iatf_simd::Element;

/// Registry entries allowed beyond one per live thread: obs's retired slot
/// and watch's retired shard for the one class used here.
const SLACK: usize = 2;

#[test]
fn a_thousand_parallel_executes_leave_every_registry_bounded() {
    std::env::set_var("IATF_WATCH_ENVELOPES", "");
    std::env::set_var("IATF_TUNE_DB", "");
    obs::reset();
    trace::reset();
    let cfg = TuningConfig {
        batch: BatchPolicy::Fixed(1),
        plan_cache: PlanCachePolicy::Bypass,
        ..TuningConfig::default()
    };
    let packs = 9;
    let count = packs * f32::p_at(cfg.width);
    let dims = GemmDims::square(8);
    let a = CompactBatch::from_std_at(&StdBatch::<f32>::random(8, 8, count, 1), cfg.width);
    let b = CompactBatch::from_std_at(&StdBatch::<f32>::random(8, 8, count, 2), cfg.width);
    let mut c = CompactBatch::<f32>::zeroed_at(8, 8, count, cfg.width);
    let plan = GemmPlan::<f32>::new(dims, GemmMode::NN, false, false, count, &cfg).unwrap();
    const CALLS: u64 = 1000;
    for _ in 0..CALLS {
        plan.execute_parallel(1.0, &a, &b, 0.0, &mut c).unwrap();
    }
    // The watch probe sits in the one-shot API, on the caller's thread:
    // churn callers too.
    let callers = 50;
    std::thread::scope(|s| {
        for _ in 0..callers {
            s.spawn(|| {
                let mut c = CompactBatch::<f32>::zeroed_at(8, 8, count, cfg.width);
                compact_gemm(GemmMode::NN, 1.0, &a, &b, 0.0, &mut c, &cfg).unwrap();
            });
        }
    });

    // Only this thread is live now.
    assert!(
        obs::registered_phase_slots() <= 1 + SLACK,
        "{}",
        obs::registered_phase_slots()
    );
    assert!(trace::live_rings() <= 1 + SLACK, "{}", trace::live_rings());
    assert!(
        watch::registered_shards() <= 1 + SLACK,
        "{}",
        watch::registered_shards()
    );

    // Totals stay exact: one compute span per pack per execute, wherever
    // the pack ran.
    let compute = &obs::snapshot().phases[obs::Phase::Compute as usize];
    assert_eq!(compute.calls, (CALLS + callers) * packs as u64);
    let class = watch::snapshot()
        .classes
        .iter()
        .map(|c| c.count)
        .sum::<u64>();
    assert_eq!(class, callers);

    // Trace loss is reported, and the retired buffer stays bounded.
    let dropped = trace::dropped();
    let events = trace::drain();
    assert!(dropped > 0, "ten thousand spans cannot fit the rings");
    assert!(
        events.len() <= 2 * trace::recorder::DEFAULT_CAPACITY,
        "{}",
        events.len()
    );
}
