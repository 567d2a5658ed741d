//! Online drift detection and retune remediation (enabled builds only).
//!
//! One [`ClassWatch`] per shape class pairs a performance envelope with a
//! [`ControlChart`]. Envelopes are seeded in precedence order:
//!
//! 1. a persisted entry in the global [`EnvelopeDb`],
//! 2. the tuning db's measured winner (`expected_ns = flops /
//!    tuned_gflops`), persisted back as a `tuned` envelope,
//! 3. self-calibration — the first `min_samples` dispatches establish
//!    the expectation, persisted as an `observed` envelope.
//!
//! When a chart first trips, the class is latched as drifting, a
//! [`DriftEvent`] is queued (bounded), and the class is flagged for
//! retune. `iatf-core`'s dispatch path polls the flag via
//! [`take_retune`](crate::take_retune), evicts the stale tuning-db entry
//! (bumping the db generation, which invalidates cached plans), re-runs
//! the sweep, and reports back through [`note_retuned`](crate::note_retuned),
//! which re-arms the chart against the fresh expectation.
//!
//! The latency *injection shim* is a test hook: it multiplies recorded
//! latencies for one class so reproduction harnesses can fake a
//! regression without slowing anything down — the dispatch itself is
//! untouched, only the telemetry sees the skew.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::{AtomicBool, AtomicU64, Ordering::Relaxed};

use iatf_tune::{EnvelopeDb, EnvelopeSource, PerfEnvelope, TuneKey, TuningDb};

use crate::chart::{ControlChart, WatchConfig};
use crate::snapshot::{ClassSnapshot, DriftCause, DriftEvent, WatchSnapshot};

pub(crate) fn config() -> &'static WatchConfig {
    static CONFIG: OnceLock<WatchConfig> = OnceLock::new();
    CONFIG.get_or_init(WatchConfig::from_env)
}

/// Detector state for one shape class.
pub(crate) struct ClassWatch {
    pub(crate) key: TuneKey,
    pub(crate) flops_per_call: f64,
    state: Mutex<ClassState>,
}

struct ClassState {
    /// Armed chart plus the envelope it guards; `None` while
    /// self-calibrating.
    armed: Option<(ControlChart, PerfEnvelope)>,
    /// Self-calibration accumulators (used only while `armed` is None).
    calib_sum: f64,
    calib_sum_sq: f64,
    calib_n: u64,
    /// Latched on the first trip, cleared by `note_retuned`.
    tripped: bool,
    /// Journal id of the seed/recalibrate event that armed the current
    /// envelope; a drift raised against it cites this as its cause.
    seed_event: u64,
}

impl ClassWatch {
    fn new(key: TuneKey, flops_per_call: f64) -> Self {
        let mut seed_event = 0;
        let armed = seed_envelope(&key, flops_per_call).map(|(env, cause)| {
            seed_event = journal_envelope(JournalKind::EnvelopeSeed, &key, &env, cause);
            (ControlChart::new(env.expected_ns, env.noise, config()), env)
        });
        ClassWatch {
            key,
            flops_per_call,
            state: Mutex::new(ClassState {
                armed,
                calib_sum: 0.0,
                calib_sum_sq: 0.0,
                calib_n: 0,
                tripped: false,
                seed_event,
            }),
        }
    }

    /// Feeds one (possibly skewed) dispatch latency into the detector.
    pub(crate) fn observe(&self, ns: u64) {
        let mut state = self.state.lock().unwrap();
        let already_tripped = state.tripped;
        match &mut state.armed {
            Some((chart, env)) => {
                let tripping = chart.observe(ns as f64);
                if tripping && !already_tripped {
                    let event = DriftEvent {
                        key: self.key,
                        expected_ns: env.expected_ns,
                        observed_ns: chart.ewma_ns(),
                        ratio: chart.ewma_ratio(),
                        confidence: chart.confidence(),
                        cause: DriftCause::ShapeLocal, // refined below
                        sample: chart.samples(),
                        source: env.source,
                    };
                    state.tripped = true;
                    let seed_event = state.seed_event;
                    drop(state);
                    raise(
                        DriftEvent {
                            cause: classify(&self.key),
                            ..event
                        },
                        seed_event,
                    );
                }
            }
            None => {
                let x = ns as f64;
                state.calib_sum += x;
                state.calib_sum_sq += x * x;
                state.calib_n += 1;
                if state.calib_n >= config().min_samples {
                    let n = state.calib_n as f64;
                    let mean = state.calib_sum / n;
                    let var = (state.calib_sum_sq / n - mean * mean).max(0.0);
                    let noise = if mean > 0.0 {
                        (var.sqrt() / mean).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    let env = PerfEnvelope {
                        expected_ns: mean.max(1.0),
                        expected_gflops: self.flops_per_call / mean.max(1.0),
                        noise,
                        source: EnvelopeSource::Observed,
                    };
                    EnvelopeDb::global().record(self.key, env);
                    state.seed_event =
                        journal_envelope(JournalKind::EnvelopeSeed, &self.key, &env, 0);
                    state.armed = Some((ControlChart::new(env.expected_ns, env.noise, config()), env));
                }
            }
        }
    }

    /// Re-arms against a fresh expectation after a retune.
    fn rearm(&self, env: PerfEnvelope, seed_event: u64) {
        let mut state = self.state.lock().unwrap();
        state.tripped = false;
        state.calib_sum = 0.0;
        state.calib_sum_sq = 0.0;
        state.calib_n = 0;
        state.seed_event = seed_event;
        state.armed = Some((ControlChart::new(env.expected_ns, env.noise, config()), env));
    }

    /// Resets sequential detector state, keeping the envelope.
    fn reset(&self) {
        let mut state = self.state.lock().unwrap();
        state.tripped = false;
        state.calib_sum = 0.0;
        state.calib_sum_sq = 0.0;
        state.calib_n = 0;
        if let Some((chart, env)) = &mut state.armed {
            chart.rearm(env.expected_ns, env.noise, config());
        }
    }

    fn elevated(&self) -> Option<bool> {
        let state = self.state.lock().unwrap();
        state
            .armed
            .as_ref()
            .filter(|(chart, _)| chart.samples() >= config().min_samples)
            .map(|(chart, _)| chart.elevated() || state.tripped)
    }
}

/// Envelope seeding precedence 1–2 (see module docs); `None` means
/// self-calibrate. The second element is the journal cause to cite for
/// the seed event: the tuning-db winner's recorded `sweep_winner` event
/// when one is known, 0 otherwise.
fn seed_envelope(key: &TuneKey, flops_per_call: f64) -> Option<(PerfEnvelope, u64)> {
    if let Some(env) = EnvelopeDb::global().lookup(key) {
        let cause = TuningDb::global()
            .lookup(key)
            .map_or(0, |e| e.provenance.journal_event);
        return Some((env, cause));
    }
    let entry = TuningDb::global().lookup(key)?;
    // NaN-safe: only a strictly positive measured GFLOPS seeds an envelope.
    if entry.tuned_gflops.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || flops_per_call <= 0.0
    {
        return None;
    }
    let env = PerfEnvelope {
        expected_ns: flops_per_call / entry.tuned_gflops,
        expected_gflops: entry.tuned_gflops,
        noise: entry.noise.clamp(0.0, 1.0),
        source: EnvelopeSource::Tuned,
    };
    EnvelopeDb::global().record(*key, env);
    Some((env, entry.provenance.journal_event))
}

use iatf_journal::EventKind as JournalKind;

/// Journal probe for an envelope arming or re-arming; returns the event
/// id (0 when the journal is off) so a later drift can cite it.
fn journal_envelope(kind: JournalKind, key: &TuneKey, env: &PerfEnvelope, cause: u64) -> u64 {
    if !iatf_journal::is_enabled() {
        return 0;
    }
    iatf_journal::publish(
        kind,
        &key.encode(),
        cause,
        iatf_obs::Json::object()
            .set("expected_ns", env.expected_ns)
            .set("expected_gflops", env.expected_gflops)
            .set("noise", env.noise)
            .set("source", env.source.name()),
    )
}

/// Journal probe for a raised drift; returns the drift event id (0 when
/// the journal is off), which travels with the retune flag so the
/// remediation can cite it.
fn journal_drift(event: &DriftEvent, seed_event: u64) -> u64 {
    if !iatf_journal::is_enabled() {
        return 0;
    }
    iatf_journal::publish(
        JournalKind::Drift,
        &event.key.encode(),
        seed_event,
        iatf_obs::Json::object()
            .set("expected_ns", event.expected_ns)
            .set("observed_ns", event.observed_ns)
            .set("ratio", event.ratio)
            .set("confidence", event.confidence)
            .set("cause", event.cause.name())
            .set("sample", event.sample)
            .set("source", event.source.name()),
    )
}

fn classes() -> &'static Mutex<HashMap<TuneKey, Arc<ClassWatch>>> {
    static CLASSES: OnceLock<Mutex<HashMap<TuneKey, Arc<ClassWatch>>>> = OnceLock::new();
    CLASSES.get_or_init(|| Mutex::new(HashMap::new()))
}

pub(crate) fn class_for(key: TuneKey, flops_per_call: f64) -> Arc<ClassWatch> {
    let mut classes = classes().lock().unwrap();
    Arc::clone(
        classes
            .entry(key)
            .or_insert_with(|| Arc::new(ClassWatch::new(key, flops_per_call))),
    )
}

/// Whole-process correlation: if at least half of the active classes
/// (and at least two) are elevated alongside this one, the regression is
/// machine-wide (throttling, contention) rather than shape-local.
fn classify(key: &TuneKey) -> DriftCause {
    let classes = classes().lock().unwrap();
    let mut active = 0u64;
    let mut elevated = 0u64;
    for (k, watch) in classes.iter() {
        if k == key {
            continue;
        }
        if let Some(e) = watch.elevated() {
            active += 1;
            if e {
                elevated += 1;
            }
        }
    }
    drop(classes);
    // The drifting class itself counts on both sides.
    active += 1;
    elevated += 1;
    if elevated >= 2 && 2 * elevated >= active {
        DriftCause::ThrottleWide
    } else {
        DriftCause::ShapeLocal
    }
}

struct EventQueue {
    events: Mutex<VecDeque<DriftEvent>>,
    total: AtomicU64,
}

fn queue() -> &'static EventQueue {
    static QUEUE: OnceLock<EventQueue> = OnceLock::new();
    QUEUE.get_or_init(|| EventQueue {
        events: Mutex::new(VecDeque::new()),
        total: AtomicU64::new(0),
    })
}

/// Pending-retune flags; the value is the journal id of the drift event
/// that raised the flag (0 when the journal is off), handed to the
/// remediation so the retune cites its cause.
fn retune_flags() -> &'static Mutex<HashMap<TuneKey, u64>> {
    static FLAGS: OnceLock<Mutex<HashMap<TuneKey, u64>>> = OnceLock::new();
    FLAGS.get_or_init(|| Mutex::new(HashMap::new()))
}

static RETUNES_DONE: AtomicU64 = AtomicU64::new(0);

fn raise(event: DriftEvent, seed_event: u64) {
    let key = event.key;
    let drift_id = journal_drift(&event, seed_event);
    {
        let mut events = queue().events.lock().unwrap();
        if events.len() >= config().events_cap {
            events.pop_front();
        }
        events.push_back(event);
    }
    // ordering: Relaxed — monotonic event counter; the events themselves
    // travel through the Mutex-guarded queue above, never this word.
    queue().total.fetch_add(1, Relaxed);
    retune_flags().lock().unwrap().insert(key, drift_id);
}

pub(crate) fn events_total() -> u64 {
    // ordering: Relaxed — advisory read of a monotonic counter.
    queue().total.load(Relaxed)
}

pub(crate) fn drain_events() -> Vec<DriftEvent> {
    queue().events.lock().unwrap().drain(..).collect()
}

pub(crate) fn take_retune(key: &TuneKey) -> Option<u64> {
    retune_flags().lock().unwrap().remove(key)
}

pub(crate) fn retune_pending(key: &TuneKey) -> bool {
    retune_flags().lock().unwrap().contains_key(key)
}

pub(crate) fn note_retuned(key: &TuneKey, tuned_gflops: f64, noise: f64) {
    let Some(watch) = classes().lock().unwrap().get(key).map(Arc::clone) else {
        return;
    };
    let env = if tuned_gflops > 0.0 && watch.flops_per_call > 0.0 {
        PerfEnvelope {
            expected_ns: watch.flops_per_call / tuned_gflops,
            expected_gflops: tuned_gflops,
            noise: noise.clamp(0.0, 1.0),
            source: EnvelopeSource::Tuned,
        }
    } else {
        // Sweep produced nothing usable: fall back to re-calibrating.
        let mut state = watch.state.lock().unwrap();
        state.tripped = false;
        state.calib_sum = 0.0;
        state.calib_sum_sq = 0.0;
        state.calib_n = 0;
        state.armed = None;
        // ordering: Relaxed — monotonic remediation counter, advisory.
        RETUNES_DONE.fetch_add(1, Relaxed);
        return;
    };
    EnvelopeDb::global().record(*key, env);
    // Ambient cause: the core retune path runs this inside the drift's
    // cause scope, so the recalibration chains to the drift event.
    let seed_event = journal_envelope(JournalKind::EnvelopeRecalibrate, key, &env, 0);
    watch.rearm(env, seed_event);
    // ordering: Relaxed — monotonic remediation counter, advisory.
    RETUNES_DONE.fetch_add(1, Relaxed);
}

// --- latency injection shim (test hook) ---------------------------------

static INJECT_ACTIVE: AtomicBool = AtomicBool::new(false);

fn injection() -> &'static Mutex<Option<(TuneKey, f64)>> {
    static INJECTION: OnceLock<Mutex<Option<(TuneKey, f64)>>> = OnceLock::new();
    INJECTION.get_or_init(|| Mutex::new(None))
}

pub(crate) fn set_injection(skew: Option<(TuneKey, f64)>) {
    // ordering: Relaxed — fast-path hint flag only: the authoritative
    // skew value lives behind the Mutex below, and `skewed` re-checks it
    // under the lock before applying anything. A stale flag read merely
    // skips or takes the lock once more.
    INJECT_ACTIVE.store(skew.is_some(), Relaxed);
    *injection().lock().unwrap() = skew;
}

/// Applies the injection multiplier to a recorded latency if the shim is
/// armed for this class; one relaxed load on the common (unarmed) path.
#[inline]
pub(crate) fn skewed(key: TuneKey, ns: u64) -> u64 {
    // ordering: Relaxed — hint only; see `set_injection`.
    if !INJECT_ACTIVE.load(Relaxed) {
        return ns;
    }
    match *injection().lock().unwrap() {
        Some((k, f)) if k == key => (ns as f64 * f) as u64,
        _ => ns,
    }
}

// --- snapshot assembly ---------------------------------------------------

pub(crate) fn snapshot() -> WatchSnapshot {
    let threads: Vec<_> = crate::stats::registry()
        .iter()
        .map(|shard| (shard.read(), shard.min_ns(), shard.max_ns(), shard.flops_per_call))
        .collect();

    // Merge shards by class.
    let mut merged: HashMap<TuneKey, ClassSnapshot> = HashMap::new();
    for (t, min_ns, max_ns, flops) in &threads {
        let c = merged.entry(t.key).or_insert_with(|| ClassSnapshot {
            key: t.key,
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: [0; iatf_obs::metrics::HIST_BUCKETS],
            flops_per_call: *flops,
            ewma_ns: 0.0,
            ewma_ratio: 1.0,
            cusum: 0.0,
            expected_ns: 0.0,
            expected_gflops: 0.0,
            slack: config().slack_floor,
            source: None,
            drifting: false,
            retune_pending: false,
        });
        c.count += t.count;
        c.total_ns += t.total_ns;
        if t.count > 0 {
            c.min_ns = c.min_ns.min(*min_ns);
            c.max_ns = c.max_ns.max(*max_ns);
        }
        for (dst, src) in c.hist.iter_mut().zip(t.hist.iter()) {
            *dst += src;
        }
    }

    // Overlay detector state.
    {
        let classes = classes().lock().unwrap();
        for c in merged.values_mut() {
            if c.min_ns == u64::MAX {
                c.min_ns = 0;
            }
            let Some(watch) = classes.get(&c.key) else {
                continue;
            };
            let state = watch.state.lock().unwrap();
            if let Some((chart, env)) = &state.armed {
                c.ewma_ns = chart.ewma_ns();
                c.ewma_ratio = chart.ewma_ratio();
                c.cusum = chart.cusum();
                c.expected_ns = env.expected_ns;
                c.expected_gflops = env.expected_gflops;
                c.slack = chart.slack();
                c.source = Some(env.source);
            }
            c.drifting = state.tripped;
            drop(state);
            c.retune_pending = retune_pending(&c.key);
        }
    }

    let mut classes: Vec<_> = merged.into_values().collect();
    classes.sort_by_key(|c| c.key.encode());
    let mut thread_shards: Vec<_> = threads.into_iter().map(|(t, ..)| t).collect();
    thread_shards.sort_by_key(|t| (t.tid, t.key.encode()));

    WatchSnapshot {
        enabled: true,
        classes,
        threads: thread_shards,
        events: queue().events.lock().unwrap().iter().copied().collect(),
        events_total: events_total(),
        retunes_pending: retune_flags().lock().unwrap().len() as u64,
        // ordering: Relaxed — advisory read of a monotonic counter.
        retunes_done: RETUNES_DONE.load(Relaxed),
    }
}

/// Zeroes telemetry and sequential detector state in place. Class
/// registrations, envelopes, and thread-local caches stay valid; the
/// event queue, counters, flags, and injection shim are cleared.
pub(crate) fn reset() {
    crate::stats::zero_all();
    for watch in classes().lock().unwrap().values() {
        watch.reset();
    }
    queue().events.lock().unwrap().clear();
    // ordering: Relaxed — counter resets on the quiesced reset path;
    // racing dispatches would merely re-add an event, which the advisory
    // snapshot tolerates.
    queue().total.store(0, Relaxed);
    retune_flags().lock().unwrap().clear();
    RETUNES_DONE.store(0, Relaxed);
    set_injection(None);
}
