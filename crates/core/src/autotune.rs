//! BLAS-specific glue to the empirical autotuner (`iatf-tune`).
//!
//! The tuning crate itself is op-agnostic: it knows how to run calibrated
//! interleaved sweeps ([`iatf_tune::sweep`]) and how to persist winners
//! ([`iatf_tune::TuningDb`]). This module owns everything BLAS-shaped:
//!
//! Every function here is generic over the op descriptor
//! [`CompactOp`](crate::plan::CompactOp): one lookup, one first-touch
//! sweep, one drift retune for GEMM, TRSM and TRMM alike. The op supplies
//! the [`TuneKey`] (the plan cache keys on the same value), candidate
//! plans, a dedupe signature and synthetic operands.
//!
//! * **Candidates** — the space the sweep explores: the heuristic plan
//!   (always candidate 0, so the winner can never be slower than the
//!   baseline *in the sweep's own numbers*), pack-policy variants, L1
//!   budget fractions around the model's prediction, and explicit
//!   super-block sizes at half/double the heuristic. Candidates that
//!   decode to the same plan decisions are deduplicated before timing.
//! * **Workloads** — synthetic operands sized like the real input but
//!   capped in group count so the sweep's working set stays modest.
//! * **Decisions** — translating a recorded [`TunedEntry`] back into the
//!   overrides the planners consume ([`TunedDecision`]).
//!
//! Consultation ([`lookup`]) is cheap — one mutex-guarded hash lookup —
//! and only happens when [`TunePolicy`] is `Cached` or `FirstTouch`; the
//! default `Heuristic` policy never touches the db. Sweeps build their
//! candidate plans with a `Heuristic` config, so tuning never recurses
//! into itself.

use std::cell::RefCell;
use std::time::Duration;

use crate::config::{BatchPolicy, PackPolicy, PlanCachePolicy, TunePolicy, TuningConfig};
use crate::plan::CompactOp;
use iatf_obs as obs;
use iatf_simd::VecWidth;
use iatf_trace as trace;
use iatf_tune::{sweep as timed_sweep, SweepReport, TuneKey, TunedEntry, TuningDb};

/// Overrides a tuned entry imposes on one planner invocation.
#[derive(Copy, Clone, Debug)]
pub(crate) struct TunedDecision {
    /// Pack Selecter override: the winner's recorded policy.
    pub pack: PackPolicy,
    /// Batch Counter override; `None` keeps the heuristic L1-model size.
    pub group_packs: Option<usize>,
    /// Serial→parallel crossover: whether parallel execution measured
    /// faster for this input.
    pub parallel: bool,
}

fn decision_from(entry: TunedEntry) -> TunedDecision {
    TunedDecision {
        pack: policy_from_code(entry.pack),
        group_packs: usize::try_from(entry.group_packs)
            .ok()
            .filter(|&gp| gp > 0),
        parallel: entry.parallel,
    }
}

fn pack_code(policy: PackPolicy) -> u8 {
    match policy {
        PackPolicy::Auto => 0,
        PackPolicy::Always => 1,
        PackPolicy::Never => 2,
    }
}

fn policy_from_code(code: u8) -> PackPolicy {
    match code {
        1 => PackPolicy::Always,
        2 => PackPolicy::Never,
        _ => PackPolicy::Auto,
    }
}

/// The tuned decision for this input, if the policy consults the db and
/// it holds an entry. The `Heuristic` policy returns before building a key.
pub(crate) fn lookup<P: CompactOp>(
    shape: P::Shape,
    count: usize,
    cfg: &TuningConfig,
) -> Option<TunedDecision> {
    if matches!(cfg.tune, TunePolicy::Heuristic) {
        return None;
    }
    match TuningDb::global().lookup(&P::tune_key(shape, count, cfg.width)) {
        Some(entry) => {
            obs::count_tune(obs::TuneEvent::Apply);
            Some(decision_from(entry))
        }
        None => {
            obs::count_tune(obs::TuneEvent::Miss);
            None
        }
    }
}

/// One sweep candidate: a fully built plan plus the metadata that becomes
/// the recorded entry if it wins.
struct Candidate<P> {
    plan: P,
    pack_code: u8,
    l1_fraction: f64,
    group_packs: usize,
    /// Whether winning should pin `group_packs` in the db. Candidates
    /// that only vary the pack policy leave the Batch Counter heuristic
    /// in charge (its output depends on the *real* group count, which the
    /// capped measurement count cannot stand in for).
    records_gp: bool,
}

/// Sweep working-set cap: synthetic operands are sized to the real input
/// but the group count is clamped so all operands together stay around
/// this many bytes — enough to exercise the L1/L2 behaviour the Batch
/// Counter models, small enough that a sweep never allocates gigabytes.
const MEASURE_CAP_BYTES: usize = 8 << 20;

/// Group-count floor for measurement, so tiny inputs still produce
/// super-block structure worth timing.
const MEASURE_MIN_COUNT: usize = 64;

fn measure_count(bytes_per_matrix: usize, count: usize) -> usize {
    count
        .min((MEASURE_CAP_BYTES / bytes_per_matrix.max(1)).max(MEASURE_MIN_COUNT))
        .max(1)
}

/// Enumerates, builds, and deduplicates (by [`CompactOp::signature`]) the
/// candidate plans for one sweep. Candidate 0 is always the heuristic
/// baseline.
fn enumerate_candidates<P: CompactOp>(
    cfg: &TuningConfig,
    build: impl Fn(&TuningConfig) -> Option<P>,
) -> Vec<Candidate<P>> {
    let base = TuningConfig {
        tune: TunePolicy::Heuristic,
        plan_cache: PlanCachePolicy::Bypass,
        ..cfg.clone()
    };
    let mut out: Vec<Candidate<P>> = Vec::new();
    let mut sigs: Vec<P::Sig> = Vec::new();
    let Some(plan) = build(&base) else {
        return out;
    };
    let (sig, gp0) = (plan.signature(), plan.group_packs());
    out.push(Candidate {
        plan,
        pack_code: pack_code(base.pack),
        l1_fraction: base.l1_budget_fraction,
        group_packs: gp0,
        records_gp: false,
    });
    sigs.push(sig);

    let mut specs: Vec<(TuningConfig, bool)> = Vec::new();
    for pack in [PackPolicy::Auto, PackPolicy::Always, PackPolicy::Never] {
        if pack != base.pack {
            specs.push((TuningConfig { pack, ..base.clone() }, false));
        }
    }
    // The L1-fraction candidate list comes from the kernel registry row
    // for the plan's vector width: wider backends keep more live registers
    // per pack, shifting where the packed-working-set sweet spot sits, so
    // their rows expose a deeper fraction ladder.
    for &frac in iatf_kernels::row_for(cfg.width).l1_fractions {
        if (frac - base.l1_budget_fraction).abs() > 1e-9 {
            specs.push((
                TuningConfig {
                    l1_budget_fraction: frac,
                    ..base.clone()
                },
                true,
            ));
        }
    }
    for gp in [gp0 / 2, gp0 * 2] {
        if gp >= 1 && gp != gp0 {
            specs.push((
                TuningConfig {
                    batch: BatchPolicy::Fixed(gp),
                    ..base.clone()
                },
                true,
            ));
        }
    }
    for (ccfg, records_gp) in specs {
        let Some(plan) = build(&ccfg) else { continue };
        let sig = plan.signature();
        if !sigs.contains(&sig) {
            sigs.push(sig);
            out.push(Candidate {
                group_packs: plan.group_packs(),
                plan,
                pack_code: pack_code(ccfg.pack),
                l1_fraction: ccfg.l1_budget_fraction,
                records_gp,
            });
        }
    }
    out
}

fn record_winner<P>(
    db: &TuningDb,
    key: TuneKey,
    winner: &Candidate<P>,
    report: &SweepReport,
    flops: f64,
    parallel: bool,
    provenance: iatf_tune::Provenance,
) {
    let entry = TunedEntry {
        pack: winner.pack_code,
        group_packs: if winner.records_gp {
            winner.group_packs as u64
        } else {
            0
        },
        l1_fraction: winner.l1_fraction,
        parallel,
        tuned_gflops: flops / (report.secs[report.winner] * 1e9),
        heuristic_gflops: flops / (report.secs[0] * 1e9),
        noise: report.noise,
        provenance,
    };
    db.record(key, entry);
}

fn unix_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Journal probe for a sweep that is about to measure: returns the
/// `sweep_start` event id (0 when the journal is off). Cause is ambient,
/// so a retune-triggered sweep links back to its drift event while a
/// first-touch sweep is a root.
fn journal_sweep_start(key: &TuneKey, budget_ms: u64, candidates: usize) -> u64 {
    if !iatf_journal::is_enabled() {
        return 0;
    }
    iatf_journal::publish(
        iatf_journal::EventKind::SweepStart,
        &key.encode(),
        0,
        obs::Json::object()
            .set("budget_ms", budget_ms)
            .set("candidates", candidates as u64),
    )
}

/// Journal probes for a finished sweep: one `sweep_candidate` event per
/// measured configuration and the `sweep_winner` (noise, rep counts,
/// host/µarch/width fingerprint), all caused by `sweep_event`. Returns
/// the provenance to stamp into the recorded entry (zeros when off).
fn journal_sweep_outcome<P>(
    key: &TuneKey,
    width: VecWidth,
    cands: &[Candidate<P>],
    report: &SweepReport,
    parallel: bool,
    flops: f64,
    sweep_event: u64,
) -> iatf_tune::Provenance {
    if !iatf_journal::is_enabled() {
        return iatf_tune::Provenance::default();
    }
    let kstr = key.encode();
    for (i, cand) in cands.iter().enumerate() {
        iatf_journal::publish(
            iatf_journal::EventKind::SweepCandidate,
            &kstr,
            sweep_event,
            obs::Json::object()
                .set("index", i as u64)
                .set("pack", u64::from(cand.pack_code))
                .set("l1_fraction", cand.l1_fraction)
                .set("group_packs", cand.group_packs as u64)
                .set("secs", report.secs[i])
                .set("winner", i == report.winner),
        );
    }
    let row = iatf_kernels::row_for(width);
    let host = iatf_journal::host_fingerprint(row.uarch, row.width.name());
    let winner_event = iatf_journal::publish(
        iatf_journal::EventKind::SweepWinner,
        &kstr,
        sweep_event,
        obs::Json::object()
            .set("winner", report.winner as u64)
            .set("candidates", cands.len() as u64)
            .set("noise", report.noise)
            .set("rounds", report.rounds as u64)
            .set("iters", report.iters as u64)
            .set("parallel", parallel)
            .set("tuned_gflops", flops / (report.secs[report.winner] * 1e9))
            .set("uarch", row.uarch)
            .set("width", row.width.name())
            .set("host", format!("{host:016x}").as_str()),
    );
    iatf_tune::Provenance {
        journal_event: winner_event,
        host,
        recorded_at: unix_secs(),
    }
}

/// Drift remediation: if the watch layer flagged this input's key, evict
/// its stale tuning-db entry — bumping the db generation, which
/// invalidates every cached plan keyed on it — re-sweep within the watch
/// retune budget (`IATF_WATCH_RETUNE_MS`), and hand the fresh measurement
/// back so the drift chart re-arms. Compiles to nothing unless the `watch`
/// feature is on; never runs under the `Heuristic` policy (there is no db
/// entry to refresh).
pub fn maybe_retune<P: CompactOp>(shape: P::Shape, count: usize, cfg: &TuningConfig) {
    if !iatf_watch::is_enabled() || matches!(cfg.tune, TunePolicy::Heuristic) {
        return;
    }
    if P::validate(shape).is_err() || count == 0 {
        return;
    }
    let key = P::tune_key(shape, count, cfg.width);
    let Some(drift_event) = iatf_watch::take_retune_cause(&key) else {
        return;
    };
    obs::count_tune(obs::TuneEvent::Retune);
    // Everything the remediation does — eviction, re-sweep, envelope
    // re-arm — journals under the drift event that triggered it.
    let _cause = iatf_journal::cause_scope(drift_event);
    let db = TuningDb::global();
    db.remove(&key);
    sweep::<P>(db, key, shape, count, iatf_watch::retune_budget_ms(), cfg);
    let outcome = db.lookup(&key);
    journal_retune(&key, drift_event, outcome.as_ref());
    match outcome {
        Some(entry) => iatf_watch::note_retuned(&key, entry.tuned_gflops, entry.noise),
        None => iatf_watch::note_retuned(&key, 0.0, 0.0),
    }
}

/// Journal probe for a finished retune: records whether the re-sweep
/// produced a fresh winner, caused by the drift event that demanded it.
fn journal_retune(key: &TuneKey, drift_event: u64, outcome: Option<&TunedEntry>) {
    if !iatf_journal::is_enabled() {
        return;
    }
    iatf_journal::publish(
        iatf_journal::EventKind::Retune,
        &key.encode(),
        drift_event,
        obs::Json::object()
            .set("rerecorded", outcome.is_some())
            .set("tuned_gflops", outcome.map_or(0.0, |e| e.tuned_gflops))
            .set("noise", outcome.map_or(0.0, |e| e.noise)),
    );
}

/// Runs the first-touch sweep for an input if `cfg.tune` asks for one and
/// the db has no entry yet. Returns whether a tuned entry exists for the
/// key afterwards. The one-shot API calls this before planning; the
/// benchmark harness calls it directly to drive tuning.
pub fn ensure_tuned<P: CompactOp>(shape: P::Shape, count: usize, cfg: &TuningConfig) -> bool {
    let TunePolicy::FirstTouch(budget_ms) = cfg.tune else {
        return false;
    };
    if P::validate(shape).is_err() || count == 0 {
        return false;
    }
    let key = P::tune_key(shape, count, cfg.width);
    let db = TuningDb::global();
    if db.lookup(&key).is_none() {
        sweep::<P>(db, key, shape, count, budget_ms, cfg);
    }
    db.lookup(&key).is_some()
}

/// Measures the candidate plans on synthetic operands, races the winner
/// serially against every core, and records the result under `key`.
fn sweep<P: CompactOp>(
    db: &TuningDb,
    key: TuneKey,
    shape: P::Shape,
    count: usize,
    budget_ms: u64,
    cfg: &TuningConfig,
) {
    obs::count_tune(obs::TuneEvent::Sweep);
    let _trace = trace::span_arg(trace::SpanKind::TuneSweep, count as u64);
    let mcount = measure_count(P::matrix_bytes(shape), count);
    let cands = enumerate_candidates(cfg, |c| P::build(shape, mcount, c).ok());
    if cands.is_empty() {
        return;
    }
    let jsweep = journal_sweep_start(&key, budget_ms, cands.len());
    let ops = RefCell::new(P::operands(shape, mcount, cfg.width));
    // Times each (plan, parallel) run against the others.
    let time = |runs: &[(&P, bool)], ms: u64| {
        let mut runners: Vec<Box<dyn FnMut() + '_>> = runs
            .iter()
            .map(|&(plan, parallel)| {
                let ops = &ops;
                Box::new(move || plan.run_on(parallel, &mut ops.borrow_mut()))
                    as Box<dyn FnMut() + '_>
            })
            .collect();
        timed_sweep(Duration::from_millis(ms.max(1)), &mut runners)
    };
    let serial: Vec<(&P, bool)> = cands.iter().map(|c| (&c.plan, false)).collect();
    let report = time(&serial, budget_ms);
    let winner = &cands[report.winner];
    // Serial→parallel crossover: race the winner on one thread against the
    // same plan on every core.
    let race = time(&[(&winner.plan, false), (&winner.plan, true)], budget_ms / 2);
    let parallel = race.winner == 1 && race.strictly_faster(1, 0);
    let flops = P::flops(shape, mcount);
    let provenance = journal_sweep_outcome(&key, cfg.width, &cands, &report, parallel, flops, jsweep);
    record_winner(db, key, winner, &report, flops, parallel, provenance);
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::plan::{GemmPlan, GemmShape, TriShape, TrmmPlan, TrsmPlan};
    use iatf_layout::{GemmDims, GemmMode, TrsmDims, TrsmMode};

    #[test]
    fn keys_distinguish_ops_and_inputs() {
        let gd = GemmDims::new(8, 8, 8);
        let ts = TriShape::new(TrsmDims::new(8, 8), TrsmMode::all()[0], false);
        let w = VecWidth::W128;
        let gkey = |mode, conj_a, count, width| {
            GemmPlan::<f32>::tune_key(GemmShape::new(gd, mode, conj_a, false), count, width)
        };
        let gk = gkey(GemmMode::NN, false, 100, w);
        let sk = TrsmPlan::<f32>::tune_key(ts, 100, w);
        let mk = TrmmPlan::<f32>::tune_key(ts, 100, w);
        assert_ne!(gk, sk);
        assert_ne!(sk, mk);
        let shape = GemmShape::new(gd, GemmMode::NN, false, false);
        assert_ne!(gk, GemmPlan::<f64>::tune_key(shape, 100, w));
        assert_ne!(gk, gkey(GemmMode::NT, false, 100, w));
        assert_ne!(gk, gkey(GemmMode::NN, true, 100, w));
        assert_ne!(gk, gkey(GemmMode::NN, false, 101, w));
        // A db entry recorded at one vector width never answers for
        // another: the width is part of the key itself.
        for other in VecWidth::ALL {
            if other != w {
                assert_ne!(gk, gkey(GemmMode::NN, false, 100, other));
            }
        }
        // Keys round-trip through the db's string encoding.
        assert_eq!(TuneKey::decode(&gk.encode()), Some(gk));
        assert_eq!(TuneKey::decode(&mk.encode()), Some(mk));
    }

    #[test]
    fn heuristic_policy_never_consults_the_db() {
        let cfg = TuningConfig::default(); // tune: Heuristic
        let shape = GemmShape::new(GemmDims::new(4, 4, 4), GemmMode::NN, false, false);
        assert!(lookup::<GemmPlan<f32>>(shape, 64, &cfg).is_none());
        assert!(!ensure_tuned::<GemmPlan<f32>>(shape, 64, &cfg));
    }

    #[test]
    fn measure_count_caps_large_groups_and_floors_small_ones() {
        // Large input: capped well below the requested count.
        let c = measure_count(32 * 32 * 3 * 8, 1_000_000);
        assert!((MEASURE_MIN_COUNT..1_000_000).contains(&c));
        // Small input: floor kicks in but never exceeds the real count.
        assert_eq!(measure_count(4 * 4 * 3 * 4, 16), 16);
        assert_eq!(measure_count(usize::MAX, 1_000), MEASURE_MIN_COUNT);
    }

    #[test]
    fn entry_decisions_round_trip() {
        let d = decision_from(TunedEntry {
            pack: 2,
            group_packs: 16,
            l1_fraction: 0.5,
            parallel: true,
            tuned_gflops: 1.0,
            heuristic_gflops: 1.0,
            noise: 0.0,
            provenance: Default::default(),
        });
        assert_eq!(d.pack, PackPolicy::Never);
        assert_eq!(d.group_packs, Some(16));
        assert!(d.parallel);
        // group_packs == 0 means "keep the heuristic".
        let d = decision_from(TunedEntry {
            pack: 0,
            group_packs: 0,
            l1_fraction: 0.5,
            parallel: false,
            tuned_gflops: 1.0,
            heuristic_gflops: 1.0,
            noise: 0.0,
            provenance: Default::default(),
        });
        assert_eq!(d.pack, PackPolicy::Auto);
        assert_eq!(d.group_packs, None);
        assert!(!d.parallel);
    }
}
