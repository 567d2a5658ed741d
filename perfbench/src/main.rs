//! The repository benchmark. One process, one thread, the public `iatf`
//! API with default features (serial executor, telemetry compiled out,
//! `TunePolicy::Heuristic`, shared plan cache, dispatched width).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gemm_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics in a separate traced run. The last line of standard
//! output is the result object; the environment stamp, sample counts and
//! (traced runs) every span are written under `$CARGO_TARGET_DIR/perfbench`
//! (default `target/perfbench`). See README.md for the metric definitions.

mod oracle;
mod peak;
mod slots;
mod stats;
mod trace;
mod workloads;

use iatf::core::plan::cache;
use iatf::layout::SplitMix64;
use iatf::obs::{Json, PlanExplain};
use iatf::{DType, TuningConfig};
use slots::{make_slot, Slot, Tally};
use std::collections::BTreeMap;
use std::process::{exit, Command};
use std::time::{Duration, Instant};
use trace::{Layer, Recorder};
use workloads::Workload;

/// End-to-end metrics, printed by `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("gflops", "GFLOPS"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("api.overhead_ns", "ns"),
    ("plan.cache.lookup_ns", "ns"),
    ("plan.cache.hit_ratio", "ratio"),
    ("plan.build_ns.p50", "ns"),
    ("plan.build_ns.p99", "ns"),
    ("plan.execute.gflops", "GFLOPS"),
    ("plan.execute.gflops.sp", "GFLOPS"),
    ("plan.execute.gflops.dp", "GFLOPS"),
    ("plan.execute_ns", "ns"),
    ("plan.superblocks", "count"),
    ("plan.dispatches", "count"),
    ("plan.main_area_fraction", "ratio"),
    ("pack.share", "ratio"),
    ("pack.gbps", "GB/s"),
    ("pack.bytes", "B_computed"),
    ("kernels.gflops", "GFLOPS_derived"),
    ("kernels.frac_of_peak", "ratio_derived"),
    ("layout.to_compact_gbps", "GB/s"),
    ("layout.to_std_gbps", "GB/s"),
    ("simd.peak_gflops.f32", "GFLOPS"),
    ("simd.peak_gflops.f64", "GFLOPS"),
    ("simd.width_bits", "bits"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.calls", "count"),
];

/// Set-ups per `--trace 0` run: all but the last in fresh child
/// processes, so each one pays the process's first-call costs. Cheap
/// set-ups are sampled more (up to `MAX_SETUP_SAMPLES`, while the children
/// take under `SETUP_CHILD_BUDGET`), which steadies the median.
const MIN_SETUP_SAMPLES: usize = 3;
const MAX_SETUP_SAMPLES: usize = 15;
const SETUP_CHILD_BUDGET: Duration = Duration::from_secs(2);
/// Direct plan builds timed per distinct call in the traced run.
const BUILD_REPS: usize = 5;
/// Rounds the traced run replays after clearing the plan cache: warm-up
/// rounds through the API, then traced rounds.
const STREAM_TRACE_ROUNDS: (usize, usize) = (1, 8);
const SMALL_TRACE_ROUNDS: (usize, usize) = (16, 16);

const USAGE: &str =
    "usage: perfbench --workload <gemm_stream|tri_stream|small_dispatch> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once and print the set-up time.
    setup_probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_probe = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace,
        setup_probe,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    // Any IATF_* variable (forced width, tuning db, telemetry settings)
    // would measure a different program than the one a caller gets.
    if let Some((k, v)) = std::env::vars().find(|(k, _)| k.starts_with("IATF_")) {
        eprintln!("perfbench: refusing to run with {k}={v} set: IATF_* variables change the measured program");
        exit(2);
    }
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

/// One timed API call. Its class is `2 * kind + missed`: the distinct
/// call, split by whether it missed the plan cache (and so built a plan).
#[derive(Copy, Clone, Default)]
struct CallSample {
    class: u32,
    ns: f32,
}

impl CallSample {
    fn kind(&self) -> usize {
        self.class as usize / 2
    }
}

/// The quantile of each class's call times that stands for the class in
/// the end-to-end figures. Other tenants of the host slow single-thread
/// speed by up to 3.5x for stretches of microseconds to minutes, which
/// moves means and medians with the share of slowed time. A class's
/// fastest calls are the ones a quiet host gives; of the 1st, 2nd, 5th,
/// 10th, 25th and 50th percentiles, the 1st held closest from run to run
/// on every workload. Nearest rank: below 100 calls it is the fastest.
const CLASS_QUANTILE: f64 = 0.01;

/// Latency samples the timed phase keeps per second. The buffer is
/// allocated and touched before the phase, so its size is the same in
/// every run and `peak_rss_mb` does not follow the call count.
const SAMPLES_PER_SECOND: usize = 400_000;

/// A set-up workload: resident operands, plans built, first calls made.
struct Bench {
    w: Workload,
    cfg: TuningConfig,
    slots: Vec<Box<dyn Slot>>,
    /// First kind index of each slot (a kind is one step of one slot).
    kind_base: Vec<usize>,
    /// Flops of each kind.
    kind_flops: Vec<u64>,
    setup: Duration,
    to_compact: Tally,
    attempted: u64,
    failed: u64,
    rng: SplitMix64,
    /// Plan-cache misses as of the last call, to tell which calls missed.
    misses: u64,
}

impl Bench {
    fn kinds(&self) -> usize {
        self.kind_flops.len()
    }

    /// One checked visit through the public API, appending one sample per
    /// call.
    fn visit(&mut self, si: usize, out: &mut Vec<CallSample>) {
        let slot = &mut self.slots[si];
        for step in 0..slot.steps() {
            slot.before(step, self.rng.next_u64());
            let t0 = Instant::now();
            let res = slot.call(step, &self.cfg);
            let ns = t0.elapsed().as_nanos() as f64;
            let misses = cache::stats().misses;
            let missed = misses != self.misses;
            self.misses = misses;
            self.attempted += 1;
            if res.is_err() || !slot.check(step) {
                self.failed += 1;
            }
            out.push(CallSample {
                class: (2 * (self.kind_base[si] + step) + usize::from(missed)) as u32,
                ns: ns as f32,
            });
        }
    }
}

/// Library time before the timed phase: the host-profile read and width
/// dispatch in `TuningConfig::host`, every std→compact conversion, and the
/// first call of each distinct problem (plan build, arena growth, first
/// touch). Operand generation and oracle checks are not counted.
fn set_up(name: &str, seed: u64) -> Result<Bench, String> {
    let l2 = iatf::core::host_profile().l2_bytes;
    let w = workloads::build(name, seed, l2).ok_or(format!("unknown workload {name}"))?;
    let t0 = Instant::now();
    let cfg = TuningConfig::host();
    let mut lib = t0.elapsed();
    let mut to_compact = Tally::default();
    // Salted so operand values and the call sequence draw different streams.
    let mut seeds = SplitMix64::new(seed ^ 0x0b5e_ed0f);
    let slots: Vec<Box<dyn Slot>> = w
        .specs
        .iter()
        .map(|spec| make_slot(spec, seeds.next_u64(), &cfg, &mut to_compact))
        .collect();
    lib += to_compact.time;
    let mut kind_base = Vec::with_capacity(slots.len());
    let mut kind_flops = Vec::new();
    for s in &slots {
        kind_base.push(kind_flops.len());
        kind_flops.extend((0..s.steps()).map(|step| s.flops(step)));
    }
    let mut b = Bench {
        w,
        cfg,
        slots,
        kind_base,
        kind_flops,
        setup: Duration::ZERO,
        to_compact,
        attempted: 0,
        failed: 0,
        rng: SplitMix64::new(seed ^ 0x5eed_c0de),
        misses: cache::stats().misses,
    };
    let mut first = Vec::new();
    for si in 0..b.slots.len() {
        b.visit(si, &mut first);
    }
    lib += first
        .iter()
        .map(|c| Duration::from_nanos(c.ns as u64))
        .sum::<Duration>();
    b.setup = lib;
    Ok(b)
}

/// Exact cross-check of the benchmark's flop formula against the
/// planner's own prediction, for every distinct call.
fn explain_all(b: &Bench) -> Result<Vec<PlanExplain>, String> {
    let mut out = Vec::with_capacity(b.kinds());
    for slot in &b.slots {
        for step in 0..slot.steps() {
            let ex = slot
                .explain(step, &b.cfg)
                .map_err(|e| format!("{}: {e}", slot.describe(step)))?;
            if ex.predicted_flops != slot.flops(step) {
                return Err(format!(
                    "flop count mismatch for {}: benchmark {} vs explain() {}",
                    slot.describe(step),
                    slot.flops(step),
                    ex.predicted_flops
                ));
            }
            out.push(ex);
        }
    }
    Ok(out)
}

struct Phase {
    calls: Vec<CallSample>,
    cache: (u64, u64, u64),
    wall: Duration,
}

fn cache_delta(s0: iatf::PlanCacheStats) -> (u64, u64, u64) {
    let s1 = cache::stats();
    (
        s1.hits - s0.hits,
        s1.misses - s0.misses,
        s1.evictions - s0.evictions,
    )
}

/// The closed loop: whole rounds through the API until `seconds` pass
/// (or the sample buffer is full).
fn timed_phase(b: &mut Bench, seconds: f64) -> Phase {
    let cap = SAMPLES_PER_SECOND * seconds.ceil() as usize;
    let mut calls = vec![
        CallSample {
            class: u32::MAX,
            ns: 0.0
        };
        cap
    ];
    calls.clear();
    let longest_round = b.w.rounds.iter().map(|r| 2 * r.len()).max().unwrap_or(0);
    let mut r = 0;
    let s0 = cache::stats();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && calls.len() + longest_round <= cap {
        let round = b.w.rounds[r % b.w.rounds.len()].clone();
        for si in round {
            b.visit(si as usize, &mut calls);
        }
        r += 1;
    }
    Phase {
        calls,
        cache: cache_delta(s0),
        wall: start.elapsed(),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn env_stamp(args: &Args, b: &Bench) -> Json {
    let row = iatf_kernels::dispatched_row();
    let host = iatf::core::host_profile();
    let bytes: Vec<usize> = b.slots.iter().map(|s| s.operand_bytes()).collect();
    let (min_b, max_b) = (
        bytes.iter().min().copied().unwrap_or(0),
        bytes.iter().max().copied().unwrap_or(0),
    );
    let fallback = iatf::simd::forced_width_fallback().map_or(Json::Null, |f| {
        Json::from(format!(
            "{} -> {} ({})",
            f.requested,
            f.fallback.name(),
            f.reason
        ))
    });
    Json::object()
        .set("workload", b.w.name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("uarch", row.uarch)
        .set("width_bits", row.width.bits())
        .set("lanes_f32", row.lanes_f32)
        .set("lanes_f64", row.lanes_f64)
        .set("forced_width_fallback", fallback)
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .set("l1d_bytes", host.l1d_bytes)
        .set("l2_bytes", host.l2_bytes)
        .set("operand_bytes_min", min_b)
        .set("operand_bytes_max", max_b)
        .set("operand_over_l2_min", min_b as f64 / host.l2_bytes as f64)
        .set("slots", b.slots.len())
        .set("distinct_calls", workloads::distinct_keys(&b.w.specs))
        .set("plan_cache_capacity", cache::capacity())
}

fn out_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(base).join("perfbench")
}

fn write_file(name: &str, body: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result object, with every metric of `names` in order.
fn result_json(
    correct: bool,
    b: &Bench,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<Json, String> {
    let mut metrics = Json::object();
    for &(name, unit) in names {
        let v = values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        metrics = metrics.set(name, Json::object().set("value", *v).set("unit", unit));
    }
    Ok(Json::object()
        .set("correct", correct && b.failed == 0)
        .set("attempted", b.attempted)
        .set("failed", b.failed)
        .set("metrics", metrics))
}

fn run(args: &Args) -> Result<String, String> {
    if args.setup_probe {
        let b = set_up(&args.workload, args.seed)?;
        return Ok(format!("{}", b.setup.as_secs_f64()));
    }
    // Child set-ups first, so two copies of the operands never coexist.
    let mut setups = Vec::new();
    let children = Instant::now();
    while !args.trace
        && setups.len() + 1 < MAX_SETUP_SAMPLES
        && (setups.len() + 1 < MIN_SETUP_SAMPLES || children.elapsed() < SETUP_CHILD_BUDGET)
    {
        setups.push(setup_in_child(args)?);
    }
    let mut b = set_up(&args.workload, args.seed)?;
    setups.push(b.setup.as_secs_f64());
    let explains = explain_all(&b)?;
    let stamp = env_stamp(args, &b);
    eprintln!("perfbench: env {}", stamp.to_compact());
    let (correct, names, values, extra) = if args.trace {
        traced_run(args, &mut b, &explains)?
    } else {
        untraced_run(args, &mut b, &mut setups)
    };
    let result = result_json(correct, &b, names, &values)?;
    let record = Json::object()
        .set("env", stamp)
        .set("samples", extra)
        .set("result", result.clone());
    let file = format!(
        "result-{}-seed{}-trace{}.json",
        b.w.name,
        args.seed,
        u8::from(args.trace)
    );
    write_file(&file, &record.to_pretty())?;
    eprintln!(
        "perfbench: error_rate {} ({} failed of {} calls)",
        b.failed as f64 / b.attempted as f64,
        b.failed,
        b.attempted
    );
    Ok(result.to_compact())
}

fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--setup-probe",
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .ok_or(format!("set-up child printed no time: {text}"))
}

type RunOut = (
    bool,
    &'static [(&'static str, &'static str)],
    BTreeMap<&'static str, f64>,
    Json,
);

fn untraced_run(args: &Args, b: &mut Bench, setups: &mut [f64]) -> RunOut {
    let phase = timed_phase(b, args.seconds);
    // Read before the statistics below allocate.
    let rss = peak_rss_mb();
    let (hits, misses, evictions) = phase.cache;
    // Stream workloads hold every plan once set up: a miss means the
    // cache evicted a live shape, which the workload is sized never to do.
    let cache_ok = !b.w.stream || misses == 0;
    if !cache_ok {
        eprintln!("perfbench: {misses} plan-cache misses in the timed phase of a stream workload");
    }
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); 2 * b.kinds()];
    for c in &phase.calls {
        by_class[c.class as usize].push(f64::from(c.ns));
    }
    let n = phase.calls.len();
    let tail = stats::tail_quantile(n).unwrap_or(0.5);
    let (gflops, p50, p99) = steady_figures(&mut by_class, &b.kind_flops, tail);
    let mut values = BTreeMap::new();
    values.insert("gflops", gflops);
    values.insert("call_p50_us", p50);
    values.insert("call_p99_us", p99);
    values.insert("setup_s", stats::median(setups));
    values.insert("peak_rss_mb", rss);
    // The same figures from every call as measured, for comparison.
    let all_flops: u64 = phase.calls.iter().map(|c| b.kind_flops[c.kind()]).sum();
    let in_call_ns: f64 = phase.calls.iter().map(|c| f64::from(c.ns)).sum();
    let mut lat: Vec<f64> = phase.calls.iter().map(|c| f64::from(c.ns) / 1e3).collect();
    let wall = phase.wall.as_secs_f64();
    let extra = Json::object()
        .set("calls", n)
        .set("class_quantile", CLASS_QUANTILE)
        .set("tail_quantile", tail)
        .set(
            "as_measured",
            Json::object()
                .set("wall_s", wall)
                .set("wall_gflops", all_flops as f64 / (wall * 1e9))
                .set("in_call_gflops", all_flops as f64 / in_call_ns)
                .set("call_p50_us", stats::median(&mut lat))
                .set("call_p99_us", stats::quantile(&mut lat, tail)),
        )
        .set(
            "setup_samples_s",
            Json::Array(setups.iter().map(|&s| Json::from(s)).collect()),
        )
        .set(
            "plan_cache",
            Json::object()
                .set("hits", hits)
                .set("misses", misses)
                .set("evictions", evictions),
        );
    eprintln!(
        "perfbench: {n} timed calls, p{} reported as call_p99_us",
        (tail * 100.0).round()
    );
    (cache_ok, &END_TO_END, values, extra)
}

/// `(gflops, p50 µs, p-tail µs)` of the calls in `by_class` (samples in
/// ns, indexed by class), each call counting with its class's
/// `CLASS_QUANTILE` time.
fn steady_figures(by_class: &mut [Vec<f64>], kind_flops: &[u64], tail: f64) -> (f64, f64, f64) {
    let mut steady: Vec<(f64, f64)> = Vec::new();
    let (mut flops, mut ns) = (0.0, 0.0);
    for (class, xs) in by_class.iter_mut().enumerate() {
        if xs.is_empty() {
            continue;
        }
        let n = xs.len() as f64;
        let t = stats::quantile(xs, CLASS_QUANTILE);
        steady.push((t / 1e3, n));
        flops += n * kind_flops[class / 2] as f64;
        ns += n * t;
    }
    (
        flops / ns,
        stats::weighted_quantile(&mut steady, 0.5),
        stats::weighted_quantile(&mut steady, tail),
    )
}

/// One call of the traced run, made either through the public API, timed
/// whole (`api_ns`), or layer by layer with a span per layer (the other
/// fields); the pack replay that follows it fills `pack_*`.
struct TracedCall {
    kind: usize,
    dtype: DType,
    flops: u64,
    api_ns: Option<f64>,
    children_ns: f64,
    cache_ns: f64,
    exec_ns: f64,
    pack_ns: f64,
    pack_bytes: usize,
}

fn traced_run(args: &Args, b: &mut Bench, explains: &[PlanExplain]) -> Result<RunOut, String> {
    // Untraced reference: per-kind median API latency.
    let reference = timed_phase(b, (args.seconds / 2.0).max(1.0));
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); b.kinds()];
    for c in &reference.calls {
        by_kind[c.kind()].push(f64::from(c.ns));
    }
    let untraced_api = kind_medians(by_kind);

    // The traced segment starts from an empty plan cache and a fixed
    // warm-up, so its cache counts repeat exactly for a seed.
    let (warm, traced) = if b.w.stream {
        STREAM_TRACE_ROUNDS
    } else {
        SMALL_TRACE_ROUNDS
    };
    cache::clear();
    let mut sink = Vec::new();
    for r in 0..warm {
        for si in b.w.rounds[r % b.w.rounds.len()].clone() {
            b.visit(si as usize, &mut sink);
        }
    }
    let s0 = cache::stats();
    let mut rec = Recorder::new();
    let mut calls: Vec<TracedCall> = Vec::new();
    let mut visits = vec![0usize; b.kinds()];
    for r in warm..warm + traced {
        for si in b.w.rounds[r % b.w.rounds.len()].clone() {
            let si = si as usize;
            for step in 0..b.slots[si].steps() {
                let kind = b.kind_base[si] + step;
                let slot = &mut b.slots[si];
                slot.before(step, b.rng.next_u64());
                let first = rec.spans.len();
                let id = calls.len() as u32;
                let mut c = TracedCall {
                    kind,
                    dtype: slot.dtype(),
                    flops: slot.flops(step),
                    api_ns: None,
                    children_ns: 0.0,
                    cache_ns: 0.0,
                    exec_ns: 0.0,
                    pack_ns: 0.0,
                    pack_bytes: 0,
                };
                // Forms switch every second visit, so each form meets both
                // alpha variants of a TRMM→TRSM pair (they alternate per
                // visit); offsetting by the kind puts both forms in every
                // round, so slow drift on the host hits both alike.
                let res = if (visits[kind] / 2 + kind).is_multiple_of(2) {
                    let t0 = Instant::now();
                    let res = slot.call(step, &b.cfg);
                    let t1 = Instant::now();
                    rec.record(id, Layer::Api, t0, t1);
                    c.api_ns = Some(t1.duration_since(t0).as_nanos() as f64);
                    res
                } else {
                    slot.traced_call(step, &b.cfg, &mut rec, id)
                };
                // Both forms are followed by the pack replay, so both see
                // the same cache state at their next call.
                let res = res
                    .and_then(|()| slot.replay_pack(step, &b.cfg, &mut rec, id))
                    .map(|bytes| c.pack_bytes = bytes);
                visits[kind] += 1;
                b.attempted += 1;
                if res.is_err() || !slot.check(step) {
                    b.failed += 1;
                }
                for s in &rec.spans[first..] {
                    let ns = s.dur_ns as f64;
                    match s.layer {
                        Layer::Pack => c.pack_ns = ns,
                        Layer::Cache => c.cache_ns = ns,
                        Layer::Execute => c.exec_ns = ns,
                        _ => {}
                    }
                    if matches!(
                        s.layer,
                        Layer::Cache | Layer::Execute | Layer::ToCompact | Layer::ToStd
                    ) {
                        c.children_ns += ns;
                    }
                }
                calls.push(c);
            }
        }
    }
    let (hits, misses, evictions) = cache_delta(s0);

    // Direct plan builds, outside the traced segment.
    let mut build_ns = Vec::new();
    let mut kind = 0u32;
    for slot in &b.slots {
        for step in 0..slot.steps() {
            for _ in 0..BUILD_REPS {
                let t0 = Instant::now();
                let dt = slot.time_build(step, &b.cfg).map_err(|e| e.to_string())?;
                rec.record(kind, Layer::Build, t0, t0 + dt);
                build_ns.push(dt.as_nanos() as f64);
            }
            kind += 1;
        }
    }
    let mut to_std = Tally::default();
    for slot in &b.slots {
        if let Some((bytes, dt)) = slot.time_unpack() {
            to_std.add(bytes, dt);
        }
    }
    let width = b.cfg.width;
    let peak_f32 = peak::measure(width, false, 20);
    let peak_f64 = peak::measure(width, true, 20);

    let (api_calls, layered): (Vec<&TracedCall>, Vec<&TracedCall>) =
        calls.iter().partition(|c| c.api_ns.is_some());
    let sum = |f: &dyn Fn(&TracedCall) -> f64| layered.iter().map(|c| f(c)).sum::<f64>();
    let flops = sum(&|c| c.flops as f64);
    let exec = sum(&|c| c.exec_ns);
    let pack = sum(&|c| c.pack_ns);
    let kernel_ns = (exec - pack).max(1.0);
    let peak_of = |d: DType| match d {
        DType::F64 | DType::C64 => peak_f64,
        DType::F32 | DType::C32 => peak_f32,
    };
    let ideal_ns = sum(&|c| c.flops as f64 / peak_of(c.dtype));
    // Per distinct call: median traced API time, median layered children.
    let mut api_by_kind: Vec<Vec<f64>> = vec![Vec::new(); b.kinds()];
    let mut children_by_kind: Vec<Vec<f64>> = vec![Vec::new(); b.kinds()];
    for c in &calls {
        match c.api_ns {
            Some(ns) => api_by_kind[c.kind].push(ns),
            None => children_by_kind[c.kind].push(c.children_ns),
        }
    }
    let traced_api = kind_medians(api_by_kind);
    let children = kind_medians(children_by_kind);
    // Each distinct call weighs by its share of the traced calls.
    // A weighted mean, not a median: the per-call gaps are whole
    // nanoseconds, and a median of them can read exactly 0.
    let (mut both, mut w_all, mut w_api, mut w_gap, mut w_untraced) = (0usize, 0.0, 0.0, 0.0, 0.0);
    for k in 0..b.kinds() {
        let w = visits[k] as f64;
        if let (Some(api), Some(ch), Some(un)) = (traced_api[k], children[k], untraced_api[k]) {
            both += 1;
            w_all += w;
            w_api += w * api;
            w_gap += w * (api - ch);
            w_untraced += w * un;
        }
    }
    // By precision rather than by dtype: `small_dispatch` has no complex
    // calls, and a metric that reads 0 on a workload cannot show a change.
    let precision_gflops = |double: bool| {
        let (f, t) = layered
            .iter()
            .filter(|c| matches!(c.dtype, DType::F64 | DType::C64) == double)
            .fold((0.0, 0.0), |(f, t), c| (f + c.flops as f64, t + c.exec_ns));
        f / t
    };
    let superblocks: usize = explains
        .iter()
        .map(|e| e.packs.div_ceil(e.group_packs.max(1)))
        .sum();

    let mut values = BTreeMap::new();
    values.insert("api.overhead_ns", w_gap / w_all);
    values.insert(
        "plan.cache.lookup_ns",
        stats::median(&mut layered.iter().map(|c| c.cache_ns).collect::<Vec<_>>()),
    );
    values.insert(
        "plan.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert("plan.build_ns.p50", stats::median(&mut build_ns));
    values.insert("plan.build_ns.p99", stats::quantile(&mut build_ns, 0.99));
    values.insert("plan.execute.gflops", flops / exec);
    values.insert("plan.execute.gflops.sp", precision_gflops(false));
    values.insert("plan.execute.gflops.dp", precision_gflops(true));
    values.insert(
        "plan.execute_ns",
        stats::median(&mut layered.iter().map(|c| c.exec_ns).collect::<Vec<_>>()),
    );
    values.insert("plan.superblocks", superblocks as f64);
    values.insert(
        "plan.dispatches",
        explains.iter().map(|e| e.predicted_dispatches as f64).sum(),
    );
    values.insert(
        "plan.main_area_fraction",
        explains.iter().map(|e| e.main_area_fraction).sum::<f64>() / explains.len().max(1) as f64,
    );
    values.insert("pack.share", pack / exec);
    values.insert("pack.gbps", sum(&|c| c.pack_bytes as f64) / pack.max(1.0));
    values.insert(
        "pack.bytes",
        explains
            .iter()
            .map(|e| e.predicted_packed_bytes as f64)
            .sum(),
    );
    values.insert("kernels.gflops", flops / kernel_ns);
    values.insert("kernels.frac_of_peak", ideal_ns / kernel_ns);
    values.insert(
        "layout.to_compact_gbps",
        b.to_compact.bytes as f64 / b.to_compact.time.as_nanos().max(1) as f64,
    );
    values.insert(
        "layout.to_std_gbps",
        to_std.bytes as f64 / to_std.time.as_nanos().max(1) as f64,
    );
    values.insert("simd.peak_gflops.f32", peak_f32);
    values.insert("simd.peak_gflops.f64", peak_f64);
    values.insert("simd.width_bits", width.bits() as f64);
    values.insert("trace.residual_pct", 100.0 * w_gap / w_api);
    values.insert("trace.overhead_pct", 100.0 * (w_api / w_untraced - 1.0));
    values.insert("trace.calls", calls.len() as f64);

    let stream_ok = !b.w.stream || misses == 0;
    let extra = Json::object()
        .set("reference_calls", reference.calls.len())
        .set("traced_api_calls", api_calls.len())
        .set("traced_layered_calls", layered.len())
        .set("kinds_with_both_forms", both)
        .set("build_samples", build_ns.len())
        .set(
            "plan_cache",
            Json::object()
                .set("hits", hits)
                .set("misses", misses)
                .set("evictions", evictions),
        );
    let spans = Json::object()
        .set("seed", args.seed)
        .set("layers", Json::Array(layer_names()))
        .set("spans", rec.to_json());
    // One file per workload, overwritten by the next traced run: span
    // dumps are large and only the latest is read.
    write_file(&format!("trace-{}.json", b.w.name), &spans.to_compact())?;
    Ok((stream_ok, &PER_LAYER, values, extra))
}

fn kind_medians(samples: Vec<Vec<f64>>) -> Vec<Option<f64>> {
    samples
        .into_iter()
        .map(|mut v| (!v.is_empty()).then(|| stats::median(&mut v)))
        .collect()
}

fn layer_names() -> Vec<Json> {
    [
        Layer::Api,
        Layer::Call,
        Layer::ToCompact,
        Layer::Cache,
        Layer::Execute,
        Layer::ToStd,
        Layer::Pack,
        Layer::Build,
    ]
    .iter()
    .map(|l| Json::from(l.name()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iatf::{GemmMode, TrsmMode};
    use workloads::{Kind, Spec};

    fn metric_list(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Every metric the benchmark prints is declared in BENCHMARK.json with
    /// the same unit, and every declared metric is printed.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = iatf::obs::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, printed) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(metric_list(&doc, key), printed, "{key}");
        }
    }

    /// A flipped output element fails the check, so the run counts the
    /// call as failed and `error_rate` rises above zero; clean calls pass.
    #[test]
    fn corrupted_output_is_counted_as_failed() {
        let cfg = TuningConfig::host();
        let tri = TrsmMode::all();
        let specs = [
            (Kind::Gemm(GemmMode::TN), DType::F32, 5, 37, false),
            (Kind::Gemm(GemmMode::NT), DType::C64, 3, 9, true),
            (Kind::Tri(tri[5]), DType::F64, 6, 21, false),
            (Kind::Tri(tri[10]), DType::C32, 4, 19, false),
            (Kind::Tri(tri[14]), DType::F32, 7, 13, true),
        ];
        for (kind, dtype, n, count, via_std) in specs {
            let spec = Spec {
                kind,
                dtype,
                n,
                count,
                via_std,
            };
            let mut slot = make_slot(&spec, 11, &cfg, &mut Tally::default());
            let (mut attempted, mut failed) = (0u32, 0u32);
            for visit in 0..2u64 {
                for step in 0..slot.steps() {
                    slot.before(step, visit * 7 + 3);
                    let ok = slot.call(step, &cfg).is_ok();
                    let corrupt = visit == 1 && step + 1 == slot.steps();
                    if corrupt {
                        slot.corrupt();
                    }
                    let passed = ok && slot.check(step);
                    assert_eq!(
                        passed,
                        !corrupt,
                        "{} (corrupted: {corrupt})",
                        slot.describe(step)
                    );
                    attempted += 1;
                    failed += u32::from(!passed);
                }
            }
            assert!(f64::from(failed) / f64::from(attempted) > 0.0);
        }
    }

    /// Each call counts with its class's fast time, so slowed calls do not
    /// move the figures, while the mix (here, how often kind 0 missed the
    /// plan cache) does.
    #[test]
    fn steady_figures_follow_the_class_mix() {
        // Kind 0: 300 hits at 1 µs (20 of them slowed 3x), 100 misses at
        // 9 µs; kind 1: 600 hits at 2 µs.
        let mut hits0 = vec![1000.0; 280];
        hits0.extend([3000.0; 20]);
        let mut by_class = vec![hits0, vec![9000.0; 100], vec![2000.0; 600], Vec::new()];
        let (gflops, p50, p99) = steady_figures(&mut by_class, &[500, 4000], 0.99);
        let want = (400.0 * 500.0 + 600.0 * 4000.0) / (300e3 + 900e3 + 1200e3);
        assert!((gflops - want).abs() < 1e-12, "{gflops} vs {want}");
        assert_eq!((p50, p99), (2.0, 9.0));
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload tri_stream --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 3").is_err());
        assert!(parse("--workload tri_stream --seed x").is_err());
        assert!(parse("--workload tri_stream --seed 1 --trace 2").is_err());
        assert!(parse("--workload tri_stream --seed 1 --seconds 0").is_err());
        assert!(parse("--workload tri_stream").is_err());
    }
}
