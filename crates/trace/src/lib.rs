//! iatf-trace: flight-recorder tracing, PMU profiling, and roofline
//! attribution for the IATF runtime.
//!
//! Three layers, each usable alone:
//!
//! 1. **Flight recorder** ([`recorder`], [`ring`]) — per-thread
//!    fixed-capacity ring buffers of timestamped span events
//!    (plan build, pack, super-block execute, kernel dispatch, tune
//!    sweep). Recording is wait-free and *lossy*: when a ring fills, the
//!    oldest events are overwritten, so tracing never stalls the
//!    execution it observes. Spans compile away entirely unless the
//!    `enabled` cargo feature is on, following the same zero-cost probe
//!    pattern as `iatf-obs`.
//! 2. **Chrome trace export** ([`chrome`]) — drained events render as
//!    Trace Event Format JSON that Perfetto (<https://ui.perfetto.dev>)
//!    and `chrome://tracing` load directly.
//! 3. **PMU sampling and roofline attribution** ([`pmu`], [`roofline`])
//!    — a `perf_event_open(2)` counter group (cycles, instructions,
//!    L1D/LL accesses and refills) read around phase boundaries, joined
//!    with each plan's predicted flops/bytes into an
//!    achieved-vs-predicted CMAR report. On kernels or sandboxes where
//!    perf is unavailable the source degrades to an explicit no-op and
//!    the report renders predictions only.
//!
//! The crate is `no-deps`, std-only, and denies `unsafe_code`
//! everywhere except the audited syscall shim in `pmu::sys`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod pmu;
pub mod recorder;
pub mod ring;
pub mod roofline;
pub(crate) mod sync;

pub use chrome::chrome_trace_json;
pub use pmu::{PmuCounters, PmuSource, PmuUnavailable};
pub use recorder::{
    drain, dropped, is_enabled, live_rings, now_ns, reset, span, span_arg, SpanGuard,
};
pub use ring::{SpanEvent, SpanKind, SPAN_KINDS};
pub use roofline::{RooflineInput, RooflinePoint, RooflineReport};
