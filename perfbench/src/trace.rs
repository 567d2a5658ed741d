//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the library, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Spans of one library call share its call id. They stay in memory and
//! are written out once, when the benchmark ends.

use iatf::obs::Json;
use std::time::Instant;

/// The layer a span times.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One call through the public API (`compact_*` /
    /// `std_*_via_compact`), timed as a whole.
    Api,
    /// The layered equivalent of one `compact_*` / `std_*_via_compact`
    /// call. Parent of the four layers below.
    Call,
    /// `CompactBatch::from_std_at`.
    ToCompact,
    /// `plan::cache::cached_*_plan`.
    Cache,
    /// `{Gemm,Trsm,Trmm}Plan::execute`.
    Execute,
    /// `CompactBatch::unpack_into`.
    ToStd,
    /// A replay, right after the call, of the `iatf_pack` calls its
    /// `execute` makes, with the plan's geometry.
    Pack,
    /// A direct `{Gemm,Trsm,Trmm}Plan::new`; its id is the index of the
    /// distinct call whose plan it builds.
    Build,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Api => "api",
            Layer::Call => "call",
            Layer::ToCompact => "layout.to_compact",
            Layer::Cache => "plan.cache",
            Layer::Execute => "plan.execute",
            Layer::ToStd => "layout.to_std",
            Layer::Pack => "pack",
            Layer::Build => "plan.build",
        }
    }

    /// The layer whose span encloses this one, if any.
    fn parent(self) -> Option<Layer> {
        match self {
            Layer::ToCompact | Layer::Cache | Layer::Execute | Layer::ToStd => Some(Layer::Call),
            Layer::Api | Layer::Call | Layer::Pack | Layer::Build => None,
        }
    }
}

#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub call: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn record(&mut self, call: u32, layer: Layer, t0: Instant, t1: Instant) {
        self.spans.push(Span {
            call,
            layer,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
        });
    }

    /// Per-span self time: the span's duration minus the part its child
    /// spans (same call id, enclosed layer) cover. Children never overlap
    /// each other, so their durations add.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = std::collections::HashMap::<u32, u64>::new();
        for s in &self.spans {
            if s.layer.parent() == Some(Layer::Call) {
                *child_ns.entry(s.call).or_default() += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .map(|s| match s.layer {
                Layer::Call => s
                    .dur_ns
                    .saturating_sub(child_ns.get(&s.call).copied().unwrap_or(0)),
                _ => s.dur_ns,
            })
            .collect()
    }

    /// Every span as `[call, layer, start_ns, dur_ns, self_ns]`.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times();
        Json::Array(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, own)| {
                    Json::Array(vec![
                        Json::from(u64::from(s.call)),
                        Json::from(s.layer.name()),
                        Json::from(s.start_ns),
                        Json::from(s.dur_ns),
                        Json::from(own),
                    ])
                })
                .collect(),
        )
    }
}
