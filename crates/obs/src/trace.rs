//! Span-based structured tracer with a Chrome trace-event JSON export.
//!
//! Events accumulate in a thread-safe sink and export as the Chrome
//! trace-event format (`{"traceEvents": [...]}`) that `chrome://tracing`
//! and Perfetto load directly. Two tracks keep the clock domains honest:
//!
//! * tid [`TRACK_PIPELINE`] — phase spans (`B`/`E` pairs) and pipeline
//!   instants, timestamped by a logical sequence counter so exported bytes
//!   are identical run to run.
//! * tid [`TRACK_RUNTIME`] — instant events timestamped by the simulated
//!   clock's microseconds, deterministic under a fixed seed.
//!
//! Host-monotonic phase durations are measured for every span but only
//! exported (as a `host_us` argument on the `E` event) when host time is
//! explicitly opted in, because wall-clock values would break byte
//! identity between same-seed runs.

use crate::json::{escape, Json};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Thread id of the pipeline (logical-sequence) track.
pub const TRACK_PIPELINE: u32 = 0;
/// Thread id of the runtime (simulated-clock) track.
pub const TRACK_RUNTIME: u32 = 1;

/// Process id stamped on every event (single-process simulation).
const PID: u32 = 1;

/// Environment variable that opts host-monotonic durations into the
/// exported trace (at the cost of run-to-run byte identity).
pub const HOST_TIME_ENV: &str = "COIGN_TRACE_HOST_TIME";

/// One typed event argument.
///
/// Arguments are stored in cheap machine form and rendered to JSON only at
/// export time, keeping the per-event recording cost low enough for the
/// hot cut-crossing path.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceArg {
    /// JSON `null` (e.g. "no caller instance").
    Null,
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed static string (no allocation at record time).
    Static(&'static str),
    /// Owned string.
    Str(String),
    /// A 128-bit GUID, rendered in registry format
    /// `{XXXXXXXX-XXXX-XXXX-XXXX-XXXXXXXXXXXX}` at export time.
    Guid(u128),
}

impl TraceArg {
    /// Renders this argument as a JSON value (also used by the profiling
    /// `EventLogger`'s line-delimited export, so both emitters agree).
    fn render_json(&self, out: &mut String) {
        match self {
            TraceArg::Null => out.push_str("null"),
            TraceArg::U64(v) => out.push_str(&v.to_string()),
            TraceArg::I64(v) => out.push_str(&v.to_string()),
            TraceArg::F64(v) => out.push_str(&format!("{v}")),
            TraceArg::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            TraceArg::Static(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            TraceArg::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            TraceArg::Guid(bits) => {
                let b = bits.to_be_bytes();
                out.push('"');
                out.push_str(&format!(
                    "{{{:02X}{:02X}{:02X}{:02X}-{:02X}{:02X}-{:02X}{:02X}-{:02X}{:02X}-{:02X}{:02X}{:02X}{:02X}{:02X}{:02X}}}",
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11],
                    b[12], b[13], b[14], b[15]
                ));
                out.push('"');
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
    /// A complete span (`ph: "X"`): one event carrying `ts` + `dur`, used
    /// for simulated-time spans whose extent is known at record time.
    Complete,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Complete => "X",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
struct TraceEvent {
    name: Cow<'static, str>,
    cat: &'static str,
    ph: Phase,
    ts: u64,
    /// Duration for complete (`X`) events; unused otherwise.
    dur: u64,
    tid: u32,
    args: Vec<(&'static str, TraceArg)>,
}

impl TraceEvent {
    fn render(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(&escape(&self.name));
        out.push_str("\",\"cat\":\"");
        out.push_str(self.cat);
        out.push_str("\",\"ph\":\"");
        out.push_str(self.ph.code());
        out.push_str("\",\"ts\":");
        out.push_str(&self.ts.to_string());
        if self.ph == Phase::Complete {
            out.push_str(&format!(",\"dur\":{}", self.dur));
        }
        out.push_str(&format!(",\"pid\":{PID},\"tid\":{}", self.tid));
        if self.ph == Phase::Instant {
            // Thread-scoped instant, required by the Chrome trace format.
            out.push_str(",\"s\":\"t\"");
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(key);
                out.push_str("\":");
                value.render_json(out);
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// The structured tracer: a thread-safe sink of spans and instant events.
pub struct Tracer {
    enabled: bool,
    host_time: AtomicBool,
    seq: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// Creates a recording tracer. Host-time export is off unless the
    /// [`HOST_TIME_ENV`] environment variable is set to `1`.
    pub fn enabled() -> Tracer {
        let host = std::env::var(HOST_TIME_ENV)
            .map(|v| v == "1")
            .unwrap_or(false);
        Tracer {
            enabled: true,
            host_time: AtomicBool::new(host),
            seq: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Creates a tracer that records nothing.
    pub(crate) fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            host_time: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// True when this tracer is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opts host-monotonic durations into (or out of) the export. When on,
    /// every phase span's `E` event carries a `host_us` argument and
    /// exported traces are no longer byte-identical across runs.
    pub fn set_host_time(&self, on: bool) {
        self.host_time.store(on, Ordering::Relaxed);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Creates a child tracer sharing this tracer's enablement, for
    /// buffering events on a worker (e.g. one profiled scenario) so they
    /// can be [`merged`](Tracer::merge_from) back in a deterministic order
    /// regardless of worker interleaving.
    pub fn child(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            host_time: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Appends all events recorded by `child` (in their recorded order),
    /// draining the child. Pipeline-track events are re-timestamped through
    /// this tracer's sequence counter so the merged track stays monotonic;
    /// runtime-track events keep their simulated-clock timestamps.
    pub fn merge_from(&self, child: &Tracer) {
        if !self.enabled {
            return;
        }
        let mut drained = std::mem::take(&mut *child.events.lock());
        for event in &mut drained {
            if event.tid == TRACK_PIPELINE {
                event.ts = self.tick();
            }
        }
        self.events.lock().append(&mut drained);
    }

    fn tick(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// Opens a pipeline phase span (`B` event now, `E` on guard drop).
    pub fn phase_span(&self, name: impl Into<Cow<'static, str>>) -> PhaseSpan<'_> {
        self.phase_span_with(name, Vec::new())
    }

    /// Opens a pipeline phase span carrying arguments on its `B` event.
    pub fn phase_span_with(
        &self,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, TraceArg)>,
    ) -> PhaseSpan<'_> {
        let name = name.into();
        if self.enabled {
            self.push(TraceEvent {
                name: name.clone(),
                cat: "pipeline",
                ph: Phase::Begin,
                ts: self.tick(),
                dur: 0,
                tid: TRACK_PIPELINE,
                args,
            });
        }
        PhaseSpan {
            tracer: self,
            name,
            started: Instant::now(),
        }
    }

    /// Records an instant event on the pipeline track (sequence-counter
    /// timestamp).
    pub fn instant(&self, name: &'static str, args: Vec<(&'static str, TraceArg)>) {
        if !self.enabled {
            return;
        }
        let ts = self.tick();
        self.push(TraceEvent {
            name: Cow::Borrowed(name),
            cat: "pipeline",
            ph: Phase::Instant,
            ts,
            dur: 0,
            tid: TRACK_PIPELINE,
            args,
        });
    }

    /// Records an instant event on the runtime track, timestamped with the
    /// simulated clock's microseconds.
    pub fn instant_at(&self, name: &'static str, at_us: u64, args: Vec<(&'static str, TraceArg)>) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            name: Cow::Borrowed(name),
            cat: "runtime",
            ph: Phase::Instant,
            ts: at_us,
            dur: 0,
            tid: TRACK_RUNTIME,
            args,
        });
    }

    /// Records a complete (`X`) span on the runtime track: a span whose
    /// begin and duration are both simulated-clock microseconds, known at
    /// record time. This is the shape session/call/batch spans take in the
    /// serving harness — the DES knows a span's full extent when the
    /// completing event fires, so no begin/end pairing is needed, and
    /// overlapping spans from concurrent sessions coexist on one track.
    pub fn complete_at(
        &self,
        name: impl Into<Cow<'static, str>>,
        at_us: u64,
        dur_us: u64,
        args: Vec<(&'static str, TraceArg)>,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            cat: "runtime",
            ph: Phase::Complete,
            ts: at_us,
            dur: dur_us,
            tid: TRACK_RUNTIME,
            args,
        });
    }

    /// Exports every recorded event as a Chrome trace-event JSON document.
    pub fn export_chrome_json(&self) -> String {
        let events = self.events.lock();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            event.render(&mut out);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// RAII guard for a pipeline phase span; emits the `E` event on drop.
///
/// The guard always measures host-monotonic elapsed time; the measurement
/// reaches the exported bytes only when host time is opted in (see
/// [`Tracer::set_host_time`]).
pub struct PhaseSpan<'a> {
    tracer: &'a Tracer,
    name: Cow<'static, str>,
    started: Instant,
}

impl PhaseSpan<'_> {
    /// Host-monotonic time elapsed since the span opened, in microseconds.
    fn elapsed_host_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let mut args = Vec::new();
        if self.tracer.host_time.load(Ordering::Relaxed) {
            args.push(("host_us", TraceArg::U64(self.elapsed_host_us())));
        }
        let ts = self.tracer.tick();
        self.tracer.push(TraceEvent {
            name: self.name.clone(),
            cat: "pipeline",
            ph: Phase::End,
            ts,
            dur: 0,
            tid: TRACK_PIPELINE,
            args,
        });
    }
}

/// Aggregate facts about a validated Chrome trace, for test assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total event count.
    pub events: usize,
    /// Names that appeared as complete (`B`…`E`) spans.
    pub span_names: BTreeSet<String>,
    /// Instant-event occurrence counts by name.
    pub instants: BTreeMap<String, usize>,
}

impl TraceSummary {
    /// True when a complete span with this name exists.
    pub fn has_span(&self, name: &str) -> bool {
        self.span_names.contains(name)
    }

    /// Number of instant events with this name.
    pub fn instant_count(&self, name: &str) -> usize {
        self.instants.get(name).copied().unwrap_or(0)
    }
}

/// Validates a Chrome trace-event JSON document against the subset of the
/// format this crate emits: a `traceEvents` array of objects with string
/// `name`/`cat`, `ph` of `B`/`E`/`i`/`X`, numeric `ts`/`pid`/`tid`,
/// thread-scoped instants carrying `"s"`, and `B`/`E` events properly
/// nested per thread. Returns a [`TraceSummary`] on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut summary = TraceSummary::default();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (index, event) in events.iter().enumerate() {
        let fail = |what: &str| format!("event {index}: {what}");
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string name"))?;
        event
            .get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string cat"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string ph"))?;
        event
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| fail("missing numeric ts"))?;
        let pid = event
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing numeric pid"))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail("missing numeric tid"))?;
        let track = pid << 32 | tid;
        match ph {
            "B" => stacks.entry(track).or_default().push(name.to_string()),
            "E" => {
                let open = stacks.entry(track).or_default().pop();
                match open {
                    Some(opened) if opened == name => {
                        summary.span_names.insert(opened);
                    }
                    Some(opened) => {
                        return Err(fail(&format!(
                            "E '{name}' does not match open B '{opened}'"
                        )))
                    }
                    None => return Err(fail(&format!("E '{name}' without open B"))),
                }
            }
            "i" => {
                event
                    .get("s")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("instant without scope 's'"))?;
                *summary.instants.entry(name.to_string()).or_insert(0) += 1;
            }
            "X" => {
                summary.span_names.insert(name.to_string());
            }
            other => return Err(fail(&format!("unsupported ph '{other}'"))),
        }
        summary.events += 1;
    }
    for (track, stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span '{open}' left open on track {track}"));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_export_and_validate() {
        let tracer = Tracer::enabled();
        {
            let _run = tracer.phase_span("run");
            tracer.instant_at(
                "icc_call",
                1500,
                vec![
                    ("iid", TraceArg::Guid(0xDEAD_BEEF)),
                    ("method", TraceArg::U64(3)),
                    ("from", TraceArg::U64(0)),
                    ("to", TraceArg::U64(1)),
                ],
            );
            tracer.instant(
                "classifier_fork",
                vec![("scenario", TraceArg::Static("s1"))],
            );
        }
        let json = tracer.export_chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.events, 4);
        assert!(summary.has_span("run"));
        assert_eq!(summary.instant_count("icc_call"), 1);
        assert_eq!(summary.instant_count("classifier_fork"), 1);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("{00000000-0000-0000-0000-0000DEADBEEF}"));
    }

    #[test]
    fn disabled_tracer_emits_empty_document() {
        let tracer = Tracer::disabled();
        {
            let _span = tracer.phase_span("profile");
            tracer.instant_at("icc_call", 9, vec![]);
        }
        assert!(tracer.is_empty());
        let summary = validate_chrome_trace(&tracer.export_chrome_json()).expect("valid");
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn exported_bytes_are_deterministic_without_host_time() {
        let render = || {
            let tracer = Tracer::enabled();
            tracer.set_host_time(false);
            {
                let _outer = tracer.phase_span("analyze");
                let _inner = tracer.phase_span("mincut");
                tracer.instant_at("fault_retry", 42, vec![("retry", TraceArg::U64(1))]);
            }
            tracer.export_chrome_json()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn host_time_opt_in_adds_duration_argument() {
        let tracer = Tracer::enabled();
        tracer.set_host_time(true);
        {
            let _span = tracer.phase_span("sweep");
        }
        assert!(tracer.export_chrome_json().contains("host_us"));
    }

    #[test]
    fn complete_spans_carry_duration_and_validate() {
        let tracer = Tracer::enabled();
        tracer.complete_at("session:42", 1_000, 350, vec![("flow", TraceArg::U64(7))]);
        tracer.complete_at("batch_wait", 1_000, 150, vec![]);
        let json = tracer.export_chrome_json();
        assert!(json.contains("\"ph\":\"X\",\"ts\":1000,\"dur\":350"));
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert!(summary.has_span("session:42"));
        assert!(summary.has_span("batch_wait"));
    }

    #[test]
    fn merge_from_keeps_runtime_complete_span_timestamps() {
        let parent = Tracer::enabled();
        let child = parent.child();
        child.complete_at("link_transit", 900, 55, vec![]);
        parent.merge_from(&child);
        assert!(parent
            .export_chrome_json()
            .contains("\"ts\":900,\"dur\":55"));
    }

    #[test]
    fn merge_from_preserves_child_event_order() {
        let parent = Tracer::enabled();
        let child = parent.child();
        child.instant_at("icc_call", 1, vec![]);
        child.instant_at("icc_call", 2, vec![]);
        parent.merge_from(&child);
        assert_eq!(parent.len(), 2);
        assert!(child.is_empty());
    }

    #[test]
    fn validator_rejects_mismatched_spans() {
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"p","ph":"B","ts":0,"pid":1,"tid":0},
            {"name":"b","cat":"p","ph":"E","ts":1,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        let open = r#"{"traceEvents":[
            {"name":"a","cat":"p","ph":"B","ts":0,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(open).is_err());
    }
}
