//! Spans recorded in the benchmark's own code, around each call into a
//! layer's public functions. Kept in memory, written out at exit.
//!
//! A span carries name, start, end, the span that caused it (parent) and
//! the round it belongs to. A layer's *self time* is its span's duration
//! minus the part its child spans cover. With recording off a span costs
//! one branch, so the same workload code runs traced and untraced.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u32,
}

struct Inner {
    recording: bool,
    round: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The in-memory span recorder.
pub struct Spans {
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.spans.now_ns();
            let mut inner = self.spans.inner.borrow_mut();
            inner.spans[id as usize].end_ns = now;
            let top = inner.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                recording: false,
                round: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Turns recording on or off and sets the round id new spans carry.
    pub fn set_round(&self, recording: bool, round: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.recording = recording;
        inner.round = round;
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut inner = self.inner.borrow_mut();
        if !inner.recording {
            return SpanGuard {
                spans: self,
                id: None,
            };
        }
        let id = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        let round = inner.round;
        inner.open.push(id);
        inner.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            round,
        });
        // Read the clock last so the span excludes its own bookkeeping.
        let now = self.now_ns();
        let span = &mut inner.spans[id as usize];
        span.start_ns = now;
        span.end_ns = now;
        drop(inner);
        SpanGuard {
            spans: self,
            id: Some(id),
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Per round: self time (ns) summed by span name.
    pub fn self_ns_by_round(&self) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for span in &inner.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (span, children) in inner.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.round)
                .or_default()
                .entry(span.name)
                .or_default() += own;
        }
        out
    }

    /// Median over recorded rounds of a span name's whole duration (self
    /// time plus children), µs.
    pub fn median_total_us(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let mut by_round: BTreeMap<u32, u64> = BTreeMap::new();
        for span in inner.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(span.round).or_default() += span.end_ns - span.start_ns;
        }
        let samples: Vec<f64> = by_round.values().map(|ns| *ns as f64 / 1e3).collect();
        crate::harness::median(&samples)
    }

    /// Median over recorded rounds of a span name's self time, µs.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let samples: Vec<f64> = self
            .self_ns_by_round()
            .values()
            .map(|by_name| by_name.get(name).copied().unwrap_or(0) as f64 / 1e3)
            .collect();
        crate::harness::median(&samples)
    }

    /// Renders the span file.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let inner = self.inner.borrow();
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host monotonic, ns since start\",\"spans\":[\n"
        );
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.round,
                if i + 1 == inner.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
