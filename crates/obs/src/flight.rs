//! Flight recorder: a bounded ring buffer of recent runtime events.
//!
//! The distributed runtime records every cut-crossing call and fault event
//! here; when a run dies (timeout, partition, machine down) the recorder
//! is dumped so the tail of activity leading up to the failure survives
//! for post-mortem, without paying for an unbounded log on healthy runs.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// One recorded happening.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Simulated-clock microseconds at which the event happened.
    pub at_us: u64,
    /// Event kind (e.g. `icc_call`, `fault_drop`, `fault_retry`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

struct FlightInner {
    entries: VecDeque<FlightEntry>,
    /// Events evicted because the ring was full.
    evicted: u64,
    /// Whether the recorder has been dumped (and printed) already.
    dumped: bool,
}

/// A bounded ring buffer retaining the most recent [`FlightEntry`] values.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// Default retention: the last 256 events.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a recorder retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(FlightInner {
                entries: VecDeque::new(),
                evicted: 0,
                dumped: false,
            }),
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&self, at_us: u64, kind: &'static str, detail: String) {
        let mut inner = self.inner.lock();
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            inner.evicted += 1;
        }
        inner.entries.push_back(FlightEntry {
            at_us,
            kind,
            detail,
        });
    }

    /// The retained events, oldest first.
    #[cfg(test)]
    fn entries(&self) -> Vec<FlightEntry> {
        self.inner.lock().entries.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// Renders the retained events as a human-readable block.
    fn render(&self, reason: &str) -> String {
        let inner = self.inner.lock();
        let mut out = format!(
            "=== flight recorder dump ({reason}): last {} event(s), {} evicted ===\n",
            inner.entries.len(),
            inner.evicted
        );
        for entry in &inner.entries {
            out.push_str(&format!(
                "  t={}us {} {}\n",
                entry.at_us, entry.kind, entry.detail
            ));
        }
        out.push_str("=== end flight recorder dump ===\n");
        out
    }

    /// Dumps the retained events to stderr (and returns the rendered
    /// block). Only the first dump prints; later calls — e.g. the same
    /// error propagating through several layers — render silently so a
    /// dying run does not spam its post-mortem.
    pub fn dump(&self, reason: &str) -> String {
        let first = !std::mem::replace(&mut self.inner.lock().dumped, true);
        let rendered = self.render(reason);
        if first {
            eprint!("{rendered}");
        }
        rendered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let recorder = FlightRecorder::new(3);
        for i in 0..5u64 {
            recorder.record(i * 10, "icc_call", format!("call {i}"));
        }
        let entries = recorder.entries();
        assert_eq!(entries.len(), 3);
        assert!(recorder
            .render("full")
            .contains("last 3 event(s), 2 evicted"));
        assert_eq!(entries[0].detail, "call 2");
        assert_eq!(entries[2].detail, "call 4");
    }

    #[test]
    fn dump_prints_once_but_always_renders() {
        let recorder = FlightRecorder::new(8);
        recorder.record(7, "fault_timeout", "m0->m1 attempt 1".to_string());
        let first = recorder.dump("Timeout");
        let second = recorder.dump("Timeout");
        assert!(first.contains("flight recorder dump (Timeout)"));
        assert!(first.contains("t=7us fault_timeout m0->m1 attempt 1"));
        assert_eq!(first, second);
    }

    #[test]
    fn capacity_minimum_is_one() {
        let recorder = FlightRecorder::new(0);
        recorder.record(1, "a", String::new());
        recorder.record(2, "b", String::new());
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.entries()[0].kind, "b");
    }
}
