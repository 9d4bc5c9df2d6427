//! Observability layer for the Coign reproduction.
//!
//! The paper's profiling instrumentation (§3.3) is itself an observability
//! system: loggers that watch every instantiation and interface call. This
//! crate generalises that idea for the reproduction's own benefit. It
//! provides three cooperating facilities:
//!
//! 1. [`Tracer`] — a span-based structured tracer with a thread-safe sink.
//!    Pipeline phases (`profile`, `analyze`, `mincut`, `rewrite`, `run`,
//!    `sweep`) become begin/end spans; runtime happenings (cut-crossing
//!    ICC calls, classifier forks/absorbs, fault injections, retries,
//!    fallbacks, marshal-cache misses) become instant events. Traces export
//!    as Chrome trace-event JSON loadable in `chrome://tracing` or
//!    Perfetto.
//! 2. [`Registry`] — a metrics registry of counters, gauges and
//!    exponential-bucket histograms (mirroring the paper's ICC size
//!    buckets) with a Prometheus-style text exposition and a JSON
//!    snapshot.
//! 3. [`FlightRecorder`] — a bounded ring buffer retaining the last N
//!    cut-crossing calls and fault events, dumped automatically when a
//!    distributed run dies so the tail of activity survives the crash.
//!
//! # Clock domains
//!
//! Determinism is the repo's testing currency, so the tracer never lets
//! wall-clock time leak into exported bytes by default. Two timestamp
//! domains exist:
//!
//! * **Pipeline track (tid 0)** — phase spans and pipeline instants are
//!   timestamped by a logical sequence counter (one tick per event), not
//!   host time. Host-monotonic durations are still measured and can be
//!   opted into the export via [`Tracer::set_host_time`] (or the
//!   `COIGN_TRACE_HOST_TIME=1` environment variable) when a human wants
//!   real wall-clock spans at the cost of run-to-run byte identity.
//! * **Runtime track (tid 1)** — instant events carry the simulated
//!   clock's microseconds (`crates/com/src/clock.rs`), which are fully
//!   deterministic under a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
mod json;
pub mod metrics;
pub mod timeseries;
pub mod trace;

pub use flight::FlightRecorder;
pub use metrics::{Counter, Histogram, Registry};
pub use timeseries::TimeSeries;
pub use trace::{validate_chrome_trace, TraceArg, Tracer};

use std::sync::Arc;

/// The bundle of observability facilities threaded through the pipeline.
///
/// Cloning is cheap (three `Arc` bumps); every layer that wants to emit
/// events holds a clone. A disabled bundle keeps the registry and flight
/// recorder live (they are nearly free) but silences the tracer.
#[derive(Clone)]
pub struct Obs {
    /// The span/event tracer.
    pub tracer: Arc<Tracer>,
    /// The metrics registry.
    pub registry: Arc<Registry>,
    /// The flight recorder ring buffer.
    pub recorder: Arc<FlightRecorder>,
}

impl Obs {
    /// Creates a bundle with an enabled tracer.
    pub fn enabled() -> Obs {
        Obs {
            tracer: Arc::new(Tracer::enabled()),
            registry: Arc::new(Registry::new()),
            recorder: Arc::new(FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)),
        }
    }

    /// Creates a bundle whose tracer records nothing.
    pub fn disabled() -> Obs {
        Obs {
            tracer: Arc::new(Tracer::disabled()),
            registry: Arc::new(Registry::new()),
            recorder: Arc::new(FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)),
        }
    }

    /// True when the tracer is recording.
    #[cfg(test)]
    fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_records_no_events() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.tracer.instant_at("icc_call", 10, vec![]);
        {
            let _span = obs.tracer.phase_span("profile");
        }
        assert!(obs.tracer.is_empty());
        // Registry and recorder stay live even when tracing is off.
        obs.registry.counter("coign_calls_total").add(3);
        obs.recorder.record(5, "fault_drop", "m0->m1".to_string());
        assert_eq!(obs.registry.counter_value("coign_calls_total"), Some(3));
        assert_eq!(obs.recorder.len(), 1);
    }

    #[test]
    fn enabled_bundle_is_enabled() {
        let obs = Obs::enabled();
        assert!(obs.is_enabled());
        obs.tracer.instant_at("icc_call", 10, vec![]);
        assert_eq!(obs.tracer.len(), 1);
    }
}
