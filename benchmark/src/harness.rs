//! What every workload shares: the run configuration, seed derivation,
//! set-up and round timing, the check tally, and small statistics.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use crate::metrics::Values;
use crate::spans::Spans;

/// How one invocation was asked to run.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Every workload at 1/50 size, two rounds: the smoke test's mode.
    pub quick: bool,
}

impl Config {
    /// Picks the full or the quick size of an input.
    pub fn size(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Repetitions of a probe: `full`, or one in quick mode.
    pub fn reps(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// Cores this process may use; thread-scaling probes need two.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Derives the seed of one use (`"transport"`, `"graph"`, …) from the run
/// seed, so no two uses share a random stream.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut state = label.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// The splitmix64 step: the benchmark's only random generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten samples beyond it, or `None`
/// under twenty samples (the median is then all the sample supports).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    (samples >= 20).then(|| 1.0 - 10.0 / samples as f64)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times one call, seconds.
pub fn time<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = body();
    (out, secs(start.elapsed()))
}

/// Minimum over `reps` timings of `body`, seconds. The box's scheduler
/// noise is one-sided (stalls on top of a stable floor), so the minimum is
/// the steadiest estimate of a short probe's cost.
pub fn min_time(reps: usize, mut body: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| time(&mut body).1)
        .fold(f64::INFINITY, f64::min)
}

/// Paired off/on timing: alternates which side runs first so drift never
/// bills one side, and compares the two minima. Returns `(off_s, on_s)`.
pub fn paired_min(reps: usize, mut off: impl FnMut(), mut on: impl FnMut()) -> (f64, f64) {
    let (mut off_min, mut on_min) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps.max(1) {
        if rep % 2 == 0 {
            off_min = off_min.min(time(&mut off).1);
            on_min = on_min.min(time(&mut on).1);
        } else {
            on_min = on_min.min(time(&mut on).1);
            off_min = off_min.min(time(&mut off).1);
        }
    }
    (off_min, on_min)
}

/// Peak resident set size of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of a program call the workload cannot continue without.
pub type Fallible<T> = Result<T, String>;

/// The first error seen inside timing closures, which cannot return one.
#[derive(Default)]
pub struct ErrorSlot(RefCell<Option<String>>);

impl ErrorSlot {
    /// Unwraps `result`, keeping its error for [`ErrorSlot::take`].
    pub fn keep<T, E: std::fmt::Display>(&self, result: Result<T, E>) -> Option<T> {
        result
            .map_err(|e| self.0.borrow_mut().get_or_insert(e.to_string()).clone())
            .ok()
    }

    pub fn take(self) -> Fallible<()> {
        self.0.into_inner().map_or(Ok(()), Err)
    }
}

/// What the timed rounds of a run measured.
pub struct Rounds<R> {
    /// The warm-up round's result: the reference every timed round must
    /// reproduce, and the source of every exact metric.
    pub reference: R,
    /// Wall-clock of each untraced timed round, seconds.
    pub untraced_s: Vec<f64>,
    /// Wall-clock of each traced round, seconds (traced runs only).
    pub traced_s: Vec<f64>,
    /// Median set-up pass, seconds (input building plus a warm-up round).
    pub setup_s: f64,
    /// Peak resident set (VmHWM) read after the first timed round, MB:
    /// after the same work on every run, however many rounds then fit into
    /// the timed region.
    pub peak_rss_mb: f64,
}

/// Per-run state shared by the workloads.
pub struct Harness {
    pub config: Config,
    pub spans: Spans,
    attempted: Cell<u64>,
    failed: Cell<u64>,
    pub values: RefCell<Values>,
}

impl Harness {
    pub fn new(config: Config) -> Harness {
        Harness {
            config,
            spans: Spans::new(),
            attempted: Cell::new(0),
            failed: Cell::new(0),
            values: RefCell::new(Values::new()),
        }
    }

    /// Counts a program operation and unwraps it; an unexpected `Err`
    /// counts as failed and ends the workload.
    pub fn op<T, E: std::fmt::Display>(&self, what: &str, result: Result<T, E>) -> Fallible<T> {
        self.attempted.set(self.attempted.get() + 1);
        result.map_err(|e| {
            let message = format!("{what}: {e}");
            self.fail(&message);
            message
        })
    }

    /// Counts an output check.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.set(self.attempted.get() + 1);
        if !ok {
            self.fail(&what());
        }
    }

    fn fail(&self, message: &str) {
        self.failed.set(self.failed.get() + 1);
        eprintln!("FAILED: {message}");
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Records a metric value.
    pub fn set(&self, name: &'static str, value: f64) {
        self.values.borrow_mut().insert(name, value);
    }

    /// Runs the set-up passes and the timed region.
    ///
    /// A set-up pass is `setup` (registration, generation, profiles,
    /// probes) plus one discarded warm-up `round`; untraced runs make three
    /// passes and report the median, so one stall does not decide
    /// `setup_s`. The timed region then runs whole rounds until
    /// `config.seconds` have passed. A traced run alternates untraced and
    /// traced rounds over the same region, which gives the per-layer spans
    /// and, from the two medians, the tracing overhead.
    pub fn run_rounds<S, R: PartialEq>(
        &self,
        mut setup: impl FnMut(&Harness) -> Fallible<S>,
        mut round: impl FnMut(&Harness, &S) -> Fallible<R>,
    ) -> Fallible<(S, Rounds<R>)> {
        let passes = if self.config.traced || self.config.quick {
            1
        } else {
            3
        };
        let mut pass_s = Vec::new();
        let mut last = None;
        for _ in 0..passes {
            let start = Instant::now();
            let state = setup(self)?;
            let reference = round(self, &state)?;
            pass_s.push(secs(start.elapsed()));
            last = Some((state, reference));
        }
        let (state, reference) = last.expect("at least one set-up pass");

        let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
        // A traced run spends the other half of its time on layer probes.
        let (min_rounds, region_s) = match (self.config.quick, self.config.traced) {
            (true, false) => (2, 0.0),
            (true, true) => (4, 0.0),
            (false, false) => (3, self.config.seconds),
            (false, true) => (4, self.config.seconds / 2.0),
        };
        let region = Instant::now();
        let mut index = 0u32;
        let mut rss_mb = 0.0;
        while (index as usize) < min_rounds || secs(region.elapsed()) < region_s {
            let record = self.config.traced && index % 2 == 1;
            self.spans.set_round(record, index);
            let start = Instant::now();
            let result = {
                let _root = self.spans.span("round");
                round(self, &state)?
            };
            let elapsed = secs(start.elapsed());
            self.spans.set_round(false, index);
            if record {
                traced_s.push(elapsed);
            } else {
                untraced_s.push(elapsed);
            }
            if index == 0 {
                rss_mb = peak_rss_mb();
            }
            self.check(result == reference, || {
                format!("round {index} did not reproduce the warm-up round's outputs")
            });
            index += 1;
        }
        Ok((
            state,
            Rounds {
                reference,
                untraced_s,
                traced_s,
                setup_s: median(&pass_s),
                peak_rss_mb: rss_mb,
            },
        ))
    }
}
