//! Fault injection for the simulated DCOM wire.
//!
//! The paper's premise is that real networks are slow *and unreliable*
//! enough that component placement matters, yet a purely well-behaved
//! simulation never exercises the runtime's failure paths. This module
//! makes the transport faulty on purpose — seeded and scheduled against the
//! deterministic simulation clock, so every fault schedule is exactly
//! reproducible:
//!
//! * [`FaultPlan`] — the schedule: per-link message loss, latency spikes,
//!   link partitions over time windows, and whole-machine failure.
//! * [`CallPolicy`] — how the proxy reacts: per-attempt timeout, bounded
//!   retries with exponential backoff, and seeded jitter on the backoff.
//! * [`FaultStats`] — counters the transport accumulates (drops, timeouts,
//!   retries, wasted wait time) so run reports can surface what the fault
//!   layer did.
//!
//! Probabilistic decisions (message loss, backoff jitter) draw from a
//! dedicated fault RNG, *never* from the transport's jitter stream — a
//! zero-fault plan therefore leaves the simulated byte/clock accounting
//! bit-for-bit identical to a transport without the fault layer.

use coign_com::{ComError, ComResult, MachineId};
use std::collections::BTreeSet;

/// A half-open window `[from_us, until_us)` of simulated time.
///
/// `until_us == u64::MAX` means the window never closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// First microsecond the window covers.
    pub from_us: u64,
    /// First microsecond past the window (exclusive).
    pub until_us: u64,
}

impl TimeWindow {
    /// The window covering all of simulated time.
    pub const ALWAYS: TimeWindow = TimeWindow {
        from_us: 0,
        until_us: u64::MAX,
    };

    /// Creates a bounded window; `from_us` must not exceed `until_us`.
    pub fn new(from_us: u64, until_us: u64) -> Self {
        assert!(from_us <= until_us, "window ends before it starts");
        TimeWindow { from_us, until_us }
    }

    /// Creates an open-ended window starting at `from_us`.
    pub fn from(from_us: u64) -> Self {
        TimeWindow {
            from_us,
            until_us: u64::MAX,
        }
    }

    /// True when `now_us` falls inside the window.
    pub fn contains(&self, now_us: u64) -> bool {
        self.from_us <= now_us && now_us < self.until_us
    }
}

/// Which machine pairs a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every link in the topology.
    AllLinks,
    /// One machine pair (order-insensitive).
    Link(MachineId, MachineId),
}

impl LinkSelector {
    fn matches(&self, a: MachineId, b: MachineId) -> bool {
        match *self {
            LinkSelector::AllLinks => true,
            LinkSelector::Link(x, y) => (x == a && y == b) || (x == b && y == a),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Each message on the selected link(s) is lost with `probability`
    /// while the window is open (drawn from the fault RNG).
    Loss {
        /// Affected link(s).
        link: LinkSelector,
        /// Per-message loss probability in `[0, 1]`.
        probability: f64,
        /// When the fault is active.
        window: TimeWindow,
    },
    /// Message times on the selected link(s) are multiplied by `factor`
    /// while the window is open (a congestion episode).
    LatencySpike {
        /// Affected link(s).
        link: LinkSelector,
        /// Multiplier applied to sampled message times (≥ 0).
        factor: f64,
        /// When the fault is active.
        window: TimeWindow,
    },
    /// The selected link(s) deliver nothing while the window is open.
    Partition {
        /// Affected link(s).
        link: LinkSelector,
        /// When the link is severed.
        window: TimeWindow,
    },
    /// The machine fails entirely: unreachable on every link, and remote
    /// instantiations targeting it must fall back.
    MachineDown {
        /// The failed machine.
        machine: MachineId,
        /// When the machine is down.
        window: TimeWindow,
    },
}

/// The full seeded fault schedule of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: the wire behaves perfectly.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds a fault to the schedule.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Builder: message loss on all links for the whole run.
    pub fn with_loss(mut self, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability), "loss must be in [0,1]");
        self.faults.push(Fault::Loss {
            link: LinkSelector::AllLinks,
            probability,
            window: TimeWindow::ALWAYS,
        });
        self
    }

    /// Builder: a latency spike on all links inside `window`.
    pub fn with_spike(mut self, factor: f64, window: TimeWindow) -> Self {
        assert!(factor >= 0.0, "spike factor must be non-negative");
        self.faults.push(Fault::LatencySpike {
            link: LinkSelector::AllLinks,
            factor,
            window,
        });
        self
    }

    /// Builder: a partition of the `a`↔`b` link inside `window`.
    pub fn with_partition(mut self, a: MachineId, b: MachineId, window: TimeWindow) -> Self {
        self.faults.push(Fault::Partition {
            link: LinkSelector::Link(a, b),
            window,
        });
        self
    }

    /// Builder: whole-machine failure inside `window`.
    pub fn with_machine_down(mut self, machine: MachineId, window: TimeWindow) -> Self {
        self.faults.push(Fault::MachineDown { machine, window });
        self
    }

    /// True when `machine` is dead at `now_us`.
    pub fn machine_down(&self, machine: MachineId, now_us: u64) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::MachineDown { machine: m, window } => *m == machine && window.contains(now_us),
            _ => false,
        })
    }

    /// The typed error a message crossing `from`→`to` meets on the wire at
    /// `now_us`, if any — the one verdict both execution models (the RTE's
    /// [`crate::Transport`] and the serve DES) consult, so they cannot
    /// disagree on what a fault means. Precedence: death of the target,
    /// then death of the caller, then a partition of the link. `also_dead`
    /// names machines dead beyond the plan's own schedule — a serve shard's
    /// breaker-declared set; the transport passes the empty set.
    pub fn wire_verdict(
        &self,
        from: MachineId,
        to: MachineId,
        now_us: u64,
        also_dead: &BTreeSet<MachineId>,
    ) -> Option<ComError> {
        let down = |m: MachineId| also_dead.contains(&m) || self.machine_down(m, now_us);
        if down(to) {
            return Some(ComError::MachineDown(to));
        }
        if down(from) {
            return Some(ComError::MachineDown(from));
        }
        let partitioned = |f: &Fault| {
            matches!(f, Fault::Partition { link, window }
                if link.matches(from, to) && window.contains(now_us))
        };
        (self.faults.iter().any(partitioned)).then_some(ComError::Partitioned { from, to })
    }

    /// True when nothing can cross the `a`↔`b` link at `now_us` — the link
    /// itself is partitioned or either endpoint is down.
    pub fn link_severed(&self, a: MachineId, b: MachineId, now_us: u64) -> bool {
        self.wire_verdict(a, b, now_us, &BTreeSet::new()).is_some()
    }

    /// Combined per-message loss probability on the `a`↔`b` link at
    /// `now_us`: independent loss faults compose as `1 - Π(1 - pᵢ)`.
    pub fn loss_probability(&self, a: MachineId, b: MachineId, now_us: u64) -> f64 {
        let mut survive = 1.0;
        for fault in &self.faults {
            if let Fault::Loss {
                link,
                probability,
                window,
            } = fault
            {
                if link.matches(a, b) && window.contains(now_us) {
                    survive *= 1.0 - probability;
                }
            }
        }
        1.0 - survive
    }

    /// Product of all latency-spike factors active on the `a`↔`b` link at
    /// `now_us` (1.0 when none are).
    pub fn latency_factor(&self, a: MachineId, b: MachineId, now_us: u64) -> f64 {
        let mut factor = 1.0;
        for fault in &self.faults {
            if let Fault::LatencySpike {
                link,
                factor: f,
                window,
            } = fault
            {
                if link.matches(a, b) && window.contains(now_us) {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// Parses the textual fault-plan format (the `--fault-plan` file).
    ///
    /// One fault per line; `#` starts a comment. Machine pairs are written
    /// `A-B` (`*` = all links); time windows `FROM..UNTIL` in microseconds
    /// with either side omissible (`..` or the whole field omitted = the
    /// entire run).
    ///
    /// ```text
    /// loss 0.05                   # 5 % loss, all links, whole run
    /// loss 0.2 0-1 1000..50000    # 20 % on link 0↔1 in [1ms, 50ms)
    /// spike 4 * 10000..20000      # 4× latency everywhere in [10ms, 20ms)
    /// partition 0-1 5000..9000    # link 0↔1 severed in [5ms, 9ms)
    /// down 1 30000..              # machine 1 dies at 30ms, forever
    /// ```
    pub fn parse(text: &str) -> ComResult<Self> {
        let mut plan = FaultPlan::none();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad =
                |detail: &str| ComError::Codec(format!("fault plan line {}: {detail}", lineno + 1));
            let mut tokens = line.split_whitespace();
            let keyword = tokens.next().expect("non-empty line has a token");
            let rest: Vec<&str> = tokens.collect();
            match keyword {
                "loss" | "spike" => {
                    let value: f64 = rest
                        .first()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("expected a numeric value"))?;
                    if keyword == "loss" && !(0.0..=1.0).contains(&value) {
                        return Err(bad("loss probability must be in [0, 1]"));
                    }
                    if keyword == "spike" && value < 0.0 {
                        return Err(bad("spike factor must be non-negative"));
                    }
                    let link = parse_link(rest.get(1).copied()).map_err(|e| bad(&e))?;
                    let window = parse_window(rest.get(2).copied()).map_err(|e| bad(&e))?;
                    if rest.len() > 3 {
                        return Err(bad("trailing tokens"));
                    }
                    plan.push(if keyword == "loss" {
                        Fault::Loss {
                            link,
                            probability: value,
                            window,
                        }
                    } else {
                        Fault::LatencySpike {
                            link,
                            factor: value,
                            window,
                        }
                    });
                }
                "partition" => {
                    let link = parse_link(rest.first().copied()).map_err(|e| bad(&e))?;
                    let window = parse_window(rest.get(1).copied()).map_err(|e| bad(&e))?;
                    if rest.len() > 2 {
                        return Err(bad("trailing tokens"));
                    }
                    plan.push(Fault::Partition { link, window });
                }
                "down" => {
                    let machine: u16 = rest
                        .first()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("expected a machine index"))?;
                    let window = parse_window(rest.get(1).copied()).map_err(|e| bad(&e))?;
                    if rest.len() > 2 {
                        return Err(bad("trailing tokens"));
                    }
                    plan.push(Fault::MachineDown {
                        machine: MachineId(machine),
                        window,
                    });
                }
                other => return Err(bad(&format!("unknown fault kind `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Synthesizes a deterministic chaos plan from a bare seed — the
    /// `--fault-seed S` shorthand for callers that want reproducible
    /// faults without writing a plan file.
    ///
    /// Seed 0 is the explicit zero-fault seed and returns the empty plan
    /// (transparency: byte-identical to no fault layer at all). Any other
    /// seed drives a splitmix64 stream that always schedules one
    /// permanent `MachineDown` of a victim drawn from `victims` at a
    /// point in `[horizon/8, horizon/2)`, plus optionally modest loss
    /// (1–5 %, all links) and/or a latency spike (2–4×) — the same fault
    /// mix `coign chaos` explores, but synthesized without an RNG crate
    /// so any layer can reproduce it from the seed alone.
    pub fn seeded(seed: u64, horizon_us: u64, victims: &[MachineId]) -> Self {
        if seed == 0 || victims.is_empty() || horizon_us == 0 {
            return FaultPlan::none();
        }
        let mut state = seed;
        let victim = victims[(splitmix64(&mut state) % victims.len() as u64) as usize];
        let lo = horizon_us / 8;
        let hi = (horizon_us / 2).max(lo + 1);
        let at = lo + splitmix64(&mut state) % (hi - lo);
        let mut plan = FaultPlan::none().with_machine_down(victim, TimeWindow::from(at));
        if splitmix64(&mut state).is_multiple_of(2) {
            let pct = 1 + splitmix64(&mut state) % 5;
            plan = plan.with_loss(pct as f64 / 100.0);
        }
        if splitmix64(&mut state).is_multiple_of(2) {
            let factor = 2 + splitmix64(&mut state) % 3;
            let start = splitmix64(&mut state) % hi;
            let len = (horizon_us / 8).max(1);
            plan = plan.with_spike(factor as f64, TimeWindow::new(start, start + len));
        }
        plan
    }
}

/// The splitmix64 step — the same generator the serve shards use for
/// think-time streams, reproduced here so plan synthesis needs no RNG
/// crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl std::fmt::Display for LinkSelector {
    /// Renders the selector in the textual plan format: `*` or `A-B`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkSelector::AllLinks => write!(f, "*"),
            LinkSelector::Link(a, b) => write!(f, "{}-{}", a.0, b.0),
        }
    }
}

impl std::fmt::Display for TimeWindow {
    /// Renders the window in the textual plan format: `FROM..UNTIL` with
    /// either side omitted when it is open (`0` / unbounded).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.from_us > 0 {
            write!(f, "{}", self.from_us)?;
        }
        write!(f, "..")?;
        if self.until_us < u64::MAX {
            write!(f, "{}", self.until_us)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Fault {
    /// Renders the fault as one line of the textual plan format.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Loss {
                link,
                probability,
                window,
            } => write!(f, "loss {probability} {link} {window}"),
            Fault::LatencySpike {
                link,
                factor,
                window,
            } => write!(f, "spike {factor} {link} {window}"),
            Fault::Partition { link, window } => write!(f, "partition {link} {window}"),
            Fault::MachineDown { machine, window } => {
                write!(f, "down {} {window}", machine.0)
            }
        }
    }
}

impl std::fmt::Display for FaultPlan {
    /// Renders the plan in the textual format [`FaultPlan::parse`] reads:
    /// one fault per line. `parse(&plan.to_string())` reproduces the plan
    /// exactly — numeric values print with Rust's shortest round-tripping
    /// float representation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for fault in &self.faults {
            writeln!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_link(token: Option<&str>) -> Result<LinkSelector, String> {
    match token {
        None | Some("*") => Ok(LinkSelector::AllLinks),
        Some(pair) => {
            let (a, b) = pair
                .split_once('-')
                .ok_or_else(|| format!("bad link `{pair}` (want `A-B` or `*`)"))?;
            let a: u16 = a.parse().map_err(|_| format!("bad machine `{a}`"))?;
            let b: u16 = b.parse().map_err(|_| format!("bad machine `{b}`"))?;
            Ok(LinkSelector::Link(MachineId(a), MachineId(b)))
        }
    }
}

fn parse_window(token: Option<&str>) -> Result<TimeWindow, String> {
    let Some(spec) = token else {
        return Ok(TimeWindow::ALWAYS);
    };
    let (from, until) = spec
        .split_once("..")
        .ok_or_else(|| format!("bad window `{spec}` (want `FROM..UNTIL`)"))?;
    let from_us = if from.is_empty() {
        0
    } else {
        from.parse()
            .map_err(|_| format!("bad window start `{from}`"))?
    };
    let until_us = if until.is_empty() {
        u64::MAX
    } else {
        until
            .parse()
            .map_err(|_| format!("bad window end `{until}`"))?
    };
    if from_us > until_us {
        return Err(format!("window `{spec}` ends before it starts"));
    }
    Ok(TimeWindow { from_us, until_us })
}

/// How the proxy/transport boundary reacts to an unresponsive wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallPolicy {
    /// Time charged to the clock for an attempt that never hears a reply.
    pub timeout_us: u64,
    /// Re-send attempts after the first one fails (0 = no retries).
    pub max_retries: u32,
    /// Wait before the first retry.
    pub backoff_base_us: u64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Half-width of the uniform multiplicative jitter on each backoff,
    /// drawn from the fault RNG (0.1 = ±10 %).
    pub backoff_jitter: f64,
}

impl Default for CallPolicy {
    /// Timeout 50 ms (≈ 50× an Ethernet message), 3 retries, exponential
    /// backoff 10 ms → 20 ms → 40 ms with ±10 % jitter.
    fn default() -> Self {
        CallPolicy {
            timeout_us: 50_000,
            max_retries: 3,
            backoff_base_us: 10_000,
            backoff_multiplier: 2.0,
            backoff_jitter: 0.1,
        }
    }
}

impl CallPolicy {
    /// Total attempts the policy allows (first try + retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// The retry decision after the `failed`-th consecutive failed attempt
    /// of one call (1-based), shared by the RTE transport and the serve
    /// DES: `Some(base)` — re-send after the jitter-free backoff
    /// [`CallPolicy::backoff_us`]`(failed)`, which each caller jitters its
    /// own way — while retries remain, `None` once the call is given up.
    pub fn retry_after(&self, failed: u32) -> Option<u64> {
        (failed <= self.max_retries).then(|| self.backoff_us(failed))
    }

    /// The deterministic (jitter-free) backoff before retry number
    /// `retry` (1-based).
    pub fn backoff_us(&self, retry: u32) -> u64 {
        let factor = self.backoff_multiplier.powi(retry.saturating_sub(1) as i32);
        (self.backoff_base_us as f64 * factor).round() as u64
    }
}

/// Counters the transport accumulates while the fault layer is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost in flight (request or reply legs).
    pub drops: u64,
    /// Attempts that timed out (lost message or severed link).
    pub timeouts: u64,
    /// Re-send attempts made after a timeout.
    pub retries: u64,
    /// Calls that ultimately failed after exhausting the policy.
    pub failed_calls: u64,
    /// Calls refused because the target machine was down.
    pub machine_down_errors: u64,
    /// Clock time burned on timeouts and backoff waits, microseconds.
    pub wasted_us: u64,
}

impl FaultStats {
    /// True when the fault layer never perturbed anything.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Folds another stats block into this one (shard merging).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.drops += other.drops;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.failed_calls += other.failed_calls;
        self.machine_down_errors += other.machine_down_errors;
        self.wasted_us += other.wasted_us;
    }

    /// Absorbs these counters into a metrics registry under the
    /// `coign_fault_*` namespace.
    pub fn record_metrics(&self, registry: &coign_obs::Registry) {
        registry.counter("coign_fault_drops_total").add(self.drops);
        registry
            .counter("coign_fault_timeouts_total")
            .add(self.timeouts);
        registry
            .counter("coign_fault_retries_total")
            .add(self.retries);
        registry
            .counter("coign_fault_failed_calls_total")
            .add(self.failed_calls);
        registry
            .counter("coign_fault_machine_down_errors_total")
            .add(self.machine_down_errors);
        registry
            .counter("coign_fault_wasted_us")
            .add(self.wasted_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: MachineId = MachineId::CLIENT;
    const S: MachineId = MachineId::SERVER;

    #[test]
    fn windows_are_half_open() {
        let w = TimeWindow::new(100, 200);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        assert!(TimeWindow::from(50).contains(u64::MAX - 1));
        assert!(TimeWindow::ALWAYS.contains(0));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_window_panics() {
        TimeWindow::new(10, 5);
    }

    #[test]
    fn empty_plan_is_transparent() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.machine_down(S, 0));
        assert!(!plan.link_severed(C, S, 0));
        assert_eq!(plan.loss_probability(C, S, 0), 0.0);
        assert_eq!(plan.latency_factor(C, S, 0), 1.0);
    }

    #[test]
    fn machine_death_severs_every_link_in_window() {
        let plan = FaultPlan::none().with_machine_down(S, TimeWindow::new(1_000, 5_000));
        assert!(!plan.machine_down(S, 999));
        assert!(plan.machine_down(S, 1_000));
        assert!(plan.link_severed(C, S, 2_000));
        assert!(plan.link_severed(S, MachineId(2), 2_000));
        assert!(!plan.link_severed(C, MachineId(2), 2_000));
        assert!(!plan.link_severed(C, S, 5_000));
    }

    #[test]
    fn partitions_are_order_insensitive_and_windowed() {
        let plan = FaultPlan::none().with_partition(C, S, TimeWindow::new(10, 20));
        assert!(plan.link_severed(C, S, 15));
        assert!(plan.link_severed(S, C, 15));
        assert!(!plan.link_severed(C, S, 20));
        assert!(!plan.link_severed(C, MachineId(2), 15));
    }

    #[test]
    fn loss_probabilities_compose_independently() {
        let mut plan = FaultPlan::none().with_loss(0.5);
        plan.push(Fault::Loss {
            link: LinkSelector::Link(C, S),
            probability: 0.5,
            window: TimeWindow::ALWAYS,
        });
        // 1 - 0.5 * 0.5 on the doubly-faulted link, 0.5 elsewhere.
        assert!((plan.loss_probability(C, S, 0) - 0.75).abs() < 1e-12);
        assert!((plan.loss_probability(C, MachineId(2), 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spike_factors_multiply() {
        let plan = FaultPlan::none()
            .with_spike(2.0, TimeWindow::new(0, 100))
            .with_spike(3.0, TimeWindow::new(50, 100));
        assert_eq!(plan.latency_factor(C, S, 10), 2.0);
        assert_eq!(plan.latency_factor(C, S, 60), 6.0);
        assert_eq!(plan.latency_factor(C, S, 100), 1.0);
    }

    #[test]
    fn policy_backoff_is_exponential() {
        let policy = CallPolicy::default();
        assert_eq!(policy.max_attempts(), 4);
        assert_eq!(policy.backoff_us(1), 10_000);
        assert_eq!(policy.backoff_us(2), 20_000);
        assert_eq!(policy.backoff_us(3), 40_000);
    }

    #[test]
    fn wire_verdict_precedence_is_target_then_caller_then_partition() {
        let w = TimeWindow::new(100, 200);
        let down = |m| FaultPlan::none().with_machine_down(m, w);
        let cut = FaultPlan::none().with_partition(C, S, w);
        let target = Some(ComError::MachineDown(S));
        let caller = Some(ComError::MachineDown(C));
        let parted = Some(ComError::Partitioned { from: C, to: S });
        // (case, plan, verdict for C→S inside the window)
        let table = [
            ("target down", down(S), target.clone()),
            ("caller down", down(C), caller.clone()),
            ("both down", down(C).with_machine_down(S, w), target.clone()),
            ("partition only", cut.clone(), parted.clone()),
            (
                "partition + caller death",
                cut.clone().with_machine_down(C, w),
                caller,
            ),
            (
                "partition + target death",
                cut.with_machine_down(S, w),
                target.clone(),
            ),
            ("clean", FaultPlan::none().with_loss(0.5), None),
        ];
        let nobody = BTreeSet::new();
        for (case, plan, inside) in &table {
            assert_eq!(&plan.wire_verdict(C, S, 150, &nobody), inside, "{case}");
            for outside in [99, 200] {
                assert_eq!(plan.wire_verdict(C, S, outside, &nobody), None, "{case}");
            }
            assert_eq!(plan.link_severed(C, S, 150), inside.is_some(), "{case}");
        }
        // Machines the caller declared dead count as deaths at every
        // instant, with the same precedence — over the plan's own partition
        // and over a scheduled death of the other endpoint.
        let declared = BTreeSet::from([S]);
        for (case, plan, _) in &table {
            for at in [99, 150, 200] {
                assert_eq!(plan.wire_verdict(C, S, at, &declared), target, "{case}");
            }
        }
        assert_eq!(
            down(S).wire_verdict(C, S, 150, &BTreeSet::from([C])),
            target,
            "a scheduled target death outranks a declared caller death"
        );
        assert_eq!(
            FaultPlan::none().wire_verdict(C, S, 0, &BTreeSet::from([MachineId(2)])),
            None,
            "a dead bystander severs nothing"
        );
    }

    #[test]
    fn retry_decision_grants_exactly_max_retries_backoffs() {
        for max_retries in [0u32, 1, 3] {
            let policy = CallPolicy {
                max_retries,
                ..CallPolicy::default()
            };
            for failed in 1..=max_retries {
                assert_eq!(
                    policy.retry_after(failed),
                    Some(policy.backoff_us(failed)),
                    "max_retries={max_retries}: failure {failed} is retried"
                );
            }
            for failed in [max_retries + 1, max_retries + 2] {
                assert_eq!(
                    policy.retry_after(failed),
                    None,
                    "max_retries={max_retries}: failure {failed} gives up"
                );
            }
            assert_eq!(policy.retry_after(policy.max_attempts()), None);
        }
    }

    #[test]
    fn parse_roundtrips_the_documented_example() {
        let plan = FaultPlan::parse(
            "# demo plan\n\
             loss 0.05\n\
             loss 0.2 0-1 1000..50000\n\
             spike 4 * 10000..20000\n\
             partition 0-1 5000..9000  # mid-run blip\n\
             down 1 30000..\n",
        )
        .unwrap();
        assert_eq!(plan.faults().len(), 5);
        assert!(plan.machine_down(S, 30_000));
        assert!(!plan.machine_down(S, 29_999));
        assert!(plan.link_severed(C, S, 6_000));
        assert!((plan.loss_probability(C, S, 2_000) - (1.0 - 0.95 * 0.8)).abs() < 1e-12);
        assert_eq!(plan.latency_factor(C, S, 15_000), 4.0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "loss",                   // missing value
            "loss 1.5",               // out of range
            "spike -2",               // negative factor
            "loss 0.1 01",            // bad link
            "loss 0.1 0-1 10",        // bad window
            "partition 0-1 20..10",   // inverted window
            "down x",                 // bad machine
            "explode 0.5",            // unknown kind
            "loss 0.1 0-1 0..10 zzz", // trailing tokens
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(err, ComError::Codec(_)),
                "`{bad}` should fail with a codec error, got {err:?}"
            );
            assert!(err.to_string().contains("line 1"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let plan = FaultPlan::parse("\n# nothing\n   \n").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_zero_is_transparent() {
        assert!(FaultPlan::seeded(0, 1_000_000, &[S]).is_empty());
        assert!(FaultPlan::seeded(7, 1_000_000, &[]).is_empty());
        assert!(FaultPlan::seeded(7, 0, &[S]).is_empty());
        let horizon = 2_000_000;
        for seed in [1u64, 7, 11, 42, u64::MAX] {
            let plan = FaultPlan::seeded(seed, horizon, &[S, MachineId(2)]);
            assert_eq!(
                plan,
                FaultPlan::seeded(seed, horizon, &[S, MachineId(2)]),
                "seed {seed}: same seed, same plan"
            );
            let deaths: Vec<_> = plan
                .faults()
                .iter()
                .filter_map(|f| match f {
                    Fault::MachineDown { machine, window } => Some((*machine, *window)),
                    _ => None,
                })
                .collect();
            assert_eq!(deaths.len(), 1, "seed {seed}: exactly one machine death");
            let (victim, window) = deaths[0];
            assert!(victim == S || victim == MachineId(2));
            assert_ne!(victim, C, "the client is never the victim");
            assert!(
                window.from_us >= horizon / 8 && window.from_us < horizon / 2,
                "seed {seed}: death at {} outside [horizon/8, horizon/2)",
                window.from_us
            );
            assert_eq!(window.until_us, u64::MAX, "death is permanent");
        }
    }

    #[test]
    fn fault_stats_cleanliness() {
        let mut stats = FaultStats::default();
        assert!(stats.is_clean());
        stats.retries = 1;
        assert!(!stats.is_clean());
    }

    #[test]
    fn display_uses_the_documented_grammar() {
        let plan = FaultPlan::none()
            .with_loss(0.05)
            .with_spike(4.0, TimeWindow::new(10_000, 20_000))
            .with_partition(C, S, TimeWindow::new(5_000, 9_000))
            .with_machine_down(S, TimeWindow::from(30_000));
        assert_eq!(
            plan.to_string(),
            "loss 0.05 * ..\n\
             spike 4 * 10000..20000\n\
             partition 0-1 5000..9000\n\
             down 1 30000..\n"
        );
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }
}

#[cfg(test)]
pub(crate) mod properties {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::{Range, RangeInclusive};

    const CASES: u64 = 64;

    /// A string whose length is drawn from `len` and whose every char
    /// picks one range of `set`, then a code point in it (surrogates are
    /// redrawn, so `'\0'..=char::MAX` yields any `char`).
    pub(crate) fn random_string(
        rng: &mut StdRng,
        set: &[RangeInclusive<char>],
        len: Range<usize>,
    ) -> String {
        (0..rng.gen_range(len))
            .map(|_| loop {
                let range = &set[rng.gen_range(0..set.len())];
                let code = rng.gen_range(u32::from(*range.start())..=u32::from(*range.end()));
                if let Some(c) = char::from_u32(code) {
                    break c;
                }
            })
            .collect()
    }

    fn machine(rng: &mut StdRng) -> MachineId {
        MachineId(rng.gen_range(0..8))
    }

    fn link(rng: &mut StdRng) -> LinkSelector {
        if rng.gen_bool(0.5) {
            LinkSelector::AllLinks
        } else {
            LinkSelector::Link(machine(rng), machine(rng))
        }
    }

    fn window(rng: &mut StdRng) -> TimeWindow {
        match rng.gen_range(0..3) {
            0 => TimeWindow::ALWAYS,
            1 => TimeWindow::from(rng.gen_range(0..1_000_000)),
            _ => {
                let a: u64 = rng.gen_range(0..1_000_000);
                let b = rng.gen_range(0..1_000_000);
                TimeWindow::new(a.min(b), a.max(b))
            }
        }
    }

    /// Probabilities and factors are drawn on integer grids mapped through
    /// division, which exercises plenty of non-terminating binary
    /// fractions.
    fn fault(rng: &mut StdRng) -> Fault {
        match rng.gen_range(0..4) {
            0 => Fault::Loss {
                link: link(rng),
                probability: f64::from(rng.gen_range(0u32..=10_000)) / 10_000.0,
                window: window(rng),
            },
            1 => Fault::LatencySpike {
                link: link(rng),
                factor: f64::from(rng.gen_range(0u32..=100_000)) / 1_000.0,
                window: window(rng),
            },
            2 => Fault::Partition {
                link: link(rng),
                window: window(rng),
            },
            _ => Fault::MachineDown {
                machine: machine(rng),
                window: window(rng),
            },
        }
    }

    #[test]
    fn plan_format_round_trips() {
        // Floats print with Rust's shortest round-tripping representation,
        // so re-parsing must reproduce the plan bit for bit.
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let mut plan = FaultPlan::none();
            for _ in 0..rng.gen_range(0..12) {
                plan.push(fault(&mut rng));
            }
            let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
            assert_eq!(reparsed, plan, "case {case}");
        }
    }

    #[test]
    fn parser_errors_but_never_panics_on_arbitrary_text() {
        // Any outcome is acceptable except a panic.
        for case in 0..CASES {
            let text = random_string(&mut StdRng::seed_from_u64(case), &['\0'..=char::MAX], 0..49);
            let _ = FaultPlan::parse(&text);
        }
    }

    #[test]
    fn parser_errors_but_never_panics_on_plan_like_garbage() {
        // Near-miss lines: right keywords, mangled operands. Malformed
        // input must surface as a typed codec error, never a panic.
        let operand = ['-'..='.', '0'..='9', 'a'..='z', '*'..='*', '#'..='#'];
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let keyword = match ["loss", "spike", "partition", "down"].get(rng.gen_range(0usize..5))
            {
                Some(keyword) => keyword.to_string(),
                None => random_string(&mut rng, &['a'..='z'], 1..9),
            };
            let tokens: Vec<String> = (0..rng.gen_range(0..5))
                .map(|_| random_string(&mut rng, &operand, 0..7))
                .collect();
            let line = format!("{keyword} {}", tokens.join(" "));
            if let Err(error) = FaultPlan::parse(&line) {
                assert!(matches!(error, ComError::Codec(_)), "case {case}: {line:?}");
            }
        }
    }
}
