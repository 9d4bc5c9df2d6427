//! Per-link health tracking and circuit breakers.
//!
//! The fault layer ([`crate::faults`]) makes the wire misbehave; this
//! module makes the runtime *notice*. Every remote-call outcome feeds a
//! per-link state machine with the classic three breaker states:
//!
//! * **Closed** — the link is healthy; calls flow normally. Consecutive
//!   failures are counted, and reaching the threshold trips the breaker.
//! * **Open** — the link is presumed dead; calls fail fast with the error
//!   that tripped the breaker, charging nothing to the simulated clock.
//!   After a deterministic probe interval on the simulated clock, the next
//!   call is allowed through as a probe.
//! * **HalfOpen** — probing; calls flow, and a run of consecutive
//!   successes closes the breaker while any failure re-opens it (and
//!   re-arms the probe timer).
//!
//! Machine death gets a second, coarser breaker: `MachineDown` outcomes
//! accumulate per target machine, and when a machine's breaker opens it is
//! queued for the recovery layer to drain — the signal that triggers an
//! online re-partitioning away from the dead machine.
//!
//! Everything is scheduled against the *simulated* clock and fed only from
//! the transport's fault paths, so a run with an empty fault plan never
//! touches the monitor: the health layer is provably inert when nothing
//! fails.

use coign_com::{ComError, MachineId};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Thresholds and timers governing every breaker of a [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip a closed (or half-open) breaker.
    pub failure_threshold: u32,
    /// Consecutive successes that close a half-open breaker.
    pub success_threshold: u32,
    /// Simulated microseconds an open breaker waits before letting one
    /// probe call through.
    pub probe_interval_us: u64,
}

impl Default for BreakerPolicy {
    /// Trip after 3 consecutive failures, probe every 20 ms of simulated
    /// time, close again after 2 consecutive probe successes.
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            success_threshold: 2,
            probe_interval_us: 20_000,
        }
    }
}

/// The three circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, failures are counted.
    Closed,
    /// Tripped: calls fail fast until the probe timer expires.
    Open,
    /// Probing: calls flow; successes close, failures re-open.
    HalfOpen,
}

/// What kind of failure tripped a breaker — replayed on fast-fails so the
/// caller still sees a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureKind {
    MachineDown(MachineId),
    Partitioned,
    Timeout,
}

impl FailureKind {
    fn classify(error: &ComError) -> FailureKind {
        match error {
            ComError::MachineDown(m) => FailureKind::MachineDown(*m),
            ComError::Partitioned { .. } => FailureKind::Partitioned,
            _ => FailureKind::Timeout,
        }
    }

    fn to_error(self, from: MachineId, to: MachineId) -> ComError {
        match self {
            FailureKind::MachineDown(m) => ComError::MachineDown(m),
            FailureKind::Partitioned => ComError::Partitioned { from, to },
            FailureKind::Timeout => ComError::Timeout {
                detail: format!("{from}→{to} breaker open"),
            },
        }
    }
}

/// A state transition one outcome caused, for observability hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed/HalfOpen → Open.
    Opened,
    /// Open → HalfOpen (the probe timer expired).
    HalfOpened,
    /// HalfOpen → Closed.
    Closed,
}

impl BreakerTransition {
    /// Stable event name for tracer instants and recorder entries.
    pub(crate) fn event_name(self) -> &'static str {
        match self {
            BreakerTransition::Opened => "breaker_open",
            BreakerTransition::HalfOpened => "breaker_half_open",
            BreakerTransition::Closed => "breaker_close",
        }
    }
}

/// The gate decision for a call about to cross a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BreakerDecision {
    /// The breaker is closed (or half-open): let the call through.
    Allow,
    /// The breaker was open and the probe timer expired: the call
    /// proceeds as a probe (the breaker just moved to half-open).
    Probe,
    /// The breaker is open and no probe is due: fail fast with the error
    /// that tripped it, charging nothing.
    FastFail(ComError),
}

#[derive(Debug, Clone, Copy)]
struct LinkHealth {
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    next_probe_us: u64,
    tripped_by: FailureKind,
}

impl LinkHealth {
    fn new() -> Self {
        LinkHealth {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            consecutive_successes: 0,
            next_probe_us: 0,
            tripped_by: FailureKind::Timeout,
        }
    }
}

/// Counters the monitor accumulates, surfaced as `coign_health_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Breakers tripped (Closed/HalfOpen → Open).
    pub opens: u64,
    /// Probe windows entered (Open → HalfOpen).
    pub probes: u64,
    /// Breakers closed again (HalfOpen → Closed).
    pub closes: u64,
    /// Calls rejected without touching the wire.
    pub fast_fails: u64,
    /// Machine-level breakers opened (machines declared dead).
    pub machines_opened: u64,
}

#[derive(Default)]
struct HealthInner {
    links: BTreeMap<(u16, u16), LinkHealth>,
    /// Consecutive `MachineDown` outcomes per target machine.
    machine_failures: BTreeMap<u16, u32>,
    /// Machines whose breaker is open (declared dead).
    dead_machines: BTreeMap<u16, ()>,
    /// Dead machines not yet drained by the recovery layer.
    opened_queue: Vec<MachineId>,
    stats: HealthStats,
}

/// Health state for every link and machine of one run.
///
/// Shared behind an `Arc` between the transport (which feeds outcomes and
/// consults the gate) and the recovery layer (which drains dead machines).
/// All mutation happens under one lock; scheduling uses only the simulated
/// timestamps the transport passes in, so identical call sequences yield
/// identical breaker histories.
pub struct HealthMonitor {
    policy: BreakerPolicy,
    inner: Mutex<HealthInner>,
}

impl HealthMonitor {
    /// Creates a monitor with the given breaker policy; every link starts
    /// closed and every machine alive.
    pub fn new(policy: BreakerPolicy) -> Self {
        HealthMonitor {
            policy,
            inner: Mutex::new(HealthInner::default()),
        }
    }

    /// The policy the monitor was built with.
    pub fn policy(&self) -> &BreakerPolicy {
        &self.policy
    }

    fn key(from: MachineId, to: MachineId) -> (u16, u16) {
        if from.0 <= to.0 {
            (from.0, to.0)
        } else {
            (to.0, from.0)
        }
    }

    /// Gate for a call about to cross `from`↔`to` at simulated time
    /// `now_us`: allow, admit as probe, or fail fast.
    pub fn check(&self, from: MachineId, to: MachineId, now_us: u64) -> BreakerDecision {
        let mut inner = self.inner.lock();
        let link = inner
            .links
            .entry(Self::key(from, to))
            .or_insert_with(LinkHealth::new);
        match link.state {
            BreakerState::Closed | BreakerState::HalfOpen => BreakerDecision::Allow,
            BreakerState::Open => {
                if now_us >= link.next_probe_us {
                    link.state = BreakerState::HalfOpen;
                    link.consecutive_successes = 0;
                    inner.stats.probes += 1;
                    BreakerDecision::Probe
                } else {
                    let error = link.tripped_by.to_error(from, to);
                    inner.stats.fast_fails += 1;
                    BreakerDecision::FastFail(error)
                }
            }
        }
    }

    /// Records a successful call on `from`↔`to`. Returns the transition
    /// this success caused, if any (half-open breakers close after the
    /// policy's success threshold).
    pub fn on_success(&self, from: MachineId, to: MachineId) -> Option<BreakerTransition> {
        let mut inner = self.inner.lock();
        let link = inner
            .links
            .entry(Self::key(from, to))
            .or_insert_with(LinkHealth::new);
        link.consecutive_failures = 0;
        if link.state == BreakerState::HalfOpen {
            link.consecutive_successes += 1;
            if link.consecutive_successes >= self.policy.success_threshold {
                link.state = BreakerState::Closed;
                link.consecutive_successes = 0;
                inner.stats.closes += 1;
                return Some(BreakerTransition::Closed);
            }
        }
        None
    }

    /// Records a failed call on `from`↔`to` at simulated time `now_us`.
    ///
    /// Returns the link transition this failure caused (if any) plus the
    /// machine that was newly declared dead. A machine is declared dead
    /// when `MachineDown` outcomes push its machine breaker over the
    /// threshold, or when a link breaker trips *on* a `MachineDown`
    /// failure — mixed failure kinds (a partition riding alongside the
    /// death) must not let the open link breaker starve the machine
    /// counter of the outcomes it needs, since fast-fails never reach
    /// here.
    pub fn on_failure(
        &self,
        from: MachineId,
        to: MachineId,
        error: &ComError,
        now_us: u64,
    ) -> (Option<BreakerTransition>, Option<MachineId>) {
        let kind = FailureKind::classify(error);
        let mut inner = self.inner.lock();
        let threshold = self.policy.failure_threshold;
        let link = inner
            .links
            .entry(Self::key(from, to))
            .or_insert_with(LinkHealth::new);
        link.consecutive_successes = 0;
        link.consecutive_failures += 1;
        let trip = match link.state {
            // A half-open probe failure re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => link.consecutive_failures >= threshold,
            BreakerState::Open => false,
        };
        let link_transition = if trip {
            link.state = BreakerState::Open;
            link.tripped_by = kind;
            link.next_probe_us = now_us + self.policy.probe_interval_us;
            inner.stats.opens += 1;
            Some(BreakerTransition::Opened)
        } else {
            None
        };
        let mut machine_opened = None;
        if let FailureKind::MachineDown(machine) = kind {
            let count = inner.machine_failures.entry(machine.0).or_insert(0);
            *count += 1;
            if (*count >= threshold || trip) && !inner.dead_machines.contains_key(&machine.0) {
                inner.dead_machines.insert(machine.0, ());
                inner.opened_queue.push(machine);
                inner.stats.machines_opened += 1;
                machine_opened = Some(machine);
            }
        }
        (link_transition, machine_opened)
    }

    /// Current breaker state of the `from`↔`to` link (closed if the link
    /// has never reported an outcome).
    #[cfg(test)]
    pub(crate) fn link_state(&self, from: MachineId, to: MachineId) -> BreakerState {
        self.inner
            .lock()
            .links
            .get(&Self::key(from, to))
            .map(|l| l.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// True when `machine`'s breaker has opened (the machine is presumed
    /// dead).
    #[cfg(test)]
    pub(crate) fn machine_open(&self, machine: MachineId) -> bool {
        self.inner.lock().dead_machines.contains_key(&machine.0)
    }

    /// Machines declared dead since the last drain, in declaration order.
    /// The recovery layer polls this to trigger re-partitioning.
    pub fn drain_opened_machines(&self) -> Vec<MachineId> {
        std::mem::take(&mut self.inner.lock().opened_queue)
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> HealthStats {
        self.inner.lock().stats
    }

    /// True when no outcome has ever been recorded and no gate decision
    /// went beyond `Allow` — the monitor provably never interfered.
    #[cfg(test)]
    pub(crate) fn is_pristine(&self) -> bool {
        let inner = self.inner.lock();
        inner.stats == HealthStats::default()
            && inner
                .links
                .values()
                .all(|l| l.state == BreakerState::Closed && l.consecutive_failures == 0)
    }

    /// Absorbs the counters into a metrics registry under the
    /// `coign_health_*` namespace.
    pub fn record_metrics(&self, registry: &coign_obs::Registry) {
        let stats = self.stats();
        registry
            .counter("coign_health_breaker_opens_total")
            .add(stats.opens);
        registry
            .counter("coign_health_breaker_probes_total")
            .add(stats.probes);
        registry
            .counter("coign_health_breaker_closes_total")
            .add(stats.closes);
        registry
            .counter("coign_health_fast_fails_total")
            .add(stats.fast_fails);
        registry
            .counter("coign_health_machines_opened_total")
            .add(stats.machines_opened);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: MachineId = MachineId::CLIENT;
    const S: MachineId = MachineId::SERVER;

    fn timeout() -> ComError {
        ComError::Timeout {
            detail: "test".into(),
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        assert_eq!(monitor.link_state(C, S), BreakerState::Closed);
        assert_eq!(monitor.on_failure(C, S, &timeout(), 0), (None, None));
        assert_eq!(monitor.on_failure(C, S, &timeout(), 10), (None, None));
        assert_eq!(
            monitor.on_failure(C, S, &timeout(), 20),
            (Some(BreakerTransition::Opened), None)
        );
        assert_eq!(monitor.link_state(C, S), BreakerState::Open);
        // Link keys are order-insensitive.
        assert_eq!(monitor.link_state(S, C), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        monitor.on_failure(C, S, &timeout(), 0);
        monitor.on_failure(C, S, &timeout(), 10);
        assert_eq!(monitor.on_success(C, S), None);
        monitor.on_failure(C, S, &timeout(), 20);
        monitor.on_failure(C, S, &timeout(), 30);
        assert_eq!(monitor.link_state(C, S), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_fast_fails_until_the_probe_timer() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        for at in [0, 10, 20] {
            monitor.on_failure(C, S, &ComError::Partitioned { from: C, to: S }, at);
        }
        // Probe due at 20 + 20_000.
        match monitor.check(C, S, 1_000) {
            BreakerDecision::FastFail(ComError::Partitioned { from, to }) => {
                assert_eq!((from, to), (C, S));
            }
            other => panic!("expected a partitioned fast-fail, got {other:?}"),
        }
        assert_eq!(monitor.check(C, S, 20_020), BreakerDecision::Probe);
        assert_eq!(monitor.link_state(C, S), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_closes_after_success_threshold_or_reopens_on_failure() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        for at in [0, 10, 20] {
            monitor.on_failure(C, S, &timeout(), at);
        }
        assert_eq!(monitor.check(C, S, 50_000), BreakerDecision::Probe);
        assert_eq!(monitor.on_success(C, S), None, "one success is not enough");
        assert_eq!(monitor.on_success(C, S), Some(BreakerTransition::Closed));
        assert_eq!(monitor.link_state(C, S), BreakerState::Closed);

        // Trip again; this time the probe fails and the breaker re-opens.
        for at in [60_000, 60_010, 60_020] {
            monitor.on_failure(C, S, &timeout(), at);
        }
        assert_eq!(monitor.check(C, S, 90_000), BreakerDecision::Probe);
        let (transition, _) = monitor.on_failure(C, S, &timeout(), 90_001);
        assert_eq!(transition, Some(BreakerTransition::Opened));
        assert_eq!(monitor.link_state(C, S), BreakerState::Open);
        // The probe timer re-armed from the failure time.
        assert!(matches!(
            monitor.check(C, S, 90_002),
            BreakerDecision::FastFail(_)
        ));
        assert_eq!(monitor.check(C, S, 110_001), BreakerDecision::Probe);
    }

    #[test]
    fn probe_success_fully_closes_the_breaker() {
        // The probe schedule is deterministic on the simulated clock: a
        // breaker tripped at t probes exactly at t + probe_interval_us,
        // and a full run of probe successes restores a *pristine-looking*
        // closed breaker — the failure run restarts from zero.
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        for at in [0, 10, 20] {
            monitor.on_failure(C, S, &timeout(), at);
        }
        assert!(matches!(
            monitor.check(C, S, 20_019),
            BreakerDecision::FastFail(_)
        ));
        assert_eq!(
            monitor.check(C, S, 20_020),
            BreakerDecision::Probe,
            "probe due exactly at trip + probe_interval"
        );
        assert_eq!(monitor.on_success(C, S), None);
        assert_eq!(monitor.on_success(C, S), Some(BreakerTransition::Closed));
        assert_eq!(monitor.link_state(C, S), BreakerState::Closed);
        // Fully closed: a single new failure does not trip — the
        // consecutive-failure counter reset with the close.
        assert_eq!(monitor.on_failure(C, S, &timeout(), 30_000), (None, None));
        assert_eq!(monitor.link_state(C, S), BreakerState::Closed);
        assert_eq!(monitor.check(C, S, 30_001), BreakerDecision::Allow);
    }

    #[test]
    fn probe_failure_reopens_with_the_backoff_reset() {
        // A failed probe re-opens the breaker and re-arms the probe timer
        // from the *failure* instant, not the original trip: the backoff
        // resets deterministically each time a probe fails.
        let policy = BreakerPolicy::default();
        let interval = policy.probe_interval_us;
        let monitor = HealthMonitor::new(policy);
        for at in [0, 10, 20] {
            monitor.on_failure(C, S, &timeout(), at);
        }
        let mut probe_at = 20 + interval;
        for round in 0..3u64 {
            assert_eq!(
                monitor.check(C, S, probe_at),
                BreakerDecision::Probe,
                "round {round}: probe due exactly on schedule"
            );
            let fail_at = probe_at + 5;
            let (transition, _) = monitor.on_failure(C, S, &timeout(), fail_at);
            assert_eq!(
                transition,
                Some(BreakerTransition::Opened),
                "round {round}: one probe failure re-opens immediately"
            );
            // Fast-fails until exactly fail_at + interval.
            assert!(matches!(
                monitor.check(C, S, fail_at + interval - 1),
                BreakerDecision::FastFail(_)
            ));
            probe_at = fail_at + interval;
        }
        assert_eq!(monitor.stats().opens, 4);
        assert_eq!(monitor.stats().probes, 3);
    }

    #[test]
    fn probe_failure_with_machine_down_covers_the_mixed_kind_rule() {
        // Mixed-kind sequence ending in a MachineDown probe failure: the
        // HalfOpen→Open trip IS a MachineDown, so the machine must be
        // declared dead on the spot even though only one MachineDown
        // outcome ever reached the machine counter (fast-fails feed it
        // nothing). Subsequent fast-fails replay the MachineDown error.
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        for at in [0, 10, 20] {
            monitor.on_failure(C, S, &ComError::Partitioned { from: C, to: S }, at);
        }
        assert_eq!(monitor.check(C, S, 40_020), BreakerDecision::Probe);
        let (transition, opened) = monitor.on_failure(C, S, &ComError::MachineDown(S), 40_025);
        assert_eq!(transition, Some(BreakerTransition::Opened));
        assert_eq!(opened, Some(S), "the tripping MachineDown declares death");
        assert!(monitor.machine_open(S));
        assert_eq!(monitor.drain_opened_machines(), vec![S]);
        match monitor.check(C, S, 40_030) {
            BreakerDecision::FastFail(ComError::MachineDown(m)) => assert_eq!(m, S),
            other => panic!("expected a machine-down fast-fail, got {other:?}"),
        }
    }

    #[test]
    fn machine_down_outcomes_open_the_machine_breaker_once() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        let down = ComError::MachineDown(S);
        assert_eq!(monitor.on_failure(C, S, &down, 0).1, None);
        assert_eq!(monitor.on_failure(C, S, &down, 10).1, None);
        assert_eq!(monitor.on_failure(C, S, &down, 20).1, Some(S));
        assert!(monitor.machine_open(S));
        assert!(!monitor.machine_open(C));
        // Further failures do not re-queue the machine.
        monitor.on_failure(C, S, &down, 30);
        assert_eq!(monitor.drain_opened_machines(), vec![S]);
        assert_eq!(monitor.drain_opened_machines(), Vec::<MachineId>::new());
        assert_eq!(monitor.stats().machines_opened, 1);
    }

    #[test]
    fn mixed_failures_tripping_the_link_still_declare_the_machine_dead() {
        // A partition outcome shares the link breaker with subsequent
        // machine-down outcomes (link keys are order-normalized). The trip
        // arrives with only two MachineDown counts — but the tripping
        // failure IS a MachineDown, so the machine must be declared dead
        // here: once the breaker is open, fast-fails would never feed the
        // machine counter again.
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        let down = ComError::MachineDown(S);
        assert_eq!(
            monitor.on_failure(S, C, &ComError::Partitioned { from: S, to: C }, 0),
            (None, None)
        );
        assert_eq!(monitor.on_failure(C, S, &down, 10), (None, None));
        assert_eq!(
            monitor.on_failure(C, S, &down, 20),
            (Some(BreakerTransition::Opened), Some(S))
        );
        assert!(monitor.machine_open(S));
        assert_eq!(monitor.drain_opened_machines(), vec![S]);
    }

    #[test]
    fn fast_fail_replays_machine_down_errors() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        let down = ComError::MachineDown(S);
        for at in [0, 1, 2] {
            monitor.on_failure(C, S, &down, at);
        }
        match monitor.check(C, S, 100) {
            BreakerDecision::FastFail(ComError::MachineDown(m)) => assert_eq!(m, S),
            other => panic!("expected a machine-down fast-fail, got {other:?}"),
        }
    }

    #[test]
    fn untouched_monitor_is_pristine() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        assert!(monitor.is_pristine());
        assert_eq!(monitor.check(C, S, 0), BreakerDecision::Allow);
        assert!(monitor.is_pristine(), "an allow decision leaves no trace");
        monitor.on_failure(C, S, &timeout(), 0);
        monitor.on_failure(C, S, &timeout(), 1);
        monitor.on_failure(C, S, &timeout(), 2);
        assert!(!monitor.is_pristine());
    }

    #[test]
    fn stats_and_metrics_agree() {
        let monitor = HealthMonitor::new(BreakerPolicy::default());
        for at in [0, 1, 2] {
            monitor.on_failure(C, S, &timeout(), at);
        }
        let _ = monitor.check(C, S, 5); // fast fail
        let _ = monitor.check(C, S, 30_000); // probe
        monitor.on_success(C, S);
        monitor.on_success(C, S); // closes
        let stats = monitor.stats();
        assert_eq!(
            (stats.opens, stats.probes, stats.closes, stats.fast_fails),
            (1, 1, 1, 1)
        );
        let registry = coign_obs::Registry::new();
        monitor.record_metrics(&registry);
        assert_eq!(
            registry.counter_value("coign_health_breaker_opens_total"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("coign_health_fast_fails_total"),
            Some(1)
        );
    }
}
