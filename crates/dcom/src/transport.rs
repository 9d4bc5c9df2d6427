//! The simulated remote-call transport.
//!
//! When a distributed execution routes an interface call across machines,
//! the [`Transport`] charges the cost of the request and reply messages to
//! the runtime's clock and statistics. Message times are drawn from the
//! network model with seeded jitter, so "measured" distributed executions
//! are reproducible yet not exactly equal to the analytic prediction.
//!
//! The transport optionally carries a [`FaultPlan`] and [`CallPolicy`]
//! (see [`crate::faults`]): message loss, latency spikes, partitions, and
//! machine death are then injected deterministically against the simulated
//! clock, and the proxy boundary retries with timeout and exponential
//! backoff before surfacing a typed failure. Fault decisions draw from a
//! *separate* seeded RNG, so a zero-fault plan leaves the jitter stream —
//! and therefore every charged microsecond — identical to a transport
//! without the fault layer.

use crate::faults::{CallPolicy, FaultPlan, FaultStats};
use crate::health::{BreakerDecision, HealthMonitor};
use crate::network::NetworkModel;
use coign_com::{ComError, ComResult, ComRuntime, MachineId};
use coign_obs::{FlightRecorder, TraceArg, Tracer};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Simulated DCOM wire transport between the machines of a topology.
///
/// Every machine pair shares one network model (the paper's two-machine
/// isolated Ethernet).
pub struct Transport {
    network: NetworkModel,
    rng: Mutex<StdRng>,
    faults: FaultPlan,
    policy: CallPolicy,
    /// Fault decisions draw here, never from `rng`, so the jitter stream
    /// is independent of the fault schedule.
    fault_rng: Mutex<StdRng>,
    fault_stats: Mutex<FaultStats>,
    /// Observability hook: fault events become tracer instants and flight
    /// recorder entries. Interior-mutable because the transport is shared
    /// behind an `Arc` before the RTE that owns the hook exists. Only
    /// fault paths consult it, so a clean run never touches the lock.
    obs: Mutex<Option<(Arc<Tracer>, Arc<FlightRecorder>)>>,
    /// Optional circuit-breaker layer (see [`crate::health`]). Fed and
    /// consulted only on fault paths — with an empty fault plan the
    /// monitor is never touched, keeping clean runs bit-identical.
    health: Mutex<Option<Arc<HealthMonitor>>>,
}

impl Transport {
    /// Creates a transport over the given network with a deterministic seed.
    pub fn new(network: NetworkModel, seed: u64) -> Self {
        Self::with_faults(network, seed, FaultPlan::none(), CallPolicy::default(), 0)
    }

    /// Creates a transport whose wire misbehaves according to `faults`,
    /// with the proxy boundary retrying per `policy`. Fault decisions are
    /// seeded by `fault_seed`, independently of the jitter seed.
    pub fn with_faults(
        network: NetworkModel,
        seed: u64,
        faults: FaultPlan,
        policy: CallPolicy,
        fault_seed: u64,
    ) -> Self {
        Transport {
            network,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            faults,
            policy,
            fault_rng: Mutex::new(StdRng::seed_from_u64(fault_seed)),
            fault_stats: Mutex::new(FaultStats::default()),
            obs: Mutex::new(None),
            health: Mutex::new(None),
        }
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The fault schedule this transport injects.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Snapshot of the fault counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        *self.fault_stats.lock()
    }

    /// Attaches an observability hook: fault injections, timeouts, and
    /// retries are reported as tracer instant events (runtime track,
    /// simulated-clock timestamps) and flight-recorder entries.
    pub fn set_obs(&self, tracer: Arc<Tracer>, recorder: Arc<FlightRecorder>) {
        *self.obs.lock() = Some((tracer, recorder));
    }

    /// Attaches a circuit-breaker health monitor. Outcomes of fault-path
    /// calls feed it, and an open breaker fails calls fast; with an empty
    /// fault plan the monitor is never consulted.
    pub fn set_health(&self, monitor: Arc<HealthMonitor>) {
        *self.health.lock() = Some(monitor);
    }

    /// The attached health monitor, if any.
    pub fn health(&self) -> Option<Arc<HealthMonitor>> {
        self.health.lock().clone()
    }

    /// Runs `f` against the observability hook, if one is attached.
    fn with_obs(&self, f: impl FnOnce(&Tracer, &FlightRecorder)) {
        if let Some((tracer, recorder)) = &*self.obs.lock() {
            f(tracer, recorder);
        }
    }

    /// Reports one fault event between `from` and `to` to the hook.
    fn fault_event(
        &self,
        rt: &ComRuntime,
        name: &'static str,
        from: MachineId,
        to: MachineId,
        attempt: u32,
    ) {
        self.with_obs(|tracer, recorder| {
            let at = rt.clock().now_us();
            tracer.instant_at(
                name,
                at,
                vec![
                    ("from", TraceArg::U64(u64::from(from.0))),
                    ("to", TraceArg::U64(u64::from(to.0))),
                    ("attempt", TraceArg::U64(u64::from(attempt))),
                ],
            );
            recorder.record(
                at,
                name,
                format!("m{}->m{} attempt {attempt}", from.0, to.0),
            );
        });
    }

    /// Consults the breaker gate for a call about to cross `from`↔`to`.
    /// Fast-fails with the tripping error when the breaker is open and no
    /// probe is due; lets probes through with an instant event.
    fn health_gate(&self, rt: &ComRuntime, from: MachineId, to: MachineId) -> ComResult<()> {
        let Some(monitor) = self.health() else {
            return Ok(());
        };
        match monitor.check(from, to, rt.clock().now_us()) {
            BreakerDecision::Allow => Ok(()),
            BreakerDecision::Probe => {
                self.fault_event(rt, "breaker_half_open", from, to, 0);
                Ok(())
            }
            BreakerDecision::FastFail(error) => {
                self.fault_event(rt, "breaker_fast_fail", from, to, 0);
                Err(error)
            }
        }
    }

    /// Feeds a successful call outcome to the breaker layer.
    fn health_success(&self, rt: &ComRuntime, from: MachineId, to: MachineId) {
        if let Some(monitor) = self.health() {
            if let Some(transition) = monitor.on_success(from, to) {
                self.fault_event(rt, transition.event_name(), from, to, 0);
            }
        }
    }

    /// Feeds a failed call outcome to the breaker layer, reporting any
    /// breaker transition and newly dead machine to the obs hook.
    fn health_failure(&self, rt: &ComRuntime, from: MachineId, to: MachineId, error: &ComError) {
        if let Some(monitor) = self.health() {
            let now = rt.clock().now_us();
            let (transition, machine) = monitor.on_failure(from, to, error, now);
            if let Some(t) = transition {
                self.fault_event(rt, t.event_name(), from, to, 0);
            }
            if let Some(m) = machine {
                self.with_obs(|tracer, recorder| {
                    tracer.instant_at(
                        "machine_declared_dead",
                        now,
                        vec![("machine", TraceArg::U64(u64::from(m.0)))],
                    );
                    recorder.record(
                        now,
                        "machine_declared_dead",
                        format!("m{} breaker opened", m.0),
                    );
                });
            }
        }
    }

    /// Charges one delivered request/reply pair: the model's jittered
    /// one-way times, scaled by a latency-spike `factor` (1.0 on a clean
    /// wire, where the product is exact).
    fn charge(&self, rt: &ComRuntime, req_bytes: u64, reply_bytes: u64, factor: f64) {
        let (req_us, reply_us) = {
            let mut rng = self.rng.lock();
            (
                self.network.sample_time_us(req_bytes, &mut *rng),
                self.network.sample_time_us(reply_bytes, &mut *rng),
            )
        };
        rt.charge_comm(
            ((req_us + reply_us) * factor).round() as u64,
            req_bytes + reply_bytes,
            2,
        );
    }

    /// Burns `us` microseconds on a timeout or backoff wait: the clock
    /// advances but nothing is charged as useful communication.
    fn wait(&self, rt: &ComRuntime, us: u64) {
        rt.clock().advance_us(us);
        self.fault_stats.lock().wasted_us += us;
    }

    /// Sleeps the backoff before retry number `retry` (1-based) — the
    /// policy's base `base_us`, jittered from the fault RNG — and counts
    /// the retry.
    fn backoff(&self, rt: &ComRuntime, retry: u32, base_us: u64) {
        let base = base_us as f64;
        let us = if self.policy.backoff_jitter > 0.0 {
            let j = self.policy.backoff_jitter;
            let factor = 1.0 + self.fault_rng.lock().gen_range(-j..=j);
            (base * factor).round() as u64
        } else {
            base as u64
        };
        self.wait(rt, us);
        self.fault_stats.lock().retries += 1;
        self.with_obs(|tracer, recorder| {
            let at = rt.clock().now_us();
            tracer.instant_at(
                "fault_retry",
                at,
                vec![
                    ("retry", TraceArg::U64(u64::from(retry))),
                    ("backoff_us", TraceArg::U64(us)),
                ],
            );
            recorder.record(
                at,
                "fault_retry",
                format!("retry {retry} after {us}us backoff"),
            );
        });
    }

    /// The plan's wire verdict for `from`→`to` at the current instant.
    fn verdict(&self, rt: &ComRuntime, from: MachineId, to: MachineId) -> Option<ComError> {
        self.faults
            .wire_verdict(from, to, rt.clock().now_us(), &BTreeSet::new())
    }

    /// Surfaces a call's final `error` to the obs hook (as event `name`)
    /// and the breaker layer.
    fn surface(
        &self,
        rt: &ComRuntime,
        from: MachineId,
        to: MachineId,
        name: &'static str,
        attempt: u32,
        error: ComError,
    ) -> ComError {
        self.fault_event(rt, name, from, to, attempt);
        self.health_failure(rt, from, to, &error);
        error
    }

    /// Attempt number `attempt` heard nothing back: waits out the timeout,
    /// then sleeps the backoff if the policy grants another attempt.
    /// Returns false once the call is given up.
    fn timed_out(&self, rt: &ComRuntime, from: MachineId, to: MachineId, attempt: u32) -> bool {
        self.wait(rt, self.policy.timeout_us);
        self.fault_stats.lock().timeouts += 1;
        self.fault_event(rt, "fault_timeout", from, to, attempt);
        let retry = self.policy.retry_after(attempt);
        if let Some(base_us) = retry {
            self.backoff(rt, attempt, base_us);
        }
        retry.is_some()
    }

    /// Pre-flight check before dispatching a remote call from `from` to
    /// `to`: fails fast if an endpoint is down, and rides out a link
    /// partition with timeout + backoff retries.
    ///
    /// With an empty fault plan this returns `Ok(())` immediately, charges
    /// nothing, and draws no randomness.
    pub fn preflight(&self, rt: &ComRuntime, from: MachineId, to: MachineId) -> ComResult<()> {
        if self.faults.is_empty() {
            return Ok(());
        }
        self.health_gate(rt, from, to)?;
        if let Some(error @ ComError::MachineDown(_)) = self.verdict(rt, from, to) {
            // A dead endpoint fails fast with the machine's identity: the
            // severance is the death, not a partition, and the recovery
            // layer needs to know *which* machine to re-solve around.
            self.fault_stats.lock().machine_down_errors += 1;
            return Err(self.surface(rt, from, to, "fault_machine_down", 0, error));
        }
        let mut attempt = 0;
        while self.verdict(rt, from, to).is_some() {
            // The request vanishes into the partition; we wait out the
            // timeout before concluding the attempt failed.
            attempt += 1;
            if !self.timed_out(rt, from, to, attempt) {
                let error = self
                    .verdict(rt, from, to)
                    .unwrap_or(ComError::Partitioned { from, to });
                self.fault_stats.lock().failed_calls += 1;
                return Err(self.surface(rt, from, to, "fault_failed", attempt, error));
            }
        }
        Ok(())
    }

    /// Charges the request/reply pair of one remote call on the
    /// `from`↔`to` link, injecting message loss, latency spikes, and
    /// partitions per the fault plan and riding them out per the call
    /// policy. Returns the number of attempts the call took (1 = clean
    /// first try).
    ///
    /// With an empty fault plan this is one jittered charge: two jitter
    /// draws, one `charge_comm`, no fault randomness.
    pub fn charge_sized_call_checked(
        &self,
        rt: &ComRuntime,
        from: MachineId,
        to: MachineId,
        req_bytes: u64,
        reply_bytes: u64,
    ) -> ComResult<u32> {
        if self.faults.is_empty() {
            self.charge(rt, req_bytes, reply_bytes, 1.0);
            return Ok(1);
        }
        self.health_gate(rt, from, to)?;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let now = rt.clock().now_us();
            let delivered = match self.verdict(rt, from, to) {
                Some(error @ ComError::MachineDown(_)) => {
                    self.fault_stats.lock().machine_down_errors += 1;
                    return Err(self.surface(rt, from, to, "fault_machine_down", attempt, error));
                }
                Some(_) => false,
                None => {
                    let loss = self.faults.loss_probability(from, to, now);
                    // Request and reply legs are lost independently.
                    let lost = loss > 0.0 && {
                        let mut rng = self.fault_rng.lock();
                        rng.gen_bool(loss) || rng.gen_bool(loss)
                    };
                    if lost {
                        self.fault_stats.lock().drops += 1;
                        self.fault_event(rt, "fault_drop", from, to, attempt);
                    }
                    !lost
                }
            };
            if delivered {
                let factor = self.faults.latency_factor(from, to, now);
                if factor > 1.0 {
                    self.with_obs(|tracer, recorder| {
                        tracer.instant_at(
                            "fault_spike",
                            now,
                            vec![
                                ("from", TraceArg::U64(u64::from(from.0))),
                                ("to", TraceArg::U64(u64::from(to.0))),
                                ("factor", TraceArg::F64(factor)),
                            ],
                        );
                        recorder.record(
                            now,
                            "fault_spike",
                            format!("m{}->m{} latency x{factor}", from.0, to.0),
                        );
                    });
                }
                self.charge(rt, req_bytes, reply_bytes, factor);
                self.health_success(rt, from, to);
                return Ok(attempt);
            }
            // The caller hears nothing back and waits out the timeout.
            if !self.timed_out(rt, from, to, attempt) {
                break;
            }
        }
        let error = if self.verdict(rt, from, to).is_some() {
            ComError::Partitioned { from, to }
        } else {
            ComError::Timeout {
                detail: format!("{from}→{to} after {attempt} attempt(s)"),
            }
        };
        self.fault_stats.lock().failed_calls += 1;
        Err(self.surface(rt, from, to, "fault_failed", attempt, error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Charges one clean-wire client→server call of the given sizes.
    fn charge(transport: &Transport, rt: &ComRuntime, req_bytes: u64, reply_bytes: u64) {
        let attempts = transport
            .charge_sized_call_checked(
                rt,
                MachineId::CLIENT,
                MachineId::SERVER,
                req_bytes,
                reply_bytes,
            )
            .unwrap();
        assert_eq!(attempts, 1);
    }

    #[test]
    fn sized_call_charges_clock_and_stats() {
        let rt = ComRuntime::client_server();
        let transport = Transport::new(NetworkModel::ethernet_10baset(), 1);
        charge(&transport, &rt, 40, 10_040);
        let stats = rt.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 10_080);
        assert_eq!(stats.cross_machine_calls, 1);
        assert!(stats.comm_us > 0);
        assert_eq!(rt.clock().now_us(), stats.comm_us);
    }

    #[test]
    fn transport_is_deterministic_per_seed() {
        let run = |seed| {
            let rt = ComRuntime::client_server();
            let transport = Transport::new(NetworkModel::ethernet_10baset(), seed);
            for _ in 0..10 {
                charge(&transport, &rt, 500, 1500);
            }
            rt.clock().now_us()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn bigger_payloads_cost_more_time() {
        let rt_small = ComRuntime::client_server();
        let rt_big = ComRuntime::client_server();
        charge(&Transport::new(NetworkModel::san(), 1), &rt_small, 100, 100);
        charge(
            &Transport::new(NetworkModel::san(), 1),
            &rt_big,
            1_000_000,
            100,
        );
        assert!(rt_big.clock().now_us() > rt_small.clock().now_us());
    }

    use crate::faults::{CallPolicy, FaultPlan, TimeWindow};

    /// Jitter-free policy so fault timings are exactly predictable.
    fn strict_policy() -> CallPolicy {
        CallPolicy {
            timeout_us: 10_000,
            max_retries: 3,
            backoff_base_us: 10_000,
            backoff_multiplier: 2.0,
            backoff_jitter: 0.0,
        }
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_plain_transport() {
        let run = |transport: Transport| {
            let rt = ComRuntime::client_server();
            for _ in 0..10 {
                transport
                    .preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
                    .unwrap();
                transport
                    .charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
                    .unwrap();
            }
            (rt.clock().now_us(), rt.stats())
        };
        let plain = {
            let rt = ComRuntime::client_server();
            let t = Transport::new(NetworkModel::ethernet_10baset(), 7);
            for _ in 0..10 {
                charge(&t, &rt, 500, 1500);
            }
            (rt.clock().now_us(), rt.stats())
        };
        let faultless = run(Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            7,
            FaultPlan::none(),
            CallPolicy::default(),
            99, // fault seed is irrelevant with an empty plan
        ));
        assert_eq!(plain, faultless);
        assert!(Transport::new(NetworkModel::ethernet_10baset(), 7)
            .fault_stats()
            .is_clean());
    }

    #[test]
    fn partition_rides_out_with_retries_then_succeeds() {
        // Partition [0, 30ms); timeout 10ms, backoff 10ms.
        // Attempt 1 at t=0 (severed) → timeout to 10ms → backoff to 20ms.
        // Attempt 2 at t=20ms (severed) → timeout to 30ms... but preflight
        // re-checks at 30ms: window closed, so the call proceeds.
        let plan = FaultPlan::none().with_partition(
            MachineId::CLIENT,
            MachineId::SERVER,
            TimeWindow::new(0, 30_000),
        );
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            strict_policy(),
            42,
        );
        t.preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
            .unwrap();
        let attempts = t
            .charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
            .unwrap();
        assert_eq!(attempts, 1, "link is clean once preflight returns");
        let stats = t.fault_stats();
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.failed_calls, 0);
        assert_eq!(stats.wasted_us, 2 * 10_000 + 10_000 + 20_000);
        // Useful traffic was charged exactly once.
        assert_eq!(rt.stats().messages, 2);
    }

    #[test]
    fn unending_partition_exhausts_the_policy() {
        let plan = FaultPlan::none().with_partition(
            MachineId::CLIENT,
            MachineId::SERVER,
            TimeWindow::ALWAYS,
        );
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            strict_policy(),
            42,
        );
        let err = t
            .preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
            .unwrap_err();
        assert_eq!(
            err,
            ComError::Partitioned {
                from: MachineId::CLIENT,
                to: MachineId::SERVER,
            }
        );
        let stats = t.fault_stats();
        assert_eq!(stats.timeouts, 4);
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.failed_calls, 1);
        // No useful traffic was ever charged.
        assert_eq!(rt.stats().messages, 0);
        assert!(rt.clock().now_us() > 0);
    }

    #[test]
    fn dead_machine_fails_fast_without_retries() {
        let plan = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::ALWAYS);
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            strict_policy(),
            42,
        );
        let err = t
            .preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
            .unwrap_err();
        assert_eq!(err, ComError::MachineDown(MachineId::SERVER));
        let stats = t.fault_stats();
        assert_eq!(stats.machine_down_errors, 1);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn total_loss_times_out_every_attempt() {
        let plan = FaultPlan::none().with_loss(1.0);
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            strict_policy(),
            42,
        );
        t.preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
            .unwrap();
        let err = t
            .charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
            .unwrap_err();
        assert!(matches!(err, ComError::Timeout { .. }));
        let stats = t.fault_stats();
        assert_eq!(stats.drops, 4);
        assert_eq!(stats.timeouts, 4);
        assert_eq!(stats.failed_calls, 1);
        assert_eq!(rt.stats().messages, 0);
    }

    #[test]
    fn latency_spike_inflates_charged_time_only() {
        let charge = |plan: FaultPlan| {
            let rt = ComRuntime::client_server();
            let t = Transport::with_faults(
                NetworkModel::ethernet_10baset(),
                3,
                plan,
                strict_policy(),
                42,
            );
            t.charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
                .unwrap();
            (rt.clock().now_us(), rt.stats().bytes)
        };
        // A spiked plan must still be non-empty for the fault path to run;
        // compare a 1x spike against a 5x spike.
        let (base_us, base_bytes) = charge(FaultPlan::none().with_spike(1.0, TimeWindow::ALWAYS));
        let (spiked_us, spiked_bytes) =
            charge(FaultPlan::none().with_spike(5.0, TimeWindow::ALWAYS));
        assert_eq!(base_bytes, spiked_bytes);
        // Rounding happens after the multiply, so allow ±1 µs.
        assert!(
            spiked_us.abs_diff(base_us * 5) <= 1,
            "spiked {spiked_us} vs 5 × base {base_us}"
        );
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |fault_seed| {
            let rt = ComRuntime::client_server();
            let t = Transport::with_faults(
                NetworkModel::ethernet_10baset(),
                1,
                FaultPlan::none().with_loss(0.4),
                CallPolicy::default(),
                fault_seed,
            );
            for _ in 0..20 {
                let _ = t.charge_sized_call_checked(
                    &rt,
                    MachineId::CLIENT,
                    MachineId::SERVER,
                    500,
                    1500,
                );
            }
            (rt.clock().now_us(), t.fault_stats())
        };
        assert_eq!(run(11), run(11));
        let (_, stats_a) = run(11);
        let (_, stats_b) = run(12);
        assert!(stats_a.drops > 0);
        assert_ne!(stats_a, stats_b, "different fault seeds diverge");
    }

    use crate::health::{BreakerPolicy, BreakerState, HealthMonitor};

    #[test]
    fn health_monitor_stays_pristine_on_a_zero_fault_plan() {
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            7,
            FaultPlan::none(),
            CallPolicy::default(),
            99,
        );
        let monitor = Arc::new(HealthMonitor::new(BreakerPolicy::default()));
        t.set_health(monitor.clone());
        for _ in 0..10 {
            t.preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
                .unwrap();
            t.charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
                .unwrap();
        }
        assert!(
            monitor.is_pristine(),
            "empty plan must never consult the breaker layer"
        );
        // And the charged time matches a transport with no health layer.
        let plain = ComRuntime::client_server();
        let p = Transport::new(NetworkModel::ethernet_10baset(), 7);
        for _ in 0..10 {
            charge(&p, &plain, 500, 1500);
        }
        assert_eq!(rt.clock().now_us(), plain.clock().now_us());
    }

    #[test]
    fn breaker_trips_on_repeated_machine_death_and_fast_fails() {
        let plan = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::ALWAYS);
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            strict_policy(),
            42,
        );
        let monitor = Arc::new(HealthMonitor::new(BreakerPolicy::default()));
        t.set_health(monitor.clone());
        for _ in 0..3 {
            let err = t
                .preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
                .unwrap_err();
            assert_eq!(err, ComError::MachineDown(MachineId::SERVER));
        }
        assert_eq!(
            monitor.link_state(MachineId::CLIENT, MachineId::SERVER),
            BreakerState::Open
        );
        assert!(monitor.machine_open(MachineId::SERVER));
        assert_eq!(monitor.drain_opened_machines(), vec![MachineId::SERVER]);
        // The open breaker now rejects without touching the fault stats.
        let before = t.fault_stats();
        let clock_before = rt.clock().now_us();
        let err = t
            .preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
            .unwrap_err();
        assert_eq!(err, ComError::MachineDown(MachineId::SERVER));
        assert_eq!(t.fault_stats(), before);
        assert_eq!(
            rt.clock().now_us(),
            clock_before,
            "fast fails charge nothing"
        );
        assert_eq!(monitor.stats().fast_fails, 1);
    }

    #[test]
    fn breaker_probe_recovers_after_a_transient_partition() {
        // Partition [0, 25ms); each failed preflight burns 40ms+backoffs,
        // so the breaker trips during the partition and the first probe
        // after the window finds the link healthy again.
        let plan = FaultPlan::none().with_partition(
            MachineId::CLIENT,
            MachineId::SERVER,
            TimeWindow::new(0, 25_000),
        );
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            CallPolicy {
                timeout_us: 5_000,
                max_retries: 0,
                backoff_base_us: 0,
                backoff_multiplier: 1.0,
                backoff_jitter: 0.0,
            },
            42,
        );
        let monitor = Arc::new(HealthMonitor::new(BreakerPolicy {
            failure_threshold: 3,
            success_threshold: 1,
            probe_interval_us: 20_000,
        }));
        t.set_health(monitor.clone());
        // Three 5 ms timeouts (t = 5, 10, 15 ms) trip the breaker.
        for _ in 0..3 {
            t.preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
                .unwrap_err();
        }
        assert_eq!(
            monitor.link_state(MachineId::CLIENT, MachineId::SERVER),
            BreakerState::Open
        );
        // Probe due at 15ms + 20ms = 35ms; burn simulated time to get there.
        rt.clock().advance_us(25_000);
        t.preflight(&rt, MachineId::CLIENT, MachineId::SERVER)
            .unwrap();
        t.charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
            .unwrap();
        assert_eq!(
            monitor.link_state(MachineId::CLIENT, MachineId::SERVER),
            BreakerState::Closed,
            "the successful probe closed the breaker"
        );
        let stats = monitor.stats();
        assert_eq!((stats.opens, stats.probes, stats.closes), (1, 1, 1));
        assert!(!monitor.machine_open(MachineId::SERVER));
    }

    #[test]
    fn obs_hook_reports_fault_events() {
        let plan = FaultPlan::none().with_loss(1.0);
        let rt = ComRuntime::client_server();
        let t = Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            strict_policy(),
            42,
        );
        let tracer = Arc::new(Tracer::enabled());
        let recorder = Arc::new(FlightRecorder::new(32));
        t.set_obs(tracer.clone(), recorder.clone());
        let err = t
            .charge_sized_call_checked(&rt, MachineId::CLIENT, MachineId::SERVER, 500, 1500)
            .unwrap_err();
        assert!(matches!(err, ComError::Timeout { .. }));
        let summary =
            coign_obs::validate_chrome_trace(&tracer.export_chrome_json()).expect("valid trace");
        let stats = t.fault_stats();
        assert_eq!(summary.instant_count("fault_drop") as u64, stats.drops);
        assert_eq!(
            summary.instant_count("fault_timeout") as u64,
            stats.timeouts
        );
        assert_eq!(summary.instant_count("fault_retry") as u64, stats.retries);
        assert_eq!(
            summary.instant_count("fault_failed") as u64,
            stats.failed_calls
        );
        // Every tracer instant also landed in the flight recorder.
        assert_eq!(
            recorder.len() as u64,
            stats.drops + stats.timeouts + stats.retries + 1
        );
    }
}
