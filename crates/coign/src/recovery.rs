//! The self-healing runtime: online re-partitioning and instance migration.
//!
//! Coign's analysis normally runs once, offline: profile → min-cut →
//! distribution → execute. This module closes the loop *during* execution.
//! When the transport's circuit breakers declare a machine dead (consecutive
//! [`coign_com::ComError::MachineDown`] failures tripping the machine-level
//! breaker), or when the [`DriftMonitor`] reports that observed usage has
//! drifted from the profiled scenarios, the [`RecoveryCoordinator`]:
//!
//! 1. **Re-solves the cut online** ([`RecoverySolver`]). With both
//!    machines alive the answer is the analysis engine's cut of the same
//!    graph and constraints, solved once. A dead machine pins every
//!    classification to the survivor (pins that demanded the dead machine
//!    are redirected — the machine they asked for no longer exists), and a
//!    cut with every node on one side has one answer: everything on the
//!    survivor. So recovery never runs a max-flow after the base cut.
//! 2. **Swaps the live placement**: the component factory's routing table is
//!    replaced atomically, so instantiations after the recovery land on the
//!    new cut.
//! 3. **Migrates live instances** whose classification moved: each move
//!    deep-copies a nominal state snapshot through the DCOM marshaling value
//!    tree and charges the simulated clock for the transfer, then retargets
//!    the instance record. In-flight calls observe the move through an
//!    epoch counter and the exactly-once retry protocol in the distribution
//!    informer: a call that failed *before* executing is retried (possibly
//!    landing locally after the migration); a call whose reply delivery
//!    failed *after* executing completes with the reply it already holds —
//!    the side effect never runs twice.

use crate::analysis::{cut_graph, placement_of};
use crate::classifier::{ClassificationId, InstanceClassifier};
use crate::constraints::Constraint;
use crate::drift::DriftMonitor;
use crate::factory::ComponentFactory;
use crate::icc::IccGraph;
use crate::multiway::ReplicaRouter;
use coign_com::object::Instance;
use coign_com::{ComError, ComResult, ComRuntime, MachineId, Value};
use coign_dcom::{value_size, BreakerPolicy, HealthMonitor};
use coign_flow::MaxFlowAlgorithm;
use coign_obs::{Obs, TraceArg};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed cost of relocating one live instance, microseconds (the remote
/// re-instantiation round-trip, minus the state payload).
pub const MIGRATION_CALL_US: u64 = 25;

/// Cost per kilobyte of marshaled instance state moved, microseconds.
pub const MIGRATION_PER_KB_US: u64 = 2;

/// Size of the nominal per-instance state blob, bytes.
pub const MIGRATION_STATE_BLOB_BYTES: u64 = 4096;

/// The nominal state snapshot deep-copied when an instance migrates: a
/// small header plus a data blob, sized through the same value tree the
/// DCOM marshaler uses for call parameters.
fn migration_state_tree() -> Value {
    Value::Struct(vec![
        Value::I8(0),
        Value::Str(String::from("state")),
        Value::Blob(MIGRATION_STATE_BLOB_BYTES),
    ])
}

/// Tuning knobs for the self-healing runtime.
#[derive(Debug, Clone, Default)]
pub struct RecoveryConfig {
    /// Circuit-breaker policy installed on the transport's health monitor.
    pub breaker: BreakerPolicy,
    /// Usage-drift threshold that triggers a mid-run re-solve, or `None`
    /// to leave drift-triggered recovery off (machine-death recovery is
    /// always on).
    pub drift_threshold: Option<f64>,
    /// Replica routing table for the placement (home + legal copies per
    /// classification), or `None` for the classic one-authoritative-copy
    /// model. With replicas installed, a machine death whose every
    /// resident classification still has a surviving copy recovers by
    /// pure failover — no solve at all.
    pub replicas: Option<ReplicaRouter>,
}

/// What tripped a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryTrigger {
    /// The machine-level circuit breaker declared a machine dead.
    MachineDeath,
    /// The drift monitor's latched threshold fired mid-run.
    Drift,
}

impl RecoveryTrigger {
    /// Stable name used in traces and summaries.
    fn name(self) -> &'static str {
        match self {
            RecoveryTrigger::MachineDeath => "machine_death",
            RecoveryTrigger::Drift => "drift",
        }
    }
}

/// One completed recovery: trigger, scope, and effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Simulated time the recovery completed, microseconds.
    pub at_us: u64,
    /// What tripped it.
    pub trigger: RecoveryTrigger,
    /// The machine declared dead, if the trigger was a machine death (or a
    /// drift re-solve while a machine was already dead).
    pub dead_machine: Option<MachineId>,
    /// Live instances relocated to realize the new cut.
    pub migrations: u64,
    /// Live instances re-pointed to a surviving replica (no state moved —
    /// the copy was already there).
    pub failovers: u64,
    /// True when the recovery resolved by replica failover alone, without
    /// any solve (neither warm nor cold).
    pub via_replicas: bool,
    /// Placement epoch after this recovery (starts at 0, +1 per recovery).
    pub epoch: u64,
}

/// The online re-partitioning solver. On two machines it answers from a
/// table rather than by a solve:
///
/// - with no dead machine, the answer is [`cut_graph`]'s cut of the graph
///   under the constraint set, solved once when the solver is built;
/// - with a dead machine, every node is pinned to the survivor (pins that
///   demanded the dead machine are redirected), so the only cut puts every
///   classification on the survivor, with a max-flow of 0.
pub struct RecoverySolver {
    nodes: Vec<ClassificationId>,
    /// The base answer, or the error the base cut was rejected with.
    base: ComResult<Arc<Placement>>,
    /// The last answer and the dead machine it was given for.
    prev: Option<(Option<MachineId>, Arc<Placement>)>,
    warm_solves: u64,
    cold_solves: u64,
}

/// A routing table shared between the solver's memo, the coordinator's
/// installed mark and each recovery that installs it.
type Placement = HashMap<ClassificationId, MachineId>;

impl RecoverySolver {
    /// Cuts the concrete ICC graph under the application's constraint set
    /// with lift-to-front, on the analysis engine's contracted network.
    pub fn new(graph: &IccGraph, constraints: &[Constraint]) -> Self {
        let base = cut_graph(
            graph,
            constraints,
            MaxFlowAlgorithm::LiftToFront,
            format_args!("recovery re-solve"),
        )
        .map(|(_, source_side)| Arc::new(placement_of(graph, &source_side)));
        RecoverySolver {
            nodes: graph.nodes.clone(),
            base,
            prev: None,
            warm_solves: 0,
            cold_solves: 0,
        }
    }

    /// Answers for `dead`: with `None` the base cut (or the error it was
    /// rejected with); with a dead machine every classification on the
    /// survivor.
    pub fn solve(
        &mut self,
        dead: Option<MachineId>,
    ) -> ComResult<HashMap<ClassificationId, MachineId>> {
        self.solve_shared(dead).map(Arc::unwrap_or_clone)
    }

    /// [`RecoverySolver::solve`], answering with the shared table. An
    /// answer for the same `dead` as the previous one is that answer's
    /// table itself, so a caller can tell an unchanged answer by identity.
    pub(crate) fn solve_shared(&mut self, dead: Option<MachineId>) -> ComResult<Arc<Placement>> {
        if dead.is_none() && self.cold_solves == 0 {
            self.cold_solves = 1;
        } else {
            self.warm_solves += 1;
        }
        if let Some((_, placement)) = self.prev.as_ref().filter(|(at, _)| *at == dead) {
            return Ok(Arc::clone(placement));
        }
        let placement = match dead {
            None => self.base.clone()?,
            Some(machine) => Arc::new(
                self.nodes
                    .iter()
                    .map(|&class| (class, survivor_of(machine)))
                    .collect(),
            ),
        };
        self.prev = Some((dead, Arc::clone(&placement)));
        Ok(placement)
    }

    /// Warm solves: answers given without a max-flow run, that is every
    /// answer but the first one with no dead machine.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Cold solves: the base cut's max-flow run, counted when the first
    /// answer with no dead machine hands it out (recovery answers never add
    /// to this).
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }
}

/// The other machine of a two-machine death: where the dead machine's pins
/// are redirected and its classifications must land.
fn survivor_of(dead: MachineId) -> MachineId {
    if dead == MachineId::CLIENT {
        MachineId::SERVER
    } else {
        MachineId::CLIENT
    }
}

/// Checks a placement against the constraint set, the non-remotable pairs,
/// and (optionally) a dead machine. With a dead machine, absolute pins to
/// it are treated as redirected to the survivor, and nothing may remain
/// placed on it. Classifications absent from the placement are skipped.
fn validate_placement(
    placement: &HashMap<ClassificationId, MachineId>,
    constraints: &[Constraint],
    non_remotable: &[(ClassificationId, ClassificationId)],
    dead: Option<MachineId>,
) -> Result<(), String> {
    if let Some(machine) = dead {
        let mut entries: Vec<_> = placement.iter().collect();
        entries.sort();
        if let Some((class, _)) = entries.iter().find(|(_, &m)| m == machine) {
            return Err(format!(
                "classification {class} is placed on dead machine {machine}"
            ));
        }
    }
    let pin_target = |want: MachineId| {
        if dead == Some(want) {
            survivor_of(want)
        } else {
            want
        }
    };
    for constraint in constraints {
        match constraint {
            Constraint::PinClient(class) => {
                if let Some(&machine) = placement.get(class) {
                    let want = pin_target(MachineId::CLIENT);
                    if machine != want {
                        return Err(format!(
                            "classification {class} pinned to client but placed on {machine}"
                        ));
                    }
                }
            }
            Constraint::PinServer(class) => {
                if let Some(&machine) = placement.get(class) {
                    let want = pin_target(MachineId::SERVER);
                    if machine != want {
                        return Err(format!(
                            "classification {class} pinned to server but placed on {machine}"
                        ));
                    }
                }
            }
            Constraint::Colocate(a, b) => {
                if let (Some(&ma), Some(&mb)) = (placement.get(a), placement.get(b)) {
                    if ma != mb {
                        return Err(format!(
                            "colocated classifications {a} and {b} split across {ma} and {mb}"
                        ));
                    }
                }
            }
        }
    }
    for &(a, b) in non_remotable {
        if let (Some(&ma), Some(&mb)) = (placement.get(&a), placement.get(&b)) {
            if ma != mb {
                return Err(format!(
                    "non-remotable pair {a}/{b} split across {ma} and {mb}"
                ));
            }
        }
    }
    Ok(())
}

/// Orchestrates online recovery: consumes machine-death declarations from
/// the transport's [`HealthMonitor`], drift fires from the
/// [`DriftMonitor`], re-solves the cut, swaps the factory's placement, and
/// migrates live instances.
pub struct RecoveryCoordinator {
    solver: Mutex<RecoverySolver>,
    factory: Arc<ComponentFactory>,
    classifier: Arc<InstanceClassifier>,
    health: Arc<HealthMonitor>,
    drift: Option<(Arc<DriftMonitor>, f64)>,
    constraints: Vec<Constraint>,
    non_remotable: Vec<(ClassificationId, ClassificationId)>,
    epoch: AtomicU64,
    events: Mutex<Vec<RecoveryEvent>>,
    dead: Mutex<BTreeSet<MachineId>>,
    /// The solved placement the last solver recovery installed, with the
    /// dead machine it was solved for. Cleared whenever the dead set
    /// changes: the replica router and, on failover, the factory's table
    /// then change outside the solver path.
    installed: Mutex<Option<(Option<MachineId>, Arc<Placement>)>>,
    /// Where the next unchanged walk resumes in the runtime's instance
    /// table: every slot below it was filled, and its instance put on its
    /// target, by the unchanged walks since the last swap walk.
    walked: Mutex<usize>,
    replicas: Mutex<Option<ReplicaRouter>>,
    replica_failovers: AtomicU64,
    migrations: AtomicU64,
    migrated_state_bytes: AtomicU64,
    replayed_completions: AtomicU64,
    redelivered_calls: AtomicU64,
    double_executions: AtomicU64,
    obs: Option<Obs>,
}

impl RecoveryCoordinator {
    /// Creates the coordinator and takes the base answer (the one cold
    /// solve), so that every recovery re-solve is a warm one.
    pub(crate) fn new(
        graph: &IccGraph,
        constraints: &[Constraint],
        factory: Arc<ComponentFactory>,
        classifier: Arc<InstanceClassifier>,
        health: Arc<HealthMonitor>,
        drift: Option<(Arc<DriftMonitor>, f64)>,
        obs: Option<Obs>,
    ) -> ComResult<Arc<RecoveryCoordinator>> {
        let mut solver = RecoverySolver::new(graph, constraints);
        solver.solve(None)?;
        let mut non_remotable: Vec<_> = graph
            .non_remotable
            .iter()
            .map(|&(a, b)| (graph.nodes[a], graph.nodes[b]))
            .collect();
        non_remotable.sort_unstable();
        Ok(Arc::new(RecoveryCoordinator {
            solver: Mutex::new(solver),
            factory,
            classifier,
            health,
            drift,
            constraints: constraints.to_vec(),
            non_remotable,
            epoch: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            dead: Mutex::new(BTreeSet::new()),
            installed: Mutex::new(None),
            walked: Mutex::new(0),
            replicas: Mutex::new(None),
            replica_failovers: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            migrated_state_bytes: AtomicU64::new(0),
            replayed_completions: AtomicU64::new(0),
            redelivered_calls: AtomicU64::new(0),
            double_executions: AtomicU64::new(0),
            obs,
        }))
    }

    /// The transport's health monitor this coordinator drains.
    pub fn health(&self) -> &Arc<HealthMonitor> {
        &self.health
    }

    /// Current placement epoch: 0 until the first recovery, +1 per
    /// recovery. An in-flight call that observes an epoch bump knows its
    /// routing decision may be stale and re-reads the instance's machine.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Completed recoveries, in order.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        self.events.lock().clone()
    }

    /// Number of completed recoveries.
    pub fn recovery_count(&self) -> u64 {
        self.events.lock().len() as u64
    }

    /// Machines currently declared dead.
    pub fn dead_machines(&self) -> Vec<MachineId> {
        self.dead.lock().iter().copied().collect()
    }

    /// Installs a replica routing table (home + legal copies per
    /// classification), making machine-death recovery replica-aware: a
    /// death fully covered by surviving copies recovers by pure failover,
    /// and re-solves re-base the surviving replicas on the new placement.
    pub(crate) fn install_replicas(&self, router: ReplicaRouter) {
        *self.replicas.lock() = Some(router);
    }

    /// Snapshot of the current replica routing table, if one is installed.
    #[cfg(test)]
    fn replica_router(&self) -> Option<ReplicaRouter> {
        self.replicas.lock().clone()
    }

    /// Live instances re-pointed to surviving replicas across all
    /// recoveries (failover moves no state — the copy already existed).
    pub fn replica_failovers(&self) -> u64 {
        self.replica_failovers.load(Ordering::Relaxed)
    }

    /// Live instances migrated across all recoveries.
    pub fn migration_count(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Marshaled state bytes moved by migrations.
    pub fn migrated_state_bytes(&self) -> u64 {
        self.migrated_state_bytes.load(Ordering::Relaxed)
    }

    /// Calls completed from an already-executed remote attempt after a
    /// recovery (the reply was replayed, the side effect did not re-run).
    pub fn replayed_completions(&self) -> u64 {
        self.replayed_completions.load(Ordering::Relaxed)
    }

    /// Reply re-delivery attempts for already-executed calls that stayed
    /// remote after a recovery.
    pub fn redelivered_calls(&self) -> u64 {
        self.redelivered_calls.load(Ordering::Relaxed)
    }

    /// Defensive ledger: calls whose side effect ran more than once. The
    /// retry protocol makes this structurally impossible; the chaos
    /// harness asserts it stays zero.
    pub fn double_executions(&self) -> u64 {
        self.double_executions.load(Ordering::Relaxed)
    }

    /// Warm solves performed: every answer after the base one, a repeated
    /// pin set included.
    pub fn warm_solves(&self) -> u64 {
        self.solver.lock().warm_solves()
    }

    /// Cold solves performed (the base solve only).
    pub fn cold_solves(&self) -> u64 {
        self.solver.lock().cold_solves()
    }

    /// Upper bound on delivery attempts per logical call in the
    /// distribution informer's retry loop: enough preflight failures to
    /// trip the machine breaker, plus the post-recovery attempt.
    pub(crate) fn max_call_attempts(&self) -> u32 {
        self.health.policy().failure_threshold + 2
    }

    pub(crate) fn note_replayed_completion(&self) {
        self.replayed_completions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_redelivered(&self) {
        self.redelivered_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a double execution in the defensive ledger. The retry
    /// protocol has no path that double-executes a call, so only tests
    /// call this, to show the audit battery reports one.
    #[cfg(test)]
    fn note_double_execution(&self) {
        self.double_executions.fetch_add(1, Ordering::Relaxed);
    }

    fn current_dead(&self) -> Option<MachineId> {
        self.dead.lock().iter().next().copied()
    }

    /// Validates the factory's *current* placement against the constraint
    /// set and the dead-machine set.
    pub fn validate(&self) -> Result<(), String> {
        validate_placement(
            &self.factory.placement_snapshot(),
            &self.constraints,
            &self.non_remotable,
            self.current_dead(),
        )
    }

    /// The recovery invariants every fault harness (`coign chaos`, `coign
    /// explore`) holds a finished run to, as violation strings — empty on
    /// a healthy run. `outcome` is the scenario's: it may fail, but only
    /// with a *typed* transport error.
    pub fn audit(&self, outcome: &ComResult<()>) -> Vec<String> {
        let mut violations = Vec::new();
        match outcome {
            Ok(())
            | Err(ComError::Timeout { .. })
            | Err(ComError::Partitioned { .. })
            | Err(ComError::MachineDown(_)) => {}
            Err(other) => violations.push(format!("untyped failure: {other}")),
        }
        // No call ever executes twice, whatever the retry protocol did.
        if self.double_executions() != 0 {
            violations.push(format!(
                "{} double-executed call(s)",
                self.double_executions()
            ));
        }
        // The final placement satisfies every constraint with the dead
        // machines excluded.
        if let Err(detail) = self.validate() {
            violations.push(format!("placement: {detail}"));
        }
        // Recovery re-solves are warm, never a second cold solve — and a
        // recovery whose every event resolved by replica failover must not
        // have run any solve at all.
        let events = self.events();
        let via_replicas = events.iter().filter(|e| e.via_replicas).count();
        if !events.is_empty() {
            let solver_recoveries = events.len() - via_replicas;
            if solver_recoveries > 0 && self.warm_solves() == 0 {
                violations.push("recovery re-solve was not warm-started".to_string());
            }
            if solver_recoveries == 0 && self.warm_solves() != 0 {
                violations.push(format!(
                    "{} warm solve(s) despite replica-covered failover",
                    self.warm_solves()
                ));
            }
            if self.cold_solves() != 1 {
                violations.push(format!(
                    "{} cold solve(s), expected exactly the base solve",
                    self.cold_solves()
                ));
            }
        }
        // A no-solve failover re-points calls; it never moves state.
        for event in events.iter().filter(|e| e.via_replicas) {
            if event.migrations != 0 {
                violations.push(format!(
                    "replica failover migrated {} instance(s)",
                    event.migrations
                ));
            }
            if event.failovers == 0 {
                violations.push("via_replicas recovery re-pointed nothing".to_string());
            }
        }
        violations
    }

    /// Drains machine-death declarations queued on the health monitor and
    /// runs one recovery per newly-dead machine. Both entry points —
    /// [`RecoveryCoordinator::on_call_failure`] and
    /// [`RecoveryCoordinator::poll_drift`] — funnel through here so that
    /// breaker declarations recover through exactly one code path no
    /// matter which event observes them first.
    fn drain_machine_deaths(&self, rt: &ComRuntime) -> bool {
        let mut recovered = false;
        for machine in self.health.drain_opened_machines() {
            if self.dead.lock().insert(machine) {
                *self.installed.lock() = None;
                recovered |= self.recover(rt, RecoveryTrigger::MachineDeath, Some(machine));
            }
        }
        recovered
    }

    /// Reacts to a failed remote call. Returns `true` when the caller
    /// should retry: either a recovery just completed (the callee may have
    /// migrated next to the caller), or the failure is a machine-down
    /// error still feeding the breaker toward a trip.
    pub(crate) fn on_call_failure(&self, rt: &ComRuntime, error: &ComError) -> bool {
        if self.drain_machine_deaths(rt) {
            return true;
        }
        matches!(error, ComError::MachineDown(_)) && self.dead.lock().is_empty()
    }

    /// Polls the drift monitor after a successful call; a latched fire
    /// triggers a re-solve and resets the observation window for the
    /// new placement. Returns `true` when a recovery ran.
    ///
    /// Pinned ordering: when a drift fire and a pending breaker
    /// declaration land on the same tick, the machine death recovers
    /// *first*, so the drift re-solve sees the dead machine and never
    /// re-places work onto it. (Without the drain, `recover` would run
    /// with `dead: None` while the health monitor already knew the
    /// machine was gone.)
    pub(crate) fn poll_drift(&self, rt: &ComRuntime) -> bool {
        let Some((monitor, threshold)) = &self.drift else {
            return false;
        };
        if !monitor.poll_reprofile(*threshold) {
            return false;
        }
        let mut recovered = self.drain_machine_deaths(rt);
        recovered |= self.recover(rt, RecoveryTrigger::Drift, None);
        monitor.reset();
        recovered
    }

    /// One full recovery. A machine death whose every resident
    /// classification still has a surviving replica resolves by pure
    /// failover — no solve at all, the cheap-local-reaction path. Every
    /// other case takes the classic path: re-solve, placement
    /// validation, factory swap, instance migration. Both paths bump the
    /// epoch and emit an event; a re-solve re-bases surviving replicas on
    /// the new placement so later deaths keep failing over.
    ///
    /// A re-solve that returns the installed placement for the same dead
    /// machine changes nothing the validation, swap and rebase depend on,
    /// so it skips them; only the instance walk runs, because instances
    /// the factory placed by fallback can still sit off the placement.
    fn recover(&self, rt: &ComRuntime, trigger: RecoveryTrigger, dead: Option<MachineId>) -> bool {
        let dead = dead.or_else(|| self.current_dead());
        if trigger == RecoveryTrigger::MachineDeath {
            if let Some(machine) = dead {
                let mut replicas = self.replicas.lock();
                if let Some(router) = replicas.as_mut() {
                    let failover = router.drop_machine(machine);
                    if failover.is_complete() {
                        drop(replicas);
                        return self.fail_over(rt, machine, &failover);
                    }
                    // Some classification lost its last copy: fall through
                    // to the re-solve. The router already dropped the dead
                    // machine's copies and is re-based below.
                }
            }
        }
        let placement = match self.solver.lock().solve_shared(dead) {
            Ok(placement) => placement,
            Err(_) => return false,
        };
        let unchanged = self
            .installed
            .lock()
            .as_ref()
            .is_some_and(|(at, installed)| *at == dead && Arc::ptr_eq(installed, &placement));
        let validate =
            || validate_placement(&placement, &self.constraints, &self.non_remotable, dead);
        if unchanged {
            // Validation is a pure function of (placement, constraints,
            // dead), and this pair already passed it.
            debug_assert_eq!(validate(), Ok(()));
        } else if validate().is_err() {
            return false;
        }
        let migrations = self.install_placement(rt, dead, &placement, !unchanged, || {
            // Relocation is modeled as the paper would do it over DCOM:
            // marshal the instance's state, ship it, unmarshal on the
            // target — so the move costs simulated time proportional to
            // the state's wire size.
            let bytes =
                value_size(&migration_state_tree()).expect("migration state tree is remotable");
            rt.clock()
                .advance_us(MIGRATION_CALL_US + (bytes / 1024) * MIGRATION_PER_KB_US);
            self.migrated_state_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        });
        self.migrations.fetch_add(migrations, Ordering::Relaxed);
        if !unchanged {
            if let Some(router) = self.replicas.lock().as_mut() {
                let dead_set = self.dead.lock().clone();
                router.rebase(&placement, &dead_set);
            }
            *self.installed.lock() = Some((dead, placement));
        }
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let event = RecoveryEvent {
            at_us: rt.clock().now_us(),
            trigger,
            dead_machine: dead,
            migrations,
            failovers: 0,
            via_replicas: false,
            epoch,
        };
        self.events.lock().push(event);
        if let Some(obs) = &self.obs {
            let mut args = vec![
                ("trigger", TraceArg::Static(trigger.name())),
                ("migrations", TraceArg::U64(migrations)),
                ("epoch", TraceArg::U64(epoch)),
            ];
            if let Some(machine) = dead {
                args.push(("dead_machine", TraceArg::U64(u64::from(machine.0))));
            }
            obs.tracer.instant_at("recovery", event.at_us, args);
            obs.recorder.record(
                event.at_us,
                "recovery",
                format!(
                    "trigger={} dead={} migrations={migrations} epoch={epoch}",
                    trigger.name(),
                    dead.map_or_else(|| "-".to_string(), |m| m.to_string()),
                ),
            );
            obs.recorder.dump("Recovery");
        }
        true
    }

    /// The no-solve recovery path: every classification homed on the dead
    /// machine has a surviving replica, so the placement and the live
    /// instances re-point to those copies. No flow network is touched and
    /// no state moves — the copies already hold it — which is why the
    /// failover is O(1) in the graph size.
    fn fail_over(
        &self,
        rt: &ComRuntime,
        machine: MachineId,
        failover: &crate::multiway::ReplicaFailover,
    ) -> bool {
        let mut placement = self.factory.placement_snapshot();
        for (class, new_home) in &failover.rehomed {
            placement.insert(*class, *new_home);
        }
        if validate_placement(
            &placement,
            &self.constraints,
            &self.non_remotable,
            Some(machine),
        )
        .is_err()
        {
            return false;
        }
        // The surviving replica already holds the state on the target
        // machine: the instance record re-points without marshaling, wire
        // time, or clock charge.
        let failovers = self.install_placement(rt, Some(machine), &placement, true, || {});
        self.replica_failovers
            .fetch_add(failovers, Ordering::Relaxed);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let event = RecoveryEvent {
            at_us: rt.clock().now_us(),
            trigger: RecoveryTrigger::MachineDeath,
            dead_machine: Some(machine),
            migrations: 0,
            failovers,
            via_replicas: true,
            epoch,
        };
        self.events.lock().push(event);
        if let Some(obs) = &self.obs {
            obs.tracer.instant_at(
                "failover",
                event.at_us,
                vec![
                    ("dead_machine", TraceArg::U64(u64::from(machine.0))),
                    ("failovers", TraceArg::U64(failovers)),
                    ("epoch", TraceArg::U64(epoch)),
                ],
            );
            obs.recorder.record(
                event.at_us,
                "failover",
                format!("dead={machine} failovers={failovers} epoch={epoch}"),
            );
            obs.recorder.dump("Recovery");
        }
        true
    }

    /// Installs a recovery's placement: with `swap`, pins that demanded
    /// the dead machine move to its survivor and the factory places new
    /// instances by `placement` (without it, both already hold). Then every
    /// live instance off its target re-points there, `on_move` running
    /// just before each. Returns how many moved.
    ///
    /// Without `swap` the placement, the pins and every instance's
    /// classification are exactly what the previous walk used, and only
    /// this function moves instances, so that walk's instances are still
    /// on target: the walk resumes at the first slot that was empty when
    /// the previous one ran, and a recovery that changes nothing costs
    /// O(instances created since). Resuming past the highest id seen
    /// instead would miss an id whose component was still being
    /// constructed — its factory's own instantiations take later ids but
    /// enter the table first. A swap walk visits every instance and
    /// resets the mark.
    fn install_placement(
        &self,
        rt: &ComRuntime,
        dead: Option<MachineId>,
        placement: &Placement,
        swap: bool,
        mut on_move: impl FnMut(),
    ) -> u64 {
        if swap {
            if let Some(machine) = dead {
                self.factory.retarget_pins(machine, survivor_of(machine));
            }
            self.factory.swap_placement(placement.clone());
        }
        let target_of = |instance: &Instance| {
            let class = self
                .classifier
                .classification_of(instance.id)
                .unwrap_or(ClassificationId::ROOT);
            placement
                .get(&class)
                .copied()
                .unwrap_or_else(|| self.factory.place(class, instance.clsid))
        };
        let from = if swap { 0 } else { *self.walked.lock() };
        debug_assert!(
            rt.instances_snapshot()
                .iter()
                .take(from)
                .all(|instance| instance.machine() == target_of(instance)),
            "an instance an earlier walk put on target has moved off it"
        );
        let (instances, next_empty) = rt.instances_from(from);
        let mut moved = 0;
        for instance in instances {
            let target = target_of(&instance);
            if instance.machine() != target {
                on_move();
                instance.set_machine(target);
                moved += 1;
            }
        }
        *self.walked.lock() = if swap { 0 } else { next_empty };
        moved
    }

    /// Adds the coordinator's counters to a metrics registry.
    pub(crate) fn record_metrics(&self, registry: &coign_obs::Registry) {
        registry
            .counter("coign_recovery_events_total")
            .add(self.recovery_count());
        registry
            .counter("coign_recovery_warm_solves_total")
            .add(self.warm_solves());
        registry
            .counter("coign_recovery_cold_solves_total")
            .add(self.cold_solves());
        registry
            .counter("coign_recovery_migrations_total")
            .add(self.migration_count());
        registry
            .counter("coign_recovery_replica_failovers_total")
            .add(self.replica_failovers());
        registry
            .counter("coign_recovery_migrated_state_bytes")
            .add(self.migrated_state_bytes());
        registry
            .counter("coign_recovery_replayed_completions_total")
            .add(self.replayed_completions());
        registry
            .counter("coign_recovery_redelivered_calls_total")
            .add(self.redelivered_calls());
        registry
            .counter("coign_recovery_double_executions_total")
            .add(self.double_executions());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::IccProfile;
    use coign_com::{Clsid, Iid};
    use coign_dcom::{NetworkModel, NetworkProfile};

    fn c(n: u32) -> ClassificationId {
        ClassificationId(n)
    }

    /// Root ↔ viewer: light. viewer ↔ reader: light. reader ↔ storage:
    /// heavy. Storage pinned to the server.
    fn document_graph() -> (IccGraph, Vec<Constraint>) {
        let iid = Iid::from_name("IX");
        let mut p = IccProfile::new();
        for (id, name) in [(1, "Viewer"), (2, "Reader"), (3, "Storage")] {
            p.record_instance(c(id), Clsid::from_name(name));
        }
        for _ in 0..50 {
            p.record_message(ClassificationId::ROOT, c(1), iid, 0, 100);
        }
        p.record_message(c(1), c(2), iid, 0, 2_000);
        for _ in 0..200 {
            p.record_message(c(2), c(3), iid, 0, 60_000);
        }
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let constraints = vec![
            Constraint::PinClient(ClassificationId::ROOT),
            Constraint::PinServer(c(3)),
        ];
        (IccGraph::build(&p, &network), constraints)
    }

    #[test]
    fn base_solve_matches_the_analysis_engine() {
        let (graph, constraints) = document_graph();
        let mut solver = RecoverySolver::new(&graph, &constraints);
        let placement = solver.solve(None).unwrap();
        assert_eq!(placement[&c(3)], MachineId::SERVER);
        assert_eq!(placement[&c(2)], MachineId::SERVER);
        assert_eq!(placement[&c(1)], MachineId::CLIENT);
        assert_eq!(placement[&ClassificationId::ROOT], MachineId::CLIENT);
        assert_eq!(solver.cold_solves(), 1);
        assert_eq!(solver.warm_solves(), 0);
    }

    #[test]
    fn dead_server_solve_is_warm_and_pins_everything_to_the_client() {
        let (graph, constraints) = document_graph();
        let mut solver = RecoverySolver::new(&graph, &constraints);
        solver.solve(None).unwrap();
        let placement = solver.solve(Some(MachineId::SERVER)).unwrap();
        for (&class, &machine) in &placement {
            assert_eq!(machine, MachineId::CLIENT, "{class} left on dead server");
        }
        assert_eq!(solver.cold_solves(), 1, "recovery re-solve must be warm");
        assert_eq!(solver.warm_solves(), 1);
        validate_placement(&placement, &constraints, &[], Some(MachineId::SERVER)).unwrap();
    }

    #[test]
    fn repeated_solves_alternate_without_going_cold() {
        let (graph, constraints) = document_graph();
        let mut solver = RecoverySolver::new(&graph, &constraints);
        let base = solver.solve(None).unwrap();
        solver.solve(Some(MachineId::SERVER)).unwrap();
        let back = solver.solve(None).unwrap();
        assert_eq!(base, back, "re-solving the base constraints must converge");
        assert_eq!(solver.cold_solves(), 1);
        assert_eq!(solver.warm_solves(), 2);
    }

    #[test]
    fn validate_placement_catches_violations() {
        let (_, constraints) = document_graph();
        let mut placement = HashMap::new();
        placement.insert(ClassificationId::ROOT, MachineId::CLIENT);
        placement.insert(c(3), MachineId::CLIENT); // violates PinServer
        assert!(validate_placement(&placement, &constraints, &[], None).is_err());
        placement.insert(c(3), MachineId::SERVER);
        validate_placement(&placement, &constraints, &[], None).unwrap();
        // Dead server: the redirected pin makes client placement legal...
        placement.insert(c(3), MachineId::CLIENT);
        validate_placement(&placement, &constraints, &[], Some(MachineId::SERVER)).unwrap();
        // ...but anything still on the dead machine is not.
        placement.insert(c(3), MachineId::SERVER);
        assert!(
            validate_placement(&placement, &constraints, &[], Some(MachineId::SERVER)).is_err()
        );
        // Split non-remotable pairs are caught.
        placement.insert(c(3), MachineId::SERVER);
        assert!(validate_placement(
            &placement,
            &constraints,
            &[(ClassificationId::ROOT, c(3))],
            None
        )
        .is_err());
    }

    #[test]
    fn migration_state_tree_is_remotable_and_sized() {
        let bytes = value_size(&migration_state_tree()).unwrap();
        assert!(bytes > MIGRATION_STATE_BLOB_BYTES);
    }

    /// Shared scaffolding for the replica-aware recovery tests: the
    /// document graph's base placement (root, viewer on the client;
    /// reader, storage on the server) with a coordinator whose breaker
    /// trips on the first MachineDown outcome.
    fn replica_fixture(
        replicas: &[crate::multiway::Replica],
    ) -> (ComRuntime, Arc<HealthMonitor>, Arc<RecoveryCoordinator>) {
        use crate::classifier::ClassifierKind;
        let (graph, constraints) = document_graph();
        let rt = ComRuntime::client_server();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let mut base = HashMap::new();
        base.insert(ClassificationId::ROOT, MachineId::CLIENT);
        base.insert(c(1), MachineId::CLIENT);
        base.insert(c(2), MachineId::SERVER);
        base.insert(c(3), MachineId::SERVER);
        let factory = Arc::new(ComponentFactory::new(
            base.clone(),
            HashMap::new(),
            MachineId::CLIENT,
        ));
        let health = Arc::new(HealthMonitor::new(BreakerPolicy {
            failure_threshold: 1,
            ..BreakerPolicy::default()
        }));
        let coordinator = RecoveryCoordinator::new(
            &graph,
            &constraints,
            factory,
            classifier,
            health.clone(),
            None,
            None,
        )
        .unwrap();
        let distribution = crate::analysis::Distribution {
            placement: base,
            predicted_comm_us: 0.0,
            network_name: "test".to_string(),
        };
        coordinator.install_replicas(ReplicaRouter::new(&distribution, replicas));
        (rt, health, coordinator)
    }

    #[test]
    fn full_replica_cover_recovers_by_failover_without_any_solve() {
        use crate::multiway::Replica;
        // Every server-homed classification has a client replica: the
        // death must resolve by pure failover, with zero solves beyond
        // the base cold one.
        let replicas = [
            Replica {
                class: c(2),
                machine: MachineId::CLIENT,
                gain_us: 1.0,
            },
            Replica {
                class: c(3),
                machine: MachineId::CLIENT,
                gain_us: 1.0,
            },
        ];
        let (rt, health, coordinator) = replica_fixture(&replicas);
        let down = ComError::MachineDown(MachineId::SERVER);
        let _ = health.on_failure(MachineId::CLIENT, MachineId::SERVER, &down, 0);
        assert!(coordinator.on_call_failure(&rt, &down));
        let events = coordinator.events();
        assert_eq!(events.len(), 1, "events: {events:?}");
        assert!(events[0].via_replicas, "recovery must be the no-solve path");
        assert_eq!(events[0].migrations, 0, "failover moves no state");
        assert_eq!(events[0].dead_machine, Some(MachineId::SERVER));
        assert_eq!(coordinator.warm_solves(), 0, "no warm solve either");
        assert_eq!(coordinator.cold_solves(), 1, "only the base solve");
        coordinator.validate().unwrap();
        let router = coordinator.replica_router().unwrap();
        assert_eq!(router.home_of(c(2)), Some(MachineId::CLIENT));
        assert_eq!(router.home_of(c(3)), Some(MachineId::CLIENT));
        // The harness battery, in its fixed order. This fixture holds no
        // live instance, so the failover had nothing to re-point — the one
        // finding on an otherwise healthy coordinator, typed failure or not.
        let idle = "via_replicas recovery re-pointed nothing".to_string();
        assert_eq!(coordinator.audit(&Ok(())), vec![idle.clone()]);
        assert_eq!(coordinator.audit(&Err(down)), vec![idle.clone()]);
        coordinator.note_double_execution();
        let untyped = ComError::App("boom".to_string());
        assert_eq!(
            coordinator.audit(&Err(untyped.clone())),
            vec![
                format!("untyped failure: {untyped}"),
                "1 double-executed call(s)".to_string(),
                idle,
            ]
        );
    }

    #[test]
    fn orphaned_classification_falls_back_to_the_warm_resolve() {
        use crate::multiway::Replica;
        // Only the reader has a replica; the storage loses its last copy
        // with the server, so the coordinator must warm re-solve — and
        // then re-base the router on the solved placement.
        let replicas = [Replica {
            class: c(2),
            machine: MachineId::CLIENT,
            gain_us: 1.0,
        }];
        let (rt, health, coordinator) = replica_fixture(&replicas);
        let down = ComError::MachineDown(MachineId::SERVER);
        let _ = health.on_failure(MachineId::CLIENT, MachineId::SERVER, &down, 0);
        assert!(coordinator.on_call_failure(&rt, &down));
        let events = coordinator.events();
        assert_eq!(events.len(), 1, "events: {events:?}");
        assert!(!events[0].via_replicas, "an orphan forces the solve path");
        assert_eq!(coordinator.warm_solves(), 1, "the re-solve is a warm solve");
        assert_eq!(coordinator.cold_solves(), 1);
        coordinator.validate().unwrap();
        // The router re-based: every home is on the survivor, and no copy
        // references the dead machine.
        let router = coordinator.replica_router().unwrap();
        for class in [ClassificationId::ROOT, c(1), c(2), c(3)] {
            assert_eq!(router.home_of(class), Some(MachineId::CLIENT));
            assert!(!router.copies_of(class).contains(&MachineId::SERVER));
        }
    }

    /// A drift re-solve that lands on the installed placement skips the
    /// validation, swap and rebase, but not the instance walk: an instance
    /// sitting off the placement (here a root-classified one on the
    /// server) still migrates.
    #[test]
    fn unchanged_drift_recovery_still_migrates_instances_off_the_placement() {
        use crate::classifier::ClassifierKind;
        use coign_com::idl::InterfaceBuilder;
        use coign_com::registry::ApiImports;
        use coign_com::{CallCtx, ComObject, Message};

        struct Inert;
        impl ComObject for Inert {
            fn invoke(&self, _: &CallCtx<'_>, _: Iid, _: u32, _: &mut Message) -> ComResult<()> {
                Ok(())
            }
        }

        let (graph, constraints) = document_graph();
        let rt = ComRuntime::client_server();
        let iface = InterfaceBuilder::new("IInert").build();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Inert", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(Inert)
            });
        let mut base = HashMap::new();
        base.insert(ClassificationId::ROOT, MachineId::CLIENT);
        base.insert(c(1), MachineId::CLIENT);
        base.insert(c(2), MachineId::SERVER);
        base.insert(c(3), MachineId::SERVER);
        let factory = Arc::new(ComponentFactory::new(
            base,
            HashMap::new(),
            MachineId::CLIENT,
        ));
        // Empty baseline: every non-empty window reads as full drift.
        let monitor = Arc::new(DriftMonitor::from_profile(&IccProfile::new()));
        let coordinator = RecoveryCoordinator::new(
            &graph,
            &constraints,
            factory,
            Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb)),
            Arc::new(HealthMonitor::new(BreakerPolicy::default())),
            Some((monitor.clone(), 0.5)),
            None,
        )
        .unwrap();
        monitor.record_call(c(1), c(2));
        assert!(coordinator.poll_drift(&rt));
        assert_eq!(coordinator.migration_count(), 0);
        // An unclassified instance (classification ROOT, placed on the
        // client) sits on the server, then drift fires again.
        let stray = rt
            .create_direct(clsid, iid, Some(MachineId::SERVER))
            .unwrap();
        monitor.record_call(c(1), c(2));
        assert!(coordinator.poll_drift(&rt));
        let instance = rt.instance(stray.owner()).unwrap();
        assert_eq!(instance.machine(), MachineId::CLIENT, "stray never moved");
        let events = coordinator.events();
        assert_eq!(events.len(), 2, "events: {events:?}");
        assert_eq!(events[1].migrations, 1);
        assert_eq!(coordinator.migration_count(), 1);
        // Both drift solves repeat the base solve's pin set: warm, and
        // answered without a second cold solve.
        assert_eq!(coordinator.warm_solves(), 2);
        assert_eq!(coordinator.cold_solves(), 1);
        coordinator.validate().unwrap();
    }

    /// Regression: a drift fire and a breaker machine-death declaration
    /// landing on the same tick. The coordinator must drain the death
    /// *before* the drift re-solve, or the drift solve runs with
    /// `dead: None` and re-places work onto a machine the transport
    /// already knows is gone.
    #[test]
    fn same_tick_drift_fire_and_breaker_declaration_recover_the_death_first() {
        use crate::classifier::ClassifierKind;

        let (graph, constraints) = document_graph();
        let rt = ComRuntime::client_server();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let mut base = HashMap::new();
        base.insert(ClassificationId::ROOT, MachineId::CLIENT);
        base.insert(c(1), MachineId::CLIENT);
        base.insert(c(2), MachineId::SERVER);
        base.insert(c(3), MachineId::SERVER);
        let factory = Arc::new(ComponentFactory::new(
            base,
            HashMap::new(),
            MachineId::CLIENT,
        ));
        let health = Arc::new(HealthMonitor::new(BreakerPolicy {
            failure_threshold: 1,
            ..BreakerPolicy::default()
        }));
        // Empty baseline: any observed traffic reads as full drift, so the
        // latch is primed to fire on the next poll.
        let monitor = Arc::new(DriftMonitor::from_profile(&IccProfile::new()));
        monitor.record_call(c(1), c(2));
        let coordinator = RecoveryCoordinator::new(
            &graph,
            &constraints,
            factory.clone(),
            classifier,
            health.clone(),
            Some((monitor.clone(), 0.5)),
            None,
        )
        .unwrap();
        // The transport declares the server dead on the same tick the
        // drift latch fires — queued on the health monitor, undrained.
        let _ = health.on_failure(
            MachineId::CLIENT,
            MachineId::SERVER,
            &ComError::MachineDown(MachineId::SERVER),
            0,
        );
        assert!(coordinator.poll_drift(&rt));
        // Pinned order: machine death first, then the drift re-solve —
        // which must already see the declared death.
        let events = coordinator.events();
        assert_eq!(events.len(), 2, "events: {events:?}");
        assert_eq!(events[0].trigger, RecoveryTrigger::MachineDeath);
        assert_eq!(events[0].dead_machine, Some(MachineId::SERVER));
        assert_eq!(events[1].trigger, RecoveryTrigger::Drift);
        assert_eq!(
            events[1].dead_machine,
            Some(MachineId::SERVER),
            "the drift re-solve ran blind to the machine death"
        );
        // Nothing may remain placed on the dead machine, and the live
        // placement must validate against the dead-machine set.
        for (class, machine) in factory.placement_snapshot() {
            assert_ne!(machine, MachineId::SERVER, "{class} left on dead server");
        }
        coordinator.validate().unwrap();
        assert_eq!(coordinator.dead_machines(), vec![MachineId::SERVER]);
        assert_eq!(coordinator.cold_solves(), 1);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::analysis::{build_flow_network, check_cut_in_range, traffic_capacity};
    use crate::sweep::properties::{case, CASES};
    use coign_dcom::{NetworkModel, NetworkProfile};
    use coign_flow::min_cut;

    /// The formulation the solver's answers replace: Dinic's cut of the
    /// full, uncontracted network of `graph` under `constraints`, as a
    /// placement, or the error that cut is rejected with.
    fn dinic_answer(graph: &IccGraph, constraints: &[Constraint]) -> Result<Placement, String> {
        let (mut flow, s, t) = build_flow_network(graph, constraints);
        let cut = min_cut(&mut flow, s, t, MaxFlowAlgorithm::Dinic);
        check_cut_in_range(
            cut.cut_value,
            || traffic_capacity(graph.weights_us.values()),
            format_args!("recovery re-solve"),
        )
        .map_err(|e| e.to_string())?;
        Ok(placement_of(graph, &cut.source_side))
    }

    /// The constraint set of a re-solve with `dead` gone: the colocations
    /// kept, every pin redirected, and every node pinned to the survivor.
    fn pinned_to_survivor(
        graph: &IccGraph,
        constraints: &[Constraint],
        dead: MachineId,
    ) -> Vec<Constraint> {
        let pin = if survivor_of(dead) == MachineId::CLIENT {
            Constraint::PinClient
        } else {
            Constraint::PinServer
        };
        let colocations = constraints
            .iter()
            .filter(|c| matches!(c, Constraint::Colocate(..)))
            .cloned();
        colocations
            .chain(graph.nodes.iter().map(|&class| pin(class)))
            .collect()
    }

    /// Checks every answer of one solver over `graph` against
    /// [`dinic_answer`] and returns the base answer.
    fn check_against_dinic(
        graph: &IccGraph,
        constraints: &[Constraint],
        what: &str,
    ) -> Result<Placement, String> {
        let mut solver = RecoverySolver::new(graph, constraints);
        let base = solver.solve(None).map_err(|e| e.to_string());
        assert_eq!(base, dinic_answer(graph, constraints), "{what}");
        for dead in [MachineId::CLIENT, MachineId::SERVER] {
            let answer = solver.solve(Some(dead)).map_err(|e| e.to_string());
            let expected = dinic_answer(graph, &pinned_to_survivor(graph, constraints, dead));
            assert_eq!(answer, expected, "{what}: {dead} dead");
        }
        base
    }

    #[test]
    fn answers_equal_dinic_cuts_of_the_full_network() {
        let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
        let (mut contradictions, mut split) = (0, 0);
        for seed in 0..CASES {
            let (profile, constraints) = case(seed);
            let graph = IccGraph::build(&profile, &network);
            match check_against_dinic(&graph, &constraints, &format!("case {seed}")) {
                Err(e) => {
                    assert!(e.contains("contradictory"), "case {seed}: {e}");
                    contradictions += 1;
                }
                Ok(base) => {
                    let on = |m| base.values().any(|&at| at == m);
                    split += u64::from(on(MachineId::CLIENT) && on(MachineId::SERVER));
                }
            }
        }
        // The generator reaches both outcomes often enough to mean something.
        assert!(
            contradictions > CASES / 20,
            "{contradictions} contradictions"
        );
        assert!(split > CASES / 4, "{split} base cuts split the graph");
    }
}
