//! Interface informers (§3.2 of the paper).
//!
//! The interface informer manages static interface metadata and walks the
//! parameters of interface calls. Two informers exist:
//!
//! * The **profiling informer** analyzes all function-call parameters and
//!   precisely measures inter-component communication using the MIDL-style
//!   metadata and DCOM deep-copy marshaling. It is expensive: the paper
//!   reports up to 85 % execution-time overhead (typically ~45 %), most of
//!   it attributable to the informer. We model that cost by charging a
//!   fixed per-call overhead plus a per-byte walking cost to the simulated
//!   clock (kept separate from application compute so predictions stay
//!   clean).
//! * The **distribution informer** stays in the application after profiling.
//!   It only examines parameters enough to identify interface pointers, and
//!   relocates calls that cross machines through the DCOM transport. Its
//!   overhead is under 3 %.
//!
//! Both are implemented as [`Invoker`] wrappers installed by the RTE's
//! interface wrapping.

use crate::classifier::{ClassificationId, InstanceClassifier};
use crate::drift::DriftMonitor;
use crate::logger::{CallRecord, InfoLogger};
use crate::profile::icc_size_bounds;
use crate::recovery::RecoveryCoordinator;
use coign_com::interface::CallInfo;
use coign_com::{ComError, ComResult, ComRuntime, InterfacePtr, Invoker, Message, StateEffect};
use coign_dcom::marshal::{message_reply_size, message_request_size, SizeCache};
use coign_dcom::Transport;
use coign_obs::{Histogram, Obs, TraceArg};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name of the registry histogram recording ICC message sizes (the
/// paper's exponential size buckets).
pub const ICC_SIZE_HISTOGRAM: &str = "coign_icc_message_bytes";

/// Fetches the ICC-size histogram handle from an optional obs bundle.
fn icc_histogram(obs: Option<&Obs>) -> Option<Histogram> {
    obs.map(|obs| {
        obs.registry
            .histogram(ICC_SIZE_HISTOGRAM, &icc_size_bounds())
    })
}

/// Fixed profiling-informer cost per intercepted call, microseconds.
pub const PROFILING_CALL_OVERHEAD_US: u64 = 12;

/// Profiling-informer cost per kilobyte of parameters walked, microseconds.
pub const PROFILING_PER_KB_OVERHEAD_US: u64 = 2;

/// Distribution-informer cost per intercepted call, microseconds.
pub const DISTRIBUTION_CALL_OVERHEAD_US: u64 = 1;

/// Shared instrumentation-overhead accounting, kept separate from
/// application compute time so the prediction model is not polluted by
/// profiling cost.
#[derive(Debug, Default)]
pub struct OverheadMeter {
    us: AtomicU64,
}

impl OverheadMeter {
    /// Creates a zeroed meter.
    pub(crate) fn new() -> Self {
        OverheadMeter::default()
    }

    /// Total instrumentation overhead charged, microseconds.
    pub(crate) fn total_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }

    fn charge(&self, rt: &ComRuntime, us: u64) {
        self.us.fetch_add(us, Ordering::Relaxed);
        // Advances wall-clock time without counting as application compute.
        rt.clock().advance_us(us);
    }
}

fn classify_caller(
    rt: &ComRuntime,
    classifier: &InstanceClassifier,
) -> (Option<coign_com::InstanceId>, ClassificationId) {
    match rt.call_stack().last() {
        Some(frame) => (
            Some(frame.instance),
            classifier
                .classification_of(frame.instance)
                .unwrap_or(ClassificationId::ROOT),
        ),
        None => (None, ClassificationId::ROOT),
    }
}

/// One runtime refutation of a declared state effect: a method declared
/// `Pure`/`ReadsState` whose instance fingerprint changed across the call.
/// The static stage-4 verdicts rest on these annotations, so every
/// violation is surfaced as diagnostic COIGN045.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EffectViolation {
    /// Component class whose instance mutated.
    pub class: String,
    /// Interface declaring the lying method.
    pub interface: String,
    /// The lying method.
    pub method: String,
    /// What the annotation claimed.
    pub declared: StateEffect,
}

/// Dynamic cross-check sink for state-effect annotations (COIGN045).
///
/// The profiling informer fingerprints the callee instance before and after
/// every call whose method is declared read-only
/// ([`StateEffect::is_read_only`]); a changed fingerprint records a
/// deduplicated [`EffectViolation`] here. Components without a
/// [`coign_com::ComObject::state_fingerprint`] opt out silently.
#[derive(Debug, Default)]
pub struct EffectCrossCheck {
    violations: Mutex<BTreeSet<EffectViolation>>,
}

impl EffectCrossCheck {
    /// Creates an empty sink.
    pub(crate) fn new() -> Self {
        EffectCrossCheck::default()
    }

    /// Records one observed violation (idempotent per class/method pair).
    fn record(&self, violation: EffectViolation) {
        self.violations.lock().insert(violation);
    }

    /// All violations observed so far, in deterministic order.
    pub(crate) fn violations(&self) -> Vec<EffectViolation> {
        self.violations.lock().iter().cloned().collect()
    }
}

/// The profiling informer: measures every call's deep-copy size and logs it.
pub struct ProfilingInvoker {
    inner: InterfacePtr,
    classifier: Arc<InstanceClassifier>,
    logger: Arc<dyn InfoLogger>,
    overhead: Arc<OverheadMeter>,
    /// Memoized deep-copy sizes, shared across every wrapped interface of
    /// one profiling runtime. Structurally identical argument trees skip
    /// the recursive walk (and its per-KB overhead charge) on a hit;
    /// measured sizes are identical either way.
    cache: Arc<SizeCache>,
    /// Optional observability: marshal-cache miss instants. Per-call trace
    /// detail stays out of this hot path — the `EventLogger` carries it.
    obs: Option<Obs>,
    /// Optional COIGN045 sink: read-only-declared calls fingerprint the
    /// callee before and after, and a changed fingerprint lands here.
    crosscheck: Option<Arc<EffectCrossCheck>>,
}

impl ProfilingInvoker {
    /// Wraps a pointer with profiling instrumentation.
    #[cfg(test)]
    fn wrap(
        ptr: InterfacePtr,
        classifier: Arc<InstanceClassifier>,
        logger: Arc<dyn InfoLogger>,
        overhead: Arc<OverheadMeter>,
        cache: Arc<SizeCache>,
    ) -> InterfacePtr {
        Self::wrap_crosschecked(ptr, classifier, logger, overhead, cache, None, None)
    }

    /// Wraps a pointer with the full profiling informer: observability plus
    /// the COIGN045 state-effect cross-check sink.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wrap_crosschecked(
        ptr: InterfacePtr,
        classifier: Arc<InstanceClassifier>,
        logger: Arc<dyn InfoLogger>,
        overhead: Arc<OverheadMeter>,
        cache: Arc<SizeCache>,
        obs: Option<Obs>,
        crosscheck: Option<Arc<EffectCrossCheck>>,
    ) -> InterfacePtr {
        let invoker = ProfilingInvoker {
            inner: ptr.clone(),
            classifier,
            logger,
            overhead,
            cache,
            obs,
            crosscheck,
        };
        ptr.wrap(Arc::new(invoker))
    }
}

impl Invoker for ProfilingInvoker {
    fn invoke(&self, rt: &ComRuntime, call: CallInfo<'_>, msg: &mut Message) -> ComResult<()> {
        let method_desc = call.desc.method(call.method).ok_or(ComError::BadMethod {
            iid: call.desc.iid,
            method: call.method,
        })?;
        let (caller, caller_class) = classify_caller(rt, &self.classifier);

        // Measure the request by invoking the DCOM marshaling machinery
        // in-process; a non-remotable parameter is a constraint, not an
        // error, during profiling. The reply is sized after the call (a
        // stateful component may answer the same request differently), so
        // the two directions hit the memo cache independently.
        let (req, req_hit) = self
            .cache
            .request_size(call.desc.iid, call.method, method_desc, msg);

        // COIGN045 cross-check: a read-only-declared method must not change
        // the callee's observable state. Fingerprint before and after; a
        // component without a fingerprint opts out (`None` is never
        // evidence).
        let fingerprint_before = match &self.crosscheck {
            Some(_) if method_desc.effect.is_read_only() => rt
                .instance(call.owner)
                .and_then(|inst| inst.object.state_fingerprint()),
            _ => None,
        };

        let result = self.inner.call(rt, call.method, msg);

        if let (Some(check), Some(before)) = (&self.crosscheck, fingerprint_before) {
            if let Some(inst) = rt.instance(call.owner) {
                if inst.object.state_fingerprint() != Some(before) {
                    let class = rt
                        .registry()
                        .get(inst.clsid)
                        .map(|desc| desc.name.clone())
                        .unwrap_or_else(|_| inst.clsid.to_string());
                    check.record(EffectViolation {
                        class,
                        interface: call.desc.name.clone(),
                        method: method_desc.name.clone(),
                        declared: method_desc.effect,
                    });
                }
            }
        }

        let (reply, reply_hit) =
            self.cache
                .reply_size(call.desc.iid, call.method, method_desc, msg);
        let remotable = call.desc.remotable && req.is_ok() && reply.is_ok();
        let req_bytes = req.unwrap_or(0);
        let reply_bytes = reply.unwrap_or(0);

        // Charge the informer's measurement cost. A memo hit skips the
        // deep-copy walk, so only bytes actually walked carry the per-KB
        // charge; the fixed per-call cost applies regardless.
        let mut walked_bytes = 0;
        if !req_hit {
            walked_bytes += req_bytes;
        }
        if !reply_hit {
            walked_bytes += reply_bytes;
        }
        let walked_kb = walked_bytes / 1024;
        self.overhead.charge(
            rt,
            PROFILING_CALL_OVERHEAD_US + walked_kb * PROFILING_PER_KB_OVERHEAD_US,
        );

        let callee_class = self
            .classifier
            .classification_of(call.owner)
            .unwrap_or(ClassificationId::ROOT);
        let record = CallRecord {
            caller,
            caller_class,
            callee: call.owner,
            callee_class,
            iid: call.desc.iid,
            method: call.method,
            req_bytes,
            reply_bytes,
            remotable,
        };
        self.logger.log_call(&record);
        if let Some(obs) = &self.obs {
            // Tracing must stay cheap enough to leave on while tens of
            // thousands of calls replay (recorded: `obs.trace_overhead_frac`),
            // so the per-call record is the `EventLogger`'s job and only
            // marshal-cache misses — the rare first deep-copy walk of a new
            // argument shape — become instants. Hits aggregate into
            // `coign_marshal_cache_hits_total` after the run.
            if !req_hit || !reply_hit {
                let at = rt.clock().now_us();
                if !req_hit {
                    obs.tracer.instant_at(
                        "marshal_cache_miss",
                        at,
                        vec![
                            ("dir", TraceArg::Static("request")),
                            ("iid", TraceArg::Guid((call.desc.iid.0).0)),
                            ("method", TraceArg::U64(u64::from(call.method))),
                            ("bytes", TraceArg::U64(req_bytes)),
                        ],
                    );
                }
                if !reply_hit {
                    obs.tracer.instant_at(
                        "marshal_cache_miss",
                        at,
                        vec![
                            ("dir", TraceArg::Static("reply")),
                            ("iid", TraceArg::Guid((call.desc.iid.0).0)),
                            ("method", TraceArg::U64(u64::from(call.method))),
                            ("bytes", TraceArg::U64(reply_bytes)),
                        ],
                    );
                }
            }
        }
        result
    }
}

/// The distribution informer: routes cross-machine calls through the DCOM
/// transport with minimal inspection.
pub struct DistributionInvoker {
    inner: InterfacePtr,
    transport: Arc<Transport>,
    overhead: Arc<OverheadMeter>,
    /// Optional message counting for usage-drift detection (§6): counts
    /// only — no parameter walking — so the runtime stays lightweight.
    drift: Option<(Arc<InstanceClassifier>, Arc<DriftMonitor>)>,
    /// Optional self-healing: transport failures consult the coordinator
    /// (recover + retry) before failing the call, under the exactly-once
    /// protocol — the side effect of a call never runs twice.
    recovery: Option<Arc<RecoveryCoordinator>>,
    /// Optional observability: cut-crossing instants, flight-recorder
    /// entries, the size histogram, and dump-on-error.
    obs: Option<Obs>,
    icc_hist: Option<Histogram>,
}

impl DistributionInvoker {
    /// Wraps a pointer with the lightweight distributed-execution proxy.
    pub(crate) fn wrap(
        ptr: InterfacePtr,
        transport: Arc<Transport>,
        overhead: Arc<OverheadMeter>,
    ) -> InterfacePtr {
        Self::wrap_recovering(ptr, transport, overhead, None, None, None)
    }

    /// Wraps a pointer with the full proxy, each part optional: `drift`
    /// counts messages for drift detection; `recovery` is the coordinator
    /// consulted on transport failures; under `obs` every cut-crossing call
    /// becomes an `icc_call` tracer instant and a flight-recorder entry, and
    /// a dying call dumps the recorder.
    pub(crate) fn wrap_recovering(
        ptr: InterfacePtr,
        transport: Arc<Transport>,
        overhead: Arc<OverheadMeter>,
        drift: Option<(Arc<InstanceClassifier>, Arc<DriftMonitor>)>,
        recovery: Option<Arc<RecoveryCoordinator>>,
        obs: Option<Obs>,
    ) -> InterfacePtr {
        let invoker = DistributionInvoker {
            inner: ptr.clone(),
            transport,
            overhead,
            drift,
            recovery,
            icc_hist: icc_histogram(obs.as_ref()),
            obs,
        };
        ptr.wrap(Arc::new(invoker))
    }

    /// Dumps the flight recorder when a remote call dies of a transport
    /// failure (post-mortem for Timeout / Partitioned / MachineDown).
    fn dump_on_error(&self, error: ComError) -> ComError {
        if let Some(obs) = &self.obs {
            let reason = match &error {
                ComError::Timeout { .. } => Some("Timeout"),
                ComError::Partitioned { .. } => Some("Partitioned"),
                ComError::MachineDown(_) => Some("MachineDown"),
                _ => None,
            };
            if let Some(reason) = reason {
                obs.recorder.dump(reason);
            }
        }
        error
    }

    /// Whether a failed delivery attempt should be retried: only with a
    /// coordinator installed, within the attempt budget, and when (a) the
    /// coordinator just recovered, (b) the placement epoch advanced under
    /// this call (another call's recovery migrated the callee — retry on
    /// the new placement), or (c) the failure is still feeding the machine
    /// breaker toward a trip.
    fn try_recover(
        &self,
        rt: &ComRuntime,
        error: &ComError,
        attempt: u32,
        max_attempts: u32,
        seen_epoch: &mut u64,
    ) -> bool {
        let Some(recovery) = &self.recovery else {
            return false;
        };
        if attempt >= max_attempts {
            return false;
        }
        if recovery.on_call_failure(rt, error) {
            *seen_epoch = recovery.epoch();
            return true;
        }
        let epoch = recovery.epoch();
        if epoch != *seen_epoch {
            *seen_epoch = epoch;
            return true;
        }
        false
    }
}

impl Invoker for DistributionInvoker {
    fn invoke(&self, rt: &ComRuntime, call: CallInfo<'_>, msg: &mut Message) -> ComResult<()> {
        self.overhead.charge(rt, DISTRIBUTION_CALL_OVERHEAD_US);

        if let Some((classifier, monitor)) = &self.drift {
            let (_, caller_class) = classify_caller(rt, classifier);
            let callee_class = classifier
                .classification_of(call.owner)
                .unwrap_or(ClassificationId::ROOT);
            monitor.record_call(caller_class, callee_class);
        }

        let caller_machine = rt.current_machine();
        let callee_machine = rt
            .instance(call.owner)
            .ok_or(ComError::DeadInstance(call.owner.0))?
            .machine();

        if caller_machine == callee_machine {
            let result = self.inner.call(rt, call.method, msg);
            if result.is_ok() {
                if let Some(recovery) = &self.recovery {
                    recovery.poll_drift(rt);
                }
            }
            return result;
        }

        // Cross-machine: marshal request, dispatch, marshal reply. A
        // non-remotable interface crossing machines is a hard error — it
        // means the distribution violated a co-location constraint.
        let method_desc = call.desc.method(call.method).ok_or(ComError::BadMethod {
            iid: call.desc.iid,
            method: call.method,
        })?;
        if !call.desc.remotable {
            return Err(ComError::NotRemotable {
                iid: call.desc.iid,
                detail: format!(
                    "interface {} crossed {caller_machine}→{callee_machine}",
                    call.desc.name
                ),
            });
        }
        // Fault layer: a dead target or an unhealed partition fails the
        // call before it ever reaches the stub (retries and timeouts are
        // charged inside the transport). Drift counting above already
        // happened exactly once — transport retries are re-sends of the
        // same logical message, not new calls in the distribution.
        //
        // With a recovery coordinator installed, a failed delivery may
        // recover (re-solve the cut, migrate the callee) and retry under
        // the exactly-once protocol: the side effect runs on the first
        // successful dispatch and never again — a later failure only
        // re-delivers (or, once the callee is local, replays) the reply
        // the call already produced.
        let max_attempts = self.recovery.as_ref().map_or(1, |r| r.max_call_attempts());
        let mut seen_epoch = self.recovery.as_ref().map_or(0, |r| r.epoch());
        let mut executed = false;
        let mut result: ComResult<()> = Ok(());
        let mut req_bytes = 0u64;
        let mut attempt = 0u32;
        let (caller_machine, callee_machine, reply_bytes, attempts) = loop {
            attempt += 1;
            // Re-read both ends: a recovery on an earlier attempt may have
            // migrated the callee — or the calling instance itself, when
            // its own machine died mid-call.
            let caller_machine = rt.current_machine();
            let callee_machine = rt
                .instance(call.owner)
                .ok_or(ComError::DeadInstance(call.owner.0))?
                .machine();
            if callee_machine == caller_machine {
                // The callee migrated next to the caller mid-call.
                if executed {
                    // The remote execution already happened; only the
                    // reply delivery failed. Complete with the reply we
                    // hold — the side effect must not run twice.
                    if let Some(recovery) = &self.recovery {
                        recovery.note_replayed_completion();
                        if result.is_ok() {
                            recovery.poll_drift(rt);
                        }
                    }
                    return result;
                }
                let result = self.inner.call(rt, call.method, msg);
                if result.is_ok() {
                    if let Some(recovery) = &self.recovery {
                        recovery.poll_drift(rt);
                    }
                }
                return result;
            }
            match self.transport.preflight(rt, caller_machine, callee_machine) {
                Ok(()) => {}
                Err(error) => {
                    if self.try_recover(rt, &error, attempt, max_attempts, &mut seen_epoch) {
                        continue;
                    }
                    return Err(self.dump_on_error(error));
                }
            }
            if executed {
                // Deliver the existing reply again; never re-dispatch.
                if let Some(recovery) = &self.recovery {
                    recovery.note_redelivered();
                }
            } else {
                req_bytes = message_request_size(method_desc, msg)?;
                result = self.inner.call(rt, call.method, msg);
                executed = true;
            }
            let reply_bytes = message_reply_size(method_desc, msg)?;
            match self.transport.charge_sized_call_checked(
                rt,
                caller_machine,
                callee_machine,
                req_bytes,
                reply_bytes,
            ) {
                Ok(attempts) => break (caller_machine, callee_machine, reply_bytes, attempts),
                Err(error) => {
                    if self.try_recover(rt, &error, attempt, max_attempts, &mut seen_epoch) {
                        continue;
                    }
                    return Err(self.dump_on_error(error));
                }
            }
        };
        if let Some(obs) = &self.obs {
            let at = rt.clock().now_us();
            obs.tracer.instant_at(
                "icc_call",
                at,
                vec![
                    ("iid", TraceArg::Guid((call.desc.iid.0).0)),
                    ("method", TraceArg::U64(u64::from(call.method))),
                    ("from", TraceArg::U64(u64::from(caller_machine.0))),
                    ("to", TraceArg::U64(u64::from(callee_machine.0))),
                    ("req_bytes", TraceArg::U64(req_bytes)),
                    ("reply_bytes", TraceArg::U64(reply_bytes)),
                    ("attempts", TraceArg::U64(u64::from(attempts))),
                ],
            );
            obs.recorder.record(
                at,
                "icc_call",
                format!(
                    "{}[{}] m{}->m{} req={req_bytes} reply={reply_bytes} attempts={attempts}",
                    call.desc.name, call.method, caller_machine.0, callee_machine.0
                ),
            );
            if let Some(hist) = &self.icc_hist {
                hist.observe(req_bytes);
                hist.observe(reply_bytes);
            }
        }
        if result.is_ok() {
            if let Some(recovery) = &self.recovery {
                recovery.poll_drift(rt);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierKind;
    use crate::logger::{EventLogger, LogEvent, ProfilingLogger};
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::{CallCtx, Clsid, ComObject, Iid, MachineId, PType, Value};
    use coign_dcom::NetworkModel;

    /// Echo component: method 0 takes a blob in and returns a blob twice
    /// the size.
    struct Echo;
    impl ComObject for Echo {
        fn invoke(
            &self,
            _ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            let n = msg.arg(0).and_then(Value::as_blob).unwrap_or(0);
            msg.set(1, Value::Blob(n * 2));
            Ok(())
        }
    }

    fn echo_setup(rt: &ComRuntime) -> (Clsid, Iid) {
        let iface = InterfaceBuilder::new("IEcho")
            .method("Echo", |m| {
                m.input("data", PType::Blob).output("out", PType::Blob)
            })
            .build();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Echo", vec![iface], ApiImports::NONE, |_, _| Arc::new(Echo));
        (clsid, iid)
    }

    #[test]
    fn profiling_invoker_measures_and_logs() {
        let rt = ComRuntime::single_machine();
        let (clsid, iid) = echo_setup(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let logger = Arc::new(ProfilingLogger::new());
        let overhead = Arc::new(OverheadMeter::new());

        let raw = rt.create_instance(clsid, iid).unwrap();
        classifier.classify_instance(&rt, raw.owner(), clsid);
        let cache = Arc::new(SizeCache::new());
        let ptr = ProfilingInvoker::wrap(raw, classifier, logger.clone(), overhead.clone(), cache);

        let mut msg = Message::new(vec![Value::Blob(1000), Value::Null]);
        ptr.call(&rt, 0, &mut msg).unwrap();

        assert_eq!(msg.arg(1).unwrap().as_blob(), Some(2000));
        let profile = logger.snapshot_profile();
        assert_eq!(profile.total_messages(), 2);
        // Request ≈ header + blob(1008); reply ≈ header + 4 + blob(2008).
        assert!(profile.total_bytes() > 3000);
        assert!(overhead.total_us() >= PROFILING_CALL_OVERHEAD_US);
        // Overhead advanced the clock but not application compute.
        assert_eq!(rt.stats().compute_us, 0);
        assert!(rt.clock().now_us() > 0);
    }

    #[test]
    fn profiling_cache_skips_walk_charges_on_repeated_shapes() {
        let rt = ComRuntime::single_machine();
        let (clsid, iid) = echo_setup(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let logger = Arc::new(ProfilingLogger::new());
        let overhead = Arc::new(OverheadMeter::new());
        let cache = Arc::new(SizeCache::new());
        let raw = rt.create_instance(clsid, iid).unwrap();
        classifier.classify_instance(&rt, raw.owner(), clsid);
        let ptr = ProfilingInvoker::wrap(
            raw,
            classifier,
            logger.clone(),
            overhead.clone(),
            cache.clone(),
        );

        // First call walks both directions (10 KB in, 20 KB echoed back).
        let mut msg = Message::new(vec![Value::Blob(10_240), Value::Null]);
        ptr.call(&rt, 0, &mut msg).unwrap();
        let first = overhead.total_us();
        assert_eq!(cache.hits(), 0);
        assert!(first > PROFILING_CALL_OVERHEAD_US);

        // An identically shaped call hits both direction keys, so only the
        // fixed per-call cost is charged — the per-KB walk is skipped.
        let mut msg = Message::new(vec![Value::Blob(10_240), Value::Null]);
        ptr.call(&rt, 0, &mut msg).unwrap();
        assert_eq!(cache.hits(), 2);
        assert_eq!(overhead.total_us(), first + PROFILING_CALL_OVERHEAD_US);

        // The profile records full sizes for the cached call regardless.
        let profile = logger.snapshot_profile();
        assert_eq!(profile.total_messages(), 4);
        assert!(profile.total_bytes() > 60_000);
    }

    #[test]
    fn profiling_invoker_flags_non_remotable_interfaces() {
        let rt = ComRuntime::single_machine();
        let iface = InterfaceBuilder::new("ISharedMem")
            .method("Map", |m| m.input("h", PType::Opaque))
            .build();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Shared", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(Echo)
            });
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::St));
        let logger = Arc::new(EventLogger::new());
        let overhead = Arc::new(OverheadMeter::new());
        let raw = rt.create_instance(clsid, iid).unwrap();
        classifier.classify_instance(&rt, raw.owner(), clsid);
        let ptr = ProfilingInvoker::wrap(
            raw,
            classifier,
            logger.clone(),
            overhead,
            Arc::new(SizeCache::new()),
        );

        let mut msg = Message::new(vec![Value::Opaque(0xbeef)]);
        ptr.call(&rt, 0, &mut msg).unwrap(); // the call itself succeeds

        let events = logger.take_events();
        match &events[0] {
            LogEvent::Call(record) => assert!(!record.remotable),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn distribution_invoker_is_free_for_local_calls() {
        let rt = ComRuntime::client_server();
        let (clsid, iid) = echo_setup(&rt);
        let transport = Arc::new(Transport::new(NetworkModel::ethernet_10baset(), 1));
        let overhead = Arc::new(OverheadMeter::new());
        let raw = rt.create_instance(clsid, iid).unwrap(); // client, as is the root caller
        let ptr = DistributionInvoker::wrap(raw, transport, overhead.clone());
        let mut msg = Message::new(vec![Value::Blob(100), Value::Null]);
        ptr.call(&rt, 0, &mut msg).unwrap();
        assert_eq!(rt.stats().messages, 0);
        assert_eq!(rt.stats().comm_us, 0);
        assert_eq!(overhead.total_us(), DISTRIBUTION_CALL_OVERHEAD_US);
    }

    #[test]
    fn distribution_invoker_charges_cross_machine_calls() {
        let rt = ComRuntime::client_server();
        let (clsid, iid) = echo_setup(&rt);
        let transport = Arc::new(Transport::new(NetworkModel::ethernet_10baset(), 1));
        let overhead = Arc::new(OverheadMeter::new());
        let raw = rt
            .create_direct(clsid, iid, Some(MachineId::SERVER))
            .unwrap();
        let ptr = DistributionInvoker::wrap(raw, transport, overhead);
        let mut msg = Message::new(vec![Value::Blob(10_000), Value::Null]);
        ptr.call(&rt, 0, &mut msg).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.messages, 2);
        assert!(stats.bytes > 30_000); // request + doubled reply
        assert!(stats.comm_us > 0);
        assert_eq!(stats.cross_machine_calls, 1);
    }

    #[test]
    fn distribution_invoker_rejects_non_remotable_crossing() {
        let rt = ComRuntime::client_server();
        let iface = InterfaceBuilder::new("ISharedMem2")
            .method("Map", |m| m.input("h", PType::Opaque))
            .build();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Shared2", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(Echo)
            });
        let transport = Arc::new(Transport::new(NetworkModel::ethernet_10baset(), 1));
        let raw = rt
            .create_direct(clsid, iid, Some(MachineId::SERVER))
            .unwrap();
        let ptr = DistributionInvoker::wrap(raw, transport, Arc::new(OverheadMeter::new()));
        let mut msg = Message::new(vec![Value::Opaque(1)]);
        let err = ptr.call(&rt, 0, &mut msg).unwrap_err();
        assert!(matches!(err, ComError::NotRemotable { .. }));
    }

    #[test]
    fn fault_retries_do_not_inflate_drift_counts() {
        use crate::drift::DriftMonitor;
        use crate::profile::IccProfile;
        use coign_dcom::{CallPolicy, FaultPlan, TimeWindow};

        let rt = ComRuntime::client_server();
        let (clsid, iid) = echo_setup(&rt);
        // Partition heals at 30 ms: with a 10 ms timeout and 10 ms backoff
        // the call takes 2 retries before the wire delivers it.
        let plan = FaultPlan::none().with_partition(
            MachineId::CLIENT,
            MachineId::SERVER,
            TimeWindow::new(0, 30_000),
        );
        let policy = CallPolicy {
            timeout_us: 10_000,
            max_retries: 3,
            backoff_base_us: 10_000,
            backoff_multiplier: 2.0,
            backoff_jitter: 0.0,
        };
        let transport = Arc::new(coign_dcom::Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            1,
            plan,
            policy,
            42,
        ));
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let monitor = Arc::new(DriftMonitor::from_profile(&IccProfile::new()));
        let raw = rt
            .create_direct(clsid, iid, Some(MachineId::SERVER))
            .unwrap();
        classifier.classify_instance(&rt, raw.owner(), clsid);
        let ptr = DistributionInvoker::wrap_recovering(
            raw,
            transport.clone(),
            Arc::new(OverheadMeter::new()),
            Some((classifier, monitor.clone())),
            None,
            None,
        );

        let mut msg = Message::new(vec![Value::Blob(1_000), Value::Null]);
        ptr.call(&rt, 0, &mut msg).unwrap();

        // The wire needed retries...
        assert_eq!(transport.fault_stats().retries, 2);
        // ...but the drift distribution saw exactly one logical call
        // (two messages): retries are re-sends, not new messages.
        assert_eq!(monitor.observed_messages(), 2);
    }

    /// A counter whose `Peek` method is *declared* read-only but secretly
    /// increments — the lying annotation COIGN045 exists to catch. Method 1
    /// (`Bump`) mutates honestly.
    struct LyingCounter {
        count: Mutex<u64>,
    }
    impl ComObject for LyingCounter {
        fn invoke(
            &self,
            _ctx: &CallCtx<'_>,
            _iid: Iid,
            method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            let mut count = self.count.lock();
            if method == 0 {
                // Declared ReadsState, but mutates anyway: the lie.
                *count += 1;
            } else {
                *count += 10;
            }
            msg.set(0, Value::I8(*count as i64));
            Ok(())
        }
        fn state_fingerprint(&self) -> Option<u64> {
            Some(*self.count.lock())
        }
    }

    fn lying_counter_setup(rt: &ComRuntime) -> (Clsid, Iid) {
        let iface = InterfaceBuilder::new("ICounter")
            .method("Peek", |m| m.output("n", PType::I8).reads_state())
            .method("Bump", |m| m.output("n", PType::I8).mutates_state())
            .build();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Counter", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(LyingCounter {
                    count: Mutex::new(0),
                })
            });
        (clsid, iid)
    }

    #[test]
    fn crosscheck_catches_a_lying_read_only_annotation() {
        let rt = ComRuntime::single_machine();
        let (clsid, iid) = lying_counter_setup(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let check = Arc::new(EffectCrossCheck::new());
        let raw = rt.create_instance(clsid, iid).unwrap();
        classifier.classify_instance(&rt, raw.owner(), clsid);
        let ptr = ProfilingInvoker::wrap_crosschecked(
            raw,
            classifier,
            Arc::new(ProfilingLogger::new()),
            Arc::new(OverheadMeter::new()),
            Arc::new(SizeCache::new()),
            None,
            Some(check.clone()),
        );

        // The honest mutator is declared MutatesState: never fingerprinted.
        let mut msg = Message::outputs(1);
        ptr.call(&rt, 1, &mut msg).unwrap();
        assert_eq!(check.violations().len(), 0);

        // The liar: declared ReadsState, fingerprint changes.
        let mut msg = Message::outputs(1);
        ptr.call(&rt, 0, &mut msg).unwrap();
        assert_eq!(check.violations().len(), 1);
        let violation = &check.violations()[0];
        assert_eq!(violation.class, "Counter");
        assert_eq!(violation.interface, "ICounter");
        assert_eq!(violation.method, "Peek");
        assert_eq!(violation.declared, StateEffect::ReadsState);

        // Repeats dedupe: still one distinct violation.
        let mut msg = Message::outputs(1);
        ptr.call(&rt, 0, &mut msg).unwrap();
        assert_eq!(check.violations().len(), 1);
    }

    #[test]
    fn crosscheck_is_silent_for_honest_annotations() {
        struct HonestStore {
            data: Mutex<u64>,
        }
        impl ComObject for HonestStore {
            fn invoke(
                &self,
                _ctx: &CallCtx<'_>,
                _iid: Iid,
                _method: u32,
                msg: &mut Message,
            ) -> ComResult<()> {
                msg.set(0, Value::I8(*self.data.lock() as i64));
                Ok(())
            }
            fn state_fingerprint(&self) -> Option<u64> {
                Some(*self.data.lock())
            }
        }
        let rt = ComRuntime::single_machine();
        let iface = InterfaceBuilder::new("IStoreRo")
            .method("Get", |m| m.output("v", PType::I8).reads_state())
            .build();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("StoreRo", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(HonestStore {
                    data: Mutex::new(7),
                })
            });
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let check = Arc::new(EffectCrossCheck::new());
        let raw = rt.create_instance(clsid, iid).unwrap();
        classifier.classify_instance(&rt, raw.owner(), clsid);
        let ptr = ProfilingInvoker::wrap_crosschecked(
            raw,
            classifier,
            Arc::new(ProfilingLogger::new()),
            Arc::new(OverheadMeter::new()),
            Arc::new(SizeCache::new()),
            None,
            Some(check.clone()),
        );
        let mut msg = Message::outputs(1);
        ptr.call(&rt, 0, &mut msg).unwrap();
        assert_eq!(check.violations().len(), 0);
    }
}
