//! The Coign Runtime Executive (§3.1 of the paper).
//!
//! The RTE provides low-level services to the other Coign runtime
//! components: it traps component instantiation requests, wraps every COM
//! interface pointer with instrumentation, tracks binaries loaded into the
//! address space, and provides access to the configuration record. It is the
//! single [`RuntimeHook`] Coign installs into the component runtime.
//!
//! The RTE runs in one of two modes:
//!
//! * **Profiling** — instantiations proceed locally; every interface is
//!   wrapped with the (expensive, precise) profiling informer; all events go
//!   to the information logger.
//! * **Distributed** — the instance classifier identifies each
//!   about-to-be-instantiated component, the component factory relocates the
//!   request to its assigned machine, and interfaces are wrapped with the
//!   lightweight distribution informer that routes cross-machine calls
//!   through the DCOM transport.

use crate::classifier::InstanceClassifier;
use crate::drift::DriftMonitor;
use crate::factory::ComponentFactory;
use crate::informer::{
    DistributionInvoker, EffectCrossCheck, EffectViolation, OverheadMeter, ProfilingInvoker,
};
use crate::logger::InfoLogger;
use coign_com::{
    Clsid, ComResult, ComRuntime, CreateRequest, InstanceId, InterfacePtr, RuntimeHook,
};
use coign_dcom::marshal::SizeCache;
use coign_dcom::Transport;
use coign_obs::{Obs, TraceArg};
use parking_lot::Mutex;
use std::sync::Arc;

/// Which runtime configuration the RTE realizes.
enum RteMode {
    Profiling,
    Distributed {
        /// Shared with the recovery coordinator, which swaps the placement
        /// table mid-run when the cut is re-solved online.
        factory: Arc<ComponentFactory>,
        transport: Arc<Transport>,
        drift: Option<Arc<DriftMonitor>>,
    },
}

/// One graceful-degradation event: a remote instantiation whose target
/// machine was down, re-routed to the requesting machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackEvent {
    /// The component class that was being instantiated.
    pub clsid: Clsid,
    /// Where the placement wanted the instance.
    pub intended: coign_com::MachineId,
    /// Where the instance actually went (the requesting machine).
    pub actual: coign_com::MachineId,
    /// Simulated time of the decision, microseconds.
    pub at_us: u64,
}

/// The Coign Runtime Executive.
pub struct CoignRte {
    mode: RteMode,
    classifier: Arc<InstanceClassifier>,
    logger: Arc<dyn InfoLogger>,
    overhead: Arc<OverheadMeter>,
    /// Memoized marshal sizes shared by every profiling informer this RTE
    /// installs (idle in distributed mode — the lightweight informer never
    /// walks parameters it doesn't have to).
    marshal_cache: Arc<SizeCache>,
    /// Binaries observed in the address space (RTE address-space tracking).
    images: Mutex<Vec<String>>,
    /// Instantiations re-routed because the target machine was down.
    fallbacks: Mutex<Vec<FallbackEvent>>,
    /// COIGN045 sink: declared-read-only calls whose instance fingerprint
    /// changed during profiling (idle in distributed mode).
    effect_check: Arc<EffectCrossCheck>,
    /// Observability bundle (tracer + registry + flight recorder) threaded
    /// into every informer this RTE installs.
    obs: Option<Obs>,
    /// Self-healing coordinator, installed after construction (it needs the
    /// RTE's factory); every distribution informer wrapped from then on
    /// routes failures through it.
    recovery: Mutex<Option<Arc<crate::recovery::RecoveryCoordinator>>>,
}

impl CoignRte {
    /// Creates a profiling-mode RTE.
    pub fn profiling(classifier: Arc<InstanceClassifier>, logger: Arc<dyn InfoLogger>) -> Self {
        CoignRte {
            mode: RteMode::Profiling,
            classifier,
            logger,
            overhead: Arc::new(OverheadMeter::new()),
            marshal_cache: Arc::new(SizeCache::new()),
            images: Mutex::new(Vec::new()),
            fallbacks: Mutex::new(Vec::new()),
            effect_check: Arc::new(EffectCrossCheck::new()),
            obs: None,
            recovery: Mutex::new(None),
        }
    }

    /// Creates a distributed-mode RTE realizing the given placement; with a
    /// `drift` monitor it additionally counts messages for usage-drift
    /// detection.
    pub fn distributed(
        classifier: Arc<InstanceClassifier>,
        logger: Arc<dyn InfoLogger>,
        factory: ComponentFactory,
        transport: Arc<Transport>,
        drift: Option<Arc<DriftMonitor>>,
    ) -> Self {
        CoignRte {
            mode: RteMode::Distributed {
                factory: Arc::new(factory),
                transport,
                drift,
            },
            classifier,
            logger,
            overhead: Arc::new(OverheadMeter::new()),
            marshal_cache: Arc::new(SizeCache::new()),
            images: Mutex::new(Vec::new()),
            fallbacks: Mutex::new(Vec::new()),
            effect_check: Arc::new(EffectCrossCheck::new()),
            obs: None,
            recovery: Mutex::new(None),
        }
    }

    /// The component factory, in distributed mode. Shared so the recovery
    /// coordinator can swap its placement table while the run is live.
    pub fn factory(&self) -> Option<Arc<ComponentFactory>> {
        match &self.mode {
            RteMode::Profiling => None,
            RteMode::Distributed { factory, .. } => Some(factory.clone()),
        }
    }

    /// Installs the self-healing coordinator. Interfaces wrapped after this
    /// point route transport failures through it (recover + retry) instead
    /// of failing the call outright.
    pub fn set_recovery(&self, coordinator: Arc<crate::recovery::RecoveryCoordinator>) {
        *self.recovery.lock() = Some(coordinator);
    }

    /// The installed recovery coordinator, if any.
    pub fn recovery(&self) -> Option<Arc<crate::recovery::RecoveryCoordinator>> {
        self.recovery.lock().clone()
    }

    /// Attaches an observability bundle. Every informer installed from now
    /// on reports through it, and in distributed mode the transport's
    /// fault layer is hooked up too (fault events become tracer instants
    /// and flight-recorder entries).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        if let RteMode::Distributed { transport, .. } = &self.mode {
            transport.set_obs(obs.tracer.clone(), obs.recorder.clone());
        }
        self.obs = Some(obs);
        self
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// The classifier in use.
    pub fn classifier(&self) -> &Arc<InstanceClassifier> {
        &self.classifier
    }

    /// The information logger in use.
    pub fn logger(&self) -> &Arc<dyn InfoLogger> {
        &self.logger
    }

    /// Total instrumentation overhead charged so far, microseconds.
    pub fn overhead_us(&self) -> u64 {
        self.overhead.total_us()
    }

    /// The marshal-size memo cache shared by this RTE's profiling
    /// informers (its counters stay zero in distributed mode).
    pub fn marshal_cache(&self) -> &Arc<SizeCache> {
        &self.marshal_cache
    }

    /// Records a binary loaded into the application's address space.
    pub fn track_image(&self, name: &str) {
        self.images.lock().push(name.to_string());
    }

    /// Binaries observed so far.
    pub fn images(&self) -> Vec<String> {
        self.images.lock().clone()
    }

    /// True when running in distributed (lightweight) mode.
    pub fn is_distributed(&self) -> bool {
        matches!(self.mode, RteMode::Distributed { .. })
    }

    /// Instantiations re-routed to the requesting machine because their
    /// placement target was down.
    pub fn fallbacks(&self) -> Vec<FallbackEvent> {
        self.fallbacks.lock().clone()
    }

    /// Number of placement fallbacks taken so far.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.lock().len() as u64
    }

    /// COIGN045 violations observed so far: declared-read-only methods whose
    /// instance fingerprint changed under profiling, in deterministic order.
    pub fn effect_violations(&self) -> Vec<EffectViolation> {
        self.effect_check.violations()
    }
}

impl RuntimeHook for CoignRte {
    fn fulfill_create(
        &self,
        rt: &ComRuntime,
        req: &CreateRequest,
    ) -> Option<ComResult<InterfacePtr>> {
        match &self.mode {
            RteMode::Profiling => None,
            RteMode::Distributed {
                factory, transport, ..
            } => {
                // Classify the about-to-be-instantiated component from the
                // current call stack, then let the factory route it.
                let class = self.classifier.classify_pending(rt, req.clsid);
                let mut machine = factory.place(class, req.clsid, rt.current_machine());
                // Graceful degradation: a placement targeting a dead
                // machine falls back to local instantiation rather than
                // failing the application.
                let here = rt.current_machine();
                let now = rt.clock().now_us();
                if machine != here && transport.fault_plan().machine_down(machine, now) {
                    self.fallbacks.lock().push(FallbackEvent {
                        clsid: req.clsid,
                        intended: machine,
                        actual: here,
                        at_us: now,
                    });
                    if let Some(obs) = &self.obs {
                        obs.tracer.instant_at(
                            "fallback",
                            now,
                            vec![
                                ("clsid", TraceArg::Guid((req.clsid.0).0)),
                                ("intended", TraceArg::U64(u64::from(machine.0))),
                                ("actual", TraceArg::U64(u64::from(here.0))),
                            ],
                        );
                        obs.recorder.record(
                            now,
                            "fallback",
                            format!("{} intended m{} -> local m{}", req.clsid, machine.0, here.0),
                        );
                        // A placement fallback is a degradation worth a
                        // post-mortem, same as a dying call.
                        obs.recorder.dump("Fallback");
                    }
                    machine = here;
                }
                Some(rt.create_direct(req.clsid, req.iid, Some(machine)))
            }
        }
    }

    fn instance_created(&self, rt: &ComRuntime, id: InstanceId, clsid: Clsid) {
        let class = self.classifier.classify_instance(rt, id, clsid);
        self.logger.log_instance_created(id, clsid, class);
    }

    fn instance_released(&self, _rt: &ComRuntime, id: InstanceId) {
        self.logger.log_instance_released(id);
    }

    fn wrap_interface(&self, _rt: &ComRuntime, ptr: InterfacePtr) -> InterfacePtr {
        if !self.is_distributed() {
            self.logger.log_interface_created(ptr.owner(), ptr.iid());
        }
        match &self.mode {
            RteMode::Profiling => ProfilingInvoker::wrap_crosschecked(
                ptr,
                self.classifier.clone(),
                self.logger.clone(),
                self.overhead.clone(),
                self.marshal_cache.clone(),
                self.obs.clone(),
                Some(self.effect_check.clone()),
            ),
            RteMode::Distributed {
                transport, drift, ..
            } => DistributionInvoker::wrap_recovering(
                ptr,
                transport.clone(),
                self.overhead.clone(),
                drift.as_ref().map(|m| (self.classifier.clone(), m.clone())),
                self.recovery.lock().clone(),
                self.obs.clone(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ClassificationId, ClassifierKind};
    use crate::logger::ProfilingLogger;
    use coign_com::idl::InterfaceBuilder;
    use coign_com::registry::ApiImports;
    use coign_com::{CallCtx, ComObject, Iid, MachineId, Message, PType, Value};
    use coign_dcom::NetworkModel;
    use std::collections::HashMap;

    /// A document reader: `Read()` returns a 100 KB blob.
    struct Reader;
    impl ComObject for Reader {
        fn invoke(
            &self,
            _ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            msg.set(0, Value::Blob(100_000));
            Ok(())
        }
    }

    /// A viewer that creates a reader and pulls data from it.
    struct Viewer {
        reader_clsid: Clsid,
        reader_iid: Iid,
    }
    impl ComObject for Viewer {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            let reader = ctx.create(self.reader_clsid, self.reader_iid)?;
            let mut inner = Message::outputs(1);
            reader.call(ctx.rt(), 0, &mut inner)?;
            msg.set(0, inner.args[0].clone());
            Ok(())
        }
    }

    fn register_app(rt: &ComRuntime) -> (Clsid, Iid) {
        let ireader = InterfaceBuilder::new("IReader")
            .method("Read", |m| m.output("data", PType::Blob))
            .build();
        let reader_iid = ireader.iid;
        let reader_clsid =
            rt.registry()
                .register("Reader", vec![ireader], ApiImports::STORAGE, |_, _| {
                    Arc::new(Reader)
                });
        let iviewer = InterfaceBuilder::new("IViewer")
            .method("Show", |m| m.output("data", PType::Blob))
            .build();
        let viewer_iid = iviewer.iid;
        let viewer_clsid =
            rt.registry()
                .register("Viewer", vec![iviewer], ApiImports::GUI, move |_, _| {
                    Arc::new(Viewer {
                        reader_clsid,
                        reader_iid,
                    })
                });
        (viewer_clsid, viewer_iid)
    }

    #[test]
    fn profiling_mode_observes_nested_communication() {
        let rt = ComRuntime::single_machine();
        let (viewer_clsid, viewer_iid) = register_app(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let logger = Arc::new(ProfilingLogger::new());
        let rte = Arc::new(CoignRte::profiling(classifier.clone(), logger.clone()));
        rt.add_hook(rte.clone());

        let viewer = rt.create_instance(viewer_clsid, viewer_iid).unwrap();
        let mut msg = Message::outputs(1);
        viewer.call(&rt, 0, &mut msg).unwrap();

        // Both instances classified.
        assert_eq!(classifier.stats().instances, 2);
        // Root→viewer and viewer→reader calls were logged.
        let profile = logger.snapshot_profile();
        assert_eq!(profile.total_messages(), 4);
        // The 100 KB payload is visible in the summarized bytes, twice
        // (reader→viewer reply and viewer→root reply).
        assert!(profile.total_bytes() > 200_000);
        assert!(rte.overhead_us() > 0);
        assert!(!rte.is_distributed());
    }

    #[test]
    fn distributed_mode_relocates_and_charges() {
        // Profile first to learn classifications.
        let rt = ComRuntime::client_server();
        let (viewer_clsid, viewer_iid) = register_app(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let logger = Arc::new(ProfilingLogger::new());
        let rte = Arc::new(CoignRte::profiling(classifier.clone(), logger.clone()));
        rt.add_hook(rte);
        let viewer = rt.create_instance(viewer_clsid, viewer_iid).unwrap();
        let mut msg = Message::outputs(1);
        viewer.call(&rt, 0, &mut msg).unwrap();

        let viewer_class = classifier.classification_of(viewer.owner()).unwrap();
        // Find the reader's classification: the other one.
        let bindings = classifier.bindings();
        let reader_class = *bindings
            .values()
            .find(|&&c| c != viewer_class)
            .expect("reader classified");

        // Distributed run: reader on the server, viewer on the client.
        let rt2 = ComRuntime::client_server();
        register_app(&rt2);
        let mut placement = HashMap::new();
        placement.insert(viewer_class, MachineId::CLIENT);
        placement.insert(reader_class, MachineId::SERVER);
        classifier.begin_execution();
        let factory = ComponentFactory::new(placement, MachineId::CLIENT, 2);
        let transport = Arc::new(Transport::new(NetworkModel::ethernet_10baset(), 7));
        let rte2 = Arc::new(CoignRte::distributed(
            classifier.clone(),
            Arc::new(crate::logger::NullLogger),
            factory,
            transport,
            None,
        ));
        rt2.add_hook(rte2.clone());

        let viewer2 = rt2.create_instance(viewer_clsid, viewer_iid).unwrap();
        assert_eq!(
            rt2.instance(viewer2.owner()).unwrap().machine(),
            MachineId::CLIENT
        );
        let mut msg2 = Message::outputs(1);
        viewer2.call(&rt2, 0, &mut msg2).unwrap();

        // The reader was created on the server...
        let reader_inst = rt2
            .instances_snapshot()
            .into_iter()
            .find(|i| i.clsid == Clsid::from_name("Reader"))
            .unwrap();
        assert_eq!(reader_inst.machine(), MachineId::SERVER);
        // ...and its 100 KB reply crossed the network.
        let stats = rt2.stats();
        assert!(stats.bytes > 100_000);
        assert!(stats.comm_us > 0);
        assert_eq!(stats.cross_machine_calls, 1);
        assert!(rte2.is_distributed());
    }

    #[test]
    fn dead_target_machine_falls_back_to_local_instantiation() {
        use coign_dcom::{CallPolicy, FaultPlan, TimeWindow};

        // Learn classifications with a profiling pass.
        let rt = ComRuntime::client_server();
        let (viewer_clsid, viewer_iid) = register_app(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let logger = Arc::new(ProfilingLogger::new());
        rt.add_hook(Arc::new(CoignRte::profiling(classifier.clone(), logger)));
        let viewer = rt.create_instance(viewer_clsid, viewer_iid).unwrap();
        viewer.call(&rt, 0, &mut Message::outputs(1)).unwrap();
        let viewer_class = classifier.classification_of(viewer.owner()).unwrap();
        let reader_class = *classifier
            .bindings()
            .values()
            .find(|&&c| c != viewer_class)
            .expect("reader classified");

        // Distributed run wanting the reader on a server that is dead.
        let rt2 = ComRuntime::client_server();
        register_app(&rt2);
        let mut placement = HashMap::new();
        placement.insert(viewer_class, MachineId::CLIENT);
        placement.insert(reader_class, MachineId::SERVER);
        classifier.begin_execution();
        let factory = ComponentFactory::new(placement, MachineId::CLIENT, 2);
        let plan = FaultPlan::none().with_machine_down(MachineId::SERVER, TimeWindow::ALWAYS);
        let transport = Arc::new(Transport::with_faults(
            NetworkModel::ethernet_10baset(),
            7,
            plan,
            CallPolicy::default(),
            1,
        ));
        let rte2 = Arc::new(CoignRte::distributed(
            classifier.clone(),
            Arc::new(crate::logger::NullLogger),
            factory,
            transport,
            None,
        ));
        rt2.add_hook(rte2.clone());

        let viewer2 = rt2.create_instance(viewer_clsid, viewer_iid).unwrap();
        let mut msg = Message::outputs(1);
        // The run completes despite the dead server...
        viewer2.call(&rt2, 0, &mut msg).unwrap();
        // ...because the reader was placed locally instead.
        let reader_inst = rt2
            .instances_snapshot()
            .into_iter()
            .find(|i| i.clsid == Clsid::from_name("Reader"))
            .unwrap();
        assert_eq!(reader_inst.machine(), MachineId::CLIENT);
        assert_eq!(rte2.fallback_count(), 1);
        let event = rte2.fallbacks()[0];
        assert_eq!(event.intended, MachineId::SERVER);
        assert_eq!(event.actual, MachineId::CLIENT);
        // Nothing crossed the wire.
        assert_eq!(rt2.stats().cross_machine_calls, 0);
    }

    #[test]
    fn rte_tracks_loaded_images() {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::St));
        let rte = CoignRte::profiling(classifier, Arc::new(crate::logger::NullLogger));
        rte.track_image("octarine.exe");
        rte.track_image("mso97.dll");
        assert_eq!(rte.images(), vec!["octarine.exe", "mso97.dll"]);
    }

    #[test]
    fn root_calls_classify_as_root() {
        let rt = ComRuntime::single_machine();
        let (viewer_clsid, viewer_iid) = register_app(&rt);
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let logger = Arc::new(ProfilingLogger::new());
        rt.add_hook(Arc::new(CoignRte::profiling(classifier, logger.clone())));
        let viewer = rt.create_instance(viewer_clsid, viewer_iid).unwrap();
        viewer.call(&rt, 0, &mut Message::outputs(1)).unwrap();
        let profile = logger.snapshot_profile();
        assert!(profile
            .edges
            .keys()
            .any(|k| k.from == ClassificationId::ROOT));
    }
}
