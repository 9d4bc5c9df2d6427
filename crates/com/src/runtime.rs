//! The component runtime: instantiation, interception, and accounting.
//!
//! [`ComRuntime`] plays the role of the COM library (`ole32`). Everything
//! Coign needs to trap is funneled through it:
//!
//! * **Instantiation.** [`ComRuntime::create_instance`] is the
//!   `CoCreateInstance` equivalent. Registered [`RuntimeHook`]s may fulfill
//!   the request themselves (the component factory relocating an instance to
//!   another machine) and may wrap every freshly minted interface pointer
//!   (the RTE's interface wrapping).
//! * **The call stack.** The runtime maintains the current interface-call
//!   back-trace, which the instance classifiers consume at instantiation
//!   time.
//! * **Time.** Compute charges are scaled by the executing machine's CPU
//!   factor; the transport layer reports communication time here so the
//!   run's execution/communication split is observable.

use crate::clock::SimClock;
use crate::error::{ComError, ComResult};
use crate::guid::{Clsid, Iid};
use crate::interface::{CallInfo, InterfacePtr, Invoker, Message};
use crate::object::{CallCtx, ComObject, Instance, InstanceId, MachineId};
use crate::registry::ClassRegistry;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One entry of the interface-call back-trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Instance executing the frame.
    pub instance: InstanceId,
    /// Class of that instance.
    pub clsid: Clsid,
    /// Interface through which the instance was entered.
    pub iid: Iid,
    /// Method index within the interface.
    pub method: u32,
}

/// A component instantiation request, as seen by interception hooks.
#[derive(Debug, Clone, Copy)]
pub struct CreateRequest {
    /// Class being instantiated.
    pub clsid: Clsid,
    /// Interface requested on the new instance.
    pub iid: Iid,
}

/// Interception points offered by the runtime.
///
/// The Coign Runtime Executive registers exactly one hook; its methods
/// correspond to the RTE services of §3.1 of the paper (instantiation
/// trapping and interface wrapping).
pub trait RuntimeHook: Send + Sync {
    /// Offered a chance to fulfill an instantiation request (e.g. on a
    /// different machine). Returning `None` falls through to the default
    /// local instantiation.
    fn fulfill_create(
        &self,
        _rt: &ComRuntime,
        _req: &CreateRequest,
    ) -> Option<ComResult<InterfacePtr>> {
        None
    }

    /// Notified after any instance is created.
    fn instance_created(&self, _rt: &ComRuntime, _id: InstanceId, _clsid: Clsid) {}

    /// Wraps a freshly minted interface pointer (identity must be preserved).
    fn wrap_interface(&self, _rt: &ComRuntime, ptr: InterfacePtr) -> InterfacePtr {
        ptr
    }

    /// Notified on every direct (terminal) interface dispatch.
    fn call_dispatched(&self, _rt: &ComRuntime, _call: &CallInfo<'_>) {}
}

/// A machine participating in the simulated topology.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Display name, e.g. `"client"`.
    pub name: String,
    /// Relative CPU speed; compute charges are divided by this factor.
    pub cpu_scale: f64,
}

impl MachineSpec {
    /// Creates a machine spec.
    pub fn new(name: &str, cpu_scale: f64) -> Self {
        MachineSpec {
            name: name.to_string(),
            cpu_scale,
        }
    }
}

/// Aggregate execution statistics for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RtStats {
    /// Total compute time charged, in microseconds.
    pub compute_us: u64,
    /// Total communication time charged, in microseconds.
    pub comm_us: u64,
    /// Total number of network messages.
    pub messages: u64,
    /// Total bytes crossing machine boundaries.
    pub bytes: u64,
    /// Total interface dispatches.
    pub calls: u64,
    /// Interface dispatches that crossed a machine boundary.
    pub cross_machine_calls: u64,
}

/// The component runtime (`CoCreateInstance`, interception, accounting).
pub struct ComRuntime {
    registry: ClassRegistry,
    clock: SimClock,
    machines: Vec<MachineSpec>,
    instances: RwLock<HashMap<InstanceId, Arc<Instance>>>,
    next_instance: AtomicU64,
    hooks: RwLock<Vec<Arc<dyn RuntimeHook>>>,
    stack: Mutex<Vec<Frame>>,
    stats: Mutex<RtStats>,
}

impl ComRuntime {
    /// Creates a runtime with the given machine topology.
    ///
    /// Machine index 0 is the client by convention.
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        assert!(!machines.is_empty(), "topology needs at least one machine");
        ComRuntime {
            registry: ClassRegistry::new(),
            clock: SimClock::new(),
            machines,
            instances: RwLock::new(HashMap::new()),
            next_instance: AtomicU64::new(1),
            hooks: RwLock::new(Vec::new()),
            stack: Mutex::new(Vec::new()),
            stats: Mutex::new(RtStats::default()),
        }
    }

    /// Single-machine runtime (a non-distributed desktop application).
    pub fn single_machine() -> Self {
        ComRuntime::new(vec![MachineSpec::new("client", 1.0)])
    }

    /// Two-machine client/server runtime of equal compute power — the
    /// paper's experimental environment.
    pub fn client_server() -> Self {
        ComRuntime::new(vec![
            MachineSpec::new("client", 1.0),
            MachineSpec::new("server", 1.0),
        ])
    }

    /// The class registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The machine topology.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Registers an interception hook (appended to the chain).
    pub fn add_hook(&self, hook: Arc<dyn RuntimeHook>) {
        self.hooks.write().push(hook);
    }

    /// Removes all interception hooks.
    pub fn clear_hooks(&self) {
        self.hooks.write().clear();
    }

    fn hooks_snapshot(&self) -> Vec<Arc<dyn RuntimeHook>> {
        self.hooks.read().clone()
    }

    /// Instantiates a component, giving hooks a chance to intercept
    /// (the `CoCreateInstance` entry point).
    pub fn create_instance(&self, clsid: Clsid, iid: Iid) -> ComResult<InterfacePtr> {
        let req = CreateRequest { clsid, iid };
        for hook in self.hooks_snapshot() {
            if let Some(result) = hook.fulfill_create(self, &req) {
                return result;
            }
        }
        self.create_direct(clsid, iid, None)
    }

    /// Instantiates a component locally, bypassing `fulfill_create` hooks.
    ///
    /// `machine` defaults to the machine of the currently executing instance
    /// (the creator), or the client at top level. Wrap hooks still apply, so
    /// instrumentation sees every pointer.
    pub fn create_direct(
        &self,
        clsid: Clsid,
        iid: Iid,
        machine: Option<MachineId>,
    ) -> ComResult<InterfacePtr> {
        let class = self.registry.get(clsid)?;
        if class.interface(iid).is_none() {
            return Err(ComError::NoInterface { clsid, iid });
        }
        let machine = machine.unwrap_or_else(|| self.current_machine());
        if machine.0 as usize >= self.machines.len() {
            return Err(ComError::App(format!(
                "machine {machine} is not part of the topology"
            )));
        }
        let id = InstanceId(self.next_instance.fetch_add(1, Ordering::Relaxed));
        let object = (class.factory)(self, id);
        let instance = Instance::new(id, clsid, object, machine);
        self.instances.write().insert(id, instance);
        for hook in self.hooks_snapshot() {
            hook.instance_created(self, id, clsid);
        }
        self.make_ptr(id, iid)
    }

    /// Builds a (wrapped) interface pointer for an existing instance —
    /// the `QueryInterface` equivalent by instance id.
    pub fn make_ptr(&self, id: InstanceId, iid: Iid) -> ComResult<InterfacePtr> {
        let instance = self.instance(id).ok_or(ComError::DeadInstance(id.0))?;
        let class = self.registry.get(instance.clsid)?;
        let desc = class
            .interface(iid)
            .ok_or(ComError::NoInterface {
                clsid: instance.clsid,
                iid,
            })?
            .clone();
        let raw = InterfacePtr::from_parts(
            desc,
            id,
            instance.clsid,
            Arc::new(DirectInvoker {
                object: instance.object.clone(),
            }),
        );
        let mut ptr = raw;
        for hook in self.hooks_snapshot() {
            ptr = hook.wrap_interface(self, ptr);
        }
        Ok(ptr)
    }

    /// Returns another interface of the same instance (`QueryInterface`).
    pub fn query_interface(&self, ptr: &InterfacePtr, iid: Iid) -> ComResult<InterfacePtr> {
        self.make_ptr(ptr.owner(), iid)
    }

    /// Looks up a live instance.
    pub fn instance(&self, id: InstanceId) -> Option<Arc<Instance>> {
        self.instances.read().get(&id).cloned()
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.instances.read().len()
    }

    /// Snapshot of all live instances, ordered by instance id.
    pub fn instances_snapshot(&self) -> Vec<Arc<Instance>> {
        let mut all: Vec<_> = self.instances.read().values().cloned().collect();
        all.sort_by_key(|i| i.id);
        all
    }

    /// The machine of the currently executing instance (client at top level).
    pub fn current_machine(&self) -> MachineId {
        let stack = self.stack.lock();
        match stack.last() {
            Some(frame) => self
                .instance(frame.instance)
                .map(|i| i.machine())
                .unwrap_or(MachineId::CLIENT),
            None => MachineId::CLIENT,
        }
    }

    /// Snapshot of the interface-call back-trace (innermost frame last).
    pub fn call_stack(&self) -> Vec<Frame> {
        self.stack.lock().clone()
    }

    pub(crate) fn push_frame(&self, frame: Frame) {
        self.stack.lock().push(frame);
    }

    pub(crate) fn pop_frame(&self) {
        self.stack.lock().pop();
    }

    /// Charges `us` microseconds of compute on the instance's machine,
    /// scaled by that machine's CPU factor.
    pub(crate) fn charge_compute(&self, instance: InstanceId, us: u64) {
        let machine = self
            .instance(instance)
            .map(|i| i.machine())
            .unwrap_or(MachineId::CLIENT);
        let scale = self
            .machines
            .get(machine.0 as usize)
            .map(|m| m.cpu_scale)
            .unwrap_or(1.0);
        let scaled = (us as f64 / scale).round() as u64;
        self.clock.advance_us(scaled);
        self.stats.lock().compute_us += scaled;
    }

    /// Records `us` microseconds of communication moving `bytes` bytes in
    /// `messages` messages (called by the transport layer).
    pub fn charge_comm(&self, us: u64, bytes: u64, messages: u64) {
        self.clock.advance_us(us);
        let mut stats = self.stats.lock();
        stats.comm_us += us;
        stats.bytes += bytes;
        stats.messages += messages;
        stats.cross_machine_calls += 1;
    }

    /// Snapshot of the run statistics.
    pub fn stats(&self) -> RtStats {
        *self.stats.lock()
    }
}

/// Terminal invoker: dispatches into the component object, maintaining the
/// call-frame stack around the dispatch.
struct DirectInvoker {
    object: Arc<dyn ComObject>,
}

/// Pops the frame on drop so a propagating error cannot corrupt the stack.
struct FrameGuard<'a> {
    rt: &'a ComRuntime,
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.rt.pop_frame();
    }
}

impl Invoker for DirectInvoker {
    fn invoke(&self, rt: &ComRuntime, call: CallInfo<'_>, msg: &mut Message) -> ComResult<()> {
        rt.stats.lock().calls += 1;
        for hook in rt.hooks_snapshot() {
            hook.call_dispatched(rt, &call);
        }
        rt.push_frame(Frame {
            instance: call.owner,
            clsid: call.owner_clsid,
            iid: call.desc.iid,
            method: call.method,
        });
        let _guard = FrameGuard { rt };
        let ctx = CallCtx::new(rt, call.owner);
        self.object.invoke(&ctx, call.desc.iid, call.method, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::InterfaceBuilder;
    use crate::registry::ApiImports;
    use crate::value::{PType, Value};
    use parking_lot::Mutex as PlMutex;

    /// A counter component: `Add(x)` accumulates, `Total() -> i4` reports.
    struct Counter {
        total: PlMutex<i32>,
    }

    impl ComObject for Counter {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            match method {
                0 => {
                    let x = msg.arg(0).and_then(Value::as_i4).unwrap_or(0);
                    *self.total.lock() += x;
                    ctx.compute(5);
                    Ok(())
                }
                1 => {
                    msg.set(0, Value::I4(*self.total.lock()));
                    Ok(())
                }
                _ => Err(ComError::App("bad method".into())),
            }
        }
    }

    fn icounter() -> std::sync::Arc<crate::idl::InterfaceDesc> {
        InterfaceBuilder::new("ICounter")
            .method("Add", |m| m.input("x", PType::I4))
            .method("Total", |m| m.output("total", PType::I4))
            .build()
    }

    fn setup() -> (ComRuntime, Clsid, Iid) {
        let rt = ComRuntime::client_server();
        let iface = icounter();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Counter", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(Counter {
                    total: PlMutex::new(0),
                })
            });
        (rt, clsid, iid)
    }

    #[test]
    fn create_call_roundtrip() {
        let (rt, clsid, iid) = setup();
        let ptr = rt.create_instance(clsid, iid).unwrap();
        ptr.call(&rt, 0, &mut Message::new(vec![Value::I4(7)]))
            .unwrap();
        ptr.call(&rt, 0, &mut Message::new(vec![Value::I4(3)]))
            .unwrap();
        let mut out = Message::outputs(1);
        ptr.call(&rt, 1, &mut out).unwrap();
        assert_eq!(out.arg(0).unwrap().as_i4(), Some(10));
    }

    #[test]
    fn compute_time_is_charged() {
        let (rt, clsid, iid) = setup();
        let ptr = rt.create_instance(clsid, iid).unwrap();
        ptr.call(&rt, 0, &mut Message::new(vec![Value::I4(1)]))
            .unwrap();
        assert_eq!(rt.clock().now_us(), 5);
        assert_eq!(rt.stats().compute_us, 5);
        assert_eq!(rt.stats().calls, 1);
    }

    #[test]
    fn cpu_scale_divides_compute() {
        let rt = ComRuntime::new(vec![MachineSpec::new("fast", 2.0)]);
        let iface = icounter();
        let iid = iface.iid;
        let clsid = rt
            .registry()
            .register("Counter", vec![iface], ApiImports::NONE, |_, _| {
                Arc::new(Counter {
                    total: PlMutex::new(0),
                })
            });
        let ptr = rt.create_instance(clsid, iid).unwrap();
        ptr.call(&rt, 0, &mut Message::new(vec![Value::I4(1)]))
            .unwrap();
        assert_eq!(rt.clock().now_us(), 3); // 5 us / 2.0, rounded
    }

    #[test]
    fn missing_interface_is_rejected() {
        let (rt, clsid, _) = setup();
        let err = rt
            .create_instance(clsid, Iid::from_name("IOther"))
            .unwrap_err();
        assert!(matches!(err, ComError::NoInterface { .. }));
        // Failed creation leaves no orphan instance behind.
        assert_eq!(rt.instance_count(), 0);
    }

    #[test]
    fn unknown_class_is_rejected() {
        let (rt, _, iid) = setup();
        let err = rt
            .create_instance(Clsid::from_name("Nope"), iid)
            .unwrap_err();
        assert!(matches!(err, ComError::UnknownClass(_)));
    }

    #[test]
    fn hook_can_fulfill_creation_remotely() {
        struct RemoteHook;
        impl RuntimeHook for RemoteHook {
            fn fulfill_create(
                &self,
                rt: &ComRuntime,
                req: &CreateRequest,
            ) -> Option<ComResult<InterfacePtr>> {
                Some(rt.create_direct(req.clsid, req.iid, Some(MachineId::SERVER)))
            }
        }
        let (rt, clsid, iid) = setup();
        rt.add_hook(Arc::new(RemoteHook));
        let ptr = rt.create_instance(clsid, iid).unwrap();
        assert_eq!(
            rt.instance(ptr.owner()).unwrap().machine(),
            MachineId::SERVER
        );
    }

    #[test]
    fn wrap_hook_sees_every_pointer() {
        struct CountingWrap {
            wrapped: AtomicU64,
        }
        impl RuntimeHook for CountingWrap {
            fn wrap_interface(&self, _rt: &ComRuntime, ptr: InterfacePtr) -> InterfacePtr {
                self.wrapped.fetch_add(1, Ordering::Relaxed);
                ptr
            }
        }
        let (rt, clsid, iid) = setup();
        let hook = Arc::new(CountingWrap {
            wrapped: AtomicU64::new(0),
        });
        rt.add_hook(hook.clone());
        let ptr = rt.create_instance(clsid, iid).unwrap();
        rt.query_interface(&ptr, iid).unwrap();
        assert_eq!(hook.wrapped.load(Ordering::Relaxed), 2);
    }

    /// A component that creates a child during a call, so tests can observe
    /// the call stack at instantiation time.
    struct Spawner {
        child_clsid: Clsid,
        child_iid: Iid,
    }

    impl ComObject for Spawner {
        fn invoke(
            &self,
            ctx: &CallCtx<'_>,
            _iid: Iid,
            method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            match method {
                0 => {
                    let child = ctx.create(self.child_clsid, self.child_iid)?;
                    msg.set(0, Value::Interface(Some(child)));
                    Ok(())
                }
                _ => Err(ComError::App("bad method".into())),
            }
        }
    }

    #[test]
    fn stack_is_visible_at_instantiation_time() {
        struct StackSnap {
            depth_at_create: AtomicU64,
        }
        impl RuntimeHook for StackSnap {
            fn instance_created(&self, rt: &ComRuntime, _id: InstanceId, clsid: Clsid) {
                if clsid == Clsid::from_name("Counter") {
                    self.depth_at_create
                        .store(rt.call_stack().len() as u64, Ordering::Relaxed);
                }
            }
        }

        let (rt, counter_clsid, counter_iid) = setup();
        let ispawn = InterfaceBuilder::new("ISpawner")
            .method("Spawn", |m| {
                m.output("child", PType::Interface(Iid::from_name("ICounter")))
            })
            .build();
        let spawn_iid = ispawn.iid;
        let spawn_clsid =
            rt.registry()
                .register("Spawner", vec![ispawn], ApiImports::NONE, move |_, _| {
                    Arc::new(Spawner {
                        child_clsid: counter_clsid,
                        child_iid: counter_iid,
                    })
                });
        let hook = Arc::new(StackSnap {
            depth_at_create: AtomicU64::new(99),
        });
        rt.add_hook(hook.clone());

        let spawner = rt.create_instance(spawn_clsid, spawn_iid).unwrap();
        let mut msg = Message::outputs(1);
        spawner.call(&rt, 0, &mut msg).unwrap();
        // The Counter was created from inside Spawner::Spawn → depth 1.
        assert_eq!(hook.depth_at_create.load(Ordering::Relaxed), 1);
        // After the call returns the stack is empty again.
        assert!(rt.call_stack().is_empty());
        // The returned child pointer works.
        let child = msg.arg(0).unwrap().as_interface().unwrap().clone();
        child
            .call(&rt, 0, &mut Message::new(vec![Value::I4(2)]))
            .unwrap();
    }

    #[test]
    fn stack_unwinds_on_error() {
        let (rt, clsid, iid) = setup();
        let ptr = rt.create_instance(clsid, iid).unwrap();
        let err = ptr.call(&rt, 1, &mut Message::empty());
        // Method 1 wants one out param; arity check fails before dispatch...
        assert!(err.is_err());
        // ...and even a dispatched failure leaves the stack clean.
        assert!(rt.call_stack().is_empty());
    }

    #[test]
    fn snapshot_is_ordered_by_id() {
        let (rt, clsid, iid) = setup();
        for _ in 0..5 {
            rt.create_instance(clsid, iid).unwrap();
        }
        let snap = rt.instances_snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].id < w[1].id));
    }
}
