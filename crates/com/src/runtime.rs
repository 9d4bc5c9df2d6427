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
//!
//! **Ownership.** The runtime's instance table is the only owner of a
//! component object, for the runtime's whole lifetime: instances are never
//! removed while it lives. An [`InterfacePtr`] reaches its object weakly, so
//! components that hold each other's pointers (or their own) form no
//! reference cycle, and dropping the runtime frees every component together
//! with every pointer and wrapper it held. A call through a pointer that
//! outlived its runtime returns [`ComError::DeadInstance`].
//!
//! Instance ids are dense indices: the runtime allocates them from 1 with
//! no gaps, and the table keeps instance `id` in slot `id - 1`. Finding an
//! instance is an index, not a hash, and the table is in id order by
//! construction.

use crate::clock::SimClock;
use crate::error::{ComError, ComResult};
use crate::guid::{Clsid, Iid};
use crate::interface::{CallInfo, InterfacePtr, Invoker, Message};
use crate::object::{CallCtx, ComObject, Instance, InstanceId, MachineId};
use crate::registry::ClassRegistry;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

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

/// The counters behind [`RtStats`]. Each is `Relaxed`: a statistic
/// publishes no other data.
#[derive(Default)]
struct StatCounters {
    compute_us: AtomicU64,
    comm_us: AtomicU64,
    messages: AtomicU64,
    bytes: AtomicU64,
    calls: AtomicU64,
    cross_machine_calls: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// The slot of instance `id` in the instance table (`None` for id 0).
fn slot(id: InstanceId) -> Option<usize> {
    usize::try_from(id.0).ok()?.checked_sub(1)
}

/// The component runtime (`CoCreateInstance`, interception, accounting).
pub struct ComRuntime {
    registry: ClassRegistry,
    clock: SimClock,
    machines: Vec<MachineSpec>,
    /// Slot `id - 1` holds instance `id`. A slot is `None` only while its
    /// instance's factory runs (it may create instances of its own first).
    instances: RwLock<Vec<Option<Arc<Instance>>>>,
    next_instance: AtomicU64,
    /// Replaced whole on change, so a snapshot is one `Arc` clone.
    hooks: RwLock<Arc<[Arc<dyn RuntimeHook>]>>,
    stack: Mutex<Vec<Frame>>,
    stats: StatCounters,
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
            instances: RwLock::new(Vec::new()),
            next_instance: AtomicU64::new(1),
            hooks: RwLock::new(Arc::new([])),
            stack: Mutex::new(Vec::new()),
            stats: StatCounters::default(),
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
        let mut hooks = self.hooks.write();
        *hooks = hooks.iter().cloned().chain([hook]).collect();
    }

    /// Removes all interception hooks.
    pub fn clear_hooks(&self) {
        *self.hooks.write() = Arc::new([]);
    }

    fn hooks_snapshot(&self) -> Arc<[Arc<dyn RuntimeHook>]> {
        self.hooks.read().clone()
    }

    /// Instantiates a component, giving hooks a chance to intercept
    /// (the `CoCreateInstance` entry point).
    pub fn create_instance(&self, clsid: Clsid, iid: Iid) -> ComResult<InterfacePtr> {
        let req = CreateRequest { clsid, iid };
        for hook in self.hooks_snapshot().iter() {
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
        {
            let index = slot(id).expect("instance ids start at 1");
            let mut slots = self.instances.write();
            if slots.len() <= index {
                slots.resize(index + 1, None);
            }
            slots[index] = Some(instance);
        }
        for hook in self.hooks_snapshot().iter() {
            hook.instance_created(self, id, clsid);
        }
        self.make_ptr(id, iid)
    }

    /// Builds a (wrapped) interface pointer for an existing instance —
    /// the `QueryInterface` equivalent by instance id.
    pub fn make_ptr(&self, id: InstanceId, iid: Iid) -> ComResult<InterfacePtr> {
        let (clsid, object) = self
            .with_instance(id, |instance| {
                (instance.clsid, Arc::downgrade(&instance.object))
            })
            .ok_or(ComError::DeadInstance(id.0))?;
        let class = self.registry.get(clsid)?;
        let desc = class
            .interface(iid)
            .ok_or(ComError::NoInterface { clsid, iid })?
            .clone();
        let mut ptr = InterfacePtr::from_parts(desc, id, clsid, Arc::new(DirectInvoker { object }));
        for hook in self.hooks_snapshot().iter() {
            ptr = hook.wrap_interface(self, ptr);
        }
        Ok(ptr)
    }

    /// Returns another interface of the same instance (`QueryInterface`).
    pub fn query_interface(&self, ptr: &InterfacePtr, iid: Iid) -> ComResult<InterfacePtr> {
        self.make_ptr(ptr.owner(), iid)
    }

    /// Runs `f` on a live instance, borrowed under the table's read lock.
    fn with_instance<R>(&self, id: InstanceId, f: impl FnOnce(&Arc<Instance>) -> R) -> Option<R> {
        self.instances.read().get(slot(id)?)?.as_ref().map(f)
    }

    /// Looks up a live instance.
    pub fn instance(&self, id: InstanceId) -> Option<Arc<Instance>> {
        self.with_instance(id, Arc::clone)
    }

    /// The machine a live instance is on, read without cloning the record.
    pub fn instance_machine(&self, id: InstanceId) -> Option<MachineId> {
        self.with_instance(id, |instance| instance.machine())
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.instances.read().iter().flatten().count()
    }

    /// Snapshot of all live instances, ordered by instance id (the table's
    /// own order).
    pub fn instances_snapshot(&self) -> Vec<Arc<Instance>> {
        self.instances.read().iter().flatten().cloned().collect()
    }

    /// The live instances from table slot `from` on, in id order, and the
    /// first slot at or after `from` that is still empty (the table
    /// length when none is, or `from` past it). Slots fill once and are
    /// never emptied, so every slot below the returned one stays filled:
    /// a caller that walked up to it can resume there and see only
    /// instances created since. An empty slot below a filled one is an id
    /// whose component is still being constructed (its factory created
    /// the later instance).
    pub fn instances_from(&self, from: usize) -> (Vec<Arc<Instance>>, usize) {
        let slots = self.instances.read();
        let tail = slots.get(from..).unwrap_or_default();
        let first_empty = tail
            .iter()
            .position(Option::is_none)
            .map_or(slots.len().max(from), |gap| from + gap);
        (tail.iter().flatten().cloned().collect(), first_empty)
    }

    /// The machine of the currently executing instance (client at top level).
    pub fn current_machine(&self) -> MachineId {
        self.innermost_frame()
            .and_then(|frame| self.instance_machine(frame.instance))
            .unwrap_or(MachineId::CLIENT)
    }

    /// Runs `f` on the interface-call back-trace (innermost frame last),
    /// borrowed under the stack lock: `f` must not call into the runtime.
    pub fn with_call_stack<R>(&self, f: impl FnOnce(&[Frame]) -> R) -> R {
        f(&self.stack.lock())
    }

    /// The innermost frame of the back-trace (`None` at top level).
    pub fn innermost_frame(&self) -> Option<Frame> {
        self.stack.lock().last().copied()
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
        let machine = self.instance_machine(instance).unwrap_or(MachineId::CLIENT);
        let scale = self
            .machines
            .get(machine.0 as usize)
            .map(|m| m.cpu_scale)
            .unwrap_or(1.0);
        let scaled = (us as f64 / scale).round() as u64;
        self.clock.advance_us(scaled);
        bump(&self.stats.compute_us, scaled);
    }

    /// Records `us` microseconds of communication moving `bytes` bytes in
    /// `messages` messages (called by the transport layer).
    pub fn charge_comm(&self, us: u64, bytes: u64, messages: u64) {
        self.clock.advance_us(us);
        bump(&self.stats.comm_us, us);
        bump(&self.stats.bytes, bytes);
        bump(&self.stats.messages, messages);
        bump(&self.stats.cross_machine_calls, 1);
    }

    /// Snapshot of the run statistics.
    pub fn stats(&self) -> RtStats {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        RtStats {
            compute_us: read(&self.stats.compute_us),
            comm_us: read(&self.stats.comm_us),
            messages: read(&self.stats.messages),
            bytes: read(&self.stats.bytes),
            calls: read(&self.stats.calls),
            cross_machine_calls: read(&self.stats.cross_machine_calls),
        }
    }
}

/// Terminal invoker: dispatches into the component object, maintaining the
/// call-frame stack around the dispatch. The object is owned by the
/// runtime's instance table; the pointer only reaches it.
struct DirectInvoker {
    object: Weak<dyn ComObject>,
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
        let object = self
            .object
            .upgrade()
            .ok_or(ComError::DeadInstance(call.owner.0))?;
        bump(&rt.stats.calls, 1);
        rt.push_frame(Frame {
            instance: call.owner,
            clsid: call.owner_clsid,
            iid: call.desc.iid,
            method: call.method,
        });
        let _guard = FrameGuard { rt };
        let ctx = CallCtx::new(rt, call.owner);
        object.invoke(&ctx, call.desc.iid, call.method, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::InterfaceBuilder;
    use crate::registry::ApiImports;
    use crate::value::{PType, Value};
    use parking_lot::Mutex as PlMutex;
    use std::sync::atomic::AtomicBool;

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
                        .store(rt.with_call_stack(<[Frame]>::len) as u64, Ordering::Relaxed);
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
        assert!(rt.with_call_stack(<[Frame]>::is_empty));
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
        assert!(rt.with_call_stack(<[Frame]>::is_empty));
    }

    /// A component that keeps whatever interface pointer it is handed and
    /// raises its flag when it is freed.
    struct Holder {
        held: PlMutex<Option<InterfacePtr>>,
        dropped: Arc<AtomicBool>,
    }

    impl ComObject for Holder {
        fn invoke(
            &self,
            _ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            msg: &mut Message,
        ) -> ComResult<()> {
            *self.held.lock() = msg.arg(0).and_then(Value::as_interface).cloned();
            Ok(())
        }
    }

    impl Drop for Holder {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::Relaxed);
        }
    }

    /// One drop flag per `Holder` created, in creation order.
    type DropFlags = Arc<PlMutex<Vec<Arc<AtomicBool>>>>;

    /// A runtime whose `Holder` class records one drop flag per instance.
    fn holder_runtime() -> (ComRuntime, Clsid, Iid, DropFlags) {
        let rt = ComRuntime::client_server();
        let iholder = InterfaceBuilder::new("IHolder")
            .method("Hold", |m| {
                m.input("peer", PType::Interface(Iid::from_name("IHolder")))
            })
            .build();
        let iid = iholder.iid;
        let flags = Arc::new(PlMutex::new(Vec::new()));
        let factory_flags = flags.clone();
        let clsid =
            rt.registry()
                .register("Holder", vec![iholder], ApiImports::NONE, move |_, _| {
                    let dropped = Arc::new(AtomicBool::new(false));
                    factory_flags.lock().push(dropped.clone());
                    Arc::new(Holder {
                        held: PlMutex::new(None),
                        dropped,
                    })
                });
        (rt, clsid, iid, flags)
    }

    fn hold(rt: &ComRuntime, holder: &InterfacePtr, peer: &InterfacePtr) {
        let mut msg = Message::new(vec![Value::Interface(Some(peer.clone()))]);
        holder.call(rt, 0, &mut msg).unwrap();
    }

    #[test]
    fn components_holding_each_other_are_freed_with_their_runtime() {
        let (rt, clsid, iid, flags) = holder_runtime();
        let a = rt.create_instance(clsid, iid).unwrap();
        let b = rt.create_instance(clsid, iid).unwrap();
        let c = rt.create_instance(clsid, iid).unwrap();
        hold(&rt, &a, &b);
        hold(&rt, &b, &a);
        hold(&rt, &c, &c);
        assert_eq!(flags.lock().len(), 3);
        assert!(flags.lock().iter().all(|f| !f.load(Ordering::Relaxed)));

        // The caller's own pointers outlive the runtime, yet keep nothing.
        drop(rt);
        assert!(flags.lock().iter().all(|f| f.load(Ordering::Relaxed)));
        drop((a, b, c));
    }

    #[test]
    fn a_pointer_called_after_its_runtime_is_dropped_is_a_dead_instance() {
        let (rt, clsid, iid, _) = holder_runtime();
        let ptr = rt.create_instance(clsid, iid).unwrap();
        let owner = ptr.owner();
        hold(&rt, &ptr, &ptr);
        drop(rt);

        let other = ComRuntime::single_machine();
        let mut msg = Message::new(vec![Value::Interface(None)]);
        let err = ptr.call(&other, 0, &mut msg).unwrap_err();
        assert!(matches!(err, ComError::DeadInstance(id) if id == owner.0));
        assert_eq!(other.stats().calls, 0);
        assert!(other.with_call_stack(<[Frame]>::is_empty));
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

    /// A component whose factory creates a child before it is itself in the
    /// table, so ids enter the table out of order.
    struct Nest {
        _child: InterfacePtr,
    }

    impl ComObject for Nest {
        fn invoke(
            &self,
            _ctx: &CallCtx<'_>,
            _iid: Iid,
            _method: u32,
            _msg: &mut Message,
        ) -> ComResult<()> {
            Ok(())
        }
    }

    #[test]
    fn instances_are_found_by_id_whatever_order_they_enter_the_table() {
        let (rt, counter, counter_iid) = setup();
        let inest = InterfaceBuilder::new("INest").build();
        let nest_iid = inest.iid;
        let nest = rt
            .registry()
            .register("Nest", vec![inest], ApiImports::NONE, move |rt, _| {
                let child = rt
                    .create_instance(counter, counter_iid)
                    .expect("Counter is registered");
                Arc::new(Nest { _child: child })
            });
        // Nest #1's factory creates Counter #2, which is inserted first.
        let first = rt.create_instance(nest, nest_iid).unwrap();
        let second = rt.create_instance(nest, nest_iid).unwrap();
        assert_eq!(
            (first.owner(), second.owner()),
            (InstanceId(1), InstanceId(3))
        );
        for (id, clsid) in [(1, nest), (2, counter), (3, nest), (4, counter)] {
            let instance = rt.instance(InstanceId(id)).unwrap();
            assert_eq!((instance.id, instance.clsid), (InstanceId(id), clsid));
            assert_eq!(rt.instance_machine(InstanceId(id)), Some(MachineId::CLIENT));
        }
        let order: Vec<u64> = rt.instances_snapshot().iter().map(|i| i.id.0).collect();
        assert_eq!(order, [1, 2, 3, 4]);
        assert_eq!(rt.instance_count(), 4);
        // Dense: slot `id - 1` holds instance `id`, so no slot is spare.
        assert_eq!(rt.instances.read().len(), 4);
        for missing in [InstanceId(0), InstanceId(5), InstanceId(u64::MAX)] {
            assert!(rt.instance(missing).is_none());
            assert_eq!(rt.instance_machine(missing), None);
        }

        rt.instance(InstanceId(2))
            .unwrap()
            .set_machine(MachineId::SERVER);
        assert_eq!(rt.instance_machine(InstanceId(2)), Some(MachineId::SERVER));
        assert_eq!(rt.instance_machine(InstanceId(4)), Some(MachineId::CLIENT));
    }

    #[test]
    fn a_walk_resumed_at_the_first_empty_slot_sees_a_late_lower_id() {
        let (rt, counter, counter_iid) = setup();
        let inest = InterfaceBuilder::new("INest").build();
        let nest_iid = inest.iid;
        // What a walk resumed from the mark sees, taken inside Nest's
        // factory: after its child (the higher id) entered the table and
        // before Nest itself (the lower id) does.
        let mark = Arc::new(PlMutex::new(0usize));
        let seen_inside = Arc::new(PlMutex::new(Vec::new()));
        let nest = {
            let (mark, seen_inside) = (mark.clone(), seen_inside.clone());
            rt.registry()
                .register("Nest", vec![inest], ApiImports::NONE, move |rt, _| {
                    let child = rt
                        .create_instance(counter, counter_iid)
                        .expect("Counter is registered");
                    let (walked, next) = rt.instances_from(*mark.lock());
                    seen_inside.lock().extend(walked.iter().map(|i| i.id.0));
                    *mark.lock() = next;
                    Arc::new(Nest { _child: child })
                })
        };
        let walk = |from: usize| {
            let (walked, next) = rt.instances_from(from);
            (walked.iter().map(|i| i.id.0).collect::<Vec<_>>(), next)
        };

        rt.create_instance(counter, counter_iid).unwrap();
        assert_eq!(walk(0), (vec![1], 1));
        *mark.lock() = 1;
        // Nest takes id 2; its factory creates Counter 3 first.
        rt.create_instance(nest, nest_iid).unwrap();
        // The walk inside the factory saw 3 and stopped its mark at the
        // still-empty slot of 2, not past the highest id it saw.
        assert_eq!(*seen_inside.lock(), [3]);
        assert_eq!(*mark.lock(), 1);
        // Resuming there finds 2 (and revisits 3); then nothing is new.
        assert_eq!(walk(1), (vec![2, 3], 3));
        assert_eq!(walk(3), (vec![], 3));
        // A mark past the table's end is its own answer.
        assert_eq!(walk(9), (vec![], 9));
    }
}
