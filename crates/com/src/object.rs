//! Component objects, instances, and machine placement.

use crate::error::ComResult;
use crate::guid::{Clsid, Iid};
use crate::interface::Message;
use crate::runtime::ComRuntime;
use std::fmt;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// Identifies one component *instance* within an execution.
///
/// Instance ids are allocated sequentially by the runtime; the order of
/// allocation is what the paper's "incremental" straw-man classifier keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifies a machine in the network topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u16);

impl MachineId {
    /// The client machine — where a non-distributed application runs.
    pub const CLIENT: MachineId = MachineId(0);
    /// The server machine of a two-machine, client/server distribution.
    pub const SERVER: MachineId = MachineId(1);
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MachineId::CLIENT => write!(f, "client"),
            MachineId::SERVER => write!(f, "server"),
            MachineId(n) => write!(f, "machine{n}"),
        }
    }
}

/// Per-call context handed to a component implementation.
///
/// Gives the component access to the runtime (to instantiate children, make
/// nested calls, or charge compute time) and to its own identity.
pub struct CallCtx<'a> {
    rt: &'a ComRuntime,
    self_id: InstanceId,
}

impl<'a> CallCtx<'a> {
    /// Creates a call context (used by the dispatch machinery).
    pub(crate) fn new(rt: &'a ComRuntime, self_id: InstanceId) -> Self {
        CallCtx { rt, self_id }
    }

    /// The runtime executing this call.
    pub fn rt(&self) -> &'a ComRuntime {
        self.rt
    }

    /// The instance being invoked.
    pub fn self_id(&self) -> InstanceId {
        self.self_id
    }

    /// Instantiates a child component (equivalent to `CoCreateInstance`).
    pub fn create(&self, clsid: Clsid, iid: Iid) -> ComResult<crate::interface::InterfacePtr> {
        self.rt.create_instance(clsid, iid)
    }

    /// Charges `us` microseconds of compute time on this instance's machine.
    pub fn compute(&self, us: u64) {
        self.rt.charge_compute(self.self_id, us);
    }
}

/// The behavior of a component class: every simCOM component implements this.
///
/// `invoke` receives the interface and method being called plus the message
/// holding `[in]` arguments; it fills `[out]` arguments in place. This is the
/// moral equivalent of a COM vtable dispatch, routed dynamically so runtimes
/// can interpose.
pub trait ComObject: Send + Sync {
    /// Dispatches a method call on one of the component's interfaces.
    fn invoke(&self, ctx: &CallCtx<'_>, iid: Iid, method: u32, msg: &mut Message) -> ComResult<()>;

    /// A hash of the component's observable instance state, if the
    /// component exposes one.
    ///
    /// The profiling runtime fingerprints instances before and after each
    /// call to cross-check declared [`crate::idl::StateEffect`] annotations:
    /// a method declared `Pure`/`ReadsState` whose fingerprint changed is a
    /// lying annotation (diagnostic COIGN045). The default `None` opts the
    /// component out of the check — absence of a fingerprint is never
    /// treated as evidence either way.
    fn state_fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Runtime record for a live component instance.
pub struct Instance {
    /// Unique id of the instance.
    pub id: InstanceId,
    /// Class of the instance.
    pub clsid: Clsid,
    /// The implementation object.
    pub object: Arc<dyn ComObject>,
    /// Machine the instance currently lives on. `Relaxed` suffices: the
    /// value publishes no other data, and all accesses to one atomic agree
    /// on the order of its writes.
    machine: AtomicU16,
}

impl Instance {
    /// Creates an instance record.
    pub(crate) fn new(
        id: InstanceId,
        clsid: Clsid,
        object: Arc<dyn ComObject>,
        machine: MachineId,
    ) -> Arc<Self> {
        Arc::new(Instance {
            id,
            clsid,
            object,
            machine: AtomicU16::new(machine.0),
        })
    }

    /// Machine the instance currently lives on.
    pub fn machine(&self) -> MachineId {
        MachineId(self.machine.load(Ordering::Relaxed))
    }

    /// Moves the instance to another machine (used when a distribution is
    /// realized).
    pub fn set_machine(&self, m: MachineId) {
        self.machine.store(m.0, Ordering::Relaxed);
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("id", &self.id)
            .field("clsid", &self.clsid)
            .field("machine", &self.machine())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl ComObject for Nop {
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
    fn machine_ids_display() {
        assert_eq!(MachineId::CLIENT.to_string(), "client");
        assert_eq!(MachineId::SERVER.to_string(), "server");
        assert_eq!(MachineId(3).to_string(), "machine3");
    }

    #[test]
    fn instance_machine_is_mutable() {
        let inst = Instance::new(
            InstanceId(1),
            Clsid::from_name("X"),
            Arc::new(Nop),
            MachineId::CLIENT,
        );
        assert_eq!(inst.machine(), MachineId::CLIENT);
        inst.set_machine(MachineId::SERVER);
        assert_eq!(inst.machine(), MachineId::SERVER);
    }

    #[test]
    fn instance_ids_order_by_allocation() {
        assert!(InstanceId(1) < InstanceId(2));
        assert_eq!(InstanceId(7).to_string(), "#7");
    }
}
