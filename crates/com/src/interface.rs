//! Interface pointers, messages, and the invoker chain.
//!
//! An [`InterfacePtr`] is the simulation's equivalent of a COM interface
//! pointer: a refcounted handle through which *all* first-class communication
//! flows. Every pointer carries its static metadata ([`InterfaceDesc`]), the
//! identity of the owning component instance, and an [`Invoker`] — the
//! dispatch target.
//!
//! Interposition works exactly as in Coign's Runtime Executive: a runtime
//! "wraps" an interface by constructing a *new* pointer whose invoker performs
//! instrumentation (or remote proxying) and then forwards to the original
//! pointer. Application code cannot tell wrapped and unwrapped pointers apart.

use crate::error::{ComError, ComResult};
use crate::guid::{Clsid, Iid};
use crate::idl::InterfaceDesc;
use crate::object::InstanceId;
use crate::runtime::ComRuntime;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Argument/result package for one interface call.
///
/// On entry, `[in]` parameters hold caller-supplied values and `[out]`
/// parameters hold [`Value::Null`]; the callee fills the outputs in place.
#[derive(Clone, Debug, Default)]
pub struct Message {
    /// Positional arguments matching the method's parameter list.
    pub args: Vec<Value>,
}

impl Message {
    /// Creates a message from positional arguments.
    pub fn new(args: Vec<Value>) -> Self {
        Message { args }
    }

    /// Creates an empty message (for zero-argument methods).
    pub fn empty() -> Self {
        Message::default()
    }

    /// Creates a message with `n` arguments, all `Null` (outputs only).
    pub fn outputs(n: usize) -> Self {
        Message {
            args: vec![Value::Null; n],
        }
    }

    /// Borrow argument `i`, if present.
    pub fn arg(&self, i: usize) -> Option<&Value> {
        self.args.get(i)
    }

    /// Sets argument `i` (typically an out-parameter), growing with `Null`s
    /// if needed.
    pub fn set(&mut self, i: usize, v: Value) {
        if self.args.len() <= i {
            self.args.resize(i + 1, Value::Null);
        }
        self.args[i] = v;
    }
}

/// Description of an in-flight call, handed to every invoker in the chain.
#[derive(Clone, Copy)]
pub struct CallInfo<'a> {
    /// Static metadata of the interface being called.
    pub desc: &'a InterfaceDesc,
    /// Instance that owns the interface.
    pub owner: InstanceId,
    /// Class of the owning instance.
    pub owner_clsid: Clsid,
    /// Method index within the interface.
    pub method: u32,
}

/// Dispatch target of an interface pointer.
///
/// Terminal invokers dispatch into the component object; wrapper invokers
/// (instrumentation, remote proxies) do their work and forward to an inner
/// pointer.
pub trait Invoker: Send + Sync {
    /// Carries the call toward the component implementation.
    fn invoke(&self, rt: &ComRuntime, call: CallInfo<'_>, msg: &mut Message) -> ComResult<()>;
}

struct IfaceNode {
    desc: Arc<InterfaceDesc>,
    owner: InstanceId,
    owner_clsid: Clsid,
    invoker: Arc<dyn Invoker>,
}

/// A COM-style interface pointer: the unit of inter-component communication.
///
/// Cloning an `InterfacePtr` is reference-count duplication (`AddRef`).
#[derive(Clone)]
pub struct InterfacePtr {
    node: Arc<IfaceNode>,
}

impl InterfacePtr {
    /// Builds an interface pointer from parts (runtime/hook use).
    pub(crate) fn from_parts(
        desc: Arc<InterfaceDesc>,
        owner: InstanceId,
        owner_clsid: Clsid,
        invoker: Arc<dyn Invoker>,
    ) -> Self {
        InterfacePtr {
            node: Arc::new(IfaceNode {
                desc,
                owner,
                owner_clsid,
                invoker,
            }),
        }
    }

    /// Wraps this pointer with an interposed invoker, preserving identity
    /// metadata. The returned pointer is indistinguishable to callers.
    pub fn wrap(&self, invoker: Arc<dyn Invoker>) -> InterfacePtr {
        InterfacePtr::from_parts(
            self.node.desc.clone(),
            self.node.owner,
            self.node.owner_clsid,
            invoker,
        )
    }

    /// Static metadata of the interface.
    pub fn desc(&self) -> &Arc<InterfaceDesc> {
        &self.node.desc
    }

    /// Interface identifier.
    pub fn iid(&self) -> Iid {
        self.node.desc.iid
    }

    /// Identity of the owning component instance.
    pub fn owner(&self) -> InstanceId {
        self.node.owner
    }

    /// Calls a method by index.
    ///
    /// Validates the argument list against the IDL signature, then routes the
    /// call through the invoker chain (instrumentation wrappers, remote
    /// proxies, and finally the component object).
    pub fn call(&self, rt: &ComRuntime, method: u32, msg: &mut Message) -> ComResult<()> {
        let desc = &self.node.desc;
        let mdesc = desc.method(method).ok_or(ComError::BadMethod {
            iid: desc.iid,
            method,
        })?;
        mdesc
            .check_args(&msg.args)
            .map_err(|detail| ComError::BadParam { detail })?;
        let call = CallInfo {
            desc,
            owner: self.node.owner,
            owner_clsid: self.node.owner_clsid,
            method,
        };
        self.node.invoker.invoke(rt, call, msg)
    }
}

impl fmt::Debug for InterfacePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InterfacePtr({} of {})",
            self.node.desc.name, self.node.owner
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::InterfaceBuilder;
    use crate::value::PType;

    #[test]
    fn message_outputs_start_null() {
        let m = Message::outputs(3);
        assert_eq!(m.args.len(), 3);
        assert!(matches!(m.arg(0), Some(Value::Null)));
    }

    #[test]
    fn message_set_grows() {
        let mut m = Message::empty();
        m.set(2, Value::I4(9));
        assert_eq!(m.args.len(), 3);
        assert_eq!(m.arg(2).unwrap().as_i4(), Some(9));
    }

    struct FailInvoker;
    impl Invoker for FailInvoker {
        fn invoke(
            &self,
            _rt: &ComRuntime,
            _call: CallInfo<'_>,
            _msg: &mut Message,
        ) -> ComResult<()> {
            Err(ComError::App("should not be reached".into()))
        }
    }

    fn test_ptr() -> InterfacePtr {
        let desc = InterfaceBuilder::new("IThing")
            .method("Do", |m| m.input("x", PType::I4))
            .build();
        InterfacePtr::from_parts(
            desc,
            InstanceId(1),
            Clsid::from_name("Thing"),
            Arc::new(FailInvoker),
        )
    }

    #[test]
    fn bad_method_index_is_rejected_before_dispatch() {
        let rt = ComRuntime::single_machine();
        let ptr = test_ptr();
        let err = ptr.call(&rt, 5, &mut Message::empty()).unwrap_err();
        assert!(matches!(err, ComError::BadMethod { method: 5, .. }));
    }

    #[test]
    fn bad_args_are_rejected_before_dispatch() {
        let rt = ComRuntime::single_machine();
        let ptr = test_ptr();
        let err = ptr
            .call(&rt, 0, &mut Message::new(vec![Value::Bool(true)]))
            .unwrap_err();
        assert!(matches!(err, ComError::BadParam { .. }));
    }

    #[test]
    fn wrap_preserves_identity() {
        let ptr = test_ptr();
        let wrapped = ptr.wrap(Arc::new(FailInvoker));
        assert_eq!(wrapped.owner(), ptr.owner());
        assert_eq!(wrapped.iid(), ptr.iid());
        assert!(!Arc::ptr_eq(&wrapped.node, &ptr.node));
    }
}
