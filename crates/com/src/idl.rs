//! MIDL-equivalent interface metadata.
//!
//! COM interfaces are described in IDL and compiled by MIDL into format
//! strings and marshaling stubs; Coign's profiling informer consumes that
//! metadata to walk every parameter of every call. This module is the
//! simulation's equivalent: each [`InterfaceDesc`] carries the full method
//! table with per-parameter directions and types, and records whether the
//! interface is *remotable* (contains no opaque pointer parameters).

use crate::guid::Iid;
use crate::value::{PType, Value};
use std::sync::Arc;

/// Direction of a parameter: `[in]`, `[out]`, or `[in, out]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamDir {
    /// Marshaled with the request only.
    In,
    /// Marshaled with the reply only.
    Out,
    /// Marshaled with both the request and the reply.
    InOut,
}

impl ParamDir {
    /// Returns true if the parameter travels with the request message.
    pub fn in_request(self) -> bool {
        matches!(self, ParamDir::In | ParamDir::InOut)
    }

    /// Returns true if the parameter travels with the reply message.
    pub fn in_reply(self) -> bool {
        matches!(self, ParamDir::Out | ParamDir::InOut)
    }
}

/// Metadata for one parameter of an interface method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDesc {
    /// Parameter name (for diagnostics only).
    pub name: String,
    /// Marshal direction.
    pub dir: ParamDir,
    /// Static type.
    pub ty: PType,
}

impl ParamDesc {
    /// Creates a parameter description.
    pub fn new(name: &str, dir: ParamDir, ty: PType) -> Self {
        ParamDesc {
            name: name.to_string(),
            dir,
            ty,
        }
    }

    /// Shorthand for an `[in]` parameter.
    fn input(name: &str, ty: PType) -> Self {
        Self::new(name, ParamDir::In, ty)
    }

    /// Shorthand for an `[out]` parameter.
    fn output(name: &str, ty: PType) -> Self {
        Self::new(name, ParamDir::Out, ty)
    }
}

/// Declared effect of a method on its component's instance state.
///
/// Effect annotations are the input to the replication-legality analysis
/// (`coign check` stages 4 and 5): a class whose every method is `Pure` or
/// `ReadsState` is *immutable after construction* and may legally be
/// replicated onto several machines. The default for unannotated methods is
/// the conservative [`StateEffect::MutatesState`], so an application that
/// declares nothing is never misclassified as replicable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateEffect {
    /// The method neither reads nor writes instance state (a pure function
    /// of its arguments).
    Pure,
    /// The method reads instance state but never modifies it.
    ReadsState,
    /// The method may modify instance state (the conservative default).
    MutatesState,
}

impl StateEffect {
    /// Returns true if the method promises not to modify instance state.
    pub fn is_read_only(self) -> bool {
        matches!(self, StateEffect::Pure | StateEffect::ReadsState)
    }

    /// Short lowercase label used in diagnostics and dot output.
    pub fn label(self) -> &'static str {
        match self {
            StateEffect::Pure => "pure",
            StateEffect::ReadsState => "reads",
            StateEffect::MutatesState => "mutates",
        }
    }
}

/// Metadata for one method of an interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDesc {
    /// Method name (for diagnostics and classifier descriptors).
    pub name: String,
    /// Ordered parameter list.
    pub params: Vec<ParamDesc>,
    /// Declared effect on instance state (conservatively
    /// [`StateEffect::MutatesState`] unless annotated).
    pub effect: StateEffect,
}

impl MethodDesc {
    /// Creates a method description with the conservative
    /// [`StateEffect::MutatesState`] effect.
    pub fn new(name: &str, params: Vec<ParamDesc>) -> Self {
        MethodDesc {
            name: name.to_string(),
            params,
            effect: StateEffect::MutatesState,
        }
    }

    /// Creates a method description with an explicit state effect.
    fn with_effect(name: &str, params: Vec<ParamDesc>, effect: StateEffect) -> Self {
        MethodDesc {
            effect,
            ..Self::new(name, params)
        }
    }

    /// Returns true if every parameter type can cross a machine boundary.
    fn is_remotable(&self) -> bool {
        self.params.iter().all(|p| p.ty.is_remotable())
    }

    /// Validates an argument list against the signature.
    ///
    /// Checks arity and per-parameter structural conformance; `Null` is
    /// accepted anywhere (out-parameters start as `Null`).
    pub(crate) fn check_args(&self, args: &[Value]) -> Result<(), String> {
        if args.len() != self.params.len() {
            return Err(format!(
                "method {} expects {} args, got {}",
                self.name,
                self.params.len(),
                args.len()
            ));
        }
        for (value, param) in args.iter().zip(&self.params) {
            if !value.conforms_to(&param.ty) {
                return Err(format!(
                    "method {}: argument {:?} does not conform to parameter `{}` ({:?})",
                    self.name, value, param.name, param.ty
                ));
            }
        }
        Ok(())
    }
}

/// Full static metadata for a COM interface.
///
/// Interface descriptions are immutable and shared (`Arc`) between all
/// interface pointers of that type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceDesc {
    /// Interface identifier, derived from the name.
    pub iid: Iid,
    /// Interface name, e.g. `"IPropSet"`.
    pub name: String,
    /// Method table, indexed by method id.
    pub methods: Vec<MethodDesc>,
    /// True if every method of the interface can be remoted.
    ///
    /// A non-remotable (non-distributable) interface forces its two endpoint
    /// components onto the same machine — the paper's solid black edges in
    /// Figures 4 and 5.
    pub remotable: bool,
}

impl InterfaceDesc {
    /// Creates an interface description; remotability is computed from the
    /// method signatures.
    fn new(name: &str, methods: Vec<MethodDesc>) -> Arc<Self> {
        let remotable = methods.iter().all(MethodDesc::is_remotable);
        Arc::new(InterfaceDesc {
            iid: Iid::from_name(name),
            name: name.to_string(),
            methods,
            remotable,
        })
    }

    /// Looks up a method by index.
    pub fn method(&self, id: u32) -> Option<&MethodDesc> {
        self.methods.get(id as usize)
    }
}

/// Builder for interface descriptions, for ergonomic IDL-like definitions.
///
/// # Examples
///
/// ```
/// use coign_com::idl::InterfaceBuilder;
/// use coign_com::{ParamDir, PType};
///
/// let desc = InterfaceBuilder::new("IStream")
///     .method("Read", |m| {
///         m.input("count", PType::I4).output("data", PType::Blob)
///     })
///     .method("Seek", |m| m.input("pos", PType::I8))
///     .build();
/// assert!(desc.remotable);
/// assert_eq!(desc.methods[1].name, "Seek");
/// ```
pub struct InterfaceBuilder {
    name: String,
    methods: Vec<MethodDesc>,
}

/// Builder for a single method signature.
#[derive(Default)]
pub struct MethodBuilder {
    params: Vec<ParamDesc>,
    effect: Option<StateEffect>,
}

impl MethodBuilder {
    /// Adds an `[in]` parameter.
    pub fn input(mut self, name: &str, ty: PType) -> Self {
        self.params.push(ParamDesc::input(name, ty));
        self
    }

    /// Adds an `[out]` parameter.
    pub fn output(mut self, name: &str, ty: PType) -> Self {
        self.params.push(ParamDesc::output(name, ty));
        self
    }

    /// Declares the method a pure function of its arguments.
    pub fn pure(mut self) -> Self {
        self.effect = Some(StateEffect::Pure);
        self
    }

    /// Declares that the method reads but never modifies instance state.
    pub fn reads_state(mut self) -> Self {
        self.effect = Some(StateEffect::ReadsState);
        self
    }

    /// Declares that the method may modify instance state (this is also the
    /// default for unannotated methods).
    pub fn mutates_state(mut self) -> Self {
        self.effect = Some(StateEffect::MutatesState);
        self
    }
}

impl InterfaceBuilder {
    /// Starts a new interface definition.
    pub fn new(name: &str) -> Self {
        InterfaceBuilder {
            name: name.to_string(),
            methods: Vec::new(),
        }
    }

    /// Adds a method defined by the closure.
    pub fn method(
        mut self,
        name: &str,
        define: impl FnOnce(MethodBuilder) -> MethodBuilder,
    ) -> Self {
        let mb = define(MethodBuilder::default());
        let effect = mb.effect.unwrap_or(StateEffect::MutatesState);
        self.methods
            .push(MethodDesc::with_effect(name, mb.params, effect));
        self
    }

    /// Finishes the definition.
    pub fn build(self) -> Arc<InterfaceDesc> {
        InterfaceDesc::new(&self.name, self.methods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Arc<InterfaceDesc> {
        InterfaceBuilder::new("ISample")
            .method("Get", |m| {
                m.input("key", PType::Str).output("value", PType::I4)
            })
            .method("Put", |m| {
                m.input("key", PType::Str).input("value", PType::I4)
            })
            .build()
    }

    #[test]
    fn builder_produces_expected_table() {
        let desc = sample();
        assert_eq!(desc.methods.len(), 2);
        assert_eq!(desc.method(0).unwrap().name, "Get");
        assert_eq!(desc.method(1).unwrap().name, "Put");
        assert!(desc.method(9).is_none());
    }

    #[test]
    fn iid_derived_from_name() {
        assert_eq!(sample().iid, Iid::from_name("ISample"));
    }

    #[test]
    fn remotability_detects_opaque_params() {
        let desc = InterfaceBuilder::new("ISharedMem")
            .method("MapRegion", |m| m.input("handle", PType::Opaque))
            .build();
        assert!(!desc.remotable);
        assert!(!desc.method(0).unwrap().is_remotable());
    }

    #[test]
    fn param_directions() {
        assert!(ParamDir::In.in_request() && !ParamDir::In.in_reply());
        assert!(!ParamDir::Out.in_request() && ParamDir::Out.in_reply());
        assert!(ParamDir::InOut.in_request() && ParamDir::InOut.in_reply());
    }

    #[test]
    fn check_args_validates_arity() {
        let desc = sample();
        let m = desc.method(0).unwrap();
        assert!(m.check_args(&[Value::Str("k".into())]).is_err());
        assert!(m.check_args(&[Value::Str("k".into()), Value::Null]).is_ok());
    }

    #[test]
    fn check_args_validates_types() {
        let desc = sample();
        let m = desc.method(1).unwrap();
        let err = m.check_args(&[Value::I4(1), Value::I4(2)]).unwrap_err();
        assert!(err.contains("does not conform"));
    }

    #[test]
    fn unannotated_methods_default_to_mutates_state() {
        let desc = sample();
        assert_eq!(desc.method(0).unwrap().effect, StateEffect::MutatesState);
        assert_eq!(desc.method(1).unwrap().effect, StateEffect::MutatesState);
        assert_eq!(
            MethodDesc::new("M", vec![]).effect,
            StateEffect::MutatesState
        );
    }

    #[test]
    fn builder_effect_shorthands_stick() {
        let desc = InterfaceBuilder::new("IEffects")
            .method("Hash", |m| m.input("data", PType::Blob).pure())
            .method("Peek", |m| m.output("value", PType::I4).reads_state())
            .method("Poke", |m| m.input("value", PType::I4).mutates_state())
            .method("Quiet", |m| m.input("value", PType::I4))
            .build();
        assert_eq!(desc.method(0).unwrap().effect, StateEffect::Pure);
        assert_eq!(desc.method(1).unwrap().effect, StateEffect::ReadsState);
        assert_eq!(desc.method(2).unwrap().effect, StateEffect::MutatesState);
        assert_eq!(desc.method(3).unwrap().effect, StateEffect::MutatesState);
    }

    #[test]
    fn effect_read_only_predicate() {
        assert!(StateEffect::Pure.is_read_only());
        assert!(StateEffect::ReadsState.is_read_only());
        assert!(!StateEffect::MutatesState.is_read_only());
        assert_eq!(StateEffect::Pure.label(), "pure");
        assert_eq!(StateEffect::ReadsState.label(), "reads");
        assert_eq!(StateEffect::MutatesState.label(), "mutates");
    }
}
