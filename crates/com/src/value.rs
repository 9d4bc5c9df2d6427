//! Typed values exchanged across interface calls.
//!
//! The Coign profiling informer measures, for every interface call, the number
//! of bytes that *would* cross the network if caller and callee were on
//! different machines — following DCOM's deep-copy marshaling semantics. To do
//! that the simulation exchanges structured [`Value`] trees whose wire size is
//! well defined, rather than raw Rust types.
//!
//! Two variants deserve special mention:
//!
//! * [`Value::Blob`] carries only a *size*, not actual bytes, so a scenario
//!   that "loads a 3 MB composition" is cheap to simulate while still
//!   contributing 3 MB to the measured communication.
//! * [`Value::Opaque`] models a raw pointer passed through an interface (such
//!   as the shared-memory handles between PhotoDraw's sprite caches). Opaque
//!   values cannot be marshaled; an interface whose signature contains one is
//!   **non-remotable**, which is exactly what constrains Coign's distribution
//!   choices in the paper's Figures 4 and 5.

use crate::guid::Iid;
use crate::interface::InterfacePtr;
use std::fmt;

/// Static type of a parameter, as recorded in interface metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PType {
    /// 32-bit signed integer.
    I4,
    /// 64-bit signed integer.
    I8,
    /// 64-bit IEEE float.
    F8,
    /// Boolean (marshals as 4 bytes, like `VARIANT_BOOL` padding).
    Bool,
    /// Length-prefixed Unicode string (`BSTR`).
    Str,
    /// Untyped byte buffer whose length is dynamic (e.g. pixel data).
    Blob,
    /// Homogeneous array (`SAFEARRAY`) of the element type.
    Array(Box<PType>),
    /// Record with the given field types.
    Struct(Vec<PType>),
    /// Interface pointer of the given IID; marshals as an object reference.
    Interface(Iid),
    /// Raw pointer / handle that the standard marshaler cannot transfer.
    ///
    /// Any method with an `Opaque` parameter makes its whole interface
    /// non-remotable.
    Opaque,
}

impl PType {
    /// Returns true if a value of this type can cross a machine boundary.
    pub fn is_remotable(&self) -> bool {
        match self {
            PType::Opaque => false,
            PType::Array(elem) => elem.is_remotable(),
            PType::Struct(fields) => fields.iter().all(PType::is_remotable),
            _ => true,
        }
    }

    /// Appends every interface IID referenced by this type (recursing
    /// through arrays and structs) to `out`. Static analysis uses this to
    /// find interface-pointer parameters whose target interface is never
    /// declared by any registered class.
    pub fn collect_interface_iids(&self, out: &mut Vec<Iid>) {
        match self {
            PType::Interface(iid) => out.push(*iid),
            PType::Array(elem) => elem.collect_interface_iids(out),
            PType::Struct(fields) => {
                for field in fields {
                    field.collect_interface_iids(out);
                }
            }
            _ => {}
        }
    }
}

/// A dynamically typed value carried in a [`crate::interface::Message`].
#[derive(Clone)]
pub enum Value {
    /// 32-bit signed integer.
    I4(i32),
    /// 64-bit signed integer.
    I8(i64),
    /// 64-bit IEEE float.
    F8(f64),
    /// Boolean.
    Bool(bool),
    /// Unicode string.
    Str(String),
    /// Byte buffer of the given size (contents are not simulated).
    Blob(u64),
    /// Homogeneous array.
    Array(Vec<Value>),
    /// Record value.
    Struct(Vec<Value>),
    /// Interface pointer (None models a NULL interface out-parameter).
    Interface(Option<InterfacePtr>),
    /// Raw pointer / handle, identified only by a token.
    Opaque(u64),
    /// Placeholder for an out-parameter that has not been filled in yet.
    Null,
}

impl Value {
    /// Returns true if the value structurally conforms to the given type.
    ///
    /// `Null` conforms to every type (it is the pre-call state of an
    /// out-parameter).
    pub(crate) fn conforms_to(&self, ty: &PType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::I4(_), PType::I4) => true,
            (Value::I8(_), PType::I8) => true,
            (Value::F8(_), PType::F8) => true,
            (Value::Bool(_), PType::Bool) => true,
            (Value::Str(_), PType::Str) => true,
            (Value::Blob(_), PType::Blob) => true,
            (Value::Array(items), PType::Array(elem)) => items.iter().all(|v| v.conforms_to(elem)),
            (Value::Struct(fields), PType::Struct(tys)) => {
                fields.len() == tys.len() && fields.iter().zip(tys).all(|(v, t)| v.conforms_to(t))
            }
            (Value::Interface(_), PType::Interface(_)) => true,
            (Value::Opaque(_), PType::Opaque) => true,
            _ => false,
        }
    }

    /// Convenience accessor for an `I4` value.
    pub fn as_i4(&self) -> Option<i32> {
        match self {
            Value::I4(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor for a `Blob` size.
    pub fn as_blob(&self) -> Option<u64> {
        match self {
            Value::Blob(size) => Some(*size),
            _ => None,
        }
    }

    /// Convenience accessor for a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience accessor for an interface pointer.
    pub fn as_interface(&self) -> Option<&InterfacePtr> {
        match self {
            Value::Interface(Some(ptr)) => Some(ptr),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I4(v) => write!(f, "i4:{v}"),
            Value::I8(v) => write!(f, "i8:{v}"),
            Value::F8(v) => write!(f, "f8:{v}"),
            Value::Bool(v) => write!(f, "bool:{v}"),
            Value::Str(s) => write!(f, "str:{s:?}"),
            Value::Blob(n) => write!(f, "blob[{n}]"),
            Value::Array(items) => write!(f, "array{items:?}"),
            Value::Struct(items) => write!(f, "struct{items:?}"),
            Value::Interface(Some(ptr)) => write!(f, "iface({})", ptr.iid()),
            Value::Interface(None) => write!(f, "iface(null)"),
            Value::Opaque(tok) => write!(f, "opaque:0x{tok:x}"),
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remotability_of_scalars() {
        assert!(PType::I4.is_remotable());
        assert!(PType::Str.is_remotable());
        assert!(!PType::Opaque.is_remotable());
    }

    #[test]
    fn remotability_is_recursive() {
        let nested = PType::Struct(vec![PType::I4, PType::Array(Box::new(PType::Opaque))]);
        assert!(!nested.is_remotable());
        let clean = PType::Struct(vec![PType::I4, PType::Array(Box::new(PType::Str))]);
        assert!(clean.is_remotable());
    }

    #[test]
    fn conformance_checks_shape() {
        let ty = PType::Struct(vec![PType::I4, PType::Str]);
        let ok = Value::Struct(vec![Value::I4(1), Value::Str("hi".into())]);
        let bad = Value::Struct(vec![Value::Str("hi".into()), Value::I4(1)]);
        assert!(ok.conforms_to(&ty));
        assert!(!bad.conforms_to(&ty));
    }

    #[test]
    fn null_conforms_to_everything() {
        assert!(Value::Null.conforms_to(&PType::Opaque));
        assert!(Value::Null.conforms_to(&PType::Array(Box::new(PType::I4))));
    }

    #[test]
    fn array_conformance_checks_elements() {
        let ty = PType::Array(Box::new(PType::I4));
        assert!(Value::Array(vec![Value::I4(1), Value::I4(2)]).conforms_to(&ty));
        assert!(!Value::Array(vec![Value::I4(1), Value::Bool(true)]).conforms_to(&ty));
        // Empty arrays conform vacuously.
        assert!(Value::Array(vec![]).conforms_to(&ty));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I4(42).as_i4(), Some(42));
        assert_eq!(Value::Blob(99).as_blob(), Some(99));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
    }
}
