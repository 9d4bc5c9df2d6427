//! simCOM: a miniature component object model.
//!
//! This crate is the substrate substitution for Microsoft COM in the Coign
//! reproduction (see `DESIGN.md` at the workspace root). Coign relies on two
//! properties of COM, both of which this crate provides:
//!
//! 1. **Interposability** — all first-class communication between components
//!    crosses binary interface boundaries ([`InterfacePtr`]) that a runtime can
//!    transparently wrap with instrumentation or remote proxies.
//! 2. **Trappable instantiation** — every component instance is created through
//!    a single runtime API ([`ComRuntime::create_instance`]) that registered
//!    hooks can intercept and relocate.
//!
//! On top of those, the crate models the pieces of the COM ecosystem the Coign
//! tool chain touches: MIDL-style interface metadata ([`idl`]), a class registry
//! with static API-import information ([`registry`]), application binary images
//! with import tables and configuration records ([`image`]), and a small binary
//! codec ([`codec`]) used to persist profiles into those images.
//!
//! The crate contains no `unsafe` code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod codec;
pub mod error;
pub mod guid;
pub mod hash;
pub mod idl;
pub mod image;
pub mod interface;
pub mod object;
pub mod registry;
pub mod runtime;
pub mod value;

pub use clock::EventQueue;
pub use error::{ComError, ComResult};
pub use guid::{Clsid, Guid, Iid};
pub use hash::FoldState;
pub use idl::{InterfaceDesc, MethodDesc, ParamDesc, ParamDir, StateEffect};
pub use image::{AppImage, ConfigSection};
pub use interface::{InterfacePtr, Invoker, Message};
pub use object::{CallCtx, ComObject, InstanceId, MachineId};
pub use registry::{ApiImports, ClassRegistry};
pub use runtime::{ComRuntime, CreateRequest, Frame, MachineSpec, RtStats, RuntimeHook};
pub use value::{PType, Value};
