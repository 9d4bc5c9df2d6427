//! The class registry: CLSID → class metadata and factory.
//!
//! Besides the factory function, each class records which **system API
//! families** its binary statically imports. Coign's profile analysis engine
//! performs static analysis on component binaries to find calls to known GUI
//! or storage APIs and pins such components to the client or server
//! respectively; the `imports` field is the simulation's stand-in for that
//! import-table scan.

use crate::error::{ComError, ComResult};
use crate::guid::Clsid;
use crate::hash::FoldState;
use crate::idl::InterfaceDesc;
use crate::object::{ComObject, InstanceId};
use crate::runtime::ComRuntime;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Bit set of system API families a component binary imports.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ApiImports(pub u32);

impl ApiImports {
    /// No recognized system imports.
    pub const NONE: ApiImports = ApiImports(0);
    /// GUI APIs (User32/GDI32 equivalents) — pins a component to the client.
    pub const GUI: ApiImports = ApiImports(1);
    /// Storage APIs (file system) — pins a component to the server.
    pub const STORAGE: ApiImports = ApiImports(2);
    /// Database connectivity (ODBC) — pins a component to the server.
    pub const DATABASE: ApiImports = ApiImports(4);

    /// Returns true if all bits of `flags` are present.
    fn contains(self, flags: ApiImports) -> bool {
        self.0 & flags.0 == flags.0
    }

    /// Returns true if the component uses GUI APIs.
    pub fn uses_gui(self) -> bool {
        self.contains(ApiImports::GUI)
    }

    /// Returns true if the component uses storage or database APIs.
    pub fn uses_storage(self) -> bool {
        self.0 & (ApiImports::STORAGE.0 | ApiImports::DATABASE.0) != 0
    }
}

impl fmt::Debug for ApiImports {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.uses_gui() {
            parts.push("GUI");
        }
        if self.contains(ApiImports::STORAGE) {
            parts.push("STORAGE");
        }
        if self.contains(ApiImports::DATABASE) {
            parts.push("DATABASE");
        }
        if parts.is_empty() {
            parts.push("NONE");
        }
        write!(f, "ApiImports({})", parts.join("|"))
    }
}

/// Factory signature: builds the implementation object for a new instance.
pub type FactoryFn = dyn Fn(&ComRuntime, InstanceId) -> Arc<dyn ComObject> + Send + Sync;

/// Static metadata for a registered component class.
pub struct ClassDesc {
    /// Class identifier (derived from `name`).
    pub clsid: Clsid,
    /// Human-readable class name, e.g. `"SpriteCache"`.
    pub name: String,
    /// Interfaces the class implements.
    pub interfaces: Vec<Arc<InterfaceDesc>>,
    /// System API families the class binary statically imports.
    pub imports: ApiImports,
    /// Factory constructing the implementation.
    pub factory: Arc<FactoryFn>,
}

impl ClassDesc {
    /// Looks up an implemented interface by IID.
    pub fn interface(&self, iid: crate::guid::Iid) -> Option<&Arc<InterfaceDesc>> {
        self.interfaces.iter().find(|d| d.iid == iid)
    }
}

impl fmt::Debug for ClassDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassDesc")
            .field("name", &self.name)
            .field("interfaces", &self.interfaces.len())
            .field("imports", &self.imports)
            .finish()
    }
}

/// Registry of all component classes known to a runtime.
#[derive(Default)]
pub struct ClassRegistry {
    classes: RwLock<HashMap<Clsid, Arc<ClassDesc>, FoldState>>,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ClassRegistry::default()
    }

    /// Registers a class; returns its CLSID.
    ///
    /// Re-registering a name replaces the previous entry (tests rely on
    /// this to substitute instrumented factories).
    pub fn register(
        &self,
        name: &str,
        interfaces: Vec<Arc<InterfaceDesc>>,
        imports: ApiImports,
        factory: impl Fn(&ComRuntime, InstanceId) -> Arc<dyn ComObject> + Send + Sync + 'static,
    ) -> Clsid {
        let clsid = Clsid::from_name(name);
        let desc = Arc::new(ClassDesc {
            clsid,
            name: name.to_string(),
            interfaces,
            imports,
            factory: Arc::new(factory),
        });
        self.classes.write().insert(clsid, desc);
        clsid
    }

    /// Looks up a class by CLSID.
    pub fn get(&self, clsid: Clsid) -> ComResult<Arc<ClassDesc>> {
        self.classes
            .read()
            .get(&clsid)
            .cloned()
            .ok_or(ComError::UnknownClass(clsid))
    }

    /// Returns all registered classes (order unspecified).
    pub fn all(&self) -> Vec<Arc<ClassDesc>> {
        self.classes.read().values().cloned().collect()
    }

    /// The set of interface IIDs declared by at least one registered class.
    pub fn declared_iids(&self) -> std::collections::HashSet<crate::guid::Iid> {
        self.classes
            .read()
            .values()
            .flat_map(|class| &class.interfaces)
            .map(|desc| desc.iid)
            .collect()
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.classes.read().len()
    }

    /// Returns true if no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.classes.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ComResult;
    use crate::guid::Iid;
    use crate::idl::InterfaceBuilder;
    use crate::interface::Message;
    use crate::object::CallCtx;

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
    fn imports_flags() {
        let both = ApiImports(ApiImports::GUI.0 | ApiImports::STORAGE.0);
        assert!(both.uses_gui());
        assert!(both.uses_storage());
        assert!(!ApiImports::NONE.uses_gui());
        assert!(ApiImports::DATABASE.uses_storage());
        assert!(both.contains(ApiImports::GUI));
        assert!(!ApiImports::GUI.contains(both));
    }

    #[test]
    fn register_and_lookup() {
        let reg = ClassRegistry::new();
        let iface = InterfaceBuilder::new("INop").build();
        let clsid = reg.register("Nop", vec![iface.clone()], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        let desc = reg.get(clsid).unwrap();
        assert_eq!(desc.name, "Nop");
        assert!(desc.interface(iface.iid).is_some());
        assert!(desc.interface(Iid::from_name("IOther")).is_none());
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn interfaces_resolve_by_iid_across_classes() {
        let reg = ClassRegistry::new();
        let ia = InterfaceBuilder::new("IAlpha").build();
        let ib = InterfaceBuilder::new("IBeta").build();
        reg.register("A", vec![ia.clone()], ApiImports::NONE, |_, _| {
            Arc::new(Nop)
        });
        reg.register(
            "B",
            vec![ib.clone(), ia.clone()],
            ApiImports::NONE,
            |_, _| Arc::new(Nop),
        );
        let declared = reg.declared_iids();
        assert_eq!(declared.len(), 2);
        assert!(declared.contains(&ia.iid) && declared.contains(&ib.iid));
        assert!(!declared.contains(&Iid::from_name("IGhost")));
    }

    #[test]
    fn unknown_class_errors() {
        let reg = ClassRegistry::new();
        let missing = Clsid::from_name("Missing");
        assert!(matches!(
            reg.get(missing),
            Err(ComError::UnknownClass(c)) if c == missing
        ));
    }

    #[test]
    fn reregistering_replaces() {
        let reg = ClassRegistry::new();
        reg.register("X", vec![], ApiImports::NONE, |_, _| Arc::new(Nop));
        reg.register("X", vec![], ApiImports::GUI, |_, _| Arc::new(Nop));
        assert_eq!(reg.len(), 1);
        assert!(reg.get(Clsid::from_name("X")).unwrap().imports.uses_gui());
    }

    #[test]
    fn debug_output_names_flags() {
        let s = format!(
            "{:?}",
            ApiImports(ApiImports::GUI.0 | ApiImports::DATABASE.0)
        );
        assert!(s.contains("GUI") && s.contains("DATABASE"));
        assert_eq!(format!("{:?}", ApiImports::NONE), "ApiImports(NONE)");
    }
}
