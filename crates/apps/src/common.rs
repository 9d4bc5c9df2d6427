//! Shared component machinery for the application suite.
//!
//! The three applications share idioms any large COM code base exhibits:
//! a GUI forest of widget components joined to their parents by
//! **non-remotable window-site interfaces** (raw `HWND`s travel as opaque
//! pointers), storage components behind remotable streams, and compute
//! charged per call. This module provides those building blocks:
//!
//! * [`GuiNode`] — a data-driven GUI component: one implementation serves
//!   dozens of widget *classes* (buttons, menus, rulers, …), each registered
//!   under its own CLSID with its own [`GuiSpec`] (children, chatter,
//!   compute). This mirrors how real GUI frameworks stamp out widget classes
//!   from shared code while keeping distinct COM identities.
//! * [`FileStore`] — the data file on the server: page-oriented reads plus
//!   named streams, `STORAGE`-importing (so static analysis pins it).
//! * Interface definitions shared across the suite. Like a COM type
//!   library, each is built once per process and every registration shares
//!   it, so registering an application allocates only its class records.

use coign_com::idl::{InterfaceBuilder, InterfaceDesc};
use coign_com::{
    ApiImports, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid, InterfacePtr,
    Message, PType, Value,
};
use parking_lot::Mutex;
use std::sync::{Arc, LazyLock};

/// `IWidget`: the uniform GUI-component interface.
///
/// Besides `Build`/`Paint`, widgets participate in the application's idle
/// loop: `RegisterIdle` recursively subscribes interested widgets, and the
/// loop later calls `OnIdle`, which internally routes through `RefreshA` or
/// `RefreshB` (alternating) — the deferred-callback idiom that gives the
/// call-chain classifiers their hardest cases: the same procedures executed
/// by *different instances*.
fn iwidget() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IWidget")
            .method("Build", |m| {
                m.input("site", PType::Interface(Iid::from_name("IWindowSite")))
            })
            .method("Paint", |m| m.output("pixels", PType::I4))
            .method("OnIdle", |m| {
                m.input("theme", PType::Interface(Iid::from_name("ITheme")))
            })
            .method("RefreshA", |m| {
                m.input("theme", PType::Interface(Iid::from_name("ITheme")))
            })
            .method("RefreshB", |m| {
                m.input("theme", PType::Interface(Iid::from_name("ITheme")))
            })
            .method("RegisterIdle", |m| {
                m.input("loop", PType::Interface(Iid::from_name("IIdleLoop")))
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IIdleLoop`: background-callback dispatcher.
fn iidle_loop() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IIdleLoop")
            .method("Register", |m| {
                m.input("sink", PType::Interface(Iid::from_name("IWidget")))
            })
            .method("Pump", |m| m.input("rounds", PType::I4))
            .build()
    });
    Arc::clone(&DESC)
}

/// `ITheme`: the shared theme/resource service all idle transients are
/// allocated through. Because one engine instance serves *every* widget,
/// the instantiation chains of transients share their innermost frames —
/// the pattern that makes classifier accuracy depend on stack-walk depth
/// (Table 3).
fn itheme() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITheme")
            .method("SpawnTransient", |m| {
                m.input("class", PType::Str)
                    .output("widget", PType::Interface(Iid::from_name("IWidget")))
            })
            .method("AllocRecord", |m| {
                m.input("class", PType::Str)
                    .output("widget", PType::Interface(Iid::from_name("IWidget")))
            })
            .method("CommitRecord", |m| {
                m.input("class", PType::Str)
                    .output("widget", PType::Interface(Iid::from_name("IWidget")))
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IWindowSite`: parent←child GUI notification. **Non-remotable** — the
/// window handle is a raw pointer, exactly the idiom that makes most of
/// Octarine's and PhotoDraw's GUI interfaces non-distributable.
fn iwindow_site() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IWindowSite")
            .method("Notify", |m| {
                m.input("hwnd", PType::Opaque).input("code", PType::I4)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IStore`: the data-file interface (page reads and named streams). The
/// file content is fixed at registration, so every method is a state read.
fn istore() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IStore")
            .method("ReadPage", |m| {
                m.input("page", PType::I4)
                    .output("data", PType::Blob)
                    .reads_state()
            })
            .method("ReadStream", |m| {
                m.input("name", PType::Str)
                    .output("data", PType::Blob)
                    .reads_state()
            })
            .method("PageCount", |m| m.output("pages", PType::I4).reads_state())
            .build()
    });
    Arc::clone(&DESC)
}

/// Hashes a component's mutable state into a COIGN045 fingerprint.
///
/// `DefaultHasher::new()` uses fixed keys, so fingerprints are stable
/// within a profiling run — all the effect cross-check needs.
pub fn fingerprint_of(value: &impl std::hash::Hash) -> Option<u64> {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    Some(h.finish())
}

/// Scales a component's compute charge to the paper's hardware era.
///
/// The synthetic components express their work in small architecture-neutral
/// units; the paper's measurements ran on 200 MHz Pentiums where each
/// interface call did tens of microseconds of real work. Scaling here keeps
/// the profiling-informer overhead (§3.2: ≤85 %, typically ~45 %) and the
/// distribution-informer overhead (<3 %) in the paper's bands relative to
/// application compute.
pub const WORK_SCALE: u64 = 20;

/// Charges `units` of application work on the calling component's machine.
pub fn work(ctx: &CallCtx<'_>, units: u64) {
    ctx.compute(units * WORK_SCALE);
}

/// Calls a method expecting `args` and returns the completed message.
pub fn call(
    rt: &ComRuntime,
    ptr: &InterfacePtr,
    method: u32,
    args: Vec<Value>,
) -> ComResult<Message> {
    let mut msg = Message::new(args);
    // Grow for out-params the caller did not pre-fill.
    if let Some(desc) = ptr.desc().method(method) {
        if msg.args.len() < desc.params.len() {
            msg.args.resize(desc.params.len(), Value::Null);
        }
    }
    ptr.call(rt, method, &mut msg)?;
    Ok(msg)
}

/// Extracts a blob size from a message argument.
pub(crate) fn blob_of(msg: &Message, idx: usize) -> u64 {
    msg.arg(idx).and_then(Value::as_blob).unwrap_or(0)
}

/// Extracts an i4 from a message argument.
pub(crate) fn i4_of(msg: &Message, idx: usize) -> i32 {
    msg.arg(idx).and_then(Value::as_i4).unwrap_or(0)
}

/// Extracts an interface pointer from a message argument.
pub(crate) fn iface_of(msg: &Message, idx: usize) -> ComResult<InterfacePtr> {
    msg.arg(idx)
        .and_then(Value::as_interface)
        .cloned()
        .ok_or_else(|| ComError::App(format!("argument {idx} is not an interface pointer")))
}

/// Declarative behavior of one GUI widget class.
#[derive(Debug, Clone, Default)]
pub struct GuiSpec {
    /// Child widget classes instantiated during `Build`: `(class, count)`.
    pub children: Vec<(&'static str, usize)>,
    /// `Notify` calls sent to the parent site during `Build` (opaque HWND
    /// traffic — non-remotable).
    pub notify_parent: u32,
    /// Compute charged by `Build`, microseconds.
    pub build_cost_us: u64,
    /// Compute charged by `Paint`, microseconds.
    pub paint_cost_us: u64,
    /// Class instantiated transiently from idle refreshes (tooltips, undo
    /// records, accessibility nodes, …). Widgets with a spawn subscribe to
    /// the idle loop.
    pub idle_spawn: Option<&'static str>,
}

struct GuiState {
    site: Option<InterfacePtr>,
    children: Vec<InterfacePtr>,
    idle_count: u32,
}

/// A data-driven GUI component; see [`GuiSpec`].
pub struct GuiNode {
    spec: Arc<GuiSpec>,
    state: Mutex<GuiState>,
}

/// Method indices of `IWidget`.
pub const WIDGET_BUILD: u32 = 0;
/// Method index of `IWidget::Paint`.
pub const WIDGET_PAINT: u32 = 1;
/// Method index of `IWidget::OnIdle`.
pub const WIDGET_ON_IDLE: u32 = 2;
/// Method index of `IWidget::RefreshA`.
pub const WIDGET_REFRESH_A: u32 = 3;
/// Method index of `IWidget::RefreshB`.
pub const WIDGET_REFRESH_B: u32 = 4;
/// Method index of `IWidget::RegisterIdle`.
pub const WIDGET_REGISTER_IDLE: u32 = 5;
/// Method index of `IWindowSite::Notify`.
pub const SITE_NOTIFY: u32 = 0;
/// Method index of `IIdleLoop::Register`.
pub const IDLE_REGISTER: u32 = 0;
/// Method index of `IIdleLoop::Pump`.
pub const IDLE_PUMP: u32 = 1;
/// Method index of `ITheme::SpawnTransient`.
pub const THEME_SPAWN: u32 = 0;
/// Method index of `ITheme::AllocRecord`.
pub const THEME_ALLOC: u32 = 1;
/// Method index of `ITheme::CommitRecord`.
pub const THEME_COMMIT: u32 = 2;

impl GuiNode {
    fn build(&self, ctx: &CallCtx<'_>, msg: &mut Message) -> ComResult<()> {
        let rt = ctx.rt();
        work(ctx, self.spec.build_cost_us);
        let site = msg.arg(0).and_then(Value::as_interface).cloned();
        if let Some(parent) = &site {
            for code in 0..self.spec.notify_parent {
                let mut notify =
                    Message::new(vec![Value::Opaque(ctx.self_id().0), Value::I4(code as i32)]);
                parent.call(rt, SITE_NOTIFY, &mut notify)?;
            }
        }
        let my_site = rt.make_ptr(ctx.self_id(), Iid::from_name("IWindowSite"))?;
        let mut children = Vec::new();
        for (class, count) in &self.spec.children {
            for _ in 0..*count {
                let child = ctx.create(Clsid::from_name(class), Iid::from_name("IWidget"))?;
                let mut build = Message::new(vec![Value::Interface(Some(my_site.clone()))]);
                child.call(rt, WIDGET_BUILD, &mut build)?;
                children.push(child);
            }
        }
        let mut state = self.state.lock();
        state.site = site;
        state.children = children;
        Ok(())
    }

    fn on_idle(&self, ctx: &CallCtx<'_>, msg: &mut Message) -> ComResult<()> {
        work(ctx, 2);
        // Route internally through the alternating refresh method — an
        // internal hop that IFCB sees and EPCB collapses.
        let count = {
            let mut state = self.state.lock();
            state.idle_count += 1;
            state.idle_count
        };
        let me = ctx
            .rt()
            .make_ptr(ctx.self_id(), Iid::from_name("IWidget"))?;
        let method = if count % 2 == 1 {
            WIDGET_REFRESH_A
        } else {
            WIDGET_REFRESH_B
        };
        let mut fwd = Message::new(vec![msg.arg(0).cloned().unwrap_or(Value::Null)]);
        me.call(ctx.rt(), method, &mut fwd)
    }

    fn refresh(&self, ctx: &CallCtx<'_>, msg: &mut Message) -> ComResult<()> {
        work(ctx, 3);
        let Some(class) = self.spec.idle_spawn else {
            return Ok(());
        };
        let spawned = if let Some(theme) = msg.arg(0).and_then(Value::as_interface) {
            // Allocate the transient through the shared theme service.
            let mut spawn = Message::new(vec![Value::Str(class.to_string()), Value::Null]);
            theme.call(ctx.rt(), THEME_SPAWN, &mut spawn)?;
            spawn.args.get(1).and_then(Value::as_interface).cloned()
        } else {
            Some(ctx.create(Clsid::from_name(class), Iid::from_name("IWidget"))?)
        };
        // The spawner drives the transient: its paint traffic depends on
        // *which widget* spawned it — behavior the static-type classifier
        // cannot predict (the same transient class serves every widget).
        if let Some(transient) = spawned {
            for _ in 0..=self.spec.notify_parent {
                transient.call(ctx.rt(), WIDGET_PAINT, &mut Message::outputs(1))?;
            }
        }
        Ok(())
    }

    fn register_idle(&self, ctx: &CallCtx<'_>, msg: &mut Message) -> ComResult<()> {
        let Some(idle) = msg.arg(0).and_then(Value::as_interface).cloned() else {
            return Ok(());
        };
        if self.spec.idle_spawn.is_some() {
            let me = ctx
                .rt()
                .make_ptr(ctx.self_id(), Iid::from_name("IWidget"))?;
            let mut reg = Message::new(vec![Value::Interface(Some(me))]);
            idle.call(ctx.rt(), IDLE_REGISTER, &mut reg)?;
        }
        let children: Vec<InterfacePtr> = self.state.lock().children.clone();
        for child in &children {
            let mut fwd = Message::new(vec![Value::Interface(Some(idle.clone()))]);
            child.call(ctx.rt(), WIDGET_REGISTER_IDLE, &mut fwd)?;
        }
        Ok(())
    }

    fn paint(&self, ctx: &CallCtx<'_>, msg: &mut Message) -> ComResult<()> {
        work(ctx, self.spec.paint_cost_us);
        let children: Vec<InterfacePtr> = self.state.lock().children.clone();
        let mut pixels = 1i32;
        for child in &children {
            let mut inner = Message::outputs(1);
            child.call(ctx.rt(), WIDGET_PAINT, &mut inner)?;
            pixels += i4_of(&inner, 0);
        }
        msg.set(0, Value::I4(pixels));
        Ok(())
    }
}

impl ComObject for GuiNode {
    fn invoke(&self, ctx: &CallCtx<'_>, iid: Iid, method: u32, msg: &mut Message) -> ComResult<()> {
        if iid == Iid::from_name("IWindowSite") {
            // Notify: cheap bookkeeping.
            work(ctx, 1);
            return Ok(());
        }
        match method {
            WIDGET_BUILD => self.build(ctx, msg),
            WIDGET_PAINT => self.paint(ctx, msg),
            WIDGET_ON_IDLE => self.on_idle(ctx, msg),
            WIDGET_REFRESH_A | WIDGET_REFRESH_B => self.refresh(ctx, msg),
            WIDGET_REGISTER_IDLE => self.register_idle(ctx, msg),
            _ => Err(ComError::App(format!("IWidget has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        let state = self.state.lock();
        fingerprint_of(&(
            state.site.is_some(),
            state.children.len() as u64,
            state.idle_count,
        ))
    }
}

/// Registers a GUI widget class under `name`.
pub fn register_gui_class(rt: &ComRuntime, name: &str, spec: GuiSpec) -> Clsid {
    let spec = Arc::new(spec);
    rt.registry().register(
        name,
        vec![iwidget(), iwindow_site()],
        ApiImports::GUI,
        move |_, _| {
            Arc::new(GuiNode {
                spec: spec.clone(),
                state: Mutex::new(GuiState {
                    site: None,
                    children: Vec::new(),
                    idle_count: 0,
                }),
            })
        },
    )
}

/// The application idle loop: widgets subscribe, `Pump` drives rounds of
/// `OnIdle` callbacks, passing the shared theme engine along.
pub struct IdleLoop {
    theme_class: Option<&'static str>,
    sinks: Mutex<Vec<InterfacePtr>>,
    theme: Mutex<Option<InterfacePtr>>,
}

impl ComObject for IdleLoop {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            IDLE_REGISTER => {
                if let Some(sink) = msg.arg(0).and_then(Value::as_interface).cloned() {
                    self.sinks.lock().push(sink);
                }
                Ok(())
            }
            IDLE_PUMP => {
                let rounds = i4_of(msg, 0).max(0);
                let theme = match self.theme_class {
                    Some(class) => {
                        let cached = self.theme.lock().clone();
                        match cached {
                            Some(t) => Some(t),
                            None => {
                                let t =
                                    ctx.create(Clsid::from_name(class), Iid::from_name("ITheme"))?;
                                *self.theme.lock() = Some(t.clone());
                                Some(t)
                            }
                        }
                    }
                    None => None,
                };
                let sinks: Vec<InterfacePtr> = self.sinks.lock().clone();
                for _ in 0..rounds {
                    for sink in &sinks {
                        let mut tick = Message::new(vec![Value::Interface(theme.clone())]);
                        sink.call(ctx.rt(), WIDGET_ON_IDLE, &mut tick)?;
                    }
                }
                Ok(())
            }
            _ => Err(ComError::App(format!("IIdleLoop has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&(self.sinks.lock().len() as u64, self.theme.lock().is_some()))
    }
}

/// The shared theme/resource engine: allocates transient widgets on behalf
/// of every caller, funneling their instantiation chains through one
/// instance (and one internal `AllocRecord` hop).
pub struct ThemeEngine;

impl ComObject for ThemeEngine {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            THEME_SPAWN => {
                work(ctx, 2);
                // Internal bookkeeping hop before the actual allocation.
                let me = ctx.rt().make_ptr(ctx.self_id(), Iid::from_name("ITheme"))?;
                let mut alloc = Message::new(vec![
                    msg.arg(0).cloned().unwrap_or(Value::Null),
                    Value::Null,
                ]);
                me.call(ctx.rt(), THEME_ALLOC, &mut alloc)?;
                msg.set(1, alloc.args[1].clone());
                Ok(())
            }
            THEME_ALLOC => {
                work(ctx, 1);
                let me = ctx.rt().make_ptr(ctx.self_id(), Iid::from_name("ITheme"))?;
                let mut commit = Message::new(vec![
                    msg.arg(0).cloned().unwrap_or(Value::Null),
                    Value::Null,
                ]);
                me.call(ctx.rt(), THEME_COMMIT, &mut commit)?;
                msg.set(1, commit.args[1].clone());
                Ok(())
            }
            THEME_COMMIT => {
                let class = msg.arg(0).and_then(Value::as_str).unwrap_or("").to_string();
                let spawn = ctx.create(Clsid::from_name(&class), Iid::from_name("IWidget"))?;
                work(ctx, 3);
                msg.set(1, Value::Interface(Some(spawn)));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITheme has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // stateless service
    }
}

/// Registers the idle-loop class under `name`; transients are allocated
/// through `theme_class` when given (register it with
/// [`register_theme_engine`]).
pub fn register_idle_loop(rt: &ComRuntime, name: &str, theme_class: Option<&'static str>) -> Clsid {
    rt.registry()
        .register(name, vec![iidle_loop()], ApiImports::NONE, move |_, _| {
            Arc::new(IdleLoop {
                theme_class,
                sinks: Mutex::new(Vec::new()),
                theme: Mutex::new(None),
            })
        })
}

/// Registers the theme-engine class under `name`.
pub fn register_theme_engine(rt: &ComRuntime, name: &str) -> Clsid {
    rt.registry()
        .register(name, vec![itheme()], ApiImports::NONE, |_, _| {
            Arc::new(ThemeEngine)
        })
}

/// The data file living on the server: page-oriented content plus named
/// streams (properties, outline, …).
pub struct FileStore {
    /// Number of content pages.
    pub pages: i32,
    /// Bytes per content page.
    pub page_size: u64,
    /// Named auxiliary streams: `(name, size)`.
    pub streams: Vec<(&'static str, u64)>,
}

/// Method indices of `IStore`.
pub const STORE_READ_PAGE: u32 = 0;
/// Method index of `IStore::ReadStream`.
pub const STORE_READ_STREAM: u32 = 1;
/// Method index of `IStore::PageCount`.
pub const STORE_PAGE_COUNT: u32 = 2;

impl ComObject for FileStore {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            STORE_READ_PAGE => {
                work(ctx, 30); // disk access
                let page = i4_of(msg, 0);
                if page < 0 || page >= self.pages {
                    return Err(ComError::App(format!(
                        "page {page} out of range 0..{}",
                        self.pages
                    )));
                }
                msg.set(1, Value::Blob(self.page_size));
                Ok(())
            }
            STORE_READ_STREAM => {
                work(ctx, 30);
                let name = msg.arg(0).and_then(Value::as_str).unwrap_or("");
                let size = self
                    .streams
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| *s)
                    .ok_or_else(|| ComError::App(format!("no stream `{name}`")))?;
                msg.set(1, Value::Blob(size));
                Ok(())
            }
            STORE_PAGE_COUNT => {
                work(ctx, 5);
                msg.set(0, Value::I4(self.pages));
                Ok(())
            }
            _ => Err(ComError::App(format!("IStore has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&(self.pages, self.page_size, &self.streams))
    }
}

/// Registers a file-store class (STORAGE import → pinned to the server by
/// static analysis).
pub fn register_file_store(
    rt: &ComRuntime,
    name: &str,
    pages: i32,
    page_size: u64,
    streams: Vec<(&'static str, u64)>,
) -> Clsid {
    rt.registry()
        .register(name, vec![istore()], ApiImports::STORAGE, move |_, _| {
            Arc::new(FileStore {
                pages,
                page_size,
                streams: streams.clone(),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_site_is_non_remotable_but_widget_is() {
        assert!(!iwindow_site().remotable);
        assert!(iwidget().remotable);
        assert!(istore().remotable);
    }

    #[test]
    fn gui_forest_builds_recursively() {
        let rt = ComRuntime::single_machine();
        register_gui_class(&rt, "LeafBtn", GuiSpec::default());
        register_gui_class(
            &rt,
            "Bar",
            GuiSpec {
                children: vec![("LeafBtn", 3)],
                notify_parent: 1,
                build_cost_us: 10,
                paint_cost_us: 5,
                ..GuiSpec::default()
            },
        );
        register_gui_class(
            &rt,
            "Frame",
            GuiSpec {
                children: vec![("Bar", 2)],
                ..GuiSpec::default()
            },
        );
        let frame = rt
            .create_instance(Clsid::from_name("Frame"), Iid::from_name("IWidget"))
            .unwrap();
        let mut build = Message::new(vec![Value::Interface(None)]);
        frame.call(&rt, WIDGET_BUILD, &mut build).unwrap();
        // Frame + 2 bars + 6 leaves.
        assert_eq!(rt.instance_count(), 9);
        let paint = call(&rt, &frame, WIDGET_PAINT, vec![]).unwrap();
        assert_eq!(i4_of(&paint, 0), 9);
    }

    #[test]
    fn idle_loop_spawns_transients_via_internal_refresh() {
        let rt = ComRuntime::single_machine();
        register_gui_class(&rt, "Tip", GuiSpec::default());
        register_gui_class(
            &rt,
            "Pane",
            GuiSpec {
                idle_spawn: Some("Tip"),
                ..GuiSpec::default()
            },
        );
        register_gui_class(
            &rt,
            "Root",
            GuiSpec {
                children: vec![("Pane", 2)],
                ..GuiSpec::default()
            },
        );
        register_idle_loop(&rt, "Idle", None);
        let root = rt
            .create_instance(Clsid::from_name("Root"), Iid::from_name("IWidget"))
            .unwrap();
        call(&rt, &root, WIDGET_BUILD, vec![Value::Interface(None)]).unwrap();
        let idle = rt
            .create_instance(Clsid::from_name("Idle"), Iid::from_name("IIdleLoop"))
            .unwrap();
        call(
            &rt,
            &root,
            WIDGET_REGISTER_IDLE,
            vec![Value::Interface(Some(idle.clone()))],
        )
        .unwrap();
        let before = rt.instance_count(); // root + 2 panes + idle
        call(&rt, &idle, IDLE_PUMP, vec![Value::I4(3)]).unwrap();
        // Each pump round makes each pane spawn one Tip.
        assert_eq!(rt.instance_count(), before + 6);
    }

    #[test]
    fn file_store_serves_pages_and_streams() {
        let rt = ComRuntime::single_machine();
        register_file_store(&rt, "TestStore", 5, 30_000, vec![("props", 10_000)]);
        let store = rt
            .create_instance(Clsid::from_name("TestStore"), Iid::from_name("IStore"))
            .unwrap();
        let page = call(&rt, &store, STORE_READ_PAGE, vec![Value::I4(2)]).unwrap();
        assert_eq!(blob_of(&page, 1), 30_000);
        let stream = call(
            &rt,
            &store,
            STORE_READ_STREAM,
            vec![Value::Str("props".into())],
        )
        .unwrap();
        assert_eq!(blob_of(&stream, 1), 10_000);
        let count = call(&rt, &store, STORE_PAGE_COUNT, vec![]).unwrap();
        assert_eq!(i4_of(&count, 0), 5);
        // Out-of-range and missing-stream errors.
        assert!(call(&rt, &store, STORE_READ_PAGE, vec![Value::I4(9)]).is_err());
        assert!(call(
            &rt,
            &store,
            STORE_READ_STREAM,
            vec![Value::Str("nope".into())]
        )
        .is_err());
    }
}
