//! Seeded synthetic application generator + schedule-space exploration.
//!
//! Coign's evaluation rests on three hand-built applications; every
//! analysis, placement, and recovery path in this repository is therefore
//! exercised against the same three ICC topologies. This crate turns that
//! test surface into *hundreds* of topologies: [`GeneratedApp`] builds a
//! complete simCOM application — component classes, interfaces, scenario
//! drivers, a modeled binary image, explicit constraints — entirely from a
//! `(seed, size)` pair, calibrated to the statistics the paper measures:
//!
//! * **Component counts** scale with [`GenSize`] (small ≈ a dozen classes
//!   for exhaustive schedule exploration, large ≈ the paper's 60–80 class
//!   applications).
//! * **ICC message sizes** are drawn from the 64·2^k bucket envelope of the
//!   paper's Figure 5 ([`calibration`]).
//! * **Non-remotable fraction**: window-site and raw-handle interfaces
//!   (opaque `HWND` parameters) mirror the GUI/shared-memory hazards of
//!   Octarine and PhotoDraw.
//! * **Constraint density**: STORAGE/GUI API imports plus a small number of
//!   explicit absolute/pairwise constraints in the style of Benefits.
//! * **Instance sharing / state effects**: a shared theme service allocates
//!   transients for every widget (the classifier-stressing pattern), file
//!   stores are read-only, and a ledger component carries honest
//!   `mutates_state` annotations so replication legality has teeth.
//!
//! Everything is a pure function of the seed: two [`GeneratedApp`]s built
//! from the same [`GenSpec`] register identical classes, emit identical
//! images, and drive identical scenarios. [`explore`] builds on that
//! determinism to enumerate fault-schedule interleavings and check recovery
//! invariants after each one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod explore;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use coign::application::Application;
use coign::constraints::NamedConstraint;
use coign_apps::common::{
    call, fingerprint_of, register_file_store, register_gui_class, register_idle_loop,
    register_theme_engine, work, GuiSpec, IDLE_PUMP, STORE_PAGE_COUNT, STORE_READ_PAGE,
    STORE_READ_STREAM, WIDGET_BUILD, WIDGET_PAINT, WIDGET_REGISTER_IDLE,
};
use coign_com::idl::InterfaceBuilder;
use coign_com::{
    ApiImports, AppImage, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid,
    InterfaceDesc, InterfacePtr, MachineId, Message, PType, Value,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interns a string, returning a `&'static str` (the GUI building blocks in
/// `coign_apps::common` take static class names). The pool is global and
/// deduplicated, so repeated generation of the same blueprint never grows
/// memory.
fn intern(s: String) -> &'static str {
    static POOL: std::sync::OnceLock<Mutex<HashMap<String, &'static str>>> =
        std::sync::OnceLock::new();
    let mut pool = POOL.get_or_init(|| Mutex::new(HashMap::new())).lock();
    if let Some(&v) = pool.get(&s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.clone().into_boxed_str());
    pool.insert(s, leaked);
    leaked
}

/// Generated-application size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenSize {
    /// ~a dozen classes; tractable for exhaustive schedule exploration.
    Small,
    /// ~25–35 classes; the default sweep/chaos subject.
    Medium,
    /// ~55–75 classes; the scale of the paper's real applications.
    Large,
}

impl GenSize {
    /// Parses `"small" | "medium" | "large"`.
    pub fn parse(text: &str) -> Option<GenSize> {
        match text {
            "small" => Some(GenSize::Small),
            "medium" => Some(GenSize::Medium),
            "large" => Some(GenSize::Large),
            _ => None,
        }
    }

    /// Canonical lowercase name.
    fn name(&self) -> &'static str {
        match self {
            GenSize::Small => "small",
            GenSize::Medium => "medium",
            GenSize::Large => "large",
        }
    }
}

/// A generated application is fully identified by seed and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenSpec {
    /// Generator seed; every structural choice derives from it.
    pub seed: u64,
    /// Size class.
    pub size: GenSize,
}

impl GenSpec {
    /// Creates a spec.
    pub fn new(seed: u64, size: GenSize) -> Self {
        GenSpec { seed, size }
    }

    /// Application name stem, e.g. `"gen-42-small"`.
    pub fn stem(&self) -> String {
        format!("gen-{}-{}", self.seed, self.size.name())
    }

    /// Modeled binary name, e.g. `"gen-42-small.exe"`.
    pub fn image_name(&self) -> String {
        format!("{}.exe", self.stem())
    }
}

/// Parses the `gen:` image-address payload: `"<seed>"` or `"<seed>:<size>"`
/// (size defaults to `small`, the explore-friendly class).
pub fn parse_gen_spec(text: &str) -> Option<GenSpec> {
    let (seed_text, size_text) = match text.split_once(':') {
        Some((s, z)) => (s, z),
        None => (text, "small"),
    };
    let seed = seed_text.parse::<u64>().ok()?;
    let size = GenSize::parse(size_text)?;
    Some(GenSpec::new(seed, size))
}

/// Resolves a generated-application *name* (`"gen-42-small"`, with or
/// without a trailing `.exe`) back to the application it denotes. This is
/// how `coign profile`/`run`/`chaos` recognize a generated image: the name
/// is the seed.
pub fn app_for_name(name: &str) -> Option<Arc<dyn Application>> {
    let stem = name.strip_suffix(".exe").unwrap_or(name);
    let rest = stem.strip_prefix("gen-")?;
    let (seed_text, size_text) = rest.rsplit_once('-')?;
    let seed = seed_text.parse::<u64>().ok()?;
    let size = GenSize::parse(size_text)?;
    Some(Arc::new(GeneratedApp::new(GenSpec::new(seed, size))))
}

// ---------------------------------------------------------------------------
// Blueprint
// ---------------------------------------------------------------------------

/// One generated leaf-widget class.
#[derive(Debug, Clone)]
pub struct LeafGen {
    /// Class name.
    pub name: &'static str,
    /// `Notify` calls to the parent window site during `Build`.
    pub notify: u32,
    /// Compute charged by `Build` (pre-`WORK_SCALE` units).
    pub build: u64,
    /// Compute charged by `Paint`.
    pub paint: u64,
    /// Transient class spawned from idle refreshes, if any.
    pub spawn: Option<&'static str>,
}

/// One generated container-widget class.
#[derive(Debug, Clone)]
pub struct BarGen {
    /// Class name.
    pub name: &'static str,
    /// Child leaf classes instantiated during `Build`: `(class, count)`.
    pub children: Vec<(&'static str, usize)>,
    /// `Notify` calls to the frame's window site.
    pub notify: u32,
}

/// One generated file-store class (STORAGE import — pinned to the server).
#[derive(Debug, Clone)]
pub struct StoreGen {
    /// Class name.
    pub name: &'static str,
    /// Content page count.
    pub pages: i32,
    /// Bytes per page (drawn from the large ICC buckets).
    pub page_size: u64,
    /// Named auxiliary streams.
    pub streams: Vec<(&'static str, u64)>,
}

/// One generated document class (unpinned; the interesting min-cut nodes).
#[derive(Debug, Clone)]
pub struct DocGen {
    /// Class name.
    pub name: &'static str,
    /// Backing store class.
    pub store: &'static str,
    /// Pages read during `Load`.
    pub load_pages: i32,
    /// `Fetch` reply sizes driven by the `g_doc` scenario (calibrated).
    pub fetch_sizes: Vec<u64>,
}

/// The complete deterministic plan for one generated application.
#[derive(Debug, Clone)]
pub struct Blueprint {
    /// The identifying spec.
    pub spec: GenSpec,
    /// Root frame widget class.
    pub frame: &'static str,
    /// Container widgets under the frame.
    pub bars: Vec<BarGen>,
    /// Leaf widget classes.
    pub leaves: Vec<LeafGen>,
    /// Transient classes allocated through the theme service.
    pub tips: Vec<&'static str>,
    /// Shared theme/resource service class.
    pub theme: &'static str,
    /// Idle-loop class.
    pub idle: &'static str,
    /// File stores.
    pub stores: Vec<StoreGen>,
    /// Document classes.
    pub docs: Vec<DocGen>,
    /// Native-handle canvas classes (non-remotable interface).
    pub canvases: Vec<&'static str>,
    /// The commit ledger class (server-pinned, honest `mutates_state`).
    pub ledger: &'static str,
    /// Ledger commit payload sizes driven by `g_main` (calibrated).
    pub commit_sizes: Vec<u64>,
    /// Document fetch sizes interleaved with the commits in `g_main`.
    pub main_fetches: Vec<u64>,
    /// Idle rounds pumped by `g_main`.
    pub idle_rounds_main: i32,
    /// Idle rounds pumped by `g_idle`.
    pub idle_rounds_idle: i32,
    /// Explicit programmer constraints (Benefits style).
    pub constraints: Vec<NamedConstraint>,
}

struct SizeParams {
    bars: (u64, u64),
    leaf_kinds: (u64, u64),
    leaves_per_bar: (u64, u64),
    tips: (u64, u64),
    stores: (u64, u64),
    docs: (u64, u64),
    canvases: (u64, u64),
    fetches_per_doc: (u64, u64),
    commits: (u64, u64),
    idle_rounds: (i32, i32),
}

impl SizeParams {
    fn of(size: GenSize) -> SizeParams {
        match size {
            GenSize::Small => SizeParams {
                bars: (1, 2),
                leaf_kinds: (2, 3),
                leaves_per_bar: (1, 2),
                tips: (1, 1),
                stores: (1, 1),
                docs: (1, 1),
                canvases: (0, 1),
                fetches_per_doc: (18, 26),
                commits: (8, 12),
                idle_rounds: (1, 2),
            },
            GenSize::Medium => SizeParams {
                bars: (3, 5),
                leaf_kinds: (6, 9),
                leaves_per_bar: (1, 3),
                tips: (2, 2),
                stores: (2, 3),
                docs: (3, 5),
                canvases: (2, 3),
                fetches_per_doc: (80, 120),
                commits: (20, 30),
                idle_rounds: (2, 3),
            },
            GenSize::Large => SizeParams {
                bars: (8, 12),
                leaf_kinds: (18, 26),
                leaves_per_bar: (2, 4),
                tips: (3, 4),
                stores: (4, 6),
                docs: (8, 12),
                canvases: (4, 7),
                fetches_per_doc: (100, 140),
                commits: (40, 60),
                idle_rounds: (2, 4),
            },
        }
    }
}

fn pick(rng: &mut StdRng, range: (u64, u64)) -> u64 {
    rng.gen_range(range.0..=range.1)
}

impl Blueprint {
    /// Generates the blueprint for `spec`. Pure: identical specs yield
    /// identical blueprints (the seed is mixed with the size class so
    /// `gen-7-small` and `gen-7-large` differ structurally, not just in
    /// scale).
    fn generate(spec: GenSpec) -> Blueprint {
        let size_salt = match spec.size {
            GenSize::Small => 0x5347u64,
            GenSize::Medium => 0x4D45u64,
            GenSize::Large => 0x4C41u64,
        };
        let mut rng =
            StdRng::seed_from_u64(spec.seed ^ size_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let p = SizeParams::of(spec.size);

        let tips: Vec<&'static str> = (0..pick(&mut rng, p.tips))
            .map(|i| intern(format!("GenTip{i}")))
            .collect();

        const LEAF_STEMS: [&str; 8] = [
            "GenLabel",
            "GenRuler",
            "GenPane",
            "GenTree",
            "GenListRow",
            "GenBadge",
            "GenChip",
            "GenMeter",
        ];
        let leaves: Vec<LeafGen> = (0..pick(&mut rng, p.leaf_kinds))
            .map(|i| {
                let stem = LEAF_STEMS[rng.gen_range(0..LEAF_STEMS.len() as u64) as usize];
                let spawn = if rng.gen_bool(0.5) && !tips.is_empty() {
                    Some(tips[rng.gen_range(0..tips.len() as u64) as usize])
                } else {
                    None
                };
                LeafGen {
                    name: intern(format!("{stem}{i}")),
                    notify: rng.gen_range(1..=3u64) as u32,
                    build: pick(&mut rng, (4, 14)),
                    paint: pick(&mut rng, (2, 8)),
                    spawn,
                }
            })
            .collect();

        let bars: Vec<BarGen> = (0..pick(&mut rng, p.bars))
            .map(|i| {
                let kinds = pick(&mut rng, p.leaves_per_bar).min(leaves.len() as u64);
                let children = (0..kinds)
                    .map(|_| {
                        let leaf = &leaves[rng.gen_range(0..leaves.len() as u64) as usize];
                        (leaf.name, rng.gen_range(1..=2u64) as usize)
                    })
                    .collect();
                BarGen {
                    name: intern(format!("GenBar{i}")),
                    children,
                    notify: rng.gen_range(1..=2u64) as u32,
                }
            })
            .collect();

        let stores: Vec<StoreGen> = (0..pick(&mut rng, p.stores))
            .map(|i| {
                // Page sizes live in the heavy tail of the paper's message
                // distribution: 8 KiB – 128 KiB (buckets k = 7..=11).
                let k = rng.gen_range(7..=11u64) as u32;
                let page_size = rng.gen_range(64 * (1u64 << (k - 1)) + 1..=64 * (1u64 << k));
                let streams = (0..rng.gen_range(1..=2u64))
                    .map(|s| {
                        (
                            intern(format!("gstream{i}_{s}")),
                            rng.gen_range(256..=4096u64),
                        )
                    })
                    .collect();
                StoreGen {
                    name: intern(format!("GenStore{i}")),
                    pages: rng.gen_range(3..=10u64) as i32,
                    page_size,
                    streams,
                }
            })
            .collect();

        let docs: Vec<DocGen> = (0..pick(&mut rng, p.docs))
            .map(|i| {
                let store = &stores[rng.gen_range(0..stores.len() as u64) as usize];
                let fetch_sizes = (0..pick(&mut rng, p.fetches_per_doc))
                    .map(|_| calibration::sample_size(&mut rng))
                    .collect();
                DocGen {
                    name: intern(format!("GenDoc{i}")),
                    store: store.name,
                    load_pages: rng.gen_range(1..=store.pages as u64).max(1) as i32,
                    fetch_sizes,
                }
            })
            .collect();

        let canvases: Vec<&'static str> = (0..pick(&mut rng, p.canvases))
            .map(|i| intern(format!("GenCanvas{i}")))
            .collect();

        let commit_sizes: Vec<u64> = (0..pick(&mut rng, p.commits))
            .map(|_| calibration::sample_size(&mut rng))
            .collect();
        let main_fetches: Vec<u64> = (0..commit_sizes.len())
            .map(|_| calibration::sample_size(&mut rng))
            .collect();

        let ledger = intern(format!("GenLedger{}", spec.seed % 10));

        // Explicit constraints in the Benefits style: the ledger is always
        // pinned to the server (data security), and some documents are
        // colocated with their store (integrity). Density 1–3 per app,
        // matching how rarely the paper's applications constrain placement.
        let mut constraints = vec![NamedConstraint::Absolute(
            ledger.to_string(),
            MachineId::SERVER,
        )];
        for doc in &docs {
            if constraints.len() < 3 && rng.gen_bool(0.35) {
                constraints.push(NamedConstraint::Pairwise(
                    doc.name.to_string(),
                    doc.store.to_string(),
                ));
            }
        }

        Blueprint {
            spec,
            frame: intern(format!("GenFrame{}", spec.seed % 10)),
            bars,
            leaves,
            tips,
            theme: intern("GenTheme".to_string()),
            idle: intern("GenIdle".to_string()),
            stores,
            docs,
            canvases,
            ledger,
            commit_sizes,
            main_fetches,
            idle_rounds_main: pick(&mut rng, (p.idle_rounds.0 as u64, p.idle_rounds.1 as u64))
                as i32,
            idle_rounds_idle: pick(&mut rng, (p.idle_rounds.0 as u64, p.idle_rounds.1 as u64))
                as i32
                + 1,
            constraints,
        }
    }

    /// Every class name, in registration order.
    fn class_names(&self) -> Vec<&'static str> {
        let mut names = vec![self.frame];
        names.extend(self.bars.iter().map(|b| b.name));
        names.extend(self.leaves.iter().map(|l| l.name));
        names.extend(self.tips.iter().copied());
        names.push(self.idle);
        names.push(self.theme);
        names.extend(self.stores.iter().map(|s| s.name));
        names.extend(self.docs.iter().map(|d| d.name));
        names.extend(self.canvases.iter().copied());
        names.push(self.ledger);
        names
    }

    /// Number of component classes.
    fn class_count(&self) -> usize {
        self.class_names().len()
    }

    /// Distinct interfaces registered by this app.
    fn interface_count(&self) -> usize {
        // IWidget, IWindowSite, IIdleLoop, ITheme, IStore, IGenDoc,
        // IGenLedger (+ IGenNative when canvases exist).
        7 + usize::from(!self.canvases.is_empty())
    }

    /// Non-remotable interfaces among [`Self::interface_count`].
    fn non_remotable_count(&self) -> usize {
        // IWindowSite always; IGenNative when canvases exist.
        1 + usize::from(!self.canvases.is_empty())
    }

    /// Total `Fetch` calls across all scenarios.
    fn fetch_calls(&self) -> usize {
        self.docs.iter().map(|d| d.fetch_sizes.len()).sum::<usize>() + self.main_fetches.len()
    }
}

// ---------------------------------------------------------------------------
// Generated component classes
// ---------------------------------------------------------------------------

/// Method index of `IGenDoc::Fetch`.
pub const DOC_FETCH: u32 = 0;
/// Method index of `IGenDoc::Load`.
pub const DOC_LOAD: u32 = 1;
/// Method index of `IGenDoc::Stat`.
pub const DOC_STAT: u32 = 2;
/// Method index of `IGenLedger::Commit`.
pub const LEDGER_COMMIT: u32 = 0;
/// Method index of `IGenNative::Blit`.
pub const NATIVE_BLIT: u32 = 0;

/// The generated document interface — fully annotated so the state-effect
/// and replication analyses have real metadata to chew on.
fn igen_doc() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IGenDoc")
            .method("Fetch", |m| {
                m.input("bytes", PType::I4)
                    .output("data", PType::Blob)
                    .reads_state()
            })
            .method("Load", |m| m.input("pages", PType::I4).mutates_state())
            .method("Stat", |m| m.output("pages", PType::I4).reads_state())
            .build()
    });
    Arc::clone(&DESC)
}

/// The commit ledger interface (honest `mutates_state`).
fn igen_ledger() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IGenLedger")
            .method("Commit", |m| {
                m.input("payload", PType::Blob)
                    .output("seq", PType::I4)
                    .mutates_state()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// The native canvas interface: an opaque window handle crosses it, so it
/// is non-remotable (PhotoDraw's shared-memory hazard).
fn igen_native() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IGenNative")
            .method("Blit", |m| {
                m.input("hwnd", PType::Opaque).input("rows", PType::I4)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// A generated document: loads pages from its backing store, then serves
/// calibrated `Fetch` replies.
struct GenDoc {
    store_class: &'static str,
    store: Mutex<Option<InterfacePtr>>,
    pages_loaded: Mutex<i32>,
}

impl ComObject for GenDoc {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            DOC_FETCH => {
                work(ctx, 2);
                let bytes = msg.arg(0).and_then(Value::as_i4).unwrap_or(0).max(0) as u64;
                msg.set(1, Value::Blob(bytes));
                Ok(())
            }
            DOC_LOAD => {
                work(ctx, 5);
                let want = msg.arg(0).and_then(Value::as_i4).unwrap_or(0).max(0);
                let store = {
                    let cached = self.store.lock().clone();
                    match cached {
                        Some(s) => s,
                        None => {
                            let s = ctx.create(
                                Clsid::from_name(self.store_class),
                                Iid::from_name("IStore"),
                            )?;
                            *self.store.lock() = Some(s.clone());
                            s
                        }
                    }
                };
                let mut count = Message::outputs(1);
                store.call(ctx.rt(), STORE_PAGE_COUNT, &mut count)?;
                let pages = count.arg(0).and_then(Value::as_i4).unwrap_or(0).min(want);
                for page in 0..pages {
                    let mut read = Message::new(vec![Value::I4(page), Value::Null]);
                    store.call(ctx.rt(), STORE_READ_PAGE, &mut read)?;
                }
                *self.pages_loaded.lock() += pages;
                Ok(())
            }
            DOC_STAT => {
                work(ctx, 1);
                msg.set(0, Value::I4(*self.pages_loaded.lock()));
                Ok(())
            }
            _ => Err(ComError::App(format!("IGenDoc has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&(*self.pages_loaded.lock(), self.store.lock().is_some()))
    }
}

/// The commit ledger: the exactly-once witness. Every `Commit` bumps a
/// counter shared with the [`GeneratedApp`] that registered the class, so
/// a test can compare observed commits against the scenario's script.
struct GenLedger {
    counter: Arc<AtomicU64>,
}

impl ComObject for GenLedger {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            LEDGER_COMMIT => {
                work(ctx, 4);
                let seq = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
                msg.set(1, Value::I4(seq as i32));
                Ok(())
            }
            _ => Err(ComError::App(format!("IGenLedger has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&self.counter.load(Ordering::SeqCst))
    }
}

/// A native canvas: cheap compute behind a non-remotable interface.
struct GenCanvas;

impl ComObject for GenCanvas {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            NATIVE_BLIT => {
                let rows = msg.arg(1).and_then(Value::as_i4).unwrap_or(1).max(1) as u64;
                work(ctx, rows);
                Ok(())
            }
            _ => Err(ComError::App(format!("IGenNative has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64)
    }
}

// ---------------------------------------------------------------------------
// The application
// ---------------------------------------------------------------------------

/// A fully synthetic Coign application generated from a [`GenSpec`].
pub struct GeneratedApp {
    blueprint: Arc<Blueprint>,
    name: String,
    ledger_commits: Arc<AtomicU64>,
}

impl GeneratedApp {
    /// Builds the application for `spec` (deterministic).
    pub fn new(spec: GenSpec) -> GeneratedApp {
        GeneratedApp {
            blueprint: Arc::new(Blueprint::generate(spec)),
            name: spec.stem(),
            ledger_commits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The same application with a commit ledger of its own: the
    /// blueprint is shared, not generated again.
    pub(crate) fn with_fresh_ledger(&self) -> GeneratedApp {
        GeneratedApp {
            blueprint: Arc::clone(&self.blueprint),
            name: self.name.clone(),
            ledger_commits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Ledger commits observed so far (across every run of this instance).
    pub fn ledger_commits(&self) -> u64 {
        self.ledger_commits.load(Ordering::SeqCst)
    }

    /// Ledger commits a *completed* run of `scenario` performs.
    pub fn expected_commits(&self, scenario: &str) -> u64 {
        match scenario {
            "g_main" => self.blueprint.commit_sizes.len() as u64,
            _ => 0,
        }
    }

    fn run_g_main(&self, rt: &ComRuntime) -> ComResult<()> {
        let bp = &self.blueprint;
        let frame = rt.create_instance(Clsid::from_name(bp.frame), Iid::from_name("IWidget"))?;
        call(rt, &frame, WIDGET_BUILD, vec![Value::Interface(None)])?;
        let idle = rt.create_instance(Clsid::from_name(bp.idle), Iid::from_name("IIdleLoop"))?;
        call(
            rt,
            &frame,
            WIDGET_REGISTER_IDLE,
            vec![Value::Interface(Some(idle.clone()))],
        )?;
        call(rt, &idle, IDLE_PUMP, vec![Value::I4(bp.idle_rounds_main)])?;
        call(rt, &frame, WIDGET_PAINT, vec![])?;
        for canvas in &bp.canvases {
            let c = rt.create_instance(Clsid::from_name(canvas), Iid::from_name("IGenNative"))?;
            call(rt, &c, NATIVE_BLIT, vec![Value::Opaque(1), Value::I4(4)])?;
        }
        let ledger =
            rt.create_instance(Clsid::from_name(bp.ledger), Iid::from_name("IGenLedger"))?;
        let doc = &bp.docs[0];
        let d = rt.create_instance(Clsid::from_name(doc.name), Iid::from_name("IGenDoc"))?;
        call(rt, &d, DOC_LOAD, vec![Value::I4(doc.load_pages.min(2))])?;
        for (i, payload) in bp.commit_sizes.iter().enumerate() {
            call(rt, &ledger, LEDGER_COMMIT, vec![Value::Blob(*payload)])?;
            call(
                rt,
                &d,
                DOC_FETCH,
                vec![Value::I4(bp.main_fetches[i] as i32)],
            )?;
        }
        Ok(())
    }

    fn run_g_doc(&self, rt: &ComRuntime) -> ComResult<()> {
        let bp = &self.blueprint;
        for doc in &bp.docs {
            let d = rt.create_instance(Clsid::from_name(doc.name), Iid::from_name("IGenDoc"))?;
            call(rt, &d, DOC_LOAD, vec![Value::I4(doc.load_pages)])?;
            call(rt, &d, DOC_STAT, vec![])?;
            for size in &doc.fetch_sizes {
                call(rt, &d, DOC_FETCH, vec![Value::I4(*size as i32)])?;
            }
        }
        // Touch the auxiliary streams directly, the way a property sheet
        // would.
        for store in &bp.stores {
            let s = rt.create_instance(Clsid::from_name(store.name), Iid::from_name("IStore"))?;
            for (stream, _) in &store.streams {
                call(
                    rt,
                    &s,
                    STORE_READ_STREAM,
                    vec![Value::Str(stream.to_string())],
                )?;
            }
        }
        Ok(())
    }

    fn run_g_idle(&self, rt: &ComRuntime) -> ComResult<()> {
        let bp = &self.blueprint;
        let frame = rt.create_instance(Clsid::from_name(bp.frame), Iid::from_name("IWidget"))?;
        call(rt, &frame, WIDGET_BUILD, vec![Value::Interface(None)])?;
        let idle = rt.create_instance(Clsid::from_name(bp.idle), Iid::from_name("IIdleLoop"))?;
        call(
            rt,
            &frame,
            WIDGET_REGISTER_IDLE,
            vec![Value::Interface(Some(idle.clone()))],
        )?;
        call(rt, &idle, IDLE_PUMP, vec![Value::I4(bp.idle_rounds_idle)])?;
        call(rt, &frame, WIDGET_PAINT, vec![])?;
        Ok(())
    }

    /// Renders the topology summary (`coign gen`): one stable line per
    /// statistic in human mode, a flat object in JSON mode.
    pub fn summary(&self, json: bool) -> String {
        let bp = &self.blueprint;
        let scenarios = self.scenarios();
        if json {
            let list = scenarios
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                concat!(
                    "{{\n",
                    "  \"app\": \"{}\",\n",
                    "  \"seed\": {},\n",
                    "  \"size\": \"{}\",\n",
                    "  \"classes\": {},\n",
                    "  \"gui_classes\": {},\n",
                    "  \"stores\": {},\n",
                    "  \"documents\": {},\n",
                    "  \"canvases\": {},\n",
                    "  \"interfaces\": {},\n",
                    "  \"non_remotable_interfaces\": {},\n",
                    "  \"explicit_constraints\": {},\n",
                    "  \"ledger_commits_per_g_main\": {},\n",
                    "  \"fetch_calls\": {},\n",
                    "  \"scenarios\": [{}]\n",
                    "}}"
                ),
                self.name,
                bp.spec.seed,
                bp.spec.size.name(),
                bp.class_count(),
                1 + bp.bars.len() + bp.leaves.len() + bp.tips.len(),
                bp.stores.len(),
                bp.docs.len(),
                bp.canvases.len(),
                bp.interface_count(),
                bp.non_remotable_count(),
                bp.constraints.len(),
                bp.commit_sizes.len(),
                bp.fetch_calls(),
                list,
            )
        } else {
            format!(
                concat!(
                    "app {} (seed {}, size {})\n",
                    "  classes: {} ({} gui, {} store, {} doc, {} canvas, 1 ledger)\n",
                    "  interfaces: {} ({} non-remotable)\n",
                    "  explicit constraints: {}\n",
                    "  ledger commits per g_main: {}\n",
                    "  calibrated fetch calls: {}\n",
                    "  scenarios: {}\n"
                ),
                self.name,
                bp.spec.seed,
                bp.spec.size.name(),
                bp.class_count(),
                1 + bp.bars.len() + bp.leaves.len() + bp.tips.len(),
                bp.stores.len(),
                bp.docs.len(),
                bp.canvases.len(),
                bp.interface_count(),
                bp.non_remotable_count(),
                bp.constraints.len(),
                bp.commit_sizes.len(),
                bp.fetch_calls(),
                scenarios.join(" "),
            )
        }
    }
}

impl Application for GeneratedApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn register(&self, rt: &ComRuntime) {
        let bp = &self.blueprint;
        register_gui_class(
            rt,
            bp.frame,
            GuiSpec {
                children: bp.bars.iter().map(|b| (b.name, 1)).collect(),
                notify_parent: 1,
                build_cost_us: 8,
                paint_cost_us: 4,
                idle_spawn: None,
            },
        );
        for bar in &bp.bars {
            register_gui_class(
                rt,
                bar.name,
                GuiSpec {
                    children: bar.children.clone(),
                    notify_parent: bar.notify,
                    build_cost_us: 5,
                    paint_cost_us: 3,
                    idle_spawn: None,
                },
            );
        }
        for leaf in &bp.leaves {
            register_gui_class(
                rt,
                leaf.name,
                GuiSpec {
                    children: Vec::new(),
                    notify_parent: leaf.notify,
                    build_cost_us: leaf.build,
                    paint_cost_us: leaf.paint,
                    idle_spawn: leaf.spawn,
                },
            );
        }
        for tip in &bp.tips {
            register_gui_class(rt, tip, GuiSpec::default());
        }
        register_idle_loop(rt, bp.idle, Some(bp.theme));
        register_theme_engine(rt, bp.theme);
        for store in &bp.stores {
            register_file_store(
                rt,
                store.name,
                store.pages,
                store.page_size,
                store.streams.clone(),
            );
        }
        for doc in &bp.docs {
            let store_class = doc.store;
            rt.registry()
                .register(doc.name, vec![igen_doc()], ApiImports::NONE, move |_, _| {
                    Arc::new(GenDoc {
                        store_class,
                        store: Mutex::new(None),
                        pages_loaded: Mutex::new(0),
                    })
                });
        }
        for canvas in &bp.canvases {
            rt.registry()
                .register(canvas, vec![igen_native()], ApiImports::GUI, |_, _| {
                    Arc::new(GenCanvas)
                });
        }
        let counter = self.ledger_commits.clone();
        rt.registry().register(
            bp.ledger,
            vec![igen_ledger()],
            ApiImports::STORAGE,
            move |_, _| {
                Arc::new(GenLedger {
                    counter: counter.clone(),
                })
            },
        );
    }

    fn scenarios(&self) -> Vec<&'static str> {
        vec!["g_main", "g_doc", "g_idle"]
    }

    fn run_scenario(&self, rt: &ComRuntime, scenario: &str) -> ComResult<()> {
        match scenario {
            "g_main" => self.run_g_main(rt),
            "g_doc" => self.run_g_doc(rt),
            "g_idle" => self.run_g_idle(rt),
            other => Err(ComError::App(format!(
                "{} has no scenario {other:?}",
                self.name
            ))),
        }
    }

    fn image(&self) -> AppImage {
        AppImage::builder(&self.blueprint.spec.image_name())
            .classes(
                self.blueprint
                    .class_names()
                    .into_iter()
                    .map(Clsid::from_name),
            )
            .import("gdi32.dll")
            .import("storage.dll")
            .build()
    }

    fn default_placement(&self, class_name: &str) -> MachineId {
        // Desktop default: everything on the client except the data files
        // and the ledger, which live on the server.
        if self.blueprint.stores.iter().any(|s| s.name == class_name)
            || class_name == self.blueprint.ledger
        {
            MachineId::SERVER
        } else {
            MachineId::CLIENT
        }
    }

    fn explicit_constraints(&self) -> Vec<NamedConstraint> {
        self.blueprint.constraints.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blueprints_are_deterministic() {
        let a = Blueprint::generate(GenSpec::new(7, GenSize::Medium));
        let b = Blueprint::generate(GenSpec::new(7, GenSize::Medium));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = Blueprint::generate(GenSpec::new(8, GenSize::Medium));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn sizes_scale_class_counts() {
        let small = Blueprint::generate(GenSpec::new(3, GenSize::Small)).class_count();
        let medium = Blueprint::generate(GenSpec::new(3, GenSize::Medium)).class_count();
        let large = Blueprint::generate(GenSpec::new(3, GenSize::Large)).class_count();
        assert!(small < medium && medium < large, "{small} {medium} {large}");
        assert!((6..=16).contains(&small), "small app had {small} classes");
        assert!(large >= 40, "large app had only {large} classes");
    }

    #[test]
    fn class_names_are_unique() {
        for seed in [0u64, 1, 42, 99] {
            let bp = Blueprint::generate(GenSpec::new(seed, GenSize::Large));
            let names = bp.class_names();
            let mut dedup = names.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len(), "duplicate class in seed {seed}");
        }
    }

    #[test]
    fn spec_addressing_round_trips() {
        let spec = GenSpec::new(42, GenSize::Small);
        assert_eq!(spec.stem(), "gen-42-small");
        assert_eq!(parse_gen_spec("42"), Some(spec));
        assert_eq!(parse_gen_spec("42:small"), Some(spec));
        assert_eq!(
            parse_gen_spec("42:large"),
            Some(GenSpec::new(42, GenSize::Large))
        );
        assert!(parse_gen_spec("x").is_none());
        assert!(parse_gen_spec("42:gigantic").is_none());
        let app = app_for_name("gen-42-small.exe").expect("resolved");
        assert_eq!(app.name(), "gen-42-small");
        assert!(app_for_name("octarine.exe").is_none());
        assert!(app_for_name("gen-x-small").is_none());
    }

    #[test]
    fn default_run_completes_every_scenario() {
        let app = GeneratedApp::new(GenSpec::new(5, GenSize::Small));
        for scenario in app.scenarios() {
            coign::run_default(
                &app,
                scenario,
                coign_dcom::NetworkModel::ethernet_10baset(),
                0x000C_0161,
            )
            .unwrap_or_else(|e| {
                panic!("scenario {scenario} failed: {e}");
            });
        }
        assert_eq!(app.ledger_commits(), app.expected_commits("g_main"));
    }

    #[test]
    fn image_lists_every_registered_class() {
        let app = GeneratedApp::new(GenSpec::new(11, GenSize::Medium));
        let image = app.image();
        let rt = ComRuntime::single_machine();
        app.register(&rt);
        for name in app.blueprint.class_names() {
            assert!(
                image.classes.contains(&Clsid::from_name(name)),
                "{name} missing from image"
            );
        }
        assert_eq!(image.classes.len(), app.blueprint.class_count());
    }
}
