//! PhotoDraw — the consumer image composer.
//!
//! A synthetic reconstruction of Microsoft PhotoDraw 2000 as the paper
//! describes it: 112 component classes, a composition reader, high-level
//! property sets created directly from data in the file, and a hierarchy of
//! **sprite caches** that pass pixels between themselves and the UI through
//! shared-memory regions — opaque pointers that make their interfaces
//! non-remotable and constrain Coign's distribution (Figure 4: of 295
//! components, only the reader and seven property sets can usefully move).

use crate::common::{
    blob_of, call, fingerprint_of, i4_of, iface_of, register_gui_class, register_idle_loop,
    register_theme_engine, work, GuiSpec, IDLE_PUMP, STORE_READ_PAGE, STORE_READ_STREAM,
    WIDGET_BUILD, WIDGET_PAINT, WIDGET_REGISTER_IDLE,
};
use coign::application::Application;
use coign_com::idl::{InterfaceBuilder, InterfaceDesc};
use coign_com::{
    ApiImports, AppImage, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid,
    InterfacePtr, Message, PType, Value,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Pixel chunk size, bytes.
pub const CHUNK_BYTES: u64 = 100_000;
/// Number of property sets in a composition.
pub const PROP_SETS: usize = 7;
/// Sprite-cache fanout (root → children → grandchildren).
pub const SPRITE_FANOUT: usize = 3;
/// Property queries the UI sends each property set.
pub const PROP_QUERIES: i32 = 4;

/// `IPdReader`: the composition reader. `Open` loads the file; the chunk
/// and stream accessors afterwards only read it.
fn ipd_reader() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("IPdReader")
        .method("Open", |m| m.input("doc", PType::Str).mutates_state())
        .method("GetChunk", |m| {
            m.input("i", PType::I4)
                .output("pixels", PType::Blob)
                .reads_state()
        })
        .method("GetPropStream", |m| {
            m.input("name", PType::Str)
                .output("data", PType::Blob)
                .reads_state()
        })
        .method("ChunkCount", |m| m.output("n", PType::I4).reads_state())
        .build()
}

/// `IPdPropSet`: a high-level property set — a read-only projection of
/// data in the file, so the replication lints prove the class legal to
/// duplicate (these are the seven components Figure 4 moves).
fn ipd_prop_set() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("IPdPropSet")
        .method("Init", |m| {
            m.input("reader", PType::Interface(Iid::from_name("IPdReader")))
                .input("stream", PType::Str)
                .reads_state()
        })
        .method("Query", |m| {
            m.input("key", PType::I4)
                .output("value", PType::Blob)
                .pure()
        })
        .build()
}

/// `ISprite`: sprite-cache construction and painting (remotable part).
fn isprite() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("ISprite")
        .method("Build", |m| {
            m.input("reader", PType::Interface(Iid::from_name("IPdReader")))
                .input("canvas", PType::Interface(Iid::from_name("IBlitSink")))
                .input("depth", PType::I4)
                .input("chunk", PType::I4)
                .mutates_state()
        })
        .method("Compose", |m| m.output("regions", PType::I4).reads_state())
        .build()
}

/// `ISharedRegion`: pixel hand-off through shared memory — **non-remotable**.
fn ishared_region() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("ISharedRegion")
        .method("Share", |m| {
            m.input("region", PType::Opaque).input("len", PType::I4)
        })
        .build()
}

/// `IBlitSink`: the canvas the sprites blit into — **non-remotable**.
fn iblit_sink() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("IBlitSink")
        .method("Blit", |m| m.input("region", PType::Opaque))
        .build()
}

/// `ISelection`: the marquee tool — tracks a selected image subset.
fn iselection() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("ISelection")
        .method("Select", |m| {
            m.input("canvas", PType::Interface(Iid::from_name("IBlitSink")))
                .input("rect", PType::Blob)
        })
        .method("Region", |m| m.output("region", PType::Opaque))
        .build()
}

/// `ITransform`: an image transform applied to a selection — the pixels
/// travel through shared memory, so the interface is **non-remotable**.
fn itransform() -> Arc<InterfaceDesc> {
    InterfaceBuilder::new("ITransform")
        .method("Apply", |m| {
            m.input("region", PType::Opaque)
                .input("strength", PType::I4)
                .mutates_state()
        })
        .method("Params", |m| {
            m.input("key", PType::I4)
                .output("value", PType::Blob)
                .reads_state()
        })
        .build()
}

/// The composition reader: pulls the whole file from the store at `Open`,
/// then serves pixel chunks and property streams from memory.
struct PdReader {
    state: Mutex<PdReaderState>,
}

#[derive(Default)]
struct PdReaderState {
    store: Option<InterfacePtr>,
    chunks: i32,
}

/// Per-document shape: `(pixel chunks, propset stream, propset bytes)`.
fn doc_shape(doc: &str) -> ComResult<(i32, &'static str, usize)> {
    Ok(match doc {
        // (chunks, property stream name, number of property sets)
        "image-new" => (12, "props_small", 1),
        "composition" => (30, "props_full", PROP_SETS),
        "drawing" => (6, "props_cur", PROP_SETS),
        "newcomp" => (36, "props_mid", PROP_SETS),
        other => return Err(ComError::App(format!("unknown document `{other}`"))),
    })
}

impl ComObject for PdReader {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        let rt = ctx.rt();
        match method {
            0 => {
                let doc = msg.arg(0).and_then(Value::as_str).unwrap_or("").to_string();
                let (chunks, _, _) = doc_shape(&doc)?;
                let store =
                    ctx.create(Clsid::from_name("PdImageStore"), Iid::from_name("IStore"))?;
                for i in 0..chunks {
                    let mut read = Message::new(vec![Value::I4(i), Value::Null]);
                    store.call(rt, STORE_READ_PAGE, &mut read)?;
                    work(ctx, 15);
                }
                // File metadata (thumbnails, color profiles).
                let mut meta = Message::new(vec![Value::Str("meta".into()), Value::Null]);
                store.call(rt, STORE_READ_STREAM, &mut meta)?;
                let mut state = self.state.lock();
                state.store = Some(store);
                state.chunks = chunks;
                Ok(())
            }
            1 => {
                work(ctx, 10);
                msg.set(1, Value::Blob(CHUNK_BYTES));
                Ok(())
            }
            2 => {
                let store = self
                    .state
                    .lock()
                    .store
                    .clone()
                    .ok_or(ComError::App("reader not opened".to_string()))?;
                let name = msg.arg(0).and_then(Value::as_str).unwrap_or("").to_string();
                let mut read = Message::new(vec![Value::Str(name), Value::Null]);
                store.call(rt, STORE_READ_STREAM, &mut read)?;
                work(ctx, 10);
                msg.set(1, Value::Blob(blob_of(&read, 1)));
                Ok(())
            }
            3 => {
                msg.set(0, Value::I4(self.state.lock().chunks));
                Ok(())
            }
            _ => Err(ComError::App(format!("IPdReader has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        let state = self.state.lock();
        fingerprint_of(&(state.store.is_some(), state.chunks))
    }
}

/// A high-level property set: large input from the file, small replies to
/// the UI — the components Coign moves to the server in Figure 4.
struct PdPropSet;

impl ComObject for PdPropSet {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                let reader = iface_of(msg, 0)?;
                let stream = msg.arg(1).and_then(Value::as_str).unwrap_or("").to_string();
                let mut pull = Message::new(vec![Value::Str(stream), Value::Null]);
                reader.call(ctx.rt(), 2, &mut pull)?;
                work(ctx, 40);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(1, Value::Blob(200));
                Ok(())
            }
            _ => Err(ComError::App(format!("IPdPropSet has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // read-only projection of the file
    }
}

/// A sprite cache: pulls pixels from the reader, shares regions with its
/// parent and blits to the canvas through shared memory.
struct SpriteCache {
    children: Mutex<Vec<InterfacePtr>>,
}

impl ComObject for SpriteCache {
    fn invoke(&self, ctx: &CallCtx<'_>, iid: Iid, method: u32, msg: &mut Message) -> ComResult<()> {
        let rt = ctx.rt();
        if iid == Iid::from_name("ISharedRegion") {
            work(ctx, 2);
            return Ok(());
        }
        match method {
            0 => {
                let reader = iface_of(msg, 0)?;
                let canvas = iface_of(msg, 1)?;
                let depth = i4_of(msg, 2);
                let chunk = i4_of(msg, 3);
                // Leaf sprites pull pixels through the remotable pixel
                // source; interior sprites compose purely from their
                // children's shared-memory regions. Each leaf covers one
                // region of the image, so the total pulled matches the
                // image size — a leaf whose region lies outside the image
                // pulls nothing.
                if depth == 0 {
                    let mut count = Message::outputs(1);
                    reader.call(rt, 3, &mut count)?;
                    let chunks = i4_of(&count, 0).max(1);
                    if chunk < chunks {
                        let mut pull = Message::new(vec![Value::I4(chunk), Value::Null]);
                        reader.call(rt, 1, &mut pull)?;
                    }
                }
                work(ctx, 30);
                // Blit into the canvas through shared memory (opaque).
                let mut blit = Message::new(vec![Value::Opaque(ctx.self_id().0)]);
                canvas.call(rt, 0, &mut blit)?;
                // Children.
                if depth > 0 {
                    let my_region = rt.make_ptr(ctx.self_id(), Iid::from_name("ISharedRegion"))?;
                    let mut children = Vec::new();
                    for i in 0..SPRITE_FANOUT as i32 {
                        let child = ctx
                            .create(Clsid::from_name("PdSpriteCache"), Iid::from_name("ISprite"))?;
                        let mut build = Message::new(vec![
                            Value::Interface(Some(reader.clone())),
                            Value::Interface(Some(canvas.clone())),
                            Value::I4(depth - 1),
                            Value::I4(chunk * SPRITE_FANOUT as i32 + i),
                        ]);
                        child.call(rt, 0, &mut build)?;
                        // The child hands its region up through shared
                        // memory — the non-remotable sprite↔sprite links.
                        let child_region =
                            rt.query_interface(&child, Iid::from_name("ISharedRegion"))?;
                        let mut share =
                            Message::new(vec![Value::Opaque(child.owner().0), Value::I4(4096)]);
                        child_region.call(rt, 0, &mut share)?;
                        let mut share_up =
                            Message::new(vec![Value::Opaque(ctx.self_id().0), Value::I4(4096)]);
                        my_region.call(rt, 0, &mut share_up)?;
                        children.push(child);
                    }
                    *self.children.lock() = children;
                }
                Ok(())
            }
            1 => {
                let children: Vec<InterfacePtr> = self.children.lock().clone();
                let mut regions = 1i32;
                for child in &children {
                    let mut inner = Message::outputs(1);
                    child.call(rt, 1, &mut inner)?;
                    regions += i4_of(&inner, 0);
                }
                work(ctx, 8);
                msg.set(0, Value::I4(regions));
                Ok(())
            }
            _ => Err(ComError::App(format!("ISprite has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&(self.children.lock().len() as u64))
    }
}

/// The marquee selection tool: owns a shared-memory region of the image.
struct PdSelection;

impl ComObject for PdSelection {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, 15);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(0, Value::Opaque(ctx.self_id().0));
                Ok(())
            }
            _ => Err(ComError::App(format!("ISelection has no method {method}"))),
        }
    }
}

/// One image transform (blur, sharpen, recolor, …): operates on a
/// shared-memory region in place.
struct PdTransform {
    cost_us: u64,
}

impl ComObject for PdTransform {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, self.cost_us);
                Ok(())
            }
            1 => {
                work(ctx, 1);
                msg.set(1, Value::Blob(64));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITransform has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&self.cost_us)
    }
}

/// The drawing canvas: receives shared-memory blits (GUI, non-remotable).
struct PdCanvas;

impl ComObject for PdCanvas {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        _method: u32,
        _msg: &mut Message,
    ) -> ComResult<()> {
        work(ctx, 3);
        Ok(())
    }
}

/// Registers PhotoDraw's GUI widget catalog.
fn register_gui(rt: &ComRuntime) {
    register_gui_class(rt, "PdTooltip", GuiSpec::default());
    register_gui_class(rt, "PdSwatch", GuiSpec::default());
    for leaf in ["PdToolButton", "PdEffectButton", "PdZoomButton"] {
        register_gui_class(
            rt,
            leaf,
            GuiSpec {
                notify_parent: 1,
                build_cost_us: 3,
                paint_cost_us: 2,
                idle_spawn: Some("PdTooltip"),
                ..GuiSpec::default()
            },
        );
    }
    register_gui_class(
        rt,
        "PdColorChip",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            idle_spawn: Some("PdSwatch"),
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdToolbar",
        GuiSpec {
            children: vec![("PdToolButton", 10), ("PdZoomButton", 3)],
            notify_parent: 1,
            build_cost_us: 5,
            paint_cost_us: 3,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdEffectGallery",
        GuiSpec {
            children: vec![("PdEffectButton", 18)],
            notify_parent: 1,
            build_cost_us: 5,
            paint_cost_us: 4,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdColorPalette",
        GuiSpec {
            children: vec![("PdColorChip", 24)],
            notify_parent: 1,
            build_cost_us: 4,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdStatusBar",
        GuiSpec {
            children: vec![("PdColorChip", 2)],
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdWorkPane",
        GuiSpec {
            children: vec![("PdToolbar", 1), ("PdColorPalette", 1)],
            notify_parent: 1,
            build_cost_us: 4,
            paint_cost_us: 3,
            ..GuiSpec::default()
        },
    );
    register_gui_class(rt, "PdHistogramBar", GuiSpec::default());
    register_gui_class(
        rt,
        "PdHistogram",
        GuiSpec {
            children: vec![("PdHistogramBar", 8)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 3,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdLayerRow",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            idle_spawn: Some("PdTooltip"),
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdLayerPanel",
        GuiSpec {
            children: vec![("PdLayerRow", 6)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdNavigatorThumb",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdNavigator",
        GuiSpec {
            children: vec![("PdNavigatorThumb", 4)],
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdBrushPreview",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdBrushPalette",
        GuiSpec {
            children: vec![("PdBrushPreview", 8)],
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "PdAppWindow",
        GuiSpec {
            children: vec![
                ("PdToolbar", 2),
                ("PdEffectGallery", 1),
                ("PdColorPalette", 1),
                ("PdStatusBar", 1),
                ("PdWorkPane", 2),
                ("PdHistogram", 1),
                ("PdLayerPanel", 1),
                ("PdNavigator", 1),
                ("PdBrushPalette", 1),
            ],
            build_cost_us: 15,
            paint_cost_us: 8,
            ..GuiSpec::default()
        },
    );
    register_idle_loop(rt, "PdIdleLoop", Some("PdThemeEngine"));
    register_theme_engine(rt, "PdThemeEngine");
}

/// Creates the canvas the editing tools draw into.
fn canvas_for_edit(rt: &ComRuntime) -> ComResult<coign_com::InterfacePtr> {
    rt.create_instance(Clsid::from_name("PdCanvas"), Iid::from_name("IBlitSink"))
}

/// The PhotoDraw application.
#[derive(Debug, Default)]
pub struct PhotoDraw;

/// PhotoDraw's Table 1 scenarios.
pub const SCENARIOS: [&str; 7] = [
    "p_newdoc", "p_newmsr", "p_oldcur", "p_oldmsr", "p_offcur", "p_offmsr", "p_bigone",
];

fn docs_for(scenario: &str) -> ComResult<Vec<&'static str>> {
    Ok(match scenario {
        "p_newdoc" => vec!["image-new"],
        "p_newmsr" => vec!["newcomp"],
        "p_oldcur" => vec!["drawing"],
        "p_oldmsr" => vec!["composition"],
        "p_offcur" => vec!["image-new", "drawing"],
        "p_offmsr" => vec!["image-new", "composition"],
        "p_bigone" => vec![
            "image-new",
            "newcomp",
            "drawing",
            "composition",
            "image-new",
            "drawing",
            "image-new",
            "composition",
        ],
        other => {
            return Err(ComError::App(format!(
                "photodraw has no scenario `{other}`"
            )))
        }
    })
}

impl Application for PhotoDraw {
    fn name(&self) -> &str {
        "photodraw"
    }

    fn register(&self, rt: &ComRuntime) {
        register_gui(rt);
        crate::common::register_file_store(
            rt,
            "PdImageStore",
            64,
            CHUNK_BYTES,
            vec![
                ("meta", 100_000),
                ("props_small", 60_000),
                ("props_full", 120_000),
                ("props_cur", 40_000),
                ("props_mid", 70_000),
            ],
        );
        let reg = rt.registry();
        reg.register("PdReader", vec![ipd_reader()], ApiImports::NONE, |_, _| {
            Arc::new(PdReader {
                state: Mutex::new(PdReaderState::default()),
            })
        });
        reg.register(
            "PdPropSet",
            vec![ipd_prop_set()],
            ApiImports::NONE,
            |_, _| Arc::new(PdPropSet),
        );
        reg.register(
            "PdSpriteCache",
            vec![isprite(), ishared_region()],
            ApiImports::NONE,
            |_, _| {
                Arc::new(SpriteCache {
                    children: Mutex::new(Vec::new()),
                })
            },
        );
        reg.register("PdCanvas", vec![iblit_sink()], ApiImports::GUI, |_, _| {
            Arc::new(PdCanvas)
        });
        reg.register(
            "PdSelection",
            vec![iselection()],
            ApiImports::NONE,
            |_, _| Arc::new(PdSelection),
        );
        for (name, cost) in [
            ("PdBlurTransform", 120u64),
            ("PdSharpenTransform", 110),
            ("PdRecolorTransform", 60),
            ("PdCropTransform", 30),
            ("PdEmbossTransform", 150),
            ("PdContrastTransform", 45),
        ] {
            reg.register(name, vec![itransform()], ApiImports::NONE, move |_, _| {
                Arc::new(PdTransform { cost_us: cost })
            });
        }
    }

    fn scenarios(&self) -> Vec<&'static str> {
        SCENARIOS.to_vec()
    }

    fn run_scenario(&self, rt: &ComRuntime, scenario: &str) -> ComResult<()> {
        let docs = docs_for(scenario)?;
        // Shell.
        let window =
            rt.create_instance(Clsid::from_name("PdAppWindow"), Iid::from_name("IWidget"))?;
        call(rt, &window, WIDGET_BUILD, vec![Value::Interface(None)])?;
        let idle =
            rt.create_instance(Clsid::from_name("PdIdleLoop"), Iid::from_name("IIdleLoop"))?;
        call(
            rt,
            &window,
            WIDGET_REGISTER_IDLE,
            vec![Value::Interface(Some(idle.clone()))],
        )?;

        for doc in docs {
            let (_, stream, prop_sets) = doc_shape(doc)?;
            let reader =
                rt.create_instance(Clsid::from_name("PdReader"), Iid::from_name("IPdReader"))?;
            call(rt, &reader, 0, vec![Value::Str(doc.to_string())])?;

            // Property sets, created directly from data in the file.
            let mut sets = Vec::new();
            for _ in 0..prop_sets {
                let set = rt
                    .create_instance(Clsid::from_name("PdPropSet"), Iid::from_name("IPdPropSet"))?;
                call(
                    rt,
                    &set,
                    0,
                    vec![
                        Value::Interface(Some(reader.clone())),
                        Value::Str(stream.to_string()),
                    ],
                )?;
                sets.push(set);
            }
            // The UI queries the property sets (small replies).
            for set in &sets {
                for key in 0..PROP_QUERIES {
                    call(rt, set, 1, vec![Value::I4(key), Value::Null])?;
                }
            }

            // Sprite hierarchy renders the image into the canvas.
            let canvas =
                rt.create_instance(Clsid::from_name("PdCanvas"), Iid::from_name("IBlitSink"))?;
            let root =
                rt.create_instance(Clsid::from_name("PdSpriteCache"), Iid::from_name("ISprite"))?;
            call(
                rt,
                &root,
                0,
                vec![
                    Value::Interface(Some(reader)),
                    Value::Interface(Some(canvas)),
                    Value::I4(3),
                    Value::I4(0),
                ],
            )?;
            call(rt, &root, 1, vec![])?;

            // Editing documents run the transform pipeline: select a
            // subset of the image, apply a set of transforms to it, and
            // re-compose (the paper's §4.1 description of PhotoDraw). The
            // pixels move through shared memory — more non-remotable
            // communication pinning the editing path to the client.
            if doc == "newcomp" || doc == "image-new" {
                let selection = rt.create_instance(
                    Clsid::from_name("PdSelection"),
                    Iid::from_name("ISelection"),
                )?;
                call(
                    rt,
                    &selection,
                    0,
                    vec![
                        Value::Interface(Some(canvas_for_edit(rt)?)),
                        Value::Blob(32),
                    ],
                )?;
                let region = call(rt, &selection, 1, vec![Value::Null])?;
                let region = region.args[0].clone();
                for transform_class in ["PdBlurTransform", "PdRecolorTransform", "PdCropTransform"]
                {
                    let transform = rt.create_instance(
                        Clsid::from_name(transform_class),
                        Iid::from_name("ITransform"),
                    )?;
                    // Tune the parameters, then apply to the shared region.
                    for key in 0..3 {
                        call(rt, &transform, 1, vec![Value::I4(key), Value::Null])?;
                    }
                    call(rt, &transform, 0, vec![region.clone(), Value::I4(5)])?;
                }
                call(rt, &root, 1, vec![])?; // re-compose after editing
            }

            call(rt, &idle, IDLE_PUMP, vec![Value::I4(2)])?;
            call(rt, &window, WIDGET_PAINT, vec![])?;
        }
        Ok(())
    }

    fn image(&self) -> AppImage {
        AppImage::new(
            "photodraw.exe",
            vec![
                Clsid::from_name("PdAppWindow"),
                Clsid::from_name("PdReader"),
                Clsid::from_name("PdSpriteCache"),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_scenario_builds_sprite_hierarchy() {
        let app = PhotoDraw;
        let rt = ComRuntime::single_machine();
        app.register(&rt);
        app.run_scenario(&rt, "p_oldmsr").unwrap();
        let sprites = rt
            .instances_snapshot()
            .iter()
            .filter(|i| i.clsid == Clsid::from_name("PdSpriteCache"))
            .count();
        // 1 + 3 + 9 + 27.
        assert_eq!(sprites, 40);
        let props = rt
            .instances_snapshot()
            .iter()
            .filter(|i| i.clsid == Clsid::from_name("PdPropSet"))
            .count();
        assert_eq!(props, PROP_SETS);
        assert!(rt.instance_count() > 150);
    }

    #[test]
    fn editing_scenarios_run_the_transform_pipeline() {
        let app = PhotoDraw;
        let rt = ComRuntime::single_machine();
        app.register(&rt);
        app.run_scenario(&rt, "p_newmsr").unwrap();
        let transforms = rt
            .instances_snapshot()
            .iter()
            .filter(|i| {
                ["PdBlurTransform", "PdRecolorTransform", "PdCropTransform"]
                    .iter()
                    .any(|n| i.clsid == Clsid::from_name(n))
            })
            .count();
        assert_eq!(transforms, 3);
        // Viewing scenarios do not edit.
        let rt2 = ComRuntime::single_machine();
        app.register(&rt2);
        app.run_scenario(&rt2, "p_oldmsr").unwrap();
        assert!(!rt2
            .instances_snapshot()
            .iter()
            .any(|i| i.clsid == Clsid::from_name("PdBlurTransform")));
    }

    #[test]
    fn all_scenarios_run() {
        let app = PhotoDraw;
        for scenario in SCENARIOS {
            let rt = ComRuntime::single_machine();
            app.register(&rt);
            app.run_scenario(&rt, scenario)
                .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        }
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let app = PhotoDraw;
        let rt = ComRuntime::single_machine();
        app.register(&rt);
        assert!(app.run_scenario(&rt, "p_zzz").is_err());
    }
}
