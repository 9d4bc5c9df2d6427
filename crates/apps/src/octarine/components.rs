//! Octarine's document components: storage, reader, properties, text
//! pipeline, tables, and sheet music.
//!
//! The communication constants at the top of this module are the knobs that
//! reproduce the paper's Table 4 / Figures 5–8 shape:
//!
//! * Reading a document pulls the *whole file* through the reader — so in
//!   the default distribution (reader on the client, file on the server)
//!   communication scales with document size.
//! * Displaying a document touches only the first page, but layout chats
//!   with the text-properties component (many small queries) and with the
//!   page view (geometry callbacks). The properties chatter is what moving
//!   the reader+properties pair to the server costs; the view chatter is
//!   what keeps the layout components on the client — so small documents
//!   stay whole (0 % savings) and large documents split (95–99 %).
//! * Embedded tables trigger page-placement negotiation: table models and
//!   paragraph layouts exchange many reflow rounds and hammer the
//!   properties component, while their output to the GUI is minimal. The
//!   negotiation cluster therefore follows the reader to the server —
//!   the paper's Figure 8.

use crate::common::{
    blob_of, fingerprint_of, i4_of, iface_of, work, STORE_READ_PAGE, STORE_READ_STREAM,
};
use coign_com::idl::{InterfaceBuilder, InterfaceDesc};
use coign_com::{
    ApiImports, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid, InterfacePtr,
    Message, PType, Value,
};
use parking_lot::Mutex;
use std::sync::{Arc, LazyLock};

/// Bytes per text-document page in the file.
pub const TEXT_PAGE_BYTES: u64 = 30_000;
/// Bytes per table-document page in the file.
pub const TABLE_PAGE_BYTES: u64 = 100_000;
/// Usable bytes per table page after the reader strips formatting metadata
/// (the ~2 % the reader saves when it runs next to the file).
pub const TABLE_BATCH_BYTES: u64 = 98_000;
/// Bytes of one embedded-table batch in a mixed document.
pub const EMBEDDED_TABLE_BYTES: u64 = 100_000;
/// Size of the text-properties stream (style sheets, fonts, …).
pub const PROP_STREAM_BYTES: u64 = 150_000;
/// Paragraphs laid out per page.
pub const PARAS_PER_PAGE: usize = 4;
/// Text runs per paragraph.
pub const RUNS_PER_PARA: usize = 3;
/// Line-metric queries one paragraph layout sends the reader while
/// breaking lines (the chatter that keeps readers local for small files).
pub const READER_QUERIES_PER_LAYOUT: usize = 60;
/// Property queries issued by one paragraph layout during initial layout.
pub const PROPS_QUERIES_PER_LAYOUT: usize = 4;
/// Property queries per reflow round during table/text negotiation.
pub const PROPS_QUERIES_PER_REFLOW: usize = 8;
/// View geometry callbacks per layout: text-only documents.
pub const VIEW_CALLS_TEXT: i32 = 80;
/// View geometry callbacks per layout: mixed (negotiating) documents.
pub const VIEW_CALLS_MIXED: i32 = 3;
/// View geometry callbacks per table column: standalone table documents.
pub const VIEW_CALLS_TABLE: i32 = 20;
/// View geometry callbacks per table column: embedded tables (geometry
/// comes out of the negotiation with the text layouts instead).
pub const VIEW_CALLS_TABLE_MIXED: i32 = 0;
/// Negotiation rounds between embedded tables and paragraph layouts.
pub const NEGOTIATION_ROUNDS: i32 = 6;
/// Table columns per table.
pub const TABLE_COLUMNS: usize = 10;
/// Rows shown when a table page is displayed.
pub const DISPLAY_ROWS: i32 = 30;
/// Rows shown per embedded table.
pub const EMBEDDED_ROWS: i32 = 4;
/// Cell-set components per table (row groups negotiated as units).
pub const CELL_SETS_PER_TABLE: usize = 12;

/// `IDocReader`. `Open` loads the document (the one mutation); everything
/// after it only reads the loaded content.
fn idoc_reader() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IDocReader")
            .method("Open", |m| {
                m.input("kind", PType::Str)
                    .input("pages", PType::I4)
                    .mutates_state()
            })
            .method("GetOutline", |m| {
                m.output("outline", PType::Blob).reads_state()
            })
            .method("GetParaText", |m| {
                m.input("page", PType::I4)
                    .input("idx", PType::I4)
                    .output("text", PType::Blob)
                    .output("block", PType::Interface(Iid::from_name("ITextBlock")))
                    .reads_state()
            })
            .method("GetPropStream", |m| {
                m.output("props", PType::Blob).reads_state()
            })
            .method("GetTableBatch", |m| {
                m.input("table", PType::I4)
                    .output("batch", PType::Blob)
                    .reads_state()
            })
            .method("GetTemplate", |m| {
                m.output("template", PType::Blob).reads_state()
            })
            .method("GetLineMetrics", |m| {
                m.input("para", PType::I4)
                    .input("line", PType::I4)
                    .output("metrics", PType::Blob)
                    .pure()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// Method ids of `IDocReader`.
pub mod reader_m {
    /// `Open(kind, pages)`.
    pub const OPEN: u32 = 0;
    /// `GetOutline() -> blob`.
    pub const GET_OUTLINE: u32 = 1;
    /// `GetParaText(page, idx) -> blob`.
    pub const GET_PARA_TEXT: u32 = 2;
    /// `GetPropStream() -> blob`.
    pub const GET_PROP_STREAM: u32 = 3;
    /// `GetTableBatch(table) -> blob`.
    pub const GET_TABLE_BATCH: u32 = 4;
    /// `GetTemplate() -> blob`.
    pub const GET_TEMPLATE: u32 = 5;
    /// `GetLineMetrics(para, line) -> blob`.
    pub const GET_LINE_METRICS: u32 = 6;
}

/// `ITextProps`.
fn itext_props() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITextProps")
            .method("Init", |m| {
                m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
            })
            .method("Query", |m| {
                m.input("key", PType::I4)
                    .output("value", PType::Blob)
                    .reads_state()
            })
            // Font caches are allocated *through* the shared property set: all
            // layouts of a document funnel their cache creation through one
            // instance and one internal `AllocFace` hop — the chains that make
            // classifier accuracy depend on stack-walk depth (Table 3).
            // Allocation reads the loaded style data; it never writes it.
            .method("MakeFontCache", |m| {
                m.output("cache", PType::Interface(Iid::from_name("IFontCache")))
                    .reads_state()
            })
            .method("AllocFace", |m| {
                m.output("cache", PType::Interface(Iid::from_name("IFontCache")))
                    .reads_state()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ITextBlock`: one paragraph's backing text, handed out by the reader.
/// A flyweight over immutable text — every method is effect-free, so the
/// replication lints prove the class legal to duplicate.
fn itext_block() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITextBlock")
            .method("Init", |m| m.input("text", PType::Blob).pure())
            .method("GetRange", |m| {
                m.input("from", PType::I4)
                    .input("to", PType::I4)
                    .output("text", PType::Blob)
                    .pure()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IFontCache`: cached font metrics for one paragraph layout. The metrics
/// are fixed at creation — effect-free, hence replicable.
fn ifont_cache() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IFontCache")
            .method("Init", |m| m.input("face", PType::Blob).pure())
            .method("Measure", |m| {
                m.input("key", PType::I4).output("width", PType::I4).pure()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IStory`.
fn istory() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        let style_params = |m: coign_com::idl::MethodBuilder| {
            m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
                .input("props", PType::Interface(Iid::from_name("ITextProps")))
                .input("view", PType::Interface(Iid::from_name("IPageView")))
                .input("page", PType::I4)
                .input("idx", PType::I4)
                .input("view_calls", PType::I4)
                .output("layout", PType::Interface(Iid::from_name("ILayoutNeg")))
                .output("para", PType::Interface(Iid::from_name("IParagraph")))
        };
        InterfaceBuilder::new("IStory")
            .method("Build", |m| {
                m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
                    .input("props", PType::Interface(Iid::from_name("ITextProps")))
                    .input("view", PType::Interface(Iid::from_name("IPageView")))
                    .input("pages", PType::I4)
                    .input("tables", PType::I4)
            })
            // Per-style paragraph builders: body, heading, list, quote. Each
            // style is a distinct internal code path, so paragraphs (and their
            // layouts and runs) created for different styles carry different
            // instantiation contexts.
            .method("BuildBody", style_params)
            .method("BuildHeading", style_params)
            .method("BuildList", style_params)
            .method("BuildQuote", style_params)
            .build()
    });
    Arc::clone(&DESC)
}

/// `IParagraph`.
fn iparagraph() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IParagraph")
            .method("Init", |m| {
                m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
                    .input("props", PType::Interface(Iid::from_name("ITextProps")))
                    .input("view", PType::Interface(Iid::from_name("IPageView")))
                    .input("page", PType::I4)
                    .input("idx", PType::I4)
                    .input("view_calls", PType::I4)
                    .output("layout", PType::Interface(Iid::from_name("ILayoutNeg")))
            })
            .method("Render", |m| {
                m.input("view", PType::Interface(Iid::from_name("IPageView")))
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ILayoutNeg` — paragraph layout, including the negotiation entry point.
fn ilayout_neg() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ILayoutNeg")
            .method("Init", |m| {
                m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
                    .input("props", PType::Interface(Iid::from_name("ITextProps")))
                    .input("view", PType::Interface(Iid::from_name("IPageView")))
                    .input("view_calls", PType::I4)
                    .input("content", PType::I4)
            })
            .method("Reflow", |m| {
                m.input("round", PType::I4).output("metrics", PType::Blob)
            })
            .method("Metric", |m| {
                m.input("key", PType::I4).output("value", PType::Blob)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ITextRun`.
fn itext_run() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITextRun")
            .method("Init", |m| {
                m.input("layout", PType::Interface(Iid::from_name("ILayoutNeg")))
            })
            .method("Measure", |m| m.output("width", PType::I4))
            .build()
    });
    Arc::clone(&DESC)
}

/// `IPageStub` — placeholder for a not-yet-displayed page. Stateless.
fn ipage_stub() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IPageStub")
            .method("Init", |m| m.input("page", PType::I4).pure())
            .build()
    });
    Arc::clone(&DESC)
}

/// `IPageView` — the document viewport (a GUI component).
fn ipage_view() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IPageView")
            .method("Geometry", |m| {
                m.input("q", PType::I4).output("rect", PType::Blob)
            })
            .method("RenderPara", |m| m.input("data", PType::Blob))
            .method("DrawRow", |m| m.input("data", PType::Blob))
            .build()
    });
    Arc::clone(&DESC)
}

/// `ITableModel`.
fn itable_model() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITableModel")
            .method("Init", |m| {
                m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
                    .input("view", PType::Interface(Iid::from_name("IPageView")))
                    .input("table", PType::I4)
                    .input("pages", PType::I4)
                    .input("view_calls", PType::I4)
            })
            .method("NegotiateText", |m| {
                m.input("props", PType::Interface(Iid::from_name("ITextProps")))
                    .input(
                        "layouts",
                        PType::Array(Box::new(PType::Interface(Iid::from_name("ILayoutNeg")))),
                    )
                    .input("rounds", PType::I4)
            })
            .method("GetRow", |m| {
                m.input("page", PType::I4)
                    .input("row", PType::I4)
                    .output("cells", PType::Blob)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ITableCol`. Column statistics are fixed at creation; balancing is a
/// computation over them — effect-free, hence replicable.
fn itable_col() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITableCol")
            .method("Init", |m| m.input("stats", PType::Blob).pure())
            .method("Balance", |m| {
                m.input("round", PType::I4)
                    .output("width", PType::I4)
                    .pure()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ICellSet` — a negotiated row-group of table cells. Placement derives
/// from the fixed cell data — effect-free, hence replicable.
fn icell_set() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ICellSet")
            .method("Init", |m| m.input("cells", PType::Blob).pure())
            .method("Place", |m| {
                m.input("round", PType::I4)
                    .output("rect", PType::Blob)
                    .pure()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IRowBatch`.
fn irow_batch() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IRowBatch")
            .method("Init", |m| m.input("data", PType::Blob))
            .method("GetRow", |m| {
                m.input("row", PType::I4).output("cells", PType::Blob)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ITableFrame` — the on-screen table grid (a GUI component).
fn itable_frame() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ITableFrame")
            .method("Show", |m| {
                m.input("model", PType::Interface(Iid::from_name("ITableModel")))
                    .input("page", PType::I4)
                    .input("rows", PType::I4)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IMusicSheet`.
fn imusic_sheet() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IMusicSheet")
            .method("Init", |m| {
                m.input("reader", PType::Interface(Iid::from_name("IDocReader")))
                    .input("view", PType::Interface(Iid::from_name("IPageView")))
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IStaff`.
fn istaff() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IStaff")
            .method("Init", |m| {
                m.input("notes", PType::Blob)
                    .input("view", PType::Interface(Iid::from_name("IPageView")))
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `INoteRun`.
fn inote_run() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("INoteRun")
            .method("Init", |m| m.input("notes", PType::Blob))
            .build()
    });
    Arc::clone(&DESC)
}

/// `IDocMgr`: one entry point per document command, so the instantiation
/// call chains of readers, stories, and their descendants differ by the
/// user action that triggered them — the context the call-chain classifiers
/// rely on.
fn idoc_mgr() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        let doc_params = |m: coign_com::idl::MethodBuilder| {
            m.input("pages", PType::I4)
                .input("tables", PType::I4)
                .input("view", PType::Interface(Iid::from_name("IPageView")))
        };
        InterfaceBuilder::new("IDocMgr")
            .method("OpenText", doc_params)
            .method("OpenTable", doc_params)
            .method("OpenMixed", doc_params)
            .method("OpenMusic", doc_params)
            .method("NewText", doc_params)
            .method("NewTable", doc_params)
            .method("NewMusic", doc_params)
            .build()
    });
    Arc::clone(&DESC)
}

/// Method ids of `IDocMgr`, matching document kinds.
pub(crate) fn doc_mgr_method(kind: &str) -> u32 {
    match kind {
        "text" => 0,
        "table" => 1,
        "both" => 2,
        "music" => 3,
        "newtext" => 4,
        "newtable" => 5,
        _ => 6, // newmusic
    }
}

// ---------------------------------------------------------------------------
// Component implementations.
// ---------------------------------------------------------------------------

/// The document reader: opens the store, pulls the file, serves content.
struct DocReader {
    state: Mutex<ReaderState>,
}

#[derive(Default)]
struct ReaderState {
    store: Option<InterfacePtr>,
    kind: String,
    pages: i32,
}

impl ComObject for DocReader {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        let rt = ctx.rt();
        match method {
            reader_m::OPEN => {
                let kind = msg
                    .arg(0)
                    .and_then(Value::as_str)
                    .unwrap_or("text")
                    .to_string();
                let pages = i4_of(msg, 1);
                let store_class = match kind.as_str() {
                    "table" => "OctTableStore",
                    "music" => "OctMusicStore",
                    _ => "OctTextStore",
                };
                let store = ctx.create(Clsid::from_name(store_class), Iid::from_name("IStore"))?;
                work(ctx, 40);
                // Pull the text content of the file — the whole file, the
                // way real applications load documents.
                if kind == "text" || kind == "both" {
                    for page in 0..pages {
                        let mut read = Message::new(vec![Value::I4(page), Value::Null]);
                        store.call(rt, STORE_READ_PAGE, &mut read)?;
                        work(ctx, 20);
                    }
                }
                let mut state = self.state.lock();
                state.store = Some(store);
                state.kind = kind;
                state.pages = pages;
                Ok(())
            }
            reader_m::GET_OUTLINE => {
                let pages = self.state.lock().pages.max(1) as u64;
                work(ctx, 10);
                msg.set(0, Value::Blob(64 * pages));
                Ok(())
            }
            reader_m::GET_PARA_TEXT => {
                work(ctx, 5);
                // The text is handed out as a block component the paragraph
                // keeps consulting.
                let block = ctx.create(
                    Clsid::from_name("OctTextBlock"),
                    Iid::from_name("ITextBlock"),
                )?;
                let mut init = Message::new(vec![Value::Blob(800)]);
                block.call(rt, 0, &mut init)?;
                msg.set(2, Value::Blob(800));
                msg.set(3, Value::Interface(Some(block)));
                Ok(())
            }
            reader_m::GET_PROP_STREAM => {
                let store = self.store()?;
                let mut read = Message::new(vec![Value::Str("props".into()), Value::Null]);
                store.call(rt, STORE_READ_STREAM, &mut read)?;
                work(ctx, 15);
                msg.set(0, Value::Blob(blob_of(&read, 1)));
                Ok(())
            }
            reader_m::GET_TABLE_BATCH => {
                let (store, kind) = {
                    let state = self.state.lock();
                    (
                        state
                            .store
                            .clone()
                            .ok_or(ComError::App("reader not opened".to_string()))?,
                        state.kind.clone(),
                    )
                };
                let table = i4_of(msg, 0);
                let batch = if kind == "table" {
                    // Standalone tables: one file page per batch; the reader
                    // strips formatting metadata (TABLE_PAGE_BYTES →
                    // TABLE_BATCH_BYTES).
                    let mut read = Message::new(vec![Value::I4(table), Value::Null]);
                    store.call(rt, STORE_READ_PAGE, &mut read)?;
                    TABLE_BATCH_BYTES
                } else {
                    // Embedded table: a named stream in the text file.
                    let mut read = Message::new(vec![Value::Str("tbl".into()), Value::Null]);
                    store.call(rt, STORE_READ_STREAM, &mut read)?;
                    EMBEDDED_TABLE_BYTES
                };
                work(ctx, 25);
                msg.set(1, Value::Blob(batch));
                Ok(())
            }
            reader_m::GET_LINE_METRICS => {
                work(ctx, 2);
                msg.set(2, Value::Blob(128));
                Ok(())
            }
            reader_m::GET_TEMPLATE => {
                let store = self.store()?;
                let mut read = Message::new(vec![Value::Str("template".into()), Value::Null]);
                store.call(rt, STORE_READ_STREAM, &mut read)?;
                work(ctx, 10);
                msg.set(0, Value::Blob(blob_of(&read, 1)));
                Ok(())
            }
            _ => Err(ComError::App(format!("IDocReader has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        let state = self.state.lock();
        fingerprint_of(&(state.store.is_some(), &state.kind, state.pages))
    }
}

impl DocReader {
    fn store(&self) -> ComResult<InterfacePtr> {
        self.state
            .lock()
            .store
            .clone()
            .ok_or(ComError::App("reader not opened".to_string()))
    }
}

/// The text-properties provider: created directly from data in the file,
/// then queried constantly by layout — the second component the paper's
/// Figure 5 shows on the server.
struct TextProps {
    loaded: Mutex<u64>,
}

impl ComObject for TextProps {
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
                let mut pull = Message::outputs(1);
                reader.call(ctx.rt(), reader_m::GET_PROP_STREAM, &mut pull)?;
                *self.loaded.lock() = blob_of(&pull, 0);
                work(ctx, 30);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(1, Value::Blob(96));
                Ok(())
            }
            2 => {
                // Route through the internal allocation hop.
                let me = ctx
                    .rt()
                    .make_ptr(ctx.self_id(), Iid::from_name("ITextProps"))?;
                let mut alloc = Message::outputs(1);
                me.call(ctx.rt(), 3, &mut alloc)?;
                msg.set(0, alloc.args[0].clone());
                Ok(())
            }
            3 => {
                let cache = ctx.create(
                    Clsid::from_name("OctFontCache"),
                    Iid::from_name("IFontCache"),
                )?;
                let mut init = Message::new(vec![Value::Blob(512)]);
                cache.call(ctx.rt(), 0, &mut init)?;
                work(ctx, 4);
                msg.set(0, Value::Interface(Some(cache)));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITextProps has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&*self.loaded.lock())
    }
}

/// One paragraph's backing text block.
struct TextBlock;

impl ComObject for TextBlock {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, 2);
                Ok(())
            }
            1 => {
                work(ctx, 1);
                msg.set(2, Value::Blob(200));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITextBlock has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // stateless flyweight
    }
}

/// Cached font metrics, allocated through the shared property set.
struct FontCache;

impl ComObject for FontCache {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, 2);
                Ok(())
            }
            1 => {
                work(ctx, 1);
                msg.set(1, Value::I4(11));
                Ok(())
            }
            _ => Err(ComError::App(format!("IFontCache has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // stateless flyweight
    }
}

/// A text run: takes its metrics from its paragraph's layout.
struct TextRun {
    layout: Mutex<Option<InterfacePtr>>,
}

impl ComObject for TextRun {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                let layout = iface_of(msg, 0)?;
                let mut q = Message::new(vec![Value::I4(0), Value::Null]);
                layout.call(ctx.rt(), 2, &mut q)?;
                *self.layout.lock() = Some(layout);
                work(ctx, 3);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(0, Value::I4(120));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITextRun has no method {method}"))),
        }
    }
}

/// Paragraph layout: hammers the property set during initial layout and
/// queries the page view's geometry; participates in table negotiation.
struct ParaLayout {
    state: Mutex<LayoutState>,
}

#[derive(Default)]
struct LayoutState {
    props: Option<InterfacePtr>,
}

impl ComObject for ParaLayout {
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
                let reader = iface_of(msg, 0)?;
                let props = iface_of(msg, 1)?;
                let view = iface_of(msg, 2)?;
                let view_calls = i4_of(msg, 3);
                let content = i4_of(msg, 4);
                // Line breaking scans the backing text through the reader.
                // The number of lines depends on the *content*, not the
                // instantiation context — the variance the paper notes no
                // classifier can predict.
                let lines = READER_QUERIES_PER_LAYOUT as i32 * 2 / 3
                    + (content * 31).rem_euclid(READER_QUERIES_PER_LAYOUT as i32 * 2 / 3);
                for line in 0..lines {
                    let mut q = Message::new(vec![Value::I4(0), Value::I4(line), Value::Null]);
                    reader.call(rt, reader_m::GET_LINE_METRICS, &mut q)?;
                }
                for key in 0..PROPS_QUERIES_PER_LAYOUT as i32 {
                    let mut q = Message::new(vec![Value::I4(key), Value::Null]);
                    props.call(rt, 1, &mut q)?;
                }
                // Font metrics come from a cache allocated through the
                // shared property set, then consulted locally.
                let mut mk = Message::outputs(1);
                props.call(rt, 2, &mut mk)?;
                if let Ok(cache) = iface_of(&mk, 0) {
                    for key in 0..3 {
                        let mut measure = Message::new(vec![Value::I4(key), Value::Null]);
                        cache.call(rt, 1, &mut measure)?;
                    }
                }
                for q in 0..view_calls {
                    let mut geo = Message::new(vec![Value::I4(q), Value::Null]);
                    view.call(rt, 0, &mut geo)?;
                }
                work(ctx, 40);
                self.state.lock().props = Some(props);
                Ok(())
            }
            1 => {
                let props = self
                    .state
                    .lock()
                    .props
                    .clone()
                    .ok_or(ComError::App("layout not initialized".to_string()))?;
                for key in 0..PROPS_QUERIES_PER_REFLOW as i32 {
                    let mut q = Message::new(vec![Value::I4(key), Value::Null]);
                    props.call(rt, 1, &mut q)?;
                }
                work(ctx, 15);
                msg.set(1, Value::Blob(512));
                Ok(())
            }
            2 => {
                work(ctx, 2);
                msg.set(1, Value::Blob(64));
                Ok(())
            }
            _ => Err(ComError::App(format!("ILayoutNeg has no method {method}"))),
        }
    }
}

/// A paragraph: pulls its text, builds its layout and runs, renders.
struct Paragraph;

impl ComObject for Paragraph {
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
                let reader = iface_of(msg, 0)?;
                let props = iface_of(msg, 1)?;
                let view = iface_of(msg, 2)?;
                let page = i4_of(msg, 3);
                let idx = i4_of(msg, 4);
                let view_calls = i4_of(msg, 5);
                if page >= 0 {
                    let mut text = Message::new(vec![
                        Value::I4(page),
                        Value::I4(idx),
                        Value::Null,
                        Value::Null,
                    ]);
                    reader.call(rt, reader_m::GET_PARA_TEXT, &mut text)?;
                    // The paragraph keeps the block and re-reads ranges of
                    // it while shaping lines.
                    if let Ok(block) = iface_of(&text, 3) {
                        for i in 0..2 {
                            let mut range = Message::new(vec![
                                Value::I4(i * 100),
                                Value::I4(i * 100 + 99),
                                Value::Null,
                            ]);
                            block.call(rt, 1, &mut range)?;
                        }
                    }
                }
                let layout = ctx.create(
                    Clsid::from_name("OctParaLayout"),
                    Iid::from_name("ILayoutNeg"),
                )?;
                let mut init = Message::new(vec![
                    Value::Interface(Some(reader.clone())),
                    Value::Interface(Some(props.clone())),
                    Value::Interface(Some(view)),
                    Value::I4(view_calls),
                    Value::I4(page * 7 + idx * 13),
                ]);
                layout.call(rt, 0, &mut init)?;
                for _ in 0..RUNS_PER_PARA {
                    let run =
                        ctx.create(Clsid::from_name("OctTextRun"), Iid::from_name("ITextRun"))?;
                    let mut rinit = Message::new(vec![Value::Interface(Some(layout.clone()))]);
                    run.call(rt, 0, &mut rinit)?;
                    // The paragraph re-measures its runs during justification
                    // — the tight paragraph↔run coupling that keeps runs with
                    // their paragraph.
                    for _ in 0..2 {
                        let mut measure = Message::outputs(1);
                        run.call(rt, 1, &mut measure)?;
                    }
                }
                work(ctx, 20);
                msg.set(6, Value::Interface(Some(layout)));
                Ok(())
            }
            1 => {
                let view = iface_of(msg, 0)?;
                let mut draw = Message::new(vec![Value::Blob(400)]);
                view.call(rt, 1, &mut draw)?;
                work(ctx, 10);
                Ok(())
            }
            _ => Err(ComError::App(format!("IParagraph has no method {method}"))),
        }
    }
}

/// Placeholder for an unbuilt page.
struct PageStub;

impl ComObject for PageStub {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        _method: u32,
        _msg: &mut Message,
    ) -> ComResult<()> {
        work(ctx, 1);
        Ok(())
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // stateless placeholder
    }
}

/// The story: owns the document model and orchestrates layout.
struct Story;

impl Story {
    /// Creates one styled paragraph (the shared tail of the per-style
    /// builder methods).
    fn build_paragraph(&self, ctx: &CallCtx<'_>, msg: &mut Message) -> ComResult<()> {
        let rt = ctx.rt();
        let reader = iface_of(msg, 0)?;
        let props = iface_of(msg, 1)?;
        let view = iface_of(msg, 2)?;
        let page = i4_of(msg, 3);
        let idx = i4_of(msg, 4);
        let view_calls = i4_of(msg, 5);
        let para = ctx.create(
            Clsid::from_name("OctParagraph"),
            Iid::from_name("IParagraph"),
        )?;
        let mut init = Message::new(vec![
            Value::Interface(Some(reader)),
            Value::Interface(Some(props)),
            Value::Interface(Some(view)),
            Value::I4(page),
            Value::I4(idx),
            Value::I4(view_calls),
            Value::Null,
        ]);
        para.call(rt, 0, &mut init)?;
        if let Ok(layout) = iface_of(&init, 6) {
            msg.set(6, Value::Interface(Some(layout)));
        }
        msg.set(7, Value::Interface(Some(para)));
        Ok(())
    }
}

impl ComObject for Story {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        if (1..=4).contains(&method) {
            return self.build_paragraph(ctx, msg);
        }
        if method != 0 {
            return Err(ComError::App(format!("IStory has no method {method}")));
        }
        let rt = ctx.rt();
        let reader = iface_of(msg, 0)?;
        let props = iface_of(msg, 1)?;
        let view = iface_of(msg, 2)?;
        let pages = i4_of(msg, 3);
        let tables = i4_of(msg, 4);

        let mut outline = Message::outputs(1);
        reader.call(rt, reader_m::GET_OUTLINE, &mut outline)?;
        work(ctx, 30);

        // With embedded tables, page placement is global: every page gets
        // real paragraphs (and enters negotiation). Text-only documents
        // build the displayed page and stub the rest.
        let negotiating = tables > 0;
        // Text-only documents build exactly the displayed page (new
        // documents get one empty page); negotiating documents lay out all
        // pages because tables shift text globally.
        let built_pages = if negotiating { pages.max(1) } else { 1 };
        let view_calls = if negotiating {
            VIEW_CALLS_MIXED
        } else {
            VIEW_CALLS_TEXT
        };

        // Paragraphs route through the style-specific builder methods —
        // each style is a different internal code path of the story, so
        // the instantiation contexts of paragraphs, layouts, and runs
        // differ by style.
        let me = rt.make_ptr(ctx.self_id(), Iid::from_name("IStory"))?;
        let mut paragraphs = Vec::new();
        let mut layouts = Vec::new();
        for page in 0..built_pages {
            for idx in 0..PARAS_PER_PAGE as i32 {
                let style_method = 1 + (idx as u32 % 4);
                let mut build = Message::new(vec![
                    Value::Interface(Some(reader.clone())),
                    Value::Interface(Some(props.clone())),
                    Value::Interface(Some(view.clone())),
                    Value::I4(if pages == 0 { -1 } else { page }),
                    Value::I4(idx),
                    Value::I4(view_calls),
                    Value::Null,
                    Value::Null,
                ]);
                me.call(rt, style_method, &mut build)?;
                if let Ok(layout) = iface_of(&build, 6) {
                    layouts.push(layout);
                }
                if let Ok(para) = iface_of(&build, 7) {
                    paragraphs.push(para);
                }
            }
        }
        for page in built_pages..pages {
            let stub = ctx.create(Clsid::from_name("OctPageStub"), Iid::from_name("IPageStub"))?;
            let mut init = Message::new(vec![Value::I4(page)]);
            stub.call(rt, 0, &mut init)?;
        }

        if negotiating {
            let layout_values: Vec<Value> = layouts
                .iter()
                .map(|l| Value::Interface(Some(l.clone())))
                .collect();
            for t in 0..tables {
                let model = ctx.create(
                    Clsid::from_name("OctTableModel"),
                    Iid::from_name("ITableModel"),
                )?;
                let mut init = Message::new(vec![
                    Value::Interface(Some(reader.clone())),
                    Value::Interface(Some(view.clone())),
                    Value::I4(t),
                    Value::I4(1),
                    Value::I4(VIEW_CALLS_TABLE_MIXED),
                ]);
                model.call(rt, 0, &mut init)?;
                let mut neg = Message::new(vec![
                    Value::Interface(Some(props.clone())),
                    Value::Array(layout_values.clone()),
                    Value::I4(NEGOTIATION_ROUNDS),
                ]);
                model.call(rt, 1, &mut neg)?;
                // The table appears in the flow: a GUI frame renders a few
                // of its rows.
                let frame = ctx.create(
                    Clsid::from_name("OctTableFrame"),
                    Iid::from_name("ITableFrame"),
                )?;
                let mut show = Message::new(vec![
                    Value::Interface(Some(model.clone())),
                    Value::I4(0),
                    Value::I4(EMBEDDED_ROWS),
                ]);
                frame.call(rt, 0, &mut show)?;
            }
        }

        // Paint the visible page.
        for para in paragraphs.iter().take(PARAS_PER_PAGE) {
            let mut render = Message::new(vec![Value::Interface(Some(view.clone()))]);
            para.call(rt, 1, &mut render)?;
        }
        Ok(())
    }
}

/// The table model: pulls table data through the reader, balances columns
/// against the view, negotiates page placement with text layouts.
struct TableModel {
    state: Mutex<TableState>,
}

#[derive(Default)]
struct TableState {
    batches: Vec<InterfacePtr>,
    cell_sets: Vec<InterfacePtr>,
}

impl ComObject for TableModel {
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
                let reader = iface_of(msg, 0)?;
                let view = iface_of(msg, 1)?;
                let table = i4_of(msg, 2);
                let pages = i4_of(msg, 3).max(1);
                let view_calls = i4_of(msg, 4);

                // Pull the table content, one batch per page, and hand each
                // batch to a row-batch component.
                let mut batches = Vec::new();
                for p in 0..pages {
                    let mut pull = Message::new(vec![Value::I4(table + p), Value::Null]);
                    reader.call(rt, reader_m::GET_TABLE_BATCH, &mut pull)?;
                    let size = blob_of(&pull, 1);
                    let batch =
                        ctx.create(Clsid::from_name("OctRowBatch"), Iid::from_name("IRowBatch"))?;
                    let mut init = Message::new(vec![Value::Blob(size.saturating_sub(8_000))]);
                    batch.call(rt, 0, &mut init)?;
                    batches.push(batch);
                }

                // Cell sets: row groups placed as units during negotiation.
                let mut cell_sets = Vec::new();
                for _ in 0..CELL_SETS_PER_TABLE {
                    let cells =
                        ctx.create(Clsid::from_name("OctCellSet"), Iid::from_name("ICellSet"))?;
                    let mut init = Message::new(vec![Value::Blob(2_000)]);
                    cells.call(rt, 0, &mut init)?;
                    cell_sets.push(cells);
                }

                // Column statistics and balancing against the viewport.
                let mut cols = Vec::new();
                for _ in 0..TABLE_COLUMNS {
                    let col = ctx.create(
                        Clsid::from_name("OctTableColumn"),
                        Iid::from_name("ITableCol"),
                    )?;
                    let mut init = Message::new(vec![Value::Blob(1_000)]);
                    col.call(rt, 0, &mut init)?;
                    for q in 0..view_calls {
                        let mut geo = Message::new(vec![Value::I4(q), Value::Null]);
                        view.call(rt, 0, &mut geo)?;
                    }
                    for round in 0..3 {
                        let mut bal = Message::new(vec![Value::I4(round), Value::Null]);
                        col.call(rt, 1, &mut bal)?;
                    }
                    cols.push(col);
                }
                work(ctx, 60);
                let mut state = self.state.lock();
                state.batches = batches;
                state.cell_sets = cell_sets;
                Ok(())
            }
            1 => {
                let props = iface_of(msg, 0)?;
                let layouts: Vec<InterfacePtr> = match msg.arg(1) {
                    Some(Value::Array(items)) => items
                        .iter()
                        .filter_map(|v| v.as_interface().cloned())
                        .collect(),
                    _ => Vec::new(),
                };
                let rounds = i4_of(msg, 2);
                let cell_sets: Vec<InterfacePtr> = self.state.lock().cell_sets.clone();
                for round in 0..rounds {
                    for layout in &layouts {
                        let mut reflow = Message::new(vec![Value::I4(round), Value::Null]);
                        layout.call(rt, 1, &mut reflow)?;
                    }
                    for cells in &cell_sets {
                        let mut place = Message::new(vec![Value::I4(round), Value::Null]);
                        cells.call(rt, 1, &mut place)?;
                    }
                    for key in 0..10 {
                        let mut q = Message::new(vec![Value::I4(key), Value::Null]);
                        props.call(rt, 1, &mut q)?;
                    }
                    work(ctx, 25);
                }
                Ok(())
            }
            2 => {
                let page = i4_of(msg, 0) as usize;
                let batch = self
                    .state
                    .lock()
                    .batches
                    .get(page)
                    .cloned()
                    .ok_or(ComError::App(format!("no batch for page {page}")))?;
                let row = i4_of(msg, 1);
                let mut pull = Message::new(vec![Value::I4(row), Value::Null]);
                batch.call(rt, 1, &mut pull)?;
                work(ctx, 3);
                msg.set(2, Value::Blob(blob_of(&pull, 1)));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITableModel has no method {method}"))),
        }
    }
}

/// One table column.
struct TableColumn;

impl ComObject for TableColumn {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, 4);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(1, Value::I4(72));
                Ok(())
            }
            _ => Err(ComError::App(format!("ITableCol has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // stateless flyweight
    }
}

/// A negotiated row group of table cells.
struct CellSet;

impl ComObject for CellSet {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, 3);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(1, Value::Blob(48));
                Ok(())
            }
            _ => Err(ComError::App(format!("ICellSet has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // stateless flyweight
    }
}

/// Holds one page of table rows.
struct RowBatch {
    bytes: Mutex<u64>,
}

impl ComObject for RowBatch {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                *self.bytes.lock() = blob_of(msg, 0);
                work(ctx, 8);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(1, Value::Blob(3_000));
                Ok(())
            }
            _ => Err(ComError::App(format!("IRowBatch has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&*self.bytes.lock())
    }
}

/// The on-screen table grid (GUI): pulls displayed rows from the model.
struct TableFrame;

impl ComObject for TableFrame {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        if method != 0 {
            return Err(ComError::App(format!("ITableFrame has no method {method}")));
        }
        let rt = ctx.rt();
        let model = iface_of(msg, 0)?;
        let page = i4_of(msg, 1);
        let rows = i4_of(msg, 2);
        for row in 0..rows {
            let mut pull = Message::new(vec![Value::I4(page), Value::I4(row), Value::Null]);
            model.call(rt, 2, &mut pull)?;
            work(ctx, 4);
        }
        work(ctx, 20);
        Ok(())
    }
}

/// Sheet-music components: a sheet of staves of note runs.
struct MusicSheet;

impl ComObject for MusicSheet {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        if method != 0 {
            return Err(ComError::App(format!("IMusicSheet has no method {method}")));
        }
        let rt = ctx.rt();
        let reader = iface_of(msg, 0)?;
        let view = iface_of(msg, 1)?;
        // The sheet reads the (small) notation properties; the template
        // itself was already pulled by the document manager.
        let mut props = Message::outputs(1);
        reader.call(rt, reader_m::GET_PROP_STREAM, &mut props)?;
        for _ in 0..2 {
            let staff = ctx.create(Clsid::from_name("OctStaff"), Iid::from_name("IStaff"))?;
            let mut init = Message::new(vec![
                Value::Blob(2_000),
                Value::Interface(Some(view.clone())),
            ]);
            staff.call(rt, 0, &mut init)?;
        }
        work(ctx, 30);
        Ok(())
    }
}

/// One musical staff.
struct Staff;

impl ComObject for Staff {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        if method != 0 {
            return Err(ComError::App(format!("IStaff has no method {method}")));
        }
        let rt = ctx.rt();
        let view = iface_of(msg, 1)?;
        for _ in 0..8 {
            let run = ctx.create(Clsid::from_name("OctNoteRun"), Iid::from_name("INoteRun"))?;
            let mut init = Message::new(vec![Value::Blob(256)]);
            run.call(rt, 0, &mut init)?;
        }
        let mut draw = Message::new(vec![Value::Blob(300)]);
        view.call(rt, 2, &mut draw)?;
        work(ctx, 15);
        Ok(())
    }
}

/// One run of notes.
struct NoteRun;

impl ComObject for NoteRun {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        _method: u32,
        _msg: &mut Message,
    ) -> ComResult<()> {
        work(ctx, 2);
        Ok(())
    }
}

/// The page view: geometry queries and draw sink (GUI-pinned).
struct PageView;

impl ComObject for PageView {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                work(ctx, 1);
                msg.set(1, Value::Blob(64));
                Ok(())
            }
            1 | 2 => {
                work(ctx, 4);
                Ok(())
            }
            _ => Err(ComError::App(format!("IPageView has no method {method}"))),
        }
    }
}

/// The document manager: opens documents end to end.
struct DocManager;

impl ComObject for DocManager {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        let rt = ctx.rt();
        let kind = match method {
            0 => "text",
            1 => "table",
            2 => "both",
            3 => "music",
            4 => "newtext",
            5 => "newtable",
            6 => "newmusic",
            other => return Err(ComError::App(format!("IDocMgr has no method {other}"))),
        }
        .to_string();
        let pages = i4_of(msg, 0);
        let tables = i4_of(msg, 1);
        let view = iface_of(msg, 2)?;

        let reader = ctx.create(
            Clsid::from_name("OctDocReader"),
            Iid::from_name("IDocReader"),
        )?;
        let (store_kind, is_new) = match kind.as_str() {
            "newtext" => ("text", true),
            "newmusic" => ("music", true),
            "newtable" => ("table", true),
            other => (other, false),
        };
        let mut open = Message::new(vec![
            Value::Str(store_kind.to_string()),
            Value::I4(if is_new { 0 } else { pages }),
        ]);
        reader.call(rt, reader_m::OPEN, &mut open)?;
        if is_new {
            let mut template = Message::outputs(1);
            reader.call(rt, reader_m::GET_TEMPLATE, &mut template)?;
        }

        match store_kind {
            "music" => {
                let sheet = ctx.create(
                    Clsid::from_name("OctMusicSheet"),
                    Iid::from_name("IMusicSheet"),
                )?;
                let mut init = Message::new(vec![
                    Value::Interface(Some(reader)),
                    Value::Interface(Some(view)),
                ]);
                sheet.call(rt, 0, &mut init)?;
            }
            "table" if !is_new => {
                let model = ctx.create(
                    Clsid::from_name("OctTableModel"),
                    Iid::from_name("ITableModel"),
                )?;
                let mut init = Message::new(vec![
                    Value::Interface(Some(reader)),
                    Value::Interface(Some(view.clone())),
                    Value::I4(0),
                    Value::I4(pages),
                    Value::I4(VIEW_CALLS_TABLE),
                ]);
                model.call(rt, 0, &mut init)?;
                let frame = ctx.create(
                    Clsid::from_name("OctTableFrame"),
                    Iid::from_name("ITableFrame"),
                )?;
                let mut show = Message::new(vec![
                    Value::Interface(Some(model)),
                    Value::I4(0),
                    Value::I4(DISPLAY_ROWS),
                ]);
                frame.call(rt, 0, &mut show)?;
            }
            _ => {
                // Text, mixed, and freshly created documents flow through
                // the story.
                let props = ctx.create(
                    Clsid::from_name("OctTextProps"),
                    Iid::from_name("ITextProps"),
                )?;
                let mut pinit = Message::new(vec![Value::Interface(Some(reader.clone()))]);
                props.call(rt, 0, &mut pinit)?;
                let story = ctx.create(Clsid::from_name("OctStory"), Iid::from_name("IStory"))?;
                let mut build = Message::new(vec![
                    Value::Interface(Some(reader)),
                    Value::Interface(Some(props)),
                    Value::Interface(Some(view)),
                    Value::I4(if is_new { 0 } else { pages }),
                    Value::I4(tables),
                ]);
                story.call(rt, 0, &mut build)?;
            }
        }
        work(ctx, 25);
        Ok(())
    }
}

/// Registers every Octarine document component class. Returns the count.
pub(crate) fn register(rt: &ComRuntime) -> usize {
    use crate::common::register_file_store;
    let reg = rt.registry();
    register_file_store(
        rt,
        "OctTextStore",
        256,
        TEXT_PAGE_BYTES,
        vec![
            ("props", PROP_STREAM_BYTES),
            ("template", 150_000),
            ("tbl", EMBEDDED_TABLE_BYTES + 2_000),
        ],
    );
    register_file_store(
        rt,
        "OctTableStore",
        256,
        TABLE_PAGE_BYTES,
        vec![("props", 4_000), ("template", 2_000)],
    );
    register_file_store(
        rt,
        "OctMusicStore",
        8,
        40_000,
        vec![("props", 8_000), ("template", 140_000)],
    );

    reg.register(
        "OctDocReader",
        vec![idoc_reader()],
        ApiImports::NONE,
        |_, _| {
            Arc::new(DocReader {
                state: Mutex::new(ReaderState::default()),
            })
        },
    );
    reg.register(
        "OctTextProps",
        vec![itext_props()],
        ApiImports::NONE,
        |_, _| {
            Arc::new(TextProps {
                loaded: Mutex::new(0),
            })
        },
    );
    reg.register(
        "OctFontCache",
        vec![ifont_cache()],
        ApiImports::NONE,
        |_, _| Arc::new(FontCache),
    );
    reg.register(
        "OctTextBlock",
        vec![itext_block()],
        ApiImports::NONE,
        |_, _| Arc::new(TextBlock),
    );
    reg.register("OctStory", vec![istory()], ApiImports::NONE, |_, _| {
        Arc::new(Story)
    });
    reg.register(
        "OctParagraph",
        vec![iparagraph()],
        ApiImports::NONE,
        |_, _| Arc::new(Paragraph),
    );
    reg.register(
        "OctParaLayout",
        vec![ilayout_neg()],
        ApiImports::NONE,
        |_, _| {
            Arc::new(ParaLayout {
                state: Mutex::new(LayoutState::default()),
            })
        },
    );
    reg.register("OctTextRun", vec![itext_run()], ApiImports::NONE, |_, _| {
        Arc::new(TextRun {
            layout: Mutex::new(None),
        })
    });
    reg.register(
        "OctPageStub",
        vec![ipage_stub()],
        ApiImports::NONE,
        |_, _| Arc::new(PageStub),
    );
    reg.register(
        "OctTableModel",
        vec![itable_model()],
        ApiImports::NONE,
        |_, _| {
            Arc::new(TableModel {
                state: Mutex::new(TableState::default()),
            })
        },
    );
    reg.register(
        "OctTableColumn",
        vec![itable_col()],
        ApiImports::NONE,
        |_, _| Arc::new(TableColumn),
    );
    reg.register("OctCellSet", vec![icell_set()], ApiImports::NONE, |_, _| {
        Arc::new(CellSet)
    });
    reg.register(
        "OctRowBatch",
        vec![irow_batch()],
        ApiImports::NONE,
        |_, _| {
            Arc::new(RowBatch {
                bytes: Mutex::new(0),
            })
        },
    );
    reg.register(
        "OctTableFrame",
        vec![itable_frame()],
        ApiImports::GUI,
        |_, _| Arc::new(TableFrame),
    );
    reg.register(
        "OctMusicSheet",
        vec![imusic_sheet()],
        ApiImports::NONE,
        |_, _| Arc::new(MusicSheet),
    );
    reg.register("OctStaff", vec![istaff()], ApiImports::NONE, |_, _| {
        Arc::new(Staff)
    });
    reg.register("OctNoteRun", vec![inote_run()], ApiImports::NONE, |_, _| {
        Arc::new(NoteRun)
    });
    reg.register(
        "OctPageView",
        vec![ipage_view()],
        ApiImports::GUI,
        |_, _| Arc::new(PageView),
    );
    // The document manager drives file-open dialogs and progress UI, so its
    // binary imports GUI APIs — static analysis pins it to the client.
    reg.register(
        "OctDocManager",
        vec![idoc_mgr()],
        ApiImports::GUI,
        |_, _| Arc::new(DocManager),
    );
    20
}
