//! Octarine's GUI forest.
//!
//! Octarine was "designed as a prototype to explore the limits of component
//! granularity": its GUI is literally hundreds of components. This module
//! registers the widget-class catalog. The classes matter for the
//! experiments in three ways: they dominate instance counts (Figures 5, 7,
//! 8 all show a large client-side mass), their window-site links are
//! non-remotable (the black GUI edges in Figure 5), and their idle-loop
//! transients (tooltips, undo records, accessibility nodes) exercise the
//! instance classifiers with same-procedure/different-instance call chains.

use crate::common::{register_gui_class, register_idle_loop, register_theme_engine, GuiSpec};
use coign_com::ComRuntime;

/// Registers every Octarine GUI class. Returns the number registered.
pub(crate) fn register(rt: &ComRuntime) -> usize {
    let mut count = 0;
    let mut gui = |name: &str, spec: GuiSpec| {
        register_gui_class(rt, name, spec);
        count += 1;
    };

    // Transient classes spawned from idle callbacks.
    gui("OctTooltip", GuiSpec::default());
    gui("OctUndoRecord", GuiSpec::default());
    gui("OctAccessNode", GuiSpec::default());
    gui("OctGlyphCache", GuiSpec::default());

    // Leaf widgets.
    gui(
        "OctMenuItem",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            idle_spawn: Some("OctTooltip"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctMenuSeparator",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctToolButton",
        GuiSpec {
            notify_parent: 2,
            build_cost_us: 4,
            paint_cost_us: 3,
            idle_spawn: Some("OctTooltip"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctToolSeparator",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctStatusPane",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 2,
            idle_spawn: Some("OctGlyphCache"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctPaletteItem",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 2,
            idle_spawn: Some("OctTooltip"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctRuler",
        GuiSpec {
            notify_parent: 2,
            build_cost_us: 5,
            paint_cost_us: 4,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctScrollBar",
        GuiSpec {
            notify_parent: 2,
            build_cost_us: 3,
            paint_cost_us: 2,
            idle_spawn: Some("OctGlyphCache"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctCaret",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctSelectionMgr",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctUndoStack",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            idle_spawn: Some("OctUndoRecord"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctAccessBridge",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            idle_spawn: Some("OctAccessNode"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctLineGauge",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );

    // Menus: six distinct classes sharing item classes — PCB/STCB see the
    // menu class, IFCB additionally separates instances.
    for menu in [
        "OctFileMenu",
        "OctEditMenu",
        "OctViewMenu",
        "OctInsertMenu",
        "OctFormatMenu",
        "OctHelpMenu",
    ] {
        gui(
            menu,
            GuiSpec {
                children: vec![("OctMenuItem", 10), ("OctMenuSeparator", 2)],
                notify_parent: 1,
                build_cost_us: 5,
                paint_cost_us: 3,
                ..GuiSpec::default()
            },
        );
    }

    gui(
        "OctMenuBar",
        GuiSpec {
            children: vec![
                ("OctFileMenu", 1),
                ("OctEditMenu", 1),
                ("OctViewMenu", 1),
                ("OctInsertMenu", 1),
                ("OctFormatMenu", 1),
                ("OctHelpMenu", 1),
            ],
            notify_parent: 1,
            build_cost_us: 8,
            paint_cost_us: 4,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctToolbar",
        GuiSpec {
            children: vec![("OctToolButton", 16), ("OctToolSeparator", 3)],
            notify_parent: 1,
            build_cost_us: 6,
            paint_cost_us: 4,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctStatusBar",
        GuiSpec {
            children: vec![("OctStatusPane", 6)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctPanelTab",
        GuiSpec {
            children: vec![("OctPaletteItem", 12)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctSidePanel",
        GuiSpec {
            children: vec![("OctPanelTab", 3)],
            notify_parent: 1,
            build_cost_us: 4,
            paint_cost_us: 3,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctDocFrame",
        GuiSpec {
            children: vec![
                ("OctRuler", 2),
                ("OctScrollBar", 2),
                ("OctCaret", 1),
                ("OctSelectionMgr", 1),
                ("OctUndoStack", 1),
                ("OctAccessBridge", 1),
                ("OctLineGauge", 8),
            ],
            notify_parent: 2,
            build_cost_us: 10,
            paint_cost_us: 6,
            ..GuiSpec::default()
        },
    );
    // Dialog and auxiliary panels: each a distinct component class, built
    // with the window like any commercial word processor's chrome.
    gui(
        "OctFindField",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctFindBar",
        GuiSpec {
            children: vec![("OctFindField", 2), ("OctToolButton", 3)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctSpellSquiggle",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctSpellPanel",
        GuiSpec {
            children: vec![("OctSpellSquiggle", 6)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            idle_spawn: Some("OctGlyphCache"),
        },
    );
    gui(
        "OctStyleChip",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctStyleGallery",
        GuiSpec {
            children: vec![("OctStyleChip", 9)],
            notify_parent: 1,
            build_cost_us: 3,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctHeaderEditor",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctFooterEditor",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 1,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctZoomSlider",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 1,
            idle_spawn: Some("OctTooltip"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctPageThumb",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctThumbStrip",
        GuiSpec {
            children: vec![("OctPageThumb", 6)],
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );
    gui(
        "OctWordCounter",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 1,
            idle_spawn: Some("OctGlyphCache"),
            ..GuiSpec::default()
        },
    );
    gui(
        "OctOutlinePane",
        GuiSpec {
            children: vec![("OctPageThumb", 3)],
            notify_parent: 1,
            build_cost_us: 2,
            paint_cost_us: 2,
            ..GuiSpec::default()
        },
    );

    gui(
        "OctAppWindow",
        GuiSpec {
            children: vec![
                ("OctMenuBar", 1),
                ("OctToolbar", 2),
                ("OctStatusBar", 1),
                ("OctSidePanel", 2),
                ("OctDocFrame", 1),
                ("OctFindBar", 1),
                ("OctSpellPanel", 1),
                ("OctStyleGallery", 1),
                ("OctHeaderEditor", 1),
                ("OctFooterEditor", 1),
                ("OctZoomSlider", 1),
                ("OctThumbStrip", 1),
                ("OctWordCounter", 1),
                ("OctOutlinePane", 1),
            ],
            notify_parent: 0,
            build_cost_us: 20,
            paint_cost_us: 10,
            ..GuiSpec::default()
        },
    );

    register_idle_loop(rt, "OctIdleLoop", Some("OctThemeEngine"));
    register_theme_engine(rt, "OctThemeEngine");
    count += 2;
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{call, WIDGET_BUILD};
    use coign_com::{Clsid, Iid, Value};

    #[test]
    fn app_window_builds_a_few_hundred_widgets() {
        let rt = ComRuntime::single_machine();
        register(&rt);
        let window = rt
            .create_instance(Clsid::from_name("OctAppWindow"), Iid::from_name("IWidget"))
            .unwrap();
        call(&rt, &window, WIDGET_BUILD, vec![Value::Interface(None)]).unwrap();
        let n = rt.instance_count();
        assert!(
            (150..600).contains(&n),
            "GUI forest should be a few hundred widgets, got {n}"
        );
    }
}
