//! Figure 3 — Summary of Classifiers.
//!
//! Reconstructs the paper's worked example with real components:
//!
//! ```text
//! A::V() { ... a->W()  ... }   // internal call within instance a
//! A::W() { ... b1->X() ... }
//! B::X() { ... b2->Y() ... }
//! B::Y() { ... c->Z()  ... }
//! C::Z() { ... CoCreateInstance(D) }
//! ```
//!
//! and prints every classifier's descriptor for the instantiation of `D`.

use crate::write_lines;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::logger::NullLogger;
use coign::rte::CoignRte;
use coign_com::idl::InterfaceBuilder;
use coign_com::{
    ApiImports, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid, Message, PType,
    Value,
};
use std::io::{self, Write};
use std::sync::Arc;

/// One class of the worked example; its whole behaviour is the wrapped
/// `(ctx, method, msg)` function.
struct Class(fn(&CallCtx<'_>, u32, &mut Message) -> ComResult<()>);

impl ComObject for Class {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        (self.0)(ctx, method, msg)
    }
}

fn class_a(ctx: &CallCtx<'_>, method: u32, msg: &mut Message) -> ComResult<()> {
    let rt = ctx.rt();
    match method {
        // V: internal call to our own W, passing b1 through.
        0 => {
            let me = rt.make_ptr(ctx.self_id(), Iid::from_name("IA"))?;
            let mut fwd = Message::new(vec![msg.args[0].clone()]);
            me.call(rt, 1, &mut fwd)
        }
        // W: call b1.X().
        1 => {
            let b1 = msg.arg(0).and_then(Value::as_interface).cloned().unwrap();
            b1.call(rt, 0, &mut Message::empty())
        }
        other => Err(ComError::App(format!("IA has no method {other}"))),
    }
}

fn class_b(ctx: &CallCtx<'_>, method: u32, _msg: &mut Message) -> ComResult<()> {
    let rt = ctx.rt();
    match method {
        // X: create the second B instance and call its Y.
        0 => {
            let b2 = ctx.create(Clsid::from_name("B"), Iid::from_name("IB"))?;
            b2.call(rt, 1, &mut Message::empty())
        }
        // Y: create c and call its Z.
        1 => {
            let c = ctx.create(Clsid::from_name("C"), Iid::from_name("IC"))?;
            c.call(rt, 0, &mut Message::empty())
        }
        other => Err(ComError::App(format!("IB has no method {other}"))),
    }
}

/// Z: CoCreateInstance(D).
fn class_c(ctx: &CallCtx<'_>, _method: u32, _msg: &mut Message) -> ComResult<()> {
    ctx.create(Clsid::from_name("D"), Iid::from_name("ID"))?;
    Ok(())
}

fn class_d(_ctx: &CallCtx<'_>, _method: u32, _msg: &mut Message) -> ComResult<()> {
    Ok(())
}

fn register(rt: &ComRuntime) {
    let ia = InterfaceBuilder::new("IA")
        .method("V", |m| {
            m.input("b1", PType::Interface(Iid::from_name("IB")))
        })
        .method("W", |m| {
            m.input("b1", PType::Interface(Iid::from_name("IB")))
        })
        .build();
    let ib = InterfaceBuilder::new("IB")
        .method("X", |m| m)
        .method("Y", |m| m)
        .build();
    let ic = InterfaceBuilder::new("IC").method("Z", |m| m).build();
    let id = InterfaceBuilder::new("ID").method("Noop", |m| m).build();
    rt.registry()
        .register("A", vec![ia], ApiImports::NONE, |_, _| {
            Arc::new(Class(class_a))
        });
    rt.registry()
        .register("B", vec![ib], ApiImports::NONE, |_, _| {
            Arc::new(Class(class_b))
        });
    rt.registry()
        .register("C", vec![ic], ApiImports::NONE, |_, _| {
            Arc::new(Class(class_c))
        });
    rt.registry()
        .register("D", vec![id], ApiImports::NONE, |_, _| {
            Arc::new(Class(class_d))
        });
}

/// Prints Figure 3: every classifier's descriptor for the instantiation of `D`.
pub fn fig3(out: &mut impl Write) -> io::Result<()> {
    write_lines(
        out,
        &[
            "Figure 3. Summary of Classifiers\n",
            "Program control flow:",
            "  A::V() { a->W() }  A::W() { b1->X() }  B::X() { b2->Y() }",
            "  B::Y() { c->Z() }  C::Z() { CoCreateInstance(D) }\n",
        ],
    )?;
    for kind in ClassifierKind::ALL {
        let rt = ComRuntime::single_machine();
        register(&rt);
        let classifier = Arc::new(InstanceClassifier::new(kind));
        rt.add_hook(Arc::new(CoignRte::profiling(
            classifier.clone(),
            Arc::new(NullLogger),
        )));

        let a = rt
            .create_instance(Clsid::from_name("A"), Iid::from_name("IA"))
            .expect("A is registered");
        let b1 = rt
            .create_instance(Clsid::from_name("B"), Iid::from_name("IB"))
            .expect("B is registered");
        let mut v = Message::new(vec![Value::Interface(Some(b1))]);
        a.call(&rt, 0, &mut v).expect("the worked example runs");

        let d_instance = rt
            .instances_snapshot()
            .into_iter()
            .find(|i| i.clsid == Clsid::from_name("D"))
            .expect("D was created");
        let class = classifier
            .classification_of(d_instance.id)
            .expect("D is classified");
        let descriptor = classifier.descriptor(class).expect("interned descriptor");
        let names = |c: Clsid| {
            for n in ["A", "B", "C", "D"] {
                if Clsid::from_name(n) == c {
                    return n.to_string();
                }
            }
            "?".to_string()
        };
        writeln!(
            out,
            "{:<28} {}",
            format!("{}:", kind.name()),
            descriptor.render(&names)
        )?;
    }
    write_lines(
        out,
        &[
            "",
            "(m0/m1 are vtable slots: A::m0=V, A::m1=W, B::m0=X, B::m1=Y, C::m0=Z;",
            " c:<n> names the classification previously assigned to the executing instance.)",
        ],
    )
}
