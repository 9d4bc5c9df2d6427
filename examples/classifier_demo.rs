//! Instance classification in action (§3.4, Figure 3, Table 2).
//!
//! Profiles Octarine with every classifier and shows how each trades
//! granularity (distinct classifications) against overhead, plus how the
//! stack-walk depth tunes the internal-function called-by classifier.
//!
//! Run with: `cargo run --release --example classifier_demo`

use coign::application::Application;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::logger::ProfilingLogger;
use coign::rte::CoignRte;
use coign_apps::Octarine;
use coign_com::ComRuntime;
use std::sync::Arc;

fn classify_scenario(kind: ClassifierKind, depth: Option<usize>) -> (u32, u64) {
    let app = Octarine;
    let rt = ComRuntime::single_machine();
    app.register(&rt);
    let classifier = Arc::new(InstanceClassifier::with_depth(kind, depth));
    rt.add_hook(Arc::new(CoignRte::profiling(
        classifier.clone(),
        Arc::new(ProfilingLogger::new()),
    )));
    app.run_scenario(&rt, "o_oldbth").expect("scenario");
    let stats = classifier.stats();
    (stats.classifications, stats.instances)
}

fn main() {
    println!("Classifying one Octarine execution (o_oldbth):\n");
    println!(
        "{:<28} {:>16} {:>12}",
        "classifier", "classifications", "instances"
    );
    for kind in ClassifierKind::ALL {
        let (classes, instances) = classify_scenario(kind, None);
        println!("{:<28} {:>16} {:>12}", kind.name(), classes, instances);
    }

    println!("\nIFCB granularity as a function of stack-walk depth:\n");
    println!("{:<10} {:>16}", "depth", "classifications");
    for depth in [Some(1), Some(2), Some(3), Some(4), Some(8), None] {
        let (classes, _) = classify_scenario(ClassifierKind::Ifcb, depth);
        let label = depth.map(|d| d.to_string()).unwrap_or("complete".into());
        println!("{label:<10} {classes:>16}");
    }
    println!();
    println!("Deeper walks recognize more unique instantiation contexts; accuracy");
    println!("saturates once the distinguishing frames are within reach (Table 3).");
    println!("Run `cargo run -p coign-bench --bin repro_all -- fig3` for the paper's");
    println!("worked descriptor example, and `repro_all table2` for the accuracy evaluation.");
}
