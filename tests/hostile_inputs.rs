//! Hostile configuration records. Coign saves its classifier table, profile
//! and distribution into the application binary, and every later command
//! reads them back, so a `.cimg` file is untrusted input: each decoder of
//! that record must answer a corrupted copy with `Ok` or a typed codec
//! error, never a panic.
//!
//! Every case mutates the bytes of one real pipeline — Octarine `o_newdoc`
//! instrumented → profiled → accumulated → analyzed → realized — with
//! seeded byte flips, truncations and insertions, and hands each mutated
//! input to the decoder that owns it, one test per decoder. The `.fplan`
//! fault-plan parser gets the same treatment over the committed demo plan.
//! A failure names its case, which replays by seeding `StdRng` with it.
//!
//! A mutated profile that decodes goes on through `analyze`, graph build
//! and cut included, which must return `Ok` or a typed error too.

use coign::analysis::{analyze, Distribution};
use coign::application::Application;
use coign::classifier::{ClassificationId, ClassifierKind, InstanceClassifier};
use coign::config::ConfigRecord;
use coign::profile::IccProfile;
use coign::rewriter;
use coign::runtime::{choose_distribution, profile_scenario};
use coign_apps::Octarine;
use coign_com::{AppImage, ComError, ComResult, Iid};
use coign_dcom::{FaultPlan, NetworkModel, NetworkProfile};
use coign_flow::MaxFlowAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The realized Octarine image and the configuration record it carries.
fn realized_octarine() -> (AppImage, ConfigRecord) {
    let app = Octarine;
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let mut image = app.image();
    rewriter::instrument(&mut image, &classifier);
    let run = profile_scenario(&app, "o_newdoc", &classifier).unwrap();
    rewriter::accumulate_profile(&mut image, &run.profile).unwrap();
    let record = rewriter::read_config(&image).unwrap();
    let dist = choose_distribution(&app, &record.profile, &ethernet()).unwrap();
    rewriter::realize(&mut image, &classifier, &dist).unwrap();
    let record = rewriter::read_config(&image).unwrap();
    (image, record)
}

/// One to four seeded truncations, insertions or byte flips.
fn mutate(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..3) {
            0 => out.truncate(at),
            1 => out.insert(at, rng.gen_range(0..=255)),
            _ => {
                if let Some(byte) = out.get_mut(at) {
                    *byte ^= rng.gen_range(1u8..=255);
                }
            }
        }
    }
    out
}

/// Hands 64 seeded mutations of `input` to `decode`, each of which must
/// return `Ok` or a typed codec error rather than panic.
fn survives_mutations(input: &[u8], decode: impl Fn(&[u8]) -> ComResult<()>) {
    for case in 0..64 {
        let mutated = mutate(&mut StdRng::seed_from_u64(case), input);
        match catch_unwind(AssertUnwindSafe(|| decode(&mutated))) {
            Ok(Ok(())) => {}
            Ok(Err(error)) => assert!(
                matches!(error, ComError::Codec(_)),
                "case {case}: untyped error: {error}"
            ),
            Err(_) => panic!("case {case}: panicked on a mutated record"),
        }
    }
}

#[test]
fn image_decode_survives_mutation() {
    let (image, _) = realized_octarine();
    survives_mutations(&image.encode(), |b| AppImage::decode(b).map(drop));
}

#[test]
fn read_config_survives_mutation() {
    let (image, record) = realized_octarine();
    survives_mutations(&record.encode(), |b| {
        let mut image = image.clone();
        image.set_config_record(b.to_vec());
        rewriter::read_config(&image).map(drop)
    });
}

#[test]
fn classifier_decode_survives_mutation_and_fork_absorb() {
    let (_, record) = realized_octarine();
    survives_mutations(&record.classifier, |b| {
        // What parallel profiling does with a table it loaded.
        let classifier = InstanceClassifier::decode(b)?;
        classifier.absorb(&classifier.fork());
        Ok(())
    });
}

fn ethernet() -> NetworkProfile {
    NetworkProfile::exact(&NetworkModel::ethernet_10baset())
}

#[test]
fn profile_decode_survives_mutation() {
    let (_, record) = realized_octarine();
    survives_mutations(&record.profile.encode(), |b| {
        let profile = IccProfile::decode(b)?;
        // Whatever `analyze` returns is `Ok` or a typed `ComError`; a
        // panic in the build or the cut is what this catches.
        let _ = analyze(&profile, &ethernet(), &[], MaxFlowAlgorithm::LiftToFront);
        Ok(())
    });
}

/// Peak virtual size of this process in KiB, where `/proc` reports it.
fn peak_virtual_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmPeak:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Ids at both ends of the `u32` range: the graph build sizes its tables
/// by the ids present, never by the largest. A table with even one byte
/// per possible id would reserve 4 GiB, which shows in the process's peak
/// virtual size; the 1 GiB bound leaves room for the allocator arenas of
/// tests starting on other threads meanwhile.
#[test]
fn sparse_ids_analyze_without_an_id_sized_table() {
    let iid = Iid::from_name("ISparse");
    let ids = [0, 7, u32::MAX].map(ClassificationId);
    let mut profile = IccProfile::new();
    for (i, from) in ids.iter().enumerate() {
        for to in &ids[i..] {
            profile.record_message(*from, *to, iid, 0, 100);
            profile.record_message(*to, *from, iid, 1, 5_000);
        }
    }
    profile.record_non_remotable(ids[1], ids[2]);

    let before = peak_virtual_kib();
    let distribution = analyze(&profile, &ethernet(), &[], MaxFlowAlgorithm::LiftToFront)
        .expect("an unconstrained profile always has a cut");
    let after = peak_virtual_kib();
    assert_eq!(distribution.placement.len(), ids.len());
    if let (Some(before), Some(after)) = (before, after) {
        assert!(
            after - before < 1 << 20,
            "peak virtual size grew by {} KiB",
            after - before
        );
    }
}

#[test]
fn distribution_decode_survives_mutation() {
    let (_, record) = realized_octarine();
    let distribution = record.distribution.expect("a realized record");
    survives_mutations(&distribution.encode(), |b| {
        Distribution::decode(b).map(drop)
    });
}

#[test]
fn fault_plan_parse_survives_mutation() {
    let plan = include_bytes!("../examples/faults/demo.fplan");
    survives_mutations(plan, |b| {
        FaultPlan::parse(&String::from_utf8_lossy(b)).map(drop)
    });
}

/// A profile edge over a non-remotable interface is a profile the logger
/// cannot write: it records such a call as a non-remotable pair. Accumulated
/// into an image, it is a typed COIGN022 error for `coign check` and for
/// the pipeline, never a cut that splits the pair.
#[test]
fn traffic_over_a_non_remotable_interface_is_rejected() {
    let app = Octarine;
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(&app, "o_newdoc", &classifier).unwrap();
    let mut profile = run.profile;
    let &(a, b) = profile
        .non_remotable
        .iter()
        .min()
        .expect("o_newdoc makes non-remotable calls");
    let rt = coign_com::ComRuntime::single_machine();
    app.register(&rt);
    let iid = rt
        .registry()
        .all()
        .iter()
        .flat_map(|class| class.interfaces.clone())
        .find(|desc| !desc.remotable)
        .expect("Octarine declares a non-remotable interface")
        .iid;
    profile.non_remotable.clear();
    profile.record_message(a, b, iid, 0, 64);

    let mut image = app.image();
    rewriter::instrument(&mut image, &classifier);
    rewriter::accumulate_profile(&mut image, &profile).unwrap();
    let sink = coign::lint::check_app_image(&image, &app);
    assert!(sink.has_errors());
    assert!(
        sink.diagnostics().iter().any(|d| d.code == "COIGN022"),
        "{}",
        sink.render_human()
    );
    let record = rewriter::read_config(&image).unwrap();
    let Err(ComError::App(detail)) = choose_distribution(&app, &record.profile, &ethernet()) else {
        panic!("the pipeline must refuse the profile");
    };
    assert!(detail.contains("COIGN022"), "{detail}");
}
