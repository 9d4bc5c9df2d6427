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

use coign::analysis::Distribution;
use coign::application::Application;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::config::ConfigRecord;
use coign::profile::IccProfile;
use coign::rewriter;
use coign::runtime::{choose_distribution, profile_scenario};
use coign_apps::Octarine;
use coign_com::{AppImage, ComError, ComResult};
use coign_dcom::{FaultPlan, NetworkModel, NetworkProfile};
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
    let network = NetworkProfile::exact(&NetworkModel::ethernet_10baset());
    let dist = choose_distribution(&app, &record.profile, &network).unwrap();
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

#[test]
fn profile_decode_survives_mutation() {
    let (_, record) = realized_octarine();
    survives_mutations(&record.profile.encode(), |b| {
        IccProfile::decode(b).map(drop)
    });
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
