//! Calibration goodness-of-fit: ICC size histograms of *profiled*
//! generated applications must land inside the paper's 64·2^k bucket
//! envelope.
//!
//! Tolerances (documented in `coign_gen::calibration`): the K-S sup-norm
//! between the observed bucket CDF and `TARGET_BUCKET_PROBS` must be at
//! most `KS_TOLERANCE` (0.15). The slack covers request/reply header
//! messages, marshaling overhead near bucket boundaries, and structural
//! GUI chatter — see the module docs for the full accounting.

use std::sync::Arc;

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::profile_scenarios_observed;
use coign::Application;
use coign_gen::calibration::{bucket_histogram, ks_distance, KS_TOLERANCE, TARGET_BUCKET_PROBS};
use coign_gen::{GenSize, GenSpec, GeneratedApp};

fn fit_for(seed: u64, size: GenSize) -> f64 {
    let app = GeneratedApp::new(GenSpec::new(seed, size));
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let scenarios = app.scenarios();
    let profile = profile_scenarios_observed(&app, &scenarios, &classifier, None).expect("profile");
    let hist = bucket_histogram(&profile);
    assert!(hist.iter().sum::<u64>() > 0, "empty profile");
    ks_distance(&hist)
}

#[test]
fn medium_seeds_fit_the_envelope() {
    for seed in [1u64, 7, 13, 42] {
        let fit = fit_for(seed, GenSize::Medium);
        assert!(
            fit <= KS_TOLERANCE,
            "seed {seed}: K-S {fit:.4} exceeds tolerance {KS_TOLERANCE}"
        );
    }
}

#[test]
fn large_seed_fits_the_envelope() {
    let fit = fit_for(5, GenSize::Large);
    assert!(
        fit <= KS_TOLERANCE,
        "large seed 5: K-S {fit:.4} exceeds tolerance {KS_TOLERANCE}"
    );
}

#[test]
fn tail_buckets_are_populated() {
    // The envelope has a heavy tail (content pages up to 128 KiB); the
    // generated traffic must actually reach it, not just fit the head.
    let app = GeneratedApp::new(GenSpec::new(7, GenSize::Medium));
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let scenarios = app.scenarios();
    let profile = profile_scenarios_observed(&app, &scenarios, &classifier, None).expect("profile");
    let hist = bucket_histogram(&profile);
    let tail: u64 = hist[7..].iter().sum();
    assert!(tail > 0, "no messages beyond 8 KiB: {hist:?}");
    // And nothing escapes the documented 12-bucket envelope by more than
    // the one-bucket marshaling-overhead allowance.
    let beyond: u64 = hist[TARGET_BUCKET_PROBS.len() + 1..].iter().sum();
    assert_eq!(beyond, 0, "messages beyond the envelope: {hist:?}");
}
