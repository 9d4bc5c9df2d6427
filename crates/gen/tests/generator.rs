//! Property tests over the generator: 100 seeds of instrumented images
//! pass `coign check` with zero COIGN0xx *errors* (warnings are fine —
//! generated apps deliberately carry non-remotable interfaces and partially
//! annotated metadata, the same hazards the hand-built apps have), and
//! generation is byte-identical per seed — both at the image level and
//! through the parallel profiling path (`--jobs`).

use std::sync::Arc;

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::lint::check_app_image;
use coign::runtime::{profile_scenarios_observed, profile_scenarios_parallel};
use coign::{rewriter, Application};
use coign_gen::{app_for_name, GenSize, GenSpec, GeneratedApp};

fn size_for(seed: u64) -> GenSize {
    // Cycle all three size classes across the 100-seed sweep.
    match seed % 3 {
        0 => GenSize::Small,
        1 => GenSize::Medium,
        _ => GenSize::Large,
    }
}

#[test]
fn hundred_seeds_check_clean() {
    for seed in 0..100u64 {
        let app = GeneratedApp::new(GenSpec::new(seed, size_for(seed)));
        let mut image = app.image();
        rewriter::instrument(&mut image, &InstanceClassifier::new(ClassifierKind::Ifcb));
        let sink = check_app_image(&image, &app);
        assert!(
            !sink.has_errors(),
            "seed {seed} ({}) has check errors:\n{}",
            app.name(),
            sink.render_human()
        );
    }
}

#[test]
fn generation_is_byte_identical_per_seed() {
    for seed in [0u64, 7, 42, 99] {
        let spec = GenSpec::new(seed, size_for(seed));
        let a = GeneratedApp::new(spec);
        let b = GeneratedApp::new(spec);
        assert_eq!(
            a.image().encode(),
            b.image().encode(),
            "seed {seed} image differs between generations"
        );
        assert_eq!(a.summary(true), b.summary(true));
        assert_eq!(a.summary(false), b.summary(false));
        // The resolver path produces the same application again.
        let resolved = app_for_name(&spec.image_name()).expect("resolves");
        assert_eq!(resolved.image().encode(), a.image().encode());
        assert_eq!(
            resolved.explicit_constraints().len(),
            a.explicit_constraints().len()
        );
    }
}

#[test]
fn profiles_are_byte_identical_across_jobs() {
    for seed in [3u64, 16] {
        let spec = GenSpec::new(seed, GenSize::Small);
        let app = GeneratedApp::new(spec);
        let scenarios = app.scenarios();

        let sequential = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let base = profile_scenarios_observed(&app, &scenarios, &sequential, None)
            .expect("sequential profile");

        for jobs in [1usize, 4] {
            let fresh = GeneratedApp::new(spec);
            let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
            let profile = profile_scenarios_parallel(&fresh, &scenarios, &classifier, jobs)
                .expect("parallel profile");
            assert_eq!(
                profile.encode(),
                base.encode(),
                "seed {seed}: profile differs at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn distinct_seeds_yield_distinct_topologies() {
    let mut images = std::collections::HashSet::new();
    for seed in 0..25u64 {
        let app = GeneratedApp::new(GenSpec::new(seed, GenSize::Medium));
        images.insert(app.image().encode());
    }
    // Different seeds must not collapse onto a handful of shapes.
    assert!(
        images.len() >= 24,
        "only {} distinct images across 25 seeds",
        images.len()
    );
}
