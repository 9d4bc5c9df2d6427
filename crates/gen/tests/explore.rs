//! Schedule-space exploration acceptance tests.
//!
//! The headline guarantee (ISSUE 7): on a small generated application,
//! `explore` enumerates >= 1000 distinct interleavings around a
//! machine-death epoch with zero exactly-once / placement invariant
//! violations — deterministically per seed and across `--jobs`.

use coign_gen::explore::{explore, ExploreOptions};
use coign_gen::{GenSize, GenSpec};

#[test]
fn small_schedule_is_deterministic_across_jobs() {
    let spec = GenSpec::new(42, GenSize::Small);
    let opts = |jobs| ExploreOptions {
        faults_at: Some(vec![4_000, 9_000, 14_000, 21_000]),
        thresholds: vec![1, 3],
        jobs,
        ..ExploreOptions::default()
    };
    let one = explore(spec, "g_main", &opts(1)).expect("jobs=1");
    let four = explore(spec, "g_main", &opts(4)).expect("jobs=4");
    assert_eq!(one.summary, four.summary);
    assert_eq!(one.interleavings, 8);
    assert_eq!(one.violations, 0);
    let again = explore(spec, "g_main", &opts(4)).expect("repeat");
    assert_eq!(one.summary, again.summary);
}

#[test]
fn acceptance_thousand_interleavings_zero_violations() {
    let spec = GenSpec::new(7, GenSize::Small);
    let opts = ExploreOptions {
        jobs: 4,
        ..ExploreOptions::default()
    };
    let report = explore(spec, "g_main", &opts).expect("explore must be violation-free");
    assert!(
        report.interleavings >= 1000,
        "only {} interleavings",
        report.interleavings
    );
    assert_eq!(report.violations, 0);
    assert!(
        report.calibration_fit <= coign_gen::calibration::KS_TOLERANCE,
        "explored app's traffic is outside the calibration envelope: K-S {}",
        report.calibration_fit
    );
    assert!(
        report.summary.contains("invariants: ok"),
        "{}",
        report.summary
    );
    // Schedules actually hit the recovery machinery, not just clean runs.
    assert!(report.summary.contains("recovered="), "{}", report.summary);
    let recovered: usize = report
        .summary
        .lines()
        .find(|l| l.starts_with("outcomes:"))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix("recovered=").and_then(|v| v.parse().ok()))
        })
        .expect("outcomes line");
    assert!(
        recovered > 0,
        "no interleaving recovered:\n{}",
        report.summary
    );
}
