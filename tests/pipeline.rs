//! End-to-end pipeline tests spanning every crate: simCOM substrate, DCOM
//! simulation, flow algorithms, the Coign runtime, and the application
//! suite.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::{choose_distribution, profile_scenario, run_default, run_distributed};
use coign_apps::scenarios::app_by_name;
use coign_dcom::{NetworkModel, NetworkProfile};
use std::sync::Arc;

fn network() -> NetworkProfile {
    NetworkProfile::measure(&NetworkModel::ethernet_10baset(), 20, 99)
}

/// For every application: profile one representative scenario, choose a
/// distribution, run it — and never do worse than the default.
#[test]
fn coign_never_chooses_a_worse_distribution() {
    for (app_name, scenario) in [
        ("octarine", "o_oldwp0"),
        ("octarine", "o_oldtb3"),
        ("photodraw", "p_oldcur"),
        ("benefits", "b_vueone"),
    ] {
        let app = app_by_name(app_name).unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(app.as_ref(), scenario, &classifier).unwrap();
        let dist = choose_distribution(app.as_ref(), &run.profile, &network()).unwrap();
        let default =
            run_default(app.as_ref(), scenario, NetworkModel::ethernet_10baset(), 7).unwrap();
        let coign = run_distributed(
            app.as_ref(),
            scenario,
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            7,
        )
        .unwrap();
        // Allow 7 % slack for transport jitter (the model chooses on means).
        assert!(
            coign.stats.comm_us as f64 <= default.stats.comm_us as f64 * 1.07 + 1000.0,
            "{scenario}: coign {} us > default {} us",
            coign.stats.comm_us,
            default.stats.comm_us
        );
    }
}

/// The distributed run must behave identically to the profiling run: same
/// instances, same call structure (location transparency).
#[test]
fn distribution_preserves_application_behavior() {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "o_oldtb0", &classifier).unwrap();
    let dist = choose_distribution(app.as_ref(), &run.profile, &network()).unwrap();
    let coign = run_distributed(
        app.as_ref(),
        "o_oldtb0",
        &classifier,
        &dist,
        NetworkModel::ethernet_10baset(),
        1,
    )
    .unwrap();
    assert_eq!(
        run.report.total_instances(),
        coign.total_instances(),
        "the distributed execution must create the same component population"
    );
    // Application compute is placement-independent (equal CPUs).
    assert_eq!(run.report.stats.compute_us, coign.stats.compute_us);
}

/// Profiling and analysis are fully deterministic; distributed measurement
/// is deterministic per seed.
#[test]
fn pipeline_is_deterministic() {
    let once = || {
        let app = app_by_name("benefits").unwrap();
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(app.as_ref(), "b_addone", &classifier).unwrap();
        let dist = choose_distribution(app.as_ref(), &run.profile, &network()).unwrap();
        let report = run_distributed(
            app.as_ref(),
            "b_addone",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            1234,
        )
        .unwrap();
        (
            run.profile.total_bytes(),
            dist.encode(),
            report.clock_us,
            report.stats.bytes,
        )
    };
    assert_eq!(once(), once());
}

/// The same profile concretized for faster networks never increases the
/// predicted communication time of the chosen cut.
#[test]
fn faster_networks_never_predict_slower_cuts() {
    let app = app_by_name("octarine").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "o_oldwp3", &classifier).unwrap();
    let mut last = f64::INFINITY;
    for model in [
        NetworkModel::isdn(),
        NetworkModel::ethernet_10baset(),
        NetworkModel::atm155(),
        NetworkModel::san(),
    ] {
        let profile = NetworkProfile::exact(&model);
        let dist = choose_distribution(app.as_ref(), &run.profile, &profile).unwrap();
        assert!(
            dist.predicted_comm_us <= last,
            "{}: {} > previous {}",
            model.name,
            dist.predicted_comm_us,
            last
        );
        last = dist.predicted_comm_us;
    }
}

/// All three max-flow algorithms agree on the real applications' graphs,
/// not just synthetic ones.
#[test]
fn algorithms_agree_on_real_application_graphs() {
    use coign::analysis::analyze;
    use coign::runtime::derive_constraints;
    use coign_flow::MaxFlowAlgorithm;

    let app = app_by_name("benefits").unwrap();
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let run = profile_scenario(app.as_ref(), "b_vueone", &classifier).unwrap();
    let constraints = derive_constraints(app.as_ref(), &run.profile);
    let net = network();
    let costs: Vec<f64> = MaxFlowAlgorithm::ALL
        .iter()
        .map(|&alg| {
            analyze(&run.profile, &net, &constraints, alg)
                .unwrap()
                .predicted_comm_us
        })
        .collect();
    for pair in costs.windows(2) {
        assert!(
            (pair[0] - pair[1]).abs() < 1e-6,
            "algorithms disagree: {costs:?}"
        );
    }
}

/// §4.3: Benefits ships as either 2-tier or 3-tier. Coign improves both
/// shipped configurations — and converges on equal-cost distributions,
/// since the cut does not care where the programmer started.
#[test]
fn coign_improves_both_benefits_tierings() {
    use coign_apps::Benefits;
    for app in [Benefits::two_tier(), Benefits::three_tier()] {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let run = profile_scenario(&app, "b_vueone", &classifier).unwrap();
        let dist = choose_distribution(&app, &run.profile, &network()).unwrap();
        let default = run_default(&app, "b_vueone", NetworkModel::ethernet_10baset(), 9).unwrap();
        let coign = run_distributed(
            &app,
            "b_vueone",
            &classifier,
            &dist,
            NetworkModel::ethernet_10baset(),
            9,
        )
        .unwrap();
        assert!(
            coign.stats.comm_us <= default.stats.comm_us,
            "coign must not lose to the shipped configuration"
        );
    }
    // The chosen distributions cost the same regardless of tiering: the
    // profile (and therefore the cut) is identical.
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let two = profile_scenario(&Benefits::two_tier(), "b_vueone", &classifier).unwrap();
    let classifier2 = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let three = profile_scenario(&Benefits::three_tier(), "b_vueone", &classifier2).unwrap();
    assert_eq!(two.profile, three.profile);
}

/// The cut is solved on a network with pins and colocations contracted;
/// on real application graphs it must equal the full network's. The
/// validated sweep re-solves every point of the 4×4 grid with Dinic on the
/// full network and fails on any difference, and the cold sweep, which
/// solves each point as `analyze` does, must agree with it point for
/// point. Paper applications over three scenarios each, and twenty
/// generated seeds in every size class.
#[test]
fn contracted_cuts_match_the_full_network_on_paper_and_generated_apps() {
    use coign::runtime::profile_scenarios_observed;
    use coign::sweep::{sweep, SweepGrid, SweepMode};
    use coign::Application;
    use coign_gen::{GenSize, GenSpec, GeneratedApp};

    let mut apps: Vec<(Arc<dyn Application>, Vec<&str>)> = [
        ("octarine", vec!["o_oldtb3", "o_newdoc", "o_oldwp7"]),
        ("photodraw", vec!["p_newdoc", "p_oldcur", "p_newmsr"]),
        ("benefits", vec!["b_vueone", "b_addone", "b_delone"]),
    ]
    .into_iter()
    .map(|(name, scenarios)| (app_by_name(name).unwrap(), scenarios))
    .collect();
    for seed in 1..=20 {
        for size in [GenSize::Small, GenSize::Medium, GenSize::Large] {
            let app = GeneratedApp::new(GenSpec::new(seed, size));
            apps.push((Arc::new(app), vec!["g_main", "g_doc", "g_idle"]));
        }
    }
    let grid = SweepGrid::paper_networks();
    let mut distinct = 0;
    for (app, scenarios) in &apps {
        let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
        let profile = profile_scenarios_observed(app.as_ref(), scenarios, &classifier, None)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let validated = sweep(app.as_ref(), &profile, &grid, SweepMode::WarmValidated)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let cold = sweep(app.as_ref(), &profile, &grid, SweepMode::Cold).unwrap();
        assert_eq!(validated.points.len(), 16);
        assert_eq!(validated, cold, "{}", app.name());
        distinct += validated.distinct_partitions();
    }
    assert!(distinct > apps.len(), "no application's partition moved");
}
