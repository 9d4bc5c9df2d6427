//! Registration is cheap and shared: every application's interface
//! metadata is built once per process (like a COM type library), and the
//! constraint set can be derived from a registry the caller already holds
//! instead of registering the application a second time.

use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::runtime::{
    check_constraints, constraints_in, derive_constraints, profile_scenarios_observed,
};
use coign::Application;
use coign_apps::{Benefits, Octarine, PhotoDraw};
use coign_com::{ComRuntime, Iid};
use coign_gen::{GenSize, GenSpec, GeneratedApp};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The three paper applications, each with one scenario to profile.
fn paper_apps() -> Vec<(Box<dyn Application>, &'static str)> {
    vec![
        (Box::new(Octarine), "o_oldtb3"),
        (Box::new(PhotoDraw), "p_newdoc"),
        (Box::new(Benefits::default()), "b_vueone"),
    ]
}

/// Twenty generated seeds in each size class.
fn generated_apps() -> impl Iterator<Item = GeneratedApp> {
    (1..=20).flat_map(|seed| {
        [GenSize::Small, GenSize::Medium, GenSize::Large]
            .map(|size| GeneratedApp::new(GenSpec::new(seed, size)))
    })
}

fn registered(app: &dyn Application) -> ComRuntime {
    let rt = ComRuntime::client_server();
    app.register(&rt);
    rt
}

#[test]
fn two_registrations_share_every_interface_description() {
    let mut apps = paper_apps()
        .into_iter()
        .map(|(app, _)| app)
        .collect::<Vec<_>>();
    apps.push(Box::new(GeneratedApp::new(GenSpec::new(
        7,
        GenSize::Medium,
    ))));
    for app in &apps {
        let (first, second) = (registered(app.as_ref()), registered(app.as_ref()));
        let classes = first.registry().all();
        assert!(!classes.is_empty(), "{} registers no class", app.name());
        for class in classes {
            let again = second.registry().get(class.clsid).expect("same classes");
            assert_eq!(class.interfaces.len(), again.interfaces.len());
            for (a, b) in class.interfaces.iter().zip(&again.interfaces) {
                assert!(
                    Arc::ptr_eq(a, b),
                    "{}: {}'s {} was built twice",
                    app.name(),
                    class.name,
                    a.name
                );
            }
        }
    }
}

/// Checks one profiled application: the constraints derived from a runtime
/// it is registered in equal [`derive_constraints`], and every profiled
/// edge over a non-remotable interface is rejected with a COIGN022 error.
/// Returns how many such edges there were.
///
/// The profiling informer records a non-remotable call as a constraint,
/// not as traffic, so each such pair is also given an `IWindowSite` edge:
/// the shape of a profile the logger never writes.
fn check_constraints_in(app: &dyn Application, scenario: &str) -> usize {
    let classifier = Arc::new(InstanceClassifier::new(ClassifierKind::Ifcb));
    let mut profile =
        profile_scenarios_observed(app, &[scenario], &classifier, None).expect("profile");
    let window_site = Iid::from_name("IWindowSite");
    let mut pairs: Vec<_> = profile.non_remotable.iter().copied().collect();
    pairs.sort();
    for (a, b) in pairs {
        profile.record_message(b, a, window_site, 0, 16);
    }
    let rt = registered(app);
    let constraints = constraints_in(rt.registry(), app, &profile);
    assert_eq!(
        constraints,
        derive_constraints(app, &profile),
        "{} {scenario}",
        app.name()
    );
    let classes = rt.registry().all();
    let mut non_remotable_edges = BTreeSet::new();
    for key in profile.edges.keys().filter(|key| key.from != key.to) {
        let mut descs = classes.iter().flat_map(|class| &class.interfaces);
        if descs.any(|desc| desc.iid == key.iid && !desc.remotable) {
            let pair = (key.from.min(key.to), key.from.max(key.to));
            non_remotable_edges.insert((pair, key.iid));
        }
    }
    if !non_remotable_edges.is_empty() {
        let detail = check_constraints(app, &profile)
            .expect_err("traffic over a non-remotable interface must be rejected")
            .to_string();
        assert_eq!(
            detail.matches("COIGN022").count(),
            non_remotable_edges.len(),
            "{} {scenario}: {detail}",
            app.name()
        );
    }
    non_remotable_edges.len()
}

#[test]
fn constraints_from_the_runs_registry_equal_derive_constraints_on_paper_apps() {
    let non_remotable_edges: usize = paper_apps()
        .iter()
        .map(|(app, scenario)| check_constraints_in(app.as_ref(), scenario))
        .sum();
    assert!(non_remotable_edges > 0, "no non-remotable edge was checked");
}

#[test]
fn constraints_from_the_runs_registry_equal_derive_constraints_on_generated_apps() {
    let non_remotable_edges: usize = generated_apps()
        .map(|app| check_constraints_in(&app, "g_main"))
        .sum();
    assert!(non_remotable_edges > 0, "no non-remotable edge was checked");
}
