//! The sections `repro_all` prints: one function per table, figure and
//! supporting experiment, each writing exactly the text that
//! `scripts/expected/repro_all.txt` pins.
//!
//! As in the paper's §4, every application is optimized for the scenario it
//! then runs, data files live on the server, and the network is an isolated
//! 10BaseT Ethernet.

pub use crate::fig3::fig3;
use crate::{
    figure_for, network, network_profile, optimize_and_run, render_table, write_lines,
    FigureSummary, ScenarioOutcome, HARNESS_SEED,
};
use coign::application::Application;
use coign::classifier::{ClassifierKind, InstanceClassifier};
use coign::metrics::{evaluate_classifier, ClassifierEvaluation};
use coign::profile::IccProfile;
use coign::runtime::{choose_distribution, profile_scenario, run_default, run_distributed};
use coign_apps::scenarios::{all_scenarios, app_by_name, bigone, profiling_scenarios, Scenario};
use coign_apps::{Benefits, Octarine, PhotoDraw};
use coign_com::{ComResult, ComRuntime};
use coign_dcom::{NetworkModel, NetworkProfile};
use std::io::{self, Write};
use std::sync::{Arc, OnceLock};

/// Every Table-1 scenario optimized for itself and run, in table order;
/// computed once per process and shared by the sections that tabulate it.
fn outcomes() -> &'static [ScenarioOutcome] {
    static OUTCOMES: OnceLock<Vec<ScenarioOutcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| {
        let run = |scenario: &Scenario| {
            let app = app_by_name(scenario.app).expect("known app");
            optimize_and_run(app.as_ref(), scenario.name)
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name))
        };
        all_scenarios().iter().map(run).collect()
    })
}

/// Table 1 — Profiling Scenarios: the scenario suite, with the number of
/// component instances each scenario creates when it actually runs.
pub fn table1(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "Table 1. Profiling Scenarios\n")?;
    let mut rows = Vec::new();
    for scenario in all_scenarios() {
        let app = app_by_name(scenario.app).expect("known app");
        let rt = ComRuntime::single_machine();
        app.register(&rt);
        app.run_scenario(&rt, scenario.name)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        rows.push(vec![
            scenario.name.to_string(),
            scenario.description.to_string(),
            rt.instance_count().to_string(),
        ]);
    }
    writeln!(
        out,
        "{}",
        render_table(&["Scenario", "Description", "Instances"], &rows)
    )
}

/// Tables 2 and 3's procedure: profile every Octarine scenario but `o_bigone`
/// under `kind` at stack-walk `depth`, then evaluate against `o_bigone`.
fn evaluate_on_octarine(kind: ClassifierKind, depth: Option<usize>) -> ClassifierEvaluation {
    let scenarios = profiling_scenarios("octarine");
    let big = bigone("octarine").expect("octarine has a bigone");
    evaluate_classifier(&Octarine, kind, depth, &scenarios, big, &network_profile())
        .expect("evaluation")
}

/// Table 2 — Classifier Accuracy: all seven instance classifiers run through
/// every Octarine profiling scenario and then through `o_bigone`;
/// classifications identified while profiling, new ones first seen in
/// `bigone`, instances per classification there, and the average correlation
/// between each `bigone` instance's communication vector and its
/// classification's profiled vector.
pub fn table2(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 2. Classifier Accuracy (Octarine, bigone scenario)\n"
    )?;
    let mut rows = Vec::new();
    for kind in ClassifierKind::ALL {
        let eval = evaluate_on_octarine(kind, None);
        rows.push(vec![
            kind.name().to_string(),
            eval.profiled_classifications.to_string(),
            eval.new_classifications.to_string(),
            format!("{:.1}", eval.avg_instances_per_classification),
            format!("{:.3}", eval.avg_correlation),
        ]);
    }
    let headers = [
        "Instance Classifier",
        "Profiled Classifications",
        "New (bigone)",
        "Instances/Class",
        "Avg Correlation",
    ];
    writeln!(out, "{}", render_table(&headers, &rows))
}

/// Table 3 — Accuracy as a Function of Stack Depth: the IFCB classifier at
/// limited stack-walk depths; classification count and correlation should
/// both increase with depth and saturate.
pub fn table3(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "Table 3. IFCB Accuracy as a Function of Stack Depth (Octarine)\n"
    )?;
    let mut rows = Vec::new();
    for depth in [Some(1), Some(2), Some(3), Some(4), Some(8), Some(16), None] {
        let eval = evaluate_on_octarine(ClassifierKind::Ifcb, depth);
        rows.push(vec![
            depth.map_or("Complete".to_string(), |d| d.to_string()),
            eval.profiled_classifications.to_string(),
            format!("{:.1}", eval.avg_instances_per_classification),
            format!("{:.3}", eval.avg_correlation),
        ]);
    }
    let headers = [
        "Stack-Walk Depth",
        "Profiled Classifications",
        "Instances/Class",
        "Avg Correlation",
    ];
    writeln!(out, "{}", render_table(&headers, &rows))
}

/// Table 4 — Reduction in Communication Time: per Table-1 scenario,
/// communication time under the default (as-shipped) distribution versus the
/// Coign-chosen one, and the relative savings.
pub fn table4(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "Table 4. Reduction in Communication Time\n")?;
    let rows: Vec<_> = outcomes()
        .iter()
        .map(|outcome| {
            vec![
                outcome.scenario.clone(),
                format!("{:.3}", outcome.default_report.comm_secs()),
                format!("{:.3}", outcome.coign_report.comm_secs()),
                format!("{:.0}%", outcome.savings() * 100.0),
            ]
        })
        .collect();
    let headers = ["Scenario", "Default (s)", "Coign (s)", "Savings"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    write_lines(
        out,
        &[
            "Communication time for the default distribution of the application",
            "(as shipped by the developer) and for the Coign-chosen distribution.",
        ],
    )
}

/// Table 5 — Accuracy of Prediction Models: predicted execution time
/// (profiled compute plus the α/β network model applied to cross-machine
/// traffic) versus the measured time of the distributed run, with the signed
/// relative error.
pub fn table5(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "Table 5. Accuracy of Prediction Models\n")?;
    let net = network_profile();
    let mut rows = Vec::new();
    let mut worst: i64 = 0;
    for outcome in outcomes() {
        let row = outcome.prediction(&net);
        worst = worst.max(row.error_pct().abs());
        rows.push(vec![
            outcome.scenario.clone(),
            format!("{:.3}", row.predicted_us / 1e6),
            format!("{:.3}", row.measured_us / 1e6),
            format!("{:+}%", row.error_pct()),
        ]);
    }
    let headers = ["Scenario", "Predicted (s)", "Measured (s)", "Error"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    writeln!(out, "Largest absolute error: {worst}%")
}

/// Figures 4, 5, 7 and 8: optimize `app` for `scenario`, then print the
/// population, the server-side classes under `heading`, the communication
/// times and the paper's own `paper` lines.
fn write_distribution(
    out: &mut impl Write,
    (app, scenario): (&dyn Application, &str),
    title: &str,
    non_remotable: bool,
    heading: &str,
    paper: &[&str],
) -> io::Result<()> {
    let fig = figure_for(app, scenario).expect("figure run");
    writeln!(out, "{title}\n")?;
    writeln!(out, "Components in the application:        {}", fig.total)?;
    writeln!(out, "Placed on the server by Coign:        {}", fig.server)?;
    writeln!(
        out,
        "(plus {} pinned storage component(s) — the document file)",
        fig.pinned_storage
    )?;
    if non_remotable {
        writeln!(
            out,
            "Non-distributable interface pairs:    {}",
            fig.non_remotable_pairs
        )?;
    }
    writeln!(out, "\n{heading}")?;
    write_server_classes(out, &fig)?;
    writeln!(
        out,
        "\nCommunication time: default {:.3} s -> Coign {:.3} s\n",
        fig.comm_secs.0, fig.comm_secs.1
    )?;
    write_lines(out, paper)
}

fn write_server_classes(out: &mut impl Write, fig: &FigureSummary) -> io::Result<()> {
    fig.server_classes
        .iter()
        .try_for_each(|(class, n)| writeln!(out, "  {n:>3} x {class}"))
}

/// Figure 4 — PhotoDraw loads a 3 MB composition, displays it, and exits.
/// The paper: of 295 components, eight go to the server — the component that
/// reads the document file plus seven high-level property sets created
/// directly from data in the file; almost 50 significant interfaces are
/// non-distributable (sprite caches sharing memory with the UI).
pub fn fig4(out: &mut impl Write) -> io::Result<()> {
    write_distribution(
        out,
        (&PhotoDraw, "p_oldmsr"),
        "Figure 4. PhotoDraw Distribution (scenario p_oldmsr)",
        true,
        "Server-side components:",
        &["Paper: 8 of 295 components on the server (reader + 7 property sets)."],
    )
}

/// Figure 5 — Octarine loads and displays the first page of a 35-page,
/// text-only document. The paper: two of 458 components go to the server —
/// one reads the document from storage, the other provides the properties of
/// the text; the non-distributable interfaces connect components of the GUI.
pub fn fig5(out: &mut impl Write) -> io::Result<()> {
    write_distribution(
        out,
        (&Octarine, "o_fig5"),
        "Figure 5. Octarine Distribution (35-page text document)",
        true,
        "Server-side components:",
        &["Paper: 2 of 458 components on the server (document reader + text properties)."],
    )
}

/// Figure 6 — Corporate Benefits. The paper: of 196 components in the client
/// and middle tier, Coign places 135 on the middle tier where the programmer
/// placed 187 — the caching components (but not the business logic) move to
/// the client, reducing communication by 35 %.
pub fn fig6(out: &mut impl Write) -> io::Result<()> {
    let fig = figure_for(&Benefits::default(), "b_bigone").expect("figure run");
    writeln!(
        out,
        "Figure 6. Corporate Benefits Distribution (scenario b_bigone)\n"
    )?;
    // Both counts exclude the pinned database drivers, so they cover the same
    // population: application components in client + middle tier.
    writeln!(out, "Components in client + middle tier:   {}", fig.total)?;
    writeln!(
        out,
        "Programmer placed on middle tier:     {}",
        fig.default_server
    )?;
    writeln!(out, "Coign places on middle tier:          {}", fig.server)?;
    writeln!(
        out,
        "(the ODBC boundary adds {} pinned database component(s))",
        fig.pinned_storage
    )?;
    writeln!(out, "\nMiddle-tier components under Coign:")?;
    write_server_classes(out, &fig)?;
    writeln!(
        out,
        "\nCommunication time: programmer {:.3} s -> Coign {:.3} s ({:.0}% reduction)\n",
        fig.comm_secs.0,
        fig.comm_secs.1,
        100.0 * (fig.comm_secs.0 - fig.comm_secs.1) / fig.comm_secs.0.max(1e-9)
    )?;
    write_lines(
        out,
        &[
            "Paper: Coign places 135 of 196 on the middle tier (programmer: 187),",
            "reducing communication by 35% — the result caches move to the client.",
        ],
    )
}

/// Figure 7 — Octarine with a document containing a single five-page table:
/// Coign locates only the document reader on the server.
pub fn fig7(out: &mut impl Write) -> io::Result<()> {
    write_distribution(
        out,
        (&Octarine, "o_oldtb0"),
        "Figure 7. Octarine with Multi-page Table (5-page table document)",
        false,
        "Server-side components:",
        &["Paper: 1 of 476 components on the server."],
    )
}

/// Figure 8 — Octarine with a five-page text document containing fewer than
/// a dozen embedded tables: the page-placement negotiations between the table
/// and text components move to the server (their output to the rest of the
/// application is minimal). Paper: 281 of 786 components on the server.
pub fn fig8(out: &mut impl Write) -> io::Result<()> {
    write_distribution(
        out,
        (&Octarine, "o_oldbth"),
        "Figure 8. Octarine with Tables and Text (5 pages + 11 embedded tables)",
        false,
        "Server-side components (the page-placement negotiation cluster):",
        &[
            "Paper: 281 of 786 components on the server.",
            "Compare Figure 5 (text only: 2 on the server) — the same application,",
            "a different document mix, a radically different optimal distribution.",
        ],
    )
}

/// §3.2 — Instrumentation overhead in simulated time: what the profiling
/// informer adds to a scenario's profiled execution, and what the
/// distribution informer adds to its distributed execution.
pub fn overhead(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "Instrumentation Overhead (simulated time, §3.2)\n")?;
    let percent = |report: &coign::runtime::RunReport| {
        let uninstrumented = report.clock_us - report.overhead_us;
        format!(
            "{:.1}%",
            100.0 * report.overhead_us as f64 / uninstrumented.max(1) as f64
        )
    };
    let rows: Vec<_> = outcomes()
        .iter()
        .map(|outcome| {
            vec![
                outcome.scenario.clone(),
                percent(&outcome.profile_report),
                percent(&outcome.coign_report),
            ]
        })
        .collect();
    let headers = ["Scenario", "Profiling", "Distribution informer"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    writeln!(
        out,
        "Paper: profiling adds up to 85% (typically ~45%); the distribution informer under 3%."
    )
}

/// The two usage patterns the ablation's single distribution must serve.
const ABLATION_SCENARIOS: [&str; 2] = ["o_oldwp0", "o_oldtb3"];

fn ablation_savings(kind: ClassifierKind) -> ComResult<Vec<f64>> {
    let app = Octarine;
    let classifier = Arc::new(InstanceClassifier::new(kind));
    // One merged profile covering both usage patterns...
    let mut merged = IccProfile::new();
    for scenario in ABLATION_SCENARIOS {
        merged.merge(&profile_scenario(&app, scenario, &classifier)?.profile);
    }
    // ...one distribution...
    let dist = choose_distribution(&app, &merged, &network_profile())?;
    // ...executed against each scenario.
    let mut out = Vec::new();
    for scenario in ABLATION_SCENARIOS {
        let default = run_default(&app, scenario, network(), HARNESS_SEED)?;
        let coign = run_distributed(&app, scenario, &classifier, &dist, network(), HARNESS_SEED)?;
        let saving = (default.stats.comm_us as f64 - coign.stats.comm_us as f64)
            / default.stats.comm_us.max(1) as f64;
        out.push(saving);
    }
    Ok(out)
}

/// Ablation: how the choice of instance classifier affects distribution
/// quality.
///
/// The paper argues (§3.4) that automatic partitioning depends on instance
/// classifiers that preserve distribution granularity: the static-type
/// classifier "must assign all instances to the same machine — a
/// debilitating feature", and the incremental classifier "fails miserably
/// for dynamic, commercial applications". One profile covering both a small
/// text document (optimal: stay whole) and a large table document (optimal:
/// move the reader and table model to the server) is analyzed with different
/// classifiers, and the resulting *single* distribution is executed against
/// both scenarios:
///
/// * IFCB keeps the two documents' readers apart (different instantiation
///   contexts) and serves both scenarios optimally.
/// * ST merges every `OctDocReader` into one classification and must pick
///   one placement for both — whichever document loses, loses badly.
/// * The incremental classifier cannot re-recognize instances in the
///   distributed run at all: placements fall back to the client and the
///   big document's savings evaporate.
pub fn ablation(out: &mut impl Write) -> io::Result<()> {
    write_lines(
        out,
        &[
            "Ablation: classifier choice vs. distribution quality",
            "(one distribution optimized for the combined o_oldwp0 + o_oldtb3 profile)\n",
        ],
    )?;
    let mut rows = Vec::new();
    for kind in [
        ClassifierKind::Ifcb,
        ClassifierKind::Stcb,
        ClassifierKind::Pcb,
        ClassifierKind::St,
        ClassifierKind::Incremental,
    ] {
        let savings = ablation_savings(kind).expect("ablation run");
        rows.push(vec![
            kind.name().to_string(),
            format!("{:+.0}%", savings[0] * 100.0),
            format!("{:+.0}%", savings[1] * 100.0),
            format!("{:+.0}%", (savings[0] + savings[1]) / 2.0 * 100.0),
        ]);
    }
    let headers = ["Classifier", "o_oldwp0 savings", "o_oldtb3 savings", "mean"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    write_lines(
        out,
        &[
            "Negative savings = the classifier's merged placements made that",
            "scenario *slower* than the non-distributed default.",
        ],
    )
}

/// Network-profiler convergence: how the statistical sampling of DCOM round
/// trips (§2) converges on the true cost model as the sample budget grows,
/// and what that does to prediction error.
pub fn netfit(out: &mut impl Write) -> io::Result<()> {
    let network = NetworkModel::ethernet_10baset();
    let truth = NetworkProfile::exact(&network);
    writeln!(
        out,
        "Network-profiler convergence (10BaseT Ethernet, ±5% jitter)\n"
    )?;
    let mut rows = Vec::new();
    for samples in [1usize, 2, 5, 10, 40, 160, 640] {
        // Average absolute α/β error over independent measurement seeds.
        let trials = 32;
        let mut alpha_err = 0.0;
        let mut beta_err = 0.0;
        let mut predict_err = 0.0;
        for seed in 0..trials {
            let fit = NetworkProfile::measure(&network, samples, 1000 + seed);
            alpha_err += (fit.alpha_us - truth.alpha_us).abs() / truth.alpha_us;
            beta_err +=
                (fit.beta_us_per_byte - truth.beta_us_per_byte).abs() / truth.beta_us_per_byte;
            // Error predicting a representative 8 KB message.
            predict_err +=
                (fit.predict_us(8_192) - truth.predict_us(8_192)).abs() / truth.predict_us(8_192);
        }
        let n = trials as f64;
        rows.push(vec![
            samples.to_string(),
            format!("{:.2}%", alpha_err / n * 100.0),
            format!("{:.2}%", beta_err / n * 100.0),
            format!("{:.2}%", predict_err / n * 100.0),
        ]);
    }
    let headers = ["samples/size", "α error", "β error", "8KB prediction error"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    write_lines(
        out,
        &[
            "With the harness default (40 samples per size), the fitted model is",
            "within a fraction of a percent of the true link — the headroom behind",
            "Table 5's small prediction errors.",
        ],
    )
}

/// Development probe: one-line distribution summaries for the scenarios
/// behind the paper's figures and headline rows — the quick feedback loop
/// used while tuning the synthetic applications.
pub fn probe(out: &mut impl Write) -> io::Result<()> {
    let cases: Vec<(&str, Box<dyn Application>)> = vec![
        ("o_fig5", Box::new(Octarine)),
        ("o_oldwp0", Box::new(Octarine)),
        ("o_oldwp3", Box::new(Octarine)),
        ("o_oldwp7", Box::new(Octarine)),
        ("o_oldtb0", Box::new(Octarine)),
        ("o_oldtb3", Box::new(Octarine)),
        ("o_oldbth", Box::new(Octarine)),
        ("p_oldmsr", Box::new(PhotoDraw)),
        ("b_vueone", Box::new(Benefits::default())),
        ("b_bigone", Box::new(Benefits::default())),
    ];
    for (scenario, app) in cases {
        match figure_for(app.as_ref(), scenario) {
            Ok(fig) => {
                writeln!(
                    out,
                    "{:<10} total={:<5} server={:<4} pinned={} nonremot={} comm {:.3}s -> {:.3}s ({:.0}%)",
                    scenario,
                    fig.total,
                    fig.server,
                    fig.pinned_storage,
                    fig.non_remotable_pairs,
                    fig.comm_secs.0,
                    fig.comm_secs.1,
                    100.0 * (fig.comm_secs.0 - fig.comm_secs.1) / fig.comm_secs.0.max(1e-9),
                )?;
                for (class, n) in &fig.server_classes {
                    writeln!(out, "             server: {n:>4} x {class}")?;
                }
            }
            Err(e) => writeln!(out, "{scenario}: ERROR {e}")?,
        }
    }
    Ok(())
}
