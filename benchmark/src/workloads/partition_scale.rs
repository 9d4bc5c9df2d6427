//! `partition_scale`: the analysis engine on graphs several times the
//! paper's, with profiling out of the picture.
//!
//! One round solves a bag of synthetic communication graphs drawn from the
//! seed — for each: one `analyze`, one cold and one warm sweep over the
//! paper's 4×4 network grid (33 placements) — plus three-machine placement
//! with and without replication on octarine and one `gen:<s>:large`.
//!
//! Lift-to-front's cost on a graph depends sharply on which side of the cut
//! the pinned capacity is scarcer: measured on 4 000-node graphs, a cold
//! sweep takes 0.3 s when more nodes are pinned to the server than to the
//! client and 1.6 s the other way round, and at equal pin counts either,
//! by chance. So half the graphs pin 11 % of nodes to the client and 9 % to
//! the server and half the reverse: both regimes are measured and neither
//! is left to the seed. Within a regime the per-graph cost still varies by
//! ~10 %, which is why a round is many mid-sized graphs rather than one
//! large one (sizing in README.md).

use super::{ratio, report_end_to_end, report_tracing, Modelled};
use crate::harness::{derive_seed, min_time, splitmix64, time, Fallible, Harness};
use crate::surface::{
    self, Constraint, GenSize, IccProfile, MaxFlowAlgorithm, MultiwayCase, NetworkProfile,
    SweepGrid, SweepMode, SynthEdge, SynthGraph, INFINITE,
};

/// Classifications per synthetic graph (octarine's profile has 193).
const NODES: u64 = 1_000;
/// Graphs per round.
const GRAPHS: u64 = 16;
/// Classifications of the traced run's one large solve (~100× octarine).
const NODES_100X: u64 = 20_000;

/// Chain plus `3·nodes` random edges, 1–7 messages of 64 B–2 KB per edge;
/// `client_permille`/`server_permille` of the nodes pinned to each side.
fn synth_graph(nodes: u32, client_permille: u32, server_permille: u32, seed: u64) -> SynthGraph {
    let mut state = seed;
    let mut edge = |a: u32, b: u32| SynthEdge {
        a,
        b,
        messages: 1 + (splitmix64(&mut state) % 7) as u32,
        bytes_per_message: 64 + splitmix64(&mut state) % 1_985,
    };
    let mut edges: Vec<SynthEdge> = (1..nodes).map(|i| edge(i, i + 1)).collect();
    let mut state2 = seed ^ 0x5EED_5EED_5EED_5EED;
    for _ in 0..3 * nodes {
        let a = 1 + (splitmix64(&mut state2) % u64::from(nodes)) as u32;
        let b = 1 + (splitmix64(&mut state2) % u64::from(nodes)) as u32;
        if a != b {
            edges.push(edge(a, b));
        }
    }
    // Exact pin counts by a partial shuffle.
    let clients = (nodes * client_permille / 1000) as usize;
    let servers = (nodes * server_permille / 1000) as usize;
    let mut ids: Vec<u32> = (1..=nodes).collect();
    for i in 0..clients + servers {
        let j = i + (splitmix64(&mut state2) % (ids.len() - i) as u64) as usize;
        ids.swap(i, j);
    }
    SynthGraph {
        nodes,
        edges,
        pin_client: ids[..clients].to_vec(),
        pin_server: ids[clients..clients + servers].to_vec(),
    }
}

struct Case {
    graph: SynthGraph,
    profile: IccProfile,
    constraints: Vec<Constraint>,
}

fn synth_case(nodes: u32, index: u64, seed: u64) -> Case {
    let (client, server) = if index.is_multiple_of(2) {
        (110, 90)
    } else {
        (90, 110)
    };
    let graph = synth_graph(nodes, client, server, derive_seed(seed, "graph", index));
    let (profile, constraints) = surface::synthetic_profile(&graph);
    Case {
        graph,
        profile,
        constraints,
    }
}

struct State {
    cases: Vec<Case>,
    grid: SweepGrid,
    network: NetworkProfile,
    multiway: Vec<MultiwayCase>,
}

/// Deterministic outputs of one round.
#[derive(Default, PartialEq, Debug)]
struct Outcome {
    placements: u64,
    /// Σ predicted communication time of the 10BaseT cuts, µs.
    cut_us: f64,
    cut_values: Vec<u64>,
    distinct_partitions: u64,
    refine_gain_us: f64,
    replicas: u64,
}

fn setup(h: &Harness) -> Fallible<State> {
    let seed = h.config.seed;
    let nodes = h.config.size(NODES, NODES / 50) as u32;
    let cases: Vec<Case> = (0..h.config.size(GRAPHS, 2))
        .map(|index| synth_case(nodes, index, seed))
        .collect();
    let grid = SweepGrid::paper_networks();
    // Capacity-ceiling guard: on the slowest grid point every edge weighs
    // the most; if the capacities there sum past the solver's "infinite"
    // sentinel an honest cut can exceed it and `sweep_profile` reports a
    // false contradiction. Stay inside the valid range.
    let slowest = surface::grid_point_network(
        grid.latencies_us.iter().copied().fold(0.0, f64::max),
        grid.bandwidths_bps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    );
    for (index, case) in cases.iter().enumerate() {
        let shape = surface::icc_shape(&case.profile, &slowest);
        h.check(shape.capacity_sum < u128::from(INFINITE), || {
            format!(
                "graph {index}: capacities sum to {} on the slowest grid point, past the \
                 solver's sentinel {INFINITE}",
                shape.capacity_sum
            )
        });
    }
    let octarine = surface::paper_app("octarine");
    let generated = surface::generated_app(
        derive_seed(seed, "multiway-app", 0) % 1_000_000,
        if h.config.quick {
            GenSize::Small
        } else {
            GenSize::Large
        },
    );
    let multiway = vec![
        h.op(
            "multiway octarine",
            surface::multiway_case(octarine.as_ref(), &["o_oldtb3", "o_newdoc", "o_oldwp7"]),
        )?,
        h.op(
            "multiway gen",
            surface::multiway_case(generated.as_ref(), &["g_main", "g_doc", "g_idle"]),
        )?,
    ];
    Ok(State {
        cases,
        grid,
        network: surface::exact_network(&surface::ethernet()),
        multiway,
    })
}

fn round(h: &Harness, s: &State) -> Fallible<Outcome> {
    let mut out = Outcome::default();
    for case in &s.cases {
        let chosen = {
            let _s = h.spans.span("analysis.analyze");
            h.op(
                "analyze",
                surface::analyze(
                    &case.profile,
                    &s.network,
                    &case.constraints,
                    MaxFlowAlgorithm::LiftToFront,
                ),
            )?
        };
        let cold = {
            let _s = h.spans.span("sweep.cold");
            h.op(
                "cold sweep",
                surface::sweep_profile(&case.profile, &case.constraints, &s.grid, SweepMode::Cold),
            )?
        };
        let warm = {
            let _s = h.spans.span("sweep.warm");
            h.op(
                "warm sweep",
                surface::sweep_profile(&case.profile, &case.constraints, &s.grid, SweepMode::Warm),
            )?
        };
        h.check(cold == warm, || {
            "the warm sweep disagrees with the cold sweep".to_string()
        });
        out.placements += 1 + (cold.points.len() + warm.points.len()) as u64;
        out.cut_us += chosen.predicted_comm_us;
        out.cut_values
            .extend(warm.points.iter().map(|p| p.cut_value));
        out.distinct_partitions += warm.distinct_partitions() as u64;
    }
    for case in &s.multiway {
        let plain = {
            let _s = h.spans.span("multiway.place");
            h.op("multiway placement", surface::multiway_place(case, false))?
        };
        let replicated = {
            let _s = h.spans.span("multiway.replicated_place");
            h.op("replicated placement", surface::multiway_place(case, true))?
        };
        h.check(
            plain.replicas == 0 && plain.placement.placement == replicated.placement.placement,
            || "replication moved the home placement".to_string(),
        );
        out.placements += 2;
        out.refine_gain_us += plain.heuristic_cut_us - plain.refined_cut_us;
        out.replicas += replicated.replicas as u64;
    }
    Ok(out)
}

/// Checks that need a second algorithm, outside the timed region: Dinic's
/// cut equals lift-to-front's, and the validated warm sweep (which re-solves
/// every point with Dinic on a rebuilt network) agrees with the plain one.
/// Returns Σ total edge time, µs, for the quality figure.
fn verify(h: &Harness, s: &State) -> Fallible<f64> {
    let mut total_us = 0.0;
    for case in &s.cases {
        let [ltf, dinic] = [MaxFlowAlgorithm::LiftToFront, MaxFlowAlgorithm::Dinic].map(|alg| {
            h.op(
                "analyze",
                surface::analyze(&case.profile, &s.network, &case.constraints, alg),
            )
        });
        let (ltf, dinic) = (ltf?, dinic?);
        h.check(ltf.predicted_comm_us == dinic.predicted_comm_us, || {
            format!(
                "lift-to-front cut {} us differs from Dinic's {} us",
                ltf.predicted_comm_us, dinic.predicted_comm_us
            )
        });
        let warm = h.op(
            "warm sweep",
            surface::sweep_profile(&case.profile, &case.constraints, &s.grid, SweepMode::Warm),
        )?;
        let validated = h.op(
            "validated sweep",
            surface::sweep_profile(
                &case.profile,
                &case.constraints,
                &s.grid,
                SweepMode::WarmValidated,
            ),
        )?;
        h.check(warm == validated, || {
            "the validated warm sweep disagrees with the warm sweep".to_string()
        });
        total_us += surface::icc_shape(&case.profile, &s.network).total_time_us;
    }
    Ok(total_us)
}

pub fn run(h: &Harness) -> Fallible<()> {
    let (state, rounds) = h.run_rounds(setup, round)?;
    let total_us = verify(h, &state)?;
    let out = &rounds.reference;
    if !h.config.traced {
        let modelled = Modelled {
            sim_time_ms: out.cut_us / state.cases.len() as f64 / 1e3,
            // Share of the graphs' potential communication time that the
            // chosen cuts keep off the network.
            sim_quality_pct: 100.0 * (1.0 - ratio(out.cut_us, total_us)),
        };
        report_end_to_end(h, &rounds, out.placements, &modelled);
        return Ok(());
    }

    report_tracing(h, &rounds);
    let cold_us = h.spans.median_self_us("sweep.cold");
    let warm_us = h.spans.median_self_us("sweep.warm");
    h.set(
        "analysis.analyze_us",
        h.spans.median_self_us("analysis.analyze"),
    );
    h.set("sweep.cold_us", cold_us);
    h.set("sweep.warm_us", warm_us);
    h.set("sweep.warm_speedup_x", ratio(cold_us, warm_us));
    h.set("sweep.distinct_partitions", out.distinct_partitions as f64);
    h.set(
        "multiway.place_us",
        h.spans.median_self_us("multiway.place"),
    );
    h.set(
        "multiway.replicated_place_us",
        h.spans.median_self_us("multiway.replicated_place"),
    );
    h.set("multiway.refine_gain_us", out.refine_gain_us);
    h.set("multiway.replicas", out.replicas as f64);
    layer_probes(h, &state)
}

/// Per-layer costs the round's spans cannot separate, timed on the same
/// graphs: graph build, each algorithm under `analyze`, the raw solver on a
/// flow network of the benchmark's own, and the recovery solver's re-solve.
fn layer_probes(h: &Harness, s: &State) -> Fallible<()> {
    let reps = h.config.reps(3);
    let (mut nodes, mut edges) = (0usize, 0usize);
    let (mut build_s, mut dinic_s, mut raw_ltf_s, mut raw_dinic_s, mut resolve_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut error = None;
    for case in &s.cases {
        let shape = surface::icc_shape(&case.profile, &s.network);
        nodes += shape.nodes;
        edges += shape.edges;
        build_s += min_time(reps, || {
            std::hint::black_box(surface::icc_shape(&case.profile, &s.network));
        });
        dinic_s += min_time(reps, || {
            if let Err(e) = surface::analyze(
                &case.profile,
                &s.network,
                &case.constraints,
                MaxFlowAlgorithm::Dinic,
            ) {
                error = Some(e.to_string());
            }
        });
        let (flow, source, sink) = surface::synthetic_flow_network(&case.graph);
        let mut values = [0u64; 2];
        raw_ltf_s += min_time(reps, || {
            values[0] = surface::raw_min_cut(&flow, source, sink, MaxFlowAlgorithm::LiftToFront);
        });
        raw_dinic_s += min_time(reps, || {
            values[1] = surface::raw_min_cut(&flow, source, sink, MaxFlowAlgorithm::Dinic);
        });
        h.check(values[0] == values[1], || {
            format!(
                "raw lift-to-front cut {} differs from Dinic's {}",
                values[0], values[1]
            )
        });
        resolve_s += min_time(reps, || {
            match surface::recovery_resolve(&case.profile, &s.network, &case.constraints) {
                Ok((warm, cold)) if (warm, cold) == (1, 1) => {}
                Ok(other) => error = Some(format!("recovery solver made {other:?} solves")),
                Err(e) => error = Some(e.to_string()),
            }
        });
    }
    h.op("layer probes", error.map_or(Ok(()), Err))?;
    h.set("icc.nodes", nodes as f64);
    h.set("icc.edges", edges as f64);
    h.set("icc.build_us", build_s * 1e6);
    h.set("analysis.dinic_us", dinic_s * 1e6);
    h.set("flow.lift_to_front_us", raw_ltf_s * 1e6);
    h.set("flow.dinic_us", raw_dinic_s * 1e6);
    h.set("recovery.warm_solve_us", resolve_s * 1e6);

    // Solver invocations one round makes, from the program's own counter.
    let before = surface::mincut_invocations();
    round(h, s)?;
    h.set(
        "flow.mincut_invocations",
        (surface::mincut_invocations() - before) as f64,
    );

    // One solve at ~100× octarine, where lift-to-front's growth shows.
    let big = synth_case(
        h.config.size(NODES_100X, NODES_100X / 50) as u32,
        1,
        derive_seed(h.config.seed, "graph-100x", 0),
    );
    let (solved, big_s) = time(|| {
        surface::analyze(
            &big.profile,
            &s.network,
            &big.constraints,
            MaxFlowAlgorithm::LiftToFront,
        )
    });
    h.op("analyze 100x", solved)?;
    h.set("analysis.analyze_100x_us", big_s * 1e6);
    Ok(())
}
