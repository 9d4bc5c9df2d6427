//! Max-flow / min-cut algorithms for distributed partitioning.
//!
//! Coign chooses a two-machine distribution by cutting the concrete
//! inter-component communication graph with the **lift-to-front
//! minimum-cut algorithm** of Cormen, Leiserson & Rivest. The paper's claim
//! is that the cut is exact; this crate finds it with push-relabel
//! ([`push_relabel`], highest-label order with gap and global relabeling),
//! cross-checks it with an independent algorithm ([`dinic`]) in tests and
//! benchmarks, and adds a heuristic multiway cut ([`multiway`]) for the
//! paper's ≥3-machine future-work case (which is NP-hard to solve exactly).
//!
//! All algorithms operate on the shared residual-graph representation in
//! [`graph`]: edges are named by slots, and the solvers walk the residual
//! arcs laid out vertex by vertex, each vertex's arcs one contiguous slice
//! of `{head, rev, residual}` records, as Cherkassky and Goldberg's HIPR
//! stores them ("On implementing push-relabel method for the maximum flow
//! problem", Algorithmica 19, 1997). Lift-to-front follows HIPR's
//! heuristics too: a global relabel at the start of each phase and again
//! after every `2·(6n + m)` units of relabel work (`n` vertices, `m`
//! residual arcs), HIPR's default interval. On a network whose every edge
//! has the same capacity both ways, it floods from whichever terminal has
//! less capacity and turns the flow around afterwards; the cut is the same
//! minimal one either way. Every cut reports the pushes, relabels and
//! global relabels its solve performed.
//!
//! Location constraints are expressed with [`graph::INFINITE`]
//! capacities: an infinite edge can never be cut, which is how pinned
//! components and non-remotable interfaces are enforced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dinic;
pub mod graph;
pub mod mincut;
pub mod multiway;
pub mod push_relabel;

pub use graph::{FlowNetwork, INFINITE};
pub use mincut::{min_cut, min_cut_invocations, MaxFlowAlgorithm};
pub use multiway::{multiway_cut, refine_assignment};
