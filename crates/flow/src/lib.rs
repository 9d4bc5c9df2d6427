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
//! [`graph`]. Location constraints are expressed with [`graph::INFINITE`]
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
pub use mincut::{min_cut, min_cut_invocations, min_cut_warm, MaxFlowAlgorithm};
pub use multiway::{multiway_cut, refine_assignment};
