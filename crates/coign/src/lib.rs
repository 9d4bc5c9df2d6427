//! The Coign Automatic Distributed Partitioning System.
//!
//! A reproduction of Hunt & Scott, *"The Coign Automatic Distributed
//! Partitioning System"* (OSDI '99), over the simCOM/dcom-sim substrates in
//! this workspace. Given an application built from simCOM components — in
//! modeled binary form, no source required — Coign:
//!
//! 1. **Instruments** the application binary ([`rewriter`]): the Coign
//!    runtime is inserted into the first import slot and a configuration
//!    record is appended.
//! 2. **Profiles** inter-component communication while the application runs
//!    through usage scenarios ([`runtime::profile_scenario`]): every
//!    interface call is intercepted, its DCOM deep-copy size measured
//!    ([`informer`]), and summarized online into exponential size-range
//!    buckets ([`logger`], [`profile`]).
//! 3. **Classifies** component instances so that instances observed during
//!    profiling can be recognized again in later executions
//!    ([`classifier`] — seven classifiers, the internal-function called-by
//!    classifier by default).
//! 4. **Analyzes** the profiles against a measured network cost model
//!    ([`icc`], [`analysis`]): location constraints are derived from static
//!    API imports and non-remotable interfaces, the concrete communication
//!    graph is built, and the lift-to-front minimum-cut algorithm chooses
//!    the client/server split with minimal communication time.
//! 5. **Realizes** the distribution ([`factory`], [`runtime::run_distributed`]):
//!    a lightweight runtime relocates component instantiations to their
//!    assigned machines and DCOM-style proxies carry cross-machine calls.
//!
//! Orthogonally to the profiling pipeline, [`lint`] implements `coign
//! check`: a static analysis pass over interface metadata, the constraint
//! set, and the binary image that reports remotability hazards,
//! unsatisfiable constraints, and malformed images as `COIGN0xx`
//! diagnostics — before any scenario is ever profiled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod application;
pub mod classifier;
pub mod config;
pub mod constraints;
pub mod drift;
pub mod factory;
pub mod icc;
pub mod informer;
pub mod jobs;
pub mod lint;
pub mod logger;
pub mod metrics;
pub mod multiway;
pub mod predict;
pub mod profile;
pub mod recovery;
pub mod replay;
pub mod report;
pub mod rewriter;
pub mod rte;
pub mod runtime;
pub mod serve;
pub mod sweep;

pub use analysis::{analyze, Distribution};
pub use application::Application;
pub use classifier::{ClassificationId, ClassifierKind, Descriptor, InstanceClassifier};
pub use profile::IccProfile;
pub use recovery::{RecoveryConfig, RecoveryCoordinator, RecoveryEvent, RecoveryTrigger};
pub use rte::{CoignRte, FallbackEvent};
pub use runtime::{
    run_default, run_distributed, run_distributed_faulty, run_distributed_recovering, run_raw,
    FaultReport, RecoveryRun, RunReport,
};
pub use serve::{serve, ServeOptions, ServeReport};
