//! DCOM-like transport simulation for the Coign reproduction.
//!
//! Coign measures inter-component communication by invoking portions of the
//! DCOM code — interface proxies and stubs — *inside the application's
//! address space*, so that profiling on one machine reports exactly the bytes
//! that would cross the wire in a distribution. This crate reproduces the
//! pieces of DCOM that Coign exercises:
//!
//! * [`marshal`] — deep-copy marshaling sizes for typed messages, including
//!   the non-remotable cases (opaque pointers) that constrain distributions.
//! * [`network`] — parameterized network cost models (10BaseT Ethernet, ISDN,
//!   ATM, SAN) with seeded stochastic jitter.
//! * [`profiler`] — the **network profiler**: statistical sampling of
//!   simulated DCOM round-trips fitted to a linear `α + β·bytes` cost model.
//! * [`transport`] — the remote-call path that charges request and reply
//!   messages to the runtime when a call crosses machines.
//! * [`faults`] — seeded fault injection (loss, latency spikes, partitions,
//!   machine death) and the retry/timeout/backoff policy at the proxy
//!   boundary.
//! * [`health`] — per-link circuit breakers (closed/open/half-open) fed by
//!   call outcomes, with deterministic probe scheduling on the simulated
//!   clock; the failure-detection half of the self-healing runtime.
//! * [`batch`] — per-link coalescing of cut-crossing messages within a
//!   scheduling window: one latency + pipelined serialization per batch,
//!   the transport discipline of the fleet-scale serving harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod faults;
pub mod health;
pub mod marshal;
pub mod network;
pub mod profiler;
pub mod transport;

pub use batch::{FlushReason, LinkBatcher};
pub use faults::{CallPolicy, Fault, FaultPlan, FaultStats, LinkSelector, TimeWindow};
pub use health::{BreakerDecision, BreakerPolicy, HealthMonitor};
pub use marshal::{message_reply_size, message_request_size, value_size};
pub use network::NetworkModel;
pub use profiler::NetworkProfile;
pub use transport::Transport;
