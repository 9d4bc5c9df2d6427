//! The fleet-scale serving harness.
//!
//! One RTE runs one scenario on one stepped clock; production Coign would
//! face millions of concurrent users whose sessions all exercise the same
//! chosen distribution. This module multiplexes that load as a parallel
//! discrete-event simulation in the style of D'Angelo's adaptive
//! self-clustering work (arXiv:1610.01295): the simulated cluster is
//! partitioned into **shards** — independently-clocked slices of the fleet,
//! each with its own server replicas, event agenda
//! ([`coign_com::EventQueue`]) and RNG stream — and events only couple at
//! cut-crossing boundaries, where per-link batching
//! ([`coign_dcom::LinkBatcher`]) coalesces messages into pipelined batches.
//!
//! Three mechanisms carry the throughput:
//!
//! 1. **Discrete-event scheduling** — sessions overlap arbitrarily, so the
//!    clock jumps between scheduled happenings instead of stepping through
//!    every call serially. Shards share nothing and merge in index order,
//!    so the summary is byte-identical for a seed across `--jobs`.
//! 2. **Per-link batching** — cut-crossing calls issued on the same link
//!    within a scheduling window travel as one batch: one latency (and one
//!    jitter draw) for the whole batch plus pipelined serialization, and —
//!    the PDES point — *one* network-arrival event per batch instead of
//!    one per message. `batching: false` models every message as an
//!    independent datagram so the win stays measurable.
//! 3. **Session pooling** — a LIFO slab of session slots: a departing
//!    session's instantiated component state is reattached to the next
//!    arrival for a small attach cost instead of paying full
//!    instantiation, and the slot's buffers are reused allocation-free.
//!
//! The workload is derived from the image's own measured [`IccProfile`]:
//! each session replays the profile's heaviest edges (in deterministic
//! order) against the chosen [`Distribution`], so the load is exactly the
//! traffic shape profiling observed, multiplied by the session count.

use crate::analysis::Distribution;
use crate::classifier::ClassificationId;
use crate::jobs::run_indexed;
use crate::multiway::ReplicaRouter;
use crate::profile::IccProfile;
use coign_com::{ComError, ComResult, EventQueue, MachineId};
use coign_dcom::batch::{FlushReason, LinkBatcher, LinkKey};
use coign_dcom::{
    BreakerDecision, BreakerPolicy, CallPolicy, FaultPlan, FaultStats, HealthMonitor, NetworkModel,
};
use coign_obs::metrics::{exponential_bounds, Histogram};
use coign_obs::timeseries::{TimeSeries, WindowCounts};
use coign_obs::trace::{TraceArg, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Base of the latency-histogram buckets (µs).
const LATENCY_BUCKET_BASE: u64 = 16;
/// Number of finite latency buckets (16 µs · 2^29 ≈ 143 minutes).
const LATENCY_BUCKET_COUNT: u32 = 30;
/// Simulated cost of instantiating a session's component working set.
const INSTANTIATE_US: u64 = 200;
/// Simulated cost of reattaching pooled component state to a new session.
const ATTACH_US: u64 = 5;
/// Simulated cost of a co-located (non-crossing) call.
const LOCAL_CALL_US: u64 = 2;
/// Modeled size of a reply/ack message, bytes.
const REPLY_BYTES: u64 = 64;
/// Largest `window_us` and `arrival_spacing_us` a run accepts: 2³⁰ µs,
/// about 17.9 simulated minutes. With at most `u32::MAX` sessions per
/// shard the arrival schedule then ends before 2⁶³ µs, which leaves the
/// other half of the `u64` clock for the sessions' calls.
const MAX_SPAN_US: u64 = 1 << 30;

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Total simulated sessions across all shards.
    pub sessions: u64,
    /// Number of independently-clocked shards. The summary depends on it
    /// (each shard is its own slice of the fleet), unlike `jobs`.
    pub shards: usize,
    /// Worker threads executing shards (the summary does not depend on it).
    pub jobs: usize,
    /// Master seed; shard `i` derives its RNG stream from `seed` and `i`.
    pub seed: u64,
    /// Batch cut-crossing messages per link (`false` = `--no-batch`).
    pub batching: bool,
    /// Coalescing window for an open batch, simulated µs.
    pub window_us: u64,
    /// Mean spacing between session arrivals within a shard, µs.
    pub arrival_spacing_us: u64,
    /// Cap on the per-session call script (heaviest profile edges win).
    pub script_cap: usize,
    /// Timeline telemetry window width, simulated µs (`0` = no timeline —
    /// the default, which keeps the hot path free of recording entirely).
    pub timeline_window_us: u64,
    /// Causal-tracing sample rate: every Nth session (by fleet-global id)
    /// emits `session`/`call`/`batch_wait`/`link_transit` spans when a
    /// tracer is supplied to [`serve_traced`] (`0` = no session tracing).
    pub trace_sample: u64,
    /// Scheduled faults injected on the simulated clock. An empty plan
    /// constructs no fault state at all, so the run is byte-identical to
    /// a build without the fault layer.
    pub faults: FaultPlan,
    /// Timeout/retry/backoff policy crossing calls follow when `faults`
    /// is non-empty.
    pub policy: CallPolicy,
    /// Replica routing table for failover: when a machine is declared
    /// dead, calls targeting it re-resolve to a surviving copy in O(1)
    /// instead of failing. `None` = no replicas (degraded mode only).
    pub replicas: Option<ReplicaRouter>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            sessions: 10_000,
            shards: 4,
            jobs: 1,
            seed: 0,
            batching: true,
            window_us: 150,
            arrival_spacing_us: 100,
            script_cap: 48,
            timeline_window_us: 0,
            trace_sample: 0,
            faults: FaultPlan::none(),
            policy: CallPolicy::default(),
            replicas: None,
        }
    }
}

/// One call in the per-session script.
#[derive(Debug, Clone, Copy)]
struct CallSpec {
    /// `Some(link)` when the call crosses the cut; `None` when co-located.
    link: Option<LinkKey>,
    /// Marshaled request size, bytes.
    request_bytes: u64,
    /// Simulated server compute charged per call, µs.
    compute_us: u64,
    /// Callee classification (raw id), for timeline compute attribution.
    to_class: u32,
}

/// Builds the session script: the profile's heaviest `script_cap` edges in
/// deterministic (traffic-desc, key-asc) order, each realized against the
/// distribution as a crossing or co-located call.
fn build_script(
    profile: &IccProfile,
    distribution: &Distribution,
    script_cap: usize,
) -> Vec<CallSpec> {
    let mut edges: Vec<_> = profile.edges.iter().collect();
    edges.sort_by(|(ka, sa), (kb, sb)| sb.messages.cmp(&sa.messages).then(ka.cmp(kb)));
    edges.truncate(script_cap.max(1));
    // Replay in key order so the script walks the app's call structure, not
    // the traffic ranking.
    edges.sort_by_key(|(ka, _)| *ka);
    edges
        .into_iter()
        .map(|(key, stats)| {
            let from = distribution.machine_of(key.from);
            let to = distribution.machine_of(key.to);
            let avg_bytes = stats.bytes / stats.messages.max(1);
            CallSpec {
                link: (from != to).then_some((from, to)),
                request_bytes: avg_bytes,
                compute_us: 5 + avg_bytes / 2048,
                to_class: key.to.0,
            }
        })
        .collect()
}

/// Per-session live state, pooled in the shard's slab.
#[derive(Debug, Clone, Copy, Default)]
struct SessionState {
    /// Arrival instant (for the end-to-end latency observation).
    arrival_us: u64,
    /// Instant the session's in-flight remote call was issued (trace
    /// context: lets the flush/deliver event reconstruct the call span).
    issued_us: u64,
    /// Next index into the shared call script.
    next_call: u32,
    /// Slot in the shard's session pool.
    slot: u32,
    /// Failed attempts on the current scripted call (fault runs only;
    /// always 0 when the plan is empty).
    attempts: u32,
}

impl SessionState {
    /// Moves the script cursor past the current call, however it ended
    /// (reply, replica, refusal, or retries exhausted).
    fn advance(&mut self) {
        self.next_call += 1;
        self.attempts = 0;
    }
}

/// Shard event payloads. `u32` session ids are shard-local.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A session arrives and acquires a pool slot.
    Arrive(u32),
    /// A session issues its next scripted call.
    Issue(u32),
    /// An open batch on a link flushes (batching mode only). `gated` is
    /// true when the flush was held past its window for the link to free.
    Flush { link: LinkKey, gated: bool },
    /// An unbatched request datagram reaches the server (unbatched mode).
    /// Fields inline, not a struct of their own: the variant then packs
    /// beside the tag and the event stays 24 bytes instead of 32.
    Deliver {
        session: u32,
        compute_us: u64,
        server: MachineId,
        to_class: u32,
    },
}

// The agenda sifts events by value; 32 bytes cost ~4% of a serving round.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Per-shard fault-layer runtime, constructed only when the run carries a
/// non-empty [`FaultPlan`]. Each shard owns its own copy (share-nothing):
/// a dedicated fault RNG stream (never the jitter stream — transparency),
/// a circuit-breaker monitor that declares machines dead deterministically,
/// the shard's view of the dead set, and a replica router for O(1)
/// failover.
struct FaultRt {
    plan: FaultPlan,
    policy: CallPolicy,
    /// Dedicated fault stream: loss draws and backoff jitter only. The
    /// shard's jitter RNG is untouched by the fault layer.
    rng: StdRng,
    health: HealthMonitor,
    router: Option<ReplicaRouter>,
    /// Machines this shard's breakers have declared dead.
    dead: BTreeSet<MachineId>,
    /// The shard's slice of the public fault report, counted in place.
    out: ServeFaultReport,
}

impl FaultRt {
    /// Routes a call whose home machine is dead: `Some(machine)` names the
    /// surviving copy (possibly the caller's own machine), `None` means no
    /// copy survives and the call is refused.
    fn route(&self, to_class: u32, caller: MachineId) -> Option<MachineId> {
        self.router
            .as_ref()?
            .route(ClassificationId(to_class), caller, &self.dead)
    }

    /// Declares `machine` dead at `now_us`: one new recovery epoch, replica
    /// failover re-pointing every classification homed there to a surviving
    /// copy, and a `failover` trace instant. Returns false when the machine
    /// was already dead.
    fn declare_dead(&mut self, machine: MachineId, now_us: u64, trace: Option<&Tracer>) -> bool {
        if !self.dead.insert(machine) {
            return false;
        }
        self.out.dead_machines.push(machine.0);
        self.out.recovery_epochs.push(now_us);
        let mut rehomed = 0u64;
        if let Some(router) = self.router.as_mut() {
            let failover = router.drop_machine(machine);
            rehomed = failover.rehomed.len() as u64;
        }
        self.out.failovers += rehomed;
        if let Some(tr) = trace {
            tr.instant_at(
                "failover",
                now_us,
                vec![
                    ("machine", TraceArg::U64(u64::from(machine.0))),
                    ("rehomed", TraceArg::U64(rehomed)),
                    (
                        "epoch",
                        TraceArg::U64(self.out.recovery_epochs.len() as u64),
                    ),
                ],
            );
        }
        true
    }
}

/// The merged fault-layer outcome of a faulted serving run. `None` on
/// [`ServeReport`] when the plan was empty — the summary then renders the
/// exact pre-fault bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeFaultReport {
    /// Transport-level fault counters summed across shards.
    pub stats: FaultStats,
    /// Classifications re-pointed at surviving replicas at death instants.
    pub failovers: u64,
    /// Calls served by a surviving replica instead of their dead home.
    pub replica_served: u64,
    /// Recovery-epoch instants (machine-death declarations), sorted
    /// across shards.
    pub recovery_epochs: Vec<u64>,
    /// Machines declared dead by at least one shard, sorted unique.
    pub dead_machines: Vec<u16>,
}

impl ServeFaultReport {
    /// Fraction of scripted calls that completed (did not fail or get
    /// refused), given the report's total call count.
    pub fn availability(&self, calls: u64) -> f64 {
        if calls == 0 {
            return 1.0;
        }
        (calls - self.stats.failed_calls.min(calls)) as f64 / calls as f64
    }
}

/// The merged, deterministic result of a serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Sessions completed (all of them — the harness runs to drain).
    pub sessions: u64,
    /// Shards simulated.
    pub shards: usize,
    /// Scripted calls executed across all sessions.
    pub calls: u64,
    /// Calls that stayed co-located under the distribution.
    pub local_calls: u64,
    /// Cut-crossing request messages sent.
    pub remote_messages: u64,
    /// Batches flushed (equals `remote_messages` when batching is off).
    pub batches: u64,
    /// Total marshaled bytes across batched requests.
    pub batched_bytes: u64,
    /// Batches whose coalescing window expired before the link freed.
    /// Diagnostic only — never rendered in [`ServeReport::summary`], whose
    /// bytes are pinned by golden tests.
    pub window_flushes: u64,
    /// Batches held open past their window until the link freed up.
    /// Diagnostic only, like `window_flushes`.
    pub link_free_flushes: u64,
    /// Sessions that reused pooled component state.
    pub pool_hits: u64,
    /// Sessions that paid full instantiation (= peak pool size summed
    /// over shards).
    pub pool_misses: u64,
    /// Simulated horizon: the latest shard-local instant, µs.
    pub horizon_us: u64,
    /// End-to-end session latency distribution (simulated µs), merged
    /// across shards.
    pub latency: Histogram,
    /// Whether batching was enabled.
    pub batching: bool,
    /// Session count the caller asked for (sanity echo).
    pub requested_sessions: u64,
    /// Fault-layer outcome; `None` when the run carried no fault plan.
    pub faults: Option<ServeFaultReport>,
}

impl ServeReport {
    /// The report of a run that has not served anything yet.
    fn empty(shards: usize, opts: &ServeOptions) -> Self {
        ServeReport {
            sessions: 0,
            shards,
            calls: 0,
            local_calls: 0,
            remote_messages: 0,
            batches: 0,
            batched_bytes: 0,
            window_flushes: 0,
            link_free_flushes: 0,
            pool_hits: 0,
            pool_misses: 0,
            horizon_us: 0,
            latency: Histogram::with_bounds(latency_bounds()),
            batching: opts.batching,
            requested_sessions: opts.sessions,
            faults: None,
        }
    }

    /// Folds one shard's slice into the fleet report.
    fn absorb(&mut self, slice: ServeReport) {
        self.sessions += slice.sessions;
        self.calls += slice.calls;
        self.local_calls += slice.local_calls;
        self.remote_messages += slice.remote_messages;
        self.batches += slice.batches;
        self.batched_bytes += slice.batched_bytes;
        self.window_flushes += slice.window_flushes;
        self.link_free_flushes += slice.link_free_flushes;
        self.pool_hits += slice.pool_hits;
        self.pool_misses += slice.pool_misses;
        self.horizon_us = self.horizon_us.max(slice.horizon_us);
        self.latency.merge_from(&slice.latency);
        if let Some(sf) = slice.faults {
            let agg = self.faults.get_or_insert_with(ServeFaultReport::default);
            agg.stats.absorb(&sf.stats);
            agg.failovers += sf.failovers;
            agg.replica_served += sf.replica_served;
            agg.recovery_epochs.extend(sf.recovery_epochs);
            agg.dead_machines.extend(sf.dead_machines);
        }
    }

    /// Mean messages per flushed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.remote_messages as f64 / self.batches as f64
        }
    }

    /// Simulated session throughput: sessions per simulated second.
    pub fn sessions_per_sim_sec(&self) -> f64 {
        self.sessions as f64 / (self.horizon_us.max(1) as f64 / 1e6)
    }

    /// Simulated call throughput: calls per simulated second.
    pub fn calls_per_sim_sec(&self) -> f64 {
        self.calls as f64 / (self.horizon_us.max(1) as f64 / 1e6)
    }

    /// Latency quantile in simulated µs (interpolated; see
    /// [`Histogram::quantile`]).
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        self.latency.quantile(q)
    }

    /// Renders the deterministic summary (the bytes golden tests and the
    /// ci smoke diff pin). Wall-clock numbers never appear here — they
    /// belong to the benchmark.
    pub fn summary(&self, json: bool) -> String {
        let (p50, p95, p99) = (
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.95),
            self.latency_quantile_us(0.99),
        );
        let mut out = if json {
            format!(
                "{{\"sessions\":{},\"shards\":{},\"calls\":{},\"local_calls\":{},\
                 \"remote_messages\":{},\"batches\":{},\"batched_bytes\":{},\
                 \"mean_batch_size\":{:.2},\"pool_hits\":{},\"pool_misses\":{},\
                 \"horizon_ms\":{:.3},\"sim_sessions_per_sec\":{:.1},\
                 \"sim_calls_per_sec\":{:.1},\"latency_us\":{{\"p50\":{:.1},\
                 \"p95\":{:.1},\"p99\":{:.1}}},\"batching\":{}}}\n",
                self.sessions,
                self.shards,
                self.calls,
                self.local_calls,
                self.remote_messages,
                self.batches,
                self.batched_bytes,
                self.mean_batch_size(),
                self.pool_hits,
                self.pool_misses,
                self.horizon_us as f64 / 1000.0,
                self.sessions_per_sim_sec(),
                self.calls_per_sim_sec(),
                p50,
                p95,
                p99,
                self.batching,
            )
        } else {
            format!(
                "served {} session(s) over {} shard(s): {} calls ({} local, {} crossing)\n\
                 batching={} batches={} mean_batch={:.2} batched_bytes={}\n\
                 pool: {} hit(s), {} miss(es)\n\
                 horizon {:.3} ms simulated; {:.1} sessions/s, {:.1} calls/s (simulated)\n\
                 latency p50={:.1}us p95={:.1}us p99={:.1}us\n",
                self.sessions,
                self.shards,
                self.calls,
                self.local_calls,
                self.remote_messages,
                if self.batching { "on" } else { "off" },
                self.batches,
                self.mean_batch_size(),
                self.batched_bytes,
                self.pool_hits,
                self.pool_misses,
                self.horizon_us as f64 / 1000.0,
                self.sessions_per_sim_sec(),
                self.calls_per_sim_sec(),
                p50,
                p95,
                p99,
            )
        };
        // Fault lines are appended only for faulted runs, so the bytes
        // above stay pinned to the pre-fault golden output.
        if let Some(f) = &self.faults {
            let dead = f
                .dead_machines
                .iter()
                .map(u16::to_string)
                .collect::<Vec<_>>()
                .join(",");
            if json {
                out.truncate(out.len() - 2); // re-open the object: drop "}\n"
                out.push_str(&format!(
                    ",\"faults\":{{\"timeouts\":{},\"retries\":{},\"drops\":{},\
                     \"failed_calls\":{},\"refused\":{},\"wasted_us\":{},\
                     \"availability\":{:.6},\"failovers\":{},\"replica_served\":{},\
                     \"recovery_epochs\":{},\"dead\":[{}]}}}}\n",
                    f.stats.timeouts,
                    f.stats.retries,
                    f.stats.drops,
                    f.stats.failed_calls,
                    f.stats.machine_down_errors,
                    f.stats.wasted_us,
                    f.availability(self.calls),
                    f.failovers,
                    f.replica_served,
                    f.recovery_epochs.len(),
                    dead,
                ));
            } else {
                out.push_str(&format!(
                    "faults: {} timeout(s), {} retry(ies), {} drop(s), {} failed call(s), {} refused; availability {:.4}\n\
                     failover: {} replica-served call(s), {} rehomed classification(s), dead=[{}]\n",
                    f.stats.timeouts,
                    f.stats.retries,
                    f.stats.drops,
                    f.stats.failed_calls,
                    f.stats.machine_down_errors,
                    f.availability(self.calls),
                    f.replica_served,
                    f.failovers,
                    dead,
                ));
                match f.recovery_epochs.first() {
                    Some(first) => out.push_str(&format!(
                        "recovery: {} epoch(s), first at {}us\n",
                        f.recovery_epochs.len(),
                        first,
                    )),
                    None => out.push_str("recovery: 0 epoch(s)\n"),
                }
            }
        }
        out
    }
}

/// Bucket bounds shared by every latency histogram (report and timeline).
fn latency_bounds() -> Vec<u64> {
    exponential_bounds(LATENCY_BUCKET_BASE, LATENCY_BUCKET_COUNT)
}

/// Serialization-only component of a one-way send (framing included).
fn ser_us(net: &NetworkModel, bytes: u64) -> f64 {
    (net.mean_time_us(bytes) - net.latency_us).max(0.0)
}

/// Payload-only serialization time: what a message adds to a batch it
/// joins, beyond the per-datagram overhead the batch already paid.
fn payload_us(net: &NetworkModel, bytes: u64) -> f64 {
    (ser_us(net, bytes) - ser_us(net, 0)).max(0.0)
}

/// Index of a link's transmit-clock slot, growing the table on first sight.
fn link_slot(link_free: &mut Vec<(LinkKey, u64)>, link: LinkKey) -> usize {
    match link_free.iter().position(|(k, _)| *k == link) {
        Some(i) => i,
        None => {
            link_free.push((link, 0));
            link_free.len() - 1
        }
    }
}

/// Calls an inline run executed before it left the event handler: staged
/// into the timeline as one block for the run's start window.
#[derive(Debug, Clone, Copy, Default)]
struct InlineRun {
    calls: u64,
    locals: u64,
}

/// The shard's timeline stage. Counters for the current event-time window
/// are staged here and folded into the recorder once per window crossing;
/// event pop time is monotone, so the stage flushes exactly once per
/// window. Observation-only: nothing here touches an RNG stream or the
/// schedule, so a telemetry-on run replays the exact event sequence of a
/// telemetry-off run.
struct Telemetry {
    series: TimeSeries,
    window_us: u64,
    acc: WindowCounts,
    acc_at: u64,
    acc_end: u64,
    pops: u64,
    /// Scratch reused across flushes: per-batch compute charged to the
    /// recorder in one hook call per distinct class instead of one per
    /// member. Class ids are dense (classification indices), so a
    /// direct-indexed accumulator plus a touched list keeps the per-member
    /// cost at two adds.
    class_us: Vec<u64>,
    class_touched: Vec<u32>,
}

impl Telemetry {
    /// Accounts one event pop at `now` with `depth` events still queued.
    fn on_pop(&mut self, now: u64, depth: usize) {
        if now >= self.acc_end {
            if self.acc_end > 0 {
                self.series.add_counts(self.acc_at, &self.acc);
                self.acc = WindowCounts::default();
            }
            self.acc_at = now;
            self.acc_end = (now / self.window_us + 1) * self.window_us;
        }
        // Sampled every 64 pops: the depth series is a per-window peak
        // estimate, and a fixed stride keeps it deterministic while staying
        // off the hot path.
        self.pops = self.pops.wrapping_add(1);
        if self.pops & 63 == 0 {
            self.acc.queue_depth_peak = self.acc.queue_depth_peak.max(depth as u64);
        }
    }

    /// Stages a whole inline run for the run's start window.
    fn stage_run(&mut self, run: InlineRun) {
        self.acc.calls += run.calls;
        self.acc.local_calls += run.locals;
        self.acc.remote_messages += run.calls - run.locals;
    }

    /// Folds the last staged window (`on_pop` only flushes on a crossing).
    fn finish(mut self) -> TimeSeries {
        if self.acc_end > 0 {
            self.series.add_counts(self.acc_at, &self.acc);
        }
        self.series
    }
}

/// The shard's sampled causal tracer. Sessions are sampled by fleet-global
/// id, so the sampled set is independent of the shard split; spans buffer
/// in a child tracer, merged back in shard order for byte identity.
struct SessionTrace {
    tracer: Tracer,
    /// Precomputed per shard-local session: the check runs once per batch
    /// member, and a table lookup beats a 64-bit modulo on that path.
    sampled: Vec<bool>,
    base_session: u64,
    /// Flow id tying a batch's members to the batch span: shard index in
    /// the high bits (globally unique), shard-local sequence below.
    next_flow: u64,
}

impl SessionTrace {
    /// The fleet-global id of shard-local session `s`, if it is sampled.
    fn sampled_gid(&self, s: u32) -> Option<u64> {
        self.sampled[s as usize].then(|| self.base_session + u64::from(s))
    }

    /// One complete span of session `gid`, tagged with at most one more
    /// argument (`flow` for batch members, `calls` for the session span).
    fn span(
        &self,
        gid: u64,
        name: impl Into<Cow<'static, str>>,
        at_us: u64,
        dur_us: u64,
        extra: Option<(&'static str, u64)>,
    ) {
        let mut args = vec![("session", TraceArg::U64(gid))];
        args.extend(extra.map(|(key, value)| (key, TraceArg::U64(value))));
        self.tracer.complete_at(name, at_us, dur_us, args);
    }
}

/// Where a scripted call executes once the fault layer has had its say.
enum Route {
    /// In the caller's process; `compute_us` is nonzero when a replica on
    /// the caller's machine serves a call whose home is dead.
    Local { compute_us: u64 },
    /// Across the cut on this link (the home, or a surviving replica).
    Remote(LinkKey),
    /// The home is dead and no copy survives anywhere.
    Refused,
}

/// One shard: a logical process in the PDES sense — all of its state, one
/// handler per [`Event`] kind, and a loop that pops and dispatches.
/// Everything here is single-threaded and seeded, so a shard's report
/// depends only on (profile, distribution, network, options, shard index).
struct Shard<'a> {
    script: &'a [CallSpec],
    net: &'a NetworkModel,
    /// Network-jitter draws (and the arrival schedule) only.
    rng: StdRng,
    /// Think times are drawn tens of millions of times per run — they get a
    /// dedicated splitmix64 stream instead of the (much slower) `rng`.
    think_state: u64,
    queue: EventQueue<Event>,
    batcher: LinkBatcher<u32>,
    sessions: Vec<SessionState>,
    /// The session pool: a LIFO free list of instantiated slots. Slots are
    /// only ever created on a miss, so `report.pool_misses` ends as the peak
    /// number of concurrently-live sessions — exactly the state a serving
    /// process would keep resident.
    free_slots: Vec<u32>,
    /// Per-machine server clocks: requests queue FIFO at their target
    /// machine, so a loaded replica pushes its backlog's completion out —
    /// the source of the tail in p95/p99.
    machine_now: Vec<u64>,
    /// Per-link transmit clocks: a link is a serial resource, and both the
    /// batched and the unbatched path queue their serialization time on it.
    /// A handful of links at most, so a scanned vec beats a hash map.
    link_free: Vec<(LinkKey, u64)>,
    /// The shard's slice of the run's report, counted in place.
    report: ServeReport,
    /// The fault layer exists only when the plan schedules something: a
    /// zero-fault run constructs none of this state, touches no extra RNG
    /// stream, and replays the exact pre-fault event sequence.
    fault: Option<FaultRt>,
    telem: Option<Telemetry>,
    trace: Option<SessionTrace>,
}

impl<'a> Shard<'a> {
    /// Builds shard `index` with its arrivals scheduled.
    fn new(
        script: &'a [CallSpec],
        net: &'a NetworkModel,
        opts: &ServeOptions,
        index: usize,
        shard_sessions: u64,
        base_session: u64,
        tracer: Option<&Tracer>,
    ) -> Self {
        let shard_seed = opts.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fault = (!opts.faults.is_empty()).then(|| FaultRt {
            plan: opts.faults.clone(),
            policy: opts.policy,
            rng: StdRng::seed_from_u64(shard_seed ^ 0x5DEE_CE66_D154_21A5),
            health: HealthMonitor::new(BreakerPolicy::default()),
            router: opts.replicas.clone(),
            dead: BTreeSet::new(),
            out: ServeFaultReport::default(),
        });
        let telem = (opts.timeline_window_us > 0).then(|| {
            let mut series = TimeSeries::new(opts.timeline_window_us, latency_bounds());
            if fault.is_some() {
                series.mark_faulted();
            }
            let max_class = script.iter().map(|c| c.to_class).max().unwrap_or(0) as usize;
            Telemetry {
                series,
                window_us: opts.timeline_window_us,
                acc: WindowCounts::default(),
                acc_at: 0,
                acc_end: 0,
                pops: 0,
                class_us: vec![0; max_class + 1],
                class_touched: Vec::new(),
            }
        });
        let trace = match tracer {
            Some(t) if t.is_enabled() && opts.trace_sample > 0 => Some(SessionTrace {
                tracer: t.child(),
                sampled: (0..shard_sessions)
                    .map(|s| (base_session + s).is_multiple_of(opts.trace_sample))
                    .collect(),
                base_session,
                next_flow: (index as u64) << 40,
            }),
            _ => None,
        };
        let mut shard = Shard {
            script,
            net,
            rng: StdRng::seed_from_u64(shard_seed),
            think_state: shard_seed ^ 0xA076_1D64_78BD_642F,
            queue: EventQueue::with_capacity(shard_sessions as usize + 64),
            batcher: LinkBatcher::new(opts.window_us),
            sessions: vec![SessionState::default(); shard_sessions as usize],
            free_slots: Vec::new(),
            machine_now: Vec::new(),
            link_free: Vec::new(),
            report: ServeReport::empty(1, opts),
            fault,
            telem,
            trace,
        };
        shard.report.sessions = shard_sessions;
        let spacing = opts.arrival_spacing_us.max(1);
        let mut arrival = 0u64;
        for s in 0..shard_sessions {
            shard.queue.schedule(arrival, Event::Arrive(s as u32));
            arrival += shard.rng.gen_range(1..=spacing * 2);
        }
        shard
    }

    /// Runs the shard to drain: its report slice, its timeline slice when
    /// telemetry is on, and its buffered spans when session tracing is on.
    fn run(mut self) -> (ServeReport, Option<TimeSeries>, Option<Tracer>) {
        while let Some((now, event)) = self.queue.pop() {
            if let Some(tm) = self.telem.as_mut() {
                tm.on_pop(now, self.queue.len());
            }
            match event {
                Event::Arrive(s) => self.on_arrive(now, s),
                Event::Issue(s) => self.on_issue(now, s),
                Event::Flush { link, gated } => self.on_flush(now, link, gated),
                Event::Deliver {
                    session,
                    compute_us,
                    server,
                    to_class,
                } => self.on_deliver(now, session, compute_us, server, to_class),
            }
        }
        self.finish()
    }

    /// Closes the drained shard's books.
    fn finish(self) -> (ServeReport, Option<TimeSeries>, Option<Tracer>) {
        debug_assert_eq!(self.report.latency.count(), self.report.sessions);
        let stats = self.batcher.stats();
        let mut report = self.report;
        report.batches += stats.batches;
        report.batched_bytes += stats.bytes;
        report.window_flushes = stats.window_flushes;
        report.link_free_flushes = stats.link_free_flushes;
        // The horizon also covers inline local-call runs that never
        // re-entered the agenda.
        report.horizon_us = report.horizon_us.max(self.queue.now_us());
        report.faults = self.fault.map(|f| f.out);
        (
            report,
            self.telem.map(Telemetry::finish),
            self.trace.map(|t| t.tracer),
        )
    }

    /// `Arrive`: the session takes a pooled slot (or instantiates one) and
    /// schedules its first `Issue`.
    fn on_arrive(&mut self, now: u64, s: u32) {
        let (slot, cost, miss) = match self.free_slots.pop() {
            Some(slot) => {
                self.report.pool_hits += 1;
                (slot, ATTACH_US, false)
            }
            None => {
                let slot = self.report.pool_misses as u32;
                self.report.pool_misses += 1;
                (slot, INSTANTIATE_US, true)
            }
        };
        self.sessions[s as usize] = SessionState {
            arrival_us: now,
            issued_us: 0,
            next_call: 0,
            slot,
            attempts: 0,
        };
        if let Some(tm) = self.telem.as_mut() {
            // Live sessions = every slot ever created minus the ones sitting
            // on the free list (the slot just popped/created is live by now).
            tm.acc.arrivals += 1;
            tm.acc.pool_misses += u64::from(miss);
            tm.acc.pool_live_peak = tm
                .acc
                .pool_live_peak
                .max(self.report.pool_misses - self.free_slots.len() as u64);
        }
        self.queue.schedule(now + cost, Event::Issue(s));
    }

    /// `Issue`: the session runs its script from the cursor. Lookahead: a
    /// run of co-located calls never touches the network or another
    /// session's state, so it is executed inline on a local time cursor
    /// instead of round-tripping every call through the agenda. The
    /// agenda only sees the next cut-crossing call (handed to `send`, which
    /// schedules a `Flush`, a `Deliver`, or a retry `Issue`) or the
    /// session's completion.
    fn on_issue(&mut self, now: u64, s: u32) {
        let mut t = now;
        let mut run = InlineRun::default();
        loop {
            let idx = self.sessions[s as usize].next_call as usize;
            let Some(&call) = self.script.get(idx) else {
                self.complete(s, t, run);
                return;
            };
            // Retries re-enter this handler for the same script slot; only
            // the first attempt counts as a scripted call.
            let first_attempt = self.sessions[s as usize].attempts == 0;
            if first_attempt {
                self.report.calls += 1;
            }
            match self.route(&call) {
                Route::Local { compute_us } => {
                    self.report.local_calls += 1;
                    run.calls += 1;
                    run.locals += 1;
                    self.sessions[s as usize].advance();
                    t += LOCAL_CALL_US + compute_us + think_us(&mut self.think_state);
                }
                Route::Refused => {
                    // The call is refused and the session moves on degraded.
                    if let Some(f) = self.fault.as_mut() {
                        f.out.stats.machine_down_errors += 1;
                        f.out.stats.failed_calls += 1;
                    }
                    if let Some(tm) = self.telem.as_mut() {
                        tm.acc.degraded += 1;
                    }
                    self.sessions[s as usize].advance();
                    t += think_us(&mut self.think_state);
                }
                Route::Remote(link) => {
                    run.calls += u64::from(first_attempt);
                    self.send(s, call, link, t, run, first_attempt);
                    return;
                }
            }
        }
    }

    /// Fault-aware resolution of a scripted call: a call homed on a dead
    /// machine re-resolves to a surviving replica in O(1) — possibly on the
    /// caller's own machine, where the crossing call degrades to a local
    /// one with its compute running in-process — or is refused when no copy
    /// survives.
    fn route(&mut self, call: &CallSpec) -> Route {
        let Some(link) = call.link else {
            return Route::Local { compute_us: 0 };
        };
        let Some(f) = self.fault.as_mut() else {
            return Route::Remote(link);
        };
        if !f.dead.contains(&link.1) {
            return Route::Remote(link);
        }
        let Some(target) = f.route(call.to_class, link.0) else {
            return Route::Refused;
        };
        f.out.replica_served += 1;
        if let Some(tm) = self.telem.as_mut() {
            tm.acc.replica_served += 1;
        }
        if target == link.0 {
            Route::Local {
                compute_us: call.compute_us,
            }
        } else {
            Route::Remote((link.0, target))
        }
    }

    /// The session's script is exhausted at `t`: observe end-to-end
    /// latency and recycle the slot.
    fn complete(&mut self, s: u32, t: u64, run: InlineRun) {
        let state = self.sessions[s as usize];
        let lat_us = t - state.arrival_us;
        self.report.latency.observe(lat_us);
        if let Some(tm) = self.telem.as_mut() {
            tm.stage_run(run);
            tm.series.on_completion(t, lat_us);
        }
        if let Some(tr) = &self.trace {
            if let Some(gid) = tr.sampled_gid(s) {
                let calls = ("calls", self.script.len() as u64);
                tr.span(
                    gid,
                    format!("session:{gid}"),
                    state.arrival_us,
                    lat_us,
                    Some(calls),
                );
            }
        }
        self.free_slots.push(state.slot);
        self.report.horizon_us = self.report.horizon_us.max(t);
    }

    /// Puts session `s`'s crossing call on `link` at `t`, ending the inline
    /// run: into the link's open batch (scheduling its `Flush` when it
    /// opens one), or — unbatched — straight onto the wire as a datagram
    /// of its own (scheduling its `Deliver`). A breaker fast-fail or a
    /// failed datagram goes to the retry policy instead.
    fn send(
        &mut self,
        s: u32,
        call: CallSpec,
        link: LinkKey,
        t: u64,
        run: InlineRun,
        first_attempt: bool,
    ) {
        self.report.remote_messages += 1;
        self.sessions[s as usize].issued_us = t;
        if let Some(tm) = self.telem.as_mut() {
            // The whole inline run — its local calls plus this crossing
            // call; a retry is a physical re-send of a call already counted.
            tm.stage_run(run);
            tm.acc.remote_messages += u64::from(!first_attempt);
        }
        // Breaker fast path: an open link refuses the attempt immediately,
        // replaying the error that tripped it (no timeout charged).
        if let Some(f) = self.fault.as_mut() {
            if let BreakerDecision::FastFail(err) = f.health.check(link.0, link.1, t) {
                if matches!(err, ComError::MachineDown(_)) {
                    f.out.stats.machine_down_errors += 1;
                } else {
                    f.out.stats.timeouts += 1;
                }
                self.retry(s, t, 0);
                return;
            }
        }
        if self.report.batching {
            if let Some(flush_at) = self.batcher.enqueue(link, call.request_bytes, s, t) {
                // Nagle-style coalescing: while the link is still
                // transmitting, keep the batch open — it flushes when the
                // window closes or the link frees up, whichever is later.
                // Under load batches grow to match the link's drain rate.
                let li = link_slot(&mut self.link_free, link);
                let free_at = self.link_free[li].1;
                let gated = free_at > flush_at;
                self.queue
                    .schedule(flush_at.max(free_at), Event::Flush { link, gated });
            }
            return;
        }
        // Unbatched datagrams meet the wire at send time.
        if let Some(err) = self.wire_failure(link, t, "datagram") {
            self.fail_on_wire(link, t, &err, &[s]);
            return;
        }
        // Independent datagram: it occupies the link for its payload plus a
        // full per-datagram overhead, and pays its own latency draw.
        self.report.batches += 1;
        self.report.batched_bytes += call.request_bytes;
        let li = link_slot(&mut self.link_free, link);
        let depart = t.max(self.link_free[li].1);
        let xfer = ser_us(self.net, call.request_bytes);
        self.link_free[li].1 = depart + xfer as u64;
        let mut lat = self.net.sample_time_us(0, &mut self.rng) - ser_us(self.net, 0);
        if let Some(f) = self.fault.as_mut() {
            lat *= f.plan.latency_factor(link.0, link.1, depart);
            let _ = f.health.on_success(link.0, link.1);
        }
        if let Some(tm) = self.telem.as_mut() {
            tm.series.on_batch_flush(depart, 1);
            tm.series
                .on_link_busy(depart, (link.0 .0, link.1 .0), xfer as u64);
        }
        if let Some(tr) = &self.trace {
            if let Some(gid) = tr.sampled_gid(s) {
                tr.span(gid, "link_transit", depart, (xfer + lat) as u64, None);
            }
        }
        self.queue.schedule(
            depart + (xfer + lat) as u64,
            Event::Deliver {
                session: s,
                compute_us: call.compute_us,
                server: link.1,
                to_class: call.to_class,
            },
        );
    }

    /// The faulted wire's say on one datagram (`unit` names it: a lone
    /// message, or a whole batch — a batch is one datagram) crossing `link`
    /// at `now`: the shared wire verdict with this shard's dead set, then
    /// the plan's loss draw. `None` on a clean wire or a zero-fault run.
    fn wire_failure(&mut self, link: LinkKey, now: u64, unit: &str) -> Option<ComError> {
        let f = self.fault.as_mut()?;
        if let Some(err) = f.plan.wire_verdict(link.0, link.1, now, &f.dead) {
            return Some(err);
        }
        let p = f.plan.loss_probability(link.0, link.1, now);
        (p > 0.0 && f.rng.gen_bool(p)).then(|| {
            f.out.stats.drops += 1;
            ComError::Timeout {
                detail: format!("{}→{} {unit} lost", link.0 .0, link.1 .0),
            }
        })
    }

    /// One datagram failed on `link` with `err`: one wire event is one
    /// breaker observation however many members it carried, machines the
    /// breaker opens are declared dead, and every member's attempt times
    /// out into the retry policy.
    fn fail_on_wire(&mut self, link: LinkKey, now: u64, err: &ComError, members: &[u32]) {
        let Some(f) = self.fault.as_mut() else {
            return;
        };
        let _ = f.health.on_failure(link.0, link.1, err, now);
        for machine in f.health.drain_opened_machines() {
            if f.declare_dead(machine, now, self.trace.as_ref().map(|t| &t.tracer)) {
                if let Some(tm) = self.telem.as_mut() {
                    tm.acc.recoveries += 1;
                }
            }
        }
        f.out.stats.timeouts += members.len() as u64;
        let wait_us = f.policy.timeout_us;
        for &s in members {
            self.retry(s, now, wait_us);
        }
    }

    /// One failed attempt of session `s`'s current call under the call
    /// policy: charges `wait_us` (the timeout that exposed the failure; 0
    /// for a breaker fast-fail), then re-issues after a jittered backoff
    /// or — the policy exhausted — skips the call, counted failed, so the
    /// session still drains degraded.
    fn retry(&mut self, s: u32, now: u64, wait_us: u64) {
        let Some(f) = self.fault.as_mut() else {
            return;
        };
        let state = &mut self.sessions[s as usize];
        state.attempts += 1;
        let mut delay_us = wait_us;
        match f.policy.retry_after(state.attempts) {
            Some(base_us) => {
                f.out.stats.retries += 1;
                // The DES's own jitter arithmetic (always one draw,
                // truncated) — pinned bytes; see DESIGN.md.
                let jitter = 1.0 + f.policy.backoff_jitter * f.rng.gen_range(-1.0f64..=1.0);
                delay_us += (base_us as f64 * jitter) as u64;
            }
            None => {
                f.out.stats.failed_calls += 1;
                state.advance();
                if let Some(tm) = self.telem.as_mut() {
                    tm.acc.degraded += 1;
                }
            }
        }
        f.out.stats.wasted_us += delay_us;
        self.queue.schedule(now + delay_us, Event::Issue(s));
    }

    /// `Flush`: the link's open batch goes out as one datagram — or fails
    /// as a unit on a faulted wire, every member re-resolving through the
    /// retry policy. Each delivered member's reply schedules its session's
    /// next `Issue`.
    fn on_flush(&mut self, now: u64, link: LinkKey, gated: bool) {
        if let Some(err) = self.wire_failure(link, now, "batch") {
            let failed = self.batcher.fail_open(link, &err);
            let members: Vec<u32> = failed.iter().map(|(msg, _)| msg.payload).collect();
            self.fail_on_wire(link, now, &err, &members);
            return;
        }
        let batch = self.batcher.drain(link);
        debug_assert!(!batch.is_empty(), "flush fired on an idle link");
        self.batcher.note_flush(if gated {
            FlushReason::LinkFreed
        } else {
            FlushReason::WindowExpired
        });
        // A batch is one datagram: the link is occupied for a single
        // per-datagram overhead plus every member's payload, and the batch
        // pays one latency draw each way. Amortizing the overhead and the
        // draws across members is exactly what batching buys over
        // `--no-batch`.
        let net = self.net;
        let mut lat = net.sample_time_us(0, &mut self.rng) - ser_us(net, 0);
        let mut reply_lat = net.sample_time_us(0, &mut self.rng) - ser_us(net, 0);
        if let Some(f) = self.fault.as_mut() {
            let factor = f.plan.latency_factor(link.0, link.1, now);
            lat *= factor;
            reply_lat *= factor;
            let _ = f.health.on_success(link.0, link.1);
        }
        let server = machine_slot(&mut self.machine_now, link.1);
        let li = link_slot(&mut self.link_free, link);
        let depart = now.max(self.link_free[li].1);
        let mut cursor = depart as f64 + ser_us(net, 0);
        let flow = self.trace.as_mut().map_or(0, |tr| {
            tr.next_flow += 1;
            tr.next_flow - 1
        });
        let mut traced_members = 0u64;
        // Server compute begins at the first member's service start; the
        // batch's whole compute bill is charged there per class.
        let mut compute_at = u64::MAX;
        for msg in &batch {
            // Members arrive pipelined: each becomes visible to the server
            // as soon as its own payload bytes land.
            cursor += payload_us(net, msg.bytes);
            let arrival = (cursor + lat) as u64;
            let start = self.machine_now[server].max(arrival);
            let s = msg.payload;
            let spec = self.script[self.sessions[s as usize].next_call as usize];
            self.machine_now[server] = start + spec.compute_us;
            // Each reply departs as soon as its own call completes; replies
            // share the batch's return-path latency draw.
            let reply_at =
                (self.machine_now[server] as f64 + reply_lat + ser_us(net, REPLY_BYTES)) as u64;
            if let Some(tm) = self.telem.as_mut() {
                compute_at = compute_at.min(start);
                if spec.compute_us > 0 {
                    let slot = &mut tm.class_us[spec.to_class as usize];
                    if *slot == 0 {
                        tm.class_touched.push(spec.to_class);
                    }
                    *slot += spec.compute_us;
                }
            }
            if let Some(tr) = &self.trace {
                if let Some(gid) = tr.sampled_gid(s) {
                    traced_members += 1;
                    let issued = self.sessions[s as usize].issued_us;
                    let flow = Some(("flow", flow));
                    tr.span(gid, "call", issued, reply_at.saturating_sub(issued), flow);
                    tr.span(
                        gid,
                        "batch_wait",
                        issued,
                        depart.saturating_sub(issued),
                        flow,
                    );
                    tr.span(
                        gid,
                        "link_transit",
                        depart,
                        arrival.saturating_sub(depart),
                        flow,
                    );
                }
            }
            self.finish_call(s, reply_at);
        }
        let busy_us = (cursor as u64).saturating_sub(depart);
        if let Some(tm) = self.telem.as_mut() {
            for &class in &tm.class_touched {
                tm.series
                    .on_class_busy(compute_at, class, tm.class_us[class as usize]);
                tm.class_us[class as usize] = 0;
            }
            tm.class_touched.clear();
            tm.acc.batches += 1;
            tm.acc.batch_members += batch.len() as u64;
            tm.series
                .on_link_busy(depart, (link.0 .0, link.1 .0), busy_us);
        }
        if let Some(tr) = self.trace.as_ref().filter(|_| traced_members > 0) {
            tr.tracer.complete_at(
                "batch",
                depart,
                busy_us,
                vec![
                    (
                        "link",
                        TraceArg::Str(format!("{}->{}", link.0 .0, link.1 .0)),
                    ),
                    ("members", TraceArg::U64(batch.len() as u64)),
                    ("flow", TraceArg::U64(flow)),
                ],
            );
        }
        self.link_free[li].1 = cursor as u64;
    }

    /// `Deliver`: an unbatched datagram queues FIFO at its target replica,
    /// then the reply travels back as its own send (own latency draw) and
    /// schedules the session's next `Issue`.
    fn on_deliver(&mut self, now: u64, s: u32, compute_us: u64, server: MachineId, to_class: u32) {
        let slot = machine_slot(&mut self.machine_now, server);
        let start = self.machine_now[slot].max(now);
        self.machine_now[slot] = start + compute_us;
        let back = self.net.sample_time_us(REPLY_BYTES, &mut self.rng);
        let done = self.machine_now[slot] + back as u64;
        if let Some(tm) = self.telem.as_mut() {
            tm.series.on_class_busy(start, to_class, compute_us);
        }
        if let Some(tr) = &self.trace {
            if let Some(gid) = tr.sampled_gid(s) {
                let issued = self.sessions[s as usize].issued_us;
                tr.span(gid, "call", issued, done.saturating_sub(issued), None);
            }
        }
        self.finish_call(s, done);
    }

    /// A call's reply lands at `done_us`: advance the script cursor and
    /// schedule the next issue after a seeded think pause.
    fn finish_call(&mut self, s: u32, done_us: u64) {
        self.sessions[s as usize].advance();
        self.queue
            .schedule(done_us + think_us(&mut self.think_state), Event::Issue(s));
    }
}

/// A think pause in 50..=400 µs from the shard's splitmix64 stream.
fn think_us(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    50 + z % 351
}

/// Index of a machine's clock slot, growing the table on first sight.
fn machine_slot(machine_now: &mut Vec<u64>, machine: MachineId) -> usize {
    let idx = machine.0 as usize;
    if machine_now.len() <= idx {
        machine_now.resize(idx + 1, 0);
    }
    idx
}

/// Runs the serving harness: `opts.sessions` simulated sessions over the
/// distribution, sharded into `opts.shards` independently-clocked event
/// queues executed by `opts.jobs` worker threads. The report is
/// byte-identical for a given seed across `jobs`.
pub fn serve(
    profile: &IccProfile,
    distribution: &Distribution,
    network: &NetworkModel,
    opts: &ServeOptions,
) -> ComResult<ServeReport> {
    serve_traced(profile, distribution, network, opts, None).map(|(report, _)| report)
}

/// [`serve`] with telemetry: when `opts.timeline_window_us > 0` the second
/// return value carries the fleet timeline (per-shard series merged in
/// shard order), and when `opts.trace_sample > 0` and `tracer` is an
/// enabled [`Tracer`], sampled sessions emit causal spans into it (each
/// shard buffers into a child tracer, merged back in shard order). Both
/// outputs — and the report itself — stay byte-identical across `jobs`.
pub fn serve_traced(
    profile: &IccProfile,
    distribution: &Distribution,
    network: &NetworkModel,
    opts: &ServeOptions,
    tracer: Option<&Tracer>,
) -> ComResult<(ServeReport, Option<TimeSeries>)> {
    if profile.edges.is_empty() {
        return Err(ComError::App(
            "profile carries no traffic — run `coign profile` first".to_string(),
        ));
    }
    if opts.sessions == 0 {
        return Err(ComError::App("nothing to serve: --sessions 0".to_string()));
    }
    let shards = opts.shards.max(1);
    // A shard addresses its sessions by `u32` slot and allocates them all
    // up front.
    if opts.sessions.div_ceil(shards as u64) > u64::from(u32::MAX) {
        return Err(ComError::App(format!(
            "--sessions {} over {shards} shard(s) exceeds {} sessions per shard",
            opts.sessions,
            u32::MAX
        )));
    }
    for (what, us) in [
        ("--window", opts.window_us),
        ("arrival spacing", opts.arrival_spacing_us),
    ] {
        if us > MAX_SPAN_US {
            return Err(ComError::App(format!(
                "{what} {us} us exceeds the {MAX_SPAN_US} us bound"
            )));
        }
    }
    let script = build_script(profile, distribution, opts.script_cap);

    // Sessions split round-robin across shards; shard i simulates its slice
    // in isolation and the reports merge in shard order.
    let per_shard: Vec<u64> = (0..shards)
        .map(|i| {
            opts.sessions / shards as u64 + u64::from((i as u64) < opts.sessions % shards as u64)
        })
        .collect();
    // Fleet-global id of each shard's first session (trace sampling is
    // keyed on global ids so the sampled set survives re-sharding).
    let bases: Vec<u64> = per_shard
        .iter()
        .scan(0u64, |acc, &n| {
            let base = *acc;
            *acc += n;
            Some(base)
        })
        .collect();
    let slices = run_indexed(shards, opts.jobs, |i| {
        Shard::new(&script, network, opts, i, per_shard[i], bases[i], tracer).run()
    });

    let mut merged = ServeReport::empty(shards, opts);
    let mut timeline: Option<TimeSeries> = None;
    // Shard order, not completion order: that is what keeps report,
    // timeline and trace bytes independent of --jobs.
    for (report, series, spans) in slices {
        merged.absorb(report);
        if let Some(series) = series {
            match timeline.as_mut() {
                Some(t) => t.merge_from(&series),
                None => timeline = Some(series),
            }
        }
        if let (Some(parent), Some(child)) = (tracer, spans.as_ref()) {
            parent.merge_from(child);
        }
    }
    if let Some(f) = merged.faults.as_mut() {
        // Shards declare deaths on independent clocks; a sorted union keeps
        // the merged view deterministic and independent of merge order.
        f.recovery_epochs.sort_unstable();
        f.dead_machines.sort_unstable();
        f.dead_machines.dedup();
    }
    Ok((merged, timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassificationId;
    use crate::profile::size_bucket;
    use coign_com::Iid;
    use coign_obs::timeseries::Window;
    use std::collections::HashMap;

    /// A small synthetic profile: a client-side viewer chatting with a
    /// server-side store over two methods, plus a purely local edge.
    fn fixture() -> (IccProfile, Distribution) {
        let mut profile = IccProfile::new();
        let (viewer, store, cache) = (
            ClassificationId(1),
            ClassificationId(2),
            ClassificationId(3),
        );
        let iid = Iid::from_name("IServeTest");
        for (from, to, method, messages, bytes) in [
            (viewer, store, 0u32, 900u64, 180_000u64),
            (viewer, store, 1, 300, 30_000),
            (viewer, cache, 2, 500, 10_000),
        ] {
            let key = crate::profile::EdgeKey {
                from,
                to,
                iid,
                method,
                bucket: size_bucket(bytes / messages),
            };
            profile
                .edges
                .insert(key, crate::profile::EdgeStats { messages, bytes });
        }
        let mut placement = HashMap::new();
        placement.insert(viewer, MachineId::CLIENT);
        placement.insert(store, MachineId::SERVER);
        placement.insert(cache, MachineId::CLIENT);
        let distribution = Distribution {
            placement,
            predicted_comm_us: 0.0,
            network_name: "test".to_string(),
        };
        (profile, distribution)
    }

    fn opts(sessions: u64, jobs: usize, batching: bool) -> ServeOptions {
        ServeOptions {
            sessions,
            shards: 4,
            jobs,
            seed: 7,
            batching,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn serve_completes_every_session_and_call() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let report = serve(&profile, &dist, &net, &opts(500, 1, true)).unwrap();
        assert_eq!(report.sessions, 500);
        // 3 script entries per session: 2 crossing + 1 local.
        assert_eq!(report.calls, 1500);
        assert_eq!(report.local_calls, 500);
        assert_eq!(report.remote_messages, 1000);
        assert_eq!(report.latency.count(), 500);
        assert!(report.horizon_us > 0);
        assert!(report.batches <= report.remote_messages);
        assert!(report.mean_batch_size() >= 1.0);
    }

    #[test]
    fn summary_is_byte_identical_across_jobs() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let summaries: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&jobs| {
                let report = serve(&profile, &dist, &net, &opts(2_000, jobs, true)).unwrap();
                report.summary(false) + &report.summary(true)
            })
            .collect();
        for s in &summaries[1..] {
            assert_eq!(&summaries[0], s, "summary must not depend on --jobs");
        }
    }

    #[test]
    fn shard_count_changes_the_schedule_but_not_the_totals() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let two = serve(
            &profile,
            &dist,
            &net,
            &ServeOptions {
                shards: 2,
                ..opts(1_000, 1, true)
            },
        )
        .unwrap();
        let eight = serve(
            &profile,
            &dist,
            &net,
            &ServeOptions {
                shards: 8,
                ..opts(1_000, 1, true)
            },
        )
        .unwrap();
        assert_eq!(two.calls, eight.calls);
        assert_eq!(two.sessions, eight.sessions);
    }

    #[test]
    fn batching_coalesces_and_unbatched_does_not() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let batched = serve(&profile, &dist, &net, &opts(2_000, 2, true)).unwrap();
        let unbatched = serve(&profile, &dist, &net, &opts(2_000, 2, false)).unwrap();
        assert_eq!(
            unbatched.batches, unbatched.remote_messages,
            "unbatched mode sends each message alone"
        );
        assert!(
            batched.batches < batched.remote_messages / 2,
            "concurrent sessions must share batches (batches={} messages={})",
            batched.batches,
            batched.remote_messages
        );
        assert!(batched.mean_batch_size() > 2.0);
        // Same workload either way.
        assert_eq!(batched.calls, unbatched.calls);
        assert_eq!(batched.batched_bytes, unbatched.batched_bytes);
    }

    #[test]
    fn session_pool_reuses_slots() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        // Arrivals slow enough for the fleet to keep up: the pool only
        // demonstrates reuse when sessions actually drain between arrivals.
        let report = serve(
            &profile,
            &dist,
            &net,
            &ServeOptions {
                arrival_spacing_us: 20_000,
                ..opts(5_000, 2, true)
            },
        )
        .unwrap();
        assert_eq!(report.pool_hits + report.pool_misses, report.sessions);
        assert!(
            report.pool_hits > report.pool_misses,
            "most sessions must reuse pooled state (hits={} misses={})",
            report.pool_hits,
            report.pool_misses
        );
    }

    #[test]
    fn latency_percentiles_are_ordered_and_positive() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let report = serve(&profile, &dist, &net, &opts(2_000, 2, true)).unwrap();
        let (p50, p95, p99) = (
            report.latency_quantile_us(0.50),
            report.latency_quantile_us(0.95),
            report.latency_quantile_us(0.99),
        );
        assert!(p50 > 0.0);
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
    }

    #[test]
    fn flush_reasons_partition_batches_and_no_batch_never_opens_one() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let batched = serve(&profile, &dist, &net, &opts(2_000, 2, true)).unwrap();
        assert_eq!(
            batched.window_flushes + batched.link_free_flushes,
            batched.batches,
            "every flushed batch has exactly one reason"
        );
        assert!(batched.window_flushes > 0, "idle links flush on the window");
        let unbatched = serve(&profile, &dist, &net, &opts(2_000, 2, false)).unwrap();
        assert_eq!(
            unbatched.window_flushes + unbatched.link_free_flushes,
            0,
            "--no-batch must never open a batch"
        );
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let off = serve(&profile, &dist, &net, &opts(2_000, 2, true)).unwrap();
        let tracer = Tracer::enabled();
        let (on, timeline) = serve_traced(
            &profile,
            &dist,
            &net,
            &ServeOptions {
                timeline_window_us: 10_000,
                trace_sample: 100,
                ..opts(2_000, 2, true)
            },
            Some(&tracer),
        )
        .unwrap();
        assert_eq!(
            off.summary(false) + &off.summary(true),
            on.summary(false) + &on.summary(true),
            "telemetry must be observation-only"
        );
        let timeline = timeline.expect("timeline requested");
        assert!(!tracer.is_empty(), "sampled sessions must emit spans");
        // Timeline totals agree with the merged report.
        let windows = timeline.windows();
        assert_eq!(windows.iter().map(|w| w.arrivals).sum::<u64>(), on.sessions);
        assert_eq!(
            windows.iter().map(|w| w.completions).sum::<u64>(),
            on.sessions
        );
        assert_eq!(windows.iter().map(|w| w.calls).sum::<u64>(), on.calls);
        assert_eq!(
            windows.iter().map(|w| w.remote_messages).sum::<u64>(),
            on.remote_messages
        );
        assert_eq!(windows.iter().map(|w| w.batches).sum::<u64>(), on.batches);
        assert_eq!(
            windows.iter().map(|w| w.pool_misses).sum::<u64>(),
            on.pool_misses
        );
        assert_eq!(
            windows.iter().map(Window::latency_count).sum::<u64>(),
            on.sessions
        );
    }

    #[test]
    fn timeline_and_trace_are_byte_identical_across_jobs() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let render = |jobs: usize| {
            let tracer = Tracer::enabled();
            let (report, timeline) = serve_traced(
                &profile,
                &dist,
                &net,
                &ServeOptions {
                    timeline_window_us: 10_000,
                    trace_sample: 50,
                    ..opts(2_000, jobs, true)
                },
                Some(&tracer),
            )
            .unwrap();
            let timeline = timeline.expect("timeline requested");
            report.summary(true)
                + &timeline.to_json()
                + &timeline.to_csv()
                + &timeline.dashboard()
                + &timeline.slo(5_000).render_human()
                + &tracer.export_chrome_json()
        };
        let one = render(1);
        for jobs in [2usize, 4, 8] {
            assert_eq!(one, render(jobs), "telemetry must not depend on --jobs");
        }
        let trace_doc = &one[one.find("{\"traceEvents\"").expect("trace doc")..];
        let summary = coign_obs::trace::validate_chrome_trace(trace_doc)
            .expect("sampled serve trace validates");
        assert!(summary.has_span("call"));
        assert!(summary.has_span("batch_wait"));
        assert!(summary.has_span("link_transit"));
        assert!(summary.has_span("batch"));
        assert!(summary.span_names.iter().any(|n| n.starts_with("session:")));
    }

    #[test]
    fn empty_profile_and_zero_sessions_are_rejected() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        assert!(serve(&IccProfile::new(), &dist, &net, &opts(10, 1, true)).is_err());
        assert!(serve(&profile, &dist, &net, &opts(0, 1, true)).is_err());
        // More sessions per shard than a `u32` slot id can address: a typed
        // error, not an allocation panic or a truncated id.
        for sessions in [u64::MAX, 4 * (u64::from(u32::MAX) + 1)] {
            let err = serve(&profile, &dist, &net, &opts(sessions, 1, true)).unwrap_err();
            assert!(
                matches!(&err, ComError::App(m) if m.contains("per shard")),
                "{err}"
            );
        }
    }

    #[test]
    fn window_and_arrival_spacing_are_bounded() {
        // `--window u64::MAX` used to overflow the server clock in
        // `on_flush`; an arrival spacing near `u64::MAX / 2` overflowed the
        // arrival draw's range.
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let window = |us| ServeOptions {
            window_us: us,
            ..opts(8, 1, true)
        };
        let spacing = |us| ServeOptions {
            arrival_spacing_us: us,
            ..opts(8, 1, true)
        };
        for at_bound in [window(MAX_SPAN_US), spacing(MAX_SPAN_US)] {
            let report = serve(&profile, &dist, &net, &at_bound).expect("the bound is accepted");
            assert_eq!(report.sessions, 8);
        }
        for (past_bound, what) in [
            (window(MAX_SPAN_US + 1), "--window"),
            (window(u64::MAX), "--window"),
            (spacing(MAX_SPAN_US + 1), "arrival spacing"),
            (spacing(u64::MAX / 2), "arrival spacing"),
        ] {
            let err = serve(&profile, &dist, &net, &past_bound).unwrap_err();
            assert!(
                matches!(&err, ComError::App(m) if m.starts_with(what) && m.contains("bound")),
                "{err}"
            );
        }
    }

    /// A router giving the server-side store (class 2) a replica on the
    /// client machine.
    fn store_replica_router(dist: &Distribution) -> ReplicaRouter {
        ReplicaRouter::new(
            dist,
            &[crate::multiway::Replica {
                class: ClassificationId(2),
                machine: MachineId::CLIENT,
                gain_us: 0.0,
            }],
        )
    }

    /// Renders every deterministic byte a serve run produces.
    fn render_all(
        profile: &IccProfile,
        dist: &Distribution,
        net: &NetworkModel,
        opts: &ServeOptions,
    ) -> String {
        let tracer = Tracer::enabled();
        let (report, timeline) = serve_traced(profile, dist, net, opts, Some(&tracer)).unwrap();
        let timeline = timeline.expect("timeline requested");
        report.summary(false)
            + &report.summary(true)
            + &timeline.to_json()
            + &timeline.to_csv()
            + &timeline.dashboard()
            + &tracer.export_chrome_json()
    }

    #[test]
    fn zero_fault_plan_is_byte_transparent() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let telem = |jobs: usize| ServeOptions {
            timeline_window_us: 10_000,
            trace_sample: 100,
            ..opts(2_000, jobs, true)
        };
        let baseline = render_all(&profile, &dist, &net, &telem(1));
        // Installing the whole fault apparatus — an explicit empty plan, a
        // policy, a replica router — must not move a single byte, whether
        // sequential or parallel.
        for jobs in [1usize, 4] {
            let armed = ServeOptions {
                faults: FaultPlan::none(),
                policy: CallPolicy::default(),
                replicas: Some(store_replica_router(&dist)),
                ..telem(jobs)
            };
            assert_eq!(
                baseline,
                render_all(&profile, &dist, &net, &armed),
                "zero-fault serving must be byte-identical (jobs={jobs})"
            );
        }
        // The seeded shorthand's zero seed is the empty plan by contract.
        assert!(FaultPlan::seeded(0, 1_000_000, &[MachineId::SERVER]).is_empty());
    }

    #[test]
    fn machine_death_fails_over_to_replicas_and_drains_every_session() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let faulted = |jobs: usize| ServeOptions {
            faults: FaultPlan::none()
                .with_machine_down(MachineId::SERVER, coign_dcom::TimeWindow::from(50_000)),
            replicas: Some(store_replica_router(&dist)),
            timeline_window_us: 10_000,
            trace_sample: 100,
            ..opts(2_000, jobs, true)
        };
        let tracer = Tracer::enabled();
        let (report, timeline) =
            serve_traced(&profile, &dist, &net, &faulted(1), Some(&tracer)).unwrap();
        assert_eq!(report.sessions, 2_000, "every session drains");
        assert_eq!(report.latency.count(), 2_000);
        let f = report.faults.as_ref().expect("fault report present");
        assert_eq!(f.dead_machines, vec![1], "the server is declared dead");
        assert!(
            !f.recovery_epochs.is_empty(),
            "death opens a recovery epoch"
        );
        assert!(f.stats.timeouts > 0, "in-flight batches fail on the wire");
        assert!(
            f.replica_served > 0,
            "read traffic fails over to the client replica"
        );
        assert!(f.failovers > 0, "the store is rehomed");
        assert!(
            f.availability(report.calls) > 0.5,
            "replica failover keeps most calls alive (availability={})",
            f.availability(report.calls)
        );
        // The summary surfaces the grep-able fault lines.
        let human = report.summary(false);
        assert!(human.contains("failover: "), "{human}");
        assert!(human.contains("recovery: "), "{human}");
        // Telemetry carries the fault columns and at least one recovery.
        let timeline = timeline.expect("timeline requested");
        assert!(timeline.faulted());
        let windows = timeline.windows();
        assert!(windows.iter().map(|w| w.recoveries).sum::<u64>() >= 1);
        assert!(windows.iter().map(|w| w.replica_served).sum::<u64>() > 0);
        // The causal trace records the failover instant.
        let doc = tracer.export_chrome_json();
        assert!(doc.contains("\"failover\""), "trace carries the instant");
        // Byte-identical across --jobs, faults and all.
        let one = render_all(&profile, &dist, &net, &faulted(1));
        for jobs in [2usize, 4] {
            assert_eq!(
                one,
                render_all(&profile, &dist, &net, &faulted(jobs)),
                "faulted serving must not depend on --jobs (jobs={jobs})"
            );
        }
    }

    #[test]
    fn machine_death_without_replicas_degrades_but_still_drains() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let report = serve(
            &profile,
            &dist,
            &net,
            &ServeOptions {
                faults: FaultPlan::none()
                    .with_machine_down(MachineId::SERVER, coign_dcom::TimeWindow::from(50_000)),
                ..opts(1_000, 2, true)
            },
        )
        .unwrap();
        assert_eq!(report.sessions, 1_000, "sessions drain degraded");
        let f = report.faults.as_ref().expect("fault report present");
        assert_eq!(f.dead_machines, vec![1]);
        assert_eq!(f.replica_served, 0, "no replicas to serve from");
        assert!(f.stats.failed_calls > 0, "calls to the dead store fail");
        assert!(
            f.stats.machine_down_errors > 0,
            "post-death calls are refused without a timeout"
        );
        assert!(f.availability(report.calls) < 1.0);
    }

    #[test]
    fn message_loss_retries_under_the_policy_and_recovers() {
        let (profile, dist) = fixture();
        let net = NetworkModel::ethernet_10baset();
        let report = serve(
            &profile,
            &dist,
            &net,
            &ServeOptions {
                faults: FaultPlan::none().with_loss(0.1),
                ..opts(1_000, 2, true)
            },
        )
        .unwrap();
        assert_eq!(report.sessions, 1_000);
        let f = report.faults.as_ref().expect("fault report present");
        assert!(f.stats.drops > 0, "a 10% loss plan drops batches");
        assert!(f.stats.retries > 0, "lost batches re-send under the policy");
        // Retries absorb most loss; the residue is the breaker shedding
        // load when consecutive batches vanish.
        assert!(
            f.availability(report.calls) > 0.97,
            "retries absorb transient loss (availability={})",
            f.availability(report.calls)
        );
        assert!(f.recovery_epochs.is_empty(), "loss alone kills no machine");
        assert_eq!(f.failovers, 0);
    }
}
