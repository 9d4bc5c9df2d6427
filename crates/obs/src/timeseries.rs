//! Simulated-time windowed series for the fleet serving harness.
//!
//! The serving DES (`coign::serve`) runs 100k+ sessions and used to report
//! one end-of-run summary — no view of how link utilization, batch
//! occupancy, queue depth or tail latency *evolve* over simulated time.
//! This module is the windowed recorder behind `coign serve --timeline`:
//! simulated time is cut into fixed-width windows of `window_us`
//! microseconds, and every observation lands in the window containing its
//! simulated instant.
//!
//! # Determinism
//!
//! The recorder is deliberately plain (no atomics, no clocks of its own):
//! each DES shard owns a private `TimeSeries` fed from its single-threaded
//! event loop, and the per-shard series are folded with
//! [`TimeSeries::merge_from`] **in shard order** after the workers join.
//! Every per-window field merges by commutative addition (counters, busy
//! µs, latency buckets) or by `max` (within-window peaks), so the merged
//! series — and therefore the exported JSON/CSV bytes — are identical
//! across `--jobs`, the same discipline the serve summary pins.
//!
//! Window semantics worth knowing when reading a timeline:
//!
//! * **Busy µs are charged to the window containing the transfer's
//!   departure** (not spread across windows), so a long batch transfer can
//!   make one window's `busy_us` exceed `window_us`.
//! * **Peaks** (`queue_depth_peak`, `pool_live_peak`) are per-shard maxima
//!   summed across shards: an upper bound on the fleet-wide value, exact
//!   when shards peak in the same window.
//! * **Latency quantiles** are per-window histogram estimates
//!   ([`quantile_from_buckets`]); a window with no completions reports 0.

use crate::metrics::quantile_from_buckets;
use std::collections::BTreeMap;

/// A directed machine-to-machine link, by raw machine index. The recorder
/// lives below the COM layer, so it speaks raw `u16`s rather than
/// `MachineId`s.
pub type RawLink = (u16, u16);

/// One fixed-width window of the series. All fields are totals *within*
/// the window, not cumulative.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Sessions that arrived in this window.
    pub arrivals: u64,
    /// Sessions that completed in this window.
    pub completions: u64,
    /// Scripted calls issued (local + crossing).
    pub calls: u64,
    /// Calls that stayed co-located.
    pub local_calls: u64,
    /// Cut-crossing request messages sent.
    pub remote_messages: u64,
    /// Batches flushed (datagrams sent in unbatched mode).
    pub batches: u64,
    /// Messages across those batches (mean occupancy = members / batches).
    pub batch_members: u64,
    /// Peak event-queue depth observed in the window.
    pub queue_depth_peak: u64,
    /// Peak live (slot-holding) session count observed in the window.
    pub pool_live_peak: u64,
    /// Sessions that missed the pool and paid full instantiation.
    pub pool_misses: u64,
    /// Recovery epochs opened in this window (machines declared dead).
    /// Zero unless the run carried a fault plan.
    pub recoveries: u64,
    /// Calls that failed or were refused (served degraded). Zero unless
    /// the run carried a fault plan.
    pub degraded: u64,
    /// Calls failed over to a surviving replica. Zero unless the run
    /// carried a fault plan.
    pub replica_served: u64,
    /// Link transmit busy-µs, by link, charged at departure time.
    pub link_busy_us: BTreeMap<RawLink, u64>,
    /// Server compute busy-µs by component classification, charged at
    /// compute start.
    pub class_busy_us: BTreeMap<u32, u64>,
    /// Per-window session-latency bucket counts (`bounds.len() + 1`
    /// entries, last = overflow). Empty until the first completion.
    pub latency_counts: Vec<u64>,
}

impl Window {
    /// Mean messages per batch flushed in this window.
    fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_members as f64 / self.batches as f64
        }
    }

    /// Total link busy-µs across every link.
    fn busy_us(&self) -> u64 {
        self.link_busy_us.values().sum()
    }

    /// Completions observed (sum of the latency buckets).
    pub fn latency_count(&self) -> u64 {
        self.latency_counts.iter().sum()
    }

    /// The link that dominated busy time, with its µs (ties break on the
    /// smaller link key, deterministically).
    fn dominant_link(&self) -> Option<(RawLink, u64)> {
        self.link_busy_us
            .iter()
            .max_by(|(ka, va), (kb, vb)| va.cmp(vb).then(kb.cmp(ka)))
            .map(|(k, v)| (*k, *v))
    }

    /// The classification that dominated server compute, with its µs.
    fn dominant_class(&self) -> Option<(u32, u64)> {
        self.class_busy_us
            .iter()
            .max_by(|(ka, va), (kb, vb)| va.cmp(vb).then(kb.cmp(ka)))
            .map(|(k, v)| (*k, *v))
    }
}

/// The SLO verdict computed from a recorded series: how many windows blew
/// the p99 target, and what dominated the worst one.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// The `--slo-p99-us` target.
    pub target_p99_us: u64,
    /// Windows carrying at least one completion (only they have a p99).
    pub measured_windows: usize,
    /// Measured windows whose p99 exceeded the target.
    pub violations: usize,
    /// The measured window with the highest p99 (earliest wins ties).
    pub worst: Option<WorstWindow>,
    /// Width of the series' windows, for rendering extents.
    window_us: u64,
}

/// Attribution for the worst window of an [`SloReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorstWindow {
    /// Window index.
    pub index: usize,
    /// Window start, simulated µs.
    pub start_us: u64,
    /// The window's p99 session latency, µs.
    pub p99_us: f64,
    /// Link that dominated transmit busy time, if any link was busy.
    pub link: Option<(RawLink, u64)>,
    /// Classification that dominated server compute, if any ran.
    pub class: Option<(u32, u64)>,
}

impl SloReport {
    /// Human block appended to the serve summary.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "slo: target p99<={}us: {}/{} window(s) in violation\n",
            self.target_p99_us, self.violations, self.measured_windows
        );
        if let Some(w) = &self.worst {
            out.push_str(&format!(
                "  worst window {} [{}..{}us): p99={:.1}us",
                w.index,
                w.start_us,
                w.start_us + self.window_us,
                w.p99_us
            ));
            if let Some(((from, to), us)) = w.link {
                out.push_str(&format!(", link {from}->{to} busy {us}us"));
            }
            if let Some((class, us)) = w.class {
                out.push_str(&format!(", class {class} compute {us}us"));
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable form for the JSON serve record.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"target_p99_us\":{},\"measured_windows\":{},\"violations\":{}",
            self.target_p99_us, self.measured_windows, self.violations
        );
        if let Some(w) = &self.worst {
            out.push_str(&format!(
                ",\"worst\":{{\"window\":{},\"start_us\":{},\"p99_us\":{:.1}",
                w.index, w.start_us, w.p99_us
            ));
            if let Some(((from, to), us)) = w.link {
                out.push_str(&format!(",\"link\":\"{from}->{to}\",\"link_busy_us\":{us}"));
            }
            if let Some((class, us)) = w.class {
                out.push_str(&format!(",\"class\":{class},\"class_busy_us\":{us}"));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Staged counters for one window, bulk-folded via
/// [`TimeSeries::add_counts`]. Counters add; `*_peak` fields take `max`.
#[derive(Clone, Debug, Default)]
pub struct WindowCounts {
    /// Sessions that arrived.
    pub arrivals: u64,
    /// Sessions that missed the pool.
    pub pool_misses: u64,
    /// Peak live session count observed.
    pub pool_live_peak: u64,
    /// Scripted calls issued.
    pub calls: u64,
    /// Calls that stayed co-located.
    pub local_calls: u64,
    /// Cut-crossing request messages sent.
    pub remote_messages: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Messages across those batches.
    pub batch_members: u64,
    /// Peak event-queue depth observed.
    pub queue_depth_peak: u64,
    /// Recovery epochs opened (machines declared dead).
    pub recoveries: u64,
    /// Calls that failed or were refused (served degraded).
    pub degraded: u64,
    /// Calls failed over to a surviving replica.
    pub replica_served: u64,
}

/// Per-window scalar counters, stored columnar (one flat vec of these) so
/// a 100k-session run allocates a handful of arrays, not one heap object
/// per window. `u32` per window: counts within one window are bounded by
/// the event rate times the window width and stay far below 4 billion at
/// any realistic scale; additions saturate rather than wrap so a
/// pathological configuration degrades to a pinned counter, not garbage.
#[derive(Clone, Debug, Default)]
struct Scalars {
    arrivals: u32,
    completions: u32,
    calls: u32,
    local_calls: u32,
    remote_messages: u32,
    batches: u32,
    batch_members: u32,
    queue_depth_peak: u32,
    pool_live_peak: u32,
    pool_misses: u32,
    recoveries: u32,
    degraded: u32,
    replica_served: u32,
}

/// Saturate a staged `u64` count into a per-window `u32` cell.
#[inline]
fn sat32(v: u64) -> u32 {
    v.min(u32::MAX as u64) as u32
}

/// The windowed recorder: fixed-width simulated-time windows over one
/// shard (or, after [`merge_from`](TimeSeries::merge_from), the fleet).
///
/// Storage is columnar and sparse — per-window scalars in one vec,
/// completions as a sorted `(window, bucket)` log (one word per
/// completion, not one dense histogram per window), link/class busy-µs
/// as one row per *key* indexed by window. Recording never allocates per
/// window, the memory footprint scales with observations rather than
/// `windows x buckets`, and merging shards is a handful of flat sweeps.
/// The per-window [`Window`] values handed out by
/// [`windows`](Self::windows) are materialized views, built only at
/// render/inspection time.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    window_us: u64,
    latency_bounds: Vec<u64>,
    scalars: Vec<Scalars>,
    /// One entry per completion, encoded `window << 16 | bucket`, kept
    /// sorted. A dense `windows x buckets` array would be ~97% zeros at
    /// serving loads; the page faults of zeroing it dwarf the recorder's
    /// arithmetic.
    latency_log: Vec<u64>,
    /// Busy-µs per link: one row per link, indexed by window (rows may be
    /// shorter than `scalars` — missing tail entries are zero).
    link_busy: BTreeMap<RawLink, Vec<u64>>,
    /// Busy-µs per classification, same layout as `link_busy`.
    class_busy: BTreeMap<u32, Vec<u64>>,
    /// True when the recorded run carried an active fault layer. The
    /// fault columns (`recoveries`, `degraded`, `replica_served`) render
    /// only when set, so a fault-free run's exported bytes stay identical
    /// to a recorder without the columns at all.
    faulted: bool,
    // Caches of the window the last observation landed in, one per time
    // stream. Event-time hooks run at the simulation clock while busy-µs
    // hooks charge at departure/compute instants slightly in the future;
    // each stream is near-monotone on its own, but they interleave, so a
    // single shared cache would ping-pong between windows and take the
    // recompute path on nearly every call. One cursor per stream keeps
    // every hook at two compares instead of a 64-bit division.
    cursors: [WindowCursor; 3],
}

/// One stream's cached window: `start <= at < end` maps to `idx`.
/// `end == 0` marks an unprimed cursor.
#[derive(Clone, Copy, Debug, Default)]
struct WindowCursor {
    idx: usize,
    start: u64,
    end: u64,
}

/// Cursor stream for hooks charging at the simulation clock.
const STREAM_EVENT: usize = 0;
/// Cursor stream for link busy-µs charged at departure instants.
const STREAM_LINK: usize = 1;
/// Cursor stream for class busy-µs charged at compute instants.
const STREAM_CLASS: usize = 2;

impl TimeSeries {
    /// Creates an empty series with the given window width (clamped to at
    /// least 1 µs) and latency-histogram bucket bounds.
    pub fn new(window_us: u64, latency_bounds: Vec<u64>) -> TimeSeries {
        TimeSeries {
            window_us: window_us.max(1),
            latency_bounds,
            scalars: Vec::new(),
            latency_log: Vec::new(),
            link_busy: BTreeMap::new(),
            class_busy: BTreeMap::new(),
            faulted: false,
            cursors: [WindowCursor::default(); 3],
        }
    }

    /// Marks the series as carrying fault-layer activity: the fault
    /// columns become part of every rendered window from here on.
    pub fn mark_faulted(&mut self) {
        self.faulted = true;
    }

    /// True when the series carries fault-layer columns.
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// The recorded windows, earliest first, materialized as per-window
    /// views. Intended for render/inspection paths, not hot loops.
    pub fn windows(&self) -> Vec<Window> {
        (0..self.scalars.len()).map(|i| self.window(i)).collect()
    }

    /// Materializes one window's view (zero busy-µs entries are elided).
    fn window(&self, idx: usize) -> Window {
        let s = &self.scalars[idx];
        Window {
            arrivals: u64::from(s.arrivals),
            completions: u64::from(s.completions),
            calls: u64::from(s.calls),
            local_calls: u64::from(s.local_calls),
            remote_messages: u64::from(s.remote_messages),
            batches: u64::from(s.batches),
            batch_members: u64::from(s.batch_members),
            queue_depth_peak: u64::from(s.queue_depth_peak),
            pool_live_peak: u64::from(s.pool_live_peak),
            pool_misses: u64::from(s.pool_misses),
            recoveries: u64::from(s.recoveries),
            degraded: u64::from(s.degraded),
            replica_served: u64::from(s.replica_served),
            link_busy_us: self
                .link_busy
                .iter()
                .filter_map(|(k, row)| {
                    row.get(idx)
                        .copied()
                        .filter(|us| *us > 0)
                        .map(|us| (*k, us))
                })
                .collect(),
            class_busy_us: self
                .class_busy
                .iter()
                .filter_map(|(k, row)| {
                    row.get(idx)
                        .copied()
                        .filter(|us| *us > 0)
                        .map(|us| (*k, us))
                })
                .collect(),
            latency_counts: self.latency_counts_for(idx),
        }
    }

    /// The latency bucket bounds shared by every window.
    pub fn latency_bounds(&self) -> &[u64] {
        &self.latency_bounds
    }

    fn bucket_count(&self) -> usize {
        self.latency_bounds.len() + 1
    }

    /// The sorted log's entry range for one window.
    fn latency_range(&self, idx: usize) -> (usize, usize) {
        let w = idx as u64;
        let lo = self.latency_log.partition_point(|e| e >> 16 < w);
        let hi = self.latency_log.partition_point(|e| e >> 16 <= w);
        (lo, hi)
    }

    /// Materializes one window's latency bucket counts (empty when the
    /// window saw no completion, matching the lazy dense representation).
    fn latency_counts_for(&self, idx: usize) -> Vec<u64> {
        let (lo, hi) = self.latency_range(idx);
        if lo == hi {
            return Vec::new();
        }
        let mut counts = vec![0u64; self.bucket_count()];
        for e in &self.latency_log[lo..hi] {
            counts[(e & 0xffff) as usize] += 1;
        }
        counts
    }

    #[inline]
    fn index_for(&mut self, stream: usize, at_us: u64) -> usize {
        let c = self.cursors[stream];
        if at_us >= c.start && at_us < c.end {
            return c.idx;
        }
        self.index_for_slow(stream, at_us)
    }

    #[cold]
    fn index_for_slow(&mut self, stream: usize, at_us: u64) -> usize {
        let idx = (at_us / self.window_us) as usize;
        if self.scalars.len() <= idx {
            self.scalars.resize(idx + 1, Scalars::default());
        }
        let start = idx as u64 * self.window_us;
        self.cursors[stream] = WindowCursor {
            idx,
            start,
            end: start + self.window_us,
        };
        idx
    }

    /// A session completed at `at_us` with the given end-to-end latency.
    #[inline]
    pub fn on_completion(&mut self, at_us: u64, latency_us: u64) {
        let bucket = self
            .latency_bounds
            .partition_point(|bound| latency_us > *bound);
        debug_assert!(bucket < 1 << 16, "latency bucket must fit the log encoding");
        let i = self.index_for(STREAM_EVENT, at_us);
        self.scalars[i].completions = self.scalars[i].completions.saturating_add(1);
        let entry = (i as u64) << 16 | bucket as u64;
        // Serving time is near-monotone, so the push almost always lands
        // in order; out-of-order observations (allowed by the API) take a
        // binary-search insert instead.
        match self.latency_log.last() {
            Some(&last) if last > entry => {
                let at = self.latency_log.partition_point(|e| *e <= entry);
                self.latency_log.insert(at, entry);
            }
            _ => self.latency_log.push(entry),
        }
    }

    /// A batch of `members` messages flushed at `at_us` (unbatched
    /// datagrams count as batches of 1).
    #[inline]
    pub fn on_batch_flush(&mut self, at_us: u64, members: u64) {
        let i = self.index_for(STREAM_EVENT, at_us);
        let s = &mut self.scalars[i];
        s.batches = s.batches.saturating_add(1);
        s.batch_members = s.batch_members.saturating_add(sat32(members));
    }

    /// A link transfer departing at `at_us` occupied `link` for `busy_us`.
    #[inline]
    pub fn on_link_busy(&mut self, at_us: u64, link: RawLink, busy_us: u64) {
        let i = self.index_for(STREAM_LINK, at_us);
        let row = self.link_busy.entry(link).or_default();
        if row.len() <= i {
            row.resize(i + 1, 0);
        }
        row[i] += busy_us;
    }

    /// Server compute starting at `at_us` charged `busy_us` to `class`.
    #[inline]
    pub fn on_class_busy(&mut self, at_us: u64, class: u32, busy_us: u64) {
        let i = self.index_for(STREAM_CLASS, at_us);
        let row = self.class_busy.entry(class).or_default();
        if row.len() <= i {
            row.resize(i + 1, 0);
        }
        row[i] += busy_us;
    }

    /// Folds a whole window's worth of staged counters in one call. The
    /// serve loop's event time is monotone, so it stages these counts in
    /// shard-local registers and charges each window exactly once at a
    /// crossing instead of paying one recorder hook per observation.
    pub fn add_counts(&mut self, at_us: u64, c: &WindowCounts) {
        let i = self.index_for(STREAM_EVENT, at_us);
        let s = &mut self.scalars[i];
        s.arrivals = s.arrivals.saturating_add(sat32(c.arrivals));
        s.pool_misses = s.pool_misses.saturating_add(sat32(c.pool_misses));
        s.pool_live_peak = s.pool_live_peak.max(sat32(c.pool_live_peak));
        s.calls = s.calls.saturating_add(sat32(c.calls));
        s.local_calls = s.local_calls.saturating_add(sat32(c.local_calls));
        s.remote_messages = s.remote_messages.saturating_add(sat32(c.remote_messages));
        s.batches = s.batches.saturating_add(sat32(c.batches));
        s.batch_members = s.batch_members.saturating_add(sat32(c.batch_members));
        s.queue_depth_peak = s.queue_depth_peak.max(sat32(c.queue_depth_peak));
        s.recoveries = s.recoveries.saturating_add(sat32(c.recoveries));
        s.degraded = s.degraded.saturating_add(sat32(c.degraded));
        s.replica_served = s.replica_served.saturating_add(sat32(c.replica_served));
    }

    /// Folds another shard's series into this one: counters and busy-µs
    /// add, peaks take `max` per window, latency buckets add. Addition and
    /// `max` are commutative and associative per window, but callers merge
    /// in shard order anyway so the discipline matches the summary's.
    /// Columnar storage makes this a handful of flat element-wise sweeps.
    ///
    /// Both series must share the window width and latency bounds.
    pub fn merge_from(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.window_us, other.window_us,
            "cannot merge series with different window widths"
        );
        assert_eq!(
            self.latency_bounds, other.latency_bounds,
            "cannot merge series with different latency bounds"
        );
        if self.scalars.len() < other.scalars.len() {
            self.scalars.resize(other.scalars.len(), Scalars::default());
        }
        for (mine, theirs) in self.scalars.iter_mut().zip(&other.scalars) {
            mine.arrivals = mine.arrivals.saturating_add(theirs.arrivals);
            mine.completions = mine.completions.saturating_add(theirs.completions);
            mine.calls = mine.calls.saturating_add(theirs.calls);
            mine.local_calls = mine.local_calls.saturating_add(theirs.local_calls);
            mine.remote_messages = mine.remote_messages.saturating_add(theirs.remote_messages);
            mine.batches = mine.batches.saturating_add(theirs.batches);
            mine.batch_members = mine.batch_members.saturating_add(theirs.batch_members);
            // Peaks are per-shard maxima at different instants; summing
            // them reports the fleet-wide upper bound.
            mine.queue_depth_peak = mine
                .queue_depth_peak
                .saturating_add(theirs.queue_depth_peak);
            mine.pool_live_peak = mine.pool_live_peak.saturating_add(theirs.pool_live_peak);
            mine.pool_misses = mine.pool_misses.saturating_add(theirs.pool_misses);
            mine.recoveries = mine.recoveries.saturating_add(theirs.recoveries);
            mine.degraded = mine.degraded.saturating_add(theirs.degraded);
            mine.replica_served = mine.replica_served.saturating_add(theirs.replica_served);
        }
        self.faulted |= other.faulted;
        // Two sorted logs merge into one sorted log; entries are counted,
        // not positional, so the merge commutes.
        let mut merged = Vec::with_capacity(self.latency_log.len() + other.latency_log.len());
        let (mut a, mut b) = (self.latency_log.iter().peekable(), other.latency_log.iter());
        let mut next_b = b.next();
        while let Some(&&ea) = a.peek() {
            match next_b {
                Some(&eb) if eb < ea => {
                    merged.push(eb);
                    next_b = b.next();
                }
                _ => {
                    merged.push(ea);
                    a.next();
                }
            }
        }
        while let Some(&eb) = next_b {
            merged.push(eb);
            next_b = b.next();
        }
        self.latency_log = merged;
        for (link, row) in &other.link_busy {
            let mine = self.link_busy.entry(*link).or_default();
            if mine.len() < row.len() {
                mine.resize(row.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(row) {
                *m += t;
            }
        }
        for (class, row) in &other.class_busy {
            let mine = self.class_busy.entry(*class).or_default();
            if mine.len() < row.len() {
                mine.resize(row.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(row) {
                *m += t;
            }
        }
    }

    /// A window's latency quantile estimate (0 when it saw no completion).
    fn window_quantile_us(&self, index: usize, q: f64) -> f64 {
        if index >= self.scalars.len() {
            return 0.0;
        }
        let counts = self.latency_counts_for(index);
        if counts.is_empty() {
            return 0.0;
        }
        quantile_from_buckets(&self.latency_bounds, &counts, q).unwrap_or(0.0)
    }

    /// Evaluates a p99 SLO target over the series.
    pub fn slo(&self, target_p99_us: u64) -> SloReport {
        let mut measured = 0usize;
        let mut violations = 0usize;
        let mut worst: Option<(usize, f64)> = None;
        for idx in 0..self.scalars.len() {
            let (lo, hi) = self.latency_range(idx);
            if lo == hi {
                continue;
            }
            measured += 1;
            let p99 = self.window_quantile_us(idx, 0.99);
            if p99 > target_p99_us as f64 {
                violations += 1;
            }
            // Strict `>` keeps the earliest window on ties.
            if worst.is_none_or(|(_, best)| p99 > best) {
                worst = Some((idx, p99));
            }
        }
        SloReport {
            target_p99_us,
            measured_windows: measured,
            violations,
            worst: worst.map(|(idx, p99)| {
                let w = self.window(idx);
                WorstWindow {
                    index: idx,
                    start_us: idx as u64 * self.window_us,
                    p99_us: p99,
                    link: w.dominant_link(),
                    class: w.dominant_class(),
                }
            }),
            window_us: self.window_us,
        }
    }

    /// Renders the series as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"window_us\":{},\"windows\":[", self.window_us);
        for idx in 0..self.scalars.len() {
            let w = self.window(idx);
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"w\":{idx},\"start_us\":{},\"arrivals\":{},\"completions\":{},\
                 \"calls\":{},\"local_calls\":{},\"remote_messages\":{},\
                 \"batches\":{},\"mean_batch\":{:.2},\"queue_depth_peak\":{},\
                 \"pool_live_peak\":{},\"pool_misses\":{},\"busy_us\":{}",
                idx as u64 * self.window_us,
                w.arrivals,
                w.completions,
                w.calls,
                w.local_calls,
                w.remote_messages,
                w.batches,
                w.mean_batch(),
                w.queue_depth_peak,
                w.pool_live_peak,
                w.pool_misses,
                w.busy_us(),
            ));
            if self.faulted {
                out.push_str(&format!(
                    ",\"recoveries\":{},\"degraded\":{},\"replica_served\":{}",
                    w.recoveries, w.degraded, w.replica_served,
                ));
            }
            out.push_str(",\"links\":[");
            for (i, ((from, to), us)) in w.link_busy_us.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"link\":\"{from}->{to}\",\"busy_us\":{us}}}"));
            }
            out.push_str("],\"classes\":[");
            for (i, (class, us)) in w.class_busy_us.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"class\":{class},\"busy_us\":{us}}}"));
            }
            out.push_str(&format!(
                "],\"latency_us\":{{\"count\":{},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}}}}",
                w.latency_count(),
                self.window_quantile_us(idx, 0.50),
                self.window_quantile_us(idx, 0.95),
                self.window_quantile_us(idx, 0.99),
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the series as CSV: one row per window, links collapsed to
    /// the dominant one.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start_us,arrivals,completions,calls,local_calls,remote_messages,\
             batches,mean_batch,queue_depth_peak,pool_live_peak,pool_misses,busy_us,\
             top_link,top_link_busy_us,lat_count,p50_us,p95_us,p99_us",
        );
        if self.faulted {
            out.push_str(",recoveries,degraded,replica_served");
        }
        out.push('\n');
        for idx in 0..self.scalars.len() {
            let w = self.window(idx);
            let (top_link, top_us) = w
                .dominant_link()
                .map_or((String::new(), 0), |((f, t), us)| (format!("{f}->{t}"), us));
            out.push_str(&format!(
                "{idx},{},{},{},{},{},{},{},{:.2},{},{},{},{},{top_link},{top_us},{},{:.1},{:.1},{:.1}",
                idx as u64 * self.window_us,
                w.arrivals,
                w.completions,
                w.calls,
                w.local_calls,
                w.remote_messages,
                w.batches,
                w.mean_batch(),
                w.queue_depth_peak,
                w.pool_live_peak,
                w.pool_misses,
                w.busy_us(),
                w.latency_count(),
                self.window_quantile_us(idx, 0.50),
                self.window_quantile_us(idx, 0.95),
                self.window_quantile_us(idx, 0.99),
            ));
            if self.faulted {
                out.push_str(&format!(
                    ",{},{},{}",
                    w.recoveries, w.degraded, w.replica_served
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Renders a textual sparkline dashboard (`--timeline -`): one row per
    /// signal, windows left to right, each glyph scaled to the row's peak.
    /// Series longer than 64 windows are downsampled by per-group maxima.
    pub fn dashboard(&self) -> String {
        let span_ms = self.scalars.len() as u64 * self.window_us;
        let mut out = format!(
            "timeline: {} window(s) x {}us ({:.1} ms simulated)\n",
            self.scalars.len(),
            self.window_us,
            span_ms as f64 / 1000.0,
        );
        let views: Vec<Window> = self.windows();
        type Row<'a> = (&'a str, Box<dyn Fn(usize, &Window) -> u64 + 'a>);
        let mut rows: Vec<Row<'_>> = vec![
            ("arrivals", Box::new(|_, w| w.arrivals)),
            ("completions", Box::new(|_, w| w.completions)),
            ("remote_msgs", Box::new(|_, w| w.remote_messages)),
            ("queue_peak", Box::new(|_, w| w.queue_depth_peak)),
            ("busy_us", Box::new(|_, w| w.busy_us())),
            (
                "p99_us",
                Box::new(|idx, _| self.window_quantile_us(idx, 0.99) as u64),
            ),
        ];
        if self.faulted {
            rows.push(("degraded", Box::new(|_, w| w.degraded)));
            rows.push(("replica_srv", Box::new(|_, w| w.replica_served)));
        }
        for (name, value) in rows {
            let values: Vec<u64> = views
                .iter()
                .enumerate()
                .map(|(idx, w)| value(idx, w))
                .collect();
            let peak = values.iter().copied().max().unwrap_or(0);
            out.push_str(&format!(
                "  {name:<12} {} peak {peak}\n",
                spark(&values, 64)
            ));
        }
        out
    }
}

/// Renders values as a sparkline of at most `max_glyphs` glyphs,
/// downsampling by group maxima; all-zero rows render as low bars.
fn spark(values: &[u64], max_glyphs: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let group = values.len().div_ceil(max_glyphs).max(1);
    let grouped: Vec<u64> = values
        .chunks(group)
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect();
    let peak = grouped.iter().copied().max().unwrap_or(0).max(1);
    grouped
        .iter()
        .map(|&v| GLYPHS[((v * (GLYPHS.len() as u64 - 1)) / peak) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(window_us: u64) -> TimeSeries {
        TimeSeries::new(window_us, vec![100, 200, 400, 800])
    }

    /// One session arrival as staged counts: `pool_miss` is 0 or 1, and
    /// `pool_live` the live session count right after it.
    fn arrival(pool_miss: u64, pool_live: u64) -> WindowCounts {
        WindowCounts {
            arrivals: 1,
            pool_misses: pool_miss,
            pool_live_peak: pool_live,
            ..WindowCounts::default()
        }
    }

    #[test]
    fn observations_land_in_their_windows() {
        let mut ts = series(100);
        ts.add_counts(0, &arrival(1, 1));
        ts.add_counts(99, &arrival(0, 2));
        ts.add_counts(100, &arrival(0, 3));
        let calls = WindowCounts {
            calls: 2,
            local_calls: 1,
            remote_messages: 1,
            ..WindowCounts::default()
        };
        ts.add_counts(250, &calls);
        ts.on_completion(310, 310);
        assert_eq!(ts.windows().len(), 4);
        assert_eq!(ts.windows()[0].arrivals, 2);
        assert_eq!(ts.windows()[0].pool_misses, 1);
        assert_eq!(ts.windows()[0].pool_live_peak, 2);
        assert_eq!(ts.windows()[1].arrivals, 1);
        assert_eq!(ts.windows()[2].calls, 2);
        assert_eq!(ts.windows()[2].local_calls, 1);
        assert_eq!(ts.windows()[2].remote_messages, 1);
        assert_eq!(ts.windows()[3].completions, 1);
        assert_eq!(ts.windows()[3].latency_count(), 1);
        // 310 lands in the (200, 400] bucket: p99 interpolates inside it.
        let p99 = ts.window_quantile_us(3, 0.99);
        assert!(p99 > 200.0 && p99 <= 400.0, "p99={p99}");
    }

    #[test]
    fn merge_is_positionwise_and_order_insensitive() {
        let build = |offsets: &[u64]| {
            let mut ts = series(50);
            for &at in offsets {
                let counts = WindowCounts {
                    queue_depth_peak: at + 1,
                    ..arrival(0, 1)
                };
                ts.add_counts(at, &counts);
                ts.on_link_busy(at, (0, 1), 10);
                ts.on_completion(at, 150);
            }
            ts
        };
        let a = build(&[0, 60, 170]);
        let b = build(&[60, 200]);
        let mut ab = series(50);
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = series(50);
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.windows(), ba.windows());
        assert_eq!(ab.windows().len(), 5, "merge extends to the longer series");
        assert_eq!(ab.windows()[1].arrivals, 2);
        assert_eq!(ab.windows()[1].link_busy_us[&(0, 1)], 20);
        // Peaks sum across shards (fleet-wide upper bound).
        assert_eq!(ab.windows()[1].queue_depth_peak, 61 + 61);
        assert_eq!(ab.windows()[1].latency_count(), 2);
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn merge_rejects_mismatched_windows() {
        let mut a = series(50);
        a.merge_from(&series(100));
    }

    #[test]
    fn slo_counts_violations_and_attributes_worst_window() {
        let mut ts = series(100);
        // Window 0: fast completions. Window 2: slow ones plus busy link
        // and class compute to attribute.
        for _ in 0..10 {
            ts.on_completion(10, 50);
        }
        ts.on_completion(250, 700);
        ts.on_completion(260, 700);
        ts.on_link_busy(250, (0, 2), 90);
        ts.on_link_busy(250, (0, 1), 30);
        ts.on_class_busy(250, 7, 40);
        let slo = ts.slo(400);
        assert_eq!(slo.measured_windows, 2);
        assert_eq!(slo.violations, 1);
        let worst = slo.worst.clone().expect("worst window");
        assert_eq!(worst.index, 2);
        assert_eq!(worst.start_us, 200);
        assert_eq!(worst.link, Some(((0, 2), 90)));
        assert_eq!(worst.class, Some((7, 40)));
        assert!(slo.render_human().contains("1/2 window(s) in violation"));
        assert!(slo.render_json().contains("\"link\":\"0->2\""));
        // A generous target has zero violations but still attributes.
        assert_eq!(ts.slo(10_000).violations, 0);
    }

    #[test]
    fn renders_are_deterministic_and_cover_every_window() {
        let build = || {
            let mut ts = series(100);
            ts.add_counts(5, &arrival(1, 1));
            ts.on_batch_flush(120, 3);
            ts.on_link_busy(120, (0, 1), 55);
            ts.on_completion(390, 210);
            ts
        };
        let a = build();
        assert_eq!(a.to_json(), build().to_json());
        assert_eq!(a.to_csv(), build().to_csv());
        assert_eq!(a.dashboard(), build().dashboard());
        assert_eq!(a.to_csv().lines().count(), 1 + a.windows().len());
        assert!(a.to_json().contains("\"mean_batch\":3.00"));
        assert!(a.dashboard().contains("p99_us"));
        // Untouched window 2 still renders (fixed-width windows).
        assert!(a.to_json().contains("\"w\":2"));
    }

    #[test]
    fn fault_columns_render_only_when_marked() {
        let mut plain = series(100);
        plain.add_counts(5, &arrival(0, 1));
        plain.on_completion(150, 120);
        let baseline_json = plain.to_json();
        let baseline_csv = plain.to_csv();
        assert!(!baseline_json.contains("recoveries"));
        assert!(!baseline_csv.contains("degraded"));
        assert!(!plain.dashboard().contains("replica_srv"));

        let mut faulted = plain.clone();
        faulted.mark_faulted();
        assert!(faulted.to_json().contains("\"recoveries\":0"));
        let header = faulted.to_csv().lines().next().unwrap().to_string();
        assert!(header.ends_with("recoveries,degraded,replica_served"));
        assert!(faulted.dashboard().contains("degraded"));
        let counts = WindowCounts {
            recoveries: 1,
            degraded: 2,
            replica_served: 3,
            ..WindowCounts::default()
        };
        faulted.add_counts(10, &counts);
        assert!(faulted
            .to_json()
            .contains("\"recoveries\":1,\"degraded\":2,\"replica_served\":3"));

        // The flag survives merging in either position; merging only
        // unfaulted series leaves the baseline bytes untouched.
        let mut merged = series(100);
        merged.merge_from(&plain);
        assert!(!merged.faulted());
        assert_eq!(merged.to_json(), baseline_json);
        merged.merge_from(&faulted);
        assert!(merged.faulted());
        assert_eq!(
            merged.window(0).degraded,
            2,
            "fault counters fold through merges"
        );
    }

    #[test]
    fn sparkline_downsamples_long_series() {
        let values: Vec<u64> = (0..1000).collect();
        let line = spark(&values, 64);
        assert!(line.chars().count() <= 64);
        assert!(line.ends_with('█'), "final group holds the peak");
        assert_eq!(spark(&[0, 0, 0], 64), "▁▁▁", "all-zero rows stay low");
    }
}
