//! Per-link ICC message batching.
//!
//! A distributed Coign application at serving scale sends many small
//! cut-crossing messages to the same destination machine within a few
//! microseconds of each other — thousands of concurrent sessions all talk
//! to the same server replica. Charging every message the full per-message
//! network latency models each call as a lonely datagram; real RPC stacks
//! coalesce. This module implements the batching discipline the serving
//! harness uses:
//!
//! * **Window semantics** — the first message enqueued on an idle link
//!   opens a batch that *flushes* `window_us` later; messages arriving
//!   before the flush join the open batch. A closed (flushed) link is idle
//!   again, so the next message opens a fresh window. Latency cost: a
//!   message waits at most `window_us` for the flush, then the whole batch
//!   pays **one** per-message latency instead of one per member.
//! * **Pipelining** — batch members serialize back-to-back at link
//!   bandwidth, so member *i* arrives at
//!   `flush + latency + Σ_{j≤i} ser(bytes_j)`: the wire is kept busy and
//!   later members queue behind earlier ones, exactly like a pipelined RPC
//!   channel.
//!
//! The batcher is deliberately passive: it never owns a clock or an event
//! queue. The caller (the discrete-event shard loop in `coign::serve`)
//! schedules the flush event at the time [`LinkBatcher::enqueue`] returns
//! and calls [`LinkBatcher::drain_into`] (or [`LinkBatcher::drain`]) when
//! that event fires. This keeps the module synchronous, single-threaded,
//! and trivially deterministic.
//!
//! A batcher talks over a handful of directed links (a serve shard: its
//! client→server link plus the replica targets failover adds), so each
//! link's open batch lives in a slot of a small vec found by a linear
//! scan: an index compare per message instead of a keyed hash. A slot is
//! never removed, so an idle link keeps its emptied buffer, and a caller
//! that drains into one recycled buffer of its own allocates nothing per
//! flush once the buffers have grown.

use coign_com::MachineId;

/// A directed machine-to-machine link.
pub type LinkKey = (MachineId, MachineId);

/// One message waiting in an open batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingMessage<T> {
    /// Marshaled size of the message in bytes.
    pub bytes: u64,
    /// Caller-defined routing payload (e.g. a session id).
    pub payload: T,
}

/// Why a batch flushed: the two bounds of the Nagle-style discipline.
///
/// The batcher itself only knows the window; the caller schedules the
/// actual flush at `max(window_close, link_free)` and therefore knows
/// which bound won. It reports the reason back via
/// [`LinkBatcher::note_flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The coalescing window expired on an idle link.
    WindowExpired,
    /// The link was still transmitting when the window closed; the batch
    /// kept coalescing until the link freed up.
    LinkFreed,
}

/// Running totals over a batcher's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches opened (= flush events the caller scheduled).
    pub batches: u64,
    /// Messages enqueued across all batches.
    pub messages: u64,
    /// Total marshaled bytes enqueued.
    pub bytes: u64,
    /// Flushes fired because the window expired ([`FlushReason::WindowExpired`]).
    pub window_flushes: u64,
    /// Flushes held open until the link freed ([`FlushReason::LinkFreed`]).
    pub link_free_flushes: u64,
}

/// Per-link batch accumulator with a fixed coalescing window.
///
/// # Examples
///
/// ```
/// use coign_com::MachineId;
/// use coign_dcom::batch::LinkBatcher;
///
/// let link = (MachineId::CLIENT, MachineId(1));
/// let mut batcher: LinkBatcher<u32> = LinkBatcher::new(100);
/// // First message opens the window: flush due at now + 100.
/// assert_eq!(batcher.enqueue(link, 256, 7, 1_000), Some(1_100));
/// // A second message within the window joins silently.
/// assert_eq!(batcher.enqueue(link, 64, 8, 1_050), None);
/// let batch = batcher.drain(link);
/// assert_eq!(batch.len(), 2);
/// // The link is idle again: the next message opens a new window.
/// assert_eq!(batcher.enqueue(link, 32, 9, 1_200), Some(1_300));
/// ```
#[derive(Debug)]
pub struct LinkBatcher<T> {
    window_us: u64,
    /// One slot per directed link ever enqueued on, in first-use order;
    /// an empty buffer is an idle link.
    open: Vec<(LinkKey, Vec<PendingMessage<T>>)>,
    stats: BatchStats,
}

impl<T> LinkBatcher<T> {
    /// Creates a batcher with the given coalescing window.
    pub fn new(window_us: u64) -> Self {
        LinkBatcher {
            window_us,
            open: Vec::new(),
            stats: BatchStats::default(),
        }
    }

    /// Index of the link's slot, if the link has ever been enqueued on.
    fn position(&self, link: LinkKey) -> Option<usize> {
        self.open.iter().position(|(key, _)| *key == link)
    }

    /// Adds a message to the link's open batch, opening one if the link is
    /// idle. Returns `Some(flush_at_us)` when this call opened the batch —
    /// the caller must schedule a flush event at that time and eventually
    /// [`drain`](LinkBatcher::drain) the link. Returns `None` when the
    /// message joined an already-open batch whose flush is already
    /// scheduled.
    pub fn enqueue(&mut self, link: LinkKey, bytes: u64, payload: T, now_us: u64) -> Option<u64> {
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        let i = self.position(link).unwrap_or_else(|| {
            self.open.push((link, Vec::new()));
            self.open.len() - 1
        });
        let queue = &mut self.open[i].1;
        queue.push(PendingMessage { bytes, payload });
        if queue.len() == 1 {
            self.stats.batches += 1;
            Some(now_us.saturating_add(self.window_us))
        } else {
            None
        }
    }

    /// Closes the link's open batch and returns its messages in enqueue
    /// order. Called when the flush event fires; the link becomes idle.
    pub fn drain(&mut self, link: LinkKey) -> Vec<PendingMessage<T>> {
        match self.position(link) {
            Some(i) => std::mem::take(&mut self.open[i].1),
            None => Vec::new(),
        }
    }

    /// [`drain`](LinkBatcher::drain) without allocating: `out` (whatever it
    /// held is discarded) receives the link's open batch in enqueue order,
    /// and the link keeps `out`'s old buffer, capacity and all, for its
    /// next batch. A caller that drains every flush into one recycled
    /// buffer allocates nothing per flush once the buffers have grown.
    pub fn drain_into(&mut self, link: LinkKey, out: &mut Vec<PendingMessage<T>>) {
        out.clear();
        if let Some(i) = self.position(link) {
            std::mem::swap(&mut self.open[i].1, out);
        }
    }

    /// Fails the link's open batch because the link died (machine down or
    /// partition) with the batch still coalescing: every member lands in
    /// `out` in enqueue order, as with [`drain_into`](LinkBatcher::drain_into),
    /// so the caller can re-resolve each call (retry, failover) instead of
    /// silently charging transit on a dead link. No flush is noted. The
    /// link becomes idle; a still-scheduled flush event will find nothing
    /// to drain. Failing an idle link leaves `out` empty.
    pub fn fail_open(&mut self, link: LinkKey, out: &mut Vec<PendingMessage<T>>) {
        self.drain_into(link, out);
    }

    /// Messages currently waiting in the link's open batch.
    #[cfg(test)]
    fn pending(&self, link: LinkKey) -> usize {
        self.position(link).map_or(0, |i| self.open[i].1.len())
    }

    /// Records why a flush fired. The caller — who scheduled the flush at
    /// `max(window_close, link_free)` and so knows which bound won —
    /// reports the reason when it drains the link.
    pub fn note_flush(&mut self, reason: FlushReason) {
        match reason {
            FlushReason::WindowExpired => self.stats.window_flushes += 1,
            FlushReason::LinkFreed => self.stats.link_free_flushes += 1,
        }
    }

    /// Lifetime totals.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkKey {
        (MachineId::CLIENT, MachineId(1))
    }

    #[test]
    fn first_message_opens_window_followers_join() {
        let mut b: LinkBatcher<&str> = LinkBatcher::new(50);
        assert_eq!(b.enqueue(link(), 100, "a", 200), Some(250));
        assert_eq!(b.enqueue(link(), 200, "b", 210), None);
        assert_eq!(b.enqueue(link(), 300, "c", 249), None);
        assert_eq!(b.pending(link()), 3);
        let batch = b.drain(link());
        assert_eq!(
            batch.iter().map(|m| m.payload).collect::<Vec<_>>(),
            ["a", "b", "c"],
            "drain preserves enqueue order"
        );
        assert_eq!(b.pending(link()), 0);
        // Idle again: a new window opens.
        assert_eq!(b.enqueue(link(), 10, "d", 400), Some(450));
    }

    #[test]
    fn links_batch_independently() {
        let forward = (MachineId::CLIENT, MachineId(1));
        let reverse = (MachineId(1), MachineId::CLIENT);
        let mut b: LinkBatcher<u8> = LinkBatcher::new(10);
        assert!(b.enqueue(forward, 1, 0, 0).is_some());
        assert!(
            b.enqueue(reverse, 1, 1, 0).is_some(),
            "each direction of a link is its own batch"
        );
        assert_eq!(b.drain(forward).len(), 1);
        assert_eq!(b.drain(reverse).len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut b: LinkBatcher<()> = LinkBatcher::new(10);
        b.enqueue(link(), 100, (), 0);
        b.enqueue(link(), 50, (), 5);
        b.drain(link());
        b.enqueue(link(), 25, (), 100);
        b.drain(link());
        let stats = b.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.bytes, 175);
    }

    #[test]
    fn flush_reasons_accumulate_separately() {
        let mut b: LinkBatcher<()> = LinkBatcher::new(10);
        b.enqueue(link(), 1, (), 0);
        b.drain(link());
        b.note_flush(FlushReason::WindowExpired);
        b.enqueue(link(), 1, (), 50);
        b.drain(link());
        b.note_flush(FlushReason::LinkFreed);
        b.enqueue(link(), 1, (), 90);
        b.drain(link());
        b.note_flush(FlushReason::LinkFreed);
        let stats = b.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.window_flushes, 1);
        assert_eq!(stats.link_free_flushes, 2);
        assert_eq!(
            stats.window_flushes + stats.link_free_flushes,
            stats.batches,
            "every flush has exactly one reason"
        );
    }

    #[test]
    fn untouched_batcher_reports_no_flushes() {
        // The `--no-batch` invariant: a batcher the caller never feeds
        // opens no batch and records no flush of either kind.
        let b: LinkBatcher<u32> = LinkBatcher::new(150);
        let stats = b.stats();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.window_flushes + stats.link_free_flushes, 0);
    }

    #[test]
    fn fail_open_drains_members_into_the_buffer() {
        let mut b: LinkBatcher<u32> = LinkBatcher::new(50);
        assert!(b.enqueue(link(), 100, 7, 0).is_some());
        assert!(b.enqueue(link(), 200, 8, 10).is_none());
        let mut failed = Vec::new();
        b.fail_open(link(), &mut failed);
        assert_eq!(
            failed
                .iter()
                .map(|m| (m.bytes, m.payload))
                .collect::<Vec<_>>(),
            [(100, 7), (200, 8)],
            "members drain in enqueue order"
        );
        assert_eq!(b.pending(link()), 0);
        let stats = b.stats();
        assert_eq!(stats.window_flushes + stats.link_free_flushes, 0);
        // Failing an idle link leaves the buffer empty.
        b.fail_open(link(), &mut failed);
        assert!(failed.is_empty());
        // The link is idle again: the next message opens a fresh window,
        // and the still-scheduled flush of the failed batch finds nothing.
        assert!(b.enqueue(link(), 10, 9, 100).is_some());
        assert_eq!(b.drain(link()).len(), 1);
    }

    #[test]
    fn drain_into_swaps_buffers_so_a_recycled_flush_allocates_nothing() {
        let mut b: LinkBatcher<u32> = LinkBatcher::new(50);
        let mut out = Vec::with_capacity(8);
        out.push(PendingMessage {
            bytes: 1,
            payload: 99,
        });
        for round in 0..3u32 {
            b.enqueue(link(), 10, round, u64::from(round) * 100);
            b.enqueue(link(), 20, round + 10, u64::from(round) * 100 + 1);
            b.drain_into(link(), &mut out);
            assert_eq!(
                out.iter().map(|m| m.payload).collect::<Vec<_>>(),
                [round, round + 10],
                "round {round}: the batch, and nothing stale"
            );
            assert_eq!(b.pending(link()), 0);
            out.clear();
        }
        // Two buffers circulate between the caller and the link's slot,
        // and neither is reallocated once grown.
        let ptr = out.as_ptr();
        b.enqueue(link(), 10, 1, 1_000);
        b.drain_into(link(), &mut out);
        out.clear();
        b.enqueue(link(), 10, 2, 2_000);
        b.drain_into(link(), &mut out);
        assert_eq!(out.as_ptr(), ptr, "the buffer came back around");
        // An unknown link drains nothing.
        b.drain_into((MachineId(7), MachineId(8)), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_window_flushes_at_now() {
        let mut b: LinkBatcher<()> = LinkBatcher::new(0);
        assert_eq!(b.enqueue(link(), 1, (), 777), Some(777));
    }

    /// The batcher as it was before links had slots: a SipHash map whose
    /// entry is removed by every drain. The reference the slot table must
    /// match step for step.
    struct MapBatcher<T> {
        window_us: u64,
        open: std::collections::HashMap<LinkKey, Vec<PendingMessage<T>>>,
        stats: BatchStats,
    }

    impl<T> MapBatcher<T> {
        fn enqueue(&mut self, link: LinkKey, bytes: u64, payload: T, now_us: u64) -> Option<u64> {
            self.stats.messages += 1;
            self.stats.bytes += bytes;
            let queue = self.open.entry(link).or_default();
            queue.push(PendingMessage { bytes, payload });
            if queue.len() == 1 {
                self.stats.batches += 1;
                Some(now_us.saturating_add(self.window_us))
            } else {
                None
            }
        }

        fn drain(&mut self, link: LinkKey) -> Vec<PendingMessage<T>> {
            self.open.remove(&link).unwrap_or_default()
        }

        fn pending(&self, link: LinkKey) -> usize {
            self.open.get(&link).map_or(0, Vec::len)
        }

        fn note_flush(&mut self, reason: FlushReason) {
            match reason {
                FlushReason::WindowExpired => self.stats.window_flushes += 1,
                FlushReason::LinkFreed => self.stats.link_free_flushes += 1,
            }
        }
    }

    #[test]
    fn slot_table_matches_the_map_batcher_step_for_step() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Two links share a source machine, and one pair is used in both
        // directions.
        let links: [LinkKey; 5] = [
            (MachineId::CLIENT, MachineId(1)),
            (MachineId::CLIENT, MachineId(2)),
            (MachineId(1), MachineId::CLIENT),
            (MachineId(2), MachineId(3)),
            (MachineId(3), MachineId(1)),
        ];
        for seed in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let window = rng.gen_range(0..200);
            let mut slots: LinkBatcher<u32> = LinkBatcher::new(window);
            let mut map = MapBatcher {
                window_us: window,
                open: std::collections::HashMap::new(),
                stats: BatchStats::default(),
            };
            // Reused across steps; it keeps its capacity, and sometimes
            // still holds a stale member when it is handed back.
            let mut out = Vec::new();
            let mut now = 0u64;
            for step in 0..64u32 {
                now += rng.gen_range(0..50u64);
                let link = links[rng.gen_range(0..links.len())];
                let case = format!("seed {seed} step {step} link {link:?}");
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let bytes = rng.gen_range(0..4_096);
                        assert_eq!(
                            slots.enqueue(link, bytes, step, now),
                            map.enqueue(link, bytes, step, now),
                            "flush time, {case}"
                        );
                    }
                    5 => assert_eq!(slots.drain(link), map.drain(link), "drain, {case}"),
                    6 | 7 => {
                        if rng.gen_bool(0.5) {
                            out.clear();
                        }
                        if rng.gen_bool(0.5) {
                            slots.drain_into(link, &mut out);
                        } else {
                            slots.fail_open(link, &mut out);
                        }
                        assert_eq!(out, map.drain(link), "drain_into/fail_open, {case}");
                    }
                    _ => {
                        let reason = if rng.gen_bool(0.5) {
                            FlushReason::WindowExpired
                        } else {
                            FlushReason::LinkFreed
                        };
                        slots.note_flush(reason);
                        map.note_flush(reason);
                    }
                }
                for l in links {
                    assert_eq!(slots.pending(l), map.pending(l), "pending {l:?}, {case}");
                }
                assert_eq!(slots.stats(), map.stats, "stats, {case}");
            }
        }
    }
}
