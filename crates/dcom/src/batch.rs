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
//! and calls [`LinkBatcher::drain`] when that event fires. This keeps the
//! module synchronous, single-threaded, and trivially deterministic.

use coign_com::{ComError, MachineId};
use std::collections::HashMap;

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
    /// Open batches failed as units because their link died
    /// ([`LinkBatcher::fail_open`]).
    pub failed_batches: u64,
    /// Messages drained with a typed error from failed batches.
    pub failed_messages: u64,
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
    open: HashMap<LinkKey, Vec<PendingMessage<T>>>,
    stats: BatchStats,
}

impl<T> LinkBatcher<T> {
    /// Creates a batcher with the given coalescing window.
    pub fn new(window_us: u64) -> Self {
        LinkBatcher {
            window_us,
            open: HashMap::new(),
            stats: BatchStats::default(),
        }
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
        let queue = self.open.entry(link).or_default();
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
        self.open.remove(&link).unwrap_or_default()
    }

    /// Fails the link's open batch because the link died (machine down or
    /// partition) with the batch still coalescing. Every member is drained
    /// in enqueue order, paired with a clone of the typed `error`, so the
    /// caller can re-resolve each call (retry, failover) instead of
    /// silently charging transit on a dead link. The link becomes idle; a
    /// still-scheduled flush event will find nothing to drain. Failing an
    /// idle link is a no-op.
    pub fn fail_open(
        &mut self,
        link: LinkKey,
        error: &ComError,
    ) -> Vec<(PendingMessage<T>, ComError)> {
        let members = self.open.remove(&link).unwrap_or_default();
        if !members.is_empty() {
            self.stats.failed_batches += 1;
            self.stats.failed_messages += members.len() as u64;
        }
        members
            .into_iter()
            .map(|message| (message, error.clone()))
            .collect()
    }

    /// Messages currently waiting in the link's open batch.
    #[cfg(test)]
    fn pending(&self, link: LinkKey) -> usize {
        self.open.get(&link).map_or(0, Vec::len)
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
    fn fail_open_drains_members_with_the_typed_error() {
        let mut b: LinkBatcher<u32> = LinkBatcher::new(50);
        assert!(b.enqueue(link(), 100, 7, 0).is_some());
        assert!(b.enqueue(link(), 200, 8, 10).is_none());
        let dead = ComError::MachineDown(MachineId(1));
        let failed = b.fail_open(link(), &dead);
        assert_eq!(
            failed
                .iter()
                .map(|(m, _)| (m.bytes, m.payload))
                .collect::<Vec<_>>(),
            [(100, 7), (200, 8)],
            "members drain in enqueue order"
        );
        assert!(
            failed.iter().all(|(_, e)| *e == dead),
            "every member carries the typed link-death error"
        );
        assert_eq!(b.pending(link()), 0);
        let stats = b.stats();
        assert_eq!(stats.failed_batches, 1);
        assert_eq!(stats.failed_messages, 2);
        // Failing an idle link is a no-op and counts nothing.
        assert!(b.fail_open(link(), &dead).is_empty());
        assert_eq!(b.stats().failed_batches, 1);
        // The link is idle again: the next message opens a fresh window,
        // and the still-scheduled flush of the failed batch finds nothing.
        assert!(b.enqueue(link(), 10, 9, 100).is_some());
        assert_eq!(b.drain(link()).len(), 1);
    }

    #[test]
    fn zero_window_flushes_at_now() {
        let mut b: LinkBatcher<()> = LinkBatcher::new(0);
        assert_eq!(b.enqueue(link(), 1, (), 777), Some(777));
    }
}
