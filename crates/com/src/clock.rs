//! Virtual time for the simulation.
//!
//! All execution-time and communication-time numbers in the reproduction are
//! *simulated*: components charge compute time explicitly and the transport
//! layer charges message latencies. Two clock disciplines coexist:
//!
//! * [`SimClock`] — a single monotone stepped clock. Correct for the
//!   client/server model because DCOM calls are synchronous — compute on
//!   either machine and time on the wire strictly serialize, so one counter
//!   that only ever moves forward captures the whole schedule. It is the
//!   degenerate (one pending event) case of the scheduler below.
//! * [`EventQueue`] — a discrete-event scheduler: an agenda of future
//!   events keyed by simulated microseconds. The serving harness
//!   multiplexes thousands of concurrent sessions whose calls interleave
//!   arbitrarily, so "advance by the cost of the current call" no longer
//!   works; instead every future happening is scheduled and the clock jumps
//!   to the earliest pending event. Ties are broken by insertion order,
//!   which keeps pop order — and therefore every simulation built on the
//!   queue — fully deterministic.

use std::cmp::Ordering as CmpOrdering;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, monotonically advancing virtual clock counting microseconds.
///
/// Cloning a `SimClock` yields a handle to the same underlying clock.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub(crate) fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    /// Advances the clock by `us` microseconds and returns the new time.
    pub fn advance_us(&self, us: u64) -> u64 {
        self.micros.fetch_add(us, Ordering::Relaxed) + us
    }
}

/// One scheduled event: a due time, an insertion sequence number for
/// deterministic tie-breaking, and an opaque payload.
///
/// Ordering ignores the payload entirely — two entries compare equal iff
/// their `(at_us, seq)` keys are equal, and `seq` is unique per queue, so
/// the heap order is a total order independent of `T`.
#[derive(Debug)]
struct Entry<T> {
    at_us: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// A discrete-event scheduler over simulated microseconds.
///
/// The queue owns its notion of "now": popping an event advances the clock
/// to that event's due time. Events scheduled in the past (a zero-delay
/// follow-up, say) are clamped to the current time rather than rewinding —
/// simulated time is monotone, exactly like [`SimClock`].
///
/// The agenda is two structures: a binary heap, and beside it a sorted
/// FIFO *run* that takes every event due no earlier than the run's last
/// one. A pre-scheduled monotone stream (a simulation's arrivals, drawn up
/// front) therefore lands in the run at O(1) a push and a pop, and the
/// heap holds only the events actually in flight.
///
/// Popping the earlier of the two heads, a tie going to the run, yields
/// exactly the `(at_us, insertion)` order one heap would. Each structure
/// hands out its own entries in that order: the run is sorted by
/// construction, and it is FIFO among equal times. And a heap entry `h` due
/// at the same time as a run entry `r` was always scheduled after `r`: `h`
/// went to the heap because the run already held an entry `b` due later
/// than `h`, `b` cannot pop before `h`, so anything scheduled while `h` is
/// pending at `h`'s time lands in the heap too. That is also what lets run
/// entries drop the sequence number, and in a simulation that pre-schedules
/// its arrivals the run is most of the agenda's memory.
///
/// # Examples
///
/// ```
/// use coign_com::EventQueue;
/// let mut q = EventQueue::default();
/// q.schedule(20, "reply");
/// q.schedule(10, "request");
/// q.schedule(10, "tiebreak-after-request");
/// assert_eq!(q.pop(), Some((10, "request")));
/// assert_eq!(q.pop(), Some((10, "tiebreak-after-request")));
/// assert_eq!(q.now_us(), 10);
/// assert_eq!(q.pop(), Some((20, "reply")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// `(at_us, payload)` in nondecreasing time order; see the type docs.
    run: VecDeque<(u64, T)>,
    seq: u64,
    now_us: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time zero.
    fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events in the
    /// run — the part a pre-scheduled monotone stream fills. The heap
    /// starts empty and grows with the events scheduled out of order;
    /// reserving `cap` there too would only raise peak memory.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            run: VecDeque::with_capacity(cap),
            seq: 0,
            now_us: 0,
        }
    }

    /// Schedules `payload` to fire at `at_us` (clamped to now if earlier)
    /// and returns the actual due time.
    pub fn schedule(&mut self, at_us: u64, payload: T) -> u64 {
        let at_us = at_us.max(self.now_us);
        let seq = self.seq;
        self.seq += 1;
        match self.run.back() {
            Some(&(last_us, _)) if at_us < last_us => self.heap.push(Reverse(Entry {
                at_us,
                seq,
                payload,
            })),
            _ => self.run.push_back((at_us, payload)),
        }
        at_us
    }

    /// Pops the earliest pending event, advancing the clock to its due
    /// time. Returns `None` when the agenda is empty (simulation done).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let (at_us, payload) = if self.run_is_next() {
            self.run.pop_front()?
        } else {
            let Reverse(entry) = self.heap.pop()?;
            (entry.at_us, entry.payload)
        };
        self.now_us = at_us;
        Some((at_us, payload))
    }

    /// Whether the run's head pops before the heap's: a tie goes to the
    /// run, whose entry is the older one (see the type docs).
    fn run_is_next(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some((run_us, _)), Some(Reverse(h))) => *run_us <= h.at_us,
            (run, _) => run.is_some(),
        }
    }

    /// Due time of the earliest pending event, if any.
    #[cfg(test)]
    fn peek_time(&self) -> Option<u64> {
        let run = self.run.front().map(|(at_us, _)| *at_us);
        let heap = self.heap.peek().map(|Reverse(e)| e.at_us);
        run.into_iter().chain(heap).min()
    }

    /// Current simulated time: the due time of the last popped event.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// Whether the agenda is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now_us(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        assert_eq!(c.advance_us(10), 10);
        assert_eq!(c.advance_us(5), 15);
        assert_eq!(c.now_us(), 15);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_us(100);
        assert_eq!(b.now_us(), 100);
    }

    #[test]
    fn event_queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.now_us(), 30);
    }

    #[test]
    fn event_queue_breaks_ties_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(42, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn event_queue_clamps_past_events_to_now() {
        let mut q = EventQueue::new();
        q.schedule(50, "late");
        assert_eq!(q.pop(), Some((50, "late")));
        // A zero-delay follow-up lands *at* now, never before it.
        assert_eq!(q.schedule(10, "clamped"), 50);
        assert_eq!(q.pop(), Some((50, "clamped")));
        assert_eq!(q.now_us(), 50);
    }

    #[test]
    fn event_queue_interleaved_schedule_and_pop_is_deterministic() {
        // The serving harness schedules follow-ups while draining; replay
        // the same trace twice and demand identical pop order.
        let run = || {
            let mut q = EventQueue::new();
            let mut order = Vec::new();
            q.schedule(5, 0u64);
            q.schedule(5, 1);
            q.schedule(9, 2);
            let mut next = 3u64;
            while let Some((t, id)) = q.pop() {
                order.push((t, id));
                if next < 12 {
                    q.schedule(t + (id % 3), next);
                    next += 1;
                }
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_queue_run_and_heap_entries_at_one_time_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(20, "run-20"); // empty run: joins it
        q.schedule(30, "run-30"); // not earlier than the run's last: run
        q.schedule(20, "heap-20"); // earlier than 30: heap, same time as run-20
        q.schedule(20, "heap-20b");
        assert_eq!(q.peek_time(), Some(20));
        assert_eq!(q.pop(), Some((20, "run-20")));
        assert_eq!(q.pop(), Some((20, "heap-20")));
        assert_eq!(q.pop(), Some((20, "heap-20b")));
        assert_eq!(q.pop(), Some((30, "run-30")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn event_queue_len_counts_the_run() {
        let mut q = EventQueue::new();
        for t in 1..=5 {
            q.schedule(t * 10, t); // a monotone stream: all in the run
        }
        assert_eq!(q.len(), 5);
        q.schedule(15, 0); // earlier than the run's last: the heap
        assert_eq!(q.len(), 6);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((15, 0)));
        assert_eq!(q.len(), 4);
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The agenda as it was before the run: one heap over `(at_us, seq)`
    /// with the same clamp-to-now rule. `seq` doubles as the payload.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
        now_us: u64,
    }

    impl Reference {
        fn schedule(&mut self, at_us: u64) -> u64 {
            let at_us = at_us.max(self.now_us);
            self.heap.push(Reverse((at_us, self.seq)));
            self.seq += 1;
            at_us
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let Reverse((at_us, seq)) = self.heap.pop()?;
            self.now_us = at_us;
            Some((at_us, seq))
        }
    }

    #[test]
    fn split_agenda_pops_exactly_as_one_heap() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut q = EventQueue::new();
            let mut model = Reference::default();
            let mut last_at = 0u64;
            for step in 0..400 {
                let now = model.now_us;
                let at = |q: &mut EventQueue<u64>, model: &mut Reference, at_us: u64| {
                    let seq = model.seq;
                    let due = model.schedule(at_us);
                    assert_eq!(q.schedule(at_us, seq), due, "case {case} step {step}");
                    due
                };
                match rng.gen_range(0..5) {
                    // An arrival-like monotone burst.
                    0 => {
                        let mut t = now + rng.gen_range(0..500u64);
                        for _ in 0..rng.gen_range(1..40) {
                            last_at = at(&mut q, &mut model, t);
                            t += rng.gen_range(0..50u64);
                        }
                    }
                    1 => last_at = at(&mut q, &mut model, now + rng.gen_range(0..2_000u64)),
                    // A tie with the last scheduled time.
                    2 => last_at = at(&mut q, &mut model, last_at),
                    // In the past: must clamp to now.
                    3 => last_at = at(&mut q, &mut model, rng.gen_range(0..=now)),
                    _ => {
                        for _ in 0..rng.gen_range(1..30) {
                            assert_eq!(q.pop(), model.pop(), "case {case} step {step}");
                        }
                    }
                }
                // (peek_time, len, is_empty, now_us)
                let observed = (q.peek_time(), q.len(), q.is_empty(), q.now_us());
                let expected = (
                    model.heap.peek().map(|Reverse((at_us, _))| *at_us),
                    model.heap.len(),
                    model.heap.is_empty(),
                    model.now_us,
                );
                assert_eq!(observed, expected, "case {case} step {step}");
            }
            while let Some(popped) = model.pop() {
                assert_eq!(q.pop(), Some(popped), "case {case} drain");
            }
            assert_eq!(q.pop(), None, "case {case} drain");
        }
    }
}
