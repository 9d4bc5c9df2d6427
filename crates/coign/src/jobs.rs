//! The repo's determinism idiom for parallel work, defined once: run `n`
//! index-addressed jobs on a bounded pool of worker threads and hand the
//! results back in index order, so whatever merges them (profiles, shard
//! reports, chaos trials, explore interleavings) never sees the thread
//! schedule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(0) … job(n-1)` on up to `jobs` worker threads (at least one,
/// at most `n`) and returns the results in index order.
///
/// A one-worker pool is the caller's own thread: the jobs run inline, in
/// index order, with no thread spawned (and so no second allocator arena
/// for a shard or trial to grow). Thread-local state a job leaves behind,
/// such as `coign_flow::min_cut_invocations`, is then the caller's.
///
/// Workers claim indices from a shared ticket counter, so a slow job never
/// idles the pool; each result lands in its own slot, so completion order
/// is invisible to the caller. A job's `Err` is just its result — it comes
/// back in its slot for the caller to propagate in index order. A panicking
/// job panics the caller when the pool joins.
pub fn run_indexed<T: Send>(n: usize, jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = jobs.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Relaxed: the counter only hands out tickets; results are published by
    // the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                *slots[i].lock().expect("result slot is locked only here") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked, or the scope would have")
                .expect("every index below n was claimed and filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        for jobs in [1, 2, 8] {
            // With a second worker, jobs 0 and 1 rendezvous, so they are
            // provably in flight on two threads at once.
            let both_running = std::sync::Barrier::new(2);
            let out = run_indexed(24, jobs, |i| {
                if jobs > 1 && i < 2 {
                    both_running.wait();
                }
                i * i
            });
            let expected: Vec<usize> = (0..24).map(|i| i * i).collect();
            assert_eq!(out, expected, "order broke at jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_yield_an_empty_result_without_calling_the_closure() {
        for jobs in [0, 1, 8] {
            let out: Vec<u8> = run_indexed(0, jobs, |_| unreachable!("no index to run"));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn fewer_jobs_than_workers_still_fills_every_slot() {
        assert_eq!(run_indexed(3, 8, |i| i + 1), vec![1, 2, 3]);
        // A zero worker count is clamped to one, not a hang.
        assert_eq!(run_indexed(3, 0, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn an_err_in_one_slot_is_returned_in_place_not_swallowed() {
        for jobs in [1, 2, 8] {
            let out: Vec<Result<usize, String>> = run_indexed(6, jobs, |i| {
                if i == 4 {
                    Err(format!("job {i} failed"))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(out.len(), 6);
            assert_eq!(out[4], Err("job 4 failed".to_string()));
            assert!(out.iter().enumerate().all(|(i, r)| i == 4 || *r == Ok(i)));
            // Collecting propagates it, exactly like the call sites do.
            let collected: Result<Vec<usize>, String> = out.into_iter().collect();
            assert_eq!(collected, Err("job 4 failed".to_string()));
        }
    }

    #[test]
    fn a_one_worker_pool_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (n, jobs) in [(5, 0), (5, 1), (1, 8)] {
            let out = run_indexed(n, jobs, |i| (i, std::thread::current().id()));
            assert_eq!(
                out,
                (0..n).map(|i| (i, caller)).collect::<Vec<_>>(),
                "n={n} jobs={jobs}"
            );
        }
        // Two workers really are other threads.
        let out = run_indexed(2, 2, |_| std::thread::current().id());
        assert!(out.iter().all(|id| *id != caller));
    }
}
