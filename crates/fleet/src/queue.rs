//! The fleet's worker pools: a bounded work-stealing job queue and an
//! ordered parallel map.
//!
//! The coordinator pushes jobs into a bounded *injector*; each worker
//! drains a private local deque, refilling it in batches from the
//! injector and stealing half a victim's backlog when both run dry.
//! Batched dispatch amortizes lock traffic; stealing keeps the pool
//! busy when board costs are skewed (a TSS board's deep Vmin walk takes
//! several times longer than a TFF board's shallow one).
//!
//! The queue only decides *which worker runs which job when* — job
//! results are pure functions of the job, and the aggregation layer
//! sorts before folding — so none of the (intentionally racy) dispatch
//! order here can leak into campaign output.
//!
//! When the job list is known up front and nothing is requeued,
//! [`par_map_ordered`] is the simpler pool: workers claim indices from
//! one shared cursor and the results come back in input order.

use std::collections::VecDeque;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

/// Counters describing how work actually flowed through the queue.
/// Execution-side diagnostics only: never part of deterministic output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs pushed by the coordinator.
    pub pushed: u64,
    /// Batch refills from the injector into a worker's local deque.
    pub batches: u64,
    /// Steal operations between workers.
    pub steals: u64,
    /// Jobs surrendered back to the injector by retiring workers.
    pub returned: u64,
}

#[derive(Debug)]
struct Shared<T> {
    injector: VecDeque<T>,
    locals: Vec<VecDeque<T>>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded multi-producer work-stealing queue for `workers` consumers.
#[derive(Debug)]
pub struct FleetQueue<T> {
    shared: Mutex<Shared<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    batch: usize,
}

impl<T> FleetQueue<T> {
    /// Creates a queue for `workers` consumers with a bounded injector.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `capacity` or `batch` is zero.
    pub fn new(workers: usize, capacity: usize, batch: usize) -> Self {
        assert!(workers > 0, "queue needs at least one worker");
        assert!(capacity > 0, "queue needs positive capacity");
        assert!(batch > 0, "dispatch batch must be positive");
        FleetQueue {
            shared: Mutex::new(Shared {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            batch,
        }
    }

    /// Pushes one job, blocking while the injector is at capacity.
    /// Pushing after [`close`](Self::close) is a no-op (the job is
    /// dropped); the orchestrator never does this.
    pub fn push(&self, job: T) {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        while shared.injector.len() >= self.capacity && !shared.closed {
            shared = self.not_full.wait(shared).expect("fleet queue poisoned");
        }
        if shared.closed {
            return;
        }
        shared.injector.push_back(job);
        shared.stats.pushed += 1;
        drop(shared);
        self.not_empty.notify_all();
    }

    /// Takes the next job for `worker`, blocking until one is available
    /// or the queue is closed and fully drained (then `None`).
    ///
    /// Preference order: own local deque, then a batch refill from the
    /// injector, then stealing half of the largest backlog.
    pub fn next(&self, worker: usize) -> Option<T> {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        loop {
            if let Some(job) = shared.locals[worker].pop_front() {
                return Some(job);
            }
            if !shared.injector.is_empty() {
                let take = self.batch.min(shared.injector.len());
                for _ in 0..take {
                    let job = shared.injector.pop_front().expect("checked non-empty");
                    shared.locals[worker].push_back(job);
                }
                shared.stats.batches += 1;
                self.not_full.notify_all();
                continue;
            }
            if let Some(victim) = self.richest_victim(&shared, worker) {
                let backlog = shared.locals[victim].len();
                let take = (backlog / 2).max(1);
                for _ in 0..take {
                    let job = shared.locals[victim].pop_front().expect("victim non-empty");
                    shared.locals[worker].push_back(job);
                }
                shared.stats.steals += 1;
                continue;
            }
            if shared.closed {
                return None;
            }
            shared = self.not_empty.wait(shared).expect("fleet queue poisoned");
        }
    }

    fn richest_victim(&self, shared: &Shared<T>, worker: usize) -> Option<usize> {
        shared
            .locals
            .iter()
            .enumerate()
            .filter(|(idx, local)| *idx != worker && !local.is_empty())
            .max_by_key(|(_, local)| local.len())
            .map(|(idx, _)| idx)
    }

    /// Retires `worker`: its local deque — including any half-backlog it
    /// stole and had not yet run — goes back to the *front* of the
    /// injector exactly once, preserving dispatch order, and other
    /// workers are woken to pick the returned items up. A retired
    /// worker that calls [`next`](Self::next) again just competes for
    /// work normally (its deque is empty, not poisoned); the
    /// orchestrator's dead-worker path never does.
    ///
    /// Returns how many items the dying worker surrendered.
    pub fn retire(&self, worker: usize) -> usize {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        let held = std::mem::take(&mut shared.locals[worker]);
        let returned = held.len();
        // Front-of-injector, original order: the first surrendered item
        // was the next one the worker would have run.
        for job in held.into_iter().rev() {
            shared.injector.push_front(job);
        }
        shared.stats.returned += returned as u64;
        drop(shared);
        if returned > 0 {
            self.not_empty.notify_all();
        }
        returned
    }

    /// Closes the queue: blocked consumers drain the remaining jobs and
    /// then observe `None`; blocked producers unblock.
    pub fn close(&self) {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        shared.closed = true;
        drop(shared);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current flow counters.
    pub fn stats(&self) -> QueueStats {
        self.shared.lock().expect("fleet queue poisoned").stats
    }
}

/// Maps `f` over `jobs` on `workers.min(jobs.len()).max(1)` scoped
/// threads and returns the results in input order.
///
/// Each thread claims the next unclaimed index from one shared atomic
/// cursor, so which thread runs which job, and when, is racy. None of
/// that can reach the output: every result is stored under its job's
/// index, and the indices are put back in order before returning. So
/// when `f` is a pure function of its job, the output equals
/// `jobs.iter().map(f).collect()` for any worker count. That one
/// argument is what makes every chronicle built on this pool
/// byte-identical across pool sizes.
///
/// `workers == 0` runs as one worker.
///
/// # Panics
///
/// If a job panics, its thread stops and the other threads run the
/// remaining jobs; then the job's original payload (the first, in
/// thread spawn order, if several panicked) is re-raised in the caller
/// with [`std::panic::resume_unwind`].
pub fn par_map_ordered<J: Sync, R: Send>(
    workers: usize,
    jobs: &[J],
    f: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    // `Relaxed` suffices: the cursor only hands out indices, and the
    // results reach the caller through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(jobs.len()).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            break;
                        };
                        done.push((i, f(job)));
                    }
                    done
                })
            })
            .collect();
        let mut all = Vec::with_capacity(jobs.len());
        for handle in handles {
            match handle.join() {
                Ok(done) => all.extend(done),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn drains_in_fifo_order_for_a_single_worker() {
        let queue = FleetQueue::new(1, 8, 3);
        for job in 0..5 {
            queue.push(job);
        }
        queue.close();
        let drained: Vec<i32> = std::iter::from_fn(|| queue.next(0)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        let stats = queue.stats();
        assert_eq!(stats.pushed, 5);
        assert!(stats.batches >= 2, "batch of 3 needs two refills");
    }

    #[test]
    fn close_unblocks_an_idle_consumer() {
        let queue = Arc::new(FleetQueue::<u32>::new(2, 4, 2));
        let waiter = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.next(1))
        };
        queue.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn a_bounded_injector_backpressures_the_producer() {
        let queue = Arc::new(FleetQueue::new(1, 2, 1));
        queue.push(1);
        queue.push(2);
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.push(3)) // blocks: injector full
        };
        assert_eq!(queue.next(0), Some(1));
        producer.join().unwrap();
        queue.close();
        assert_eq!(queue.next(0), Some(2));
        assert_eq!(queue.next(0), Some(3));
        assert_eq!(queue.next(0), None);
    }

    #[test]
    fn an_empty_handed_worker_steals_from_the_richest_backlog() {
        let queue = FleetQueue::new(2, 16, 8);
        for job in 0..8 {
            queue.push(job);
        }
        queue.close();
        // Worker 0 refills its local deque with the whole batch…
        assert_eq!(queue.next(0), Some(0));
        // …so worker 1 finds the injector empty and must steal.
        assert!(queue.next(1).is_some());
        assert_eq!(queue.stats().steals, 1);
        let drained = std::iter::from_fn(|| queue.next(1)).count()
            + std::iter::from_fn(|| queue.next(0)).count();
        assert_eq!(drained, 6);
    }

    #[test]
    fn a_retiring_worker_returns_its_stolen_backlog_exactly_once() {
        let queue = FleetQueue::new(2, 16, 8);
        for job in 0..8 {
            queue.push(job);
        }
        queue.close();
        // Worker 0 refills with the whole batch, worker 1 steals half of
        // it — then dies holding the stolen items.
        assert_eq!(queue.next(0), Some(0));
        assert_eq!(queue.next(1), Some(1));
        assert_eq!(queue.stats().steals, 1);
        let returned = queue.retire(1);
        assert!(returned > 0, "the dead worker held stolen items");
        assert_eq!(queue.stats().returned, returned as u64);
        // Retiring again surrenders nothing: the return happened once.
        assert_eq!(queue.retire(1), 0);
        assert_eq!(queue.stats().returned, returned as u64);
        // The survivor drains every remaining job — none lost, none
        // duplicated, and the returned items come back in order.
        let drained: Vec<i32> = std::iter::from_fn(|| queue.next(0)).collect();
        let mut expected: Vec<i32> = (2..8).collect();
        expected.sort_unstable();
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn retiring_an_idle_worker_is_a_no_op() {
        let queue = FleetQueue::<u32>::new(2, 4, 2);
        assert_eq!(queue.retire(0), 0);
        assert_eq!(queue.stats().returned, 0);
    }

    #[test]
    fn all_jobs_arrive_exactly_once_under_contention() {
        let workers = 4;
        let queue = Arc::new(FleetQueue::new(workers, 8, 2));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(job) = queue.next(w) {
                        seen.push(job);
                    }
                    seen
                })
            })
            .collect();
        for job in 0..200u32 {
            queue.push(job);
        }
        queue.close();
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    proptest! {
        /// Any pool size, including more workers than jobs, returns
        /// exactly the sequential map.
        #[test]
        fn par_map_ordered_equals_the_sequential_map(
            jobs in proptest::collection::vec(any::<u32>(), 0..65),
            workers in 1usize..17,
        ) {
            let f = |x: &u32| u64::from(*x).wrapping_mul(0x9e37_79b9) ^ 7;
            let expected: Vec<u64> = jobs.iter().map(f).collect();
            prop_assert_eq!(par_map_ordered(workers, &jobs, f), expected);
        }
    }

    #[test]
    fn zero_workers_runs_as_one_worker() {
        let jobs: Vec<u32> = (0..10).collect();
        let runners = Mutex::new(std::collections::HashSet::new());
        let doubled = par_map_ordered(0, &jobs, |x| {
            runners.lock().unwrap().insert(thread::current().id());
            x * 2
        });
        assert_eq!(doubled, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(runners.into_inner().unwrap().len(), 1);
        assert!(par_map_ordered(0, &[] as &[u32], |x| *x).is_empty());
    }

    #[test]
    fn a_job_panic_surfaces_its_own_payload() {
        let jobs: Vec<u32> = (0..8).collect();
        let caught = panic::catch_unwind(|| {
            par_map_ordered(4, &jobs, |&x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        })
        .expect_err("the job's panic reaches the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }
}
