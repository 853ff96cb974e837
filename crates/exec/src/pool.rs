//! Scoped worker pool for data-parallel operators and for the engine's
//! frontier scheduler.
//!
//! HELIX "defers operator pipelining and scheduling for asynchronous
//! execution to Spark" (paper §2.1); in this reproduction, operators that
//! are data-parallel (scanning, extraction, inference) split their input
//! into `workers` chunks processed on scoped threads, and the execution
//! engine dispatches whole ready DAG nodes onto the same pool width via
//! [`WorkerPool::with_executor`]. The pool width plays the role of
//! cluster size in the paper's scalability experiment (Figure 7b:
//! 2/4/8 workers).
//!
//! Built on `std::thread::scope` — no external thread crate needed.
//!
//! ## Core-token budgeting
//!
//! A pool may carry a shared [`CoreBudget`] handle
//! ([`WorkerPool::budgeted`]). Such a pool treats its width as a *ceiling*,
//! not an entitlement: before spawning extra threads it leases tokens from
//! the budget (non-blocking) and runs with however many it was granted —
//! down to fully inline on the caller's thread when the budget is
//! exhausted. Crucially, work is always *chunked* by the nominal width and
//! combined in chunk order, so the grant size affects wall-clock time
//! only, never results. This is how node-level and data-level parallelism
//! split the same cores instead of multiplying into `workers²` threads.

use crate::budget::{CoreBudget, CoreLease};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};

/// A fixed-width data-parallel executor, optionally governed by a shared
/// core-token budget.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    workers: usize,
    budget: Option<Arc<CoreBudget>>,
}

impl WorkerPool {
    /// Pool with `workers` threads (minimum 1), unbudgeted.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool { workers: workers.max(1), budget: None }
    }

    /// Pool with `workers` as a ceiling, drawing extra threads from a
    /// shared core budget.
    pub fn budgeted(workers: usize, budget: Arc<CoreBudget>) -> WorkerPool {
        WorkerPool { workers: workers.max(1), budget: Some(budget) }
    }

    /// Single-threaded pool.
    pub fn serial() -> WorkerPool {
        WorkerPool { workers: 1, budget: None }
    }

    /// Number of workers (the nominal width; a budgeted pool may run
    /// narrower).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared core budget, if this pool is governed by one.
    pub fn budget(&self) -> Option<&Arc<CoreBudget>> {
        self.budget.as_ref()
    }

    /// Lease up to `wanted` extra threads beyond the caller's own. An
    /// unbudgeted pool always grants in full.
    fn lease_extra(&self, wanted: usize) -> (usize, Option<CoreLease<'_>>) {
        match &self.budget {
            Some(budget) if wanted > 0 => {
                let lease = budget.try_acquire(wanted);
                (lease.tokens(), Some(lease))
            }
            _ => (wanted, None),
        }
    }

    /// Map `f` over `items` in parallel, preserving input order.
    ///
    /// Chunks are contiguous ranges of roughly equal size derived from the
    /// *nominal* width — a budgeted pool granted fewer tokens executes the
    /// same chunk list on fewer threads, so results are identical either
    /// way. With one worker the map runs inline (no thread overhead for
    /// the serial baseline).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items.iter().map(&f).collect();
        }
        let chunk = items.len().div_ceil(self.workers);
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let mut jobs: Vec<(&[T], &mut [Option<R>])> = Vec::new();
        {
            let mut remaining: &mut [Option<R>] = &mut out;
            for piece in items.chunks(chunk) {
                let (slot, rest) = remaining.split_at_mut(piece.len());
                remaining = rest;
                jobs.push((piece, slot));
            }
        }
        let (extra, lease) = self.lease_extra(jobs.len() - 1);
        let queue = Mutex::new(jobs.into_iter());
        let work = || loop {
            let job = queue.lock().expect("map queue poisoned").next();
            let Some((piece, slot)) = job else { break };
            for (s, item) in slot.iter_mut().zip(piece) {
                *s = Some(f(item));
            }
        };
        if extra == 0 {
            work();
        } else {
            std::thread::scope(|scope| {
                let worker = &work;
                for _ in 0..extra {
                    scope.spawn(worker);
                }
                work();
            });
        }
        drop(lease);
        out.into_iter().map(|r| r.expect("all slots filled")).collect()
    }

    /// Fold each parallel chunk with `fold`, then combine chunk results
    /// with `combine` (deterministic: chunking follows the nominal width
    /// and combination happens in chunk order, independent of how many
    /// threads the budget granted).
    pub fn map_reduce<T, A, F, C>(&self, items: &[T], init: A, fold: F, combine: C) -> A
    where
        T: Sync,
        A: Send + Clone,
        F: Fn(A, &T) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items.iter().fold(init, &fold);
        }
        let chunk = items.len().div_ceil(self.workers);
        let pieces: Vec<&[T]> = items.chunks(chunk).collect();
        let mut partials: Vec<Option<A>> = Vec::with_capacity(pieces.len());
        partials.resize_with(pieces.len(), || None);
        // Init clones are made up front on the caller thread so worker
        // closures never touch `init` itself (keeps the bounds at
        // `A: Send + Clone`, no `Sync` required).
        let mut jobs: Vec<(&[T], &mut Option<A>, A)> = Vec::new();
        {
            let mut remaining: &mut [Option<A>] = &mut partials;
            for piece in pieces {
                let (slot, rest) = remaining.split_at_mut(1);
                remaining = rest;
                jobs.push((piece, &mut slot[0], init.clone()));
            }
        }
        let (extra, lease) = self.lease_extra(jobs.len() - 1);
        let queue = Mutex::new(jobs.into_iter());
        let work = || loop {
            let job = queue.lock().expect("map_reduce queue poisoned").next();
            let Some((piece, slot, seed)) = job else { break };
            *slot = Some(piece.iter().fold(seed, &fold));
        };
        if extra == 0 {
            work();
        } else {
            std::thread::scope(|scope| {
                let worker = &work;
                for _ in 0..extra {
                    scope.spawn(worker);
                }
                work();
            });
        }
        drop(lease);
        let mut iter = partials.into_iter().map(|p| p.expect("all partials filled"));
        let first = iter.next().unwrap_or(init);
        iter.fold(first, combine)
    }

    /// Run `coordinator` with a dynamic work-submission handle backed by
    /// `self.workers` scoped threads.
    ///
    /// Jobs submitted through the [`Executor`] are executed by `worker` in
    /// FIFO submission order (picked up as threads free up) and completions
    /// are delivered through [`Executor::recv`] in *completion* order. The
    /// engine's frontier scheduler is the main client: it submits every
    /// ready DAG node and retires nodes as they finish.
    ///
    /// Shutdown is structural: when `coordinator` returns, the queue is
    /// closed and all workers join before `with_executor` returns.
    ///
    /// On a budgeted pool the worker count is `1 + granted`: one worker is
    /// backed by the caller's own token (the coordinator mostly blocks in
    /// [`Executor::recv`] while workers run), and each extra worker needs
    /// a token leased from the shared budget. A tight budget degrades to a
    /// single worker, never to zero.
    ///
    /// A single worker is never a thread: like [`map`](Self::map) at
    /// width 1, [`Executor::recv`] then runs the oldest queued job on the
    /// caller's thread and returns its output.
    pub fn with_executor<J, O, W, C, R>(&self, worker: W, coordinator: C) -> R
    where
        J: Send,
        O: Send,
        W: Fn(J) -> O + Sync,
        C: FnOnce(&Executor<'_, J, O>) -> R,
    {
        let (extra, lease) = self.lease_extra(self.workers - 1);
        let spawn_count = match &self.budget {
            None => self.workers,
            Some(_) => 1 + extra,
        };
        let queue = TaskQueue::new();
        if spawn_count == 1 {
            let executor = Executor { queue: &queue, completions: Completions::Inline(&worker) };
            return coordinator(&executor);
        }
        let (tx, rx) = channel::<O>();
        let result = std::thread::scope(|scope| {
            for _ in 0..spawn_count {
                let queue = &queue;
                let worker = &worker;
                let tx = tx.clone();
                scope.spawn(move || {
                    // If this worker's job panics, close the queue on the
                    // way out: surviving workers then drain and exit, their
                    // senders drop, and a blocked `Executor::recv` fails
                    // loudly instead of deadlocking the coordinator with
                    // a completion that will never arrive.
                    let _guard = PanicGuard { queue };
                    while let Some(job) = queue.pop() {
                        if tx.send(worker(job)).is_err() {
                            break; // coordinator gone; stop early
                        }
                    }
                });
            }
            drop(tx);
            let executor = Executor { queue: &queue, completions: Completions::Threads(rx) };
            // Close via a drop guard, not a trailing statement: if the
            // coordinator panics, parked workers must still be released
            // or the scope's implicit join would hang forever.
            let _close = CloseOnDrop { queue: &queue };
            coordinator(&executor)
        });
        drop(lease);
        result
    }
}

/// Closes the job queue when a worker thread unwinds (see
/// [`WorkerPool::with_executor`]).
struct PanicGuard<'a, J> {
    queue: &'a TaskQueue<J>,
}

impl<J> Drop for PanicGuard<'_, J> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.queue.close();
        }
    }
}

/// Closes the job queue when the coordinator finishes — by return or by
/// panic.
struct CloseOnDrop<'a, J> {
    queue: &'a TaskQueue<J>,
}

impl<J> Drop for CloseOnDrop<'_, J> {
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// Handle passed to the coordinator closure of
/// [`WorkerPool::with_executor`].
pub struct Executor<'a, J, O> {
    queue: &'a TaskQueue<J>,
    completions: Completions<'a, J, O>,
}

/// Where [`Executor::recv`] gets its next completion.
enum Completions<'a, J, O> {
    /// Worker threads send each output as they finish.
    Threads(Receiver<O>),
    /// No worker thread: the caller runs the oldest queued job itself.
    Inline(&'a dyn Fn(J) -> O),
}

impl<J, O> Executor<'_, J, O> {
    /// Enqueue a job for the worker threads.
    pub fn submit(&self, job: J) {
        self.queue.push(job);
    }

    /// Block until the next completion arrives.
    ///
    /// Panics if every worker died without producing one (a worker
    /// panicked mid-job, which also closes the queue and releases the
    /// rest); the originating panic is re-raised when the scope joins.
    /// With no worker threads the job runs here, so its panic unwinds
    /// straight through the caller; calling `recv` with nothing
    /// submitted panics too.
    pub fn recv(&self) -> O {
        match &self.completions {
            Completions::Threads(results) => results
                .recv()
                .expect("a worker panicked with completions outstanding; aborting executor"),
            Completions::Inline(worker) => {
                worker(self.queue.try_pop().expect("recv with no job submitted"))
            }
        }
    }
}

/// A closable MPMC FIFO of pending jobs.
///
/// Public because it is the I/O-lane building block outside the pool too:
/// the pipelined engine's background materialization writer drains one of
/// these from a long-lived thread, exactly as `with_executor`'s workers
/// drain theirs.
pub struct TaskQueue<J> {
    state: Mutex<QueueState<J>>,
    ready: Condvar,
}

struct QueueState<J> {
    jobs: VecDeque<J>,
    closed: bool,
}

impl<J> Default for TaskQueue<J> {
    fn default() -> TaskQueue<J> {
        TaskQueue::new()
    }
}

impl<J> TaskQueue<J> {
    /// New open, empty queue.
    pub fn new() -> TaskQueue<J> {
        TaskQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue a job (no-op if the queue is closed).
    pub fn push(&self, job: J) {
        let mut state = self.state.lock().expect("queue poisoned");
        if !state.closed {
            state.jobs.push_back(job);
        }
        drop(state);
        self.ready.notify_one();
    }

    /// Block for the next job; `None` once closed and drained.
    pub fn pop(&self) -> Option<J> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// The next job if one is waiting; never blocks.
    fn try_pop(&self) -> Option<J> {
        self.state.lock().expect("queue poisoned").jobs.pop_front()
    }

    /// Close the queue: consumers drain what is left, then see `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.map(&items, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_empty_and_single() {
        let pool = WorkerPool::new(4);
        assert!(pool.map(&Vec::<u32>::new(), |x| *x).is_empty());
        assert_eq!(pool.map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn map_reduce_matches_serial() {
        let items: Vec<u64> = (1..=100).collect();
        let serial: u64 = items.iter().sum();
        for workers in [1, 3, 8] {
            let pool = WorkerPool::new(workers);
            let total = pool.map_reduce(&items, 0u64, |acc, x| acc + x, |a, b| a + b);
            assert_eq!(total, serial, "workers={workers}");
        }
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(&[1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn parallel_speedup_on_cpu_bound_work() {
        // A coarse smoke test: 4 workers should not be slower than 1 on
        // embarrassingly parallel work (allowing generous scheduling slack).
        let items: Vec<u64> = (0..64).collect();
        let busy = |x: &u64| -> u64 {
            let mut acc = *x;
            for i in 0..200_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let t1 = std::time::Instant::now();
        let serial = WorkerPool::serial().map(&items, busy);
        let serial_time = t1.elapsed();
        let t2 = std::time::Instant::now();
        let parallel = WorkerPool::new(4).map(&items, busy);
        let parallel_time = t2.elapsed();
        assert_eq!(serial, parallel);
        assert!(
            parallel_time < serial_time * 2,
            "parallel {parallel_time:?} vs serial {serial_time:?}"
        );
    }

    #[test]
    fn executor_runs_all_jobs() {
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let total: u64 = pool.with_executor(
                |job: u64| job * 2,
                |executor| {
                    for job in 0..100u64 {
                        executor.submit(job);
                    }
                    (0..100).map(|_| executor.recv()).sum()
                },
            );
            assert_eq!(total, (0..100u64).map(|j| j * 2).sum(), "workers={workers}");
        }
    }

    #[test]
    fn executor_supports_incremental_submission() {
        // Submit → recv → submit again (the frontier-scheduling shape).
        let pool = WorkerPool::new(3);
        let outputs = pool.with_executor(
            |job: u32| job + 1,
            |executor| {
                let mut out = Vec::new();
                executor.submit(0);
                for _ in 0..10 {
                    let done = executor.recv();
                    out.push(done);
                    if done < 10 {
                        executor.submit(done);
                    }
                }
                out
            },
        );
        assert_eq!(outputs, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // One of four jobs panics; the coordinator is blocked in recv()
        // for a completion that will never come. The panic guard must turn
        // that into a loud panic (propagated here), not an infinite hang.
        let outcome = std::panic::catch_unwind(|| {
            let pool = WorkerPool::new(2);
            pool.with_executor(
                |job: u32| {
                    if job == 2 {
                        panic!("boom in worker");
                    }
                    job
                },
                |executor| {
                    for job in 0..4 {
                        executor.submit(job);
                    }
                    let mut total = 0;
                    for _ in 0..4 {
                        total += executor.recv();
                    }
                    total
                },
            )
        });
        assert!(outcome.is_err(), "worker panic must propagate to the caller");
    }

    #[test]
    fn coordinator_panic_releases_workers_instead_of_hanging() {
        // The coordinator panics while workers are parked on the queue:
        // the close-on-drop guard must release them so the scope joins
        // and the panic propagates, rather than deadlocking.
        let outcome = std::panic::catch_unwind(|| {
            let pool = WorkerPool::new(4);
            pool.with_executor(
                |job: u32| job,
                |executor| {
                    executor.submit(1);
                    let _ = executor.recv();
                    panic!("coordinator bug");
                },
            )
        });
        assert!(outcome.is_err(), "coordinator panic must propagate to the caller");
    }

    #[test]
    fn budgeted_map_matches_unbudgeted_at_any_grant() {
        // Same items, same nominal width, three budget situations: full
        // grant, partial grant, zero grant (budget pre-drained). Results
        // must be byte-identical in every case.
        let items: Vec<u64> = (0..257).collect();
        let expected = WorkerPool::new(4).map(&items, |x| x * 3 + 1);
        for (total, hold) in [(8usize, 0usize), (8, 6), (1, 1)] {
            let budget = Arc::new(CoreBudget::new(total));
            let hold_lease = budget.try_acquire(hold);
            assert_eq!(hold_lease.tokens(), hold);
            let pool = WorkerPool::budgeted(4, Arc::clone(&budget));
            assert_eq!(pool.map(&items, |x| x * 3 + 1), expected, "total={total} hold={hold}");
            assert_eq!(budget.leased(), hold, "map lease released");
        }
    }

    #[test]
    fn budgeted_map_reduce_is_grant_invariant() {
        let items: Vec<u64> = (1..=1000).collect();
        let expected = WorkerPool::new(8).map_reduce(&items, 0u64, |acc, x| acc + x, |a, b| a + b);
        let budget = Arc::new(CoreBudget::new(1));
        // Whole budget consumed elsewhere: map_reduce must run inline and
        // still produce the identical (chunk-ordered) result.
        let _hold = budget.acquire_one();
        let pool = WorkerPool::budgeted(8, Arc::clone(&budget));
        let total = pool.map_reduce(&items, 0u64, |acc, x| acc + x, |a, b| a + b);
        assert_eq!(total, expected);
        assert_eq!(budget.peak_leased(), 1, "no extra thread was ever backed");
    }

    #[test]
    fn budgeted_pools_never_exceed_the_shared_budget() {
        // Two "sessions" hammer budgeted pools concurrently; the token
        // high-water mark must respect the shared budget even though each
        // pool's nominal width alone would exceed it.
        let budget = Arc::new(CoreBudget::new(3));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let budget = Arc::clone(&budget);
                scope.spawn(move || {
                    let base = budget.acquire_one();
                    let pool = WorkerPool::budgeted(8, Arc::clone(&budget));
                    let items: Vec<u64> = (0..64).collect();
                    for _ in 0..20 {
                        let out = pool.map(&items, |x| x.wrapping_mul(31).wrapping_add(7));
                        assert_eq!(out.len(), 64);
                    }
                    drop(base);
                });
            }
        });
        assert!(
            budget.peak_leased() <= 3,
            "peak {} tokens exceeds the budget of 3",
            budget.peak_leased()
        );
        assert_eq!(budget.leased(), 0);
    }

    #[test]
    fn budgeted_executor_runs_with_a_drained_budget() {
        let budget = Arc::new(CoreBudget::new(1));
        let _hold = budget.acquire_one();
        let pool = WorkerPool::budgeted(4, Arc::clone(&budget));
        let total: u32 = pool.with_executor(
            |job: u32| job * 2,
            |executor| {
                for job in 0..10 {
                    executor.submit(job);
                }
                (0..10).map(|_| executor.recv()).sum()
            },
        );
        assert_eq!(total, (0..10u32).map(|j| j * 2).sum(), "single leased-free worker suffices");
    }

    #[test]
    fn single_worker_executor_runs_jobs_on_the_caller_thread() {
        // The two pools that get no worker thread: an unbudgeted width of
        // 1, and a budgeted width of 4 whose budget is drained.
        let budget = Arc::new(CoreBudget::new(1));
        let _hold = budget.acquire_one();
        let caller = std::thread::current().id();
        for pool in [WorkerPool::new(1), WorkerPool::budgeted(4, Arc::clone(&budget))] {
            let outputs: Vec<(u32, bool)> = pool.with_executor(
                |job: u32| (job, std::thread::current().id() == caller),
                |executor| {
                    for job in 0..5 {
                        executor.submit(job);
                    }
                    (0..5).map(|_| executor.recv()).collect()
                },
            );
            assert_eq!(outputs, (0..5).map(|job| (job, true)).collect::<Vec<_>>());
            assert_eq!(pool.with_executor(|job: u8| job, |_executor| 42u8), 42, "zero jobs");
            let outcome = std::panic::catch_unwind(|| {
                pool.with_executor(
                    |job: u32| if job == 1 { panic!("boom inline") } else { job },
                    |executor| {
                        executor.submit(0);
                        executor.submit(1);
                        executor.recv() + executor.recv()
                    },
                )
            });
            assert!(outcome.is_err(), "an inline job's panic must reach the caller");
        }
    }

    #[test]
    fn executor_with_zero_jobs_shuts_down_cleanly() {
        let pool = WorkerPool::new(4);
        let out = pool.with_executor(|job: u8| job, |_executor| 42u8);
        assert_eq!(out, 42);
    }

    #[test]
    fn executor_overlaps_blocking_jobs() {
        // Jobs that *wait* (sleeping, like throttled disk I/O) must overlap
        // even on a single-core machine: 4 × 60 ms on 4 workers should take
        // nowhere near the serial 240 ms.
        let wait = |ms: u64| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        };
        let pool = WorkerPool::new(4);
        let start = std::time::Instant::now();
        pool.with_executor(wait, |executor| {
            for _ in 0..4 {
                executor.submit(60);
            }
            for _ in 0..4 {
                std::hint::black_box(executor.recv());
            }
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "4 overlapping 60 ms jobs took {elapsed:?}"
        );
    }
}
