//! A hand-rolled work-stealing thread pool.
//!
//! The offline-dependency constraint rules out rayon, so this module
//! provides the minimal pool the workspace's batch-level parallelism
//! needs — fleet batches (`SocFleet::run`), model-checker twins
//! (`explore_pool`) and the synthesis fan-out (`synthesize_batch`):
//! persistent workers, one deque per worker, and stealing from the back
//! of other workers' deques when a worker's own deque drains. Work is
//! submitted through [`WorkStealingPool::map`], one *scope* per call: it
//! does not return until every job has finished, which is what lets
//! jobs borrow stack data from the caller.
//!
//! Claiming is counter-based: a worker first claims the *right* to one
//! job under the sync lock (or sleeps on the condvar when none are
//! pending), then scans the deques for an actual job. The invariant
//! "unpopped jobs ≥ outstanding claims" makes the scan always succeed,
//! so no wakeup can be lost and no busy-waiting is needed.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job with an erased lifetime. Safety: [`WorkStealingPool::run`] blocks
/// until all jobs of its scope completed, so borrows never dangle.
type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct SyncState {
    /// Jobs pushed but not yet claimed by a worker.
    unclaimed: usize,
    /// Jobs claimed and currently executing.
    inflight: usize,
    /// First panic payload captured from a job.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    sync: Mutex<SyncState>,
    /// Lock-free mirror of `SyncState::unclaimed`, letting idle workers
    /// spin briefly before parking on the condvar: back-to-back scopes
    /// (the model checker maps one per frontier super-chunk) then skip
    /// a futex wakeup per scope.
    pending: AtomicUsize,
    shutting_down: AtomicBool,
    /// Spin budget before parking; zero when the machine cannot host
    /// every worker on its own core (spinning would steal cycles from
    /// the submitting thread instead of hiding wakeup latency).
    spin_iters: u32,
    /// Workers park here when no job is pending.
    work_cv: Condvar,
    /// The submitting thread sleeps here until the scope drains.
    done_cv: Condvar,
}

/// A fixed-size work-stealing pool; see the module docs.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes scopes: two concurrent `map` calls would otherwise
    /// wait on each other's jobs.
    scope_lock: Mutex<()>,
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkStealingPool {
    /// Spawns a pool of `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sync: Mutex::new(SyncState::default()),
            pending: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            spin_iters: if threads < cores { SPIN_ITERS } else { 0 },
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lis-sim-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            workers,
            scope_lock: Mutex::new(()),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs every job to completion before returning. Jobs may borrow
    /// from the caller's stack; if any job panics, the first panic is
    /// re-raised here after the whole scope has drained.
    fn run<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        // Poison-tolerant: a previous scope may have re-raised a job
        // panic while holding this lock; the pool itself stays valid.
        let _scope = self
            .scope_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = jobs.len();
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: the loop below does not return until `unclaimed`
            // and `inflight` are both zero, i.e. every job has run to
            // completion — no borrow inside a job outlives this call.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            self.shared.queues[i % self.shared.queues.len()]
                .lock()
                .unwrap()
                .push_back(job);
        }
        let mut sync = self.shared.sync.lock().unwrap();
        sync.unclaimed += n;
        self.shared.pending.fetch_add(n, Ordering::Release);
        self.shared.work_cv.notify_all();
        while sync.unclaimed > 0 || sync.inflight > 0 {
            sync = self.shared.done_cv.wait(sync).unwrap();
        }
        if let Some(payload) = sync.panic.take() {
            drop(sync);
            resume_unwind(payload);
        }
    }

    /// Applies `f` to every item on the pool, preserving order. Items
    /// run as one scope: the call returns once all of them finished,
    /// re-raising the first panic, so `f` may borrow from the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let slots = &slots;
                let f = &f;
                Box::new(move || {
                    *slots[i].lock().unwrap() = Some(f(item));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run(jobs);
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("job filled its slot"))
            .collect()
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.sync.lock().unwrap().shutdown = true;
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Spin iterations before a worker parks on the condvar (roughly tens
/// of microseconds — enough to bridge the gap between two back-to-back
/// scopes without a futex round-trip).
const SPIN_ITERS: u32 = 20_000;

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        // Wait for pending work: spin briefly, then park.
        let mut spins = 0u32;
        while shared.pending.load(Ordering::Acquire) == 0 {
            if shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins > shared.spin_iters {
                let mut sync = shared.sync.lock().unwrap();
                loop {
                    if sync.shutdown {
                        return;
                    }
                    if sync.unclaimed > 0 {
                        break;
                    }
                    sync = shared.work_cv.wait(sync).unwrap();
                }
                break;
            }
            std::hint::spin_loop();
        }
        // Claim the right to one job (another worker may have beaten us
        // to it — then just go back to waiting).
        {
            let mut sync = shared.sync.lock().unwrap();
            if sync.shutdown {
                return;
            }
            if sync.unclaimed == 0 {
                continue;
            }
            sync.unclaimed -= 1;
            shared.pending.fetch_sub(1, Ordering::Release);
            sync.inflight += 1;
        }
        // A claim guarantees a job exists somewhere: pop own queue from
        // the front, steal from the back of the others.
        let job = 'find: loop {
            if let Some(job) = shared.queues[me].lock().unwrap().pop_front() {
                break 'find job;
            }
            for k in 1..shared.queues.len() {
                let victim = (me + k) % shared.queues.len();
                if let Some(job) = shared.queues[victim].lock().unwrap().pop_back() {
                    break 'find job;
                }
            }
            // Another claimant popped "our" job between scans; the
            // invariant says one is still coming — yield and rescan.
            std::thread::yield_now();
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        let mut sync = shared.sync.lock().unwrap();
        if let Err(payload) = result {
            sync.panic.get_or_insert(payload);
        }
        sync.inflight -= 1;
        if sync.unclaimed == 0 && sync.inflight == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let pool = WorkStealingPool::new(4);
        let out = pool.map((0..100u64).collect(), |v| v * v);
        assert_eq!(out, (0..100u64).map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_jobs_may_borrow_stack_data() {
        let pool = WorkStealingPool::new(3);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..32)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        // The pool is reusable across scopes.
        pool.run(vec![Box::new(|| {
            hits.fetch_add(10, Ordering::Relaxed);
        })]);
        assert_eq!(hits.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn panics_propagate_after_the_scope_drains() {
        let pool = WorkStealingPool::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("job boom")),
                Box::new(|| {
                    done.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            pool.run(jobs);
        }));
        assert!(result.is_err(), "panic must cross the pool boundary");
        assert_eq!(done.load(Ordering::Relaxed), 1, "other jobs still ran");
        // And the pool survives for the next scope.
        assert_eq!(pool.map(vec![1, 2], |v| v + 1), vec![2, 3]);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkStealingPool::new(1);
        assert_eq!(pool.map(vec![5u32], |v| v + 1), vec![6]);
    }
}
