//! Batch-level parallelism over scoped threads.
//!
//! The workspace parallelizes whole independent jobs only — fleet
//! batches (`SocFleet::run`), model-checker twins (`explore_pool`) and
//! the synthesis fan-out (`synthesize_batch`) — and every one of them
//! goes through [`map_with`]: one [`std::thread::scope`] per call, the
//! caller's thread as the first worker, items pulled in order from one
//! shared queue, results returned in item order. The scope does not
//! return before every worker has finished, so jobs may borrow from the
//! caller, and the compiler checks it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Applies `f` to every item on at most `states.len()` workers, each
/// owning one state, and returns the results in item order.
///
/// The caller's thread is the first worker, so one state or one item
/// spawns no thread. Workers pull items in order from one shared queue.
/// Every job runs even if another panics; once all have finished, the
/// first panic's payload is re-raised here.
///
/// # Panics
///
/// Panics if `states` is empty while `items` is not, and re-raises a
/// job's panic.
pub fn map_with<S, T, R, F>(states: &mut [S], items: Vec<T>, f: F) -> Vec<R>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = states.len().min(items.len());
    let (first, rest) = states[..workers]
        .split_first_mut()
        .expect("map_with needs at least one worker state");
    let queue = Mutex::new(items.into_iter().enumerate());
    let panic = Mutex::new(None);
    let work = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            // Bound before matching, so the queue lock is released
            // before the job runs.
            let next = queue
                .lock()
                .expect("no job runs under the queue lock")
                .next();
            let Some((i, item)) = next else {
                return done;
            };
            match catch_unwind(AssertUnwindSafe(|| f(state, item))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    let mut first = panic.lock().expect("no job runs under the panic lock");
                    first.get_or_insert(payload);
                }
            }
        }
    };
    let work = &work;
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        let mut done = work(first);
        for h in spawned {
            done.extend(h.join().expect("job panics are caught inside the worker"));
        }
        done
    });
    if let Some(payload) = panic
        .into_inner()
        .expect("no job runs under the panic lock")
    {
        resume_unwind(payload);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A fixed worker count for [`map_with`] over stateless jobs.
///
/// The name predates the scoped-thread design (nothing is stolen any
/// more); it is kept because the benchmark package imports it.
#[derive(Debug)]
pub struct WorkStealingPool {
    threads: usize,
}

impl WorkStealingPool {
    /// A pool of `threads` workers (at least 1). No thread starts until
    /// [`WorkStealingPool::map`] runs.
    pub fn new(threads: usize) -> Self {
        WorkStealingPool {
            threads: threads.max(1),
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, preserving order: [`map_with`] over
    /// [`WorkStealingPool::threads`] unit states.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        map_with(&mut vec![(); self.threads], items, |(), item| f(item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

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
        pool.map((0..32).collect(), |_: i32| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        // The pool is reusable across calls.
        pool.map(vec![10], |v| {
            hits.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn panics_propagate_after_the_scope_drains() {
        let pool = WorkStealingPool::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![true, false], |boom| {
                if boom {
                    panic!("job boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = result.expect_err("panic must cross the pool boundary");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job boom"));
        assert_eq!(done.load(Ordering::Relaxed), 1, "other jobs still ran");
        // And the pool survives for the next call.
        assert_eq!(pool.map(vec![1, 2], |v| v + 1), vec![2, 3]);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkStealingPool::new(1);
        assert_eq!(pool.map(vec![5u32], |v| v + 1), vec![6]);
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let on_caller = |pool: WorkStealingPool, items: Vec<u32>| {
            pool.map(items, |_| std::thread::current().id())
                .into_iter()
                .all(|id| id == caller)
        };
        assert!(on_caller(WorkStealingPool::new(1), (0..8).collect()));
        assert!(on_caller(WorkStealingPool::new(4), vec![0]));
    }

    #[test]
    fn map_with_gives_each_worker_its_own_state() {
        #[derive(Default)]
        struct Seen {
            thread: Option<ThreadId>,
            count: usize,
        }
        let mut states: Vec<Seen> = (0..3).map(|_| Seen::default()).collect();
        // A barrier (with a deadline, so a missing worker fails the test
        // instead of hanging it): each state's first job waits for the
        // other two to start, so no worker drains the queue alone.
        let started = AtomicUsize::new(0);
        let out = map_with(&mut states, (0..100u32).collect(), |seen, v| {
            let me = std::thread::current().id();
            if seen.thread.is_none() {
                seen.thread = Some(me);
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            assert_eq!(seen.thread, Some(me), "a state stays on one thread");
            seen.count += 1;
            v * 3
        });
        assert_eq!(out, (0..100u32).map(|v| v * 3).collect::<Vec<_>>());
        assert_eq!(states.iter().map(|s| s.count).sum::<usize>(), 100);
        let threads: Vec<ThreadId> = states.iter().map(|s| s.thread.unwrap()).collect();
        assert_eq!(threads[0], std::thread::current().id());
        assert!(threads[0] != threads[1] && threads[1] != threads[2] && threads[0] != threads[2]);
    }
}
