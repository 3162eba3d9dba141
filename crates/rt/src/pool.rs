//! Pluggable execution backends: a [`Backend`] trait with a serial
//! implementation and a reusable std-only worker pool.
//!
//! Every parallel hot path in the workspace (MSM windows, SumCheck round
//! extension, MLE Update, witness commits, batch proving) funnels through a
//! `Backend`, so one pool instance — created once per session — serves every
//! proof instead of spawning fresh scoped threads per call (a μ=20 proof
//! runs ~60 SumCheck rounds, each of which used to pay spawn+join per
//! worker).
//!
//! # Determinism
//!
//! Backends only decide *where* closures run. The mapping helpers
//! ([`map_ranges`], [`map_indices_on`]) split work into deterministic
//! contiguous chunks and hand results back **in chunk order**, so any
//! left-to-right combine of exact arithmetic is bit-identical across
//! [`Serial`], `ThreadPool::new(1)` and `ThreadPool::new(64)`.
//!
//! # Nesting
//!
//! [`ThreadPool::execute`] lets the submitting thread help drain the queue
//! while it waits, so a job may itself call `execute` on the same pool
//! (batch proving fans out proofs whose MSMs fan out windows) without
//! deadlocking: every waiting thread is either running a job or parked with
//! an empty queue.
//!
//! Nested submissions are scheduled depth-first: jobs pushed from *inside*
//! a pool job go to the **front** of the queue, top-level submissions to
//! the back. Without this, a running wave's inner fan-out (scheduler wave →
//! prove → MSM chunks) would queue behind every prove job submitted after
//! it, so one deep wave could stall arbitrarily long behind a steady stream
//! of fresh top-level work. Depth-first ordering bounds the wait at "the
//! jobs already running", and since waiting threads drain the queue
//! themselves, top-level throughput is unaffected.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Whether the current thread is inside a pool job; nested `execute`
    /// calls detect this and push their jobs to the queue front so inner
    /// fan-out cannot starve behind later top-level submissions.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Runs one queued job with the thread-local nesting flag set. The queued
/// wrappers capture panics themselves, so the flag is always restored.
fn run_job(job: Job) {
    IN_POOL_JOB.with(|flag| {
        let prev = flag.replace(true);
        job();
        flag.set(prev);
    });
}

/// A unit of work submitted to a [`Backend`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// An execution strategy for fanning independent jobs out over threads.
///
/// Implementations must run every submitted job exactly once and return from
/// [`Backend::execute`] only when all of them have completed. They are free
/// to run jobs in any order and on any thread — determinism is the
/// responsibility of the mapping helpers, which combine results in
/// submission order.
pub trait Backend: Send + Sync + fmt::Debug {
    /// Short human-readable name ("serial", "thread-pool").
    fn name(&self) -> &'static str;

    /// The number of threads work should be split into (including the
    /// submitting thread).
    fn threads(&self) -> usize;

    /// Runs every job to completion, possibly concurrently.
    fn execute(&self, jobs: Vec<Job>);
}

/// Runs every job in submission order on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Serial;

impl Backend for Serial {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn threads(&self) -> usize {
        1
    }

    fn execute(&self, jobs: Vec<Job>) {
        for job in jobs {
            job();
        }
    }
}

/// Shared pool state: pending jobs plus the shutdown flag.
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when jobs are pushed or shutdown is requested.
    work_ready: Condvar,
}

/// Completion tracking for one `execute` call.
struct ExecGroup {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A reusable worker pool built only on `std`: `threads - 1` persistent
/// worker threads block on a condvar-guarded queue, and the thread calling
/// [`Backend::execute`] works the queue too while it waits, so a pool of
/// `n` threads really applies `n` threads to the work.
///
/// `ThreadPool::new(1)` spawns no workers at all and degenerates to the
/// exact serial path.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool that applies `threads` threads to submitted work
    /// (`threads - 1` spawned workers plus the submitting thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "ThreadPool: need at least one thread");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zkspeed-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            threads,
            workers,
        }
    }

    fn pop_job(&self) -> Option<Job> {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .pop_front()
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut state = shared.state.lock().expect("pool lock poisoned");
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            run_job(job);
            state = shared.state.lock().expect("pool lock poisoned");
        } else if state.shutdown {
            return;
        } else {
            state = shared.work_ready.wait(state).expect("pool lock poisoned");
        }
    }
}

impl Backend for ThreadPool {
    fn name(&self) -> &'static str {
        "thread-pool"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn execute(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        // No workers: run everything inline, in order.
        if self.workers.is_empty() {
            for job in jobs {
                job();
            }
            return;
        }
        let group = Arc::new(ExecGroup {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let nested = IN_POOL_JOB.with(Cell::get);
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            let wrapped = jobs.into_iter().map(|job| {
                let group = Arc::clone(&group);
                Box::new(move || {
                    // Capture panics so a crashing job cannot strand the
                    // submitting thread; the panic resumes there instead.
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                        *group.panic.lock().expect("pool lock poisoned") = Some(payload);
                    }
                    let mut remaining = group.remaining.lock().expect("pool lock poisoned");
                    *remaining -= 1;
                    if *remaining == 0 {
                        group.done.notify_all();
                    }
                }) as Job
            });
            if nested {
                // Depth-first: inner fan-out jumps ahead of queued top-level
                // work (reversed so the front preserves submission order).
                let wrapped: Vec<Job> = wrapped.collect();
                for job in wrapped.into_iter().rev() {
                    state.queue.push_front(job);
                }
            } else {
                state.queue.extend(wrapped);
            }
            self.shared.work_ready.notify_all();
        }
        // Help drain the queue instead of blocking immediately — this is
        // what makes nested `execute` calls from inside jobs safe.
        while let Some(job) = self.pop_job() {
            run_job(job);
        }
        let mut remaining = group.remaining.lock().expect("pool lock poisoned");
        while *remaining > 0 {
            remaining = group.done.wait(remaining).expect("pool lock poisoned");
        }
        drop(remaining);
        let payload = group.panic.lock().expect("pool lock poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The process-wide shared backend, created on first use and sized by
/// `ZKSPEED_THREADS` (falling back to the hardware parallelism). A size of 1
/// yields [`Serial`].
pub fn global() -> &'static Arc<dyn Backend> {
    static GLOBAL: OnceLock<Arc<dyn Backend>> = OnceLock::new();
    GLOBAL.get_or_init(|| backend_with_threads(crate::par::env_threads()))
}

/// Builds a backend applying `threads` threads: [`Serial`] for one,
/// [`ThreadPool`] otherwise.
pub fn backend_with_threads(threads: usize) -> Arc<dyn Backend> {
    if threads <= 1 {
        Arc::new(Serial)
    } else {
        Arc::new(ThreadPool::new(threads))
    }
}

type Slots<U> = Arc<Vec<Mutex<Option<U>>>>;

/// Applies `f` to contiguous chunks of `0..len` on `backend` and returns the
/// chunk results **in chunk order**.
///
/// The index space is split into at most [`Backend::threads`] chunks, never
/// smaller than `min_chunk` (tiny inputs stay on the calling thread). With a
/// single chunk the closure runs inline — the exact serial path.
pub fn map_ranges<U, F>(backend: &dyn Backend, len: usize, min_chunk: usize, f: F) -> Vec<U>
where
    U: Send + 'static,
    F: Fn(Range<usize>) -> U + Send + Sync + 'static,
{
    if len == 0 {
        return Vec::new();
    }
    let max_parts = if min_chunk <= 1 {
        len
    } else {
        len.div_ceil(min_chunk)
    };
    let parts = backend.threads().clamp(1, max_parts.max(1));
    if parts == 1 {
        return vec![f(0..len)];
    }
    let ranges = crate::par::split_ranges(len, parts);
    let f = Arc::new(f);
    let slots: Slots<U> = Arc::new((0..ranges.len()).map(|_| Mutex::new(None)).collect());
    let jobs: Vec<Job> = ranges
        .into_iter()
        .enumerate()
        .map(|(i, range)| {
            let f = Arc::clone(&f);
            let slots = Arc::clone(&slots);
            Box::new(move || {
                let value = f(range);
                *slots[i].lock().expect("pool slot poisoned") = Some(value);
            }) as Job
        })
        .collect();
    backend.execute(jobs);
    slots
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("pool slot poisoned")
                .take()
                .expect("pool job completed without storing a result")
        })
        .collect()
}

/// Applies `f` to every index in `0..len` on `backend`, returning results in
/// index order.
pub fn map_indices_on<U, F>(backend: &dyn Backend, len: usize, f: F) -> Vec<U>
where
    U: Send + 'static,
    F: Fn(usize) -> U + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut chunks = map_ranges(backend, len, 1, move |range| {
        range.map(|i| f(i)).collect::<Vec<U>>()
    });
    if chunks.len() == 1 {
        return chunks.pop().unwrap();
    }
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_runs_jobs_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Job> = (0..5)
            .map(|i| {
                let log = Arc::clone(&log);
                Box::new(move || log.lock().unwrap().push(i)) as Job
            })
            .collect();
        Serial.execute(jobs);
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(Serial.threads(), 1);
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..100)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        pool.execute(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let pool = ThreadPool::new(3);
        for round in 0..50 {
            let sum = Arc::new(AtomicUsize::new(0));
            let jobs: Vec<Job> = (0..8)
                .map(|i| {
                    let sum = Arc::clone(&sum);
                    Box::new(move || {
                        sum.fetch_add(round * 10 + i, Ordering::SeqCst);
                    }) as Job
                })
                .collect();
            pool.execute(jobs);
            let expect: usize = (0..8).map(|i| round * 10 + i).sum();
            assert_eq!(sum.load(Ordering::SeqCst), expect, "round {round}");
        }
    }

    #[test]
    fn nested_execute_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    let inner_jobs: Vec<Job> = (0..4)
                        .map(|_| {
                            let counter = Arc::clone(&counter);
                            Box::new(move || {
                                counter.fetch_add(1, Ordering::SeqCst);
                            }) as Job
                        })
                        .collect();
                    pool.execute(inner_jobs);
                }) as Job
            })
            .collect();
        pool.execute(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn nested_jobs_jump_ahead_of_queued_top_level_work() {
        // Regression test for the depth-first nesting discipline: a job's
        // inner fan-out must not wait for the dozens of top-level jobs that
        // were already queued behind it. We submit [nest, 60 fillers] in one
        // wave; `nest` fans out four inner jobs. With front-of-queue nested
        // scheduling the inner jobs all run before the queue's filler
        // backlog drains; with FIFO scheduling they would run dead last.
        let pool = Arc::new(ThreadPool::new(2));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mut jobs: Vec<Job> = Vec::new();
        {
            let pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            jobs.push(Box::new(move || {
                let inner: Vec<Job> = (0..4)
                    .map(|_| {
                        let order = Arc::clone(&order);
                        Box::new(move || order.lock().unwrap().push("nested")) as Job
                    })
                    .collect();
                pool.execute(inner);
            }));
        }
        for _ in 0..60 {
            let order = Arc::clone(&order);
            jobs.push(Box::new(move || {
                order.lock().unwrap().push("filler");
                // Keep fillers slow enough that the backlog outlives the
                // nested wave.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }));
        }
        pool.execute(jobs);
        let order = order.lock().unwrap();
        let last_nested = order.iter().rposition(|s| *s == "nested").unwrap();
        let last_filler = order.iter().rposition(|s| *s == "filler").unwrap();
        assert_eq!(order.iter().filter(|s| **s == "nested").count(), 4);
        assert!(
            last_nested < last_filler,
            "nested wave finished at position {last_nested}, after the \
             filler backlog ({last_filler})"
        );
    }

    #[test]
    fn pool_propagates_job_panics() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(vec![
                Box::new(|| {}) as Job,
                Box::new(|| panic!("job exploded")) as Job,
            ]);
        }));
        assert!(result.is_err(), "panic must reach the submitting thread");
        // The pool survives and keeps working afterwards.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = Arc::clone(&ok);
        pool.execute(vec![Box::new(move || {
            ok2.fetch_add(1, Ordering::SeqCst);
        }) as Job]);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn map_ranges_is_backend_invariant() {
        let work = |r: Range<usize>| r.map(|i| i * i).sum::<usize>();
        let serial: usize = map_ranges(&Serial, 1000, 1, work).into_iter().sum();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let parallel: usize = map_ranges(&pool, 1000, 1, work).into_iter().sum();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_indices_preserves_order_on_pool() {
        let pool = ThreadPool::new(4);
        let out = map_indices_on(&pool, 100, |i| 2 * i);
        assert_eq!(out, (0..100).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn min_chunk_keeps_small_inputs_inline() {
        let pool = ThreadPool::new(8);
        let chunks = map_ranges(&pool, 100, 1000, |r| r.len());
        assert_eq!(chunks, vec![100]);
    }

    #[test]
    fn backend_with_threads_picks_implementation() {
        assert_eq!(backend_with_threads(1).name(), "serial");
        assert_eq!(backend_with_threads(4).name(), "thread-pool");
        assert_eq!(backend_with_threads(4).threads(), 4);
        assert!(global().threads() >= 1);
    }
}
