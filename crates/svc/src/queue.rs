//! The bounded multi-producer job queue behind one scheduler shard.
//!
//! Three priority classes ([`Priority`]) share one capacity bound. Pushes
//! are either rejecting ([`JobQueue::try_push`], the wire protocol's
//! backpressure signal) or parking ([`JobQueue::push_blocking`], for
//! in-process clients that prefer to wait). Pops come out in waves: the
//! scheduler takes the front job of the most urgent non-empty class, then
//! packs every queued job of the *same session and class* (up to the wave
//! size) into one `prove_batch` call.
//!
//! # Anti-starvation aging
//!
//! Strict priority order would let a steady high-priority stream starve
//! lower classes forever. Every pop that passes over a non-empty class
//! increments that class's age counter; once a counter reaches
//! `STARVATION_LIMIT` (4) the next pop is forced from that class
//! (most-starved first) and the counter resets. A low-priority wave is
//! therefore served at least once every `STARVATION_LIMIT + 1` waves while
//! higher classes stay saturated — bounded latency instead of unbounded
//! starvation.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use zkspeed_hyperplonk::{ProvingKey, Witness};
use zkspeed_rt::trace::Histogram;

use crate::sync::{lock, wait};
use crate::wire::Priority;

/// Pops a non-empty class may be passed over before it is served next
/// regardless of priority.
const STARVATION_LIMIT: u64 = 4;

/// One queued proof job.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// The service-wide job id.
    pub id: u64,
    /// Digest of the session (registered circuit) this job proves against.
    pub session: [u8; 32],
    /// The session's proving key, pinned at submission. A queued job proves
    /// with the key it was accepted under even if the session store evicts
    /// the session while the job waits.
    pub pk: Arc<ProvingKey>,
    /// The decoded witness assignment.
    pub witness: Arc<Witness>,
    /// Scheduling class.
    pub priority: Priority,
    /// When the job entered the queue. Stamped by the constructor; the
    /// queue measures class wait time from here at wave-pop.
    pub enqueued_at: Instant,
}

/// Queue state under the lock.
struct QueueState {
    classes: [VecDeque<QueuedJob>; 3],
    /// Pops that passed over each non-empty class since it was last served.
    passed_over: [u64; 3],
    /// Queue-wait latency per class (high, normal, low), recorded at the
    /// moment each job leaves the queue inside a wave.
    waits: [Histogram; 3],
    peak_depth: usize,
    closed: bool,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }
}

/// A bounded priority queue with parking producers and wave-popping
/// consumers.
pub struct JobQueue {
    state: Mutex<QueueState>,
    /// Signaled when a job is pushed or the queue closes.
    ready: Condvar,
    /// Signaled when capacity frees up.
    space: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// Creates a queue holding at most `capacity` jobs across all classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 1,
            "job queue needs capacity for at least one job"
        );
        Self {
            state: Mutex::new(QueueState {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                passed_over: [0; 3],
                waits: [Histogram::new(), Histogram::new(), Histogram::new()],
                peak_depth: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Total jobs queued right now.
    pub fn depth(&self) -> usize {
        lock(&self.state).depth()
    }

    /// Jobs queued per priority class (high, normal, low).
    pub fn depths(&self) -> [usize; 3] {
        let state = lock(&self.state);
        [0, 1, 2].map(|i| state.classes[i].len())
    }

    /// The deepest the queue has ever been.
    pub fn peak_depth(&self) -> usize {
        lock(&self.state).peak_depth
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the per-class queue-wait histograms (high, normal,
    /// low). Each job contributes its submit→pop wait, in milliseconds,
    /// to its class's histogram at the moment its wave is assembled.
    pub fn wait_histograms(&self) -> [Histogram; 3] {
        let state = lock(&self.state);
        state.waits.clone()
    }

    /// Enqueues a job, or returns it to the caller if the queue is at
    /// capacity (backpressure) or closed.
    pub fn try_push(&self, job: QueuedJob) -> Result<(), QueuedJob> {
        let mut state = lock(&self.state);
        if state.closed || state.depth() >= self.capacity {
            return Err(job);
        }
        self.push_locked(&mut state, job);
        Ok(())
    }

    /// Enqueues a job, parking the calling thread until capacity frees up.
    /// Returns the job to the caller only if the queue closes while
    /// waiting.
    pub fn push_blocking(&self, job: QueuedJob) -> Result<(), QueuedJob> {
        let mut state = lock(&self.state);
        while !state.closed && state.depth() >= self.capacity {
            state = wait(&self.space, state);
        }
        if state.closed {
            return Err(job);
        }
        self.push_locked(&mut state, job);
        Ok(())
    }

    fn push_locked(&self, state: &mut QueueState, job: QueuedJob) {
        state.classes[job.priority.index()].push_back(job);
        let depth = state.depth();
        state.peak_depth = state.peak_depth.max(depth);
        self.ready.notify_all();
    }

    /// Pops the next wave: the front job of the class chosen by
    /// priority-with-aging, plus up to `max_wave - 1` more queued jobs of
    /// the same session and class (in queue order). Blocks while the queue
    /// is empty; returns `None` once the queue is closed **and** drained.
    pub fn pop_wave(&self, max_wave: usize) -> Option<Vec<QueuedJob>> {
        let max_wave = max_wave.max(1);
        let mut state = lock(&self.state);
        loop {
            if state.depth() > 0 {
                let class = self.choose_class(&mut state);
                let first = state.classes[class].pop_front().expect("class non-empty");
                let mut wave = Vec::with_capacity(max_wave);
                // Pack same-session, same-class jobs into the wave without
                // disturbing the relative order of the rest.
                let mut rest = VecDeque::new();
                let mut taken = 1usize;
                for job in state.classes[class].drain(..) {
                    if taken < max_wave && job.session == first.session {
                        taken += 1;
                        wave.push(job);
                    } else {
                        rest.push_back(job);
                    }
                }
                state.classes[class] = rest;
                wave.insert(0, first);
                let now = Instant::now();
                for job in &wave {
                    let waited_ms =
                        now.saturating_duration_since(job.enqueued_at).as_secs_f64() * 1e3;
                    state.waits[job.priority.index()].record(waited_ms);
                }
                self.space.notify_all();
                return Some(wave);
            }
            if state.closed {
                return None;
            }
            state = wait(&self.ready, state);
        }
    }

    /// Applies the priority-with-aging policy: the most urgent non-empty
    /// class, unless some class has been passed over `STARVATION_LIMIT`
    /// times — then the most-starved such class is served instead.
    fn choose_class(&self, state: &mut QueueState) -> usize {
        let urgent = (0..3)
            .find(|&i| !state.classes[i].is_empty())
            .expect("queue non-empty");
        let mut chosen = urgent;
        let mut worst_age = 0u64;
        for i in 0..3 {
            if i != urgent
                && !state.classes[i].is_empty()
                && state.passed_over[i] >= STARVATION_LIMIT
                && state.passed_over[i] > worst_age
            {
                worst_age = state.passed_over[i];
                chosen = i;
            }
        }
        for i in 0..3 {
            if i != chosen && !state.classes[i].is_empty() {
                state.passed_over[i] += 1;
            }
        }
        state.passed_over[chosen] = 0;
        chosen
    }

    /// Closes the queue: producers are turned away, consumers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Whether [`JobQueue::close`] has been called. Lets producers tell a
    /// closed queue apart from a merely full one when a push bounces.
    pub fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Empties the queue and returns everything that was waiting, most
    /// urgent class first. Used by worker supervision when a shard's
    /// restart budget is exhausted: the backlog can never be proved, so the
    /// supervisor fails each job instead of leaving it queued forever.
    pub fn drain_all(&self) -> Vec<QueuedJob> {
        let mut state = lock(&self.state);
        let mut drained = Vec::with_capacity(state.depth());
        for class in &mut state.classes {
            drained.extend(class.drain(..));
        }
        self.space.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::test_keys;
    use zkspeed_field::Fr;
    use zkspeed_poly::MultilinearPoly;

    fn job(id: u64, session: u8, priority: Priority) -> QueuedJob {
        let column = || MultilinearPoly::new(vec![Fr::zero(), Fr::zero()]);
        QueuedJob {
            id,
            session: [session; 32],
            // Queue tests exercise scheduling order, not proving, so every
            // job can pin the same key.
            pk: test_keys().0,
            witness: Arc::new(Witness::new(column(), column(), column())),
            priority,
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn waves_pack_same_session_same_class() {
        let q = JobQueue::new(16);
        q.try_push(job(0, 1, Priority::Normal)).unwrap();
        q.try_push(job(1, 2, Priority::Normal)).unwrap();
        q.try_push(job(2, 1, Priority::Normal)).unwrap();
        q.try_push(job(3, 1, Priority::Low)).unwrap();
        let wave = q.pop_wave(4).unwrap();
        // Jobs 0 and 2 share session 1 and class Normal; job 1 is another
        // session, job 3 another class.
        assert_eq!(wave.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 2]);
        let wave = q.pop_wave(4).unwrap();
        assert_eq!(wave.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1]);
        let wave = q.pop_wave(4).unwrap();
        assert_eq!(wave.iter().map(|j| j.id).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn wave_size_is_bounded() {
        let q = JobQueue::new(16);
        for i in 0..6 {
            q.try_push(job(i, 1, Priority::Normal)).unwrap();
        }
        let wave = q.pop_wave(4).unwrap();
        assert_eq!(wave.len(), 4);
        assert_eq!(
            wave.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(q.pop_wave(4).unwrap().len(), 2);
    }

    #[test]
    fn high_priority_wins_when_fresh() {
        let q = JobQueue::new(16);
        q.try_push(job(0, 1, Priority::Low)).unwrap();
        q.try_push(job(1, 1, Priority::High)).unwrap();
        q.try_push(job(2, 1, Priority::Normal)).unwrap();
        assert_eq!(q.pop_wave(1).unwrap()[0].id, 1);
        assert_eq!(q.pop_wave(1).unwrap()[0].id, 2);
        assert_eq!(q.pop_wave(1).unwrap()[0].id, 0);
    }

    #[test]
    fn backpressure_rejects_and_parks() {
        let q = Arc::new(JobQueue::new(2));
        q.try_push(job(0, 1, Priority::Normal)).unwrap();
        q.try_push(job(1, 1, Priority::Normal)).unwrap();
        // Full: try_push hands the job back.
        let bounced = q.try_push(job(2, 1, Priority::Normal)).unwrap_err();
        assert_eq!(bounced.id, 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.peak_depth(), 2);

        // push_blocking parks until a wave is popped.
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_blocking(job(3, 1, Priority::Normal)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!producer.is_finished(), "producer must park while full");
        let _ = q.pop_wave(1).unwrap();
        producer.join().unwrap().expect("parked push succeeds");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn low_priority_cannot_starve_behind_steady_high_stream() {
        // Regression test (ISSUE 5 satellite): one low-priority wave vs a
        // high-priority stream that keeps the high class non-empty forever.
        // Strict priority would never serve it; aging must serve it within
        // STARVATION_LIMIT + 1 pops.
        let q = JobQueue::new(64);
        q.try_push(job(1000, 9, Priority::Low)).unwrap();
        let mut next_high = 0u64;
        let mut pops_until_low = None;
        for pop in 0..20u64 {
            // Steady stream: top the high class up to 2 before every pop.
            while q.depths()[0] < 2 {
                q.try_push(job(next_high, 1, Priority::High)).unwrap();
                next_high += 1;
            }
            let wave = q.pop_wave(1).unwrap();
            if wave[0].id == 1000 {
                pops_until_low = Some(pop);
                break;
            }
        }
        let pops = pops_until_low.expect("low-priority job was starved");
        assert!(
            pops <= STARVATION_LIMIT,
            "low job served after {pops} pops (limit {STARVATION_LIMIT})"
        );

        // The same holds for Normal behind High, with Low also pending.
        let q = JobQueue::new(64);
        q.try_push(job(2000, 9, Priority::Normal)).unwrap();
        q.try_push(job(3000, 9, Priority::Low)).unwrap();
        let mut served = Vec::new();
        for _ in 0..20 {
            while q.depths()[0] < 2 {
                q.try_push(job(next_high, 1, Priority::High)).unwrap();
                next_high += 1;
            }
            served.push(q.pop_wave(1).unwrap()[0].id);
        }
        assert!(served.contains(&2000), "normal starved: {served:?}");
        assert!(served.contains(&3000), "low starved: {served:?}");
    }

    #[test]
    fn queue_wait_is_recorded_per_class() {
        let q = JobQueue::new(16);
        q.try_push(job(0, 1, Priority::High)).unwrap();
        q.try_push(job(1, 1, Priority::Normal)).unwrap();
        q.try_push(job(2, 1, Priority::Normal)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.pop_wave(4).unwrap().len(), 1); // the high job
        assert_eq!(q.pop_wave(4).unwrap().len(), 2); // both normal jobs
        let waits = q.wait_histograms();
        assert_eq!(waits[0].count(), 1);
        assert_eq!(waits[1].count(), 2);
        assert_eq!(waits[2].count(), 0);
        // Every popped job waited at least through the sleep.
        assert!(waits[0].max_ms() >= 4.0, "high wait {}", waits[0].max_ms());
        assert!(
            waits[1].mean_ms() >= 4.0,
            "normal wait {}",
            waits[1].mean_ms()
        );
    }

    #[test]
    fn drain_all_empties_every_class_and_frees_space() {
        let q = JobQueue::new(4);
        q.try_push(job(0, 1, Priority::High)).unwrap();
        q.try_push(job(1, 1, Priority::Normal)).unwrap();
        q.try_push(job(2, 1, Priority::Low)).unwrap();
        assert!(!q.is_closed());
        let drained = q.drain_all();
        assert_eq!(drained.iter().map(|j| j.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(q.depth(), 0);
        q.close();
        assert!(q.is_closed());
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new(4);
        q.try_push(job(0, 1, Priority::Normal)).unwrap();
        q.close();
        // Producers are turned away immediately.
        assert!(q.try_push(job(1, 1, Priority::Normal)).is_err());
        assert!(q.push_blocking(job(2, 1, Priority::Normal)).is_err());
        // Consumers drain the backlog, then see None.
        assert_eq!(q.pop_wave(4).unwrap()[0].id, 0);
        assert!(q.pop_wave(4).is_none());
    }
}
