//! The job table: every accepted job's lifecycle, and the one transition
//! ([`JobTable::settle`]) that gives a job its outcome.
//!
//! A job is `Queued` from admission, `Running` once a worker packs it into
//! a wave, and ends `Done` (canonical proof bytes) or `Failed` (a reason).
//! Every site that decides an outcome — a proved wave, a witness the
//! circuit rejects, an expired deadline, a panicked wave, a dead worker, a
//! written-off shard, a drain over a dead shard — calls `settle`, which
//! moves only a pending job and counts it exactly once. So every accepted
//! job ends in exactly one outcome, and `submitted = completed + failed +
//! pending` at every scrape.
//!
//! Delivering an outcome ([`JobTable::wait`], [`JobTable::poll`]) keeps
//! it in a retention ring, so a client whose `ProofReady` or `JobFailed`
//! was torn in transit can poll again and get the same answer. The ring
//! holds the last `shards × queue_capacity` delivered outcomes and evicts
//! the oldest first; an evicted id is unknown. The table is bounded by
//! its pending jobs, its uncollected outcomes and the ring.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::service::ServiceError;
use crate::sync::{lock, wait_timeout};
use crate::wire::JobState;

/// How long waiters poll between predicate re-checks. Bounds the damage of
/// any missed wakeup: a waiter is never more than one interval behind the
/// state it is watching (a worker death, a deadline, a drained backlog).
/// It is also the longest a [`JobTable::poll`] parks.
const WAIT_POLL: Duration = Duration::from_millis(100);

/// A job's lifecycle phase.
#[derive(Clone)]
pub(crate) enum JobPhase {
    Queued,
    Running,
    Done(Arc<Vec<u8>>),
    Failed(String),
}

impl JobPhase {
    fn is_pending(&self) -> bool {
        matches!(self, JobPhase::Queued | JobPhase::Running)
    }

    pub(crate) fn state(&self) -> JobState {
        match self {
            JobPhase::Queued => JobState::Queued,
            JobPhase::Running => JobState::Running,
            JobPhase::Done(_) => JobState::Done,
            JobPhase::Failed(_) => JobState::Failed,
        }
    }
}

/// How a job ended: the argument of [`JobTable::settle`].
pub(crate) enum Outcome {
    /// The job proved to these canonical proof bytes.
    Proved(Arc<Vec<u8>>),
    /// The job failed for this reason.
    Failed(String),
    /// The job's deadline passed before a worker proved it.
    Expired,
}

struct JobEntry {
    phase: JobPhase,
    deadline_at: Instant,
    shard: usize,
    /// Whether the outcome was delivered, so the id is in the ring.
    delivered: bool,
}

/// The jobs by id, and the delivered ones in the order they were first
/// delivered.
#[derive(Default)]
struct Table {
    entries: HashMap<u64, JobEntry>,
    /// The retention ring: delivered ids, oldest first.
    delivered: VecDeque<u64>,
}

impl Table {
    /// The settled job `id`'s outcome. Its first delivery puts the id in
    /// the ring, evicting the oldest ids beyond `retain`.
    fn deliver(&mut self, id: u64, retain: usize) -> JobPhase {
        let entry = self.entries.get_mut(&id).expect("a settled entry");
        let phase = entry.phase.clone();
        if !entry.delivered {
            entry.delivered = true;
            self.delivered.push_back(id);
            while self.delivered.len() > retain {
                let oldest = self.delivered.pop_front().expect("a full ring");
                self.entries.remove(&oldest);
            }
        }
        phase
    }
}

/// The lifetime job counters, read together by [`JobTable::counts`].
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct JobCounts {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) failed_deadline: u64,
}

/// Every job the service accepted and has not yet delivered, the last
/// delivered ones, and the lifetime counters of their outcomes.
pub(crate) struct JobTable {
    table: Mutex<Table>,
    /// The retention ring's capacity.
    retain: usize,
    /// Signalled when a job settles and when a shard worker exits for good.
    done: Condvar,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    failed_deadline: AtomicU64,
}

impl JobTable {
    /// An empty table that retains the last `retain` delivered outcomes
    /// (at least one).
    pub(crate) fn new(retain: usize) -> Self {
        Self {
            table: Mutex::default(),
            retain: retain.max(1),
            done: Condvar::new(),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            failed_deadline: AtomicU64::new(0),
        }
    }

    /// Admits a `Queued` job on `shard` and counts it submitted; returns
    /// its id. Call before the queue push: once queued, the job can settle
    /// before the submitting thread runs again, and no scrape may see it
    /// finish unsubmitted.
    pub(crate) fn admit(&self, shard: usize, deadline_at: Instant) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = JobEntry {
            phase: JobPhase::Queued,
            deadline_at,
            shard,
            delivered: false,
        };
        lock(&self.table).entries.insert(id, entry);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Takes back a job its queue refused: forgets and uncounts it.
    pub(crate) fn withdraw(&self, id: u64) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        lock(&self.table).entries.remove(&id);
    }

    /// Marks the queued jobs among `ids` `Running`.
    pub(crate) fn start(&self, ids: impl IntoIterator<Item = u64>) {
        let mut table = lock(&self.table);
        for id in ids {
            let entry = table.entries.get_mut(&id);
            if let Some(entry) = entry.filter(|e| matches!(e.phase, JobPhase::Queued)) {
                entry.phase = JobPhase::Running;
            }
        }
    }

    /// Whether job `id`'s deadline has passed by `now`.
    pub(crate) fn is_overdue(&self, id: u64, now: Instant) -> bool {
        lock(&self.table)
            .entries
            .get(&id)
            .is_some_and(|entry| entry.deadline_at <= now)
    }

    /// The ids of `shard`'s `Running` jobs.
    pub(crate) fn running_on(&self, shard: usize) -> Vec<u64> {
        lock(&self.table)
            .entries
            .iter()
            .filter(|(_, e)| e.shard == shard && matches!(e.phase, JobPhase::Running))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Gives job `id` its outcome. Only a `Queued` or `Running` job moves;
    /// it counts as completed or failed (and an expiry as
    /// `failed_deadline` too) exactly once, and its waiters wake. Returns
    /// whether the job moved: `false` for an unknown or already settled
    /// job, which changes nothing.
    pub(crate) fn settle(&self, id: u64, outcome: Outcome) -> bool {
        let mut table = lock(&self.table);
        let Some(entry) = table.entries.get_mut(&id).filter(|e| e.phase.is_pending()) else {
            return false;
        };
        entry.phase = match outcome {
            Outcome::Proved(proof) => JobPhase::Done(proof),
            Outcome::Failed(reason) => JobPhase::Failed(reason),
            Outcome::Expired => {
                self.failed_deadline.fetch_add(1, Ordering::Relaxed);
                JobPhase::Failed("deadline exceeded before proving".into())
            }
        };
        // Release pairs with the acquiring loads in `counts`.
        if let JobPhase::Done(_) = entry.phase {
            self.completed.fetch_add(1, Ordering::Release);
        } else {
            self.failed.fetch_add(1, Ordering::Release);
        }
        drop(table);
        self.done.notify_all();
        true
    }

    /// Wakes every waiter to re-check its predicate (a shard worker exited
    /// for good).
    pub(crate) fn wake(&self) {
        self.done.notify_all();
    }

    /// The job's state, or `None` for unknown ids and ids evicted from the
    /// retention ring.
    pub(crate) fn status(&self, id: u64) -> Option<JobState> {
        lock(&self.table)
            .entries
            .get(&id)
            .map(|entry| entry.phase.state())
    }

    /// The job's phase once it settles, its deadline passes or
    /// [`WAIT_POLL`] runs out, whichever comes first; `None` for unknown or
    /// evicted ids. A settled outcome is delivered into the retention ring
    /// and stays there for a repeated poll.
    pub(crate) fn poll(&self, id: u64) -> Option<JobPhase> {
        let mut table = lock(&self.table);
        let now = Instant::now();
        let deadline_at = table.entries.get(&id)?.deadline_at;
        // An overdue job parks the whole interval: it settles when its
        // shard pops it or finishes its wave, and a client that re-polls at
        // once must not spin until then.
        let until = if deadline_at > now {
            deadline_at.min(now + WAIT_POLL)
        } else {
            now + WAIT_POLL
        };
        loop {
            let entry = table.entries.get(&id)?;
            if !entry.phase.is_pending() {
                return Some(table.deliver(id, self.retain));
            }
            let now = Instant::now();
            if now >= until {
                return Some(entry.phase.clone());
            }
            table = wait_timeout(&self.done, table, until - now);
        }
    }

    /// Blocks until the job settles and delivers its outcome, or until its
    /// deadline passes (the entry then stays for a late collection).
    pub(crate) fn wait(&self, id: u64) -> Result<Arc<Vec<u8>>, ServiceError> {
        let mut table = lock(&self.table);
        loop {
            let entry = table.entries.get(&id).ok_or(ServiceError::UnknownJob)?;
            if !entry.phase.is_pending() {
                return match table.deliver(id, self.retain) {
                    JobPhase::Done(proof) => Ok(proof),
                    JobPhase::Failed(reason) => Err(ServiceError::JobFailed(reason)),
                    _ => unreachable!("a settled entry was just found"),
                };
            }
            let now = Instant::now();
            if entry.deadline_at <= now {
                return Err(ServiceError::Deadline);
            }
            // Bounded wait: a missed wakeup (or a worker death) delays the
            // deadline/outcome re-check by at most one poll interval.
            let timeout = (entry.deadline_at - now).min(WAIT_POLL);
            table = wait_timeout(&self.done, table, timeout);
        }
    }

    /// Blocks until no job is pending. A pending job whose shard is not
    /// `alive` is failed rather than waited on.
    pub(crate) fn drain(&self, alive: impl Fn(usize) -> bool) {
        let mut table = lock(&self.table);
        loop {
            let mut pending = false;
            let mut stranded = Vec::new();
            for (id, entry) in table.entries.iter().filter(|(_, e)| e.phase.is_pending()) {
                if alive(entry.shard) {
                    pending = true;
                } else {
                    stranded.push(*id);
                }
            }
            if !stranded.is_empty() {
                drop(table);
                for id in stranded {
                    self.settle(id, Outcome::Failed("shard worker is dead".into()));
                }
                table = lock(&self.table);
                continue;
            }
            if !pending {
                return;
            }
            table = wait_timeout(&self.done, table, WAIT_POLL);
        }
    }

    /// The lifetime counters. The outcomes are read before `submitted`,
    /// which counts a job before it is queued, so a reading never holds
    /// more finished jobs than submitted ones.
    pub(crate) fn counts(&self) -> JobCounts {
        let completed = self.completed.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        JobCounts {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            failed,
            failed_deadline: self.failed_deadline.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(jobs: &JobTable) -> (u64, u64, u64, u64) {
        let c = jobs.counts();
        (c.submitted, c.completed, c.failed, c.failed_deadline)
    }

    #[test]
    fn a_second_settle_is_refused_and_counts_nothing() {
        let jobs = JobTable::new(8);
        let far = Instant::now() + Duration::from_secs(60);
        let proved = jobs.admit(0, far);
        let failed = jobs.admit(0, far);
        jobs.start([proved]);
        assert!(jobs.settle(proved, Outcome::Proved(Arc::new(vec![7]))));
        assert!(jobs.settle(failed, Outcome::Failed("bad witness".into())));
        assert_eq!(counters(&jobs), (2, 1, 1, 0));

        for id in [proved, failed] {
            assert!(!jobs.settle(id, Outcome::Failed("again".into())));
            assert!(!jobs.settle(id, Outcome::Proved(Arc::new(vec![8]))));
            assert!(!jobs.settle(id, Outcome::Expired));
        }
        assert!(!jobs.settle(99, Outcome::Failed("unknown".into())));
        assert_eq!(counters(&jobs), (2, 1, 1, 0), "no counter moved");
        assert_eq!(
            jobs.wait(proved),
            Ok(Arc::new(vec![7])),
            "first outcome kept"
        );
        assert_eq!(
            jobs.wait(failed),
            Err(ServiceError::JobFailed("bad witness".into()))
        );
    }

    #[test]
    fn a_deadline_expiry_counts_failed_and_failed_deadline_once() {
        let jobs = JobTable::new(8);
        let now = Instant::now();
        let id = jobs.admit(0, now);
        assert!(jobs.is_overdue(id, now));
        assert!(jobs.settle(id, Outcome::Expired));
        assert!(!jobs.settle(id, Outcome::Expired));
        assert!(!jobs.settle(id, Outcome::Failed("late".into())));
        assert_eq!(counters(&jobs), (1, 0, 1, 1));
        assert_eq!(jobs.status(id), Some(JobState::Failed));
    }

    #[test]
    fn drain_fails_jobs_of_dead_shards_once() {
        let jobs = JobTable::new(8);
        let far = Instant::now() + Duration::from_secs(60);
        let ids = [jobs.admit(0, far), jobs.admit(1, far)];
        jobs.start([ids[1]]);
        jobs.drain(|_| false);
        jobs.drain(|_| false);
        assert_eq!(counters(&jobs), (2, 0, 2, 0));
        let withdrawn = jobs.admit(0, far);
        jobs.withdraw(withdrawn);
        assert_eq!(jobs.status(withdrawn), None);
        assert_eq!(counters(&jobs), (2, 0, 2, 0));
    }

    #[test]
    fn the_retention_ring_holds_its_cap_and_evicts_oldest_first() {
        let jobs = JobTable::new(2);
        let far = Instant::now() + Duration::from_secs(60);
        let ids: Vec<u64> = (0..4).map(|_| jobs.admit(0, far)).collect();
        for (byte, &id) in ids.iter().enumerate() {
            assert!(jobs.settle(id, Outcome::Proved(Arc::new(vec![byte as u8]))));
        }
        // Settled but undelivered outcomes are not in the ring.
        assert!(ids
            .iter()
            .all(|&id| jobs.status(id) == Some(JobState::Done)));

        for &id in &ids {
            assert!(matches!(jobs.poll(id), Some(JobPhase::Done(_))));
            // A repeated delivery answers the same and takes no second slot.
            assert_eq!(jobs.wait(id), Ok(Arc::new(vec![(id - ids[0]) as u8])));
            assert!(lock(&jobs.table).delivered.len() <= 2);
        }
        let table = lock(&jobs.table);
        assert_eq!(table.delivered, [ids[2], ids[3]]);
        assert_eq!(table.entries.len(), 2);
        drop(table);
        assert_eq!(jobs.status(ids[0]), None, "oldest evicted first");
        assert_eq!(jobs.status(ids[1]), None);
        assert!(jobs.poll(ids[1]).is_none());
        assert_eq!(jobs.wait(ids[1]), Err(ServiceError::UnknownJob));
        assert_eq!(jobs.wait(ids[3]), Ok(Arc::new(vec![3])));
    }

    #[test]
    fn a_pending_poll_parks_at_most_one_interval() {
        let jobs = JobTable::new(1);
        let far = Instant::now() + Duration::from_secs(60);
        let id = jobs.admit(0, far);
        let started = Instant::now();
        assert!(matches!(jobs.poll(id), Some(JobPhase::Queued)));
        let parked = started.elapsed();
        assert!(parked >= WAIT_POLL && parked < 10 * WAIT_POLL, "{parked:?}");

        // A settle wakes a parked poll with the outcome.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                jobs.settle(id, Outcome::Failed("bad witness".into()));
            });
            match jobs.poll(id) {
                Some(JobPhase::Failed(reason)) => assert_eq!(reason, "bad witness"),
                _ => panic!("expected the failure"),
            }
        });
    }
}
