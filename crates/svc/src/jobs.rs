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
//! Delivering an outcome ([`JobTable::wait`], [`JobTable::poll`]) consumes
//! the entry, so the table holds pending and uncollected jobs only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::service::ServiceError;
use crate::sync::{lock, wait_timeout};
use crate::wire::JobState;

/// How long waiters poll between predicate re-checks. Bounds the damage of
/// any missed wakeup: a waiter is never more than one interval behind the
/// state it is watching (a worker death, a deadline, a drained backlog).
const WAIT_POLL: Duration = Duration::from_millis(100);

/// A job's lifecycle phase.
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
}

/// The lifetime job counters, read together by [`JobTable::counts`].
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct JobCounts {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) failed_deadline: u64,
}

/// Every job the service accepted and has not yet delivered, with the
/// lifetime counters of their outcomes.
#[derive(Default)]
pub(crate) struct JobTable {
    entries: Mutex<HashMap<u64, JobEntry>>,
    /// Signalled when a job settles and when a shard worker exits for good.
    done: Condvar,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    failed_deadline: AtomicU64,
}

impl JobTable {
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
        };
        lock(&self.entries).insert(id, entry);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Takes back a job its queue refused: forgets and uncounts it.
    pub(crate) fn withdraw(&self, id: u64) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        lock(&self.entries).remove(&id);
    }

    /// Marks the queued jobs among `ids` `Running`.
    pub(crate) fn start(&self, ids: impl IntoIterator<Item = u64>) {
        let mut entries = lock(&self.entries);
        for id in ids {
            let entry = entries.get_mut(&id);
            if let Some(entry) = entry.filter(|e| matches!(e.phase, JobPhase::Queued)) {
                entry.phase = JobPhase::Running;
            }
        }
    }

    /// Whether job `id`'s deadline has passed by `now`.
    pub(crate) fn is_overdue(&self, id: u64, now: Instant) -> bool {
        lock(&self.entries)
            .get(&id)
            .is_some_and(|entry| entry.deadline_at <= now)
    }

    /// The ids of `shard`'s `Running` jobs.
    pub(crate) fn running_on(&self, shard: usize) -> Vec<u64> {
        lock(&self.entries)
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
        let mut entries = lock(&self.entries);
        let Some(entry) = entries.get_mut(&id).filter(|e| e.phase.is_pending()) else {
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
        drop(entries);
        self.done.notify_all();
        true
    }

    /// Wakes every waiter to re-check its predicate (a shard worker exited
    /// for good).
    pub(crate) fn wake(&self) {
        self.done.notify_all();
    }

    /// The job's state, or `None` for unknown or delivered ids.
    pub(crate) fn status(&self, id: u64) -> Option<JobState> {
        lock(&self.entries)
            .get(&id)
            .map(|entry| entry.phase.state())
    }

    /// The job's phase without blocking, consuming the entry when it is
    /// terminal; `None` for unknown or delivered ids.
    pub(crate) fn poll(&self, id: u64) -> Option<JobPhase> {
        let mut entries = lock(&self.entries);
        match entries.get(&id)?.phase {
            JobPhase::Queued => Some(JobPhase::Queued),
            JobPhase::Running => Some(JobPhase::Running),
            _ => entries.remove(&id).map(|entry| entry.phase),
        }
    }

    /// Blocks until the job settles and consumes its outcome, or until its
    /// deadline passes (the entry then stays for a late collection).
    pub(crate) fn wait(&self, id: u64) -> Result<Arc<Vec<u8>>, ServiceError> {
        let mut entries = lock(&self.entries);
        loop {
            let entry = entries.get(&id).ok_or(ServiceError::UnknownJob)?;
            if !entry.phase.is_pending() {
                return match entries.remove(&id).map(|entry| entry.phase) {
                    Some(JobPhase::Done(proof)) => Ok(proof),
                    Some(JobPhase::Failed(reason)) => Err(ServiceError::JobFailed(reason)),
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
            entries = wait_timeout(&self.done, entries, timeout);
        }
    }

    /// Blocks until no job is pending. A pending job whose shard is not
    /// `alive` is failed rather than waited on.
    pub(crate) fn drain(&self, alive: impl Fn(usize) -> bool) {
        let mut entries = lock(&self.entries);
        loop {
            let mut pending = false;
            let mut stranded = Vec::new();
            for (id, entry) in entries.iter().filter(|(_, e)| e.phase.is_pending()) {
                if alive(entry.shard) {
                    pending = true;
                } else {
                    stranded.push(*id);
                }
            }
            if !stranded.is_empty() {
                drop(entries);
                for id in stranded {
                    self.settle(id, Outcome::Failed("shard worker is dead".into()));
                }
                entries = lock(&self.entries);
                continue;
            }
            if !pending {
                return;
            }
            entries = wait_timeout(&self.done, entries, WAIT_POLL);
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
        let jobs = JobTable::default();
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
        let jobs = JobTable::default();
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
        let jobs = JobTable::default();
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
}
