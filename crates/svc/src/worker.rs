//! Shard workers: wave execution under a supervisor.
//!
//! ```text
//!  clients ──frames──▶ endpoint ──▶ ProvingService
//!                        │ register: Circuit bytes ─▶ preprocess ─▶ SessionStore (pk/vk, Arc-shared)
//!                        │ submit:   Witness bytes ─▶ JobTable (Queued) ─▶ shard queue (bounded, priority, aging)
//!                        ▼
//!               shard 0 worker ─ pop_wave ─▶ prove_batch ─▶ JobTable::settle (canonical proof bytes)
//!               shard 1 worker ─ pop_wave ─▶ prove_batch ─▶ ...
//! ```
//!
//! Each shard owns a bounded queue, one worker thread and a dedicated
//! backend pool, so sessions on different shards prove on disjoint workers.
//! A worker pops *waves* — up to `wave_size` queued jobs of one session and
//! priority class — and proves them through [`prove_batch`]; proofs are
//! canonical bytes whatever the queue order, priority or wave packing. A
//! panicking wave fails only its own jobs. A panic that escapes the wave
//! guard kills the worker: its supervisor fails the in-flight jobs and
//! respawns it up to [`RESTART_BUDGET`] times, then closes the shard and
//! fails its backlog. Every outcome goes through
//! [`JobTable::settle`](crate::jobs::JobTable::settle).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use zkspeed_hyperplonk::{prove_batch, ProveError, Witness};
use zkspeed_rt::faults::WaveFault;
use zkspeed_rt::trace::digest_tag;

use crate::jobs::Outcome;
use crate::metrics::bump;
use crate::queue::QueuedJob;
use crate::service::{ServiceShared, Shard};
use crate::sync::lock;

/// How many times a dead shard worker is respawned before the shard is
/// written off (queue closed, backlog failed).
const RESTART_BUDGET: u32 = 3;

/// Spawns (or respawns) one shard's supervised worker thread and registers
/// its join handle.
pub(crate) fn spawn_worker(shared: &Arc<ServiceShared>, shard_idx: usize) {
    let worker = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("zkspeed-svc-shard-{shard_idx}"))
        .spawn(move || {
            // `AssertUnwindSafe` is sound for the same reason the poison
            // recovery in [`crate::sync`] is: everything the loop mutates
            // under shared locks is updated in single consistent steps.
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| shard_loop(&worker, shard_idx)));
            match outcome {
                Ok(()) => {
                    // Clean exit: the queue closed and the backlog drained.
                    worker.shards[shard_idx]
                        .alive
                        .store(false, Ordering::SeqCst);
                    worker.jobs.wake();
                }
                Err(payload) => handle_worker_death(&worker, shard_idx, payload.as_ref()),
            }
        })
        .expect("failed to spawn shard worker");
    lock(&shared.worker_handles).push(handle);
}

/// Supervision path for a worker whose panic escaped the per-wave guard:
/// fail its in-flight jobs, then respawn it (within the restart budget) or
/// write the shard off (close the queue, fail the backlog).
fn handle_worker_death(
    shared: &Arc<ServiceShared>,
    shard_idx: usize,
    payload: &(dyn std::any::Any + Send),
) {
    let reason = panic_message(payload);
    // Only this shard's jobs can be `Running` under a dead worker: a shard
    // runs one wave at a time and entries record their shard.
    for id in shared.jobs.running_on(shard_idx) {
        shared
            .jobs
            .settle(id, Outcome::Failed(format!("shard worker died: {reason}")));
    }
    let shard = &shared.shards[shard_idx];
    let deaths = shard.restarts.fetch_add(1, Ordering::SeqCst);
    if !shard.queue.is_closed() && deaths < RESTART_BUDGET {
        bump(&shared.metrics.worker_restarts);
        spawn_worker(shared, shard_idx);
        return;
    }
    // Budget exhausted (or shutting down): the backlog can never prove.
    shard.alive.store(false, Ordering::SeqCst);
    shard.queue.close();
    // `drain` may already have failed some of these jobs: it fails every
    // pending job of a shard once `alive` is cleared above.
    for job in shard.queue.drain_all() {
        let reason = "shard worker restart budget exhausted".into();
        shared.jobs.settle(job.id, Outcome::Failed(reason));
    }
    shared.jobs.wake();
}

/// Best-effort human-readable panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One shard's worker loop: pop a wave, consult the fault plan, prove the
/// wave inside a panic guard, publish the outcomes.
fn shard_loop(shared: &ServiceShared, shard_idx: usize) {
    let shard = &shared.shards[shard_idx];
    while let Some(wave) = shard.queue.pop_wave(shared.config.wave_size) {
        // Each job's queue wait was measured from its enqueue instant; the
        // trace records it as a span that ends at wave assembly.
        for job in &wave {
            shared.config.trace.record_complete(
                "queue-wait",
                "queue",
                job.enqueued_at.elapsed(),
                &[
                    ("job", job.id),
                    ("session", digest_tag(&job.session)),
                    ("shard", shard_idx as u64),
                    ("class", job.priority.index() as u64),
                ],
            );
        }
        // Mark the wave running before any fault can fire, so an injected
        // death has exactly this wave in flight to fail.
        let ids: Vec<u64> = wave.iter().map(|j| j.id).collect();
        shared.jobs.start(ids.iter().copied());
        let (fault, delay) = shared.config.faults.on_wave(shard_idx);
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        if matches!(fault, WaveFault::KillWorker) {
            // Deliberately outside the wave guard: kills the worker so the
            // supervisor's respawn path runs.
            panic!("injected worker kill (shard {shard_idx})");
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, WaveFault::Panic) {
                panic!("injected wave fault (shard {shard_idx})");
            }
            run_wave(shared, shard, shard_idx, wave);
        }));
        if let Err(payload) = outcome {
            let reason = panic_message(payload.as_ref());
            bump(&shared.metrics.wave_panics);
            for id in ids {
                shared
                    .jobs
                    .settle(id, Outcome::Failed(format!("wave panicked: {reason}")));
            }
        }
    }
}

fn run_wave(shared: &ServiceShared, shard: &Shard, shard_idx: usize, mut wave: Vec<QueuedJob>) {
    // Every queued job carries its own `Arc<ProvingKey>` (pinned at
    // submission), so a wave proves correctly even if the store evicted its
    // session after the jobs were queued. A wave holds jobs of exactly one
    // session, so the first job's key serves the batch.
    let pk = Arc::clone(&wave[0].pk);
    let wave_id = shared.next_wave_id.fetch_add(1, Ordering::Relaxed);
    let _wave_span = shared.config.trace.span_with(
        "wave",
        "service",
        &[
            ("wave", wave_id),
            ("session", digest_tag(&wave[0].session)),
            ("shard", shard_idx as u64),
            ("jobs", wave.len() as u64),
        ],
    );
    // Jobs whose deadline passed while queued fail without burning prover
    // time. The prover checks each witness in its own job, so one that
    // fails the circuit fails alone and cannot poison its wave-mates.
    let now = Instant::now();
    wave.retain(|job| {
        let overdue = shared.jobs.is_overdue(job.id, now);
        if overdue {
            shared.jobs.settle(job.id, Outcome::Expired);
        }
        !overdue
    });
    if wave.is_empty() {
        return;
    }
    shared.metrics.record_wave(wave.len());
    let batch: Vec<(u64, Arc<Witness>)> = wave
        .iter()
        .map(|j| (j.id, Arc::clone(&j.witness)))
        .collect();
    let proved = prove_batch(&pk, &batch, &shard.ctx);
    for (job, proved) in wave.iter().zip(proved) {
        let (proof, report) = match proved {
            Ok(proved) => proved,
            Err(ProveError::UnsatisfiedWitness(e)) => {
                shared.jobs.settle(job.id, Outcome::Failed(e.to_string()));
                continue;
            }
        };
        // The session row and the rollups first: a waiter woken by
        // `settle` may scrape them at once.
        let latency_ms = job.enqueued_at.elapsed().as_secs_f64() * 1e3;
        shared.store.record_latency(&job.session, latency_ms);
        shared.metrics.record_completion(&report);
        shared
            .jobs
            .settle(job.id, Outcome::Proved(Arc::new(proof.to_bytes())));
    }
}
