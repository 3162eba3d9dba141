//! Service observability: counters, queue gauges, wave occupancy,
//! per-phase prove-time histograms and MSM-statistics rollups, snapshotted
//! with the job counters ([`crate::jobs::JobTable`]) and the session rows
//! ([`crate::store::SessionStore`]) into a [`ServiceMetrics`] document that
//! renders via [`ToJson`].
//!
//! The live side ([`MetricsRecorder`]) is cheap on the serving path —
//! atomics for counters, short-held mutexes for the phase histograms and
//! MSM rollups. Quantiles are computed at snapshot time, not on the hot
//! path.
//!
//! Latency is tracked in log-bucketed [`Histogram`]s rather than bounded
//! sample windows: histograms never drop samples, their counts and means
//! are exact, and quantiles carry a bounded (≤ 6.3%) relative error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::store::SessionState;
use crate::sync::lock;

use zkspeed_curve::MsmStats;
use zkspeed_hyperplonk::{ProtocolStep, ProverReport};
use zkspeed_rt::trace::Histogram;
use zkspeed_rt::{JsonValue, ToJson};

/// Per-phase prove-time histograms (milliseconds), one per protocol step
/// plus the whole-proof total. Filled from each completion's
/// [`ProverReport`] step timings; the JSON document keys each step's
/// histogram by [`ProtocolStep::key`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseHistograms {
    /// One per step, in [`ProtocolStep::ALL`] order (`steps[step]` reads
    /// one).
    pub steps: [Histogram; 5],
    /// Whole-proof wall time (sum of the five steps).
    pub prove_total: Histogram,
}

impl PhaseHistograms {
    fn record_report(&mut self, report: &ProverReport) {
        for (histogram, seconds) in self.steps.iter_mut().zip(report.step_seconds) {
            histogram.record(seconds * 1e3);
        }
        self.prove_total.record(report.total_seconds() * 1e3);
    }
}

impl ToJson for PhaseHistograms {
    fn to_json(&self) -> JsonValue {
        let steps =
            ProtocolStep::ALL.map(|step| (step.key().to_string(), self.steps[step].to_json()));
        let total = ("prove_total".to_string(), self.prove_total.to_json());
        JsonValue::Object(steps.into_iter().chain([total]).collect())
    }
}

/// Rolled-up MSM operation counts across every proof the service produced.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MsmRollup {
    /// Sparse witness-commit scalars that were zero (skipped).
    pub witness_zeros: u64,
    /// Sparse witness-commit scalars that were one (tree-added).
    pub witness_ones: u64,
    /// Sparse witness-commit scalars that were dense (Pippenger).
    pub witness_dense: u64,
    /// Witness-commit MSM operation counts.
    pub witness: MsmStats,
    /// Wiring-identity (φ/π commit) MSM operation counts.
    pub wiring: MsmStats,
    /// Polynomial-opening MSM operation counts.
    pub opening: MsmStats,
}

impl MsmRollup {
    fn merge_report(&mut self, report: &ProverReport) {
        self.witness_zeros += report.witness_msm.zeros as u64;
        self.witness_ones += report.witness_msm.ones as u64;
        self.witness_dense += report.witness_msm.dense as u64;
        self.witness.merge(&report.witness_msm.ops);
        self.wiring.merge(&report.wiring_msm);
        self.opening.merge(&report.opening_msm);
    }

    /// Total Fq multiplications across all rolled-up MSMs.
    pub fn fq_muls(&self) -> u64 {
        self.witness.fq_muls() + self.wiring.fq_muls() + self.opening.fq_muls()
    }
}

/// Worker-supervision counters: how often shard workers panicked or died,
/// and how much of the restart budget the service has consumed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionMetrics {
    /// Shard workers currently alive (equals `workers_configured` on a
    /// healthy service; lower when a shard exhausted its restart budget).
    pub workers_alive: usize,
    /// Shard workers the service was configured with (one per shard).
    pub workers_configured: usize,
    /// Proving waves that panicked; their jobs were failed individually and
    /// the worker kept serving.
    pub wave_panics: u64,
    /// Shard worker threads that died and were respawned by the
    /// supervisor.
    pub worker_restarts: u64,
    /// Respawns each shard is allowed over the service lifetime; once
    /// exhausted the shard goes dark and its backlog is failed.
    pub restart_budget_per_shard: u32,
}

/// Transport-level connection counters, filled in by a socket transport
/// (`zkspeed-net`) through the [`crate::ProvingService`] recording hooks.
/// All zeros for an in-process service that never saw a socket.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ConnectionMetrics {
    /// Connections currently open.
    pub open: u64,
    /// Connections accepted over the service lifetime.
    pub total: u64,
    /// Connections closed after a failed auth handshake.
    pub rejected_bad_auth: u64,
    /// Connections turned away at the connection cap (the backpressure
    /// tier above the job queue).
    pub rejected_over_capacity: u64,
    /// Connections closed by the per-connection idle timeout.
    pub idle_timeouts: u64,
}

/// Session-lifecycle counters from the `SessionStore`:
/// how many sessions are provisioned vs evicted, and how often the LRU
/// budget forced an eviction or a resubmitted circuit re-provisioned one.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionLifecycleMetrics {
    /// Sessions currently provisioned (proving key resident).
    pub active: usize,
    /// Sessions evicted but remembered (verifying key + digest retained).
    pub evicted: usize,
    /// Configured active-session capacity (0 = unlimited).
    pub capacity: usize,
    /// Sessions evicted by the LRU capacity/byte budget (lifetime).
    pub evictions: u64,
    /// Evicted sessions transparently re-provisioned by a resubmitted
    /// `SubmitCircuit` (lifetime).
    pub reprovisions: u64,
    /// Job submissions rejected because their session was evicted.
    pub rejected_evicted: u64,
}

zkspeed_rt::impl_to_json_struct!(SupervisionMetrics {
    workers_alive,
    workers_configured,
    wave_panics,
    worker_restarts,
    restart_budget_per_shard,
});
zkspeed_rt::impl_to_json_struct!(ConnectionMetrics {
    open,
    total,
    rejected_bad_auth,
    rejected_over_capacity,
    idle_timeouts,
});
zkspeed_rt::impl_to_json_struct!(SessionLifecycleMetrics {
    active,
    evicted,
    capacity,
    evictions,
    reprovisions,
    rejected_evicted,
});

/// Adds one to an event counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The live recorder owned by the service: event counters, wave
/// occupancy, and the MSM and phase rollups of every proof.
#[derive(Default)]
pub(crate) struct MetricsRecorder {
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) rejected_draining: AtomicU64,
    pub(crate) wave_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) conn_opened: AtomicU64,
    pub(crate) conn_closed: AtomicU64,
    pub(crate) conn_bad_auth: AtomicU64,
    pub(crate) conn_over_capacity: AtomicU64,
    pub(crate) conn_idle_timeouts: AtomicU64,
    waves: AtomicU64,
    wave_jobs: AtomicU64,
    max_wave: AtomicU64,
    rollup: Mutex<MsmRollup>,
    /// Per-phase prove-time histograms across every completion.
    phases: Mutex<PhaseHistograms>,
}

impl MetricsRecorder {
    pub(crate) fn record_wave(&self, jobs: usize) {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.wave_jobs.fetch_add(jobs as u64, Ordering::Relaxed);
        self.max_wave.fetch_max(jobs as u64, Ordering::Relaxed);
    }

    /// Rolls one proof's report into the MSM totals and phase histograms.
    pub(crate) fn record_completion(&self, report: &ProverReport) {
        lock(&self.rollup).merge_report(report);
        lock(&self.phases).record_report(report);
    }

    /// A snapshot: the service's gauges (queues, workers, sessions, job
    /// counts) as given, completed with the recorder's counters and
    /// rollups.
    pub(crate) fn snapshot(&self, gauges: ServiceMetrics) -> ServiceMetrics {
        let waves = self.waves.load(Ordering::Relaxed);
        let wave_jobs = self.wave_jobs.load(Ordering::Relaxed);
        let uptime = gauges.uptime_seconds;
        let conn_opened = self.conn_opened.load(Ordering::Relaxed);
        let conn_closed = self.conn_closed.load(Ordering::Relaxed);
        ServiceMetrics {
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            supervision: SupervisionMetrics {
                wave_panics: self.wave_panics.load(Ordering::Relaxed),
                worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
                ..gauges.supervision
            },
            connections: ConnectionMetrics {
                open: conn_opened.saturating_sub(conn_closed),
                total: conn_opened,
                rejected_bad_auth: self.conn_bad_auth.load(Ordering::Relaxed),
                rejected_over_capacity: self.conn_over_capacity.load(Ordering::Relaxed),
                idle_timeouts: self.conn_idle_timeouts.load(Ordering::Relaxed),
            },
            phases: lock(&self.phases).clone(),
            waves,
            mean_wave_occupancy: if waves == 0 {
                0.0
            } else {
                wave_jobs as f64 / waves as f64
            },
            max_wave_occupancy: self.max_wave.load(Ordering::Relaxed) as usize,
            proofs_per_second: if uptime > 0.0 {
                gauges.completed as f64 / uptime
            } else {
                0.0
            },
            msm: *lock(&self.rollup),
            ..gauges
        }
    }
}

/// Latency summary of one session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionMetrics {
    /// The session's circuit digest.
    pub digest: [u8; 32],
    /// The session circuit's `μ`.
    pub num_vars: usize,
    /// Lifecycle state.
    pub state: SessionState,
    /// The shard the session's jobs queue on.
    pub shard: usize,
    /// Estimated resident proving-key bytes (0 once evicted).
    pub resident_bytes: u64,
    /// Proofs completed for this session (lifetime; equals the latency
    /// histogram's exact count).
    pub jobs_completed: u64,
    /// Median submit→proof latency (ms) from the histogram (≤ 6.3% high).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms) from the histogram (≤ 6.3% high).
    pub p99_ms: f64,
    /// Exact worst latency ever recorded (ms).
    pub max_ms: f64,
    /// The full submit→proof latency histogram (every completion, never
    /// sampled or windowed).
    pub latency: Histogram,
}

/// A point-in-time service metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Number of registered sessions (circuits).
    pub sessions_registered: usize,
    /// Jobs accepted into the queue (lifetime).
    pub submitted: u64,
    /// Jobs bounced by backpressure (queue at capacity).
    pub rejected_queue_full: u64,
    /// Job submissions rejected for structural reasons (unknown circuit,
    /// shape mismatch, malformed witness bytes).
    pub rejected_invalid: u64,
    /// Submissions turned away because the service was draining for
    /// shutdown.
    pub rejected_draining: u64,
    /// Proofs produced.
    pub completed: u64,
    /// Jobs whose witness failed the circuit at proving time — including
    /// jobs failed by an injected or real wave panic, a dead worker, or an
    /// expired deadline.
    pub failed: u64,
    /// The subset of `failed` that expired queue-side: their deadline
    /// passed before a worker ever proved them.
    pub failed_deadline: u64,
    /// Worker-supervision counters (panicked waves, respawns, liveness).
    pub supervision: SupervisionMetrics,
    /// Transport connection counters (all zero without a socket transport).
    pub connections: ConnectionMetrics,
    /// Session-lifecycle counters (active/evicted sessions, LRU activity).
    pub lifecycle: SessionLifecycleMetrics,
    /// Current queue depth per priority class (high, normal, low), summed
    /// over shards.
    pub queue_depths: [usize; 3],
    /// The deepest any single shard queue has ever been (shard peaks are
    /// reached at different times, so summing them would report a backlog
    /// the service never actually had).
    pub peak_queue_depth: usize,
    /// Total queue capacity across shards.
    pub queue_capacity: usize,
    /// Queue-wait histograms per priority class (high, normal, low),
    /// merged across shards: how long jobs of each class sat queued before
    /// their wave was assembled.
    pub queue_waits: [Histogram; 3],
    /// Per-phase prove-time histograms across every completed proof.
    pub phases: PhaseHistograms,
    /// `prove_batch` waves executed.
    pub waves: u64,
    /// Mean jobs per wave (the batching win over one-job-at-a-time).
    pub mean_wave_occupancy: f64,
    /// Largest wave executed.
    pub max_wave_occupancy: usize,
    /// Completed proofs divided by uptime.
    pub proofs_per_second: f64,
    /// MSM operation rollups across every proof.
    pub msm: MsmRollup,
    /// Per-session latency summaries, ordered by digest.
    pub sessions: Vec<SessionMetrics>,
}

/// A JSON object of `(key, value)` pairs, in the listed order.
fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(fields.map(|(key, value)| (key.to_string(), value)).into())
}

fn msm_stats_json(stats: &MsmStats) -> JsonValue {
    object([
        ("total_adds", stats.total_adds().to_json()),
        ("doublings", stats.doublings.to_json()),
        ("batch_inversions", stats.batch_inversions.to_json()),
        ("fq_muls", stats.fq_muls().to_json()),
    ])
}

impl ToJson for SessionMetrics {
    fn to_json(&self) -> JsonValue {
        let digest: String = self.digest[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        object([
            ("digest", digest.to_json()),
            ("num_vars", self.num_vars.to_json()),
            ("state", self.state.label().to_json()),
            ("shard", self.shard.to_json()),
            ("resident_bytes", self.resident_bytes.to_json()),
            ("jobs_completed", self.jobs_completed.to_json()),
            ("p50_ms", self.p50_ms.to_json()),
            ("p99_ms", self.p99_ms.to_json()),
            ("max_ms", self.max_ms.to_json()),
            ("latency_ms", self.latency.to_json()),
        ])
    }
}

impl ToJson for ServiceMetrics {
    fn to_json(&self) -> JsonValue {
        let [depth_high, depth_normal, depth_low] = self.queue_depths;
        let [wait_high, wait_normal, wait_low] = &self.queue_waits;
        let msm = &self.msm;
        object([
            ("uptime_seconds", self.uptime_seconds.to_json()),
            ("sessions_registered", self.sessions_registered.to_json()),
            (
                "jobs",
                object([
                    ("submitted", self.submitted.to_json()),
                    ("rejected_queue_full", self.rejected_queue_full.to_json()),
                    ("rejected_invalid", self.rejected_invalid.to_json()),
                    ("rejected_draining", self.rejected_draining.to_json()),
                    ("completed", self.completed.to_json()),
                    ("failed", self.failed.to_json()),
                    ("failed_deadline", self.failed_deadline.to_json()),
                ]),
            ),
            ("supervision", self.supervision.to_json()),
            ("connections", self.connections.to_json()),
            ("session_lifecycle", self.lifecycle.to_json()),
            (
                "queue",
                object([
                    ("depth_high", depth_high.to_json()),
                    ("depth_normal", depth_normal.to_json()),
                    ("depth_low", depth_low.to_json()),
                    ("peak_depth", self.peak_queue_depth.to_json()),
                    ("capacity", self.queue_capacity.to_json()),
                    (
                        "wait_ms",
                        object([
                            ("high", wait_high.to_json()),
                            ("normal", wait_normal.to_json()),
                            ("low", wait_low.to_json()),
                        ]),
                    ),
                ]),
            ),
            ("phases", self.phases.to_json()),
            (
                "waves",
                object([
                    ("count", self.waves.to_json()),
                    ("mean_occupancy", self.mean_wave_occupancy.to_json()),
                    ("max_occupancy", self.max_wave_occupancy.to_json()),
                ]),
            ),
            ("proofs_per_second", self.proofs_per_second.to_json()),
            (
                "msm",
                object([
                    (
                        "witness_scalars",
                        object([
                            ("zeros", msm.witness_zeros.to_json()),
                            ("ones", msm.witness_ones.to_json()),
                            ("dense", msm.witness_dense.to_json()),
                        ]),
                    ),
                    ("witness", msm_stats_json(&msm.witness)),
                    ("wiring", msm_stats_json(&msm.wiring)),
                    ("opening", msm_stats_json(&msm.opening)),
                    ("fq_muls_total", msm.fq_muls().to_json()),
                ]),
            ),
            ("sessions", self.sessions.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::store::{test_keys, SessionStore};

    #[test]
    fn recorder_rolls_up_and_snapshots() {
        let rec = MetricsRecorder::default();
        rec.record_wave(2);
        rec.record_wave(1);
        let mut report = ProverReport::default();
        report.witness_msm.zeros = 10;
        report.witness_msm.ones = 5;
        report.wiring_msm.bucket_adds = 7;
        report.step_seconds = [0.010, 0.020, 0.030, 0.001, 0.040];
        for _ in 0..3 {
            rec.record_completion(&report);
        }
        // The session rows come from the store, unchanged.
        let store = SessionStore::new(0, 0);
        let (pk, vk) = test_keys();
        for digest in [[1u8; 32], [2u8; 32]] {
            let (pk, vk) = (Arc::clone(&pk), Arc::clone(&vk));
            store.insert_active(digest, pk, vk, 0, 64);
        }
        store.record_latency(&[1u8; 32], 12.0);
        let sessions = store.snapshot();

        let snap = rec.snapshot(ServiceMetrics {
            uptime_seconds: 1.5,
            sessions_registered: 2,
            submitted: 3,
            completed: 3,
            supervision: SupervisionMetrics {
                workers_alive: 2,
                workers_configured: 2,
                restart_budget_per_shard: 3,
                ..SupervisionMetrics::default()
            },
            queue_depths: [1, 0, 0],
            peak_queue_depth: 4,
            queue_capacity: 64,
            sessions: sessions.clone(),
            ..ServiceMetrics::default()
        });
        assert_eq!((snap.submitted, snap.completed), (3, 3));
        assert_eq!(snap.proofs_per_second, 2.0);
        assert_eq!(snap.waves, 2);
        assert!((snap.mean_wave_occupancy - 1.5).abs() < 1e-9);
        assert_eq!(snap.max_wave_occupancy, 2);
        assert_eq!(snap.msm.witness_zeros, 30);
        assert_eq!(snap.msm.witness_ones, 15);
        assert_eq!(snap.msm.wiring.bucket_adds, 21);
        assert_eq!(snap.sessions, sessions);

        // The per-phase histograms saw every completion.
        assert_eq!(snap.phases.prove_total.count(), 3);
        let witness_commit = &snap.phases.steps[ProtocolStep::WitnessCommit];
        assert_eq!(witness_commit.count(), 3);
        let wc = witness_commit.quantile(0.5);
        assert!((10.0..=10.0 * 1.07).contains(&wc), "witness commit {wc}");

        // The JSON document keeps every key path, in order.
        let mut paths = Vec::new();
        key_paths(&snap.to_json(), "", &mut paths);
        assert_eq!(paths, KEY_PATHS.split_whitespace().collect::<Vec<_>>());
    }

    /// The metrics document's key paths, in emission order (`[]` is an
    /// array element).
    const KEY_PATHS: &str = "\
        uptime_seconds sessions_registered jobs jobs.submitted jobs.rejected_queue_full
        jobs.rejected_invalid jobs.rejected_draining jobs.completed jobs.failed jobs.failed_deadline
        supervision supervision.workers_alive supervision.workers_configured supervision.wave_panics
        supervision.worker_restarts supervision.restart_budget_per_shard connections
        connections.open connections.total connections.rejected_bad_auth
        connections.rejected_over_capacity connections.idle_timeouts session_lifecycle
        session_lifecycle.active session_lifecycle.evicted session_lifecycle.capacity
        session_lifecycle.evictions session_lifecycle.reprovisions
        session_lifecycle.rejected_evicted queue queue.depth_high queue.depth_normal queue.depth_low
        queue.peak_depth queue.capacity queue.wait_ms queue.wait_ms.high queue.wait_ms.high.count
        queue.wait_ms.high.mean_ms queue.wait_ms.high.p50_ms queue.wait_ms.high.p90_ms
        queue.wait_ms.high.p99_ms queue.wait_ms.high.max_ms queue.wait_ms.high.buckets
        queue.wait_ms.normal queue.wait_ms.normal.count queue.wait_ms.normal.mean_ms
        queue.wait_ms.normal.p50_ms queue.wait_ms.normal.p90_ms queue.wait_ms.normal.p99_ms
        queue.wait_ms.normal.max_ms queue.wait_ms.normal.buckets queue.wait_ms.low
        queue.wait_ms.low.count queue.wait_ms.low.mean_ms queue.wait_ms.low.p50_ms
        queue.wait_ms.low.p90_ms queue.wait_ms.low.p99_ms queue.wait_ms.low.max_ms
        queue.wait_ms.low.buckets phases phases.witness_commit phases.witness_commit.count
        phases.witness_commit.mean_ms phases.witness_commit.p50_ms phases.witness_commit.p90_ms
        phases.witness_commit.p99_ms phases.witness_commit.max_ms phases.witness_commit.buckets
        phases.gate_identity phases.gate_identity.count phases.gate_identity.mean_ms
        phases.gate_identity.p50_ms phases.gate_identity.p90_ms phases.gate_identity.p99_ms
        phases.gate_identity.max_ms phases.gate_identity.buckets phases.wire_identity
        phases.wire_identity.count phases.wire_identity.mean_ms phases.wire_identity.p50_ms
        phases.wire_identity.p90_ms phases.wire_identity.p99_ms phases.wire_identity.max_ms
        phases.wire_identity.buckets phases.batch_evaluation phases.batch_evaluation.count
        phases.batch_evaluation.mean_ms phases.batch_evaluation.p50_ms
        phases.batch_evaluation.p90_ms phases.batch_evaluation.p99_ms phases.batch_evaluation.max_ms
        phases.batch_evaluation.buckets phases.polynomial_opening phases.polynomial_opening.count
        phases.polynomial_opening.mean_ms phases.polynomial_opening.p50_ms
        phases.polynomial_opening.p90_ms phases.polynomial_opening.p99_ms
        phases.polynomial_opening.max_ms phases.polynomial_opening.buckets phases.prove_total
        phases.prove_total.count phases.prove_total.mean_ms phases.prove_total.p50_ms
        phases.prove_total.p90_ms phases.prove_total.p99_ms phases.prove_total.max_ms
        phases.prove_total.buckets waves waves.count waves.mean_occupancy waves.max_occupancy
        proofs_per_second msm msm.witness_scalars msm.witness_scalars.zeros msm.witness_scalars.ones
        msm.witness_scalars.dense msm.witness msm.witness.total_adds msm.witness.doublings
        msm.witness.batch_inversions msm.witness.fq_muls msm.wiring msm.wiring.total_adds
        msm.wiring.doublings msm.wiring.batch_inversions msm.wiring.fq_muls msm.opening
        msm.opening.total_adds msm.opening.doublings msm.opening.batch_inversions
        msm.opening.fq_muls msm.fq_muls_total sessions sessions[].digest sessions[].num_vars
        sessions[].state sessions[].shard sessions[].resident_bytes sessions[].jobs_completed
        sessions[].p50_ms sessions[].p99_ms sessions[].max_ms sessions[].latency_ms
        sessions[].latency_ms.count sessions[].latency_ms.mean_ms sessions[].latency_ms.p50_ms
        sessions[].latency_ms.p90_ms sessions[].latency_ms.p99_ms sessions[].latency_ms.max_ms
        sessions[].latency_ms.buckets";

    /// Every key path of a JSON document in document order (`a.b`, `[]`
    /// for an array element), each listed once.
    fn key_paths(value: &JsonValue, prefix: &str, out: &mut Vec<String>) {
        match value {
            JsonValue::Object(fields) => {
                for (key, field) in fields {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    if !out.contains(&path) {
                        out.push(path.clone());
                    }
                    key_paths(field, &path, out);
                }
            }
            JsonValue::Array(items) => {
                for item in items {
                    key_paths(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }
}
