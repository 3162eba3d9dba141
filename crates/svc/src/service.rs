//! The proving service handle: its configuration, session registration,
//! job submission and the shared state its shard workers run on.
//!
//! A [`ProvingService`] owns one [`SessionStore`] (sessions and their
//! metrics rows), one [`JobTable`] (every accepted job and its outcome),
//! and one shard per configured queue, each served by a supervised worker
//! ([`crate::worker`]). The wire endpoint ([`crate::endpoint`]) serves the
//! same handle. Every job carries a deadline ([`JobSpec`], defaulting to
//! two minutes): expired jobs fail without burning prover time, and
//! `wait` / `drain` never block past it.

use std::fmt;
use std::mem::size_of;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zkspeed_field::Fr;
use zkspeed_hyperplonk::{
    try_preprocess, Circuit, ExecCtx, PreprocessError, VerifyingKey, Witness,
};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::codec::DecodeError;
use zkspeed_rt::faults::FaultPlan;
use zkspeed_rt::pool::backend_with_threads;
use zkspeed_rt::trace::{digest_tag, Histogram, TraceSink};

use crate::jobs::JobTable;
use crate::metrics::{
    bump, MetricsRecorder, ServiceMetrics, SessionLifecycleMetrics, SupervisionMetrics,
};
use crate::queue::{JobQueue, QueuedJob};
use crate::store::{SessionState, SessionStore};
use crate::sync::lock;
use crate::wire::{JobState, Priority};
use crate::worker::spawn_worker;

/// Tuning knobs of a [`ProvingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of scheduler shards (each with its own queue, worker thread
    /// and backend pool).
    pub shards: usize,
    /// Pool threads per shard backend (1 = serial proving per shard).
    pub threads_per_shard: usize,
    /// Queue capacity per shard; a full queue rejects (`try_submit`) or
    /// parks (`submit`) producers.
    pub queue_capacity: usize,
    /// Maximum jobs packed into one `prove_batch` wave.
    pub wave_size: usize,
    /// Has no effect; kept so that existing struct literals compile.
    pub precompute: PrecomputeBudget,
    /// Deterministic fault-injection plan consulted by the shard workers
    /// (and, through [`ProvingService::config`], by transport layers).
    /// Defaults to the `ZKSPEED_FAULTS` environment spec; inert when unset.
    pub faults: Arc<FaultPlan>,
    /// Byte budget over the summed resident proving-key bytes of **active**
    /// (provisioned) sessions: least-recently-used sessions beyond it are
    /// evicted (proving key dropped, verifying key retained), though never
    /// the newest. 0 = unlimited (the default).
    pub session_byte_budget: u64,
    /// Has no effect; kept so that existing struct literals compile.
    pub proof_cache_bytes: u64,
    /// Has no effect; kept so that existing struct literals compile.
    pub rebalance_interval: Option<Duration>,
    /// Structured-tracing sink threaded through the whole job lifecycle
    /// (submit, queue wait, wave assembly, per-phase proving, MSM passes).
    /// Disabled by default: every recording call short-circuits on one
    /// branch. Enable with [`ServiceConfig::with_trace`]; pull the Chrome
    /// trace-event dump with the wire `GetTrace` request or
    /// [`ProvingService::trace_json`].
    pub trace: TraceSink,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let threads = zkspeed_rt::par::env_threads();
        let shards = if threads >= 4 { 2 } else { 1 };
        Self {
            shards,
            threads_per_shard: (threads / shards).max(1),
            queue_capacity: 64,
            wave_size: 4,
            precompute: PrecomputeBudget::default(),
            faults: Arc::new(FaultPlan::from_env()),
            session_byte_budget: 0,
            proof_cache_bytes: 0,
            rebalance_interval: None,
            trace: TraceSink::disabled(),
        }
    }
}

impl ServiceConfig {
    /// Overrides the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-shard backend pool width.
    pub fn with_threads_per_shard(mut self, threads: usize) -> Self {
        self.threads_per_shard = threads.max(1);
        self
    }

    /// Overrides the per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the wave size.
    pub fn with_wave_size(mut self, wave_size: usize) -> Self {
        self.wave_size = wave_size.max(1);
        self
    }

    /// Installs an explicit fault-injection plan (tests;
    /// production configs inherit `ZKSPEED_FAULTS` via `Default`).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Bounds the summed resident bytes of active sessions (0 = unlimited).
    pub fn with_session_byte_budget(mut self, bytes: u64) -> Self {
        self.session_byte_budget = bytes;
        self
    }

    /// Installs a tracing sink; pass [`TraceSink::enabled`] to record the
    /// full job lifecycle.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }
}

/// The deadline of a job whose [`JobSpec`] carries none, measured from
/// acceptance: an expired job fails with [`ServiceError::JobFailed`]
/// instead of proving, and waiters give up with [`ServiceError::Deadline`].
const DEFAULT_DEADLINE: Duration = Duration::from_secs(120);

/// Per-job submission parameters: scheduling class plus an optional
/// deadline overriding the default of two minutes.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Scheduling class.
    pub priority: Priority,
    /// Deadline measured from acceptance; `None` uses the service default.
    pub deadline: Option<Duration>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self::new(Priority::Normal)
    }
}

impl JobSpec {
    /// A spec with the given priority and the service's default deadline.
    pub fn new(priority: Priority) -> Self {
        Self {
            priority,
            deadline: None,
        }
    }

    /// Overrides the deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Everything that can go wrong talking to the service in-process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The queue is at capacity (backpressure); retry or use the parking
    /// submit.
    QueueFull,
    /// No session is registered under the given digest.
    UnknownCircuit,
    /// No job exists under the given id.
    UnknownJob,
    /// The witness shape does not match the session's circuit.
    WitnessMismatch {
        /// The circuit's `μ`.
        expected: usize,
        /// The witness's `μ`.
        found: usize,
    },
    /// A submitted artifact failed to decode.
    Decode(DecodeError),
    /// The circuit could not be preprocessed (e.g. exceeds the service
    /// SRS).
    Preprocess(PreprocessError),
    /// The job ran but its witness failed the circuit.
    JobFailed(
        /// The prover's error message.
        String,
    ),
    /// The session was evicted from the store: its proving key is gone.
    /// Re-register the circuit (`SubmitCircuit` with the same bytes) to
    /// re-provision it, then resubmit.
    SessionEvicted,
    /// The service is draining: in-flight jobs finish, new work is turned
    /// away.
    Draining,
    /// The service is shutting down.
    Shutdown,
    /// The job's deadline passed before its outcome was delivered. The job
    /// record stays collectable: a late completion (or the queue-side
    /// expiry) still resolves it.
    Deadline,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "job queue at capacity"),
            ServiceError::UnknownCircuit => write!(f, "circuit digest not registered"),
            ServiceError::UnknownJob => write!(f, "unknown job id"),
            ServiceError::WitnessMismatch { expected, found } => write!(
                f,
                "witness has {found} variables, session circuit has {expected}"
            ),
            ServiceError::Decode(e) => write!(f, "decode failed: {e}"),
            ServiceError::Preprocess(e) => write!(f, "preprocess failed: {e}"),
            ServiceError::JobFailed(msg) => write!(f, "job failed: {msg}"),
            ServiceError::SessionEvicted => write!(
                f,
                "session was evicted; re-register the circuit to re-provision it"
            ),
            ServiceError::Draining => write!(f, "service is draining, not accepting new work"),
            ServiceError::Shutdown => write!(f, "service is shutting down"),
            ServiceError::Deadline => write!(f, "job deadline exceeded"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<DecodeError> for ServiceError {
    fn from(e: DecodeError) -> Self {
        ServiceError::Decode(e)
    }
}

impl From<PreprocessError> for ServiceError {
    fn from(e: PreprocessError) -> Self {
        ServiceError::Preprocess(e)
    }
}

/// One scheduler shard: a bounded queue plus the execution context of its
/// dedicated backend pool.
pub(crate) struct Shard {
    pub(crate) queue: JobQueue,
    pub(crate) ctx: ExecCtx,
    /// Cleared when the shard's worker exits for good (clean shutdown or
    /// restart budget exhausted). Waiters consult it so they never block on
    /// a shard that can no longer make progress.
    pub(crate) alive: AtomicBool,
    /// Worker deaths charged against the restart budget
    /// ([`crate::worker`]).
    pub(crate) restarts: AtomicU32,
}

/// The state the service handle, the endpoint and the shard workers share.
///
/// Lock order: jobs → store. Nothing that holds the store lock may take
/// the jobs lock.
pub(crate) struct ServiceShared {
    pub(crate) srs: Arc<Srs>,
    pub(crate) config: ServiceConfig,
    pub(crate) shards: Vec<Shard>,
    /// Sessions: active/evicted state, LRU eviction, shard assignments and
    /// each session's metrics row.
    pub(crate) store: SessionStore,
    /// Serializes registrations so concurrent submissions of the same
    /// circuit preprocess once (and never burn a round-robin shard slot on
    /// a discarded duplicate). Held only on the registration path — job
    /// submission and proving never touch it.
    registration: Mutex<()>,
    next_shard: AtomicU64,
    /// Every accepted job until its outcome leaves the retention ring, and
    /// the counters of their outcomes.
    pub(crate) jobs: JobTable,
    /// Service-wide wave numbering, tagged onto wave trace spans.
    pub(crate) next_wave_id: AtomicU64,
    /// Set by [`ProvingService::begin_drain`]: new registrations and
    /// submissions are rejected while accepted jobs run to completion.
    draining: AtomicBool,
    pub(crate) metrics: MetricsRecorder,
    /// When the service started: the origin of the metrics' uptime.
    started: Instant,
    /// Shard worker join handles. Lives in the shared state (not the
    /// service handle) because the supervisor pushes replacement workers
    /// from inside a dying worker thread.
    pub(crate) worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A running proving service. Dropping it (or calling
/// [`ProvingService::shutdown`]) closes the queues, drains in-flight waves
/// and joins the shard workers.
pub struct ProvingService {
    pub(crate) shared: Arc<ServiceShared>,
}

impl fmt::Debug for ProvingService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProvingService")
            .field("shards", &self.shared.config.shards)
            .field("srs_num_vars", &self.shared.srs.num_vars())
            .finish()
    }
}

impl ProvingService {
    /// Starts the service: builds one queue + backend pool per shard and
    /// spawns the shard worker threads.
    pub fn start(srs: Arc<Srs>, config: ServiceConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| Shard {
                queue: JobQueue::new(config.queue_capacity),
                ctx: ExecCtx {
                    backend: backend_with_threads(config.threads_per_shard),
                    trace: config.trace.clone(),
                    job: 0,
                },
                alive: AtomicBool::new(true),
                restarts: AtomicU32::new(0),
            })
            .collect::<Vec<_>>();
        // The retention ring holds as many delivered outcomes as the queues
        // hold jobs.
        let retain = shards.len() * config.queue_capacity;
        let shared = Arc::new(ServiceShared {
            srs,
            config: config.clone(),
            shards,
            store: SessionStore::new(config.session_byte_budget),
            registration: Mutex::new(()),
            next_shard: AtomicU64::new(0),
            jobs: JobTable::new(retain),
            next_wave_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            metrics: MetricsRecorder::default(),
            started: Instant::now(),
            worker_handles: Mutex::new(Vec::new()),
        });
        for shard in 0..shared.shards.len() {
            spawn_worker(&shared, shard);
        }
        Self { shared }
    }

    /// The universal SRS sessions are preprocessed against.
    pub fn srs(&self) -> &Arc<Srs> {
        &self.shared.srs
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Registers a circuit: preprocesses it into a session keyed by the
    /// circuit's canonical digest and assigns it to a shard (round-robin).
    /// Registering the same circuit twice is idempotent and returns the
    /// existing session's digest.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Preprocess`] if the circuit does not fit the
    /// service SRS.
    pub fn register_circuit(&self, circuit: Circuit) -> Result<[u8; 32], ServiceError> {
        let digest = circuit.digest();
        self.register_with_digest(circuit, digest)
    }

    fn register_with_digest(
        &self,
        circuit: Circuit,
        digest: [u8; 32],
    ) -> Result<[u8; 32], ServiceError> {
        if self.is_draining() {
            bump(&self.shared.metrics.rejected_draining);
            return Err(ServiceError::Draining);
        }
        // One registration at a time: preprocessing commits eight MLE
        // tables (0.07–0.11 s at μ=14 on one core, mock and hash-chain
        // circuits), and racing duplicates would each pay it and burn a
        // shard slot for the discarded copy.
        let _registering = lock(&self.shared.registration);
        if self.shared.store.state(&digest) == Some(SessionState::Active) {
            return Ok(digest);
        }
        // An evicted session re-provisions on its original shard so its
        // queued-but-unproven history and latency windows stay coherent;
        // brand-new sessions are placed round-robin.
        let shard = self.shared.store.shard_of(&digest).unwrap_or_else(|| {
            (self.shared.next_shard.fetch_add(1, Ordering::Relaxed) as usize) % self.shard_count()
        });
        let backend = &*self.shared.shards[shard].ctx.backend;
        let (pk, vk) = try_preprocess(circuit, &self.shared.srs, backend)?;
        // What the key keeps resident per gate: the circuit's five selector
        // tables of `Fr` and its three σ columns of `usize`.
        let row_bytes = 5 * size_of::<Fr>() + 3 * size_of::<usize>();
        let resident_bytes = (row_bytes as u64) << pk.circuit.num_vars();
        let (pk, vk) = (Arc::new(pk), Arc::new(vk));
        self.shared
            .store
            .insert_active(digest, pk, vk, shard, resident_bytes);
        Ok(digest)
    }

    /// [`ProvingService::register_circuit`] from canonical circuit bytes;
    /// returns the digest and the circuit's `μ`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Decode`] for malformed bytes, or
    /// [`ServiceError::Preprocess`] if the circuit does not fit the SRS.
    pub fn register_circuit_bytes(&self, bytes: &[u8]) -> Result<([u8; 32], usize), ServiceError> {
        let circuit = Circuit::from_bytes(bytes)?;
        // Every input `from_bytes` accepts is canonical (round-trip
        // byte-identical), so hashing the input directly equals
        // `circuit.digest()` without re-encoding the 2^μ gate tables.
        let digest = zkspeed_rt::Sha3_256::digest(bytes);
        let num_vars = circuit.num_vars();
        Ok((self.register_with_digest(circuit, digest)?, num_vars))
    }

    /// The verifying key of a registered session (for clients that verify
    /// streamed proofs). Retained across eviction: proofs of an evicted
    /// session stay verifiable.
    pub fn verifying_key(&self, digest: &[u8; 32]) -> Option<Arc<VerifyingKey>> {
        self.shared.store.verifying_key(digest)
    }

    /// Submits a job with a full [`JobSpec`] (priority plus an optional
    /// per-job deadline), **rejecting** with [`ServiceError::QueueFull`]
    /// when the session's shard queue is at capacity (the wire protocol's
    /// backpressure path).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCircuit`],
    /// [`ServiceError::SessionEvicted`], [`ServiceError::WitnessMismatch`],
    /// [`ServiceError::QueueFull`], [`ServiceError::Draining`], or
    /// [`ServiceError::Shutdown`] when the session's shard has been written
    /// off (worker restart budget exhausted).
    pub fn try_submit(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        spec: JobSpec,
    ) -> Result<u64, ServiceError> {
        self.submit_inner(digest, witness, spec, false)
    }

    /// Submits a job with the default deadline, **parking** the calling
    /// thread until queue capacity frees up.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCircuit`],
    /// [`ServiceError::SessionEvicted`], [`ServiceError::WitnessMismatch`],
    /// [`ServiceError::Draining`] or [`ServiceError::Shutdown`].
    pub fn submit(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        priority: Priority,
    ) -> Result<u64, ServiceError> {
        self.submit_inner(digest, witness, JobSpec::new(priority), true)
    }

    fn submit_inner(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        spec: JobSpec,
        park: bool,
    ) -> Result<u64, ServiceError> {
        if self.is_draining() {
            bump(&self.shared.metrics.rejected_draining);
            return Err(ServiceError::Draining);
        }
        let Some(session) = self.shared.store.get_active(digest) else {
            return Err(match self.shared.store.state(digest) {
                Some(SessionState::Evicted) => {
                    bump(&self.shared.store.rejected_evicted);
                    ServiceError::SessionEvicted
                }
                _ => {
                    bump(&self.shared.metrics.rejected_invalid);
                    ServiceError::UnknownCircuit
                }
            });
        };
        if witness.num_vars() != session.num_vars {
            bump(&self.shared.metrics.rejected_invalid);
            return Err(ServiceError::WitnessMismatch {
                expected: session.num_vars,
                found: witness.num_vars(),
            });
        }
        let submitted = Instant::now();
        let deadline = spec
            .deadline
            .unwrap_or(DEFAULT_DEADLINE)
            .max(Duration::from_millis(1));
        // The entry must exist before the worker can complete it.
        let id = self.shared.jobs.admit(session.shard, submitted + deadline);
        let job = QueuedJob {
            id,
            session: *digest,
            witness: Arc::new(witness),
            priority: spec.priority,
            pk: Arc::clone(&session.pk),
            enqueued_at: submitted,
        };
        let queue = &self.shared.shards[session.shard].queue;
        let pushed = if park {
            queue.push_blocking(job)
        } else {
            queue.try_push(job)
        };
        if pushed.is_err() {
            self.shared.jobs.withdraw(id);
            return if park || queue.is_closed() {
                Err(ServiceError::Shutdown)
            } else {
                bump(&self.shared.metrics.rejected_queue_full);
                Err(ServiceError::QueueFull)
            };
        }
        self.shared.config.trace.instant(
            "submit",
            "job",
            &[
                ("job", id),
                ("session", digest_tag(digest)),
                ("shard", session.shard as u64),
                ("class", spec.priority.index() as u64),
            ],
        );
        Ok(id)
    }

    /// The job's current lifecycle state, or `None` for unknown ids —
    /// including delivered ids that have left the retention ring (see
    /// [`ProvingService::wait`]).
    pub fn status(&self, job: u64) -> Option<JobState> {
        self.shared.jobs.status(job)
    }

    /// Blocks until the job completes and returns its canonical proof
    /// bytes.
    ///
    /// Delivery **retains** the outcome: once it has been handed over
    /// (here, or as `ProofReady` / `JobFailed` over the wire), it stays in
    /// a retention ring of the last `shards × queue_capacity` delivered
    /// jobs, so a repeated `wait` or a re-poll after a torn response gets
    /// the same answer. The ring evicts the oldest outcome first, so a
    /// long-running service does not retain proof bytes without bound; an
    /// evicted id is unknown.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownJob`] for unknown (or evicted) ids,
    /// [`ServiceError::JobFailed`] if the job failed (bad witness, panicked
    /// wave, dead worker), or [`ServiceError::Deadline`] once the job's
    /// deadline passes — the record is left in place for a late
    /// collection.
    pub fn wait(&self, job: u64) -> Result<Arc<Vec<u8>>, ServiceError> {
        self.shared.jobs.wait(job)
    }

    /// A point-in-time metrics snapshot (queue gauges aggregated over
    /// shards).
    pub fn metrics(&self) -> ServiceMetrics {
        let shards = &self.shared.shards;
        let queues = shards.iter().map(|shard| &shard.queue);
        let mut depths = [0usize; 3];
        let mut queue_waits: [Histogram; 3] = Default::default();
        for queue in queues.clone() {
            let (depth, waits) = (queue.depths(), queue.wait_histograms());
            for class in 0..3 {
                depths[class] += depth[class];
                queue_waits[class].merge(&waits[class]);
            }
        }
        let workers_alive = shards.iter().filter(|s| s.alive.load(Ordering::SeqCst));
        let store = &self.shared.store;
        let sessions = store.snapshot();
        let active = sessions
            .iter()
            .filter(|s| s.state == SessionState::Active)
            .count();
        let jobs = self.shared.jobs.counts();
        self.shared.metrics.snapshot(ServiceMetrics {
            uptime_seconds: self.shared.started.elapsed().as_secs_f64(),
            sessions_registered: sessions.len(),
            submitted: jobs.submitted,
            completed: jobs.completed,
            failed: jobs.failed,
            failed_deadline: jobs.failed_deadline,
            supervision: SupervisionMetrics {
                workers_alive: workers_alive.count(),
                workers_configured: shards.len(),
                ..SupervisionMetrics::default()
            },
            lifecycle: SessionLifecycleMetrics {
                active,
                evicted: sessions.len() - active,
                evictions: store.evictions.load(Ordering::Relaxed),
                reprovisions: store.reprovisions.load(Ordering::Relaxed),
                rejected_evicted: store.rejected_evicted.load(Ordering::Relaxed),
            },
            queue_depths: depths,
            peak_queue_depth: queues.clone().map(JobQueue::peak_depth).max().unwrap_or(0),
            queue_capacity: queues.map(JobQueue::capacity).sum(),
            queue_waits,
            sessions,
            ..ServiceMetrics::default()
        })
    }

    /// The current tracing recording as Chrome trace-event JSON (loadable
    /// in Perfetto / `chrome://tracing`). An empty-but-valid trace when the
    /// service was started without [`ServiceConfig::with_trace`].
    pub fn trace_json(&self) -> String {
        self.shared.config.trace.chrome_trace_json()
    }

    /// The number of scheduler shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Flips the service into drain mode: every subsequent registration or
    /// submission is rejected with [`ServiceError::Draining`] (wire:
    /// `Rejected(Draining)`), while already-accepted jobs keep running and
    /// their results stay collectable. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`ProvingService::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Blocks until no job is queued or running. Call after
    /// [`ProvingService::begin_drain`] — otherwise new submissions can keep
    /// the backlog alive indefinitely. Completed-but-uncollected outcomes
    /// (`Done`/`Failed` entries awaiting delivery) do not block the drain.
    ///
    /// A pending job whose shard worker has died for good (restart budget
    /// exhausted or clean exit) is failed here rather than waited on, so a
    /// drain never blocks on a shard that cannot make progress.
    pub fn drain(&self) {
        let shards = &self.shared.shards;
        self.shared
            .jobs
            .drain(|shard| shards[shard].alive.load(Ordering::SeqCst));
    }

    /// Records a transport connection being accepted (transport layers call
    /// this so [`ServiceMetrics::connections`] reflects socket activity).
    pub fn record_connection_opened(&self) {
        bump(&self.shared.metrics.conn_opened);
    }

    /// Records a transport connection closing (any reason).
    pub fn record_connection_closed(&self) {
        bump(&self.shared.metrics.conn_closed);
    }

    /// Records a connection rejected for a bad auth token.
    pub fn record_connection_bad_auth(&self) {
        bump(&self.shared.metrics.conn_bad_auth);
    }

    /// Records a connection rejected because the transport's connection cap
    /// was reached.
    pub fn record_connection_over_capacity(&self) {
        bump(&self.shared.metrics.conn_over_capacity);
    }

    /// Records a connection closed by the per-connection idle timeout.
    pub fn record_connection_idle_timeout(&self) {
        bump(&self.shared.metrics.conn_idle_timeouts);
    }

    /// Stops accepting work, drains the queued backlog, joins the shard
    /// workers and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.shutdown_in_place();
        self.metrics()
    }

    fn shutdown_in_place(&mut self) {
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        // A dying worker can push a replacement handle while we join, so
        // keep taking the handle list until it stays empty. Joins happen
        // outside the lock: the supervisor needs it to register the
        // replacement we are about to join.
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *lock(&self.shared.worker_handles));
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ProvingService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}
