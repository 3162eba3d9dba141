//! The long-running proving service: session registry, shard workers, job
//! lifecycle and the in-process wire endpoint.
//!
//! # Architecture
//!
//! ```text
//!  clients ──frames──▶ ProvingService
//!                        │ register: Circuit bytes ─▶ preprocess ─▶ Session (pk/vk, Arc-shared)
//!                        │ submit:   Witness bytes ─▶ shard queue (bounded, priority, aging)
//!                        ▼
//!               shard 0 worker ─ pop_wave ─▶ prove_batch ─▶ proofs (canonical bytes)
//!               shard 1 worker ─ pop_wave ─▶ prove_batch ─▶ ...
//! ```
//!
//! Each **shard** owns a bounded [`JobQueue`], one worker thread and a
//! dedicated execution [`Backend`](zkspeed_rt::pool::Backend) pool, so
//! independent sessions assigned to different shards prove on disjoint
//! workers. Sessions are assigned to shards round-robin at registration.
//! Within a shard, the worker pops *waves* — up to `wave_size` queued jobs
//! of one session and priority class — and proves them through
//! [`prove_batch`], which fans the independent proofs out across the
//! shard's pool. Proofs are canonical bytes; identical
//! (circuit, witness) submissions produce byte-identical proofs regardless
//! of queue order, priority or wave packing.
//!
//! # Supervision and failure
//!
//! Each shard worker runs under a supervisor: the wave body executes inside
//! [`catch_unwind`](std::panic::catch_unwind), so a panicking prover fails
//! only that wave's jobs (reported as [`ServiceError::JobFailed`] /
//! `JobFailed` over the wire) and the worker keeps serving. A panic that
//! escapes the wave guard kills the worker; the supervisor fails its
//! in-flight jobs and respawns it within a bounded restart budget
//! ([`ServiceConfig::restart_budget`]). When the budget is exhausted the
//! shard's queue is closed and its backlog failed, so no waiter blocks on a
//! job that can never run. Every job additionally carries a deadline
//! ([`JobSpec`], defaulting to [`ServiceConfig::default_deadline`]):
//! expired jobs fail without burning prover time, and `wait` / `drain`
//! never block past it.

use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zkspeed_hyperplonk::{
    prove_batch, try_preprocess, Circuit, ExecCtx, PreprocessError, VerifyingKey, Witness,
};
use zkspeed_pcs::{PrecomputeBudget, Srs};
use zkspeed_rt::codec::{DecodeError, Reader};
use zkspeed_rt::faults::{FaultPlan, WaveFault};
use zkspeed_rt::pool::backend_with_threads;
use zkspeed_rt::trace::{digest_tag, Histogram, TraceSink};
use zkspeed_rt::ToJson;

use crate::metrics::{MetricsRecorder, ServiceMetrics, SessionLifecycleMetrics, SnapshotGauges};
use crate::queue::{JobQueue, QueuedJob};
use crate::store::{SessionState, SessionStore};
use crate::sync::{lock, wait_timeout};
use crate::wire::{JobState, Priority, RejectCode, Request, Response, SessionRow};

/// How long waiters poll between predicate re-checks. Bounds the damage of
/// any missed wakeup: a waiter is never more than one interval behind the
/// state it is watching (a worker death, a deadline, a drained backlog).
const WAIT_POLL: Duration = Duration::from_millis(100);

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
    /// Pops a starving class waits before it is force-served (see
    /// [`JobQueue`]).
    pub starvation_limit: u64,
    /// Opt-in switch for per-session precomputed commit tables, built once
    /// at registration on the session's shard backend; every proof of the
    /// session then commits and opens on them. Disabled by default.
    pub precompute: PrecomputeBudget,
    /// Deadline applied to jobs whose [`JobSpec`] does not carry one.
    /// Measured from acceptance; an expired job fails with
    /// [`ServiceError::JobFailed`] instead of proving, and waiters give up
    /// with [`ServiceError::Deadline`].
    pub default_deadline: Duration,
    /// How many times a dead shard worker is respawned before the shard is
    /// written off (queue closed, backlog failed).
    pub restart_budget: u32,
    /// Deterministic fault-injection plan consulted by the shard workers
    /// (and, through [`ProvingService::config`], by transport layers).
    /// Defaults to the `ZKSPEED_FAULTS` environment spec; inert when unset.
    pub faults: Arc<FaultPlan>,
    /// Maximum **active** (provisioned) sessions; least-recently-used
    /// sessions beyond it are evicted (proving key dropped, verifying key
    /// retained). 0 = unlimited (the default).
    pub session_capacity: usize,
    /// Byte budget over the summed resident proving-key bytes of active
    /// sessions; LRU eviction keeps the total under it. 0 = unlimited.
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
            starvation_limit: 4,
            precompute: PrecomputeBudget::default(),
            default_deadline: Duration::from_secs(120),
            restart_budget: 3,
            faults: Arc::new(FaultPlan::from_env()),
            session_capacity: 0,
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

    /// Overrides the anti-starvation limit.
    pub fn with_starvation_limit(mut self, limit: u64) -> Self {
        self.starvation_limit = limit;
        self
    }

    /// Switches precomputed commit tables on or off (off by default).
    pub fn with_precompute(mut self, precompute: PrecomputeBudget) -> Self {
        self.precompute = precompute;
        self
    }

    /// Overrides the per-shard worker restart budget.
    pub fn with_restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = budget;
        self
    }

    /// Installs an explicit fault-injection plan (tests;
    /// production configs inherit `ZKSPEED_FAULTS` via `Default`).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Bounds the number of active sessions (0 = unlimited).
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity;
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

/// Per-job submission parameters: scheduling class plus an optional
/// deadline overriding [`ServiceConfig::default_deadline`].
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
struct Shard {
    queue: JobQueue,
    ctx: ExecCtx,
    /// Cleared when the shard's worker exits for good (clean shutdown or
    /// restart budget exhausted). Waiters consult it so they never block on
    /// a shard that can no longer make progress.
    alive: AtomicBool,
    /// Worker deaths charged against [`ServiceConfig::restart_budget`].
    restarts: AtomicU32,
}

/// Job lifecycle under the jobs lock.
enum JobPhase {
    Queued,
    Running,
    Done(Arc<Vec<u8>>),
    Failed(String),
}

struct JobEntry {
    phase: JobPhase,
    submitted: Instant,
    deadline_at: Instant,
    session: [u8; 32],
    shard: usize,
}

struct ServiceShared {
    srs: Arc<Srs>,
    config: ServiceConfig,
    shards: Vec<Shard>,
    /// Session lifecycle: active/evicted state, LRU eviction, shard
    /// assignments.
    store: SessionStore,
    /// Serializes registrations so concurrent submissions of the same
    /// circuit preprocess once (and never burn a round-robin shard slot on
    /// a discarded duplicate). Held only on the registration path — job
    /// submission and proving never touch it.
    registration: Mutex<()>,
    next_shard: AtomicU64,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    job_done: Condvar,
    next_job_id: AtomicU64,
    /// Service-wide wave numbering, tagged onto wave trace spans.
    next_wave_id: AtomicU64,
    /// Set by [`ProvingService::begin_drain`]: new registrations and
    /// submissions are rejected while accepted jobs run to completion.
    draining: AtomicBool,
    metrics: MetricsRecorder,
    /// Shard worker join handles. Lives in the shared state (not the
    /// service handle) because the supervisor pushes replacement workers
    /// from inside a dying worker thread.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A running proving service. Dropping it (or calling
/// [`ProvingService::shutdown`]) closes the queues, drains in-flight waves
/// and joins the shard workers.
pub struct ProvingService {
    shared: Arc<ServiceShared>,
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
                queue: JobQueue::new(config.queue_capacity, config.starvation_limit),
                ctx: ExecCtx {
                    backend: backend_with_threads(config.threads_per_shard),
                    trace: config.trace.clone(),
                    job: 0,
                },
                alive: AtomicBool::new(true),
                restarts: AtomicU32::new(0),
            })
            .collect();
        let shared = Arc::new(ServiceShared {
            srs,
            config: config.clone(),
            shards,
            store: SessionStore::new(config.session_capacity, config.session_byte_budget),
            registration: Mutex::new(()),
            next_shard: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            job_done: Condvar::new(),
            next_job_id: AtomicU64::new(1),
            next_wave_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            metrics: MetricsRecorder::new(),
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
            self.shared
                .metrics
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Draining);
        }
        // One registration at a time: preprocessing commits eight MLE
        // tables (seconds at μ=14), and racing duplicates would each pay it
        // and burn a shard slot for the discarded copy.
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
        let num_vars = circuit.num_vars();
        let backend = &*self.shared.shards[shard].ctx.backend;
        let preprocess_started = Instant::now();
        let (pk, vk) = try_preprocess(
            circuit,
            &self.shared.srs,
            backend,
            &self.shared.config.precompute,
        )?;
        let table_bytes = pk
            .commit_tables
            .as_ref()
            .map_or(0, |tables| tables.size_in_bytes());
        let build_ms = if table_bytes > 0 {
            preprocess_started.elapsed().as_secs_f64() * 1e3
        } else {
            0.0
        };
        self.shared
            .metrics
            .record_precompute(digest, table_bytes, build_ms);
        // Resident estimate: the eight circuit MLE tables (32-byte field
        // elements over 2^μ rows each) plus any precomputed commit tables.
        let resident_bytes = table_bytes + 8 * 32 * (1u64 << num_vars);
        self.shared.store.insert_active(
            digest,
            Arc::new(pk),
            Arc::new(vk),
            num_vars,
            shard,
            resident_bytes,
        );
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

    /// Submits a job, **rejecting** with [`ServiceError::QueueFull`] when
    /// the session's shard queue is at capacity (the wire protocol's
    /// backpressure path).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCircuit`],
    /// [`ServiceError::WitnessMismatch`] or [`ServiceError::QueueFull`].
    pub fn try_submit(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        priority: Priority,
    ) -> Result<u64, ServiceError> {
        self.try_submit_spec(digest, witness, JobSpec::new(priority))
    }

    /// [`ProvingService::try_submit`] with a full [`JobSpec`] (priority plus
    /// an optional per-job deadline).
    ///
    /// # Errors
    ///
    /// As [`ProvingService::try_submit`]; additionally
    /// [`ServiceError::Shutdown`] when the session's shard has been written
    /// off (worker restart budget exhausted).
    pub fn try_submit_spec(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        spec: JobSpec,
    ) -> Result<u64, ServiceError> {
        self.submit_inner(digest, witness, spec, false)
    }

    /// Submits a job, **parking** the calling thread until queue capacity
    /// frees up.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownCircuit`],
    /// [`ServiceError::WitnessMismatch`] or [`ServiceError::Shutdown`].
    pub fn submit(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        priority: Priority,
    ) -> Result<u64, ServiceError> {
        self.submit_spec(digest, witness, JobSpec::new(priority))
    }

    /// [`ProvingService::submit`] with a full [`JobSpec`].
    ///
    /// # Errors
    ///
    /// As [`ProvingService::submit`].
    pub fn submit_spec(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        spec: JobSpec,
    ) -> Result<u64, ServiceError> {
        self.submit_inner(digest, witness, spec, true)
    }

    fn submit_inner(
        &self,
        digest: &[u8; 32],
        witness: Witness,
        spec: JobSpec,
        park: bool,
    ) -> Result<u64, ServiceError> {
        if self.is_draining() {
            self.shared
                .metrics
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Draining);
        }
        let Some(session) = self.shared.store.get_active(digest) else {
            return Err(match self.shared.store.state(digest) {
                Some(SessionState::Evicted) => {
                    self.shared
                        .store
                        .rejected_evicted
                        .fetch_add(1, Ordering::Relaxed);
                    ServiceError::SessionEvicted
                }
                _ => {
                    self.shared
                        .metrics
                        .rejected_invalid
                        .fetch_add(1, Ordering::Relaxed);
                    ServiceError::UnknownCircuit
                }
            });
        };
        if witness.num_vars() != session.num_vars {
            self.shared
                .metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::WitnessMismatch {
                expected: session.num_vars,
                found: witness.num_vars(),
            });
        }
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let submitted = Instant::now();
        let deadline = spec
            .deadline
            .unwrap_or(self.shared.config.default_deadline)
            .max(Duration::from_millis(1));
        let job = QueuedJob {
            id,
            session: *digest,
            witness: Arc::new(witness),
            priority: spec.priority,
            pk: Arc::clone(&session.pk),
            enqueued_at: submitted,
        };
        // The entry must exist before the worker can complete it.
        lock(&self.shared.jobs).insert(
            id,
            JobEntry {
                phase: JobPhase::Queued,
                submitted,
                deadline_at: submitted + deadline,
                session: *digest,
                shard: session.shard,
            },
        );
        // Counted before the push: once queued, the job can complete before
        // this thread runs again, and no scrape may see it finish unsubmitted.
        let metrics = &self.shared.metrics;
        metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let queue = &self.shared.shards[session.shard].queue;
        let pushed = if park {
            queue.push_blocking(job)
        } else {
            queue.try_push(job)
        };
        if pushed.is_err() {
            metrics.submitted.fetch_sub(1, Ordering::Relaxed);
            lock(&self.shared.jobs).remove(&id);
            return if park || queue.is_closed() {
                Err(ServiceError::Shutdown)
            } else {
                metrics.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
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
    /// including ids whose terminal outcome was already delivered through
    /// [`ProvingService::wait`] or the wire protocol.
    pub fn status(&self, job: u64) -> Option<JobState> {
        let jobs = lock(&self.shared.jobs);
        jobs.get(&job).map(|entry| match entry.phase {
            JobPhase::Queued => JobState::Queued,
            JobPhase::Running => JobState::Running,
            JobPhase::Done(_) => JobState::Done,
            JobPhase::Failed(_) => JobState::Failed,
        })
    }

    /// Blocks until the job completes and returns its canonical proof
    /// bytes.
    ///
    /// Delivery **consumes** the job record: once the outcome has been
    /// handed over (here, or streamed as `ProofReady` / a `Failed` status
    /// over the wire), the id is forgotten, so a long-running service does
    /// not retain proof bytes without bound. A later lookup of the same id
    /// reports it as unknown.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownJob`] for unknown (or
    /// already-delivered) ids, [`ServiceError::JobFailed`] if the job
    /// failed (bad witness, panicked wave, dead worker), or
    /// [`ServiceError::Deadline`] once the job's deadline passes — the
    /// record is left in place for a late collection.
    pub fn wait(&self, job: u64) -> Result<Arc<Vec<u8>>, ServiceError> {
        let mut jobs = lock(&self.shared.jobs);
        loop {
            let deadline_at = match jobs.get(&job) {
                None => return Err(ServiceError::UnknownJob),
                Some(entry) if matches!(entry.phase, JobPhase::Done(_) | JobPhase::Failed(_)) => {
                    let entry = jobs.remove(&job).expect("entry present");
                    return match entry.phase {
                        JobPhase::Done(proof) => Ok(proof),
                        JobPhase::Failed(msg) => Err(ServiceError::JobFailed(msg)),
                        _ => unreachable!("terminal phase matched above"),
                    };
                }
                Some(entry) => entry.deadline_at,
            };
            let now = Instant::now();
            if deadline_at <= now {
                return Err(ServiceError::Deadline);
            }
            // Bounded wait: a missed wakeup (or a worker death) delays the
            // deadline/terminal-phase re-check by at most one poll interval.
            let timeout = (deadline_at - now).min(WAIT_POLL);
            jobs = wait_timeout(&self.shared.job_done, jobs, timeout);
        }
    }

    /// A point-in-time metrics snapshot (queue gauges aggregated over
    /// shards).
    pub fn metrics(&self) -> ServiceMetrics {
        let mut depths = [0usize; 3];
        let mut peak = 0usize;
        let mut capacity = 0usize;
        let mut queue_waits: [Histogram; 3] = Default::default();
        for shard in &self.shared.shards {
            let d = shard.queue.depths();
            for (total, class) in depths.iter_mut().zip(d) {
                *total += class;
            }
            peak = peak.max(shard.queue.peak_depth());
            capacity += shard.queue.capacity();
            for (merged, waits) in queue_waits.iter_mut().zip(shard.queue.wait_histograms()) {
                merged.merge(&waits);
            }
        }
        let workers_alive = self
            .shared
            .shards
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .count();
        let store = &self.shared.store;
        let active = store.active_count();
        let total = store.total_count();
        self.shared.metrics.snapshot(SnapshotGauges {
            queue_depths: depths,
            peak_queue_depth: peak,
            queue_capacity: capacity,
            sessions_registered: total,
            workers_alive,
            workers_configured: self.shared.shards.len(),
            restart_budget_per_shard: self.shared.config.restart_budget,
            lifecycle: SessionLifecycleMetrics {
                active,
                evicted: total - active,
                capacity: store.capacity(),
                evictions: store.evictions.load(Ordering::Relaxed),
                reprovisions: store.reprovisions.load(Ordering::Relaxed),
                rejected_evicted: store.rejected_evicted.load(Ordering::Relaxed),
            },
            store_sessions: store.snapshot(),
            queue_waits,
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
        let mut jobs = lock(&self.shared.jobs);
        loop {
            let mut pending = false;
            let mut failed_here = false;
            for entry in jobs.values_mut() {
                if !matches!(entry.phase, JobPhase::Queued | JobPhase::Running) {
                    continue;
                }
                if self.shared.shards[entry.shard].alive.load(Ordering::SeqCst) {
                    pending = true;
                } else {
                    entry.phase = JobPhase::Failed("shard worker is dead".into());
                    self.shared.metrics.failed.fetch_add(1, Ordering::Release);
                    failed_here = true;
                }
            }
            if failed_here {
                self.shared.job_done.notify_all();
            }
            if !pending {
                return;
            }
            jobs = wait_timeout(&self.shared.job_done, jobs, WAIT_POLL);
        }
    }

    /// Records a transport connection being accepted (transport layers call
    /// this so [`ServiceMetrics::connections`] reflects socket activity).
    pub fn record_connection_opened(&self) {
        self.shared
            .metrics
            .conn_opened
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a transport connection closing (any reason).
    pub fn record_connection_closed(&self) {
        self.shared
            .metrics
            .conn_closed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection rejected for a bad auth token.
    pub fn record_connection_bad_auth(&self) {
        self.shared
            .metrics
            .conn_bad_auth
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection rejected because the transport's connection cap
    /// was reached.
    pub fn record_connection_over_capacity(&self) {
        self.shared
            .metrics
            .conn_over_capacity
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed by the per-connection idle timeout.
    pub fn record_connection_idle_timeout(&self) {
        self.shared
            .metrics
            .conn_idle_timeouts
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The in-process wire endpoint: decodes one request frame, serves it,
    /// and returns the encoded response frame. Malformed input never
    /// panics — it answers with a `Rejected` response instead, like a
    /// socket server would.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        self.handle_frame_inner(frame).to_frame()
    }

    fn handle_frame_inner(&self, frame: &[u8]) -> Response {
        let mut reader = Reader::new(frame);
        let payload = match reader.frame().and_then(|p| {
            reader.finish()?;
            Ok(p)
        }) {
            Ok(payload) => payload,
            Err(e) => return reject(RejectCode::Malformed, &e),
        };
        let request = match Request::from_bytes(payload) {
            Ok(request) => request,
            Err(e) => return reject(RejectCode::Malformed, &e),
        };
        self.handle_request(request)
    }

    /// Serves one already-decoded request. Transport layers that decode
    /// frames themselves (and intercept `Hello` for authentication) call
    /// this directly; [`ProvingService::handle_frame`] is the whole-frame
    /// convenience wrapper.
    ///
    /// `Hello` here answers unconditionally with `HelloOk` — the service
    /// itself holds no auth secret; token checking is the transport's job.
    /// `Shutdown` flips the service into drain mode and answers
    /// `ShuttingDown`.
    pub fn handle_request(&self, request: Request) -> Response {
        match request {
            Request::Hello { .. } => Response::HelloOk {
                protocol: zkspeed_rt::codec::VERSION,
                server: format!("zkspeed-svc/{}", env!("CARGO_PKG_VERSION")),
            },
            Request::Shutdown => {
                self.begin_drain();
                Response::ShuttingDown
            }
            Request::SubmitCircuit { circuit } => match self.register_circuit_bytes(&circuit) {
                Ok((digest, num_vars)) => Response::CircuitRegistered {
                    digest,
                    num_vars: num_vars as u32,
                },
                Err(e @ ServiceError::Decode(_)) => reject(RejectCode::Malformed, &e),
                Err(e @ ServiceError::Draining) => reject(RejectCode::Draining, &e),
                Err(e) => reject(RejectCode::Unsupported, &e),
            },
            Request::SubmitJob {
                circuit,
                priority,
                deadline_ms,
                witness,
            } => {
                let witness = match Witness::from_bytes(&witness) {
                    Ok(witness) => witness,
                    Err(e) => return reject(RejectCode::Malformed, &e),
                };
                let mut spec = JobSpec::new(priority);
                if deadline_ms > 0 {
                    spec = spec.with_deadline(Duration::from_millis(deadline_ms));
                }
                match self.try_submit_spec(&circuit, witness, spec) {
                    Ok(job) => Response::JobAccepted { job },
                    Err(e @ ServiceError::QueueFull) => reject(RejectCode::QueueFull, &e),
                    Err(e @ ServiceError::UnknownCircuit) => reject(RejectCode::UnknownCircuit, &e),
                    Err(e @ ServiceError::SessionEvicted) => reject(RejectCode::SessionEvicted, &e),
                    Err(e @ (ServiceError::Draining | ServiceError::Shutdown)) => {
                        reject(RejectCode::Draining, &e)
                    }
                    Err(e) => reject(RejectCode::WitnessMismatch, &e),
                }
            }
            Request::JobStatus { job } => {
                // A finished job streams its proof back in the same
                // request/response cycle; terminal outcomes are consumed on
                // delivery (see [`ProvingService::wait`]) so the jobs map
                // stays bounded over a long-running service's lifetime.
                let taken = {
                    let mut jobs = lock(&self.shared.jobs);
                    match jobs.get(&job) {
                        None => return reject(RejectCode::UnknownJob, &ServiceError::UnknownJob),
                        Some(entry) if matches!(entry.phase, JobPhase::Queued) => {
                            return Response::Status {
                                job,
                                state: JobState::Queued,
                            }
                        }
                        Some(entry) if matches!(entry.phase, JobPhase::Running) => {
                            return Response::Status {
                                job,
                                state: JobState::Running,
                            }
                        }
                        Some(_) => jobs.remove(&job).expect("entry present").phase,
                    }
                };
                // The proof-byte copy happens outside the jobs lock so one
                // large delivery cannot stall submitters and shard workers.
                match taken {
                    JobPhase::Done(proof) => Response::ProofReady {
                        job,
                        proof: Arc::try_unwrap(proof).unwrap_or_else(|arc| (*arc).clone()),
                    },
                    JobPhase::Failed(reason) => Response::JobFailed { job, reason },
                    _ => unreachable!("non-terminal phases matched above"),
                }
            }
            Request::Metrics => Response::Metrics {
                json: self.metrics().to_json().pretty(),
            },
            Request::ListSessions => {
                let completions = self.shared.metrics.completions_by_session();
                let sessions = self
                    .shared
                    .store
                    .snapshot()
                    .into_iter()
                    .map(|info| SessionRow {
                        digest: info.digest,
                        num_vars: info.num_vars as u32,
                        state: info.state,
                        shard: info.shard as u32,
                        resident_bytes: info.resident_bytes,
                        jobs_completed: completions.get(&info.digest).copied().unwrap_or(0),
                    })
                    .collect();
                Response::SessionList { sessions }
            }
            Request::GetTrace => Response::TraceDump {
                json: self.trace_json(),
            },
        }
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

fn reject(code: RejectCode, err: &dyn fmt::Display) -> Response {
    Response::Rejected {
        code,
        detail: err.to_string(),
    }
}

/// Spawns (or respawns) one shard's supervised worker thread and registers
/// its join handle.
fn spawn_worker(shared: &Arc<ServiceShared>, shard_idx: usize) {
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
                    worker.job_done.notify_all();
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
    {
        // Only this shard's jobs can be `Running` under a dead worker: a
        // shard runs one wave at a time and entries record their shard.
        let mut jobs = lock(&shared.jobs);
        for entry in jobs.values_mut() {
            if entry.shard == shard_idx && matches!(entry.phase, JobPhase::Running) {
                entry.phase = JobPhase::Failed(format!("shard worker died: {reason}"));
                shared.metrics.failed.fetch_add(1, Ordering::Release);
            }
        }
    }
    shared.job_done.notify_all();
    let shard = &shared.shards[shard_idx];
    let deaths = shard.restarts.fetch_add(1, Ordering::SeqCst);
    if !shard.queue.is_closed() && deaths < shared.config.restart_budget {
        shared
            .metrics
            .worker_restarts
            .fetch_add(1, Ordering::Relaxed);
        spawn_worker(shared, shard_idx);
        return;
    }
    // Budget exhausted (or shutting down): the backlog can never prove.
    shard.alive.store(false, Ordering::SeqCst);
    shard.queue.close();
    let backlog = shard.queue.drain_all();
    if !backlog.is_empty() {
        // `drain` may already have failed (and counted) these jobs: it
        // fails every queued job of a shard once `alive` is cleared above.
        let mut jobs = lock(&shared.jobs);
        for job in backlog {
            if let Some(entry) = jobs.get_mut(&job.id) {
                if matches!(entry.phase, JobPhase::Queued) {
                    entry.phase = JobPhase::Failed("shard worker restart budget exhausted".into());
                    shared.metrics.failed.fetch_add(1, Ordering::Release);
                }
            }
        }
    }
    shared.job_done.notify_all();
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
        {
            let mut jobs = lock(&shared.jobs);
            for job in &wave {
                if let Some(entry) = jobs.get_mut(&job.id) {
                    entry.phase = JobPhase::Running;
                }
            }
        }
        let (fault, delay) = shared.config.faults.on_wave(shard_idx);
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        if matches!(fault, WaveFault::KillWorker) {
            // Deliberately outside the wave guard: kills the worker so the
            // supervisor's respawn path runs.
            panic!("injected worker kill (shard {shard_idx})");
        }
        let ids: Vec<u64> = wave.iter().map(|j| j.id).collect();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, WaveFault::Panic) {
                panic!("injected wave fault (shard {shard_idx})");
            }
            run_wave(shared, shard, shard_idx, wave);
        }));
        if let Err(payload) = outcome {
            let reason = panic_message(payload.as_ref());
            shared.metrics.wave_panics.fetch_add(1, Ordering::Relaxed);
            let mut jobs = lock(&shared.jobs);
            for id in ids {
                if let Some(entry) = jobs.get_mut(&id) {
                    if matches!(entry.phase, JobPhase::Running) {
                        entry.phase = JobPhase::Failed(format!("wave panicked: {reason}"));
                        shared.metrics.failed.fetch_add(1, Ordering::Release);
                    }
                }
            }
            drop(jobs);
            shared.job_done.notify_all();
        }
    }
}

fn run_wave(shared: &ServiceShared, shard: &Shard, shard_idx: usize, wave: Vec<QueuedJob>) {
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
    // time; the rest proceed.
    let mut live = Vec::with_capacity(wave.len());
    let mut expired_any = false;
    {
        let mut jobs = lock(&shared.jobs);
        let now = Instant::now();
        for job in wave {
            match jobs.get_mut(&job.id) {
                Some(entry) if entry.deadline_at <= now => {
                    entry.phase = JobPhase::Failed("deadline exceeded before proving".into());
                    shared.metrics.failed.fetch_add(1, Ordering::Release);
                    shared
                        .metrics
                        .failed_deadline
                        .fetch_add(1, Ordering::Relaxed);
                    expired_any = true;
                }
                _ => live.push(job),
            }
        }
    }
    if expired_any {
        shared.job_done.notify_all();
    }
    // Witnesses that fail the circuit are failed individually so one bad
    // submission cannot poison its wave-mates.
    let mut valid = Vec::with_capacity(live.len());
    for job in live {
        match pk.circuit.check_witness(&job.witness) {
            Ok(()) => valid.push(job),
            Err(e) => {
                shared.metrics.failed.fetch_add(1, Ordering::Release);
                let mut jobs = lock(&shared.jobs);
                if let Some(entry) = jobs.get_mut(&job.id) {
                    entry.phase = JobPhase::Failed(e.to_string());
                }
                shared.job_done.notify_all();
            }
        }
    }
    if valid.is_empty() {
        return;
    }
    shared.metrics.record_wave(valid.len());
    let batch: Vec<(u64, Witness)> = valid
        .iter()
        .map(|j| (j.id, j.witness.as_ref().clone()))
        .collect();
    let proved = prove_batch(&pk, &batch, &shard.ctx).expect("wave witnesses were validated");
    let mut jobs = lock(&shared.jobs);
    for (job, (proof, report)) in valid.iter().zip(proved) {
        let bytes = Arc::new(proof.to_bytes());
        if let Some(entry) = jobs.get_mut(&job.id) {
            let latency_ms = entry.submitted.elapsed().as_secs_f64() * 1e3;
            shared
                .metrics
                .record_completion(entry.session, latency_ms, &report);
            entry.phase = JobPhase::Done(bytes);
        }
    }
    drop(jobs);
    shared.job_done.notify_all();
}
