//! The byte-level wire protocol between proving-service clients and the
//! service.
//!
//! Every message travels as one **frame**: a little-endian `u32` payload
//! length ([`zkspeed_rt::codec::write_frame`]) followed by a canonical
//! artifact — the shared `magic + version + kind` header (kind
//! [`KIND_REQUEST`] or [`KIND_RESPONSE`]), a one-byte message tag, and the
//! tag-specific body. Embedded artifacts (circuits, witnesses, proofs) ride
//! inside requests/responses as length-prefixed blobs carrying their own
//! canonical headers, so each layer validates independently.
//!
//! | request tag | message | body |
//! |---|---|---|
//! | 1 | `SubmitCircuit` | `u32` len + circuit artifact |
//! | 2 | `SubmitJob` | 32-byte circuit digest, `u8` priority, `u64` deadline ms (0 = server default), `u32` len + witness artifact |
//! | 3 | `JobStatus` | `u64` job id |
//! | 4 | `Metrics` | (empty) |
//! | 5 | `Hello` | `u32` len + auth token bytes |
//! | 6 | `Shutdown` | (empty) |
//! | 7 | `ListSessions` | (empty) |
//! | 8 | `GetTrace` | (empty) |
//!
//! | response tag | message | body |
//! |---|---|---|
//! | 1 | `CircuitRegistered` | 32-byte digest, `u32` num_vars |
//! | 2 | `JobAccepted` | `u64` job id |
//! | 3 | `Rejected` | `u8` reject code, `u32` len + UTF-8 detail |
//! | 4 | `Status` | `u64` job id, `u8` job state |
//! | 5 | `ProofReady` | `u64` job id, `u32` len + proof artifact |
//! | 6 | `Metrics` | `u32` len + UTF-8 JSON |
//! | 7 | `HelloOk` | `u16` protocol version, `u32` len + UTF-8 server id |
//! | 8 | `ShuttingDown` | (empty) |
//! | 9 | `JobFailed` | `u64` job id, `u32` len + UTF-8 failure reason |
//! | 10 | `SessionList` | `u32` count, then per session: 32-byte digest, `u32` num_vars, `u8` state, `u32` shard, `u64` resident bytes, `u64` jobs completed |
//! | 11 | `TraceDump` | `u32` len + UTF-8 Chrome trace-event JSON |
//!
//! The same encode/decode pair serves the in-process endpoint
//! ([`crate::ProvingService::handle_frame`]) and the `zkspeed-net` socket
//! transport — nothing here assumes shared memory. On a socket, `Hello`
//! must be the first frame of every connection: the transport checks its
//! token before any other request is served (a mismatch answers
//! `Rejected`/[`RejectCode::BadAuth`] and closes). `Shutdown` asks the
//! server to drain gracefully; subsequent submissions answer
//! `Rejected`/[`RejectCode::Draining`] while in-flight jobs finish.

use zkspeed_rt::codec::{self, DecodeError, Kind, Reader};

use crate::store::SessionState;

/// Artifact kind tag of an encoded [`Request`].
pub const KIND_REQUEST: u8 = Kind::Request as u8;

/// Artifact kind tag of an encoded [`Response`].
pub const KIND_RESPONSE: u8 = Kind::Response as u8;

/// Scheduling priority class of a proof job. Lower discriminant = more
/// urgent.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Priority {
    /// Served ahead of every other class.
    High = 0,
    /// The default class.
    Normal = 1,
    /// Bulk work, served when nothing more urgent is pending (subject to
    /// the scheduler's anti-starvation promotion).
    Low = 2,
}

impl Priority {
    /// All classes, most urgent first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Decodes a priority tag byte.
    pub fn from_u8(tag: u8) -> Option<Priority> {
        Priority::ALL.into_iter().find(|p| *p as u8 == tag)
    }

    /// Class index (0 = high).
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// Why a request was rejected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The job queue is at capacity; retry later (backpressure).
    QueueFull = 1,
    /// The referenced circuit digest is not registered.
    UnknownCircuit = 2,
    /// The submitted artifact failed structural validation.
    Malformed = 3,
    /// The witness does not fit the referenced circuit.
    WitnessMismatch = 4,
    /// The referenced job id does not exist.
    UnknownJob = 5,
    /// The circuit cannot be served (e.g. larger than the service SRS).
    Unsupported = 6,
    /// The connection's auth token did not match; the transport closes the
    /// connection after this response. Fatal — do not retry with the same
    /// credentials.
    BadAuth = 7,
    /// The server is draining for shutdown: in-flight jobs finish and
    /// their proofs remain fetchable, but new submissions are turned away.
    /// Retry against another server, not this one.
    Draining = 8,
    /// The server's connection cap is reached; the connection is closed
    /// after this response. Retry later (connection-level backpressure,
    /// the tier above [`RejectCode::QueueFull`]).
    OverCapacity = 9,
    /// The referenced session was evicted by the server's session budget:
    /// its proving key is gone. Not retryable as-is — re-register the
    /// circuit (`SubmitCircuit`) to re-provision the session, then
    /// resubmit the job.
    SessionEvicted = 10,
}

impl RejectCode {
    /// Every code, in tag order.
    pub const ALL: [RejectCode; 10] = [
        RejectCode::QueueFull,
        RejectCode::UnknownCircuit,
        RejectCode::Malformed,
        RejectCode::WitnessMismatch,
        RejectCode::UnknownJob,
        RejectCode::Unsupported,
        RejectCode::BadAuth,
        RejectCode::Draining,
        RejectCode::OverCapacity,
        RejectCode::SessionEvicted,
    ];

    /// Decodes a reject-code tag byte.
    pub fn from_u8(tag: u8) -> Option<RejectCode> {
        RejectCode::ALL.into_iter().find(|c| *c as u8 == tag)
    }

    /// Whether a client may usefully retry the same request against the
    /// same server after a backoff. Queue and connection backpressure are
    /// transient; everything else (bad bytes, bad auth, unknown ids, a
    /// draining server) will answer the same way again.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RejectCode::QueueFull | RejectCode::OverCapacity)
    }
}

/// Lifecycle state of a submitted job, as reported over the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    /// Waiting in the queue.
    Queued = 0,
    /// Picked into a proving wave.
    Running = 1,
    /// Proved; the proof is ready to stream.
    Done = 2,
    /// Proving failed (e.g. the witness does not satisfy the circuit).
    Failed = 3,
}

impl JobState {
    /// Decodes a job-state tag byte.
    pub fn from_u8(tag: u8) -> Option<JobState> {
        [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ]
        .into_iter()
        .find(|s| *s as u8 == tag)
    }
}

/// A client-to-service message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Registers a circuit (canonical [`Circuit`](zkspeed_hyperplonk::Circuit)
    /// bytes); the service preprocesses it into a session.
    SubmitCircuit {
        /// Canonical circuit artifact bytes.
        circuit: Vec<u8>,
    },
    /// Submits a witness to prove against a registered circuit.
    SubmitJob {
        /// Digest of the registered circuit (from `CircuitRegistered`).
        circuit: [u8; 32],
        /// Scheduling class.
        priority: Priority,
        /// Per-job deadline in milliseconds from acceptance; `0` asks for
        /// the server's configured default. An expired job fails with a
        /// `JobFailed` instead of proving.
        deadline_ms: u64,
        /// Canonical witness artifact bytes.
        witness: Vec<u8>,
    },
    /// Asks for one job's outcome. The server holds the answer until the
    /// job settles, its deadline passes or a bounded park (100 ms) runs
    /// out: a `Done` job answers with `ProofReady`, a failed one with
    /// `JobFailed`, a pending one with `Status`. A delivered outcome is
    /// answered again while it stays in the service's retention ring.
    JobStatus {
        /// The job id (from `JobAccepted`).
        job: u64,
    },
    /// Fetches the service metrics snapshot as JSON.
    Metrics,
    /// Opens a connection: presents the auth token. On a socket this must
    /// be the first frame; the transport answers `HelloOk` or
    /// `Rejected`/[`RejectCode::BadAuth`] and closes. The in-process
    /// endpoint accepts any token (the caller is already trusted).
    Hello {
        /// The connection's auth token (opaque bytes; UTF-8 by convention).
        token: Vec<u8>,
    },
    /// Asks the server to drain gracefully: stop accepting submissions,
    /// finish in-flight jobs, flush pending `ProofReady` responses, then
    /// exit. Answered with `ShuttingDown`.
    Shutdown,
    /// Lists every session the server knows about (active and evicted),
    /// answered with `SessionList`.
    ListSessions,
    /// Pulls the server's tracing recording as Chrome trace-event JSON,
    /// answered with `TraceDump` (an empty-but-valid trace when the server
    /// runs with tracing disabled).
    GetTrace,
}

const REQ_SUBMIT_CIRCUIT: u8 = 1;
const REQ_SUBMIT_JOB: u8 = 2;
const REQ_JOB_STATUS: u8 = 3;
const REQ_METRICS: u8 = 4;
const REQ_HELLO: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_LIST_SESSIONS: u8 = 7;
const REQ_GET_TRACE: u8 = 8;

/// One session row of a `SessionList` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRow {
    /// The session's circuit digest.
    pub digest: [u8; 32],
    /// The circuit's `μ`.
    pub num_vars: u32,
    /// Lifecycle state (active / evicted).
    pub state: SessionState,
    /// The shard the session's jobs queue on.
    pub shard: u32,
    /// Estimated resident proving-key bytes (0 once evicted).
    pub resident_bytes: u64,
    /// Proofs completed for this session over the server's lifetime.
    pub jobs_completed: u64,
}

/// A service-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The circuit was registered (or was already registered) under this
    /// digest.
    CircuitRegistered {
        /// The session key for subsequent `SubmitJob`s.
        digest: [u8; 32],
        /// Number of variables `μ` of the circuit.
        num_vars: u32,
    },
    /// The job was accepted into the queue.
    JobAccepted {
        /// Handle for `JobStatus` requests.
        job: u64,
    },
    /// The request was rejected.
    Rejected {
        /// Machine-readable reason.
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The job's current state (non-terminal, or `Failed`).
    Status {
        /// The polled job id.
        job: u64,
        /// Its lifecycle state.
        state: JobState,
    },
    /// The job finished; canonical proof bytes included.
    ProofReady {
        /// The polled job id.
        job: u64,
        /// Canonical proof artifact bytes.
        proof: Vec<u8>,
    },
    /// The metrics snapshot.
    Metrics {
        /// JSON-rendered [`crate::ServiceMetrics`].
        json: String,
    },
    /// The connection handshake succeeded.
    HelloOk {
        /// The protocol (encoding) version the server speaks
        /// ([`zkspeed_rt::codec::VERSION`]).
        protocol: u16,
        /// A human-readable server identifier.
        server: String,
    },
    /// The server acknowledged a `Shutdown` request and began draining.
    ShuttingDown,
    /// The job ran (or expired) and will never produce a proof. Terminal,
    /// and answered again while it stays in the retention ring, like
    /// `ProofReady`. Fatal for the job —
    /// clients must not retry the same witness expecting a different
    /// outcome unless the reason names a transient cause (a worker crash).
    JobFailed {
        /// The failed job id.
        job: u64,
        /// Human-readable failure reason from the server.
        reason: String,
    },
    /// Every session the server knows about, ordered by digest.
    SessionList {
        /// One row per session (active and evicted).
        sessions: Vec<SessionRow>,
    },
    /// The server's tracing recording, answering `GetTrace`.
    TraceDump {
        /// Chrome trace-event JSON (Perfetto-loadable); an empty-but-valid
        /// trace when the server runs with tracing disabled.
        json: String,
    },
}

const RESP_CIRCUIT_REGISTERED: u8 = 1;
const RESP_JOB_ACCEPTED: u8 = 2;
const RESP_REJECTED: u8 = 3;
const RESP_STATUS: u8 = 4;
const RESP_PROOF_READY: u8 = 5;
const RESP_METRICS: u8 = 6;
const RESP_HELLO_OK: u8 = 7;
const RESP_SHUTTING_DOWN: u8 = 8;
const RESP_JOB_FAILED: u8 = 9;
const RESP_SESSION_LIST: u8 = 10;
const RESP_TRACE_DUMP: u8 = 11;

fn write_blob(out: &mut Vec<u8>, blob: &[u8]) {
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(blob);
}

fn read_blob(reader: &mut Reader<'_>, what: &'static str) -> Result<Vec<u8>, DecodeError> {
    let len = reader.count(1, what)?;
    Ok(reader.take(len)?.to_vec())
}

fn read_string(reader: &mut Reader<'_>, what: &'static str) -> Result<String, DecodeError> {
    let bytes = read_blob(reader, what)?;
    String::from_utf8(bytes).map_err(|_| DecodeError::InvalidValue { what })
}

fn read_digest(reader: &mut Reader<'_>) -> Result<[u8; 32], DecodeError> {
    let mut digest = [0u8; 32];
    digest.copy_from_slice(reader.take(32)?);
    Ok(digest)
}

impl Request {
    /// Serializes the request into its canonical message encoding (header +
    /// tag + body, **without** the outer frame).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::write_header(&mut out, KIND_REQUEST);
        match self {
            Request::SubmitCircuit { circuit } => {
                out.push(REQ_SUBMIT_CIRCUIT);
                write_blob(&mut out, circuit);
            }
            Request::SubmitJob {
                circuit,
                priority,
                deadline_ms,
                witness,
            } => {
                out.push(REQ_SUBMIT_JOB);
                out.extend_from_slice(circuit);
                out.push(*priority as u8);
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                write_blob(&mut out, witness);
            }
            Request::JobStatus { job } => {
                out.push(REQ_JOB_STATUS);
                out.extend_from_slice(&job.to_le_bytes());
            }
            Request::Metrics => out.push(REQ_METRICS),
            Request::Hello { token } => {
                out.push(REQ_HELLO);
                write_blob(&mut out, token);
            }
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::ListSessions => out.push(REQ_LIST_SESSIONS),
            Request::GetTrace => out.push(REQ_GET_TRACE),
        }
        out
    }

    /// Serializes the request as one wire frame (length prefix included).
    pub fn to_frame(&self) -> Vec<u8> {
        codec::frame(&self.to_bytes())
    }

    /// Decodes a message produced by [`Request::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        reader.header(KIND_REQUEST)?;
        let request = match reader.u8()? {
            REQ_SUBMIT_CIRCUIT => Request::SubmitCircuit {
                circuit: read_blob(&mut reader, "embedded circuit blob")?,
            },
            REQ_SUBMIT_JOB => {
                let circuit = read_digest(&mut reader)?;
                let priority =
                    Priority::from_u8(reader.u8()?).ok_or(DecodeError::InvalidValue {
                        what: "job priority",
                    })?;
                let deadline_ms = reader.u64()?;
                let witness = read_blob(&mut reader, "embedded witness blob")?;
                Request::SubmitJob {
                    circuit,
                    priority,
                    deadline_ms,
                    witness,
                }
            }
            REQ_JOB_STATUS => Request::JobStatus { job: reader.u64()? },
            REQ_METRICS => Request::Metrics,
            REQ_HELLO => Request::Hello {
                token: read_blob(&mut reader, "auth token blob")?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_LIST_SESSIONS => Request::ListSessions,
            REQ_GET_TRACE => Request::GetTrace,
            _ => {
                return Err(DecodeError::InvalidValue {
                    what: "request message tag",
                })
            }
        };
        reader.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Serializes the response into its canonical message encoding (header +
    /// tag + body, **without** the outer frame).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::write_header(&mut out, KIND_RESPONSE);
        match self {
            Response::CircuitRegistered { digest, num_vars } => {
                out.push(RESP_CIRCUIT_REGISTERED);
                out.extend_from_slice(digest);
                out.extend_from_slice(&num_vars.to_le_bytes());
            }
            Response::JobAccepted { job } => {
                out.push(RESP_JOB_ACCEPTED);
                out.extend_from_slice(&job.to_le_bytes());
            }
            Response::Rejected { code, detail } => {
                out.push(RESP_REJECTED);
                out.push(*code as u8);
                write_blob(&mut out, detail.as_bytes());
            }
            Response::Status { job, state } => {
                out.push(RESP_STATUS);
                out.extend_from_slice(&job.to_le_bytes());
                out.push(*state as u8);
            }
            Response::ProofReady { job, proof } => {
                out.push(RESP_PROOF_READY);
                out.extend_from_slice(&job.to_le_bytes());
                write_blob(&mut out, proof);
            }
            Response::Metrics { json } => {
                out.push(RESP_METRICS);
                write_blob(&mut out, json.as_bytes());
            }
            Response::HelloOk { protocol, server } => {
                out.push(RESP_HELLO_OK);
                out.extend_from_slice(&protocol.to_le_bytes());
                write_blob(&mut out, server.as_bytes());
            }
            Response::ShuttingDown => out.push(RESP_SHUTTING_DOWN),
            Response::JobFailed { job, reason } => {
                out.push(RESP_JOB_FAILED);
                out.extend_from_slice(&job.to_le_bytes());
                write_blob(&mut out, reason.as_bytes());
            }
            Response::SessionList { sessions } => {
                out.push(RESP_SESSION_LIST);
                out.extend_from_slice(&(sessions.len() as u32).to_le_bytes());
                for row in sessions {
                    out.extend_from_slice(&row.digest);
                    out.extend_from_slice(&row.num_vars.to_le_bytes());
                    out.push(row.state as u8);
                    out.extend_from_slice(&row.shard.to_le_bytes());
                    out.extend_from_slice(&row.resident_bytes.to_le_bytes());
                    out.extend_from_slice(&row.jobs_completed.to_le_bytes());
                }
            }
            Response::TraceDump { json } => {
                out.push(RESP_TRACE_DUMP);
                write_blob(&mut out, json.as_bytes());
            }
        }
        out
    }

    /// Serializes the response as one wire frame (length prefix included).
    pub fn to_frame(&self) -> Vec<u8> {
        codec::frame(&self.to_bytes())
    }

    /// Decodes a message produced by [`Response::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        reader.header(KIND_RESPONSE)?;
        let response = match reader.u8()? {
            RESP_CIRCUIT_REGISTERED => Response::CircuitRegistered {
                digest: read_digest(&mut reader)?,
                num_vars: reader.u32()?,
            },
            RESP_JOB_ACCEPTED => Response::JobAccepted { job: reader.u64()? },
            RESP_REJECTED => {
                let code = RejectCode::from_u8(reader.u8()?).ok_or(DecodeError::InvalidValue {
                    what: "reject code",
                })?;
                Response::Rejected {
                    code,
                    detail: read_string(&mut reader, "reject detail")?,
                }
            }
            RESP_STATUS => {
                let job = reader.u64()?;
                let state = JobState::from_u8(reader.u8()?)
                    .ok_or(DecodeError::InvalidValue { what: "job state" })?;
                Response::Status { job, state }
            }
            RESP_PROOF_READY => Response::ProofReady {
                job: reader.u64()?,
                proof: read_blob(&mut reader, "embedded proof blob")?,
            },
            RESP_METRICS => Response::Metrics {
                json: read_string(&mut reader, "metrics JSON")?,
            },
            RESP_HELLO_OK => Response::HelloOk {
                protocol: reader.u16()?,
                server: read_string(&mut reader, "server id")?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_JOB_FAILED => Response::JobFailed {
                job: reader.u64()?,
                reason: read_string(&mut reader, "job failure reason")?,
            },
            RESP_SESSION_LIST => {
                // Each row is 32 + 4 + 1 + 4 + 8 + 8 = 57 bytes.
                let count = reader.count(57, "session list")?;
                let mut sessions = Vec::with_capacity(count);
                for _ in 0..count {
                    let digest = read_digest(&mut reader)?;
                    let num_vars = reader.u32()?;
                    let state =
                        SessionState::from_u8(reader.u8()?).ok_or(DecodeError::InvalidValue {
                            what: "session state",
                        })?;
                    let shard = reader.u32()?;
                    let resident_bytes = reader.u64()?;
                    let jobs_completed = reader.u64()?;
                    sessions.push(SessionRow {
                        digest,
                        num_vars,
                        state,
                        shard,
                        resident_bytes,
                        jobs_completed,
                    });
                }
                Response::SessionList { sessions }
            }
            RESP_TRACE_DUMP => Response::TraceDump {
                json: read_string(&mut reader, "trace dump JSON")?,
            },
            _ => {
                return Err(DecodeError::InvalidValue {
                    what: "response message tag",
                })
            }
        };
        reader.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::SubmitCircuit {
                circuit: vec![1, 2, 3, 4, 5],
            },
            Request::SubmitJob {
                circuit: [7u8; 32],
                priority: Priority::Low,
                deadline_ms: 30_000,
                witness: vec![9; 40],
            },
            Request::JobStatus { job: 0xdead_beef },
            Request::Metrics,
            Request::Hello {
                token: b"secret-token".to_vec(),
            },
            Request::Shutdown,
            Request::ListSessions,
            Request::GetTrace,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::CircuitRegistered {
                digest: [3u8; 32],
                num_vars: 14,
            },
            Response::JobAccepted { job: 42 },
            Response::Rejected {
                code: RejectCode::QueueFull,
                detail: "queue at capacity (64)".into(),
            },
            Response::Status {
                job: 42,
                state: JobState::Running,
            },
            Response::ProofReady {
                job: 42,
                proof: vec![0xaa; 100],
            },
            Response::Metrics {
                json: "{\"proofs_per_second\": 3.5}".into(),
            },
            Response::HelloOk {
                protocol: zkspeed_rt::codec::VERSION,
                server: "zkspeed-svc/2".into(),
            },
            Response::ShuttingDown,
            Response::Rejected {
                code: RejectCode::Draining,
                detail: "service is draining".into(),
            },
            Response::JobFailed {
                job: 42,
                reason: "constraint violated at row 3".into(),
            },
            Response::Status {
                job: 43,
                state: JobState::Failed,
            },
            Response::SessionList { sessions: vec![] },
            Response::SessionList {
                sessions: vec![
                    SessionRow {
                        digest: [7u8; 32],
                        num_vars: 14,
                        state: SessionState::Active,
                        shard: 0,
                        resident_bytes: 1 << 20,
                        jobs_completed: 12,
                    },
                    SessionRow {
                        digest: [9u8; 32],
                        num_vars: 10,
                        state: SessionState::Evicted,
                        shard: 1,
                        resident_bytes: 0,
                        jobs_completed: 3,
                    },
                ],
            },
            Response::Rejected {
                code: RejectCode::SessionEvicted,
                detail: "session evicted; re-register the circuit".into(),
            },
            Response::TraceDump {
                json: "{\"traceEvents\":[]}".into(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for request in sample_requests() {
            let bytes = request.to_bytes();
            assert_eq!(Request::from_bytes(&bytes).unwrap(), request);
            // Frame round-trip.
            let frame = request.to_frame();
            let mut r = Reader::new(&frame);
            let payload = r.frame().unwrap();
            r.finish().unwrap();
            assert_eq!(Request::from_bytes(payload).unwrap(), request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for response in sample_responses() {
            let bytes = response.to_bytes();
            assert_eq!(Response::from_bytes(&bytes).unwrap(), response);
            let frame = response.to_frame();
            let mut r = Reader::new(&frame);
            assert_eq!(Response::from_bytes(r.frame().unwrap()).unwrap(), response);
        }
    }

    #[test]
    fn kinds_are_checked_both_ways() {
        let req = Request::Metrics.to_bytes();
        assert!(matches!(
            Response::from_bytes(&req),
            Err(DecodeError::WrongKind {
                expected: KIND_RESPONSE,
                found: KIND_REQUEST
            })
        ));
        let resp = Response::JobAccepted { job: 1 }.to_bytes();
        assert!(matches!(
            Request::from_bytes(&resp),
            Err(DecodeError::WrongKind { .. })
        ));
    }

    #[test]
    fn corruption_sweep_never_panics_and_mostly_rejects() {
        // Deterministic sweep: every byte position of every message, three
        // corruption patterns each, plus every truncation length. Decoding
        // must return (never panic), and header/tag corruptions must fail.
        for request in sample_requests() {
            let bytes = request.to_bytes();
            for i in 0..bytes.len() {
                for pattern in [0x01u8, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[i] ^= pattern;
                    let _ = Request::from_bytes(&bad);
                }
            }
            for len in 0..bytes.len() {
                assert!(Request::from_bytes(&bytes[..len]).is_err());
            }
        }
        for response in sample_responses() {
            let bytes = response.to_bytes();
            for i in 0..bytes.len() {
                for pattern in [0x01u8, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[i] ^= pattern;
                    let _ = Response::from_bytes(&bad);
                }
            }
            for len in 0..bytes.len() {
                assert!(Response::from_bytes(&bytes[..len]).is_err());
            }
        }
    }

    #[test]
    fn oversized_blob_lengths_fail_before_allocating() {
        let mut bytes = Request::SubmitCircuit {
            circuit: vec![0; 8],
        }
        .to_bytes();
        // Blob length starts right after header (8) + tag (1).
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::from_bytes(&bytes),
            Err(DecodeError::InvalidLength { .. })
        ));
    }

    #[test]
    fn enums_reject_unknown_tags() {
        assert_eq!(Priority::from_u8(9), None);
        assert_eq!(RejectCode::from_u8(0), None);
        assert_eq!(RejectCode::from_u8(11), None);
        assert_eq!(JobState::from_u8(17), None);
        for p in Priority::ALL {
            assert_eq!(Priority::from_u8(p as u8), Some(p));
        }
        for c in RejectCode::ALL {
            assert_eq!(RejectCode::from_u8(c as u8), Some(c));
        }
    }

    #[test]
    fn retryability_separates_backpressure_from_fatal_codes() {
        assert!(RejectCode::QueueFull.is_retryable());
        assert!(RejectCode::OverCapacity.is_retryable());
        for fatal in [
            RejectCode::UnknownCircuit,
            RejectCode::Malformed,
            RejectCode::WitnessMismatch,
            RejectCode::UnknownJob,
            RejectCode::Unsupported,
            RejectCode::BadAuth,
            RejectCode::Draining,
            RejectCode::SessionEvicted,
        ] {
            assert!(!fatal.is_retryable(), "{fatal:?} must not be retryable");
        }
    }

    #[test]
    fn stale_version_frames_are_rejected_cleanly() {
        // Encodings carry the bumped codec version; v1..v4 frames (as an
        // older client would send) must fail with UnsupportedVersion, never
        // misparse — v2 SubmitJob bodies lack the deadline field and would
        // otherwise shift every later byte.
        for stale in [1u16, 2, 3, 4] {
            let mut old = Request::Metrics.to_bytes();
            old[4..6].copy_from_slice(&stale.to_le_bytes());
            assert!(matches!(
                Request::from_bytes(&old),
                Err(DecodeError::UnsupportedVersion { found }) if found == stale
            ));
            let mut old = Response::JobFailed {
                job: 9,
                reason: "gone".into(),
            }
            .to_bytes();
            old[4..6].copy_from_slice(&stale.to_le_bytes());
            assert!(matches!(
                Response::from_bytes(&old),
                Err(DecodeError::UnsupportedVersion { found }) if found == stale
            ));
        }
    }
}
