//! The byte-level wire protocol between proving-service clients and the
//! service.
//!
//! Every message travels as one **frame**: a little-endian `u32` payload
//! length ([`zkspeed_rt::codec::frame`]) followed by a canonical
//! artifact — the shared `magic + version + kind` header (kind
//! `Request` or `Response`), a one-byte message tag, and the tag-specific
//! body. Each message's tag and field order are declared once, beside the
//! types below (README's "Wire protocol" table renders them). Embedded
//! artifacts (circuits, witnesses, proofs) ride inside requests/responses
//! as length-prefixed blobs carrying their own canonical headers, so each
//! layer validates independently.
//!
//! The same encode/decode pair serves the in-process endpoint
//! ([`crate::ProvingService::handle_frame`]) and the `zkspeed-net` socket
//! transport — nothing here assumes shared memory. On a socket, `Hello`
//! must be the first frame of every connection: the transport checks its
//! token before any other request is served (a mismatch answers
//! `Rejected`/[`RejectCode::BadAuth`] and closes). `Shutdown` asks the
//! server to drain gracefully; subsequent submissions answer
//! `Rejected`/[`RejectCode::Draining`] while in-flight jobs finish.

use zkspeed_rt::codec::{self, Kind};

use crate::store::SessionState;

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

    /// Class index (0 = high).
    pub fn index(&self) -> usize {
        *self as usize
    }
}

zkspeed_rt::impl_codec_enum!(Priority { High, Normal, Low });

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
    /// Whether a client may usefully retry the same request against the
    /// same server after a backoff. Queue and connection backpressure are
    /// transient; everything else (bad bytes, bad auth, unknown ids, a
    /// draining server) will answer the same way again.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RejectCode::QueueFull | RejectCode::OverCapacity)
    }
}

zkspeed_rt::impl_codec_enum!(RejectCode {
    QueueFull,
    UnknownCircuit,
    Malformed,
    WitnessMismatch,
    UnknownJob,
    Unsupported,
    BadAuth,
    Draining,
    OverCapacity,
    SessionEvicted,
});

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

zkspeed_rt::impl_codec_enum!(JobState {
    Queued,
    Running,
    Done,
    Failed
});

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

zkspeed_rt::impl_codec_enum!(Request: Kind::Request {
    1 => SubmitCircuit { circuit },
    2 => SubmitJob { circuit, priority, deadline_ms, witness },
    3 => JobStatus { job },
    4 => Metrics,
    5 => Hello { token },
    6 => Shutdown,
    7 => ListSessions,
    8 => GetTrace,
});

impl Request {
    /// Serializes the request as one wire frame (length prefix included).
    pub fn to_frame(&self) -> Vec<u8> {
        codec::frame(&self.to_bytes())
    }
}

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

zkspeed_rt::impl_codec_struct!(SessionRow {
    digest,
    num_vars,
    state,
    shard,
    resident_bytes,
    jobs_completed,
});

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

zkspeed_rt::impl_codec_enum!(Response: Kind::Response {
    1 => CircuitRegistered { digest, num_vars },
    2 => JobAccepted { job },
    3 => Rejected { code, detail },
    4 => Status { job, state },
    5 => ProofReady { job, proof },
    6 => Metrics { json },
    7 => HelloOk { protocol, server },
    8 => ShuttingDown,
    9 => JobFailed { job, reason },
    10 => SessionList { sessions },
    11 => TraceDump { json },
});

impl Response {
    /// Serializes the response as one wire frame (length prefix included).
    pub fn to_frame(&self) -> Vec<u8> {
        codec::frame(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::codec::{Decode, DecodeError, Encode, Reader};

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
                expected: 7,
                found: 6
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
        assert!(Priority::from_bytes(&[9]).is_err());
        assert!(RejectCode::from_bytes(&[0]).is_err());
        assert!(RejectCode::from_bytes(&[11]).is_err());
        assert!(JobState::from_bytes(&[17]).is_err());
        for p in Priority::ALL {
            assert_eq!(Priority::from_bytes(&[p as u8]), Ok(p));
        }
        let codes: Vec<RejectCode> = (0..=u8::MAX)
            .filter_map(|tag| RejectCode::from_bytes(&[tag]).ok())
            .collect();
        assert_eq!(codes.len(), 10);
        for code in codes {
            assert_eq!(code.to_bytes(), [code as u8]);
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
