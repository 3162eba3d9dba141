//! The blocking client for a remote proving service.
//!
//! It sleeps only to back off: after a transient connect error, and after
//! a retryable `Rejected`. [`NetClient::wait`] re-sends a `JobStatus` as
//! soon as a pending answer arrives, because the server holds each one
//! until the job settles or a bounded park runs out.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use zkspeed_rt::codec::FrameReader;
use zkspeed_svc::{JobState, Priority, Request, Response, SessionRow};

use crate::error::NetError;

/// TCP connect timeout per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Retries of a transient failure: a connect error, or a retryable
/// `Rejected` code (queue or connection backpressure).
const RETRIES: u32 = 3;

/// Sleep before the first retry, doubled before each one after it.
const RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// Tuning knobs of a [`NetClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Read/write timeout per socket operation. Every request is answered
    /// at once except a `JobStatus`, which the server holds for at most
    /// 100 ms while the job is pending; so this needs to cover neither
    /// the proving latency nor a [`NetClient::wait`].
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_secs(10),
        }
    }
}

impl ClientConfig {
    /// Overrides the per-operation I/O timeout.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }
}

/// A blocking connection to a [`NetServer`](crate::NetServer).
///
/// One request/response at a time over one socket; the `Hello` auth
/// handshake happens inside [`NetClient::connect`]. Transient failures
/// (connect refusal while the server comes up, queue backpressure) are
/// retried with bounded exponential backoff; fatal rejections surface as
/// [`NetError::Rejected`].
pub struct NetClient {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    server: String,
    protocol: u16,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("server", &self.server)
            .field("protocol", &self.protocol)
            .finish()
    }
}

impl NetClient {
    /// Connects, authenticates with `token`, and returns the ready client.
    /// Connect errors are retried up to three times (covering the
    /// serve-process-still-binding race in multi-process setups).
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] with `BadAuth` for a token mismatch,
    /// [`NetError::Io`] when the server is unreachable after retries.
    pub fn connect(
        addr: impl ToSocketAddrs,
        token: &[u8],
        config: ClientConfig,
    ) -> Result<Self, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 0u32;
        loop {
            match Self::try_connect(&addrs, token, &config) {
                Ok(client) => return Ok(client),
                Err(e) if e.is_transient() && attempt < RETRIES => {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_connect(
        addrs: &[SocketAddr],
        token: &[u8],
        config: &ClientConfig,
    ) -> Result<Self, NetError> {
        let mut last_err: Option<std::io::Error> = None;
        let mut stream = None;
        for addr in addrs {
            match TcpStream::connect_timeout(addr, CONNECT_TIMEOUT) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            NetError::Io(last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to")
            }))
        })?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(config.io_timeout))?;
        stream.set_write_timeout(Some(config.io_timeout))?;
        let writer = stream.try_clone()?;
        let mut client = Self {
            reader: FrameReader::new(stream),
            writer,
            server: String::new(),
            protocol: 0,
        };
        match client.request(&Request::Hello {
            token: token.to_vec(),
        })? {
            Response::HelloOk { protocol, server } => {
                client.protocol = protocol;
                client.server = server;
                Ok(client)
            }
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// The server identifier from the `HelloOk` handshake.
    pub fn server_id(&self) -> &str {
        &self.server
    }

    /// The protocol version the server speaks.
    pub fn protocol(&self) -> u16 {
        self.protocol
    }

    /// Sends one request frame and reads one response frame. No retry at
    /// this layer — an I/O failure here leaves the stream unusable.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`], [`NetError::Decode`], or [`NetError::Disconnected`]
    /// when the server closes mid-exchange.
    pub fn request(&mut self, request: &Request) -> Result<Response, NetError> {
        self.writer.write_all(&request.to_frame())?;
        self.writer.flush()?;
        match self.reader.next_frame()? {
            Some(payload) => Ok(Response::from_bytes(&payload)?),
            None => Err(NetError::Disconnected),
        }
    }

    /// `request` plus bounded backoff-retry on retryable `Rejected` codes
    /// (queue-full / over-capacity backpressure). I/O errors are NOT
    /// retried here — the stream state is unknown after one.
    fn request_retrying(&mut self, request: &Request) -> Result<Response, NetError> {
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 0u32;
        loop {
            match self.request(request)? {
                Response::Rejected { code, .. } if code.is_retryable() && attempt < RETRIES => {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                response => return Ok(response),
            }
        }
    }

    /// Registers canonical circuit bytes; returns `(digest, num_vars)`.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] when the circuit is malformed or does not fit
    /// the server's SRS.
    pub fn register_circuit(&mut self, circuit: &[u8]) -> Result<([u8; 32], u32), NetError> {
        match self.request_retrying(&Request::SubmitCircuit {
            circuit: circuit.to_vec(),
        })? {
            Response::CircuitRegistered { digest, num_vars } => Ok((digest, num_vars)),
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Submits canonical witness bytes against a registered circuit;
    /// returns the job id. Queue backpressure is retried up to three times.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] for unknown circuits, witness mismatches, a
    /// draining server, or exhausted backpressure retries.
    pub fn submit(
        &mut self,
        circuit: [u8; 32],
        priority: Priority,
        witness: &[u8],
    ) -> Result<u64, NetError> {
        self.submit_with_deadline(circuit, priority, witness, 0)
    }

    /// [`NetClient::submit`] with a per-job deadline in milliseconds
    /// (`0` = the server's default, two minutes). A job whose deadline
    /// passes before proving fails with `JobFailed` instead of a proof.
    ///
    /// # Errors
    ///
    /// As [`NetClient::submit`].
    pub fn submit_with_deadline(
        &mut self,
        circuit: [u8; 32],
        priority: Priority,
        witness: &[u8],
        deadline_ms: u64,
    ) -> Result<u64, NetError> {
        match self.request_retrying(&Request::SubmitJob {
            circuit,
            priority,
            deadline_ms,
            witness: witness.to_vec(),
        })? {
            Response::JobAccepted { job } => Ok(job),
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Waits for the job to finish and returns its canonical proof bytes.
    ///
    /// Each `JobStatus` is held by the server until the job settles, its
    /// deadline passes or a 100 ms park runs out; a pending answer is
    /// re-sent at once, so the proof arrives as the job settles and the
    /// wait overruns `deadline` by at most one park. A delivered outcome
    /// stays on the server for a while: after a torn response, a new
    /// connection's `wait` on the same id gets the same answer.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] when `deadline` elapses first,
    /// [`NetError::JobFailed`] for a failed job (carrying the server's
    /// failure reason), [`NetError::Rejected`] for unknown ids (including
    /// outcomes the server no longer retains).
    pub fn wait(&mut self, job: u64, deadline: Duration) -> Result<Vec<u8>, NetError> {
        let until = Instant::now() + deadline;
        loop {
            match self.request(&Request::JobStatus { job })? {
                Response::ProofReady { job: id, proof } if id == job => return Ok(proof),
                Response::JobFailed { job: id, reason } if id == job => {
                    return Err(NetError::JobFailed { job: id, reason })
                }
                // Pre-v3 shape; current servers answer `JobFailed` with the
                // reason instead.
                Response::Status {
                    state: JobState::Failed,
                    ..
                } => {
                    return Err(NetError::JobFailed {
                        job,
                        reason: "job failed on the server".into(),
                    })
                }
                Response::Status { .. } if Instant::now() >= until => {
                    return Err(NetError::TimedOut)
                }
                Response::Status { .. } => {}
                Response::Rejected { code, detail } => {
                    return Err(NetError::Rejected { code, detail })
                }
                other => return Err(NetError::UnexpectedResponse(format!("{other:?}"))),
            }
        }
    }

    /// Fetches the server's `ServiceMetrics` snapshot as JSON.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Decode`] on transport failure.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the server's session listing (digest, `μ`, lifecycle state,
    /// shard, resident bytes, jobs completed per session).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Decode`] on transport failure.
    pub fn sessions(&mut self) -> Result<Vec<SessionRow>, NetError> {
        match self.request(&Request::ListSessions)? {
            Response::SessionList { sessions } => Ok(sessions),
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the server's Chrome trace-event dump as JSON.
    ///
    /// The returned string is Perfetto-loadable; when the server runs with
    /// tracing disabled it is an empty-but-valid `{"traceEvents":[]}` dump.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Decode`] on transport failure.
    pub fn trace(&mut self) -> Result<String, NetError> {
        match self.request(&Request::GetTrace)? {
            Response::TraceDump { json } => Ok(json),
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Asks the server to drain gracefully.
    ///
    /// # Errors
    ///
    /// [`NetError::UnexpectedResponse`] when the server answers anything
    /// but `ShuttingDown`.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Rejected { code, detail } => Err(NetError::Rejected { code, detail }),
            other => Err(NetError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}
