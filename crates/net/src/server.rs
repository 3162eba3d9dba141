//! The threaded TCP server wrapping a [`ProvingService`].
//!
//! Nothing here sleeps to poll. The accept loop blocks in `accept()`, and
//! shutdown wakes it with one loopback connection. A handler blocks in its
//! read, or in the service while a `JobStatus` parks. The drain waits on a
//! condvar that every handler signals as it deregisters.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use zkspeed_rt::codec::FrameReader;
use zkspeed_svc::{ProvingService, RejectCode, Request, Response, ServiceMetrics};

/// How long the accept loop backs off after a failed `accept()` (such as
/// `EMFILE`), instead of spinning on the same error.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Connect timeout of the loopback connection that wakes the accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Tuning knobs of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub addr: String,
    /// The auth token every connection must present in its opening `Hello`
    /// frame. Empty means "accept any token" (still requires the `Hello`).
    pub auth_token: Vec<u8>,
    /// Connection cap — the backpressure tier above the job queue. Over-cap
    /// connects are answered `Rejected`/[`RejectCode::OverCapacity`] and
    /// closed.
    pub max_connections: usize,
    /// Per-connection idle timeout: a connection with no complete frame for
    /// this long is closed.
    pub idle_timeout: Duration,
    /// After the job backlog drains, how long shutdown keeps established
    /// connections open so clients can collect their remaining
    /// `ProofReady` responses before stragglers are force-closed. Shutdown
    /// moves on as soon as the last connection closes.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            auth_token: Vec::new(),
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            drain_grace: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// A default configuration bound to `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            ..Self::default()
        }
    }

    /// Overrides the auth token.
    pub fn with_auth_token(mut self, token: &[u8]) -> Self {
        self.auth_token = token.to_vec();
        self
    }

    /// Overrides the connection cap.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    /// Overrides the idle timeout.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Overrides the drain grace window.
    pub fn with_drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }
}

struct ServerShared {
    service: ProvingService,
    config: ServerConfig,
    /// Tells the accept loop to stop; it drops whatever it accepts after.
    stop: AtomicBool,
    /// Write halves of every live connection, for force-closing stragglers
    /// at the end of the drain grace window. Keyed by connection id; a
    /// handler removes its own entry when it exits.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled when a handler removes its entry from `conns`: the drain
    /// waits on it for the last connection to close.
    conn_closed: Condvar,
    next_conn_id: AtomicU64,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Set when a wire `Shutdown` request arrives; see
    /// [`NetServer::wait_for_shutdown_request`].
    shutdown_requested: Mutex<bool>,
    shutdown_signal: Condvar,
}

/// A running TCP front-end over a [`ProvingService`].
///
/// Accepts connections on a dedicated thread and serves each on its own
/// handler thread: first frame must be `Hello` (auth), then framed
/// request/response until the peer disconnects, idles out, or sends bytes
/// that cannot be framed. Dropping the server (or calling
/// [`NetServer::shutdown`]) drains gracefully.
pub struct NetServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds the listener and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind(service: ProvingService, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            config,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_closed: Condvar::new(),
            next_conn_id: AtomicU64::new(1),
            handlers: Mutex::new(Vec::new()),
            shutdown_requested: Mutex::new(false),
            shutdown_signal: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("zkspeed-net-accept".into())
            .spawn(move || accept_loop(&accept_shared, listener))
            .expect("failed to spawn accept thread");
        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The wrapped service (for registering circuits or snapshotting
    /// metrics in-process).
    pub fn service(&self) -> &ProvingService {
        &self.shared.service
    }

    /// Number of currently established connections.
    pub fn connection_count(&self) -> usize {
        self.shared.conns.lock().expect("conns lock poisoned").len()
    }

    /// Blocks until some client sends a wire `Shutdown` request (the
    /// `zkspeed serve` main loop parks here, then calls
    /// [`NetServer::shutdown`]).
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown lock poisoned");
        while !*requested {
            requested = self
                .shared
                .shutdown_signal
                .wait(requested)
                .expect("shutdown lock poisoned");
        }
    }

    /// Graceful drain: stop accepting, reject new submissions with
    /// `Rejected`/[`RejectCode::Draining`], finish every in-flight job,
    /// keep connections open for [`ServerConfig::drain_grace`] so clients
    /// collect pending `ProofReady` responses, force-close stragglers, join
    /// every thread, and return the final metrics snapshot.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.shutdown_in_place();
        let metrics = self.shared.service.metrics();
        // ProvingService::drop closes the queues and joins shard workers
        // when `self.shared` is released.
        metrics
    }

    fn shutdown_in_place(&mut self) {
        self.shared.service.begin_drain();
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept_thread.take() {
            // A loop that cannot be woken is left to exit at its next
            // accept rather than joined; every later accept sees `stop`.
            if wake(self.local_addr) {
                let _ = accept.join();
            }
        }
        // All accepted jobs run to completion before connections are
        // touched — this is the "never drop an in-flight ProofReady" half
        // of the drain contract. A `JobStatus` parked on one of them
        // answers as it settles.
        self.shared.service.drain();
        let conns = self.shared.conns.lock().expect("conns lock poisoned");
        let (mut conns, _) = self
            .shared
            .conn_closed
            .wait_timeout_while(conns, self.shared.config.drain_grace, |conns| {
                !conns.is_empty()
            })
            .expect("conns lock poisoned");
        // Stragglers (idle clients, or peers that never read) are cut off;
        // their handler threads observe the closed socket and exit.
        for (_, stream) in conns.drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(conns);
        let handlers =
            std::mem::take(&mut *self.shared.handlers.lock().expect("handlers poisoned"));
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

/// Wakes the accept loop out of its blocking `accept()` with one
/// connection to the bound port (loopback when the server is bound to an
/// unspecified address). Returns whether the connection was made.
fn wake(bound: SocketAddr) -> bool {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok()
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_in_place();
        }
    }
}

fn accept_loop(shared: &Arc<ServerShared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // Once `stop` is set, the connection just accepted is the wake from
        // `shutdown_in_place` (or a late client): dropped, never admitted
        // or counted.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => admit(shared, stream),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Admission control: enforce the connection cap, then hand the stream to
/// a dedicated handler thread.
fn admit(shared: &Arc<ServerShared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    {
        let conns = shared.conns.lock().expect("conns lock poisoned");
        if conns.len() >= shared.config.max_connections {
            drop(conns);
            shared.service.record_connection_over_capacity();
            let reject = Response::Rejected {
                code: RejectCode::OverCapacity,
                detail: format!("connection cap reached ({})", shared.config.max_connections),
            };
            let _ = stream.write_all(&reject.to_frame());
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let registered = match stream.try_clone() {
        Ok(clone) => {
            shared
                .conns
                .lock()
                .expect("conns lock poisoned")
                .insert(id, clone);
            true
        }
        Err(_) => false,
    };
    if !registered {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    shared.service.record_connection_opened();
    let handler_shared = Arc::clone(shared);
    let handler = std::thread::Builder::new()
        .name(format!("zkspeed-net-conn-{id}"))
        .spawn(move || {
            serve_connection(&handler_shared, stream);
            deregister(&handler_shared, id);
        });
    match handler {
        Ok(handle) => shared
            .handlers
            .lock()
            .expect("handlers poisoned")
            .push(handle),
        Err(_) => deregister(shared, id),
    }
}

/// Forgets connection `id`, counts it closed and wakes a waiting drain.
fn deregister(shared: &ServerShared, id: u64) {
    shared
        .conns
        .lock()
        .expect("conns lock poisoned")
        .remove(&id);
    shared.service.record_connection_closed();
    shared.conn_closed.notify_all();
}

/// Writes one response frame; returns `false` when the peer is gone.
fn send(stream: &mut TcpStream, response: &Response) -> bool {
    stream.write_all(&response.to_frame()).is_ok() && stream.flush().is_ok()
}

/// [`send`] for post-handshake responses, consulting the service's fault
/// plan first: an armed `conn-tear` writes half the frame, flushes it, and
/// slams the connection — deterministically reproducing a server dying
/// mid-frame so client torn-frame handling can be tested end to end.
fn send_response(shared: &ServerShared, stream: &mut TcpStream, response: &Response) -> bool {
    let frame = response.to_frame();
    if shared.service.config().faults.on_response() {
        let _ = stream.write_all(&frame[..frame.len() / 2]);
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
        return false;
    }
    stream.write_all(&frame).is_ok() && stream.flush().is_ok()
}

/// One connection's lifecycle: auth handshake, then request/response until
/// EOF, idle timeout, or a framing error.
fn serve_connection(shared: &ServerShared, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(stream);

    // --- auth handshake: the first frame must be an acceptable Hello ---
    let first = match reader.next_frame() {
        Ok(Some(payload)) => payload,
        Ok(None) => return,
        Err(e) => {
            if e.is_timeout() {
                shared.service.record_connection_idle_timeout();
            }
            return;
        }
    };
    match Request::from_bytes(&first) {
        Ok(Request::Hello { token }) => {
            if !shared.config.auth_token.is_empty() && token != shared.config.auth_token {
                shared.service.record_connection_bad_auth();
                send(
                    &mut writer,
                    &Response::Rejected {
                        code: RejectCode::BadAuth,
                        detail: "auth token mismatch".into(),
                    },
                );
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
            if !send(
                &mut writer,
                &shared.service.handle_request(Request::Hello { token }),
            ) {
                return;
            }
        }
        Ok(_) => {
            shared.service.record_connection_bad_auth();
            send(
                &mut writer,
                &Response::Rejected {
                    code: RejectCode::BadAuth,
                    detail: "first frame must be Hello".into(),
                },
            );
            let _ = writer.shutdown(Shutdown::Both);
            return;
        }
        Err(e) => {
            send(
                &mut writer,
                &Response::Rejected {
                    code: RejectCode::Malformed,
                    detail: e.to_string(),
                },
            );
            let _ = writer.shutdown(Shutdown::Both);
            return;
        }
    }

    // --- authenticated request loop ---
    loop {
        let payload = match reader.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            Err(e) => {
                if e.is_timeout() {
                    shared.service.record_connection_idle_timeout();
                }
                // Oversized length prefixes get a courtesy reject before
                // the close; torn frames and hard I/O errors just close.
                if matches!(e, zkspeed_rt::codec::FrameError::TooLarge { .. }) {
                    send(
                        &mut writer,
                        &Response::Rejected {
                            code: RejectCode::Malformed,
                            detail: e.to_string(),
                        },
                    );
                }
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
        };
        let request = match Request::from_bytes(&payload) {
            Ok(request) => request,
            Err(e) => {
                // A frame that framed correctly but decodes to garbage
                // means the peer is confused or malicious; answer and
                // close rather than trusting subsequent bytes.
                send(
                    &mut writer,
                    &Response::Rejected {
                        code: RejectCode::Malformed,
                        detail: e.to_string(),
                    },
                );
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = shared.service.handle_request(request);
        if !send_response(shared, &mut writer, &response) {
            return;
        }
        if is_shutdown {
            // Wake whoever parked in wait_for_shutdown_request. The
            // connection stays open so this client (and others) can keep
            // polling for proofs that finish during the drain.
            let mut requested = shared
                .shutdown_requested
                .lock()
                .expect("shutdown lock poisoned");
            *requested = true;
            shared.shutdown_signal.notify_all();
        }
    }
}
