//! Integration tests of the TCP transport: split/coalesced frame
//! delivery, corrupt and oversized frames, auth, connection caps, idle
//! timeouts, graceful drain under load, and the latency contracts (a
//! prompt `connect`, a parked `JobStatus`, a prompt shutdown) — all over
//! real loopback sockets against a live server.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zkspeed::hyperplonk::{mock_circuit, Circuit, SparsityProfile, Witness};
use zkspeed::net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
use zkspeed::pcs::Srs;
use zkspeed::rt::faults::FaultPlan;
use zkspeed::rt::pool::Serial;
use zkspeed::rt::rngs::StdRng;
use zkspeed::rt::SeedableRng;
use zkspeed::svc::{
    JobState, Priority, ProvingService, RejectCode, Request, Response, ServiceConfig,
};

const TOKEN: &[u8] = b"test-token";
const MU: usize = 6;

/// How long the service holds a `JobStatus` for a pending job (the job
/// table's `WAIT_POLL`).
const PARK: Duration = Duration::from_millis(100);

fn test_circuit(seed: u64) -> (Circuit, Witness) {
    small_circuit(seed, MU)
}

fn small_circuit(seed: u64, mu: usize) -> (Circuit, Witness) {
    let mut rng = StdRng::seed_from_u64(seed);
    mock_circuit(mu, SparsityProfile::paper_default(), &mut rng)
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_shards(1).with_wave_size(2)
}

/// [`service_config`] with every wave on shard 0 delayed by `ms`.
fn delayed_service_config(ms: u64) -> ServiceConfig {
    let plan = FaultPlan::parse(&format!("shard-delay=0:{ms}")).expect("valid spec");
    service_config().with_faults(Arc::new(plan))
}

fn start_server(server_config: ServerConfig) -> NetServer {
    start_server_with(service_config(), server_config)
}

fn start_server_with(service_config: ServiceConfig, server_config: ServerConfig) -> NetServer {
    let mut rng = StdRng::seed_from_u64(1);
    let srs = Arc::new(Srs::try_setup(MU, &mut rng, &Serial).expect("tiny setup fits"));
    let service = ProvingService::start(srs, service_config);
    NetServer::bind(service, server_config).expect("bind loopback")
}

fn default_server() -> NetServer {
    start_server(ServerConfig::new("127.0.0.1:0").with_auth_token(TOKEN))
}

/// The server's address, with an unspecified bind mapped to loopback.
fn loopback(server: &NetServer) -> SocketAddr {
    let mut addr = server.local_addr();
    if addr.ip().is_unspecified() {
        addr.set_ip(Ipv4Addr::LOCALHOST.into());
    }
    addr
}

fn connect(server: &NetServer) -> NetClient {
    NetClient::connect(loopback(server), TOKEN, ClientConfig::default()).expect("connect + auth")
}

/// Registers `circuit` and submits its witness once; returns the digest
/// and the job id.
fn submit_one(client: &mut NetClient, circuit: &Circuit, witness: &Witness) -> ([u8; 32], u64) {
    let (digest, _) = client.register_circuit(&circuit.to_bytes()).unwrap();
    let job = client
        .submit(digest, Priority::Normal, &witness.to_bytes())
        .unwrap();
    (digest, job)
}

fn assert_verifies(server: &NetServer, digest: &[u8; 32], proof: &[u8]) {
    let vk = server.service().verifying_key(digest).unwrap();
    let proof = zkspeed::hyperplonk::Proof::from_bytes(proof).unwrap();
    zkspeed::hyperplonk::verify(&vk, &proof).unwrap();
}

/// Raw socket helpers for byte-level delivery control.
fn raw_connect(server: &NetServer) -> TcpStream {
    let addr = server
        .local_addr()
        .to_socket_addrs()
        .unwrap()
        .next()
        .unwrap();
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads one whole response frame (length prefix included) off the socket.
fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).ok()?;
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    let mut frame = prefix.to_vec();
    frame.extend_from_slice(&payload);
    Some(frame)
}

fn hello_frame() -> Vec<u8> {
    Request::Hello {
        token: TOKEN.to_vec(),
    }
    .to_frame()
}

/// Deterministic request with a deterministic response, for byte-identity
/// checks (metrics embed uptime, so they cannot be compared bytewise).
fn probe_frame(job: u64) -> Vec<u8> {
    Request::JobStatus { job }.to_frame()
}

#[test]
fn split_and_coalesced_delivery_are_byte_identical() {
    let server = default_server();

    // Reference: whole-frame delivery.
    let mut whole = raw_connect(&server);
    whole.write_all(&hello_frame()).unwrap();
    let hello_response = read_frame(&mut whole).expect("hello response");
    whole.write_all(&probe_frame(999)).unwrap();
    let probe_response = read_frame(&mut whole).expect("probe response");
    drop(whole);

    // 1-byte-at-a-time delivery must produce byte-identical responses.
    let mut trickle = raw_connect(&server);
    for chunk in [hello_frame(), probe_frame(999)] {
        for byte in &chunk {
            trickle.write_all(std::slice::from_ref(byte)).unwrap();
            trickle.flush().unwrap();
        }
        let expected = if chunk == hello_frame() {
            &hello_response
        } else {
            &probe_response
        };
        assert_eq!(
            &read_frame(&mut trickle).expect("trickled response"),
            expected
        );
    }
    drop(trickle);

    // Coalesced delivery: several frames in one write, same bytes back.
    let mut burst = raw_connect(&server);
    let mut bytes = hello_frame();
    bytes.extend_from_slice(&probe_frame(999));
    bytes.extend_from_slice(&probe_frame(999));
    burst.write_all(&bytes).unwrap();
    assert_eq!(read_frame(&mut burst).expect("burst hello"), hello_response);
    assert_eq!(
        read_frame(&mut burst).expect("burst probe 1"),
        probe_response
    );
    assert_eq!(
        read_frame(&mut burst).expect("burst probe 2"),
        probe_response
    );

    server.shutdown();
}

#[test]
fn corrupt_frames_close_the_connection_without_killing_the_server() {
    let server = default_server();

    // Garbage payload inside a well-formed frame: the server answers
    // Rejected(Malformed) and closes.
    let mut stream = raw_connect(&server);
    stream.write_all(&hello_frame()).unwrap();
    read_frame(&mut stream).expect("hello response");
    let garbage = [42u8; 16];
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&garbage).unwrap();
    let frame = read_frame(&mut stream).expect("reject response");
    let response = Response::from_bytes(&frame[4..]).expect("decodable response");
    assert!(matches!(
        response,
        Response::Rejected {
            code: RejectCode::Malformed,
            ..
        }
    ));
    assert!(read_frame(&mut stream).is_none(), "connection must close");

    // Oversized length prefix: rejected before allocation, then closed.
    let mut oversized = raw_connect(&server);
    oversized.write_all(&hello_frame()).unwrap();
    read_frame(&mut oversized).expect("hello response");
    oversized.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let frame = read_frame(&mut oversized).expect("oversize reject");
    let response = Response::from_bytes(&frame[4..]).expect("decodable response");
    assert!(matches!(
        response,
        Response::Rejected {
            code: RejectCode::Malformed,
            ..
        }
    ));
    assert!(read_frame(&mut oversized).is_none());

    // Torn frame (length promises more than arrives before EOF): server
    // just closes its side, no panic.
    let mut torn = raw_connect(&server);
    torn.write_all(&hello_frame()).unwrap();
    read_frame(&mut torn).expect("hello response");
    torn.write_all(&100u32.to_le_bytes()).unwrap();
    torn.write_all(&[1, 2, 3]).unwrap();
    drop(torn);

    // The server survived all of it: a fresh client still works.
    let mut client = connect(&server);
    assert!(client.metrics().unwrap().contains("connections"));
    server.shutdown();
}

#[test]
fn bad_auth_is_rejected_and_closed() {
    let server = default_server();

    // Wrong token.
    let err = NetClient::connect(server.local_addr(), b"wrong", ClientConfig::default())
        .expect_err("bad token must fail");
    match err {
        NetError::Rejected { code, detail } => {
            assert_eq!(code, RejectCode::BadAuth);
            assert!(detail.contains("token"));
        }
        other => panic!("expected BadAuth rejection, got {other}"),
    }

    // First frame not a Hello.
    let mut stream = raw_connect(&server);
    stream.write_all(&probe_frame(1)).unwrap();
    let frame = read_frame(&mut stream).expect("reject response");
    let response = Response::from_bytes(&frame[4..]).expect("decodable response");
    assert!(matches!(
        response,
        Response::Rejected {
            code: RejectCode::BadAuth,
            ..
        }
    ));
    assert!(read_frame(&mut stream).is_none(), "connection must close");

    // Good token still works and the rejections are on the books.
    let mut client = connect(&server);
    let json = client.metrics().unwrap();
    assert!(json.contains("\"rejected_bad_auth\": 2"), "metrics: {json}");
    let metrics = server.shutdown();
    assert_eq!(metrics.connections.rejected_bad_auth, 2);
}

#[test]
fn over_cap_connections_are_rejected_then_closed() {
    let server = start_server(
        ServerConfig::new("127.0.0.1:0")
            .with_auth_token(TOKEN)
            .with_max_connections(1),
    );
    let occupant = connect(&server);

    let mut second = raw_connect(&server);
    let frame = read_frame(&mut second).expect("over-cap reject arrives unprompted");
    let response = Response::from_bytes(&frame[4..]).expect("decodable response");
    match response {
        Response::Rejected { code, detail } => {
            assert_eq!(code, RejectCode::OverCapacity);
            assert!(code.is_retryable(), "over-cap is backpressure: {detail}");
        }
        other => panic!("expected OverCapacity, got {other:?}"),
    }
    assert!(read_frame(&mut second).is_none(), "connection must close");

    // Freeing the slot lets the next client in.
    drop(occupant);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.connection_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = connect(&server);
    assert!(client.metrics().unwrap().contains("rejected_over_capacity"));
    let metrics = server.shutdown();
    assert_eq!(metrics.connections.rejected_over_capacity, 1);
}

#[test]
fn idle_connections_are_reaped() {
    let server = start_server(
        ServerConfig::new("127.0.0.1:0")
            .with_auth_token(TOKEN)
            .with_idle_timeout(Duration::from_millis(100)),
    );
    let mut stream = raw_connect(&server);
    stream.write_all(&hello_frame()).unwrap();
    read_frame(&mut stream).expect("hello response");

    // Stay silent past the idle timeout; the server hangs up.
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        read_frame(&mut stream).is_none(),
        "idle connection must be closed"
    );

    // An active client on the same server is unaffected.
    let mut client = connect(&server);
    assert!(client.metrics().unwrap().contains("idle_timeouts"));
    let metrics = server.shutdown();
    assert!(metrics.connections.idle_timeouts >= 1);
}

#[test]
fn proofs_round_trip_over_tcp_and_verify() {
    let server = default_server();
    let (circuit, witness) = test_circuit(7);
    let mut client = connect(&server);

    let (digest, num_vars) = client.register_circuit(&circuit.to_bytes()).unwrap();
    assert_eq!(num_vars as usize, MU);
    let witness_bytes = witness.to_bytes();
    let jobs: Vec<u64> = (0..3)
        .map(|i| {
            client
                .submit(digest, Priority::ALL[i % 3], &witness_bytes)
                .unwrap()
        })
        .collect();
    for job in jobs {
        let proof = client.wait(job, Duration::from_secs(60)).unwrap();
        assert_verifies(&server, &digest, &proof);
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 3);
    assert_eq!(metrics.connections.total, 1);
    assert_eq!(metrics.connections.open, 0, "shutdown closes everything");
}

#[test]
fn graceful_drain_finishes_accepted_jobs_and_rejects_new_ones() {
    let server = default_server();
    let (circuit, witness) = test_circuit(9);
    let witness_bytes = witness.to_bytes();

    let mut submitter = connect(&server);
    let mut late = connect(&server);
    let (digest, _) = submitter.register_circuit(&circuit.to_bytes()).unwrap();
    let jobs: Vec<u64> = (0..6)
        .map(|_| {
            submitter
                .submit(digest, Priority::Normal, &witness_bytes)
                .unwrap()
        })
        .collect();

    // Ask for drain over the wire while the jobs are in flight.
    submitter.shutdown_server().unwrap();

    // New submissions are now turned away with the Draining code...
    let err = late
        .submit(digest, Priority::Normal, &witness_bytes)
        .expect_err("draining server must reject new work");
    match err {
        NetError::Rejected { code, .. } => {
            assert_eq!(code, RejectCode::Draining);
            assert!(!code.is_retryable());
        }
        other => panic!("expected Draining rejection, got {other}"),
    }
    drop(late);

    // ...while every accepted job still delivers its ProofReady. The
    // server drains concurrently, exactly as `zkspeed serve` does it.
    let drainer = std::thread::spawn(move || server.shutdown());
    for job in jobs {
        let proof = submitter.wait(job, Duration::from_secs(60)).unwrap();
        assert!(!proof.is_empty());
    }
    drop(submitter);
    let metrics = drainer.join().expect("drain thread");
    assert_eq!(metrics.completed, 6, "all accepted jobs finished");
    assert!(metrics.rejected_draining >= 1);
    assert_eq!(metrics.connections.open, 0);
}

// --- latency contracts: neither side sleeps to poll ----------------------

#[test]
fn sequential_connects_do_not_wait_on_the_accept_loop() {
    let server = default_server();
    let started = Instant::now();
    for _ in 0..20 {
        drop(connect(&server));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "20 connects took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn one_job_status_right_after_acceptance_answers_proof_ready() {
    let server = default_server();
    let (circuit, witness) = small_circuit(11, 4);
    let mut client = connect(&server);
    let (digest, job) = submit_one(&mut client, &circuit, &witness);
    match client.request(&Request::JobStatus { job }).unwrap() {
        Response::ProofReady { job: id, proof } => {
            assert_eq!(id, job);
            assert_verifies(&server, &digest, &proof);
        }
        other => panic!("a parked JobStatus should answer ProofReady, got {other:?}"),
    }
    drop(client);
    server.shutdown();
}

#[test]
fn a_job_status_on_a_delayed_shard_answers_status_after_one_park() {
    let server = start_server_with(
        delayed_service_config(300),
        ServerConfig::new("127.0.0.1:0").with_auth_token(TOKEN),
    );
    let (circuit, witness) = small_circuit(12, 4);
    let mut client = connect(&server);
    let (digest, job) = submit_one(&mut client, &circuit, &witness);
    let started = Instant::now();
    match client.request(&Request::JobStatus { job }).unwrap() {
        Response::Status { job: id, state } => {
            assert_eq!(id, job);
            assert!(matches!(state, JobState::Queued | JobState::Running));
        }
        other => panic!("expected Status while the shard sleeps, got {other:?}"),
    }
    let parked = started.elapsed();
    assert!(
        parked >= PARK && parked < 3 * PARK,
        "a pending JobStatus parked {parked:?}"
    );
    let proof = client.wait(job, Duration::from_secs(60)).unwrap();
    assert_verifies(&server, &digest, &proof);
    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_is_prompt_on_loopback_and_unspecified_binds() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        // No waiter: one client came and went.
        let server = start_server(ServerConfig::new(addr).with_auth_token(TOKEN));
        drop(connect(&server));
        let started = Instant::now();
        server.shutdown();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "{addr}: {elapsed:?}");

        // A waiter parked on a job that settles during the drain still
        // receives its ProofReady.
        let server = start_server_with(
            delayed_service_config(200),
            ServerConfig::new(addr).with_auth_token(TOKEN),
        );
        let (circuit, witness) = small_circuit(13, 4);
        let mut client = connect(&server);
        let (digest, job) = submit_one(&mut client, &circuit, &witness);
        let vk = server.service().verifying_key(&digest).unwrap();
        let waiter = std::thread::spawn(move || client.wait(job, Duration::from_secs(60)));
        std::thread::sleep(PARK / 2);
        let started = Instant::now();
        let metrics = server.shutdown();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "{addr}: {elapsed:?}");
        let proof = waiter.join().unwrap().expect("the parked waiter's proof");
        let proof = zkspeed::hyperplonk::Proof::from_bytes(&proof).unwrap();
        zkspeed::hyperplonk::verify(&vk, &proof).unwrap();
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.connections.open, 0);
    }
}
