//! Chaos suite (ISSUE 8 acceptance criteria): deterministic fault
//! injection against the proving service and its TCP transport. An
//! injected wave panic fails only that wave's jobs and is reported as
//! `JobFailed` over the wire; a killed shard worker is respawned within
//! its restart budget and later proofs are byte-identical to a fault-free
//! run; no `wait` or `drain` blocks past its deadline when a worker dies;
//! a terminal answer torn in transit is answered again, unchanged, on a
//! new connection.
//! Every scenario ends with the job counters balanced: each accepted job
//! was counted exactly once as completed or failed, and no queue holds
//! work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zkspeed::hyperplonk::{mock_circuit, verify, Circuit, SparsityProfile, Witness};
use zkspeed::net::{ClientConfig, NetClient, NetError, NetServer, ServerConfig};
use zkspeed::pcs::Srs;
use zkspeed::prelude::*;
use zkspeed::rt::faults::FaultPlan;
use zkspeed::svc::{JobState, ServiceMetrics};

const MU: usize = 4;
const TOKEN: &[u8] = b"chaos-token";

/// One shared tiny SRS: chaos scenarios exercise scheduling and failure
/// paths, not prover scale.
fn tiny_srs() -> Arc<Srs> {
    use std::sync::OnceLock;
    static SRS: OnceLock<Arc<Srs>> = OnceLock::new();
    SRS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xc4a0_5001);
        Arc::new(Srs::try_setup(MU, &mut rng, &Serial).expect("tiny setup fits"))
    })
    .clone()
}

fn instance(seed: u64) -> (Circuit, Witness) {
    let mut rng = StdRng::seed_from_u64(seed);
    mock_circuit(MU, SparsityProfile::paper_default(), &mut rng)
}

/// A single-shard service with the given fault plan, wave size 1 so every
/// job is its own wave and `@K` ordinals map 1:1 onto jobs.
fn faulty_service(spec: &str) -> ProvingService {
    faulty_service_with(spec, |c| c)
}

fn faulty_service_with(
    spec: &str,
    tweak: impl FnOnce(ServiceConfig) -> ServiceConfig,
) -> ProvingService {
    let config = ServiceConfig::default()
        .with_shards(1)
        .with_wave_size(1)
        .with_faults(Arc::new(FaultPlan::parse(spec).expect("valid spec")));
    ProvingService::start(tiny_srs(), tweak(config))
}

/// Checks the service's job accounting once no job is in flight.
fn assert_counters_balance(metrics: &ServiceMetrics) {
    assert_eq!(
        metrics.submitted,
        metrics.completed + metrics.failed,
        "submitted != completed + failed: {metrics:?}"
    );
    assert_eq!(metrics.queue_depths, [0; 3], "queues not empty");
}

/// The proof the same (circuit, witness) yields on a fault-free service —
/// the byte-identical baseline every recovery scenario compares against.
fn fault_free_proof(circuit: &Circuit, witness: &Witness) -> Vec<u8> {
    let svc = faulty_service("");
    let digest = svc.register_circuit(circuit.clone()).expect("fits");
    let job = svc
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("accepted");
    svc.wait(job).expect("fault-free run proves").to_vec()
}

#[test]
fn wave_panic_fails_only_that_wave_and_worker_survives() {
    let (circuit, witness) = instance(1);
    let baseline = fault_free_proof(&circuit, &witness);

    let svc = faulty_service("wave-panic@1");
    let digest = svc.register_circuit(circuit).expect("fits");
    let doomed = svc
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("accepted");
    match svc.wait(doomed) {
        Err(ServiceError::JobFailed(reason)) => {
            assert!(
                reason.contains("injected wave fault"),
                "reason should carry the panic message, got `{reason}`"
            );
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }

    // The same worker thread serves the next wave: no restart consumed,
    // and the recovery proof is byte-identical to the fault-free run.
    let job = svc
        .submit(&digest, witness, Priority::Normal)
        .expect("accepted");
    let proof = svc.wait(job).expect("wave 2 proves");
    assert_eq!(*proof, baseline, "post-panic proof must match fault-free");

    let metrics = svc.metrics();
    assert_eq!(metrics.supervision.wave_panics, 1);
    assert_eq!(metrics.supervision.worker_restarts, 0);
    assert_eq!(metrics.supervision.workers_alive, 1);
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.completed, 1);
    assert_counters_balance(&metrics);
}

#[test]
fn killed_worker_is_respawned_and_recovery_proof_is_byte_identical() {
    let (circuit, witness) = instance(2);
    let baseline = fault_free_proof(&circuit, &witness);

    let svc = faulty_service("worker-kill@1");
    let digest = svc.register_circuit(circuit).expect("fits");
    let doomed = svc
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("accepted");
    match svc.wait(doomed) {
        Err(ServiceError::JobFailed(reason)) => {
            assert!(
                reason.contains("shard worker died"),
                "reason should name the worker death, got `{reason}`"
            );
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }

    // The respawned worker proves the next job byte-identically. Its wave
    // ordinal is the shard's second, so `worker-kill@1` stays quiet.
    let job = svc
        .submit(&digest, witness, Priority::Normal)
        .expect("accepted");
    let proof = svc.wait(job).expect("respawned worker proves");
    assert_eq!(*proof, baseline, "post-respawn proof must match fault-free");

    let metrics = svc.metrics();
    assert_eq!(metrics.supervision.worker_restarts, 1);
    assert_eq!(metrics.supervision.workers_alive, 1);
    assert_eq!(metrics.supervision.wave_panics, 0);
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.completed, 1);
    assert_counters_balance(&metrics);
}

#[test]
fn trace_dump_survives_worker_kill_and_respawn() {
    use zkspeed::rt::trace::TraceSink;

    let (circuit, witness) = instance(7);
    let baseline = fault_free_proof(&circuit, &witness);

    // Tracing on, worker killed mid-first-wave: the sink must keep the
    // events recorded before the death, keep accepting events from the
    // respawned worker thread, and still render a valid dump — and the
    // recovery proof must stay byte-identical to the untraced baseline.
    let sink = TraceSink::enabled();
    let svc = faulty_service_with("worker-kill@1", {
        let sink = sink.clone();
        move |c| c.with_trace(sink)
    });
    let digest = svc.register_circuit(circuit).expect("fits");
    let doomed = svc
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("accepted");
    assert!(svc.wait(doomed).is_err(), "doomed job must fail");

    let job = svc
        .submit(&digest, witness, Priority::Normal)
        .expect("accepted");
    let proof = svc.wait(job).expect("respawned worker proves");
    assert_eq!(
        *proof, baseline,
        "traced recovery proof must match baseline"
    );

    // The wave span lands when its guard drops, just after the job-done
    // notification — poll briefly instead of racing the worker thread.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut json = svc.trace_json();
    while !json.contains("\"wave\"") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        json = svc.trace_json();
    }
    assert!(json.starts_with('{') && json.ends_with('}'), "valid JSON");
    for needle in [
        "\"traceEvents\"",
        "\"wave\"",
        "\"queue-wait\"",
        "\"submit\"",
    ] {
        assert!(json.contains(needle), "trace dump missing {needle}");
    }
    // Both waves recorded: the killed worker's span buffer survives the
    // thread's death, and the respawned thread registers its own.
    assert!(sink.event_count() >= 4, "events: {}", sink.event_count());
    let threads = sink.threads().len();
    assert!(threads >= 2, "threads: {threads}");
    let metrics = svc.metrics();
    assert_eq!(metrics.supervision.worker_restarts, 1);
    assert_counters_balance(&metrics);
}

#[test]
fn restart_budget_exhaustion_fails_backlog_and_drain_stays_bounded() {
    let (circuit, witness) = instance(3);
    // The restart budget is three: the first three kills respawn the
    // worker, the fourth writes the shard off.
    let svc = faulty_service("worker-kill@1;worker-kill@2;worker-kill@3;worker-kill@4");
    let digest = svc.register_circuit(circuit).expect("fits");

    let jobs: Vec<u64> = (0..4)
        .map(|_| {
            svc.submit(&digest, witness.clone(), Priority::Normal)
                .expect("accepted")
        })
        .collect();
    for job in jobs {
        assert!(matches!(svc.wait(job), Err(ServiceError::JobFailed(_))));
    }

    // The shard is written off: its queue is closed, so new work bounces
    // with Shutdown (not QueueFull), and the supervision gauge shows no
    // live worker. The worker death is asynchronous; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if svc.metrics().supervision.workers_alive == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "worker never died");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(matches!(
        svc.try_submit(&digest, witness, JobSpec::new(Priority::Normal)),
        Err(ServiceError::Shutdown)
    ));

    // drain() must return promptly even though the shard can never make
    // progress again.
    let (tx, rx) = mpsc::channel();
    let svc = Arc::new(svc);
    let drainer = Arc::clone(&svc);
    std::thread::spawn(move || {
        drainer.drain();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("drain blocked on a dead shard");

    let metrics = svc.metrics();
    assert_eq!(metrics.supervision.worker_restarts, 3);
    assert_eq!(metrics.failed, 4);
    assert_counters_balance(&metrics);
}

#[test]
fn deadlines_bound_waits_under_a_saturated_shard() {
    let (circuit, witness) = instance(4);
    // Every wave on shard 0 sleeps 300 ms, so a queued job with a ~50 ms
    // deadline can never start in time.
    let svc = faulty_service("shard-delay=0:300");
    let digest = svc.register_circuit(circuit).expect("fits");

    let slow = svc
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("accepted");
    let hurried = svc
        .try_submit(
            &digest,
            witness,
            JobSpec::new(Priority::Normal).with_deadline(Duration::from_millis(50)),
        )
        .expect("accepted");

    // The waiter gives up at the deadline — well before the shard's delay
    // schedule could deliver the second proof.
    let started = Instant::now();
    assert!(matches!(svc.wait(hurried), Err(ServiceError::Deadline)));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline wait not bounded: {:?}",
        started.elapsed()
    );

    // The first job (default deadline) still proves despite the delays.
    assert!(svc.wait(slow).is_ok());

    // Queue-side expiry: by the time the worker pops the hurried job its
    // deadline has passed, so it fails without proving.
    svc.begin_drain();
    svc.drain();
    let metrics = svc.metrics();
    assert!(
        metrics.failed_deadline >= 1,
        "expired job should be counted: {metrics:?}"
    );
    assert_eq!(metrics.completed, 1);
    assert_counters_balance(&metrics);
}

// --- TCP scenarios -------------------------------------------------------

#[test]
fn scrapes_mid_run_never_read_more_finished_than_submitted_jobs() {
    // Two clients submit μ = 2 jobs while a scraper reads the metrics in a
    // loop: at every scrape `completed + failed ≤ submitted`, and after
    // `drain` the two sides are equal. A job is counted submitted before
    // it is queued, and a scrape reads the terminal counts first.
    const JOBS_PER_CLIENT: usize = 32;
    let mut rng = StdRng::seed_from_u64(0xc4a0_5002);
    let (circuit, witness) = mock_circuit(2, SparsityProfile::paper_default(), &mut rng);
    let svc = faulty_service("");
    let digest = svc.register_circuit(circuit).expect("fits");
    let client = || -> Vec<u64> {
        let submit = || svc.submit(&digest, witness.clone(), Priority::Normal);
        (0..JOBS_PER_CLIENT)
            .map(|_| submit().expect("accepted"))
            .collect()
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut scrapes = 0u64;
            while !done.load(Ordering::Acquire) {
                let m = svc.metrics();
                assert!(m.completed + m.failed <= m.submitted, "{m:?}");
                scrapes += 1;
            }
            scrapes
        });
        let clients: Vec<_> = (0..2).map(|_| s.spawn(client)).collect();
        for client in clients {
            for job in client.join().expect("client") {
                svc.wait(job).expect("proves");
            }
        }
        svc.drain();
        done.store(true, Ordering::Release);
        assert!(scraper.join().expect("every scrape balanced") > 0);
    });
    let metrics = svc.metrics();
    assert_eq!(metrics.completed, 2 * JOBS_PER_CLIENT as u64);
    assert_counters_balance(&metrics);
}

fn faulty_server(spec: &str) -> NetServer {
    let service = ProvingService::start(
        tiny_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_wave_size(1)
            .with_faults(Arc::new(FaultPlan::parse(spec).expect("valid spec"))),
    );
    NetServer::bind(
        service,
        ServerConfig::new("127.0.0.1:0").with_auth_token(TOKEN),
    )
    .expect("bind loopback")
}

#[test]
fn wave_panic_reaches_the_client_as_job_failed_and_recovery_verifies() {
    let (circuit, witness) = instance(5);
    let baseline = fault_free_proof(&circuit, &witness);

    let server = faulty_server("wave-panic@1");
    let mut client = NetClient::connect(server.local_addr(), TOKEN, ClientConfig::default())
        .expect("connect + auth");
    let (digest, _) = client
        .register_circuit(&circuit.to_bytes())
        .expect("register");

    let doomed = client
        .submit(digest, Priority::Normal, &witness.to_bytes())
        .expect("accepted");
    match client.wait(doomed, Duration::from_secs(60)) {
        Err(NetError::JobFailed { job, reason }) => {
            assert_eq!(job, doomed);
            assert!(
                reason.contains("injected wave fault"),
                "wire reason should carry the panic message, got `{reason}`"
            );
        }
        other => panic!("expected JobFailed over the wire, got {other:?}"),
    }

    // Recovery over the same connection: byte-identical proof.
    let job = client
        .submit(digest, Priority::Normal, &witness.to_bytes())
        .expect("accepted");
    let proof = client.wait(job, Duration::from_secs(60)).expect("proves");
    assert_eq!(proof, baseline, "post-panic wire proof must match");
    let metrics = server.shutdown();
    assert_eq!((metrics.completed, metrics.failed), (1, 1));
    assert_counters_balance(&metrics);
}

#[test]
fn torn_response_surfaces_as_transport_error_without_hanging() {
    let (circuit, _witness) = instance(6);
    // Response ordinals count post-handshake sends: the register response
    // is #1, so `conn-tear@1` tears it mid-frame.
    let server = faulty_server("conn-tear@1");
    let config = ClientConfig::default().with_io_timeout(Duration::from_secs(2));
    let mut client =
        NetClient::connect(server.local_addr(), TOKEN, config).expect("connect + auth");

    let started = Instant::now();
    let err = client
        .register_circuit(&circuit.to_bytes())
        .expect_err("torn frame must not yield a response");
    assert!(
        matches!(
            err,
            NetError::Io(_) | NetError::Decode(_) | NetError::Disconnected
        ),
        "expected a transport error, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "torn response must not hang: {:?}",
        started.elapsed()
    );
    assert_counters_balance(&server.shutdown());
}

/// Blocks until the in-process view of `job` reads `state`, so that the
/// next `JobStatus` answer is the job's terminal one.
fn await_state(server: &NetServer, job: u64, state: JobState) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.service().status(job) != Some(state) {
        assert!(
            Instant::now() < deadline,
            "job {job} never reached {state:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Tears the terminal answer to `job` (response #3: register, submit,
/// then this `JobStatus`), checks the client sees a transport error, and
/// returns a fresh connection to re-poll on.
fn tear_terminal_answer(server: &NetServer, client: &mut NetClient, job: u64) -> NetClient {
    let err = client
        .wait(job, Duration::from_secs(60))
        .expect_err("the torn answer must not arrive");
    assert!(
        matches!(
            err,
            NetError::Io(_) | NetError::Decode(_) | NetError::Disconnected
        ),
        "expected a transport error, got {err:?}"
    );
    NetClient::connect(server.local_addr(), TOKEN, ClientConfig::default()).expect("reconnect")
}

#[test]
fn a_torn_proof_ready_is_delivered_again_on_a_new_connection() {
    let (circuit, witness) = instance(7);
    let baseline = fault_free_proof(&circuit, &witness);

    let server = faulty_server("conn-tear@3");
    let mut client = NetClient::connect(server.local_addr(), TOKEN, ClientConfig::default())
        .expect("connect + auth");
    let (digest, _) = client
        .register_circuit(&circuit.to_bytes())
        .expect("register");
    let job = client
        .submit(digest, Priority::Normal, &witness.to_bytes())
        .expect("accepted");
    await_state(&server, job, JobState::Done);

    let mut again = tear_terminal_answer(&server, &mut client, job);
    let proof = again.wait(job, Duration::from_secs(60)).expect("re-poll");
    assert_eq!(proof, baseline, "the re-delivered proof is byte-equal");
    let vk = server.service().verifying_key(&digest).expect("registered");
    verify(&vk, &Proof::from_bytes(&proof).expect("decodes")).expect("verifies");
    // And once more: the retained outcome does not change.
    assert_eq!(
        again.wait(job, Duration::from_secs(60)).expect("3rd"),
        proof
    );
    drop((client, again));

    let metrics = server.shutdown();
    assert_eq!((metrics.completed, metrics.failed), (1, 0));
    assert_counters_balance(&metrics);
}

#[test]
fn a_torn_job_failed_is_delivered_again_on_a_new_connection() {
    let (circuit, witness) = instance(8);
    // The wave sleeps 300 ms before its deadline check, so a 50 ms job
    // always expires.
    let server = faulty_server("conn-tear@3; shard-delay=0:300");
    let mut client = NetClient::connect(server.local_addr(), TOKEN, ClientConfig::default())
        .expect("connect + auth");
    let (digest, _) = client
        .register_circuit(&circuit.to_bytes())
        .expect("register");
    let job = client
        .submit_with_deadline(digest, Priority::Normal, &witness.to_bytes(), 50)
        .expect("accepted");
    await_state(&server, job, JobState::Failed);

    let mut again = tear_terminal_answer(&server, &mut client, job);
    let failures: Vec<String> = (0..2)
        .map(|_| match again.wait(job, Duration::from_secs(60)) {
            Err(NetError::JobFailed { job: id, reason }) => {
                assert_eq!(id, job);
                reason
            }
            other => panic!("expected JobFailed again, got {other:?}"),
        })
        .collect();
    assert!(failures[0].contains("deadline"), "{}", failures[0]);
    assert_eq!(
        failures[0], failures[1],
        "the retained failure does not change"
    );
    drop((client, again));

    let metrics = server.shutdown();
    assert_eq!((metrics.completed, metrics.failed), (0, 1));
    assert_eq!(metrics.failed_deadline, 1);
    assert_counters_balance(&metrics);
}
