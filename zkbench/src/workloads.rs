//! The four workloads and the two passes that run them: the timed pass
//! (tracing off, end-to-end metrics) and the traced pass (per-layer
//! metrics).
//!
//! Everything here goes through the session surface — `ProofSystem`,
//! `ProverHandle`, `VerifierHandle`, `NetServer`, `NetClient` — and the
//! program only ever sees the circuit, witness and SRS generated from the
//! seed. All loops are closed: a caller starts its next operation when the
//! previous one has completed.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zkspeed::hyperplonk::workloads::{HashChainSpec, StateTransitionSpec, WorkloadSpec};
use zkspeed::hyperplonk::{mock_circuit, Circuit, Proof, SparsityProfile, Witness};
use zkspeed::net::{ClientConfig, NetClient, NetServer, ServerConfig};
use zkspeed::pcs::{PrecomputeBudget, Srs};
use zkspeed::rt::pool::{Backend, ThreadPool};
use zkspeed::rt::rngs::StdRng;
use zkspeed::rt::trace::TraceSink;
use zkspeed::rt::{JsonValue, SeedableRng, Sha3_256};
use zkspeed::svc::{Priority, ProvingService, Request, Response, ServiceConfig, ServiceMetrics};
use zkspeed::{ProofSystem, ProverHandle, VerifierHandle};

use crate::host;
use crate::layers::{self, child_args, next_op, LocalService, Metric, WIDE_THREADS};
use crate::pace;
use crate::stats::{median, millis, percentile, tail_percentile};

/// Proving threads of every timed operation; pinned so that a result does
/// not depend on how many cores the host reports. One, not one per core: on
/// a two-core share of a busy host the two virtual CPUs at times share one
/// core's execution units, and run-to-run spread was measured 2-3 times
/// wider with two threads (README, "Noise floor and bounds").
pub const THREADS: usize = 1;
/// Cores a measuring run needs: the one the timed pass holds itself to, and
/// one for the rest of the machine.
pub const MIN_CORES: usize = 2;
/// Set-ups per timed run: at least [`SETUP_REPS`], and more of a cheap
/// set-up until [`SETUP_SECONDS`] have gone into them (at most
/// [`SETUP_MAX_REPS`]); `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;
const SETUP_MAX_REPS: usize = 25;
/// Verifying a proof takes milliseconds, so a run's handful of proofs is
/// verified again and again until this much time has gone into it: the
/// median then spans seconds of machine time, like the proofs'.
const VERIFY_SECONDS: f64 = 1.5;
/// Quanta of the reference kernel per tick of the [`pace`] clock. A direct
/// workload ticks before and after each proof, set-up and batch of
/// verifications: 20 ms against a proof of more than a second. A client of
/// `svc10-tcp` ticks after each job it collects, sharing the one CPU with
/// the server's proving thread.
const QUANTA: usize = 8;
const CLIENT_QUANTA: usize = 2;
/// Verifications between two ticks.
const VERIFIES_PER_TICK: usize = 8;
/// `svc10-tcp`: client connections, and jobs each keeps in flight.
const CLIENTS: usize = 2;
const WINDOW: usize = 4;
/// `svc10-tcp`: sessions registered with the service.
const SESSIONS: usize = 2;
/// One-outstanding jobs per service and network probe of the traced pass.
const PROBE_OPS: usize = 20;
/// Round trips of the idle-server probe.
const RTT_OPS: usize = 200;
/// Timed proofs of the wider-pool probe, after one untimed.
const WIDE_PROOFS: usize = 5;
const AUTH_TOKEN: &[u8] = b"zkbench";
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Mock14Paper,
    Mock14Dense,
    Keccak14Chain,
    Svc10Tcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Mock14Paper,
        Workload::Mock14Dense,
        Workload::Keccak14Chain,
        Workload::Svc10Tcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mock14Paper => "mock14-paper",
            Workload::Mock14Dense => "mock14-dense",
            Workload::Keccak14Chain => "keccak14-chain",
            Workload::Svc10Tcp => "svc10-tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the measured ones, or the small ones of `--smoke`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// When a closed loop stops starting operations: after `seconds`, or after
/// `max_ops` operations, whichever comes first.
#[derive(Copy, Clone, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub max_ops: usize,
}

/// What one pass over one workload produced.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Annotations stored next to the metrics: sample counts, digests.
    pub detail: Vec<(String, JsonValue)>,
}

/// The inputs of one run, generated from the seed alone.
struct Inputs {
    sessions: Vec<(Circuit, Witness)>,
    num_vars: usize,
    /// Continues the seed's stream; the SRS trapdoor is drawn from it.
    rng: StdRng,
}

fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = scale == Scale::Full;
    let mock = |mu: usize, profile: SparsityProfile, rng: &mut StdRng| {
        mock_circuit(if full { mu } else { 8 }, profile, rng)
    };
    let sessions = match workload {
        Workload::Mock14Paper => vec![mock(14, SparsityProfile::paper_default(), &mut rng)],
        Workload::Mock14Dense => vec![mock(14, SparsityProfile::dense(), &mut rng)],
        // No hash chain fits below 2^14 gates; smoke takes the smallest
        // circuit the gadget layer builds in its place.
        Workload::Keccak14Chain if full => vec![WorkloadSpec::HashChain(HashChainSpec {
            links: 2,
            rounds: 1,
        })
        .build(&mut rng)],
        Workload::Keccak14Chain => vec![WorkloadSpec::StateTransition(StateTransitionSpec {
            transfers: 2,
            balance_bits: 8,
        })
        .build(&mut rng)],
        Workload::Svc10Tcp => (0..SESSIONS)
            .map(|_| mock(10, SparsityProfile::paper_default(), &mut rng))
            .collect(),
    };
    let num_vars = sessions
        .iter()
        .map(|(c, _)| c.num_vars())
        .max()
        .expect("every workload has a session");
    Inputs {
        sessions,
        num_vars,
        rng,
    }
}

/// SHA3-256 over the canonical bytes of every circuit and witness of a run.
pub fn input_digest(workload: Workload, scale: Scale, seed: u64) -> String {
    let mut hasher = Sha3_256::new();
    for (circuit, witness) in &generate(workload, scale, seed).sessions {
        hasher.update(&circuit.to_bytes());
        hasher.update(&witness.to_bytes());
    }
    hex(&hasher.finalize())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The service configuration of `svc10-tcp`, every field that shapes
/// scheduling pinned (`Default` sizes shards from the host's core count).
fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        threads_per_shard: THREADS,
        queue_capacity: 64,
        wave_size: 4,
        precompute: PrecomputeBudget::disabled(),
        proof_cache_bytes: 0,
        rebalance_interval: None,
        ..ServiceConfig::default()
    }
}

/// Where set-up time went.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    /// When each set-up began.
    began: Vec<Instant>,
    circuit_build_ms: Vec<f64>,
    srs_s: Vec<f64>,
    /// Preprocessing per session (through wire registration on TCP).
    preprocess_ms: Vec<f64>,
}

/// One circuit behind the session API.
struct Direct {
    prover: ProverHandle,
    verifier: VerifierHandle,
    witness: Witness,
}

impl Direct {
    fn new(srs: Srs, circuit: Circuit, witness: Witness, backend: &Arc<dyn Backend>) -> Self {
        let system = ProofSystem::setup_with_backend(srs, Arc::clone(backend));
        let (prover, verifier) = system
            .preprocess(circuit)
            .expect("the SRS was sized for this circuit");
        Self {
            prover,
            verifier,
            witness,
        }
    }
}

struct TcpSession {
    digest: [u8; 32],
    circuit: Circuit,
    witness: Witness,
    witness_bytes: Vec<u8>,
}

/// A loopback server with its sessions registered and its clients
/// connected. Clients are declared first so they close before the server
/// drains.
struct Tcp {
    clients: Vec<NetClient>,
    server: NetServer,
    srs: Arc<Srs>,
    sessions: Vec<TcpSession>,
}

enum Bench {
    Direct(Direct),
    Tcp(Tcp),
}

/// Samples and proofs of one closed-loop drive.
#[derive(Default)]
struct Driven {
    /// Every completed operation.
    samples: Vec<Sample>,
    /// `(session, canonical proof bytes)` per completed operation.
    proofs: Vec<(usize, Vec<u8>)>,
    /// Per traced direct proof: the span, the five steps, the remainder.
    steps: Vec<[f64; 7]>,
    /// Time spent in `NetClient::submit`, per job.
    submit_ms: Vec<f64>,
    /// When the drive began.
    began: Option<Instant>,
    attempted: usize,
    failed: usize,
    wall_s: f64,
    cpu_s: f64,
}

/// One completed operation: when it began, how long it took, whether spans
/// were recorded around it.
#[derive(Copy, Clone)]
struct Sample {
    began: Instant,
    ms: f64,
    traced: bool,
}

struct Checked {
    /// `(began, ms)` per verification.
    verifies: Vec<(Instant, f64)>,
    failed: usize,
    proof_bytes: usize,
    proof_sha3: String,
}

impl Bench {
    /// Everything between process start and readiness for the first
    /// operation: circuit build, SRS setup, preprocessing, and for TCP the
    /// service boot, bind, connects and wire registration.
    fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        backend: &Arc<dyn Backend>,
        times: &mut SetupTimes,
    ) -> Bench {
        if times.began.is_empty() {
            pace::tick(QUANTA);
        }
        let start = Instant::now();
        times.began.push(start);
        let mut inputs = generate(workload, scale, seed);
        times.circuit_build_ms.push(millis(start.elapsed()));
        let srs_start = Instant::now();
        let srs = layers::srs_setup(inputs.num_vars, &mut inputs.rng, &**backend);
        times.srs_s.push(srs_start.elapsed().as_secs_f64());
        let bench = if workload == Workload::Svc10Tcp {
            let srs = Arc::new(srs);
            let service = ProvingService::start(Arc::clone(&srs), service_config());
            let server = NetServer::bind(
                service,
                ServerConfig::new("127.0.0.1:0").with_auth_token(AUTH_TOKEN),
            )
            .expect("an ephemeral loopback port binds");
            let mut clients: Vec<NetClient> = (0..CLIENTS)
                .map(|_| {
                    NetClient::connect(server.local_addr(), AUTH_TOKEN, ClientConfig::default())
                        .expect("the loopback server accepts its own token")
                })
                .collect();
            let preprocess_start = Instant::now();
            let sessions = inputs
                .sessions
                .into_iter()
                .map(|(circuit, witness)| {
                    let (digest, _) = clients[0]
                        .register_circuit(&circuit.to_bytes())
                        .expect("the session fits the SRS it was sized for");
                    TcpSession {
                        digest,
                        witness_bytes: witness.to_bytes(),
                        circuit,
                        witness,
                    }
                })
                .collect();
            times
                .preprocess_ms
                .push(millis(preprocess_start.elapsed()) / SESSIONS as f64);
            Bench::Tcp(Tcp {
                clients,
                server,
                srs,
                sessions,
            })
        } else {
            let (circuit, witness) = inputs.sessions.pop().expect("one session");
            let preprocess_start = Instant::now();
            let direct = Direct::new(srs, circuit, witness, backend);
            times.preprocess_ms.push(millis(preprocess_start.elapsed()));
            Bench::Direct(direct)
        };
        times.total_s.push(start.elapsed().as_secs_f64());
        pace::tick(QUANTA);
        bench
    }

    /// Sets up at least `reps` times, and on until `seconds` have gone into
    /// set-ups, dropping each set-up before the next; keeps the last.
    fn setup_repeated(
        workload: Workload,
        scale: Scale,
        seed: u64,
        backend: &Arc<dyn Backend>,
        reps: usize,
        seconds: f64,
    ) -> (Bench, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut bench = Bench::setup(workload, scale, seed, backend, &mut times);
        while times.total_s.len() < reps
            || (times.total_s.iter().sum::<f64>() < seconds && times.total_s.len() < SETUP_MAX_REPS)
        {
            drop(bench);
            bench = Bench::setup(workload, scale, seed, backend, &mut times);
        }
        (bench, times)
    }

    /// Runs the closed loop. With a sink, every second operation is traced:
    /// spans are opened around the calls, the program is not told.
    fn drive(&mut self, budget: Budget, rec: Option<&TraceSink>) -> Driven {
        let cpu = host::cpu_seconds();
        let start = Instant::now();
        let mut driven = match self {
            Bench::Direct(direct) => drive_direct(direct, budget, rec),
            Bench::Tcp(tcp) => drive_tcp(tcp, budget, rec),
        };
        driven.wall_s = start.elapsed().as_secs_f64();
        driven.cpu_s = host::cpu_seconds() - cpu;
        driven.began = Some(start);
        driven
    }

    /// One `Direct` per session, for verification and as the reference the
    /// wire proofs must equal.
    fn directs(self, backend: &Arc<dyn Backend>) -> (Vec<Direct>, Option<Tcp>) {
        match self {
            Bench::Direct(direct) => (vec![direct], None),
            Bench::Tcp(tcp) => {
                let directs = tcp
                    .sessions
                    .iter()
                    .map(|s| {
                        Direct::new(
                            (*tcp.srs).clone(),
                            s.circuit.clone(),
                            s.witness.clone(),
                            backend,
                        )
                    })
                    .collect();
                (directs, Some(tcp))
            }
        }
    }
}

fn drive_direct(direct: &Direct, budget: Budget, rec: Option<&TraceSink>) -> Driven {
    let mut driven = Driven::default();
    let mut proofs: Vec<Proof> = Vec::new();
    let start = Instant::now();
    while driven.attempted < budget.max_ops && start.elapsed().as_secs_f64() < budget.seconds {
        let op = driven.attempted;
        driven.attempted += 1;
        pace::tick(QUANTA);
        let traced = rec.filter(|_| op % 2 == 1);
        let began = Instant::now();
        let result = match traced {
            None => direct.prover.prove(&direct.witness),
            Some(sink) => {
                let op = next_op();
                let _span = sink.span_with("proof", "zkspeed", &[("op", op)]);
                let result = direct.prover.prove_with_report(&direct.witness);
                let total = millis(began.elapsed());
                result.map(|(proof, report)| {
                    // The steps are known only now, so each is recorded as
                    // a span of its true length that ends here; what the
                    // five leave of the call is the witness check.
                    let mut row = [0.0; 7];
                    row[0] = total;
                    for (i, name) in STEP_SPANS.iter().enumerate() {
                        let step = Duration::from_secs_f64(report.step_seconds[i]);
                        sink.record_complete(name, "hyperplonk", step, &child_args(op));
                        row[1 + i] = millis(step);
                    }
                    row[6] = total - row[1..6].iter().sum::<f64>();
                    driven.steps.push(row);
                    proof
                })
            }
        };
        let elapsed = began.elapsed();
        match result {
            Ok(proof) => {
                driven.samples.push(Sample {
                    began,
                    ms: millis(elapsed),
                    traced: traced.is_some(),
                });
                proofs.push(proof);
            }
            Err(_) => driven.failed += 1,
        }
    }
    pace::tick(QUANTA);
    driven.proofs = proofs.iter().map(|p| (0, p.to_bytes())).collect();
    driven
}

const STEP_SPANS: [&str; 5] = [
    "hyperplonk.witness_commit",
    "hyperplonk.gate_identity",
    "hyperplonk.wire_identity",
    "hyperplonk.batch_eval",
    "hyperplonk.poly_open",
];

fn drive_tcp(tcp: &mut Tcp, budget: Budget, rec: Option<&TraceSink>) -> Driven {
    let sessions = &tcp.sessions;
    let per_client = Budget {
        seconds: budget.seconds,
        max_ops: budget.max_ops.div_ceil(CLIENTS),
    };
    let parts: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = tcp
            .clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                scope.spawn(move || client_loop(client, id, sessions, per_client, WINDOW, rec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client loop does not panic"))
            .collect()
    });
    let mut driven = Driven::default();
    for part in parts {
        driven.samples.extend(part.samples);
        driven.proofs.extend(part.proofs);
        driven.submit_ms.extend(part.submit_ms);
        driven.attempted += part.attempted;
        driven.failed += part.failed;
    }
    driven
}

/// One connection keeping up to `window` jobs in flight, collecting them
/// oldest first. A job's latency runs from the `submit` call to the
/// `ProofReady` answer, as this client sees it.
fn client_loop(
    client: &mut NetClient,
    id: usize,
    sessions: &[TcpSession],
    budget: Budget,
    window: usize,
    rec: Option<&TraceSink>,
) -> Driven {
    let start = Instant::now();
    let mut driven = Driven::default();
    let mut in_flight = VecDeque::new();
    let mut accepting = true;
    loop {
        while accepting
            && in_flight.len() < window
            && driven.attempted < budget.max_ops
            && start.elapsed().as_secs_f64() < budget.seconds
        {
            let op = driven.attempted;
            driven.attempted += 1;
            let session = (id + op) % sessions.len();
            // A traced job: the sink and the identifier its spans share.
            let traced = rec.filter(|_| op % 2 == 1).map(|sink| (sink, next_op()));
            let submit_span =
                traced.map(|(sink, op)| sink.span_with("net.submit", "net", &child_args(op)));
            let began = Instant::now();
            let submitted = client.submit(
                sessions[session].digest,
                Priority::Normal,
                &sessions[session].witness_bytes,
            );
            driven.submit_ms.push(millis(began.elapsed()));
            drop(submit_span);
            match submitted {
                Ok(job) => in_flight.push_back((job, session, began, traced)),
                Err(_) => {
                    // A refused job is a failure; stop offering load.
                    driven.failed += 1;
                    accepting = false;
                }
            }
        }
        let Some((job, session, began, traced)) = in_flight.pop_front() else {
            return driven;
        };
        let wait_span = traced.map(|(sink, op)| sink.span_with("net.wait", "net", &child_args(op)));
        let waited = client.wait(job, JOB_TIMEOUT);
        let elapsed = began.elapsed();
        drop(wait_span);
        if let Some((sink, op)) = traced {
            // The job ends now and began at its `submit` call.
            sink.record_complete("job", "zkspeed", elapsed, &[("op", op)]);
        }
        match waited {
            Ok(proof) => {
                driven.samples.push(Sample {
                    began,
                    ms: millis(elapsed),
                    traced: traced.is_some(),
                });
                driven.proofs.push((session, proof));
            }
            Err(_) => driven.failed += 1,
        }
        pace::tick(CLIENT_QUANTA);
    }
}

/// The correctness gate: every proof decodes and verifies against its
/// session's key, proofs of one session are byte-identical, and a proof
/// that crossed the wire equals a direct `ProverHandle::prove` of the same
/// input. Each proof that breaks any of these counts once.
///
/// Verification is then repeated over the same proofs until `verify_seconds`
/// have gone into it, for the latency's sake only.
fn check(
    proofs: &[(usize, Vec<u8>)],
    directs: &[Direct],
    over_wire: bool,
    verify_seconds: f64,
) -> Checked {
    let references: Vec<Option<Vec<u8>>> = directs
        .iter()
        .map(|d| {
            over_wire
                .then(|| d.prover.prove(&d.witness).ok().map(|p| p.to_bytes()))
                .flatten()
        })
        .collect();
    let mut first: Vec<Option<&[u8]>> = vec![None; directs.len()];
    let mut checked = Checked {
        verifies: Vec::with_capacity(proofs.len()),
        failed: 0,
        proof_bytes: proofs.first().map_or(0, |(_, b)| b.len()),
        proof_sha3: proofs
            .first()
            .map_or_else(String::new, |(_, b)| hex(&Sha3_256::digest(b))),
    };
    pace::tick(QUANTA);
    let mut decoded = Vec::with_capacity(proofs.len());
    for (session, bytes) in proofs {
        let same_as_first = *first[*session].get_or_insert(bytes.as_slice()) == bytes.as_slice();
        let same_as_direct = !over_wire || references[*session].as_ref() == Some(bytes);
        let verified = Proof::from_bytes(bytes).is_ok_and(|proof| {
            let result = checked.verify(&directs[*session].verifier, &proof);
            decoded.push((*session, proof));
            result
        });
        if !(verified && same_as_first && same_as_direct) {
            checked.failed += 1;
        }
    }
    let spent_ms = |checked: &Checked| checked.verifies.iter().map(|(_, ms)| ms).sum::<f64>();
    for (session, proof) in decoded.iter().cycle() {
        if spent_ms(&checked) >= verify_seconds * 1e3 {
            break;
        }
        checked.verify(&directs[*session].verifier, proof);
    }
    pace::tick(QUANTA);
    checked
}

impl Checked {
    /// Times one verification, ticking every [`VERIFIES_PER_TICK`].
    fn verify(&mut self, verifier: &VerifierHandle, proof: &Proof) -> bool {
        if self.verifies.len() % VERIFIES_PER_TICK == VERIFIES_PER_TICK - 1 {
            pace::tick(QUANTA);
        }
        let began = Instant::now();
        let result = verifier.verify(proof);
        self.verifies.push((began, millis(began.elapsed())));
        result.is_ok()
    }
}

fn all_latencies(driven: &Driven) -> Vec<f64> {
    driven.samples.iter().map(|s| s.ms).collect()
}

fn latencies(driven: &Driven, traced: bool) -> Vec<f64> {
    driven
        .samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.ms)
        .collect()
}

/// One untimed operation per session before the timed region; the first
/// is the cold one.
fn warm_up(bench: &mut Bench) -> Driven {
    let warm = |max_ops| Budget {
        seconds: f64::INFINITY,
        max_ops,
    };
    match bench {
        Bench::Direct(direct) => drive_direct(direct, warm(1), None),
        // One client, one job at a time, one job per session.
        Bench::Tcp(tcp) => client_loop(
            &mut tcp.clients[0],
            0,
            &tcp.sessions,
            warm(SESSIONS),
            1,
            None,
        ),
    }
}

fn sample_detail(
    workload: Workload,
    scale: Scale,
    seed: u64,
    checked: &Checked,
) -> Vec<(String, JsonValue)> {
    vec![
        (
            "proof_sha3".into(),
            JsonValue::Str(checked.proof_sha3.clone()),
        ),
        (
            "input_digest".into(),
            JsonValue::Str(input_digest(workload, scale, seed)),
        ),
    ]
}

/// The timed pass: tracing off, end-to-end metrics.
///
/// # Panics
///
/// Panics when no operation of the timed region completes: the workloads
/// are chosen so that none fails, and there is nothing to report then.
pub fn end_to_end(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
    pinned: bool,
) -> Report {
    let backend: Arc<dyn Backend> = Arc::new(ThreadPool::new(THREADS));
    let (reps, setup_seconds, verify_seconds) = match scale {
        Scale::Full => (SETUP_REPS, SETUP_SECONDS, VERIFY_SECONDS),
        Scale::Smoke => (1, 0.0, 0.0),
    };
    // One reference clock for the run; every time reported is read off it.
    // A direct workload ticks on its proving thread. The clients of
    // `svc10-tcp` tick on the core of the server's proving thread only when
    // the process is held to one CPU; otherwise, and in a smoke run, nothing
    // is recorded and the times stay as measured.
    if scale == Scale::Full && (pinned || workload != Workload::Svc10Tcp) {
        pace::record();
    }
    let (mut bench, setup) =
        Bench::setup_repeated(workload, scale, seed, &backend, reps, setup_seconds);
    let warm = warm_up(&mut bench);
    let driven = bench.drive(budget, None);
    // Before the harness verifies and proves its references: their memory
    // is not the program's.
    let peak_rss_mib = host::peak_rss_mib();
    // Verification comes after the timed region and is not part of it.
    let (directs, tcp) = bench.directs(&backend);
    let checked = check(&driven.proofs, &directs, tcp.is_some(), verify_seconds);
    drop(tcp);
    assert!(
        !driven.proofs.is_empty(),
        "{}: no operation completed",
        workload.name()
    );

    let clock = pace::stop();
    let paced_ms = |began: Instant, ms: f64| clock.seconds(began, ms / 1e3) * 1e3;
    let region_began = driven.began.expect("`drive` stamps its start");
    let paced_region_s = clock.seconds(region_began, driven.wall_s);
    let verified = driven.proofs.len() - checked.failed;
    let as_measured = [
        ("setup_s", median(&setup.total_s)),
        ("proof_ms_p50", median(&all_latencies(&driven))),
        ("proofs_per_s", verified as f64 / driven.wall_s),
        ("cpu_s_per_proof", driven.cpu_s / driven.proofs.len() as f64),
        (
            "verify_ms_p50",
            median(
                &checked
                    .verifies
                    .iter()
                    .map(|(_, ms)| *ms)
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    let setups_s: Vec<f64> = setup
        .began
        .iter()
        .zip(&setup.total_s)
        .map(|(began, s)| clock.seconds(*began, *s))
        .collect();
    let proof_ms: Vec<f64> = driven
        .samples
        .iter()
        .map(|s| paced_ms(s.began, s.ms))
        .collect();
    let verify_ms: Vec<f64> = checked
        .verifies
        .iter()
        .map(|(began, ms)| paced_ms(*began, *ms))
        .collect();
    let metrics = vec![
        ("setup_s", median(&setups_s)),
        ("proof_ms_p50", median(&proof_ms)),
        ("proofs_per_s", verified as f64 / paced_region_s),
        // CPU time accrues evenly over the region (the proving thread is
        // never idle), so it is paced as the region's wall time is.
        (
            "cpu_s_per_proof",
            driven.cpu_s * (paced_region_s / driven.wall_s) / driven.proofs.len() as f64,
        ),
        ("verify_ms_p50", median(&verify_ms)),
        ("proof_bytes", checked.proof_bytes as f64),
        ("peak_rss_mib", peak_rss_mib),
    ];
    let mut detail = sample_detail(workload, scale, seed, &checked);
    detail.push(("speed".into(), JsonValue::Float(clock.median_speed())));
    detail.push((
        "as_measured".into(),
        JsonValue::Object(
            as_measured
                .iter()
                .map(|&(name, value)| (name.to_string(), JsonValue::Float(value)))
                .collect(),
        ),
    ));
    detail.push(("samples".into(), JsonValue::UInt(proof_ms.len() as u64)));
    detail.push((
        "setup_samples".into(),
        JsonValue::UInt(setup.total_s.len() as u64),
    ));
    detail.push((
        "verify_samples".into(),
        JsonValue::UInt(verify_ms.len() as u64),
    ));
    Report {
        metrics,
        attempted: driven.attempted + warm.attempted,
        failed: driven.failed + warm.failed + checked.failed,
        detail,
    }
}

/// The traced pass: per-layer metrics, and a Chrome trace written to
/// `trace_path`.
///
/// # Panics
///
/// Panics when no operation completes, as [`end_to_end`] does.
pub fn traced(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
    trace_path: &std::path::Path,
) -> Report {
    let backend: Arc<dyn Backend> = Arc::new(ThreadPool::new(THREADS));
    let rec = TraceSink::enabled();
    let reps = if scale == Scale::Full { SETUP_REPS } else { 1 };
    let (mut bench, setup) = Bench::setup_repeated(workload, scale, seed, &backend, reps, 0.0);
    let warm = warm_up(&mut bench);
    let driven = bench.drive(budget, Some(&rec));
    assert!(
        !driven.proofs.is_empty() && !warm.samples.is_empty(),
        "{}: no operation completed",
        workload.name()
    );
    let service_metrics = match &bench {
        Bench::Tcp(tcp) => Some(tcp.server.service().metrics()),
        Bench::Direct(_) => None,
    };
    let (directs, mut tcp) = bench.directs(&backend);
    let checked = check(&driven.proofs, &directs, tcp.is_some(), 0.0);
    let mut attempted = driven.attempted + warm.attempted;
    let mut failed = driven.failed + warm.failed + checked.failed;

    let mut metrics: Vec<Metric> = vec![
        ("pcs.srs_setup_s", median(&setup.srs_s)),
        (
            "hyperplonk.circuit_build_ms",
            median(&setup.circuit_build_ms),
        ),
        ("hyperplonk.preprocess_ms", median(&setup.preprocess_ms)),
        ("hyperplonk.first_proof_ms", warm.samples[0].ms),
    ];
    let all = all_latencies(&driven);
    let tail = tail_percentile(all.len());
    metrics.push(("proof_ms_tail", percentile(&all, tail.unwrap_or(50))));
    metrics.push(("proof_tail_pct", f64::from(tail.unwrap_or(50))));
    let (untraced, with_trace) = (latencies(&driven, false), latencies(&driven, true));
    let overhead = if untraced.is_empty() || with_trace.is_empty() {
        0.0
    } else {
        (median(&with_trace) / median(&untraced) - 1.0) * 100.0
    };
    metrics.push(("trace_overhead_pct", overhead));

    // Counts of one proof; they repeat exactly.
    let direct = &directs[0];
    let mut counted = None;
    let (fr_muls, fq_muls) = layers::count_modmuls(|| {
        counted = direct.prover.prove_with_report(&direct.witness).ok();
    });
    let (proof, report) = counted.expect("the witness proved during the run");
    metrics.push(("field.fr_muls_per_proof", fr_muls as f64));
    metrics.push(("field.fq_muls_per_proof", fq_muls as f64));
    metrics.push((
        "transcript.hashes_per_proof",
        report.transcript_hashes as f64,
    ));
    let msm_fq_muls = report.witness_msm.ops.fq_muls()
        + report.wiring_msm.fq_muls()
        + report.opening_msm.fq_muls();
    metrics.push(("hyperplonk.msm_fq_muls_per_proof", msm_fq_muls as f64));

    // The prover's steps come from the traced proofs of the run; on TCP,
    // from the direct proofs the service probes interleave with their jobs.
    let probed;
    let stepped = match (tcp.as_mut(), service_metrics) {
        (Some(tcp), Some(loaded)) => {
            let rounds = budget.max_ops.min(PROBE_OPS);
            let (service, direct_proofs) = service_probes(
                tcp,
                direct,
                &loaded,
                median(&driven.submit_ms),
                &proof,
                rounds,
                &rec,
            );
            metrics.extend(service);
            probed = direct_proofs;
            attempted += probed.attempted;
            failed += probed.failed;
            &probed
        }
        // `svc` and `net` do no work on the direct workloads: zero there.
        _ => {
            metrics.extend(SERVICE_METRICS.map(|name| (name, 0.0)));
            &driven
        }
    };
    let column = |i: usize| -> f64 {
        let values: Vec<f64> = stepped.steps.iter().map(|row| row[i]).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    for (i, name) in [
        "hyperplonk.prove_ms",
        "hyperplonk.witness_commit_ms",
        "hyperplonk.gate_identity_ms",
        "hyperplonk.wire_identity_ms",
        "hyperplonk.batch_eval_ms",
        "hyperplonk.poly_open_ms",
        "hyperplonk.unattributed_ms",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.push((name, column(i)));
    }

    let wide: Arc<dyn Backend> = Arc::new(ThreadPool::new(WIDE_THREADS));
    let widened = wide_proofs(direct, &wide, &proof.to_bytes(), &rec);
    metrics.push(("hyperplonk.prove_2t_ms", median(&all_latencies(&widened))));
    attempted += widened.attempted;
    failed += widened.failed;

    let key = direct.prover.proving_key();
    metrics.extend(layers::ladder(
        &rec,
        &backend,
        &key.srs,
        &key.circuit,
        &direct.witness,
        &proof,
        seed,
    ));

    drop(tcp);

    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(trace_path, rec.chrome_trace_json()) {
        eprintln!("zkbench: could not write {}: {e}", trace_path.display());
    }
    let mut detail = sample_detail(workload, scale, seed, &checked);
    detail.push(("samples".into(), JsonValue::UInt(all.len() as u64)));
    detail.push((
        "traced_proofs".into(),
        JsonValue::UInt(stepped.steps.len() as u64),
    ));
    detail.push((
        "chrome_trace".into(),
        JsonValue::Str(trace_path.display().to_string()),
    ));
    Report {
        metrics,
        attempted,
        failed,
        detail,
    }
}

/// The workload's first session proved on a pool of [`WIDE_THREADS`]:
/// the timed runs prove on one thread, so this is where a change to
/// parallel efficiency shows. A proof whose bytes differ from the
/// one-thread `reference` counts as failed (proofs do not depend on the
/// thread count).
fn wide_proofs(
    direct: &Direct,
    wide: &Arc<dyn Backend>,
    reference: &[u8],
    rec: &TraceSink,
) -> Driven {
    let _span = rec.span_with("hyperplonk.prove_2t", "zkbench", &[("op", next_op())]);
    let key = direct.prover.proving_key();
    let twin = Direct::new(
        key.srs.clone(),
        key.circuit.clone(),
        direct.witness.clone(),
        wide,
    );
    let ops = |max_ops| Budget {
        seconds: f64::INFINITY,
        max_ops,
    };
    let warm = drive_direct(&twin, ops(1), None);
    let mut driven = drive_direct(&twin, ops(WIDE_PROOFS), None);
    driven.attempted += warm.attempted;
    driven.failed += warm.failed + driven.proofs.iter().filter(|(_, b)| b != reference).count();
    driven
}

const SERVICE_METRICS: [&str; 11] = [
    "svc.job_ms_p50",
    "svc.overhead_ms",
    "svc.register_ms",
    "svc.wave_mean_occupancy",
    "svc.queue_wait_ms_p50",
    "svc.rejected",
    "net.rtt_us",
    "net.submit_ms",
    "net.job_ms_p50",
    "net.overhead_ms",
    "net.wire_bytes_per_job",
];

/// The `svc` and `net` rungs of `svc10-tcp`, in [`SERVICE_METRICS`] order.
/// Each round sends session 0 down three paths one after the other — two
/// direct proofs, one job through a service in process, one job through
/// the now idle server over TCP — so the three see the same machine, and an
/// overhead is the median of the round-by-round differences. `loaded` is
/// the server's own report of the loaded run. Also returns the direct
/// proofs (and, in its counts, the TCP jobs).
fn service_probes(
    tcp: &mut Tcp,
    direct: &Direct,
    loaded: &ServiceMetrics,
    submit_ms: f64,
    proof: &Proof,
    rounds: usize,
    rec: &TraceSink,
) -> (Vec<Metric>, Driven) {
    let one = |max_ops| Budget {
        seconds: f64::INFINITY,
        max_ops,
    };
    let session = &tcp.sessions[0];
    let op = next_op();
    let root = rec.span_with("service-probes", "zkbench", &[("op", op)]);
    let (local, register_ms) = LocalService::start(
        rec,
        op,
        Arc::clone(&tcp.srs),
        service_config(),
        &session.circuit,
    );
    let mut direct_proofs = Driven::default();
    let (mut direct_ms, mut svc_ms, mut net_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let pair = drive_direct(direct, one(2), Some(rec));
        let lone = client_loop(
            &mut tcp.clients[0],
            0,
            &tcp.sessions[..1],
            one(1),
            1,
            Some(rec),
        );
        direct_proofs.attempted += pair.attempted + lone.attempted;
        direct_proofs.failed += pair.failed + lone.failed;
        if let (false, Some(net)) = (pair.samples.is_empty(), lone.samples.first()) {
            direct_ms.push(median(&all_latencies(&pair)));
            svc_ms.push(local.job(rec, op, &session.witness));
            net_ms.push(net.ms);
        }
        direct_proofs.samples.extend(pair.samples);
        direct_proofs.steps.extend(pair.steps);
    }
    let rtt: Vec<f64> = (0..RTT_OPS)
        .filter_map(|_| {
            let _span = rec.span_with("net.rtt", "net", &child_args(op));
            let began = Instant::now();
            let answered = tcp.clients[0].sessions().is_ok();
            let elapsed = began.elapsed();
            answered.then_some(elapsed.as_secs_f64() * 1e6)
        })
        .collect();
    drop(root);
    let differences =
        |a: &[f64], b: &[f64]| median(&a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<_>>());
    let mut queue_wait = loaded.queue_waits[0].clone();
    queue_wait.merge(&loaded.queue_waits[1]);
    queue_wait.merge(&loaded.queue_waits[2]);
    let rejected = loaded.rejected_queue_full + loaded.rejected_invalid + loaded.rejected_draining;
    let wire_bytes = Request::SubmitJob {
        circuit: session.digest,
        priority: Priority::Normal,
        deadline_ms: 0,
        witness: session.witness_bytes.clone(),
    }
    .to_frame()
    .len()
        + Response::ProofReady {
            job: 0,
            proof: proof.to_bytes(),
        }
        .to_frame()
        .len();
    let values = [
        median(&svc_ms),
        differences(&svc_ms, &direct_ms),
        register_ms,
        loaded.mean_wave_occupancy,
        queue_wait.quantile(0.5),
        rejected as f64,
        median(&rtt),
        submit_ms,
        median(&net_ms),
        differences(&net_ms, &svc_ms),
        wire_bytes as f64,
    ];
    (
        SERVICE_METRICS.into_iter().zip(values).collect(),
        direct_proofs,
    )
}
