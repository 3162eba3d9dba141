//! End-to-end tests of the fleet-scale session lifecycle: multi-μ
//! sessions sharing one SRS through prefix views, LRU eviction under a
//! byte budget below the fleet's keys, transparent re-provisioning, and
//! the wire-visible session listing. Also pins that the two inert
//! `ServiceConfig` fields kept for struct literals change nothing.

use std::sync::Arc;
use std::time::Duration;

use zkspeed::prelude::*;
use zkspeed::svc::{RejectCode, Request, Response, SessionRow, SessionState};
use zkspeed_hyperplonk::{mock_circuit, Circuit, SparsityProfile, Witness};

/// One shared μ = 8 setup for every test in this file; sessions at μ 2..8
/// all preprocess against prefix views of it.
fn shared_srs() -> Arc<Srs> {
    use std::sync::OnceLock;
    static SRS: OnceLock<Arc<Srs>> = OnceLock::new();
    SRS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5e55_1085);
        Arc::new(Srs::try_setup(8, &mut rng, &Serial).expect("μ=8 setup fits"))
    })
    .clone()
}

fn mock(num_vars: usize, seed: u64) -> (Circuit, Witness) {
    let mut rng = StdRng::seed_from_u64(seed);
    mock_circuit(num_vars, SparsityProfile::paper_default(), &mut rng)
}

/// The resident bytes of a μ-variable session's proving key on a 64-bit
/// target: five `Fr` selector tables and three `usize` σ columns, 184 B a
/// gate.
fn key_bytes(num_vars: usize) -> u64 {
    184 << num_vars
}

#[test]
fn mixed_mu_fleet_shares_one_srs_with_eviction_below_fleet_size() {
    // Four sessions at four different μ against ONE shared μ=8 SRS, with
    // a byte budget that holds the two largest keys — eviction is always
    // live. Every session still proves, the evicted ones after a
    // transparent re-registration, and re-provisioned proofs are
    // byte-identical.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(2)
            .with_threads_per_shard(1)
            .with_wave_size(2)
            .with_session_byte_budget(key_bytes(6) + key_bytes(8)),
    );
    let instances = [mock(2, 1), mock(4, 2), mock(6, 3), mock(8, 4)];
    let mut digests = Vec::new();
    for (circuit, _) in &instances {
        digests.push(svc.register_circuit(circuit.clone()).expect("fits μ=8"));
    }
    let m = svc.metrics();
    assert_eq!(m.sessions_registered, 4, "evicted sessions stay known");
    assert_eq!(m.lifecycle.active, 2, "the budget bounds the active set");
    assert_eq!(m.lifecycle.evicted, 2);
    assert_eq!(m.lifecycle.evictions, 2);

    // The two most recently registered sessions are active; the first two
    // were LRU-evicted. Active sessions prove directly.
    let proof_mu8 = {
        let job = svc
            .submit(&digests[3], instances[3].1.clone(), Priority::Normal)
            .expect("active session accepts");
        svc.wait(job).expect("proves")
    };

    // An evicted session rejects submissions with the dedicated error, and
    // its verifying key survives eviction.
    assert_eq!(
        svc.submit(&digests[0], instances[0].1.clone(), Priority::Normal),
        Err(ServiceError::SessionEvicted)
    );
    assert!(svc.verifying_key(&digests[0]).is_some(), "vk retained");

    // Re-registering the same circuit transparently re-provisions; the
    // resubmitted job proves and the proof verifies.
    let again = svc
        .register_circuit(instances[0].0.clone())
        .expect("re-provision fits");
    assert_eq!(again, digests[0], "same bytes, same digest");
    let job = svc
        .submit(&digests[0], instances[0].1.clone(), Priority::Normal)
        .expect("re-provisioned session accepts");
    let proof_mu2 = svc.wait(job).expect("proves after re-provision");
    let system = ProofSystem::setup(shared_srs().as_ref().clone());
    let (_, verifier) = system.preprocess(instances[0].0.clone()).expect("fits μ=8");
    verifier
        .verify(&Proof::from_bytes(&proof_mu2).expect("decodes"))
        .expect("re-provisioned proof verifies");

    let m = svc.metrics();
    assert_eq!(m.lifecycle.reprovisions, 1);
    assert_eq!(m.lifecycle.rejected_evicted, 1);
    assert!(
        m.lifecycle.evictions >= 3,
        "re-provision evicted an LRU peer"
    );
    // Each active session is charged its key's real size.
    let resident = |digest: [u8; 32]| {
        let row = m.sessions.iter().find(|s| s.digest == digest);
        row.map(|s| s.resident_bytes).expect("listed")
    };
    assert_eq!([resident(digests[0]), resident(digests[3])], [736, 47_104]);

    // Proofs of a re-provisioned session are byte-identical to pre-eviction
    // proofs: evict μ=8's session by touring the others, re-provision it,
    // reprove the same witness.
    for (circuit, _) in instances.iter().take(3) {
        svc.register_circuit(circuit.clone()).expect("fits");
    }
    assert_eq!(
        svc.metrics()
            .sessions
            .iter()
            .find(|s| s.digest == digests[3])
            .map(|s| s.state),
        Some(SessionState::Evicted),
        "μ=8 session was toured out"
    );
    svc.register_circuit(instances[3].0.clone()).expect("fits");
    let job = svc
        .submit(&digests[3], instances[3].1.clone(), Priority::Normal)
        .expect("accepts");
    assert_eq!(
        svc.wait(job).expect("proves"),
        proof_mu8,
        "re-provisioned proofs are byte-identical"
    );
}

#[test]
fn evicted_session_rows_keep_their_history_in_metrics() {
    // The store owns each session's row: latency history survives
    // eviction and re-provisioning, and the metrics scrape and
    // `ListSessions` read the same rows.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_session_byte_budget(1),
    );
    let (c1, w1) = mock(3, 10);
    let d1 = svc.register_circuit(c1.clone()).expect("fits");
    let prove = || {
        let job = svc.submit(&d1, w1.clone(), Priority::Normal);
        svc.wait(job.expect("accepts")).expect("proves")
    };
    prove();
    // Second registration evicts the first session.
    let (c2, _) = mock(4, 11);
    svc.register_circuit(c2).expect("fits");
    let m = svc.metrics();
    let row = m
        .sessions
        .iter()
        .find(|s| s.digest == d1)
        .expect("evicted session keeps its metrics row");
    assert_eq!(row.state, SessionState::Evicted);
    assert_eq!(row.jobs_completed, 1, "history survives eviction");
    assert!(row.p99_ms > 0.0, "latency window survives eviction");
    assert_eq!(row.resident_bytes, 0, "no longer resident");
    let json = m.to_json().pretty();
    assert!(json.contains("\"session_lifecycle\""));
    assert!(json.contains("\"evicted\""));

    // Re-provisioned, the session proves again on top of its history.
    svc.register_circuit(c1).expect("re-provisions");
    prove();
    let m = svc.metrics();
    let Response::SessionList { sessions } = svc.handle_request(Request::ListSessions) else {
        panic!("expected SessionList");
    };
    let rows: Vec<SessionRow> = m
        .sessions
        .iter()
        .map(|s| SessionRow {
            digest: s.digest,
            num_vars: s.num_vars as u32,
            state: s.state,
            shard: s.shard as u32,
            resident_bytes: s.resident_bytes,
            jobs_completed: s.jobs_completed,
        })
        .collect();
    assert_eq!(sessions, rows, "ListSessions rows equal the metrics rows");
    let row = m.sessions.iter().find(|s| s.digest == d1).expect("row");
    assert_eq!((row.state, row.jobs_completed), (SessionState::Active, 2));
}

#[test]
fn eviction_lifecycle_is_wire_visible_and_recoverable() {
    // The full lifecycle over the wire protocol: register → evict →
    // SubmitJob rejected with the non-retryable SessionEvicted code →
    // SubmitCircuit with the same bytes → SubmitJob accepted.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_session_byte_budget(1),
    );
    let (c1, w1) = mock(3, 40);
    let (c2, _) = mock(4, 41);
    let c1_bytes = c1.to_bytes();
    let d1 = match svc.handle_request(Request::SubmitCircuit {
        circuit: c1_bytes.clone(),
    }) {
        Response::CircuitRegistered { digest, .. } => digest,
        other => panic!("expected CircuitRegistered, got {other:?}"),
    };
    svc.register_circuit(c2).expect("fits"); // evicts c1
    let submit = Request::SubmitJob {
        circuit: d1,
        priority: Priority::Normal,
        deadline_ms: 0,
        witness: w1.to_bytes(),
    };
    match svc.handle_request(submit.clone()) {
        Response::Rejected { code, .. } => {
            assert_eq!(code, RejectCode::SessionEvicted);
            assert!(!code.is_retryable(), "re-registration is required first");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    match svc.handle_request(Request::SubmitCircuit { circuit: c1_bytes }) {
        Response::CircuitRegistered { digest, .. } => assert_eq!(digest, d1),
        other => panic!("expected CircuitRegistered, got {other:?}"),
    }
    match svc.handle_request(submit) {
        Response::JobAccepted { job } => {
            svc.wait(job).expect("proves after wire re-provision");
        }
        other => panic!("expected JobAccepted, got {other:?}"),
    }

    // ListSessions reports both sessions with their states.
    match svc.handle_request(Request::ListSessions) {
        Response::SessionList { sessions } => {
            assert_eq!(sessions.len(), 2);
            let active = sessions
                .iter()
                .filter(|s| s.state == SessionState::Active)
                .count();
            assert_eq!(active, 1, "a budget of 1 leaves one active");
            let row = sessions.iter().find(|s| s.digest == d1).expect("listed");
            assert_eq!(row.state, SessionState::Active);
            assert_eq!(row.jobs_completed, 1);
            assert!(row.resident_bytes > 0);
        }
        other => panic!("expected SessionList, got {other:?}"),
    }
}

/// Every session's `(digest, shard)` as `ListSessions` reports it.
fn session_shards(svc: &ProvingService) -> Vec<([u8; 32], u32)> {
    match svc.handle_request(Request::ListSessions) {
        Response::SessionList { sessions } => {
            sessions.iter().map(|row| (row.digest, row.shard)).collect()
        }
        other => panic!("expected SessionList, got {other:?}"),
    }
}

/// A two-shard service started from the struct-literal form the benchmark
/// uses, with both inert fields set to values that once turned a proof
/// cache and a shard rebalancer on.
fn inert_fields_service() -> ProvingService {
    ProvingService::start(
        shared_srs(),
        ServiceConfig {
            shards: 2,
            threads_per_shard: 1,
            proof_cache_bytes: 1 << 20,
            rebalance_interval: Some(Duration::from_millis(1)),
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn proof_cache_bytes_is_inert_and_resubmits_prove_byte_identical() {
    // With no cache, resubmitting one witness proves it again, and the
    // prover's determinism makes the two proofs byte-equal.
    let svc = inert_fields_service();
    let (circuit, witness) = mock(5, 60);
    let digest = svc.register_circuit(circuit).expect("fits");
    let prove = || {
        let job = svc
            .submit(&digest, witness.clone(), Priority::Normal)
            .expect("accepts");
        svc.wait(job).expect("proves")
    };
    let first = prove();
    let second = prove();
    assert_eq!(first, second, "the same witness proves to the same bytes");
    let m = svc.metrics();
    assert_eq!(m.submitted, 2);
    assert_eq!(m.completed, 2, "both submissions proved");
}

#[test]
fn rebalance_interval_is_inert_and_sessions_keep_their_shard() {
    // With no rebalancer, a hot session stays on its shard however long
    // the 1 ms interval has had to fire.
    let svc = inert_fields_service();
    let instances = [mock(5, 70), mock(2, 71), mock(3, 72)];
    let digests: Vec<[u8; 32]> = instances
        .iter()
        .map(|(circuit, _)| svc.register_circuit(circuit.clone()).expect("fits"))
        .collect();
    let shards_before = session_shards(&svc);
    for _ in 0..3 {
        let job = svc
            .submit(&digests[0], instances[0].1.clone(), Priority::Normal)
            .expect("accepts");
        svc.wait(job).expect("proves");
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(svc.metrics().completed, 3);
    assert_eq!(
        session_shards(&svc),
        shards_before,
        "no session changed shard"
    );
}
