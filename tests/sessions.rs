//! End-to-end tests of the fleet-scale session lifecycle (ISSUE 9):
//! multi-μ sessions sharing one SRS through prefix views, LRU eviction
//! under a session capacity below the fleet size, transparent
//! re-provisioning, proof-cache correctness (byte-identity, boundedness,
//! collision-freedom, wire-visible hits) and deterministic p99-driven
//! shard rebalancing.

use std::sync::Arc;

use zkspeed::field::Fr;
use zkspeed::poly::MultilinearPoly;
use zkspeed::prelude::*;
use zkspeed::svc::{RejectCode, Request, Response, SessionState};
use zkspeed_hyperplonk::{mock_circuit, Circuit, GateSelectors, SparsityProfile, Witness};

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

#[test]
fn mixed_mu_fleet_shares_one_srs_with_eviction_below_fleet_size() {
    // Four sessions at three different μ against ONE shared μ=8 SRS, with
    // an active-session capacity of two — eviction is always live. Every
    // session still proves, the evicted ones after a transparent
    // re-registration, and re-provisioned proofs are byte-identical.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(2)
            .with_threads_per_shard(1)
            .with_wave_size(2)
            .with_session_capacity(2),
    );
    let instances = [mock(2, 1), mock(4, 2), mock(6, 3), mock(8, 4)];
    let mut digests = Vec::new();
    for (circuit, _) in &instances {
        digests.push(svc.register_circuit(circuit.clone()).expect("fits μ=8"));
    }
    let m = svc.metrics();
    assert_eq!(m.sessions_registered, 4, "evicted sessions stay known");
    assert_eq!(m.lifecycle.active, 2, "capacity bounds the active set");
    assert_eq!(m.lifecycle.evicted, 2);
    assert_eq!(m.lifecycle.evictions, 2);
    assert_eq!(m.lifecycle.capacity, 2);

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
            .and_then(|s| s.state),
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
    // Satellite (a): the metrics union-merge must keep latency and
    // table-byte rows for sessions the store has evicted.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_session_capacity(1),
    );
    let (c1, w1) = mock(3, 10);
    let d1 = svc.register_circuit(c1).expect("fits");
    let job = svc.submit(&d1, w1, Priority::Normal).expect("accepts");
    svc.wait(job).expect("proves");
    // Second registration evicts the first session.
    let (c2, _) = mock(4, 11);
    svc.register_circuit(c2).expect("fits");
    let m = svc.metrics();
    let row = m
        .sessions
        .iter()
        .find(|s| s.digest == d1)
        .expect("evicted session keeps its metrics row");
    assert_eq!(row.state, Some(SessionState::Evicted));
    assert_eq!(row.jobs_completed, 1, "history survives eviction");
    assert!(row.p99_ms > 0.0, "latency window survives eviction");
    assert_eq!(row.resident_bytes, 0, "no longer resident");
    let json = m.to_json().pretty();
    assert!(json.contains("\"session_lifecycle\""));
    assert!(json.contains("\"evicted\""));
}

#[test]
fn proof_cache_hits_are_byte_identical_and_wire_visible() {
    let cached = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_proof_cache_bytes(1 << 20),
    );
    let (circuit, witness) = mock(4, 20);
    let digest = cached.register_circuit(circuit.clone()).expect("fits");
    let first = {
        let job = cached
            .submit(&digest, witness.clone(), Priority::Normal)
            .expect("accepts");
        cached.wait(job).expect("proves")
    };
    // Identical resubmission: answered from the cache without proving.
    let job = cached
        .submit(&digest, witness.clone(), Priority::Normal)
        .expect("accepts");
    let second = cached.wait(job).expect("cache hit resolves");
    assert_eq!(first, second, "cached proof is byte-identical");
    let m = cached.metrics();
    assert_eq!(m.completed, 1, "only one submission actually proved");
    assert_eq!(m.submitted, 2);
    assert_eq!(m.proof_cache.hits, 1);
    assert_eq!(m.proof_cache.misses, 1);
    assert_eq!(m.proof_cache.insertions, 1);
    assert!(m.proof_cache.bytes > 0);

    // A cache-off service proves the same witness to the same bytes: the
    // cache changes latency, never the proof.
    let fresh = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1),
    );
    let fresh_digest = fresh.register_circuit(circuit).expect("fits");
    let job = fresh
        .submit(&fresh_digest, witness, Priority::Normal)
        .expect("accepts");
    assert_eq!(
        fresh.wait(job).expect("proves"),
        first,
        "cached result equals a fresh prove"
    );
    assert_eq!(fresh.metrics().proof_cache.hits, 0, "cache off by default");

    // Hit counters are visible over the wire protocol.
    match cached.handle_request(Request::Metrics) {
        Response::Metrics { json } => {
            assert!(json.contains("\"proof_cache\""));
            assert!(json.contains("\"hits\": 1"));
        }
        other => panic!("expected Metrics, got {other:?}"),
    }
}

#[test]
fn proof_cache_cannot_collide_across_sessions() {
    // Two circuits satisfied by the SAME witness bytes (all-zero wires
    // satisfy both addition and multiplication identity-wired gates): the
    // cache key pairs circuit and witness digest, so each session gets its
    // own proof even though the witness digests are equal.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_proof_cache_bytes(1 << 20),
    );
    let gates = 1usize << 3;
    let add = Circuit::with_identity_wiring(&vec![GateSelectors::addition(); gates]);
    let mul = Circuit::with_identity_wiring(&vec![GateSelectors::multiplication(); gates]);
    let num_vars = add.num_vars();
    let zero_witness = || {
        Witness::new(
            MultilinearPoly::constant(Fr::zero(), num_vars),
            MultilinearPoly::constant(Fr::zero(), num_vars),
            MultilinearPoly::constant(Fr::zero(), num_vars),
        )
    };
    let d_add = svc.register_circuit(add).expect("fits");
    let d_mul = svc.register_circuit(mul).expect("fits");
    assert_ne!(d_add, d_mul);
    let prove = |digest: &[u8; 32]| {
        let job = svc
            .submit(digest, zero_witness(), Priority::Normal)
            .expect("accepts");
        svc.wait(job).expect("proves")
    };
    let p_add = prove(&d_add);
    let p_mul = prove(&d_mul);
    // Resubmissions hit their own session's entry.
    assert_eq!(prove(&d_add), p_add);
    assert_eq!(prove(&d_mul), p_mul);
    let m = svc.metrics();
    assert_eq!(m.proof_cache.hits, 2);
    assert_eq!(m.proof_cache.misses, 2);
    assert_eq!(m.completed, 2, "one real prove per session");
}

#[test]
fn proof_cache_stays_bounded_under_witness_churn() {
    // A cache sized for roughly one proof under a stream of distinct
    // witnesses: bytes never exceed the bound and old entries are evicted.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(1)
            .with_threads_per_shard(1)
            .with_proof_cache_bytes(8 << 10),
    );
    let gates = 1usize << 3;
    let circuit = Circuit::with_identity_wiring(&vec![GateSelectors::addition(); gates]);
    let num_vars = circuit.num_vars();
    let digest = svc.register_circuit(circuit).expect("fits");
    // Distinct satisfying witnesses for one addition circuit: any wires
    // with w3 = w1 + w2 satisfy identity wiring.
    let witness_for = |seed: u64| {
        let w1: Vec<Fr> = (0..gates as u64).map(|i| Fr::from_u64(seed + i)).collect();
        let w2: Vec<Fr> = (0..gates as u64)
            .map(|i| Fr::from_u64(7 * seed + i))
            .collect();
        let w3: Vec<Fr> = w1.iter().zip(&w2).map(|(a, b)| *a + *b).collect();
        Witness::new(
            MultilinearPoly::new(w1),
            MultilinearPoly::new(w2),
            MultilinearPoly::new(w3),
        )
    };
    assert_eq!(num_vars, 3);
    for seed in 0..6u64 {
        let job = svc
            .submit(&digest, witness_for(seed), Priority::Normal)
            .expect("accepts");
        svc.wait(job).expect("proves");
        let m = svc.metrics();
        assert!(
            m.proof_cache.bytes <= m.proof_cache.capacity_bytes,
            "cache over budget: {} > {}",
            m.proof_cache.bytes,
            m.proof_cache.capacity_bytes
        );
    }
    let m = svc.metrics();
    assert!(m.proof_cache.insertions >= 6);
    assert!(m.proof_cache.evictions > 0, "churn forced evictions");
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
            .with_session_capacity(1),
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
            assert_eq!(active, 1, "capacity 1 leaves one active");
            let row = sessions.iter().find(|s| s.digest == d1).expect("listed");
            assert_eq!(row.state, SessionState::Active);
            assert_eq!(row.jobs_completed, 1);
            assert!(row.resident_bytes > 0);
        }
        other => panic!("expected SessionList, got {other:?}"),
    }
}

#[test]
fn rebalance_moves_the_hot_session_off_the_slow_shard() {
    // Deterministic rebalance: two μ=7 sessions land on shard 0 (round
    // robin over 2 shards with 4 registrations), two μ=2 sessions on
    // shard 1. Proving load makes shard 0's p99 dwarf shard 1's, so one
    // pass moves a hot session across; queued work is unaffected and
    // future submissions follow the new assignment.
    let svc = ProvingService::start(
        shared_srs(),
        ServiceConfig::default()
            .with_shards(2)
            .with_threads_per_shard(1)
            .with_wave_size(2),
    );
    let slow = [mock(7, 50), mock(7, 51)];
    let fast = [mock(2, 52), mock(2, 53)];
    // Registration order interleaves so both slow sessions land on shard 0.
    let d_slow0 = svc.register_circuit(slow[0].0.clone()).expect("fits");
    let d_fast0 = svc.register_circuit(fast[0].0.clone()).expect("fits");
    let d_slow1 = svc.register_circuit(slow[1].0.clone()).expect("fits");
    let d_fast1 = svc.register_circuit(fast[1].0.clone()).expect("fits");
    for (digest, witness) in [
        (d_slow0, &slow[0].1),
        (d_slow1, &slow[1].1),
        (d_fast0, &fast[0].1),
        (d_fast1, &fast[1].1),
    ] {
        for _ in 0..3 {
            let job = svc
                .submit(&digest, witness.clone(), Priority::Normal)
                .expect("accepts");
            svc.wait(job).expect("proves");
        }
    }
    let shard_of = |digest: [u8; 32]| -> u32 {
        match svc.handle_request(Request::ListSessions) {
            Response::SessionList { sessions } => {
                sessions
                    .iter()
                    .find(|s| s.digest == digest)
                    .expect("listed")
                    .shard
            }
            other => panic!("expected SessionList, got {other:?}"),
        }
    };
    assert_eq!(shard_of(d_slow0), 0);
    assert_eq!(shard_of(d_slow1), 0);
    let moved = svc.rebalance_now();
    assert_eq!(moved, 1, "the overloaded shard sheds exactly one session");
    let m = svc.metrics();
    assert_eq!(m.rebalance.passes, 1);
    assert_eq!(m.rebalance.moves, 1);
    // One of the slow sessions now lives on shard 1; it still proves.
    let moved_digest = if shard_of(d_slow0) == 1 {
        d_slow0
    } else {
        d_slow1
    };
    assert_eq!(shard_of(moved_digest), 1);
    let witness = if moved_digest == d_slow0 {
        slow[0].1.clone()
    } else {
        slow[1].1.clone()
    };
    let job = svc
        .submit(&moved_digest, witness, Priority::Normal)
        .expect("accepts on its new shard");
    svc.wait(job).expect("proves after the move");
    // A balanced fleet is left alone.
    svc.rebalance_now();
    assert!(svc.metrics().rebalance.moves <= 2, "no thrashing");
}
