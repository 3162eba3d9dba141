//! Tests of the `zkspeed-rt` runtime substrate as seen by the whole stack:
//! PRNG determinism (same seed → same stream, cross-thread independence) and
//! backend equivalence — the same seed under `Serial`, `ThreadPool(1)` and
//! `ThreadPool(8)` must produce bit-identical proof encodings and identical
//! modmul counters, for single proofs and for `prove_batch`.
//!
//! The ambient-configuration tests pin the worker count with
//! `zkspeed_rt::par::with_threads`, so they compare the true serial path
//! against a genuinely fanned-out run regardless of how `ZKSPEED_THREADS` is
//! set for the test process (the CI matrix runs them under both
//! `ZKSPEED_THREADS=1` and `ZKSPEED_THREADS=8`).

use std::sync::Arc;

use zkspeed::prelude::*;
use zkspeed_curve::{
    msm_precomputed_on, msm_with_config, naive_msm, sparse_msm, G1Affine, G1Projective, MsmConfig,
    MultiBaseTable, MULTI_BASE_DEFAULT_WINDOW_BITS,
};
use zkspeed_field::Fr;
use zkspeed_hyperplonk::mock_circuit;
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::par::with_threads;
use zkspeed_rt::Rng;
use zkspeed_sumcheck::{prove_zerocheck, round_polynomial};

// ---------------------------------------------------------------- PRNG ----

#[test]
fn prng_same_seed_reproduces_field_elements() {
    let mut a = StdRng::seed_from_u64(0xD5EE_D001);
    let mut b = StdRng::seed_from_u64(0xD5EE_D001);
    for _ in 0..50 {
        assert_eq!(Fr::random(&mut a), Fr::random(&mut b));
    }
    // And the streams are sensitive to the seed.
    let mut c = StdRng::seed_from_u64(0xD5EE_D002);
    let from_a: Vec<Fr> = (0..8).map(|_| Fr::random(&mut a)).collect();
    let from_c: Vec<Fr> = (0..8).map(|_| Fr::random(&mut c)).collect();
    assert_ne!(from_a, from_c);
}

#[test]
fn prng_streams_are_thread_independent() {
    // Each thread draws from its own seed; the streams must match a
    // single-threaded recomputation exactly (no hidden shared state) and be
    // pairwise distinct across seeds.
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..32).map(|_| rng.next_u64()).collect::<Vec<u64>>()
            })
        })
        .collect();
    let streams: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (seed, stream) in streams.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let expect: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        assert_eq!(stream, &expect, "seed {seed}");
    }
    for i in 0..streams.len() {
        for j in i + 1..streams.len() {
            assert_ne!(streams[i], streams[j], "seeds {i} and {j} collide");
        }
    }
}

#[test]
fn prng_uniform_helpers_are_deterministic() {
    let mut a = StdRng::seed_from_u64(77);
    let mut b = StdRng::seed_from_u64(77);
    for _ in 0..100 {
        let ra: u64 = a.gen_range(10..1_000_000);
        let rb: u64 = b.gen_range(10..1_000_000);
        assert_eq!(ra, rb);
        let fa: f64 = a.gen();
        let fb: f64 = b.gen();
        assert_eq!(fa.to_bits(), fb.to_bits());
    }
}

// ------------------------------------------- parallel-vs-serial: MSM ----

fn random_msm_instance(n: usize, seed: u64) -> (Vec<G1Affine>, Vec<Fr>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(&mut rng)).collect();
    let points = G1Projective::batch_to_affine(&proj);
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    (points, scalars)
}

#[test]
fn msm_parallel_matches_serial_bitwise() {
    let (points, scalars) = random_msm_instance(512, 0xD5EE_D010);
    let config = MsmConfig::default();
    let serial = with_threads(1, || msm_with_config(&points, &scalars, config));
    for threads in [2usize, 8] {
        let parallel = with_threads(threads, || msm_with_config(&points, &scalars, config));
        assert_eq!(parallel.0, serial.0, "{threads}-thread MSM result drifted");
        assert_eq!(parallel.1, serial.1, "{threads}-thread MSM stats drifted");
    }
}

#[test]
fn sparse_msm_parallel_matches_serial() {
    let (points, dense_scalars) = random_msm_instance(256, 0xD5EE_D011);
    let mut rng = StdRng::seed_from_u64(0xD5EE_D012);
    // Witness-style sparsity: mostly zeros and ones.
    let scalars: Vec<Fr> = dense_scalars
        .iter()
        .map(|v| {
            let roll: f64 = rng.gen();
            if roll < 0.45 {
                Fr::zero()
            } else if roll < 0.9 {
                Fr::one()
            } else {
                *v
            }
        })
        .collect();
    let serial = with_threads(1, || sparse_msm(&points, &scalars));
    let parallel = with_threads(8, || sparse_msm(&points, &scalars));
    assert_eq!(parallel.0, serial.0);
    assert_eq!(parallel.1, serial.1);
}

/// Every meaningfully distinct MSM engine configuration: the PR 2 baseline,
/// each optimization alone, and all of them together.
fn msm_schedule_matrix() -> Vec<(&'static str, MsmConfig)> {
    vec![
        ("classic", MsmConfig::classic()),
        ("signed", MsmConfig::classic().with_signed_digits(true)),
        (
            "batch-affine",
            MsmConfig::classic().with_batch_affine_min_points(0),
        ),
        ("optimized", MsmConfig::optimized()),
    ]
}

#[test]
fn msm_schedules_agree_and_are_thread_count_invariant() {
    // Every schedule must compute the naive result, and within one schedule
    // the result AND the operation counters must not depend on the thread
    // count (work is split by configuration, never by backend width).
    let (points, scalars) = random_msm_instance(512, 0xD5EE_D014);
    let expect = naive_msm(&points, &scalars);
    for (name, config) in msm_schedule_matrix() {
        let serial = with_threads(1, || msm_with_config(&points, &scalars, config));
        assert_eq!(serial.0, expect, "{name}: wrong result");
        for threads in [2usize, 8] {
            let parallel = with_threads(threads, || msm_with_config(&points, &scalars, config));
            assert_eq!(
                parallel.0, serial.0,
                "{name}: {threads}-thread result drifted"
            );
            assert_eq!(
                parallel.1, serial.1,
                "{name}: {threads}-thread stats drifted"
            );
        }
    }
}

#[test]
fn precomputed_msm_results_and_stats_are_thread_count_invariant() {
    // The precomputed engine splits work over bucket ranges, never over the
    // backend width: result AND operation counters must be identical under
    // Serial and any pool size.
    let (points, scalars) = random_msm_instance(512, 0xD5EE_D015);
    let expect = naive_msm(&points, &scalars);
    let table = Arc::new(MultiBaseTable::build(
        &points,
        MULTI_BASE_DEFAULT_WINDOW_BITS,
    ));
    let config = MsmConfig::precomputed();
    let serial = msm_precomputed_on(&Serial, &table, &scalars, config);
    assert_eq!(serial.0, expect, "precomputed MSM computed a wrong result");
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let parallel = msm_precomputed_on(&pool, &table, &scalars, config);
        assert_eq!(parallel.0, serial.0, "{threads}-thread result drifted");
        assert_eq!(parallel.1, serial.1, "{threads}-thread stats drifted");
    }
}

#[test]
fn modmul_counters_are_thread_count_invariant() {
    // The kernel profiler (Table 1) reads thread-local modmul counters;
    // parallel workers must hand their counts back to the spawning thread.
    let (points, scalars) = random_msm_instance(256, 0xD5EE_D013);
    let count = |threads: usize| {
        with_threads(threads, || {
            let before = zkspeed_field::modmul_count();
            let _ = msm_with_config(&points, &scalars, MsmConfig::default());
            zkspeed_field::modmul_count().since(&before)
        })
    };
    let serial = count(1);
    assert!(serial.total() > 0, "MSM must record modmuls");
    assert_eq!(count(8), serial, "worker-side modmuls were dropped");

    // The SumCheck round kernel's weighted path: a ZeroCheck large enough
    // to chunk its rounds and to update its tables one job each.
    let vp = random_virtual_poly(12, 0xD5EE_D014);
    let count = |threads: usize| {
        with_threads(threads, || {
            let mut transcript = zkspeed_transcript::Transcript::new(b"counters");
            zkspeed_field::measure_modmuls(|| prove_zerocheck(&vp, &mut transcript)).1
        })
    };
    let serial = count(1);
    assert!(serial.fr > 0, "ZeroCheck must record modmuls");
    assert_eq!(count(8), serial, "worker-side modmuls were dropped");
}

// -------------------------------------- parallel-vs-serial: SumCheck ----

fn random_virtual_poly(num_vars: usize, seed: u64) -> VirtualPolynomial {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vp = VirtualPolynomial::new(num_vars);
    let f = vp.add_mle(MultilinearPoly::random(num_vars, &mut rng));
    let g = vp.add_mle(MultilinearPoly::random(num_vars, &mut rng));
    let h = vp.add_mle(MultilinearPoly::random(num_vars, &mut rng));
    vp.add_term(Fr::from_u64(3), vec![f, g, h]);
    vp.add_term(-Fr::from_u64(2), vec![f, h]);
    vp.add_term(Fr::one(), vec![g]);
    vp
}

#[test]
fn round_polynomial_parallel_matches_serial_bitwise() {
    // 2^11 hypercube instances: enough to split into many 256-instance
    // chunks when 8 workers are active.
    let vp = random_virtual_poly(12, 0xD5EE_D020);
    let degree = vp.degree();
    let serial = with_threads(1, || round_polynomial(&vp, degree));
    for threads in [2usize, 8] {
        let parallel = with_threads(threads, || round_polynomial(&vp, degree));
        assert_eq!(
            parallel, serial,
            "{threads}-thread round polynomial drifted"
        );
    }
}

// ------------------------------------ parallel-vs-serial: full prover ----

/// Builds one deterministic proving session per backend from the same seed.
fn session_for(
    mu: usize,
    seed: u64,
    backend: Arc<dyn Backend>,
) -> (ProverHandle, VerifierHandle, Witness) {
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(mu, &mut rng).expect("setup fits");
    let system = ProofSystem::setup_with_backend(srs, backend);
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
    (prover, verifier, witness)
}

#[test]
fn end_to_end_proof_is_identical_across_thread_counts() {
    // The legacy ambient path: the same free-function pipeline pinned to
    // one thread and to eight must agree bit for bit.
    let mu = 5;
    let (serial, parallel) = {
        let backend: Arc<dyn Backend> = zkspeed_rt::pool::ambient();
        let (prover, verifier, witness) = session_for(mu, 0xD5EE_D030, backend);
        let serial = with_threads(1, || prover.prove(&witness).expect("valid witness"));
        let parallel = with_threads(8, || prover.prove(&witness).expect("valid witness"));
        verifier.verify(&parallel).expect("parallel proof verifies");
        (serial, parallel)
    };
    // Structural equality covers every byte the proof serializes: the
    // commitments, all sumcheck round evaluations and the opening proofs.
    assert_eq!(parallel, serial, "proof bytes differ between thread counts");
    assert_eq!(parallel.size_in_bytes(), serial.size_in_bytes());
    assert_eq!(parallel.to_bytes(), serial.to_bytes());
}

#[test]
fn backends_produce_identical_encodings_and_modmul_counters() {
    // Same seed under Serial, ThreadPool(1) and ThreadPool(8): byte-identical
    // proof encodings AND identical modmul counters (workers hand their
    // deltas back to the submitting thread in deterministic order).
    let mu = 6;
    let seed = 0xD5EE_D031;
    let backends: Vec<Arc<dyn Backend>> = vec![
        Arc::new(Serial),
        Arc::new(ThreadPool::new(1)),
        Arc::new(ThreadPool::new(8)),
    ];
    let mut results: Vec<(Vec<u8>, zkspeed_field::ModmulCount)> = Vec::new();
    for backend in backends {
        let name = backend.name();
        let (prover, verifier, witness) = session_for(mu, seed, backend);
        let before = zkspeed_field::modmul_count();
        let proof = prover.prove(&witness).expect("valid witness");
        let spent = zkspeed_field::modmul_count().since(&before);
        verifier.verify(&proof).expect("honest proof verifies");
        assert!(spent.total() > 0, "{name}: proving must record modmuls");
        results.push((proof.to_bytes(), spent));
    }
    let (reference_bytes, reference_count) = &results[0];
    for (bytes, count) in &results[1..] {
        assert_eq!(bytes, reference_bytes, "proof encodings drifted");
        assert_eq!(count, reference_count, "modmul counters drifted");
    }
}

#[test]
fn proofs_are_bit_identical_across_msm_schedules_and_backends() {
    // Acceptance scenario of the signed-digit MSM engine: every MSM
    // schedule, on every backend, must serialize to exactly the same proof
    // bytes — the schedules differ only in how the same group elements are
    // computed.
    let mu = 5;
    let seed = 0xD5EE_D033;
    let mut reference: Option<Vec<u8>> = None;
    for (name, config) in msm_schedule_matrix() {
        let backends: Vec<Arc<dyn Backend>> = vec![Arc::new(Serial), Arc::new(ThreadPool::new(8))];
        for backend in backends {
            let backend_name = backend.name();
            let mut rng = StdRng::seed_from_u64(seed);
            let srs = Srs::try_setup(mu, &mut rng).expect("setup fits");
            let system = ProofSystem::setup_with_backend(srs, backend).with_msm_config(config);
            assert_eq!(system.msm_config(), config);
            let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
            let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
            let proof = prover.prove(&witness).expect("valid witness");
            verifier.verify(&proof).expect("proof verifies");
            let bytes = proof.to_bytes();
            match &reference {
                None => reference = Some(bytes),
                Some(expected) => assert_eq!(
                    &bytes, expected,
                    "schedule {name} on {backend_name} drifted from the reference encoding"
                ),
            }
        }
    }
}

#[test]
fn precomputed_sessions_reproduce_the_default_proof_bytes_on_every_backend() {
    // Acceptance scenario of the precomputed-table commit path: a session
    // with table precomputation enabled must serialize to exactly the bytes
    // the default schedule produces, on Serial, ThreadPool(1) and
    // ThreadPool(8) — the tables change how the commitments are computed,
    // never what they are.
    let mu = 5;
    let seed = 0xD5EE_D034;
    let reference = {
        let mut rng = StdRng::seed_from_u64(seed);
        let srs = Srs::try_setup(mu, &mut rng).expect("setup fits");
        let system = ProofSystem::setup_with_backend(srs, Arc::new(Serial));
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let proof = prover.prove(&witness).expect("valid witness");
        verifier.verify(&proof).expect("reference proof verifies");
        proof.to_bytes()
    };
    let backends: Vec<Arc<dyn Backend>> = vec![
        Arc::new(Serial),
        Arc::new(ThreadPool::new(1)),
        Arc::new(ThreadPool::new(8)),
    ];
    for backend in backends {
        let name = backend.name();
        let mut rng = StdRng::seed_from_u64(seed);
        let srs = Srs::try_setup(mu, &mut rng).expect("setup fits");
        let system = ProofSystem::setup_with_backend(srs, backend)
            .with_precompute(PrecomputeBudget::unlimited());
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let proof = prover.prove(&witness).expect("valid witness");
        verifier.verify(&proof).expect("precomputed proof verifies");
        assert_eq!(
            proof.to_bytes(),
            reference,
            "{name}: precomputed proof drifted from the default encoding"
        );
    }
}

#[test]
fn prove_batch_is_bit_identical_to_serial_at_mu_12() {
    // Acceptance scenario: a ThreadPool-backed prove_batch of 4 proofs at
    // μ=12 produces encodings bit-identical to a Serial backend.
    let mu = 12;
    let seed = 0xD5EE_D032;

    let (serial_prover, _, witness) = session_for(mu, seed, Arc::new(Serial));
    let witnesses = vec![
        witness.clone(),
        witness.clone(),
        witness.clone(),
        witness.clone(),
    ];
    let serial_proofs = serial_prover
        .prove_batch(&witnesses)
        .expect("valid witnesses");

    let (pool_prover, pool_verifier, pool_witness) =
        session_for(mu, seed, Arc::new(ThreadPool::new(8)));
    let pool_witnesses = vec![
        pool_witness.clone(),
        pool_witness.clone(),
        pool_witness.clone(),
        pool_witness,
    ];
    let pool_proofs = pool_prover
        .prove_batch(&pool_witnesses)
        .expect("valid witnesses");

    assert_eq!(serial_proofs.len(), 4);
    assert_eq!(pool_proofs.len(), 4);
    for (serial, pooled) in serial_proofs.iter().zip(pool_proofs.iter()) {
        assert_eq!(
            serial.to_bytes(),
            pooled.to_bytes(),
            "batch encodings drifted between backends"
        );
    }
    pool_verifier
        .verify(&pool_proofs[3])
        .expect("batched proof verifies");
}
