//! Tests of the `zkspeed-rt` runtime substrate as seen by the whole stack:
//! PRNG determinism (same seed → same stream, cross-thread independence) and
//! backend equivalence — where the work runs never changes what is
//! computed. Every kernel below runs on explicit backends (`Serial`,
//! `ThreadPool(1)`, pools of 2 and 8), whatever `ZKSPEED_THREADS` says, and
//! the prover runs the enumerated matrix of
//! [`backends_produce_identical_encodings_and_modmul_counters`]: proof bytes
//! and modmul counters must not move.

use std::sync::Arc;

use zkspeed::prelude::*;
use zkspeed_curve::{
    msm, msm_precomputed, msm_with_config_on, naive_msm, sparse_msm, G1Affine, G1Projective,
    MsmConfig, MultiBaseTable, MULTI_BASE_DEFAULT_WINDOW_BITS,
};
use zkspeed_field::{measure_modmuls, Fr, ModmulCount};
use zkspeed_hyperplonk::{
    mock_circuit, prove, prove_batch, try_preprocess, ExecCtx, ProvingKey, VerifyingKey,
};
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::trace::TraceSink;
use zkspeed_rt::Rng;
use zkspeed_sumcheck::{prove_zerocheck_on, round_polynomial};
use zkspeed_transcript::Transcript;

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

/// Pools that genuinely fan out, whatever the host's core count.
const POOL_THREADS: [usize; 2] = [2, 8];

#[test]
fn msm_parallel_matches_serial_bitwise() {
    let (points, scalars) = random_msm_instance(512, 0xD5EE_D010);
    let points = Arc::new(points);
    let serial = msm(&Serial, &points, &scalars);
    for threads in POOL_THREADS {
        let parallel = msm(&ThreadPool::new(threads), &points, &scalars);
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
    let serial = sparse_msm(&Serial, &points, &scalars);
    let parallel = sparse_msm(&ThreadPool::new(8), &points, &scalars);
    assert_eq!(parallel.0, serial.0);
    assert_eq!(parallel.1, serial.1);
}

#[test]
fn msm_schedules_agree_and_are_thread_count_invariant() {
    // Every engine configuration must compute the naive result, and within
    // one configuration the result AND the operation counters must not
    // depend on the thread count (work is split by configuration, never by
    // backend width).
    let (points, scalars) = random_msm_instance(512, 0xD5EE_D014);
    let expect = naive_msm(&points, &scalars);
    for (name, config) in [
        ("classic", MsmConfig::classic()),
        ("signed", MsmConfig::classic().with_signed_digits(true)),
        (
            "batch-affine",
            MsmConfig::classic().with_batch_affine_min_points(0),
        ),
        ("optimized", MsmConfig::optimized()),
    ] {
        let serial = msm_with_config_on(&Serial, &points, &scalars, config);
        assert_eq!(serial.0, expect, "{name}: wrong result");
        for threads in POOL_THREADS {
            let pool = ThreadPool::new(threads);
            let parallel = msm_with_config_on(&pool, &points, &scalars, config);
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
    // The precomputed engine splits work over runs of windows, never over
    // the backend width: result AND operation counters must be identical
    // under Serial and any pool size.
    let (points, scalars) = random_msm_instance(512, 0xD5EE_D015);
    let expect = naive_msm(&points, &scalars);
    let bases = Arc::new(points);
    let table = Arc::new(MultiBaseTable::build(
        &bases,
        MULTI_BASE_DEFAULT_WINDOW_BITS,
        &Serial,
    ));
    let serial = msm_precomputed(&Serial, &table, &scalars);
    assert_eq!(serial.0, expect, "precomputed MSM computed a wrong result");
    for threads in [1usize, 2, 8] {
        let parallel = msm_precomputed(&ThreadPool::new(threads), &table, &scalars);
        assert_eq!(parallel.0, serial.0, "{threads}-thread result drifted");
        assert_eq!(parallel.1, serial.1, "{threads}-thread stats drifted");
    }
}

#[test]
fn modmul_counters_are_thread_count_invariant() {
    // The kernel profiler (Table 1) reads thread-local modmul counters;
    // parallel workers must hand their counts back to the spawning thread.
    let (points, scalars) = random_msm_instance(256, 0xD5EE_D013);
    let points = Arc::new(points);
    let count = |backend: &dyn Backend| measure_modmuls(|| msm(backend, &points, &scalars)).1;
    let serial = count(&Serial);
    assert!(serial.total() > 0, "MSM must record modmuls");
    assert_eq!(
        count(&ThreadPool::new(8)),
        serial,
        "worker-side modmuls were dropped"
    );

    // The SumCheck round kernel's weighted path: a ZeroCheck large enough
    // to chunk its rounds and to update its tables one job each.
    let vp = random_virtual_poly(12, 0xD5EE_D014);
    let count = |backend: &dyn Backend| {
        let mut transcript = Transcript::new(b"counters");
        measure_modmuls(|| prove_zerocheck_on(&vp, &mut transcript, backend)).1
    };
    let serial = count(&Serial);
    assert!(serial.fr > 0, "ZeroCheck must record modmuls");
    assert_eq!(
        count(&ThreadPool::new(8)),
        serial,
        "worker-side modmuls were dropped"
    );
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
    let serial = round_polynomial(&vp, degree, &Serial);
    for threads in POOL_THREADS {
        let parallel = round_polynomial(&vp, degree, &ThreadPool::new(threads));
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
    let srs = Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits");
    let system = ProofSystem::setup_with_backend(srs, backend);
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
    (prover, verifier, witness)
}

#[test]
fn end_to_end_proof_is_identical_across_thread_counts() {
    // The default session proves on the process-wide pool, as wide as
    // `ZKSPEED_THREADS` (CI runs 1 and 8): the same bytes as on one thread.
    let mu = 5;
    let seed = 0xD5EE_D030;
    let (serial, _, witness) = session_for(mu, seed, Arc::new(Serial));
    let mut rng = StdRng::seed_from_u64(seed);
    let system = ProofSystem::setup(Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits"));
    let (circuit, _) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let (default, verifier) = system.preprocess(circuit).expect("circuit fits");
    let reference = serial.prove(&witness).expect("valid witness");
    let proof = default.prove(&witness).expect("valid witness");
    verifier.verify(&proof).expect("proof verifies");
    assert_eq!(proof.to_bytes(), reference.to_bytes());
}

/// Proving keys of one seeded μ = 5 circuit, without and with every commit
/// table an unlimited budget builds, and its witness.
fn matrix_keys(seed: u64) -> ([ProvingKey; 2], VerifyingKey, Witness) {
    let mu = 5;
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let keys = |budget| try_preprocess(circuit.clone(), &srs, &Serial, &budget);
    let (plain, vk) = keys(PrecomputeBudget::disabled()).expect("circuit fits");
    let (tabled, _) = keys(PrecomputeBudget::unlimited()).expect("circuit fits");
    assert!(plain.commit_tables.is_none() && tabled.commit_tables.is_some());
    ([plain, tabled], vk, witness)
}

#[test]
fn backends_produce_identical_encodings_and_modmul_counters() {
    // {Serial, ThreadPool(1), ThreadPool(8)} × {no tables, unlimited tables}
    // × {trace off, trace on} × {prove, prove_batch of 3}: every proof is
    // byte-identical to one reference (Serial, no tables, no trace), and
    // every case spends exactly the modmuls the Serial untraced proof with
    // the same keys does (the table engine multiplies differently, never
    // anything else does).
    const BATCH: u64 = 3;
    let (keys, vk, witness) = matrix_keys(0xD5EE_D031);
    let single = |pk: &ProvingKey, ctx: &ExecCtx| {
        let (proved, count) = measure_modmuls(|| prove(pk, &witness, ctx));
        (vec![proved.expect("valid witness")], count)
    };
    let batch = |pk: &ProvingKey, ctx: &ExecCtx| {
        let witnesses: Vec<(u64, Witness)> = (0..BATCH).map(|job| (job, witness.clone())).collect();
        let (proved, count) = measure_modmuls(|| prove_batch(pk, &witnesses, ctx));
        (proved.expect("valid witnesses"), count)
    };
    let serial: Vec<_> = keys
        .iter()
        .map(|pk| single(pk, &ExecCtx::default()))
        .collect();
    let reference = &serial[0].0[0].0;
    zkspeed_hyperplonk::verify(&vk, reference).expect("the reference proof verifies");
    let reference = reference.to_bytes();

    let backends: [(&str, Arc<dyn Backend>); 3] = [
        ("Serial", Arc::new(Serial)),
        ("ThreadPool(1)", Arc::new(ThreadPool::new(1))),
        ("ThreadPool(8)", Arc::new(ThreadPool::new(8))),
    ];
    let mut cases = 0;
    for (backend_name, backend) in &backends {
        for (pk, (_, serial_count)) in keys.iter().zip(&serial) {
            let tables = pk.commit_tables.is_some();
            for trace in [TraceSink::disabled(), TraceSink::enabled()] {
                let traced = trace.is_enabled();
                let ctx = ExecCtx {
                    backend: Arc::clone(backend),
                    trace: trace.clone(),
                    job: 7,
                };
                for (op, (proofs, count), times) in [
                    ("prove", single(pk, &ctx), 1),
                    ("prove_batch", batch(pk, &ctx), BATCH),
                ] {
                    let case = format!("{backend_name}, tables {tables}, trace {traced}, {op}");
                    assert_eq!(proofs.len() as u64, times, "{case}");
                    for (proof, report) in &proofs {
                        assert_eq!(proof.to_bytes(), reference, "{case}: proof bytes drifted");
                        // Tables present means tables used: the φ and π
                        // commits compute no point images on the table engine.
                        assert_eq!(report.wiring_msm.endomorphisms == 0, tables, "{case}");
                    }
                    let expect = ModmulCount {
                        fr: serial_count.fr * times,
                        fq: serial_count.fq * times,
                    };
                    assert_eq!(count, expect, "{case}: modmul counters drifted");
                    assert_eq!(trace.event_count() > 0, traced, "{case}");
                    cases += 1;
                }
            }
        }
    }
    println!("determinism matrix: {cases} of 24 cases identical");
    assert_eq!(cases, 24, "the matrix shrank");
}

#[test]
fn precomputed_sessions_reproduce_the_default_proof_bytes_on_every_backend() {
    // Through the session API: a session with table precomputation enabled
    // must serialize to exactly the bytes the table-free session produces,
    // on Serial, ThreadPool(1) and ThreadPool(8) — the tables change how
    // the commitments are computed, never what they are.
    let mu = 5;
    let seed = 0xD5EE_D034;
    let session = |backend: Arc<dyn Backend>, budget| {
        let mut rng = StdRng::seed_from_u64(seed);
        let srs = Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits");
        let system = ProofSystem::setup_with_backend(srs, backend).with_precompute(budget);
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
        let (prover, verifier) = system.preprocess(circuit).expect("circuit fits");
        let proof = prover.prove(&witness).expect("valid witness");
        verifier.verify(&proof).expect("proof verifies");
        proof.to_bytes()
    };
    let reference = session(Arc::new(Serial), PrecomputeBudget::disabled());
    let backends: Vec<Arc<dyn Backend>> = vec![
        Arc::new(Serial),
        Arc::new(ThreadPool::new(1)),
        Arc::new(ThreadPool::new(8)),
    ];
    for backend in backends {
        let name = backend.name();
        assert_eq!(
            session(backend, PrecomputeBudget::unlimited()),
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
    let witnesses = vec![witness; 4];
    let serial_proofs = serial_prover
        .prove_batch(&witnesses)
        .expect("valid witnesses");

    let (pool_prover, pool_verifier, pool_witness) =
        session_for(mu, seed, Arc::new(ThreadPool::new(8)));
    let pool_proofs = pool_prover
        .prove_batch(&vec![pool_witness; 4])
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
