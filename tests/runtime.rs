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
    msm, msm_with_config_on, naive_msm, sparse_msm, G1Affine, G1Projective, MsmConfig, MsmStats,
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
fn msm_inputs_take_their_paths_and_are_thread_count_invariant() {
    // The engine has one datapath and chooses, window by window, between
    // batch-affine and projective buckets from the operations it sees. For
    // each input: the path it took (read from the operation counts), the
    // naive result, and the result AND the counters at every thread count
    // (work is split by the problem, never by backend width).
    let (points, uniform) = random_msm_instance(512, 0xD5EE_D014);
    let n = points.len();
    let narrow = [Fr::one(), -Fr::one(), Fr::from_u64(2), -Fr::from_u64(2)];
    let p = points[0];
    let signed_p: Vec<G1Affine> = (0..n)
        .map(|i| if i % 3 == 2 { p.neg() } else { p })
        .collect();
    let holes: Vec<Fr> = (0..n)
        .map(|i| if i % 5 == 0 { Fr::zero() } else { uniform[i] })
        .collect();
    type Path = fn(&MsmStats) -> bool;
    let batch_affine: Path = |s| s.bucket_adds == 0 && s.affine_adds > 0;
    let projective: Path = |s| s.bucket_adds > s.affine_adds;
    let cases: [(&str, &[G1Affine], Vec<Fr>, Path); 4] = [
        ("uniform", &points, uniform.clone(), batch_affine),
        ("all-equal", &points, vec![uniform[0]; n], projective),
        (
            "narrow",
            &points,
            (0..n).map(|i| narrow[i % 4]).collect(),
            batch_affine,
        ),
        ("±P with holes", &signed_p, holes, batch_affine),
    ];
    for (name, points, scalars, path) in cases {
        let config = MsmConfig::default();
        let serial = msm_with_config_on(&Serial, points, &scalars, config);
        assert_eq!(
            serial.0,
            naive_msm(points, &scalars),
            "{name}: wrong result"
        );
        assert!(path(&serial.1), "{name}: wrong path, {:?}", serial.1);
        for threads in POOL_THREADS {
            let pool = ThreadPool::new(threads);
            let parallel = msm_with_config_on(&pool, points, &scalars, config);
            assert_eq!(parallel, serial, "{name}: {threads}-thread run drifted");
        }
    }
}

/// Asserts that what `run` records, read on the calling thread, is the same
/// on `Serial` as on an eight-thread pool, and is not nothing.
fn assert_same_modmuls<T>(site: &str, run: impl Fn(&dyn Backend) -> T) {
    let serial = measure_modmuls(|| run(&Serial)).1;
    assert!(serial.total() > 0, "{site} must record modmuls");
    assert_eq!(
        measure_modmuls(|| run(&ThreadPool::new(8))).1,
        serial,
        "{site}: worker-side modmuls were dropped"
    );
}

#[test]
fn modmul_counters_are_thread_count_invariant() {
    // The prover's Table 1 rows read thread-local modmul counters around
    // each kernel; the pool carries its workers' counts back to the caller.
    let (points, scalars) = random_msm_instance(256, 0xD5EE_D013);
    let points = Arc::new(points);
    assert_same_modmuls("MSM", |backend| msm(backend, &points, &scalars));

    // The SumCheck round kernel's weighted path: a ZeroCheck large enough
    // to chunk its rounds and to update its tables one job each.
    let vp = random_virtual_poly(12, 0xD5EE_D014);
    assert_same_modmuls("ZeroCheck", |backend| {
        prove_zerocheck_on(&vp, &mut Transcript::new(b"counters"), backend)
    });

    // Setup's level chunks, and preprocessing's eight key commitments.
    let mu = 8;
    let setup = |backend: &dyn Backend| {
        let mut rng = StdRng::seed_from_u64(0xD5EE_D015);
        Srs::try_setup_on(mu, &mut rng, backend).expect("setup fits")
    };
    assert_same_modmuls("Srs setup", setup);
    let srs = setup(&Serial);
    let mut rng = StdRng::seed_from_u64(0xD5EE_D016);
    let (circuit, _) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    assert_same_modmuls("preprocessing", |backend| {
        try_preprocess(circuit.clone(), &srs, backend).expect("circuit fits")
    });

    // Both MLE kernels at 2^15, where their 2^12-entry chunks fan out.
    let point: Vec<Fr> = (0..15).map(|_| Fr::random(&mut rng)).collect();
    assert_same_modmuls("eq_mle", |backend| MultilinearPoly::eq_mle(&point, backend));
    let table = MultilinearPoly::random(15, &mut rng);
    let r = Fr::random(&mut rng);
    assert_same_modmuls("fix_first_variable", |backend| {
        table.fix_first_variable(r, backend)
    });
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

/// The proving and verifying key of one seeded μ = 5 circuit, and its
/// witness.
fn matrix_keys(seed: u64) -> (ProvingKey, VerifyingKey, Witness) {
    let mu = 5;
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut rng);
    let (pk, vk) = try_preprocess(circuit, &srs, &Serial).expect("circuit fits");
    (pk, vk, witness)
}

#[test]
fn backends_produce_identical_encodings_and_modmul_counters() {
    // {Serial, ThreadPool(1), ThreadPool(8)} × {trace off, trace on} ×
    // {prove, prove_batch of 3}: every proof is byte-identical to one
    // reference (Serial, no trace), and every case spends exactly the
    // modmuls the Serial untraced proof does.
    const BATCH: u64 = 3;
    let (pk, vk, witness) = matrix_keys(0xD5EE_D031);
    let pk = Arc::new(pk);
    let single = |ctx: &ExecCtx| {
        let (proved, count) = measure_modmuls(|| prove(&pk, &witness, ctx));
        (vec![proved.expect("valid witness")], count)
    };
    let shared = Arc::new(witness.clone());
    let batch = |ctx: &ExecCtx| {
        let witnesses: Vec<(u64, Arc<Witness>)> =
            (0..BATCH).map(|job| (job, Arc::clone(&shared))).collect();
        let (proved, count) = measure_modmuls(|| prove_batch(&pk, &witnesses, ctx));
        let proved = proved.into_iter().map(|p| p.expect("valid witness"));
        (proved.collect(), count)
    };
    let (serial, serial_count) = single(&ExecCtx::default());
    let reference = &serial[0].0;
    zkspeed_hyperplonk::verify(&vk, reference).expect("the reference proof verifies");
    let reference = reference.to_bytes();

    let backends: [(&str, Arc<dyn Backend>); 3] = [
        ("Serial", Arc::new(Serial)),
        ("ThreadPool(1)", Arc::new(ThreadPool::new(1))),
        ("ThreadPool(8)", Arc::new(ThreadPool::new(8))),
    ];
    let mut cases = 0;
    for (backend_name, backend) in &backends {
        for trace in [TraceSink::disabled(), TraceSink::enabled()] {
            let traced = trace.is_enabled();
            let ctx = ExecCtx {
                backend: Arc::clone(backend),
                trace: trace.clone(),
                job: 7,
            };
            for (op, (proofs, count), times) in [
                ("prove", single(&ctx), 1),
                ("prove_batch", batch(&ctx), BATCH),
            ] {
                let case = format!("{backend_name}, trace {traced}, {op}");
                assert_eq!(proofs.len() as u64, times, "{case}");
                for (proof, _) in &proofs {
                    assert_eq!(proof.to_bytes(), reference, "{case}: proof bytes drifted");
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
    println!("determinism matrix: {cases} of 12 cases identical");
    assert_eq!(cases, 12, "the matrix shrank");
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
