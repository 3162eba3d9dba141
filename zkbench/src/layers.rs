//! The per-layer ladder: every call the benchmark makes into a layer below
//! the session API lives in this file, so a change to those entry points
//! has one place to follow.
//!
//! Each rung calls one public function of one layer on the workload's own
//! operands at the workload's `μ`, [`REPS`] times, each call under a span,
//! and reports the median. Counts come from the same calls and are exact.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use zkspeed::curve::{msm_with_config_on, sparse_msm_on, MsmConfig};
use zkspeed::field::{measure_modmuls, Fq, Fr};
use zkspeed::hyperplonk::{Circuit, Proof, Witness};
use zkspeed::pcs::{commit_on, commit_sparse_on, open_on, verify_opening, Srs};
use zkspeed::poly::{fraction_mle, product_mle, MultilinearPoly, VirtualPolynomial};
use zkspeed::rt::pool::{map_indices_on, Backend, ThreadPool};
use zkspeed::rt::rngs::StdRng;
use zkspeed::rt::trace::TraceSink;
use zkspeed::rt::SeedableRng;
use zkspeed::sumcheck::{mask_with_eq, prove_on, prove_zerocheck_on, round_polynomial_on};
use zkspeed::svc::{Priority, ProvingService, ServiceConfig};
use zkspeed::transcript::Transcript;

use crate::stats::{median, millis};

/// Calls per rung.
const REPS: usize = 5;
/// Length of the dependent multiplication chains.
const MUL_CHAIN: usize = 1 << 18;
/// Length of the dependent inversion chain (an inversion costs a few
/// hundred multiplications).
const INV_CHAIN: usize = 1 << 10;
/// Operations per call of the rungs that time a microsecond-scale call.
const SMALL_OPS: usize = 1000;

/// Threads of the pool the traced pass uses where one thread shows nothing:
/// the fan-out rung, and the proof timed as `hyperplonk.prove_2t_ms`.
pub const WIDE_THREADS: usize = 2;

/// A named per-layer value.
pub type Metric = (&'static str, f64);

/// The identifier the spans of one operation (a proof, a job, the ladder)
/// share. The operation's top span carries it as `op`; the spans it caused
/// carry [`child_args`].
pub fn next_op() -> u64 {
    static NEXT_OP: AtomicU64 = AtomicU64::new(1);
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// The arguments of a span caused by the top span of `op`.
pub fn child_args(op: u64) -> [(&'static str, u64); 2] {
    [("op", op), ("parent", op)]
}

/// Universal setup on `backend`, the `pcs` call inside every set-up.
pub fn srs_setup(num_vars: usize, rng: &mut StdRng, backend: &dyn Backend) -> Srs {
    Srs::try_setup_on(num_vars, rng, backend).expect("workload sizes are below MAX_NUM_VARS")
}

/// Runs a prove under the field layer's multiplication counters and returns
/// `(Fr multiplications, Fq multiplications)`.
pub fn count_modmuls(prove: impl FnOnce()) -> (u64, u64) {
    let ((), count) = measure_modmuls(prove);
    (count.fr, count.fq)
}

struct Ladder<'a> {
    sink: &'a TraceSink,
    op: u64,
    out: Vec<Metric>,
}

impl Ladder<'_> {
    /// Times [`REPS`] calls of `f` and records the median, scaled by
    /// `per_second` (1e3 for ms, 1e6 / ops for µs per operation, …).
    fn rung<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        per_second: f64,
        mut f: impl FnMut() -> T,
    ) -> T {
        let mut seconds = Vec::with_capacity(REPS);
        let mut last = None;
        for _ in 0..REPS {
            let _span = self.sink.span_with(name, layer, &child_args(self.op));
            let began = Instant::now();
            last = Some(black_box(f()));
            seconds.push(began.elapsed().as_secs_f64());
        }
        self.out.push((name, median(&seconds) * per_second));
        last.expect("REPS is positive")
    }
}

/// The rungs below the prover: `field`, `curve`, `poly`, `sumcheck`,
/// `transcript`, `pcs`, `rt`, and the prover's own helpers.
pub fn ladder(
    sink: &TraceSink,
    backend: &Arc<dyn Backend>,
    srs: &Srs,
    circuit: &Circuit,
    witness: &Witness,
    proof: &Proof,
    seed: u64,
) -> Vec<Metric> {
    let backend: &dyn Backend = &**backend;
    let op = next_op();
    let _root = sink.span_with("ladder", "zkbench", &[("op", op)]);
    let mut l = Ladder {
        sink,
        op,
        out: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1add);
    let mu = circuit.num_vars();
    let n = 1usize << mu;
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let point: Vec<Fr> = (0..mu).map(|_| Fr::random(&mut rng)).collect();
    let column = &witness.columns[0];

    // field
    let (a, b) = (Fr::random(&mut rng), Fr::random(&mut rng));
    l.rung("field.fr_mul_ns", "field", 1e9 / MUL_CHAIN as f64, || {
        (0..MUL_CHAIN).fold(a, |acc, _| acc * b)
    });
    let (c, d) = (Fq::random(&mut rng), Fq::random(&mut rng));
    l.rung("field.fq_mul_ns", "field", 1e9 / MUL_CHAIN as f64, || {
        (0..MUL_CHAIN).fold(c, |acc, _| acc * d)
    });
    l.rung("field.fr_inv_ns", "field", 1e9 / INV_CHAIN as f64, || {
        (0..INV_CHAIN).fold(a, |acc, _| acc.invert().unwrap_or(b) + b)
    });

    // curve
    let basis = srs.lagrange_basis(srs.num_vars() - mu);
    let (_, dense) = l.rung("curve.msm_dense_ms", "curve", 1e3, || {
        msm_with_config_on(backend, basis, &scalars, MsmConfig::default())
    });
    l.out
        .push(("curve.msm_dense_fq_muls", dense.fq_muls() as f64));
    l.out
        .push(("curve.msm_dense_point_adds", dense.total_adds() as f64));
    let (_, sparse) = l.rung("curve.msm_sparse_ms", "curve", 1e3, || {
        sparse_msm_on(backend, basis, column.evaluations())
    });
    l.out
        .push(("curve.msm_sparse_fq_muls", sparse.ops.fq_muls() as f64));
    // The opening's halving MSMs run mostly at sizes like this one.
    let small = mu.saturating_sub(4);
    let small_basis = srs.lagrange_basis(srs.num_vars() - small);
    l.rung("curve.msm_small_ms", "curve", 1e3, || {
        msm_with_config_on(
            backend,
            small_basis,
            &scalars[..1 << small],
            MsmConfig::default(),
        )
    });

    // poly
    let numerator = MultilinearPoly::random(mu, &mut rng);
    let denominator = MultilinearPoly::random(mu, &mut rng);
    let phi = l.rung("poly.fraction_mle_ms", "poly", 1e3, || {
        fraction_mle(&numerator, &denominator)
    });
    l.rung("poly.product_mle_ms", "poly", 1e3, || product_mle(&phi));
    l.rung("poly.eq_mle_ms", "poly", 1e3, || {
        MultilinearPoly::eq_mle_on(&point, backend)
    });
    l.rung("poly.fix_first_variable_ms", "poly", 1e3, || {
        numerator.fix_first_variable_on(a, backend)
    });
    l.rung("poly.evaluate_ms", "poly", 1e3, || {
        numerator.evaluate(&point)
    });

    // sumcheck: the three shapes the prover runs, on tables of its size.
    let gate = gate_polynomial(circuit, witness);
    l.rung("sumcheck.zerocheck_gate_ms", "sumcheck", 1e3, || {
        prove_zerocheck_on(&gate, &mut Transcript::new(b"zkbench"), backend)
    });
    let perm = perm_polynomial(mu, &mut rng);
    l.rung("sumcheck.zerocheck_perm_ms", "sumcheck", 1e3, || {
        prove_zerocheck_on(&perm, &mut Transcript::new(b"zkbench"), backend)
    });
    let open = open_polynomial(mu, &mut rng);
    l.rung("sumcheck.opencheck_ms", "sumcheck", 1e3, || {
        prove_on(&open, &mut Transcript::new(b"zkbench"), backend)
    });
    let masked = mask_with_eq(&gate, &point);
    l.rung("sumcheck.round_poly_us", "sumcheck", 1e6, || {
        round_polynomial_on(&masked, masked.degree(), backend)
    });

    // transcript
    l.rung(
        "transcript.challenge_us",
        "transcript",
        1e6 / SMALL_OPS as f64,
        || {
            let mut transcript = Transcript::new(b"zkbench");
            for _ in 0..SMALL_OPS {
                transcript.append_scalar(b"x", &a);
                black_box(transcript.challenge_scalar(b"c"));
            }
        },
    );

    // pcs
    let dense_poly = MultilinearPoly::new(scalars);
    let commitment = l.rung("pcs.commit_dense_ms", "pcs", 1e3, || {
        commit_on(backend, srs, &dense_poly)
    });
    l.rung("pcs.commit_sparse_ms", "pcs", 1e3, || {
        commit_sparse_on(backend, srs, column)
    });
    let (value, opening, _) = l.rung("pcs.open_ms", "pcs", 1e3, || {
        open_on(backend, srs, &dense_poly, &point)
    });
    let accepted = l.rung("pcs.verify_opening_ms", "pcs", 1e3, || {
        verify_opening(srs, &commitment, &point, value, &opening)
    });
    assert!(accepted, "pcs: an honest opening must verify");

    // hyperplonk helpers around the prover
    let satisfied = l.rung("hyperplonk.witness_check_ms", "hyperplonk", 1e3, || {
        circuit.check_witness(witness).is_ok()
    });
    let proof_bytes = l.rung("hyperplonk.proof_encode_us", "hyperplonk", 1e6, || {
        proof.to_bytes()
    });
    let proof_decoded = l.rung("hyperplonk.proof_decode_us", "hyperplonk", 1e6, || {
        Proof::from_bytes(&proof_bytes).is_ok()
    });

    // rt: a pool of one thread runs its tasks inline, so the fan-out is
    // timed on a wider one.
    let wide = ThreadPool::new(WIDE_THREADS);
    l.rung("rt.pool_fanout_us", "rt", 1e6 / SMALL_OPS as f64, || {
        for _ in 0..SMALL_OPS {
            black_box(map_indices_on(&wide, 2, |i| i));
        }
    });
    let witness_bytes = l.rung("rt.codec_witness_encode_us", "rt", 1e6, || {
        witness.to_bytes()
    });
    let witness_decoded = l.rung("rt.codec_witness_decode_us", "rt", 1e6, || {
        Witness::from_bytes(&witness_bytes).is_ok()
    });
    assert!(
        satisfied && proof_decoded && witness_decoded,
        "the workload's own witness and proof must check and decode"
    );

    l.out
}

/// The Gate Identity polynomial of Eq. (3) over the workload's own
/// selectors and witness, as the prover builds it.
fn gate_polynomial(circuit: &Circuit, witness: &Witness) -> VirtualPolynomial {
    let mut f = VirtualPolynomial::new(circuit.num_vars());
    let q: Vec<usize> = circuit
        .selectors()
        .iter()
        .map(|m| f.add_mle(m.clone()))
        .collect();
    let w: Vec<usize> = witness
        .columns
        .iter()
        .map(|m| f.add_mle(m.clone()))
        .collect();
    f.add_term(Fr::one(), vec![q[0], w[0]]);
    f.add_term(Fr::one(), vec![q[1], w[1]]);
    f.add_term(Fr::one(), vec![q[2], w[0], w[1]]);
    f.add_term(-Fr::one(), vec![q[3], w[2]]);
    f.add_term(Fr::one(), vec![q[4]]);
    f
}

/// The shape of the Wiring Identity polynomial of Eq. (4): ten MLEs, degree
/// 4 before the `eq` mask. SumCheck time does not depend on the values.
fn perm_polynomial(mu: usize, rng: &mut StdRng) -> VirtualPolynomial {
    let mut f = VirtualPolynomial::new(mu);
    let m: Vec<usize> = (0..10)
        .map(|_| f.add_mle(MultilinearPoly::random(mu, rng)))
        .collect();
    let alpha = Fr::random(rng);
    f.add_term(Fr::one(), vec![m[0]]);
    f.add_term(-Fr::one(), vec![m[1], m[2]]);
    f.add_term(alpha, vec![m[3], m[4], m[5], m[6]]);
    f.add_term(-alpha, vec![m[7], m[8], m[9]]);
    f
}

/// The shape of the OpenCheck polynomial of Eq. (5): one `y·k` product per
/// query group of the proof.
fn open_polynomial(mu: usize, rng: &mut StdRng) -> VirtualPolynomial {
    const QUERY_GROUPS: usize = 5;
    let mut f = VirtualPolynomial::new(mu);
    for _ in 0..QUERY_GROUPS {
        let y = f.add_mle(MultilinearPoly::random(mu, rng));
        let k = f.add_mle(MultilinearPoly::random(mu, rng));
        f.add_term(Fr::random(rng), vec![y, k]);
    }
    f
}

/// One session registered with a service of its own, in process: what `svc`
/// adds to a proof when nothing queues.
pub struct LocalService {
    service: ProvingService,
    digest: [u8; 32],
}

impl LocalService {
    /// Starts the service and registers the circuit; also returns
    /// `svc.register_ms`.
    pub fn start(
        sink: &TraceSink,
        op: u64,
        srs: Arc<Srs>,
        config: ServiceConfig,
        circuit: &Circuit,
    ) -> (Self, f64) {
        let service = ProvingService::start(srs, config);
        let span = sink.span_with("svc.register", "svc", &child_args(op));
        let began = Instant::now();
        let digest = service
            .register_circuit(circuit.clone())
            .expect("the session fits the SRS it was sized for");
        let register_ms = millis(began.elapsed());
        drop(span);
        (Self { service, digest }, register_ms)
    }

    /// One job, submitted and waited for; its latency in ms.
    pub fn job(&self, sink: &TraceSink, op: u64, witness: &Witness) -> f64 {
        let _span = sink.span_with("svc.job", "svc", &child_args(op));
        let began = Instant::now();
        let job = self
            .service
            .submit(&self.digest, witness.clone(), Priority::Normal)
            .expect("an idle service accepts a valid job");
        self.service.wait(job).expect("a valid job completes");
        millis(began.elapsed())
    }
}
