//! The HyperPlonk prover: the five protocol steps of Figure 2 of the zkSpeed
//! paper, executed in series with every challenge drawn from the SHA3
//! transcript.
//!
//! | Step | Kernels exercised |
//! |---|---|
//! | 1. Witness Commits | Sparse MSM |
//! | 2. Gate Identity | Build MLE (half-size `eq`, a weight not an MLE), ZeroCheck, MLE Update |
//! | 3. Wiring Identity | Construct N&D, FracMLE, Product MLE, dense MSM, ZeroCheck (as step 2) |
//! | 4. Batch Evaluations | MLE Evaluate (only what no SumCheck already returned) |
//! | 5. Polynomial Opening | MLE Combine, Build MLE, SumCheck (OpenCheck), halving MSMs |
//!
//! [`prove_with_report_on`] also returns wall-clock and operation-count
//! measurements per step; these calibrate the CPU baseline model used by the
//! accelerator's design-space exploration. The `*_msm_on` variants
//! additionally pin the MSM engine configuration
//! ([`zkspeed_curve::MsmConfig`]) used by every commitment and opening.

use std::sync::Arc;
use std::time::Instant;

use zkspeed_curve::{MsmConfig, MsmStats, SparseMsmStats};
use zkspeed_field::Fr;
use zkspeed_pcs::{commit_sparse_with_tables_on, commit_with_tables_on, open_with_tables_on};
use zkspeed_poly::{fraction_mle, product_mle, split_even_odd, MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::pool::{self, Backend, Serial};
use zkspeed_rt::trace::TraceSink;
use zkspeed_sumcheck::{prove_traced_on as sumcheck_prove_traced_on, prove_zerocheck_traced_on};
use zkspeed_transcript::Transcript;

use crate::circuit::{Circuit, SatisfactionError, Witness};
use crate::keys::ProvingKey;
use crate::proof::{query_groups, BatchEvaluations, PolyLabel, Proof, QueryGroup};

/// Per-round degree of the Gate Identity ZeroCheck round polynomials: Eq. 3's
/// `q_M·w₁·w₂` has degree 3 and the `eq` factor, which the prover multiplies
/// in once per round, makes it 4.
pub const GATE_SUMCHECK_DEGREE: usize = 4;
/// Per-round degree of the Wiring Identity ZeroCheck round polynomials: Eq.
/// 4's `φ·D₁·D₂·D₃` has degree 4, 5 with the `eq` factor.
pub const PERM_SUMCHECK_DEGREE: usize = 5;
/// Per-round degree of the OpenCheck polynomial (Eq. 5): `yᵢ·kᵢ` has degree 2.
pub const OPENCHECK_DEGREE: usize = 2;

/// The protocol steps, in execution order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolStep {
    /// Step 1: Sparse-MSM commitments to the witness columns.
    WitnessCommit,
    /// Step 2: Gate Identity ZeroCheck.
    GateIdentity,
    /// Step 3: Wiring Identity (Construct N&D, FracMLE, ProdMLE, MSMs,
    /// PermCheck).
    WireIdentity,
    /// Step 4: Batch evaluations of the queried MLEs.
    BatchEvaluation,
    /// Step 5: Polynomial opening (MLE Combine, OpenCheck, halving MSMs).
    PolynomialOpening,
}

impl ProtocolStep {
    /// All steps in execution order.
    pub const ALL: [ProtocolStep; 5] = [
        ProtocolStep::WitnessCommit,
        ProtocolStep::GateIdentity,
        ProtocolStep::WireIdentity,
        ProtocolStep::BatchEvaluation,
        ProtocolStep::PolynomialOpening,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolStep::WitnessCommit => "Witness Commits",
            ProtocolStep::GateIdentity => "Gate Identity",
            ProtocolStep::WireIdentity => "Wire Identity",
            ProtocolStep::BatchEvaluation => "Batch Evals",
            ProtocolStep::PolynomialOpening => "Poly Open",
        }
    }
}

/// Wall-clock and operation-count measurements from one proving run.
#[derive(Clone, Debug, Default)]
pub struct ProverReport {
    /// Problem size `μ`.
    pub num_vars: usize,
    /// Seconds spent in each protocol step, indexed by [`ProtocolStep::ALL`].
    pub step_seconds: [f64; 5],
    /// Sparse-MSM statistics of the Witness Commit step (all three columns).
    pub witness_msm: SparseMsmStats,
    /// Dense-MSM statistics of the Wiring Identity step (`φ` and `π`).
    pub wiring_msm: MsmStats,
    /// MSM statistics of the Polynomial Opening step (halving MSMs).
    pub opening_msm: MsmStats,
    /// Number of SHA3 transcript invocations over the whole proof.
    pub transcript_hashes: u64,
}

impl ProverReport {
    /// Total proving time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.step_seconds.iter().sum()
    }

    /// Seconds spent in a given step.
    pub fn seconds(&self, step: ProtocolStep) -> f64 {
        let idx = ProtocolStep::ALL.iter().position(|s| *s == step).unwrap();
        self.step_seconds[idx]
    }
}

/// Errors returned by the prover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveError {
    /// The witness does not satisfy the circuit.
    UnsatisfiedWitness(SatisfactionError),
}

impl core::fmt::Display for ProveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProveError::UnsatisfiedWitness(e) => write!(f, "witness does not satisfy circuit: {e}"),
        }
    }
}

impl std::error::Error for ProveError {}

/// Proves that `witness` satisfies the circuit in `pk` on an explicit
/// execution backend.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] if the witness fails the
/// circuit's gate or wiring constraints.
pub fn prove_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
) -> Result<Proof, ProveError> {
    prove_with_report_on(pk, witness, backend).map(|(proof, _)| proof)
}

/// [`prove_on`], additionally returning per-step measurements.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] if the witness fails the
/// circuit's gate or wiring constraints.
pub fn prove_with_report_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
) -> Result<(Proof, ProverReport), ProveError> {
    prove_with_report_msm_on(pk, witness, backend, MsmConfig::default())
}

/// [`prove_with_report_on`] with an explicit MSM engine configuration for
/// every commitment and opening of the proof (witness commits, φ/π commits,
/// halving opening MSMs). Every configuration produces bit-identical proof
/// encodings; only the operation schedule (and therefore the report's
/// counters) differs.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] if the witness fails the
/// circuit's gate or wiring constraints.
pub fn prove_with_report_msm_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
) -> Result<(Proof, ProverReport), ProveError> {
    pk.circuit
        .check_witness(witness)
        .map_err(ProveError::UnsatisfiedWitness)?;
    Ok(prove_unchecked_msm_on(pk, witness, backend, msm))
}

/// Proves every witness in `witnesses` against the same proving key,
/// fanning the independent proofs out across the backend's worker pool.
///
/// All witnesses are validated up front; the proofs are returned in input
/// order and each is bit-identical to a [`prove_on`] run of the same
/// witness on any backend.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] for the first invalid witness
/// (no proving work is started in that case).
pub fn prove_batch_on(
    pk: &ProvingKey,
    witnesses: &[Witness],
    backend: &Arc<dyn Backend>,
) -> Result<Vec<Proof>, ProveError> {
    prove_batch_msm_on(pk, witnesses, backend, MsmConfig::default())
}

/// [`prove_batch_on`] with an explicit MSM engine configuration.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] for the first invalid witness
/// (no proving work is started in that case).
pub fn prove_batch_msm_on(
    pk: &ProvingKey,
    witnesses: &[Witness],
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
) -> Result<Vec<Proof>, ProveError> {
    Ok(
        prove_batch_with_reports_msm_on(pk, witnesses, backend, msm)?
            .into_iter()
            .map(|(proof, _)| proof)
            .collect(),
    )
}

/// [`prove_batch_msm_on`], additionally returning each proof's per-step
/// measurements — the proving service merges the reports' MSM statistics
/// into its metrics rollups. Proofs are bit-identical to the report-free
/// variant.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] for the first invalid witness
/// (no proving work is started in that case).
pub fn prove_batch_with_reports_msm_on(
    pk: &ProvingKey,
    witnesses: &[Witness],
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
) -> Result<Vec<(Proof, ProverReport)>, ProveError> {
    prove_batch_with_reports_traced_on(pk, witnesses, backend, msm, &TraceSink::disabled(), &[])
}

/// [`prove_batch_with_reports_msm_on`] with phase-level tracing: every
/// protocol step, SumCheck round and MSM pass of every proof records a span
/// into `trace`, tagged with the corresponding id from `job_ids` (pass an
/// empty slice to tag all proofs with job id 0). Tracing observes wall time
/// only — it never touches the transcript or the work schedule — so proofs
/// are bit-identical with tracing on or off.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] for the first invalid witness
/// (no proving work is started in that case).
///
/// # Panics
///
/// Panics if `job_ids` is non-empty and shorter than `witnesses`.
pub fn prove_batch_with_reports_traced_on(
    pk: &ProvingKey,
    witnesses: &[Witness],
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
    trace: &TraceSink,
    job_ids: &[u64],
) -> Result<Vec<(Proof, ProverReport)>, ProveError> {
    assert!(
        job_ids.is_empty() || job_ids.len() >= witnesses.len(),
        "job_ids must be empty or cover every witness"
    );
    let job_id = |i: usize| -> u64 { job_ids.get(i).copied().unwrap_or(0) };
    for witness in witnesses {
        pk.circuit
            .check_witness(witness)
            .map_err(ProveError::UnsatisfiedWitness)?;
    }
    if witnesses.len() <= 1 || backend.threads() == 1 {
        return Ok(witnesses
            .iter()
            .enumerate()
            .map(|(i, w)| prove_unchecked_traced_on(pk, w, backend, msm, trace, job_id(i)))
            .collect());
    }
    // One job per proof; each job still hands its inner MSM / SumCheck work
    // to the same pool, and the pool's helping scheduler keeps every thread
    // busy across proof boundaries. Modmul deltas are re-added in input
    // order so profiling counters match a serial batch.
    let job_pk = pk.clone();
    let job_witnesses = witnesses.to_vec();
    let job_tags: Vec<u64> = (0..witnesses.len()).map(job_id).collect();
    let job_trace = trace.clone();
    let inner = Arc::clone(backend);
    let proofs = pool::map_indices_on(&**backend, witnesses.len(), move |i| {
        zkspeed_field::measure_modmuls(|| {
            prove_unchecked_traced_on(
                &job_pk,
                &job_witnesses[i],
                &inner,
                msm,
                &job_trace,
                job_tags[i],
            )
        })
    });
    Ok(proofs
        .into_iter()
        .map(|(proved, muls)| {
            zkspeed_field::add_modmul_count(muls);
            proved
        })
        .collect())
}

/// Runs the prover without checking witness satisfiability first.
///
/// Used by soundness tests (an unsatisfied witness yields a proof the
/// verifier rejects) and by callers that have already validated the witness.
pub fn prove_unchecked_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
) -> (Proof, ProverReport) {
    prove_unchecked_msm_on(pk, witness, backend, MsmConfig::default())
}

/// [`prove_unchecked_on`] with an explicit MSM engine configuration.
pub fn prove_unchecked_msm_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
) -> (Proof, ProverReport) {
    prove_unchecked_traced_on(pk, witness, backend, msm, &TraceSink::disabled(), 0)
}

/// [`prove_unchecked_msm_on`] with phase-level tracing (see
/// [`prove_batch_with_reports_traced_on`] for the tracing contract).
pub fn prove_unchecked_traced_on(
    pk: &ProvingKey,
    witness: &Witness,
    backend: &Arc<dyn Backend>,
    msm: MsmConfig,
    trace: &TraceSink,
    job: u64,
) -> (Proof, ProverReport) {
    let mu = pk.circuit.num_vars();
    let mut report = ProverReport {
        num_vars: mu,
        ..ProverReport::default()
    };

    let mut transcript = Transcript::new(b"zkspeed-hyperplonk");
    crate::keys::bind_circuit_to_transcript(
        &mut transcript,
        mu,
        &pk.selector_commitments,
        &pk.sigma_commitments,
    );

    // ----- Step 1: Witness Commits (Sparse MSMs) -------------------------
    // The three column commitments are independent, so they fan out as one
    // job per column (each sparse MSM stays serial inside its job); results
    // are folded into the transcript in column order, so the proof is
    // bit-identical to a serial run.
    let t0 = Instant::now();
    let step_span = trace.span_with("witness-commit", "prove", &[("job", job)]);
    let job_srs = pk.srs.clone();
    let job_columns = witness.columns.clone();
    let job_tables = pk.commit_tables.clone();
    let job_trace = trace.clone();
    let column_commitments = pool::map_indices_on(&**backend, 3, move |j| {
        let _msm_span =
            job_trace.span_with("msm-witness", "msm", &[("job", job), ("column", j as u64)]);
        zkspeed_field::measure_modmuls(|| {
            commit_sparse_with_tables_on(
                &Serial,
                &job_srs,
                &job_columns[j],
                msm,
                job_tables.as_deref(),
            )
        })
    });
    let mut witness_commitments = Vec::with_capacity(3);
    for ((com, stats), muls) in column_commitments {
        zkspeed_field::add_modmul_count(muls);
        report.witness_msm.zeros += stats.zeros;
        report.witness_msm.ones += stats.ones;
        report.witness_msm.dense += stats.dense;
        report.witness_msm.ops.merge(&stats.ops);
        transcript.append_message(b"witness-commitment", &com.to_transcript_bytes());
        witness_commitments.push(com);
    }
    let witness_commitments = [
        witness_commitments[0],
        witness_commitments[1],
        witness_commitments[2],
    ];
    drop(step_span);
    report.step_seconds[0] = t0.elapsed().as_secs_f64();

    // ----- Step 2: Gate Identity (ZeroCheck) ------------------------------
    let t1 = Instant::now();
    let step_span = trace.span_with("gate-identity", "prove", &[("job", job)]);
    let f_gate = gate_polynomial(&pk.circuit, witness);
    let gate_out =
        prove_zerocheck_traced_on(&f_gate, &mut transcript, &**backend, trace, "gate-round");
    let gate_point = gate_out.sumcheck.point.clone();
    drop(step_span);
    report.step_seconds[1] = t1.elapsed().as_secs_f64();

    // ----- Step 3: Wiring Identity ----------------------------------------
    let t2 = Instant::now();
    let step_span = trace.span_with("wire-identity", "prove", &[("job", job)]);
    let beta = transcript.challenge_scalar(b"beta");
    let gamma = transcript.challenge_scalar(b"gamma");
    let sigmas = pk.circuit.sigma_mles();

    // Construct N & D: six intermediate MLEs plus their products.
    let nd_span = trace.span_with("construct-nd", "prove", &[("job", job)]);
    let (numerators, denominators) = construct_nd(witness, &sigmas, beta, gamma);
    let n_mle = numerators[0]
        .hadamard(&numerators[1])
        .hadamard(&numerators[2]);
    let d_mle = denominators[0]
        .hadamard(&denominators[1])
        .hadamard(&denominators[2]);
    drop(nd_span);

    // FracMLE and Product MLE.
    let frac_span = trace.span_with("frac-prod-mle", "prove", &[("job", job)]);
    let phi = fraction_mle(&n_mle, &d_mle);
    let pi = product_mle(&phi);
    drop(frac_span);

    // Commit φ and π (dense MSMs on the critical path): two independent
    // jobs, each splitting its windows over half the pool via the shared
    // helping scheduler.
    let job_srs = pk.srs.clone();
    let job_polys = [phi.clone(), pi.clone()];
    let job_tables = pk.commit_tables.clone();
    let job_trace = trace.clone();
    let inner = Arc::clone(backend);
    let wiring_commitments = pool::map_indices_on(&**backend, 2, move |j| {
        let _msm_span =
            job_trace.span_with("msm-wiring", "msm", &[("job", job), ("poly", j as u64)]);
        zkspeed_field::measure_modmuls(|| {
            commit_with_tables_on(&*inner, &job_srs, &job_polys[j], msm, job_tables.as_deref())
        })
    });
    let mut wiring_iter = wiring_commitments.into_iter();
    let ((phi_commitment, phi_stats), phi_muls) = wiring_iter.next().expect("two jobs");
    let ((pi_commitment, pi_stats), pi_muls) = wiring_iter.next().expect("two jobs");
    zkspeed_field::add_modmul_count(phi_muls);
    zkspeed_field::add_modmul_count(pi_muls);
    report.wiring_msm.merge(&phi_stats);
    report.wiring_msm.merge(&pi_stats);
    transcript.append_message(b"phi-commitment", &phi_commitment.to_transcript_bytes());
    transcript.append_message(b"pi-commitment", &pi_commitment.to_transcript_bytes());
    let alpha = transcript.challenge_scalar(b"alpha");

    // PermCheck ZeroCheck on Eq. (4).
    let f_perm = wiring_polynomial(&phi, &pi, &numerators, &denominators, alpha);
    let perm_out =
        prove_zerocheck_traced_on(&f_perm, &mut transcript, &**backend, trace, "perm-round");
    let perm_point = perm_out.sumcheck.point.clone();
    drop(step_span);
    report.step_seconds[2] = t2.elapsed().as_secs_f64();

    // ----- Step 4: Batch Evaluations ---------------------------------------
    let t3 = Instant::now();
    let step_span = trace.span_with("batch-evaluation", "prove", &[("job", job)]);
    let groups = query_groups(&gate_point, &perm_point);
    let resolve = |label: PolyLabel| -> &MultilinearPoly {
        match label {
            PolyLabel::QL => &pk.circuit.selectors()[0],
            PolyLabel::QR => &pk.circuit.selectors()[1],
            PolyLabel::QM => &pk.circuit.selectors()[2],
            PolyLabel::QO => &pk.circuit.selectors()[3],
            PolyLabel::QC => &pk.circuit.selectors()[4],
            PolyLabel::W1 => &witness.columns[0],
            PolyLabel::W2 => &witness.columns[1],
            PolyLabel::W3 => &witness.columns[2],
            PolyLabel::Sigma1 => &sigmas[0],
            PolyLabel::Sigma2 => &sigmas[1],
            PolyLabel::Sigma3 => &sigmas[2],
            PolyLabel::Phi => &phi,
            PolyLabel::Pi => &pi,
        }
    };
    // The Gate Identity SumCheck ended holding the first group's eight
    // evaluations and the Wiring Identity one φ and π at the second group's
    // point; only the rest are evaluated, one job per (group, label) pair.
    let gate_evals = &gate_out.sumcheck.mle_evaluations;
    let perm_evals = &perm_out.sumcheck.mle_evaluations;
    let mut known = Vec::new();
    let mut queries = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for (l, label) in group.labels.iter().enumerate() {
            known.push(match (g, label) {
                (0, _) => Some(gate_evals[l]),
                (1, PolyLabel::Phi) => Some(perm_evals[WIRING_PHI]),
                (1, PolyLabel::Pi) => Some(perm_evals[WIRING_PI]),
                _ => {
                    queries.push((resolve(*label).clone(), group.point.clone()));
                    None
                }
            });
        }
    }
    let evaluated = pool::map_indices_on(&**backend, queries.len(), move |i| {
        let (poly, point) = &queries[i];
        zkspeed_field::measure_modmuls(|| poly.evaluate(point))
    });
    let mut evaluated = evaluated.into_iter().map(|(value, muls)| {
        zkspeed_field::add_modmul_count(muls);
        value
    });
    let mut flat_iter = known
        .into_iter()
        .map(|k| k.unwrap_or_else(|| evaluated.next().expect("one job per open query")));
    let evaluations = BatchEvaluations {
        values: groups
            .iter()
            .map(|g| (&mut flat_iter).take(g.labels.len()).collect())
            .collect(),
    };
    transcript.append_scalars(b"batch-evaluations", &evaluations.flatten());
    drop(step_span);
    report.step_seconds[3] = t3.elapsed().as_secs_f64();

    // ----- Step 5: Polynomial Opening --------------------------------------
    let t4 = Instant::now();
    let step_span = trace.span_with("polynomial-opening", "prove", &[("job", job)]);
    // Per-group linear combinations (MLE Combine) of the queried MLEs. The
    // transcript challenges must be drawn serially in group order, but the
    // combinations themselves fan out one job per group.
    let combine_inputs: Vec<(Vec<Fr>, Vec<MultilinearPoly>)> = groups
        .iter()
        .map(|group| {
            let e = transcript.challenge_scalar(b"rlc-challenge");
            let coeffs = powers(e, group.labels.len());
            let polys: Vec<MultilinearPoly> =
                group.labels.iter().map(|l| resolve(*l).clone()).collect();
            (coeffs, polys)
        })
        .collect();
    let combined = pool::map_indices_on(&**backend, combine_inputs.len(), move |i| {
        let (coeffs, polys) = &combine_inputs[i];
        zkspeed_field::measure_modmuls(|| {
            let refs: Vec<&MultilinearPoly> = polys.iter().collect();
            MultilinearPoly::linear_combination(coeffs, &refs)
        })
    });
    let mut combined_polys = Vec::with_capacity(groups.len());
    for (poly, muls) in combined {
        zkspeed_field::add_modmul_count(muls);
        combined_polys.push(poly);
    }
    // OpenCheck: Σ_i cⁱ · yᵢ(x) · kᵢ(x) summed over the hypercube equals the
    // combined claimed evaluations.
    let c = transcript.challenge_scalar(b"opencheck-combine");
    let f_open = opening_polynomial(&groups, &combined_polys, c, &**backend);
    let open_out =
        sumcheck_prove_traced_on(&f_open, &mut transcript, &**backend, trace, "open-round");
    let rho = open_out.point.clone();

    // The claimed evaluations yᵢ(ρ) are where the OpenCheck left its tables.
    let combined_evaluations: Vec<Fr> = (0..groups.len())
        .map(|i| open_out.mle_evaluations[2 * i])
        .collect();
    transcript.append_scalars(b"combined-evaluations", &combined_evaluations);

    // Final combination g′ and its halving-MSM opening.
    let d = transcript.challenge_scalars(b"gprime-challenge", groups.len());
    let gprime =
        MultilinearPoly::linear_combination(&d, &combined_polys.iter().collect::<Vec<_>>());
    let (gprime_value, gprime_opening, open_stats) = {
        let _msm_span = trace.span_with("msm-opening", "msm", &[("job", job)]);
        open_with_tables_on(
            &**backend,
            &pk.srs,
            &gprime,
            &rho,
            msm,
            pk.commit_tables.as_deref(),
        )
    };
    report.opening_msm.merge(&open_stats);
    debug_assert_eq!(
        gprime_value,
        d.iter()
            .zip(combined_evaluations.iter())
            .map(|(di, yi)| *di * *yi)
            .sum::<Fr>()
    );
    drop(step_span);
    report.step_seconds[4] = t4.elapsed().as_secs_f64();
    report.transcript_hashes = transcript.hash_invocations();

    (
        Proof {
            witness_commitments,
            gate_zerocheck: gate_out.sumcheck.proof,
            phi_commitment,
            pi_commitment,
            perm_zerocheck: perm_out.sumcheck.proof,
            evaluations,
            opencheck: open_out.proof,
            combined_evaluations,
            gprime_opening,
        },
        report,
    )
}

/// The Gate Identity polynomial of Eq. (3), `q_L·w₁ + q_R·w₂ + q_M·w₁·w₂ −
/// q_O·w₃ + q_C`, its MLEs registered in the order of the first query
/// group's labels (`q_L … q_C, w₁ … w₃`).
pub(crate) fn gate_polynomial(circuit: &Circuit, witness: &Witness) -> VirtualPolynomial {
    let mut f = VirtualPolynomial::new(circuit.num_vars());
    let mut add = |m: &MultilinearPoly| f.add_mle(m.clone());
    let q: Vec<usize> = circuit.selectors().iter().map(&mut add).collect();
    let w: Vec<usize> = witness.columns.iter().map(&mut add).collect();
    f.add_term(Fr::one(), vec![q[0], w[0]]);
    f.add_term(Fr::one(), vec![q[1], w[1]]);
    f.add_term(Fr::one(), vec![q[2], w[0], w[1]]);
    f.add_term(-Fr::one(), vec![q[3], w[2]]);
    f.add_term(Fr::one(), vec![q[4]]);
    f
}

/// **Construct N & D**: the numerator tables `Nⱼ = wⱼ + β·idⱼ + γ` and the
/// denominator tables `Dⱼ = wⱼ + β·σⱼ + γ` of the three columns. With
/// `idⱼ(i) = j·n + i`, `β·idⱼ + γ` steps by `β` from entry to entry: the
/// numerators take no table of it and no multiplication per entry.
pub(crate) fn construct_nd(
    witness: &Witness,
    sigmas: &[MultilinearPoly; 3],
    beta: Fr,
    gamma: Fr,
) -> (Vec<MultilinearPoly>, Vec<MultilinearPoly>) {
    let numerator = |(j, w): (usize, &MultilinearPoly)| {
        let mut shift = beta * Fr::from_u64((j * w.len()) as u64) + gamma - beta;
        MultilinearPoly::from_fn(w.num_vars(), |i| {
            shift += beta;
            w[i] + shift
        })
    };
    let denominator = |(w, s): (&MultilinearPoly, &MultilinearPoly)| {
        MultilinearPoly::from_fn(w.num_vars(), |i| w[i] + beta * s[i] + gamma)
    };
    let columns = &witness.columns;
    let numerators = columns.iter().enumerate().map(numerator).collect();
    let denominators = columns.iter().zip(sigmas).map(denominator).collect();
    (numerators, denominators)
}

/// Where [`wiring_polynomial`] registers `π` and `φ`.
const WIRING_PI: usize = 0;
const WIRING_PHI: usize = 3;

/// The Wiring Identity polynomial of Eq. (4), `π − p₁·p₂ + α·(φ·D₁·D₂·D₃ −
/// N₁·N₂·N₃)`, its MLEs registered as `π, p₁, p₂, φ, D₁…D₃, N₁…N₃`.
pub(crate) fn wiring_polynomial(
    phi: &MultilinearPoly,
    pi: &MultilinearPoly,
    numerators: &[MultilinearPoly],
    denominators: &[MultilinearPoly],
    alpha: Fr,
) -> VirtualPolynomial {
    let (p1, p2) = split_even_odd(phi, pi);
    let mut f = VirtualPolynomial::new(phi.num_vars());
    let pi_idx = f.add_mle(pi.clone());
    let p1_idx = f.add_mle(p1);
    let p2_idx = f.add_mle(p2);
    let mut with_phi = vec![f.add_mle(phi.clone())];
    with_phi.extend(denominators.iter().map(|d| f.add_mle(d.clone())));
    let n_idx = numerators.iter().map(|n| f.add_mle(n.clone())).collect();
    f.add_term(Fr::one(), vec![pi_idx]);
    f.add_term(-Fr::one(), vec![p1_idx, p2_idx]);
    f.add_term(alpha, with_phi);
    f.add_term(-alpha, n_idx);
    f
}

/// The OpenCheck polynomial of Eq. (5), `Σᵢ cⁱ·yᵢ(x)·kᵢ(x)` with `kᵢ` the
/// `eq` table of group `i`'s point, registered as `y₀, k₀, y₁, k₁, …`: its
/// hypercube sum is the `c`-combination of the claimed evaluations.
pub(crate) fn opening_polynomial(
    groups: &[QueryGroup],
    combined: &[MultilinearPoly],
    c: Fr,
    backend: &dyn Backend,
) -> VirtualPolynomial {
    let mut f = VirtualPolynomial::new(combined[0].num_vars());
    for ((group, y), c_power) in groups.iter().zip(combined).zip(powers(c, groups.len())) {
        let y_idx = f.add_mle(y.clone());
        let k_idx = f.add_mle(MultilinearPoly::eq_mle_on(&group.point, backend));
        f.add_term(c_power, vec![y_idx, k_idx]);
    }
    f
}

/// Returns `[1, base, base², …]` with `count` entries.
pub(crate) fn powers(base: Fr, count: usize) -> Vec<Fr> {
    let mut out = Vec::with_capacity(count);
    let mut acc = Fr::one();
    for _ in 0..count {
        out.push(acc);
        acc *= base;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::try_preprocess;
    use crate::mock::{mock_circuit, SparsityProfile};
    use zkspeed_pcs::Srs;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0010)
    }

    fn backend() -> Arc<dyn Backend> {
        pool::ambient()
    }

    #[test]
    fn powers_helper() {
        let p = powers(Fr::from_u64(3), 4);
        assert_eq!(
            p,
            vec![
                Fr::one(),
                Fr::from_u64(3),
                Fr::from_u64(9),
                Fr::from_u64(27)
            ]
        );
        assert!(powers(Fr::one(), 0).is_empty());
    }

    #[test]
    fn prover_produces_well_formed_proof() {
        let mut r = rng();
        let mu = 4;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, _vk) = try_preprocess(circuit, &srs).expect("circuit fits");
        let (proof, report) =
            prove_with_report_on(&pk, &witness, &backend()).expect("valid witness");
        assert_eq!(proof.gate_zerocheck.num_rounds(), mu);
        assert_eq!(proof.perm_zerocheck.num_rounds(), mu);
        assert_eq!(proof.opencheck.num_rounds(), mu);
        assert_eq!(proof.evaluations.total(), 21);
        assert_eq!(proof.combined_evaluations.len(), 5);
        assert_eq!(proof.gprime_opening.size_in_points(), mu);
        assert!(proof.size_in_bytes() > 0);
        // Report sanity.
        assert_eq!(report.num_vars, mu);
        assert!(report.total_seconds() > 0.0);
        assert!(report.transcript_hashes > 0);
        assert_eq!(
            report.witness_msm.zeros + report.witness_msm.ones + report.witness_msm.dense,
            3 * (1 << mu)
        );
        assert!(report.seconds(ProtocolStep::WitnessCommit) >= 0.0);
    }

    #[test]
    fn unsatisfied_witness_is_rejected_by_prover() {
        let mut r = rng();
        let mu = 3;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, mut witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, _vk) = try_preprocess(circuit, &srs).expect("circuit fits");
        witness.columns[2].evaluations_mut()[1] += Fr::one();
        assert!(matches!(
            prove_on(&pk, &witness, &backend()),
            Err(ProveError::UnsatisfiedWitness(_))
        ));
        // prove_unchecked_on still produces a (bogus) proof object.
        let (proof, _) = prove_unchecked_on(&pk, &witness, &backend());
        assert_eq!(proof.gate_zerocheck.num_rounds(), mu);
    }

    #[test]
    fn batch_proving_matches_individual_proofs() {
        let mut r = rng();
        let mu = 4;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, _vk) = try_preprocess(circuit, &srs).expect("circuit fits");
        let witnesses = vec![witness.clone(), witness.clone(), witness];
        let batch = prove_batch_on(&pk, &witnesses, &backend()).expect("valid witnesses");
        assert_eq!(batch.len(), 3);
        let single = prove_on(&pk, &witnesses[0], &backend()).expect("valid witness");
        for proof in &batch {
            assert_eq!(*proof, single, "batch proofs must match individual runs");
        }
        // An invalid witness anywhere in the batch fails the whole call.
        let mut bad = witnesses.clone();
        bad[1].columns[2].evaluations_mut()[0] += Fr::one();
        assert!(matches!(
            prove_batch_on(&pk, &bad, &backend()),
            Err(ProveError::UnsatisfiedWitness(_))
        ));
    }

    #[test]
    fn msm_configs_produce_identical_proofs() {
        let mut r = rng();
        let mu = 4;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, _vk) = try_preprocess(circuit, &srs).expect("circuit fits");
        let (reference, _) = prove_with_report_msm_on(
            &pk,
            &witness,
            &backend(),
            zkspeed_curve::MsmConfig::classic(),
        )
        .expect("valid witness");
        let (optimized, _) = prove_with_report_msm_on(
            &pk,
            &witness,
            &backend(),
            zkspeed_curve::MsmConfig::optimized(),
        )
        .expect("valid witness");
        assert_eq!(optimized, reference);
    }

    #[test]
    fn tracing_produces_byte_identical_proofs() {
        let mut r = rng();
        let mu = 4;
        let srs = Srs::setup(mu, &mut r);
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let (pk, _vk) = try_preprocess(circuit, &srs).expect("circuit fits");
        let witnesses = vec![witness.clone(), witness];
        let plain = prove_batch_with_reports_msm_on(
            &pk,
            &witnesses,
            &backend(),
            zkspeed_curve::MsmConfig::default(),
        )
        .expect("valid witnesses");
        let sink = zkspeed_rt::trace::TraceSink::enabled();
        let traced = prove_batch_with_reports_traced_on(
            &pk,
            &witnesses,
            &backend(),
            zkspeed_curve::MsmConfig::default(),
            &sink,
            &[41, 42],
        )
        .expect("valid witnesses");
        for ((p, _), (t, _)) in plain.iter().zip(traced.iter()) {
            assert_eq!(
                p.to_bytes(),
                t.to_bytes(),
                "tracing must not perturb the proof"
            );
        }
        // The recording actually covers the span tree: protocol steps,
        // sumcheck rounds and MSM passes, tagged with the job ids.
        let events: Vec<_> = sink.threads().into_iter().flat_map(|t| t.events).collect();
        for name in [
            "witness-commit",
            "gate-identity",
            "wire-identity",
            "batch-evaluation",
            "polynomial-opening",
            "gate-round",
            "perm-round",
            "open-round",
            "msm-witness",
            "msm-wiring",
            "msm-opening",
        ] {
            assert!(events.iter().any(|e| e.name == name), "missing span {name}");
        }
        assert!(events
            .iter()
            .any(|e| e.args.as_slice().contains(&("job", 42))));
    }

    #[test]
    fn step_names_are_stable() {
        assert_eq!(ProtocolStep::ALL.len(), 5);
        assert_eq!(ProtocolStep::WitnessCommit.name(), "Witness Commits");
        assert_eq!(ProtocolStep::PolynomialOpening.name(), "Poly Open");
    }
}
