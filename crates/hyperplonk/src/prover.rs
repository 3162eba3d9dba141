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
//! Steps 2 and 3 prove the identities [`crate::constraints`] declares, over
//! polynomials built from those declarations.
//!
//! Each table of `2^μ` Fr the prover builds lives as long as a later step
//! reads it (the key's and the witness's tables are the caller's). A
//! SumCheck takes its polynomial, so a table only the polynomial holds is
//! folded in place and dies inside it:
//!
//! | Tables | Built in step | Die |
//! |---|---|---|
//! | halves of the selector and witness tables (first fold) | 2 | with the Gate Identity ZeroCheck |
//! | σ₁…σ₃ | 3 | after MLE Combine |
//! | D₁…D₃ | 3 | with the PermCheck |
//! | `N₁·N₂·N₃` and `D₁·D₂·D₃` | 3 | once φ is built |
//! | φ, π | 3 | after MLE Combine |
//! | N₁…N₃ (after the φ/π commitments), p₁, p₂ | 3 | with the PermCheck |
//! | the combined `yᵢ`, one per query group | 5 | once g′ is built |
//! | the OpenCheck's `eq` tables `kᵢ` | 5 | with the OpenCheck |
//! | g′ | 5 | with the opening |
//!
//! [`prove`] returns wall-clock and operation-count measurements per step
//! with every proof; these calibrate the CPU baseline model used by the
//! accelerator's design-space exploration. Where the work runs and where its
//! spans go is the caller's [`ExecCtx`].

use std::sync::Arc;
use std::time::Instant;

use zkspeed_curve::{MsmStats, SparseMsmStats};
use zkspeed_field::Fr;
use zkspeed_pcs::{commit, commit_sparse, open};
use zkspeed_poly::{fraction_mle, product_mle, split_even_odd, MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::pool::{self, Backend, Serial};
use zkspeed_rt::trace::TraceSink;
use zkspeed_sumcheck::{prove as sumcheck_prove, prove_zerocheck};
use zkspeed_transcript::Transcript;

use crate::circuit::{SatisfactionError, Witness};
use crate::constraints::{wiring_factor, GATE, WIRING};
use crate::keys::ProvingKey;
use crate::proof::{query_groups, BatchEvaluations, PolyLabel, Proof, QueryGroup};

/// Per-round degree of the Gate Identity ZeroCheck round polynomials (4).
pub const GATE_SUMCHECK_DEGREE: usize = GATE.zerocheck_degree();
/// Per-round degree of the Wiring Identity ZeroCheck round polynomials (5).
pub const PERM_SUMCHECK_DEGREE: usize = WIRING.zerocheck_degree();
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

/// Where and how one proving call runs: the backend its parallel work fans
/// out over, the sink its spans go to, and the job id they carry. None of
/// the three changes a byte of the proof.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// The execution backend every MSM, SumCheck round and batch fan-out of
    /// the call runs on.
    pub backend: Arc<dyn Backend>,
    /// Receives a span per protocol step, SumCheck round and MSM pass.
    pub trace: TraceSink,
    /// The job id the spans carry.
    pub job: u64,
}

impl Default for ExecCtx {
    /// [`Serial`], a disabled sink, job 0.
    fn default() -> Self {
        Self {
            backend: Arc::new(Serial),
            trace: TraceSink::disabled(),
            job: 0,
        }
    }
}

/// Proves that `witness` satisfies the circuit in `pk`, returning the proof
/// and per-step measurements.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] if the witness fails the
/// circuit's gate or wiring constraints.
pub fn prove(
    pk: &ProvingKey,
    witness: &Witness,
    ctx: &ExecCtx,
) -> Result<(Proof, ProverReport), ProveError> {
    pk.circuit
        .check_witness(witness)
        .map_err(ProveError::UnsatisfiedWitness)?;
    Ok(prove_unchecked(pk, witness, ctx))
}

/// Proves every witness of `batch` against the same proving key, fanning
/// the independent proofs out across `ctx.backend`; each proof's spans
/// carry the job id it is paired with (in place of `ctx.job`).
///
/// All witnesses are validated up front; the proofs are returned in input
/// order and each is bit-identical to a [`prove`] of the same witness on
/// any backend.
///
/// # Errors
///
/// Returns [`ProveError::UnsatisfiedWitness`] for the first invalid witness
/// (no proving work is started in that case).
pub fn prove_batch(
    pk: &ProvingKey,
    batch: &[(u64, Witness)],
    ctx: &ExecCtx,
) -> Result<Vec<(Proof, ProverReport)>, ProveError> {
    for (_, witness) in batch {
        pk.circuit
            .check_witness(witness)
            .map_err(ProveError::UnsatisfiedWitness)?;
    }
    let job_ctx = move |job| ExecCtx { job, ..ctx.clone() };
    if batch.len() <= 1 || ctx.backend.threads() == 1 {
        return Ok(batch
            .iter()
            .map(|(job, w)| prove_unchecked(pk, w, &job_ctx(*job)))
            .collect());
    }
    // One job per proof; each job still hands its inner MSM / SumCheck work
    // to the same pool, and the pool's helping scheduler keeps every thread
    // busy across proof boundaries. Modmul deltas are re-added in input
    // order so profiling counters match a serial batch.
    let job_pk = pk.clone();
    let jobs: Vec<(ExecCtx, Witness)> = batch
        .iter()
        .map(|(job, w)| (job_ctx(*job), w.clone()))
        .collect();
    let proofs = pool::map_indices_on(&*ctx.backend, batch.len(), move |i| {
        let (ctx, witness) = &jobs[i];
        zkspeed_field::measure_modmuls(|| prove_unchecked(&job_pk, witness, ctx))
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
pub fn prove_unchecked(pk: &ProvingKey, witness: &Witness, ctx: &ExecCtx) -> (Proof, ProverReport) {
    let (backend, trace, job) = (&ctx.backend, &ctx.trace, ctx.job);
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
            commit_sparse(&Serial, &job_srs, &job_columns[j], job_tables.as_deref())
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
    // The committed tables, indexed by `PolyLabel as usize`: the labels'
    // declaration order (σ, φ and π join in step 3).
    let mut committed: Vec<&MultilinearPoly> = pk
        .circuit
        .selectors()
        .iter()
        .chain(&witness.columns)
        .collect();
    let table = |label: PolyLabel| committed[label as usize].clone();
    let f_gate = GATE.polynomial(mu, Fr::zero(), table, []);
    let gate_out = prove_zerocheck(f_gate, &mut transcript, &**backend, trace, "gate-round");
    let gate_point = gate_out.sumcheck.point.clone();
    drop(step_span);
    report.step_seconds[1] = t1.elapsed().as_secs_f64();

    // ----- Step 3: Wiring Identity ----------------------------------------
    let t2 = Instant::now();
    let step_span = trace.span_with("wire-identity", "prove", &[("job", job)]);
    let beta = transcript.challenge_scalar(b"beta");
    let gamma = transcript.challenge_scalar(b"gamma");
    let sigmas = pk.circuit.sigma_mles();

    // Construct N & D: the D tables, and the products of the N and of the D
    // tables. The N tables themselves wait until φ and π are committed.
    let nd_span = trace.span_with("construct-nd", "prove", &[("job", job)]);
    let numerators = Numerators::new(mu, beta, gamma);
    let denominators = denominators(witness, &sigmas, beta, gamma);
    let n_mle = numerators.product(witness);
    let d_mle = entrywise_product(&denominators);
    drop(nd_span);

    // FracMLE and Product MLE; the products die once φ is built.
    let frac_span = trace.span_with("frac-prod-mle", "prove", &[("job", job)]);
    let phi = fraction_mle(&n_mle, &d_mle);
    drop((n_mle, d_mle));
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
            commit(&*inner, &job_srs, &job_polys[j], job_tables.as_deref())
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

    // PermCheck ZeroCheck on Eq. (4). N (rebuilt from the kept shifts by
    // additions alone), D, p₁ and p₂ move into it and die with it.
    committed.extend(sigmas.iter().chain([&phi, &pi]));
    let table = |label: PolyLabel| committed[label as usize].clone();
    let (p1, p2) = split_even_odd(&phi, &pi);
    let derived = (numerators.tables(witness).into_iter()).chain(denominators);
    let f_perm = WIRING.polynomial(mu, alpha, table, derived.chain([p1, p2]));
    let perm_out = prove_zerocheck(f_perm, &mut transcript, &**backend, trace, "perm-round");
    let perm_point = perm_out.sumcheck.point.clone();
    drop(step_span);
    report.step_seconds[2] = t2.elapsed().as_secs_f64();

    // ----- Step 4: Batch Evaluations ---------------------------------------
    let t3 = Instant::now();
    let step_span = trace.span_with("batch-evaluation", "prove", &[("job", job)]);
    let groups = query_groups(&gate_point, &perm_point);
    let resolve = |label: PolyLabel| committed[label as usize];
    // The two ZeroChecks ended holding their identities' tables at the
    // first two groups' points; only the rest are evaluated, one job per
    // (group, label) pair.
    let gate_evals = &gate_out.sumcheck.mle_evaluations;
    let perm_evals = &perm_out.sumcheck.mle_evaluations;
    let mut known = Vec::new();
    let mut queries = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for label in &group.labels {
            let registered = match g {
                0 => GATE.position(*label).map(|i| gate_evals[i]),
                1 => WIRING.position(*label).map(|i| perm_evals[i]),
                _ => None,
            };
            if registered.is_none() {
                queries.push((resolve(*label).clone(), group.point.clone()));
            }
            known.push(registered);
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
    // No later step reads σ, φ or π.
    drop((sigmas, phi, pi));
    // OpenCheck: Σ_i cⁱ · yᵢ(x) · kᵢ(x) summed over the hypercube equals the
    // combined claimed evaluations. Its `eq` tables fold in place and die
    // inside it.
    let c = transcript.challenge_scalar(b"opencheck-combine");
    let f_open = opening_polynomial(&groups, &combined_polys, c, &**backend);
    let open_out = sumcheck_prove(f_open, &mut transcript, &**backend, trace, "open-round");
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
    drop(combined_polys);
    let (gprime_value, gprime_opening, open_stats) = {
        let _msm_span = trace.span_with("msm-opening", "msm", &[("job", job)]);
        open(
            &**backend,
            &pk.srs,
            &gprime,
            &rho,
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

/// **Construct N & D**, numerator half: `Nⱼ = wⱼ + β·idⱼ + γ`. With
/// `idⱼ(i) = j·n + i`, `β·idⱼ + γ` steps by `β` from entry to entry, so a
/// numerator takes one multiplication for its starting shift and additions
/// after it. The starting shifts are kept: the product `N₁·N₂·N₃` is built
/// without the tables, and the tables later, at no multiplication.
pub(crate) struct Numerators {
    beta: Fr,
    /// `β·(j·n − 1) + γ`, the shift before column `j`'s first entry.
    starts: [Fr; 3],
}

impl Numerators {
    pub(crate) fn new(num_vars: usize, beta: Fr, gamma: Fr) -> Self {
        let n = 1usize << num_vars;
        let starts = [0, 1, 2].map(|j| beta * Fr::from_u64((j * n) as u64) + gamma - beta);
        Self { beta, starts }
    }

    /// `Nⱼ[i]` for `i = 0, 1, …`, read off `wⱼ`.
    fn column<'a>(&self, witness: &'a Witness, j: usize) -> impl Iterator<Item = Fr> + 'a {
        let beta = self.beta;
        let mut shift = self.starts[j];
        witness.columns[j].evaluations().iter().map(move |w| {
            shift += beta;
            *w + shift
        })
    }

    /// The tables `N₁, N₂, N₃`.
    pub(crate) fn tables(&self, witness: &Witness) -> [MultilinearPoly; 3] {
        [0, 1, 2].map(|j| MultilinearPoly::new(self.column(witness, j).collect()))
    }

    /// `N₁·N₂·N₃`, entry by entry, with no table of the factors.
    pub(crate) fn product(&self, witness: &Witness) -> MultilinearPoly {
        let columns = self
            .column(witness, 0)
            .zip(self.column(witness, 1))
            .zip(self.column(witness, 2));
        MultilinearPoly::new(columns.map(|((a, b), c)| a * b * c).collect())
    }
}

/// **Construct N & D**, denominator half: `Dⱼ = wⱼ + β·σⱼ + γ`
/// ([`wiring_factor`]).
pub(crate) fn denominators(
    witness: &Witness,
    sigmas: &[MultilinearPoly; 3],
    beta: Fr,
    gamma: Fr,
) -> [MultilinearPoly; 3] {
    [0, 1, 2].map(|j| {
        let (w, s) = (&witness.columns[j], &sigmas[j]);
        MultilinearPoly::from_fn(w.num_vars(), |i| wiring_factor(w[i], beta, s[i], gamma))
    })
}

/// `t₁·t₂·t₃`, entry by entry.
pub(crate) fn entrywise_product([t1, t2, t3]: &[MultilinearPoly; 3]) -> MultilinearPoly {
    MultilinearPoly::from_fn(t1.num_vars(), |i| t1[i] * t2[i] * t3[i])
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
        let k_idx = f.add_mle(MultilinearPoly::eq_mle(&group.point, backend));
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
    use zkspeed_rt::pool::ThreadPool;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0010)
    }

    /// A key and a satisfying witness at `mu` variables.
    fn session(mu: usize) -> (ProvingKey, Witness) {
        let mut r = rng();
        let srs = Srs::try_setup(mu, &mut r, &Serial).unwrap();
        let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
        let budget = zkspeed_pcs::PrecomputeBudget::disabled();
        let (pk, _vk) = try_preprocess(circuit, &srs, &Serial, &budget).expect("circuit fits");
        (pk, witness)
    }

    /// A pool wide enough that a batch fans out.
    fn pooled() -> ExecCtx {
        ExecCtx {
            backend: Arc::new(ThreadPool::new(2)),
            ..ExecCtx::default()
        }
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
        let mu = 4;
        let (pk, witness) = session(mu);
        let (proof, report) = prove(&pk, &witness, &ExecCtx::default()).expect("valid witness");
        assert_eq!(proof.gate_zerocheck.num_rounds(), mu);
        assert_eq!(proof.perm_zerocheck.num_rounds(), mu);
        assert_eq!(proof.opencheck.num_rounds(), mu);
        assert_eq!(proof.evaluations.total(), 21);
        assert_eq!(proof.combined_evaluations.len(), 5);
        assert_eq!(proof.gprime_opening.quotients.len(), mu);
        assert!(!proof.to_bytes().is_empty());
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
        let mu = 3;
        let (pk, mut witness) = session(mu);
        witness.columns[2].evaluations_mut()[1] += Fr::one();
        let ctx = ExecCtx::default();
        assert!(matches!(
            prove(&pk, &witness, &ctx),
            Err(ProveError::UnsatisfiedWitness(_))
        ));
        // prove_unchecked still produces a (bogus) proof object.
        let (proof, _) = prove_unchecked(&pk, &witness, &ctx);
        assert_eq!(proof.gate_zerocheck.num_rounds(), mu);
    }

    #[test]
    fn batch_proving_matches_individual_proofs() {
        let (pk, witness) = session(4);
        let batch: Vec<(u64, Witness)> = (0..3).map(|job| (job, witness.clone())).collect();
        let proofs = prove_batch(&pk, &batch, &pooled()).expect("valid witnesses");
        assert_eq!(proofs.len(), 3);
        let (single, _) = prove(&pk, &witness, &ExecCtx::default()).expect("valid witness");
        for (proof, _) in &proofs {
            assert_eq!(*proof, single, "batch proofs must match individual runs");
        }
        // An invalid witness anywhere in the batch fails the whole call.
        let mut bad = batch.clone();
        bad[1].1.columns[2].evaluations_mut()[0] += Fr::one();
        assert!(matches!(
            prove_batch(&pk, &bad, &pooled()),
            Err(ProveError::UnsatisfiedWitness(_))
        ));
    }

    #[test]
    fn tracing_produces_byte_identical_proofs() {
        let (pk, witness) = session(4);
        let batch = vec![(41, witness.clone()), (42, witness)];
        let plain = prove_batch(&pk, &batch, &pooled()).expect("valid witnesses");
        let sink = TraceSink::enabled();
        let traced_ctx = ExecCtx {
            trace: sink.clone(),
            ..pooled()
        };
        let traced = prove_batch(&pk, &batch, &traced_ctx).expect("valid witnesses");
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
