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
//! | the shift table `S` (three tables' worth) | 3 | once `N₁·N₂·N₃` and `D₁·D₂·D₃` are built |
//! | `N₁·N₂·N₃` and `D₁·D₂·D₃` | 3 | once φ is built |
//! | φ, π | 3 | after MLE Combine |
//! | `S` again (after the φ/π commitments) | 3 | once N₁…N₃ and D₁…D₃ are built |
//! | N₁…N₃, D₁…D₃, p₁, p₂ | 3 | with the PermCheck |
//! | the table `S[k] = k` (three tables' worth) | 4 | once σ₁…σ₃ are built |
//! | σ₁…σ₃ | 4 | after MLE Combine |
//! | the combined `yᵢ`, one per query group | 5 | once g′ is built |
//! | the OpenCheck's `eq` tables `kᵢ` | 5 | with the OpenCheck |
//! | g′ | 5 | with the opening |
//!
//! Each step is a [`ProtocolStep`], named once in [`ProtocolStep::TABLE`]:
//! a display name, a trace span name and a metrics key. [`prove`] opens,
//! closes and times every step through that table, and returns wall-clock
//! and operation-count measurements per step with every proof; the
//! service's `PhaseHistograms` and `MsmRollup`, `table1_profile`, the chip
//! model and `zkbench` read them by step. Where the work runs and where its
//! spans go is the caller's [`ExecCtx`].

use std::sync::Arc;
use std::time::Instant;

use zkspeed_curve::{MsmStats, SparseMsmStats};
use zkspeed_field::{modmul_count, Fr};
use zkspeed_pcs::{commit, commit_sparse, open};
use zkspeed_poly::{fraction_mle, product_mle, split_even_odd, MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::pool::{self, Backend, Serial};
use zkspeed_rt::trace::{Span, TraceSink};
use zkspeed_sumcheck::{prove as sumcheck_prove, prove_zerocheck};
use zkspeed_transcript::Transcript;

use crate::circuit::{SatisfactionError, Witness};
use crate::constraints::{Shifts, GATE, WIRING};
use crate::keys::ProvingKey;
use crate::proof::{query_groups, BatchEvaluations, PolyLabel, Proof, QueryGroup};

/// Per-round degree of the Gate Identity ZeroCheck round polynomials (4).
pub const GATE_SUMCHECK_DEGREE: usize = GATE.zerocheck_degree();
/// Per-round degree of the Wiring Identity ZeroCheck round polynomials (5).
pub const PERM_SUMCHECK_DEGREE: usize = WIRING.zerocheck_degree();
/// Per-round degree of the OpenCheck polynomial (Eq. 5): `yᵢ·kᵢ` has degree 2.
pub const OPENCHECK_DEGREE: usize = 2;

/// The protocol steps, in execution order. Each is named once, in
/// [`ProtocolStep::TABLE`], for all three of its readers: the figures
/// print its display name, `prove` opens its trace span and the service's
/// metrics document keys its histogram.
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

    /// Per step, in [`Self::ALL`] order: its display name, its trace span
    /// name and its metrics key.
    pub const TABLE: [[&'static str; 3]; 5] = [
        ["Witness Commits", "witness-commit", "witness_commit"],
        ["Gate Identity", "gate-identity", "gate_identity"],
        ["Wire Identity", "wire-identity", "wire_identity"],
        ["Batch Evals", "batch-evaluation", "batch_evaluation"],
        ["Poly Open", "polynomial-opening", "polynomial_opening"],
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize][0]
    }

    /// The name of the trace span [`prove`] opens around the step.
    pub fn span(self) -> &'static str {
        Self::TABLE[self as usize][1]
    }

    /// The step's key in the service's metrics document.
    pub fn key(self) -> &'static str {
        Self::TABLE[self as usize][2]
    }
}

// Per-step values are indexed by step: `step_seconds[ProtocolStep::GateIdentity]`.
zkspeed_rt::impl_index_by!(ProtocolStep, 5);

/// Wall-clock and operation-count measurements from one proving run.
#[derive(Clone, Debug, Default)]
pub struct ProverReport {
    /// Problem size `μ`.
    pub num_vars: usize,
    /// Seconds spent in each protocol step, in [`ProtocolStep::ALL`] order
    /// (`step_seconds[step]` reads one).
    pub step_seconds: [f64; 5],
    /// Sparse-MSM statistics of the Witness Commit step (all three columns).
    pub witness_msm: SparseMsmStats,
    /// Dense-MSM statistics of the Wiring Identity step (`φ` and `π`).
    pub wiring_msm: MsmStats,
    /// MSM statistics of the Polynomial Opening step (halving MSMs).
    pub opening_msm: MsmStats,
    /// Number of SHA3 transcript invocations over the whole proof.
    pub transcript_hashes: u64,
    /// The proof's modmuls by Table 1 kernel, the three MSM rows first and
    /// the MLE Updates last. What no row holds is the opening's folds, the transcript's
    /// reductions and the normalisation of the commitments it absorbs.
    pub kernels: [KernelRow; 12],
}

/// One Table 1 kernel as a proof ran it: its modular multiplications and
/// the tables of `2^μ` entries it moved. A SumCheck reads each of its
/// tables at `2^μ + 2^{μ−1} + …` entries, so it counts two reads a table.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelRow {
    /// The paper's row label.
    pub kernel: &'static str,
    /// Modular multiplications, 255- and 381-bit.
    pub modmuls: u64,
    /// Tables of `2^μ` Fr read.
    pub reads: u32,
    /// Tables of `2^μ` Fr written.
    pub writes: u32,
    /// Tables of `2^μ` G1 bases read: one for each MSM row.
    pub bases: u32,
}

impl ProverReport {
    /// Total proving time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.step_seconds.iter().sum()
    }

    /// Seconds spent in a given step.
    pub fn seconds(&self, step: ProtocolStep) -> f64 {
        self.step_seconds[step]
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
    // busy across proof boundaries.
    let job_pk = pk.clone();
    let jobs: Vec<(ExecCtx, Witness)> = batch
        .iter()
        .map(|(job, w)| (job_ctx(*job), w.clone()))
        .collect();
    Ok(pool::map_indices_on(&*ctx.backend, batch.len(), move |i| {
        let (ctx, witness) = &jobs[i];
        prove_unchecked(&job_pk, witness, ctx)
    }))
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

    let mut steps = Steps {
        trace,
        job,
        seconds: [0.0; 5],
        running: None,
    };

    steps.start(ProtocolStep::WitnessCommit);
    // The three column commitments are independent, so they fan out as one
    // job per column (each sparse MSM stays serial inside its job); results
    // are folded into the transcript in column order, so the proof is
    // bit-identical to a serial run.
    let job_srs = pk.srs.clone();
    let job_columns = witness.columns.clone();
    let job_tables = pk.commit_tables.clone();
    let job_trace = trace.clone();
    let before = modmul_count();
    let column_commitments = pool::map_indices_on(&**backend, 3, move |j| {
        let _msm_span =
            job_trace.span_with("msm-witness", "msm", &[("job", job), ("column", j as u64)]);
        commit_sparse(&Serial, &job_srs, &job_columns[j], job_tables.as_deref())
    });
    let witness_msm_fq = modmul_count().since(&before).fq;
    let mut witness_commitments = Vec::with_capacity(3);
    for (com, stats) in column_commitments {
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

    steps.start(ProtocolStep::GateIdentity);
    // The committed tables, indexed by `PolyLabel as usize`: the labels'
    // declaration order (σ, φ and π join in step 3).
    let mut committed: Vec<&MultilinearPoly> = pk
        .circuit
        .selectors()
        .iter()
        .chain(&witness.columns)
        .collect();
    let table = |label: PolyLabel| committed[label as usize].clone();
    let before = modmul_count();
    let f_gate = GATE.polynomial(mu, Fr::zero(), table, []);
    let gate_out = prove_zerocheck(f_gate, &mut transcript, &**backend, trace, "gate-round");
    let gate_rounds = modmul_count().since(&before).total() - gate_out.sumcheck.update_modmuls;
    let gate_point = gate_out.sumcheck.point.clone();

    steps.start(ProtocolStep::WireIdentity);
    let beta = transcript.challenge_scalar(b"beta");
    let gamma = transcript.challenge_scalar(b"gamma");

    // Construct N & D: the products of the N and of the D tables, read off
    // the witness and a shift table that dies with this statement. The N
    // and D tables themselves wait until φ and π are committed.
    let nd_span = trace.span_with("construct-nd", "prove", &[("job", job)]);
    let before = modmul_count();
    let [n_mle, d_mle] = Shifts::new(mu, beta, gamma).products(witness, &pk.circuit);
    let mut nd_muls = modmul_count().since(&before).total();
    drop(nd_span);

    // FracMLE and Product MLE; the products die once φ is built.
    let frac_span = trace.span_with("frac-prod-mle", "prove", &[("job", job)]);
    let before = modmul_count();
    let phi = fraction_mle(&n_mle, &d_mle);
    drop((n_mle, d_mle));
    let before_pi = modmul_count();
    let pi = product_mle(&phi);
    let frac_muls = before_pi.since(&before).total();
    let prod_muls = modmul_count().since(&before_pi).total();
    drop(frac_span);

    // Commit φ and π (dense MSMs on the critical path): two independent
    // jobs, each splitting its windows over half the pool via the shared
    // helping scheduler.
    let job_srs = pk.srs.clone();
    let job_polys = [phi.clone(), pi.clone()];
    let job_tables = pk.commit_tables.clone();
    let job_trace = trace.clone();
    let inner = Arc::clone(backend);
    let before = modmul_count();
    let wiring_commitments = pool::map_indices_on(&**backend, 2, move |j| {
        let _msm_span =
            job_trace.span_with("msm-wiring", "msm", &[("job", job), ("poly", j as u64)]);
        commit(&*inner, &job_srs, &job_polys[j], job_tables.as_deref())
    });
    let wiring_msm_fq = modmul_count().since(&before).fq;
    let [(phi_commitment, phi_stats), (pi_commitment, pi_stats)] =
        <[_; 2]>::try_from(wiring_commitments).expect("two jobs");
    report.wiring_msm.merge(&phi_stats);
    report.wiring_msm.merge(&pi_stats);
    transcript.append_message(b"phi-commitment", &phi_commitment.to_transcript_bytes());
    transcript.append_message(b"pi-commitment", &pi_commitment.to_transcript_bytes());
    let alpha = transcript.challenge_scalar(b"alpha");

    // PermCheck ZeroCheck on Eq. (4). N and D, rebuilt from a new shift
    // table by additions alone, p₁ and p₂ move into it and die with it.
    let table = |label: PolyLabel| match label {
        PolyLabel::Phi => phi.clone(),
        PolyLabel::Pi => pi.clone(),
        _ => committed[label as usize].clone(),
    };
    let before = modmul_count();
    let factors = Shifts::new(mu, beta, gamma).tables(witness, &pk.circuit);
    nd_muls += modmul_count().since(&before).total();
    let before = modmul_count();
    let (p1, p2) = split_even_odd(&phi, &pi);
    let derived = factors.into_iter().chain([p1, p2]);
    let f_perm = WIRING.polynomial(mu, alpha, table, derived);
    let perm_out = prove_zerocheck(f_perm, &mut transcript, &**backend, trace, "perm-round");
    let perm_rounds = modmul_count().since(&before).total() - perm_out.sumcheck.update_modmuls;
    let perm_point = perm_out.sumcheck.point.clone();

    steps.start(ProtocolStep::BatchEvaluation);
    let before = modmul_count();
    // Only this step's evaluations and MLE Combine read σ.
    let sigmas = pk.circuit.sigma_mles();
    committed.extend(sigmas.iter().chain([&phi, &pi]));
    let groups = query_groups(&gate_point, &perm_point);
    let resolve = |label: PolyLabel| committed[label as usize];
    // Only what neither ZeroCheck returned is evaluated, one job per
    // (group, label) pair.
    let returned = [
        &gate_out.sumcheck.mle_evaluations,
        &perm_out.sumcheck.mle_evaluations,
    ];
    let mut known = Vec::new();
    let mut queries = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for label in &group.labels {
            let registered = zerocheck_position(g, *label).map(|i| returned[g][i]);
            if registered.is_none() {
                queries.push((resolve(*label).clone(), group.point.clone()));
            }
            known.push(registered);
        }
    }
    let num_queries = queries.len() as u32;
    let evaluated = pool::map_indices_on(&**backend, queries.len(), move |i| {
        let (poly, point) = &queries[i];
        poly.evaluate(point)
    });
    let mut evaluated = evaluated.into_iter();
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
    let batch_muls = modmul_count().since(&before).total();

    steps.start(ProtocolStep::PolynomialOpening);
    // Per-group linear combinations (MLE Combine) of the queried MLEs. The
    // transcript challenges must be drawn serially in group order, but the
    // combinations themselves, their powers included, fan out one job per
    // group.
    let combine_inputs: Vec<(Fr, Vec<MultilinearPoly>)> = groups
        .iter()
        .map(|group| {
            let e = transcript.challenge_scalar(b"rlc-challenge");
            (
                e,
                group.labels.iter().map(|l| resolve(*l).clone()).collect(),
            )
        })
        .collect();
    let before = modmul_count();
    let combined_polys = pool::map_indices_on(&**backend, combine_inputs.len(), move |i| {
        let (e, polys) = &combine_inputs[i];
        let refs: Vec<&MultilinearPoly> = polys.iter().collect();
        MultilinearPoly::linear_combination(&powers(*e, polys.len()), &refs)
    });
    let mut combine_muls = modmul_count().since(&before).total();
    // No later step reads σ, φ or π.
    drop((sigmas, phi, pi));
    // OpenCheck: Σ_i cⁱ · yᵢ(x) · kᵢ(x) summed over the hypercube equals the
    // combined claimed evaluations. Its `eq` tables fold in place and die
    // inside it.
    let c = transcript.challenge_scalar(b"opencheck-combine");
    let before = modmul_count();
    let f_open = opening_polynomial(&groups, &combined_polys, c, &**backend);
    let open_out = sumcheck_prove(f_open, &mut transcript, &**backend, trace, "open-round");
    let open_rounds = modmul_count().since(&before).total() - open_out.update_modmuls;
    let rho = open_out.point.clone();

    // The claimed evaluations yᵢ(ρ) are where the OpenCheck left its tables.
    let combined_evaluations: Vec<Fr> = (0..groups.len())
        .map(|i| open_out.mle_evaluations[2 * i])
        .collect();
    transcript.append_scalars(b"combined-evaluations", &combined_evaluations);

    // Final combination g′ and its halving-MSM opening.
    let d = transcript.challenge_scalars(b"gprime-challenge", groups.len());
    let before = modmul_count();
    let gprime =
        MultilinearPoly::linear_combination(&d, &combined_polys.iter().collect::<Vec<_>>());
    combine_muls += modmul_count().since(&before).total();
    drop(combined_polys);
    let before = modmul_count();
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
    let open_msm_fq = modmul_count().since(&before).fq;
    report.opening_msm.merge(&open_stats);
    debug_assert_eq!(
        gprime_value,
        d.iter()
            .zip(combined_evaluations.iter())
            .map(|(di, yi)| *di * *yi)
            .sum::<Fr>()
    );
    report.step_seconds = steps.finish();
    report.transcript_hashes = transcript.hash_invocations();

    let sumchecks = [&gate_out.sumcheck, &perm_out.sumcheck, &open_out];
    // A SumCheck ends holding one evaluation a table.
    let tables = sumchecks.map(|out| out.mle_evaluations.len() as u32);
    let all_tables = tables.iter().sum();
    let updates = sumchecks.iter().map(|out| out.update_modmuls).sum();
    let labels = groups.iter().map(|g| g.labels.len() as u32).sum::<u32>();
    let num_groups = groups.len() as u32;
    let row = |kernel, modmuls, [reads, writes, bases]: [u32; 3]| KernelRow {
        kernel,
        modmuls,
        reads,
        writes,
        bases,
    };
    report.kernels = [
        row("Witness MSMs", witness_msm_fq, [3, 0, 1]),
        row("Wire Identity MSMs", wiring_msm_fq, [2, 0, 1]),
        // The quotients' `2^{μ−1} + … + 1` scalars and bases.
        row("Poly Open MSMs", open_msm_fq, [1, 0, 1]),
        row("ZeroCheck Rounds", gate_rounds, [2 * tables[0], 0, 0]),
        row("PermCheck Rounds", perm_rounds, [2 * tables[1], 0, 0]),
        row("OpenCheck Rounds", open_rounds, [2 * tables[2], 0, 0]),
        // φ from the products N₁N₂N₃ and D₁D₂D₃, π from φ.
        row("Fraction MLE", frac_muls, [2, 1, 0]),
        row("Product MLE", prod_muls, [1, 1, 0]),
        // The witness in; the two products and N₁…N₃, D₁…D₃ out.
        row("Construct N & D", nd_muls, [3, 8, 0]),
        row("Batch Evaluations", batch_muls, [num_queries, 0, 0]),
        // Each group's queried tables into its `yᵢ`, the `yᵢ` into g′.
        row(
            "Linear Combine",
            combine_muls,
            [labels + num_groups, num_groups + 1, 0],
        ),
        row("All MLE Updates", updates, [2 * all_tables, all_tables, 0]),
    ];

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

/// Opens, closes and times the protocol steps of one proof, each under its
/// span name from [`ProtocolStep::TABLE`]: starting a step ends the one
/// running.
struct Steps<'a> {
    trace: &'a TraceSink,
    job: u64,
    seconds: [f64; 5],
    running: Option<(ProtocolStep, Instant, Span<'a>)>,
}

impl<'a> Steps<'a> {
    fn start(&mut self, step: ProtocolStep) {
        self.stop();
        let clock = Instant::now();
        let span = self
            .trace
            .span_with(step.span(), "prove", &[("job", self.job)]);
        self.running = Some((step, clock, span));
    }

    fn stop(&mut self) {
        if let Some((step, clock, span)) = self.running.take() {
            drop(span);
            self.seconds[step] = clock.elapsed().as_secs_f64();
        }
    }

    /// Ends the running step and returns every step's seconds.
    fn finish(mut self) -> [f64; 5] {
        self.stop();
        self.seconds
    }
}

/// Where a ZeroCheck left `label`'s evaluation at query group `g`'s point,
/// if one did: the two identities' ZeroChecks end holding their tables at
/// the first two groups' points. Step 4 evaluates every other query.
fn zerocheck_position(g: usize, label: PolyLabel) -> Option<usize> {
    match g {
        0 => GATE.position(label),
        1 => WIRING.position(label),
        _ => None,
    }
}

/// The OpenCheck polynomial of Eq. (5), `Σᵢ cⁱ·yᵢ(x)·kᵢ(x)` with `kᵢ` the
/// `eq` table of group `i`'s point, registered as `y₀, k₀, y₁, k₁, …`: its
/// hypercube sum is the `c`-combination of the claimed evaluations.
fn opening_polynomial(
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
    fn step_four_evaluates_what_no_zerocheck_returned() {
        use PolyLabel::*;
        let point = vec![Fr::from_u64(2); 3];
        let open: Vec<(usize, PolyLabel)> = (query_groups(&point, &point).iter().enumerate())
            .flat_map(|(g, group)| group.labels.iter().map(move |l| (g, *l)))
            .filter(|(g, l)| zerocheck_position(*g, *l).is_none())
            .collect();
        let expected = [
            (1, W1),
            (1, W2),
            (1, W3),
            (1, Sigma1),
            (1, Sigma2),
            (1, Sigma3),
            (2, Phi),
            (2, Pi),
            (3, Phi),
            (3, Pi),
            (4, Pi),
        ];
        assert_eq!(open, expected);
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
        let steps = ProtocolStep::ALL.map(ProtocolStep::span);
        let inner = [
            "gate-round",
            "perm-round",
            "open-round",
            "msm-witness",
            "msm-wiring",
            "msm-opening",
        ];
        for name in steps.into_iter().chain(inner) {
            assert!(events.iter().any(|e| e.name == name), "missing span {name}");
        }
        assert!(events
            .iter()
            .any(|e| e.args.as_slice().contains(&("job", 42))));
    }

    #[test]
    fn the_kernel_rows_hold_all_but_folds_reductions_and_normalisations() {
        for mu in [4, 8] {
            let (pk, witness) = session(mu);
            let ctx = ExecCtx::default();
            let proved = zkspeed_field::measure_modmuls(|| prove_unchecked(&pk, &witness, &ctx));
            let ((_, report), total) = proved;
            let (msms, rest) = report.kernels.split_at(3);
            let sum = |rows: &[KernelRow]| rows.iter().map(|k| k.modmuls).sum::<u64>();
            // Fr outside the rows: the opening folds g′ once a round
            // (2^{μ−1} + … + 1); the transcript reduces each challenge drawn
            // outside a SumCheck with two (β, γ, α, c, and the five MLE
            // Combine and five g′ challenges); a debug build checks g′(ρ)
            // against the five combined evaluations.
            let folds = (1 << mu) - 1;
            let reductions = 2 * 14;
            let check = if cfg!(debug_assertions) { 5 } else { 0 };
            assert_eq!(total.fr - sum(rest), folds + reductions + check, "μ = {mu}");
            // MLE Update folds each of the three SumChecks' 28 tables once a
            // round, as the opening folds g′.
            assert_eq!(report.kernels[11].modmuls, 28 * folds, "μ = {mu}");
            // Fq outside the rows: an inversion and two multiplications
            // normalise each commitment the transcript absorbs but the
            // key's eight, stored normalised (the witness's three, φ and π).
            let normalisations = 3 * 5;
            assert_eq!(total.fq - sum(msms), normalisations, "μ = {mu}");
        }
    }

    #[test]
    fn the_kernel_rows_do_not_depend_on_the_thread_count() {
        // At 2^12 the MLE Updates, rounds and opening folds fan out too.
        let (pk, witness) = session(12);
        let (_, serial) = prove_unchecked(&pk, &witness, &ExecCtx::default());
        let (_, pooled) = prove_unchecked(&pk, &witness, &pooled());
        assert_eq!(serial.kernels, pooled.kernels);
    }

    #[test]
    fn step_names_are_stable() {
        assert_eq!(ProtocolStep::ALL.len(), 5);
        assert_eq!(ProtocolStep::WitnessCommit.name(), "Witness Commits");
        assert_eq!(ProtocolStep::PolynomialOpening.name(), "Poly Open");
    }
}
