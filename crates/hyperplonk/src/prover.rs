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
//! [`prove`] runs each [`ProtocolStep`] and each Table 1 [`Kernel`] region
//! through one meter, which opens their spans, times the steps, counts the
//! kernels and returns them in the [`ProverReport`] of every proof. Where
//! the work runs and where its spans go is the caller's [`ExecCtx`].

use std::sync::Arc;

use zkspeed_field::Fr;
use zkspeed_pcs::{commit, commit_sparse, open};
use zkspeed_poly::{fraction_mle, product_mle, split_even_odd, MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::pool::{self, Backend, Serial};
use zkspeed_rt::trace::TraceSink;
use zkspeed_sumcheck::{prove as sumcheck_prove, prove_zerocheck};
use zkspeed_transcript::Transcript;

use crate::circuit::{SatisfactionError, Witness};
use crate::constraints::{Shifts, GATE, WIRING};
use crate::keys::ProvingKey;
use crate::proof::{query_groups, BatchEvaluations, PolyLabel, Proof, QueryGroup};
use crate::report::{Kernel, Meter, ProtocolStep, ProverReport};

/// Per-round degree of the Gate Identity ZeroCheck round polynomials (4).
pub const GATE_SUMCHECK_DEGREE: usize = GATE.zerocheck_degree();
/// Per-round degree of the Wiring Identity ZeroCheck round polynomials (5).
pub const PERM_SUMCHECK_DEGREE: usize = WIRING.zerocheck_degree();
/// Per-round degree of the OpenCheck polynomial (Eq. 5): `yᵢ·kᵢ` has degree 2.
pub const OPENCHECK_DEGREE: usize = 2;

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
    /// Receives a span per protocol step and kernel region.
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

    let mut meter = Meter::new(trace, job);

    meter.start(ProtocolStep::WitnessCommit);
    // The three column commitments are independent, so they fan out as one
    // job per column (each sparse MSM stays serial inside its job); results
    // are folded into the transcript in column order, so the proof is
    // bit-identical to a serial run.
    let job_srs = pk.srs.clone();
    let job_columns = witness.columns.clone();
    let job_tables = pk.commit_tables.clone();
    let job_trace = trace.clone();
    let column_commitments = meter.msm(Kernel::WitnessMsm, 3, || {
        pool::map_indices_on(&**backend, 3, move |j| {
            let name = Kernel::WitnessMsm.span_name();
            let _msm_span = job_trace.span_with(name, "msm", &[("job", job), ("column", j as u64)]);
            commit_sparse(&Serial, &job_srs, &job_columns[j], job_tables.as_deref())
        })
    });
    let mut witness_commitments = Vec::with_capacity(3);
    for (com, stats) in column_commitments {
        report.witness_msm.zeros += stats.zeros;
        report.witness_msm.ones += stats.ones;
        report.witness_msm.dense += stats.dense;
        report.witness_msm.ops.merge(&stats.ops);
        transcript.append_message(b"witness-commitment", &com.to_transcript_bytes());
        witness_commitments.push(com);
    }
    let witness_commitments: [_; 3] = witness_commitments.try_into().expect("three columns");

    meter.start(ProtocolStep::GateIdentity);
    // The committed tables, indexed by `PolyLabel as usize`: the labels'
    // declaration order (σ, φ and π join in step 3).
    let mut committed: Vec<&MultilinearPoly> = pk
        .circuit
        .selectors()
        .iter()
        .chain(&witness.columns)
        .collect();
    let table = |label: PolyLabel| committed[label as usize].clone();
    let gate_out = meter.sumcheck(Kernel::ZeroCheck, || {
        let f_gate = GATE.polynomial(mu, Fr::zero(), table, []);
        let name = Kernel::ZeroCheck.span_name();
        prove_zerocheck(f_gate, &mut transcript, &**backend, trace, name).sumcheck
    });

    meter.start(ProtocolStep::WireIdentity);
    let beta = transcript.challenge_scalar(b"beta");
    let gamma = transcript.challenge_scalar(b"gamma");

    // Construct N & D: the products of the N and of the D tables, read off
    // the witness and a shift table that dies with this statement. The N
    // and D tables themselves wait until φ and π are committed.
    let [n_mle, d_mle] = meter.kernel(Kernel::ConstructNd, [3, 2, 0], || {
        Shifts::new(mu, beta, gamma).products(witness, &pk.circuit)
    });

    // FracMLE and Product MLE; the products die once φ is built.
    let phi = meter.kernel(Kernel::FractionMle, [2, 1, 0], || {
        fraction_mle(&n_mle, &d_mle)
    });
    drop((n_mle, d_mle));
    let pi = meter.kernel(Kernel::ProductMle, [1, 1, 0], || product_mle(&phi));

    // Commit φ and π (dense MSMs on the critical path): two independent
    // jobs, each splitting its windows over half the pool via the shared
    // helping scheduler.
    let job_srs = pk.srs.clone();
    let job_polys = [phi.clone(), pi.clone()];
    let job_tables = pk.commit_tables.clone();
    let job_trace = trace.clone();
    let inner = Arc::clone(backend);
    let wiring_commitments = meter.msm(Kernel::WiringMsm, 2, || {
        pool::map_indices_on(&**backend, 2, move |j| {
            let name = Kernel::WiringMsm.span_name();
            let _msm_span = job_trace.span_with(name, "msm", &[("job", job), ("poly", j as u64)]);
            commit(&*inner, &job_srs, &job_polys[j], job_tables.as_deref())
        })
    });
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
    let factors = meter.kernel(Kernel::ConstructNd, [0, 6, 0], || {
        Shifts::new(mu, beta, gamma).tables(witness, &pk.circuit)
    });
    let perm_out = meter.sumcheck(Kernel::PermCheck, || {
        let (p1, p2) = split_even_odd(&phi, &pi);
        let derived = factors.into_iter().chain([p1, p2]);
        let f_perm = WIRING.polynomial(mu, alpha, table, derived);
        let name = Kernel::PermCheck.span_name();
        prove_zerocheck(f_perm, &mut transcript, &**backend, trace, name).sumcheck
    });

    meter.start(ProtocolStep::BatchEvaluation);
    // Only this step's evaluations and MLE Combine read σ.
    let sigmas = pk.circuit.sigma_mles();
    committed.extend(sigmas.iter().chain([&phi, &pi]));
    let groups = query_groups(&gate_out.point, &perm_out.point);
    let resolve = |label: PolyLabel| committed[label as usize];
    // Only what neither ZeroCheck returned is evaluated, one job per
    // (group, label) pair.
    let returned = [&gate_out.mle_evaluations, &perm_out.mle_evaluations];
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
    let evaluations = meter.kernel(Kernel::BatchEval, [queries.len() as u32, 0, 0], || {
        let evaluated = pool::map_indices_on(&**backend, queries.len(), move |i| {
            let (poly, point) = &queries[i];
            poly.evaluate(point)
        });
        let mut evaluated = evaluated.into_iter();
        let mut flat_iter = known
            .into_iter()
            .map(|k| k.unwrap_or_else(|| evaluated.next().expect("one job per open query")));
        BatchEvaluations {
            values: groups
                .iter()
                .map(|g| (&mut flat_iter).take(g.labels.len()).collect())
                .collect(),
        }
    });
    transcript.append_scalars(b"batch-evaluations", &evaluations.flatten());

    meter.start(ProtocolStep::PolynomialOpening);
    // Per-group linear combinations (MLE Combine) of the queried MLEs. The
    // transcript challenges must be drawn serially in group order, but the
    // combinations themselves, their powers included, fan out one job per
    // group.
    let combine_inputs: Vec<(Fr, Vec<MultilinearPoly>)> = groups
        .iter()
        .map(|group| {
            let e = transcript.challenge_scalar(b"rlc-challenge");
            let polys = group.labels.iter().map(|l| resolve(*l).clone());
            (e, polys.collect())
        })
        .collect();
    let num_groups = groups.len() as u32;
    let queried = groups.iter().map(|g| g.labels.len() as u32).sum();
    let combined_polys = meter.kernel(Kernel::LinearCombine, [queried, num_groups, 0], || {
        pool::map_indices_on(&**backend, combine_inputs.len(), move |i| {
            let (e, polys) = &combine_inputs[i];
            let refs: Vec<&MultilinearPoly> = polys.iter().collect();
            MultilinearPoly::linear_combination(&powers(*e, polys.len()), &refs)
        })
    });
    // No later step reads σ, φ or π.
    drop((sigmas, phi, pi));
    // OpenCheck: Σ_i cⁱ · yᵢ(x) · kᵢ(x) summed over the hypercube equals the
    // combined claimed evaluations. Its `eq` tables fold in place and die
    // inside it.
    let c = transcript.challenge_scalar(b"opencheck-combine");
    let open_out = meter.sumcheck(Kernel::OpenCheck, || {
        let f_open = opening_polynomial(&groups, &combined_polys, c, &**backend);
        let name = Kernel::OpenCheck.span_name();
        sumcheck_prove(f_open, &mut transcript, &**backend, trace, name)
    });
    let rho = open_out.point.clone();

    // The claimed evaluations yᵢ(ρ) are where the OpenCheck left its tables.
    let combined_evaluations: Vec<Fr> = (0..groups.len())
        .map(|i| open_out.mle_evaluations[2 * i])
        .collect();
    transcript.append_scalars(b"combined-evaluations", &combined_evaluations);

    // Final combination g′ and its halving-MSM opening.
    let d = transcript.challenge_scalars(b"gprime-challenge", groups.len());
    let gprime = meter.kernel(Kernel::LinearCombine, [num_groups, 1, 0], || {
        MultilinearPoly::linear_combination(&d, &combined_polys.iter().collect::<Vec<_>>())
    });
    drop(combined_polys);
    let (gprime_value, gprime_opening, open_stats) = meter.msm(Kernel::OpeningMsm, 1, || {
        let name = Kernel::OpeningMsm.span_name();
        let _msm_span = trace.span_with(name, "msm", &[("job", job)]);
        let tables = pk.commit_tables.as_deref();
        open(&**backend, &pk.srs, &gprime, &rho, tables)
    });
    report.opening_msm.merge(&open_stats);
    debug_assert_eq!(
        gprime_value,
        d.iter()
            .zip(combined_evaluations.iter())
            .map(|(di, yi)| *di * *yi)
            .sum::<Fr>()
    );
    (report.step_seconds, report.kernels) = meter.finish();
    report.transcript_hashes = transcript.hash_invocations();

    (
        Proof {
            witness_commitments,
            gate_zerocheck: gate_out.proof,
            phi_commitment,
            pi_commitment,
            perm_zerocheck: perm_out.proof,
            evaluations,
            opencheck: open_out.proof,
            combined_evaluations,
            gprime_opening,
        },
        report,
    )
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
        // The recording actually covers the span tree: protocol steps and
        // every kernel's regions, SumCheck rounds and MSM passes, tagged
        // with the job ids.
        let events: Vec<_> = sink.threads().into_iter().flat_map(|t| t.events).collect();
        let steps = ProtocolStep::ALL.map(ProtocolStep::span);
        let kernels = Kernel::ALL.into_iter().filter_map(Kernel::span);
        for name in steps.into_iter().chain(kernels) {
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
            // The modmuls of the MSM rows, or of the rest.
            let sum = |msm: bool| -> u64 {
                (Kernel::ALL.into_iter())
                    .filter(|k| Kernel::MSMS.contains(k) == msm)
                    .map(|k| report.kernels[k].modmuls)
                    .sum()
            };
            // Fr outside the rows: the opening folds g′ once a round
            // (2^{μ−1} + … + 1); the transcript reduces each challenge drawn
            // outside a SumCheck with two (β, γ, α, c, and the five MLE
            // Combine and five g′ challenges); a debug build checks g′(ρ)
            // against the five combined evaluations.
            let folds = (1 << mu) - 1;
            let reductions = 2 * 14;
            let check = if cfg!(debug_assertions) { 5 } else { 0 };
            assert_eq!(
                total.fr - sum(false),
                folds + reductions + check,
                "μ = {mu}"
            );
            // MLE Update folds each of the three SumChecks' 28 tables once a
            // round, as the opening folds g′.
            assert_eq!(
                report.kernels[Kernel::MleUpdate].modmuls,
                28 * folds,
                "μ = {mu}"
            );
            // Fq outside the rows: an inversion and two multiplications
            // normalise each commitment the transcript absorbs but the
            // key's eight, stored normalised (the witness's three, φ and π).
            let normalisations = 3 * 5;
            assert_eq!(total.fq - sum(true), normalisations, "μ = {mu}");
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
