//! The unified SumCheck prover.
//!
//! One prover handles all three HyperPlonk SumCheck flavours (ZeroCheck,
//! PermCheck, OpenCheck), mirroring zkSpeed's unified SumCheck PE (Section
//! 4.1.4), which exists to *share* multipliers across terms. Every round runs
//! one kernel, driven by a plan derived once from the term list:
//!
//! 1. **Per-MLE extensions** — for every hypercube instance, each MLE's
//!    restriction to `X₁ = 0, 1, …, d` (`d` the largest term degree) by
//!    repeated addition of the slope (`t[2i+1] − t[2i]`);
//! 2. **Shared products** — terms whose sorted factor lists share a prefix
//!    share that product;
//! 3. **Grouped sums** — terms whose coefficients agree up to sign are added
//!    or subtracted per instance, and the coefficient multiplies the group's
//!    accumulated sum once per round (never for `±1`);
//! 4. **MLE Update** — fix the first variable to the verifier challenge
//!    (Eq. 2), in place for every table the prover holds alone.
//!
//! ZeroCheck does not carry `eq(X, r)` as one more MLE. Its round polynomial
//! is `eq(r_{<i}, ρ_{<i})·eq(r_i, X)·t_i(X)` with
//! `t_i(X) = Σ_{x'} eq(r_{>i}, x')·f(ρ_{<i}, X, x')`, so the kernel's one
//! optional input is the half-size weight table `eq(r_{>i}, ·)`; `t_i`'s
//! `d + 2`-th evaluation follows by finite differences and the two scalar
//! factors multiply the round's evaluations once.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use zkspeed_field::{add_modmul_count, measure_modmuls, Fr};
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::codec::{DecodeError, Reader};
use zkspeed_rt::pool::{self, Backend};
use zkspeed_rt::trace::TraceSink;
use zkspeed_transcript::Transcript;

/// A SumCheck proof: one univariate round polynomial per variable, each given
/// by its evaluations at `0, 1, …, degree`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SumcheckProof {
    /// `round_evaluations[i]` holds the evaluations of the round-`i`
    /// univariate polynomial at `0..=degree`.
    pub round_evaluations: Vec<Vec<Fr>>,
}

impl SumcheckProof {
    /// Number of rounds (= number of variables of the proved polynomial).
    pub fn num_rounds(&self) -> usize {
        self.round_evaluations.len()
    }

    /// Size of the proof in field elements.
    pub fn size_in_field_elements(&self) -> usize {
        self.round_evaluations.iter().map(Vec::len).sum()
    }

    /// Appends the canonical encoding: a `u32` round count, then per round a
    /// `u32` evaluation count followed by 32-byte little-endian canonical
    /// field elements.
    pub fn write_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.round_evaluations.len() as u32).to_le_bytes());
        for round in &self.round_evaluations {
            out.extend_from_slice(&(round.len() as u32).to_le_bytes());
            for e in round {
                out.extend_from_slice(&e.to_bytes_le());
            }
        }
    }

    /// Reads a canonical encoding produced by [`Self::write_canonical`],
    /// rejecting non-canonical field elements.
    pub fn read_canonical(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let rounds = reader.count(4, "sumcheck rounds")?;
        let mut round_evaluations = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let evals = reader.count(32, "sumcheck round evaluations")?;
            let mut round = Vec::with_capacity(evals);
            for _ in 0..evals {
                round.push(read_fr(reader)?);
            }
            round_evaluations.push(round);
        }
        Ok(Self { round_evaluations })
    }
}

/// Reads one canonical 32-byte little-endian field element.
pub(crate) fn read_fr(reader: &mut Reader<'_>) -> Result<Fr, DecodeError> {
    let bytes = reader.take(32)?;
    Fr::from_bytes_le(bytes).ok_or(DecodeError::InvalidValue {
        what: "non-canonical Fr element",
    })
}

/// Everything the prover produces: the proof, the verifier challenges bound
/// into the transcript, and the per-MLE evaluations at the final point (which
/// downstream steps feed into batch evaluation / opening).
#[derive(Clone, Debug)]
pub struct ProverOutput {
    /// The round polynomials.
    pub proof: SumcheckProof,
    /// The challenge point `(r₁, …, r_μ)` fixed during the run.
    pub point: Vec<Fr>,
    /// The evaluation of every MLE registered with the proved polynomial at
    /// `point`, in registration order — for a ZeroCheck these are the MLEs of
    /// the unmasked polynomial; `eq` is not among them.
    pub mle_evaluations: Vec<Fr>,
}

/// Runs the SumCheck prover on `poly`, binding messages to `transcript`.
///
/// Returns the proof together with the challenge point. The claimed sum is
/// *not* appended here; callers append it (or know it to be zero, as in
/// ZeroCheck) before invoking the prover so prover and verifier transcripts
/// stay aligned. Both the round-polynomial extension and the between-round
/// MLE Update fan out over `backend`'s workers; every round records a
/// `round_label` span (category `"sumcheck"`, tagged with its round index)
/// into `trace`. Neither changes a byte of the proof.
///
/// The prover takes the polynomial: it keeps the tables and drops the rest
/// before the first round. A table nobody else holds is folded in place
/// from round one and freed when the prover returns; a table the caller
/// still shares (a clone of the polynomial shares every table) is copied,
/// at half its size, by the first fold. [`prove_on`] borrows and so copies
/// every table on the first fold.
///
/// # Panics
///
/// Panics if `poly` has no variables or no terms.
pub fn prove(
    poly: VirtualPolynomial,
    transcript: &mut Transcript,
    backend: &dyn Backend,
    trace: &TraceSink,
    round_label: &'static str,
) -> ProverOutput {
    prove_rounds(poly, None, transcript, backend, trace, round_label)
}

/// [`prove`] untraced, under the name the benchmark imports. It proves a
/// clone of `poly`, which shares its tables: the first fold copies them.
pub fn prove_on(
    poly: &VirtualPolynomial,
    transcript: &mut Transcript,
    backend: &dyn Backend,
) -> ProverOutput {
    prove(
        poly.clone(),
        transcript,
        backend,
        &TraceSink::disabled(),
        "round",
    )
}

/// The round loop of [`prove`], and with the Build-MLE challenges
/// `r` as `eq_point` the ZeroCheck prover's: the sum of `poly(X)·eq(X, r)`.
pub(crate) fn prove_rounds(
    poly: VirtualPolynomial,
    eq_point: Option<&[Fr]>,
    transcript: &mut Transcript,
    backend: &dyn Backend,
    trace: &TraceSink,
    round_label: &'static str,
) -> ProverOutput {
    assert!(
        poly.num_vars() > 0,
        "sumcheck: polynomial must have variables"
    );
    assert!(
        !poly.terms().is_empty(),
        "sumcheck: polynomial must have terms"
    );

    let num_rounds = poly.num_vars();
    let plan = Plan::new(&poly, poly.degree() + 1 + usize::from(eq_point.is_some()));
    // Without the polynomial, the prover is the only holder of every table
    // the caller handed over: those fold in place from round one.
    let mut tables: Vec<Table> = poly.mles().iter().map(|m| m.shared_evaluations()).collect();
    drop(poly);
    // `r`, `eq(r_{>i}, ·)` over the instances of round `i`, `eq(r_{<i}, ρ_{<i})`.
    let mut eq = eq_point.map(|r| {
        let _span = trace.span("build-mle", "sumcheck");
        let suffix = MultilinearPoly::eq_mle(&r[1..], backend).shared_evaluations();
        (r, suffix, Fr::one())
    });
    let mut round_evaluations = Vec::with_capacity(num_rounds);
    let mut point = Vec::with_capacity(num_rounds);

    for round in 0..num_rounds {
        let _round_span = trace.span_with(round_label, "sumcheck", &[("round", round as u64)]);
        let weights = eq.as_ref().map(|(_, suffix, _)| suffix);
        let mut evals = round_evaluations_on(&plan, &tables, weights, backend);
        if let Some((r, _, prefix)) = &eq {
            // `eq(r_i, X)` is linear in `X`: `1 − r_i` at 0, `r_i` at 1.
            let mut factor = Fr::one() - r[round];
            let step = r[round] - factor;
            for e in &mut evals {
                *e *= *prefix * factor;
                factor += step;
            }
        }
        transcript.append_scalars(b"sumcheck-round", &evals);
        let challenge = transcript.challenge_scalar(b"sumcheck-challenge");
        point.push(challenge);
        update_tables(&mut tables, challenge, backend);
        if let Some((r, suffix, prefix)) = &mut eq {
            *prefix *= MultilinearPoly::eq_eval(&r[round..=round], &[challenge]);
            // eq(r_{i+1}, 0) + eq(r_{i+1}, 1) = 1: summing the next variable
            // out leaves the next round's table, in place.
            let suffix = Arc::make_mut(suffix);
            for i in 0..suffix.len() / 2 {
                suffix[i] = suffix[2 * i] + suffix[2 * i + 1];
            }
            suffix.truncate(suffix.len() / 2);
        }
        round_evaluations.push(evals);
    }

    ProverOutput {
        proof: SumcheckProof { round_evaluations },
        point,
        // After fixing all variables every table is a single value.
        mle_evaluations: tables.iter().map(|t| t[0]).collect(),
    }
}

/// Computes the round polynomial `g(t) = Σ_{x₂..x_v ∈ {0,1}} P(t, x₂, …)` as
/// its evaluations at `t = 0, 1, …, degree`: the functional model of one
/// pass of the SumCheck Round PE.
///
/// The hypercube instances are split into contiguous chunks that fan out
/// over `backend`'s workers; each worker accumulates a local partial sum
/// and the partials are added in chunk order. Field addition is exact mod
/// p, so any chunking is bit-identical to the serial sweep. Inputs below an
/// internal chunk floor never leave the calling thread. Workers measure
/// their thread-local modmul delta, rewind it, and hand it back so
/// profiling counters see the same totals at any thread count.
pub fn round_polynomial(poly: &VirtualPolynomial, degree: usize, backend: &dyn Backend) -> Vec<Fr> {
    let tables: Vec<Table> = poly.mles().iter().map(|m| m.shared_evaluations()).collect();
    round_evaluations_on(&Plan::new(poly, degree + 1), &tables, None, backend)
}

/// [`round_polynomial`], under the name the benchmark imports.
pub fn round_polynomial_on(
    poly: &VirtualPolynomial,
    degree: usize,
    backend: &dyn Backend,
) -> Vec<Fr> {
    round_polynomial(poly, degree, backend)
}

/// One MLE's evaluations over the hypercube instances still unfixed: shared
/// with the caller until its first fold if the caller kept it, owned by the
/// prover otherwise.
type Table = Arc<Vec<Fr>>;

/// What the round kernel does per hypercube instance, derived once from a
/// polynomial's term list. A *slot* holds the evaluations at `X = 0, 1, …` of
/// one MLE (the slot of its index) or of one product (the slots after).
#[derive(Clone, Debug)]
struct Plan {
    /// Evaluations a round yields: `points` of them summed (one more than
    /// the largest term degree), the rest extended by finite differences.
    num_points: usize,
    points: usize,
    /// The distinct products of two or more MLEs, each an earlier slot times
    /// one MLE.
    products: Vec<(usize, usize)>,
    /// Terms whose coefficients agree up to sign: the coefficient and a
    /// `(slot, subtracted)` per term.
    groups: Vec<(Fr, Vec<(usize, bool)>)>,
}

impl Plan {
    fn new(poly: &VirtualPolynomial, num_points: usize) -> Self {
        let num_mles = poly.mles().len();
        let mut products = Vec::new();
        let mut groups: Vec<(Fr, Vec<(usize, bool)>)> = Vec::new();
        for term in poly.terms().iter().filter(|t| !t.coefficient.is_zero()) {
            // Terms whose sorted factor lists share a prefix share its slot.
            let mut factors = term.mle_indices.clone();
            factors.sort_unstable();
            let mut slot = factors[0];
            for &mle in &factors[1..] {
                let known = products.iter().position(|p| *p == (slot, mle));
                slot = num_mles
                    + known.unwrap_or_else(|| {
                        products.push((slot, mle));
                        products.len() - 1
                    });
            }
            let c = term.coefficient;
            match groups.iter_mut().find(|g| g.0 == c || g.0 == -c) {
                Some(group) => group.1.push((slot, group.0 != c)),
                // A lone `−1` starts the coefficient-free group too.
                None if c == -Fr::one() => groups.push((-c, vec![(slot, true)])),
                None => groups.push((c, vec![(slot, false)])),
            }
        }
        Self {
            num_points,
            points: num_points.min(poly.degree() + 1),
            products,
            groups,
        }
    }
}

/// One round's evaluations at `0..plan.num_points` of `Σ_x weights[x]·P(X, x)`
/// (every weight one without the table), fanned out over `backend` as
/// [`round_polynomial`] describes.
fn round_evaluations_on(
    plan: &Plan,
    tables: &[Table],
    weights: Option<&Table>,
    backend: &dyn Backend,
) -> Vec<Fr> {
    const MIN_CHUNK: usize = 256;
    let half = tables.first().map_or(0, |t| t.len() / 2);
    // Jobs may run on pool workers, so they capture shared handles; small
    // rounds and serial backends make one chunk, run on the calling thread.
    let (job_plan, job_tables, job_weights) = (plan.clone(), tables.to_vec(), weights.cloned());
    let partials = pool::map_ranges(backend, half, MIN_CHUNK, move |range| {
        let weights = job_weights.as_deref().map(|w| &w[..]);
        measure_modmuls(|| round_partial(&job_plan, &job_tables, weights, range))
    });

    // Partials add in chunk order; a group's coefficient multiplies its sums.
    let mut sums = vec![Fr::zero(); plan.groups.len() * plan.points];
    for (partial, muls) in partials {
        add_modmul_count(muls);
        sums.iter_mut().zip(partial).for_each(|(s, p)| *s += p);
    }
    let mut evals = vec![Fr::zero(); plan.points];
    for ((coefficient, _), sums) in plan.groups.iter().zip(sums.chunks_exact(plan.points)) {
        let unit = *coefficient == Fr::one();
        for (e, s) in evals.iter_mut().zip(sums) {
            *e += if unit { *s } else { *s * *coefficient };
        }
    }
    extrapolate(&mut evals, plan.num_points);
    evals
}

/// Accumulates the sums of every group, `plan.points` each, over one
/// contiguous range of hypercube instances (the per-chunk worker body, also
/// the whole serial sweep when the range covers everything).
fn round_partial(
    plan: &Plan,
    tables: &[Table],
    weights: Option<&[Fr]>,
    range: Range<usize>,
) -> Vec<Fr> {
    let points = plan.points;
    let mut sums = vec![Fr::zero(); plan.groups.len() * points];
    // One instance's slots, and one group's sum before its weight.
    let mut slots = vec![Fr::zero(); (tables.len() + plan.products.len()) * points];
    let mut unweighted = vec![Fr::zero(); points];
    for i in range {
        // Points 0 and 1 are table reads; the rest follow by adding the slope.
        for (table, slot) in tables.iter().zip(slots.chunks_exact_mut(points)) {
            let (lo, hi) = (table[2 * i], table[2 * i + 1]);
            slot[0] = lo;
            if points > 1 {
                slot[1] = hi;
                let (slope, mut value) = (hi - lo, hi);
                for e in &mut slot[2..] {
                    value += slope;
                    *e = value;
                }
            }
        }
        for (p, &(left, mle)) in plan.products.iter().enumerate() {
            let (earlier, out) = slots.split_at_mut((tables.len() + p) * points);
            let factors = earlier[left * points..]
                .iter()
                .zip(&earlier[mle * points..]);
            for (o, (l, r)) in out[..points].iter_mut().zip(factors) {
                *o = *l * *r;
            }
        }
        for ((_, members), sums) in plan.groups.iter().zip(sums.chunks_exact_mut(points)) {
            // Unweighted members go straight into the running sums.
            let target = match weights {
                Some(_) => {
                    unweighted.fill(Fr::zero());
                    &mut unweighted[..]
                }
                None => &mut sums[..],
            };
            for &(slot, subtracted) in members {
                let values = &slots[slot * points..];
                if subtracted {
                    target.iter_mut().zip(values).for_each(|(t, v)| *t -= *v);
                } else {
                    target.iter_mut().zip(values).for_each(|(t, v)| *t += *v);
                }
            }
            if let Some(weights) = weights {
                for (s, u) in sums.iter_mut().zip(&unweighted) {
                    *s += *u * weights[i];
                }
            }
        }
    }
    sums
}

/// Extends the evaluations at `0, 1, …, n − 1` of a polynomial of degree
/// below `n` to `total` points, by additions along the trailing edge of the
/// forward-difference table (the `n`-th differences are zero).
fn extrapolate(evals: &mut Vec<Fr>, total: usize) {
    let n = evals.len();
    // edge[i] = Δ^{n−1−i} evals[i]
    let mut edge = evals.clone();
    for level in 1..n {
        for i in 0..n - level {
            edge[i] = edge[i + 1] - edge[i];
        }
    }
    while evals.len() < total {
        for i in 1..n {
            edge[i] = edge[i] + edge[i - 1];
        }
        evals.push(edge[n - 1]);
    }
}

/// **MLE Update** (Eq. 2) of every table, `t'[i] = (t[2i+1] − t[2i])·r +
/// t[2i]`: in place when the prover is the table's only holder, into a fresh
/// half-size table while the caller still shares it. Large tables on a
/// parallel backend move into one job each and fold there under the same
/// rule; the result is bit-identical at any thread count.
fn update_tables(tables: &mut Vec<Table>, r: Fr, backend: &dyn Backend) {
    /// Below this table size the fan-out is not worth its scheduling.
    const MIN_LEN: usize = 1 << 12;
    if backend.threads() > 1 && tables.len() >= 2 && tables[0].len() >= MIN_LEN {
        let slots: Vec<Mutex<Option<Table>>> = std::mem::take(tables)
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        let updated = pool::map_indices_on(backend, slots.len(), move |m| {
            let slot = slots[m].lock().expect("table slot poisoned").take();
            let mut table = slot.expect("each table is folded by one job");
            let ((), muls) = measure_modmuls(|| fold_table(&mut table, r));
            (table, muls)
        });
        *tables = updated
            .into_iter()
            .map(|(table, muls)| {
                add_modmul_count(muls);
                table
            })
            .collect();
        return;
    }
    tables.iter_mut().for_each(|t| fold_table(t, r));
}

/// Folds one table's first variable to `r`, in place if it is the prover's
/// alone.
fn fold_table(table: &mut Table, r: Fr) {
    let fold = |t: &[Fr], i: usize| (t[2 * i + 1] - t[2 * i]) * r + t[2 * i];
    match Arc::get_mut(table) {
        Some(own) => {
            for i in 0..own.len() / 2 {
                own[i] = fold(own, i);
            }
            own.truncate(own.len() / 2);
        }
        None => *table = Arc::new((0..table.len() / 2).map(|i| fold(table, i)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_poly::MultilinearPoly;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0008)
    }

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    fn random_product_poly(num_vars: usize, rng: &mut StdRng) -> VirtualPolynomial {
        let f = MultilinearPoly::random(num_vars, rng);
        let g = MultilinearPoly::random(num_vars, rng);
        let h = MultilinearPoly::random(num_vars, rng);
        let mut vp = VirtualPolynomial::new(num_vars);
        let fi = vp.add_mle(f);
        let gi = vp.add_mle(g);
        let hi = vp.add_mle(h);
        vp.add_term(u(3), vec![fi, gi, hi]);
        vp.add_term(-u(2), vec![fi, hi]);
        vp.add_term(u(1), vec![gi]);
        vp
    }

    #[test]
    fn round_polynomial_is_consistent_with_partial_sums() {
        let mut r = rng();
        let vp = random_product_poly(4, &mut r);
        let degree = vp.degree();
        let evals = round_polynomial(&vp, degree, &Serial);
        assert_eq!(evals.len(), degree + 1);
        // g(0) + g(1) must equal the full hypercube sum.
        assert_eq!(evals[0] + evals[1], vp.sum_over_hypercube());
        // g(t) for small integer t must match fixing the first variable to t.
        for (t, eval) in evals.iter().enumerate() {
            let fixed = vp.fix_first_variable(u(t as u64));
            assert_eq!(*eval, fixed.sum_over_hypercube(), "t = {t}");
        }
    }

    #[test]
    fn prover_produces_expected_shape() {
        let mut r = rng();
        let vp = random_product_poly(5, &mut r);
        let mut transcript = Transcript::new(b"test");
        let out = prove_on(&vp, &mut transcript, &Serial);
        assert_eq!(out.proof.num_rounds(), 5);
        assert_eq!(out.point.len(), 5);
        assert_eq!(out.mle_evaluations.len(), 3);
        assert_eq!(out.proof.size_in_field_elements(), 5 * (vp.degree() + 1));
        // The recorded MLE evaluations really are the MLEs at the point.
        for (m, e) in vp.mles().iter().zip(out.mle_evaluations.iter()) {
            assert_eq!(m.evaluate(&out.point), *e);
        }
    }

    #[test]
    fn prover_is_deterministic_given_transcript() {
        let mut r = rng();
        let vp = random_product_poly(3, &mut r);
        let mut t1 = Transcript::new(b"same");
        let mut t2 = Transcript::new(b"same");
        let o1 = prove_on(&vp, &mut t1, &Serial);
        let o2 = prove_on(&vp, &mut t2, &Serial);
        assert_eq!(o1.proof, o2.proof);
        assert_eq!(o1.point, o2.point);
        // A different transcript domain produces different challenges.
        let mut t3 = Transcript::new(b"other");
        let o3 = prove_on(&vp, &mut t3, &Serial);
        assert_ne!(o1.point, o3.point);
    }

    #[test]
    #[should_panic(expected = "must have variables")]
    fn zero_variable_polynomial_is_rejected() {
        let mut vp = VirtualPolynomial::new(0);
        let i = vp.add_mle(MultilinearPoly::constant(u(1), 0));
        vp.add_term(u(1), vec![i]);
        let mut transcript = Transcript::new(b"t");
        let _ = prove_on(&vp, &mut transcript, &Serial);
    }
}
