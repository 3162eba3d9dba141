//! The grouped round kernel against the definition it replaced, enumerated:
//! every round of every ZeroCheck / SumCheck below must equal the round
//! polynomial of the (masked) polynomial fixed to the same prefix, computed
//! by [`naive_round`] — the old per-term hypercube sum, kept here as the
//! oracle — on three backends with equal multiplication counts.

use std::sync::Arc;

use zkspeed_field::{measure_modmuls, Fr};
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::pool::{Backend, Serial, ThreadPool};
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;
use zkspeed_sumcheck::{mask_with_eq, prove_on, prove_zerocheck_on, round_polynomial_on};
use zkspeed_transcript::Transcript;

/// `g(t) = Σ_x Σ_terms c·Π_m m(prefix, t, x)` at `t = 0, …, degree`: every
/// term multiplied out at every point of every instance, coefficient
/// included.
fn naive_round(poly: &VirtualPolynomial, prefix: &[Fr]) -> Vec<Fr> {
    let tables: Vec<MultilinearPoly> = poly
        .mles()
        .iter()
        .map(|m| m.fix_first_variables(prefix))
        .collect();
    let half = 1usize << (poly.num_vars() - prefix.len() - 1);
    (0..=poly.degree())
        .map(|t| {
            let t = Fr::from_u64(t as u64);
            let mut sum = Fr::zero();
            for x in 0..half {
                for term in poly.terms() {
                    let mut product = term.coefficient;
                    for &m in &term.mle_indices {
                        let (lo, hi) = (tables[m][2 * x], tables[m][2 * x + 1]);
                        product *= lo + (hi - lo) * t;
                    }
                    sum += product;
                }
            }
            sum
        })
        .collect()
}

/// A polynomial over `mles` random tables with the given terms.
fn with_terms(
    mu: usize,
    mles: usize,
    terms: &[(Fr, &[usize])],
    rng: &mut StdRng,
) -> VirtualPolynomial {
    let mut f = VirtualPolynomial::new(mu);
    for _ in 0..mles {
        f.add_mle(MultilinearPoly::random(mu, rng));
    }
    for (coefficient, factors) in terms {
        f.add_term(*coefficient, factors.to_vec());
    }
    f
}

/// The three shapes the HyperPlonk prover runs, then term lists chosen to
/// break a grouping, sharing or extension shortcut.
fn shapes(mu: usize, rng: &mut StdRng) -> Vec<(&'static str, VirtualPolynomial)> {
    let one = Fr::one();
    let zero = Fr::zero();
    let r: Vec<Fr> = (0..5).map(|_| Fr::random(rng)).collect();
    let mut out = vec![
        (
            "gate identity",
            with_terms(
                mu,
                8,
                &[
                    (one, &[0, 5]),
                    (one, &[1, 6]),
                    (one, &[2, 5, 6]),
                    (-one, &[3, 7]),
                    (one, &[4]),
                ],
                rng,
            ),
        ),
        (
            "wiring identity",
            with_terms(
                mu,
                10,
                &[
                    (one, &[0]),
                    (-one, &[1, 2]),
                    (r[0], &[3, 4, 5, 6]),
                    (-r[0], &[7, 8, 9]),
                ],
                rng,
            ),
        ),
        (
            "opencheck",
            with_terms(
                mu,
                10,
                &[
                    (one, &[0, 1]),
                    (r[0], &[2, 3]),
                    (r[0] * r[0], &[4, 5]),
                    (r[0] * r[0] * r[0], &[6, 7]),
                    (r[0] * r[0] * r[0] * r[0], &[8, 9]),
                ],
                rng,
            ),
        ),
        (
            "repeated MLE",
            with_terms(
                mu,
                2,
                &[(r[0], &[0, 0]), (r[1], &[0, 1, 0]), (one, &[1, 1, 1, 1])],
                rng,
            ),
        ),
        ("single-MLE term", with_terms(mu, 1, &[(r[0], &[0])], rng)),
        (
            "lone -1 first, zero coefficients, pairs equal up to sign",
            with_terms(
                mu,
                4,
                &[
                    (-one, &[0, 1]),
                    (zero, &[0, 1, 2, 3]),
                    (r[0], &[2]),
                    (one, &[3]),
                    (-r[0], &[1, 2, 3]),
                    (r[1], &[0, 1]),
                    (zero, &[3]),
                    (-r[1], &[1, 0]),
                    (r[0], &[3, 2, 1]),
                ],
                rng,
            ),
        ),
        (
            "all-distinct coefficients",
            with_terms(
                mu,
                4,
                &[
                    (r[0], &[0, 1]),
                    (r[1], &[1, 2, 3]),
                    (r[2], &[0]),
                    (r[3], &[0, 1, 2, 3]),
                    (r[4], &[3, 3]),
                ],
                rng,
            ),
        ),
        (
            "one MLE in every term",
            with_terms(
                mu,
                3,
                &[
                    (one, &[0, 1]),
                    (-one, &[2, 0]),
                    (r[0], &[1, 0, 2]),
                    (one, &[0]),
                ],
                rng,
            ),
        ),
        (
            "only zero coefficients",
            with_terms(mu, 2, &[(zero, &[0, 1]), (zero, &[1])], rng),
        ),
    ];
    // A satisfied witness: f·g − g·f + 5·h·c − 5·h·h·c vanishes on the
    // hypercube for Boolean h, so every t₀(0), t₀(1) is zero; all the random
    // shapes above are unsatisfied ones.
    let mut vanishing = with_terms(mu, 2, &[], rng);
    let h = vanishing.add_mle(MultilinearPoly::from_fn(mu, |i| {
        Fr::from_u64((i % 3 % 2) as u64)
    }));
    let c = vanishing.add_mle(MultilinearPoly::random(mu, rng));
    vanishing.add_term(one, vec![0, 1]);
    vanishing.add_term(-one, vec![1, 0]);
    vanishing.add_term(Fr::from_u64(5), vec![h, c]);
    vanishing.add_term(-Fr::from_u64(5), vec![h, h, c]);
    assert_eq!(vanishing.sum_over_hypercube(), zero);
    out.push(("vanishing", vanishing));
    out
}

/// Checks both provers on `f` against the oracle, on every backend.
fn check(name: &str, f: &VirtualPolynomial, backends: &[Arc<dyn Backend>]) {
    let mu = f.num_vars();
    let mut counts = Vec::new();
    for backend in backends {
        let backend: &dyn Backend = &**backend;
        let context = format!("{name}, μ = {mu}, {}", backend.name());
        let ((zero, sum), count) = measure_modmuls(|| {
            (
                prove_zerocheck_on(f, &mut Transcript::new(b"kernel"), backend),
                prove_on(f, &mut Transcript::new(b"kernel"), backend),
            )
        });
        counts.push(count);

        // A row holds the values at 0, 2, 3, …: of the round polynomial in
        // a SumCheck, of its cofactor `t_i` (the round polynomial over
        // `eq(r_{<i}, ρ_{<i})·eq(r_i, X)`) in a ZeroCheck.
        let sent = |d: usize| std::iter::once(0).chain(2..=d);
        let (r, point) = (&zero.build_mle_challenges, &zero.sumcheck.point);
        let masked = mask_with_eq(f, r);
        let mut fixed = masked.clone();
        for (i, row) in zero.sumcheck.proof.rows.iter().enumerate() {
            let expected = naive_round(&masked, &point[..i]);
            let prefix = MultilinearPoly::eq_eval(&r[..i], &point[..i]);
            let scaled: Vec<Fr> = sent(f.degree())
                .zip(row)
                .map(|(k, t)| {
                    *t * prefix * MultilinearPoly::eq_eval(&r[i..=i], &[Fr::from_u64(k as u64)])
                })
                .collect();
            let unscaled: Vec<Fr> = sent(f.degree()).map(|k| expected[k]).collect();
            assert_eq!(scaled, unscaled, "zerocheck round {i} of {context}");
            // The unweighted kernel, carrying `eq` as one more MLE.
            let carried = round_polynomial_on(&fixed, masked.degree(), backend);
            assert_eq!(carried, expected, "masked round {i} of {context}");
            fixed = fixed.fix_first_variable(point[i]);
        }
        for (i, row) in sum.proof.rows.iter().enumerate() {
            let expected = naive_round(f, &sum.point[..i]);
            let sent: Vec<Fr> = sent(f.degree()).map(|k| expected[k]).collect();
            assert_eq!(row, &sent, "sumcheck round {i} of {context}");
        }
        for out in [&zero.sumcheck, &sum] {
            let expected: Vec<Fr> = f.mles().iter().map(|m| m.evaluate(&out.point)).collect();
            assert_eq!(
                out.mle_evaluations, expected,
                "MLE evaluations of {context}"
            );
        }
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "{name}, μ = {mu}: {counts:?}"
    );
}

fn backends() -> Vec<Arc<dyn Backend>> {
    vec![
        Arc::new(Serial),
        Arc::new(ThreadPool::new(1)),
        Arc::new(ThreadPool::new(8)),
    ]
}

#[test]
fn every_round_matches_the_naive_hypercube_sum() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0017);
    let backends = backends();
    // μ = 1 leaves the ZeroCheck an empty suffix: its weight table is `[1]`.
    for mu in 1..=8 {
        for (name, f) in shapes(mu, &mut rng) {
            check(name, &f, &backends);
        }
    }
}

#[test]
fn chunked_rounds_and_per_table_updates_match_too() {
    // 2^11 instances split into chunks on the wide pool, and 2^12-entry
    // tables update one job each.
    let mut rng = StdRng::seed_from_u64(0x5eed_0018);
    let backends = backends();
    for (name, f) in shapes(12, &mut rng).into_iter().take(3) {
        check(name, &f, &backends);
    }
}
