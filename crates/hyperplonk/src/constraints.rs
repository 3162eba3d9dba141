//! The Gate Identity of Eq. (3) and the Wiring Identity of Eq. (4), each
//! declared once, with the rules of the wiring identity's derived columns
//! beside them. The prover builds its ZeroCheck polynomials from the
//! declarations, the verifier and `check_witness` evaluate them, and
//! `query_groups` opens the committed labels they read. A reader passes
//! the committed columns by label and the derived ones in [`Column`]
//! order: `N₁…N₃, D₁…D₃, p₁, p₂`.

use zkspeed_field::Fr;
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};

use crate::circuit::{Circuit, Witness};
use crate::proof::PolyLabel;
use Coefficient::*;
use Column::*;

/// A term's coefficient.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Coefficient {
    /// `1`.
    One,
    /// `−1`.
    MinusOne,
    /// `α`, the verifier's challenge.
    Alpha,
    /// `−α`.
    MinusAlpha,
}

/// A table an identity reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Column {
    /// A committed polynomial.
    Committed(PolyLabel),
    /// `Nⱼ = wⱼ + β·idⱼ + γ`, `j < 3`, with `idⱼ(i) = j·2^μ + i`.
    N(usize),
    /// `Dⱼ = wⱼ + β·σⱼ + γ`.
    D(usize),
    /// `p₁`, the even entries of `φ ∥ π`.
    P1,
    /// `p₂`, the odd entries of `φ ∥ π`.
    P2,
}

const WITNESS: [PolyLabel; 3] = [PolyLabel::W1, PolyLabel::W2, PolyLabel::W3];
const SIGMA: [PolyLabel; 3] = [PolyLabel::Sigma1, PolyLabel::Sigma2, PolyLabel::Sigma3];
/// What `p₁` and `p₂` read at their [`shifted_point`]s.
pub(crate) const SHIFTED: [PolyLabel; 2] = [PolyLabel::Phi, PolyLabel::Pi];

impl Column {
    /// A derived column's place in [`Column`] order.
    fn derived_index(self) -> usize {
        match self {
            N(j) => j,
            D(j) => 3 + j,
            P1 => 6,
            P2 => 7,
            Committed(label) => unreachable!("{label:?} is committed"),
        }
    }
}

/// `Σ coefficient · Π columns`, zero on the hypercube.
#[derive(Clone, Debug)]
pub struct Identity {
    /// The columns, in the order the prover registers their tables.
    pub columns: &'static [Column],
    /// The terms.
    pub terms: &'static [(Coefficient, &'static [Column])],
}

/// Eq. (3): `q_L·w₁ + q_R·w₂ + q_M·w₁·w₂ − q_O·w₃ + q_C`.
pub const GATE: Identity = {
    use {Committed as C, PolyLabel::*};
    Identity {
        columns: &[C(QL), C(QR), C(QM), C(QO), C(QC), C(W1), C(W2), C(W3)],
        terms: &[
            (One, &[C(QL), C(W1)]),
            (One, &[C(QR), C(W2)]),
            (One, &[C(QM), C(W1), C(W2)]),
            (MinusOne, &[C(QO), C(W3)]),
            (One, &[C(QC)]),
        ],
    }
};

/// Eq. (4): `π − p₁·p₂ + α·(φ·D₁·D₂·D₃ − N₁·N₂·N₃)`.
pub const WIRING: Identity = {
    use {Committed as C, PolyLabel::*};
    Identity {
        columns: &[C(Pi), P1, P2, C(Phi), D(0), D(1), D(2), N(0), N(1), N(2)],
        terms: &[
            (One, &[C(Pi)]),
            (MinusOne, &[P1, P2]),
            (Alpha, &[C(Phi), D(0), D(1), D(2)]),
            (MinusAlpha, &[N(0), N(1), N(2)]),
        ],
    }
};

impl Identity {
    /// Per-round degree of the identity's ZeroCheck: its largest term
    /// degree, plus one for the `eq` factor.
    pub(crate) const fn zerocheck_degree(&self) -> usize {
        let (mut degree, mut t) = (0, 0);
        while t < self.terms.len() {
            let d = self.terms[t].1.len();
            degree = if d > degree { d } else { degree };
            t += 1;
        }
        degree + 1
    }

    /// Where the identity registers `label`'s table, if it does.
    pub(crate) fn position(&self, label: PolyLabel) -> Option<usize> {
        self.columns.iter().position(|c| *c == Committed(label))
    }

    /// The committed labels the identity reads at its point, through its
    /// derived columns too, in `PolyLabel` order.
    pub(crate) fn labels(&self) -> Vec<PolyLabel> {
        let mut labels: Vec<PolyLabel> = (self.columns.iter())
            .flat_map(|c| match *c {
                Committed(label) => vec![label],
                N(j) => vec![WITNESS[j]],
                D(j) => vec![WITNESS[j], SIGMA[j]],
                P1 | P2 => vec![],
            })
            .collect();
        labels.sort_by_key(|l| *l as usize);
        labels.dedup();
        labels
    }

    /// The identity over the prover's tables, registered in declaration
    /// order: `committed(label)`'s, and the `derived` ones, which it owns.
    pub fn polynomial(
        &self,
        num_vars: usize,
        alpha: Fr,
        mut committed: impl FnMut(PolyLabel) -> MultilinearPoly,
        derived: impl IntoIterator<Item = MultilinearPoly>,
    ) -> VirtualPolynomial {
        let mut derived: Vec<_> = derived.into_iter().map(Some).collect();
        let mut f = VirtualPolynomial::new(num_vars);
        for column in self.columns {
            f.add_mle(match *column {
                Committed(label) => committed(label),
                c => derived[c.derived_index()]
                    .take()
                    .expect("one table a column"),
            });
        }
        let index = |c: &Column| {
            self.columns
                .iter()
                .position(|r| r == c)
                .expect("registered")
        };
        for (coefficient, columns) in self.terms {
            // Indexed in `Coefficient`'s variant order.
            let c = [Fr::one(), -Fr::one(), alpha, -alpha][*coefficient as usize];
            f.add_term(c, columns.iter().map(index).collect());
        }
        f
    }

    /// The identity at one point, from `committed(label)` and the `derived`
    /// values there: a `±1` term is added or subtracted, and the `±α`
    /// terms' sum multiplied by `α`.
    pub(crate) fn evaluate(
        &self,
        alpha: Fr,
        committed: impl Fn(PolyLabel) -> Fr,
        derived: &[Fr],
    ) -> Fr {
        let value = |c: Column| match c {
            Committed(label) => committed(label),
            c => derived[c.derived_index()],
        };
        let (mut unit, mut scaled) = (Fr::zero(), None);
        for (coefficient, columns) in self.terms {
            let product = (columns[1..].iter()).fold(value(columns[0]), |p, c| p * value(*c));
            let sum = match coefficient {
                One | MinusOne => &mut unit,
                Alpha | MinusAlpha => scaled.get_or_insert(Fr::zero()),
            };
            match coefficient {
                One | Alpha => *sum += product,
                MinusOne | MinusAlpha => *sum -= product,
            }
        }
        scaled.map_or(unit, |s| unit + alpha * s)
    }
}

/// `Nⱼ`'s and `Dⱼ`'s rule: `w + β·x + γ`, `x` from `idⱼ` or `σⱼ`.
pub(crate) fn wiring_factor(w: Fr, beta: Fr, x: Fr, gamma: Fr) -> Fr {
    w + beta * x + gamma
}

/// [`wiring_factor`] over the hypercube: the shift table `S[k] = β·k + γ`,
/// `k < 3·2^μ`, built by additions only, from which `Nⱼ[i] = wⱼ[i] +
/// S[idⱼ(i)]` and `Dⱼ[i] = wⱼ[i] + S[σⱼ(i)]`, `σⱼ` read off the circuit's
/// permutation. It is held as three tables of `2^μ` Fr, `S[j·2^μ + i]` in
/// the `j`-th, the size of every other table a proof allocates.
pub(crate) struct Shifts {
    num_vars: usize,
    tables: [Vec<Fr>; 3],
}

impl Shifts {
    pub(crate) fn new(num_vars: usize, beta: Fr, gamma: Fr) -> Self {
        let mut steps = std::iter::successors(Some(gamma), |s| Some(*s + beta));
        let tables = [0, 1, 2].map(|_| (&mut steps).take(1 << num_vars).collect());
        Self { num_vars, tables }
    }

    fn at(&self, k: usize) -> Fr {
        self.tables[k >> self.num_vars][k & ((1 << self.num_vars) - 1)]
    }

    /// The entries of `N(j)` or `D(j)`.
    fn factor<'a>(
        &'a self,
        column: Column,
        witness: &'a Witness,
        circuit: &'a Circuit,
    ) -> impl Iterator<Item = Fr> + 'a {
        let (j, permuted) = match column {
            N(j) => (j, false),
            D(j) => (j, true),
            c => unreachable!("{c:?} is not a wiring factor"),
        };
        let w = witness.columns[j].evaluations().iter().enumerate();
        w.map(move |(i, w)| {
            let shift = if permuted {
                self.at(circuit.sigma_slot(j, i))
            } else {
                self.tables[j][i]
            };
            *w + shift
        })
    }

    /// The tables `N₁…N₃, D₁…D₃`, in [`Column`] order.
    pub(crate) fn tables(&self, witness: &Witness, circuit: &Circuit) -> [MultilinearPoly; 6] {
        [N(0), N(1), N(2), D(0), D(1), D(2)]
            .map(|c| MultilinearPoly::new(self.factor(c, witness, circuit).collect()))
    }

    /// `N₁·N₂·N₃` and `D₁·D₂·D₃`, entry by entry, with no table of the
    /// factors.
    pub(crate) fn products(&self, witness: &Witness, circuit: &Circuit) -> [MultilinearPoly; 2] {
        [N, D].map(|column: fn(usize) -> Column| {
            let [a, b, c] = [0, 1, 2].map(|j| self.factor(column(j), witness, circuit));
            MultilinearPoly::new(a.zip(b).zip(c).map(|((a, b), c)| a * b * c).collect())
        })
    }
}

/// `(b, s₁, …, s_{μ−1})`, where `p₁` (`b = 0`) and `p₂` (`b = 1`) read `φ`
/// and `π` for their value at `s`: `(1 − s_μ)·φ + s_μ·π` there.
pub(crate) fn shifted_point(s: &[Fr], b: Fr) -> Vec<Fr> {
    [&[b], &s[..s.len() - 1]].concat()
}

/// The derived columns at the PermCheck point `s`, by their rules, from
/// the committed evaluations: `at_s(label)` at `s`, and `shifted[b]`,
/// [`SHIFTED`]'s at `shifted_point(s, b)`.
pub(crate) fn derived_at(
    s: &[Fr],
    beta: Fr,
    gamma: Fr,
    at_s: impl Fn(PolyLabel) -> Fr,
    shifted: [[Fr; 2]; 2],
) -> Vec<Fr> {
    // idⱼ(s) = j·2^μ + Σₖ 2^k·sₖ.
    let index: Fr = (s.iter().enumerate())
        .map(|(k, s_k)| Fr::from_u64(1u64 << k) * *s_k)
        .sum();
    let id = |j: usize| Fr::from_u64((j as u64) << s.len()) + index;
    let s_last = *s.last().expect("μ ≥ 1");
    let n = [0, 1, 2].map(|j| wiring_factor(at_s(WITNESS[j]), beta, id(j), gamma));
    let d = [0, 1, 2].map(|j| wiring_factor(at_s(WITNESS[j]), beta, at_s(SIGMA[j]), gamma));
    let p = shifted.map(|[phi, pi]| (Fr::one() - s_last) * phi + s_last * pi);
    [&n[..], &d, &p].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateSelectors;
    use zkspeed_poly::split_even_odd;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::{Rng, SeedableRng};

    fn random_witness(mu: usize, rng: &mut StdRng) -> Witness {
        let [w1, w2, w3] = [0, 1, 2].map(|_| MultilinearPoly::random(mu, rng));
        Witness::new(w1, w2, w3)
    }

    fn random_point(mu: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..mu).map(|_| Fr::random(rng)).collect()
    }

    /// Random selectors over a random permutation of the `3·2^μ` slots, or
    /// over the identity one.
    fn random_circuit(mu: usize, permuted: bool, rng: &mut StdRng) -> Circuit {
        let gates: Vec<GateSelectors> = (0..1 << mu)
            .map(|_| {
                let [q_l, q_r, q_m, q_o, q_c] = [0; 5].map(|_| Fr::random(rng));
                GateSelectors {
                    q_l,
                    q_r,
                    q_m,
                    q_o,
                    q_c,
                }
            })
            .collect();
        let mut sigma: Vec<usize> = (0..3 << mu).collect();
        for i in (1..sigma.len()).rev().filter(|_| permuted) {
            sigma.swap(i, rng.gen_range(0..(i + 1) as u64) as usize);
        }
        Circuit::new(&gates, sigma)
    }

    /// The shift table's `N` and `D`, tables and products, against
    /// [`wiring_factor`] at `idⱼ(i)` and `σⱼ(i)`, entry by entry; under the
    /// identity permutation `D = N`.
    #[test]
    fn shift_table_factors_follow_the_wiring_rule() {
        let mut rng = StdRng::seed_from_u64(0xc0de_0037);
        for mu in [1, 2, 5] {
            for permuted in [true, false] {
                let circuit = random_circuit(mu, permuted, &mut rng);
                let witness = random_witness(mu, &mut rng);
                let [beta, gamma] = [0; 2].map(|_| Fr::random(&mut rng));
                let shifts = Shifts::new(mu, beta, gamma);
                let [n1, n2, n3, d1, d2, d3] = shifts.tables(&witness, &circuit);
                let [n_product, d_product] = shifts.products(&witness, &circuit);
                let n = circuit.num_gates();
                for (j, (n_j, d_j)) in [(&n1, &d1), (&n2, &d2), (&n3, &d3)].into_iter().enumerate()
                {
                    let w = &witness.columns[j];
                    for i in 0..n {
                        let id = Fr::from_u64((j * n + i) as u64);
                        let sigma = Fr::from_u64(circuit.sigma_slot(j, i) as u64);
                        assert_eq!(n_j[i], wiring_factor(w[i], beta, id, gamma));
                        assert_eq!(d_j[i], wiring_factor(w[i], beta, sigma, gamma));
                    }
                }
                for i in 0..n {
                    assert_eq!(n_product[i], n1[i] * n2[i] * n3[i]);
                    assert_eq!(d_product[i], d1[i] * d2[i] * d3[i]);
                }
                if !permuted {
                    assert_eq!([&d1, &d2, &d3, &d_product], [&n1, &n2, &n3, &n_product]);
                }
            }
        }
    }

    /// The prover's polynomial, its tables evaluated at `r`, against the
    /// verifier's evaluator fed the committed evaluations at `r`.
    #[test]
    fn prover_and_verifier_read_each_identity_alike() {
        let mut rng = StdRng::seed_from_u64(0xc0de_0036);
        for mu in [1, 2, 5] {
            let circuit = random_circuit(mu, true, &mut rng);
            let witness = random_witness(mu, &mut rng);
            let sigmas = circuit.sigma_mles();
            let [phi, pi] = [0, 1].map(|_| MultilinearPoly::random(mu, &mut rng));
            let [beta, gamma, alpha] = [0; 3].map(|_| Fr::random(&mut rng));
            let r = random_point(mu, &mut rng);

            // Indexed by `PolyLabel as usize`.
            let committed: Vec<&MultilinearPoly> = circuit
                .selectors()
                .iter()
                .chain(&witness.columns)
                .chain(&sigmas)
                .chain([&phi, &pi])
                .collect();
            let at =
                |point: &[Fr]| -> Vec<Fr> { committed.iter().map(|t| t.evaluate(point)).collect() };
            let at_r = at(&r);

            let table = |l: PolyLabel| committed[l as usize].clone();
            let f_gate = GATE.polynomial(mu, alpha, table, []);
            let gate = GATE.evaluate(alpha, |l| at_r[l as usize], &[]);
            assert_eq!(f_gate.evaluate(&r), gate, "gate, μ = {mu}");

            let factors = Shifts::new(mu, beta, gamma).tables(&witness, &circuit);
            let (p1, p2) = split_even_odd(&phi, &pi);
            let derived = factors.into_iter().chain([p1, p2]);
            let f = WIRING.polynomial(mu, alpha, table, derived);
            let shifted = [Fr::zero(), Fr::one()].map(|b| {
                let at_shift = at(&shifted_point(&r, b));
                SHIFTED.map(|l| at_shift[l as usize])
            });
            let derived = derived_at(&r, beta, gamma, |l| at_r[l as usize], shifted);
            let wiring = WIRING.evaluate(alpha, |l| at_r[l as usize], &derived);
            assert_eq!(f.evaluate(&r), wiring, "wiring, μ = {mu}");
        }
    }

    #[test]
    fn declarations_keep_their_registration_orders_and_degrees() {
        use PolyLabel::*;
        let committed = |identity: &Identity| -> Vec<Option<PolyLabel>> {
            let label = |c: &Column| match c {
                Column::Committed(label) => Some(*label),
                _ => None,
            };
            identity.columns.iter().map(label).collect()
        };
        let gate: Vec<_> = [QL, QR, QM, QO, QC, W1, W2, W3].map(Some).into();
        assert_eq!(committed(&GATE), gate);
        assert_eq!(GATE.labels(), [QL, QR, QM, QO, QC, W1, W2, W3]);
        assert_eq!(
            WIRING.columns[..4],
            [
                Column::Committed(Pi),
                Column::P1,
                Column::P2,
                Column::Committed(Phi)
            ]
        );
        assert_eq!(
            WIRING.labels(),
            [W1, W2, W3, Sigma1, Sigma2, Sigma3, Phi, Pi]
        );
        assert_eq!((GATE.zerocheck_degree(), WIRING.zerocheck_degree()), (4, 5));
        assert_eq!(
            (
                WIRING.position(Pi),
                WIRING.position(Phi),
                WIRING.position(W1)
            ),
            (Some(0), Some(3), None)
        );
    }
}
