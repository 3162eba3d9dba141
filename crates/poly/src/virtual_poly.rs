//! Virtual polynomials: sums of scaled products of multilinear polynomials.
//!
//! Every SumCheck instance in HyperPlonk (ZeroCheck, PermCheck, OpenCheck —
//! Equations (3), (4), (5) of the zkSpeed paper) is run on a polynomial of
//! the form `Σ_k c_k · Π_j f_{k,j}(X)` where each `f_{k,j}` is multilinear.
//! A [`VirtualPolynomial`] stores the distinct MLEs once and describes each
//! term by indices into that list, mirroring the observation in Section
//! 4.1.1 that repeated polynomials should be evaluated once per round rather
//! than once per term.

use std::sync::Arc;

use zkspeed_field::Fr;
use zkspeed_rt::pool::Serial;

use crate::mle::MultilinearPoly;

/// One term of a virtual polynomial: a coefficient times a product of MLEs
/// referenced by index.
#[derive(Clone, Debug)]
pub struct Term {
    /// The scalar coefficient of the term.
    pub coefficient: Fr,
    /// Indices into the owning polynomial's MLE list; the term is the
    /// product of the referenced MLEs.
    pub mle_indices: Vec<usize>,
}

impl Term {
    /// The degree contributed by this term (number of multiplied MLEs).
    pub fn degree(&self) -> usize {
        self.mle_indices.len()
    }
}

/// A sum of scaled products of multilinear polynomials over a shared list of
/// distinct MLEs.
///
/// # Examples
///
/// ```
/// use zkspeed_field::Fr;
/// use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
///
/// let f = MultilinearPoly::new(vec![Fr::from_u64(1); 4]);
/// let g = MultilinearPoly::new(vec![Fr::from_u64(2); 4]);
/// let mut vp = VirtualPolynomial::new(2);
/// let fi = vp.add_mle(f);
/// let gi = vp.add_mle(g);
/// vp.add_term(Fr::from_u64(3), vec![fi, gi]); // 3·f·g
/// // Σ over the 4 hypercube points of 3·1·2 = 24.
/// assert_eq!(vp.sum_over_hypercube(), Fr::from_u64(24));
/// ```
#[derive(Clone, Debug)]
pub struct VirtualPolynomial {
    num_vars: usize,
    mles: Vec<Arc<MultilinearPoly>>,
    terms: Vec<Term>,
}

impl VirtualPolynomial {
    /// Creates an empty virtual polynomial over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            mles: Vec::new(),
            terms: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The shared list of distinct MLEs.
    pub fn mles(&self) -> &[Arc<MultilinearPoly>] {
        &self.mles
    }

    /// The terms of the sum-of-products.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The maximum per-variable degree across terms (the paper's "degree
    /// imbalance" — e.g. 3 for the Gate Identity polynomial of Eq. 3; the
    /// ZeroCheck prover adds the `eq` factor's one without a term for it).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(Term::degree).max().unwrap_or(0)
    }

    /// Registers an MLE and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the MLE's variable count does not match the polynomial's.
    pub fn add_mle(&mut self, mle: MultilinearPoly) -> usize {
        self.add_shared_mle(Arc::new(mle))
    }

    /// Registers a shared MLE and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the MLE's variable count does not match the polynomial's.
    pub fn add_shared_mle(&mut self, mle: Arc<MultilinearPoly>) -> usize {
        assert_eq!(
            mle.num_vars(),
            self.num_vars,
            "add_shared_mle: variable count mismatch"
        );
        self.mles.push(mle);
        self.mles.len() - 1
    }

    /// Adds the term `coefficient · Π_j mles[indices[j]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or the term is empty.
    pub fn add_term(&mut self, coefficient: Fr, mle_indices: Vec<usize>) {
        assert!(!mle_indices.is_empty(), "add_term: empty product");
        for &i in &mle_indices {
            assert!(i < self.mles.len(), "add_term: MLE index {i} out of range");
        }
        self.terms.push(Term {
            coefficient,
            mle_indices,
        });
    }

    /// `Σ_k c_k · Π_j value(f_{k,j})` for a value of every MLE.
    fn combine(&self, value: impl Fn(usize) -> Fr) -> Fr {
        let product = |t: &Term| {
            t.mle_indices
                .iter()
                .fold(t.coefficient, |p, &m| p * value(m))
        };
        self.terms.iter().map(product).sum()
    }

    /// Evaluates the virtual polynomial at one hypercube index.
    pub fn evaluate_at_index(&self, index: usize) -> Fr {
        self.combine(|m| self.mles[m][index])
    }

    /// Evaluates the virtual polynomial at an arbitrary point.
    ///
    /// # Panics
    ///
    /// Panics if the point length does not match the number of variables.
    pub fn evaluate(&self, point: &[Fr]) -> Fr {
        assert_eq!(
            point.len(),
            self.num_vars,
            "evaluate: point length mismatch"
        );
        let mle_evals: Vec<Fr> = self.mles.iter().map(|m| m.evaluate(point)).collect();
        self.combine(|m| mle_evals[m])
    }

    /// Sums the polynomial over the whole Boolean hypercube (the quantity a
    /// SumCheck proves).
    pub fn sum_over_hypercube(&self) -> Fr {
        let mut acc = Fr::zero();
        for i in 0..(1usize << self.num_vars) {
            acc += self.evaluate_at_index(i);
        }
        acc
    }

    /// Fixes the first variable of every registered MLE to `r`, producing the
    /// next-round polynomial (the **MLE Update** applied across the whole
    /// virtual polynomial).
    ///
    /// # Panics
    ///
    /// Panics if no variables remain.
    pub fn fix_first_variable(&self, r: Fr) -> Self {
        assert!(self.num_vars > 0, "fix_first_variable: no variables left");
        Self {
            num_vars: self.num_vars - 1,
            mles: self
                .mles
                .iter()
                .map(|m| Arc::new(m.fix_first_variable(r, &Serial)))
                .collect(),
            terms: self.terms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0006)
    }

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    #[test]
    fn single_term_sum_and_degree() {
        let mut r = rng();
        let f = MultilinearPoly::random(3, &mut r);
        let g = MultilinearPoly::random(3, &mut r);
        let mut vp = VirtualPolynomial::new(3);
        let fi = vp.add_mle(f.clone());
        let gi = vp.add_mle(g.clone());
        vp.add_term(u(1), vec![fi, gi]);
        assert_eq!(vp.degree(), 2);
        assert_eq!(vp.mles().len(), 2);
        assert_eq!(vp.terms().len(), 1);
        let expect: Fr = (0..8).map(|i| f[i] * g[i]).sum();
        assert_eq!(vp.sum_over_hypercube(), expect);
    }

    #[test]
    fn multi_term_evaluation_matches_manual() {
        let mut r = rng();
        let f = MultilinearPoly::random(2, &mut r);
        let g = MultilinearPoly::random(2, &mut r);
        let h = MultilinearPoly::random(2, &mut r);
        let mut vp = VirtualPolynomial::new(2);
        let fi = vp.add_mle(f.clone());
        let gi = vp.add_mle(g.clone());
        let hi = vp.add_mle(h.clone());
        // 2·f·g·h − 3·f + 5·h
        vp.add_term(u(2), vec![fi, gi, hi]);
        vp.add_term(-u(3), vec![fi]);
        vp.add_term(u(5), vec![hi]);
        assert_eq!(vp.degree(), 3);
        let point: Vec<Fr> = (0..2).map(|_| Fr::random(&mut r)).collect();
        let expect = u(2) * f.evaluate(&point) * g.evaluate(&point) * h.evaluate(&point)
            - u(3) * f.evaluate(&point)
            + u(5) * h.evaluate(&point);
        assert_eq!(vp.evaluate(&point), expect);
        // index evaluation agrees with boolean-point evaluation
        for i in 0..4usize {
            let bp: Vec<Fr> = (0..2).map(|j| u(((i >> j) & 1) as u64)).collect();
            assert_eq!(vp.evaluate_at_index(i), vp.evaluate(&bp));
        }
    }

    #[test]
    fn shared_mles_are_not_duplicated() {
        let mut r = rng();
        let f = Arc::new(MultilinearPoly::random(2, &mut r));
        let mut vp = VirtualPolynomial::new(2);
        let fi = vp.add_shared_mle(f.clone());
        // f appears in two terms but is stored once.
        vp.add_term(u(1), vec![fi, fi]);
        vp.add_term(u(4), vec![fi]);
        assert_eq!(vp.mles().len(), 1);
        let point: Vec<Fr> = (0..2).map(|_| Fr::random(&mut r)).collect();
        let fe = f.evaluate(&point);
        assert_eq!(vp.evaluate(&point), fe * fe + u(4) * fe);
    }

    #[test]
    fn fix_first_variable_preserves_partial_sums() {
        // Σ_{x2..xμ} p(r, x2..xμ) computed two ways.
        let mut r = rng();
        let f = MultilinearPoly::random(4, &mut r);
        let g = MultilinearPoly::random(4, &mut r);
        let mut vp = VirtualPolynomial::new(4);
        let fi = vp.add_mle(f);
        let gi = vp.add_mle(g);
        vp.add_term(u(7), vec![fi, gi, gi]);
        let challenge = Fr::random(&mut r);
        let fixed = vp.fix_first_variable(challenge);
        assert_eq!(fixed.num_vars(), 3);
        // Evaluate original at (challenge, y) for all boolean y and compare.
        let mut expect = Fr::zero();
        for i in 0..8usize {
            let mut point = vec![challenge];
            point.extend((0..3).map(|j| u(((i >> j) & 1) as u64)));
            expect += vp.evaluate(&point);
        }
        assert_eq!(fixed.sum_over_hypercube(), expect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_index_is_rejected() {
        let mut vp = VirtualPolynomial::new(2);
        vp.add_term(u(1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "variable count mismatch")]
    fn mismatched_mle_is_rejected() {
        let mut vp = VirtualPolynomial::new(2);
        vp.add_mle(MultilinearPoly::zero(3));
    }
}
