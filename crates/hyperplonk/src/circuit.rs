//! The Plonk gate / wiring encoding of a computation (Section 3.1 of the
//! zkSpeed paper).
//!
//! A circuit with `2^μ` gates is described by:
//!
//! * five **selector** MLEs `q_L, q_R, q_M, q_O, q_C` defining each gate's
//!   operation via the gate identity declared in [`crate::constraints`];
//! * three **wiring permutation** MLEs `σ₁, σ₂, σ₃` over the `3·2^μ` wire
//!   slots, which force gate outputs to be routed correctly to downstream
//!   inputs (the Wiring Identity of Section 3.3.3);
//! * three **witness** MLEs `w₁, w₂, w₃` holding the execution trace.

use core::fmt;

use zkspeed_field::Fr;
use zkspeed_pcs::NumVars;
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::Kind;

use crate::constraints::{Shifts, GATE};
use crate::serialize::{Permutation, Tables};

/// Identifies one of the three witness columns.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum WireColumn {
    /// The first input column (`w₁`).
    Left,
    /// The second input column (`w₂`).
    Right,
    /// The output column (`w₃`).
    Output,
}

impl WireColumn {
    /// All columns, in slot-numbering order.
    pub const ALL: [WireColumn; 3] = [WireColumn::Left, WireColumn::Right, WireColumn::Output];

    /// Column index (0, 1, 2) used for global slot numbering.
    pub fn index(&self) -> usize {
        match self {
            WireColumn::Left => 0,
            WireColumn::Right => 1,
            WireColumn::Output => 2,
        }
    }
}

/// The selector values of a single gate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct GateSelectors {
    /// Left-input selector `q_L`.
    pub q_l: Fr,
    /// Right-input selector `q_R`.
    pub q_r: Fr,
    /// Multiplication selector `q_M`.
    pub q_m: Fr,
    /// Output selector `q_O`.
    pub q_o: Fr,
    /// Constant term `q_C`.
    pub q_c: Fr,
}

impl GateSelectors {
    /// A no-op gate (all selectors zero): the constraint `0 = 0`.
    pub fn noop() -> Self {
        Self::default()
    }

    /// An addition gate: `w₁ + w₂ = w₃`.
    pub fn addition() -> Self {
        Self {
            q_l: Fr::one(),
            q_r: Fr::one(),
            q_o: Fr::one(),
            ..Self::default()
        }
    }

    /// A multiplication gate: `w₁ · w₂ = w₃`.
    pub fn multiplication() -> Self {
        Self {
            q_m: Fr::one(),
            q_o: Fr::one(),
            ..Self::default()
        }
    }

    /// A constant gate: `w₃ = c`.
    pub fn constant(c: Fr) -> Self {
        Self {
            q_c: c,
            q_o: Fr::one(),
            ..Self::default()
        }
    }

    /// Evaluates the gate constraint ([`GATE`]) for the given witness values.
    pub fn constraint(&self, w1: Fr, w2: Fr, w3: Fr) -> Fr {
        let row = [self.q_l, self.q_r, self.q_m, self.q_o, self.q_c, w1, w2, w3];
        GATE.evaluate(Fr::zero(), |label| row[label as usize], &[])
    }
}

/// A compiled circuit: selector tables plus the wiring permutation.
#[derive(Clone, Debug)]
pub struct Circuit {
    num_vars: usize,
    /// Selector MLEs, in the order `q_L, q_R, q_M, q_O, q_C`.
    selectors: [MultilinearPoly; 5],
    /// Wiring permutation over the `3·2^μ` slots: `sigma[j][i]` is the global
    /// slot index that slot `j·2^μ + i` is wired to.
    sigma: [Vec<usize>; 3],
}

// Short input fails before any table is allocated, and the wiring columns
// must permute the `3·2^μ` slots.
zkspeed_rt::impl_codec_struct!(Circuit: Kind::Circuit {
    num_vars: NumVars("circuit num_vars", 1, 5 * 32 + 3 * 8),
    selectors: Tables(num_vars),
    sigma: Permutation(num_vars),
});

/// An execution trace (witness assignment) for a circuit.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The three witness columns `w₁, w₂, w₃`.
    pub columns: [MultilinearPoly; 3],
}

/// Why a witness fails to satisfy a circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatisfactionError {
    /// The witness tables have the wrong size.
    SizeMismatch,
    /// A gate constraint evaluates to a nonzero value.
    GateViolation {
        /// The offending gate index.
        gate: usize,
    },
    /// Two wired-together slots hold different values.
    WiringViolation {
        /// The offending global slot index.
        slot: usize,
    },
}

impl fmt::Display for SatisfactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatisfactionError::SizeMismatch => write!(f, "witness size does not match circuit"),
            SatisfactionError::GateViolation { gate } => {
                write!(f, "gate {gate} constraint is violated")
            }
            SatisfactionError::WiringViolation { slot } => {
                write!(f, "wiring constraint at slot {slot} is violated")
            }
        }
    }
}

impl std::error::Error for SatisfactionError {}

impl Circuit {
    /// Builds a circuit from per-gate selectors and a wiring permutation over
    /// global slot indices.
    ///
    /// # Panics
    ///
    /// Panics if `gates` is empty or not a power of two, if `sigma` is not a
    /// permutation of `0..3·len`, or the lengths disagree.
    pub fn new(gates: &[GateSelectors], sigma: Vec<usize>) -> Self {
        assert!(!gates.is_empty(), "circuit must have at least one gate");
        assert!(
            gates.len().is_power_of_two(),
            "gate count must be a power of two"
        );
        let n = gates.len();
        assert_eq!(sigma.len(), 3 * n, "sigma must cover all 3·2^μ wire slots");
        // Verify sigma is a permutation.
        let mut seen = vec![false; 3 * n];
        for &s in &sigma {
            assert!(s < 3 * n, "sigma target out of range");
            assert!(!seen[s], "sigma is not a permutation");
            seen[s] = true;
        }
        let num_vars = n.trailing_zeros() as usize;
        let selectors = [
            MultilinearPoly::from_fn(num_vars, |i| gates[i].q_l),
            MultilinearPoly::from_fn(num_vars, |i| gates[i].q_r),
            MultilinearPoly::from_fn(num_vars, |i| gates[i].q_m),
            MultilinearPoly::from_fn(num_vars, |i| gates[i].q_o),
            MultilinearPoly::from_fn(num_vars, |i| gates[i].q_c),
        ];
        let sigma_cols = [
            sigma[..n].to_vec(),
            sigma[n..2 * n].to_vec(),
            sigma[2 * n..].to_vec(),
        ];
        Self {
            num_vars,
            selectors,
            sigma: sigma_cols,
        }
    }

    /// Builds a circuit with the identity wiring (no copy constraints).
    pub fn with_identity_wiring(gates: &[GateSelectors]) -> Self {
        let sigma: Vec<usize> = (0..3 * gates.len()).collect();
        Self::new(gates, sigma)
    }

    /// Number of variables `μ` (the circuit has `2^μ` gates).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of gates `2^μ`.
    pub fn num_gates(&self) -> usize {
        1 << self.num_vars
    }

    /// The selector MLEs in the order `q_L, q_R, q_M, q_O, q_C`.
    pub fn selectors(&self) -> &[MultilinearPoly; 5] {
        &self.selectors
    }

    /// The selector values of gate `i`.
    pub fn gate(&self, i: usize) -> GateSelectors {
        GateSelectors {
            q_l: self.selectors[0][i],
            q_r: self.selectors[1][i],
            q_m: self.selectors[2][i],
            q_o: self.selectors[3][i],
            q_c: self.selectors[4][i],
        }
    }

    /// The permutation image of global slot `column·2^μ + gate`.
    pub fn sigma_slot(&self, column: usize, gate: usize) -> usize {
        self.sigma[column][gate]
    }

    /// The permutation MLEs `σ₁, σ₂, σ₃`: slot indices embedded into `Fr`,
    /// read off the shift table `S[k] = k`, which additions build.
    pub fn sigma_mles(&self) -> [MultilinearPoly; 3] {
        let slots = Shifts::new(self.num_vars, Fr::one(), Fr::zero());
        [0, 1, 2]
            .map(|j| MultilinearPoly::new(self.sigma[j].iter().map(|&k| slots.at(k)).collect()))
    }

    /// Checks that a witness satisfies every gate and wiring constraint.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn check_witness(&self, witness: &Witness) -> Result<(), SatisfactionError> {
        let n = self.num_gates();
        for col in &witness.columns {
            if col.num_vars() != self.num_vars {
                return Err(SatisfactionError::SizeMismatch);
            }
        }
        for i in 0..n {
            let g = self.gate(i);
            let c = g.constraint(
                witness.columns[0][i],
                witness.columns[1][i],
                witness.columns[2][i],
            );
            if !c.is_zero() {
                return Err(SatisfactionError::GateViolation { gate: i });
            }
        }
        for (j, col_sigma) in self.sigma.iter().enumerate() {
            for (i, &target) in col_sigma.iter().enumerate() {
                let slot = j * n + i;
                let here = witness.columns[j][i];
                let there = witness.columns[target / n][target % n];
                if here != there {
                    return Err(SatisfactionError::WiringViolation { slot });
                }
            }
        }
        Ok(())
    }
}

impl Witness {
    /// Creates a witness from the three column tables.
    ///
    /// # Panics
    ///
    /// Panics if the columns disagree on the number of variables.
    pub fn new(w1: MultilinearPoly, w2: MultilinearPoly, w3: MultilinearPoly) -> Self {
        assert_eq!(w1.num_vars(), w2.num_vars(), "witness columns must agree");
        assert_eq!(w1.num_vars(), w3.num_vars(), "witness columns must agree");
        Self {
            columns: [w1, w2, w3],
        }
    }

    /// Number of variables `μ`.
    pub fn num_vars(&self) -> usize {
        self.columns[0].num_vars()
    }

    /// Fraction of witness values that are exactly zero or one — the
    /// sparsity statistic that drives the Sparse MSM of the Witness Commit
    /// step (the paper assumes ≈90%).
    pub fn sparsity(&self) -> f64 {
        let mut sparse = 0usize;
        let mut total = 0usize;
        for col in &self.columns {
            for v in col.evaluations() {
                if v.is_zero() || v.is_one() {
                    sparse += 1;
                }
                total += 1;
            }
        }
        sparse as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    #[test]
    fn gate_selector_constructors() {
        let add = GateSelectors::addition();
        assert_eq!(add.constraint(u(2), u(3), u(5)), Fr::zero());
        assert_ne!(add.constraint(u(2), u(3), u(6)), Fr::zero());
        let mul = GateSelectors::multiplication();
        assert_eq!(mul.constraint(u(2), u(3), u(6)), Fr::zero());
        assert_ne!(mul.constraint(u(2), u(3), u(5)), Fr::zero());
        let c = GateSelectors::constant(u(7));
        assert_eq!(c.constraint(Fr::zero(), Fr::zero(), u(7)), Fr::zero());
        let noop = GateSelectors::noop();
        assert_eq!(noop.constraint(u(9), u(8), u(7)), Fr::zero());
    }

    fn tiny_circuit() -> (Circuit, Witness) {
        // Gate 0: 2 + 3 = 5, Gate 1: 2 * 5 = 10, gates 2-3: no-ops.
        // Wiring: gate0.w1 == gate1.w1 is false (2 vs 2 — true actually),
        // we wire gate0.output (5) to gate1.right (5).
        let gates = vec![
            GateSelectors::addition(),
            GateSelectors::multiplication(),
            GateSelectors::noop(),
            GateSelectors::noop(),
        ];
        let n = 4;
        // Global slots: w1: 0..4, w2: 4..8, w3: 8..12.
        // gate0.output = slot 8, gate1.right = slot 5. Swap them.
        let mut sigma: Vec<usize> = (0..3 * n).collect();
        sigma.swap(8, 5);
        let circuit = Circuit::new(&gates, sigma);
        let w1 = MultilinearPoly::new(vec![u(2), u(2), Fr::zero(), Fr::zero()]);
        let w2 = MultilinearPoly::new(vec![u(3), u(5), Fr::zero(), Fr::zero()]);
        let w3 = MultilinearPoly::new(vec![u(5), u(10), Fr::zero(), Fr::zero()]);
        (circuit, Witness::new(w1, w2, w3))
    }

    #[test]
    fn satisfied_circuit_checks_out() {
        let (circuit, witness) = tiny_circuit();
        assert_eq!(circuit.num_vars(), 2);
        assert_eq!(circuit.num_gates(), 4);
        assert!(circuit.check_witness(&witness).is_ok());
    }

    #[test]
    fn gate_violation_is_detected() {
        let (circuit, mut witness) = tiny_circuit();
        witness.columns[2].evaluations_mut()[0] = u(6); // 2 + 3 != 6
        assert_eq!(
            circuit.check_witness(&witness),
            Err(SatisfactionError::GateViolation { gate: 0 })
        );
    }

    #[test]
    fn wiring_violation_is_detected() {
        let (circuit, mut witness) = tiny_circuit();
        // Break the copy: gate1.right must equal gate0.output.
        witness.columns[1].evaluations_mut()[1] = u(7);
        // Gate 1 now also violates its constraint; fix it so only wiring fails.
        witness.columns[2].evaluations_mut()[1] = u(14);
        let err = circuit.check_witness(&witness).unwrap_err();
        assert!(matches!(err, SatisfactionError::WiringViolation { .. }));
    }

    #[test]
    fn sigma_mles_encode_slots() {
        let (circuit, _) = tiny_circuit();
        let sigmas = circuit.sigma_mles();
        // The swap 8 <-> 5 shows up in the sigma MLEs.
        assert_eq!(sigmas[1][1], u(8));
        assert_eq!(sigmas[2][0], u(5));
        // Unswapped slots are identity.
        assert_eq!(sigmas[0][0], u(0));
        assert_eq!(circuit.sigma_slot(1, 1), 8);
    }

    #[test]
    fn witness_sparsity_statistic() {
        let (_, witness) = tiny_circuit();
        // Values: 2,2,0,0 | 3,5,0,0 | 5,10,0,0 → six of twelve are 0/1.
        assert!((witness.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let gates = vec![GateSelectors::noop(); 3];
        let _ = Circuit::with_identity_wiring(&gates);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_sigma_rejected() {
        let gates = vec![GateSelectors::noop(); 2];
        let _ = Circuit::new(&gates, vec![0, 0, 2, 3, 4, 5]);
    }

    #[test]
    fn wire_column_indices() {
        assert_eq!(WireColumn::Left.index(), 0);
        assert_eq!(WireColumn::Right.index(), 1);
        assert_eq!(WireColumn::Output.index(), 2);
        assert_eq!(WireColumn::ALL.len(), 3);
    }
}
