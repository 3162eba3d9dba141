//! Measured circuit statistics.
//!
//! The zkSpeed hardware model (Section 6.2 of the paper) is driven by
//! witness sparsity statistics; historically this repo fed it the paper's
//! *assumed* 45/45/10 zero/one/dense split. [`CircuitStats::measure`]
//! extracts the **real** statistics of a compiled circuit and witness —
//! per-column zero/one/dense counts, selector densities and the gate-kind
//! mix — so `zkspeed_core::Workload` can be built from measured circuits
//! (see `zkspeed::measured_workload` in the umbrella crate).

use zkspeed_field::Fr;

use crate::circuit::{Circuit, GateSelectors, Witness};

/// Zero/one/dense scalar counts of one witness column.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Scalars that are exactly zero (skipped by the Sparse MSM).
    pub zeros: usize,
    /// Scalars that are exactly one (tree-added by the Sparse MSM).
    pub ones: usize,
    /// Full-width scalars (Pippenger path).
    pub dense: usize,
}

impl ColumnStats {
    /// Total scalars in the column.
    pub fn total(&self) -> usize {
        self.zeros + self.ones + self.dense
    }

    /// Fraction of zeros.
    pub fn zero_fraction(&self) -> f64 {
        self.zeros as f64 / self.total().max(1) as f64
    }

    /// Fraction of ones.
    pub fn one_fraction(&self) -> f64 {
        self.ones as f64 / self.total().max(1) as f64
    }

    /// Fraction of dense scalars.
    pub fn dense_fraction(&self) -> f64 {
        self.dense as f64 / self.total().max(1) as f64
    }

    fn measure(values: &[Fr]) -> Self {
        let mut stats = Self::default();
        for v in values {
            if v.is_zero() {
                stats.zeros += 1;
            } else if v.is_one() {
                stats.ones += 1;
            } else {
                stats.dense += 1;
            }
        }
        stats
    }
}

/// How many gates of each kind a circuit contains, classified from the
/// selector patterns of Eq. (1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GateKindCounts {
    /// `w₁ + w₂ = w₃` gates.
    pub additions: usize,
    /// `w₁ · w₂ = w₃` gates.
    pub multiplications: usize,
    /// `w₃ = c` gates.
    pub constants: usize,
    /// Gates with `q_M = 0` not matching a named pattern (scaled adds,
    /// equality/range constraints, NOT gates, …).
    pub linear: usize,
    /// Gates with `q_M ≠ 0` not matching a named pattern (XOR, AND-NOT,
    /// boolean constraints, …).
    pub nonlinear: usize,
    /// All-zero-selector padding/input rows.
    pub noops: usize,
}

impl GateKindCounts {
    fn classify(&mut self, g: &GateSelectors) {
        let noop = GateSelectors::noop();
        if *g == noop {
            self.noops += 1;
        } else if *g == GateSelectors::addition() {
            self.additions += 1;
        } else if *g == GateSelectors::multiplication() {
            self.multiplications += 1;
        } else if *g == GateSelectors::constant(g.q_c) {
            // Includes constant-zero gates (`q_O = 1`, `q_C = 0`): unlike
            // noop rows they actively constrain `w₃ = 0`.
            self.constants += 1;
        } else if g.q_m.is_zero() {
            self.linear += 1;
        } else {
            self.nonlinear += 1;
        }
    }
}

/// Measured statistics of one compiled circuit plus witness: the numbers
/// that drive the hardware model instead of the paper's assumptions.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CircuitStats {
    /// `μ`: the circuit has `2^μ` gates (after padding).
    pub num_vars: usize,
    /// Number of gates `2^μ`.
    pub num_gates: usize,
    /// Per-column witness sparsity counts (`w₁`, `w₂`, `w₃`).
    pub columns: [ColumnStats; 3],
    /// Fraction of nonzero rows per selector MLE, in `q_L, q_R, q_M, q_O,
    /// q_C` order.
    pub selector_density: [f64; 5],
    /// Gate-kind mix.
    pub gate_kinds: GateKindCounts,
}

impl CircuitStats {
    /// Measures a compiled circuit and a satisfying witness.
    ///
    /// # Panics
    ///
    /// Panics if the witness size does not match the circuit.
    pub fn measure(circuit: &Circuit, witness: &Witness) -> Self {
        let n = circuit.num_gates();
        assert_eq!(
            witness.columns[0].evaluations().len(),
            n,
            "witness does not match circuit"
        );
        let columns = [0, 1, 2].map(|j| ColumnStats::measure(witness.columns[j].evaluations()));
        let selector_density = core::array::from_fn(|s| {
            let nonzero = circuit.selectors()[s]
                .evaluations()
                .iter()
                .filter(|v| !v.is_zero())
                .count();
            nonzero as f64 / n as f64
        });
        let mut gate_kinds = GateKindCounts::default();
        for i in 0..n {
            gate_kinds.classify(&circuit.gate(i));
        }
        Self {
            num_vars: circuit.num_vars(),
            num_gates: n,
            columns,
            selector_density,
            gate_kinds,
        }
    }

    /// Whole-witness zero fraction (across all three columns).
    pub fn zero_fraction(&self) -> f64 {
        let total: usize = self.columns.iter().map(ColumnStats::total).sum();
        let zeros: usize = self.columns.iter().map(|c| c.zeros).sum();
        zeros as f64 / total.max(1) as f64
    }

    /// Whole-witness one fraction.
    pub fn one_fraction(&self) -> f64 {
        let total: usize = self.columns.iter().map(ColumnStats::total).sum();
        let ones: usize = self.columns.iter().map(|c| c.ones).sum();
        ones as f64 / total.max(1) as f64
    }

    /// Whole-witness dense fraction.
    pub fn dense_fraction(&self) -> f64 {
        let total: usize = self.columns.iter().map(ColumnStats::total).sum();
        let dense: usize = self.columns.iter().map(|c| c.dense).sum();
        dense as f64 / total.max(1) as f64
    }

    /// Fraction of witness values that are zero or one — the statistic the
    /// paper assumes is ≈90% (same definition as [`Witness::sparsity`]).
    pub fn sparsity(&self) -> f64 {
        self.zero_fraction() + self.one_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::mock::{mock_circuit, SparsityProfile};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    #[test]
    fn stats_of_a_tiny_builder_circuit() {
        let mut b = CircuitBuilder::new();
        let x = b.input(Fr::from_u64(3));
        let y = b.mul(x, x);
        let z = b.add(y, x);
        b.assert_equal_constant(z, Fr::from_u64(12));
        let (circuit, witness) = b.build();
        let stats = CircuitStats::measure(&circuit, &witness);
        assert_eq!(stats.num_gates, circuit.num_gates());
        assert_eq!(stats.num_vars, circuit.num_vars());
        assert_eq!(stats.gate_kinds.additions, 1);
        assert_eq!(stats.gate_kinds.multiplications, 1);
        assert_eq!(stats.gate_kinds.linear, 1); // the equal-constant gate
                                                // Counts always sum to the circuit size.
        for col in stats.columns {
            assert_eq!(col.total(), stats.num_gates);
        }
        let kinds = stats.gate_kinds;
        assert_eq!(
            kinds.additions
                + kinds.multiplications
                + kinds.constants
                + kinds.linear
                + kinds.nonlinear
                + kinds.noops,
            stats.num_gates
        );
        // q_O is the densest selector in this circuit.
        assert!(stats.selector_density[3] >= stats.selector_density[2]);
    }

    #[test]
    fn measured_fractions_match_the_mock_generator() {
        let mut r = StdRng::seed_from_u64(0x57a7);
        let (circuit, witness) = mock_circuit(9, SparsityProfile::paper_default(), &mut r);
        let stats = CircuitStats::measure(&circuit, &witness);
        // The deck-based generator hits the profile to within rounding.
        assert!((stats.zero_fraction() - 0.45).abs() < 0.02);
        assert!((stats.one_fraction() - 0.45).abs() < 0.02);
        assert!((stats.sparsity() - witness.sparsity()).abs() < 1e-12);
        assert!(stats.zero_fraction() + stats.one_fraction() <= 1.0);
    }
}
