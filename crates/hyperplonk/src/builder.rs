//! A small circuit builder: allocate values, compose addition /
//! multiplication / constant gates, and compile to a [`Circuit`] plus
//! [`Witness`] with the wiring permutation derived from copy constraints.
//!
//! This is the front-end a downstream user of the library would use to
//! express a computation; the example applications (`examples/`) build their
//! workloads with it.

use zkspeed_field::Fr;
use zkspeed_poly::MultilinearPoly;

use crate::circuit::{Circuit, GateSelectors, Witness};

/// A handle to a value produced by the builder (an input or a gate output).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Variable {
    gate: usize,
}

/// Builds circuits gate by gate.
///
/// # Examples
///
/// ```
/// use zkspeed_field::Fr;
/// use zkspeed_hyperplonk::CircuitBuilder;
///
/// // Prove knowledge of x with x³ + x + 5 = 35 (i.e. x = 3).
/// let mut b = CircuitBuilder::new();
/// let x = b.input(Fr::from_u64(3));
/// let x2 = b.mul(x, x);
/// let x3 = b.mul(x2, x);
/// let t = b.add(x3, x);
/// let five = b.constant(Fr::from_u64(5));
/// let lhs = b.add(t, five);
/// let target = b.constant(Fr::from_u64(35));
/// b.assert_equal(lhs, target);
/// let (circuit, witness) = b.build();
/// assert!(circuit.check_witness(&witness).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CircuitBuilder {
    selectors: Vec<GateSelectors>,
    w1: Vec<Fr>,
    w2: Vec<Fr>,
    w3: Vec<Fr>,
    /// Copy constraints between global wire slots, resolved into a
    /// permutation at build time.
    copies: Vec<(SlotRef, SlotRef)>,
}

/// A reference to one wire slot of one gate, before the final gate count (and
/// hence global slot numbering) is known.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct SlotRef {
    gate: usize,
    column: usize,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gates added so far (before padding).
    pub fn num_gates(&self) -> usize {
        self.selectors.len()
    }

    /// Allocates an input value. Inputs occupy an unconstrained gate (all
    /// selectors zero) whose output column carries the value.
    pub fn input(&mut self, value: Fr) -> Variable {
        self.push_gate(GateSelectors::noop(), Fr::zero(), Fr::zero(), value)
    }

    /// Adds a constant gate producing `c`.
    pub fn constant(&mut self, c: Fr) -> Variable {
        self.push_gate(GateSelectors::constant(c), Fr::zero(), Fr::zero(), c)
    }

    /// Adds an addition gate computing `a + b`.
    pub fn add(&mut self, a: Variable, b: Variable) -> Variable {
        self.solved(GateSelectors::addition(), a, Some(b))
    }

    /// Adds a multiplication gate computing `a · b`.
    pub fn mul(&mut self, a: Variable, b: Variable) -> Variable {
        self.solved(GateSelectors::multiplication(), a, Some(b))
    }

    /// Adds a gate computing `a + c` for a constant `c`.
    pub fn add_constant(&mut self, a: Variable, c: Fr) -> Variable {
        let selectors = GateSelectors {
            q_l: Fr::one(),
            q_o: Fr::one(),
            q_c: c,
            ..GateSelectors::default()
        };
        self.solved(selectors, a, None)
    }

    /// Adds a gate computing `a · c` for a constant `c`.
    pub fn mul_constant(&mut self, a: Variable, c: Fr) -> Variable {
        let selectors = GateSelectors {
            q_l: c,
            q_o: Fr::one(),
            ..GateSelectors::default()
        };
        self.solved(selectors, a, None)
    }

    /// Adds a general gate computing
    /// `out = q_l·a + q_r·b + q_m·a·b + q_c` (with `q_O = 1`), the
    /// primitive the gadget layer builds single-gate XOR, AND-NOT and
    /// scaled-accumulate operations from.
    pub fn custom(
        &mut self,
        a: Variable,
        b: Variable,
        q_l: Fr,
        q_r: Fr,
        q_m: Fr,
        q_c: Fr,
    ) -> Variable {
        let selectors = GateSelectors {
            q_l,
            q_r,
            q_m,
            q_o: Fr::one(),
            q_c,
        };
        self.solved(selectors, a, Some(b))
    }

    /// A gate with `q_O = 1` whose output is the gate identity solved for
    /// `w₃`, its inputs wired to `a` and to `b` (zero without one).
    fn solved(&mut self, selectors: GateSelectors, a: Variable, b: Option<Variable>) -> Variable {
        let va = self.value_of(a);
        let vb = b.map_or(Fr::zero(), |b| self.value_of(b));
        let out = self.push_gate(selectors, va, vb, selectors.constraint(va, vb, Fr::zero()));
        self.copy_output_to(a, out.gate, 0);
        if let Some(b) = b {
            self.copy_output_to(b, out.gate, 1);
        }
        out
    }

    /// Constrains `v` to be a bit with a single gate: `v² − v = 0`
    /// (selectors `q_M = 1`, `q_R = −1`, both inputs wired to `v`).
    pub fn assert_boolean(&mut self, v: Variable) {
        let val = self.value_of(v);
        let selectors = GateSelectors {
            q_r: -Fr::one(),
            q_m: Fr::one(),
            ..GateSelectors::default()
        };
        let gate = self.push_gate(selectors, val, val, Fr::zero()).gate;
        self.copy_output_to(v, gate, 0);
        self.copy_output_to(v, gate, 1);
    }

    /// Constrains `v` to equal the constant `c` (`v − c = 0`).
    pub fn assert_equal_constant(&mut self, v: Variable, c: Fr) {
        let val = self.value_of(v);
        let selectors = GateSelectors {
            q_l: Fr::one(),
            q_c: -c,
            ..GateSelectors::default()
        };
        let gate = self.push_gate(selectors, val, Fr::zero(), Fr::zero()).gate;
        self.copy_output_to(v, gate, 0);
    }

    /// Constrains `a` and `b` to be equal (`a − b = 0`).
    pub fn assert_equal(&mut self, a: Variable, b: Variable) {
        let va = self.value_of(a);
        let vb = self.value_of(b);
        let selectors = GateSelectors {
            q_l: Fr::one(),
            q_r: -Fr::one(),
            ..GateSelectors::default()
        };
        let gate = self.push_gate(selectors, va, vb, Fr::zero()).gate;
        self.copy_output_to(a, gate, 0);
        self.copy_output_to(b, gate, 1);
    }

    /// Returns the value currently assigned to a variable.
    pub fn value_of(&self, v: Variable) -> Fr {
        self.w3[v.gate]
    }

    /// Compiles the builder into a padded circuit and its witness.
    ///
    /// The gate count is padded to the next power of two (minimum 2) with
    /// no-op gates, and the copy constraints are turned into a wiring
    /// permutation whose cycles rotate through each equivalence class of
    /// connected slots, in slot order. The builder's columns become the
    /// witness's, uncopied.
    pub fn build(self) -> (Circuit, Witness) {
        let Self {
            mut selectors,
            mut w1,
            mut w2,
            mut w3,
            copies,
        } = self;
        let n = selectors.len().next_power_of_two().max(2);
        selectors.resize(n, GateSelectors::noop());
        w1.resize(n, Fr::zero());
        w2.resize(n, Fr::zero());
        w3.resize(n, Fr::zero());

        // Union-find over the 3n global slots.
        let mut parent: Vec<usize> = (0..3 * n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for (a, b) in copies {
            let sa = a.column * n + a.gate;
            let sb = b.column * n + b.gate;
            let ra = find(&mut parent, sa);
            let rb = find(&mut parent, sb);
            if ra != rb {
                parent[ra] = rb;
            }
        }
        // Each class's cycle, in slot order: `tail[root]` is the class's
        // last slot so far, and the tail's σ holds the class's first slot
        // until the next member takes its place (a singleton maps to itself).
        let mut tail = vec![usize::MAX; 3 * n];
        let mut sigma = vec![0; 3 * n];
        for slot in 0..3 * n {
            let root = find(&mut parent, slot);
            sigma[slot] = match tail[root] {
                usize::MAX => slot,
                last => std::mem::replace(&mut sigma[last], slot),
            };
            tail[root] = slot;
        }
        drop((parent, tail));

        let circuit = Circuit::new(&selectors, sigma);
        let witness = Witness::new(
            MultilinearPoly::new(w1),
            MultilinearPoly::new(w2),
            MultilinearPoly::new(w3),
        );
        (circuit, witness)
    }

    fn push_gate(&mut self, selectors: GateSelectors, w1: Fr, w2: Fr, w3: Fr) -> Variable {
        let gate = self.selectors.len();
        self.selectors.push(selectors);
        self.w1.push(w1);
        self.w2.push(w2);
        self.w3.push(w3);
        Variable { gate }
    }

    fn copy_output_to(&mut self, source: Variable, gate: usize, column: usize) {
        self.copies.push((
            SlotRef {
                gate: source.gate,
                column: 2,
            },
            SlotRef { gate, column },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(x: u64) -> Fr {
        Fr::from_u64(x)
    }

    #[test]
    fn cubic_equation_circuit_is_satisfied() {
        // x³ + x + 5 = 35 with x = 3.
        let mut b = CircuitBuilder::new();
        let x = b.input(u(3));
        let x2 = b.mul(x, x);
        let x3 = b.mul(x2, x);
        let t = b.add(x3, x);
        let five = b.constant(u(5));
        let lhs = b.add(t, five);
        let target = b.constant(u(35));
        b.assert_equal(lhs, target);
        assert_eq!(b.value_of(lhs), u(35));
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
        assert!(circuit.num_gates().is_power_of_two());
    }

    #[test]
    fn wrong_input_violates_constraints() {
        // Same circuit with x = 4 fails the equality gate.
        let mut b = CircuitBuilder::new();
        let x = b.input(u(4));
        let x2 = b.mul(x, x);
        let x3 = b.mul(x2, x);
        let t = b.add(x3, x);
        let five = b.constant(u(5));
        let lhs = b.add(t, five);
        let target = b.constant(u(35));
        b.assert_equal(lhs, target);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_err());
    }

    #[test]
    fn copy_constraints_create_nontrivial_wiring() {
        let mut b = CircuitBuilder::new();
        let x = b.input(u(2));
        let y = b.mul(x, x);
        let _ = b.add(y, x);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
        // At least one slot must be wired away from itself.
        let n = circuit.num_gates();
        let mut moved = 0;
        for j in 0..3 {
            for i in 0..n {
                if circuit.sigma_slot(j, i) != j * n + i {
                    moved += 1;
                }
            }
        }
        assert!(moved >= 2, "expected nontrivial wiring, moved = {moved}");
        // Each class's cycle runs in slot order. With n = 4, x fills slots
        // 8 (its input gate), 1, 5 and 6, and y fills 9 and 2.
        let sigma: Vec<usize> = (0..12).map(|s| circuit.sigma_slot(s / 4, s % 4)).collect();
        assert_eq!(sigma, [0, 5, 9, 3, 4, 6, 8, 7, 1, 2, 10, 11]);
    }

    #[test]
    fn constant_helpers_compute_expected_values() {
        let mut b = CircuitBuilder::new();
        let x = b.input(u(10));
        let a = b.add_constant(x, u(7));
        let m = b.mul_constant(x, u(3));
        assert_eq!(b.value_of(a), u(17));
        assert_eq!(b.value_of(m), u(30));
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }

    #[test]
    fn tampering_with_copied_value_breaks_wiring() {
        let mut b = CircuitBuilder::new();
        let x = b.input(u(2));
        let y = b.mul(x, x);
        let _z = b.add(y, y);
        let (circuit, mut witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
        // Gate 2 is the addition gate; make its left input inconsistent with
        // the multiplication output while keeping the gate constraint true.
        witness.columns[0].evaluations_mut()[2] = u(6);
        witness.columns[1].evaluations_mut()[2] = u(6);
        witness.columns[2].evaluations_mut()[2] = u(12);
        let err = circuit.check_witness(&witness).unwrap_err();
        assert!(matches!(
            err,
            crate::circuit::SatisfactionError::WiringViolation { .. }
        ));
    }

    #[test]
    fn custom_gate_computes_general_form() {
        let mut b = CircuitBuilder::new();
        let x = b.input(u(3));
        let y = b.input(u(5));
        // out = 2x + 7y − xy + 11 = 6 + 35 − 15 + 11 = 37.
        let out = b.custom(x, y, u(2), u(7), -u(1), u(11));
        assert_eq!(b.value_of(out), u(37));
        // Single-gate XOR: a + b − 2ab on bits.
        let one = b.input(u(1));
        let zero = b.input(u(0));
        let x1 = b.custom(one, zero, u(1), u(1), -u(2), u(0));
        let x0 = b.custom(one, one, u(1), u(1), -u(2), u(0));
        assert_eq!(b.value_of(x1), u(1));
        assert_eq!(b.value_of(x0), u(0));
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }

    #[test]
    fn boolean_and_constant_assertions() {
        let mut b = CircuitBuilder::new();
        let bit = b.input(u(1));
        b.assert_boolean(bit);
        let v = b.input(u(42));
        b.assert_equal_constant(v, u(42));
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());

        // A non-bit fails the boolean gate; a wrong constant fails too.
        let mut b = CircuitBuilder::new();
        let not_bit = b.input(u(2));
        b.assert_boolean(not_bit);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_err());

        let mut b = CircuitBuilder::new();
        let v = b.input(u(41));
        b.assert_equal_constant(v, u(42));
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_err());
    }

    #[test]
    fn builder_pads_to_power_of_two() {
        let mut b = CircuitBuilder::new();
        let x = b.input(u(1));
        let y = b.add(x, x);
        let _ = b.add(y, x);
        assert_eq!(b.num_gates(), 3);
        let (circuit, _) = b.build();
        assert_eq!(circuit.num_gates(), 4);
    }
}
