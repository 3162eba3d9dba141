//! Reusable in-circuit gadgets on top of [`CircuitBuilder`].
//!
//! The zkSpeed paper evaluates on synthetic circuits; this module provides
//! the building blocks for **real** ones: single-gate boolean algebra
//! (XOR / AND-NOT via the general Eq. (1) gate form), 64-bit lane words
//! with free rotations, the Keccak-f\[1600\] permutation (the θ/ρ/π/χ/ι
//! decomposition of FIPS 202, bit-compatible with the native
//! [`zkspeed_rt::keccak_f1600`]), a sponge-style 256-bit hash compression,
//! and range / conditional-select gadgets. The workload suite
//! (`crate::workloads`) composes these into hash-chain, Merkle-membership
//! and state-transition circuits.
//!
//! Conventions: bits are `Fr` values in `{0, 1}` constrained by
//! [`CircuitBuilder::assert_boolean`]; words are little-endian
//! (`bits[0]` is the least-significant bit of the lane).

use zkspeed_field::Fr;
use zkspeed_rt::{keccak_f1600_rounds, KECCAK_ROUND_CONSTANTS};

use crate::builder::{CircuitBuilder, Variable};

/// Rotation offsets for Keccak's ρ step, indexed `RHO[x][y]` (FIPS 202,
/// mirrored from the native implementation in `zkspeed-rt`).
const RHO: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// XOR of two bits in a single gate: `a + b − 2ab`.
pub fn xor(b: &mut CircuitBuilder, x: Variable, y: Variable) -> Variable {
    b.custom(x, y, Fr::one(), Fr::one(), -Fr::from_u64(2), Fr::zero())
}

/// AND of two bits (a plain multiplication gate).
pub fn and(b: &mut CircuitBuilder, x: Variable, y: Variable) -> Variable {
    b.mul(x, y)
}

/// `(¬x) ∧ y` in a single gate: `y − x·y` (the χ-step primitive).
pub fn and_not(b: &mut CircuitBuilder, x: Variable, y: Variable) -> Variable {
    b.custom(x, y, Fr::zero(), Fr::one(), -Fr::one(), Fr::zero())
}

/// NOT of a bit in a single gate: `1 − x`.
pub fn not(b: &mut CircuitBuilder, x: Variable) -> Variable {
    b.custom(x, x, -Fr::one(), Fr::zero(), Fr::zero(), Fr::one())
}

/// `cond ? t : f` for a boolean `cond`: `f + cond·(t − f)`.
pub fn select(b: &mut CircuitBuilder, cond: Variable, t: Variable, f: Variable) -> Variable {
    let diff = b.custom(t, f, Fr::one(), -Fr::one(), Fr::zero(), Fr::zero());
    let scaled = b.mul(cond, diff);
    b.add(f, scaled)
}

/// Conditionally swaps `(x, y)`: returns `(y, x)` when `cond` is one and
/// `(x, y)` when it is zero, sharing the difference gate between the two
/// outputs (4 gates instead of 6).
pub fn cond_swap(
    b: &mut CircuitBuilder,
    cond: Variable,
    x: Variable,
    y: Variable,
) -> (Variable, Variable) {
    let diff = b.custom(y, x, Fr::one(), -Fr::one(), Fr::zero(), Fr::zero());
    let scaled = b.mul(cond, diff);
    let first = b.add(x, scaled);
    let second = b.custom(y, scaled, Fr::one(), -Fr::one(), Fr::zero(), Fr::zero());
    (first, second)
}

/// Range-constrains `v` to `[0, 2^bits)`: allocates `bits` boolean wires,
/// recomposes them with scaled-accumulate gates and binds the sum back to
/// `v`. Returns the bit wires (LSB first) for further use.
///
/// If the witness value of `v` does not fit in `bits` bits the circuit is
/// (correctly) unsatisfiable.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds 64.
pub fn assert_range_bits(b: &mut CircuitBuilder, v: Variable, bits: usize) -> Vec<Variable> {
    assert!(
        (1..=64).contains(&bits),
        "range gadget supports 1..=64 bits"
    );
    let limbs = b.value_of(v).to_canonical_limbs();
    let low = limbs[0];
    let bit_vars: Vec<Variable> = (0..bits)
        .map(|i| {
            let bit = b.input(Fr::from_u64((low >> i) & 1));
            b.assert_boolean(bit);
            bit
        })
        .collect();
    let mut acc = bit_vars[0];
    for (i, &bit) in bit_vars.iter().enumerate().skip(1) {
        // acc ← acc + 2^i · bit.
        acc = b.custom(
            acc,
            bit,
            Fr::one(),
            Fr::from_u64(1u64 << i),
            Fr::zero(),
            Fr::zero(),
        );
    }
    b.assert_equal(acc, v);
    bit_vars
}

/// A 64-bit lane as 64 boolean wires, little-endian.
#[derive(Copy, Clone, Debug)]
pub struct Word64 {
    /// The bit wires, `bits[0]` least significant.
    pub bits: [Variable; 64],
}

impl Word64 {
    /// Allocates a lane as 64 fresh boolean-constrained input bits.
    pub fn input(b: &mut CircuitBuilder, value: u64) -> Self {
        let bits = core::array::from_fn(|i| {
            let bit = b.input(Fr::from_u64((value >> i) & 1));
            b.assert_boolean(bit);
            bit
        });
        Self { bits }
    }

    /// A constant lane. Costs at most two gates (one shared zero wire, one
    /// shared one wire), since equal constant bits can share a wire.
    pub fn constant(b: &mut CircuitBuilder, value: u64) -> Self {
        let zero = b.constant(Fr::zero());
        let one = if value != 0 {
            b.constant(Fr::one())
        } else {
            zero
        };
        let bits = core::array::from_fn(|i| if (value >> i) & 1 == 1 { one } else { zero });
        Self { bits }
    }

    /// Reads the lane's current witness value back as a `u64`.
    pub fn value(&self, b: &CircuitBuilder) -> u64 {
        let mut out = 0u64;
        for (i, bit) in self.bits.iter().enumerate() {
            if b.value_of(*bit).is_one() {
                out |= 1 << i;
            }
        }
        out
    }

    /// Rotates left by `r` bits. Free: a pure re-indexing of wires.
    pub fn rotl(&self, r: u32) -> Self {
        let r = (r % 64) as usize;
        Self {
            bits: core::array::from_fn(|i| self.bits[(i + 64 - r) % 64]),
        }
    }

    /// Bitwise XOR with another lane (64 single-gate XORs).
    pub fn xor(&self, b: &mut CircuitBuilder, other: &Self) -> Self {
        Self {
            bits: core::array::from_fn(|i| xor(b, self.bits[i], other.bits[i])),
        }
    }

    /// Bitwise XOR with a constant: set bits become single-gate NOTs, clear
    /// bits are free.
    pub fn xor_const(&self, b: &mut CircuitBuilder, c: u64) -> Self {
        Self {
            bits: core::array::from_fn(|i| {
                if (c >> i) & 1 == 1 {
                    not(b, self.bits[i])
                } else {
                    self.bits[i]
                }
            }),
        }
    }

    /// `(¬self) ∧ other` bitwise (the χ-step primitive).
    pub fn and_not(&self, b: &mut CircuitBuilder, other: &Self) -> Self {
        Self {
            bits: core::array::from_fn(|i| and_not(b, self.bits[i], other.bits[i])),
        }
    }

    /// Constrains this lane to equal the constant `value`.
    pub fn assert_equals_const(&self, b: &mut CircuitBuilder, value: u64) {
        for (i, bit) in self.bits.iter().enumerate() {
            b.assert_equal_constant(*bit, Fr::from_u64((value >> i) & 1));
        }
    }
}

/// Conditionally swaps two lanes bit by bit.
pub fn cond_swap_words(
    b: &mut CircuitBuilder,
    cond: Variable,
    x: &Word64,
    y: &Word64,
) -> (Word64, Word64) {
    let mut first = *x;
    let mut second = *y;
    for i in 0..64 {
        let (f, s) = cond_swap(b, cond, x.bits[i], y.bits[i]);
        first.bits[i] = f;
        second.bits[i] = s;
    }
    (first, second)
}

/// The 5×5-lane Keccak-f\[1600\] state, indexed `lanes[x + 5·y]` as in
/// FIPS 202 (and the native `zkspeed_rt` implementation).
#[derive(Copy, Clone, Debug)]
pub struct KeccakState {
    /// The 25 lanes.
    pub lanes: [Word64; 25],
}

impl KeccakState {
    /// Allocates a state of boolean-constrained input bits.
    pub fn input(b: &mut CircuitBuilder, lanes: [u64; 25]) -> Self {
        Self {
            lanes: core::array::from_fn(|i| Word64::input(b, lanes[i])),
        }
    }

    /// Reads the state's current witness values back.
    pub fn values(&self, b: &CircuitBuilder) -> [u64; 25] {
        core::array::from_fn(|i| self.lanes[i].value(b))
    }

    /// One Keccak round (θ, ρ, π, χ, ι) with round constant `rc`.
    // The x/y index loops mirror the FIPS 202 specification (and the
    // native implementation) one-to-one; iterator rewrites obscure that.
    #[allow(clippy::needless_range_loop)]
    pub fn round(&self, b: &mut CircuitBuilder, rc: u64) -> Self {
        // θ: column parities, then mix each lane with its neighbours'.
        let c: [Word64; 5] = core::array::from_fn(|x| {
            let mut acc = self.lanes[x];
            for y in 1..5 {
                acc = acc.xor(b, &self.lanes[x + 5 * y]);
            }
            acc
        });
        let d: [Word64; 5] = core::array::from_fn(|x| {
            let rot = c[(x + 1) % 5].rotl(1);
            c[(x + 4) % 5].xor(b, &rot)
        });
        let mut theta = *self;
        for y in 0..5 {
            for x in 0..5 {
                theta.lanes[x + 5 * y] = theta.lanes[x + 5 * y].xor(b, &d[x]);
            }
        }

        // ρ and π: pure wire re-indexing, zero gates.
        let mut shuffled = theta;
        for x in 0..5 {
            for y in 0..5 {
                shuffled.lanes[y + 5 * ((2 * x + 3 * y) % 5)] =
                    theta.lanes[x + 5 * y].rotl(RHO[x][y]);
            }
        }

        // χ: lane ^= (¬next) & next2, rowwise.
        let mut chi = shuffled;
        for y in 0..5 {
            for x in 0..5 {
                let masked = shuffled.lanes[(x + 1) % 5 + 5 * y]
                    .and_not(b, &shuffled.lanes[(x + 2) % 5 + 5 * y]);
                chi.lanes[x + 5 * y] = shuffled.lanes[x + 5 * y].xor(b, &masked);
            }
        }

        // ι: fold the round constant into lane (0, 0).
        let mut out = chi;
        out.lanes[0] = chi.lanes[0].xor_const(b, rc);
        out
    }

    /// Applies the first `rounds` rounds of Keccak-f\[1600\]
    /// (`rounds == 24` is the full permutation), bit-compatible with
    /// [`zkspeed_rt::keccak_f1600_rounds`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds > 24`.
    pub fn permute(&self, b: &mut CircuitBuilder, rounds: usize) -> Self {
        assert!(rounds <= KECCAK_ROUND_CONSTANTS.len(), "at most 24 rounds");
        let mut state = *self;
        for &rc in KECCAK_ROUND_CONSTANTS[..rounds].iter() {
            state = state.round(b, rc);
        }
        state
    }
}

/// A 256-bit digest as four lanes.
pub type Digest256 = [Word64; 4];

/// Allocates a digest of boolean-constrained input bits.
pub fn digest_input(b: &mut CircuitBuilder, value: [u64; 4]) -> Digest256 {
    core::array::from_fn(|i| Word64::input(b, value[i]))
}

/// Reads a digest's witness values back.
pub fn digest_value(b: &CircuitBuilder, digest: &Digest256) -> [u64; 4] {
    core::array::from_fn(|i| digest[i].value(b))
}

/// Constrains a digest to equal a constant value.
pub fn assert_digest_equals(b: &mut CircuitBuilder, digest: &Digest256, value: [u64; 4]) {
    for (lane, v) in digest.iter().zip(value.iter()) {
        lane.assert_equals_const(b, *v);
    }
}

/// Sponge-style two-to-one hash compression: absorbs `left` and `right`
/// into the first eight lanes of an all-zero Keccak state, applies
/// `rounds` rounds of the permutation, and squeezes the first four lanes.
/// The reduced-round variants keep test circuits small; `rounds == 24`
/// matches a real SHA3-style compression.
pub fn compress256(
    b: &mut CircuitBuilder,
    left: &Digest256,
    right: &Digest256,
    rounds: usize,
) -> Digest256 {
    let zero = Word64::constant(b, 0);
    let mut lanes = [zero; 25];
    lanes[..4].copy_from_slice(left);
    lanes[4..8].copy_from_slice(right);
    let state = KeccakState { lanes }.permute(b, rounds);
    core::array::from_fn(|i| state.lanes[i])
}

/// The native counterpart of [`compress256`], used to compute expected
/// digests outside the circuit.
pub fn native_compress256(left: [u64; 4], right: [u64; 4], rounds: usize) -> [u64; 4] {
    let mut state = [0u64; 25];
    state[..4].copy_from_slice(&left);
    state[4..8].copy_from_slice(&right);
    keccak_f1600_rounds(&mut state, rounds);
    [state[0], state[1], state[2], state[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x9ad9e75)
    }

    #[test]
    fn bit_ops_truth_tables() {
        let mut b = CircuitBuilder::new();
        let zero = b.input(Fr::zero());
        let one = b.input(Fr::one());
        for (x, y, want_xor, want_and, want_andnot) in [
            (zero, zero, 0u64, 0u64, 0u64),
            (zero, one, 1, 0, 1),
            (one, zero, 1, 0, 0),
            (one, one, 0, 1, 0),
        ] {
            let got = xor(&mut b, x, y);
            assert_eq!(b.value_of(got), Fr::from_u64(want_xor));
            let got = and(&mut b, x, y);
            assert_eq!(b.value_of(got), Fr::from_u64(want_and));
            let got = and_not(&mut b, x, y);
            assert_eq!(b.value_of(got), Fr::from_u64(want_andnot));
        }
        let nz = not(&mut b, zero);
        let no = not(&mut b, one);
        assert_eq!(b.value_of(nz), Fr::one());
        assert_eq!(b.value_of(no), Fr::zero());
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }

    #[test]
    fn select_and_cond_swap() {
        let mut b = CircuitBuilder::new();
        let t = b.input(Fr::from_u64(7));
        let f = b.input(Fr::from_u64(9));
        let one = b.input(Fr::one());
        let zero = b.input(Fr::zero());
        let sel_t = select(&mut b, one, t, f);
        let sel_f = select(&mut b, zero, t, f);
        assert_eq!(b.value_of(sel_t), Fr::from_u64(7));
        assert_eq!(b.value_of(sel_f), Fr::from_u64(9));
        let (a, c) = cond_swap(&mut b, one, t, f);
        assert_eq!(b.value_of(a), Fr::from_u64(9));
        assert_eq!(b.value_of(c), Fr::from_u64(7));
        let (a, c) = cond_swap(&mut b, zero, t, f);
        assert_eq!(b.value_of(a), Fr::from_u64(7));
        assert_eq!(b.value_of(c), Fr::from_u64(9));
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }

    #[test]
    fn range_gadget_accepts_in_range_and_rejects_overflow() {
        let mut b = CircuitBuilder::new();
        let v = b.input(Fr::from_u64(300));
        let bits = assert_range_bits(&mut b, v, 16);
        assert_eq!(bits.len(), 16);
        // LSB-first decomposition of 300 = 0b100101100.
        assert_eq!(b.value_of(bits[2]), Fr::one());
        assert_eq!(b.value_of(bits[0]), Fr::zero());
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());

        // 300 does not fit in 8 bits: the recomposition gate must fail.
        let mut b = CircuitBuilder::new();
        let v = b.input(Fr::from_u64(300));
        assert_range_bits(&mut b, v, 8);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_err());

        // Negative values (huge canonical representatives) are rejected too.
        let mut b = CircuitBuilder::new();
        let v = b.input(-Fr::from_u64(1));
        assert_range_bits(&mut b, v, 32);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_err());
    }

    #[test]
    fn word_ops_match_u64_semantics() {
        let mut r = rng();
        let mut b = CircuitBuilder::new();
        let xv: u64 = r.gen();
        let yv: u64 = r.gen();
        let x = Word64::input(&mut b, xv);
        let y = Word64::input(&mut b, yv);
        assert_eq!(x.value(&b), xv);
        assert_eq!(x.xor(&mut b, &y).value(&b), xv ^ yv);
        assert_eq!(x.and_not(&mut b, &y).value(&b), !xv & yv);
        assert_eq!(x.rotl(13).value(&b), xv.rotate_left(13));
        assert_eq!(x.rotl(0).value(&b), xv);
        assert_eq!(x.xor_const(&mut b, 0xdead_beef).value(&b), xv ^ 0xdead_beef);
        let c = Word64::constant(&mut b, 0x0123_4567_89ab_cdef);
        assert_eq!(c.value(&b), 0x0123_4567_89ab_cdef);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }

    #[test]
    fn keccak_round_counts_are_as_designed() {
        // One round must stay in the ~6.5k-gate envelope the workload
        // sizing relies on (θ ≈ 3200, χ ≈ 3200, ι ≤ 64; ρ/π free).
        let mut b = CircuitBuilder::new();
        let state = KeccakState::input(&mut b, [0u64; 25]);
        let before = b.num_gates();
        let _ = state.round(&mut b, KECCAK_ROUND_CONSTANTS[0]);
        let per_round = b.num_gates() - before;
        assert!(
            (6_400..6_600).contains(&per_round),
            "gates per round: {per_round}"
        );
    }

    #[test]
    fn in_circuit_keccak_matches_native_permutation() {
        let mut r = rng();
        for rounds in [1usize, 2, 24] {
            let lanes: [u64; 25] = core::array::from_fn(|_| r.gen());
            let mut b = CircuitBuilder::new();
            let state = KeccakState::input(&mut b, lanes);
            let out = state.permute(&mut b, rounds);
            let mut expected = lanes;
            keccak_f1600_rounds(&mut expected, rounds);
            assert_eq!(out.values(&b), expected, "rounds = {rounds}");
            if rounds < 24 {
                // Full satisfiability check on the cheap instances; the
                // 24-round instance is covered by the value comparison
                // (building + checking a 2^18-gate circuit is slow in
                // debug test runs).
                let (circuit, witness) = b.build();
                assert!(circuit.check_witness(&witness).is_ok());
            }
        }
    }

    #[test]
    fn compress_matches_native_and_is_order_sensitive() {
        let mut r = rng();
        let left: [u64; 4] = core::array::from_fn(|_| r.gen());
        let right: [u64; 4] = core::array::from_fn(|_| r.gen());
        let mut b = CircuitBuilder::new();
        let l = digest_input(&mut b, left);
        let rr = digest_input(&mut b, right);
        let out = compress256(&mut b, &l, &rr, 2);
        let expected = native_compress256(left, right, 2);
        assert_eq!(digest_value(&b, &out), expected);
        assert_ne!(expected, native_compress256(right, left, 2));
        assert_digest_equals(&mut b, &out, expected);
        let (circuit, witness) = b.build();
        assert!(circuit.check_witness(&witness).is_ok());
    }
}
