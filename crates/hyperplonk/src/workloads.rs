//! Real circuit workloads built from the gadget layer.
//!
//! The paper evaluates zkSpeed on mock circuits with an *assumed* 45/45/10
//! witness split; the related workload literature (SHA3-style hashing as
//! the representative blockchain proving load, Merkle membership, rollup
//! state transitions) motivates measuring real circuits instead. This
//! module ships three end-to-end workloads:
//!
//! * [`hash_chain_circuit`] — `links` chained (reduced-round)
//!   Keccak-f\[1600\] permutations, the SHA3 hash-chain shape;
//! * [`merkle_membership_circuit`] — depth-`d` Merkle path verification
//!   with sponge-compression hashing and conditional swaps;
//! * [`state_transition_circuit`] — rollup-style balance updates with
//!   range-checked amounts and conservation constraints (the circuit the
//!   `private_transaction_rollup` example proves).
//!
//! Every builder returns a satisfied `(Circuit, Witness)` pair whose
//! measured statistics ([`crate::CircuitStats`]) can drive the hardware
//! model; [`WorkloadSpec`] enumerates the suite for benches and examples.

use zkspeed_field::Fr;
use zkspeed_rt::{keccak_f1600_rounds, Rng};

use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, Witness};
use crate::gadgets::{
    assert_digest_equals, assert_range_bits, compress256, cond_swap_words, digest_input,
    native_compress256, Digest256, KeccakState,
};

/// Parameters of the hash-chain workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HashChainSpec {
    /// Number of chained permutations.
    pub links: usize,
    /// Keccak rounds per permutation (24 = the real permutation; fewer
    /// keeps test circuits small at ~6.4k gates per round).
    pub rounds: usize,
}

/// Parameters of the Merkle-membership workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MerkleSpec {
    /// Tree depth (number of compression levels on the path).
    pub depth: usize,
    /// Keccak rounds per compression.
    pub rounds: usize,
}

/// Parameters of the state-transition workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StateTransitionSpec {
    /// Number of balance transfers in the batch.
    pub transfers: usize,
    /// Bit width of balances and amounts (≤ 62 so sums cannot wrap).
    pub balance_bits: usize,
}

/// Builds the hash-chain circuit: `spec.links` chained permutations over a
/// random initial state, with the final 256-bit digest constrained to the
/// natively computed expectation.
pub fn hash_chain_circuit<R: Rng + ?Sized>(
    spec: &HashChainSpec,
    rng: &mut R,
) -> (Circuit, Witness) {
    assert!(spec.links >= 1, "hash chain needs at least one link");
    let initial: [u64; 25] = core::array::from_fn(|_| rng.gen());

    let mut b = CircuitBuilder::new();
    let mut state = KeccakState::input(&mut b, initial);
    for _ in 0..spec.links {
        state = state.permute(&mut b, spec.rounds);
    }

    // The expected final digest, computed natively outside the circuit.
    let mut expected = initial;
    for _ in 0..spec.links {
        keccak_f1600_rounds(&mut expected, spec.rounds);
    }
    for (lane, want) in state.lanes.iter().take(4).zip(expected.iter()) {
        lane.assert_equals_const(&mut b, *want);
    }
    b.build()
}

/// Builds the Merkle-membership circuit: a private leaf digest and path
/// (siblings + direction bits) hashed up `spec.depth` levels, with the
/// resulting root constrained to the natively computed one.
pub fn merkle_membership_circuit<R: Rng + ?Sized>(
    spec: &MerkleSpec,
    rng: &mut R,
) -> (Circuit, Witness) {
    assert!(spec.depth >= 1, "merkle path needs at least one level");
    let leaf: [u64; 4] = core::array::from_fn(|_| rng.gen());
    let siblings: Vec<[u64; 4]> = (0..spec.depth)
        .map(|_| core::array::from_fn(|_| rng.gen()))
        .collect();
    let directions: Vec<bool> = (0..spec.depth).map(|_| rng.gen_bool(0.5)).collect();

    // Native root: direction bit set ⇒ the current node is the right child.
    let mut expected = leaf;
    for (sibling, &dir) in siblings.iter().zip(directions.iter()) {
        expected = if dir {
            native_compress256(*sibling, expected, spec.rounds)
        } else {
            native_compress256(expected, *sibling, spec.rounds)
        };
    }

    let mut b = CircuitBuilder::new();
    let mut current: Digest256 = digest_input(&mut b, leaf);
    for (sibling, &dir) in siblings.iter().zip(directions.iter()) {
        let dir_bit = b.input(Fr::from_u64(dir as u64));
        b.assert_boolean(dir_bit);
        let sib = digest_input(&mut b, *sibling);
        let mut left: Digest256 = current;
        let mut right: Digest256 = sib;
        for lane in 0..4 {
            let (l, r) = cond_swap_words(&mut b, dir_bit, &current[lane], &sib[lane]);
            left[lane] = l;
            right[lane] = r;
        }
        current = compress256(&mut b, &left, &right, spec.rounds);
    }
    assert_digest_equals(&mut b, &current, expected);
    b.build()
}

/// Builds the state-transition circuit: `spec.transfers` balance updates,
/// each with an authorization flag, range-checked amount and balances
/// (no under- or overflow) and a sender+receiver conservation constraint;
/// the total transferred volume is accumulated and bound to the natively
/// computed sum.
pub fn state_transition_circuit<R: Rng + ?Sized>(
    spec: &StateTransitionSpec,
    rng: &mut R,
) -> (Circuit, Witness) {
    assert!(spec.transfers >= 1, "need at least one transfer");
    assert!(
        (2..=62).contains(&spec.balance_bits),
        "balance bits must be in 2..=62"
    );
    let bits = spec.balance_bits;
    // Keep headroom so receiver_new = receiver_old + amount stays below
    // 2^bits: balances and amounts are drawn from [0, 2^(bits-1)).
    let half_range = 1u64 << (bits - 1);

    let mut b = CircuitBuilder::new();
    let mut total_volume = 0u64;
    let mut volume_acc = b.constant(Fr::zero());
    for _ in 0..spec.transfers {
        let sender_old_v = rng.gen_range(0..half_range);
        let amount_v = rng.gen_range(0..sender_old_v.min(half_range - 1) + 1);
        let receiver_old_v = rng.gen_range(0..half_range);

        let sender_old = b.input(Fr::from_u64(sender_old_v));
        let receiver_old = b.input(Fr::from_u64(receiver_old_v));
        let amount = b.input(Fr::from_u64(amount_v));

        // The transfer must be authorized: flag is a bit, and
        // amount · flag = amount forces flag = 1 whenever amount ≠ 0.
        let flag = b.input(Fr::one());
        b.assert_boolean(flag);
        let authorized = b.mul(amount, flag);
        b.assert_equal(authorized, amount);

        // amount ∈ [0, 2^bits) and the updated balances stay in range —
        // in particular sender_new underflowing to a huge field element
        // fails its range check.
        assert_range_bits(&mut b, amount, bits);
        let sender_new = b.custom(
            sender_old,
            amount,
            Fr::one(),
            -Fr::one(),
            Fr::zero(),
            Fr::zero(),
        );
        assert_range_bits(&mut b, sender_new, bits);
        let receiver_new = b.add(receiver_old, amount);
        assert_range_bits(&mut b, receiver_new, bits);

        // Conservation: no value created or destroyed.
        let before = b.add(sender_old, receiver_old);
        let after = b.add(sender_new, receiver_new);
        b.assert_equal(before, after);

        volume_acc = b.add(volume_acc, amount);
        total_volume += amount_v;
    }
    b.assert_equal_constant(volume_acc, Fr::from_u64(total_volume));
    b.build()
}

/// One member of the workload suite, with the parameters to build it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Chained SHA3 permutations.
    HashChain(HashChainSpec),
    /// Merkle path verification.
    MerkleMembership(MerkleSpec),
    /// Rollup balance updates.
    StateTransition(StateTransitionSpec),
}

impl WorkloadSpec {
    /// The suite at test scale: each circuit proves in roughly a second,
    /// all fit a `μ = 14` SRS.
    pub fn test_suite() -> [WorkloadSpec; 3] {
        [
            WorkloadSpec::HashChain(HashChainSpec {
                links: 2,
                rounds: 1,
            }),
            WorkloadSpec::MerkleMembership(MerkleSpec {
                depth: 1,
                rounds: 1,
            }),
            WorkloadSpec::StateTransition(StateTransitionSpec {
                transfers: 8,
                balance_bits: 32,
            }),
        ]
    }

    /// The suite at example scale (deeper structures, still laptop-fast);
    /// fits a `μ = 15` SRS.
    pub fn example_suite() -> [WorkloadSpec; 3] {
        [
            WorkloadSpec::HashChain(HashChainSpec {
                links: 2,
                rounds: 1,
            }),
            WorkloadSpec::MerkleMembership(MerkleSpec {
                depth: 2,
                rounds: 1,
            }),
            WorkloadSpec::StateTransition(StateTransitionSpec {
                transfers: 32,
                balance_bits: 32,
            }),
        ]
    }

    /// Short identifier (`hash-chain`, `merkle`, `state-transition`).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::HashChain(_) => "hash-chain",
            WorkloadSpec::MerkleMembership(_) => "merkle",
            WorkloadSpec::StateTransition(_) => "state-transition",
        }
    }

    /// Full name including parameters.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::HashChain(s) => {
                format!("hash-chain/links={}/rounds={}", s.links, s.rounds)
            }
            WorkloadSpec::MerkleMembership(s) => {
                format!("merkle/depth={}/rounds={}", s.depth, s.rounds)
            }
            WorkloadSpec::StateTransition(s) => format!(
                "state-transition/transfers={}/bits={}",
                s.transfers, s.balance_bits
            ),
        }
    }

    /// Builds the circuit and a satisfying witness.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> (Circuit, Witness) {
        match self {
            WorkloadSpec::HashChain(s) => hash_chain_circuit(s, rng),
            WorkloadSpec::MerkleMembership(s) => merkle_membership_circuit(s, rng),
            WorkloadSpec::StateTransition(s) => state_transition_circuit(s, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CircuitStats;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x3ad)
    }

    #[test]
    fn hash_chain_is_satisfied_and_sized_as_designed() {
        let mut r = rng();
        let spec = HashChainSpec {
            links: 2,
            rounds: 1,
        };
        let (circuit, witness) = hash_chain_circuit(&spec, &mut r);
        assert!(circuit.check_witness(&witness).is_ok());
        // links=2/rounds=1 must stay within a 2^14 circuit (the test-suite
        // SRS sizing depends on it).
        assert_eq!(circuit.num_vars(), 14);
    }

    #[test]
    fn merkle_membership_is_satisfied_for_both_directions() {
        // Over a few seeds both direction-bit values occur.
        for seed in 0..3u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let spec = MerkleSpec {
                depth: 2,
                rounds: 1,
            };
            let (circuit, witness) = merkle_membership_circuit(&spec, &mut r);
            assert!(circuit.check_witness(&witness).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn state_transition_is_satisfied_and_mostly_dense() {
        let mut r = rng();
        let spec = StateTransitionSpec {
            transfers: 8,
            balance_bits: 32,
        };
        let (circuit, witness) = state_transition_circuit(&spec, &mut r);
        assert!(circuit.check_witness(&witness).is_ok());
        let stats = CircuitStats::measure(&circuit, &witness);
        // Balances/amounts are multi-bit values: the dense fraction is well
        // above the bit-only hash workloads'.
        assert!(stats.dense_fraction() > 0.05, "{}", stats.dense_fraction());
    }

    #[test]
    fn suite_builders_and_names() {
        let mut r = rng();
        for spec in WorkloadSpec::test_suite() {
            let (circuit, witness) = spec.build(&mut r);
            assert!(circuit.check_witness(&witness).is_ok(), "{}", spec.name());
            assert!(circuit.num_vars() <= 14, "{} too big", spec.name());
            assert!(!spec.label().is_empty());
        }
        for spec in WorkloadSpec::example_suite() {
            assert!(spec.name().contains('/'));
        }
    }

    #[test]
    fn workload_witnesses_are_bit_dominated_or_dense_as_expected() {
        let mut r = rng();
        let (c1, w1) = hash_chain_circuit(
            &HashChainSpec {
                links: 1,
                rounds: 1,
            },
            &mut r,
        );
        let s1 = CircuitStats::measure(&c1, &w1);
        // Keccak circuits carry almost exclusively 0/1 witness values —
        // far from the paper's 45/45/10 assumption.
        assert!(s1.sparsity() > 0.98, "hash sparsity {}", s1.sparsity());
        let (c2, w2) = merkle_membership_circuit(
            &MerkleSpec {
                depth: 1,
                rounds: 1,
            },
            &mut r,
        );
        let s2 = CircuitStats::measure(&c2, &w2);
        assert!(s2.sparsity() > 0.98, "merkle sparsity {}", s2.sparsity());
    }
}
