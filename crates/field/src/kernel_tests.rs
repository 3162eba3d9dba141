#![cfg(test)]
//! Enumerated tests of the Montgomery multiplication kernel of both fields
//! (`square` is `mul` of an element by itself): every pair of edge operands
//! plus seeded random pairs against the slow schoolbook reference, and the
//! reference itself against an oracle that multiplies with additions only.

use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::{Rng, SeedableRng};

use crate::arith::{limbs_lt, limbs_sub_assign};
use crate::{batch_invert, measure_modmuls, ModmulCount};

macro_rules! kernel_tests {
    ($field:ident, $module:ident, $limbs:expr, $count:expr) => {
        mod $module {
            use super::*;
            use crate::$field;

            type Limbs = [u64; $limbs];

            fn small(v: u64) -> Limbs {
                let mut limbs = [0u64; $limbs];
                limbs[0] = v;
                limbs
            }

            fn modulus_minus(v: u64) -> Limbs {
                let mut limbs = $field::MODULUS;
                limbs_sub_assign(&mut limbs, &small(v));
                limbs
            }

            /// Raw limb patterns (read as Montgomery-form values) that drive
            /// the carry chains of the kernels to their extremes.
            fn edge_operands() -> Vec<$field> {
                let mut all_ones = [u64::MAX; $limbs];
                while !limbs_lt(&all_ones, &$field::MODULUS) {
                    limbs_sub_assign(&mut all_ones, &$field::MODULUS);
                }
                let mut raw = vec![
                    small(0),
                    small(1),
                    small(2),
                    modulus_minus(1),
                    modulus_minus(2),
                    $field::R,
                    $field::R2,
                    all_ones,
                ];
                // What saturates the two carry chains of a multiplication
                // row: the `k` low limbs all ones, `(p − 1) / 2`, and limbs
                // alternating between zero and all ones (`p − 1` is above).
                for k in 1..$limbs {
                    raw.push(core::array::from_fn(|j| if j < k { u64::MAX } else { 0 }));
                }
                let minus_one = modulus_minus(1);
                raw.push(core::array::from_fn(|j| {
                    let above = if j + 1 < $limbs { minus_one[j + 1] } else { 0 };
                    (minus_one[j] >> 1) | (above << 63)
                }));
                for phase in 0..2 {
                    let mut limbs: Limbs =
                        core::array::from_fn(|j| if j % 2 == phase { u64::MAX } else { 0 });
                    limbs[$limbs - 1] &= $field::MODULUS[$limbs - 1] >> 1;
                    raw.push(limbs);
                }
                // Single bits on both sides of every limb boundary, and the
                // top bit of the modulus.
                let top_bit = $field::NUM_BITS as usize - 1;
                let boundaries = (1..$limbs).flat_map(|limb| [64 * limb - 1, 64 * limb]);
                for bit in boundaries.chain([top_bit]) {
                    let mut limbs = [0u64; $limbs];
                    limbs[bit / 64] = 1 << (bit % 64);
                    raw.push(limbs);
                }
                raw.into_iter()
                    .inspect(|limbs| assert!(limbs_lt(limbs, &$field::MODULUS)))
                    .map($field::from_montgomery_limbs_unchecked)
                    .collect()
            }

            /// With `X`, `Y` the raw limbs of `x`, `y`: the Montgomery product
            /// has raw limbs `X·Y·R⁻¹ mod p`. Field `add` / `double` act on
            /// raw limbs mod `p` and share no code with the multiplier, so
            /// `X·Y mod p` by double-and-add is an oracle for `R` times the
            /// product.
            fn raw_product_by_additions(x: &$field, y: &$field) -> $field {
                let bits = y.to_montgomery_limbs();
                let mut acc = $field::zero();
                for i in (0..64 * $limbs).rev() {
                    acc = acc.double();
                    if (bits[i / 64] >> (i % 64)) & 1 == 1 {
                        acc = acc.add(x);
                    }
                }
                acc
            }

            #[test]
            fn reference_matches_addition_only_oracle() {
                let edges = edge_operands();
                for x in &edges {
                    for y in &edges {
                        let times_r = (0..64 * $limbs).fold(x.mul_reference(y), |v, _| v.double());
                        assert_eq!(times_r, raw_product_by_additions(x, y), "{x:?} · {y:?}");
                    }
                }
            }

            #[test]
            fn mul_and_square_match_reference_on_every_edge_pair() {
                let edges = edge_operands();
                for x in &edges {
                    assert_eq!(x.square(), x.mul_reference(x), "{x:?}²");
                    for y in &edges {
                        assert_eq!(x.mul(y), x.mul_reference(y), "{x:?} · {y:?}");
                    }
                }
            }

            #[test]
            fn mul_and_square_match_reference_on_random_pairs() {
                let mut rng = StdRng::seed_from_u64(0x5eed_0013 + $limbs);
                let edges = edge_operands();
                for i in 0..100_000 {
                    let x = $field::random(&mut rng);
                    let y = $field::random(&mut rng);
                    assert_eq!(x.mul(&y), x.mul_reference(&y), "{x:?} · {y:?}");
                    assert_eq!(x.square(), x.mul_reference(&x), "{x:?}²");
                    let edge = &edges[i % edges.len()];
                    assert_eq!(x.mul(edge), x.mul_reference(edge), "{x:?} · {edge:?}");
                    assert_eq!(edge.mul(&x), edge.mul_reference(&x), "{edge:?} · {x:?}");
                }
            }

            #[test]
            fn results_are_fully_reduced() {
                for x in edge_operands() {
                    for y in edge_operands() {
                        assert!(limbs_lt(&x.mul(&y).to_montgomery_limbs(), &$field::MODULUS));
                    }
                    assert!(limbs_lt(
                        &x.square().to_montgomery_limbs(),
                        &$field::MODULUS
                    ));
                }
            }

            #[test]
            fn each_mul_and_each_square_counts_one_modmul() {
                let mut rng = StdRng::seed_from_u64(7);
                let (x, y) = ($field::random(&mut rng), $field::random(&mut rng));
                let one: ModmulCount = $count;
                assert_eq!(measure_modmuls(|| x.mul(&y)).1, one);
                assert_eq!(measure_modmuls(|| x.square()).1, one);
                assert_eq!(measure_modmuls(|| x * y).1, one);
                assert_eq!(
                    measure_modmuls(|| x.mul_reference(&y)).1,
                    ModmulCount::default()
                );
                let (_, four) = measure_modmuls(|| (x * y).square() * x.square());
                assert_eq!(four.total(), 4);
            }

            #[test]
            fn wide_byte_strings_reduce_to_reduced_elements() {
                // Up to 2·LIMBS words, all-ones included: the value before the
                // final multiplications exceeds `p` several times over.
                let mut rng = StdRng::seed_from_u64(0x5eed_0213 + $limbs);
                let mut inputs = vec![vec![0xffu8; 16 * $limbs], vec![0xff; 8 * $limbs], vec![]];
                for len in [1, 8 * $limbs - 1, 8 * $limbs + 1, 16 * $limbs] {
                    let mut bytes = vec![0u8; len];
                    rng.fill_bytes(&mut bytes);
                    inputs.push(bytes);
                }
                let radix = $field::from_u64(256);
                for bytes in inputs {
                    let expect = bytes.iter().rev().fold($field::zero(), |acc, byte| {
                        acc * radix + $field::from_u64(u64::from(*byte))
                    });
                    let got = $field::from_bytes_le_mod_order(&bytes);
                    assert!(limbs_lt(&got.to_montgomery_limbs(), &$field::MODULUS));
                    assert_eq!(got, expect, "{} bytes", bytes.len());
                }
            }

            /// Canonical values that are mostly zero limbs: every power of
            /// two, and one or two full limbs with zero runs around them.
            fn sparse_operands() -> Vec<$field> {
                let top = $limbs - 1;
                let full = |limb| match limb {
                    limb if limb == top => $field::MODULUS[top] >> 1,
                    _ => u64::MAX,
                };
                let mut raw = Vec::new();
                for bit in 0..$field::NUM_BITS as usize {
                    let mut limbs = [0u64; $limbs];
                    limbs[bit / 64] = 1 << (bit % 64);
                    raw.push(limbs);
                }
                for limb in 0..$limbs {
                    let mut limbs = [0u64; $limbs];
                    limbs[limb] = full(limb);
                    raw.push(limbs);
                    limbs[0] = 1;
                    limbs[top] = full(top);
                    raw.push(limbs);
                }
                raw.into_iter().map($field::from_canonical_limbs).collect()
            }

            #[test]
            fn pow_identities_hold() {
                let mut rng = StdRng::seed_from_u64(0x5eed_0113 + $limbs);
                let mut xs = edge_operands();
                xs.extend((0..32).map(|_| $field::random(&mut rng)));
                xs.retain(|x| !x.is_zero());
                for x in &xs {
                    assert_eq!(x.pow(&[5]), x.square().square() * *x, "{x:?}");
                    assert_eq!(x.pow(&[0, 1]), x.pow(&[1 << 32]).pow(&[1 << 32]), "{x:?}");
                    let k: u64 = rng.gen::<u64>() >> 1;
                    assert_eq!(x.pow(&[k]) * x.pow(&[k + 1]), x.pow(&[2 * k + 1]), "{x:?}");
                }
            }

            #[test]
            fn inversion_matches_the_exponentiation() {
                // The word-stepped GCD on the edge operands, on values that
                // are mostly zero limbs, and on 10 000 random ones.
                let mut rng = StdRng::seed_from_u64(0x5eed_0116 + $limbs);
                let mut xs = edge_operands();
                xs.retain(|x| !x.is_zero());
                xs.extend(sparse_operands());
                xs.extend((0..10_000).map(|_| $field::random(&mut rng)));
                for x in &xs {
                    let (inv, muls) = measure_modmuls(|| x.invert().expect("nonzero"));
                    assert_eq!(inv, x.invert_fermat().expect("nonzero"), "{x:?}");
                    assert_eq!(inv * *x, $field::one(), "{x:?}");
                    assert_eq!(inv.invert(), Some(*x), "{x:?}");
                    assert_eq!(muls, $count, "{x:?}");
                }
                let mut batched = xs.clone();
                batch_invert(&mut batched);
                for (x, inv) in xs.iter().zip(&batched) {
                    assert_eq!(*inv, x.invert().expect("nonzero"), "{x:?}");
                }
                batch_invert(&mut batched);
                assert_eq!(batched, xs);
                assert!($field::zero().invert().is_none());
                assert!($field::zero().invert_fermat().is_none());
            }
        }
    };
}

kernel_tests!(Fr, fr, 4, ModmulCount { fr: 1, fq: 0 });
kernel_tests!(Fq, fq, 6, ModmulCount { fr: 0, fq: 1 });
