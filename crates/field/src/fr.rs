//! The BLS12-381 scalar field `Fr` (255-bit).
//!
//! Every MLE table entry, SumCheck evaluation, and MSM scalar in HyperPlonk
//! lives in this field. The modulus is
//! `r = 0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001`.

crate::impl_montgomery_field!(
    name: Fr,
    doc: "An element of the BLS12-381 scalar field (255-bit), the field of MLE values and MSM scalars in HyperPlonk.",
    limbs: 4,
    bits: 255,
    modulus: [
        0xffff_ffff_0000_0001,
        0x53bd_a402_fffe_5bfe,
        0x3339_d808_09a1_d805,
        0x73ed_a753_299d_7d48,
    ],
    inv: 0xffff_fffe_ffff_ffff,
    r: [
        0x0000_0001_ffff_fffe,
        0x5884_b7fa_0003_4802,
        0x998c_4fef_ecbc_4ff5,
        0x1824_b159_acc5_056f,
    ],
    r2: [
        0xc999_e990_f3f2_9c6d,
        0x2b6c_edcb_8792_5c23,
        0x05d3_1496_7254_398f,
        0x0748_d9d9_9f59_ff11,
    ],
);

#[cfg(test)]
mod tests {
    use super::Fr;
    use crate::batch_invert;
    use zkspeed_rt::codec::Encode;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0001)
    }

    #[test]
    fn identities() {
        assert!(Fr::zero().is_zero());
        assert!(Fr::one().is_one());
        assert!(!Fr::one().is_zero());
        assert_eq!(Fr::from_u64(0), Fr::zero());
        assert_eq!(Fr::from_u64(1), Fr::one());
        assert_eq!(Fr::default(), Fr::zero());
    }

    #[test]
    fn canonical_roundtrip() {
        assert_eq!(Fr::one().to_canonical_limbs(), [1, 0, 0, 0]);
        let x = Fr::from_u64(0xdead_beef_1234_5678);
        assert_eq!(x.to_canonical_limbs(), [0xdead_beef_1234_5678, 0, 0, 0]);
        let y = Fr::from_u128((1u128 << 100) + 17);
        assert_eq!(y.to_canonical_limbs(), [17, 1 << 36, 0, 0]);
        let z = Fr::from_canonical_limbs([5, 6, 7, 0]);
        assert_eq!(z.to_canonical_limbs(), [5, 6, 7, 0]);
    }

    #[test]
    fn small_integer_arithmetic() {
        let two = Fr::from_u64(2);
        let three = Fr::from_u64(3);
        assert_eq!(two + three, Fr::from_u64(5));
        assert_eq!(three - two, Fr::from_u64(1));
        assert_eq!(two - three, -Fr::from_u64(1));
        assert_eq!(two * three, Fr::from_u64(6));
        assert_eq!(three.square(), Fr::from_u64(9));
        assert_eq!(three.double(), Fr::from_u64(6));
        assert_eq!(two.pow_u64(10), Fr::from_u64(1024));
    }

    #[test]
    fn modulus_minus_one_squares_to_one() {
        // (r - 1)^2 = r^2 - 2r + 1 ≡ 1 (mod r)
        let minus_one = -Fr::one();
        assert_eq!(minus_one.square(), Fr::one());
        assert_eq!(minus_one + Fr::one(), Fr::zero());
    }

    #[test]
    fn addition_wraps_modulus() {
        let max = -Fr::one();
        assert_eq!(max + Fr::from_u64(5), Fr::from_u64(4));
    }

    #[test]
    fn inversion_matches_fermat() {
        let mut r = rng();
        for _ in 0..20 {
            let x = Fr::random(&mut r);
            if x.is_zero() {
                continue;
            }
            let inv = x.invert().unwrap();
            assert_eq!(inv, x.invert_fermat().unwrap());
            assert_eq!(inv * x, Fr::one());
        }
        assert!(Fr::zero().invert().is_none());
        assert!(Fr::zero().invert_fermat().is_none());
        assert_eq!(Fr::one().invert().unwrap(), Fr::one());
    }

    #[test]
    fn batch_inversion_matches_single() {
        let mut r = rng();
        let xs: Vec<Fr> = (0..33).map(|_| Fr::random(&mut r)).collect();
        let mut batched = xs.clone();
        batch_invert(&mut batched);
        for (x, inv) in xs.iter().zip(batched.iter()) {
            assert_eq!(*inv, x.invert().unwrap());
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let x = Fr::random(&mut r);
            let bytes = x.to_bytes();
            assert_eq!(bytes.len(), 32);
            assert_eq!(Fr::from_bytes_le(&bytes).unwrap(), x);
        }
        // Non-canonical encodings are rejected.
        let mut modulus_bytes = Vec::new();
        for l in Fr::MODULUS.iter() {
            modulus_bytes.extend_from_slice(&l.to_le_bytes());
        }
        assert!(Fr::from_bytes_le(&modulus_bytes).is_none());
        assert!(Fr::from_bytes_le(&[0u8; 31]).is_none());
    }

    #[test]
    fn wide_reduction_is_consistent() {
        // 2^256 mod r equals R (the Montgomery radix) by definition.
        let mut wide = vec![0u8; 33];
        wide[32] = 1; // 2^256
        let reduced = Fr::from_bytes_le_mod_order(&wide);
        assert_eq!(reduced, Fr::from_canonical_limbs(Fr::R));
        // A value already below the modulus is unchanged.
        let x = Fr::from_u64(123_456_789);
        assert_eq!(Fr::from_bytes_le_mod_order(&x.to_bytes()), x);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(
            format!("{}", Fr::from_u64(255)),
            "0x00000000000000000000000000000000000000000000000000000000000000ff"
        );
    }

    #[test]
    fn bit_access() {
        let x = Fr::from_u64(0b1010);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(!x.bit(2));
        assert!(x.bit(3));
        assert!(!x.bit(300));
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs: Vec<Fr> = (1..=5u64).map(Fr::from_u64).collect();
        let sum: Fr = xs.iter().sum();
        let product: Fr = xs.iter().product();
        assert_eq!(sum, Fr::from_u64(15));
        assert_eq!(product, Fr::from_u64(120));
    }

    mod properties {
        use super::*;
        use zkspeed_rt::Rng;

        fn arb_fr(r: &mut StdRng) -> Fr {
            let mut wide = [0u8; 32];
            r.fill_bytes(&mut wide);
            Fr::from_bytes_le_mod_order(&wide)
        }

        /// Runs `check` against 64 pseudorandom triples drawn from a seed
        /// derived from `salt`, replacing the old proptest cases.
        fn for_random_triples(salt: u64, check: impl Fn(Fr, Fr, Fr)) {
            let mut r = StdRng::seed_from_u64(0x5eed_0001_0000 ^ salt);
            for _ in 0..64 {
                check(arb_fr(&mut r), arb_fr(&mut r), arb_fr(&mut r));
            }
        }

        #[test]
        fn add_commutes() {
            for_random_triples(1, |a, b, _| assert_eq!(a + b, b + a));
        }

        #[test]
        fn mul_commutes() {
            for_random_triples(2, |a, b, _| assert_eq!(a * b, b * a));
        }

        #[test]
        fn mul_associates() {
            for_random_triples(3, |a, b, c| assert_eq!((a * b) * c, a * (b * c)));
        }

        #[test]
        fn distributive() {
            for_random_triples(4, |a, b, c| assert_eq!(a * (b + c), a * b + a * c));
        }

        #[test]
        fn add_sub_inverse() {
            for_random_triples(5, |a, b, _| {
                assert_eq!(a + b - b, a);
                assert_eq!(a - a, Fr::zero());
            });
        }

        #[test]
        fn neg_is_additive_inverse() {
            for_random_triples(6, |a, _, _| assert_eq!(a + (-a), Fr::zero()));
        }

        #[test]
        fn inversion_property() {
            for_random_triples(7, |a, _, _| {
                if !a.is_zero() {
                    assert_eq!(a * a.invert().unwrap(), Fr::one());
                }
            });
        }

        #[test]
        fn bytes_roundtrip_prop() {
            for_random_triples(8, |a, _, _| {
                assert_eq!(Fr::from_bytes_le(&a.to_bytes()).unwrap(), a);
            });
        }

        #[test]
        fn square_matches_mul() {
            for_random_triples(9, |a, _, _| assert_eq!(a.square(), a * a));
        }
    }
}
