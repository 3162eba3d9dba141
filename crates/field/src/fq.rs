//! The BLS12-381 base field `Fq` (381-bit).
//!
//! Elliptic-curve point coordinates in the MSM kernels live in this field.
//! The modulus is
//! `q = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624`
//! `1eabfffeb153ffffb9feffffffffaaab`.

crate::impl_montgomery_field!(
    name: Fq,
    doc: "An element of the BLS12-381 base field (381-bit), the coordinate field of the G1 points used by HyperPlonk's MSM commitments.",
    limbs: 6,
    bits: 381,
    modulus: [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ],
    inv: 0x89f3_fffc_fffc_fffd,
    r: [
        0x7609_0000_0002_fffd,
        0xebf4_000b_c40c_0002,
        0x5f48_9857_53c7_58ba,
        0x77ce_5853_7052_5745,
        0x5c07_1a97_a256_ec6d,
        0x15f6_5ec3_fa80_e493,
    ],
    r2: [
        0xf4df_1f34_1c34_1746,
        0x0a76_e6a6_09d1_04f1,
        0x8de5_476c_4c95_b6d5,
        0x67eb_88a9_939d_83c0,
        0x9a79_3e85_b519_952d,
        0x1198_8fe5_92ca_e3aa,
    ],
);

impl Fq {
    /// [`Fq::mul`] inlined into the caller, for a loop that issues several
    /// multiplications on values it already holds (the batched affine adder
    /// of `zkspeed-curve`): operands and result then stay in registers.
    #[doc(hidden)]
    #[inline(always)]
    pub fn mul_inline(&self, rhs: &Self) -> Self {
        self.mul_kernel(rhs)
    }

    /// Parses a big-endian hexadecimal string (with or without a `0x`
    /// prefix) into a canonical field element.
    ///
    /// Returns `None` if the string is not valid hex, is too long, or encodes
    /// a value that is not below the modulus. Used to embed the standard
    /// BLS12-381 G1 generator coordinates.
    pub fn from_hex_be(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > Self::LIMBS * 16 {
            return None;
        }
        let mut padded = String::with_capacity(Self::LIMBS * 16);
        for _ in 0..(Self::LIMBS * 16 - s.len()) {
            padded.push('0');
        }
        padded.push_str(s);
        let mut limbs = [0u64; Self::LIMBS];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = padded.len() - (i + 1) * 16;
            let chunk = &padded[start..start + 16];
            *limb = u64::from_str_radix(chunk, 16).ok()?;
        }
        if !crate::arith::limbs_lt(&limbs, &Self::MODULUS) {
            return None;
        }
        Some(Self::from_canonical_limbs(limbs))
    }
}

#[cfg(test)]
mod tests {
    use super::Fq;
    use zkspeed_rt::codec::Encode;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0002)
    }

    #[test]
    fn identities_and_small_arithmetic() {
        assert!(Fq::zero().is_zero());
        assert!(Fq::one().is_one());
        assert_eq!(Fq::one().to_canonical_limbs(), [1, 0, 0, 0, 0, 0]);
        assert_eq!(Fq::from_u64(11) * Fq::from_u64(13), Fq::from_u64(143));
        assert_eq!(Fq::from_u64(7) + Fq::from_u64(8), Fq::from_u64(15));
        assert_eq!(Fq::from_u64(7) - Fq::from_u64(8), -Fq::from_u64(1));
        assert_eq!((-Fq::one()).square(), Fq::one());
    }

    #[test]
    fn the_inlined_entry_is_the_same_counted_multiplication() {
        use crate::{measure_modmuls, ModmulCount};
        let mut r = rng();
        for _ in 0..1000 {
            let (x, y) = (Fq::random(&mut r), Fq::random(&mut r));
            let (product, muls) = measure_modmuls(|| x.mul_inline(&y));
            assert_eq!(product, x.mul_reference(&y));
            assert_eq!(muls, ModmulCount { fr: 0, fq: 1 });
        }
    }

    #[test]
    fn curve_constant_b_is_four() {
        // The BLS12-381 curve is y^2 = x^3 + 4; sanity-check the embedding of
        // the small constants used by the curve crate.
        let four = Fq::from_u64(4);
        assert_eq!(four, Fq::from_u64(2) + Fq::from_u64(2));
        assert_eq!(four * Fq::from_u64(3), Fq::from_u64(12));
    }

    #[test]
    fn inversion() {
        let mut r = rng();
        for _ in 0..10 {
            let x = Fq::random(&mut r);
            if x.is_zero() {
                continue;
            }
            assert_eq!(x * x.invert().unwrap(), Fq::one());
            assert_eq!(x.invert().unwrap(), x.invert_fermat().unwrap());
        }
        assert!(Fq::zero().invert().is_none());
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(Fq::from_hex_be("0x04").unwrap(), Fq::from_u64(4));
        assert_eq!(Fq::from_hex_be("ff").unwrap(), Fq::from_u64(255));
        assert_eq!(
            Fq::from_hex_be("10000000000000000").unwrap(),
            Fq::from_u128(1u128 << 64)
        );
        assert!(Fq::from_hex_be("zz").is_none());
        assert!(Fq::from_hex_be("").is_none());
        // The modulus itself is not canonical.
        assert!(Fq::from_hex_be(
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"
        )
        .is_none());
        // The modulus minus one is canonical and equals -1.
        assert_eq!(
            Fq::from_hex_be(
                "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaaa"
            )
            .unwrap(),
            -Fq::one()
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let x = Fq::random(&mut r);
            let bytes = x.to_bytes();
            assert_eq!(bytes.len(), 48);
            assert_eq!(Fq::from_bytes_le(&bytes).unwrap(), x);
        }
    }

    mod properties {
        use super::*;
        use zkspeed_rt::Rng;

        fn arb_fq(r: &mut StdRng) -> Fq {
            let mut wide = [0u8; 48];
            r.fill_bytes(&mut wide);
            Fq::from_bytes_le_mod_order(&wide)
        }

        #[test]
        fn ring_axioms() {
            let mut r = StdRng::seed_from_u64(0x5eed_0002_0001);
            for _ in 0..32 {
                let (a, b, c) = (arb_fq(&mut r), arb_fq(&mut r), arb_fq(&mut r));
                assert_eq!(a + b, b + a);
                assert_eq!((a * b) * c, a * (b * c));
                assert_eq!(a * (b + c), a * b + a * c);
                assert_eq!(a + (-a), Fq::zero());
            }
        }

        #[test]
        fn inverse_prop() {
            let mut r = StdRng::seed_from_u64(0x5eed_0002_0002);
            for _ in 0..32 {
                let a = arb_fq(&mut r);
                if !a.is_zero() {
                    assert_eq!(a * a.invert().unwrap(), Fq::one());
                }
            }
        }
    }
}
