//! The scalars as the windows read them: the GLV split `k = k₁ + λ·k₂`, the
//! pass that sizes a run to its scalars ([`Terms`]), and the signed-digit
//! recoding of a scalar half into digits in `[−2^{w−1}, 2^{w−1}]`.

use zkspeed_field::Fr;

use crate::g1::LAMBDA;

/// Bits of a scalar half: `k₁, k₂ < 2^128`.
pub(crate) const HALF_BITS: usize = 128;

/// `⌊2^255 / λ⌋`, for dividing by λ with multiplications.
const LAMBDA_RECIPROCAL: u128 = 0xbe35_f678_f00f_d56e_b1fb_7291_7b67_f718;

/// Splits a canonical scalar `k < r` into the halves of
/// `k = k₁ + λ·k₂` by exact division, `k₂ = ⌊k/λ⌋` and `k₁ = k mod λ`:
/// since `r = λ² + λ + 1`, the quotient is at most `λ + 1` and both halves
/// stay below 2^128 with no Fr arithmetic.
fn split_scalar(k: &[u64; 4]) -> [[u64; 2]; 2] {
    let lo = u128::from(k[0]) | u128::from(k[1]) << 64;
    let hi = u128::from(k[2]) | u128::from(k[3]) << 64;
    // `⌊k·⌊2^255/λ⌋ / 2^255⌋` is `⌊k/λ⌋` or one less, because `k < 2^255`.
    let (a1, _) = mul_wide(lo, LAMBDA_RECIPROCAL);
    let (b1, b0) = mul_wide(hi, LAMBDA_RECIPROCAL);
    let (mid, carry) = a1.overflowing_add(b0);
    let mut q = (b1 + u128::from(carry)) << 1 | mid >> 127;
    // The remainder `k − q·λ` is below 2λ < 2^129: its bit 128 or its size
    // calls for the correction.
    let (p1, p0) = mul_wide(q, LAMBDA);
    let (mut rem, borrow) = lo.overflowing_sub(p0);
    if hi - p1 - u128::from(borrow) != 0 || rem >= LAMBDA {
        q += 1;
        rem = rem.wrapping_sub(LAMBDA);
    }
    let limbs = |v: u128| [v as u64, (v >> 64) as u64];
    [limbs(rem), limbs(q)]
}

/// The scalars of one run as its windows read them.
pub(super) struct Terms {
    /// Term `t·i + h` is half `h` of scalar `i`, for `t` [`Self::per_scalar`].
    pub(super) halves: Vec<[u64; 2]>,
    /// Scalar `i` was recoded as its negation `r − kᵢ`: its operations flip
    /// their signs.
    pub(super) negated: Vec<bool>,
    /// Terms a scalar contributes: both halves, or only `k₁` when no scalar
    /// has a second half.
    pub(super) per_scalar: usize,
    /// Bit length of the widest half, at least 1.
    pub(super) bits: usize,
}

impl Terms {
    /// The scalar pass: a scalar below 2^128 is its own first half, one
    /// whose negation is below 2^128 is recoded as that negation, and every
    /// other one is split by [`split_scalar`].
    pub(super) fn new(scalars: &[Fr]) -> Self {
        let wide = |limbs: &[u64]| u128::from(limbs[0]) | u128::from(limbs[1]) << 64;
        let (r_lo, r_hi) = (wide(&Fr::MODULUS[..2]), wide(&Fr::MODULUS[2..]));
        let mut negated = vec![false; scalars.len()];
        let mut halves = Vec::with_capacity(2 * scalars.len());
        for (s, negated) in scalars.iter().zip(&mut negated) {
            let k = s.to_canonical_limbs();
            let (lo, hi) = (wide(&k[..2]), wide(&k[2..]));
            // `k < r`, so `r − k` has no borrow out of its high half.
            let (minus_lo, borrow) = r_lo.overflowing_sub(lo);
            if hi == 0 {
                halves.extend([[k[0], k[1]], [0; 2]]);
            } else if r_hi - hi == u128::from(borrow) {
                *negated = true;
                halves.extend([[minus_lo as u64, (minus_lo >> 64) as u64], [0; 2]]);
            } else {
                halves.extend(split_scalar(&k));
            }
        }
        let per_scalar = if halves.iter().skip(1).step_by(2).any(|h| *h != [0; 2]) {
            2
        } else {
            halves = halves.into_iter().step_by(2).collect();
            1
        };
        let widest = halves.iter().fold(0, |acc, h| acc | wide(h));
        Self {
            halves,
            negated,
            per_scalar,
            bits: (u128::BITS - widest.leading_zeros()).max(1) as usize,
        }
    }
}

/// The 256-bit product `a·b` as `(high, low)` halves.
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    let (a0, a1) = (a as u64 as u128, a >> 64);
    let (b0, b1) = (b as u64 as u128, b >> 64);
    let (ll, lh, hl) = (a0 * b0, a0 * b1, a1 * b0);
    let mid = (ll >> 64) + (lh as u64 as u128) + (hl as u64 as u128);
    let high = a1 * b1 + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (high, ll as u64 as u128 | mid << 64)
}

/// Carry bits of the signed-digit recoding of an `L`-limb scalar, bit `i`
/// the carry into window `i`. Window `i`'s digit is
/// `c = bits[i·w .. i·w+w] + carry(i)`, mapped to `c − 2^w` (and a carry
/// into window `i+1`) whenever `c > 2^{w−1}`, so digits lie in
/// `[−2^{w−1}, 2^{w−1}]` and the bucket count halves. One extra top window
/// absorbs the final carry (a value below `2^{64·L}` can need one more bit
/// in signed form). Only `w = 1` has windows beyond the mask's bits, and its
/// digits are the bits themselves: they never carry.
pub(crate) fn recode_carries<const L: usize>(
    limbs: &[u64; L],
    w: usize,
    num_windows: usize,
) -> [u64; L] {
    let half = 1u64 << (w - 1);
    let mut carry = 0u64;
    let mut mask = [0u64; L];
    for i in 0..num_windows {
        if carry == 1 {
            mask[i / 64] |= 1 << (i % 64);
        }
        let c = extract_window(limbs, i * w, w) as u64 + carry;
        carry = u64::from(c > half);
    }
    debug_assert_eq!(carry, 0, "signed-digit carry escaped the top window");
    mask
}

/// The signed digit of `window` for a recoded scalar, in
/// `[−2^{w−1}, 2^{w−1}]`.
pub(crate) fn signed_window_digit<const L: usize>(
    limbs: &[u64; L],
    carries: &[u64; L],
    window: usize,
    w: usize,
) -> i64 {
    let carry = carries
        .get(window / 64)
        .map_or(0, |bits| bits >> (window % 64) & 1);
    let c = extract_window(limbs, window * w, w) as i64 + carry as i64;
    if c > (1i64 << (w - 1)) {
        c - (1i64 << w)
    } else {
        c
    }
}

/// Extracts `width` bits starting at bit offset `offset` from an `L`-limb
/// little-endian integer (zero bits above it).
fn extract_window<const L: usize>(limbs: &[u64; L], offset: usize, width: usize) -> usize {
    if offset >= 64 * L {
        return 0;
    }
    let limb_idx = offset / 64;
    let bit_idx = offset % 64;
    let mut value = limbs[limb_idx] >> bit_idx;
    if bit_idx + width > 64 && limb_idx + 1 < L {
        value |= limbs[limb_idx + 1] << (64 - bit_idx);
    }
    (value & ((1u64 << width) - 1)) as usize
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::msm::tests::rng;

    /// The scalars at the edges of the GLV split (those of
    /// `scalar_split_is_exact_and_short`) and of the recoding carries.
    fn edge_scalars() -> Vec<Fr> {
        let lambda = Fr::from_u128(LAMBDA);
        let two_128 = Fr::from_u128(1 << 127).double();
        vec![
            Fr::zero(),
            Fr::one(),
            lambda - Fr::one(),
            lambda,
            lambda + Fr::one(),
            lambda.double(),
            lambda * lambda,
            -lambda,
            -Fr::one(),
            -Fr::from_u64(2),
            Fr::from_u128(1 << 127),
            two_128 - Fr::one(),
            two_128,
            Fr::from_u64(2).pow(&[254]),
        ]
    }

    #[test]
    fn scalar_split_is_exact_and_short() {
        // `k = k₁ + λ·k₂` over the integers, with `k₁ < λ` and `k₂ ≤ λ + 1`
        // (hence both below 2^128), on the scalars at the division's edges
        // and 100 000 random ones.
        let lambda = Fr::from_u128(LAMBDA);
        let mut scalars = edge_scalars();
        let mut r = rng();
        scalars.extend((0..100_000).map(|_| Fr::random(&mut r)));
        let value = |limbs: [u64; 2]| u128::from(limbs[0]) | u128::from(limbs[1]) << 64;
        for k in &scalars {
            let [k1, k2] = split_scalar(&k.to_canonical_limbs()).map(value);
            assert!(k1 < LAMBDA && k2 <= LAMBDA + 1, "{k}");
            assert_eq!(Fr::from_u128(k1) + lambda * Fr::from_u128(k2), *k, "{k}");
        }
        // The largest quotient: r − 1 = λ² + λ = (λ + 1)·λ.
        assert_eq!(
            split_scalar(&(-Fr::one()).to_canonical_limbs()).map(value),
            [0, LAMBDA + 1]
        );
        // The reciprocal is `⌊2^255/λ⌋`: `g·λ ≤ 2^255 < (g + 1)·λ`.
        let two_255 = (1 << 127, 0);
        assert!(mul_wide(LAMBDA_RECIPROCAL, LAMBDA) <= two_255);
        assert!(mul_wide(LAMBDA_RECIPROCAL + 1, LAMBDA) > two_255);
        assert_eq!(mul_wide(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
    }

    #[test]
    fn window_extraction() {
        let limbs = [0xffff_ffff_ffff_ffffu64, 0x1, 0, 0];
        assert_eq!(extract_window(&limbs, 0, 8), 0xff);
        assert_eq!(extract_window(&limbs, 60, 8), 0x1f);
        assert_eq!(extract_window(&limbs, 64, 8), 0x01);
        assert_eq!(extract_window(&limbs, 300, 8), 0);
    }

    /// `Σ dᵢ·2^{wi}` over the signed digits of `limbs`, as an Fr Horner sum,
    /// holding every digit to `[−2^{w−1}, 2^{w−1}]`.
    fn recoded_value(limbs: &[u64; 2], w: usize, num_windows: usize) -> Fr {
        let carries = recode_carries(limbs, w, num_windows);
        let half = 1i64 << (w - 1);
        let two_pow_w = Fr::from_u64(1u64 << w);
        let mut acc = Fr::zero();
        for i in (0..num_windows).rev() {
            let d = signed_window_digit(limbs, &carries, i, w);
            assert!((-half..=half).contains(&d), "w = {w}, digit {d}");
            let magnitude = Fr::from_u64(d.unsigned_abs());
            acc = acc * two_pow_w + if d < 0 { -magnitude } else { magnitude };
        }
        acc
    }

    #[test]
    fn signed_recoding_reconstructs_the_scalar() {
        // At every width, the digits must add up to each half of a scalar
        // over 128 bits, the all-ones half included. (The fixed-base table
        // recodes whole scalars; its tests hold its products to
        // double-and-add.)
        let mut r = rng();
        let mut scalars = vec![Fr::zero(), Fr::one(), -Fr::one(), -Fr::from_u64(2)];
        scalars.extend((0..4).map(|_| Fr::random(&mut r)));
        let value = |half: [u64; 2]| Fr::from_u128(u128::from(half[0]) | u128::from(half[1]) << 64);
        for w in 1..=16usize {
            let windows = HALF_BITS.div_ceil(w) + 1;
            for s in &scalars {
                let halves = split_scalar(&s.to_canonical_limbs());
                for half in halves.into_iter().chain([[u64::MAX; 2]]) {
                    assert_eq!(
                        recoded_value(&half, w, windows),
                        value(half),
                        "w = {w}, {half:?}"
                    );
                }
            }
        }
    }
}
