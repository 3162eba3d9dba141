//! Low-level multi-precision helpers shared by the Montgomery field
//! implementations.
//!
//! All routines operate on little-endian `u64` limb arrays. They are kept
//! `pub` (but `#[doc(hidden)]`) because the [`impl_montgomery_field!`]
//! macro-generated code in this crate calls into them.
//!
//! [`impl_montgomery_field!`]: crate::impl_montgomery_field

/// Computes `a + b + carry`, returning the result and the new carry.
#[doc(hidden)]
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Computes `a - (b + borrow)`, returning the result and the new borrow
/// (0 or 1).
#[doc(hidden)]
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow);
    (d, (b1 | b2) as u64)
}

/// Computes `a + b * c + carry`, returning the low word and the new carry.
#[doc(hidden)]
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Returns `true` if `a < b` when both are interpreted as little-endian
/// multi-precision integers of the same length.
#[doc(hidden)]
#[inline]
pub fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] < b[i] {
            return true;
        }
        if a[i] > b[i] {
            return false;
        }
    }
    false
}

/// Returns `true` if every limb of `a` is zero.
#[doc(hidden)]
#[inline]
pub fn limbs_is_zero(a: &[u64]) -> bool {
    a.iter().all(|&x| x == 0)
}

/// In-place subtraction `a -= b`; assumes `a >= b`. Panics in debug builds on
/// underflow.
#[doc(hidden)]
#[inline]
pub fn limbs_sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d, br) = sbb(a[i], b[i], borrow);
        a[i] = d;
        borrow = br;
    }
    debug_assert_eq!(borrow, 0, "limbs_sub_assign underflow");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(adc(1, 2, 3), (6, 0));
    }

    #[test]
    fn sbb_borrows() {
        assert_eq!(sbb(0, 1, 0), (u64::MAX, 1));
        assert_eq!(sbb(5, 3, 0), (2, 0));
        assert_eq!(sbb(5, 3, 1), (1, 0));
        assert_eq!(sbb(0, u64::MAX, 1), (0, 1));
    }

    #[test]
    fn mac_full_width() {
        // u64::MAX * u64::MAX + u64::MAX + u64::MAX fits exactly in 128 bits.
        let (lo, hi) = mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        assert_eq!(lo, u64::MAX);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn limb_comparisons() {
        assert!(limbs_lt(&[1, 0], &[2, 0]));
        assert!(limbs_lt(&[5, 1], &[0, 2]));
        assert!(!limbs_lt(&[0, 2], &[5, 1]));
        assert!(!limbs_lt(&[3, 3], &[3, 3]));
        assert!(limbs_is_zero(&[0, 0, 0]));
        assert!(!limbs_is_zero(&[0, 1, 0]));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let mut a = [0, 8];
        limbs_sub_assign(&mut a, &[1, 0]);
        assert_eq!(a, [u64::MAX, 7]);
    }
}
