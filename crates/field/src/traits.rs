//! The [`Field`] abstraction shared by the two BLS12-381 prime fields.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use zkspeed_rt::Rng;

/// A prime field element.
///
/// Both [`crate::Fr`] (the 255-bit BLS12-381 scalar field, used for all MLE
/// table entries and SumCheck arithmetic in HyperPlonk) and [`crate::Fq`]
/// (the 381-bit base field, used for elliptic-curve point coordinates in the
/// MSM kernels) implement this trait. Generic code in the polynomial,
/// SumCheck and commitment crates is written against it.
///
/// # Examples
///
/// ```
/// use zkspeed_field::{Field, Fr};
///
/// let a = Fr::from_u64(7);
/// let b = Fr::from_u64(6);
/// assert_eq!(a * b, Fr::from_u64(42));
/// assert_eq!(a * a.invert().unwrap(), Fr::one());
/// ```
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
    + 'static
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Returns `true` if this element is the additive identity.
    fn is_zero(&self) -> bool;

    /// Returns `true` if this element is the multiplicative identity.
    fn is_one(&self) -> bool;

    /// Squares this element.
    fn square(&self) -> Self;

    /// Doubles this element.
    fn double(&self) -> Self;

    /// Computes the multiplicative inverse, or `None` for zero.
    fn invert(&self) -> Option<Self>;

    /// Raises this element to the power `exp`, where `exp` is a little-endian
    /// multi-precision exponent.
    fn pow(&self, exp: &[u64]) -> Self;

    /// Raises this element to a `u64` power.
    fn pow_u64(&self, exp: u64) -> Self {
        self.pow(&[exp])
    }

    /// Embeds a `u64` into the field.
    fn from_u64(v: u64) -> Self;

    /// Embeds a `u128` into the field.
    fn from_u128(v: u128) -> Self;

    /// Samples a uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// The number of bits needed to represent the field modulus.
    fn num_bits() -> u32;
}

/// Inverts a slice of field elements in place using Montgomery's batch
/// inversion trick, replacing each element with its inverse.
///
/// The trick computes a running prefix product, a single field inversion of
/// the total product, and then walks backwards multiplying by suffix
/// products. This is exactly the strategy the zkSpeed FracMLE unit
/// implements in hardware (Section 4.4 of the paper), where the prefix
/// products are computed by a multiplier tree and the single inversion by a
/// constant-time binary extended Euclidean unit.
///
/// # Panics
///
/// Panics if any element of the slice is zero.
///
/// # Examples
///
/// ```
/// use zkspeed_field::{batch_invert, Field, Fr};
///
/// let mut xs = vec![Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(5)];
/// let expect: Vec<Fr> = xs.iter().map(|x| x.invert().unwrap()).collect();
/// batch_invert(&mut xs);
/// assert_eq!(xs, expect);
/// ```
pub fn batch_invert<F: Field>(elements: &mut [F]) {
    if elements.is_empty() {
        return;
    }
    // Forward pass: prefix products.
    let mut prefix = Vec::with_capacity(elements.len());
    let mut acc = F::one();
    for e in elements.iter() {
        assert!(!e.is_zero(), "batch_invert: zero element");
        prefix.push(acc);
        acc *= *e;
    }
    // One inversion of the total product.
    let mut inv = acc
        .invert()
        .expect("product of nonzero elements is nonzero");
    // Backward pass.
    for (e, p) in elements.iter_mut().zip(prefix.iter()).rev() {
        let e_inv = inv * *p;
        inv *= *e;
        *e = e_inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fr;

    #[test]
    fn batch_invert_empty_is_noop() {
        let mut v: Vec<Fr> = vec![];
        batch_invert(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn batch_invert_single() {
        let mut v = vec![Fr::from_u64(17)];
        batch_invert(&mut v);
        assert_eq!(v[0], Fr::from_u64(17).invert().unwrap());
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_invert_rejects_zero() {
        let mut v = vec![Fr::from_u64(1), Fr::zero()];
        batch_invert(&mut v);
    }
}
