//! The [`impl_montgomery_field!`] macro, which generates a complete prime
//! field type in Montgomery representation from its constants.
//!
//! Both [`crate::Fr`] and [`crate::Fq`] are generated by this macro; they
//! differ only in limb count and constants. Multiplication interleaves
//! operand scanning with word-by-word Montgomery reduction — the algorithm of
//! the pipelined Montgomery multipliers that dominate zkSpeed's compute area
//! — one *row* at a time: for each word `b[i]` the row `a·b[i]` and the
//! reduction row `k·p` are added to the running value, which then moves down
//! a word. Squaring and the reduction of a double-width value run on the
//! same rows.
//!
//! How a row adds its `LIMBS` products depends on the limb count. At six
//! limbs (`Fq`) the products are formed first as `(lo, hi)` pairs, then the
//! low words go in on one carry chain and the high words on a second: an
//! `add; adc; …; adc` run each, where a full-word carry threaded through
//! every product (`arith::mac`) costs `mul; add; adc $0; add; adc $0` per
//! word. At four limbs (`Fr`) the threaded carry is the faster form — the
//! SumCheck round kernel ran 5–7 % slower on two-chain rows, which win only
//! on an isolated chain — so the row is chosen by `$limbs`, inside the one
//! kernel.
//!
//! Three measured conditions the code does not show (Fq, ns per
//! multiplication on a dependent chain / on four interleaved chains, the
//! best of 40 alternated runs):
//!
//! * The running value moves down a word as an array expression
//!   (`core::array::from_fn`). The same shift as a loop over the array in
//!   place (`t[j] = t[j + 1]`) keeps the array in memory: 73 / 69 ns against
//!   29.5 / 28.9.
//! * The kernel gains most where it is inlined. Behind a call the operands
//!   and the result cross the stack limb by limb — 35 ns against 29.5 on the
//!   chain (the previous kernel: 41 against 31) — which is why
//!   `Fq::mul_inline` exists for a loop that issues several multiplications
//!   on values it holds, the batched affine adder of `zkspeed-curve` (one
//!   2^14 MSM 0.82×). The per-multiplication counter update costs nothing
//!   there: it is hoisted out of the loop or merged.
//! * `mul` is `#[inline]`, neither more nor less. With `#[inline(always)]`
//!   the three SumChecks ran 3–6 % slower than the previous kernel's (code
//!   size in the round kernel), without `#[inline]` (a call from every other
//!   crate) 5–10 % slower; with the compiler choosing per call site they are
//!   within 1–3 %. `add`, `sub` and the final subtraction stay on
//!   `arith::sbb` for the same reason: on `borrowing_sub` they compile to a
//!   tidier `sbb` chain, and the SumChecks ran 4–8 % and a 2^14 MSM 5 %
//!   slower.

/// Generates a prime-field type in Montgomery form.
///
/// Parameters:
/// * `$name` — the type name to generate.
/// * `$limbs` — number of 64-bit limbs.
/// * `$bits` — bit length of the modulus.
/// * `$modulus` — the modulus `p`, little-endian limbs.
/// * `$inv` — `-p^{-1} mod 2^64`.
/// * `$r` — `2^(64·limbs) mod p` (the Montgomery radix), little-endian limbs.
/// * `$r2` — `R² mod p`, little-endian limbs.
#[macro_export]
#[doc(hidden)]
macro_rules! impl_montgomery_field {
    (
        name: $name:ident,
        doc: $doc:expr,
        limbs: $limbs:expr,
        bits: $bits:expr,
        modulus: $modulus:expr,
        inv: $inv:expr,
        r: $r:expr,
        r2: $r2:expr,
    ) => {
        #[doc = $doc]
        ///
        /// Elements are stored in Montgomery form (`a·R mod p` where
        /// `R = 2^(64·LIMBS)`), which makes modular multiplication a single
        /// Montgomery multiplication — exactly the operation counted as a
        /// "modmul" throughout the zkSpeed paper.
        #[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
        pub struct $name(pub(crate) [u64; $limbs]);

        // `mul` drops CIOS's extra carry word, which is only sound when the
        // modulus leaves the top bit of its top limb free.
        const _: () = assert!($name::MODULUS[$limbs - 1] < u64::MAX >> 1);

        impl $name {
            /// Number of 64-bit limbs in the representation.
            pub const LIMBS: usize = $limbs;
            /// Bit length of the modulus.
            pub const NUM_BITS: u32 = $bits;
            /// The field modulus `p`, little-endian limbs.
            pub const MODULUS: [u64; $limbs] = $modulus;
            /// `-p^{-1} mod 2^64`, the Montgomery reduction constant.
            pub const INV: u64 = $inv;
            /// `R = 2^(64·LIMBS) mod p`, i.e. the Montgomery form of one.
            pub const R: [u64; $limbs] = $r;
            /// `R² mod p`, used to convert into Montgomery form.
            pub const R2: [u64; $limbs] = $r2;
            const TOP_LIMB_MASK: u64 = if ($bits as u32) % 64 == 0 {
                u64::MAX
            } else {
                (1u64 << (($bits as u32) % 64)) - 1
            };

            /// The additive identity.
            #[inline]
            pub const fn zero() -> Self {
                Self([0u64; $limbs])
            }

            /// The multiplicative identity.
            #[inline]
            pub const fn one() -> Self {
                Self(Self::R)
            }

            /// Returns `true` if this element is zero.
            #[inline]
            pub fn is_zero(&self) -> bool {
                self.0.iter().all(|&l| l == 0)
            }

            /// Returns `true` if this element is one.
            #[inline]
            pub fn is_one(&self) -> bool {
                self.0 == Self::R
            }

            /// Builds a field element from raw Montgomery-form limbs.
            ///
            /// Callers must guarantee the value is already fully reduced; this
            /// is intended for constants produced by this crate itself.
            #[inline]
            pub const fn from_montgomery_limbs_unchecked(limbs: [u64; $limbs]) -> Self {
                Self(limbs)
            }

            /// Returns the raw Montgomery-form limbs.
            #[inline]
            pub const fn to_montgomery_limbs(&self) -> [u64; $limbs] {
                self.0
            }

            /// Embeds a canonical (non-Montgomery) little-endian limb value
            /// that is known to be `< p`.
            ///
            /// # Panics
            ///
            /// Panics if the value is not below the modulus.
            pub fn from_canonical_limbs(limbs: [u64; $limbs]) -> Self {
                assert!(
                    $crate::arith::limbs_lt(&limbs, &Self::MODULUS),
                    concat!(
                        stringify!($name),
                        "::from_canonical_limbs: value not reduced"
                    ),
                );
                Self(limbs) * Self(Self::R2)
            }

            /// Returns the canonical (non-Montgomery) little-endian limbs.
            pub fn to_canonical_limbs(&self) -> [u64; $limbs] {
                let mut wide = [0u64; 2 * $limbs];
                wide[..$limbs].copy_from_slice(&self.0);
                Self::montgomery_reduce(wide).0
            }

            /// Embeds a `u64` into the field.
            #[inline]
            pub fn from_u64(v: u64) -> Self {
                let mut limbs = [0u64; $limbs];
                limbs[0] = v;
                Self(limbs) * Self(Self::R2)
            }

            /// Embeds a `u128` into the field.
            #[inline]
            pub fn from_u128(v: u128) -> Self {
                let mut limbs = [0u64; $limbs];
                limbs[0] = v as u64;
                limbs[1] = (v >> 64) as u64;
                Self(limbs) * Self(Self::R2)
            }

            /// Parses little-endian canonical bytes (`LIMBS * 8` bytes).
            ///
            /// Returns `None` if the slice has the wrong length or encodes a
            /// value that is not below the modulus.
            pub fn from_bytes_le(bytes: &[u8]) -> Option<Self> {
                if bytes.len() != $limbs * 8 {
                    return None;
                }
                let mut limbs = [0u64; $limbs];
                for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(chunk);
                    limbs[i] = u64::from_le_bytes(b);
                }
                if !$crate::arith::limbs_lt(&limbs, &Self::MODULUS) {
                    return None;
                }
                Some(Self(limbs) * Self(Self::R2))
            }

            /// Reduces an arbitrary little-endian byte string into the field
            /// by interpreting it as a wide integer modulo `p`.
            ///
            /// Used by the Fiat–Shamir transcript to map SHA3 output to field
            /// challenges. Accepts up to `2 * LIMBS * 8` bytes.
            pub fn from_bytes_le_mod_order(bytes: &[u8]) -> Self {
                assert!(
                    bytes.len() <= 2 * $limbs * 8,
                    "from_bytes_le_mod_order: input too long"
                );
                let mut wide = [0u64; 2 * $limbs];
                for (i, chunk) in bytes.chunks(8).enumerate() {
                    let mut b = [0u8; 8];
                    b[..chunk.len()].copy_from_slice(chunk);
                    wide[i] = u64::from_le_bytes(b);
                }
                // montgomery_reduce computes (wide · R^{-1}) mod p; two
                // multiplications by R² then yield (wide · R) mod p, i.e. the
                // Montgomery form of `wide mod p`. `wide` may be as large as
                // R² − 1, which leaves the reduction below R + p: one
                // subtraction clears the carry word, a few more bring the value
                // below p, as `mul` requires of its operands.
                let (lo, carry) = Self::montgomery_reduce(wide);
                let mut reduced = Self::reduce_once(lo, carry).0;
                while !$crate::arith::limbs_lt(&reduced, &Self::MODULUS) {
                    $crate::arith::limbs_sub_assign(&mut reduced, &Self::MODULUS);
                }
                Self(reduced) * Self(Self::R2) * Self(Self::R2)
            }

            /// Samples a uniformly random field element via rejection
            /// sampling.
            pub fn random<R: zkspeed_rt::Rng + ?Sized>(rng: &mut R) -> Self {
                loop {
                    let mut limbs = [0u64; $limbs];
                    for l in limbs.iter_mut() {
                        *l = rng.gen();
                    }
                    limbs[$limbs - 1] &= Self::TOP_LIMB_MASK;
                    if $crate::arith::limbs_lt(&limbs, &Self::MODULUS) {
                        return Self(limbs) * Self(Self::R2);
                    }
                }
            }

            /// Adds two field elements.
            #[inline]
            pub fn add(&self, rhs: &Self) -> Self {
                let mut d = [0u64; $limbs];
                let mut carry = 0u64;
                for i in 0..$limbs {
                    let (lo, c) = $crate::arith::adc(self.0[i], rhs.0[i], carry);
                    d[i] = lo;
                    carry = c;
                }
                // A sum of random elements passes `p` every other time: select
                // with a mask, a branch would mispredict half of the time.
                let (reduced, mask) = Self::sub_modulus(&d, carry);
                for i in 0..$limbs {
                    d[i] = (reduced[i] & mask) | (d[i] & !mask);
                }
                Self(d)
            }

            /// Subtracts `rhs` from this element.
            #[inline]
            pub fn sub(&self, rhs: &Self) -> Self {
                let mut d = [0u64; $limbs];
                let mut borrow = 0u64;
                for i in 0..$limbs {
                    let (lo, b) = $crate::arith::sbb(self.0[i], rhs.0[i], borrow);
                    d[i] = lo;
                    borrow = b;
                }
                // Add the modulus back under the borrow mask (no branch: the
                // borrow of random operands is a coin flip).
                let mask = borrow.wrapping_neg();
                let mut carry = 0u64;
                for i in 0..$limbs {
                    let (lo, c) = $crate::arith::adc(d[i], Self::MODULUS[i] & mask, carry);
                    d[i] = lo;
                    carry = c;
                }
                Self(d)
            }

            /// Negates this element.
            #[inline]
            pub fn neg(&self) -> Self {
                if self.is_zero() {
                    return Self::zero();
                }
                let mut d = Self::MODULUS;
                $crate::arith::limbs_sub_assign(&mut d, &self.0);
                Self(d)
            }

            /// Doubles this element.
            #[inline]
            pub fn double(&self) -> Self {
                self.add(self)
            }

            /// Multiplies two field elements (one Montgomery multiplication).
            ///
            /// Inlined where the compiler chooses to (see the module docs for
            /// why neither always nor never).
            #[inline]
            pub fn mul(&self, rhs: &Self) -> Self {
                self.mul_kernel(rhs)
            }

            /// The body of [`Self::mul`]: for each word `rhs[i]` the row
            /// `self·rhs[i]` and the reduction row `k·p` that clears the low
            /// word are added to the running value, which then moves down a
            /// word. The modulus leaves the top bit of its top limb free,
            /// which keeps the running value below `2p` between rows (inside
            /// `LIMBS` words, the extra word is zero) and inside `LIMBS + 1`
            /// words within one.
            #[inline(always)]
            fn mul_kernel(&self, rhs: &Self) -> Self {
                $crate::counters::record($limbs);
                let mut t = [0u64; $limbs + 1];
                for i in 0..$limbs {
                    t = Self::add_row(t, &self.0, rhs.0[i]);
                    t = Self::reduce_row(t);
                }
                Self::reduce_once(core::array::from_fn(|j| t[j]), 0)
            }

            /// `t + a·w`: the products `a[j]·w` are formed first, then their
            /// low words go into `t[0..]` on one carry chain and their high
            /// words into `t[1..]` on a second. The caller guarantees that
            /// the sum fits `LIMBS + 1` words.
            #[inline(always)]
            fn add_row(mut t: [u64; $limbs + 1], a: &[u64; $limbs], w: u64) -> [u64; $limbs + 1] {
                if $limbs <= 4 {
                    let mut carry = 0u64;
                    for j in 0..$limbs {
                        (t[j], carry) = $crate::arith::mac(t[j], a[j], w, carry);
                    }
                    t[$limbs] += carry;
                    return t;
                }
                let wide: [u128; $limbs] = core::array::from_fn(|j| (a[j] as u128) * (w as u128));
                let mut carry = false;
                for j in 0..$limbs {
                    (t[j], carry) = t[j].carrying_add(wide[j] as u64, carry);
                }
                t[$limbs] += carry as u64;
                carry = false;
                for j in 0..$limbs {
                    (t[j + 1], carry) = t[j + 1].carrying_add((wide[j] >> 64) as u64, carry);
                }
                debug_assert!(!carry, "row overflow");
                t
            }

            /// `(t + k·p) / 2^64` for the `k` that clears the low word.
            #[inline(always)]
            fn reduce_row(t: [u64; $limbs + 1]) -> [u64; $limbs + 1] {
                let t = Self::add_row(t, &Self::MODULUS, t[0].wrapping_mul(Self::INV));
                // An array expression, not a loop over `t` in place (module docs).
                core::array::from_fn(|j| if j < $limbs { t[j + 1] } else { 0 })
            }

            /// Squares this element (one Montgomery multiplication).
            #[inline]
            pub fn square(&self) -> Self {
                self.mul(self)
            }

            /// Raises this element to a multi-precision little-endian
            /// exponent using square-and-multiply.
            pub fn pow(&self, exp: &[u64]) -> Self {
                let mut res = Self::one();
                for e in exp.iter().rev() {
                    for i in (0..64).rev() {
                        res = res.square();
                        if (e >> i) & 1 == 1 {
                            res = res.mul(self);
                        }
                    }
                }
                res
            }

            /// Raises this element to a `u64` power.
            #[inline]
            pub fn pow_u64(&self, exp: u64) -> Self {
                self.pow(&[exp])
            }

            /// Computes the multiplicative inverse, or `None` for zero, with a
            /// binary GCD that takes 62 steps on the operands' low words per
            /// multi-limb update (Bernstein–Yang division steps, variable
            /// time). One counted multiplication, the conversion back to
            /// Montgomery form.
            pub fn invert(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                let inverse = $crate::inverse::invert::<$limbs, { $limbs + 1 }>(
                    &self.to_canonical_limbs(),
                    &Self::MODULUS,
                    Self::INV,
                );
                Some(Self::from_canonical_limbs(inverse))
            }

            /// Computes the inverse via Fermat's little theorem (`a^{p-2}`).
            ///
            /// Slower than [`Self::invert`]; kept as an independent oracle for
            /// tests and as the reference the FracMLE unit is validated
            /// against.
            pub fn invert_fermat(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                let mut exp = Self::MODULUS;
                // p is odd and > 2, so p - 2 never borrows past limb 0 in a
                // way that underflows the whole number.
                $crate::arith::limbs_sub_assign(&mut exp, &{
                    let mut two = [0u64; $limbs];
                    two[0] = 2;
                    two
                });
                Some(self.pow(&exp))
            }

            /// Returns bit `i` of the canonical representation (little-endian
            /// bit order). Bits at or beyond [`Self::NUM_BITS`] are zero.
            pub fn bit(&self, i: usize) -> bool {
                if i >= $limbs * 64 {
                    return false;
                }
                let limbs = self.to_canonical_limbs();
                (limbs[i / 64] >> (i % 64)) & 1 == 1
            }

            /// Slow reference for [`Self::mul`]: the schoolbook double-width
            /// product, then a word-by-word reduction, both on `arith::mac` —
            /// it shares no code with the row kernel. Not counted as a modmul.
            #[cfg(test)]
            pub(crate) fn mul_reference(&self, rhs: &Self) -> Self {
                use $crate::arith::{adc, mac};
                let mut t = [0u64; 2 * $limbs];
                for i in 0..$limbs {
                    let mut carry = 0u64;
                    for j in 0..$limbs {
                        (t[i + j], carry) = mac(t[i + j], self.0[i], rhs.0[j], carry);
                    }
                    t[i + $limbs] = carry;
                }
                let mut top = 0u64;
                for i in 0..$limbs {
                    let k = t[i].wrapping_mul(Self::INV);
                    let mut carry = 0u64;
                    for j in 0..$limbs {
                        (t[i + j], carry) = mac(t[i + j], k, Self::MODULUS[j], carry);
                    }
                    (t[i + $limbs], top) = adc(t[i + $limbs], top, carry);
                }
                Self::reduce_once(core::array::from_fn(|j| t[j + $limbs]), top)
            }

            /// `value − p` for the `LIMBS + 1`-word value `limbs` plus
            /// `carry·2^(64·LIMBS)`, below `2p`; and an all-ones mask if the
            /// value is at least `p` (the difference is then the reduced
            /// value), zero otherwise.
            #[inline(always)]
            fn sub_modulus(limbs: &[u64; $limbs], carry: u64) -> ([u64; $limbs], u64) {
                let mut d = [0u64; $limbs];
                let mut borrow = 0u64;
                for i in 0..$limbs {
                    let (lo, b) = $crate::arith::sbb(limbs[i], Self::MODULUS[i], borrow);
                    d[i] = lo;
                    borrow = b;
                }
                (d, (carry | (borrow ^ 1)).wrapping_neg())
            }

            /// Final subtraction of a Montgomery product. The unreduced
            /// product of reduced operands is below `p + p²/R`, so it needs
            /// the subtraction for few operand pairs (`p/R` is 0.10 for Fq,
            /// 0.45 for Fr): a branch, which predicts well and keeps the
            /// select off a dependent chain's critical path.
            #[inline]
            fn reduce_once(limbs: [u64; $limbs], carry: u64) -> Self {
                let (d, reduce) = Self::sub_modulus(&limbs, carry);
                if reduce != 0 {
                    Self(d)
                } else {
                    Self(limbs)
                }
            }

            /// Word-by-word Montgomery reduction of a double-width value.
            /// Returns the reduced value, possibly still one `p` too large,
            /// and its carry word; callers pass both to [`Self::reduce_once`].
            fn montgomery_reduce(t: [u64; 2 * $limbs]) -> ([u64; $limbs], u64) {
                let mut r: [u64; $limbs + 1] =
                    core::array::from_fn(|j| if j < $limbs { t[j] } else { 0 });
                for i in 0..$limbs {
                    r = Self::reduce_row(r);
                    let carry;
                    (r[$limbs - 1], carry) = r[$limbs - 1].overflowing_add(t[i + $limbs]);
                    r[$limbs] = carry as u64;
                }
                (core::array::from_fn(|j| r[j]), r[$limbs])
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                let limbs = self.to_canonical_limbs();
                write!(f, "0x")?;
                for l in limbs.iter().rev() {
                    write!(f, "{:016x}", l)?;
                }
                Ok(())
            }
        }

        /// The canonical value as `LIMBS * 8` little-endian bytes.
        impl zkspeed_rt::codec::Encode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                for limb in self.to_canonical_limbs() {
                    out.extend_from_slice(&limb.to_le_bytes());
                }
            }
        }

        /// Rejects a value at or above the modulus.
        impl zkspeed_rt::codec::Decode for $name {
            const MIN_LEN: usize = $limbs * 8;

            fn decode(
                r: &mut zkspeed_rt::codec::Reader<'_>,
            ) -> Result<Self, zkspeed_rt::codec::DecodeError> {
                $name::from_bytes_le(r.take($limbs * 8)?).ok_or(
                    zkspeed_rt::codec::DecodeError::InvalidValue {
                        what: concat!("non-canonical ", stringify!($name), " element"),
                    },
                )
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl From<bool> for $name {
            fn from(v: bool) -> Self {
                if v {
                    Self::one()
                } else {
                    Self::zero()
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                $name::add(&self, &rhs)
            }
        }

        impl<'a> core::ops::Add<&'a $name> for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: &'a Self) -> Self {
                $name::add(&self, rhs)
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                $name::sub(&self, &rhs)
            }
        }

        impl<'a> core::ops::Sub<&'a $name> for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: &'a Self) -> Self {
                $name::sub(&self, rhs)
            }
        }

        impl core::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                $name::mul(&self, &rhs)
            }
        }

        impl<'a> core::ops::Mul<&'a $name> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: &'a Self) -> Self {
                $name::mul(&self, rhs)
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                $name::neg(&self)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = $name::add(self, &rhs);
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = $name::sub(self, &rhs);
            }
        }

        impl core::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = $name::mul(self, &rhs);
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::zero(), |acc, x| acc + x)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::zero(), |acc, x| acc + *x)
            }
        }

        impl core::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::one(), |acc, x| acc * x)
            }
        }

        impl<'a> core::iter::Product<&'a $name> for $name {
            fn product<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::one(), |acc, x| acc * *x)
            }
        }

        impl $crate::Field for $name {
            fn zero() -> Self {
                $name::zero()
            }
            fn one() -> Self {
                $name::one()
            }
            fn is_zero(&self) -> bool {
                $name::is_zero(self)
            }
            fn is_one(&self) -> bool {
                $name::is_one(self)
            }
            fn square(&self) -> Self {
                $name::square(self)
            }
            fn double(&self) -> Self {
                $name::double(self)
            }
            fn invert(&self) -> Option<Self> {
                $name::invert(self)
            }
            fn pow(&self, exp: &[u64]) -> Self {
                $name::pow(self, exp)
            }
            fn from_u64(v: u64) -> Self {
                $name::from_u64(v)
            }
            fn from_u128(v: u128) -> Self {
                $name::from_u128(v)
            }
            fn random<R: zkspeed_rt::Rng + ?Sized>(rng: &mut R) -> Self {
                $name::random(rng)
            }
            fn num_bits() -> u32 {
                $name::NUM_BITS
            }
        }
    };
}
