//! A deterministic, `rand`-compatible PRNG facade backed by the SHA3 XOF.
//!
//! [`StdRng`] absorbs a 32-byte seed into the Keccak sponge with SHAKE-style
//! domain separation and then squeezes an unbounded byte stream from it, one
//! 136-byte rate block per [`keccak_f1600`] permutation. The same seed always
//! yields the same stream on every platform and thread, which is what makes
//! the workspace's proofs, tests and benchmarks reproducible end to end.
//!
//! The trait surface ([`Rng`], [`SeedableRng`], the `rngs::StdRng` path)
//! deliberately mirrors the subset of the `rand` crate the workspace used
//! before it became dependency-free, so call sites only swap the import.

use core::ops::Range;

use crate::keccak::{keccak_f1600, SHA3_256_RATE};

/// A source of randomness, mirroring the subset of `rand::Rng` used by the
/// workspace: raw words, byte filling, [`Rng::gen`], [`Rng::gen_range`] and
/// [`Rng::gen_bool`].
pub trait Rng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (the low half of a 64-bit draw —
    /// the same half `gen::<u32>()` yields, so the two paths agree).
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Samples a value of type `T` from its standard distribution (uniform
    /// over all values for integers, uniform in `[0, 1)` for floats).
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Samples uniformly from the half-open range `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_uniform(self, range)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as FromRng>::from_rng(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A PRNG constructible from a fixed-size seed, mirroring
/// `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded to a full seed with
    /// SplitMix64 (the same expansion `rand` uses, so small seeds still
    /// produce well-separated states).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// The workspace's standard deterministic PRNG: a SHAKE-style XOF over the
/// Keccak-f\[1600\] sponge, seeded with 32 bytes.
///
/// # Examples
///
/// ```
/// use zkspeed_rt::rngs::StdRng;
/// use zkspeed_rt::{Rng, SeedableRng};
///
/// let mut a = StdRng::seed_from_u64(42);
/// let mut b = StdRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let roll: f64 = a.gen();
/// assert!((0.0..1.0).contains(&roll));
/// ```
#[derive(Clone, Debug)]
pub struct StdRng {
    state: [u64; 25],
    buffer: [u8; SHA3_256_RATE],
    pos: usize,
}

impl StdRng {
    /// Copies the current rate portion of the sponge state into the output
    /// buffer and rewinds the read position.
    fn squeeze_block(&mut self) {
        for (i, chunk) in self.buffer.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&self.state[i].to_le_bytes());
        }
        self.pos = 0;
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut state = [0u64; 25];
        // One absorbed block: seed ‖ 0x1F padding ‖ … ‖ 0x80 (SHAKE domain
        // separation), then the first permutation.
        let mut block = [0u8; SHA3_256_RATE];
        block[..32].copy_from_slice(&seed);
        block[32] = 0x1f;
        block[SHA3_256_RATE - 1] |= 0x80;
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            state[i] ^= u64::from_le_bytes(b);
        }
        keccak_f1600(&mut state);
        let mut rng = Self {
            state,
            buffer: [0u8; SHA3_256_RATE],
            pos: 0,
        };
        rng.squeeze_block();
        rng
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        if self.pos + 8 > SHA3_256_RATE {
            keccak_f1600(&mut self.state);
            self.squeeze_block();
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buffer[self.pos..self.pos + 8]);
        self.pos += 8;
        u64::from_le_bytes(b)
    }
}

/// Types that can be sampled from their standard distribution.
pub trait FromRng: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng_uint {
    ($($t:ty),* $(,)?) => {$(
        impl FromRng for $t {
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_from_rng_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for u128 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleUniform: Sized {
    /// Draws a value uniformly from `range`.
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Rejection-samples a value in `[0, span)` without modulo bias.
fn uniform_u64_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - u64::MAX % span;
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end - range.start) as u64;
                range.start + uniform_u64_below(rng, span) as $t
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u64;
                (range.start as i128 + uniform_u64_below(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let u = <f64 as FromRng>::from_rng(rng);
        let v = range.start + u * (range.end - range.start);
        // Rounding in the affine map can land exactly on `end`; keep the
        // documented half-open contract.
        if v < range.end {
            v
        } else {
            range.end.next_down()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn stream_crosses_rate_boundary_consistently() {
        // Drawing u64s one at a time must match bulk byte filling.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut bytes = vec![0u8; SHA3_256_RATE * 3];
        a.fill_bytes(&mut bytes);
        for chunk in bytes.chunks_exact(8) {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            assert_eq!(u64::from_le_bytes(w), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(1_000..1_000_000);
            assert!((1_000..1_000_000).contains(&v));
            let s: i64 = rng.gen_range(-50..50);
            assert!((-50..50).contains(&s));
            let f: f64 = rng.gen_range(2.0..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        // Mean of 1000 uniform draws is close to 0.5.
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(12);
        let _: u64 = rng.gen_range(5..5);
    }

    #[test]
    fn works_through_mut_references() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(13);
        let mut clone = rng.clone();
        assert_eq!(draw(&mut rng), draw(&mut clone));
    }
}
