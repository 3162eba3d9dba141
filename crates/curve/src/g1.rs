//! The BLS12-381 G1 group.
//!
//! Points are represented either in affine form ([`G1Affine`]) or in
//! homogeneous projective form ([`G1Projective`]). Group operations use the
//! *complete* addition formulas of Renes–Costello–Batina (EUROCRYPT 2016)
//! specialized to `a = 0`, `b = 4`, so there are no exceptional cases for
//! doubling or the identity — the same property that lets zkSpeed's PADD
//! unit be a single fully-pipelined datapath.
//!
//! The paper's MSM unit cost model counts one point addition (PADD) as "tens
//! of modular multiplications"; the exact operation count of the formulas
//! used here is exposed as [`PADD_FQ_MULS`], [`PADD_MIXED_FQ_MULS`] and
//! [`PDBL_FQ_MULS`], and a unit test holds each constant to what the
//! multiplication counters read.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use zkspeed_field::{Fq, Fr};
use zkspeed_rt::codec::{Decode, DecodeError, Encode, Reader};
use zkspeed_rt::Rng;

/// Number of Fq multiplications in one complete projective point addition
/// (Renes–Costello–Batina Algorithm 7 for a = 0: 12 mul; the two
/// multiplications by `3b = 12` are addition chains).
pub const PADD_FQ_MULS: usize = 12;

/// Number of Fq multiplications in one mixed projective + affine point
/// addition (Renes–Costello–Batina Algorithm 8 for a = 0: 11 mul). One
/// multiplication cheaper than [`PADD_FQ_MULS`] because `Z₂ = 1` folds away
/// the `Z₁·Z₂` product.
pub const PADD_MIXED_FQ_MULS: usize = 11;

/// Number of Fq multiplications of one batch-affine addition: three of the
/// Montgomery batch inversion it shares with its batch, plus
/// `λ = Δy·(Δx)⁻¹`, `λ²` and `λ·(x₁ − x₃)`. The shared inversion each batch
/// pays on top is a binary GCD (no Fq multiplier use) and is tracked
/// separately in `MsmStats::batch_inversions`.
pub const BATCH_AFFINE_ADD_FQ_MULS: usize = 6;

/// Number of Fq multiplications in one projective doubling
/// (Renes–Costello–Batina Algorithm 9 for a = 0: 6 mul + 2 squarings).
pub const PDBL_FQ_MULS: usize = 8;

/// The curve constant `b = 4` of BLS12-381 G1 (`y² = x³ + 4`), in
/// Montgomery form.
const B: Fq = Fq::from_montgomery_limbs_unchecked([
    0xaa27_0000_000c_fff3,
    0x53cc_0032_fc34_000a,
    0x478f_e97a_6b0a_807f,
    0xb1d3_7ebe_e6ba_24d7,
    0x8ec9_733b_bf78_ab2f,
    0x09d6_4551_3d83_de7e,
]);

/// A primitive cube root of unity in Fq, in Montgomery form: `(x, y) ↦ (β·x, y)`
/// maps the curve to itself and acts on G1 as multiplication by [`LAMBDA`].
const BETA: Fq = Fq::from_montgomery_limbs_unchecked([
    0xcd03_c9e4_8671_f071,
    0x5dab_2246_1fcd_a5d2,
    0x5870_42af_d385_1b95,
    0x8eb6_0ebe_01ba_cb9e,
    0x03f9_7d6e_83d0_50d2,
    0x18f0_2065_5463_8741,
]);

/// `λ = z² − 1` for the BLS12-381 parameter `z = −0xd201000000010000`: a cube
/// root of unity modulo the group order (`r = λ² + λ + 1`) and the eigenvalue
/// of the endomorphism, `φ(P) = λ·P`.
pub(crate) const LAMBDA: u128 = 0xac45_a401_0001_a402_0000_0000_ffff_ffff;

/// Multiplies by `3·b = 12` with four additions (`12x = 8x + 4x`) instead of
/// a modular multiplication.
#[inline]
fn mul_by_3b(x: Fq) -> Fq {
    let x4 = x.double().double();
    x4.double() + x4
}

/// A point on BLS12-381 G1 in affine coordinates.
///
/// The identity (point at infinity) is encoded with the `infinity` flag.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct G1Affine {
    /// The affine x-coordinate (meaningless if `infinity` is set).
    pub x: Fq,
    /// The affine y-coordinate (meaningless if `infinity` is set).
    pub y: Fq,
    /// Whether this is the point at infinity.
    pub infinity: bool,
}

impl Default for G1Affine {
    fn default() -> Self {
        Self::identity()
    }
}

impl fmt::Display for G1Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "G1(infinity)")
        } else {
            write!(f, "G1(x={}, y={})", self.x, self.y)
        }
    }
}

impl G1Affine {
    /// Returns the point at infinity.
    pub fn identity() -> Self {
        Self {
            x: Fq::zero(),
            y: Fq::one(),
            infinity: true,
        }
    }

    /// Returns the standard BLS12-381 G1 generator.
    pub fn generator() -> Self {
        let x = Fq::from_hex_be(
            "17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb",
        )
        .expect("generator x is canonical");
        let y = Fq::from_hex_be(
            "08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1",
        )
        .expect("generator y is canonical");
        Self {
            x,
            y,
            infinity: false,
        }
    }

    /// Returns `true` if this is the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks that the point satisfies the curve equation `y² = x³ + 4`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + B
    }

    /// Converts to projective coordinates.
    pub fn to_projective(&self) -> G1Projective {
        if self.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: self.x,
                y: self.y,
                z: Fq::one(),
            }
        }
    }

    /// Negates the point.
    pub fn neg(&self) -> Self {
        if self.infinity {
            *self
        } else {
            Self {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }

    /// The GLV endomorphism `φ(x, y) = (β·x, y) = λ·(x, y)`, for one Fq
    /// multiplication. The identity keeps its flag, and maps to itself.
    pub(crate) fn endomorphism(&self) -> Self {
        Self {
            x: self.x * BETA,
            ..*self
        }
    }
}

/// The canonical [`G1_ENCODED_BYTES`]-byte encoding: `x` and `y` as 48-byte
/// little-endian canonical field elements followed by an infinity flag
/// byte. The identity encodes as all-zero coordinates with the flag set, so
/// every point has exactly one encoding.
impl Encode for G1Affine {
    fn encode(&self, out: &mut Vec<u8>) {
        if self.infinity {
            out.extend_from_slice(&[0u8; 96]);
        } else {
            self.x.encode(out);
            self.y.encode(out);
        }
        out.push(u8::from(self.infinity));
    }
}

/// Rejects non-canonical field elements, non-canonical identity encodings
/// and points off the curve.
impl Decode for G1Affine {
    const MIN_LEN: usize = G1_ENCODED_BYTES;

    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = reader.take(G1_ENCODED_BYTES)?;
        let (x_bytes, y_bytes, flag) = (&bytes[..48], &bytes[48..96], bytes[96]);
        match flag {
            1 => {
                if x_bytes.iter().chain(y_bytes).any(|b| *b != 0) {
                    return Err(DecodeError::InvalidValue {
                        what: "G1 identity with nonzero coordinates",
                    });
                }
                Ok(Self::identity())
            }
            0 => {
                let x = Fq::from_bytes_le(x_bytes).ok_or(DecodeError::InvalidValue {
                    what: "non-canonical G1 x coordinate",
                })?;
                let y = Fq::from_bytes_le(y_bytes).ok_or(DecodeError::InvalidValue {
                    what: "non-canonical G1 y coordinate",
                })?;
                let point = Self {
                    x,
                    y,
                    infinity: false,
                };
                if !point.is_on_curve() {
                    return Err(DecodeError::InvalidValue {
                        what: "G1 point off the curve",
                    });
                }
                Ok(point)
            }
            _ => Err(DecodeError::InvalidValue {
                what: "G1 infinity flag",
            }),
        }
    }
}

/// Size in bytes of the canonical [`G1Affine`] encoding.
pub const G1_ENCODED_BYTES: usize = 97;

impl Neg for G1Affine {
    type Output = G1Affine;
    fn neg(self) -> G1Affine {
        G1Affine::neg(&self)
    }
}

impl From<G1Affine> for G1Projective {
    fn from(p: G1Affine) -> Self {
        p.to_projective()
    }
}

impl From<G1Projective> for G1Affine {
    fn from(p: G1Projective) -> Self {
        p.to_affine()
    }
}

/// A point on BLS12-381 G1 in homogeneous projective coordinates `(X : Y : Z)`
/// with `x = X/Z`, `y = Y/Z`; the identity is `(0 : 1 : 0)`.
#[derive(Copy, Clone, Debug)]
pub struct G1Projective {
    /// The projective X coordinate.
    pub x: Fq,
    /// The projective Y coordinate.
    pub y: Fq,
    /// The projective Z coordinate (zero exactly at the identity).
    pub z: Fq,
}

impl Default for G1Projective {
    fn default() -> Self {
        Self::identity()
    }
}

impl fmt::Display for G1Projective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_affine())
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // (X1 : Y1 : Z1) == (X2 : Y2 : Z2) iff cross-products match.
        let self_id = self.is_identity();
        let other_id = other.is_identity();
        if self_id || other_id {
            return self_id && other_id;
        }
        self.x * other.z == other.x * self.z && self.y * other.z == other.y * self.z
    }
}

impl Eq for G1Projective {}

impl G1Projective {
    /// Returns the identity element `(0 : 1 : 0)`.
    pub fn identity() -> Self {
        Self {
            x: Fq::zero(),
            y: Fq::one(),
            z: Fq::zero(),
        }
    }

    /// Returns the standard generator in projective form.
    pub fn generator() -> Self {
        G1Affine::generator().to_projective()
    }

    /// Returns `true` if this is the identity element.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Checks the projective curve equation `Y²·Z = X³ + 4·Z³`.
    pub fn is_on_curve(&self) -> bool {
        if self.is_identity() {
            return true;
        }
        self.y.square() * self.z == self.x.square() * self.x + B * self.z.square() * self.z
    }

    /// Converts to affine coordinates: one field inversion, none for a
    /// point already normalised (`Z = 1`).
    pub fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        if self.z.is_one() {
            return G1Affine {
                x: self.x,
                y: self.y,
                infinity: false,
            };
        }
        let zinv = self.z.invert().expect("nonzero z");
        G1Affine {
            x: self.x * zinv,
            y: self.y * zinv,
            infinity: false,
        }
    }

    /// Complete point addition (Renes–Costello–Batina 2016, Algorithm 7 with
    /// `a = 0`). Handles identity and doubling inputs without branches on
    /// secret data.
    pub fn add(&self, rhs: &Self) -> Self {
        let (x1, y1, z1) = (self.x, self.y, self.z);
        let (x2, y2, z2) = (rhs.x, rhs.y, rhs.z);

        let mut t0 = x1 * x2;
        let mut t1 = y1 * y2;
        let mut t2 = z1 * z2;
        let mut t3 = x1 + y1;
        let mut t4 = x2 + y2;
        t3 *= t4;
        t4 = t0 + t1;
        t3 -= t4;
        t4 = y1 + z1;
        let mut x3 = y2 + z2;
        t4 *= x3;
        x3 = t1 + t2;
        t4 -= x3;
        x3 = x1 + z1;
        let mut y3 = x2 + z2;
        x3 *= y3;
        y3 = t0 + t2;
        y3 = x3 - y3;
        x3 = t0 + t0;
        t0 = x3 + t0;
        t2 = mul_by_3b(t2);
        let mut z3 = t1 + t2;
        t1 -= t2;
        y3 = mul_by_3b(y3);
        x3 = t4 * y3;
        t2 = t3 * t1;
        x3 = t2 - x3;
        y3 *= t0;
        t1 *= z3;
        y3 = t1 + y3;
        t0 *= t3;
        z3 *= t4;
        z3 += t0;

        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (Renes–Costello–Batina 2016,
    /// Algorithm 8 with `a = 0`): complete for every projective `self`, and
    /// one Fq multiplication cheaper than lifting to [`Self::add`] because
    /// `Z₂ = 1`. The affine identity is handled by an explicit guard (it has
    /// no `Z₂ = 1` representation).
    pub fn add_mixed(&self, rhs: &G1Affine) -> Self {
        if rhs.infinity {
            return *self;
        }
        let (x1, y1, z1) = (self.x, self.y, self.z);
        let (x2, y2) = (rhs.x, rhs.y);

        let mut t0 = x1 * x2;
        let mut t1 = y1 * y2;
        let mut t3 = x2 + y2;
        let mut t4 = x1 + y1;
        t3 *= t4;
        t4 = t0 + t1;
        t3 -= t4;
        t4 = y2 * z1;
        t4 += y1;
        let mut y3 = x2 * z1;
        y3 += x1;
        let mut x3 = t0 + t0;
        t0 = x3 + t0;
        let mut t2 = mul_by_3b(z1);
        let mut z3 = t1 + t2;
        t1 -= t2;
        y3 = mul_by_3b(y3);
        x3 = t4 * y3;
        t2 = t3 * t1;
        x3 = t2 - x3;
        y3 *= t0;
        t1 *= z3;
        y3 = t1 + y3;
        t0 *= t3;
        z3 *= t4;
        z3 += t0;

        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point; alias of [`Self::add_mixed`].
    pub fn add_affine(&self, rhs: &G1Affine) -> Self {
        self.add_mixed(rhs)
    }

    /// Point doubling (Renes–Costello–Batina 2016, Algorithm 9 with `a = 0`).
    pub fn double(&self) -> Self {
        let (x, y, z) = (self.x, self.y, self.z);

        let mut t0 = y.square();
        let mut z3 = t0 + t0;
        z3 = z3 + z3;
        z3 = z3 + z3;
        let mut t1 = y * z;
        let mut t2 = z.square();
        t2 = mul_by_3b(t2);
        let mut x3 = t2 * z3;
        let mut y3 = t0 + t2;
        z3 = t1 * z3;
        t1 = t2 + t2;
        t2 = t1 + t2;
        t0 -= t2;
        y3 = t0 * y3;
        y3 = x3 + y3;
        t1 = x * y;
        x3 = t0 * t1;
        x3 = x3 + x3;

        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negates the point.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication by a field element using double-and-add over the
    /// canonical bits of the scalar (MSB first).
    pub fn mul_scalar(&self, scalar: &Fr) -> Self {
        let limbs = scalar.to_canonical_limbs();
        let mut acc = Self::identity();
        let mut started = false;
        for i in (0..Fr::NUM_BITS as usize).rev() {
            if started {
                acc = acc.double();
            }
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
                started = true;
            }
        }
        acc
    }

    /// Samples a uniformly random group element (a random scalar multiple of
    /// the generator).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul_scalar(&Fr::random(rng))
    }

    /// Converts a batch of projective points to affine with a single shared
    /// inversion (Montgomery batch inversion over the Z coordinates).
    pub fn batch_to_affine(points: &[Self]) -> Vec<G1Affine> {
        let mut zs: Vec<Fq> = Vec::with_capacity(points.len());
        for p in points {
            zs.push(if p.is_identity() { Fq::one() } else { p.z });
        }
        zkspeed_field::batch_invert(&mut zs);
        points
            .iter()
            .zip(zs.iter())
            .map(|(p, zinv)| {
                if p.is_identity() {
                    G1Affine::identity()
                } else {
                    G1Affine {
                        x: p.x * *zinv,
                        y: p.y * *zinv,
                        infinity: false,
                    }
                }
            })
            .collect()
    }
}

impl Add for G1Projective {
    type Output = G1Projective;
    fn add(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs)
    }
}

impl<'a> Add<&'a G1Projective> for G1Projective {
    type Output = G1Projective;
    fn add(self, rhs: &'a Self) -> Self {
        G1Projective::add(&self, rhs)
    }
}

impl AddAssign for G1Projective {
    fn add_assign(&mut self, rhs: Self) {
        *self = G1Projective::add(self, &rhs);
    }
}

impl Sub for G1Projective {
    type Output = G1Projective;
    fn sub(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs.neg())
    }
}

impl SubAssign for G1Projective {
    fn sub_assign(&mut self, rhs: Self) {
        *self = G1Projective::add(self, &rhs.neg());
    }
}

impl Neg for G1Projective {
    type Output = G1Projective;
    fn neg(self) -> Self {
        G1Projective::neg(&self)
    }
}

impl Mul<Fr> for G1Projective {
    type Output = G1Projective;
    fn mul(self, rhs: Fr) -> Self {
        self.mul_scalar(&rhs)
    }
}

impl<'a> Mul<&'a Fr> for G1Projective {
    type Output = G1Projective;
    fn mul(self, rhs: &'a Fr) -> Self {
        self.mul_scalar(rhs)
    }
}

impl Sum for G1Projective {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::identity(), |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0003)
    }

    #[test]
    fn generator_is_on_curve() {
        let g = G1Affine::generator();
        assert!(g.is_on_curve());
        assert!(!g.is_identity());
        assert!(G1Projective::generator().is_on_curve());
        assert!(G1Affine::identity().is_on_curve());
        assert!(G1Projective::identity().is_on_curve());
    }

    #[test]
    fn curve_constants_match_their_integers() {
        assert_eq!(B, Fq::from_u64(4));
        let mut r = rng();
        for x in [Fq::zero(), Fq::one(), -Fq::one(), Fq::random(&mut r)] {
            assert_eq!(mul_by_3b(x), x * Fq::from_u64(12));
        }
    }

    #[test]
    fn endomorphism_is_multiplication_by_lambda() {
        // β is a primitive cube root of unity, and λ one modulo r.
        assert_eq!(
            BETA,
            Fq::from_hex_be(
                "1a0111ea397fe699ec02408663d4de85aa0d857d89759ad4897d29650fb85f9b409427eb4f49fffd8bfd00000000aaac",
            )
            .expect("canonical")
        );
        assert!(BETA != Fq::one() && BETA.square() * BETA == Fq::one());
        let lambda = Fr::from_u128(LAMBDA);
        let z = Fr::from_u64(0xd201_0000_0001_0000);
        assert_eq!(lambda, z * z - Fr::one());
        assert!((lambda * lambda + lambda + Fr::one()).is_zero());
        // φ(P) = λ·P on the generator, random points and the identity; the
        // other cube root, β², acts as λ² instead.
        let mut r = rng();
        let mut points = vec![G1Affine::generator(), G1Affine::identity()];
        points.extend((0..4).map(|_| G1Projective::random(&mut r).to_affine()));
        for p in &points {
            let image = p.endomorphism();
            assert!(image.is_on_curve());
            assert_eq!(image.y, p.y);
            assert_eq!(image.to_projective(), p.to_projective().mul_scalar(&lambda));
        }
        let g = G1Affine::generator();
        let other = G1Affine {
            x: g.x * BETA.square(),
            ..g
        };
        assert_eq!(
            other.to_projective(),
            g.to_projective().mul_scalar(&(lambda * lambda))
        );
        assert_eq!(G1Affine::identity().endomorphism(), G1Affine::identity());
    }

    #[test]
    fn exported_mul_counts_are_what_the_formulas_cost() {
        use zkspeed_field::measure_modmuls;
        let mut r = rng();
        let p = G1Projective::random(&mut r);
        let q = G1Projective::random(&mut r);
        let q_affine = q.to_affine();
        let fq_muls = |f: &dyn Fn() -> G1Projective| {
            let (_, count) = measure_modmuls(f);
            assert_eq!(count.fr, 0);
            count.fq as usize
        };
        assert_eq!(fq_muls(&|| p + q), PADD_FQ_MULS);
        assert_eq!(fq_muls(&|| p.add_mixed(&q_affine)), PADD_MIXED_FQ_MULS);
        assert_eq!(fq_muls(&|| p.double()), PDBL_FQ_MULS);
    }

    #[test]
    fn identity_laws() {
        let g = G1Projective::generator();
        let id = G1Projective::identity();
        assert_eq!(g + id, g);
        assert_eq!(id + g, g);
        assert_eq!(id + id, id);
        assert_eq!(g - g, id);
        assert_eq!(g + g.neg(), id);
    }

    #[test]
    fn doubling_matches_addition() {
        let g = G1Projective::generator();
        assert_eq!(g.double(), g + g);
        let g4 = g.double().double();
        assert_eq!(g4, g + g + g + g);
        assert!(g.double().is_on_curve());
        assert_eq!(G1Projective::identity().double(), G1Projective::identity());
    }

    #[test]
    fn mixed_addition_matches_full_addition() {
        let mut r = rng();
        for _ in 0..5 {
            let p = G1Projective::random(&mut r);
            let q = G1Projective::random(&mut r);
            let q_affine = q.to_affine();
            assert_eq!(p.add_mixed(&q_affine), p + q);
            assert_eq!(p.add_affine(&q_affine), p + q);
            // Doubling input (P + P) stays complete.
            assert_eq!(p.add_mixed(&p.to_affine()), p.double());
            // Inverse input (P + (−P)) yields the identity.
            assert!(p.add_mixed(&p.neg().to_affine()).is_identity());
        }
        // Identity on either side.
        let g = G1Projective::generator();
        assert_eq!(g.add_mixed(&G1Affine::identity()), g);
        assert_eq!(
            G1Projective::identity().add_mixed(&G1Affine::generator()),
            g
        );
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let mut r = rng();
        let a = G1Projective::random(&mut r);
        let b = G1Projective::random(&mut r);
        let c = G1Projective::random(&mut r);
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert!((a + b).is_on_curve());
    }

    #[test]
    fn scalar_multiplication_small_cases() {
        let g = G1Projective::generator();
        assert_eq!(g.mul_scalar(&Fr::zero()), G1Projective::identity());
        assert_eq!(g.mul_scalar(&Fr::one()), g);
        assert_eq!(g.mul_scalar(&Fr::from_u64(2)), g.double());
        assert_eq!(g.mul_scalar(&Fr::from_u64(5)), g + g + g + g + g);
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let mut r = rng();
        let g = G1Projective::generator();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        assert_eq!(g.mul_scalar(&(a + b)), g.mul_scalar(&a) + g.mul_scalar(&b));
        assert_eq!(g.mul_scalar(&(a * b)), g.mul_scalar(&a).mul_scalar(&b));
    }

    #[test]
    fn subgroup_order_annihilates_generator() {
        // r · G = identity: multiply by (r - 1) and add G once more.
        let minus_one = -Fr::one();
        let g = G1Projective::generator();
        assert_eq!(g.mul_scalar(&minus_one) + g, G1Projective::identity());
    }

    #[test]
    fn affine_projective_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let p = G1Projective::random(&mut r);
            let a = p.to_affine();
            assert!(a.is_on_curve());
            assert_eq!(a.to_projective(), p);
        }
        assert!(G1Projective::identity().to_affine().is_identity());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let mut r = rng();
        let mut points: Vec<G1Projective> = (0..9).map(|_| G1Projective::random(&mut r)).collect();
        points.push(G1Projective::identity());
        let batch = G1Projective::batch_to_affine(&points);
        for (p, a) in points.iter().zip(batch.iter()) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn affine_negation() {
        let g = G1Affine::generator();
        let neg = -g;
        assert!(neg.is_on_curve());
        assert_eq!(
            g.to_projective() + neg.to_projective(),
            G1Projective::identity()
        );
        assert_eq!(-G1Affine::identity(), G1Affine::identity());
    }

    #[test]
    fn canonical_encoding_roundtrips_and_validates() {
        let mut r = rng();
        let mut points: Vec<G1Affine> = (0..4)
            .map(|_| G1Projective::random(&mut r).to_affine())
            .collect();
        points.push(G1Affine::identity());
        for p in &points {
            let bytes = p.to_bytes();
            assert_eq!(bytes.len(), G1_ENCODED_BYTES);
            assert_eq!(G1Affine::from_bytes(&bytes), Ok(*p));
        }
        // Off-curve data is rejected.
        let mut bytes = G1Affine::generator().to_bytes();
        bytes[0] ^= 1;
        assert!(matches!(
            G1Affine::from_bytes(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
        // A non-canonical identity (flag set, nonzero coordinates) is rejected.
        let mut bytes = G1Affine::generator().to_bytes();
        bytes[96] = 1;
        assert!(matches!(
            G1Affine::from_bytes(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
        // A bad flag byte is rejected.
        let mut bytes = vec![0u8; 96];
        bytes.push(7);
        assert!(matches!(
            G1Affine::from_bytes(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
        // Truncated input is rejected.
        assert!(matches!(
            G1Affine::from_bytes(&[0u8; 10]),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", G1Affine::identity()), "G1(infinity)");
        assert!(format!("{}", G1Affine::generator()).starts_with("G1(x=0x"));
    }
}
