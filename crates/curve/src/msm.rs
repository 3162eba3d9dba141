//! Multi-scalar multiplication (MSM) kernels.
//!
//! MSMs — dot products `Σ sᵢ·Pᵢ` between scalar vectors and G1 point vectors
//! — implement the polynomial commitments of HyperPlonk and are the largest
//! compute consumer in the protocol (Table 1 of the zkSpeed paper). This
//! module provides:
//!
//! * [`naive_msm`] — the double-and-add reference used as a test oracle;
//! * [`msm`] / [`msm_with_config_on`] — Pippenger's bucket algorithm over the
//!   GLV endomorphism of G1: every scalar splits as `k = k₁ + λ·k₂` with
//!   `k₁, k₂ < 2^128`, so `k·P = k₁·P + k₂·φ(P)` with `φ(x, y) = (β·x, y)`
//!   one Fq multiplication, and the windows run over the `n` points and their
//!   `n` images at half the scalar width — half the windows, bucket
//!   aggregations and combine doublings of a 255-bit scalar. The work
//!   follows the scalars: a scalar below 2^128 is its own first half, one
//!   whose negation is below 2^128 is recoded as that negation with its
//!   operations' signs flipped, the windows cover only the widest half, and
//!   a run where no scalar has a second half computes no images and runs one
//!   term a point. One unit of parallel work per few windows, with two
//!   optimizations selected by [`MsmConfig`]:
//!   - **signed-digit window recoding** (digits in `[−2^{w−1}, 2^{w−1}]`,
//!     using the free affine negation `−(x, y) = (x, −y)`), halving the
//!     bucket count and the aggregation adds per window;
//!   - **batch-affine bucket accumulation** — the buckets of a job's windows
//!     stay affine in one cache-resident array, the scalars are scanned once
//!     into 8-byte `(bucket, point, sign)` operations, and the operations
//!     stream through fixed-size batches of affine additions that share one
//!     inversion (6 Fq multiplications per addition against 11 for a mixed
//!     one), and the filled buckets are aggregated through the same adder:
//!     row and column sums of the bucket grid, two independent affine
//!     additions per bucket, leave `O(√buckets)` projective additions per
//!     window;
//! * [`sparse_msm`] — the Sparse MSM used for Witness Commits, where scalars
//!   that are 0 or 1 bypass Pippenger entirely (Section 3.3.1);
//! * [`msm_precomputed`] / [`sparse_msm_precomputed`] — the same two on the
//!   same windows over a [`MultiBaseTable`] of the fixed bases and their
//!   images, with no window doublings;
//! * operation counters ([`MsmStats`]) that feed the hardware cost model.
//!
//! Every configuration computes the same group element, and proof encodings
//! normalize points to affine, so proofs are bit-identical across
//! configurations and backends. Work splitting is derived from the problem
//! (never from the backend's thread count), so results and operation
//! counters are also identical at any thread count.

use std::ops::Range;
use std::sync::Arc;

use zkspeed_field::{Fq, Fr};
use zkspeed_rt::pool::{self, Backend};

use crate::g1::{G1Affine, G1Projective, LAMBDA};
use crate::multi_base::MultiBaseTable;

/// Configuration for a Pippenger MSM run.
///
/// [`MsmConfig::default`] is [`MsmConfig::optimized`] — signed digits and
/// batch-affine accumulation on. [`MsmConfig::classic`] is the first
/// datapath (unsigned windows, mixed additions into projective buckets).
/// Every configuration runs on the GLV scalar halves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MsmConfig {
    /// Window (bucket index) size in bits (0 = auto from the problem size).
    pub window_bits: usize,
    /// Recode scalars into signed digits in `[−2^{w−1}, 2^{w−1}]`, halving
    /// the bucket count (negative digits add the negated point — free in
    /// affine coordinates).
    pub signed_digits: bool,
    /// Minimum additions each shared inversion of the batch-affine path must
    /// amortize over: the inversion's price in units of the five
    /// multiplications a batch-affine addition saves over a mixed one. Those
    /// of a job's windows whose joint operations cannot fill their batches
    /// that far — most on one bucket, which absorbs one addition per batch —
    /// fill projective buckets with mixed additions instead. `0` forces the
    /// batch-affine path, `usize::MAX` disables it.
    pub batch_affine_min_points: usize,
}

/// Default [`MsmConfig::batch_affine_min_points`]: one Fq inversion takes the
/// time of `INVERSION_FQ_MULS` multiplications and a batch-affine addition
/// saves 5 over a mixed one, so below 10 additions per inversion the
/// projective path wins.
pub const BATCH_AFFINE_DEFAULT_MIN_POINTS: usize = INVERSION_FQ_MULS / 5;

/// The measured price of one Fq inversion in Fq multiplications (1.66 µs
/// against 31 ns on dependent chains of each).
const INVERSION_FQ_MULS: usize = 54;

impl MsmConfig {
    /// The first datapath: unsigned windows, mixed additions into projective
    /// buckets. Kept as the engine tests' baseline and as the counterpart of the hardware model's Pippenger unit, which runs
    /// the same datapath over 255-bit scalars instead of GLV halves.
    pub fn classic() -> Self {
        Self {
            window_bits: 0,
            signed_digits: false,
            batch_affine_min_points: usize::MAX,
        }
    }

    /// Both optimizations on: signed digits and batch-affine bucket
    /// accumulation.
    pub fn optimized() -> Self {
        Self {
            signed_digits: true,
            batch_affine_min_points: BATCH_AFFINE_DEFAULT_MIN_POINTS,
            ..Self::classic()
        }
    }

    /// Returns the config with an explicit window size.
    pub fn with_window_bits(mut self, window_bits: usize) -> Self {
        self.window_bits = window_bits;
        self
    }

    /// Returns the config with signed-digit recoding switched on or off.
    pub fn with_signed_digits(mut self, signed: bool) -> Self {
        self.signed_digits = signed;
        self
    }

    /// Returns the config with the given batch-affine threshold (`0` forces
    /// batch-affine accumulation, `usize::MAX` disables it).
    pub fn with_batch_affine_min_points(mut self, min_points: usize) -> Self {
        self.batch_affine_min_points = min_points;
        self
    }
}

impl Default for MsmConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

/// Operation counts of an MSM execution, used by the zkSpeed hardware model
/// to translate functional work into PADD-unit cycles and modmuls.
///
/// Additions are counted by kind so the cost model can charge each at its
/// true Fq-multiplication price: mixed additions
/// ([`crate::g1::PADD_MIXED_FQ_MULS`]), batch-affine additions
/// ([`crate::g1::BATCH_AFFINE_ADD_FQ_MULS`]), and full projective additions
/// ([`crate::g1::PADD_FQ_MULS`]) wherever two projective points meet. Only
/// formulas that ran are counted: an addition into an empty accumulator is
/// an assignment.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MsmStats {
    /// Mixed (projective + affine) additions: filling projective buckets and
    /// merging the sparse ones-sum.
    pub bucket_adds: u64,
    /// Batch-affine additions: bucket fills, the row and column sums of the
    /// bucket aggregation, and the sparse ones-sum.
    pub affine_adds: u64,
    /// Shared inversions amortized over the affine additions (each a binary
    /// GCD, no Fq multiplier use, on top of the per-addition muls in
    /// [`crate::g1::BATCH_AFFINE_ADD_FQ_MULS`]).
    pub batch_inversions: u64,
    /// Full projective additions performed during bucket aggregation: the
    /// running sums over a window's row and column sums (or its buckets).
    pub aggregation_adds: u64,
    /// Full projective additions performed while combining windows.
    pub combine_adds: u64,
    /// Point doublings (window combine, and the aggregation's multiplication
    /// of the row term by the row length).
    pub doublings: u64,
    /// Images `φ(P) = (β·x, y)` computed, one Fq multiplication each: one
    /// per point of a table-free MSM in which some scalar has a second half,
    /// none otherwise.
    pub endomorphisms: u64,
    /// Scalar halves recoded into signed window digits: two per scalar
    /// (`k₁` and `k₂`), or one when no scalar of the run has a second half,
    /// with or without a table.
    pub recoded_scalars: u64,
}

impl MsmStats {
    /// Total point additions of any kind (excluding doublings).
    pub fn total_adds(&self) -> u64 {
        self.bucket_adds + self.affine_adds + self.aggregation_adds + self.combine_adds
    }

    /// Total Fq modular multiplications of the counted operations, each
    /// addition kind at its own price, and the images — what
    /// `measure_modmuls` reads around the same run, up to one multiplication
    /// per batch-affine doubling and per point normalization. Inversions,
    /// the scalar split and the recoding use no Fq multipliers and
    /// contribute nothing here.
    pub fn fq_muls(&self) -> u64 {
        self.bucket_adds * crate::g1::PADD_MIXED_FQ_MULS as u64
            + self.affine_adds * crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64
            + (self.aggregation_adds + self.combine_adds) * crate::g1::PADD_FQ_MULS as u64
            + self.doublings * crate::g1::PDBL_FQ_MULS as u64
            + self.endomorphisms
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &MsmStats) {
        self.bucket_adds += other.bucket_adds;
        self.affine_adds += other.affine_adds;
        self.batch_inversions += other.batch_inversions;
        self.aggregation_adds += other.aggregation_adds;
        self.combine_adds += other.combine_adds;
        self.doublings += other.doublings;
        self.endomorphisms += other.endomorphisms;
        self.recoded_scalars += other.recoded_scalars;
    }
}

/// Statistics of a sparse MSM split (Witness Commit step).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseMsmStats {
    /// Number of zero scalars (skipped entirely).
    pub zeros: usize,
    /// Number of one scalars (handled by the tree adder).
    pub ones: usize,
    /// Number of dense (full-width) scalars handled by Pippenger.
    pub dense: usize,
    /// Operation counts of the overall computation.
    pub ops: MsmStats,
}

/// Reference MSM: independent double-and-add per term. `O(n·255)` point
/// operations; used only as a correctness oracle in tests and for tiny MSMs.
pub fn naive_msm(points: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(points.len(), scalars.len(), "length mismatch");
    let mut acc = G1Projective::identity();
    for (p, s) in points.iter().zip(scalars.iter()) {
        acc += p.to_projective().mul_scalar(s);
    }
    acc
}

/// Window size by `⌈log₂ n⌉` for `n ≤ 2^14`, the sizes the prover's commits
/// and the opening's halving MSMs hit: at each size the width that costs the
/// default configuration least on uniform scalars — `2n` terms of 128 bits,
/// the points and their images — counting an inversion as the
/// multiplications it takes the time of. One-thread timings of the widths
/// around each entry agree within their noise. The `window_sweep` test
/// repeats the sweep and holds every entry within 3 % of its best.
const AUTO_WINDOW_BITS: [usize; 15] = [2, 1, 1, 3, 4, 5, 6, 7, 8, 8, 10, 10, 11, 12, 13];

/// Selects the window size from the problem size: measured up to 2^14
/// points, and beyond that the minimum of the same cost
/// `(⌈128/w⌉ + 1)·(6·2n + 12·2^{w−1})` (six multiplications a batch-affine
/// addition, two of those per bucket aggregated), which `⌈log₂ n⌉ − 2`
/// tracks.
///
/// Narrow scalars keep this width and run fewer windows: `⌈b/w⌉ + 1` for a
/// widest half of `b` bits. The width stays because narrow scalars are not
/// uniform. A one-window run (±1, ±2, all-ones φ or π) piles its operations
/// onto a few buckets, which need the slice's room for copies; and σ's slot
/// indices, `σ(i) ≈ i + c·2^μ`, give the windows above the low one runs of
/// `2^w` consecutive points on one bucket, which the streaming fill cannot
/// batch: at 2^14 points and `w = 8`, where the cost above re-minimised at
/// 16 bits lands, σ's three commits paid 6 730 inversions against 304 at
/// this width.
pub fn auto_window_bits(n: usize) -> usize {
    let log = n.max(1).next_power_of_two().trailing_zeros() as usize;
    match AUTO_WINDOW_BITS.get(log) {
        Some(&w) => w,
        None => (log - 2).min(16),
    }
}

/// Computes `Σ sᵢ·Pᵢ` with Pippenger's algorithm in the default
/// configuration, fanning its windows out over `backend`, and returns the
/// result together with the operation counts. The points come behind an
/// `Arc`, which the worker jobs clone: an SRS basis fans out without a
/// copy.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zkspeed_curve::{msm, G1Affine, G1Projective};
/// use zkspeed_field::Fr;
/// use zkspeed_rt::pool::Serial;
///
/// let g = G1Projective::generator();
/// let points = Arc::new(vec![g.to_affine(), g.double().to_affine()]);
/// let scalars = vec![Fr::from_u64(3), Fr::from_u64(5)];
/// // 3·G + 5·(2G) = 13·G
/// let (sum, _stats) = msm(&Serial, &points, &scalars);
/// assert_eq!(sum, g.mul_scalar(&Fr::from_u64(13)));
/// ```
pub fn msm(
    backend: &dyn Backend,
    points: &Arc<Vec<G1Affine>>,
    scalars: &[Fr],
) -> (G1Projective, MsmStats) {
    msm_points(backend, Arc::clone(points), scalars, MsmConfig::default())
}

/// [`msm`] with an explicit engine configuration: the one entry point that
/// takes an [`MsmConfig`], for the engine's own tests and benchmarks and the
/// hardware model. Every configuration computes the same group element.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn msm_with_config_on(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    msm_points(backend, Arc::new(points.to_vec()), scalars, config)
}

/// MSMs below this many points (the tail of the halving-MSM sequence, tiny
/// commits) stay on the calling thread: fan-out overhead would dwarf the
/// microseconds of useful work per job.
const PAR_MIN_POINTS: usize = 256;

// ------------------------------------------------------------- recoding ----

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
struct Terms {
    /// Term `t·i + h` is half `h` of scalar `i`, for `t` [`Self::per_scalar`].
    halves: Vec<[u64; 2]>,
    /// Scalar `i` was recoded as its negation `r − kᵢ`: its operations flip
    /// their signs.
    negated: Vec<bool>,
    /// Terms a scalar contributes: both halves, or only `k₁` when no scalar
    /// has a second half.
    per_scalar: usize,
    /// Bit length of the widest half, at least 1.
    bits: usize,
}

impl Terms {
    /// The scalar pass: a scalar below 2^128 is its own first half, one
    /// whose negation is below 2^128 is recoded as that negation, and every
    /// other one is split by [`split_scalar`].
    fn new(scalars: &[Fr]) -> Self {
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

// ------------------------------------------------- batched affine adder ----

/// The points operations read: a slice, and for the windows of an MSM the
/// images `φ(P)` of its points, selected by [`Op::IMAGE`].
pub(crate) type Sources<'a> = [&'a [G1Affine]; 2];

/// One accumulation `acc[dst] += ±src[index]`, eight bytes: the streaming
/// engine moves these instead of points.
#[derive(Copy, Clone)]
pub(crate) struct Op {
    dst: u32,
    /// Index of the source point, or-ed with [`Op::IMAGE`] for its image;
    /// [`Op::NEGATE`] set for `−src[index]`.
    src: u32,
}

impl Op {
    const NEGATE: u32 = 1 << 31;
    /// Reads the second of the [`Sources`].
    const IMAGE: u32 = 1 << 30;

    /// `source` is an index, or-ed with [`Op::IMAGE`] to read the images.
    pub(crate) fn new(dst: usize, source: usize, negate: bool) -> Self {
        debug_assert!(source < Self::NEGATE as usize);
        Self {
            dst: dst as u32,
            src: source as u32 | if negate { Self::NEGATE } else { 0 },
        }
    }

    fn index(self) -> usize {
        (self.src & !(Self::NEGATE | Self::IMAGE)) as usize
    }

    fn negated(self) -> bool {
        self.src & Self::NEGATE != 0
    }

    /// The source point, without the sign.
    fn source<'a>(self, src: Sources<'a>) -> &'a G1Affine {
        &src[usize::from(self.src & Self::IMAGE != 0)][self.index()]
    }

    /// The source point with the sign applied.
    fn point(self, src: Sources<'_>) -> G1Affine {
        let point = *self.source(src);
        if self.negated() {
            point.neg()
        } else {
            point
        }
    }
}

/// Additions issued per shared inversion at most: its share of an addition's
/// six multiplications is then a twentieth of one.
pub(crate) const BATCH: usize = 1024;

/// Affine additions `acc[dst] ← acc[dst] + (±src[i])` with pairwise distinct
/// `dst`, queued so that a whole batch shares one field inversion. The
/// scratch vectors are allocated once and reused by every batch.
#[derive(Default)]
pub(crate) struct BatchAdder {
    queue: Vec<Op>,
    denominators: Vec<Fq>,
    /// `prefix[i]` = product of `denominators[..i]`.
    prefix: Vec<Fq>,
    affine_adds: u64,
    inversions: u64,
}

impl BatchAdder {
    /// Applies `op` at once when it needs no field arithmetic (an identity
    /// operand, or `P + (−P)`) and queues it otherwise. Returns whether it
    /// was queued; until the next [`Self::flush`] no other operation may
    /// touch `acc[op.dst]`.
    fn push(&mut self, acc: &mut [G1Affine], src: Sources<'_>, op: Op) -> bool {
        let b = op.source(src);
        let a = &mut acc[op.dst as usize];
        if b.infinity {
            return false;
        }
        if a.infinity {
            *a = op.point(src);
            return false;
        }
        // Equal abscissas: the source is `a` or `−a`, and with the
        // operation's sign the operand is the opposite of `a`.
        if a.x == b.x && (a.y == b.y) == op.negated() {
            *a = G1Affine::identity();
            return false;
        }
        self.queue.push(op);
        true
    }

    /// [`Self::push`], flushing a batch that the operation filled.
    pub(crate) fn add(&mut self, acc: &mut [G1Affine], src: Sources<'_>, op: Op) {
        if self.push(acc, src, op) && self.queue.len() == BATCH {
            self.flush(acc, src);
        }
    }

    /// Performs the queued additions with one shared inversion. The sign of
    /// an operand `−b` is folded into the slope,
    /// `λ = (y_a + y_b) / (x_a − x_b)`, so no point is negated. Denominators
    /// are never zero: `Δx ≠ 0` unless the operands are equal (opposite ones
    /// never queue), and then `2y ≠ 0` because the curve has odd order,
    /// hence no 2-torsion.
    pub(crate) fn flush(&mut self, acc: &mut [G1Affine], src: Sources<'_>) {
        if self.queue.is_empty() {
            return;
        }
        self.denominators.clear();
        self.prefix.clear();
        let mut product = Fq::one();
        for (i, op) in self.queue.iter().enumerate() {
            let (a, b) = (&acc[op.dst as usize], op.source(src));
            let mut d = if op.negated() { a.x - b.x } else { b.x - a.x };
            if d.is_zero() {
                d = a.y.double();
            }
            self.prefix.push(product);
            product = if i == 0 { d } else { product.mul_inline(&d) };
            self.denominators.push(d);
        }
        let mut inverse = product.invert().expect("nonzero denominators");
        for (i, op) in self.queue.iter().enumerate().rev() {
            let d_inverse = inverse.mul_inline(&self.prefix[i]);
            inverse = inverse.mul_inline(&self.denominators[i]);
            let (a, b) = (&mut acc[op.dst as usize], op.source(src));
            let numerator = if a.x == b.x {
                let xx = a.x.square();
                xx.double() + xx
            } else if op.negated() {
                a.y + b.y
            } else {
                b.y - a.y
            };
            let lambda = numerator.mul_inline(&d_inverse);
            let x3 = lambda.mul_inline(&lambda) - a.x - b.x;
            a.y = lambda.mul_inline(&(a.x - x3)) - a.y;
            a.x = x3;
        }
        self.affine_adds += self.queue.len() as u64;
        self.inversions += 1;
        self.queue.clear();
    }

    /// Adds the blocks of `block` points that make up `points` into the first
    /// one, element by element, by folding the upper half of the blocks onto
    /// the lower half, level by level, through the batched adder.
    fn fold(&mut self, points: &mut [G1Affine], block: usize) {
        let mut len = points.len();
        while len > block {
            let half = len.div_ceil(block).div_ceil(2) * block;
            let (lower, upper) = points[..len].split_at_mut(half);
            for i in 0..upper.len() {
                self.add(lower, [upper, &[]], Op::new(i, i, false));
            }
            self.flush(lower, [upper, &[]]);
            len = half;
        }
    }

    /// Moves the operation counts into `stats`.
    fn drain_counts(&mut self, stats: &mut MsmStats) {
        stats.affine_adds += std::mem::take(&mut self.affine_adds);
        stats.batch_inversions += std::mem::take(&mut self.inversions);
    }
}

// ---------------------------------------------------------- bucket fill ----

/// Deferred operations the streaming fill holds at most: an operation whose
/// bucket already has an addition queued in the current batch waits here and
/// is issued first after the flush.
const MAX_PENDING: usize = BATCH / 2;

/// How a bucket takes its next operation.
#[derive(Copy, Clone, PartialEq, Eq)]
enum BucketState {
    /// Affine, no addition queued.
    Free,
    /// Affine, with an addition queued in the current batch.
    Busy,
    /// Projective, accumulated at once by mixed additions.
    Projective,
}

/// A set of buckets being filled and aggregated — one slice of `slice_len`
/// buckets per window of a job, all sharing the batches of one adder — and
/// every buffer that takes: allocated once per worker and reused from job to
/// job.
#[derive(Default)]
struct BucketSet {
    slice_len: usize,
    /// The operations of the current scan, in point order.
    ops: Vec<Op>,
    /// Operations per bucket in the current scan.
    load: Vec<u32>,
    state: Vec<BucketState>,
    affine: Vec<G1Affine>,
    projective: Vec<G1Projective>,
    pending: Vec<Op>,
    /// Per slice, the leading buckets that the others are copies of (all of
    /// them unless the slice spreads its operations).
    used: Vec<usize>,
    /// Column sums, then row sums, of every slice's bucket grid.
    lines: Vec<G1Affine>,
    adder: BatchAdder,
}

impl BucketSet {
    /// Starts a scan over `slices` slices of `slice_len` empty buckets.
    fn begin(&mut self, slices: usize, slice_len: usize) {
        self.slice_len = slice_len;
        self.ops.clear();
        self.load.clear();
        self.load.resize(slices * slice_len, 0);
    }

    /// Records `bucket += ±source`, for a source as [`Op::new`] takes it.
    fn record(&mut self, bucket: usize, source: usize, negate: bool) {
        self.ops.push(Op::new(bucket, source, negate));
        self.load[bucket] += 1;
    }

    /// Chooses the slices that take the batch-affine path: the set whose
    /// additions, at five multiplications saved each, exceed the price of
    /// its inversions, `min_adds_per_inversion` savings each, by most. A
    /// bucket absorbs one addition per batch, so the heaviest bucket of the
    /// set bounds its batches from below, and the candidate sets are the
    /// prefixes of the slices in order of their heaviest bucket.
    ///
    /// A slice whose operations reach only its first `used` buckets — the
    /// short top window of the scalar field — has room for `slice_len / used`
    /// copies of them. On the affine path an operation goes to the copy its
    /// point index selects, which divides the heaviest load by the copies,
    /// and [`Self::aggregate`] adds the copies up first; a slice does so
    /// when that saves it batches.
    fn choose_paths(&mut self, min_adds_per_inversion: usize) {
        let len = self.slice_len;
        let mut slices: Vec<(usize, usize, usize, usize)> = self
            .load
            .chunks(len)
            .enumerate()
            .map(|(slice, load)| {
                let total: usize = load.iter().map(|&ops| ops as usize).sum();
                let heaviest = load.iter().copied().max().unwrap_or(0) as usize;
                let used = load.iter().rposition(|&ops| ops > 0).map_or(len, |i| i + 1);
                // Adding the copies up takes a batch per level of halving.
                let spread = heaviest.div_ceil(len / used) + (len / used).ilog2() as usize;
                if spread < heaviest {
                    (spread, total, used, slice)
                } else {
                    (heaviest, total, len, slice)
                }
            })
            .collect();
        slices.sort_unstable();
        let (mut adds, mut best, mut affine) = (0usize, 0usize, 0usize);
        for (i, &(heaviest, total, ..)) in slices.iter().enumerate() {
            adds += total;
            let batches = adds.div_ceil(BATCH).max(heaviest);
            let saved = adds.checked_sub(min_adds_per_inversion.saturating_mul(batches));
            if let Some(saved) = saved.filter(|&saved| adds > 0 && saved >= best) {
                (best, affine) = (saved, i + 1);
            }
        }
        self.state.clear();
        self.state.resize(self.load.len(), BucketState::Projective);
        self.used.clear();
        self.used.resize(slices.len(), len);
        for &(_, _, used, slice) in &slices[..affine] {
            self.state[slice * len..][..len].fill(BucketState::Free);
            self.used[slice] = used;
        }
        if self.used.iter().any(|&used| 2 * used <= len) {
            for op in &mut self.ops {
                let used = self.used[op.dst as usize / len];
                op.dst += (op.index() % (len / used) * used) as u32;
            }
        }
    }

    /// Applies the recorded operations, each slice on the path
    /// [`Self::choose_paths`] gives it.
    ///
    /// Operations stream through in order. One whose bucket is busy is
    /// deferred; a batch is flushed when it is full or the deferred queue
    /// is, and deferred operations are retried first — so the order of
    /// additions into a bucket, and with it every count, depends on the
    /// operations alone.
    fn fill(&mut self, points: Sources<'_>, min_adds_per_inversion: usize, stats: &mut MsmStats) {
        self.choose_paths(min_adds_per_inversion);
        // Each kind of bucket is allocated only if some slice uses it.
        let len_if = |used: bool| if used { self.load.len() } else { 0 };
        let affine = len_if(self.state.contains(&BucketState::Free));
        let projective = len_if(self.state.contains(&BucketState::Projective));
        self.affine.clear();
        self.affine.resize(affine, G1Affine::identity());
        self.projective.clear();
        self.projective.resize(projective, G1Projective::identity());
        let mut next = 0;
        loop {
            let mut kept = 0;
            for i in 0..self.pending.len() {
                let op = self.pending[i];
                if !self.issue(points, op, stats) {
                    self.pending[kept] = op;
                    kept += 1;
                }
            }
            self.pending.truncate(kept);
            while next < self.ops.len()
                && self.adder.queue.len() < BATCH
                && self.pending.len() < MAX_PENDING
            {
                let op = self.ops[next];
                next += 1;
                if !self.issue(points, op, stats) {
                    self.pending.push(op);
                }
            }
            // Nothing queued means nothing busy, hence nothing deferred and
            // the intake ran to the end of the operations.
            if self.adder.queue.is_empty() {
                break;
            }
            for op in &self.adder.queue {
                self.state[op.dst as usize] = BucketState::Free;
            }
            self.adder.flush(&mut self.affine, points);
        }
    }

    /// Issues `op` unless its bucket is busy; returns whether it was issued.
    fn issue(&mut self, points: Sources<'_>, op: Op, stats: &mut MsmStats) -> bool {
        let dst = op.dst as usize;
        match self.state[dst] {
            BucketState::Busy => return false,
            BucketState::Free => {
                if self.adder.push(&mut self.affine, points, op) {
                    self.state[dst] = BucketState::Busy;
                }
            }
            BucketState::Projective => {
                let point = op.point(points);
                let bucket = &mut self.projective[dst];
                if bucket.is_identity() {
                    *bucket = point.to_projective();
                } else if !point.infinity {
                    *bucket = bucket.add_mixed(&point);
                    stats.bucket_adds += 1;
                }
            }
        }
        true
    }

    /// Appends `Σ (i+1)·bucket[i]` of every filled slice to `sums` and moves
    /// the adder's counts into `stats`.
    ///
    /// The buckets of an affine slice are laid out as a grid of `cols`
    /// columns, and with `i = r·cols + c` the sum is
    /// `cols·Σ r·Rᵣ + Σ (c+1)·K_c` over the row sums `Rᵣ` and the column sums
    /// `K_c`. Every bucket is added to one of each (row 0 has weight zero
    /// and no sum); step `k` adds row `k` into the column sums and column
    /// `k` into the row sums of every slice at once — independent additions
    /// that share the adder's batches. Only the running sums over the
    /// `rows + cols` lines are projective. A projective slice is one running
    /// sum over its buckets.
    fn aggregate(&mut self, stats: &mut MsmStats, sums: &mut Vec<G1Projective>) {
        let len = self.slice_len;
        let slices = self.state.len() / len;
        let cols = 1 << len.next_power_of_two().ilog2().div_ceil(2);
        let rows = len.div_ceil(cols);
        let lines = cols + rows;
        for (slice, &used) in self.used.iter().enumerate() {
            if used < len {
                let buckets = &mut self.affine[slice * len..][..len];
                self.adder.fold(&mut buckets[..len / used * used], used);
                buckets[used..].fill(G1Affine::identity());
            }
        }
        self.lines.clear();
        self.lines.resize(slices * lines, G1Affine::identity());
        for step in 0..cols {
            for slice in 0..slices {
                if self.state[slice * len] == BucketState::Projective {
                    continue;
                }
                let (first, line) = (slice * len, slice * lines);
                for i in step * cols..len.min((step + 1) * cols) {
                    let op = Op::new(line + i % cols, first + i, false);
                    self.adder.add(&mut self.lines, [&self.affine, &[]], op);
                }
                for i in (cols + step..len).step_by(cols) {
                    let op = Op::new(line + cols + i / cols, first + i, false);
                    self.adder.add(&mut self.lines, [&self.affine, &[]], op);
                }
            }
            self.adder.flush(&mut self.lines, [&self.affine, &[]]);
        }
        self.adder.drain_counts(stats);
        for slice in 0..slices {
            if self.state[slice * len] == BucketState::Projective {
                let buckets = &self.projective[slice * len..][..len];
                sums.push(weighted_sum(buckets.iter().copied(), stats));
                continue;
            }
            let (col_sums, row_sums) = self.lines[slice * lines..][..lines].split_at(cols);
            let lift = G1Affine::to_projective;
            let mut sum = weighted_sum(col_sums.iter().map(lift), stats);
            let mut by_row = weighted_sum(row_sums[1..].iter().map(lift), stats);
            if !by_row.is_identity() {
                for _ in 0..cols.ilog2() {
                    by_row = by_row.double();
                }
                stats.doublings += u64::from(cols.ilog2());
                stats.aggregation_adds += accumulate(&mut sum, &by_row);
            }
            sums.push(sum);
        }
    }
}

/// `acc += p`, returning the additions performed: none when `acc` was the
/// identity and simply becomes `p`.
fn accumulate(acc: &mut G1Projective, p: &G1Projective) -> u64 {
    if acc.is_identity() {
        *acc = *p;
        0
    } else {
        *acc = acc.add(p);
        1
    }
}

/// `Σ (i+1)·points[i]` by the running-sum trick, highest point first
/// (`running += Pᵢ; sum += running`), counted as aggregation additions.
/// Identity operands cost nothing.
fn weighted_sum(
    points: impl DoubleEndedIterator<Item = G1Projective>,
    stats: &mut MsmStats,
) -> G1Projective {
    let mut running = G1Projective::identity();
    let mut sum = G1Projective::identity();
    for point in points.rev() {
        if !point.is_identity() {
            stats.aggregation_adds += accumulate(&mut running, &point);
        }
        if !running.is_identity() {
            stats.aggregation_adds += accumulate(&mut sum, &running);
        }
    }
    sum
}

// ---------------------------------------------------------------- engine ----

/// Bytes of affine buckets one job keeps live: the windows of a job share
/// the batches of one adder (several times fewer inversions than a window on
/// its own, whose heaviest bucket bounds its batches), for as many windows as
/// keep the buckets resident in L2. At 1 MiB the 2^13 and 2^14 MSMs
/// (2^{11} and 2^{12} buckets a window) take two windows a job, not one:
/// 913 → 554 and 943 → 609 inversions, 1–2 % of their time.
const JOB_BUCKET_BYTES: usize = 1 << 20;

/// Jobs an MSM large enough to fan out is cut into at least, so that sharing
/// batches among windows does not starve the workers.
const MIN_JOBS: usize = 8;

/// How one MSM run is cut into windows and jobs: a function of the problem
/// size, the width of its scalars and the configuration alone.
#[derive(Copy, Clone)]
struct Shape {
    w: usize,
    num_windows: usize,
    num_buckets: usize,
    windows_per_job: usize,
    config: MsmConfig,
    /// The run reads a [`MultiBaseTable`]: a window's shift is in its
    /// points, so the windows of a job share one bucket slice, and the job
    /// sums add up with no doublings between them.
    table: bool,
    /// Entries a table row holds per base: the windows of a full-width half.
    row_len: usize,
}

impl Shape {
    /// The windows and buckets of `w`-bit windows over `bits`-bit scalar
    /// halves, all in one job.
    fn with_width(w: usize, bits: usize, config: MsmConfig, table: bool) -> Self {
        assert!((1..=16).contains(&w), "window size out of range");
        debug_assert!((1..=HALF_BITS).contains(&bits));
        // Signed recoding halves the buckets but needs one extra window for
        // the final carry (typically all-zero, and then it costs nothing).
        let (num_windows, num_buckets) = if config.signed_digits {
            (bits.div_ceil(w) + 1, 1usize << (w - 1))
        } else {
            (bits.div_ceil(w), (1usize << w) - 1)
        };
        Self {
            w,
            num_windows,
            num_buckets,
            windows_per_job: num_windows,
            config,
            table,
            row_len: HALF_BITS.div_ceil(w) + 1,
        }
    }

    /// A table-free run over `n` points with scalar halves of at most `bits`
    /// bits: as many windows a job as keep their buckets in
    /// [`JOB_BUCKET_BYTES`], and at least [`MIN_JOBS`] jobs once the run fans
    /// out.
    fn new(n: usize, bits: usize, config: MsmConfig) -> Self {
        let w = if config.window_bits == 0 {
            auto_window_bits(n)
        } else {
            config.window_bits
        };
        let shape = Self::with_width(w, bits, config, false);
        let fit = JOB_BUCKET_BYTES / (shape.num_buckets * size_of::<G1Affine>());
        let cap = if n < PAR_MIN_POINTS {
            shape.num_windows
        } else {
            shape.num_windows.div_ceil(MIN_JOBS)
        };
        Self {
            windows_per_job: fit.clamp(1, cap),
            ..shape
        }
    }

    /// A run of `n` scalars of `per_scalar` terms of at most `bits` bits over
    /// a table of `w`-bit windows, in the default configuration: each job
    /// aggregates one bucket set, so there are as many jobs as keep ≥ 40
    /// operations a bucket — an aggregation, 12 multiplications a bucket,
    /// then stays below a twentieth of the fill, 6 an operation — and at
    /// most [`MIN_JOBS`].
    fn table(n: usize, w: usize, bits: usize, per_scalar: usize) -> Self {
        let shape = Self::with_width(w, bits, MsmConfig::default(), true);
        let ops = per_scalar * n * shape.num_windows;
        let jobs = (ops / (40 * shape.num_buckets)).clamp(1, MIN_JOBS);
        Self {
            windows_per_job: shape.num_windows.div_ceil(jobs),
            ..shape
        }
    }

    fn num_jobs(&self) -> usize {
        self.num_windows.div_ceil(self.windows_per_job)
    }
}

/// Immutable inputs of one MSM run, shared by every job.
struct Windows<'a> {
    shape: Shape,
    /// The points and their images `φ(P)`, or a table's shifted bases and
    /// theirs.
    sources: Sources<'a>,
    /// The table row of each scalar (`None`: scalar `i` reads row `i`).
    rows: Option<&'a [u32]>,
    /// The scalars' halves, term by term.
    terms: &'a Terms,
    /// Signed-digit carry masks by term; `None` runs unsigned windows.
    carries: Option<&'a [[u64; 2]]>,
}

impl Windows<'_> {
    /// Bucket index and sign of term `t` in `window`, or `None` for zero
    /// digits.
    fn digit(&self, t: usize, window: usize) -> Option<(usize, bool)> {
        let (limbs, w) = (&self.terms.halves[t], self.shape.w);
        let d = match self.carries {
            Some(carries) => signed_window_digit(limbs, &carries[t], window, w),
            None => extract_window(limbs, window * w, w) as i64,
        };
        (d != 0).then(|| (d.unsigned_abs() as usize - 1, d < 0))
    }

    /// The sums of a range of jobs, lowest first — one per window, or one
    /// per job of a table run — and their operation counts. Jobs are
    /// independent, so ranges of them fan out over the backend's workers.
    fn sums(&self, jobs: Range<usize>) -> (Vec<G1Projective>, MsmStats) {
        let Shape {
            num_windows,
            num_buckets,
            windows_per_job,
            config,
            table,
            row_len,
            ..
        } = self.shape;
        // From one window to the next, a table-free run moves to the next
        // bucket slice and reads the same point; a table run stays in its
        // slice and reads the next entry of the scalar's row.
        let (row_len, slice_step, entry_step) = if table {
            (row_len, 0, 1)
        } else {
            (1, num_buckets, 0)
        };
        let per_scalar = self.terms.per_scalar;
        let mut set = BucketSet::default();
        let mut stats = MsmStats::default();
        let mut sums = Vec::new();
        for job in jobs {
            let first = job * windows_per_job;
            let windows = first..(first + windows_per_job).min(num_windows);
            set.begin(if table { 1 } else { windows.len() }, num_buckets);
            for (i, &negated) in self.terms.negated.iter().enumerate() {
                let row = self.rows.map_or(i, |rows| rows[i] as usize) * row_len;
                if self.sources[0][row].infinity {
                    continue;
                }
                for window in windows.clone() {
                    let slice = (window - first) * slice_step;
                    let entry = row + window * entry_step;
                    for half in 0..per_scalar {
                        let term = per_scalar * i + half;
                        if let Some((bucket, negate)) = self.digit(term, window) {
                            let source = entry | (half * Op::IMAGE as usize);
                            set.record(slice + bucket, source, negate != negated);
                        }
                    }
                }
            }
            set.fill(self.sources, config.batch_affine_min_points, &mut stats);
            set.aggregate(&mut stats, &mut sums);
        }
        (sums, stats)
    }
}

/// The table-free engine: Pippenger over the `n` points and, when some
/// scalar has a second half, their `n` images `φ(P)`, which live in one
/// buffer of `n` points for the duration of the run.
fn msm_points(
    backend: &dyn Backend,
    points: Arc<Vec<G1Affine>>,
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    let n = points.len();
    assert_eq!(n, scalars.len(), "length mismatch");
    let terms = Terms::new(scalars);
    let images: Vec<G1Affine> = match terms.per_scalar {
        2 => points.iter().map(G1Affine::endomorphism).collect(),
        _ => Vec::new(),
    };
    let endomorphisms = images.len() as u64;
    let shape = Shape::new(n, terms.bits, config);
    let (sum, mut stats) = msm_impl(backend, shape, [points, Arc::new(images)], None, terms);
    stats.endomorphisms = endomorphisms;
    (sum, stats)
}

/// The engine behind every entry point: Pippenger over the scalar halves of
/// [`Terms::new`], reading `sources` — the points and their images, or a
/// table's shifted bases and theirs — at row `rows[i]` (row `i` without
/// `rows`) for scalar `i`.
fn msm_impl(
    backend: &dyn Backend,
    shape: Shape,
    sources: [Arc<Vec<G1Affine>>; 2],
    rows: Option<Vec<u32>>,
    terms: Terms,
) -> (G1Projective, MsmStats) {
    let n = terms.negated.len();
    let mut stats = MsmStats::default();
    if n == 0 {
        return (G1Projective::identity(), stats);
    }
    assert!(
        sources[0].len() < Op::IMAGE as usize,
        "more points than an operation indexes"
    );
    let carries: Option<Vec<[u64; 2]>> = shape.config.signed_digits.then(|| {
        stats.recoded_scalars = terms.halves.len() as u64;
        terms
            .halves
            .iter()
            .map(|half| recode_carries(half, shape.w, shape.num_windows))
            .collect()
    });

    // The jobs are the same whatever the thread count, and the serial
    // combine below consumes their sums in order, so results and operation
    // counts are bit-identical to a serial run. Workers measure their
    // thread-local modmul delta, rewind it, and hand it back so the
    // profiling counters see the same totals everywhere. Below
    // `PAR_MIN_POINTS` every job stays on the calling thread.
    let num_jobs = shape.num_jobs();
    let (terms, carries, rows) = (Arc::new(terms), carries.map(Arc::new), rows.map(Arc::new));
    let min_jobs = if n < PAR_MIN_POINTS { num_jobs } else { 1 };
    let ranges = pool::map_ranges(backend, num_jobs, min_jobs, move |range| {
        let windows = Windows {
            shape,
            sources: [&sources[0], &sources[1]],
            rows: rows.as_deref().map(Vec::as_slice),
            terms: &terms,
            carries: carries.as_deref().map(Vec::as_slice),
        };
        zkspeed_field::measure_modmuls(|| windows.sums(range))
    });
    let mut sums = Vec::with_capacity(shape.num_windows);
    for ((range_sums, range_stats), muls) in ranges {
        zkspeed_field::add_modmul_count(muls);
        sums.extend(range_sums);
        stats.merge(&range_stats);
    }

    // Serial top-down combine: w doublings between window sums (skipped
    // while the accumulator is still the identity, so the signed recoding's
    // empty top window costs nothing) and none between the job sums of a
    // table run, one addition per non-empty sum.
    let shift = if shape.table { 0 } else { shape.w };
    let mut acc = G1Projective::identity();
    for sum in sums.iter().rev() {
        if !acc.is_identity() {
            for _ in 0..shift {
                acc = acc.double();
            }
            stats.doublings += shift as u64;
        }
        if !sum.is_identity() {
            stats.combine_adds += accumulate(&mut acc, sum);
        }
    }
    (acc, stats)
}

// ------------------------------------------------------------ sparse MSM ----

/// Computes a Sparse MSM as in the Witness Commit step: points whose scalar
/// is exactly 0 are skipped, points whose scalar is exactly 1 are summed with
/// a tree reduction, and the remaining dense scalars go through Pippenger on
/// `backend`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sparse_msm(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
) -> (G1Projective, SparseMsmStats) {
    sparse_msm_impl(backend, points, scalars, MsmConfig::default())
}

/// [`sparse_msm`], under the name the benchmark imports.
pub fn sparse_msm_on(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
) -> (G1Projective, SparseMsmStats) {
    sparse_msm(backend, points, scalars)
}

fn sparse_msm_impl(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, SparseMsmStats) {
    assert_eq!(points.len(), scalars.len(), "length mismatch");
    let mut stats = SparseMsmStats::default();
    let (ones, dense_points, dense_scalars) =
        split_sparse(points.iter().copied(), scalars, &mut stats);
    let dense = msm_points(backend, Arc::new(dense_points), &dense_scalars, config);
    (add_ones_sum(ones, dense, &mut stats.ops), stats)
}

/// Splits the terms of a sparse MSM by scalar, counting each class: zeros
/// are dropped, the tags of ones and of dense terms are returned, the latter
/// with their scalars.
fn split_sparse<T>(
    tags: impl Iterator<Item = T>,
    scalars: &[Fr],
    stats: &mut SparseMsmStats,
) -> (Vec<T>, Vec<T>, Vec<Fr>) {
    let (zero, one) = (Fr::zero(), Fr::one());
    let (mut ones, mut dense, mut dense_scalars) = (Vec::new(), Vec::new(), Vec::new());
    for (tag, s) in tags.zip(scalars) {
        if *s == zero {
            stats.zeros += 1;
        } else if *s == one {
            stats.ones += 1;
            ones.push(tag);
        } else {
            stats.dense += 1;
            dense.push(tag);
            dense_scalars.push(*s);
        }
    }
    (ones, dense, dense_scalars)
}

/// Sums the 1-scalars' points through the batched affine adder (the
/// pipelined PADD tree of the MSM unit's sparse mode) and adds the sum to
/// the dense remainder's result, accounting for both in `stats`.
fn add_ones_sum(
    mut ones_points: Vec<G1Affine>,
    (mut total, dense_stats): (G1Projective, MsmStats),
    stats: &mut MsmStats,
) -> G1Projective {
    let mut adder = BatchAdder::default();
    adder.fold(&mut ones_points, 1);
    let ones_sum = ones_points.first().copied().unwrap_or_default();
    adder.drain_counts(stats);
    stats.merge(&dense_stats);
    if total.is_identity() {
        total = ones_sum.to_projective();
    } else if !ones_sum.infinity {
        total = total.add_mixed(&ones_sum);
        stats.bucket_adds += 1;
    }
    total
}

// ------------------------------------------------------ precomputed MSM ----

/// Computes `Σ sᵢ·Bᵢ` over the fixed bases covered by a precomputed
/// [`MultiBaseTable`], on the windows of [`msm`] at the table's width: each
/// nonzero digit of a scalar half reads its window's shifted base
/// `2^{w·j}·Bᵢ` (or, for `k₂`, that base's stored image), the windows of a
/// job fill one bucket set of `2^{w−1}` buckets, and an aggregation pass per
/// job finishes the sum — **no window doublings** and no images computed,
/// the whole point of precomputing the session's bases.
///
/// The result is the same group element [`msm`] computes.
///
/// # Panics
///
/// Panics if `scalars` is longer than the table's base count (shorter is
/// fine: a prefix MSM, as the halving openings need).
pub fn msm_precomputed(
    backend: &dyn Backend,
    table: &Arc<MultiBaseTable>,
    scalars: &[Fr],
) -> (G1Projective, MsmStats) {
    assert!(
        scalars.len() <= table.num_bases(),
        "more scalars than precomputed bases"
    );
    let terms = Terms::new(scalars);
    let shape = Shape::table(
        scalars.len(),
        table.window_bits(),
        terms.bits,
        terms.per_scalar,
    );
    msm_impl(backend, shape, table.sources(), None, terms)
}

/// The Sparse MSM of the Witness Commit step over precomputed tables:
/// 0-scalars are skipped, 1-scalars are tree-summed directly from the
/// table's base entries, and the dense remainder runs through
/// [`msm_precomputed`]'s engine (the dense bases are non-contiguous, so
/// their table rows are addressed through an index vector).
///
/// # Panics
///
/// Panics if `scalars` is longer than the table's base count.
pub fn sparse_msm_precomputed(
    backend: &dyn Backend,
    table: &Arc<MultiBaseTable>,
    scalars: &[Fr],
) -> (G1Projective, SparseMsmStats) {
    assert!(
        scalars.len() <= table.num_bases(),
        "more scalars than precomputed bases"
    );
    let mut stats = SparseMsmStats::default();
    let (ones, dense_rows, dense_scalars) = split_sparse(0u32.., scalars, &mut stats);
    let ones = ones.iter().map(|&row| *table.base(row as usize)).collect();
    let terms = Terms::new(&dense_scalars);
    let shape = Shape::table(
        dense_rows.len(),
        table.window_bits(),
        terms.bits,
        terms.per_scalar,
    );
    let rows = Some(dense_rows);
    let dense = msm_impl(backend, shape, table.sources(), rows, terms);
    (add_ones_sum(ones, dense, &mut stats.ops), stats)
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
mod tests {
    use super::*;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0004)
    }

    fn random_points(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
        let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
        G1Projective::batch_to_affine(&proj)
    }

    /// `n` distinct points for the price of `n` doublings. (A chain of
    /// additions `P + i·S` would do too, but its signed sums collide:
    /// `Pₐ − P_b + P_c = P_{a−b+c}` turns bucket additions into doublings.)
    fn cheap_points(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
        let mut acc = G1Projective::random(rng);
        let proj: Vec<G1Projective> = (0..n)
            .map(|_| {
                acc = acc.double();
                acc
            })
            .collect();
        G1Projective::batch_to_affine(&proj)
    }

    fn random_scalars(n: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(rng)).collect()
    }

    /// Every meaningfully distinct engine configuration (signedness ×
    /// accumulation path), used by the equivalence tests.
    fn all_configs() -> Vec<(&'static str, MsmConfig)> {
        let forced = |config: MsmConfig| config.with_batch_affine_min_points(0);
        vec![
            ("classic", MsmConfig::classic()),
            ("signed", MsmConfig::classic().with_signed_digits(true)),
            ("batch-affine", forced(MsmConfig::classic())),
            ("optimized", MsmConfig::optimized()),
            ("optimized-forced", forced(MsmConfig::optimized())),
        ]
    }

    #[test]
    fn empty_msm_is_identity() {
        for (name, config) in all_configs() {
            let (r, stats) = msm_with_config_on(&Serial, &[], &[], config);
            assert_eq!(r, G1Projective::identity(), "{name}");
            assert_eq!(stats, MsmStats::default(), "{name}");
        }
        assert_eq!(
            msm(&Serial, &Arc::default(), &[]).0,
            G1Projective::identity()
        );
        let (r, s) = sparse_msm(&Serial, &[], &[]);
        assert_eq!(r, G1Projective::identity());
        assert_eq!(s, SparseMsmStats::default());
    }

    #[test]
    fn sizes_around_the_batch_match_naive_on_every_backend() {
        // Serial / pool of 1 / pool of 8: equal group element and equal
        // operation counts, for small sizes and both sides of a full batch.
        let mut r = rng();
        let points = cheap_points(2 * BATCH + 2, &mut r);
        let scalars = random_scalars(points.len(), &mut r);
        let backends: [&dyn Backend; 3] = [&Serial, &ThreadPool::new(1), &ThreadPool::new(8)];
        for n in [
            1,
            2,
            3,
            7,
            16,
            33,
            BATCH - 1,
            BATCH,
            BATCH + 1,
            (1 << 10) + 3,
        ] {
            let (points, scalars) = (&points[..n], &scalars[..n]);
            let expect = naive_msm(points, scalars);
            for (name, config) in all_configs() {
                let serial = msm_with_config_on(&Serial, points, scalars, config);
                assert_eq!(serial.0, expect, "n = {n}, {name}");
                for backend in backends {
                    let other = msm_with_config_on(backend, points, scalars, config);
                    assert_eq!(other, serial, "n = {n}, {name}, {backend:?}");
                }
            }
        }
        // The ones-sum of the sparse path makes n/2 additions on its first
        // level: one short of a batch, exactly one, one more.
        let mut prefix_sums = vec![G1Projective::identity()];
        for p in &points {
            prefix_sums.push(prefix_sums[prefix_sums.len() - 1].add_mixed(p));
        }
        for n in [1, 2 * BATCH - 2, 2 * BATCH, 2 * BATCH + 2] {
            let ones = vec![Fr::one(); n];
            let serial = sparse_msm(&Serial, &points[..n], &ones);
            assert_eq!(serial.0, prefix_sums[n], "n = {n}");
            assert_eq!(serial.1.ops.affine_adds, n as u64 - 1);
            for backend in backends {
                assert_eq!(sparse_msm(backend, &points[..n], &ones), serial, "n = {n}");
            }
        }
    }

    /// Applies `ops` through the streaming fill and, as the oracle, one by
    /// one in projective coordinates.
    fn check_streaming_fill(points: &[G1Affine], num_buckets: usize, ops: &[(usize, usize, bool)]) {
        let mut set = BucketSet::default();
        set.begin(1, num_buckets);
        let mut expect = vec![G1Projective::identity(); num_buckets];
        for &(bucket, index, negate) in ops {
            set.record(bucket, index, negate);
            let p = points[index].to_projective();
            expect[bucket] += if negate { p.neg() } else { p };
        }
        let mut stats = MsmStats::default();
        let ((), muls) = zkspeed_field::measure_modmuls(|| set.fill([points, &[]], 0, &mut stats));
        // A threshold of 0 forces the batch-affine path.
        assert_eq!(set.affine.len(), num_buckets);
        for (bucket, (got, want)) in set.affine.iter().zip(&expect).enumerate() {
            assert_eq!(got.to_projective(), *want, "bucket {bucket}");
        }
        assert!(set.pending.is_empty() && set.adder.queue.is_empty());
        set.adder.drain_counts(&mut stats);
        assert!(stats.affine_adds <= ops.len() as u64);
        // Six multiplications an addition, one more for a doubling.
        let price = crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64;
        assert!(muls.fq >= stats.affine_adds * price);
        assert!(muls.fq <= stats.affine_adds * (price + 1));
    }

    #[test]
    fn streaming_fill_on_crafted_operation_orders() {
        let mut r = rng();
        let points = cheap_points(3 * BATCH + 7, &mut r);
        // Three sweeps over BATCH + 1 buckets: the first assigns, the second
        // fills a batch exactly and overflows it by one, the third meets the
        // flushed results.
        let sweeps: Vec<_> = (0..3 * (BATCH + 1))
            .map(|i| (i % (BATCH + 1), i, i % 5 == 0))
            .collect();
        check_streaming_fill(&points, BATCH + 1, &sweeps);
        // One bucket takes everything: every operation after the second is
        // deferred, the pending queue is always full.
        let one_bucket: Vec<_> = (0..2 * MAX_PENDING + 3).map(|i| (1, i, false)).collect();
        check_streaming_fill(&points, 2, &one_bucket);
        // The same point again and again: doublings, then P + (−P) emptying
        // the bucket, then a fresh first touch.
        let repeats = [false, false, false, true, true, true, true, false];
        let same_point: Vec<_> = repeats.iter().map(|&negate| (0, 4, negate)).collect();
        check_streaming_fill(&points, 1, &same_point);
        // Two hot buckets among cold ones.
        let skewed: Vec<_> = (0..4 * BATCH)
            .map(|i| {
                (
                    if i % 3 == 0 { i % 2 } else { i % 97 },
                    i % points.len(),
                    i % 7 == 0,
                )
            })
            .collect();
        check_streaming_fill(&points, 97, &skewed);
    }

    #[test]
    fn batch_affine_additions_cost_their_exported_price() {
        // No doublings among distinct points: exactly six multiplications an
        // addition, the shared inversion's conversion included.
        let mut r = rng();
        let points = cheap_points(2 * BATCH + 5, &mut r);
        let mut adder = BatchAdder::default();
        let mut folded = points.clone();
        let ((), muls) = zkspeed_field::measure_modmuls(|| adder.fold(&mut folded, 1));
        let expect: G1Projective = points.iter().map(G1Affine::to_projective).sum();
        assert_eq!(folded[0].to_projective(), expect);
        assert_eq!(adder.affine_adds, points.len() as u64 - 1);
        assert_eq!(
            muls.fq,
            adder.affine_adds * crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64
        );
        // Identity operands, a doubling and a cancellation in the tree; as
        // blocks of three (a ragged last one), element by element.
        let g = points[0];
        let mixed = [
            g,
            G1Affine::identity(),
            g.neg(),
            g,
            points[1],
            g,
            G1Affine::identity(),
        ];
        for block in [1, 3] {
            let mut folded = mixed;
            adder.fold(&mut folded, block);
            for (i, got) in folded[..block].iter().enumerate() {
                let expect: G1Projective = mixed[i..]
                    .iter()
                    .step_by(block)
                    .map(G1Affine::to_projective)
                    .sum();
                assert_eq!(got.to_projective(), expect, "block {block}, element {i}");
            }
        }
        adder.fold(&mut [], 1);
    }

    #[test]
    fn window_sweep() {
        // The sweep `AUTO_WINDOW_BITS` was chosen from, repeated: uniform
        // scalars, the default configuration, the sizes `open_on`'s halving
        // MSMs hit. An inversion is charged the multiplications it takes the
        // time of; `MsmStats::fq_muls` leaves it out, and narrow windows pay
        // many.
        let cost =
            |stats: MsmStats| stats.fq_muls() + INVERSION_FQ_MULS as u64 * stats.batch_inversions;
        let mut r = rng();
        let points = cheap_points(1 << 14, &mut r);
        let scalars = random_scalars(1 << 14, &mut r);
        for log in 0..=14 {
            let n = 1usize << log;
            let chosen = auto_window_bits(n);
            let run = |w| {
                let config = MsmConfig::default().with_window_bits(w);
                msm_with_config_on(&Serial, &points[..n], &scalars[..n], config).1
            };
            let costs: Vec<(usize, u64)> = (chosen.saturating_sub(2).max(1)..=chosen + 2)
                .map(|w| (w, cost(run(w))))
                .collect();
            println!("n = 2^{log}, chosen w = {chosen}: {costs:?}");
            let best = costs.iter().map(|&(_, cost)| cost).min().expect("widths");
            assert!(
                cost(run(chosen)) * 100 <= best * 103,
                "n = 2^{log}: w = {chosen} is more than 3 % above the best of {costs:?}"
            );
        }
        // Sizes between powers of two take the next one's width; beyond the
        // table the width keeps growing with the size, up to the engine's 16.
        assert_eq!(auto_window_bits(0), auto_window_bits(1));
        assert_eq!(auto_window_bits((1 << 13) + 1), auto_window_bits(1 << 14));
        assert_eq!(auto_window_bits(1 << 15), 13);
        assert_eq!(auto_window_bits(1 << 24), 16);
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
    fn special_scalars() {
        let mut r = rng();
        let points = random_points(5, &mut r);
        // All zeros: no window is ever touched, no ops are counted.
        let zeros = vec![Fr::zero(); 5];
        for (name, config) in all_configs() {
            let (res, stats) = msm_with_config_on(&Serial, &points, &zeros, config);
            assert_eq!(res, G1Projective::identity(), "{name}");
            assert_eq!(stats.total_adds(), 0, "{name}");
            assert_eq!(stats.doublings, 0, "{name}");
        }
        // All ones: MSM equals the plain sum.
        let ones = vec![Fr::one(); 5];
        let sum: G1Projective = points.iter().map(|p| p.to_projective()).sum();
        assert_eq!(msm(&Serial, &Arc::new(points), &ones).0, sum);
    }

    #[test]
    fn optimized_engine_reduces_fq_muls() {
        let mut r = rng();
        let n = 1 << 10;
        let points = cheap_points(n, &mut r);
        let scalars = random_scalars(n, &mut r);
        let run = |config: MsmConfig| {
            msm_with_config_on(&Serial, &points, &scalars, config.with_window_bits(8))
        };
        let (classic_res, classic) = run(MsmConfig::classic());
        let (optimized_res, optimized) = run(MsmConfig::optimized());
        assert_eq!(classic_res, optimized_res);
        assert!(
            optimized.fq_muls() * 10 < classic.fq_muls() * 8,
            "expected ≥20% fewer Fq muls: classic {} vs optimized {}",
            classic.fq_muls(),
            optimized.fq_muls()
        );
        assert!(optimized.affine_adds > 0);
        assert!(optimized.batch_inversions > 0);
        assert_eq!(optimized.recoded_scalars, 2 * n as u64);
    }

    #[test]
    fn sparse_msm_matches_dense_reference() {
        let mut r = rng();
        let n = 64;
        let points = random_points(n, &mut r);
        // 45% zeros, 45% ones, 10% dense — the paper's witness statistics.
        let mut scalars: Vec<Fr> = Vec::with_capacity(n);
        for _ in 0..n {
            let roll: f64 = r.gen();
            let s = if roll < 0.45 {
                Fr::zero()
            } else if roll < 0.90 {
                Fr::one()
            } else {
                Fr::random(&mut r)
            };
            scalars.push(s);
        }
        let expect = naive_msm(&points, &scalars);
        let (result, stats) = sparse_msm(&Serial, &points, &scalars);
        assert_eq!(result, expect);
        assert_eq!(stats.zeros + stats.ones + stats.dense, n);
        assert!(stats.ones > 0);
        assert!(stats.zeros > 0);
        // An explicit config on the dense remainder agrees.
        let (classic, _) = sparse_msm_impl(&Serial, &points, &scalars, MsmConfig::classic());
        assert_eq!(classic, expect);
    }

    /// `Σ (i+1)·bucket[i]` with the group's operators, highest bucket first.
    fn weighted_sum_oracle(buckets: &[G1Projective]) -> G1Projective {
        let mut running = G1Projective::identity();
        let mut sum = G1Projective::identity();
        for bucket in buckets.iter().rev() {
            running += *bucket;
            sum += running;
        }
        sum
    }

    #[test]
    fn aggregation_matches_the_weighted_sum_at_every_width() {
        // One job of seven slices per width, signed (2^{w−1} buckets) and
        // unsigned (2^w − 1, a ragged last grid row): all empty, one bucket,
        // distinct points with holes, one point everywhere (every line sum
        // starts with a doubling), alternating ±P (every row cancels), ±P at
        // random with holes (doublings and cancellations in rows and columns
        // alike), and everything on the first three buckets (which spread
        // over copies).
        let mut r = rng();
        let points = cheap_points(1 << 16, &mut r);
        for w in 1..=16usize {
            for len in [1usize << (w - 1), (1 << w) - 1] {
                type Pattern<'a> = &'a dyn Fn(usize, &mut StdRng) -> Option<(usize, usize, bool)>;
                let patterns: [Pattern; 7] = [
                    &|_, _| None,
                    &|i, _| (i == len - 1).then_some((i, i, false)),
                    &|i, _| (i % 3 != 1).then_some((i, i, i % 5 == 0)),
                    &|i, _| Some((i, 0, false)),
                    &|i, _| Some((i, 0, i % 2 == 1)),
                    &|i, r| (r.gen::<u8>() % 4 != 0).then_some((i, 0, r.gen())),
                    &|i, _| Some(((i % 3).min(len - 1), i, i % 7 == 0)),
                ];
                let mut set = BucketSet::default();
                set.begin(patterns.len(), len);
                let mut expect = vec![G1Projective::identity(); patterns.len() * len];
                for (slice, pattern) in patterns.iter().enumerate() {
                    for i in 0..len {
                        if let Some((bucket, index, negate)) = pattern(i, &mut r) {
                            set.record(slice * len + bucket, index, negate);
                            let p = points[index].to_projective();
                            expect[slice * len + bucket] += if negate { p.neg() } else { p };
                        }
                    }
                }
                let mut stats = MsmStats::default();
                let mut sums = Vec::new();
                let ((), muls) = zkspeed_field::measure_modmuls(|| {
                    set.fill([&points, &[]], 0, &mut stats);
                    set.aggregate(&mut stats, &mut sums);
                });
                assert_eq!(sums.len(), patterns.len());
                for (slice, sum) in sums.iter().enumerate() {
                    let want = weighted_sum_oracle(&expect[slice * len..][..len]);
                    assert_eq!(*sum, want, "w = {w}, {len} buckets, slice {slice}");
                }
                assert!(len < 32 || set.used[6] == 3);
                // Counted at its price, up to one multiplication per affine
                // doubling: no mixed addition, three affine ones a bucket at
                // most, projective ones on the lines of the grid only.
                assert_eq!(stats.bucket_adds, 0);
                assert!(muls.fq >= stats.fq_muls());
                assert!(muls.fq <= stats.fq_muls() + stats.affine_adds);
                let lines = 3 * len.next_power_of_two().isqrt() as u64;
                assert!(stats.affine_adds <= 3 * (patterns.len() * len) as u64);
                assert!(stats.aggregation_adds <= patterns.len() as u64 * (2 * lines + 1));
            }
        }
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
    fn precomputed_matches_naive_across_window_bits() {
        // The split's edge scalars (r − 1 splits as [0, λ + 1]) and random
        // ones, at every table width, dense and sparse, over the whole
        // table and over a ragged prefix: both halves of every scalar are
        // recoded, and no image is computed.
        let mut r = rng();
        let n = 40;
        let points = random_points(n, &mut r);
        let shared = Arc::new(points.clone());
        let mut scalars = edge_scalars();
        scalars.extend([Fr::one(), Fr::zero(), Fr::one()]);
        scalars.extend((scalars.len()..n).map(|_| Fr::random(&mut r)));
        for w in [1usize, 4, 8, 12, 16] {
            let table = Arc::new(MultiBaseTable::build(&shared, w, &Serial));
            for len in [n, 7] {
                let (points, scalars) = (&points[..len], &scalars[..len]);
                let expect = naive_msm(points, scalars);
                let (res, stats) = msm_precomputed(&Serial, &table, scalars);
                assert_eq!(res, expect, "w = {w}, {len} scalars");
                assert_eq!(stats.recoded_scalars, 2 * len as u64);
                assert_eq!(stats.endomorphisms, 0);
                let (res, sparse) = sparse_msm_precomputed(&Serial, &table, scalars);
                assert_eq!(res, expect, "w = {w}, {len} scalars, sparse");
                assert_eq!(sparse.ops.recoded_scalars, 2 * sparse.dense as u64);
                assert!(sparse.ones > 0 && sparse.zeros > 0);
            }
        }
        // Empty input.
        let table = Arc::new(MultiBaseTable::build(&shared, 8, &Serial));
        let (empty, empty_stats) = msm_precomputed(&Serial, &table, &[]);
        assert_eq!(empty, G1Projective::identity());
        assert_eq!(empty_stats, MsmStats::default());
    }

    #[test]
    fn precomputed_is_thread_count_invariant() {
        // Enough operations a bucket that the jobs genuinely fan out.
        let mut r = rng();
        let (n, w) = (512, 8);
        assert!(Shape::table(n, w, HALF_BITS, 2).num_jobs() > 1);
        let points = Arc::new(cheap_points(n, &mut r));
        let scalars = random_scalars(n, &mut r);
        let table = Arc::new(MultiBaseTable::build(&points, w, &Serial));
        let serial = msm_precomputed(&Serial, &table, &scalars);
        assert_eq!(serial.0, naive_msm(&points, &scalars));
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let pooled = msm_precomputed(&pool, &table, &scalars);
            assert_eq!(
                pooled, serial,
                "threads = {threads}: result or stats drifted"
            );
        }
    }

    #[test]
    fn sparse_precomputed_matches_dense_reference() {
        let mut r = rng();
        let n = 300;
        let points = Arc::new(cheap_points(n, &mut r));
        // Witness-like sparsity so all three classes are populated.
        let scalars: Vec<Fr> = (0..n)
            .map(|i| match i % 10 {
                0..=3 => Fr::zero(),
                4..=8 => Fr::one(),
                _ => Fr::random(&mut r),
            })
            .collect();
        let expect = naive_msm(&points, &scalars);
        let table = Arc::new(MultiBaseTable::build(&points, 9, &Serial));
        let serial = sparse_msm_precomputed(&Serial, &table, &scalars);
        assert_eq!(serial.0, expect);
        assert!(serial.1.zeros > 0 && serial.1.ones > 0 && serial.1.dense > 0);
        let pooled = sparse_msm_precomputed(&ThreadPool::new(8), &table, &scalars);
        assert_eq!(pooled, serial);
    }

    #[test]
    fn precomputed_engine_reduces_fq_muls() {
        // The whole point: at session sizes the table engine beats the best
        // table-free schedule on Fq multiplications (no window doublings,
        // no images, one aggregation for the whole MSM instead of one per
        // window).
        let mut r = rng();
        let n = 1 << 10;
        let points = Arc::new(cheap_points(n, &mut r));
        let scalars = random_scalars(n, &mut r);
        let (opt_res, optimized) = msm(&Serial, &points, &scalars);
        let table = Arc::new(MultiBaseTable::build(
            &points,
            crate::MULTI_BASE_DEFAULT_WINDOW_BITS,
            &Serial,
        ));
        let (pre_res, precomputed) = msm_precomputed(&Serial, &table, &scalars);
        assert_eq!(pre_res, opt_res);
        assert!(
            precomputed.fq_muls() * 4 < optimized.fq_muls() * 3,
            "expected ≥25% fewer Fq muls: optimized {} vs precomputed {}",
            optimized.fq_muls(),
            precomputed.fq_muls()
        );
        assert!(precomputed.affine_adds > 0);
    }

    #[test]
    fn auto_precomputed_jobs_scale_with_problem_size() {
        // One job up to 40 operations a bucket, then more, up to MIN_JOBS
        // (the 12 windows of a 12-bit table as six jobs of two).
        let w = crate::MULTI_BASE_DEFAULT_WINDOW_BITS;
        assert_eq!(Shape::table(100, w, HALF_BITS, 2).num_jobs(), 1);
        assert_eq!(Shape::table(1 << 12, w, HALF_BITS, 2).num_jobs(), 1);
        assert_eq!(Shape::table(1 << 14, w, HALF_BITS, 2).num_jobs(), 4);
        assert_eq!(Shape::table(1 << 20, w, HALF_BITS, 2).num_jobs(), 6);
        assert_eq!(Shape::table(1 << 20, 3, HALF_BITS, 2).num_jobs(), MIN_JOBS);
    }
}
