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
//!   `n` images at half the scalar width. A scalar below 2^128 is its own
//!   first half, one whose negation is below 2^128 runs as that negation,
//!   the windows cover only the widest half, and a run where no scalar has a
//!   second half computes no images ([`recode`]). The windows take signed
//!   digits in `[−2^{w−1}, 2^{w−1}]`, `2^{w−1}` buckets each. A job's
//!   windows keep their buckets affine and stream their operations through
//!   batches of affine additions that share one inversion ([`adder`]); the
//!   buckets are aggregated through the same adder as row and column sums
//!   of a grid. A window whose operations pile onto a few buckets, which
//!   cannot fill the batches, takes mixed additions into projective buckets
//!   instead, chosen from its operations ([`bucket`]);
//! * [`sparse_msm`] — the Sparse MSM used for Witness Commits, where scalars
//!   that are 0 or 1 bypass Pippenger entirely (Section 3.3.1);
//! * operation counters ([`MsmStats`]) that feed the hardware cost model.
//!
//! Every window width and path computes the same group element, and proof
//! encodings normalize points to affine, so proofs are bit-identical across
//! widths and backends. Work splitting is derived from the problem (never
//! from the backend's thread count), so results and operation counters are
//! also identical at any thread count.

use std::ops::Range;
use std::sync::Arc;

use zkspeed_field::Fr;
use zkspeed_rt::pool::{self, Backend};

use crate::g1::{G1Affine, G1Projective};

mod adder;
mod bucket;
mod recode;
mod stats;

pub(crate) use adder::{BatchAdder, Op, Sources, BATCH};
pub use bucket::BATCH_AFFINE_MIN_ADDS;
use bucket::{accumulate, BucketSet};
use recode::Terms;
pub(crate) use recode::{recode_carries, signed_window_digit, HALF_BITS};
pub use stats::{MsmStats, SparseMsmStats};

/// Configuration for a Pippenger MSM run: its window width. Every run takes
/// the same datapath — signed digits over the GLV halves, batch-affine
/// buckets wherever a window's operations can fill the batches.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MsmConfig {
    /// Window (bucket index) size in bits (0 = auto from the problem size).
    pub window_bits: usize,
}

impl MsmConfig {
    /// Returns the config with an explicit window size.
    pub fn with_window_bits(mut self, window_bits: usize) -> Self {
        self.window_bits = window_bits;
        self
    }
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
/// engine least on uniform scalars — `2n` terms of 128 bits,
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

/// Computes `Σ sᵢ·Pᵢ` with Pippenger's algorithm at the width
/// [`auto_window_bits`] picks, fanning its windows out over `backend`, and returns the
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
    msm_points(backend, Arc::clone(points), scalars, 0)
}

/// [`msm`] at an explicit window width: the one entry point that takes an
/// [`MsmConfig`], for the engine's own tests and benchmarks. Every width
/// computes the same group element.
///
/// # Panics
///
/// Panics if the slices have different lengths, or if
/// `config.window_bits` is neither 0 (auto) nor in `1..=16`.
pub fn msm_with_config_on(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
    config: MsmConfig,
) -> (G1Projective, MsmStats) {
    msm_points(
        backend,
        Arc::new(points.to_vec()),
        scalars,
        config.window_bits,
    )
}

/// MSMs below this many points (the tail of the halving-MSM sequence, tiny
/// commits) stay on the calling thread: fan-out overhead would dwarf the
/// microseconds of useful work per job.
const PAR_MIN_POINTS: usize = 256;

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
/// size, the width of its scalars and the window width alone.
#[derive(Copy, Clone)]
struct Shape {
    w: usize,
    num_windows: usize,
    num_buckets: usize,
    windows_per_job: usize,
}

impl Shape {
    /// A run over `n` points with scalar halves of at most `bits` bits, at
    /// `window_bits` (0: [`auto_window_bits`]): signed digits need
    /// `2^{w−1}` buckets and one extra window for the final carry (typically
    /// all-zero, and then it costs nothing); as many windows a job as keep
    /// their buckets in [`JOB_BUCKET_BYTES`], and at least [`MIN_JOBS`] jobs
    /// once the run fans out.
    fn new(n: usize, bits: usize, window_bits: usize) -> Self {
        let w = if window_bits == 0 {
            auto_window_bits(n)
        } else {
            window_bits
        };
        assert!((1..=16).contains(&w), "window size out of range");
        debug_assert!((1..=HALF_BITS).contains(&bits));
        let num_windows = bits.div_ceil(w) + 1;
        let num_buckets = 1 << (w - 1);
        let fit = JOB_BUCKET_BYTES / (num_buckets * size_of::<G1Affine>());
        let cap = if n < PAR_MIN_POINTS {
            num_windows
        } else {
            num_windows.div_ceil(MIN_JOBS)
        };
        Self {
            w,
            num_windows,
            num_buckets,
            windows_per_job: fit.clamp(1, cap),
        }
    }

    fn num_jobs(&self) -> usize {
        self.num_windows.div_ceil(self.windows_per_job)
    }
}

/// Immutable inputs of one MSM run, shared by every job.
struct Windows<'a> {
    shape: Shape,
    /// The points and their images `φ(P)`.
    sources: Sources<'a>,
    /// The scalars' halves, term by term.
    terms: &'a Terms,
    /// Signed-digit carry masks by term.
    carries: &'a [[u64; 2]],
}

impl Windows<'_> {
    /// Bucket index and sign of term `t` in `window`, or `None` for zero
    /// digits.
    fn digit(&self, t: usize, window: usize) -> Option<(usize, bool)> {
        let (limbs, w) = (&self.terms.halves[t], self.shape.w);
        let d = signed_window_digit(limbs, &self.carries[t], window, w);
        (d != 0).then(|| (d.unsigned_abs() as usize - 1, d < 0))
    }

    /// The sums of a range of jobs, one per window, lowest first, and their
    /// operation counts. Jobs are independent, so ranges of them fan out
    /// over the backend's workers.
    fn sums(&self, jobs: Range<usize>) -> (Vec<G1Projective>, MsmStats) {
        let Shape {
            num_windows,
            num_buckets,
            windows_per_job,
            ..
        } = self.shape;
        let per_scalar = self.terms.per_scalar;
        let mut set = BucketSet::default();
        let mut stats = MsmStats::default();
        let mut sums = Vec::new();
        for job in jobs {
            let first = job * windows_per_job;
            let windows = first..(first + windows_per_job).min(num_windows);
            set.begin(windows.len(), num_buckets);
            for (i, &negated) in self.terms.negated.iter().enumerate() {
                if self.sources[0][i].infinity {
                    continue;
                }
                for window in windows.clone() {
                    let slice = (window - first) * num_buckets;
                    for half in 0..per_scalar {
                        let term = per_scalar * i + half;
                        if let Some((bucket, negate)) = self.digit(term, window) {
                            let source = i | (half * Op::IMAGE as usize);
                            set.record(slice + bucket, source, negate != negated);
                        }
                    }
                }
            }
            set.fill(self.sources, BATCH_AFFINE_MIN_ADDS, &mut stats);
            set.aggregate(&mut stats, &mut sums);
        }
        (sums, stats)
    }
}

/// The engine behind every entry point: Pippenger over the scalar halves of
/// [`Terms::new`], reading the `n` points and, when some scalar has a second
/// half, their `n` images `φ(P)`, which live in one buffer of `n` points for
/// the duration of the run.
fn msm_points(
    backend: &dyn Backend,
    points: Arc<Vec<G1Affine>>,
    scalars: &[Fr],
    window_bits: usize,
) -> (G1Projective, MsmStats) {
    let n = points.len();
    assert_eq!(n, scalars.len(), "length mismatch");
    let terms = Terms::new(scalars);
    let images: Vec<G1Affine> = match terms.per_scalar {
        2 => points.iter().map(G1Affine::endomorphism).collect(),
        _ => Vec::new(),
    };
    let shape = Shape::new(n, terms.bits, window_bits);
    let mut stats = MsmStats::default();
    if n == 0 {
        return (G1Projective::identity(), stats);
    }
    assert!(
        n < Op::IMAGE as usize,
        "more points than an operation indexes"
    );
    stats.endomorphisms = images.len() as u64;
    stats.recoded_scalars = terms.halves.len() as u64;
    let sources = [points, Arc::new(images)];
    let carries: Vec<[u64; 2]> = terms
        .halves
        .iter()
        .map(|half| recode_carries(half, shape.w, shape.num_windows))
        .collect();

    // The jobs are the same whatever the thread count, and the serial
    // combine below consumes their sums in order, so results and operation
    // counts are bit-identical to a serial run. The closure needs no
    // counting code; the pool carries its modmuls. Below `PAR_MIN_POINTS`
    // every job stays on the calling thread.
    let num_jobs = shape.num_jobs();
    let (terms, carries) = (Arc::new(terms), Arc::new(carries));
    let min_jobs = if n < PAR_MIN_POINTS { num_jobs } else { 1 };
    let ranges = pool::map_ranges(backend, num_jobs, min_jobs, move |range| {
        let windows = Windows {
            shape,
            sources: [&sources[0], &sources[1]],
            terms: &terms,
            carries: &carries,
        };
        windows.sums(range)
    });
    let mut sums = Vec::with_capacity(shape.num_windows);
    for (range_sums, range_stats) in ranges {
        sums.extend(range_sums);
        stats.merge(&range_stats);
    }

    // Serial top-down combine: w doublings between window sums (skipped
    // while the accumulator is still the identity, so the signed recoding's
    // empty top window costs nothing), one addition per non-empty sum.
    let mut acc = G1Projective::identity();
    for sum in sums.iter().rev() {
        if !acc.is_identity() {
            for _ in 0..shape.w {
                acc = acc.double();
            }
            stats.doublings += shape.w as u64;
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
    assert_eq!(points.len(), scalars.len(), "length mismatch");
    let mut stats = SparseMsmStats::default();
    let (zero, one) = (Fr::zero(), Fr::one());
    let (mut ones, mut dense_points, mut dense_scalars) = (Vec::new(), Vec::new(), Vec::new());
    for (point, s) in points.iter().zip(scalars) {
        if *s == zero {
            stats.zeros += 1;
        } else if *s == one {
            stats.ones += 1;
            ones.push(*point);
        } else {
            stats.dense += 1;
            dense_points.push(*point);
            dense_scalars.push(*s);
        }
    }
    let (mut total, dense_stats) = msm_points(backend, Arc::new(dense_points), &dense_scalars, 0);

    // The 1-scalars' points go through the batched affine adder (the
    // pipelined PADD tree of the MSM unit's sparse mode), and their sum
    // joins the dense remainder's.
    let mut adder = BatchAdder::default();
    adder.fold(&mut ones, 1);
    let ones_sum = ones.first().copied().unwrap_or_default();
    adder.drain_counts(&mut stats.ops);
    stats.ops.merge(&dense_stats);
    if total.is_identity() {
        total = ones_sum.to_projective();
    } else if !ones_sum.infinity {
        total = total.add_mixed(&ones_sum);
        stats.ops.bucket_adds += 1;
    }
    (total, stats)
}

/// [`sparse_msm`], under the name the benchmark imports.
pub fn sparse_msm_on(
    backend: &dyn Backend,
    points: &[G1Affine],
    scalars: &[Fr],
) -> (G1Projective, SparseMsmStats) {
    sparse_msm(backend, points, scalars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::{Rng, SeedableRng};

    pub(super) fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed_0004)
    }

    fn random_points(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
        let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
        G1Projective::batch_to_affine(&proj)
    }

    /// `n` distinct points for the price of `n` doublings. (A chain of
    /// additions `P + i·S` would do too, but its signed sums collide:
    /// `Pₐ − P_b + P_c = P_{a−b+c}` turns bucket additions into doublings.)
    pub(super) fn cheap_points(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
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

    #[test]
    fn empty_msm_is_identity() {
        for w in [0, 1, 8, 16] {
            let config = MsmConfig::default().with_window_bits(w);
            let (r, stats) = msm_with_config_on(&Serial, &[], &[], config);
            assert_eq!(r, G1Projective::identity(), "w = {w}");
            assert_eq!(stats, MsmStats::default(), "w = {w}");
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
        // operation counts, for small sizes and both sides of a full batch,
        // on uniform scalars (batch-affine buckets) and equal ones (one
        // bucket a window: projective buckets, or affine copies of it).
        let mut r = rng();
        let points = cheap_points(2 * BATCH + 2, &mut r);
        let uniform = random_scalars(points.len(), &mut r);
        let equal = vec![Fr::random(&mut r); points.len()];
        let backends: [&dyn Backend; 3] = [&Serial, &ThreadPool::new(1), &ThreadPool::new(8)];
        for n in [1, 2, 3, 7, 16, 33]
            .into_iter()
            .chain([BATCH - 1, BATCH, BATCH + 1, BATCH + 3])
        {
            for (name, scalars) in [("uniform", &uniform), ("equal", &equal)] {
                let (points, scalars) = (&points[..n], &scalars[..n]);
                let config = MsmConfig::default();
                let serial = msm_with_config_on(&Serial, points, scalars, config);
                assert_eq!(serial.0, naive_msm(points, scalars), "n = {n}, {name}");
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

    #[test]
    fn window_sweep() {
        // The sweep `AUTO_WINDOW_BITS` was chosen from, repeated: uniform
        // scalars, the sizes `open_on`'s halving MSMs hit. An inversion is
        // charged the multiplications it takes the time of;
        // `MsmStats::fq_muls` leaves it out, and narrow windows pay many.
        let cost = |stats: MsmStats| {
            stats.fq_muls() + bucket::INVERSION_FQ_MULS as u64 * stats.batch_inversions
        };
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
    fn special_scalars() {
        let mut r = rng();
        let points = random_points(5, &mut r);
        // All zeros: no window is ever touched, no ops are counted.
        let zeros = vec![Fr::zero(); 5];
        for w in 1..=16 {
            let config = MsmConfig::default().with_window_bits(w);
            let (res, stats) = msm_with_config_on(&Serial, &points, &zeros, config);
            assert_eq!(res, G1Projective::identity(), "w = {w}");
            assert_eq!(stats.total_adds(), 0, "w = {w}");
            assert_eq!(stats.doublings, 0, "w = {w}");
        }
        // All ones: MSM equals the plain sum.
        let ones = vec![Fr::one(); 5];
        let sum: G1Projective = points.iter().map(|p| p.to_projective()).sum();
        assert_eq!(msm(&Serial, &Arc::new(points), &ones).0, sum);
    }

    #[test]
    fn optimized_engine_reduces_fq_muls() {
        // The operations uniform scalars make — four windows of 2^10 points
        // at w = 8, a digit in 0…128 and a sign a point — filled and
        // aggregated at the engine's threshold, which puts every window on
        // the batch-affine path, and on the projective path: the same sums
        // for at least 20 % fewer Fq multiplications.
        let (n, len, slices) = (1 << 10, 128, 4);
        let points = cheap_points(n, &mut rng());
        let run = |min_adds_per_inversion| {
            let mut r = rng();
            let mut set = BucketSet::default();
            set.begin(slices, len);
            for slice in 0..slices {
                for i in 0..n {
                    let digit = r.gen::<usize>() % (len + 1);
                    if digit > 0 {
                        set.record(slice * len + digit - 1, i, r.gen());
                    }
                }
            }
            let (mut stats, mut sums) = (MsmStats::default(), Vec::new());
            set.fill([&points, &[]], min_adds_per_inversion, &mut stats);
            set.aggregate(&mut stats, &mut sums);
            (sums, stats)
        };
        let (affine_sums, affine) = run(BATCH_AFFINE_MIN_ADDS);
        let (projective_sums, projective) = run(usize::MAX);
        assert_eq!(affine_sums, projective_sums);
        assert_eq!(affine.bucket_adds, 0);
        assert!(affine.batch_inversions > 0);
        assert_eq!(projective.affine_adds, 0);
        assert!(
            affine.fq_muls() * 10 < projective.fq_muls() * 8,
            "expected ≥20% fewer Fq muls: projective {} vs batch-affine {}",
            projective.fq_muls(),
            affine.fq_muls()
        );
    }

    #[test]
    fn sparse_msm_matches_dense_reference() {
        let mut r = rng();
        let n = 64;
        let points = random_points(n, &mut r);
        // 45% zeros, 45% ones, 10% dense — the paper's witness statistics.
        let scalars: Vec<Fr> = (0..n)
            .map(|_| match r.gen::<f64>() {
                roll if roll < 0.45 => Fr::zero(),
                roll if roll < 0.90 => Fr::one(),
                _ => Fr::random(&mut r),
            })
            .collect();
        let (result, stats) = sparse_msm(&Serial, &points, &scalars);
        assert_eq!(result, naive_msm(&points, &scalars));
        assert_eq!(stats.zeros + stats.ones + stats.dense, n);
        assert!(stats.ones > 0);
        assert!(stats.zeros > 0);
    }
}
