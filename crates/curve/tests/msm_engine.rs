//! The MSM engine through its public entry points, on the inputs that drive
//! the streaming bucket fill into its corners: every case against
//! [`naive_msm`], and the operation counts the engine reports against the
//! multiplications the field layer counts.

use std::sync::Arc;

use zkspeed_curve::{
    msm, msm_with_config_on, naive_msm, sparse_msm, G1Affine, G1Projective, MsmConfig,
    BATCH_AFFINE_DEFAULT_MIN_POINTS,
};
use zkspeed_field::{measure_modmuls, Fr};
use zkspeed_rt::pool::{Backend, Serial, ThreadPool};
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5eed_0013)
}

/// `n` distinct points for the price of `n` doublings. (A chain of additions
/// `P + i·S` would do too, but its signed sums collide:
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

/// The inputs of `n` terms that drive the fill and the aggregation into
/// their corners, and a uniform one.
fn adversarial_inputs(n: usize, r: &mut StdRng) -> Vec<(&'static str, Vec<G1Affine>, Vec<Fr>)> {
    let distinct = cheap_points(n, r);
    let g = distinct[0];
    // Every in-batch pair is a doubling.
    let equal_points = vec![g; n];
    // Cancellation to the identity inside a bucket.
    let opposite: Vec<G1Affine> = (0..n)
        .map(|i| if i % 2 == 0 { g } else { g.neg() })
        .collect();
    let with_identities: Vec<G1Affine> = (0..n)
        .map(|i| match i % 3 {
            1 => G1Affine::identity(),
            _ => distinct[i],
        })
        .collect();
    // Every operation of a window collides on one bucket: the pending queue
    // is always full.
    let equal_scalars = vec![Fr::random(r); n];
    let edge_scalars: Vec<Fr> = (0..n)
        .map(|i| match i % 4 {
            0 => Fr::zero(),
            1 => Fr::one(),
            2 => -Fr::one(),
            _ => Fr::from_u64(2).pow(&[(11 * i) as u64 % 255]),
        })
        .collect();
    // `λ·j + c` splits into the halves `k₁ = c`, `k₂ = j`: with `c` in
    // {0, 1, λ − 1}, `j` small or just below λ, and `r − 1 = λ·(λ + 1)`,
    // each half meets all-zero and full top windows.
    let z = Fr::from_u64(0xd201_0000_0001_0000);
    let lambda = z * z - Fr::one();
    let glv_edges: Vec<Fr> = (0..n)
        .map(|i| {
            let small = Fr::from_u64(i as u64);
            let j = if i / 4 % 2 == 0 {
                small
            } else {
                lambda - small
            };
            match i % 4 {
                0 => lambda * j,
                1 => lambda * j + Fr::one(),
                2 => lambda * j + lambda - Fr::one(),
                _ => -Fr::one(),
            }
        })
        .collect();
    let random = random_scalars(n, r);
    vec![
        ("GLV edge scalars", distinct.clone(), glv_edges),
        ("uniform", distinct.clone(), random.clone()),
        ("equal points", equal_points.clone(), random.clone()),
        (
            "equal points, equal scalars",
            equal_points,
            equal_scalars.clone(),
        ),
        ("P, −P interleaved", opposite.clone(), equal_scalars.clone()),
        ("P, −P interleaved, random scalars", opposite, random),
        ("equal scalars", distinct.clone(), equal_scalars),
        ("edge scalars", distinct, edge_scalars.clone()),
        ("identity points interleaved", with_identities, edge_scalars),
    ]
}

/// Each input against [`naive_msm`] for every window size, signed and
/// unsigned, on the forced batch-affine path, the default one and the
/// projective one; and in the
/// default configuration at every size up to 33 and around the parallel
/// floor, where the choice of path is the engine's.
#[test]
fn adversarial_inputs_match_naive_at_every_window_size() {
    let mut r = rng();
    let n = 24;
    for (case, points, scalars) in adversarial_inputs(n, &mut r) {
        let expect = naive_msm(&points, &scalars);
        for w in 1..=16usize {
            for signed in [false, true] {
                for min_points in [0, BATCH_AFFINE_DEFAULT_MIN_POINTS, usize::MAX] {
                    let config = MsmConfig::optimized()
                        .with_signed_digits(signed)
                        .with_window_bits(w)
                        .with_batch_affine_min_points(min_points);
                    let (res, stats) = msm_with_config_on(&Serial, &points, &scalars, config);
                    assert_eq!(res, expect, "{case}: {config:?}");
                    let halves = if signed { 2 * n as u64 } else { 0 };
                    assert_eq!(stats.recoded_scalars, halves);
                }
            }
        }
    }
    for n in (1..=33).chain([255, 256, 257]) {
        for (case, points, scalars) in adversarial_inputs(n, &mut r) {
            let expect = naive_msm(&points, &scalars);
            let (res, _) = msm(&Serial, &Arc::new(points), &scalars);
            assert_eq!(res, expect, "{case}: n = {n}");
        }
    }
}

#[test]
fn modelled_fq_muls_are_the_measured_ones() {
    // `MsmStats::fq_muls` against the field layer's counters around the same
    // run: equal up to one multiplication per batch-affine doubling, which
    // uniform inputs do not produce.
    let mut r = rng();
    let n = 1 << 10;
    let points = cheap_points(n, &mut r);
    let scalars = random_scalars(n, &mut r);
    let forced = |config: MsmConfig| config.with_batch_affine_min_points(0);
    for (name, config) in [
        ("classic", MsmConfig::classic()),
        ("signed", MsmConfig::classic().with_signed_digits(true)),
        ("batch-affine", forced(MsmConfig::classic())),
        ("optimized", MsmConfig::optimized()),
        ("optimized-forced", forced(MsmConfig::optimized())),
    ] {
        let ((_, stats), muls) =
            measure_modmuls(|| msm_with_config_on(&Serial, &points, &scalars, config));
        assert_eq!(stats.fq_muls(), muls.fq, "{name}");
    }
    let sparse: Vec<Fr> = (0..n)
        .map(|i| match i % 3 {
            0 => scalars[i],
            _ => Fr::from_u64(i as u64 % 2),
        })
        .collect();
    let ((_, stats), muls) = measure_modmuls(|| sparse_msm(&Serial, &points, &sparse));
    assert_eq!(stats.ops.fq_muls(), muls.fq);
}

#[test]
fn inlined_multiplications_are_counted_like_called_ones() {
    // The batched adder multiplies through the kernel inlined into its
    // loops, every other formula through the out-of-line `Fq::mul`; both
    // record. The default configuration at every size the prover's MSMs
    // have, serial and fanned out (workers hand their counts back).
    let mut r = rng();
    let points = cheap_points(1 << 12, &mut r);
    let scalars = random_scalars(1 << 12, &mut r);
    let backends: [&dyn Backend; 2] = [&Serial, &ThreadPool::new(8)];
    for log in 0..=12 {
        let n = 1 << log;
        let mut counts = Vec::new();
        for backend in backends {
            let ((_, stats), muls) = measure_modmuls(|| {
                msm_with_config_on(backend, &points[..n], &scalars[..n], MsmConfig::default())
            });
            assert_eq!(stats.fq_muls(), muls.fq, "n = {n}, {backend:?}");
            assert_eq!(muls.fr, 0, "n = {n}, {backend:?}");
            counts.push(muls.fq);
        }
        assert_eq!(counts[0], counts[1], "n = {n}");
    }
}

#[test]
fn default_config_adds_no_projective_point_per_bucket() {
    // Uniform scalars: the fill and the aggregation go through the batched
    // adder at every size, the one-job MSMs below 256 points included; what
    // is projective is the running sums over the lines of the bucket grids.
    let mut r = rng();
    let points = cheap_points(1 << 14, &mut r);
    let scalars = random_scalars(1 << 14, &mut r);
    for log in 5..=14 {
        let n = 1 << log;
        let (_, stats) = msm(&Serial, &Arc::new(points[..n].to_vec()), &scalars[..n]);
        assert!(4 * stats.bucket_adds < stats.affine_adds, "{stats:?}");
        if log == 14 {
            // Twice the terms at half the width against 255-bit windows:
            // 415 026 additions, 811 inversions and 368 doublings before.
            assert!(stats.total_adds() <= 373_500, "{stats:?}");
            assert!(stats.aggregation_adds <= 3_000, "{stats:?}");
            assert!(stats.bucket_adds <= 2_000, "{stats:?}");
            assert!(stats.batch_inversions <= 700, "{stats:?}");
            assert!(stats.doublings <= 200, "{stats:?}");
        }
    }
}

#[test]
fn skewed_windows_never_pay_an_inversion_per_addition() {
    // All scalars equal: every window has one bucket, which absorbs one
    // addition per batch. Such a window fills projective buckets with mixed
    // additions, or — its bucket low enough in the slice — copies of it; the
    // affine additions that remain amortize their inversions beyond the
    // break-even, as uniform scalars' do.
    let mut r = rng();
    let n = 1 << 10;
    let points = cheap_points(n, &mut r);
    let config = MsmConfig::optimized().with_window_bits(8);
    let (_, skewed) = msm_with_config_on(&Serial, &points, &vec![Fr::random(&mut r); n], config);
    assert!(skewed.bucket_adds > skewed.affine_adds);
    let (_, uniform) = msm_with_config_on(&Serial, &points, &random_scalars(n, &mut r), config);
    assert!(uniform.bucket_adds == 0 && uniform.batch_inversions > 0);
    for stats in [skewed, uniform] {
        let min_adds = BATCH_AFFINE_DEFAULT_MIN_POINTS as u64;
        assert!(
            stats.affine_adds >= min_adds * stats.batch_inversions,
            "{stats:?}"
        );
    }
}

#[test]
fn aggregation_is_backend_invariant_at_every_width() {
    // On a size that fans out: points ±P and scalars that repeat one digit
    // in every window put P, −P, 2P and holes side by side in the buckets.
    // The sum is a multiple of P; Serial / pool of 1 / pool of 8 agree on it
    // and on every count.
    let mut r = rng();
    let n = 320;
    let p = cheap_points(1, &mut r)[0];
    let points: Vec<G1Affine> = (0..n)
        .map(|i| if i % 4 == 3 { p.neg() } else { p })
        .collect();
    let backends: [&dyn Backend; 3] = [&Serial, &ThreadPool::new(1), &ThreadPool::new(8)];
    for w in 1..=16usize {
        let half = 1u64 << (w - 1);
        let every_window =
            (0..240 / w).fold(Fr::zero(), |acc, _| acc * Fr::from_u64(1 << w) + Fr::one());
        let scalars: Vec<Fr> = (0..n as u64)
            .map(|i| match i % 5 {
                0 => Fr::zero(),
                _ => Fr::from_u64(1 + (i / 3) % half) * every_window,
            })
            .collect();
        let signed: Fr = (0..n)
            .map(|i| if i % 4 == 3 { -scalars[i] } else { scalars[i] })
            .sum();
        let expect = p.to_projective().mul_scalar(&signed);
        for signed_digits in [false, true] {
            for min_points in [0, BATCH_AFFINE_DEFAULT_MIN_POINTS, usize::MAX] {
                let config = MsmConfig::optimized()
                    .with_signed_digits(signed_digits)
                    .with_window_bits(w)
                    .with_batch_affine_min_points(min_points);
                let serial = msm_with_config_on(&Serial, &points, &scalars, config);
                assert_eq!(serial.0, expect, "{config:?}");
                for backend in backends {
                    let other = msm_with_config_on(backend, &points, &scalars, config);
                    assert_eq!(other, serial, "{config:?}, {backend:?}");
                }
            }
        }
    }
}
