//! The MSM engine through its public entry points, on the inputs that drive
//! the streaming bucket fill into its corners: every case against
//! [`naive_msm`], and the operation counts the engine reports against the
//! multiplications the field layer counts.

use zkspeed_curve::{
    msm_with_config, msm_with_config_on, naive_msm, sparse_msm_on, G1Affine, G1Projective,
    MsmConfig, BATCH_AFFINE_DEFAULT_MIN_POINTS,
};
use zkspeed_field::{measure_modmuls, Fr};
use zkspeed_rt::pool::Serial;
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

/// Each input against [`naive_msm`] for every window size, signed and
/// unsigned, on the forced batch-affine path and the default one.
#[test]
fn adversarial_inputs_match_naive_at_every_window_size() {
    let mut r = rng();
    let n = 24;
    let distinct = cheap_points(n, &mut r);
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
    let equal_scalars = vec![Fr::random(&mut r); n];
    let edge_scalars: Vec<Fr> = (0..n)
        .map(|i| match i % 4 {
            0 => Fr::zero(),
            1 => Fr::one(),
            2 => -Fr::one(),
            _ => Fr::from_u64(2).pow(&[(11 * i) as u64 % 255]),
        })
        .collect();
    let random = random_scalars(n, &mut r);
    let cases: [(&str, &[G1Affine], &[Fr]); 7] = [
        ("equal points", &equal_points, &random),
        ("equal points, equal scalars", &equal_points, &equal_scalars),
        ("P, −P interleaved", &opposite, &equal_scalars),
        ("P, −P interleaved, random scalars", &opposite, &random),
        ("equal scalars", &distinct, &equal_scalars),
        ("edge scalars", &distinct, &edge_scalars),
        (
            "identity points interleaved",
            &with_identities,
            &edge_scalars,
        ),
    ];
    for (case, points, scalars) in cases {
        let expect = naive_msm(points, scalars);
        for w in 1..=16usize {
            for signed in [false, true] {
                for min_points in [0, BATCH_AFFINE_DEFAULT_MIN_POINTS] {
                    let config = MsmConfig::optimized()
                        .with_signed_digits(signed)
                        .with_window_bits(w)
                        .with_batch_affine_min_points(min_points);
                    let (res, stats) = msm_with_config(points, scalars, config);
                    assert_eq!(res, expect, "{case}: {config:?}");
                    assert_eq!(stats.recoded_scalars, if signed { n as u64 } else { 0 });
                }
            }
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
    let ((_, stats), muls) = measure_modmuls(|| sparse_msm_on(&Serial, &points, &sparse));
    assert_eq!(stats.ops.fq_muls(), muls.fq);
}

#[test]
fn skewed_windows_fall_back_to_projective_buckets() {
    // All scalars equal: every window has one bucket, which would absorb one
    // addition per inversion. The default threshold routes such windows to
    // mixed additions; uniform scalars stay batch-affine.
    let mut r = rng();
    let n = 1 << 10;
    let points = cheap_points(n, &mut r);
    let config = MsmConfig::optimized().with_window_bits(8);
    let (_, skewed) = msm_with_config(&points, &vec![Fr::random(&mut r); n], config);
    assert_eq!(skewed.affine_adds, 0);
    assert_eq!(skewed.batch_inversions, 0);
    assert!(skewed.bucket_adds > 0);
    let (_, uniform) = msm_with_config(&points, &random_scalars(n, &mut r), config);
    assert!(uniform.batch_inversions > 0);
    assert!(uniform.affine_adds >= 48 * uniform.batch_inversions);
}
