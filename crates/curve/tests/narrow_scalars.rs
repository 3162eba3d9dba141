//! The MSM engine on scalars narrower than its GLV halves: small positives,
//! small negatives (recoded as their negation), the magnitudes at the edges
//! of that recoding, narrow scalars beside one full-width scalar, and zeros
//! and identity points among them — every case against [`naive_msm`] at
//! every window width. Then the counts that show the narrow shape: no images
//! without second halves, fewer multiplications for an all-ones MSM, and a
//! uniform run whose counts are pinned to the full-width shape.

use std::sync::Arc;

use zkspeed_curve::{
    msm, msm_with_config_on, naive_msm, sparse_msm, G1Affine, G1Projective, MsmConfig, MsmStats,
};
use zkspeed_field::Fr;
use zkspeed_rt::pool::{Serial, ThreadPool};
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5eed_0034)
}

/// `n` distinct points for the price of `n` doublings.
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

fn pow2(k: u64) -> Fr {
    Fr::from_u64(2).pow(&[k])
}

/// The GLV eigenvalue `λ = z² − 1`.
fn lambda() -> Fr {
    let z = Fr::from_u64(0xd201_0000_0001_0000);
    z * z - Fr::one()
}

/// The magnitudes at the edges of the recoding: the widths of one and two
/// limbs, the top bit of a half, λ (where the split of a wide scalar starts
/// a second half) and 2^128, the first scalar that is not its own half.
fn edge_magnitudes() -> Vec<Fr> {
    let one = Fr::one();
    vec![
        pow2(64) - one,
        pow2(64) + one,
        pow2(127),
        lambda() - one,
        lambda(),
        pow2(128) - one,
        pow2(128),
    ]
}

/// Named cases of `n` terms each.
fn narrow_inputs(n: usize, r: &mut StdRng) -> Vec<(&'static str, Vec<G1Affine>, Vec<Fr>)> {
    let points = cheap_points(n, r);
    let with_identities: Vec<G1Affine> = (0..n)
        .map(|i| match i % 3 {
            1 => G1Affine::identity(),
            _ => points[i],
        })
        .collect();
    let small_positive: Vec<Fr> = (0..n as u64)
        .map(|i| match i % 3 {
            0 => Fr::from_u64(i + 2),
            1 => pow2(i % 61),
            _ => Fr::from_u64(3 * i + 1),
        })
        .collect();
    let small_negative: Vec<Fr> = (0..n as u64)
        .map(|i| match i % 3 {
            0 => -Fr::one(),
            1 => -Fr::from_u64(2),
            _ => -pow2(5 * i % 128),
        })
        .collect();
    let edges = edge_magnitudes();
    let edge: Vec<Fr> = (0..n)
        .map(|i| {
            let magnitude = edges[i / 2 % edges.len()];
            if i % 2 == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
        .collect();
    let mut mixed = small_negative.clone();
    mixed[n / 2] = Fr::random(r);
    let interleaved: Vec<Fr> = (0..n)
        .map(|i| match i % 4 {
            0 => Fr::zero(),
            1 => small_negative[i],
            2 => small_positive[i],
            _ => edge[i],
        })
        .collect();
    vec![
        ("small positives", points.clone(), small_positive),
        ("small negatives", points.clone(), small_negative),
        ("edge magnitudes and their negations", points.clone(), edge),
        ("narrow with one full-width scalar", points, mixed),
        (
            "zeros and identity points interleaved",
            with_identities,
            interleaved,
        ),
    ]
}

#[test]
fn narrow_scalars_match_naive_at_every_window_width() {
    let mut r = rng();
    let n = 28;
    for (case, points, scalars) in narrow_inputs(n, &mut r) {
        let expect = naive_msm(&points, &scalars);
        for w in 0..=16usize {
            let config = MsmConfig::default().with_window_bits(w);
            let (res, _) = msm_with_config_on(&Serial, &points, &scalars, config);
            assert_eq!(res, expect, "{case}: w = {w}");
        }
        let (res, _) = sparse_msm(&Serial, &points, &scalars);
        assert_eq!(res, expect, "{case}: sparse");
    }
}

#[test]
fn narrow_scalars_match_naive_fanned_out() {
    // Above the parallel floor, on a pool: the narrow shape's jobs.
    let mut r = rng();
    let n = 300;
    let pool = ThreadPool::new(4);
    for (case, points, scalars) in narrow_inputs(n, &mut r) {
        let expect = naive_msm(&points, &scalars);
        let serial = msm(&Serial, &Arc::new(points.clone()), &scalars);
        assert_eq!(serial.0, expect, "{case}");
        assert_eq!(msm(&pool, &Arc::new(points), &scalars), serial, "{case}");
    }
}

#[test]
fn runs_without_second_halves_compute_no_images() {
    let mut r = rng();
    let n = 300;
    for (case, points, scalars) in narrow_inputs(n, &mut r) {
        let (_, stats) = msm(&Serial, &Arc::new(points), &scalars);
        // Every magnitude below 2^128 is its own half, and so is the
        // negation of every scalar whose negation is; 2^128 and its
        // negation split (the edge cases hold them), and so does the
        // full-width scalar.
        let narrow = case.starts_with("small");
        if narrow {
            assert_eq!(stats.endomorphisms, 0, "{case}");
            assert_eq!(stats.recoded_scalars, n as u64, "{case}");
        } else {
            assert_eq!(stats.endomorphisms, n as u64, "{case}");
            assert_eq!(stats.recoded_scalars, 2 * n as u64, "{case}");
        }
    }
    // The edges below 2^128 and their negations: all narrow.
    let points = cheap_points(12, &mut r);
    let scalars: Vec<Fr> = edge_magnitudes()[..6]
        .iter()
        .flat_map(|&k| [k, -k])
        .collect();
    let (res, stats) = msm(&Serial, &Arc::new(points.clone()), &scalars);
    assert_eq!(res, naive_msm(&points, &scalars));
    assert_eq!(stats.endomorphisms, 0);
}

/// [`MsmStats::fq_muls`] of the all-ones MSM over 2^14 points below on the
/// engine before the shape followed the scalars: 16 383 batch-affine
/// additions and 16 384 images, the one-window digits of `k₁` spread over the
/// copies of their bucket.
const ALL_ONES_2_14_FQ_MULS_BEFORE: u64 = 114_682;

#[test]
fn an_all_ones_msm_counts_fewer_multiplications() {
    let mut r = rng();
    let n = 1 << 14;
    let points = cheap_points(n, &mut r);
    let (res, stats) = msm(&Serial, &Arc::new(points.clone()), &vec![Fr::one(); n]);
    let sum: G1Projective = points.iter().map(G1Affine::to_projective).sum();
    println!("all ones, 2^14: {stats:?}, {} Fq", stats.fq_muls());
    assert_eq!(res, sum);
    assert_eq!(stats.endomorphisms, 0);
    assert!(
        stats.fq_muls() < ALL_ONES_2_14_FQ_MULS_BEFORE,
        "{} against {ALL_ONES_2_14_FQ_MULS_BEFORE}",
        stats.fq_muls()
    );
}

#[test]
fn a_uniform_run_keeps_its_full_width_counts() {
    // Uniform scalars have two 128-bit halves: the shape, and with it
    // every count, is the full-width one.
    let mut r = rng();
    let n = 1 << 12;
    let points = cheap_points(n, &mut r);
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut r)).collect();
    let (res, stats) = msm(&Serial, &Arc::new(points.clone()), &scalars);
    let other_width = MsmConfig::default().with_window_bits(8);
    assert_eq!(
        res,
        msm_with_config_on(&Serial, &points, &scalars, other_width).0
    );
    // Pinned on the engine before the shape followed the scalars.
    let expect = MsmStats {
        bucket_adds: 0,
        affine_adds: 108_449,
        batch_inversions: 308,
        aggregation_adds: 1_418,
        combine_adds: 11,
        doublings: 181,
        endomorphisms: 4_096,
        recoded_scalars: 8_192,
    };
    assert_eq!(stats, expect);
}
