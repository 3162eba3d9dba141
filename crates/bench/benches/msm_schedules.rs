//! MSM engine schedule sweep: window bits × backend threads × schedule at
//! n = 2^12 points (suite `msm`, history file
//! `target/bench-history/msm.json`).
//!
//! The schedules compared:
//!
//! * `classic`   — PR 2 baseline: unsigned windows, mixed adds into
//!   projective buckets;
//! * `signed`    — + signed-digit recoding (half the buckets);
//! * `optimized` — + batch-affine bucket accumulation (the default).
//!
//! Besides the wall-clock records, the per-schedule `MsmStats::fq_muls()`
//! counts are printed so the modmul reduction is visible alongside the
//! timing.
//!
//! The `precomputed` rows sweep the table-backed fixed-base engine
//! (`MsmSchedule::Precomputed`) against the `optimized` in-place schedule
//! at n ∈ {2^10, 2^12, 2^14} so the crossover point is recorded in the
//! same history file: the tables pay a one-time 255-doublings-per-base
//! build (printed, not benchmarked — it is amortized over a session) and
//! then every repeated commit runs with zero doublings.

use std::sync::Arc;

use zkspeed_curve::{
    msm_precomputed_on, msm_with_config_on, G1Affine, G1Projective, MsmConfig, MultiBaseTable,
};
use zkspeed_field::Fr;
use zkspeed_rt::bench::{black_box, Harness};
use zkspeed_rt::pool::backend_with_threads;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn setup(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
    let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
    let points = G1Projective::batch_to_affine(&proj);
    let scalars = (0..n).map(|_| Fr::random(rng)).collect();
    (points, scalars)
}

fn schedules() -> Vec<(&'static str, MsmConfig)> {
    vec![
        ("classic", MsmConfig::classic()),
        ("signed", MsmConfig::classic().with_signed_digits(true)),
        ("optimized", MsmConfig::optimized()),
    ]
}

fn main() {
    let mut rng = StdRng::seed_from_u64(12);
    let n = 1usize << 12;
    let (points, scalars) = setup(n, &mut rng);

    // Operation counts are timing-independent; print them once per
    // (window, schedule) so the fq_muls reduction is recorded next to the
    // wall-clock numbers.
    for w in [8usize, 10] {
        for (name, config) in schedules() {
            let (_, stats) =
                zkspeed_curve::msm_with_config(&points, &scalars, config.with_window_bits(w));
            println!(
                "msm stats n=2^12 w={w} {name}: fq_muls={} adds={} (mixed={} affine={} agg={} \
                 combine={}) inversions={} recoded={}",
                stats.fq_muls(),
                stats.total_adds(),
                stats.bucket_adds,
                stats.affine_adds,
                stats.aggregation_adds,
                stats.combine_adds,
                stats.batch_inversions,
                stats.recoded_scalars,
            );
        }
    }

    let mut h = Harness::new("msm");
    for w in [8usize, 10] {
        for threads in [1usize, 4] {
            let backend = backend_with_threads(threads);
            for (name, config) in schedules() {
                let config = config.with_window_bits(w);
                h.bench(format!("msm/4096/w{w}/t{threads}/{name}"), || {
                    black_box(msm_with_config_on(&*backend, &points, &scalars, config))
                });
            }
        }
    }

    // Precomputed-table sweep: per (n, w) the session table is built once
    // (outside the timed region, like a session preprocess), then the
    // repeated-commit path is timed against the best in-place schedule at
    // the same window width. n = 2^10 records the small-MSM regime where
    // the crossover sits, n = 2^14 the serving regime where the tables win
    // outright.
    for log_n in [10usize, 12, 14] {
        let n = 1usize << log_n;
        let (points, scalars) = setup(n, &mut rng);
        let shared = Arc::new(points.clone());
        for w in [10usize, 12] {
            let build_backend = backend_with_threads(4);
            let started = std::time::Instant::now();
            let table = Arc::new(MultiBaseTable::build_on(&shared, w, &*build_backend));
            println!(
                "precompute build n=2^{log_n} w={w}: {} points ({} bytes) in {:.1} ms",
                table.size_in_points(),
                table.size_in_bytes(),
                started.elapsed().as_secs_f64() * 1e3
            );
            let pre_config = MsmConfig::precomputed().with_window_bits(w);
            let (_, pre_stats) = msm_precomputed_on(&*build_backend, &table, &scalars, pre_config);
            let base_config = MsmConfig::optimized().with_window_bits(w);
            let (_, base_stats) = zkspeed_curve::msm_with_config(&points, &scalars, base_config);
            println!(
                "msm stats n=2^{log_n} w={w} precomputed: fq_muls={} vs optimized fq_muls={} \
                 ({:.2}x fewer)",
                pre_stats.fq_muls(),
                base_stats.fq_muls(),
                base_stats.fq_muls() as f64 / pre_stats.fq_muls() as f64
            );
            for threads in [1usize, 4] {
                let backend = backend_with_threads(threads);
                // Skip baseline rows the fixed-size sweep above already
                // recorded under the same name.
                if !(log_n == 12 && w == 10) {
                    h.bench(format!("msm/{n}/w{w}/t{threads}/optimized"), || {
                        black_box(msm_with_config_on(
                            &*backend,
                            &points,
                            &scalars,
                            base_config,
                        ))
                    });
                }
                h.bench(format!("msm/{n}/w{w}/t{threads}/precomputed"), || {
                    black_box(msm_precomputed_on(&*backend, &table, &scalars, pre_config))
                });
            }
        }
    }
    h.finish();
}
