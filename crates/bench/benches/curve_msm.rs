//! Benchmarks of the G1 group operations and the MSM kernels (Witness
//! Commit / Wiring Identity workloads at reduced sizes).

use zkspeed_curve::{msm, sparse_msm, G1Affine, G1Projective};
use zkspeed_field::Fr;
use zkspeed_rt::bench::{black_box, Harness};
use zkspeed_rt::pool;
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::{Rng, SeedableRng};

fn setup(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
    let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
    let points = G1Projective::batch_to_affine(&proj);
    let scalars = (0..n).map(|_| Fr::random(rng)).collect();
    (points, scalars)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let p = G1Projective::random(&mut rng);
    let q = G1Projective::random(&mut rng);
    let s = Fr::random(&mut rng);

    let mut h = Harness::new("curve");
    h.bench("padd", || black_box(p) + black_box(q));
    h.bench("pdbl", || black_box(p).double());
    h.bench("scalar_mul", || black_box(p).mul_scalar(&s));

    for log_n in [8usize, 10] {
        let (points, scalars) = setup(1 << log_n, &mut rng);
        let shared = std::sync::Arc::new(points.clone());
        h.bench(format!("msm/dense/{}", 1 << log_n), || {
            msm(&**pool::global(), &shared, &scalars)
        });
        // Witness-style sparse scalars (45% zero, 45% one, 10% dense).
        let sparse: Vec<Fr> = scalars
            .iter()
            .map(|v| {
                let roll: f64 = rng.gen();
                if roll < 0.45 {
                    Fr::zero()
                } else if roll < 0.9 {
                    Fr::one()
                } else {
                    *v
                }
            })
            .collect();
        h.bench(format!("msm/sparse/{}", 1 << log_n), || {
            sparse_msm(&**pool::global(), &points, &sparse)
        });
    }
    h.finish();
}
