//! Microbenchmarks of the BLS12-381 field arithmetic (the "modmul" the
//! entire zkSpeed cost model is denominated in).

use zkspeed_field::{batch_invert, Fq, Fr};
use zkspeed_rt::bench::{black_box, Harness};
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    let x = Fq::random(&mut rng);
    let y = Fq::random(&mut rng);
    let vals: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();

    let mut h = Harness::new("field");
    h.bench("fr_mul_255b", || black_box(a) * black_box(b));
    h.bench("fq_mul_381b", || black_box(x) * black_box(y));
    h.bench("fr_square_255b", || black_box(a).square());
    h.bench("fq_square_381b", || black_box(x).square());
    h.bench("fr_invert", || black_box(a).invert().unwrap());
    h.bench("fq_invert", || black_box(x).invert().unwrap());
    h.bench("fr_invert_fermat", || black_box(a).invert_fermat().unwrap());
    // Reuse one scratch buffer so each iteration only pays a 2 KiB copy on
    // top of the inversion, not an allocation.
    let mut scratch = vals.clone();
    h.bench("fr_batch_invert_64", || {
        scratch.copy_from_slice(&vals);
        batch_invert(&mut scratch);
        scratch[0]
    });
    h.finish();
}
