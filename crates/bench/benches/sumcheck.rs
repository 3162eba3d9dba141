//! Benchmarks of the SumCheck kernels: Build MLE, a ZeroCheck-shaped round,
//! the MLE Update, and a full ZeroCheck proof.

use zkspeed_field::Fr;
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::bench::Harness;
use zkspeed_rt::pool::{self, Serial};
use zkspeed_rt::rngs::StdRng;
use zkspeed_rt::SeedableRng;
use zkspeed_sumcheck::{prove_zerocheck_on, round_polynomial};
use zkspeed_transcript::Transcript;

fn gate_shaped_poly(num_vars: usize, rng: &mut StdRng) -> VirtualPolynomial {
    let mut vp = VirtualPolynomial::new(num_vars);
    let idx: Vec<usize> = (0..8)
        .map(|_| vp.add_mle(MultilinearPoly::random(num_vars, rng)))
        .collect();
    let point: Vec<Fr> = (0..num_vars).map(|_| Fr::random(rng)).collect();
    let eq = vp.add_mle(MultilinearPoly::eq_mle(&point, &Serial));
    vp.add_term(Fr::one(), vec![idx[0], idx[5], eq]);
    vp.add_term(Fr::one(), vec![idx[1], idx[6], eq]);
    vp.add_term(Fr::one(), vec![idx[2], idx[5], idx[6], eq]);
    vp.add_term(-Fr::one(), vec![idx[3], idx[7], eq]);
    vp.add_term(Fr::one(), vec![idx[4], eq]);
    vp
}

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut h = Harness::new("sumcheck");
    let backend = &**pool::global();

    for num_vars in [10usize, 12] {
        let point: Vec<Fr> = (0..num_vars).map(|_| Fr::random(&mut rng)).collect();
        h.bench(format!("build_mle/{num_vars}"), || {
            MultilinearPoly::eq_mle(&point, backend)
        });
        let table = MultilinearPoly::random(num_vars, &mut rng);
        let r = Fr::random(&mut rng);
        h.bench(format!("mle_update/{num_vars}"), || {
            table.fix_first_variable(r, backend)
        });
        let vp = gate_shaped_poly(num_vars, &mut rng);
        h.bench(format!("zerocheck_round/{num_vars}"), || {
            round_polynomial(&vp, 4, backend)
        });
        h.bench(format!("zerocheck_full/{num_vars}"), || {
            let mut t = Transcript::new(b"bench");
            prove_zerocheck_on(&vp, &mut t, backend)
        });
    }
    h.finish();
}
