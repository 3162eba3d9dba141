//! Universal-setup benchmarks (suite `setup`, history file
//! `target/bench-history/setup.json`).
//!
//! The proving service registers sessions at startup, which puts
//! `Srs::try_setup` on the serving path. The setup's `2^μ` fixed-base
//! scalar multiplications (the full-size level; the halved levels follow by
//! additions) ride a precomputed window table
//! ([`zkspeed_curve::FixedBaseTable`]); `baseline/*` times the old
//! double-and-add ladder on the same scalars so the speedup is recorded in
//! the bench history (the ROADMAP target is ≥3× at μ = 14).

use zkspeed_curve::{FixedBaseTable, G1Projective};
use zkspeed_field::Fr;
use zkspeed_pcs::Srs;
use zkspeed_rt::bench::{black_box, Harness};
use zkspeed_rt::pool;

fn main() {
    let mut h = Harness::new("setup");

    // Per-scalar-mul comparison at a fixed batch size: the table path vs
    // the double-and-add ladder it replaced.
    let scalars: Vec<Fr> = (0..256u64).map(|i| Fr::from_u64(i * i + 1)).collect();
    let g = G1Projective::generator();
    h.bench("baseline/double-and-add/256-muls", || {
        let points: Vec<G1Projective> = scalars.iter().map(|s| g.mul_scalar(s)).collect();
        black_box(G1Projective::batch_to_affine(&points))
    });
    let table = FixedBaseTable::for_generator();
    h.bench("table/mul/256-muls", || {
        let points: Vec<G1Projective> = scalars.iter().map(|s| table.mul(s)).collect();
        black_box(G1Projective::batch_to_affine(&points))
    });
    h.bench("table/build", || black_box(FixedBaseTable::for_generator()));

    // Full setups at workload-suite scale (μ = 14 is the test-suite SRS;
    // the service bench and integration tests provision this exact size).
    for mu in [12usize, 14] {
        let tau: Vec<Fr> = (0..mu).map(|i| Fr::from_u64(2 * i as u64 + 3)).collect();
        h.bench(format!("srs/mu{mu}"), || {
            let backend = &**pool::global();
            black_box(Srs::try_setup_with_tau(mu, tau.clone(), backend).expect("setup fits"))
        });
    }

    h.finish();
}
