//! Golden proof digests: the SHA3-256 of `Proof::to_bytes()` for nine fixed
//! (circuit, witness) pairs, taken on the commit *before* the SumCheck round
//! kernel was rewritten and pinned here. A prover change that claims to keep
//! proofs byte-identical is checked against these in seconds, on the thread
//! count the test process runs at, instead of by a 20-minute `zkbench set`.
//!
//! The constants only ever change together with a deliberate protocol or
//! encoding change; regenerate them by running this test on the commit that
//! defines the new bytes and copying the digests it prints.

use zkspeed::prelude::*;
use zkspeed_rt::Sha3_256;

fn proof_digest(
    mu: usize,
    seed: u64,
    build: impl FnOnce(&mut StdRng) -> (Circuit, Witness),
) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = Srs::try_setup(mu, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = build(&mut rng);
    assert_eq!(
        circuit.num_vars(),
        mu,
        "the circuit's size is part of the pin"
    );
    let (prover, verifier) = ProofSystem::setup(srs)
        .preprocess(circuit)
        .expect("circuit fits");
    let proof = prover.prove(&witness).expect("valid witness");
    verifier.verify(&proof).expect("honest proof verifies");
    Sha3_256::digest(&proof.to_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn proof_bytes_match_the_golden_digests() {
    let mock = |mu: usize, profile: SparsityProfile| {
        proof_digest(mu, 0x601d_0000 + mu as u64, |rng| {
            mock_circuit(mu, profile, rng)
        })
    };
    let real = |mu: usize, spec: WorkloadSpec| proof_digest(mu, 0x601d_1000, |rng| spec.build(rng));
    // No Keccak permutation fits below 2^14 gates, so the Boolean-witness
    // family is pinned at the sizes the gadget layer does build: two
    // range-checked state transitions and the benchmark's two-link chain.
    let transition = |transfers, balance_bits| {
        WorkloadSpec::StateTransition(StateTransitionSpec {
            transfers,
            balance_bits,
        })
    };
    let chain = WorkloadSpec::HashChain(HashChainSpec {
        links: 2,
        rounds: 1,
    });
    let paper = SparsityProfile::paper_default();
    let dense = SparsityProfile::dense();
    #[rustfmt::skip]
    let pinned = [
        ("mock-paper/4", mock(4, paper), "70b9365b3f3a0b66619354abe2bf3c3fb268ac20640fa5bfe79b93a5ea6d7487"),
        ("mock-paper/6", mock(6, paper), "2bf3c1d776a49d97a2e0b560a42feca2af70f34a8221f30bb423ad61d5373782"),
        ("mock-paper/8", mock(8, paper), "1807c491c34b323599b2a5c951757fe6df3ce4650b614ab801d6675af696ea75"),
        ("mock-dense/4", mock(4, dense), "fbe884c3ddbccec01ba2709079cb0bdf469c427e083677a31cb61a18a3904afe"),
        ("mock-dense/6", mock(6, dense), "fb3cc0b3fb09562060997c41c1f96845dd8fa1236d37c2ec4cc99a16b2d6b70b"),
        ("mock-dense/8", mock(8, dense), "7d4fbe8dc0ef14cfd2425617601f4731a4c36030ab22fa37dd489cc278f756c2"),
        ("state-transition/6", real(6, transition(1, 4)), "49a406842d2b83d745e20ed6c2d7e0b616266955481ae712446be2cab619a928"),
        ("state-transition/8", real(8, transition(2, 8)), "eb6d6225289b5086034f6f69045ee9527f2a0f86e384985c578ad90916dac158"),
        ("keccak-chain/14", real(14, chain), "61ffb71e6a74a128d3d87b33b0d8f1699ec831276aa5166ca1790a89f448bb5c"),
    ];
    for (name, got, want) in &pinned {
        assert_eq!(
            got, want,
            "{name}: proof bytes changed; all nine: {pinned:#?}"
        );
    }
}
