//! Golden proof digests: the SHA3-256 of `Proof::to_bytes()` for nine fixed
//! (circuit, witness) pairs, pinned with the version-6 proof encoding. Each
//! of these proofs, re-expanded into the version-5 layout (the verifier's
//! rebuilt round vectors, length prefixes, version 5), hashed to the digest
//! pinned before it, so the protocol bytes behind them are those of the
//! earlier pins. A prover change that claims to keep proofs byte-identical
//! is checked against these in seconds, on the thread count the test
//! process runs at, instead of by a 20-minute `zkbench set`. Each proof is
//! also held to the size `Proof` documents.
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
    let bytes = proof.to_bytes();
    assert_eq!(bytes.len(), 1329 + 385 * mu, "the size `Proof` documents");
    Sha3_256::digest(&bytes)
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
        ("mock-paper/4", mock(4, paper), "d5f4ed1b72e9ad9cf853fa20240bdb317f6486b05fc73769c9294be3201653f4"),
        ("mock-paper/6", mock(6, paper), "6c385ba626d14700bb5224b8c313679cef33e12fc322aea4a03a41b0e23bf73a"),
        ("mock-paper/8", mock(8, paper), "d90ea6c4ed0e39f9d764df8be623be0adaf0cf0d67f19ec469c1e582224bc9f2"),
        ("mock-dense/4", mock(4, dense), "c9b6a1483748383a9cf99f18b98e5ded343620fc7d3f9349264a3de918e9bf35"),
        ("mock-dense/6", mock(6, dense), "2282ea4798e9ad2c1dc5676d4d1ce0664bc9c881f7b90ae4ed8ea9d96ed1e6cb"),
        ("mock-dense/8", mock(8, dense), "b16904b446295d1f561932aff6052c1a40653038f239055585ab478db759cac3"),
        ("state-transition/6", real(6, transition(1, 4)), "898b4a51a235e3aeafab463cff7024f38576085ed48ace815170ed9ea2c66374"),
        ("state-transition/8", real(8, transition(2, 8)), "a4a63660bb5b6eea10d4f9b63e1a220c40281eed1444089fc822e8de19000ba3"),
        ("keccak-chain/14", real(14, chain), "8d1b921fc5a2d74cf75620990115bd5e004d58807dac46549271467afad2e38f"),
    ];
    for (name, got, want) in &pinned {
        assert_eq!(
            got, want,
            "{name}: proof bytes changed; all nine: {pinned:#?}"
        );
    }
}
