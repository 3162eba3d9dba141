//! Pinned canonical encodings: the SHA3-256 of one fixed encoding of every
//! wire message (the 8 `Request` and 11 `Response` variants) and of the
//! verifying-key, circuit, witness, SumCheck-proof and opening-proof
//! formats, all built from fixed seeds at μ = 3.
//!
//! The byte formats are the system's external contract, so a refactor of
//! the encoders must leave every digest here unchanged. `Proof` and `Srs`
//! are pinned elsewhere (`tests/golden.rs`, `srs.rs`). The SumCheck and
//! opening proofs are read out of a proof's bytes at the offsets their
//! shapes imply, so the pins do not depend on which function writes them.
//!
//! Regenerate a digest only together with a deliberate encoding change:
//! run this test on the commit that defines the new bytes and copy what it
//! prints.

use zkspeed::prelude::*;
use zkspeed::svc::{JobState, RejectCode, Request, Response, SessionRow, SessionState};
use zkspeed_rt::Sha3_256;

const MU: usize = 3;

fn hex(bytes: &[u8]) -> String {
    Sha3_256::digest(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

struct Fixture {
    circuit: Circuit,
    witness: Witness,
    vk_bytes: Vec<u8>,
    proof: Proof,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(0xe4c0_de00);
    let srs = Srs::try_setup(MU, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = mock_circuit(MU, SparsityProfile::paper_default(), &mut rng);
    let (prover, verifier) = ProofSystem::setup(srs)
        .preprocess(circuit.clone())
        .expect("circuit fits");
    let proof = prover.prove(&witness).expect("valid witness");
    Fixture {
        circuit,
        witness,
        vk_bytes: verifier.verifying_key().to_bytes(),
        proof,
    }
}

fn requests(f: &Fixture) -> Vec<Request> {
    vec![
        Request::SubmitCircuit {
            circuit: f.circuit.to_bytes(),
        },
        Request::SubmitJob {
            circuit: f.circuit.digest(),
            priority: Priority::Low,
            deadline_ms: 30_000,
            witness: f.witness.to_bytes(),
        },
        Request::JobStatus { job: 0xdead_beef },
        Request::Metrics,
        Request::Hello {
            token: b"secret-token".to_vec(),
        },
        Request::Shutdown,
        Request::ListSessions,
        Request::GetTrace,
    ]
}

fn responses(f: &Fixture) -> Vec<Response> {
    vec![
        Response::CircuitRegistered {
            digest: f.circuit.digest(),
            num_vars: MU as u32,
        },
        Response::JobAccepted { job: 42 },
        Response::Rejected {
            code: RejectCode::SessionEvicted,
            detail: "session evicted; re-register the circuit".into(),
        },
        Response::Status {
            job: 43,
            state: JobState::Running,
        },
        Response::ProofReady {
            job: 44,
            proof: f.proof.to_bytes(),
        },
        Response::Metrics {
            json: "{\"proofs_per_second\":3.5}".into(),
        },
        Response::HelloOk {
            protocol: 5,
            server: "zkspeed-svc/2".into(),
        },
        Response::ShuttingDown,
        Response::JobFailed {
            job: 45,
            reason: "constraint violated at row 3".into(),
        },
        Response::SessionList {
            sessions: vec![
                SessionRow {
                    digest: f.circuit.digest(),
                    num_vars: MU as u32,
                    state: SessionState::Active,
                    shard: 1,
                    resident_bytes: 1 << 20,
                    jobs_completed: 12,
                },
                SessionRow {
                    digest: [9u8; 32],
                    num_vars: 10,
                    state: SessionState::Evicted,
                    shard: 0,
                    resident_bytes: 0,
                    jobs_completed: 3,
                },
            ],
        },
        Response::TraceDump {
            json: "{\"traceEvents\":[]}".into(),
        },
    ]
}

/// The encodings of the proof's gate ZeroCheck (right after the header,
/// `μ` and the three witness commitments: `μ` rows of three scalars) and of
/// its `g′` opening (the tail: `μ` points).
fn proof_parts(proof: &Proof) -> (Vec<u8>, Vec<u8>) {
    const HEADER: usize = 8 + 4;
    const POINT: usize = 97;
    const ROW: usize = 3 * 32;
    let bytes = proof.to_bytes();
    let start = HEADER + 3 * POINT;
    let sumcheck = bytes[start..start + MU * ROW].to_vec();
    let opening = bytes[bytes.len() - MU * POINT..].to_vec();
    (sumcheck, opening)
}

fn check(pins: &[(&str, &str)], actual: &[(String, String)]) {
    let mut drifted = Vec::new();
    for ((name, pinned), (_, got)) in pins.iter().zip(actual) {
        println!("(\"{name}\", \"{got}\"),");
        if pinned != got {
            drifted.push(*name);
        }
    }
    assert_eq!(pins.len(), actual.len(), "one pin per encoding");
    assert!(drifted.is_empty(), "encodings drifted: {drifted:?}");
}

#[test]
fn artifact_encodings_match_the_pinned_digests() {
    let f = fixture();
    let (sumcheck, opening) = proof_parts(&f.proof);
    let actual = [
        ("verifying-key", hex(&f.vk_bytes)),
        ("circuit", hex(&f.circuit.to_bytes())),
        ("witness", hex(&f.witness.to_bytes())),
        ("sumcheck-proof", hex(&sumcheck)),
        ("opening-proof", hex(&opening)),
    ]
    .map(|(name, digest)| (name.to_string(), digest));
    let pins = [
        (
            "verifying-key",
            "981470ad3277e43b06c7983ee927085590da5c8d57ac33762981ad00b2c587ee",
        ),
        (
            "circuit",
            "4196b5887fa586e4d6cbe7d88d4f1e349477ba1222e82b548d53f7c28c0f6efc",
        ),
        (
            "witness",
            "18bb74243f6554d69296e0c03084929c28c30230ba2954e216449ee0cc7915f5",
        ),
        (
            "sumcheck-proof",
            "02efdad919533e1d032628216a48ddc2024caacd9107341fc9d3a536e94ba6a0",
        ),
        (
            "opening-proof",
            "0db5e400aacca1834215bb54055c407ef469f47968cc0860e689e7fc56f3339a",
        ),
    ];
    check(&pins, &actual);
}

#[test]
fn wire_message_encodings_match_the_pinned_digests() {
    let f = fixture();
    let mut actual = Vec::new();
    for request in requests(&f) {
        let name = format!("{request:?}");
        let name = name.split([' ', '{']).next().unwrap_or_default();
        actual.push((format!("request {name}"), hex(&request.to_bytes())));
        assert_eq!(request.to_frame()[4..], request.to_bytes()[..]);
    }
    for response in responses(&f) {
        let name = format!("{response:?}");
        let name = name.split([' ', '{']).next().unwrap_or_default();
        actual.push((format!("response {name}"), hex(&response.to_bytes())));
        assert_eq!(response.to_frame()[4..], response.to_bytes()[..]);
    }
    assert_eq!(actual.len(), 8 + 11, "every variant is pinned");
    let pins: [(&str, &str); 19] = [
        (
            "request SubmitCircuit",
            "cb143fa7ed2706b378e06a576658a5b0bbe2e279c8f71456508074a3bda3489b",
        ),
        (
            "request SubmitJob",
            "4cd5afe7bac62bb92a0c5203842e03acdff20832d865ea2b497bed114e390e9e",
        ),
        (
            "request JobStatus",
            "85259d28a759ea83307d669d9082f332ceac354c9b0ac10983129bc385fd9749",
        ),
        (
            "request Metrics",
            "93c39ed66d64605635464520a98b8aa5226f9f0c1bd4a59bbaed579fa03ea9df",
        ),
        (
            "request Hello",
            "7760014d0636a0486967e088ba95cb791119e1798ad072d2a5d490b830c8c384",
        ),
        (
            "request Shutdown",
            "130e6e6fb0494235ce8b56c8f54b9ffa6eee9d97ff96d3cdd7b095ff26750f23",
        ),
        (
            "request ListSessions",
            "c766eb18d0e4ae2324af77632c6edba42544a438f0d7a2b33ee238ccaea264e2",
        ),
        (
            "request GetTrace",
            "871dbd84bdae0e5417a0ec66adeba45db6aad1eb029773d603ba6f9961f6e954",
        ),
        (
            "response CircuitRegistered",
            "c98034d9cd779a55daf0d83a46935974df607fd8939b24aa2cb63431ca3df908",
        ),
        (
            "response JobAccepted",
            "b86fb6b6c11db2c5b2a7fc39e02a7e27fec9771387501f9fe685ad0c06f00f03",
        ),
        (
            "response Rejected",
            "167c05c1f5c271b68060384b038a79081e566404f76600d18938eee83d049f07",
        ),
        (
            "response Status",
            "9299b4d62a4577d0e0e78997914ef4450cf4f88e0d1a8f639b657ab58e889dcc",
        ),
        (
            "response ProofReady",
            "ffe1b28de96b1647db871d9fe4998f073adbd478ca90e906ae8f9570eed2f328",
        ),
        (
            "response Metrics",
            "69b4ffaa465411c98f4df3d0c06ffdb92b3b3d6107524b6c5cd9289dd334e0cf",
        ),
        (
            "response HelloOk",
            "b05bdfb659288f4f338718159b35a427684e1a52568917efe3a6536ac9994458",
        ),
        (
            "response ShuttingDown",
            "ce03d48fe0fe44fcf182bc63a87b220d1553e51e492b2a66510940f94533902a",
        ),
        (
            "response JobFailed",
            "bf34e3fe8e8e12a6b51edfaf1444fe03fc23a2a0c7b1b7c599934581cb2cbf03",
        ),
        (
            "response SessionList",
            "fbc541d3ada8291464a6a36d7de6d3278e3c6cbac279bf15c821931497709a96",
        ),
        (
            "response TraceDump",
            "13d4f8de720a0ad0a4954c198f955be079a499b1a43b2a2c1135d2f29014e457",
        ),
    ];
    for ((name, _), (got, _)) in pins.iter().zip(&actual) {
        assert_eq!(name, got, "pins are listed in variant order");
    }
    check(&pins, &actual);
}
