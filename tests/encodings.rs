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

/// The encodings of the proof's gate ZeroCheck (right after the header and
/// the three witness commitments) and of its `g′` opening (the tail).
fn proof_parts(proof: &Proof) -> (Vec<u8>, Vec<u8>) {
    const HEADER: usize = 8;
    const POINT: usize = 97;
    let bytes = proof.to_bytes();
    let start = HEADER + 3 * POINT;
    let rounds = &proof.gate_zerocheck.round_evaluations;
    let len = 4 + rounds.iter().map(|r| 4 + 32 * r.len()).sum::<usize>();
    let sumcheck = bytes[start..start + len].to_vec();
    let opening_len = 4 + POINT * proof.gprime_opening.quotients.len();
    let opening = bytes[bytes.len() - opening_len..].to_vec();
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
            "0ea38be8287f75e3cbb1938d9901f4446851a6bcc006c03293dc33ff97ef88e9",
        ),
        (
            "circuit",
            "1b043558632b0a01a82da03621f10fbcd0fe4769e32d3c6b89ef6b9f82d81666",
        ),
        (
            "witness",
            "9444235617d3539d9d26c771d3cddfc320bb3ff1b42cd9297ed78a0dd651e230",
        ),
        (
            "sumcheck-proof",
            "1869e35e018d9df54413efac3b1a404292d3ad144cad535eda9b58e83917101c",
        ),
        (
            "opening-proof",
            "053399e7d8c4f84e1b5eed13ca91f421fbbf05097da8d9ea3bb9069f579c6310",
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
            "f48139695301c1c5bcb00e3d1f2c2d6992e2b75c043ac9090d3c66b6fc07cc09",
        ),
        (
            "request SubmitJob",
            "a395b1764ad2f33645c9bf91a664cc6c7293db684e4f3561d964d14bb896cea4",
        ),
        (
            "request JobStatus",
            "773fcab5ca07b3efd68b5a10010cc05d540d5bb05f945cb44a335500280da7e9",
        ),
        (
            "request Metrics",
            "4f9a30cad08a27db166ff9ed42cd5535953a736a9726c53ec703911cae838778",
        ),
        (
            "request Hello",
            "cf39dd642e27a1241859e6e5da13118f85e48d97652ab4735557f4bcef752ee8",
        ),
        (
            "request Shutdown",
            "9e79e5361e6f529f178302acb0e5c6c99523fac4e5e78624157c1131ea478111",
        ),
        (
            "request ListSessions",
            "121111911bb450a42fa1049f2ed3455d29a11f0efafaf324d9a25464eaa9414d",
        ),
        (
            "request GetTrace",
            "3da8dedc2bc959b6ff76d669c0fe9e4b3fd8b2c2897aa7a070e1cbe9cadf3338",
        ),
        (
            "response CircuitRegistered",
            "0923f6fefd8f45a0305b87113a43579324a3831fd2257c414ed0e70f05a79016",
        ),
        (
            "response JobAccepted",
            "cd29e43a3650726ca45dde7b1ec2df6f130eb361e8e073407bf5e17ec873b208",
        ),
        (
            "response Rejected",
            "840b86c4672362d4b20fb59e8548de8f0b9274819a1a6d8fd4a01720c05fe97e",
        ),
        (
            "response Status",
            "23bccb11b35a018b253bc9c66af9238dd909cc958617ea0ca1c7bdcaeb65977e",
        ),
        (
            "response ProofReady",
            "e06d0c3e4c21a130a1353c7fd674fbb1edf9f077576153dec4af2505071b7fc5",
        ),
        (
            "response Metrics",
            "06fd3dba6667e877762eb3861d6f673c8ba239b7c9c262fedfb7c39aa87a43f4",
        ),
        (
            "response HelloOk",
            "56b94166e66e4abe4bc45d9195f2af6d4b507b80fa45b70c1be5872244cd8666",
        ),
        (
            "response ShuttingDown",
            "5383b5a36127ac80c0ed963c3d4dd8612c102eece8c18ca1c76497eca6188c98",
        ),
        (
            "response JobFailed",
            "43fc8a88267836eeb7dd21c871eb7b637bf8fe19630b36d145e85f39347e03d3",
        ),
        (
            "response SessionList",
            "4d41a4086ae1f9fb24d8efd25cf8dd9cddcd98837c68036660f44d967773a8d1",
        ),
        (
            "response TraceDump",
            "71f9b6aebdcc4a993e4391adf506ec11572530284f84e21e01ce34212d6b7f38",
        ),
    ];
    for ((name, _), (got, _)) in pins.iter().zip(&actual) {
        assert_eq!(name, got, "pins are listed in variant order");
    }
    check(&pins, &actual);
}
