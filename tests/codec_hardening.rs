//! Deterministic corruption sweeps over every artifact kind introduced for
//! the proving service (circuit, witness, request, response frames):
//! malformed, truncated and oversized-length inputs must come back as
//! structured [`DecodeError`]s — never a panic, never an absurd
//! allocation.

use zkspeed::prelude::*;
use zkspeed::svc::{Request, Response};
use zkspeed_rt::codec::{frame, DecodeError, Kind, Reader};

fn tiny_instance() -> (Circuit, Witness) {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    mock_circuit(3, SparsityProfile::paper_default(), &mut rng)
}

/// Flip-one-byte / truncate-everywhere sweep driver: `decode` must return
/// without panicking on every mutation, and must reject every truncation.
fn sweep(bytes: &[u8], what: &str, decode: &dyn Fn(&[u8]) -> Result<(), DecodeError>) {
    decode(bytes).unwrap_or_else(|e| panic!("{what}: pristine bytes rejected: {e}"));
    for i in 0..bytes.len() {
        for pattern in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.to_vec();
            bad[i] ^= pattern;
            // Any outcome but a panic is acceptable: some single-bit flips
            // produce a different valid value (e.g. another selector
            // element), and structural damage must surface as an error.
            let _ = decode(&bad);
        }
    }
    for len in 0..bytes.len() {
        assert!(
            decode(&bytes[..len]).is_err(),
            "{what}: truncation to {len} bytes was accepted"
        );
    }
}

#[test]
fn circuit_bytes_survive_corruption_sweep() {
    let (circuit, _) = tiny_instance();
    sweep(&circuit.to_bytes(), "circuit", &|b| {
        Circuit::from_bytes(b).map(|_| ())
    });
}

#[test]
fn witness_bytes_survive_corruption_sweep() {
    let (_, witness) = tiny_instance();
    sweep(&witness.to_bytes(), "witness", &|b| {
        Witness::from_bytes(b).map(|_| ())
    });
}

#[test]
fn request_and_response_frames_survive_corruption_sweep() {
    let (circuit, witness) = tiny_instance();
    let requests = [
        Request::SubmitCircuit {
            circuit: circuit.to_bytes(),
        },
        Request::SubmitJob {
            circuit: circuit.digest(),
            priority: Priority::Normal,
            deadline_ms: 45_000,
            witness: witness.to_bytes(),
        },
        Request::JobStatus { job: 7 },
        Request::Metrics,
    ];
    for request in &requests {
        sweep(&request.to_bytes(), "request", &|b| {
            Request::from_bytes(b).map(|_| ())
        });
    }
    let responses = [
        Response::CircuitRegistered {
            digest: circuit.digest(),
            num_vars: circuit.num_vars() as u32,
        },
        Response::ProofReady {
            job: 7,
            proof: vec![0x5a; 64],
        },
        Response::JobFailed {
            job: 11,
            reason: "wave panicked: injected wave fault (shard 0)".into(),
        },
    ];
    for response in &responses {
        sweep(&response.to_bytes(), "response", &|b| {
            Response::from_bytes(b).map(|_| ())
        });
    }
}

#[test]
fn stale_wire_versions_are_rejected_not_misparsed() {
    // The v3 codec added a deadline field to SubmitJob and the JobFailed
    // response. A v1 or v2 frame replayed at the current decoder must fail
    // with UnsupportedVersion — a misparse would silently read the old
    // SubmitJob layout with the witness length where the deadline now sits.
    let (circuit, witness) = tiny_instance();
    let samples = [
        Request::SubmitJob {
            circuit: circuit.digest(),
            priority: Priority::Normal,
            deadline_ms: 0,
            witness: witness.to_bytes(),
        }
        .to_bytes(),
        Response::JobFailed {
            job: 3,
            reason: "deadline exceeded before proving".into(),
        }
        .to_bytes(),
    ];
    for (i, pristine) in samples.iter().enumerate() {
        for stale in [1u16, 2] {
            let mut old = pristine.clone();
            old[4..6].copy_from_slice(&stale.to_le_bytes());
            let err = if i == 0 {
                Request::from_bytes(&old).map(|_| ()).unwrap_err()
            } else {
                Response::from_bytes(&old).map(|_| ()).unwrap_err()
            };
            assert!(
                matches!(err, DecodeError::UnsupportedVersion { found } if found == stale),
                "stale v{stale} sample {i}: {err:?}"
            );
        }
    }
}

#[test]
fn oversized_length_fields_fail_before_allocating() {
    let (circuit, witness) = tiny_instance();

    // Circuit / witness num_vars far beyond any SRS fail the size bound
    // before any table is allocated.
    let mut huge = circuit.to_bytes();
    huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Circuit::from_bytes(&huge),
        Err(DecodeError::InvalidLength { .. })
    ));
    let mut huge = witness.to_bytes();
    huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Witness::from_bytes(&huge),
        Err(DecodeError::InvalidLength { .. })
    ));
    // A *plausible* but unbacked num_vars fails the remaining-bytes check.
    let mut plausible = witness.to_bytes();
    plausible[8..12].copy_from_slice(&20u32.to_le_bytes());
    assert!(matches!(
        Witness::from_bytes(&plausible),
        Err(DecodeError::UnexpectedEnd { .. })
    ));

    // An embedded-blob length prefix claiming 4 GiB.
    let mut request = Request::SubmitCircuit {
        circuit: vec![0; 16],
    }
    .to_bytes();
    request[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Request::from_bytes(&request),
        Err(DecodeError::InvalidLength { .. })
    ));

    // A frame length prefix claiming 4 GiB.
    let mut framed = frame(b"payload");
    framed[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Reader::new(&framed).frame(),
        Err(DecodeError::InvalidLength { .. })
    ));
}

#[test]
fn service_answers_corrupt_frames_without_panicking() {
    // End-to-end hardening: every corrupted SubmitCircuit / SubmitJob frame
    // through the live service endpoint yields a decodable response frame
    // (normally Rejected), never a panic or a hang.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let srs = std::sync::Arc::new(Srs::try_setup(4, &mut rng, &Serial).expect("small setup"));
    let svc = ProvingService::start(srs, ServiceConfig::default().with_shards(1));
    let (circuit, witness) = tiny_instance();
    let digest = svc.register_circuit(circuit.clone()).expect("fits");

    let frames = [
        Request::SubmitCircuit {
            circuit: circuit.to_bytes(),
        }
        .to_frame(),
        Request::SubmitJob {
            circuit: digest,
            priority: Priority::High,
            deadline_ms: 1_000,
            witness: witness.to_bytes(),
        }
        .to_frame(),
    ];
    for pristine in &frames {
        // Sample every 7th byte position to keep the live-service sweep
        // fast; the pure decoder sweeps above cover every position.
        for i in (0..pristine.len()).step_by(7) {
            let mut bad = pristine.clone();
            bad[i] ^= 0xff;
            let response_frame = svc.handle_frame(&bad);
            let mut reader = Reader::new(&response_frame);
            let payload = reader.frame().expect("service always frames");
            Response::from_bytes(payload).expect("service answers canonically");
        }
        for len in (0..pristine.len()).step_by(11) {
            let response_frame = svc.handle_frame(&pristine[..len]);
            let payload = Reader::new(&response_frame)
                .frame()
                .expect("service always frames")
                .to_vec();
            Response::from_bytes(&payload).expect("service answers canonically");
        }
    }
}

#[test]
fn every_registered_kind_rejects_every_other_kinds_header() {
    // The Kind registry guarantees artifacts cannot be cross-decoded: a
    // header stamped with any other registered kind must fail WrongKind.
    let (circuit, _) = tiny_instance();
    let bytes = circuit.to_bytes();
    for kind in Kind::ALL {
        if kind == Kind::Circuit {
            continue;
        }
        let mut retagged = bytes.clone();
        retagged[6] = kind as u8;
        assert!(
            matches!(
                Circuit::from_bytes(&retagged),
                Err(DecodeError::WrongKind { .. })
            ),
            "kind {kind:?} was not rejected"
        );
    }
}
