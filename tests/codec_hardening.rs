//! Deterministic corruption sweeps over every decodable format: the
//! circuit, witness, proof, verifying-key and SRS artifacts, and every
//! request and response message. Malformed, truncated and oversized-length
//! inputs must come back as structured [`DecodeError`]s — never a panic,
//! never an absurd allocation. Inputs of zero variables, which decode
//! structurally but which the protocol cannot prove or verify, are errors
//! on every path.

use zkspeed::prelude::*;
use zkspeed::svc::{JobState, RejectCode, Request, Response, SessionRow, SessionState};
use zkspeed_rt::codec::{frame, Decode, DecodeError, Kind, Reader};

fn tiny_instance() -> (Circuit, Witness) {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    mock_circuit(3, SparsityProfile::paper_default(), &mut rng)
}

/// Flip-one-byte / truncate-everywhere sweep of one encoding of a `T`:
/// decoding must return without panicking on every mutation, and must
/// reject every truncation. Returns the number of decodes it ran.
fn sweep<T: Decode>(bytes: &[u8], what: &str) -> usize {
    T::from_bytes(bytes).unwrap_or_else(|e| panic!("{what}: pristine bytes rejected: {e}"));
    let mut cases = 1;
    for i in 0..bytes.len() {
        for pattern in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.to_vec();
            bad[i] ^= pattern;
            // Any outcome but a panic is acceptable: some single-bit flips
            // produce a different valid value (e.g. another selector
            // element), and structural damage must surface as an error.
            let _ = T::from_bytes(&bad);
            cases += 1;
        }
    }
    for len in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..len]).is_err(),
            "{what}: truncation to {len} bytes was accepted"
        );
        cases += 1;
    }
    cases
}

#[test]
fn circuit_bytes_survive_corruption_sweep() {
    let (circuit, _) = tiny_instance();
    let cases = sweep::<Circuit>(&circuit.to_bytes(), "circuit");
    println!("circuit sweep: {cases} decodes");
}

#[test]
fn witness_bytes_survive_corruption_sweep() {
    let (_, witness) = tiny_instance();
    let cases = sweep::<Witness>(&witness.to_bytes(), "witness");
    println!("witness sweep: {cases} decodes");
}

#[test]
fn proof_key_and_srs_bytes_survive_corruption_sweep() {
    let (circuit, witness) = tiny_instance();
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let srs = Srs::try_setup(3, &mut rng, &Serial).expect("small setup");
    let (prover, verifier) = ProofSystem::setup(srs)
        .preprocess(circuit)
        .expect("circuit fits");
    let proof = prover.prove(&witness).expect("valid witness");
    let small_srs = Srs::try_setup(2, &mut rng, &Serial).expect("small setup");
    let cases = sweep::<Proof>(&proof.to_bytes(), "proof")
        + sweep::<VerifyingKey>(&verifier.verifying_key().to_bytes(), "verifying key")
        + sweep::<Srs>(&small_srs.to_bytes(), "μ = 2 SRS");
    println!("proof, verifying-key and SRS sweeps: {cases} decodes");
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
        Request::Hello {
            token: b"token".to_vec(),
        },
        Request::Shutdown,
        Request::ListSessions,
        Request::GetTrace,
    ];
    let responses = [
        Response::CircuitRegistered {
            digest: circuit.digest(),
            num_vars: circuit.num_vars() as u32,
        },
        Response::JobAccepted { job: 7 },
        Response::Rejected {
            code: RejectCode::QueueFull,
            detail: "queue at capacity".into(),
        },
        Response::Status {
            job: 7,
            state: JobState::Queued,
        },
        Response::ProofReady {
            job: 7,
            proof: vec![0x5a; 64],
        },
        Response::Metrics { json: "{}".into() },
        Response::HelloOk {
            protocol: zkspeed_rt::codec::VERSION,
            server: "zkspeed".into(),
        },
        Response::ShuttingDown,
        Response::JobFailed {
            job: 11,
            reason: "wave panicked: injected wave fault (shard 0)".into(),
        },
        Response::SessionList {
            sessions: vec![SessionRow {
                digest: circuit.digest(),
                num_vars: 3,
                state: SessionState::Evicted,
                shard: 1,
                resident_bytes: 0,
                jobs_completed: 2,
            }],
        },
        Response::TraceDump {
            json: "{\"traceEvents\":[]}".into(),
        },
    ];
    let mut cases = 0;
    for request in &requests {
        cases += sweep::<Request>(&request.to_bytes(), "request");
    }
    for response in &responses {
        cases += sweep::<Response>(&response.to_bytes(), "response");
    }
    println!(
        "{} requests and {} responses: {cases} decodes",
        requests.len(),
        responses.len()
    );
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
fn zero_variable_inputs_are_rejected_without_panicking() {
    use zkspeed::hyperplonk::{verify, GateSelectors, PreprocessError, VerifyError};
    use zkspeed::poly::MultilinearPoly;
    use zkspeed_field::Fr;

    // A one-gate circuit and its witness encode, but decode as errors.
    let one_gate = Circuit::with_identity_wiring(&[GateSelectors::addition()]);
    assert_eq!(one_gate.num_vars(), 0);
    assert!(matches!(
        Circuit::from_bytes(&one_gate.to_bytes()),
        Err(DecodeError::InvalidValue {
            what: "circuit num_vars"
        })
    ));
    let column = || MultilinearPoly::new(vec![Fr::zero()]);
    let one_row = Witness::new(column(), column(), column());
    assert!(matches!(
        Witness::from_bytes(&one_row.to_bytes()),
        Err(DecodeError::InvalidValue {
            what: "witness num_vars"
        })
    ));

    // Preprocessing it in memory is an error, in a session and in the
    // service.
    let mut rng = StdRng::seed_from_u64(0x5eed_0000);
    let srs = Srs::try_setup(3, &mut rng, &Serial).expect("small setup");
    let system = ProofSystem::setup(srs.clone());
    assert!(matches!(
        system.preprocess(one_gate.clone()),
        Err(Error::Preprocess(PreprocessError::NoVariables))
    ));
    let svc = ProvingService::start(
        std::sync::Arc::new(srs),
        ServiceConfig::default().with_shards(1),
    );
    assert!(matches!(
        svc.register_circuit(one_gate),
        Err(ServiceError::Preprocess(PreprocessError::NoVariables))
    ));

    // A verifying key or a proof claiming μ = 0 fails to decode; held in
    // memory the key fails to verify, against an honest proof and against
    // one with no rounds, and the key of the proof's circuit rejects the
    // proof of no rounds.
    let (circuit, witness) = tiny_instance();
    let (prover, verifier) = system.preprocess(circuit).expect("fits");
    let proof = prover.prove(&witness).expect("valid witness");
    let mut bytes = verifier.verifying_key().to_bytes();
    bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        VerifyingKey::from_bytes(&bytes),
        Err(DecodeError::InvalidValue {
            what: "verifying-key num_vars"
        })
    ));
    let zero = VerifyingKey {
        num_vars: 0,
        ..verifier.verifying_key().clone()
    };
    let mut empty = proof.clone();
    empty.num_vars = 0;
    empty.gate_zerocheck.rows.clear();
    empty.perm_zerocheck.rows.clear();
    empty.opencheck.rows.clear();
    empty.gprime_opening.quotients.clear();
    assert_eq!(
        Proof::from_bytes(&empty.to_bytes()),
        Err(DecodeError::InvalidValue {
            what: "proof num_vars"
        })
    );
    for p in [&proof, &empty] {
        assert_eq!(verify(&zero, p), Err(VerifyError::MalformedKey));
    }
    assert!(verifier.verify(&empty).is_err());
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
    for kind in (0..=u8::MAX).filter_map(|tag| Kind::from_bytes(&[tag]).ok()) {
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
