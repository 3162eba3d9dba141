//! Canonical versioned byte encodings for [`Proof`] and [`VerifyingKey`].
//!
//! Proof bytes are what a proving service actually ships: they can be
//! hashed, persisted, diffed across versions and replayed into a verifier
//! on another machine. Every artifact starts with the shared
//! `magic + version + kind` header of [`zkspeed_rt::codec`]; decoding
//! validates the header, every group point (canonical coordinates,
//! on-curve) and every field element (canonical, below the modulus), and
//! rejects trailing bytes — so `Proof::from_bytes(proof.to_bytes())`
//! round-trips exactly and corrupt inputs fail with a structured
//! [`DecodeError`].
//!
//! The encodings are little-endian with `u32` length prefixes:
//!
//! * **Proof** (kind 1): witness commitments, gate ZeroCheck rounds, `φ`/`π`
//!   commitments, wiring ZeroCheck rounds, batch evaluations, OpenCheck
//!   rounds, combined evaluations, `g′` opening — exactly the field order of
//!   [`Proof`];
//! * **VerifyingKey** (kind 2): `num_vars`, the embedded SRS blob
//!   (length-prefixed, self-describing), selector and sigma commitments.

use zkspeed_field::Fr;
use zkspeed_pcs::{Commitment, OpeningProof, Srs, MAX_NUM_VARS};
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{self, DecodeError, Reader};
use zkspeed_rt::Sha3_256;
use zkspeed_sumcheck::SumcheckProof;

use crate::circuit::{Circuit, GateSelectors, Witness};
use crate::keys::VerifyingKey;
use crate::proof::{BatchEvaluations, Proof};

/// Artifact kind tag of an encoded [`Proof`].
pub const KIND_PROOF: u8 = codec::Kind::Proof as u8;

/// Artifact kind tag of an encoded [`VerifyingKey`].
pub const KIND_VERIFYING_KEY: u8 = codec::Kind::VerifyingKey as u8;

/// Artifact kind tag of an encoded [`Circuit`].
pub const KIND_CIRCUIT: u8 = codec::Kind::Circuit as u8;

/// Artifact kind tag of an encoded [`Witness`].
pub const KIND_WITNESS: u8 = codec::Kind::Witness as u8;

fn write_fr(out: &mut Vec<u8>, value: &Fr) {
    out.extend_from_slice(&value.to_bytes_le());
}

fn read_fr(reader: &mut Reader<'_>) -> Result<Fr, DecodeError> {
    Fr::from_bytes_le(reader.take(32)?).ok_or(DecodeError::InvalidValue {
        what: "non-canonical Fr element",
    })
}

fn write_fr_list(out: &mut Vec<u8>, values: &[Fr]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        write_fr(out, v);
    }
}

fn read_fr_list(reader: &mut Reader<'_>, what: &'static str) -> Result<Vec<Fr>, DecodeError> {
    let count = reader.count(32, what)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(read_fr(reader)?);
    }
    Ok(out)
}

impl Proof {
    /// Serializes the proof into its canonical versioned byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes() + 64);
        codec::write_header(&mut out, KIND_PROOF);
        for com in &self.witness_commitments {
            com.write_canonical(&mut out);
        }
        self.gate_zerocheck.write_canonical(&mut out);
        self.phi_commitment.write_canonical(&mut out);
        self.pi_commitment.write_canonical(&mut out);
        self.perm_zerocheck.write_canonical(&mut out);
        out.extend_from_slice(&(self.evaluations.values.len() as u32).to_le_bytes());
        for group in &self.evaluations.values {
            write_fr_list(&mut out, group);
        }
        self.opencheck.write_canonical(&mut out);
        write_fr_list(&mut out, &self.combined_evaluations);
        self.gprime_opening.write_canonical(&mut out);
        out
    }

    /// Decodes a byte string produced by [`Proof::to_bytes`].
    ///
    /// The decode is structural: shapes, headers, point validity and field
    /// canonicity are enforced here, while the cryptographic validity of the
    /// proof is established by the verifier.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        reader.header(KIND_PROOF)?;
        let witness_commitments = [
            Commitment::read_canonical(&mut reader)?,
            Commitment::read_canonical(&mut reader)?,
            Commitment::read_canonical(&mut reader)?,
        ];
        let gate_zerocheck = SumcheckProof::read_canonical(&mut reader)?;
        let phi_commitment = Commitment::read_canonical(&mut reader)?;
        let pi_commitment = Commitment::read_canonical(&mut reader)?;
        let perm_zerocheck = SumcheckProof::read_canonical(&mut reader)?;
        let num_groups = reader.count(4, "batch-evaluation groups")?;
        let mut values = Vec::with_capacity(num_groups);
        for _ in 0..num_groups {
            values.push(read_fr_list(&mut reader, "batch-evaluation group")?);
        }
        let opencheck = SumcheckProof::read_canonical(&mut reader)?;
        let combined_evaluations = read_fr_list(&mut reader, "combined evaluations")?;
        let gprime_opening = OpeningProof::read_canonical(&mut reader)?;
        reader.finish()?;
        Ok(Self {
            witness_commitments,
            gate_zerocheck,
            phi_commitment,
            pi_commitment,
            perm_zerocheck,
            evaluations: BatchEvaluations { values },
            opencheck,
            combined_evaluations,
            gprime_opening,
        })
    }
}

impl VerifyingKey {
    /// Serializes the verifying key (including its SRS) into the canonical
    /// versioned byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let srs_blob = self.srs.to_bytes();
        let mut out = Vec::with_capacity(srs_blob.len() + 8 * 97 + 32);
        codec::write_header(&mut out, KIND_VERIFYING_KEY);
        out.extend_from_slice(&(self.num_vars as u32).to_le_bytes());
        out.extend_from_slice(&(srs_blob.len() as u32).to_le_bytes());
        out.extend_from_slice(&srs_blob);
        for com in &self.selector_commitments {
            com.write_canonical(&mut out);
        }
        for com in &self.sigma_commitments {
            com.write_canonical(&mut out);
        }
        out
    }

    /// Decodes a byte string produced by [`VerifyingKey::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        reader.header(KIND_VERIFYING_KEY)?;
        let num_vars = reader.u32()? as usize;
        let srs_len = reader.count(1, "embedded SRS blob")?;
        let srs = Srs::from_bytes(reader.take(srs_len)?)?;
        if num_vars > srs.num_vars() {
            return Err(DecodeError::InvalidLength {
                what: "verifying-key num_vars",
                expected: srs.num_vars(),
                found: num_vars,
            });
        }
        let mut selectors = Vec::with_capacity(5);
        for _ in 0..5 {
            selectors.push(Commitment::read_canonical(&mut reader)?);
        }
        let mut sigmas = Vec::with_capacity(3);
        for _ in 0..3 {
            sigmas.push(Commitment::read_canonical(&mut reader)?);
        }
        reader.finish()?;
        Ok(Self {
            num_vars,
            srs,
            selector_commitments: [
                selectors[0],
                selectors[1],
                selectors[2],
                selectors[3],
                selectors[4],
            ],
            sigma_commitments: [sigmas[0], sigmas[1], sigmas[2]],
        })
    }
}

impl Circuit {
    /// Serializes the circuit into its canonical versioned byte encoding:
    /// the shared header (kind [`KIND_CIRCUIT`]), `num_vars`, the five
    /// selector tables `q_L, q_R, q_M, q_O, q_C` (each `2^μ` field
    /// elements), and the three wiring-permutation columns (each `2^μ`
    /// little-endian `u64` slot indices).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.num_gates();
        let mut out = Vec::with_capacity(12 + n * (5 * 32 + 3 * 8));
        codec::write_header(&mut out, KIND_CIRCUIT);
        out.extend_from_slice(&(self.num_vars() as u32).to_le_bytes());
        for selector in self.selectors() {
            for v in selector.evaluations() {
                write_fr(&mut out, v);
            }
        }
        for column in 0..3 {
            for gate in 0..n {
                out.extend_from_slice(&(self.sigma_slot(column, gate) as u64).to_le_bytes());
            }
        }
        out
    }

    /// Decodes a byte string produced by [`Circuit::to_bytes`], validating
    /// the header, the size bound, every selector element's canonicity and
    /// that the wiring columns form a permutation of the `3·2^μ` slots.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        reader.header(KIND_CIRCUIT)?;
        let num_vars = read_num_vars(&mut reader, "circuit num_vars")?;
        let n = 1usize << num_vars;
        // The whole payload size is implied by num_vars; reject short input
        // before allocating gate tables.
        let needed = n * (5 * 32 + 3 * 8);
        if reader.remaining() < needed {
            return Err(DecodeError::UnexpectedEnd {
                needed,
                remaining: reader.remaining(),
            });
        }
        let mut selectors = Vec::with_capacity(5);
        for _ in 0..5 {
            let mut table = Vec::with_capacity(n);
            for _ in 0..n {
                table.push(read_fr(&mut reader)?);
            }
            selectors.push(table);
        }
        let mut sigma = Vec::with_capacity(3 * n);
        let mut seen = vec![false; 3 * n];
        for _ in 0..3 * n {
            let slot = reader.u64()? as usize;
            if slot >= 3 * n || seen[slot] {
                return Err(DecodeError::InvalidValue {
                    what: "wiring permutation",
                });
            }
            seen[slot] = true;
            sigma.push(slot);
        }
        reader.finish()?;
        let gates: Vec<GateSelectors> = (0..n)
            .map(|i| GateSelectors {
                q_l: selectors[0][i],
                q_r: selectors[1][i],
                q_m: selectors[2][i],
                q_o: selectors[3][i],
                q_c: selectors[4][i],
            })
            .collect();
        Ok(Circuit::new(&gates, sigma))
    }

    /// The circuit's canonical digest: SHA3-256 over [`Circuit::to_bytes`].
    ///
    /// This is the key a proving service registers sessions under — two
    /// circuits share a digest exactly when their canonical encodings are
    /// byte-identical.
    pub fn digest(&self) -> [u8; 32] {
        Sha3_256::digest(&self.to_bytes())
    }
}

impl Witness {
    /// Serializes the witness assignment into its canonical versioned byte
    /// encoding: the shared header (kind [`KIND_WITNESS`]), `num_vars`, and
    /// the three execution-trace columns `w₁, w₂, w₃` (each `2^μ` field
    /// elements).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = 1usize << self.num_vars();
        let mut out = Vec::with_capacity(12 + n * 3 * 32);
        codec::write_header(&mut out, KIND_WITNESS);
        out.extend_from_slice(&(self.num_vars() as u32).to_le_bytes());
        for column in &self.columns {
            for v in column.evaluations() {
                write_fr(&mut out, v);
            }
        }
        out
    }

    /// Decodes a byte string produced by [`Witness::to_bytes`].
    ///
    /// Structural validation only (header, size bound, element canonicity);
    /// whether the assignment satisfies a circuit is checked by the prover.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        reader.header(KIND_WITNESS)?;
        let num_vars = read_num_vars(&mut reader, "witness num_vars")?;
        let n = 1usize << num_vars;
        let needed = n * 3 * 32;
        if reader.remaining() < needed {
            return Err(DecodeError::UnexpectedEnd {
                needed,
                remaining: reader.remaining(),
            });
        }
        let mut columns = Vec::with_capacity(3);
        for _ in 0..3 {
            let mut table = Vec::with_capacity(n);
            for _ in 0..n {
                table.push(read_fr(&mut reader)?);
            }
            columns.push(MultilinearPoly::new(table));
        }
        reader.finish()?;
        let mut iter = columns.into_iter();
        Ok(Witness::new(
            iter.next().expect("three columns"),
            iter.next().expect("three columns"),
            iter.next().expect("three columns"),
        ))
    }
}

/// Reads a `num_vars` field and bounds it by the largest SRS any session
/// could serve ([`MAX_NUM_VARS`]), so a corrupt size cannot request a
/// `2^4294967295`-entry allocation.
fn read_num_vars(reader: &mut Reader<'_>, what: &'static str) -> Result<usize, DecodeError> {
    let num_vars = reader.u32()? as usize;
    if num_vars > MAX_NUM_VARS {
        return Err(DecodeError::InvalidLength {
            what,
            expected: MAX_NUM_VARS,
            found: num_vars,
        });
    }
    Ok(num_vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::try_preprocess;
    use crate::mock::{mock_circuit, SparsityProfile};
    use crate::prover::{prove, ExecCtx};
    use crate::verifier::verify;
    use zkspeed_pcs::PrecomputeBudget;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn proof_and_vk() -> (Proof, VerifyingKey) {
        let mut r = StdRng::seed_from_u64(0x5eed_0015);
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut r);
        let budget = PrecomputeBudget::disabled();
        let (pk, vk) = try_preprocess(circuit, &srs, &Serial, &budget).expect("circuit fits");
        let (proof, _) = prove(&pk, &witness, &ExecCtx::default()).expect("valid witness");
        (proof, vk)
    }

    #[test]
    fn proof_bytes_roundtrip_exactly() {
        let (proof, vk) = proof_and_vk();
        let bytes = proof.to_bytes();
        let back = Proof::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(back, proof);
        // The decoded proof still verifies.
        verify(&vk, &back).expect("decoded proof verifies");
        // Determinism: encoding is canonical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn verifying_key_bytes_roundtrip() {
        let (proof, vk) = proof_and_vk();
        let bytes = vk.to_bytes();
        let back = VerifyingKey::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(back.num_vars, vk.num_vars);
        assert_eq!(back.selector_commitments, vk.selector_commitments);
        assert_eq!(back.sigma_commitments, vk.sigma_commitments);
        verify(&back, &proof).expect("proof verifies against decoded key");
    }

    #[test]
    fn corrupt_proof_headers_are_rejected() {
        let (proof, _) = proof_and_vk();
        let bytes = proof.to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Proof::from_bytes(&bad_magic),
            Err(DecodeError::BadMagic { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0x7f;
        assert!(matches!(
            Proof::from_bytes(&bad_version),
            Err(DecodeError::UnsupportedVersion { found: 0x7f })
        ));

        // A verifying-key blob is not a proof.
        let (_, vk) = proof_and_vk();
        assert!(matches!(
            Proof::from_bytes(&vk.to_bytes()),
            Err(DecodeError::WrongKind {
                expected: KIND_PROOF,
                found: KIND_VERIFYING_KEY
            })
        ));

        // Truncation and trailing garbage are rejected.
        assert!(Proof::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Proof::from_bytes(&long),
            Err(DecodeError::TrailingBytes { count: 1 })
        ));

        // Corrupting a point's coordinate bytes breaks curve membership.
        let mut bad_point = bytes.clone();
        bad_point[8] ^= 1;
        assert!(Proof::from_bytes(&bad_point).is_err());
    }

    #[test]
    fn circuit_bytes_roundtrip_and_digest_is_canonical() {
        let mut r = StdRng::seed_from_u64(0x5eed_0016);
        let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut r);
        let bytes = circuit.to_bytes();
        let back = Circuit::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(back.num_vars(), circuit.num_vars());
        for i in 0..circuit.num_gates() {
            assert_eq!(back.gate(i), circuit.gate(i));
            for column in 0..3 {
                assert_eq!(back.sigma_slot(column, i), circuit.sigma_slot(column, i));
            }
        }
        // Canonical: re-encoding is byte-identical, and the digest keys on
        // exactly those bytes.
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.digest(), circuit.digest());
        // The decoded circuit still accepts its witness.
        assert!(back.check_witness(&witness).is_ok());
        // A different circuit gets a different digest.
        let (other, _) = mock_circuit(4, SparsityProfile::paper_default(), &mut r);
        assert_ne!(other.digest(), circuit.digest());
    }

    #[test]
    fn witness_bytes_roundtrip() {
        let mut r = StdRng::seed_from_u64(0x5eed_0017);
        let (circuit, witness) = mock_circuit(3, SparsityProfile::paper_default(), &mut r);
        let bytes = witness.to_bytes();
        let back = Witness::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(back.num_vars(), witness.num_vars());
        for (a, b) in back.columns.iter().zip(witness.columns.iter()) {
            assert_eq!(a.evaluations(), b.evaluations());
        }
        assert_eq!(back.to_bytes(), bytes);
        assert!(circuit.check_witness(&back).is_ok());
    }

    #[test]
    fn corrupt_circuit_and_witness_bytes_are_rejected() {
        let mut r = StdRng::seed_from_u64(0x5eed_0018);
        let (circuit, witness) = mock_circuit(3, SparsityProfile::paper_default(), &mut r);

        let bytes = circuit.to_bytes();
        // Oversized num_vars fails before allocating.
        let mut huge = bytes.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Circuit::from_bytes(&huge),
            Err(DecodeError::InvalidLength {
                what: "circuit num_vars",
                ..
            })
        ));
        // A plausible num_vars with a short payload fails the size check.
        let mut bigger = bytes.clone();
        bigger[8..12].copy_from_slice(&10u32.to_le_bytes());
        assert!(matches!(
            Circuit::from_bytes(&bigger),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
        // Breaking the permutation (duplicate slot) is structural, not a
        // panic.
        let sigma_start = bytes.len() - 3 * circuit.num_gates() * 8;
        let mut bad_sigma = bytes.clone();
        bad_sigma.copy_within(sigma_start..sigma_start + 8, sigma_start + 8);
        assert!(matches!(
            Circuit::from_bytes(&bad_sigma),
            Err(DecodeError::InvalidValue {
                what: "wiring permutation",
            })
        ));
        // Truncation / trailing bytes.
        assert!(Circuit::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Circuit::from_bytes(&long),
            Err(DecodeError::TrailingBytes { .. })
        ));
        // A witness blob is not a circuit.
        assert!(matches!(
            Circuit::from_bytes(&witness.to_bytes()),
            Err(DecodeError::WrongKind {
                expected: KIND_CIRCUIT,
                found: KIND_WITNESS
            })
        ));

        let wbytes = witness.to_bytes();
        let mut huge = wbytes.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Witness::from_bytes(&huge).is_err());
        // Non-canonical field element (all-ones 32 bytes ≥ the modulus).
        let mut bad_fr = wbytes.clone();
        bad_fr[12..44].fill(0xff);
        assert!(matches!(
            Witness::from_bytes(&bad_fr),
            Err(DecodeError::InvalidValue { .. })
        ));
        assert!(Witness::from_bytes(&wbytes[..wbytes.len() - 1]).is_err());
    }
}
