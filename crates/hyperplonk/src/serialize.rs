//! Canonical versioned byte encodings of the HyperPlonk artifacts, each
//! declared once as a field list (see [`zkspeed_rt::codec`]): the proof,
//! verifying-key and witness formats here, the circuit's beside its private
//! fields in `circuit.rs`, and the field adapters they share.
//!
//! Proof bytes are what a proving service actually ships: they can be
//! hashed, persisted, diffed across versions and replayed into a verifier
//! on another machine. Every artifact starts with the shared
//! `magic + version + kind` header; decoding validates the header, every
//! group point (canonical coordinates, on-curve) and every field element
//! (canonical, below the modulus), and rejects trailing bytes — so
//! `Proof::from_bytes(proof.to_bytes())` round-trips exactly and corrupt
//! inputs fail with a structured [`DecodeError`].

use zkspeed_field::Fr;
use zkspeed_pcs::{NumVars, Quotients, Srs};
use zkspeed_poly::MultilinearPoly;
use zkspeed_rt::codec::{Decode, DecodeError, Encode, Fixed, Kind, Reader, Via};
use zkspeed_rt::Sha3_256;
use zkspeed_sumcheck::Rows;

use crate::circuit::{Circuit, Witness};
use crate::keys::VerifyingKey;
use crate::proof::{group_labels, BatchEvaluations, Proof, QUERY_GROUPS};
use crate::prover::{GATE_SUMCHECK_DEGREE, OPENCHECK_DEGREE, PERM_SUMCHECK_DEGREE};

// A ZeroCheck row samples the cofactor `t_i`, one degree below the masked
// round polynomial; an OpenCheck row samples `g_i` itself.
zkspeed_rt::impl_codec_struct!(Proof: Kind::Proof {
    num_vars: NumVars("proof num_vars", 1, 0),
    witness_commitments,
    gate_zerocheck: Rows(num_vars, GATE_SUMCHECK_DEGREE - 1),
    phi_commitment,
    pi_commitment,
    perm_zerocheck: Rows(num_vars, PERM_SUMCHECK_DEGREE - 1),
    evaluations: GroupShaped,
    opencheck: Rows(num_vars, OPENCHECK_DEGREE),
    combined_evaluations: Fixed(QUERY_GROUPS),
    gprime_opening: Quotients(num_vars),
});

zkspeed_rt::impl_codec_struct!(VerifyingKey: Kind::VerifyingKey {
    num_vars: NumVars("verifying-key num_vars", 1, 0),
    srs: KeySrs(num_vars),
    selector_commitments,
    sigma_commitments,
});

zkspeed_rt::impl_codec_struct!(Witness: Kind::Witness {
    columns: WitnessColumns,
});

impl Circuit {
    /// The circuit's canonical digest: SHA3-256 over [`Circuit::to_bytes`].
    ///
    /// This is the key a proving service registers sessions under — two
    /// circuits share a digest exactly when their canonical encodings are
    /// byte-identical.
    pub fn digest(&self) -> [u8; 32] {
        Sha3_256::digest(&self.to_bytes())
    }
}

/// The batch evaluations in [`query_groups`](crate::query_groups)' shape,
/// back to back with no length prefixes.
struct GroupShaped;

impl Via<BatchEvaluations> for GroupShaped {
    type Args = ();

    fn encode(value: &BatchEvaluations, out: &mut Vec<u8>) {
        for group in &value.values {
            Fixed::encode(group, out);
        }
    }

    fn decode(r: &mut Reader<'_>, (): ()) -> Result<BatchEvaluations, DecodeError> {
        let values = group_labels()
            .iter()
            .map(|labels| Fixed::decode(r, (labels.len(),)))
            .collect::<Result<_, _>>()?;
        Ok(BatchEvaluations { values })
    }
}

/// A verifying key's SRS: the embedded artifact behind its `u32` byte
/// length. Decoding checks that the SRS serves the key's `num_vars`.
struct KeySrs;

impl Via<Srs> for KeySrs {
    type Args = (usize,);

    fn encode(value: &Srs, out: &mut Vec<u8>) {
        value.to_bytes().encode(out);
    }

    fn decode(r: &mut Reader<'_>, (num_vars,): (usize,)) -> Result<Srs, DecodeError> {
        let len = r.count(1, "embedded SRS blob")?;
        let srs = Srs::from_bytes(r.take(len)?)?;
        if num_vars > srs.num_vars() {
            return Err(DecodeError::InvalidLength {
                what: "verifying-key num_vars",
                expected: srs.num_vars(),
                found: num_vars,
            });
        }
        Ok(srs)
    }
}

/// `N` tables of `2^μ` field elements each, with no length prefixes.
pub(crate) struct Tables;

impl<const N: usize> Via<[MultilinearPoly; N]> for Tables {
    type Args = (usize,);

    fn encode(value: &[MultilinearPoly; N], out: &mut Vec<u8>) {
        for table in value {
            Fr::encode_slice(table.evaluations(), out);
        }
    }

    fn decode(
        r: &mut Reader<'_>,
        (num_vars,): (usize,),
    ) -> Result<[MultilinearPoly; N], DecodeError> {
        let tables = (0..N)
            .map(|_| Ok(MultilinearPoly::new(Fr::decode_vec(r, 1 << num_vars)?)))
            .collect::<Result<Vec<_>, DecodeError>>()?;
        Ok(tables
            .try_into()
            .unwrap_or_else(|_| unreachable!("N tables")))
    }
}

/// A witness's `num_vars`, then its three [`Tables`].
struct WitnessColumns;

impl Via<[MultilinearPoly; 3]> for WitnessColumns {
    type Args = ();

    fn encode(value: &[MultilinearPoly; 3], out: &mut Vec<u8>) {
        NumVars::encode(&value[0].num_vars(), out);
        Tables::encode(value, out);
    }

    fn decode(r: &mut Reader<'_>, (): ()) -> Result<[MultilinearPoly; 3], DecodeError> {
        let num_vars = NumVars::decode(r, ("witness num_vars", 1, 3 * 32))?;
        Tables::decode(r, (num_vars,))
    }
}

/// The three wiring-permutation columns, `2^μ` little-endian `u64` slot
/// indices each. Decoding checks that they permute the `3·2^μ` slots.
pub(crate) struct Permutation;

impl Via<[Vec<usize>; 3]> for Permutation {
    type Args = (usize,);

    fn encode(value: &[Vec<usize>; 3], out: &mut Vec<u8>) {
        for &slot in value.iter().flatten() {
            (slot as u64).encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>, (num_vars,): (usize,)) -> Result<[Vec<usize>; 3], DecodeError> {
        let n = 1usize << num_vars;
        let mut seen = vec![false; 3 * n];
        let mut columns: [Vec<usize>; 3] = Default::default();
        for column in &mut columns {
            column.reserve_exact(n);
            for _ in 0..n {
                let slot = u64::decode(r)? as usize;
                if slot >= 3 * n || seen[slot] {
                    return Err(DecodeError::InvalidValue {
                        what: "wiring permutation",
                    });
                }
                seen[slot] = true;
                column.push(slot);
            }
        }
        Ok(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::try_preprocess;
    use crate::mock::{mock_circuit, SparsityProfile};
    use crate::prover::{prove, ExecCtx};
    use crate::verifier::verify;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn proof_and_vk() -> (Proof, VerifyingKey) {
        let mut r = StdRng::seed_from_u64(0x5eed_0015);
        let srs = Srs::try_setup(4, &mut r, &Serial).unwrap();
        let (circuit, witness) = mock_circuit(4, SparsityProfile::paper_default(), &mut r);
        let (pk, vk) = try_preprocess(circuit, &srs, &Serial).expect("circuit fits");
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
    fn proof_size_is_the_documented_formula() {
        for mu in 1..=8 {
            let mut r = StdRng::seed_from_u64(0x5eed_0019 + mu as u64);
            let srs = Srs::try_setup(mu, &mut r, &Serial).unwrap();
            let (circuit, witness) = mock_circuit(mu, SparsityProfile::paper_default(), &mut r);
            let (pk, _) = try_preprocess(circuit, &srs, &Serial).expect("circuit fits");
            let (proof, _) = prove(&pk, &witness, &ExecCtx::default()).expect("valid witness");
            assert_eq!(proof.to_bytes().len(), 1329 + 385 * mu, "μ = {mu}");
        }
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

        // A version-5 proof wrote a length before every row, group of
        // evaluations and the quotients: it fails as such, never misparsed.
        for version in [5, 0x7f] {
            let mut bad_version = bytes.clone();
            bad_version[4] = version;
            assert_eq!(
                Proof::from_bytes(&bad_version),
                Err(DecodeError::UnsupportedVersion {
                    found: version.into()
                })
            );
        }

        // Rows of another μ read other bytes, and a μ past any SRS fails
        // before a row is allocated.
        for num_vars in [0u32, 3, 5, 20] {
            let mut resized = bytes.clone();
            resized[8..12].copy_from_slice(&num_vars.to_le_bytes());
            assert!(Proof::from_bytes(&resized).is_err(), "μ = {num_vars}");
        }
        let mut huge = bytes.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Proof::from_bytes(&huge),
            Err(DecodeError::InvalidLength {
                what: "proof num_vars",
                ..
            })
        ));

        // A verifying-key blob is not a proof.
        let (_, vk) = proof_and_vk();
        assert!(matches!(
            Proof::from_bytes(&vk.to_bytes()),
            Err(DecodeError::WrongKind {
                expected: 1,
                found: 2
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
                expected: 4,
                found: 5
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
