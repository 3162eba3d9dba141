//! The Fiat–Shamir transcript.
//!
//! HyperPlonk's protocol steps must run in series because every challenge is
//! bound to the transcript of all values committed so far (Section 3.3.6 of
//! the zkSpeed paper calls SHA3 the protocol's "order-enforcing mechanism").
//! Both the prover and the verifier drive an identical [`Transcript`]; as
//! long as they append the same messages in the same order they derive the
//! same challenges.

use zkspeed_field::Fr;

use zkspeed_rt::codec::Encode;
use zkspeed_rt::Sha3_256;

/// A SHA3-based Fiat–Shamir transcript.
///
/// The transcript maintains a 32-byte running state. Appending a message
/// replaces the state with `SHA3-256(state || label || data)`; squeezing a
/// challenge derives it from the current state and then folds the challenge
/// back in, so later challenges depend on earlier ones.
///
/// # Examples
///
/// ```
/// use zkspeed_transcript::Transcript;
///
/// let mut prover = Transcript::new(b"example");
/// prover.append_message(b"commitment", &[1, 2, 3]);
/// let c1 = prover.challenge_scalar(b"alpha");
///
/// let mut verifier = Transcript::new(b"example");
/// verifier.append_message(b"commitment", &[1, 2, 3]);
/// assert_eq!(c1, verifier.challenge_scalar(b"alpha"));
/// ```
#[derive(Clone, Debug)]
pub struct Transcript {
    state: [u8; 32],
    /// Number of SHA3 invocations (for the hardware model's SHA3 accounting).
    hash_invocations: u64,
}

impl Transcript {
    /// Creates a transcript bound to a protocol domain-separation label.
    pub fn new(domain_label: &[u8]) -> Self {
        let mut t = Self {
            state: [0u8; 32],
            hash_invocations: 0,
        };
        t.append_message(b"domain", domain_label);
        t
    }

    /// Appends a labeled byte string to the transcript.
    pub fn append_message(&mut self, label: &[u8], data: &[u8]) {
        let mut h = Sha3_256::new();
        h.update(&self.state);
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label);
        h.update(&(data.len() as u64).to_le_bytes());
        h.update(data);
        self.state = h.finalize();
        self.hash_invocations += 1;
    }

    /// Appends a scalar field element.
    pub fn append_scalar(&mut self, label: &[u8], scalar: &Fr) {
        self.append_scalars(label, std::slice::from_ref(scalar));
    }

    /// Appends a slice of scalar field elements.
    pub fn append_scalars(&mut self, label: &[u8], scalars: &[Fr]) {
        let mut bytes = Vec::with_capacity(scalars.len() * 32);
        Fr::encode_slice(scalars, &mut bytes);
        self.append_message(label, &bytes);
    }

    /// Derives a challenge scalar bound to everything appended so far.
    pub fn challenge_scalar(&mut self, label: &[u8]) -> Fr {
        // Derive 64 bytes (two hashes) and reduce modulo r so the challenge
        // distribution is statistically uniform.
        let mut h0 = Sha3_256::new();
        h0.update(&self.state);
        h0.update(label);
        h0.update(&[0u8]);
        let d0 = h0.finalize();

        let mut h1 = Sha3_256::new();
        h1.update(&self.state);
        h1.update(label);
        h1.update(&[1u8]);
        let d1 = h1.finalize();
        self.hash_invocations += 2;

        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d0);
        wide[32..].copy_from_slice(&d1);
        let challenge = Fr::from_bytes_le_mod_order(&wide);

        // Fold the challenge back into the state so subsequent challenges
        // differ even with identical labels.
        self.append_scalar(b"challenge", &challenge);
        challenge
    }

    /// Derives `n` challenge scalars.
    pub fn challenge_scalars(&mut self, label: &[u8], n: usize) -> Vec<Fr> {
        (0..n).map(|_| self.challenge_scalar(label)).collect()
    }

    /// Returns the number of SHA3-256 invocations so far. The zkSpeed SHA3
    /// unit model uses this count to estimate hashing latency per protocol
    /// step.
    pub fn hash_invocations(&self) -> u64 {
        self.hash_invocations
    }

    /// Returns the current 32-byte transcript state (for debugging and for
    /// binding sub-protocols together in tests).
    pub fn state(&self) -> [u8; 32] {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Transcript::new(b"t");
        let mut b = Transcript::new(b"t");
        a.append_message(b"x", b"1");
        a.append_message(b"y", b"2");
        b.append_message(b"x", b"1");
        b.append_message(b"y", b"2");
        assert_eq!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));

        let mut c = Transcript::new(b"t");
        c.append_message(b"y", b"2");
        c.append_message(b"x", b"1");
        let mut d = Transcript::new(b"t");
        d.append_message(b"x", b"1");
        d.append_message(b"y", b"2");
        assert_ne!(c.challenge_scalar(b"c"), d.challenge_scalar(b"c"));
    }

    #[test]
    fn different_domains_differ() {
        let mut a = Transcript::new(b"protocol-a");
        let mut b = Transcript::new(b"protocol-b");
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));
    }

    #[test]
    fn successive_challenges_differ() {
        let mut t = Transcript::new(b"t");
        let c1 = t.challenge_scalar(b"c");
        let c2 = t.challenge_scalar(b"c");
        assert_ne!(c1, c2);
        let cs = t.challenge_scalars(b"batch", 8);
        for i in 0..cs.len() {
            for j in (i + 1)..cs.len() {
                assert_ne!(cs[i], cs[j]);
            }
        }
    }

    #[test]
    fn scalar_append_binds_value() {
        let mut a = Transcript::new(b"t");
        let mut b = Transcript::new(b"t");
        a.append_scalar(b"v", &Fr::from_u64(1));
        b.append_scalar(b"v", &Fr::from_u64(2));
        assert_ne!(a.challenge_scalar(b"c"), b.challenge_scalar(b"c"));

        let mut c = Transcript::new(b"t");
        let mut d = Transcript::new(b"t");
        c.append_scalars(b"v", &[Fr::from_u64(3), Fr::from_u64(4)]);
        d.append_scalars(b"v", &[Fr::from_u64(3), Fr::from_u64(4)]);
        assert_eq!(c.challenge_scalar(b"c"), d.challenge_scalar(b"c"));
    }

    #[test]
    fn hash_invocations_are_counted() {
        let mut t = Transcript::new(b"t");
        let n0 = t.hash_invocations();
        t.append_message(b"m", b"data");
        assert_eq!(t.hash_invocations(), n0 + 1);
        let _ = t.challenge_scalar(b"c");
        // Two squeeze hashes plus one fold-back append.
        assert_eq!(t.hash_invocations(), n0 + 4);
    }

    #[test]
    fn challenges_are_nontrivial_field_elements() {
        let mut t = Transcript::new(b"t");
        let c = t.challenge_scalar(b"c");
        assert!(!c.is_zero());
        assert!(!c.is_one());
    }
}
