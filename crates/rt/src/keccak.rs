//! A from-scratch implementation of the Keccak-f[1600] permutation and the
//! SHA3-256 hash function (FIPS 202).
//!
//! HyperPlonk is rendered non-interactive with the Fiat–Shamir transform:
//! every verifier challenge is derived by hashing the proof transcript with
//! SHA3. zkSpeed dedicates a small SHA3 unit (an OpenCores IP block in the
//! paper) to this; here we provide the functional counterpart that the
//! hardware model's SHA3 invocation counts are validated against.

/// Keccak round constants for the ι step (24 rounds). Public so the
/// in-circuit Keccak gadget (`zkspeed-hyperplonk`) can constrain the same
/// constants it is cross-checked against.
pub const KECCAK_ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the ρ step, indexed as `RHO[x][y]` with the state
/// lane `A[x][y]` laid out as in FIPS 202.
const RHO: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// Applies the Keccak-f[1600] permutation in place.
///
/// The state is a 5×5 array of 64-bit lanes, indexed `state[x + 5 * y]`.
pub fn keccak_f1600(state: &mut [u64; 25]) {
    keccak_f1600_rounds(state, KECCAK_ROUND_CONSTANTS.len());
}

/// Applies the first `rounds` rounds of Keccak-f[1600] in place.
///
/// `rounds == 24` is the full permutation; smaller counts are the
/// reduced-round variants the in-circuit Keccak gadget uses to keep test
/// circuits small while staying bit-compatible with this native
/// implementation.
///
/// # Panics
///
/// Panics if `rounds > 24`.
pub fn keccak_f1600_rounds(state: &mut [u64; 25], rounds: usize) {
    assert!(rounds <= KECCAK_ROUND_CONSTANTS.len(), "at most 24 rounds");
    for &rc in KECCAK_ROUND_CONSTANTS[..rounds].iter() {
        // θ step.
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }

        // ρ and π steps.
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[x + 5 * y].rotate_left(RHO[x][y]);
            }
        }

        // χ step.
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }

        // ι step.
        state[0] ^= rc;
    }
}

/// Number of bytes absorbed per permutation for SHA3-256 (the "rate").
pub const SHA3_256_RATE: usize = 136;

/// Incremental SHA3-256 hasher.
///
/// # Examples
///
/// ```
/// use zkspeed_rt::Sha3_256;
///
/// let mut h = Sha3_256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Sha3_256 {
    state: [u64; 25],
    /// The bytes of a block not yet absorbed, `tail[..tail_len]`: always
    /// fewer than a rate.
    tail: [u8; SHA3_256_RATE],
    tail_len: usize,
    /// Total number of Keccak-f permutations applied so far; the hardware
    /// model uses this to account for SHA3 unit invocations.
    permutations: u64,
}

impl Default for Sha3_256 {
    fn default() -> Self {
        Self {
            state: [0; 25],
            tail: [0; SHA3_256_RATE],
            tail_len: 0,
            permutations: 0,
        }
    }
}

impl Sha3_256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `data` into the hash state: whole blocks straight from
    /// `data`, so the cost is linear in its length however it is chunked.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let take = data.len().min(SHA3_256_RATE - self.tail_len);
            self.tail[self.tail_len..][..take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < SHA3_256_RATE {
                return;
            }
            let block = self.tail;
            self.absorb_block(&block);
            self.tail_len = 0;
        }
        let mut blocks = data.chunks_exact(SHA3_256_RATE);
        for block in &mut blocks {
            self.absorb_block(block);
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // SHA3 domain-separation padding: 0x06 ... 0x80 within the rate.
        let mut block = [0u8; SHA3_256_RATE];
        block[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        block[self.tail_len] = 0x06;
        block[SHA3_256_RATE - 1] |= 0x80;
        self.absorb_block(&block);

        let mut out = [0u8; 32];
        for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&self.state[i].to_le_bytes());
        }
        out
    }

    /// One-shot convenience wrapper: `SHA3-256(data)`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Returns the number of Keccak-f[1600] permutations applied so far.
    pub fn permutation_count(&self) -> u64 {
        self.permutations
    }

    fn absorb_block(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), SHA3_256_RATE);
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            self.state[i] ^= u64::from_le_bytes(b);
        }
        keccak_f1600(&mut self.state);
        self.permutations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha3_256_empty_vector() {
        assert_eq!(
            hex(&Sha3_256::digest(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc_vector() {
        assert_eq!(
            hex(&Sha3_256::digest(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn sha3_256_long_input_crosses_rate_boundary() {
        // "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex(&Sha3_256::digest(msg)),
            "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"
        );
        // Exactly one rate block of data plus one byte.
        let long = vec![0x61u8; SHA3_256_RATE + 1];
        let once = Sha3_256::digest(&long);
        let mut h = Sha3_256::new();
        for b in long.iter() {
            h.update(core::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), once);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let once = Sha3_256::digest(&data);
        let mut h = Sha3_256::new();
        h.update(&data[..137]);
        h.update(&data[137..500]);
        h.update(&data[500..]);
        assert_eq!(h.finalize(), once);
    }

    #[test]
    fn multi_block_input_hashes_alike_however_chunked() {
        // Ten blocks and a ragged tail: one-shot, byte by byte, and in
        // chunks of odd sizes that straddle every block boundary.
        let data: Vec<u8> = (0..SHA3_256_RATE * 10 + 77)
            .map(|i| (i * 31 % 253) as u8)
            .collect();
        let once = Sha3_256::digest(&data);
        let mut bytewise = Sha3_256::new();
        for b in &data {
            bytewise.update(core::slice::from_ref(b));
        }
        assert_eq!(bytewise.permutation_count(), 10);
        assert_eq!(bytewise.finalize(), once);
        for chunk in [1, 7, 135, 137, 271, 500] {
            let mut h = Sha3_256::new();
            let mut rest = &data[..];
            let mut size = chunk;
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(size.min(rest.len()));
                h.update(head);
                rest = tail;
                size = size % 300 + 13;
            }
            assert_eq!(h.permutation_count(), 10, "chunks from {chunk}");
            assert_eq!(h.finalize(), once, "chunks from {chunk}");
        }
        // An empty update changes nothing.
        let mut h = Sha3_256::new();
        h.update(&data[..100]);
        h.update(&[]);
        h.update(&data[100..]);
        assert_eq!(h.finalize(), once);
    }

    /// Hashing is linear in the input: 16 MiB in one `update` takes about
    /// 0.1 s on one core, where absorbing by draining a buffer block by block
    /// (quadratic: 1.5 s for 3 MiB) takes tens of seconds.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_large_input_hashes_in_linear_time() {
        let data = vec![0xa5u8; 16 << 20];
        let start = std::time::Instant::now();
        let mut h = Sha3_256::new();
        h.update(&data);
        assert_eq!(h.permutation_count(), (data.len() / SHA3_256_RATE) as u64);
        h.finalize();
        let seconds = start.elapsed().as_secs_f64();
        assert!(seconds < 2.0, "16 MiB took {seconds:.2} s");
    }

    #[test]
    fn permutation_count_tracks_blocks() {
        let mut h = Sha3_256::new();
        h.update(&vec![0u8; SHA3_256_RATE * 3]);
        assert_eq!(h.permutation_count(), 3);
    }

    #[test]
    fn reduced_round_variant_matches_full_permutation_at_24() {
        let mut full = [0u64; 25];
        full[3] = 0xdead_beef;
        let mut reduced = full;
        keccak_f1600(&mut full);
        keccak_f1600_rounds(&mut reduced, 24);
        assert_eq!(full, reduced);
        // Zero rounds is the identity; one round is not.
        let mut zero = [7u64; 25];
        keccak_f1600_rounds(&mut zero, 0);
        assert_eq!(zero, [7u64; 25]);
        let mut one = [7u64; 25];
        keccak_f1600_rounds(&mut one, 1);
        assert_ne!(one, [7u64; 25]);
    }

    #[test]
    fn keccak_permutation_is_deterministic_and_nontrivial() {
        let mut s1 = [0u64; 25];
        let mut s2 = [0u64; 25];
        keccak_f1600(&mut s1);
        keccak_f1600(&mut s2);
        assert_eq!(s1, s2);
        assert_ne!(s1, [0u64; 25]);
        // The permutation is a bijection, so applying it to two distinct
        // states yields distinct results.
        let mut s3 = [0u64; 25];
        s3[7] = 1;
        keccak_f1600(&mut s3);
        assert_ne!(s1, s3);
    }
}
