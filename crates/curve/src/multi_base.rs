//! Precomputed shifted-base window tables over a whole fixed point vector.
//!
//! A proving session commits against the *same* SRS Lagrange basis for every
//! witness, so the Pippenger window doublings repeated by each commit are
//! pure waste. The MSM engine splits every scalar as `k = k₁ + λ·k₂` with
//! 128-bit halves; with the shifted bases `T_{i,j} = 2^{w·j}·Bᵢ` of one half's
//! windows and their images `φ(T_{i,j}) = (β·x, y)` precomputed once,
//! `Σ kᵢ·Bᵢ` becomes the flat signed-digit bucket problem
//! `Σᵢ Σⱼ (d_{i,j}·T_{i,j} + e_{i,j}·φ(T_{i,j}))` over the digits `d` of `k₁`
//! and `e` of `k₂`: one bucket set of `2^{w−1}` entries and one aggregation
//! pass per job of the engine, **no window doublings** and no images to
//! compute (compare [`crate::FixedBaseTable`], which plays the same trick
//! for one base in `Srs` setup). [`crate::msm_precomputed`] and
//! [`crate::sparse_msm_precomputed`] consume these tables.
//!
//! A table holds `2·(⌈128/w⌉ + 1)` points per base (the extra window absorbs
//! the signed-recoding carry), not per-digit multiples — about 10 MB at
//! `n = 2^12` with the default 12-bit windows — and the one-time build is
//! `w·⌈128/w⌉` doublings and `⌈128/w⌉ + 1` images per base plus one shared
//! batch inversion per chunk.

use std::sync::Arc;

use zkspeed_rt::pool::{self, Backend};

use crate::g1::{G1Affine, G1Projective};
use crate::msm::HALF_BITS;

/// The window width of multi-base tables. Wider than the Pippenger
/// auto-window (8–10 bits at session sizes) because the per-window
/// aggregation pass that normally punishes wide windows is gone: the table
/// engine aggregates `2^{w−1}` buckets once per job, not per window, so the
/// fill work `2n·⌈128/w⌉` dominates and wider windows keep winning until the
/// aggregations (`2·2^{w−1}` adds each) catch up around `w ≈ 12` for
/// session-sized `n`.
pub const MULTI_BASE_DEFAULT_WINDOW_BITS: usize = 12;

/// Precomputed shifted-base window table over a fixed point vector: for
/// every base `i` and window `j` of a scalar half, `2^{w·j}·Bᵢ` and its
/// image `φ(2^{w·j}·Bᵢ)`.
///
/// Built once per session with [`MultiBaseTable::build`] (chunked across
/// the backend, one batch inversion per chunk) and shared via `Arc` like
/// the bases themselves; consumed by [`crate::msm_precomputed`] /
/// [`crate::sparse_msm_precomputed`].
#[derive(Clone, Debug)]
pub struct MultiBaseTable {
    window_bits: usize,
    num_windows: usize,
    /// Row-major: `entries[i·num_windows + j] = 2^{w·j}·Bᵢ`.
    entries: Arc<Vec<G1Affine>>,
    /// `images[k] = φ(entries[k])`.
    images: Arc<Vec<G1Affine>>,
}

impl MultiBaseTable {
    /// Precomputes the shifted-base table for `bases` with `window_bits`-wide
    /// windows, fanning chunks of the per-base doubling chains out across
    /// the backend (each chunk shares one batch inversion; results and
    /// modmul counts are identical at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is 0 or greater than 16.
    pub fn build(bases: &Arc<Vec<G1Affine>>, window_bits: usize, backend: &dyn Backend) -> Self {
        assert!(
            (1..=16).contains(&window_bits),
            "multi-base window bits must be in 1..=16"
        );
        // One extra window absorbs the signed-digit recoding carry, exactly
        // mirroring the signed Pippenger window count.
        let num_windows = HALF_BITS.div_ceil(window_bits) + 1;
        // Chunks of 32 bases keep the per-chunk batch inversion amortized
        // (the same floor Srs setup uses). Their number depends on the bases
        // alone, so the inversions, and the modmuls, do too.
        const CHUNK: usize = 32;
        let job_bases = Arc::clone(bases);
        let chunks = pool::map_indices_on(backend, bases.len().div_ceil(CHUNK), move |c| {
            let range = c * CHUNK..job_bases.len().min((c + 1) * CHUNK);
            let mut shifted = Vec::with_capacity(range.len() * num_windows);
            for i in range {
                let mut acc = job_bases[i].to_projective();
                shifted.push(acc);
                for _ in 1..num_windows {
                    for _ in 0..window_bits {
                        acc = acc.double();
                    }
                    shifted.push(acc);
                }
            }
            G1Projective::batch_to_affine(&shifted)
        });
        let entries = chunks.concat();
        let images = entries.iter().map(G1Affine::endomorphism).collect();
        Self {
            window_bits,
            num_windows,
            entries: Arc::new(entries),
            images: Arc::new(images),
        }
    }

    /// The window width in bits.
    pub(crate) fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// Number of base points covered.
    pub fn num_bases(&self) -> usize {
        self.entries.len() / self.num_windows
    }

    /// The shifted bases, row-major, and their images: the two sources the
    /// MSM engine reads.
    pub(crate) fn sources(&self) -> [Arc<Vec<G1Affine>>; 2] {
        [Arc::clone(&self.entries), Arc::clone(&self.images)]
    }

    /// The original base point `Bᵢ` (window 0's entry).
    ///
    /// # Panics
    ///
    /// Panics if `base` is out of range.
    pub fn base(&self, base: usize) -> &G1Affine {
        &self.entries[base * self.num_windows]
    }

    /// In-memory size of the precomputed points in bytes.
    pub fn size_in_bytes(&self) -> usize {
        (self.entries.len() + self.images.len()) * size_of::<G1Affine>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_field::Fr;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn random_bases(n: usize, rng: &mut StdRng) -> Arc<Vec<G1Affine>> {
        let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
        Arc::new(G1Projective::batch_to_affine(&proj))
    }

    #[test]
    fn entries_are_shifted_bases() {
        // Every entry is its base shifted by its window, and every image is
        // the entry times λ.
        let mut rng = StdRng::seed_from_u64(0x3u64);
        let bases = random_bases(3, &mut rng);
        let lambda = Fr::from_u128(crate::g1::LAMBDA);
        for w in [1usize, 5, 12] {
            let table = MultiBaseTable::build(&bases, w, &Serial);
            assert_eq!(table.window_bits(), w);
            assert_eq!(table.num_bases(), 3);
            assert_eq!(table.num_windows, 128usize.div_ceil(w) + 1);
            for (i, base) in bases.iter().enumerate() {
                assert_eq!(table.base(i), base, "w = {w}, base {i}");
                let mut expect = base.to_projective();
                for j in 0..table.num_windows {
                    let k = i * table.num_windows + j;
                    let (entry, image) = (table.entries[k], table.images[k]);
                    assert_eq!(
                        entry.to_projective(),
                        expect,
                        "w = {w}, base {i}, window {j}"
                    );
                    assert_eq!(image.to_projective(), expect.mul_scalar(&lambda));
                    for _ in 0..w {
                        expect = expect.double();
                    }
                }
            }
        }
    }

    #[test]
    fn build_is_backend_invariant() {
        let mut rng = StdRng::seed_from_u64(0x7u64);
        // Enough bases for three chunks.
        let bases = random_bases(80, &mut rng);
        let serial = MultiBaseTable::build(&bases, 10, &Serial);
        let pooled = MultiBaseTable::build(&bases, 10, &ThreadPool::new(8));
        assert_eq!(serial.entries, pooled.entries);
        assert_eq!(serial.images, pooled.images);
    }

    #[test]
    fn size_accounting_matches_plan() {
        // A 128-bit half with 12-bit windows: 11 windows + 1 carry window,
        // each an entry and its image, `2·(⌈128/w⌉ + 1)·n` points.
        let mut rng = StdRng::seed_from_u64(0xbu64);
        let bases = random_bases(7, &mut rng);
        let table = MultiBaseTable::build(&bases, 12, &Serial);
        assert_eq!(table.num_windows, 12);
        let points = 2 * (128usize.div_ceil(12) + 1) * 7;
        assert_eq!(table.size_in_bytes(), points * size_of::<G1Affine>());
    }

    #[test]
    #[should_panic(expected = "window bits")]
    fn zero_window_bits_rejected() {
        let _ = MultiBaseTable::build(&Arc::new(Vec::new()), 0, &Serial);
    }
}
