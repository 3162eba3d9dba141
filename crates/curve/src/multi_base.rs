//! Precomputed shifted-base window tables over a whole fixed point vector.
//!
//! A proving session commits against the *same* SRS Lagrange basis for every
//! witness, so the Pippenger window doublings repeated by each commit are
//! pure waste: with the shifted multiples `2^{w·j}·Bᵢ` of every base point
//! precomputed once, `Σ sᵢ·Bᵢ` decomposes into the flat signed-digit bucket
//! problem `Σᵢ Σⱼ d_{i,j}·T_{i,j}` — one bucket set of `2^{w−1}` entries
//! and one aggregation pass (per job of a large MSM), and **no window
//! doublings** (compare
//! [`crate::FixedBaseTable`], which plays the same trick for one base in
//! `Srs` setup). [`crate::msm_precomputed`] and
//! [`crate::sparse_msm_precomputed`] consume these tables.
//!
//! The table stores only the `⌈255/w⌉ + 1` shifted bases per point (the
//! extra window absorbs the signed-recoding carry), not per-digit
//! multiples, so memory stays `O(n·⌈255/w⌉)` points — about 10 MB at
//! `n = 2^12` with the default 12-bit windows — and the one-time build is
//! `~255` doublings per base plus one shared batch inversion per chunk.

use std::sync::Arc;

use zkspeed_field::Fr;
use zkspeed_rt::pool::{self, Backend};

use crate::g1::{G1Affine, G1Projective};

/// Default window width for multi-base tables. Wider than the Pippenger
/// auto-window (8–10 bits at session sizes) because the per-window
/// aggregation pass that normally punishes wide windows is gone: the
/// precomputed engine aggregates `2^{w−1}` buckets once per job, not per
/// window, so the fill work `n·⌈255/w⌉` dominates and wider windows keep
/// winning until the aggregations (`2·2^{w−1}` adds each) catch up around
/// `w ≈ 12` for session-sized `n`.
pub const MULTI_BASE_DEFAULT_WINDOW_BITS: usize = 12;

/// Precomputed shifted-base window table over a fixed point vector:
/// `entry(i, j) = 2^{w·j}·Bᵢ` for every base `i` and window `j`.
///
/// Built once per session with [`MultiBaseTable::build`] (chunked across
/// the backend, one batch inversion per chunk) and shared via `Arc` like
/// the bases themselves; consumed by [`crate::msm_precomputed`] /
/// [`crate::sparse_msm_precomputed`].
#[derive(Clone, Debug)]
pub struct MultiBaseTable {
    window_bits: usize,
    num_windows: usize,
    num_bases: usize,
    /// Row-major: `entries[i·num_windows + j] = 2^{w·j}·Bᵢ`.
    entries: Vec<G1Affine>,
}

impl MultiBaseTable {
    /// Precomputes the shifted-base table for `bases` with `window_bits`-wide
    /// windows, fanning the per-base doubling chains out across the backend
    /// (each chunk shares one batch inversion; results and modmul counters
    /// are identical at any thread count).
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
        let num_windows = (Fr::NUM_BITS as usize).div_ceil(window_bits) + 1;
        let num_bases = bases.len();
        // ≥ 32 bases per chunk keep the per-chunk batch-inversion overhead
        // amortized (the same floor Srs setup uses).
        const MIN_CHUNK: usize = 32;
        let job_bases = Arc::clone(bases);
        let chunks = pool::map_ranges(backend, num_bases, MIN_CHUNK, move |range| {
            zkspeed_field::measure_modmuls(|| {
                let mut shifted = Vec::with_capacity(range.len() * num_windows);
                for i in range {
                    let mut acc = job_bases[i].to_projective();
                    for _ in 0..num_windows {
                        shifted.push(acc);
                        for _ in 0..window_bits {
                            acc = acc.double();
                        }
                    }
                }
                G1Projective::batch_to_affine(&shifted)
            })
        });
        let mut entries = Vec::with_capacity(num_bases * num_windows);
        for (chunk, muls) in chunks {
            zkspeed_field::add_modmul_count(muls);
            entries.extend(chunk);
        }
        Self {
            window_bits,
            num_windows,
            num_bases,
            entries,
        }
    }

    /// The window width in bits.
    pub fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// Number of windows per base (`⌈255/w⌉ + 1`; the top window absorbs the
    /// signed-recoding carry).
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Number of base points covered.
    pub fn num_bases(&self) -> usize {
        self.num_bases
    }

    /// The precomputed shifted base `2^{w·j}·Bᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `window` is out of range.
    pub fn entry(&self, base: usize, window: usize) -> &G1Affine {
        assert!(base < self.num_bases && window < self.num_windows);
        &self.entries[base * self.num_windows + window]
    }

    /// Every entry, row-major: `entries()[i·num_windows + j] = 2^{w·j}·Bᵢ`.
    pub(crate) fn entries(&self) -> &[G1Affine] {
        &self.entries
    }

    /// The original base point `Bᵢ` (window 0's entry).
    ///
    /// # Panics
    ///
    /// Panics if `base` is out of range.
    pub fn base(&self, base: usize) -> &G1Affine {
        self.entry(base, 0)
    }

    /// Total number of precomputed affine points.
    pub fn size_in_points(&self) -> usize {
        self.entries.len()
    }

    /// In-memory size of the precomputed entries in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.entries.len() * core::mem::size_of::<G1Affine>()
    }

    /// Number of points a table over `num_bases` bases with `window_bits`-bit
    /// windows would hold — the memory planning formula
    /// `(⌈255/w⌉ + 1) · n`, usable without building anything.
    pub fn planned_points(num_bases: usize, window_bits: usize) -> usize {
        ((Fr::NUM_BITS as usize).div_ceil(window_bits) + 1) * num_bases
    }

    /// In-memory size in bytes of a planned table (see
    /// [`MultiBaseTable::planned_points`]).
    pub fn planned_bytes(num_bases: usize, window_bits: usize) -> usize {
        Self::planned_points(num_bases, window_bits) * core::mem::size_of::<G1Affine>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::pool::{Serial, ThreadPool};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn random_bases(n: usize, rng: &mut StdRng) -> Arc<Vec<G1Affine>> {
        let proj: Vec<G1Projective> = (0..n).map(|_| G1Projective::random(rng)).collect();
        Arc::new(G1Projective::batch_to_affine(&proj))
    }

    #[test]
    fn entries_are_shifted_bases() {
        let mut rng = StdRng::seed_from_u64(0x3u64);
        let bases = random_bases(3, &mut rng);
        for w in [1usize, 5, 12] {
            let table = MultiBaseTable::build(&bases, w, &Serial);
            assert_eq!(table.window_bits(), w);
            assert_eq!(table.num_bases(), 3);
            assert_eq!(table.num_windows(), (Fr::NUM_BITS as usize).div_ceil(w) + 1);
            for (i, base) in bases.iter().enumerate() {
                assert_eq!(table.base(i), base, "w = {w}, base {i}");
                let mut expect = base.to_projective();
                for j in 0..table.num_windows() {
                    assert_eq!(
                        table.entry(i, j).to_projective(),
                        expect,
                        "w = {w}, base {i}, window {j}"
                    );
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
        // Enough bases that map_ranges genuinely splits into chunks.
        let bases = random_bases(80, &mut rng);
        let serial = MultiBaseTable::build(&bases, 10, &Serial);
        let pooled = MultiBaseTable::build(&bases, 10, &ThreadPool::new(8));
        assert_eq!(serial.entries, pooled.entries);
    }

    #[test]
    fn size_accounting_matches_plan() {
        let mut rng = StdRng::seed_from_u64(0xbu64);
        let bases = random_bases(7, &mut rng);
        let table = MultiBaseTable::build(&bases, 12, &Serial);
        assert_eq!(
            table.size_in_points(),
            MultiBaseTable::planned_points(7, 12)
        );
        assert_eq!(table.size_in_bytes(), MultiBaseTable::planned_bytes(7, 12));
        // 255-bit scalars with 12-bit windows: 22 windows + 1 carry window.
        assert_eq!(table.num_windows(), 23);
    }

    #[test]
    #[should_panic(expected = "window bits")]
    fn zero_window_bits_rejected() {
        let _ = MultiBaseTable::build(&Arc::new(Vec::new()), 0, &Serial);
    }
}
