//! The universal setup's group arithmetic: the generator multiplied by the
//! `2^μ` scalars of the full-size level ([`FixedBaseTable`]), and every next
//! level halved by adding adjacent points ([`pair_sums`]). Both run on the
//! MSM engine's batch-affine adder, at six Fq multiplications an addition
//! against the eleven of a mixed one: a table entry per nonzero signed digit
//! of a scalar, window by window over blocks of 1 024 scalars that share
//! one inversion a window, and no doublings.

use zkspeed_field::Fr;

use crate::g1::{G1Affine, G1Projective};
use crate::msm::{recode_carries, signed_window_digit, BatchAdder, Op, Sources, BATCH};

/// The table width for multiplying `n` scalars: the `w` that minimises
/// `⌈256/w⌉·(3n + 4·2^{w−1})`, the additions of the `n` multiplications and
/// of the table build, a table entry timed at 4/3 of an addition of the
/// multiplications. Measured on one core, table build and multiplications
/// together, at the widths around the pick (w: ms): 2^10 7: 12.0, **8: 11.2**,
/// 9: 11.5; 2^12 9: 38.4, **10: 37.3**, 11: 39.9; 2^14 11: 128, **12: 123**,
/// 13: 136; 2^16 12: 457, **13: 436**, 14: 468. Above 2^16 it is untimed.
pub fn fixed_base_window_bits(n: usize) -> usize {
    (1..=16)
        .min_by_key(|&w| (Fr::NUM_BITS as usize + 1).div_ceil(w) * (3 * n + (4 << (w - 1))))
        .expect("widths")
}

/// A signed-digit fixed-base window table of the generator `B`: for every
/// `w`-bit window `j` of a recoded scalar, the affine multiples
/// `d · 2^{w·j} · B` for `d = 1 … 2^{w−1}`.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    window_bits: usize,
    /// `entries[j·2^{w−1} + d − 1] = d · 2^{w·j} · B`: a window's entries
    /// are contiguous, as its pass over a block reads them.
    entries: Vec<G1Affine>,
}

impl FixedBaseTable {
    /// Precomputes the generator's table with `window_bits`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_bits` is 0 or greater than 16 (larger tables cost
    /// more to build than they could ever save).
    pub fn new(window_bits: usize) -> Self {
        assert!(
            (1..=16).contains(&window_bits),
            "fixed-base window bits must be in 1..=16"
        );
        let num_windows = (Fr::NUM_BITS as usize + 1).div_ceil(window_bits);
        let half = 1usize << (window_bits - 1);
        let shift = |b: &G1Projective| Some((0..window_bits).fold(*b, |b, _| b.double()));
        let bases: Vec<G1Projective> =
            std::iter::successors(Some(G1Projective::generator()), shift)
                .take(num_windows)
                .collect();
        // Row `d − 1` holds `d·B_j` for every window `j`. Rows `m … 2m − 1`
        // follow from rows `0 … m − 1` as `(i + m)·B_j = i·B_j + m·B_j`:
        // one pass of the adder per doubling of `m`.
        let mut rows = G1Projective::batch_to_affine(&bases);
        rows.resize(half * num_windows, G1Affine::identity());
        let mut adder = BatchAdder::default();
        for m in (0..window_bits - 1).map(|k| 1 << k) {
            let (done, next) = rows.split_at_mut(m * num_windows);
            let src: Sources<'_> = [done, &[]];
            next[..done.len()].copy_from_slice(done);
            for k in 0..done.len() {
                let top = (m - 1) * num_windows + k % num_windows;
                adder.add(next, src, Op::new(k, top, false));
            }
            adder.flush(next, src);
        }
        // Window-major, in place: a transposed copy would hold the table
        // twice.
        transpose(&mut rows, num_windows);
        Self {
            window_bits,
            entries: rows,
        }
    }

    /// The multiples `s · B` of every scalar, in affine form: each block of
    /// up to 1 024 scalars takes one table entry per nonzero signed digit,
    /// window by window, and the additions of a window share one inversion.
    pub fn mul(&self, scalars: &[Fr]) -> Vec<G1Affine> {
        let (w, half) = (self.window_bits, 1 << (self.window_bits - 1));
        let num_windows = self.entries.len() / half;
        let src: Sources<'_> = [&self.entries, &[]];
        let mut adder = BatchAdder::default();
        let mut points = vec![G1Affine::identity(); scalars.len()];
        for (block, scalars) in points.chunks_mut(BATCH).zip(scalars.chunks(BATCH)) {
            let recoded: Vec<_> = scalars
                .iter()
                .map(|s| s.to_canonical_limbs())
                .map(|limbs| (limbs, recode_carries(&limbs, w, num_windows)))
                .collect();
            for window in 0..num_windows {
                for (i, (limbs, carries)) in recoded.iter().enumerate() {
                    let d = signed_window_digit(limbs, carries, window, w);
                    if d != 0 {
                        let entry = window * half + d.unsigned_abs() as usize - 1;
                        adder.add(block, src, Op::new(i, entry, d < 0));
                    }
                }
                adder.flush(block, src);
            }
        }
        points
    }
}

/// Reorders a row-major matrix of `columns` columns into column-major order
/// in place, moving each cycle of the permutation once: the entry at
/// `i = r·columns + c` goes to `c·rows + r`, which is `i·rows` modulo
/// `len − 1` for every `i` but the last.
fn transpose<T: Copy>(matrix: &mut [T], columns: usize) {
    let Some(last) = matrix.len().checked_sub(1) else {
        return;
    };
    let rows = matrix.len() / columns;
    let mut moved = vec![false; matrix.len()];
    for start in 0..last {
        let (mut i, mut carried) = (start, matrix[start]);
        while !moved[start] {
            i = i * rows % last;
            std::mem::swap(&mut matrix[i], &mut carried);
            moved[i] = true;
        }
    }
}

/// The sums `points[2i] + points[2i + 1]` of an even number of points,
/// through the batch-affine adder: one shared inversion per 1 024 sums.
pub fn pair_sums(points: &[G1Affine]) -> Vec<G1Affine> {
    let src: Sources<'_> = [points, &[]];
    let mut sums: Vec<G1Affine> = points.iter().step_by(2).copied().collect();
    let mut adder = BatchAdder::default();
    for i in 0..sums.len() {
        adder.add(&mut sums, src, Op::new(i, 2 * i + 1, false));
    }
    adder.flush(&mut sums, src);
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    /// The table's `mul` against double-and-add, scalar by scalar.
    fn check(w: usize, scalars: &[Fr]) {
        let g = G1Projective::generator();
        for (s, got) in scalars.iter().zip(FixedBaseTable::new(w).mul(scalars)) {
            assert_eq!(got.to_projective(), g.mul_scalar(s), "w = {w}, s = {s}");
        }
    }

    /// The widths setup can pick, one bit, a top window of one bit, and 13.
    fn widths() -> std::collections::BTreeSet<usize> {
        let picks = (0..=28).map(|mu| fixed_base_window_bits(1 << mu));
        picks.chain([1, 3, 13]).collect()
    }

    #[test]
    fn table_matches_double_and_add() {
        // Random scalars; at setup's 2^10 width, a block and a ragged one.
        let mut rng = StdRng::seed_from_u64(0xf1_5ed);
        for w in widths() {
            let n = if w == 8 { BATCH + 3 } else { 9 };
            check(w, &(0..n).map(|_| Fr::random(&mut rng)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn table_handles_edge_scalars() {
        // 0, 1, r − 1; ±2^{w·j} at every window; a digit of 2^{w−1} + 1 at
        // every window, recoded negative with a carry into the next one (the
        // top one's included); and the scalars `2·d·2^{w·j}` whose top digit
        // is `d`, which double the accumulator onto the entry it adds last.
        // Cancelling it instead needs a partial sum of the digits ≡ 0 mod r,
        // which a canonical scalar never reaches (`msm` tests that branch).
        let mut doublings = 0;
        for w in widths() {
            let num_windows = (Fr::NUM_BITS as usize + 1).div_ceil(w);
            let half = 1u64 << (w - 1);
            let (mut scalars, mut shift) = (vec![Fr::zero(), Fr::one(), -Fr::one()], Fr::one());
            for j in 0..num_windows {
                scalars.extend([shift, -shift, shift * Fr::from_u64(half + 1)]);
                for d in 1..=half {
                    let s = shift * Fr::from_u64(2 * d);
                    let limbs = s.to_canonical_limbs();
                    let carries = recode_carries(&limbs, w, num_windows);
                    let digit = |i| signed_window_digit(&limbs, &carries, i, w);
                    if digit(j) == d as i64 && (j + 1..num_windows).all(|i| digit(i) == 0) {
                        scalars.push(s);
                        doublings += 1;
                    }
                }
                shift *= Fr::from_u64(1 << w);
            }
            check(w, &scalars);
        }
        assert!(doublings > 0, "no scalar doubles onto its top entry");
    }

    #[test]
    fn table_shape() {
        // 26 windows of 2^9 entries at w = 10; the measured optima the cost
        // expression is fitted to.
        assert_eq!(FixedBaseTable::new(10).entries.len(), 26 << 9);
        let picks = [10, 12, 14, 16].map(|log| fixed_base_window_bits(1 << log));
        assert_eq!(picks, [8, 10, 12, 13]);
    }

    #[test]
    fn transpose_moves_every_entry_once() {
        for (rows, columns) in [(1, 1), (1, 7), (7, 1), (2, 3), (4, 22), (9, 6)] {
            let mut matrix: Vec<usize> = (0..rows * columns).collect();
            transpose(&mut matrix, columns);
            let expected: Vec<usize> = (0..columns)
                .flat_map(|c| (0..rows).map(move |r| r * columns + c))
                .collect();
            assert_eq!(matrix, expected, "{rows} × {columns}");
        }
    }

    #[test]
    fn table_holds_exactly_its_entries() {
        // `windows · 2^{w−1}` entries, capacity included: a vector grown by
        // doubling would hold 2^16 slots for setup's 22 windows of 2^11.
        for w in [1, 3, 8, 12] {
            let entries = FixedBaseTable::new(w).entries;
            let expected = (Fr::NUM_BITS as usize + 1).div_ceil(w) << (w - 1);
            assert_eq!(
                (entries.len(), entries.capacity()),
                (expected, expected),
                "w = {w}"
            );
        }
    }
}
