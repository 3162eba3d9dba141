//! The buckets of a job's windows: filled by streaming the job's operations
//! through the batched adder (or, on a slice whose operations pile onto a
//! few buckets, by mixed additions into projective buckets), then
//! aggregated into one weighted sum a slice.

use super::adder::{BatchAdder, Op, Sources, BATCH};
use super::MsmStats;
use crate::g1::{G1Affine, G1Projective};

/// Additions each shared inversion of the batch-affine path must amortize
/// at least: one Fq inversion takes the time of `INVERSION_FQ_MULS`
/// multiplications and a batch-affine addition saves 5 over a mixed one, so
/// below 10 additions per inversion the projective path wins. The windows of
/// a job whose joint operations cannot fill their batches that far — most on
/// one bucket, which absorbs one addition per batch — fill projective
/// buckets with mixed additions instead.
pub const BATCH_AFFINE_MIN_ADDS: usize = INVERSION_FQ_MULS / 5;

/// The measured price of one Fq inversion in Fq multiplications (1.66 µs
/// against 31 ns on dependent chains of each).
pub(super) const INVERSION_FQ_MULS: usize = 54;

/// Deferred operations the streaming fill holds at most: an operation whose
/// bucket already has an addition queued in the current batch waits here and
/// is issued first after the flush.
const MAX_PENDING: usize = BATCH / 2;

/// How a bucket takes its next operation.
#[derive(Copy, Clone, PartialEq, Eq)]
enum BucketState {
    /// Affine, no addition queued.
    Free,
    /// Affine, with an addition queued in the current batch.
    Busy,
    /// Projective, accumulated at once by mixed additions.
    Projective,
}

/// A set of buckets being filled and aggregated — one slice of `slice_len`
/// buckets per window of a job, all sharing the batches of one adder — and
/// every buffer that takes: allocated once per worker and reused from job to
/// job.
#[derive(Default)]
pub(super) struct BucketSet {
    slice_len: usize,
    /// The operations of the current scan, in point order.
    ops: Vec<Op>,
    /// Operations per bucket in the current scan.
    load: Vec<u32>,
    state: Vec<BucketState>,
    affine: Vec<G1Affine>,
    projective: Vec<G1Projective>,
    pending: Vec<Op>,
    /// Per slice, the leading buckets that the others are copies of (all of
    /// them unless the slice spreads its operations).
    used: Vec<usize>,
    /// Column sums, then row sums, of every slice's bucket grid.
    lines: Vec<G1Affine>,
    adder: BatchAdder,
}

impl BucketSet {
    /// Starts a scan over `slices` slices of `slice_len` empty buckets.
    pub(super) fn begin(&mut self, slices: usize, slice_len: usize) {
        self.slice_len = slice_len;
        self.ops.clear();
        self.load.clear();
        self.load.resize(slices * slice_len, 0);
    }

    /// Records `bucket += ±source`, for a source as [`Op::new`] takes it.
    #[inline]
    pub(super) fn record(&mut self, bucket: usize, source: usize, negate: bool) {
        self.ops.push(Op::new(bucket, source, negate));
        self.load[bucket] += 1;
    }

    /// Chooses the slices that take the batch-affine path: the set whose
    /// additions, at five multiplications saved each, exceed the price of
    /// its inversions, `min_adds_per_inversion` savings each, by most. A
    /// bucket absorbs one addition per batch, so the heaviest bucket of the
    /// set bounds its batches from below, and the candidate sets are the
    /// prefixes of the slices in order of their heaviest bucket. (`0` puts
    /// every slice on the batch-affine path, `usize::MAX` none.)
    ///
    /// A slice whose operations reach only its first `used` buckets — the
    /// short top window of the scalar field — has room for `slice_len / used`
    /// copies of them. On the affine path an operation goes to the copy its
    /// point index selects, which divides the heaviest load by the copies,
    /// and [`Self::aggregate`] adds the copies up first; a slice does so
    /// when that saves it batches.
    fn choose_paths(&mut self, min_adds_per_inversion: usize) {
        let len = self.slice_len;
        let mut slices: Vec<(usize, usize, usize, usize)> = self
            .load
            .chunks(len)
            .enumerate()
            .map(|(slice, load)| {
                let total: usize = load.iter().map(|&ops| ops as usize).sum();
                let heaviest = load.iter().copied().max().unwrap_or(0) as usize;
                let used = load.iter().rposition(|&ops| ops > 0).map_or(len, |i| i + 1);
                // Adding the copies up takes a batch per level of halving.
                let spread = heaviest.div_ceil(len / used) + (len / used).ilog2() as usize;
                if spread < heaviest {
                    (spread, total, used, slice)
                } else {
                    (heaviest, total, len, slice)
                }
            })
            .collect();
        slices.sort_unstable();
        let (mut adds, mut best, mut affine) = (0usize, 0usize, 0usize);
        for (i, &(heaviest, total, ..)) in slices.iter().enumerate() {
            adds += total;
            let batches = adds.div_ceil(BATCH).max(heaviest);
            let saved = adds.checked_sub(min_adds_per_inversion.saturating_mul(batches));
            if let Some(saved) = saved.filter(|&saved| adds > 0 && saved >= best) {
                (best, affine) = (saved, i + 1);
            }
        }
        self.state.clear();
        self.state.resize(self.load.len(), BucketState::Projective);
        self.used.clear();
        self.used.resize(slices.len(), len);
        for &(_, _, used, slice) in &slices[..affine] {
            self.state[slice * len..][..len].fill(BucketState::Free);
            self.used[slice] = used;
        }
        if self.used.iter().any(|&used| 2 * used <= len) {
            for op in &mut self.ops {
                let used = self.used[op.dst as usize / len];
                op.dst += (op.index() % (len / used) * used) as u32;
            }
        }
    }

    /// Applies the recorded operations, each slice on the path
    /// [`Self::choose_paths`] gives it.
    ///
    /// Operations stream through in order. One whose bucket is busy is
    /// deferred; a batch is flushed when it is full or the deferred queue
    /// is, and deferred operations are retried first — so the order of
    /// additions into a bucket, and with it every count, depends on the
    /// operations alone.
    pub(super) fn fill(
        &mut self,
        points: Sources<'_>,
        min_adds_per_inversion: usize,
        stats: &mut MsmStats,
    ) {
        self.choose_paths(min_adds_per_inversion);
        // Each kind of bucket is allocated only if some slice uses it.
        let len_if = |used: bool| if used { self.load.len() } else { 0 };
        let affine = len_if(self.state.contains(&BucketState::Free));
        let projective = len_if(self.state.contains(&BucketState::Projective));
        self.affine.clear();
        self.affine.resize(affine, G1Affine::identity());
        self.projective.clear();
        self.projective.resize(projective, G1Projective::identity());
        let mut next = 0;
        loop {
            let mut kept = 0;
            for i in 0..self.pending.len() {
                let op = self.pending[i];
                if !self.issue(points, op, stats) {
                    self.pending[kept] = op;
                    kept += 1;
                }
            }
            self.pending.truncate(kept);
            while next < self.ops.len()
                && self.adder.queue.len() < BATCH
                && self.pending.len() < MAX_PENDING
            {
                let op = self.ops[next];
                next += 1;
                if !self.issue(points, op, stats) {
                    self.pending.push(op);
                }
            }
            // Nothing queued means nothing busy, hence nothing deferred and
            // the intake ran to the end of the operations.
            if self.adder.queue.is_empty() {
                break;
            }
            for op in &self.adder.queue {
                self.state[op.dst as usize] = BucketState::Free;
            }
            self.adder.flush(&mut self.affine, points);
        }
    }

    /// Issues `op` unless its bucket is busy; returns whether it was issued.
    #[inline]
    fn issue(&mut self, points: Sources<'_>, op: Op, stats: &mut MsmStats) -> bool {
        let dst = op.dst as usize;
        match self.state[dst] {
            BucketState::Busy => return false,
            BucketState::Free => {
                if self.adder.push(&mut self.affine, points, op) {
                    self.state[dst] = BucketState::Busy;
                }
            }
            BucketState::Projective => {
                let point = op.point(points);
                let bucket = &mut self.projective[dst];
                if bucket.is_identity() {
                    *bucket = point.to_projective();
                } else if !point.infinity {
                    *bucket = bucket.add_mixed(&point);
                    stats.bucket_adds += 1;
                }
            }
        }
        true
    }

    /// Appends `Σ (i+1)·bucket[i]` of every filled slice to `sums` and moves
    /// the adder's counts into `stats`.
    ///
    /// The buckets of an affine slice are laid out as a grid of `cols`
    /// columns, and with `i = r·cols + c` the sum is
    /// `cols·Σ r·Rᵣ + Σ (c+1)·K_c` over the row sums `Rᵣ` and the column sums
    /// `K_c`. Every bucket is added to one of each (row 0 has weight zero
    /// and no sum); step `k` adds row `k` into the column sums and column
    /// `k` into the row sums of every slice at once — independent additions
    /// that share the adder's batches. Only the running sums over the
    /// `rows + cols` lines are projective. A projective slice is one running
    /// sum over its buckets.
    pub(super) fn aggregate(&mut self, stats: &mut MsmStats, sums: &mut Vec<G1Projective>) {
        let len = self.slice_len;
        let slices = self.state.len() / len;
        let cols = 1 << len.next_power_of_two().ilog2().div_ceil(2);
        let rows = len.div_ceil(cols);
        let lines = cols + rows;
        for (slice, &used) in self.used.iter().enumerate() {
            if used < len {
                let buckets = &mut self.affine[slice * len..][..len];
                self.adder.fold(&mut buckets[..len / used * used], used);
                buckets[used..].fill(G1Affine::identity());
            }
        }
        self.lines.clear();
        self.lines.resize(slices * lines, G1Affine::identity());
        for step in 0..cols {
            for slice in 0..slices {
                if self.state[slice * len] == BucketState::Projective {
                    continue;
                }
                let (first, line) = (slice * len, slice * lines);
                for i in step * cols..len.min((step + 1) * cols) {
                    let op = Op::new(line + i % cols, first + i, false);
                    self.adder.add(&mut self.lines, [&self.affine, &[]], op);
                }
                for i in (cols + step..len).step_by(cols) {
                    let op = Op::new(line + cols + i / cols, first + i, false);
                    self.adder.add(&mut self.lines, [&self.affine, &[]], op);
                }
            }
            self.adder.flush(&mut self.lines, [&self.affine, &[]]);
        }
        self.adder.drain_counts(stats);
        for slice in 0..slices {
            if self.state[slice * len] == BucketState::Projective {
                let buckets = &self.projective[slice * len..][..len];
                sums.push(weighted_sum(buckets.iter().copied(), stats));
                continue;
            }
            let (col_sums, row_sums) = self.lines[slice * lines..][..lines].split_at(cols);
            let lift = G1Affine::to_projective;
            let mut sum = weighted_sum(col_sums.iter().map(lift), stats);
            let mut by_row = weighted_sum(row_sums[1..].iter().map(lift), stats);
            if !by_row.is_identity() {
                for _ in 0..cols.ilog2() {
                    by_row = by_row.double();
                }
                stats.doublings += u64::from(cols.ilog2());
                stats.aggregation_adds += accumulate(&mut sum, &by_row);
            }
            sums.push(sum);
        }
    }
}

/// `acc += p`, returning the additions performed: none when `acc` was the
/// identity and simply becomes `p`.
pub(super) fn accumulate(acc: &mut G1Projective, p: &G1Projective) -> u64 {
    if acc.is_identity() {
        *acc = *p;
        0
    } else {
        *acc = acc.add(p);
        1
    }
}

/// `Σ (i+1)·points[i]` by the running-sum trick, highest point first
/// (`running += Pᵢ; sum += running`), counted as aggregation additions.
/// Identity operands cost nothing.
fn weighted_sum(
    points: impl DoubleEndedIterator<Item = G1Projective>,
    stats: &mut MsmStats,
) -> G1Projective {
    let mut running = G1Projective::identity();
    let mut sum = G1Projective::identity();
    for point in points.rev() {
        if !point.is_identity() {
            stats.aggregation_adds += accumulate(&mut running, &point);
        }
        if !running.is_identity() {
            stats.aggregation_adds += accumulate(&mut sum, &running);
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msm::tests::{cheap_points, rng};
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::Rng;

    /// Applies `ops` through the streaming fill, forced onto the batch-affine
    /// path, and, as the oracle, one by one in projective coordinates.
    fn check_streaming_fill(points: &[G1Affine], num_buckets: usize, ops: &[(usize, usize, bool)]) {
        let mut set = BucketSet::default();
        set.begin(1, num_buckets);
        let mut expect = vec![G1Projective::identity(); num_buckets];
        for &(bucket, index, negate) in ops {
            set.record(bucket, index, negate);
            let p = points[index].to_projective();
            expect[bucket] += if negate { p.neg() } else { p };
        }
        let mut stats = MsmStats::default();
        let ((), muls) = zkspeed_field::measure_modmuls(|| set.fill([points, &[]], 0, &mut stats));
        assert_eq!(set.affine.len(), num_buckets);
        for (bucket, (got, want)) in set.affine.iter().zip(&expect).enumerate() {
            assert_eq!(got.to_projective(), *want, "bucket {bucket}");
        }
        assert!(set.pending.is_empty() && set.adder.queue.is_empty());
        set.adder.drain_counts(&mut stats);
        assert!(stats.affine_adds <= ops.len() as u64);
        // Six multiplications an addition, one more for a doubling.
        let price = crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64;
        assert!(muls.fq >= stats.affine_adds * price);
        assert!(muls.fq <= stats.affine_adds * (price + 1));
    }

    #[test]
    fn streaming_fill_on_crafted_operation_orders() {
        let mut r = rng();
        let points = cheap_points(3 * BATCH + 7, &mut r);
        // Three sweeps over BATCH + 1 buckets: the first assigns, the second
        // fills a batch exactly and overflows it by one, the third meets the
        // flushed results.
        let sweeps: Vec<_> = (0..3 * (BATCH + 1))
            .map(|i| (i % (BATCH + 1), i, i % 5 == 0))
            .collect();
        check_streaming_fill(&points, BATCH + 1, &sweeps);
        // One bucket takes everything: every operation after the second is
        // deferred, the pending queue is always full.
        let one_bucket: Vec<_> = (0..2 * MAX_PENDING + 3).map(|i| (1, i, false)).collect();
        check_streaming_fill(&points, 2, &one_bucket);
        // The same point again and again: doublings, then P + (−P) emptying
        // the bucket, then a fresh first touch.
        let repeats = [false, false, false, true, true, true, true, false];
        let same_point: Vec<_> = repeats.iter().map(|&negate| (0, 4, negate)).collect();
        check_streaming_fill(&points, 1, &same_point);
        // Two hot buckets among cold ones.
        let skewed: Vec<_> = (0..4 * BATCH)
            .map(|i| {
                (
                    if i % 3 == 0 { i % 2 } else { i % 97 },
                    i % points.len(),
                    i % 7 == 0,
                )
            })
            .collect();
        check_streaming_fill(&points, 97, &skewed);
    }

    /// `Σ (i+1)·bucket[i]` with the group's operators, highest bucket first.
    fn weighted_sum_oracle(buckets: &[G1Projective]) -> G1Projective {
        let mut running = G1Projective::identity();
        let mut sum = G1Projective::identity();
        for bucket in buckets.iter().rev() {
            running += *bucket;
            sum += running;
        }
        sum
    }

    #[test]
    fn aggregation_matches_the_weighted_sum_at_every_width() {
        // One job of seven slices of 2^{w−1} buckets per width, on each
        // path: all empty, one bucket, distinct points with holes, one point
        // everywhere (every line sum starts with a doubling), alternating ±P
        // (every row cancels), ±P at random with holes (doublings and
        // cancellations in rows and columns alike), and everything on the
        // first three buckets (which spread over copies on the batch-affine
        // path).
        let mut r = rng();
        let points = cheap_points(1 << 16, &mut r);
        for w in 1..=16usize {
            let len = 1usize << (w - 1);
            for min_adds in [0, usize::MAX] {
                type Pattern<'a> = &'a dyn Fn(usize, &mut StdRng) -> Option<(usize, usize, bool)>;
                let patterns: [Pattern; 7] = [
                    &|_, _| None,
                    &|i, _| (i == len - 1).then_some((i, i, false)),
                    &|i, _| (i % 3 != 1).then_some((i, i, i % 5 == 0)),
                    &|i, _| Some((i, 0, false)),
                    &|i, _| Some((i, 0, i % 2 == 1)),
                    &|i, r| (r.gen::<u8>() % 4 != 0).then_some((i, 0, r.gen())),
                    &|i, _| Some(((i % 3).min(len - 1), i, i % 7 == 0)),
                ];
                let mut set = BucketSet::default();
                set.begin(patterns.len(), len);
                let mut expect = vec![G1Projective::identity(); patterns.len() * len];
                for (slice, pattern) in patterns.iter().enumerate() {
                    for i in 0..len {
                        if let Some((bucket, index, negate)) = pattern(i, &mut r) {
                            set.record(slice * len + bucket, index, negate);
                            let p = points[index].to_projective();
                            expect[slice * len + bucket] += if negate { p.neg() } else { p };
                        }
                    }
                }
                let mut stats = MsmStats::default();
                let mut sums = Vec::new();
                let ((), muls) = zkspeed_field::measure_modmuls(|| {
                    set.fill([&points, &[]], min_adds, &mut stats);
                    set.aggregate(&mut stats, &mut sums);
                });
                assert_eq!(sums.len(), patterns.len());
                for (slice, sum) in sums.iter().enumerate() {
                    let want = weighted_sum_oracle(&expect[slice * len..][..len]);
                    assert_eq!(*sum, want, "w = {w}, min_adds {min_adds}, slice {slice}");
                }
                if min_adds == usize::MAX {
                    // Mixed additions fill the buckets, a running sum
                    // aggregates each slice; the adder is not used.
                    assert_eq!(stats.affine_adds + stats.batch_inversions, 0);
                    continue;
                }
                assert!(len < 32 || set.used[6] == 3);
                // Counted at its price, up to one multiplication per affine
                // doubling: no mixed addition, three affine ones a bucket at
                // most, projective ones on the lines of the grid only.
                assert_eq!(stats.bucket_adds, 0);
                assert!(muls.fq >= stats.fq_muls());
                assert!(muls.fq <= stats.fq_muls() + stats.affine_adds);
                let lines = 3 * len.next_power_of_two().isqrt() as u64;
                assert!(stats.affine_adds <= 3 * (patterns.len() * len) as u64);
                assert!(stats.aggregation_adds <= patterns.len() as u64 * (2 * lines + 1));
            }
        }
    }
}
