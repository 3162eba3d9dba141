//! The batched affine adder: additions `acc[dst] += ±src[i]` queued as
//! 8-byte operations, a batch of them sharing one field inversion. The MSM
//! windows, the setup's fixed-base table and [`crate::pair_sums`] all add
//! through it.

use zkspeed_field::Fq;

use super::MsmStats;
use crate::g1::G1Affine;

/// The points operations read: a slice, and for the windows of an MSM the
/// images `φ(P)` of its points, selected by [`Op::IMAGE`].
pub(crate) type Sources<'a> = [&'a [G1Affine]; 2];

/// One accumulation `acc[dst] += ±src[index]`, eight bytes: the streaming
/// engine moves these instead of points.
#[derive(Copy, Clone)]
pub(crate) struct Op {
    pub(super) dst: u32,
    /// Index of the source point, or-ed with [`Op::IMAGE`] for its image;
    /// [`Op::NEGATE`] set for `−src[index]`.
    src: u32,
}

impl Op {
    const NEGATE: u32 = 1 << 31;
    /// Reads the second of the [`Sources`].
    pub(super) const IMAGE: u32 = 1 << 30;

    /// `source` is an index, or-ed with [`Op::IMAGE`] to read the images.
    #[inline]
    pub(crate) fn new(dst: usize, source: usize, negate: bool) -> Self {
        debug_assert!(source < Self::NEGATE as usize);
        Self {
            dst: dst as u32,
            src: source as u32 | if negate { Self::NEGATE } else { 0 },
        }
    }

    #[inline]
    pub(super) fn index(self) -> usize {
        (self.src & !(Self::NEGATE | Self::IMAGE)) as usize
    }

    #[inline]
    fn negated(self) -> bool {
        self.src & Self::NEGATE != 0
    }

    /// The source point, without the sign.
    #[inline]
    fn source<'a>(self, src: Sources<'a>) -> &'a G1Affine {
        &src[usize::from(self.src & Self::IMAGE != 0)][self.index()]
    }

    /// The source point with the sign applied.
    #[inline]
    pub(super) fn point(self, src: Sources<'_>) -> G1Affine {
        let point = *self.source(src);
        if self.negated() {
            point.neg()
        } else {
            point
        }
    }
}

/// Additions issued per shared inversion at most: its share of an addition's
/// six multiplications is then a twentieth of one.
pub(crate) const BATCH: usize = 1024;

/// Affine additions `acc[dst] ← acc[dst] + (±src[i])` with pairwise distinct
/// `dst`, queued so that a whole batch shares one field inversion. The
/// scratch vectors are allocated once and reused by every batch.
#[derive(Default)]
pub(crate) struct BatchAdder {
    pub(super) queue: Vec<Op>,
    denominators: Vec<Fq>,
    /// `prefix[i]` = product of `denominators[..i]`.
    prefix: Vec<Fq>,
    affine_adds: u64,
    inversions: u64,
}

impl BatchAdder {
    /// Applies `op` at once when it needs no field arithmetic (an identity
    /// operand, or `P + (−P)`) and queues it otherwise. Returns whether it
    /// was queued; until the next [`Self::flush`] no other operation may
    /// touch `acc[op.dst]`.
    #[inline]
    pub(super) fn push(&mut self, acc: &mut [G1Affine], src: Sources<'_>, op: Op) -> bool {
        let b = op.source(src);
        let a = &mut acc[op.dst as usize];
        if b.infinity {
            return false;
        }
        if a.infinity {
            *a = op.point(src);
            return false;
        }
        // Equal abscissas: the source is `a` or `−a`, and with the
        // operation's sign the operand is the opposite of `a`.
        if a.x == b.x && (a.y == b.y) == op.negated() {
            *a = G1Affine::identity();
            return false;
        }
        self.queue.push(op);
        true
    }

    /// [`Self::push`], flushing a batch that the operation filled.
    #[inline]
    pub(crate) fn add(&mut self, acc: &mut [G1Affine], src: Sources<'_>, op: Op) {
        if self.push(acc, src, op) && self.queue.len() == BATCH {
            self.flush(acc, src);
        }
    }

    /// Performs the queued additions with one shared inversion. The sign of
    /// an operand `−b` is folded into the slope,
    /// `λ = (y_a + y_b) / (x_a − x_b)`, so no point is negated. Denominators
    /// are never zero: `Δx ≠ 0` unless the operands are equal (opposite ones
    /// never queue), and then `2y ≠ 0` because the curve has odd order,
    /// hence no 2-torsion.
    pub(crate) fn flush(&mut self, acc: &mut [G1Affine], src: Sources<'_>) {
        if self.queue.is_empty() {
            return;
        }
        self.denominators.clear();
        self.prefix.clear();
        let mut product = Fq::one();
        for (i, op) in self.queue.iter().enumerate() {
            let (a, b) = (&acc[op.dst as usize], op.source(src));
            let mut d = if op.negated() { a.x - b.x } else { b.x - a.x };
            if d.is_zero() {
                d = a.y.double();
            }
            self.prefix.push(product);
            product = if i == 0 { d } else { product.mul_inline(&d) };
            self.denominators.push(d);
        }
        let mut inverse = product.invert().expect("nonzero denominators");
        for (i, op) in self.queue.iter().enumerate().rev() {
            let d_inverse = inverse.mul_inline(&self.prefix[i]);
            inverse = inverse.mul_inline(&self.denominators[i]);
            let (a, b) = (&mut acc[op.dst as usize], op.source(src));
            let numerator = if a.x == b.x {
                let xx = a.x.square();
                xx.double() + xx
            } else if op.negated() {
                a.y + b.y
            } else {
                b.y - a.y
            };
            let lambda = numerator.mul_inline(&d_inverse);
            let x3 = lambda.mul_inline(&lambda) - a.x - b.x;
            a.y = lambda.mul_inline(&(a.x - x3)) - a.y;
            a.x = x3;
        }
        self.affine_adds += self.queue.len() as u64;
        self.inversions += 1;
        self.queue.clear();
    }

    /// Adds the blocks of `block` points that make up `points` into the first
    /// one, element by element, by folding the upper half of the blocks onto
    /// the lower half, level by level, through the batched adder.
    pub(super) fn fold(&mut self, points: &mut [G1Affine], block: usize) {
        let mut len = points.len();
        while len > block {
            let half = len.div_ceil(block).div_ceil(2) * block;
            let (lower, upper) = points[..len].split_at_mut(half);
            for i in 0..upper.len() {
                self.add(lower, [upper, &[]], Op::new(i, i, false));
            }
            self.flush(lower, [upper, &[]]);
            len = half;
        }
    }

    /// Moves the operation counts into `stats`.
    pub(super) fn drain_counts(&mut self, stats: &mut MsmStats) {
        stats.affine_adds += std::mem::take(&mut self.affine_adds);
        stats.batch_inversions += std::mem::take(&mut self.inversions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::G1Projective;
    use crate::msm::tests::{cheap_points, rng};

    #[test]
    fn batch_affine_additions_cost_their_exported_price() {
        // No doublings among distinct points: exactly six multiplications an
        // addition, the shared inversion's conversion included.
        let mut r = rng();
        let points = cheap_points(2 * BATCH + 5, &mut r);
        let mut adder = BatchAdder::default();
        let mut folded = points.clone();
        let ((), muls) = zkspeed_field::measure_modmuls(|| adder.fold(&mut folded, 1));
        let expect: G1Projective = points.iter().map(G1Affine::to_projective).sum();
        assert_eq!(folded[0].to_projective(), expect);
        assert_eq!(adder.affine_adds, points.len() as u64 - 1);
        assert_eq!(
            muls.fq,
            adder.affine_adds * crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64
        );
        // Identity operands, a doubling and a cancellation in the tree; as
        // blocks of three (a ragged last one), element by element.
        let g = points[0];
        let mixed = [
            g,
            G1Affine::identity(),
            g.neg(),
            g,
            points[1],
            g,
            G1Affine::identity(),
        ];
        for block in [1, 3] {
            let mut folded = mixed;
            adder.fold(&mut folded, block);
            for (i, got) in folded[..block].iter().enumerate() {
                let expect: G1Projective = mixed[i..]
                    .iter()
                    .step_by(block)
                    .map(G1Affine::to_projective)
                    .sum();
                assert_eq!(got.to_projective(), expect, "block {block}, element {i}");
            }
        }
        adder.fold(&mut [], 1);
    }
}
