//! Operation counts of an MSM run, by addition kind, for the hardware cost
//! model and the modmul accounting.

/// Operation counts of an MSM execution, used by the zkSpeed hardware model
/// to translate functional work into PADD-unit cycles and modmuls.
///
/// Additions are counted by kind so the cost model can charge each at its
/// true Fq-multiplication price: mixed additions
/// ([`crate::g1::PADD_MIXED_FQ_MULS`]), batch-affine additions
/// ([`crate::g1::BATCH_AFFINE_ADD_FQ_MULS`]), and full projective additions
/// ([`crate::g1::PADD_FQ_MULS`]) wherever two projective points meet. Only
/// formulas that ran are counted: an addition into an empty accumulator is
/// an assignment.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MsmStats {
    /// Mixed (projective + affine) additions: filling projective buckets and
    /// merging the sparse ones-sum.
    pub bucket_adds: u64,
    /// Batch-affine additions: bucket fills, the row and column sums of the
    /// bucket aggregation, and the sparse ones-sum.
    pub affine_adds: u64,
    /// Shared inversions amortized over the affine additions (each a binary
    /// GCD, no Fq multiplier use, on top of the per-addition muls in
    /// [`crate::g1::BATCH_AFFINE_ADD_FQ_MULS`]).
    pub batch_inversions: u64,
    /// Full projective additions performed during bucket aggregation: the
    /// running sums over a window's row and column sums (or its buckets).
    pub aggregation_adds: u64,
    /// Full projective additions performed while combining windows.
    pub combine_adds: u64,
    /// Point doublings (window combine, and the aggregation's multiplication
    /// of the row term by the row length).
    pub doublings: u64,
    /// Images `φ(P) = (β·x, y)` computed, one Fq multiplication each: one
    /// per point of an MSM in which some scalar has a second half, none
    /// otherwise.
    pub endomorphisms: u64,
    /// Scalar halves recoded into signed window digits: two per scalar
    /// (`k₁` and `k₂`), or one when no scalar of the run has a second half.
    pub recoded_scalars: u64,
}

impl MsmStats {
    /// Total point additions of any kind (excluding doublings).
    pub fn total_adds(&self) -> u64 {
        self.bucket_adds + self.affine_adds + self.aggregation_adds + self.combine_adds
    }

    /// Total Fq modular multiplications of the counted operations, each
    /// addition kind at its own price, and the images — what the modmul
    /// counters read around the same run, up to one multiplication
    /// per batch-affine doubling and per point normalization. Inversions,
    /// the scalar split and the recoding use no Fq multipliers and
    /// contribute nothing here.
    pub fn fq_muls(&self) -> u64 {
        self.bucket_adds * crate::g1::PADD_MIXED_FQ_MULS as u64
            + self.affine_adds * crate::g1::BATCH_AFFINE_ADD_FQ_MULS as u64
            + (self.aggregation_adds + self.combine_adds) * crate::g1::PADD_FQ_MULS as u64
            + self.doublings * crate::g1::PDBL_FQ_MULS as u64
            + self.endomorphisms
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &MsmStats) {
        self.bucket_adds += other.bucket_adds;
        self.affine_adds += other.affine_adds;
        self.batch_inversions += other.batch_inversions;
        self.aggregation_adds += other.aggregation_adds;
        self.combine_adds += other.combine_adds;
        self.doublings += other.doublings;
        self.endomorphisms += other.endomorphisms;
        self.recoded_scalars += other.recoded_scalars;
    }
}

/// Statistics of a sparse MSM split (Witness Commit step).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseMsmStats {
    /// Number of zero scalars (skipped entirely).
    pub zeros: usize,
    /// Number of one scalars (handled by the tree adder).
    pub ones: usize,
    /// Number of dense (full-width) scalars handled by Pippenger.
    pub dense: usize,
    /// Operation counts of the overall computation.
    pub ops: MsmStats,
}
