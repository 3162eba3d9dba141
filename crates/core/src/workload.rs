//! Workload descriptions consumed by the chip model.
//!
//! A [`Workload`] is characterized (as in Section 6.2 of the paper) by its
//! problem size and its witness sparsity statistics. Historically the repo
//! only fed it the paper's assumed 45/45/10 zero/one/dense split; it now
//! also carries **measured** per-column splits extracted from compiled
//! circuits (`zkspeed_hyperplonk::CircuitStats`), so arbitrary fractions
//! must round exactly and garbage fractions must be rejected up front.

use core::fmt;

/// Why a set of witness fractions cannot describe a workload.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// A fraction is NaN or infinite.
    NotFinite {
        /// The offending value.
        value: f64,
    },
    /// A fraction is negative.
    Negative {
        /// The offending value.
        value: f64,
    },
    /// The zero and one fractions sum past 1.
    SumExceedsOne {
        /// The zero fraction.
        zero_fraction: f64,
        /// The one fraction.
        one_fraction: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NotFinite { value } => {
                write!(f, "witness fraction {value} is not finite")
            }
            WorkloadError::Negative { value } => {
                write!(f, "witness fraction {value} is negative")
            }
            WorkloadError::SumExceedsOne {
                zero_fraction,
                one_fraction,
            } => write!(
                f,
                "zero fraction {zero_fraction} + one fraction {one_fraction} exceeds 1"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The zero/one/dense sparsity split of one witness column.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ColumnSplit {
    /// Fraction of this column's scalars that are zero.
    pub zero_fraction: f64,
    /// Fraction of this column's scalars that are one.
    pub one_fraction: f64,
}

impl ColumnSplit {
    /// Validates a measured split: fractions must be finite, non-negative
    /// and sum to at most 1.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`WorkloadError`] condition.
    pub fn new(zero_fraction: f64, one_fraction: f64) -> Result<Self, WorkloadError> {
        for value in [zero_fraction, one_fraction] {
            if !value.is_finite() {
                return Err(WorkloadError::NotFinite { value });
            }
            if value < 0.0 {
                return Err(WorkloadError::Negative { value });
            }
        }
        // Tolerate float round-off from measured `count / total` ratios but
        // reject genuinely over-full splits.
        if zero_fraction + one_fraction > 1.0 + 1e-12 {
            return Err(WorkloadError::SumExceedsOne {
                zero_fraction,
                one_fraction,
            });
        }
        Ok(Self {
            zero_fraction,
            one_fraction,
        })
    }

    /// Fraction of this column's scalars that are full-width ("dense").
    pub fn dense_fraction(&self) -> f64 {
        (1.0 - self.zero_fraction - self.one_fraction).max(0.0)
    }

    /// Splits `n` scalars into exact `(zeros, ones, dense)` counts with
    /// largest-remainder rounding, so `zeros + ones + dense == n` for any
    /// fractions (clamped into range first, since the fields are public).
    pub fn counts(&self, n: usize) -> (usize, usize, usize) {
        let zero = sanitize(self.zero_fraction, 1.0);
        let one = sanitize(self.one_fraction, 1.0 - zero);
        let dense = 1.0 - zero - one;
        let targets = [n as f64 * zero, n as f64 * one, n as f64 * dense];
        let mut counts = targets.map(|t| t.floor() as usize);
        let assigned: usize = counts.iter().sum();
        // Hand the leftover scalars to the categories with the largest
        // fractional remainders (ties broken by category order, so the
        // split is deterministic).
        let mut order = [0usize, 1, 2];
        order.sort_by(|&a, &b| {
            let ra = targets[a] - targets[a].floor();
            let rb = targets[b] - targets[b].floor();
            rb.partial_cmp(&ra).unwrap_or(core::cmp::Ordering::Equal)
        });
        for &idx in order.iter().take(n.saturating_sub(assigned)) {
            counts[idx] += 1;
        }
        debug_assert_eq!(counts.iter().sum::<usize>(), n);
        (counts[0], counts[1], counts[2])
    }
}

/// Clamps a possibly hand-written fraction into `[0, cap]`, mapping NaN
/// to 0 so the non-validating accessors never panic.
fn sanitize(value: f64, cap: f64) -> f64 {
    if value.is_nan() {
        0.0
    } else {
        value.clamp(0.0, cap)
    }
}

/// A HyperPlonk proving workload, characterized (as in Section 6.2 of the
/// paper) by its problem size and its witness sparsity statistics.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Workload {
    /// `μ`: the circuit has `2^μ` gates.
    pub num_vars: usize,
    /// Fraction of witness scalars that are zero (skipped by the Sparse MSM).
    pub zero_fraction: f64,
    /// Fraction of witness scalars that are one (tree-added by the Sparse MSM).
    pub one_fraction: f64,
    /// Measured per-column splits, when the workload comes from a compiled
    /// circuit rather than an assumed uniform split.
    columns: Option<[ColumnSplit; 3]>,
}

impl Workload {
    /// The paper's standard workload: `2^μ` gates with 45% zeros, 45% ones
    /// and 10% dense witness scalars.
    pub fn standard(num_vars: usize) -> Self {
        Self {
            num_vars,
            zero_fraction: 0.45,
            one_fraction: 0.45,
            columns: None,
        }
    }

    /// A workload with validated measured fractions (applied uniformly to
    /// all three witness columns until [`Workload::with_columns`] refines
    /// them).
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if a fraction is NaN, infinite, negative,
    /// or the zero and one fractions sum past 1.
    pub fn new(
        num_vars: usize,
        zero_fraction: f64,
        one_fraction: f64,
    ) -> Result<Self, WorkloadError> {
        let split = ColumnSplit::new(zero_fraction, one_fraction)?;
        Ok(Self {
            num_vars,
            zero_fraction: split.zero_fraction,
            one_fraction: split.one_fraction,
            columns: None,
        })
    }

    /// Attaches measured per-column splits (already validated via
    /// [`ColumnSplit::new`]); the aggregate fractions become the column
    /// means, so scalar consumers stay consistent with per-column ones.
    pub fn with_columns(mut self, columns: [ColumnSplit; 3]) -> Self {
        self.zero_fraction = columns.iter().map(|c| c.zero_fraction).sum::<f64>() / 3.0;
        self.one_fraction = columns.iter().map(|c| c.one_fraction).sum::<f64>() / 3.0;
        self.columns = Some(columns);
        self
    }

    /// Returns a copy re-sized to a different problem size (projecting
    /// measured fractions from a small compiled instance to paper scale).
    pub fn with_num_vars(mut self, num_vars: usize) -> Self {
        self.num_vars = num_vars;
        self
    }

    /// Number of gates `2^μ`.
    pub fn num_gates(&self) -> usize {
        1usize << self.num_vars
    }

    /// The per-column splits: measured ones when attached, otherwise the
    /// aggregate fractions applied uniformly.
    pub fn column_splits(&self) -> [ColumnSplit; 3] {
        self.columns.unwrap_or(
            [ColumnSplit {
                zero_fraction: self.zero_fraction,
                one_fraction: self.one_fraction,
            }; 3],
        )
    }

    /// Witness scalar counts `(zeros, ones, dense)` for column `j` (0, 1 or
    /// 2), rounded so the counts always sum to exactly `2^μ`.
    pub fn column_split(&self, j: usize) -> (usize, usize, usize) {
        self.column_splits()[j].counts(self.num_gates())
    }

    /// Witness scalar counts per column `(zeros, ones, dense)` under the
    /// aggregate fractions, with largest-remainder rounding: the counts sum
    /// to exactly `2^μ` for arbitrary (measured) fractions, instead of the
    /// old truncate-and-underflow arithmetic.
    pub fn witness_split(&self) -> (usize, usize, usize) {
        ColumnSplit {
            zero_fraction: self.zero_fraction,
            one_fraction: self.one_fraction,
        }
        .counts(self.num_gates())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workload_split() {
        let w = Workload::standard(20);
        assert_eq!(w.num_gates(), 1 << 20);
        let (z, o, d) = w.witness_split();
        assert_eq!(z + o + d, 1 << 20);
        // Roughly 10% dense.
        assert!((d as f64 / (1 << 20) as f64 - 0.10).abs() < 0.01);
    }

    #[test]
    fn validating_constructor_rejects_bad_fractions() {
        assert!(matches!(
            Workload::new(10, f64::NAN, 0.1),
            Err(WorkloadError::NotFinite { .. })
        ));
        assert!(matches!(
            Workload::new(10, 0.1, f64::INFINITY),
            Err(WorkloadError::NotFinite { .. })
        ));
        assert!(matches!(
            Workload::new(10, -0.2, 0.1),
            Err(WorkloadError::Negative { .. })
        ));
        assert!(matches!(
            Workload::new(10, 0.7, 0.4),
            Err(WorkloadError::SumExceedsOne { .. })
        ));
        // Error messages are printable.
        let e = Workload::new(10, 0.7, 0.4).unwrap_err();
        assert!(e.to_string().contains("exceeds 1"));
        // Boundary cases are accepted.
        assert!(Workload::new(10, 1.0, 0.0).is_ok());
        assert!(Workload::new(10, 0.0, 0.0).is_ok());
    }

    #[test]
    fn witness_split_is_exact_for_arbitrary_fractions() {
        // The old `as usize` truncation made zeros + ones + dense drift and
        // `0.6 + 0.5`-style hand-written fractions underflow-panic; the
        // largest-remainder rounding must hold the invariant exactly.
        for mu in [1usize, 5, 9, 14] {
            let n = 1usize << mu;
            for &(z, o) in &[
                (0.45, 0.45),
                (0.333333, 0.333333),
                (0.999, 0.0005),
                (0.0, 1.0),
                (1.0, 0.0),
                (0.123456789, 0.87654321 - 0.123456789),
                (1.0 / 3.0, 1.0 / 3.0),
            ] {
                let w = Workload::new(mu, z, o).expect("valid fractions");
                let (zeros, ones, dense) = w.witness_split();
                assert_eq!(zeros + ones + dense, n, "mu={mu} z={z} o={o}");
                assert!((zeros as f64 - n as f64 * z).abs() <= 1.0);
                assert!((ones as f64 - n as f64 * o).abs() <= 1.0);
            }
        }
    }

    #[test]
    fn hand_written_garbage_fractions_do_not_panic() {
        // The fields are public; a hand-rolled over-full split must clamp
        // instead of underflowing like the old subtraction did.
        let w = Workload {
            zero_fraction: 0.8,
            one_fraction: 0.6,
            ..Workload::standard(10)
        };
        let (z, o, d) = w.witness_split();
        assert_eq!(z + o + d, 1 << 10);
        assert_eq!(d, 0);
        let w = Workload {
            zero_fraction: f64::NAN,
            one_fraction: 2.0,
            ..Workload::standard(6)
        };
        let (z, o, d) = w.witness_split();
        assert_eq!(z + o + d, 1 << 6);
        assert_eq!(z, 0);
    }

    #[test]
    fn per_column_splits_round_trip() {
        let cols = [
            ColumnSplit::new(0.9, 0.05).unwrap(),
            ColumnSplit::new(0.2, 0.7).unwrap(),
            ColumnSplit::new(0.1, 0.1).unwrap(),
        ];
        let w = Workload::new(8, 0.0, 0.0).unwrap().with_columns(cols);
        assert_eq!(w.column_splits(), cols);
        for (j, col) in cols.iter().enumerate() {
            let (z, o, d) = w.column_split(j);
            assert_eq!(z + o + d, 1 << 8);
            assert!((z as f64 / 256.0 - col.zero_fraction).abs() < 0.01);
        }
        // Aggregate fractions are the column means.
        assert!((w.zero_fraction - (0.9 + 0.2 + 0.1) / 3.0).abs() < 1e-12);
        // Without measured columns every column shares the aggregate split.
        let uniform = Workload::standard(8);
        assert_eq!(uniform.column_split(0), uniform.witness_split());
        assert_eq!(uniform.column_split(2), uniform.witness_split());
    }

    #[test]
    fn column_split_validation() {
        assert!(ColumnSplit::new(0.5, 0.5).is_ok());
        assert!(ColumnSplit::new(0.500001, 0.5).is_err());
        assert!((ColumnSplit::new(0.25, 0.5).unwrap().dense_fraction() - 0.25).abs() < 1e-12);
    }
}
