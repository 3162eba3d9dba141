//! Per-session precomputed commit tables: shifted-base window tables
//! ([`MultiBaseTable`]) over the SRS Lagrange bases, built once per
//! preprocessing pass and consumed by every subsequent commitment and
//! opening of the session.
//!
//! A session's bases never change after `preprocess`, so the Pippenger
//! window doublings every `commit` repeats are pure waste on the serving
//! path. A commit or opening handed the tables runs every level that has
//! one on the table engine, with zero doublings and one bucket-aggregation
//! pass per job. A table costs `2·(⌈128/w⌉ + 1)` points per base and wins
//! only at the sizes [`CommitTables::build`] covers, so tables are
//! **opt-in** via a [`PrecomputeBudget`]: small or one-shot sessions keep
//! the default (disabled) budget and skip the build entirely.

use std::ops::RangeInclusive;
use std::sync::Arc;

use zkspeed_curve::{MultiBaseTable, MULTI_BASE_DEFAULT_WINDOW_BITS};
use zkspeed_rt::pool::Backend;

use crate::srs::Srs;

/// Whether a session precomputes commit tables.
///
/// The default is **disabled**: sessions build no tables and commit through
/// the table-free engine. Long-lived sessions that amortize the one-time
/// build over many proofs opt in with [`PrecomputeBudget::unlimited`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PrecomputeBudget {
    enabled: bool,
}

impl PrecomputeBudget {
    /// No precomputation: sessions commit through the table-free engine.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// A table for every SRS level [`CommitTables::build`] covers: about
    /// 20 MB at `μ ≥ 12` with 12-bit windows.
    pub fn unlimited() -> Self {
        Self { enabled: true }
    }

    /// Whether any table building is allowed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Precomputed [`MultiBaseTable`]s over a session's SRS Lagrange bases,
/// one per covered level, `Arc`-shared like the bases themselves.
///
/// Built by [`CommitTables::build`] when a [`PrecomputeBudget`] allows it;
/// consumed by [`crate::commit`] / [`crate::commit_sparse`] /
/// [`crate::open`] whenever they are handed the tables. Levels without a
/// table commit on the table-free engine.
#[derive(Clone, Debug)]
pub struct CommitTables {
    /// `tables[level]` covers the SRS basis of `2^{μ−level}` points.
    tables: Vec<Option<Arc<MultiBaseTable>>>,
}

/// The basis sizes that get a table. Below 32 bases the MSMs are so small
/// that the build (128 doublings a base) could never amortize. Above 2^12
/// a table loses: the table engine still adds one point per term and
/// window, and saves only the doublings and per-window aggregations, which
/// stop being a visible share of an MSM there (one thread, against the
/// table-free engine: a faster proof at 2^10 and 2^12, a slower one at
/// 2^14).
const TABLE_BASES: RangeInclusive<usize> = 32..=1 << 12;

impl CommitTables {
    /// Builds a table for every SRS level of 32 to 2^12 bases. Returns
    /// `None` if the budget is disabled or no level has such a size —
    /// callers then keep the table-free path with zero overhead.
    pub fn build(srs: &Srs, budget: &PrecomputeBudget, backend: &dyn Backend) -> Option<Self> {
        if !budget.is_enabled() {
            return None;
        }
        let tables: Vec<Option<Arc<MultiBaseTable>>> = (0..=srs.num_vars())
            .map(|level| {
                let bases = srs.shared_lagrange_basis(level);
                TABLE_BASES.contains(&bases.len()).then(|| {
                    let w = MULTI_BASE_DEFAULT_WINDOW_BITS;
                    Arc::new(MultiBaseTable::build(bases, w, backend))
                })
            })
            .collect();
        tables
            .iter()
            .any(Option::is_some)
            .then_some(Self { tables })
    }

    /// The table covering `level` of the SRS, if built.
    pub fn level(&self, level: usize) -> Option<&Arc<MultiBaseTable>> {
        self.tables.get(level).and_then(Option::as_ref)
    }

    /// Number of levels with a built table.
    pub fn levels_covered(&self) -> usize {
        self.tables.iter().filter(|t| t.is_some()).count()
    }

    /// Total in-memory size of the built tables in bytes.
    pub fn size_in_bytes(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .map(|t| t.size_in_bytes() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn srs() -> Srs {
        let mut rng = StdRng::seed_from_u64(0x5eed_0099);
        Srs::try_setup(7, &mut rng, &Serial).unwrap()
    }

    #[test]
    fn disabled_budget_builds_nothing() {
        let srs = srs();
        assert!(CommitTables::build(&srs, &PrecomputeBudget::default(), &Serial).is_none());
        assert!(!PrecomputeBudget::default().is_enabled());
        assert_eq!(PrecomputeBudget::default(), PrecomputeBudget::disabled());
    }

    #[test]
    fn unlimited_budget_covers_all_large_levels() {
        let srs = srs();
        let tables = CommitTables::build(&srs, &PrecomputeBudget::unlimited(), &Serial)
            .expect("unlimited budget builds");
        // Levels 0, 1, 2 have 128/64/32 bases (≥ the 32-base floor);
        // levels 3..=7 are below it.
        assert_eq!(tables.levels_covered(), 3);
        assert!(tables.level(0).is_some());
        assert!(tables.level(2).is_some());
        assert!(tables.level(3).is_none());
        assert!(tables.level(99).is_none());
        let expected: u64 = (0..=2)
            .map(|l| tables.level(l).unwrap().size_in_bytes() as u64)
            .sum();
        assert_eq!(tables.size_in_bytes(), expected);
        // Level tables cover exactly their basis.
        assert_eq!(tables.level(1).unwrap().num_bases(), 64);
        assert_eq!(tables.level(0).unwrap().base(5), &srs.lagrange_basis(0)[5]);
        // An SRS with no level of 32 bases gets no tables at all.
        let mut rng = StdRng::seed_from_u64(0x5eed_009a);
        let small = Srs::try_setup(4, &mut rng, &Serial).unwrap();
        assert!(CommitTables::build(&small, &PrecomputeBudget::unlimited(), &Serial).is_none());
    }

    #[test]
    fn tables_cover_32_to_4096_bases() {
        // The level rule at its edges, both ends included.
        for (bases, covered) in [(16, false), (32, true), (1 << 12, true), (1 << 13, false)] {
            assert_eq!(TABLE_BASES.contains(&bases), covered, "{bases} bases");
        }
    }
}
