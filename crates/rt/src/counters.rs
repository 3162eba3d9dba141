//! Thread-local modular-multiplication counters.
//!
//! Table 1 of the zkSpeed paper characterizes every HyperPlonk kernel by its
//! modmul count and arithmetic intensity. Every field multiplication funnels
//! through the Montgomery multipliers of `zkspeed_field`, which call
//! [`record`], so the prover counts each kernel exactly: it reads the
//! counters around each kernel it runs and reports the differences with
//! every proof (its `ProverReport`).
//!
//! The counters are thread-local, so concurrent callers do not interfere. A
//! closure given to `map_ranges` / `map_indices_on` needs no counting code;
//! the pool carries its modmuls ([`crate::pool`] says how).

use core::cell::Cell;

thread_local! {
    static FR_MULS: Cell<u64> = const { Cell::new(0) };
    static FQ_MULS: Cell<u64> = const { Cell::new(0) };
}

/// Records one modular multiplication for a field with the given limb count
/// (4 limbs = 255-bit Fr, 6 limbs = 381-bit Fq).
#[doc(hidden)]
#[inline]
pub fn record(limbs: usize) {
    if limbs == 4 {
        FR_MULS.with(|c| c.set(c.get() + 1));
    } else {
        FQ_MULS.with(|c| c.set(c.get() + 1));
    }
}

/// A snapshot of the modmul counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ModmulCount {
    /// 255-bit (Fr) Montgomery multiplications.
    pub fr: u64,
    /// 381-bit (Fq) Montgomery multiplications.
    pub fq: u64,
}

impl ModmulCount {
    /// Total multiplications of either width.
    pub fn total(&self) -> u64 {
        self.fr + self.fq
    }

    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &ModmulCount) -> ModmulCount {
        ModmulCount {
            fr: self.fr - earlier.fr,
            fq: self.fq - earlier.fq,
        }
    }
}

/// Reads the current thread's counters.
pub fn modmul_count() -> ModmulCount {
    ModmulCount {
        fr: FR_MULS.with(Cell::get),
        fq: FQ_MULS.with(Cell::get),
    }
}

/// Adds a delta (measured on another thread) into this thread's counters.
pub(crate) fn add_modmul_count(delta: ModmulCount) {
    FR_MULS.with(|c| c.set(c.get() + delta.fr));
    FQ_MULS.with(|c| c.set(c.get() + delta.fq));
}

/// Runs `f`, returning its result together with the modmuls it recorded, and
/// rewinds this thread's counters to their prior state.
pub fn measure_modmuls<T>(f: impl FnOnce() -> T) -> (T, ModmulCount) {
    let before = modmul_count();
    let out = f();
    let delta = modmul_count().since(&before);
    FR_MULS.with(|c| c.set(before.fr));
    FQ_MULS.with(|c| c.set(before.fq));
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_multiplications() {
        let before = modmul_count();
        (0..3).for_each(|_| record(4));
        (0..2).for_each(|_| record(6));
        let delta = modmul_count().since(&before);
        assert_eq!(delta, ModmulCount { fr: 3, fq: 2 });
        assert_eq!(delta.total(), 5);

        let ((), inner) = measure_modmuls(|| record(4));
        assert_eq!(inner, ModmulCount { fr: 1, fq: 0 });
        assert_eq!(modmul_count().since(&before), delta, "measuring rewinds");
        add_modmul_count(inner);
        assert_eq!(modmul_count().since(&before), ModmulCount { fr: 4, fq: 2 });
    }
}
