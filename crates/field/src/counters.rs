//! Global (thread-local) modular-multiplication counters.
//!
//! Table 1 of the zkSpeed paper characterizes every HyperPlonk kernel by its
//! modmul count and arithmetic intensity. Because every field multiplication
//! in this repository funnels through the Montgomery multipliers generated by
//! [`impl_montgomery_field!`], counting them here gives exact per-kernel
//! modmul counts: the prover reads them before and after each kernel it
//! runs and reports the differences with every proof (its `ProverReport`).
//!
//! The counters are thread-local, so concurrent tests do not interfere.
//!
//! [`impl_montgomery_field!`]: crate::impl_montgomery_field

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
pub fn add_modmul_count(delta: ModmulCount) {
    FR_MULS.with(|c| c.set(c.get() + delta.fr));
    FQ_MULS.with(|c| c.set(c.get() + delta.fq));
}

/// Runs `f`, returning its result together with the modmuls it recorded, and
/// rewinds this thread's counters to their prior state.
///
/// This is the worker half of the parallel counting protocol: run the chunk
/// under `measure_modmuls`, ship the delta back with the chunk result, and
/// let the spawning thread [`add_modmul_count`] the deltas in chunk order —
/// totals then match a serial run at any thread count, whether the closure
/// ran inline or on a scoped worker.
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
    use crate::{Fq, Fr};

    #[test]
    fn counters_track_multiplications() {
        let before = modmul_count();
        let a = Fr::from_u64(3); // from_u64 costs one Fr mul (by R²)
        let b = Fr::from_u64(5);
        let _ = a * b;
        let x = Fq::from_u64(7);
        let _ = x * x;
        let after = modmul_count();
        let delta = after.since(&before);
        assert!(delta.fr >= 3, "expected ≥3 Fr muls, got {}", delta.fr);
        assert!(delta.fq >= 2, "expected ≥2 Fq muls, got {}", delta.fq);
        assert_eq!(delta.total(), delta.fr + delta.fq);
    }
}
