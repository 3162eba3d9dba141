//! Deterministic chunking, and the thread count of the process-wide pool.
//!
//! [`split_ranges`] cuts an index space into contiguous chunks;
//! [`crate::pool::map_ranges`] fans those chunks out over an explicit
//! [`crate::pool::Backend`] and returns the results **in chunk order**, so a
//! parallel run is bit-identical to the serial run for any associative
//! combine (exact modular field addition, elliptic-curve point
//! accumulation, statistics counters, …). A closure given to `map_ranges` /
//! `map_indices_on` needs no counting code; the pool carries its modmuls.
//!
//! The `ZKSPEED_THREADS` environment variable ([`env_threads`]) governs one
//! thing: the width of [`crate::pool::global`] (`1` makes it
//! [`crate::pool::Serial`]; without it the hardware parallelism). Every
//! other backend is passed explicitly.

use std::ops::Range;
use std::sync::OnceLock;

/// The thread count `ZKSPEED_THREADS` asks for, or the hardware parallelism
/// without it: the width of [`crate::pool::global`], read once per process.
pub fn env_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let hardware = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match std::env::var("ZKSPEED_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!(
                        "zkspeed-rt: ignoring invalid ZKSPEED_THREADS={v:?} \
                         (want an integer >= 1); using hardware parallelism"
                    );
                    hardware()
                }
            },
            Err(_) => hardware(),
        }
    })
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges covering the whole index space in order.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_everything_in_order() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let ranges = split_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                if len > 0 {
                    assert!(ranges.len() <= parts.max(1));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "unbalanced split: {sizes:?}");
                }
            }
        }
    }
}
