//! Shared helpers for the experiment harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the zkSpeed
//! paper. The helpers here keep the console output of all of them in one
//! format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a top-level experiment banner.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Formats a number of bytes as mebibytes.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1u64 << 20) as f64
}

/// Formats seconds as milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Formats a fraction as a percentage.
pub fn pct(fraction: f64) -> f64 {
    fraction * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(mib((1u64 << 20) as f64), 1.0);
        assert_eq!(ms(0.5), 500.0);
        assert_eq!(pct(0.25), 25.0);
        banner("t");
        section("s");
    }
}
