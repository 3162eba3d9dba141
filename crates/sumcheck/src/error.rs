//! Error types for SumCheck verification.

use core::fmt;

/// Reasons a SumCheck (or ZeroCheck) verification can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SumcheckError {
    /// The prover's proof has the wrong number of rounds.
    WrongNumberOfRounds {
        /// Rounds present in the proof.
        got: usize,
        /// Rounds the verifier expected.
        expected: usize,
    },
    /// A row has the wrong number of values for the declared degree.
    WrongRoundPolynomialSize {
        /// The offending round (0-based).
        round: usize,
        /// Values present.
        got: usize,
        /// Values expected (the degree of the polynomial the row samples).
        expected: usize,
    },
    /// A ZeroCheck's Build-MLE coordinate `r_i` is zero (probability
    /// `μ·2⁻²⁵⁵`): `eq(r_i, X)` vanishes at 1, so the row cannot be
    /// rebuilt from the running claim.
    ZeroBuildMleCoordinate {
        /// The round of the zero coordinate (0-based).
        round: usize,
    },
}

impl fmt::Display for SumcheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SumcheckError::WrongNumberOfRounds { got, expected } => {
                write!(f, "proof has {got} rounds, expected {expected}")
            }
            SumcheckError::WrongRoundPolynomialSize {
                round,
                got,
                expected,
            } => write!(f, "round {round} row has {got} values, expected {expected}"),
            SumcheckError::ZeroBuildMleCoordinate { round } => {
                write!(f, "round {round} has a zero Build-MLE coordinate")
            }
        }
    }
}

impl std::error::Error for SumcheckError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SumcheckError::WrongNumberOfRounds {
            got: 3,
            expected: 4,
        };
        assert!(e.to_string().contains("3 rounds"));
        let e = SumcheckError::ZeroBuildMleCoordinate { round: 2 };
        assert!(e.to_string().contains("round 2"));
        let e = SumcheckError::WrongRoundPolynomialSize {
            round: 1,
            got: 2,
            expected: 5,
        };
        assert!(e.to_string().contains("expected 5"));
    }
}
