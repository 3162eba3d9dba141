//! The retired commit-table option.

/// Has no effect: every commitment and opening runs on the one MSM engine,
/// and no session builds tables. Kept so that existing configurations that
/// name [`PrecomputeBudget::disabled`] compile.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PrecomputeBudget {
    _private: (),
}

impl PrecomputeBudget {
    /// The default budget, which, like every budget, builds nothing.
    pub fn disabled() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_budget_builds_nothing() {
        assert_eq!(PrecomputeBudget::default(), PrecomputeBudget::disabled());
    }
}
