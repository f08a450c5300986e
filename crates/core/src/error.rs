//! Typed errors for user-reachable configuration and pipeline paths.
//!
//! The DoE pipeline and the measurement runners validate untrusted
//! configuration (precision targets, replication shapes, resilience
//! budgets) up front and report problems as [`PipelineError`] values
//! through the `try_*` entry points; the historical panicking entry
//! points delegate to them and panic with the same messages, so
//! existing callers and tests observe identical behavior.

use crate::exec::{BudgetOutcome, PlanError};
use diversify_stats::StatsError;

/// Why a pipeline run or measurement configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The precision target's replication cap is below the floor the
    /// ANOVA stage needs (at least two batches per design run).
    PrecisionCapTooTight {
        /// The configured replication cap.
        cap: u32,
        /// The minimum the design needs.
        floor: u32,
    },
    /// A confidence level outside `(0, 1)`.
    InvalidLevel(f64),
    /// A structurally invalid replication plan or stop rule.
    Plan(PlanError),
    /// A design point's budgeted measurement completed zero
    /// replications, so the design matrix has a hole ANOVA cannot
    /// tolerate.
    EmptyDesignPoint {
        /// The design-run index (0-based).
        run: usize,
        /// How the cell's budget ended.
        outcome: BudgetOutcome,
    },
    /// A caller-supplied design row does not hold exactly one coded
    /// level, −1 or +1, per component class.
    InvalidDesignRow {
        /// The design-run index (0-based).
        run: usize,
    },
    /// A statistical stage failed (degenerate variance, insufficient
    /// data, …).
    Stats(StatsError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::PrecisionCapTooTight { cap, floor } => write!(
                f,
                "precision target caps replications at {cap} but the factorial design needs at \
                 least {floor} per design point (two batches for the ANOVA error term)"
            ),
            PipelineError::InvalidLevel(level) => {
                write!(f, "confidence level must be in (0,1), got {level}")
            }
            PipelineError::Plan(err) => write!(f, "{err}"),
            PipelineError::EmptyDesignPoint { run, outcome } => write!(
                f,
                "design run {run} completed zero replications (budget outcome: {outcome}); the \
                 factorial design cannot tolerate an empty cell"
            ),
            PipelineError::InvalidDesignRow { run } => write!(
                f,
                "design run {run} must hold one coded level (-1 or +1) per component class"
            ),
            PipelineError::Stats(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Plan(err) => Some(err),
            PipelineError::Stats(err) => Some(err),
            _ => None,
        }
    }
}

impl From<PlanError> for PipelineError {
    fn from(err: PlanError) -> Self {
        PipelineError::Plan(err)
    }
}

impl From<StatsError> for PipelineError {
    fn from(err: StatsError) -> Self {
        PipelineError::Stats(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_preserve_legacy_panic_substrings() {
        let cap = PipelineError::PrecisionCapTooTight { cap: 5, floor: 10 };
        assert!(cap.to_string().contains("caps replications"));
        let plan = PipelineError::from(PlanError::EmptyPlan);
        assert!(plan.to_string().contains("non-empty batch plan"));
        let level = PipelineError::InvalidLevel(1.5);
        assert!(level.to_string().contains("(0,1)"));
    }
}
