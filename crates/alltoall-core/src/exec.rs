//! Errors from running an exchange.
//!
//! The exchange itself is one walk over the plan:
//! [`StepPlan::execute`](crate::steps::StepPlan::execute).

use torus_sim::SimError;

/// Errors from executing an exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeError {
    /// The simulator rejected a step — the schedule violated the model.
    /// (For the paper's algorithms this indicates an implementation bug;
    /// the failure-injection tests construct it deliberately.)
    Sim(SimError),
    /// Post-run verification failed: a node ended without exactly one
    /// block from every source.
    VerificationFailed(String),
    /// The requested shape cannot be handled.
    BadShape(String),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::Sim(e) => write!(f, "simulation rejected a step: {e}"),
            ExchangeError::VerificationFailed(s) => write!(f, "verification failed: {s}"),
            ExchangeError::BadShape(s) => write!(f, "bad shape: {s}"),
        }
    }
}

impl std::error::Error for ExchangeError {}

impl From<SimError> for ExchangeError {
    fn from(e: SimError) -> Self {
        ExchangeError::Sim(e)
    }
}
