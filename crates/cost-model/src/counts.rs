//! The four cost dimensions tracked by the paper's complexity analysis.
//!
//! All quantities are *critical-path, per-node* counts: every node acts in
//! lock step, so the completion time of a step is driven by the busiest
//! message of that step. Summed over all steps these counts multiply
//! directly with the [`CommParams`](crate::params::CommParams)
//! coefficients to give completion time (see
//! [`completion`](crate::completion)).

/// Aggregated cost counts of a complete-exchange run (or closed form).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CostCounts {
    /// Number of communication steps (each step charges one `t_s`).
    pub startup_steps: u64,
    /// Critical-path transmitted blocks: `Σ_steps max_node(blocks sent)`.
    pub trans_blocks: u64,
    /// Number of data-rearrangement steps performed between phases/steps.
    pub rearr_steps: u64,
    /// Critical-path rearranged blocks: `Σ_rearrangements max_node(blocks moved)`.
    pub rearr_blocks: u64,
    /// Critical-path propagation hops: `Σ_steps max_message(hops)`.
    pub prop_hops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        assert_eq!(CostCounts::default().startup_steps, 0);
    }
}
