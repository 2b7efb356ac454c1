//! Per-step execution traces.
//!
//! The benchmark harness regenerates the paper's figures from these traces
//! (e.g. Figure 3's "blocks transmitted in each step" series), and the test
//! suite checks per-step block counts against the derivations in
//! Sections 3.3/3.4.

use crate::engine::StepStat;

/// Trace of one phase: its steps plus any rearrangement performed at the
/// phase boundary.
#[derive(Clone, Debug, Default)]
pub struct PhaseTrace {
    /// Phase label, e.g. `"phase 1"`.
    pub name: String,
    /// One entry per executed step.
    pub steps: Vec<StepStat>,
    /// Critical-path blocks moved by rearrangements recorded during this
    /// phase (normally one entry at the end of the phase).
    pub rearrangements: Vec<u64>,
}

impl PhaseTrace {
    /// Number of steps in the phase.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }
}

/// Full trace of an algorithm run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Phases in execution order.
    pub phases: Vec<PhaseTrace>,
}

impl Trace {
    /// Starts a new phase; subsequent steps are recorded under it.
    pub fn begin_phase(&mut self, name: &str) {
        self.phases.push(PhaseTrace {
            name: name.to_string(),
            ..Default::default()
        });
    }

    /// Records a step; opens an implicit phase if none was begun.
    pub fn record_step(&mut self, stat: StepStat) {
        if self.phases.is_empty() {
            self.begin_phase("(implicit)");
        }
        self.phases.last_mut().expect("non-empty").steps.push(stat);
    }

    /// Records a rearrangement under the current phase.
    pub fn record_rearrangement(&mut self, max_blocks: u64) {
        if self.phases.is_empty() {
            self.begin_phase("(implicit)");
        }
        self.phases
            .last_mut()
            .expect("non-empty")
            .rearrangements
            .push(max_blocks);
    }

    /// Total steps across all phases.
    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(|p| p.steps.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(total: u64, max: u64) -> StepStat {
        StepStat {
            messages: 1,
            total_blocks: total,
            max_blocks: max,
            max_hops: 4,
            retries: 0,
            time_us: 1.0,
        }
    }

    #[test]
    fn phases_accumulate_steps() {
        let mut t = Trace::default();
        t.begin_phase("phase 1");
        t.record_step(stat(10, 5));
        t.record_step(stat(8, 4));
        t.begin_phase("phase 2");
        t.record_step(stat(6, 3));
        assert_eq!(t.total_steps(), 3);
        let names: Vec<&str> = t.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["phase 1", "phase 2"]);
        assert_eq!(t.phases[0].num_steps(), 2);
        assert_eq!(t.phases[1].num_steps(), 1);
    }

    #[test]
    fn implicit_phase_created_on_demand() {
        let mut t = Trace::default();
        t.record_step(stat(1, 1));
        t.record_rearrangement(42);
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].name, "(implicit)");
        assert_eq!(t.phases[0].rearrangements, vec![42]);
    }
}
