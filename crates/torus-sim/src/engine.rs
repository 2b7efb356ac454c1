//! The step-execution engine: contention checking plus cost accounting.

use cost_model::{CommParams, CompletionTime, CostCounts};
use torus_topology::{NodeId, TorusShape};

use crate::channel::ChannelIndexer;
use crate::error::SimError;
use crate::trace::Trace;
use crate::transmission::Transmission;

/// Statistics of one executed step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStat {
    /// Number of messages in the step.
    pub messages: u32,
    /// Blocks moved network-wide.
    pub total_blocks: u64,
    /// Blocks of the largest message (critical path — one-port means this
    /// is also the busiest node's volume).
    pub max_blocks: u64,
    /// Hops of the longest message.
    pub max_hops: u32,
    /// Recovery retry cycles charged against the step. Always zero for
    /// the analytic engine; the byte-moving runtime fills it in when a
    /// fault plan forces retransmissions.
    pub retries: u64,
    /// Completion time of the step under the engine's parameters (µs).
    pub time_us: f64,
}

/// Step-accurate torus network engine.
///
/// Every [`execute_step`](Engine::execute_step) verifies the paper's
/// Section 2 model — one-port nodes, exclusive unidirectional channels —
/// and accumulates the four cost components. Occupancy tracking uses
/// epoch-stamped flat arrays, so a step costs `O(messages + hops)` with no
/// per-step clearing.
pub struct Engine {
    params: CommParams,
    indexer: ChannelIndexer,
    // Epoch-stamped occupancy. A slot is "occupied this step" iff its stamp
    // equals the current epoch.
    chan_stamp: Vec<u32>,
    chan_owner: Vec<(NodeId, NodeId)>,
    send_stamp: Vec<u32>,
    recv_stamp: Vec<u32>,
    epoch: u32,
    counts: CostCounts,
    time: CompletionTime,
    trace: Trace,
}

impl Engine {
    /// Creates an engine for `shape` under `params`.
    pub fn new(shape: &TorusShape, params: CommParams) -> Self {
        let indexer = ChannelIndexer::new(shape);
        let nchan = indexer.num_channels();
        let nnodes = shape.num_nodes() as usize;
        Self {
            params,
            indexer,
            chan_stamp: vec![0; nchan],
            chan_owner: vec![(0, 0); nchan],
            send_stamp: vec![0; nnodes],
            recv_stamp: vec![0; nnodes],
            epoch: 0,
            counts: CostCounts::default(),
            time: CompletionTime::default(),
            trace: Trace::default(),
        }
    }

    /// Opens a new phase in the trace.
    pub fn begin_phase(&mut self, name: &str) {
        self.trace.begin_phase(name);
    }

    /// Executes one communication step consisting of `transmissions`
    /// performed in parallel.
    ///
    /// Validates the model, then accumulates costs:
    /// * startup: one step (`t_s`),
    /// * transmission: blocks of the largest message (`max·m·t_c`),
    /// * propagation: hops of the longest message (`max_hops·t_l`).
    ///
    /// An empty step (all nodes idle, e.g. a barrier the schedule still
    /// charges) is allowed and pays only the startup.
    ///
    /// On error the step has **no effect** on accumulated costs, and the
    /// engine remains usable (occupancy is epoch-local).
    pub fn execute_step(&mut self, transmissions: &[Transmission]) -> Result<StepStat, SimError> {
        self.epoch += 1;
        let epoch = self.epoch;

        let mut stat = StepStat::default();
        for t in transmissions {
            if t.src == t.dst {
                return Err(SimError::SelfMessage { node: t.src });
            }
            if t.path.is_empty() {
                return Err(SimError::MalformedPath {
                    src: t.src,
                    dst: t.dst,
                    reason: "empty channel path",
                });
            }
            if t.path[0].from != t.src {
                return Err(SimError::MalformedPath {
                    src: t.src,
                    dst: t.dst,
                    reason: "path does not start at the source",
                });
            }
            if t.path.last().expect("non-empty").to != t.dst {
                return Err(SimError::MalformedPath {
                    src: t.src,
                    dst: t.dst,
                    reason: "path does not end at the destination",
                });
            }
            for w in t.path.windows(2) {
                if w[0].to != w[1].from {
                    return Err(SimError::MalformedPath {
                        src: t.src,
                        dst: t.dst,
                        reason: "path is not link-contiguous",
                    });
                }
            }

            // One-port constraints.
            let src = t.src as usize;
            let dst = t.dst as usize;
            if self.send_stamp[src] == epoch {
                return Err(SimError::SendPortBusy { node: t.src });
            }
            self.send_stamp[src] = epoch;
            if self.recv_stamp[dst] == epoch {
                return Err(SimError::ReceivePortBusy { node: t.dst });
            }
            self.recv_stamp[dst] = epoch;

            // Channel exclusivity.
            for &ch in &t.path {
                let cid = self.indexer.id(ch)?;
                if self.chan_stamp[cid] == epoch {
                    return Err(SimError::ChannelContention {
                        channel: ch,
                        first: self.chan_owner[cid],
                        second: (t.src, t.dst),
                    });
                }
                self.chan_stamp[cid] = epoch;
                self.chan_owner[cid] = (t.src, t.dst);
            }

            stat.messages += 1;
            stat.total_blocks += t.blocks;
            stat.max_blocks = stat.max_blocks.max(t.blocks);
            stat.max_hops = stat.max_hops.max(t.hops());
        }

        // Completion time of the step: all messages proceed in parallel;
        // the step ends when the slowest finishes.
        let m = self.params.block_size();
        let slowest = transmissions
            .iter()
            .map(|t| self.params.message_time(t.blocks * m, t.hops()))
            .fold(self.params.t_s, f64::max);
        stat.time_us = slowest;

        self.counts.startup_steps += 1;
        self.counts.trans_blocks += stat.max_blocks;
        self.counts.prop_hops += stat.max_hops as u64;
        self.time.startup += self.params.t_s;
        self.time.transmission += stat.max_blocks as f64 * m as f64 * self.params.t_c;
        self.time.propagation += stat.max_hops as f64 * self.params.t_l;
        self.trace.record_step(stat);
        Ok(stat)
    }

    /// Records a data-rearrangement step: every node reorders at most
    /// `max_blocks_per_node` blocks in local memory (cost `blocks·m·ρ` on
    /// the critical path).
    pub fn rearrange(&mut self, max_blocks_per_node: u64) {
        self.counts.rearr_steps += 1;
        self.counts.rearr_blocks += max_blocks_per_node;
        self.time.rearrangement +=
            max_blocks_per_node as f64 * self.params.block_size() as f64 * self.params.rho;
        self.trace.record_rearrangement(max_blocks_per_node);
    }

    /// Accumulated critical-path cost counts.
    pub fn counts(&self) -> CostCounts {
        self.counts
    }

    /// Accumulated completion time (µs) under the engine's parameters.
    pub fn elapsed(&self) -> CompletionTime {
        self.time
    }

    /// Execution trace (per phase, per step).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_topology::{Coord, Direction};

    fn engine() -> Engine {
        Engine::new(&TorusShape::new_2d(8, 8).unwrap(), CommParams::unit())
    }

    fn tx(e: &Engine, from: [u32; 2], dir: Direction, hops: u32, blocks: u64) -> Transmission {
        Transmission::along_ring(e.indexer.shape(), &Coord::new(&from), dir, hops, blocks)
    }

    #[test]
    fn disjoint_messages_pass() {
        let mut e = engine();
        let a = tx(&e, [0, 0], Direction::plus(1), 4, 10);
        let b = tx(&e, [1, 0], Direction::plus(1), 4, 8);
        let stat = e.execute_step(&[a, b]).unwrap();
        assert_eq!(stat.messages, 2);
        assert_eq!(stat.total_blocks, 18);
        assert_eq!(stat.max_blocks, 10);
        assert_eq!(stat.max_hops, 4);
        // unit params, 1-byte blocks: t_s + m t_c + h t_l = 1 + 10 + 4
        assert_eq!(stat.time_us, 15.0);
    }

    #[test]
    fn overlapping_paths_rejected() {
        let mut e = engine();
        // 0,0 -> 0,4 and 0,2 -> 0,6 share channels (0,2)->(0,3) etc.
        let a = tx(&e, [0, 0], Direction::plus(1), 4, 1);
        let b = tx(&e, [0, 2], Direction::plus(1), 4, 1);
        let err = e.execute_step(&[a, b]).unwrap_err();
        assert!(matches!(err, SimError::ChannelContention { .. }));
    }

    #[test]
    fn opposite_directions_do_not_conflict() {
        let mut e = engine();
        // Same physical links, opposite unidirectional channels.
        let a = tx(&e, [0, 0], Direction::plus(1), 4, 1);
        let b = tx(&e, [0, 4], Direction::minus(1), 4, 1);
        assert!(e.execute_step(&[a, b]).is_ok());
    }

    #[test]
    fn double_send_rejected() {
        let mut e = engine();
        let a = tx(&e, [0, 0], Direction::plus(1), 1, 1);
        let b = tx(&e, [0, 0], Direction::plus(0), 1, 1);
        let err = e.execute_step(&[a, b]).unwrap_err();
        assert_eq!(err, SimError::SendPortBusy { node: 0 });
    }

    #[test]
    fn double_receive_rejected() {
        let mut e = engine();
        let a = tx(&e, [0, 1], Direction::minus(1), 1, 1); // -> (0,0)
        let b = tx(&e, [1, 0], Direction::minus(0), 1, 1); // -> (0,0)
        let err = e.execute_step(&[a, b]).unwrap_err();
        assert_eq!(err, SimError::ReceivePortBusy { node: 0 });
    }

    #[test]
    fn self_message_rejected() {
        let mut e = engine();
        let t = Transmission::over_path(3, 3, 1, vec![]);
        assert_eq!(
            e.execute_step(&[t]).unwrap_err(),
            SimError::SelfMessage { node: 3 }
        );
    }

    #[test]
    fn malformed_paths_rejected() {
        let mut e = engine();
        let good = tx(&e, [0, 0], Direction::plus(1), 2, 1);
        // wrong start
        let mut bad = good.clone();
        bad.src = 9;
        assert!(matches!(
            e.execute_step(&[bad]).unwrap_err(),
            SimError::MalformedPath {
                reason: "path does not start at the source",
                ..
            }
        ));
        // wrong end
        let mut bad = good.clone();
        bad.dst = 9;
        assert!(matches!(
            e.execute_step(&[bad]).unwrap_err(),
            SimError::MalformedPath {
                reason: "path does not end at the destination",
                ..
            }
        ));
        // gap in the middle
        let mut bad = good.clone();
        bad.path[1] = torus_topology::Channel::new(5, 6);
        bad.dst = 6;
        assert!(matches!(
            e.execute_step(&[bad]).unwrap_err(),
            SimError::MalformedPath {
                reason: "path is not link-contiguous",
                ..
            }
        ));
    }

    #[test]
    fn failed_step_does_not_change_costs() {
        let mut e = engine();
        let a = tx(&e, [0, 0], Direction::plus(1), 4, 5);
        e.execute_step(std::slice::from_ref(&a)).unwrap();
        let counts_before = e.counts();
        let b = tx(&e, [0, 2], Direction::plus(1), 4, 5);
        assert!(e.execute_step(&[a, b]).is_err());
        assert_eq!(e.counts(), counts_before);
        // engine still usable
        let c = tx(&e, [4, 4], Direction::plus(0), 2, 1);
        assert!(e.execute_step(&[c]).is_ok());
    }

    #[test]
    fn empty_step_pays_startup_only() {
        let mut e = engine();
        let stat = e.execute_step(&[]).unwrap();
        assert_eq!(stat.messages, 0);
        assert_eq!(stat.time_us, 1.0); // t_s
        assert_eq!(e.counts().startup_steps, 1);
        assert_eq!(e.counts().trans_blocks, 0);
    }

    #[test]
    fn costs_accumulate() {
        let mut e = engine();
        e.begin_phase("phase 1");
        let a = tx(&e, [0, 0], Direction::plus(1), 4, 10);
        e.execute_step(&[a]).unwrap();
        let b = tx(&e, [0, 0], Direction::plus(1), 4, 6);
        e.execute_step(&[b]).unwrap();
        e.rearrange(64);
        let c = e.counts();
        assert_eq!(c.startup_steps, 2);
        assert_eq!(c.trans_blocks, 16);
        assert_eq!(c.prop_hops, 8);
        assert_eq!(c.rearr_steps, 1);
        assert_eq!(c.rearr_blocks, 64);
        let t = e.elapsed();
        assert_eq!(t.startup, 2.0);
        assert_eq!(t.transmission, 16.0);
        assert_eq!(t.propagation, 8.0);
        assert_eq!(t.rearrangement, 64.0);
        assert_eq!(e.trace().phases[0].num_steps(), 2);
    }

    #[test]
    fn same_node_can_send_and_receive() {
        // Full duplex + separate injection/consumption: A->B and B->A in
        // one step is legal.
        let mut e = engine();
        let a = tx(&e, [0, 0], Direction::plus(1), 1, 1);
        let b = tx(&e, [0, 1], Direction::minus(1), 1, 1);
        assert!(e.execute_step(&[a, b]).is_ok());
    }
}
