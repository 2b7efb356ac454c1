//! Packets, configuration, statistics and errors of the flit simulator.

use torus_topology::{Channel, NodeId};

use crate::transmission::Transmission;

/// Dense packet identifier (index into the simulator's packet table).
pub type PacketId = u32;

/// One wormhole packet: `len_flits` flits following a fixed channel route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Injecting node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Channels traversed, in order (must be non-empty and contiguous).
    pub route: Vec<Channel>,
    /// Packet length in flits (header + body + tail; `1` = a packet whose
    /// single flit is both header and tail).
    pub len_flits: u32,
}

impl Packet {
    /// Builds a packet from a step-engine transmission with an explicit
    /// flit length (the step engine carries block counts; the flit level
    /// needs bytes/flits).
    pub fn from_transmission(t: &Transmission, len_flits: u32) -> Self {
        Self {
            src: t.src,
            dst: t.dst,
            route: t.path.clone(),
            len_flits,
        }
    }
}

/// Flit-simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlitConfig {
    /// FIFO capacity (in flits) of each router input buffer.
    pub buf_cap: usize,
    /// Cycles without any flit movement before declaring deadlock.
    pub deadlock_patience: u64,
    /// Hard cycle limit (safety net for runaway configurations).
    pub max_cycles: u64,
}

impl Default for FlitConfig {
    fn default() -> Self {
        Self {
            buf_cap: 4,
            deadlock_patience: 1_000,
            max_cycles: 50_000_000,
        }
    }
}

/// Summary of one flit-level run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlitStats {
    /// Cycle at which the last tail flit was consumed.
    pub completion_cycle: u64,
    /// Packets fully delivered.
    pub delivered: u32,
    /// Total flits consumed at destinations.
    pub flits_delivered: u64,
    /// Total flit-moves across channels (a utilization proxy:
    /// `channel_flit_moves / (channels · cycles)` is mean utilization).
    pub channel_flit_moves: u64,
}

/// Flit-simulation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlitError {
    /// A packet with zero flits.
    EmptyPacket {
        /// Source of the offending packet.
        src: NodeId,
    },
    /// A packet with an empty or non-contiguous route.
    BadRoute {
        /// Source of the offending packet.
        src: NodeId,
        /// Defect description.
        reason: &'static str,
    },
    /// No flit moved for `deadlock_patience` cycles while packets remain.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Packets not yet delivered.
        stalled: u32,
    },
    /// `max_cycles` exceeded.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for FlitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlitError::EmptyPacket { src } => write!(f, "empty packet from node {src}"),
            FlitError::BadRoute { src, reason } => {
                write!(f, "bad route from node {src}: {reason}")
            }
            FlitError::Deadlock { cycle, stalled } => {
                write!(
                    f,
                    "wormhole deadlock at cycle {cycle}: {stalled} packets stalled"
                )
            }
            FlitError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for FlitError {}

#[cfg(test)]
mod tests {
    use super::*;
    use torus_topology::{Coord, Direction, TorusShape};

    #[test]
    fn packet_from_transmission() {
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let t = Transmission::along_ring(&shape, &Coord::new(&[0, 0]), Direction::plus(1), 3, 7);
        let p = Packet::from_transmission(&t, 12);
        assert_eq!(p.src, t.src);
        assert_eq!(p.dst, t.dst);
        assert_eq!(p.route.len(), 3);
        assert_eq!(p.len_flits, 12);
    }

    #[test]
    fn default_config_sane() {
        let c = FlitConfig::default();
        assert!(c.buf_cap >= 1);
        assert!(c.deadlock_patience > 0);
        assert!(c.max_cycles > c.deadlock_patience);
    }

    #[test]
    fn error_display() {
        let e = FlitError::Deadlock {
            cycle: 99,
            stalled: 3,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("3"));
    }
}
