//! The cycle-driven flit simulator core.

use std::collections::VecDeque;

use torus_topology::TorusShape;

use crate::channel::ChannelIndexer;

use super::packet::{FlitConfig, FlitError, FlitStats, Packet, PacketId};

/// One flit in flight.
#[derive(Clone, Copy, Debug)]
struct Flit {
    packet: PacketId,
    /// Index (into the packet's route) of the channel whose downstream
    /// buffer currently holds this flit; `IN_INJECTION` while queued at
    /// the source.
    route_pos: u32,
    head: bool,
    tail: bool,
}

const IN_INJECTION: u32 = u32::MAX;

/// Where a flit currently sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    /// Source injection queue of a node.
    Inj(usize),
    /// Downstream buffer of a channel (by dense channel id).
    Buf(usize),
}

/// Where a flit wants to go next cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Target {
    /// Consumption port of the destination node.
    Sink(usize),
    /// A channel (by dense id).
    Chan(usize),
}

struct PacketState {
    /// Route as dense channel ids.
    route: Vec<usize>,
    delivered_flits: u32,
    len: u32,
}

/// Cycle-accurate wormhole simulator over one torus.
///
/// ```
/// use torus_sim::{FlitConfig, FlitSim, Packet, Transmission};
/// use torus_topology::{Coord, Direction, TorusShape};
///
/// let shape = TorusShape::new_2d(8, 8).unwrap();
/// let mut sim = FlitSim::new(&shape, FlitConfig::default());
/// let t = Transmission::along_ring(&shape, &Coord::new(&[0, 0]), Direction::plus(1), 4, 1);
/// sim.add_packet(Packet::from_transmission(&t, 16)); // 16 flits
/// let stats = sim.run().unwrap();
/// assert_eq!(stats.completion_cycle, 4 + 16); // h + m: pipelined
/// ```
pub struct FlitSim {
    indexer: ChannelIndexer,
    config: FlitConfig,
    packets: Vec<PacketState>,
    /// Per-channel downstream FIFO.
    buffers: Vec<VecDeque<Flit>>,
    /// Per-node injection queue.
    inj: Vec<VecDeque<Flit>>,
    /// Per-channel wormhole ownership.
    owner: Vec<Option<PacketId>>,
    stats: FlitStats,
}

impl FlitSim {
    /// Creates a simulator for `shape`.
    pub fn new(shape: &TorusShape, config: FlitConfig) -> Self {
        let indexer = ChannelIndexer::new(shape);
        let nchan = indexer.num_channels();
        let nnodes = shape.num_nodes() as usize;
        Self {
            indexer,
            config,
            packets: Vec::new(),
            buffers: vec![VecDeque::new(); nchan],
            inj: vec![VecDeque::new(); nnodes],
            owner: vec![None; nchan],
            stats: FlitStats::default(),
        }
    }

    /// Queues a packet for injection at cycle 0. Panics on invalid
    /// packets; see [`try_add_packet`](Self::try_add_packet).
    pub fn add_packet(&mut self, p: Packet) {
        self.try_add_packet(p).expect("invalid packet");
    }

    /// Queues a packet, validating length and route.
    pub fn try_add_packet(&mut self, p: Packet) -> Result<PacketId, FlitError> {
        if p.len_flits == 0 {
            return Err(FlitError::EmptyPacket { src: p.src });
        }
        if p.route.is_empty() {
            return Err(FlitError::BadRoute {
                src: p.src,
                reason: "empty route",
            });
        }
        if p.route[0].from != p.src || p.route.last().expect("non-empty").to != p.dst {
            return Err(FlitError::BadRoute {
                src: p.src,
                reason: "route endpoints do not match src/dst",
            });
        }
        for w in p.route.windows(2) {
            if w[0].to != w[1].from {
                return Err(FlitError::BadRoute {
                    src: p.src,
                    reason: "route is not link-contiguous",
                });
            }
        }
        let mut route = Vec::with_capacity(p.route.len());
        for &ch in &p.route {
            route.push(self.indexer.id(ch).map_err(|_| FlitError::BadRoute {
                src: p.src,
                reason: "route contains a non-adjacent channel",
            })?);
        }
        let id = self.packets.len() as PacketId;
        let q = &mut self.inj[p.src as usize];
        for i in 0..p.len_flits {
            q.push_back(Flit {
                packet: id,
                route_pos: IN_INJECTION,
                head: i == 0,
                tail: i + 1 == p.len_flits,
            });
        }
        self.packets.push(PacketState {
            route,
            delivered_flits: 0,
            len: p.len_flits,
        });
        Ok(id)
    }

    /// The next hop a flit wants: `None` means consumption at `dst`.
    fn next_target(&self, f: &Flit) -> Target {
        let ps = &self.packets[f.packet as usize];
        let next_pos = if f.route_pos == IN_INJECTION {
            0
        } else {
            f.route_pos as usize + 1
        };
        if next_pos == ps.route.len() {
            // Destination node = downstream node of the last channel; we
            // recover it from the channel id layout via the indexer shape.
            let last = ps.route[ps.route.len() - 1];
            Target::Sink(self.downstream_node(last))
        } else {
            Target::Chan(ps.route[next_pos])
        }
    }

    /// Downstream node of a channel id (id layout: `from * 2n + diridx`).
    fn downstream_node(&self, cid: usize) -> usize {
        let shape = self.indexer.shape();
        let n = shape.ndims();
        let from = (cid / (2 * n)) as u32;
        let diridx = cid % (2 * n);
        let dim = diridx / 2;
        let sign = if diridx.is_multiple_of(2) {
            torus_topology::Sign::Plus
        } else {
            torus_topology::Sign::Minus
        };
        let c = shape.coord_of(from);
        shape.index_of(&shape.neighbor(&c, torus_topology::Direction::new(dim, sign))) as usize
    }

    /// Runs to completion of all packets (or error).
    pub fn run(&mut self) -> Result<FlitStats, FlitError> {
        let total: u32 = self.packets.len() as u32;
        let mut cycle: u64 = 0;
        let mut idle_cycles: u64 = 0;
        while self.stats.delivered < total {
            cycle += 1;
            if cycle > self.config.max_cycles {
                return Err(FlitError::CycleLimit {
                    limit: self.config.max_cycles,
                });
            }
            let moved = self.step_cycle();
            if moved == 0 {
                idle_cycles += 1;
                if idle_cycles >= self.config.deadlock_patience {
                    return Err(FlitError::Deadlock {
                        cycle,
                        stalled: total - self.stats.delivered,
                    });
                }
            } else {
                idle_cycles = 0;
                self.stats.completion_cycle = cycle;
            }
        }
        Ok(self.stats)
    }

    /// Executes one cycle; returns the number of flit moves.
    fn step_cycle(&mut self) -> usize {
        // Collect candidate moves from the snapshot: (target, source slot,
        // packet id). One candidate per FIFO head; arbitration picks the
        // lowest packet id per target.
        let mut winners: std::collections::HashMap<Target, (PacketId, Slot)> =
            std::collections::HashMap::new();
        let mut consider = |target: Target, pid: PacketId, slot: Slot| {
            winners
                .entry(target)
                .and_modify(|w| {
                    if pid < w.0 {
                        *w = (pid, slot);
                    }
                })
                .or_insert((pid, slot));
        };

        for (node, q) in self.inj.iter().enumerate() {
            if let Some(f) = q.front() {
                if self.eligible(f) {
                    consider(self.next_target(f), f.packet, Slot::Inj(node));
                }
            }
        }
        for (cid, buf) in self.buffers.iter().enumerate() {
            if let Some(f) = buf.front() {
                if self.eligible(f) {
                    consider(self.next_target(f), f.packet, Slot::Buf(cid));
                }
            }
        }

        // Apply winners downstream-first: a buffer that drains this cycle
        // frees its slot for the flit behind it (zero-latency credit
        // return — consistent with the paper's single-flit-channel model).
        // A bounded fixpoint realizes this without topological ordering,
        // which rings do not admit; the result is deterministic because
        // winners are keyed by lowest packet id and each slot moves at
        // most once per cycle.
        let mut pending: Vec<(Target, PacketId, Slot)> = winners
            .into_iter()
            .map(|(t, (pid, slot))| (t, pid, slot))
            .collect();
        pending.sort_by_key(|&(_, pid, slot)| (pid, slot));
        let mut moves = 0usize;
        loop {
            let mut progressed = false;
            let mut still = Vec::with_capacity(pending.len());
            for (target, pid, slot) in pending {
                match target {
                    Target::Sink(_node) => {
                        let f = self.pop_slot(slot);
                        debug_assert_eq!(f.packet, pid);
                        // Tail leaving the final channel's buffer releases it.
                        if f.tail {
                            if let Slot::Buf(cid) = slot {
                                debug_assert_eq!(self.owner[cid], Some(pid));
                                self.owner[cid] = None;
                            }
                        }
                        let ps = &mut self.packets[pid as usize];
                        ps.delivered_flits += 1;
                        self.stats.flits_delivered += 1;
                        if ps.delivered_flits == ps.len {
                            self.stats.delivered += 1;
                        }
                        moves += 1;
                        progressed = true;
                    }
                    Target::Chan(ct) => {
                        if self.buffers[ct].len() >= self.config.buf_cap {
                            // Backpressure; may clear later this cycle if
                            // the blocking buffer drains.
                            still.push((target, pid, slot));
                            continue;
                        }
                        let mut f = self.pop_slot(slot);
                        debug_assert_eq!(f.packet, pid);
                        if f.head {
                            debug_assert!(self.owner[ct].is_none() || self.owner[ct] == Some(pid));
                            self.owner[ct] = Some(pid);
                        }
                        if f.tail {
                            // Tail leaving its previous channel releases it.
                            if let Slot::Buf(prev) = slot {
                                debug_assert_eq!(self.owner[prev], Some(pid));
                                self.owner[prev] = None;
                            }
                        }
                        f.route_pos = if f.route_pos == IN_INJECTION {
                            0
                        } else {
                            f.route_pos + 1
                        };
                        self.buffers[ct].push_back(f);
                        self.stats.channel_flit_moves += 1;
                        moves += 1;
                        progressed = true;
                    }
                }
            }
            pending = still;
            if !progressed || pending.is_empty() {
                break;
            }
        }
        moves
    }

    /// Whether a FIFO-head flit may move this cycle, by wormhole rules:
    /// the target channel must be owned by the flit's packet, or be free
    /// and the flit a header. (Sink moves are always eligible; the sink
    /// accepts one flit per cycle via arbitration.)
    fn eligible(&self, f: &Flit) -> bool {
        match self.next_target(f) {
            Target::Sink(_) => true,
            Target::Chan(ct) => match self.owner[ct] {
                Some(p) => p == f.packet,
                None => f.head,
            },
        }
    }

    fn pop_slot(&mut self, slot: Slot) -> Flit {
        match slot {
            Slot::Inj(node) => self.inj[node].pop_front().expect("winner head exists"),
            Slot::Buf(cid) => self.buffers[cid].pop_front().expect("winner head exists"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transmission::Transmission;
    use torus_topology::{Coord, Direction};

    #[test]
    fn downstream_node_matches_topology() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let sim = FlitSim::new(&shape, FlitConfig::default());
        let from = Coord::new(&[1, 2]);
        for dir in [
            Direction::plus(0),
            Direction::minus(0),
            Direction::plus(1),
            Direction::minus(1),
        ] {
            let to = shape.neighbor(&from, dir);
            let ch = torus_topology::Channel::new(shape.index_of(&from), shape.index_of(&to));
            let cid = sim.indexer.id(ch).unwrap();
            assert_eq!(sim.downstream_node(cid), shape.index_of(&to) as usize);
        }
    }

    #[test]
    fn bad_routes_rejected() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let mut sim = FlitSim::new(&shape, FlitConfig::default());
        let good = Transmission::along_ring(&shape, &Coord::new(&[0, 0]), Direction::plus(1), 2, 1);
        // disconnected route (endpoints patched so contiguity is the defect)
        let mut p = Packet::from_transmission(&good, 4);
        p.route[1] = torus_topology::Channel::new(9, 10);
        p.dst = 10;
        assert!(matches!(
            sim.try_add_packet(p),
            Err(FlitError::BadRoute {
                reason: "route is not link-contiguous",
                ..
            })
        ));
        // wrong endpoints
        let mut p = Packet::from_transmission(&good, 4);
        p.src = 5;
        assert!(matches!(
            sim.try_add_packet(p),
            Err(FlitError::BadRoute {
                reason: "route endpoints do not match src/dst",
                ..
            })
        ));
    }

    #[test]
    fn ownership_is_released_after_delivery() {
        let shape = TorusShape::new_2d(4, 4).unwrap();
        let mut sim = FlitSim::new(&shape, FlitConfig::default());
        let t = Transmission::along_ring(&shape, &Coord::new(&[0, 0]), Direction::plus(1), 3, 1);
        sim.add_packet(Packet::from_transmission(&t, 8));
        sim.run().unwrap();
        assert!(
            sim.owner.iter().all(|o| o.is_none()),
            "all channels released"
        );
        assert!(sim.buffers.iter().all(|b| b.is_empty()), "no flits left");
    }

    #[test]
    fn back_to_back_packets_on_same_route_pipeline() {
        // Same source, same route: the second worm follows immediately
        // after the first tail; total ~ 2m + h.
        let shape = TorusShape::new_2d(8, 8).unwrap();
        let mut sim = FlitSim::new(&shape, FlitConfig::default());
        let t = Transmission::along_ring(&shape, &Coord::new(&[0, 0]), Direction::plus(1), 4, 1);
        sim.add_packet(Packet::from_transmission(&t, 16));
        sim.add_packet(Packet::from_transmission(&t, 16));
        let stats = sim.run().unwrap();
        assert!(stats.completion_cycle <= (2 * 16 + 4) as u64 + 2);
        assert_eq!(stats.delivered, 2);
    }
}
