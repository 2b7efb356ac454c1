//! Performance parameters of the communication model (paper Section 2).
//!
//! Completion time of one contention-free step that moves an `m`-byte
//! message over `h` hops under wormhole switching:
//!
//! ```text
//! T = t_s + m·t_c + h·t_l
//! ```
//!
//! All times are in microseconds.

/// Switching technique of the network routers.
///
/// The paper targets wormhole switching but notes the algorithms apply
/// equally to virtual cut-through and packet switching; only the per-step
/// timing differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SwitchingMode {
    /// Wormhole switching: `T = t_s + m·t_c + h·t_l`.
    #[default]
    Wormhole,
    /// Virtual cut-through: same first-flit pipelining as wormhole in the
    /// contention-free case, `T = t_s + m·t_c + h·t_l`.
    VirtualCutThrough,
    /// Store-and-forward packet switching: the whole message is buffered at
    /// every hop, `T = t_s + h·(m·t_c + t_l)`.
    PacketSwitched,
    /// Circuit switching: the path is reserved end to end (`h·t_l` setup),
    /// then data streams at full rate — `T = t_s + h·t_l + m·t_c`, the
    /// same contention-free cost as wormhole (the paper's conclusion notes
    /// the algorithms "can be efficiently used in virtual cut-through or
    /// circuit-switched networks").
    CircuitSwitched,
}

/// The performance parameters of Section 2.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CommParams {
    /// Startup time per message, `t_s` (µs).
    pub t_s: f64,
    /// Transmission time per byte (one flit = one byte), `t_c` (µs/byte).
    pub t_c: f64,
    /// Per-hop propagation delay, `t_l` (µs/hop).
    pub t_l: f64,
    /// Data-rearrangement time per byte, `ρ` (µs/byte).
    pub rho: f64,
    /// Message block size, `m` (bytes per block).
    pub block_bytes: u32,
    /// Router switching technique.
    pub mode: SwitchingMode,
}

impl CommParams {
    /// Parameters loosely modeled on Cray T3D-era hardware, the machine
    /// class the paper references (\[15\]): software startup dominated by the
    /// OS/library (~25 µs), 150 MB/s channels, sub-µs per-hop latency.
    pub fn cray_t3d_like() -> Self {
        Self {
            t_s: 25.0,
            t_c: 0.0065,
            t_l: 0.015,
            rho: 0.01,
            block_bytes: 64,
            mode: SwitchingMode::Wormhole,
        }
    }

    /// Unit parameters: every cost coefficient is 1 and blocks are 1 byte.
    /// Completion time then equals
    /// `startup_steps + blocks + hops + rearranged_blocks`, which makes the
    /// closed forms of Tables 1–2 directly readable off the output.
    pub fn unit() -> Self {
        Self {
            t_s: 1.0,
            t_c: 1.0,
            t_l: 1.0,
            rho: 1.0,
            block_bytes: 1,
            mode: SwitchingMode::Wormhole,
        }
    }

    /// Returns a copy with a different block size.
    pub fn with_block_bytes(self, m: u32) -> Self {
        Self {
            block_bytes: m,
            ..self
        }
    }

    /// Returns a copy with a different startup time.
    pub fn with_t_s(self, t_s: f64) -> Self {
        Self { t_s, ..self }
    }

    /// Time for one contention-free message of `bytes` bytes over `hops`
    /// hops, including startup (µs).
    pub fn message_time(&self, bytes: u64, hops: u32) -> f64 {
        match self.mode {
            SwitchingMode::Wormhole
            | SwitchingMode::VirtualCutThrough
            | SwitchingMode::CircuitSwitched => {
                self.t_s + bytes as f64 * self.t_c + hops as f64 * self.t_l
            }
            SwitchingMode::PacketSwitched => {
                self.t_s + hops as f64 * (bytes as f64 * self.t_c + self.t_l)
            }
        }
    }

    /// Bytes of one block.
    pub fn block_size(&self) -> u64 {
        self.block_bytes as u64
    }
}

impl Default for CommParams {
    fn default() -> Self {
        Self::cray_t3d_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wormhole_message_time() {
        let p = CommParams::unit();
        // t_s + m t_c + h t_l = 1 + 5 + 3
        assert_eq!(p.message_time(5, 3), 9.0);
    }

    #[test]
    fn packet_switched_pays_per_hop() {
        let p = CommParams {
            mode: SwitchingMode::PacketSwitched,
            ..CommParams::unit()
        };
        // 1 + 3*(5 + 1) = 19
        assert_eq!(p.message_time(5, 3), 19.0);
    }

    #[test]
    fn vct_matches_wormhole_without_contention() {
        let w = CommParams::unit();
        let v = CommParams {
            mode: SwitchingMode::VirtualCutThrough,
            ..CommParams::unit()
        };
        assert_eq!(w.message_time(100, 7), v.message_time(100, 7));
    }

    #[test]
    fn circuit_switched_matches_wormhole_contention_free() {
        let w = CommParams::unit();
        let c = CommParams {
            mode: SwitchingMode::CircuitSwitched,
            ..CommParams::unit()
        };
        assert_eq!(w.message_time(100, 7), c.message_time(100, 7));
    }

    #[test]
    fn builders() {
        let p = CommParams::cray_t3d_like()
            .with_block_bytes(128)
            .with_t_s(5.0);
        assert_eq!(p.block_bytes, 128);
        assert_eq!(p.t_s, 5.0);
    }

    #[test]
    fn presets_are_sane() {
        for p in [CommParams::cray_t3d_like(), CommParams::unit()] {
            assert!(p.t_s > 0.0 && p.t_c > 0.0 && p.t_l > 0.0 && p.rho > 0.0);
            assert!(p.block_bytes >= 1);
        }
    }
}
