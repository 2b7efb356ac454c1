//! The logical data-array model (Sections 2, 3.3 and 4.1).
//!
//! Each node's buffer is an n-dimensional array of blocks indexed by the
//! destination's coordinate *relative to the node*, measured along the
//! direction the node takes in each phase; axis `p` corresponds to phase
//! `p+1`. With that layout, step `s` of phase `p+1` transmits exactly the
//! slice with axis-`p` index in `[4s, a_p)` — e.g. node `P(0,0,0)` of a
//! `12×12×12` torus sends `B[4s..11, *, *]` in step `s` of phase 1
//! (Figure 3).
//!
//! The paper's physical assumption (Section 2): arrays are stored
//! column-major and *"if physically non-contiguous blocks are transmitted
//! from this array, a message-rearrangement step must take place prior to
//! transmission"*. A slice `{axis p ≥ 4s, others full}` is contiguous iff
//! axis `p` is the slowest-varying axis, so each phase needs its own axis
//! ordering — one rearrangement per phase boundary, `n+1` in total. That
//! constant-per-phase behaviour (vs. per-*step* rearrangement in Tseng et
//! al. \[13\]) is the paper's data-rearrangement advantage; this module
//! makes it checkable.

use torus_topology::{Coord, TorusShape};

use crate::dirsched::DirectionSchedule;

/// The logical send-buffer array of one node, with an explicit axis order
/// tracking which axis is currently slowest (column-major: axes earlier in
/// `order` vary faster).
#[derive(Clone, Debug)]
pub struct DataArray {
    /// Extent of axis `p` = torus extent of the node's phase-`p+1`
    /// dimension.
    extents: Vec<u32>,
    /// Current memory layout: `order[i]` is the axis at varying-speed rank
    /// `i` (rank 0 = fastest). Initially phase-1's axis is slowest.
    order: Vec<usize>,
    /// Number of rearrangement passes performed so far.
    rearrangements: u32,
}

impl DataArray {
    /// Builds the initial array for `node` on a canonical shape: axis `p`
    /// spans the node's phase-`p+1` scatter dimension, and the layout
    /// makes phase 1 contiguous.
    pub fn new(shape: &TorusShape, node: &Coord) -> Self {
        let sched = DirectionSchedule::new(shape);
        let dirs = sched.scatter_dirs(node);
        let extents: Vec<u32> = dirs.iter().map(|d| shape.extent(d.dim())).collect();
        let n = extents.len();
        // rank 0..n-2 = axes 1..n-1 (fast), rank n-1 = axis 0 (slow).
        let mut order: Vec<usize> = (1..n).collect();
        order.push(0);
        Self {
            extents,
            order,
            rearrangements: 0,
        }
    }

    /// Number of phases-axes.
    pub fn ndims(&self) -> usize {
        self.extents.len()
    }

    /// Blocks sent in step `s` (1-based) of within-group phase `p`
    /// (0-based): the slice `axis p in [4s, extent_p)`, full range
    /// elsewhere. Returns 0 once the node's phase dimension is exhausted
    /// (the node idles while longer dimensions continue).
    pub fn sent_count(&self, p: usize, s: u32) -> u64 {
        let ext = self.extents[p] as u64;
        let lo = 4 * s as u64;
        if lo >= ext {
            return 0;
        }
        let others: u64 = self
            .extents
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != p)
            .map(|(_, &e)| e as u64)
            .product();
        (ext - lo) * others
    }

    /// The paper's slice notation for step `s` of phase `p`, e.g.
    /// `B[8..11, *, *]` (Figure 3 uses exactly this form).
    pub fn sent_notation(&self, p: usize, s: u32) -> String {
        let mut parts = Vec::with_capacity(self.ndims());
        for (i, &e) in self.extents.iter().enumerate() {
            if i == p {
                parts.push(format!("{}..{}", 4 * s, e.saturating_sub(1)));
            } else {
                parts.push("*".to_string());
            }
        }
        format!("B[{}]", parts.join(", "))
    }

    /// Whether the phase-`p` send slices are contiguous under the current
    /// memory layout (axis `p` must be the slowest-varying axis).
    pub fn phase_is_contiguous(&self, p: usize) -> bool {
        *self.order.last().expect("non-empty") == p
    }

    /// Rearranges the array so phase `p`'s slices become contiguous
    /// (no-op if they already are). Each rearrangement is one pass over
    /// the whole buffer — the unit the paper charges `(a_1…a_n)·m·ρ` for.
    pub fn rearrange_for_phase(&mut self, p: usize) {
        if self.phase_is_contiguous(p) {
            return;
        }
        self.order.retain(|&a| a != p);
        self.order.push(p);
        self.rearrangements += 1;
    }

    /// Rearrangement passes performed so far.
    pub fn rearrangements(&self) -> u32 {
        self.rearrangements
    }

    /// Simulates the layout demands of a full run of the proposed
    /// algorithm and returns the number of rearrangements needed:
    /// phases `2..=n` each need one (phase 1 is contiguous by
    /// construction), plus one before each of the two submesh phases —
    /// `n + 1` in total, *independent of the network size*.
    pub fn rearrangements_for_full_run(mut self) -> u32 {
        let n = self.ndims();
        for p in 0..n {
            self.rearrange_for_phase(p);
            debug_assert!(self.phase_is_contiguous(p));
        }
        // Submesh phases regroup blocks by destination submesh halves /
        // quarters — one pass each regardless of axis order.
        self.rearrangements + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr_12x12_node00() -> DataArray {
        let shape = TorusShape::new_2d(12, 12).unwrap();
        DataArray::new(&shape, &Coord::new(&[0, 0]))
    }

    #[test]
    fn initial_phase_1_is_contiguous() {
        let a = arr_12x12_node00();
        assert!(a.phase_is_contiguous(0));
        assert!(!a.phase_is_contiguous(1));
    }

    #[test]
    fn sent_counts_match_section_3_4() {
        // Step p of phase 1 on a 12x12 torus: R(C - 4p) blocks.
        let a = arr_12x12_node00();
        assert_eq!(a.sent_count(0, 1), 12 * (12 - 4));
        assert_eq!(a.sent_count(0, 2), 12 * (12 - 8));
        assert_eq!(a.sent_count(0, 3), 0);
    }

    #[test]
    fn sent_notation_matches_figure_3() {
        let shape = TorusShape::new_3d(12, 12, 12).unwrap();
        let a = DataArray::new(&shape, &Coord::new(&[0, 0, 0]));
        // P(0,0,0): phase 1 sends B[4s..11, *, *]
        assert_eq!(a.sent_notation(0, 1), "B[4..11, *, *]");
        assert_eq!(a.sent_notation(0, 2), "B[8..11, *, *]");
        assert_eq!(a.sent_notation(1, 1), "B[*, 4..11, *]");
        assert_eq!(a.sent_notation(2, 2), "B[*, *, 8..11]");
    }

    #[test]
    fn rearrangement_count_is_n_plus_1() {
        for dims in [&[12u32, 12][..], &[12, 12, 12], &[8, 8, 8, 8]] {
            let shape = TorusShape::new(dims).unwrap();
            let a = DataArray::new(&shape, &Coord::zero(dims.len()));
            assert_eq!(
                a.rearrangements_for_full_run(),
                dims.len() as u32 + 1,
                "dims {dims:?}"
            );
        }
    }

    #[test]
    fn rearrange_is_idempotent() {
        let mut a = arr_12x12_node00();
        a.rearrange_for_phase(1);
        assert_eq!(a.rearrangements(), 1);
        a.rearrange_for_phase(1);
        assert_eq!(a.rearrangements(), 1);
        assert!(a.phase_is_contiguous(1));
        assert!(!a.phase_is_contiguous(0));
    }

    #[test]
    fn rectangular_extents_follow_phase_dims() {
        // Node (0,0) of a 16x8 torus (canonical): γ=0, phase 1 along dim 0
        // (extent 16), phase 2 along dim 1 (extent 8).
        let shape = TorusShape::new(&[16, 8]).unwrap();
        let a = DataArray::new(&shape, &Coord::new(&[0, 0]));
        assert_eq!(a.sent_count(0, 1), (16 - 4) * 8);
        assert_eq!(a.sent_count(1, 1), (8 - 4) * 16);
        // γ=1 node scatters along dim 1 (extent 8) in phase 1.
        let b = DataArray::new(&shape, &Coord::new(&[1, 0]));
        assert_eq!(b.sent_count(0, 1), (8 - 4) * 16);
        assert_eq!(b.sent_count(0, 2), 0, "short dimension exhausted");
    }
}

#[cfg(test)]
mod submesh_tests {
    /// The submesh-phase buffer layout of Section 3.3.
    ///
    /// Before phase `n+1`, each node arranges its blocks by destination
    /// quadrant in the order **B0, B1, B3, B2** — own `2×…×2` submesh, step-1
    /// partner's, the diagonal one, step-2 partner's. With that single
    /// rearrangement, *both* steps of the phase send physically contiguous
    /// regions:
    ///
    /// * step 1 sends `[B1, B3]` (slots 1–2, contiguous) and receives the
    ///   partner's `[B0', B2']` into the vacated middle;
    /// * the buffer is then `[B0, B0', B2', B2]`, so step 2's send set
    ///   `[B2', B2]` (slots 2–3) is again contiguous.
    ///
    /// The identical argument covers phase `n+2` with nodes N0, N1, N3, N2.
    /// This is why the whole algorithm needs only `n + 1` rearrangement
    /// passes. `simulate_submesh_phase` plays the two steps on slot labels
    /// and checks contiguity of every send set.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Quadrant {
        /// Blocks for the node's own quarter (`B0`).
        Own,
        /// Blocks for the step-1 partner's quarter (`B1`).
        Step1,
        /// Blocks for the diagonal quarter (`B3`).
        Diagonal,
        /// Blocks for the step-2 partner's quarter (`B2`).
        Step2,
    }

    /// Simulates the two distance-2 (or distance-1) steps on the Section 3.3
    /// layout. Returns the send-slot ranges of both steps; panics if either
    /// send set would be non-contiguous (which would force an extra
    /// rearrangement the paper does not charge).
    fn simulate_submesh_phase() -> [(usize, usize); 2] {
        use Quadrant::*;
        // The §3.3 order: B0, B1, B3, B2.
        let mut buf = [Own, Step1, Diagonal, Step2];

        // Step 1: send everything destined across the step-1 axis — B1 and
        // B3 — and receive the partner's B0' and B2' (which are Own and
        // Step2 relative to *this* node's quadrant map).
        let send1: Vec<usize> = buf
            .iter()
            .enumerate()
            .filter(|(_, q)| matches!(q, Step1 | Diagonal))
            .map(|(i, _)| i)
            .collect();
        assert!(
            send1.windows(2).all(|w| w[1] == w[0] + 1),
            "step-1 send set must be contiguous"
        );
        for &i in &send1 {
            // The partner's incoming blocks land in the vacated slots; from
            // this node's perspective they are Own/Step2 destined.
            buf[i] = if buf[i] == Step1 { Own } else { Step2 };
        }

        // Step 2: send everything across the step-2 axis — the B2-quadrant
        // blocks (original and received).
        let send2: Vec<usize> = buf
            .iter()
            .enumerate()
            .filter(|(_, q)| matches!(q, Step2))
            .map(|(i, _)| i)
            .collect();
        assert!(
            send2.windows(2).all(|w| w[1] == w[0] + 1),
            "step-2 send set must be contiguous"
        );

        [
            (send1[0], *send1.last().expect("non-empty")),
            (send2[0], *send2.last().expect("non-empty")),
        ]
    }

    #[test]
    fn section_3_3_ordering_keeps_both_steps_contiguous() {
        let [s1, s2] = simulate_submesh_phase();
        // step 1 sends slots 1..=2 (B1, B3); step 2 sends slots 2..=3.
        assert_eq!(s1, (1, 2));
        assert_eq!(s2, (2, 3));
    }

    #[test]
    fn naive_ordering_would_not_be_contiguous() {
        // Counterfactual: with the "natural" order B0, B1, B2, B3 the
        // step-1 send set {B1, B3} is slots {1, 3} — non-contiguous, so a
        // per-step rearrangement (the [13] behaviour) would be required.
        use Quadrant::*;
        let buf = [Own, Step1, Step2, Diagonal];
        let send1: Vec<usize> = buf
            .iter()
            .enumerate()
            .filter(|(_, q)| matches!(q, Step1 | Diagonal))
            .map(|(i, _)| i)
            .collect();
        assert!(send1.windows(2).any(|w| w[1] != w[0] + 1));
    }
}
