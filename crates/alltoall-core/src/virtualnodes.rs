//! Virtual-node padding for tori whose extents are not multiples of four.
//!
//! The paper (Section 6): *"If the number of nodes in each dimension is
//! not a multiple of four, the proposed algorithms can be used by adding
//! virtual nodes, then having every node perform communication steps as
//! proposed."*
//!
//! We implement this as a **logical emulation**: each dimension is padded
//! up to the next multiple of four (minimum 4), virtual nodes participate
//! in the schedule with initially empty buffers, and real blocks may
//! transit virtual positions. Costs are accounted on the padded torus —
//! a conservative upper bound for a real deployment, where each physical
//! node would emulate its virtual neighbors. See DESIGN.md §3.

use torus_topology::{Coord, TorusShape};

/// Rounds one extent up to the next multiple of four (minimum 4).
pub(crate) fn pad_extent(k: u32) -> u32 {
    debug_assert!(k >= 1);
    k.div_ceil(4).max(1) * 4
}

/// The padding relation between a real shape and its padded counterpart.
#[derive(Clone, Debug)]
pub struct Padding {
    real: TorusShape,
    padded: TorusShape,
}

impl Padding {
    /// Computes the padded shape for `real`. The dimension *order* is
    /// preserved (canonicalization happens separately, on the padded
    /// shape).
    pub(crate) fn new(real: &TorusShape) -> Self {
        let dims: Vec<u32> = real.dims().iter().map(|&k| pad_extent(k)).collect();
        let padded = TorusShape::new(&dims).expect("padded shape is valid");
        Self {
            real: real.clone(),
            padded,
        }
    }

    /// Whether any dimension actually grew.
    pub(crate) fn is_padded(&self) -> bool {
        self.real.dims() != self.padded.dims()
    }

    /// The real shape.
    pub(crate) fn real(&self) -> &TorusShape {
        &self.real
    }

    /// The padded shape.
    pub(crate) fn padded(&self) -> &TorusShape {
        &self.padded
    }

    /// Whether a padded-shape coordinate refers to a real node.
    pub(crate) fn is_real(&self, c: &Coord) -> bool {
        (0..self.real.ndims()).all(|d| c[d] < self.real.extent(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_extent_rounds_up() {
        assert_eq!(pad_extent(1), 4);
        assert_eq!(pad_extent(4), 4);
        assert_eq!(pad_extent(5), 8);
        assert_eq!(pad_extent(8), 8);
        assert_eq!(pad_extent(10), 12);
        assert_eq!(pad_extent(12), 12);
    }

    #[test]
    fn no_padding_for_multiples_of_four() {
        let p = Padding::new(&TorusShape::new_2d(8, 12).unwrap());
        assert!(!p.is_padded());
        assert_eq!(p.padded().dims(), &[8, 12]);
    }

    #[test]
    fn padding_6x10() {
        let p = Padding::new(&TorusShape::new_2d(6, 10).unwrap());
        assert!(p.is_padded());
        assert_eq!(p.padded().dims(), &[8, 12]);
    }

    #[test]
    fn only_coordinates_inside_the_real_shape_are_real() {
        let p = Padding::new(&TorusShape::new_2d(6, 10).unwrap());
        assert!(!p.is_real(&Coord::new(&[7, 0])));
        assert!(!p.is_real(&Coord::new(&[0, 11])));
        assert!(p.is_real(&Coord::new(&[5, 9])));
    }
}
