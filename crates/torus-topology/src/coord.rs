//! Fixed-capacity multidimensional coordinates.
//!
//! A [`Coord`] identifies a node position inside a torus of up to
//! [`MAX_DIMS`] dimensions. It is a small inline array (no heap allocation),
//! because coordinates are created in the innermost loops of schedule
//! generation and simulation.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of torus dimensions supported by the library.
///
/// Eight dimensions is far beyond any published torus machine (the paper
/// evaluates 2D and 3D, and sketches the general n-D case); the bound keeps
/// [`Coord`] a cheap, `Copy`, stack-only value.
pub const MAX_DIMS: usize = 8;

/// A multidimensional coordinate with inline storage.
///
/// Coordinates are ordered lexicographically, compare by value, and hash by
/// value, so they can be used as map keys. Dimension count is fixed at
/// construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    len: u8,
    xs: [u32; MAX_DIMS],
}

impl Coord {
    /// Creates a coordinate from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() > MAX_DIMS` or `xs` is empty.
    #[inline]
    pub fn new(xs: &[u32]) -> Self {
        assert!(
            !xs.is_empty(),
            "coordinate must have at least one dimension"
        );
        assert!(
            xs.len() <= MAX_DIMS,
            "coordinate has {} dimensions, max is {MAX_DIMS}",
            xs.len()
        );
        let mut buf = [0u32; MAX_DIMS];
        buf[..xs.len()].copy_from_slice(xs);
        Self {
            len: xs.len() as u8,
            xs: buf,
        }
    }

    /// Creates the all-zero coordinate with `n` dimensions.
    #[inline]
    pub fn zero(n: usize) -> Self {
        assert!((1..=MAX_DIMS).contains(&n));
        Self {
            len: n as u8,
            xs: [0; MAX_DIMS],
        }
    }

    /// Number of dimensions.
    #[inline]
    pub(crate) fn ndims(&self) -> usize {
        self.len as usize
    }

    /// The coordinate values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.xs[..self.len as usize]
    }

    /// Returns a copy with dimension `dim` replaced by `value`.
    #[inline]
    pub fn with(&self, dim: usize, value: u32) -> Self {
        let mut c = *self;
        c[dim] = value;
        c
    }

    /// Component-wise `self[d] mod m` — used for node-group classification.
    #[inline]
    pub(crate) fn mod_each(&self, m: u32) -> Self {
        let mut c = *self;
        for d in 0..self.ndims() {
            c[d] %= m;
        }
        c
    }

    /// Component-wise integer division — used for submesh identification.
    #[inline]
    pub(crate) fn div_each(&self, m: u32) -> Self {
        let mut c = *self;
        for d in 0..self.ndims() {
            c[d] /= m;
        }
        c
    }

    /// Sum of all components (useful for `(r + c) mod 4` style direction
    /// selectors).
    #[inline]
    pub fn component_sum(&self) -> u64 {
        self.as_slice().iter().map(|&x| x as u64).sum()
    }
}

impl Index<usize> for Coord {
    type Output = u32;

    #[inline]
    fn index(&self, dim: usize) -> &u32 {
        debug_assert!(dim < self.ndims());
        &self.xs[dim]
    }
}

impl IndexMut<usize> for Coord {
    #[inline]
    fn index_mut(&mut self, dim: usize) -> &mut u32 {
        debug_assert!(dim < self.ndims());
        &mut self.xs[dim]
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:?}", self.as_slice())
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let c = Coord::new(&[1, 2, 3]);
        assert_eq!(c.ndims(), 3);
        assert_eq!(c.as_slice(), &[1, 2, 3]);
        assert_eq!(c[0], 1);
        assert_eq!(c[2], 3);
    }

    #[test]
    fn zero_is_all_zero() {
        let c = Coord::zero(4);
        assert_eq!(c.as_slice(), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_panics() {
        Coord::new(&[]);
    }

    #[test]
    #[should_panic(expected = "max is")]
    fn too_many_dims_panics() {
        Coord::new(&[0; MAX_DIMS + 1]);
    }

    #[test]
    fn with_replaces_one_dim() {
        let c = Coord::new(&[5, 6]);
        let d = c.with(1, 9);
        assert_eq!(d.as_slice(), &[5, 9]);
        // original untouched
        assert_eq!(c.as_slice(), &[5, 6]);
    }

    #[test]
    fn mod_div_each() {
        let c = Coord::new(&[7, 10, 3]);
        assert_eq!(c.mod_each(4).as_slice(), &[3, 2, 3]);
        assert_eq!(c.div_each(4).as_slice(), &[1, 2, 0]);
    }

    #[test]
    fn component_sum() {
        assert_eq!(Coord::new(&[3, 4, 5]).component_sum(), 12);
    }

    #[test]
    fn equality_ignores_trailing_storage() {
        // Two coords built differently but with same logical value are equal.
        let a = Coord::new(&[1, 2]);
        let b = Coord::zero(2).with(0, 1).with(1, 2);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn display_and_debug() {
        let c = Coord::new(&[4, 8]);
        assert_eq!(format!("{c}"), "(4,8)");
        assert_eq!(format!("{c:?}"), "P[4, 8]");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Coord::new(&[0, 9]);
        let b = Coord::new(&[1, 0]);
        assert!(a < b);
    }
}
