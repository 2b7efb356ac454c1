//! Directions of travel along torus dimensions.
//!
//! Every torus link is full duplex (paper, Section 2), which we model as two
//! unidirectional channels. A [`Direction`] — a `(dimension, sign)` pair —
//! selects one of the `2n` channel classes leaving a node.

use std::fmt;

/// Sign of travel along a ring: `Plus` increases the coordinate (mod k),
/// `Minus` decreases it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Sign {
    /// Positive direction (`+r`, `+c`, `+X`, …).
    Plus,
    /// Negative direction (`-r`, `-c`, `-X`, …).
    Minus,
}

impl Sign {
    /// `+1` or `-1`, for ring arithmetic.
    #[inline]
    pub(crate) fn unit(self) -> i64 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sign::Plus => write!(f, "+"),
            Sign::Minus => write!(f, "-"),
        }
    }
}

/// A unidirectional travel direction: dimension index plus sign.
///
/// In the paper's 2D notation, dimension 0 is the row coordinate `r` and
/// dimension 1 the column coordinate `c`; in 3D, dimensions 0, 1, 2 are
/// `X`, `Y`, `Z`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Direction {
    /// Dimension index (0-based).
    pub dim: u8,
    /// Travel sign along that dimension.
    pub sign: Sign,
}

impl Direction {
    /// Convenience constructor.
    #[inline]
    pub fn new(dim: usize, sign: Sign) -> Self {
        debug_assert!(dim < crate::coord::MAX_DIMS);
        Self {
            dim: dim as u8,
            sign,
        }
    }

    /// Positive direction along `dim`.
    #[inline]
    pub fn plus(dim: usize) -> Self {
        Self::new(dim, Sign::Plus)
    }

    /// Negative direction along `dim`.
    #[inline]
    pub fn minus(dim: usize) -> Self {
        Self::new(dim, Sign::Minus)
    }

    /// Dimension as `usize` for indexing.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim as usize
    }

    /// Signed unit step (`+1`/`-1`) along this direction.
    #[inline]
    pub(crate) fn unit(self) -> i64 {
        self.sign.unit()
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [&str; 8] = ["X", "Y", "Z", "W", "V", "U", "T", "S"];
        write!(f, "{}{}", self.sign, NAMES[self.dim as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_steps() {
        assert_eq!(Sign::Plus.unit(), 1);
        assert_eq!(Sign::Minus.unit(), -1);
        assert_eq!(Direction::minus(2).unit(), -1);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Direction::plus(0)), "+X");
        assert_eq!(format!("{}", Direction::minus(1)), "-Y");
        assert_eq!(format!("{}", Direction::plus(2)), "+Z");
    }

    #[test]
    fn ordering_groups_by_dim() {
        let mut v = [
            Direction::minus(1),
            Direction::plus(0),
            Direction::plus(1),
            Direction::minus(0),
        ];
        v.sort();
        assert_eq!(v[0].dim(), 0);
        assert_eq!(v[1].dim(), 0);
        assert_eq!(v[2].dim(), 1);
        assert_eq!(v[3].dim(), 1);
    }
}
