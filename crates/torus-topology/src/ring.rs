//! Modular ("ring") arithmetic along a single torus dimension.
//!
//! A torus dimension of size `k` is a bidirectional ring of `k` nodes. The
//! exchange algorithms repeatedly shift positions by ±1, ±2 or ±4 with
//! wraparound, and need to know how many shifts separate two positions along
//! a chosen direction.

use crate::direction::Sign;

/// `(a + delta) mod k` where `delta` may be negative.
///
/// # Panics
///
/// Panics (in debug builds) if `a >= k`.
#[inline]
pub fn ring_add(a: u32, delta: i64, k: u32) -> u32 {
    debug_assert!(a < k, "position {a} out of ring of size {k}");
    let k = k as i64;
    (((a as i64 + delta) % k + k) % k) as u32
}

/// `(a - b) mod k`: the number of `+1` hops from `b` to `a`.
#[inline]
pub fn ring_sub(a: u32, b: u32, k: u32) -> u32 {
    debug_assert!(a < k && b < k);
    ((a as i64 - b as i64).rem_euclid(k as i64)) as u32
}

/// Number of hops from `from` to `to` travelling in direction `sign`
/// around a ring of size `k`. Always in `0..k`.
#[inline]
pub fn ring_hops(from: u32, to: u32, k: u32, sign: Sign) -> u32 {
    match sign {
        Sign::Plus => ring_sub(to, from, k),
        Sign::Minus => ring_sub(from, to, k),
    }
}

/// Minimal distance between two positions on a ring of size `k`
/// (shortest of the two directions).
#[inline]
pub fn ring_distance(a: u32, b: u32, k: u32) -> u32 {
    let d = ring_sub(a, b, k);
    d.min(k - d)
}

/// Ring contraction: the next *alive* member of the stride ring after
/// `from`, travelling in direction `sign`, skipping dead positions.
///
/// Returns `(position, strides_crossed)` where `strides_crossed >= 1` is
/// the number of `stride`-hops the contracted link spans (1 when the
/// immediate successor is alive — the uncontracted case). Returns `None`
/// when every other ring member is dead (the ring has contracted to the
/// single node `from`).
pub fn next_alive<F>(from: u32, stride: u32, k: u32, sign: Sign, alive: F) -> Option<(u32, u32)>
where
    F: Fn(u32) -> bool,
{
    debug_assert!(stride > 0 && k.is_multiple_of(stride));
    debug_assert!(from < k);
    let members = k / stride;
    for s in 1..members {
        let pos = ring_add(from, sign.unit() * (s * stride) as i64, k);
        if alive(pos) {
            return Some((pos, s));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps_positive() {
        assert_eq!(ring_add(10, 4, 12), 2);
        assert_eq!(ring_add(0, 12, 12), 0);
    }

    #[test]
    fn add_wraps_negative() {
        assert_eq!(ring_add(1, -4, 12), 9);
        assert_eq!(ring_add(0, -1, 5), 4);
        assert_eq!(ring_add(0, -25, 5), 0);
    }

    #[test]
    fn sub_is_directed_distance() {
        assert_eq!(ring_sub(2, 10, 12), 4);
        assert_eq!(ring_sub(10, 2, 12), 8);
        assert_eq!(ring_sub(5, 5, 9), 0);
    }

    #[test]
    fn hops_by_direction() {
        // from 0 to 8 on a ring of 12: +8 hops or -4 hops.
        assert_eq!(ring_hops(0, 8, 12, Sign::Plus), 8);
        assert_eq!(ring_hops(0, 8, 12, Sign::Minus), 4);
    }

    #[test]
    fn distance_is_min_of_directions() {
        assert_eq!(ring_distance(0, 8, 12), 4);
        assert_eq!(ring_distance(8, 0, 12), 4);
        assert_eq!(ring_distance(3, 3, 12), 0);
        assert_eq!(ring_distance(0, 6, 12), 6);
    }

    #[test]
    fn next_alive_skips_dead_members() {
        // Ring of positions {1, 5, 9, 13} (k = 16, stride 4).
        let dead = [5u32, 9];
        let alive = |p: u32| !dead.contains(&p);
        // 1 -> 5 contracted past two dead members to 13 (3 strides).
        assert_eq!(next_alive(1, 4, 16, Sign::Plus, alive), Some((13, 3)));
        // 13 -> 1 is unaffected (1 stride).
        assert_eq!(next_alive(13, 4, 16, Sign::Plus, alive), Some((1, 1)));
        // Minus direction from 1 reaches 13 directly.
        assert_eq!(next_alive(1, 4, 16, Sign::Minus, alive), Some((13, 1)));
        // All peers dead: the ring contracted to a single node.
        assert_eq!(next_alive(1, 4, 16, Sign::Plus, |p| p == 1), None);
        // Trivial one-member ring has no successor at all.
        assert_eq!(next_alive(2, 4, 4, Sign::Plus, |_| true), None);
    }

    #[test]
    fn add_then_hops_roundtrip() {
        for k in [4u32, 8, 12, 20] {
            for a in 0..k {
                for h in 0..k {
                    let b = ring_add(a, h as i64, k);
                    assert_eq!(ring_hops(a, b, k, Sign::Plus), h);
                    let c = ring_add(a, -(h as i64), k);
                    assert_eq!(ring_hops(a, c, k, Sign::Minus), h);
                }
            }
        }
    }
}
