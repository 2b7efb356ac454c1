//! Per-worker recycling pool for frame buffers.
//!
//! The gathered send path ([`crate::message::encode_gathered`]) needs one
//! small framing [`BytesMut`] and one payload-segment `Vec` per message.
//! Allocating those per step would put an allocator round-trip on the hot
//! path for every send; instead each worker keeps a [`FramePool`] and the
//! *receiving* worker returns a frame's buffers to its own pool after
//! splitting it. Workers send and receive in near-equal measure every
//! step, so the pools stay warm: after the first few steps, steady-state
//! assembly performs no heap allocation at all.
//!
//! The pool also keeps score: [`FramePool::allocations`] counts every
//! acquisition it could not serve from a recycled buffer (pool miss, or a
//! recycled framing buffer that had to grow). The runtime threads this
//! into [`RuntimeReport::allocations`](crate::RuntimeReport::allocations),
//! which is how the report proves the steady state is allocation-free.

use std::sync::{Mutex, PoisonError};

use bytes::{Bytes, BytesMut};

/// Buffers retained per pool. Bounds worst-case retention when ownership
/// of nodes is skewed and one worker receives far more than it sends.
const POOL_CAP: usize = 64;

/// A per-worker pool of reusable framing buffers and payload-segment
/// vectors. Not thread-safe by design — each worker owns one.
#[derive(Debug, Default)]
pub struct FramePool {
    bufs: Vec<BytesMut>,
    vecs: Vec<Vec<Bytes>>,
    allocations: u64,
}

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared framing buffer with at least `capacity` bytes.
    /// Counts as an allocation when the pool is empty or the recycled
    /// buffer has to grow.
    pub fn take_buf(&mut self, capacity: usize) -> BytesMut {
        match self.bufs.pop() {
            Some(mut b) => {
                b.clear();
                if b.capacity() < capacity {
                    self.allocations += 1;
                    b.reserve(capacity);
                }
                b
            }
            None => {
                self.allocations += 1;
                BytesMut::with_capacity(capacity)
            }
        }
    }

    /// Returns a framing buffer for reuse (dropped if the pool is full).
    pub fn put_buf(&mut self, buf: BytesMut) {
        if self.bufs.len() < POOL_CAP {
            self.bufs.push(buf);
        }
    }

    /// Takes a cleared payload-segment vector. Counts as an allocation
    /// when the pool is empty.
    pub fn take_vec(&mut self) -> Vec<Bytes> {
        match self.vecs.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => {
                self.allocations += 1;
                Vec::new()
            }
        }
    }

    /// Returns a payload-segment vector for reuse (dropped if the pool is
    /// full). Any leftover segments are released.
    pub fn put_vec(&mut self, mut vec: Vec<Bytes>) {
        if self.vecs.len() < POOL_CAP {
            vec.clear();
            self.vecs.push(vec);
        }
    }

    /// Acquisitions that could not be served from a recycled buffer.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }
}

/// Bounds the frame pools a [`PoolBank`] retains between runs.
const BANK_CAP: usize = 64;

/// A shared bank of [`FramePool`]s carried across runs.
///
/// Within a run each worker owns its pool exclusively (no locks on the
/// hot path); between runs the pools would normally be dropped with the
/// worker threads. A service executing many exchanges checks each
/// worker's pool back into a bank at job end and hands it to the next
/// job's worker, so the *warm* state — pre-grown framing buffers and
/// segment vectors — survives job boundaries and steady-state submission
/// stays allocation-free. The bank is locked only at job start/end, never
/// per step.
///
/// [`FramePool::allocations`] is cumulative over a pool's lifetime; the
/// runtime records per-run deltas, so a recycled pool never inflates a
/// later job's allocation count.
#[derive(Debug, Default)]
pub struct PoolBank {
    slots: Mutex<Vec<FramePool>>,
}

impl PoolBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a warm pool, or a fresh one if the bank is empty.
    pub fn take(&self) -> FramePool {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    /// Checks a pool back in for the next run (dropped if the bank is
    /// already holding its cap of 64 pools).
    pub fn put(&self, pool: FramePool) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < BANK_CAP {
            slots.push(pool);
        }
    }

    /// The number of warm pools currently banked.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the bank currently holds no warm pools.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_allocates_recycled_take_does_not() {
        let mut pool = FramePool::new();
        let buf = pool.take_buf(128);
        let vec = pool.take_vec();
        assert_eq!(pool.allocations(), 2);
        pool.put_buf(buf);
        pool.put_vec(vec);
        let buf = pool.take_buf(128);
        let _vec = pool.take_vec();
        assert_eq!(pool.allocations(), 2, "warm pool must not allocate");
        assert!(buf.capacity() >= 128);
        assert!(buf.is_empty(), "recycled buffers come back cleared");
    }

    #[test]
    fn growing_a_recycled_buffer_counts_as_allocation() {
        let mut pool = FramePool::new();
        let buf = pool.take_buf(16);
        pool.put_buf(buf);
        let big = pool.take_buf(4096);
        assert!(big.capacity() >= 4096);
        assert_eq!(pool.allocations(), 2);
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = FramePool::new();
        for _ in 0..(POOL_CAP + 10) {
            pool.put_buf(BytesMut::new());
            pool.put_vec(Vec::new());
        }
        assert_eq!(pool.bufs.len(), POOL_CAP);
        assert_eq!(pool.vecs.len(), POOL_CAP);
    }

    #[test]
    fn returned_vec_is_cleared_of_segments() {
        let mut pool = FramePool::new();
        pool.put_vec(vec![Bytes::from(vec![1u8, 2, 3])]);
        assert!(pool.take_vec().is_empty());
    }

    #[test]
    fn bank_round_trips_warm_pools() {
        let bank = PoolBank::new();
        assert!(bank.is_empty());
        let mut pool = bank.take();
        let buf = pool.take_buf(256);
        pool.put_buf(buf);
        let warmed_allocs = pool.allocations();
        bank.put(pool);
        assert_eq!(bank.len(), 1);
        // The next checkout gets the warm pool back: taking the same
        // capacity again costs no allocation.
        let mut pool = bank.take();
        let _ = pool.take_buf(256);
        assert_eq!(pool.allocations(), warmed_allocs);
    }

    #[test]
    fn bank_is_bounded() {
        let bank = PoolBank::new();
        for _ in 0..(BANK_CAP + 5) {
            bank.put(FramePool::new());
        }
        assert_eq!(bank.len(), BANK_CAP);
    }
}
