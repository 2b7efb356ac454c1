//! Criterion bench C4: wall-clock of the *byte-moving* runtime across
//! torus sizes, worker counts, and block sizes.
//!
//! Unlike the `exchange` bench (which times the simulator's bookkeeping),
//! this measures real work: message assembly memcpys, channel transport,
//! and inter-phase rearrangement passes. Every timed run is also
//! bit-exactly verified, so these numbers are end-to-end costs.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use alltoall_core::Block;
use torus_runtime::{
    crc32, encode_gathered, encode_message, pattern_payload, FaultPlan, FramePool, RetryPolicy,
    Runtime, RuntimeConfig,
};
use torus_topology::TorusShape;

fn bench_runtime_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime-shapes");
    g.sample_size(10);
    let workers = torus_sim::default_threads();
    for dims in [vec![4u32, 4], vec![8, 8], vec![8, 12], vec![4, 4, 4]] {
        let shape = TorusShape::new(&dims).unwrap();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{shape}")),
            &shape,
            |b, shape| {
                let rt =
                    Runtime::new(shape, RuntimeConfig::default().with_workers(workers)).unwrap();
                b.iter(|| {
                    let r = rt.run().unwrap();
                    black_box((r.wire_bytes, r.wall))
                });
            },
        );
    }
    g.finish();
}

fn bench_runtime_workers(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime-8x8-workers");
    g.sample_size(10);
    let shape = TorusShape::new_2d(8, 8).unwrap();
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let rt = Runtime::new(&shape, RuntimeConfig::default().with_workers(w)).unwrap();
            b.iter(|| black_box(rt.run().unwrap().wall));
        });
    }
    g.finish();
}

fn bench_runtime_block_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime-8x8-block-bytes");
    g.sample_size(10);
    let shape = TorusShape::new_2d(8, 8).unwrap();
    let workers = torus_sim::default_threads();
    for m in [16usize, 256, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let rt = Runtime::new(
                &shape,
                RuntimeConfig::default()
                    .with_block_bytes(m)
                    .with_workers(workers),
            )
            .unwrap();
            b.iter(|| black_box(rt.run().unwrap().wall));
        });
    }
    g.finish();
}

/// Recovery-path cost on an 8x8: fault-free baseline vs seeded drop rates
/// healed via deadline + NACK/resend. The delta is the end-to-end price of
/// integrity checking plus retransmission at each fault density.
fn bench_runtime_fault_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime-8x8-fault-recovery");
    g.sample_size(10);
    let shape = TorusShape::new_2d(8, 8).unwrap();
    let workers = torus_sim::default_threads();
    for (label, drop_rate) in [("clean", 0.0f64), ("drop-1pct", 0.01), ("drop-5pct", 0.05)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &drop_rate,
            |b, &rate| {
                let mut config = RuntimeConfig::default().with_workers(workers);
                if rate > 0.0 {
                    config = config
                        .with_faults(FaultPlan::seeded(1998).with_drop_rate(rate))
                        .with_retry(
                            RetryPolicy::default()
                                .with_deadline(Duration::from_millis(10))
                                .with_backoff(Duration::from_micros(500)),
                        );
                }
                let rt = Runtime::new(&shape, config).unwrap();
                b.iter(|| {
                    let r = rt.run().unwrap();
                    black_box((r.wall, r.faults.recovered))
                });
            },
        );
    }
    g.finish();
}

/// Frame assembly micro-bench: the legacy contiguous encoder (one memcpy
/// per payload byte) against the scatter-gather encoder with a warm
/// `FramePool` (header writes plus `Bytes` handle clones, no payload
/// copies). Eight blocks per frame — the widest combine an 8-ary phase
/// produces — at payload sizes from cache-resident to well past it; the
/// gap should widen with the block size.
fn bench_encode_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode-8-blocks");
    for m in [64usize, 4096, 65536] {
        let blocks: Vec<Block<Bytes>> = (0..8u32)
            .map(|i| Block::with_payload(i, i + 8, pattern_payload(i, i + 8, m)))
            .collect();
        g.throughput(Throughput::Bytes((m * blocks.len()) as u64));
        g.bench_with_input(BenchmarkId::new("contiguous", m), &blocks, |b, blocks| {
            b.iter(|| black_box(encode_message(7, blocks)))
        });
        g.bench_with_input(BenchmarkId::new("gathered", m), &blocks, |b, blocks| {
            let mut pool = FramePool::new();
            b.iter(|| {
                let frame = encode_gathered(7, blocks, pool.take_buf(0), pool.take_vec());
                let len = black_box(frame.wire_len());
                if let torus_runtime::WireFrame::Gathered { framing, payloads } = frame {
                    pool.put_buf(framing);
                    pool.put_vec(payloads);
                }
                len
            });
        });
    }
    g.finish();
}

/// The frame checksum on its own, at the segment lengths the data plane
/// feeds it: a block header (20 B) and a small payload (64 B) take the
/// byte loop, 128 B is the first length on the wide kernel, 1 KiB and
/// 64 KiB are bulk payloads.
fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for len in [20usize, 64, 128, 1024, 65536] {
        let data = pattern_payload(1, 2, len);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &data, |b, data| {
            b.iter(|| black_box(crc32(black_box(data))))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_runtime_shapes,
    bench_runtime_workers,
    bench_runtime_block_sizes,
    bench_runtime_fault_recovery,
    bench_encode_paths,
    bench_crc32
);
criterion_main!(benches);
