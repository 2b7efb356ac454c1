//! Criterion bench: the paper's buffer caching — a fresh exchange against
//! a prepared one that starts every run from its cached seeded state.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alltoall_core::Exchange;
use cost_model::CommParams;
use torus_topology::TorusShape;

fn bench_prepared_vs_fresh(c: &mut Criterion) {
    // The paper's "caching of message buffers" claim: repeated exchanges
    // skip shift-vector recomputation by cloning a cached seeded state.
    let mut g = c.benchmark_group("buffer-caching");
    g.sample_size(20);
    let shape = TorusShape::new_2d(16, 16).unwrap();
    g.bench_function("fresh-16x16", |b| {
        let ex = Exchange::new(&shape).unwrap();
        b.iter(|| {
            black_box(
                ex.run_counting(&CommParams::cray_t3d_like())
                    .unwrap()
                    .counts,
            )
        });
    });
    g.bench_function("prepared-16x16", |b| {
        let prepared = alltoall_core::PreparedExchange::new(&shape).unwrap();
        b.iter(|| black_box(prepared.run(&CommParams::cray_t3d_like()).unwrap().counts));
    });
    g.finish();
}

criterion_group!(benches, bench_prepared_vs_fresh);
criterion_main!(benches);
