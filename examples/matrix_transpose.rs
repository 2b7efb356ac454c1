//! Distributed matrix transpose — the classic all-to-all application.
//!
//! A `(B·N) × (B·N)` matrix is distributed over the `N` nodes of a 2D
//! torus in block-row layout: node `i` owns rows `i·B .. (i+1)·B`. The
//! transpose needs every node to send, to every other node, the `B × B`
//! sub-block at their row/column intersection — exactly one personalized
//! block per (source, destination) pair — and the exchange is performed
//! with the paper's message-combining algorithm carrying real payloads.
//!
//! ```text
//! cargo run --release --example matrix_transpose
//! ```

use torus_alltoall::prelude::*;

/// Node-count × node-count grid of B×B tiles; tile payloads are byte
/// matrices in row-major order.
const B: usize = 4;

fn main() {
    let shape = TorusShape::new_2d(4, 8).unwrap();
    let n = shape.num_nodes() as usize;
    let side = B * n;
    println!("transposing a {side}x{side} matrix over a {shape} torus ({n} nodes)");

    // The global matrix: a[r][c] = deterministic function of (r, c).
    let a = |r: usize, c: usize| -> u8 { ((r * 31 + c * 7) % 251) as u8 };

    // Node s owns rows s*B..(s+1)*B. The tile it must send to node d is
    // a[s*B..(s+1)*B][d*B..(d+1)*B].
    let tile = |s: usize, d: usize| -> Vec<u8> {
        let mut t = Vec::with_capacity(B * B);
        for r in 0..B {
            for c in 0..B {
                t.push(a(s * B + r, d * B + c));
            }
        }
        t
    };

    let exchange = Exchange::new(&shape).unwrap();
    let params = CommParams::cray_t3d_like().with_block_bytes((B * B) as u32);
    let (report, deliveries) = exchange
        .run_with_payloads(&params, |s, d| tile(s as usize, d as usize))
        .unwrap();
    assert!(report.verified);
    println!("exchange: {}", report.summary());

    // Node d now holds, from every s, the tile a[sB.., dB..]; the
    // transposed matrix's rows d*B..(d+1)*B are the columns of those
    // tiles. Verify every received element against the direct transpose.
    let mut checked = 0usize;
    for (d, got) in deliveries.iter().enumerate() {
        assert_eq!(got.len(), n - 1);
        for (s, payload) in got {
            let s = *s as usize;
            for r in 0..B {
                for c in 0..B {
                    // element a[s*B + r][d*B + c] must equal
                    // transpose[d*B + c][s*B + r]
                    let orig = a(s * B + r, d * B + c);
                    assert_eq!(payload[r * B + c], orig);
                    checked += 1;
                }
            }
        }
        // The self tile (s == d) never leaves the node — it is transposed
        // locally in a real application.
    }
    println!("verified {checked} transposed elements byte-for-byte");
    println!(
        "completion time model: {:.1} µs total ({} startups, {} blocks critical path)",
        report.total_time(),
        report.counts.startup_steps,
        report.counts.trans_blocks
    );
}
