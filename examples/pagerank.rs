//! PageRank by repeated SpMV on a power-law web graph — one of the §1
//! motivating workload families ("label propagation", "betweenness
//! centrality", graph analytics in general are built on sparse
//! matrix-vector products).
//!
//! ```text
//! cargo run --release --example pagerank [n] [iters]
//! ```
//!
//! Every power-iteration step runs on the cycle-level simulated MCU, once
//! baseline and once HHT-assisted, accumulating simulated cycles; the
//! ranks are cross-checked against a host-side float computation.

use hht::sparse::{generate, CsrMatrix, DenseVector, SparseFormat};
use hht::system::config::SystemConfig;
use hht::system::{runner, Job, JobError, Kernel};

const DAMPING: f32 = 0.85;

/// Column-normalize the adjacency matrix: each column sums to 1 (a random
/// surfer leaves every page with total probability 1).
fn transition_matrix(adj: &CsrMatrix) -> CsrMatrix {
    let n = adj.rows();
    let mut col_deg = vec![0usize; n];
    for (_, c, _) in adj.triplets() {
        col_deg[c] += 1;
    }
    let triplets: Vec<(usize, usize, f32)> = adj
        .triplets()
        .into_iter()
        .map(|(r, c, _)| (r, c, 1.0 / col_deg[c].max(1) as f32))
        .collect();
    CsrMatrix::from_triplets(n, n, &triplets).expect("same coordinates as adj")
}

/// One damped power-iteration step on the host (verification oracle).
fn host_step(m: &CsrMatrix, rank: &DenseVector) -> DenseVector {
    let n = rank.len();
    let mv = hht::sparse::kernels::spmv(m, rank).expect("shapes agree");
    DenseVector::from(
        (0..n).map(|i| (1.0 - DAMPING) / n as f32 + DAMPING * mv[i]).collect::<Vec<_>>(),
    )
}

fn main() -> Result<(), JobError> {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(128);
    let iters: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(10);
    let adj = generate::power_law_csr(n, (n as f64 * 0.04).max(3.0), 0x9A6E);
    let m = transition_matrix(&adj);
    println!(
        "graph: {n} pages, {} links ({:.1}% sparse), {iters} power iterations\n",
        m.nnz(),
        m.sparsity() * 100.0
    );

    let cfg = SystemConfig::paper_default();
    let mut rank = DenseVector::from(vec![1.0 / n as f32; n]);
    let (mut base_cycles, mut hht_cycles) = (0u64, 0u64);
    for it in 0..iters {
        let base = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &rank))?;
        let hht = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &rank))?;
        base_cycles += base.stats.cycles;
        hht_cycles += hht.stats.cycles;
        // The damping update runs host-side (it is dense and trivial); the
        // SpMV — the expensive kernel — ran on the simulated system.
        let next = host_step(&m, &rank);
        // Sanity: the simulated SpMV agrees with the host oracle.
        let check = hht.y.max_abs_diff(&hht::sparse::kernels::spmv(&m, &rank).unwrap());
        assert!(check < 1e-4, "iteration {it}: divergence {check}");
        rank = next;
    }

    let mut top: Vec<(usize, f32)> = rank.as_slice().iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top pages: {:?}", &top[..5.min(top.len())]);
    println!(
        "\nsimulated cycles over {iters} iterations: baseline {base_cycles}, HHT {hht_cycles} ({:.2}x)",
        base_cycles as f64 / hht_cycles as f64
    );
    println!(
        "at 1.1 GHz that is {:.2} ms vs {:.2} ms of MCU time",
        base_cycles as f64 / 1.1e9 * 1e3,
        hht_cycles as f64 / 1.1e9 * 1e3
    );
    Ok(())
}
