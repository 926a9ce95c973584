//! Quickstart: run SpMV with and without the Hardware Helper Thread.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random 128x128 CSR matrix at 70 % sparsity, runs the paper's
//! Algorithm-1 baseline and the HHT-assisted kernel on the cycle-level
//! system model, checks both against the golden result, and prints the
//! cycle counts.

use hht::sparse::{generate, SparseFormat};
use hht::system::config::SystemConfig;
use hht::system::{runner, Job, JobError, Kernel};

fn main() -> Result<(), JobError> {
    // Table-1 configuration: RV32 with VL=8, ASIC HHT with 2 buffers.
    let cfg = SystemConfig::paper_default();

    // A reproducible random sparse matrix and dense vector.
    let m = generate::random_csr(128, 128, 0.7, 42);
    let v = generate::random_dense_vector(128, 43);
    println!(
        "matrix: {}x{}, {} non-zeros ({:.0}% sparse)",
        m.rows(),
        m.cols(),
        m.nnz(),
        m.sparsity() * 100.0
    );

    // Baseline: the CPU does everything, including the v[cols[k]] gather.
    let base = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v))?;
    println!("baseline (CPU only):   {:>9} cycles", base.stats.cycles);

    // HHT: the accelerator walks the metadata and pre-gathers v values.
    let hht = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v))?;
    println!("with HHT:              {:>9} cycles", hht.stats.cycles);
    println!("speedup:               {:>9.2}x", base.stats.cycles as f64 / hht.stats.cycles as f64);
    println!("CPU waited for HHT:    {:>8.1}% of cycles", hht.stats.cpu_wait_frac() * 100.0);

    // Both runs were verified against the golden kernel inside the runner;
    // show a couple of entries anyway.
    println!("y[0..4] = {:?}", &hht.y.as_slice()[..4]);
    assert_eq!(base.y, hht.y);
    Ok(())
}
