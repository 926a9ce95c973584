//! Edge-sensor scenario: sparse-matrix x sparse-vector on an MCU (§2's
//! "real-time machine learning based inference engines ... on low-power
//! sensors"). The activation vector of an event-driven sensor front-end is
//! itself sparse, so the kernel is SpMSpV and the choice between the two
//! HHT variants of §5.1 matters.
//!
//! ```text
//! cargo run --release --example edge_sensor
//! ```

use hht::sparse::generate;
use hht::system::config::SystemConfig;
use hht::system::{runner, Job, JobError, Kernel};

fn main() -> Result<(), JobError> {
    let cfg = SystemConfig::paper_default();
    let n = 256;
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "sparsity", "baseline", "variant1", "variant2", "v1 cpu-idle", "v2 cpu-idle"
    );
    // Sweep the event rate: a quiet sensor produces a very sparse
    // activation vector, a busy one a dense-ish vector.
    for sparsity in [0.5, 0.7, 0.9, 0.95] {
        let m = generate::random_csr(n, n, sparsity, 0xE0 + (sparsity * 100.0) as u64);
        let x = generate::random_sparse_vector(n, sparsity, 0xF0 + (sparsity * 100.0) as u64);
        let base = runner::run(&cfg, &Job::new(Kernel::SpmspvBaseline, &m, &x))?;
        let v1 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x))?;
        let v2 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV2, &m, &x))?;
        assert!(v1.y.max_abs_diff(&base.y) < 1e-3);
        assert!(v2.y.max_abs_diff(&base.y) < 1e-3);
        println!(
            "{:>8.0}% {:>10} {:>10} {:>10} {:>11.1}% {:>11.1}%",
            sparsity * 100.0,
            base.stats.cycles,
            v1.stats.cycles,
            v2.stats.cycles,
            v1.stats.cpu_wait_frac() * 100.0,
            v2.stats.cpu_wait_frac() * 100.0,
        );
    }
    println!();
    println!("variant-1 supplies aligned (matrix, vector) pairs — less CPU work,");
    println!("but the HHT does the whole merge and the CPU idles (Fig. 7).");
    println!("variant-2 supplies value-or-zero per matrix nnz — the CPU multiplies");
    println!("zeros at high sparsity but is rarely stalled (Sec. 5.1).");
    Ok(())
}
