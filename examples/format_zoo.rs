//! Tour of the sparse representations of §1: storage footprint of the same
//! matrix in every format this library implements, plus the §6 SMASH-HHT
//! run.
//!
//! ```text
//! cargo run --release --example format_zoo [sparsity]
//! ```

use hht::sparse::{
    generate, BcsrMatrix, BitVectorMatrix, CooMatrix, CscMatrix, DiaMatrix, EllMatrix, RleMatrix,
    SmashMatrix, SparseFormat,
};
use hht::system::config::SystemConfig;
use hht::system::{runner, Job, JobError, Kernel};

fn main() -> Result<(), JobError> {
    let sparsity: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.85);
    let n = 128;
    let csr = generate::random_csr(n, n, sparsity, 99);
    let triplets = csr.triplets();
    let dense_bytes = n * n * 4;
    println!(
        "matrix: {n}x{n}, {} non-zeros ({:.0}% sparse), dense = {dense_bytes} bytes\n",
        csr.nnz(),
        csr.sparsity() * 100.0
    );

    let coo = CooMatrix::from_triplets(n, n, &triplets).unwrap();
    let csc = CscMatrix::from_triplets(n, n, &triplets).unwrap();
    let bcsr = BcsrMatrix::from_triplets(n, n, 4, 4, &triplets).unwrap();
    let bv = BitVectorMatrix::from_triplets(n, n, &triplets).unwrap();
    let rle = RleMatrix::from_triplets(n, n, &triplets).unwrap();
    let ell = EllMatrix::from_triplets(n, n, &triplets).unwrap();
    let dia = DiaMatrix::from_triplets(n, n, &triplets).unwrap();
    let smash = SmashMatrix::from_triplets(n, n, &triplets).unwrap();

    println!("{:>22} {:>12} {:>12}", "format", "bytes", "vs dense");
    let report = |name: &str, bytes: usize| {
        println!("{:>22} {:>12} {:>11.1}%", name, bytes, bytes as f64 / dense_bytes as f64 * 100.0);
    };
    report("dense", dense_bytes);
    report("COO", coo.storage_bytes());
    report("CSR", csr.storage_bytes());
    report("CSC", csc.storage_bytes());
    report("BCSR (4x4 blocks)", bcsr.storage_bytes());
    report("bit-vector", bv.storage_bytes());
    report("run-length", rle.storage_bytes());
    report(&format!("ELL (k={})", ell.k()), ell.storage_bytes());
    report(&format!("DIA ({} diagonals)", dia.num_diagonals()), dia.storage_bytes());
    report(&format!("SMASH ({} levels)", smash.num_levels()), smash.storage_bytes());
    println!("BCSR fill ratio: {:.2} stored slots per true non-zero", bcsr.fill_ratio());

    // Every format reconstructs the same matrix.
    assert_eq!(coo.triplets(), triplets);
    assert_eq!(csc.triplets(), triplets);
    assert_eq!(bcsr.triplets(), triplets);
    assert_eq!(bv.triplets(), triplets);
    assert_eq!(rle.triplets(), triplets);
    assert_eq!(ell.triplets(), triplets);
    assert_eq!(dia.triplets(), triplets);
    assert_eq!(smash.triplets(), triplets);

    // §6: the HHT programmed for SMASH (hierarchical bitmaps) vs CSR.
    let cfg = SystemConfig::paper_default();
    let v = generate::random_dense_vector(n, 100);
    let via_csr = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &csr, &v))?;
    let via_smash = runner::run(&cfg, &Job::new(Kernel::SmashSpmvHht, &csr, &v))?;
    assert!(via_csr.y.max_abs_diff(&via_smash.y) < 1e-3);
    println!("\nHHT SpMV via CSR:   {} cycles", via_csr.stats.cycles);
    println!(
        "HHT SpMV via SMASH: {} cycles (more indexing work in the HHT, Sec. 6)",
        via_smash.stats.cycles
    );
    Ok(())
}
