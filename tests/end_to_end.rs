//! Cross-crate integration: every kernel, run end-to-end on the cycle-level
//! system (CPU + HHT + SRAM), must agree numerically with the golden
//! `hht-sparse` kernels across shapes, sparsities and configurations.

use hht::sparse::{generate, kernels};
use hht::system::config::SystemConfig;
use hht::system::{runner, Job, Kernel};

#[test]
fn spmv_matches_golden_across_shapes() {
    let cfg = SystemConfig::paper_default();
    for (rows, cols) in [(1, 1), (1, 16), (16, 1), (7, 13), (33, 65), (64, 64)] {
        let m = generate::random_csr(rows, cols, 0.6, rows as u64 * 131 + cols as u64);
        let v = generate::random_dense_vector(cols, 5);
        // Runners verify against golden internally; also check directly.
        let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        let gold = kernels::spmv(&m, &v).unwrap();
        assert!(
            out.y.max_abs_diff(&gold) <= 1e-3,
            "{rows}x{cols}: diff {}",
            out.y.max_abs_diff(&gold)
        );
    }
}

#[test]
fn spmv_matches_golden_across_sparsities() {
    let cfg = SystemConfig::paper_default();
    for s in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
        let m = generate::random_csr(48, 48, s, (s * 100.0) as u64 + 3);
        let v = generate::random_dense_vector(48, 6);
        runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v)).unwrap();
        runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    }
}

#[test]
fn spmv_matches_golden_across_vector_widths() {
    let m = generate::random_csr(40, 40, 0.5, 77);
    let v = generate::random_dense_vector(40, 78);
    for vl in [1usize, 2, 4, 8, 16] {
        let cfg = SystemConfig::paper_default().with_vlen(vl);
        let b = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v)).unwrap();
        let h = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        assert_eq!(b.y, h.y, "VL={vl}");
    }
}

#[test]
fn spmspv_three_kernels_agree_across_sparsities() {
    let cfg = SystemConfig::paper_default();
    for s in [0.2, 0.5, 0.8, 0.98] {
        let m = generate::random_csr(48, 48, s, (s * 1000.0) as u64);
        let x = generate::random_sparse_vector(48, s, (s * 1000.0) as u64 + 1);
        let base = runner::run(&cfg, &Job::new(Kernel::SpmspvBaseline, &m, &x)).unwrap();
        let v1 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
        let v2 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV2, &m, &x)).unwrap();
        assert!(v1.y.max_abs_diff(&base.y) < 1e-3, "v1 at s={s}");
        assert!(v2.y.max_abs_diff(&base.y) < 1e-3, "v2 at s={s}");
    }
}

#[test]
fn spmspv_with_mismatched_sparsities() {
    // Matrix and vector sparsity need not be equal.
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(32, 32, 0.3, 91);
    let x = generate::random_sparse_vector(32, 0.95, 92);
    let base = runner::run(&cfg, &Job::new(Kernel::SpmspvBaseline, &m, &x)).unwrap();
    let v1 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
    assert!(v1.y.max_abs_diff(&base.y) < 1e-3);
}

#[test]
fn smash_hht_agrees_with_csr_hht() {
    let cfg = SystemConfig::paper_default();
    for s in [0.5, 0.9, 0.99] {
        let csr = generate::random_csr(64, 64, s, (s * 100.0) as u64 + 40);
        let v = generate::random_dense_vector(64, 41);
        let a = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &csr, &v)).unwrap();
        let b = runner::run(&cfg, &Job::new(Kernel::SmashSpmvHht, &csr, &v)).unwrap();
        assert!(a.y.max_abs_diff(&b.y) < 1e-3, "s={s}");
    }
}

#[test]
fn buffer_counts_do_not_change_results() {
    let m = generate::random_csr(32, 32, 0.5, 55);
    let x = generate::random_sparse_vector(32, 0.5, 56);
    let mut last = None;
    for nb in [1usize, 2, 3, 4] {
        let cfg = SystemConfig::paper_default().with_buffers(nb);
        let out = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
        if let Some(prev) = &last {
            assert_eq!(&out.y, prev, "N={nb} changed the numeric result");
        }
        last = Some(out.y);
    }
}

#[test]
fn ram_latency_does_not_change_results() {
    let m = generate::random_csr(32, 32, 0.6, 65);
    let v = generate::random_dense_vector(32, 66);
    let mut last = None;
    for wc in [1u64, 2, 3, 5] {
        let cfg = SystemConfig::paper_default().with_ram_word_cycles(wc);
        let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        if let Some(prev) = &last {
            assert_eq!(&out.y, prev, "word_cycles={wc} changed the numeric result");
        }
        last = Some(out.y);
    }
}

#[test]
fn empty_and_degenerate_inputs() {
    let cfg = SystemConfig::paper_default();
    // Fully empty matrix.
    let m = generate::random_csr(8, 8, 1.0, 1);
    let v = generate::random_dense_vector(8, 2);
    let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    assert!(out.y.as_slice().iter().all(|y| *y == 0.0));
    // Empty sparse vector.
    let m = generate::random_csr(8, 8, 0.5, 3);
    let x = hht::sparse::SparseVector::zeros(8);
    let out = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
    assert!(out.y.as_slice().iter().all(|y| *y == 0.0));
    let out = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV2, &m, &x)).unwrap();
    assert!(out.y.as_slice().iter().all(|y| *y == 0.0));
}

#[test]
fn single_dense_row_matrix() {
    // One row holding every non-zero: exercises chunking across many
    // buffers' worth of elements in a single row.
    let cfg = SystemConfig::paper_default();
    let triplets: Vec<(usize, usize, f32)> = (0..64).map(|c| (0usize, c, 1.0 + c as f32)).collect();
    let m = hht::sparse::CsrMatrix::from_triplets(1, 64, &triplets).unwrap();
    let x = generate::random_sparse_vector(64, 0.3, 9);
    let base = runner::run(&cfg, &Job::new(Kernel::SpmspvBaseline, &m, &x)).unwrap();
    let v1 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
    assert!(v1.y.max_abs_diff(&base.y) < 1e-3);
}
