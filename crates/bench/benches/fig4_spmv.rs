//! Fig. 4 / Fig. 6 bench: SpMV baseline vs HHT (1 and 2 buffers) across
//! sparsity. Criterion measures wall-clock of the *simulation*; the
//! figure-relevant output (simulated cycles) is printed once per point so
//! `cargo bench` regenerates the series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hht_sparse::generate;
use hht_system::config::SystemConfig;
use hht_system::{runner, Job, Kernel};

const N: usize = 64;

fn bench_fig4(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let mut group = c.benchmark_group("fig4_spmv");
    group.sample_size(10);
    for sparsity in [0.1, 0.5, 0.9] {
        let m = generate::random_csr(N, N, sparsity, 4);
        let v = generate::random_dense_vector(N, 5);
        // Print the simulated-cycle series once (the actual figure data).
        let (base_job, hht_job) =
            (Job::new(Kernel::SpmvBaseline, &m, &v), Job::new(Kernel::SpmvHht, &m, &v));
        let base = runner::run(&cfg, &base_job).unwrap();
        let h1 = runner::run(&cfg.with_buffers(1), &hht_job).unwrap();
        let h2 = runner::run(&cfg.with_buffers(2), &hht_job).unwrap();
        println!(
            "fig4 point: sparsity={sparsity} base={} hht1={} hht2={} speedup2={:.3} cpu_wait={:.4}",
            base.stats.cycles,
            h1.stats.cycles,
            h2.stats.cycles,
            base.stats.cycles as f64 / h2.stats.cycles as f64,
            h2.stats.cpu_wait_frac()
        );
        group.bench_with_input(
            BenchmarkId::new("baseline", format!("s{sparsity}")),
            &sparsity,
            |b, _| b.iter(|| runner::run(&cfg, &base_job).unwrap().stats.cycles),
        );
        group.bench_with_input(
            BenchmarkId::new("hht_2buf", format!("s{sparsity}")),
            &sparsity,
            |b, _| b.iter(|| runner::run(&cfg, &hht_job).unwrap().stats.cycles),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
