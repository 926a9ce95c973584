//! Fig. 5 / Fig. 7 bench: SpMSpV baseline vs HHT variant-1 / variant-2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hht_sparse::generate;
use hht_system::config::SystemConfig;
use hht_system::{runner, Job, Kernel};

const N: usize = 64;

fn bench_fig5(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let mut group = c.benchmark_group("fig5_spmspv");
    group.sample_size(10);
    for sparsity in [0.1, 0.5, 0.9] {
        let m = generate::random_csr(N, N, sparsity, 14);
        let x = generate::random_sparse_vector(N, sparsity, 15);
        let jobs = [
            ("baseline", Kernel::SpmspvBaseline),
            ("variant1", Kernel::SpmspvHhtV1),
            ("variant2", Kernel::SpmspvHhtV2),
        ]
        .map(|(name, kernel)| (name, Job::new(kernel, &m, &x)));
        let [base, v1, v2] = jobs.each_ref().map(|(_, job)| runner::run(&cfg, job).unwrap());
        println!(
            "fig5 point: sparsity={sparsity} base={} v1={} v2={} wait_v1={:.4} wait_v2={:.4}",
            base.stats.cycles,
            v1.stats.cycles,
            v2.stats.cycles,
            v1.stats.cpu_wait_frac(),
            v2.stats.cpu_wait_frac()
        );
        for (name, job) in &jobs {
            group.bench_with_input(
                BenchmarkId::new(*name, format!("s{sparsity}")),
                &sparsity,
                |b, _| b.iter(|| runner::run(&cfg, job).unwrap().stats.cycles),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
