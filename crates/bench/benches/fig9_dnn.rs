//! Fig. 9 bench: DNN fully-connected layers (scaled suite).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hht_sparse::{generate, SparseFormat};
use hht_system::config::SystemConfig;
use hht_system::{runner, Job, Kernel};
use hht_workloads::dnn;

fn bench_fig9(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let mut group = c.benchmark_group("fig9_dnn");
    group.sample_size(10);
    // A further-scaled suite keeps criterion iteration counts tractable.
    for layer in dnn::suite_scaled(16) {
        let m = layer.weights();
        let v = generate::random_dense_vector(m.cols(), layer.seed ^ 0x9);
        let base = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v)).unwrap();
        let hht = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        println!(
            "fig9 point: net={} base={} hht={} speedup={:.3}",
            layer.network,
            base.stats.cycles,
            hht.stats.cycles,
            base.stats.cycles as f64 / hht.stats.cycles as f64
        );
        group.bench_with_input(BenchmarkId::new("hht", &layer.network), &layer, |b, l| {
            let m = l.weights();
            let v = generate::random_dense_vector(m.cols(), l.seed ^ 0x9);
            b.iter(|| runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap().stats.cycles)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
