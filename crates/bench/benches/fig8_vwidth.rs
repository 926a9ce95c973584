//! Fig. 8 bench: SpMV speedup sensitivity to the vector width (1/4/8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hht_sparse::generate;
use hht_system::config::SystemConfig;
use hht_system::{runner, Job, Kernel};

const N: usize = 64;

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_vwidth");
    group.sample_size(10);
    let m = generate::random_csr(N, N, 0.5, 84);
    let v = generate::random_dense_vector(N, 85);
    let (base_job, hht_job) =
        (Job::new(Kernel::SpmvBaseline, &m, &v), Job::new(Kernel::SpmvHht, &m, &v));
    for vl in [1usize, 4, 8] {
        let cfg = SystemConfig::paper_default().with_vlen(vl);
        let base = runner::run(&cfg, &base_job).unwrap();
        let hht = runner::run(&cfg, &hht_job).unwrap();
        println!(
            "fig8 point: vl={vl} base={} hht={} speedup={:.3}",
            base.stats.cycles,
            hht.stats.cycles,
            base.stats.cycles as f64 / hht.stats.cycles as f64
        );
        group.bench_with_input(BenchmarkId::new("baseline", vl), &vl, |b, _| {
            b.iter(|| runner::run(&cfg, &base_job).unwrap().stats.cycles)
        });
        group.bench_with_input(BenchmarkId::new("hht", vl), &vl, |b, _| {
            b.iter(|| runner::run(&cfg, &hht_job).unwrap().stats.cycles)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
