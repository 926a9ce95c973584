//! Observability overhead check.
//!
//! The event sinks are `Option`-gated: with tracing disabled every event
//! site costs one branch, so a full kernel run must cost the same cycles
//! *and* essentially the same wall-clock as the seed simulator (<2 %).
//! This bench runs the same HHT SpMV problem with sinks disabled and
//! enabled so the two distributions can be compared directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hht_sparse::{generate, SparseFormat};
use hht_system::config::{SystemConfig, TraceConfig};
use hht_system::{runner, Job, Kernel};

fn obs_overhead(c: &mut Criterion) {
    let m = generate::random_csr(96, 96, 0.6, 97);
    let v = generate::random_dense_vector(96, 98);

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(m.nnz() as u64));
    let configs = [
        ("sinks_disabled", SystemConfig::paper_default()),
        ("sinks_enabled", SystemConfig::paper_default().with_trace(TraceConfig::enabled())),
    ];
    for (name, cfg) in configs {
        group.bench_function(BenchmarkId::new("spmv_hht", name), |b| {
            b.iter(|| runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap().stats.cycles)
        });
    }
    group.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
