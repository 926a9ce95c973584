//! Ablation benches for the design choices DESIGN.md calls out: buffer
//! count, SRAM latency, and the CSR-vs-SMASH format engines (§6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hht_sparse::generate;
use hht_system::config::SystemConfig;
use hht_system::{runner, Job, Kernel};

const N: usize = 64;

fn bench_buffers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_buffers");
    group.sample_size(10);
    let m = generate::random_csr(N, N, 0.5, 21);
    let v = generate::random_dense_vector(N, 22);
    let job = Job::new(Kernel::SpmvHht, &m, &v);
    for nb in [1usize, 2, 4] {
        let cfg = SystemConfig::paper_default().with_buffers(nb);
        let r = runner::run(&cfg, &job).unwrap();
        println!("ablate_buffers: N={nb} cycles={}", r.stats.cycles);
        group.bench_with_input(BenchmarkId::from_parameter(nb), &nb, |b, _| {
            b.iter(|| runner::run(&cfg, &job).unwrap().stats.cycles)
        });
    }
    group.finish();
}

fn bench_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_latency");
    group.sample_size(10);
    let m = generate::random_csr(N, N, 0.5, 31);
    let v = generate::random_dense_vector(N, 32);
    let job = Job::new(Kernel::SpmvHht, &m, &v);
    for wc in [1u64, 2, 4] {
        let cfg = SystemConfig::paper_default().with_ram_word_cycles(wc);
        let r = runner::run(&cfg, &job).unwrap();
        println!(
            "ablate_latency: word_cycles={wc} cycles={} cpu_wait={:.4}",
            r.stats.cycles,
            r.stats.cpu_wait_frac()
        );
        group.bench_with_input(BenchmarkId::from_parameter(wc), &wc, |b, _| {
            b.iter(|| runner::run(&cfg, &job).unwrap().stats.cycles)
        });
    }
    group.finish();
}

fn bench_format(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_format");
    group.sample_size(10);
    let cfg = SystemConfig::paper_default();
    let csr = generate::random_csr(N, N, 0.9, 41);
    let v = generate::random_dense_vector(N, 42);
    let (csr_job, smash_job) =
        (Job::new(Kernel::SpmvHht, &csr, &v), Job::new(Kernel::SmashSpmvHht, &csr, &v));
    let r_csr = runner::run(&cfg, &csr_job).unwrap();
    let r_smash = runner::run(&cfg, &smash_job).unwrap();
    println!(
        "ablate_format: csr={} smash={} (Sec. 6: SMASH indexing is more HHT work)",
        r_csr.stats.cycles, r_smash.stats.cycles
    );
    group.bench_function("csr_hht", |b| {
        b.iter(|| runner::run(&cfg, &csr_job).unwrap().stats.cycles)
    });
    group.bench_function("smash_hht", |b| {
        b.iter(|| runner::run(&cfg, &smash_job).unwrap().stats.cycles)
    });
    group.finish();
}

criterion_group!(benches, bench_buffers, bench_latency, bench_format);
criterion_main!(benches);
