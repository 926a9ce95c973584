//! Benches for the extension features: programmable HHT (§7), tiled SpMV
//! (§5.5 fn. 6), the dense-expansion crossover (§6) and the L1D
//! integration (§3.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hht_sim::config::CacheGeometry;
use hht_sparse::generate;
use hht_system::config::SystemConfig;
use hht_system::{runner, tiling, Job, Kernel};

const N: usize = 64;

fn bench_programmable(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(N, N, 0.5, 61);
    let v = generate::random_dense_vector(N, 62);
    let (asic_job, prog_job) =
        (Job::new(Kernel::SpmvHht, &m, &v), Job::new(Kernel::SpmvHhtProgrammable, &m, &v));
    let asic = runner::run(&cfg, &asic_job).unwrap();
    let prog = runner::run(&cfg, &prog_job).unwrap();
    println!(
        "programmable: asic={} prog={} ratio={:.2}",
        asic.stats.cycles,
        prog.stats.cycles,
        prog.stats.cycles as f64 / asic.stats.cycles as f64
    );
    let mut group = c.benchmark_group("programmable_hht");
    group.sample_size(10);
    group.bench_function("asic", |b| b.iter(|| runner::run(&cfg, &asic_job).unwrap().stats.cycles));
    group.bench_function("microprogram", |b| {
        b.iter(|| runner::run(&cfg, &prog_job).unwrap().stats.cycles)
    });
    group.finish();
}

fn bench_tiling(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(N, N, 0.5, 71);
    let v = generate::random_dense_vector(N, 72);
    let mut group = c.benchmark_group("tiled_spmv");
    group.sample_size(10);
    for tile in [8usize, 16, 32] {
        let t = tiling::run_spmv_tiled(&cfg, &m, &v, tile);
        println!("tiling: tile={tile} tiles={} cycles={}", t.tiles, t.out.stats.cycles);
        group.bench_with_input(BenchmarkId::from_parameter(tile), &tile, |b, &tile| {
            b.iter(|| tiling::run_spmv_tiled(&cfg, &m, &v, tile).out.stats.cycles)
        });
    }
    group.finish();
}

fn bench_crossover(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(N, N, 0.2, 81);
    let v = generate::random_dense_vector(N, 82);
    let [dense_job, base_job, hht_job] =
        [Kernel::DenseMatvec, Kernel::SpmvBaseline, Kernel::SpmvHht].map(|k| Job::new(k, &m, &v));
    println!(
        "crossover @20%: dense={} sparse={} hht={}",
        runner::run(&cfg, &dense_job).unwrap().stats.cycles,
        runner::run(&cfg, &base_job).unwrap().stats.cycles,
        runner::run(&cfg, &hht_job).unwrap().stats.cycles
    );
    let mut group = c.benchmark_group("crossover");
    group.sample_size(10);
    group.bench_function("dense_matvec", |b| {
        b.iter(|| runner::run(&cfg, &dense_job).unwrap().stats.cycles)
    });
    group.bench_function("sparse_hht", |b| {
        b.iter(|| runner::run(&cfg, &hht_job).unwrap().stats.cycles)
    });
    group.finish();
}

fn bench_l1d(c: &mut Criterion) {
    let slow = SystemConfig::paper_default().with_ram_word_cycles(4);
    let cached = slow.with_l1d(CacheGeometry::embedded_4k());
    let m = generate::random_csr(N, N, 0.5, 91);
    let v = generate::random_dense_vector(N, 92);
    let job = Job::new(Kernel::SpmvBaseline, &m, &v);
    println!(
        "l1d @4-cycle mem: uncached={} cached={}",
        runner::run(&slow, &job).unwrap().stats.cycles,
        runner::run(&cached, &job).unwrap().stats.cycles
    );
    let mut group = c.benchmark_group("l1d");
    group.sample_size(10);
    group.bench_function("uncached", |b| b.iter(|| runner::run(&slow, &job).unwrap().stats.cycles));
    group.bench_function("cached", |b| b.iter(|| runner::run(&cached, &job).unwrap().stats.cycles));
    group.finish();
}

criterion_group!(benches, bench_programmable, bench_tiling, bench_crossover, bench_l1d);
criterion_main!(benches);
