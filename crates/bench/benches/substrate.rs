//! Substrate micro-benchmarks: raw throughput of the pieces the
//! reproduction is built on (assembler, decoder, golden kernels, simulator
//! steps per host-second). Not a paper figure — this is the engineering
//! dashboard for the simulator itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hht_isa::{asm::assemble, decode, encode};
use hht_sparse::{generate, kernels};
use hht_system::config::SystemConfig;
use hht_system::{runner, Job, Kernel};

fn bench_isa(c: &mut Criterion) {
    let program = assemble(
        "li a0, 8\nvsetvli t0, a0, e32, m1\nloop:\nvle32.v v1, (a1)\nvsll.vi v1, v1, 2\n\
         vluxei32.v v2, (a3), v1\nvfmacc.vv v0, v1, v2\naddi a1, a1, 32\naddi t1, t1, -1\n\
         bnez t1, loop\nebreak",
    )
    .unwrap();
    let words = program.words();
    let mut group = c.benchmark_group("isa");
    group.throughput(Throughput::Elements(words.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| program.instrs().iter().map(|i| encode(*i)).collect::<Vec<_>>())
    });
    group.bench_function("decode", |b| {
        b.iter(|| words.iter().map(|w| decode(*w).unwrap()).collect::<Vec<_>>())
    });
    group.finish();
}

fn bench_golden(c: &mut Criterion) {
    let m = generate::random_csr(256, 256, 0.8, 7);
    let v = generate::random_dense_vector(256, 8);
    let x = generate::random_sparse_vector(256, 0.8, 9);
    let mut group = c.benchmark_group("golden_kernels");
    group.bench_function("spmv", |b| b.iter(|| kernels::spmv(&m, &v).unwrap()));
    group.bench_function("spmspv", |b| b.iter(|| kernels::spmspv(&m, &x).unwrap()));
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(64, 64, 0.5, 17);
    let v = generate::random_dense_vector(64, 18);
    // Simulated cycles per run, for a cycles/host-second figure of merit.
    let cycles = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v)).unwrap().stats.cycles;
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(cycles));
    group.bench_function("spmv_baseline_64", |b| {
        b.iter(|| runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v)).unwrap().stats.cycles)
    });
    group.finish();
}

criterion_group!(benches, bench_isa, bench_golden, bench_simulator);
criterion_main!(benches);
