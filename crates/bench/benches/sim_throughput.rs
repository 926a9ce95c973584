//! Host-side simulator throughput: simulated cycles per host second.
//!
//! Each benchmark runs one kernel to completion and sets criterion's
//! `Throughput::Elements` to the run's simulated cycle count, so the
//! reported `elem/s` reads directly as *simulated cycles per host second*.
//! The SpMV grid crosses {baseline, HHT} x {skip on, skip off} at two
//! sparsity levels and two memory speeds:
//!
//! - `sram1` — the paper's Table-1 single-cycle SRAM. Almost every cycle
//!   does real work, so the event-driven scheduler mostly measures its own
//!   overhead here (the expectation is parity with the legacy loop).
//! - `slow16` — a 16-cycle word access, modelling the same system against
//!   slower memory. Long pending-read, port-arbitration and window-wait
//!   spans dominate, and the scheduler collapses each into one jump: the
//!   high-sparsity SpMV HHT run is the headline (>= 2x over legacy).
//!
//! Simulated cycle counts are identical between the two modes (enforced by
//! `tests/determinism.rs`), so the elem/s ratio is exactly the wall-clock
//! ratio.
//!
//! The SpMSpV rows (baseline, HHT v1, HHT v2) run under the event queue on
//! `sram1` only. The scalar-load-heavy baseline merge is the largest host
//! cost of a paper-corner job, so its rows track the core's per-instruction
//! path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hht_sparse::generate;
use hht_system::config::{Scheduler, SystemConfig};
use hht_system::{runner, Job, Kernel};

const N: usize = 192;

/// Time one run of `job` under `cfg` as `id`, with its simulated cycles as
/// the throughput.
fn bench_job(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    cfg: &SystemConfig,
    job: &Job,
) {
    group.throughput(Throughput::Elements(runner::run(cfg, job).unwrap().stats.cycles));
    group
        .bench_with_input(id, cfg, |b, cfg| b.iter(|| runner::run(cfg, job).unwrap().stats.cycles));
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for (mem, word_cycles) in [("sram1", 1), ("slow16", 16)] {
        for sparsity in [0.5, 0.9] {
            let m = generate::random_csr(N, N, sparsity, 21);
            let v = generate::random_dense_vector(N, 22);
            for (mode, scheduler) in
                [("skip", Scheduler::EventQueue), ("legacy", Scheduler::PerCycle)]
            {
                let cfg = SystemConfig::paper_default()
                    .with_ram_word_cycles(word_cycles)
                    .with_scheduler(scheduler);
                let param = format!("{mem}/s{sparsity}");
                for (name, kernel) in
                    [("spmv_baseline", Kernel::SpmvBaseline), ("spmv_hht", Kernel::SpmvHht)]
                {
                    let id = BenchmarkId::new(format!("{name}/{mode}"), &param);
                    bench_job(&mut group, id, &cfg, &Job::new(kernel, &m, &v));
                }
            }
        }
    }
    let cfg = SystemConfig::paper_default();
    for sparsity in [0.5, 0.9] {
        let m = generate::random_csr(N, N, sparsity, 21);
        let x = generate::random_sparse_vector(N, sparsity, 23);
        for (name, kernel) in [
            ("spmspv_baseline", Kernel::SpmspvBaseline),
            ("spmspv_hht_v1", Kernel::SpmspvHhtV1),
            ("spmspv_hht_v2", Kernel::SpmspvHhtV2),
        ] {
            let id = BenchmarkId::new(format!("{name}/skip"), format!("sram1/s{sparsity}"));
            bench_job(&mut group, id, &cfg, &Job::new(kernel, &m, &x));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
