//! Fabric scheduler throughput: simulated cycles per host second, per
//! scheduler, across tile counts.
//!
//! Each benchmark runs one fabric SpMV to completion and sets criterion's
//! `Throughput::Elements` to the simulated wall-cycle count, so `elem/s`
//! reads directly as *simulated cycles per host second*. The grid crosses
//! N in {4, 8, 16} tiles x {event queue, per-cycle} at two memory
//! speeds:
//!
//! - `sram1` — the paper's single-cycle SRAM. Idle spans are short, so
//!   the event queue mostly measures its own bookkeeping overhead here.
//! - `slow64` — a 64-cycle word access. Parked tiles dominate the
//!   schedule, and the event queue's per-tile parking pays off: the
//!   16-tile run is the headline (>= 10x over the per-cycle loop, the
//!   ratio `BENCH_core.json` gates).
//!
//! The two schedulers produce bit-identical simulated results (enforced
//! by `tests/determinism.rs`), so elem/s ratios are exactly wall-clock
//! ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hht_sparse::generate;
use hht_system::config::{Scheduler, SystemConfig};
use hht_system::{runner, FabricConfig, Job, Kernel};

const N: usize = 192;

fn bench_fabric_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_throughput");
    group.sample_size(10);
    let m = generate::random_csr(N, N, 0.5, 21);
    let v = generate::random_dense_vector(N, 22);
    let job = Job::new(Kernel::SpmvHht, &m, &v);
    for (mem, word_cycles) in [("sram1", 1u64), ("slow64", 64)] {
        let base = SystemConfig::paper_default().with_ram_word_cycles(word_cycles);
        for tiles in [4usize, 8, 16] {
            let fab = FabricConfig::scaled(tiles);
            for (mode, cfg) in
                [("event_queue", base), ("percycle", base.with_scheduler(Scheduler::PerCycle))]
            {
                let cycles = runner::run_fabric(&cfg, fab, &job).unwrap().stats.cycles;
                group.throughput(Throughput::Elements(cycles));
                group.bench_with_input(
                    BenchmarkId::new(format!("spmv/{mode}"), format!("{mem}/t{tiles}")),
                    &cfg,
                    |b, cfg| b.iter(|| runner::run_fabric(cfg, fab, &job).unwrap().stats.cycles),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fabric_throughput);
criterion_main!(benches);
