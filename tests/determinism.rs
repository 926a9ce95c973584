//! The simulation is fully deterministic: identical inputs produce
//! identical cycle counts, statistics and results — a property the
//! experiment sweeps rely on (and which a real Spike-with-extensions setup
//! also has).

use hht::fault::FaultConfig;
use hht::sparse::generate;
use hht::system::config::{Scheduler, SystemConfig, TraceConfig};
use hht::system::{experiments, runner, Job, Kernel, RunOutput};
use proptest::prelude::*;

#[test]
fn repeated_runs_are_bit_identical() {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(48, 48, 0.6, 1234);
    let v = generate::random_dense_vector(48, 1235);
    let a = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    let b = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.y, b.y);
}

#[test]
fn experiment_points_are_reproducible() {
    let cfg = SystemConfig::paper_default();
    let a = experiments::spmv_point(&cfg, 48, 0.5, 2);
    let b = experiments::spmv_point(&cfg, 48, 0.5, 2);
    assert_eq!(a, b);
    let c = experiments::spmspv_point(&cfg, 48, 0.5, 2, Kernel::SpmspvHhtV1);
    let d = experiments::spmspv_point(&cfg, 48, 0.5, 2, Kernel::SpmspvHhtV1);
    assert_eq!(c, d);
}

#[test]
fn different_seeds_give_different_matrices_same_trends() {
    let cfg = SystemConfig::paper_default();
    // Three seeds, all must show HHT gains.
    for seed in [1u64, 1000, 424242] {
        let m = generate::random_csr(64, 64, 0.5, seed);
        let v = generate::random_dense_vector(64, seed ^ 0xF);
        let base = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &v)).unwrap();
        let hht = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        assert!(
            hht.stats.cycles < base.stats.cycles,
            "seed {seed}: {} !< {}",
            hht.stats.cycles,
            base.stats.cycles
        );
    }
}

#[test]
fn stats_are_internally_consistent() {
    let cfg = SystemConfig::paper_default();
    let m = generate::random_csr(48, 48, 0.5, 7);
    let v = generate::random_dense_vector(48, 8);
    let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    let s = out.stats;
    // The HHT delivered exactly nnz elements through the primary window.
    assert_eq!(s.hht.elements_delivered, 48 * 48 / 2);
    // Every delivered element was fetched from memory by the BE, plus one
    // metadata read per element (cols array).
    assert_eq!(s.hht.engine.mem_reads, 2 * s.hht.elements_delivered);
    // Wait fractions are proper fractions.
    assert!(s.cpu_wait_frac() >= 0.0 && s.cpu_wait_frac() <= 1.0);
    assert!(s.hht_wait_frac() >= 0.0 && s.hht_wait_frac() <= 1.0);
    // The core retired at least one instruction per matrix row.
    assert!(s.core.instructions > 48);
}

// ---------------------------------------------------------------------------
// Cycle-skipping scheduler vs legacy per-cycle loop
// ---------------------------------------------------------------------------

/// The single-tile kernels the scheduler differentials index into.
const KERNELS: [Kernel; 6] = [
    Kernel::SpmvBaseline,
    Kernel::SpmvHht,
    Kernel::SpmspvHhtV1,
    Kernel::SpmspvHhtV2,
    Kernel::SmashSpmvHht,
    Kernel::SpmvHhtProgrammable,
];

/// The row-shardable kernels the fabric differentials index into.
const FABRIC_KERNELS: [Kernel; 3] = [Kernel::SpmvHht, Kernel::SpmspvHhtV1, Kernel::SpmspvHhtV2];

/// The problem one test case runs: an `n x n` matrix plus a dense and a
/// sparse operand (each kernel uses the one it takes).
struct Problem {
    m: hht::sparse::CsrMatrix,
    v: hht::sparse::DenseVector,
    x: hht::sparse::SparseVector,
}

impl Problem {
    fn new(n: usize, sparsity: f64, seed: u64) -> Self {
        Problem {
            m: generate::random_csr(n, n, sparsity, seed),
            v: generate::random_dense_vector(n, seed ^ 1),
            x: generate::random_sparse_vector(n, sparsity, seed ^ 2),
        }
    }

    fn job(&self, kernel: Kernel) -> Job<'_> {
        if kernel.takes_sparse_operand() {
            Job::new(kernel, &self.m, &self.x)
        } else {
            Job::new(kernel, &self.m, &self.v)
        }
    }
}

/// Run one kernel of [`KERNELS`] for a given config.
fn run_kernel(cfg: &SystemConfig, kernel: usize, n: usize, sparsity: f64, seed: u64) -> RunOutput {
    let p = Problem::new(n, sparsity, seed);
    runner::run(cfg, &p.job(KERNELS[kernel])).unwrap()
}

/// The skip-mode and legacy-mode runs of one kernel must agree bit-for-bit
/// on results, cycle counts, every counter and (when traced) every event.
fn assert_skip_matches_legacy(base: SystemConfig, kernel: usize, n: usize, s: f64, seed: u64) {
    let skip = run_kernel(&base.with_scheduler(Scheduler::EventQueue), kernel, n, s, seed);
    let legacy = run_kernel(&base.with_scheduler(Scheduler::PerCycle), kernel, n, s, seed);
    assert_eq!(
        skip.stats, legacy.stats,
        "kernel {kernel} n={n} s={s} buffers={}",
        base.hht.num_buffers
    );
    assert_eq!(skip.y, legacy.y);
    assert_eq!(skip.events, legacy.events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind the scheduler: `SystemStats` is
    /// bit-identical between the cycle-skipping and legacy loops across
    /// random kernels × sparsities × buffer counts.
    #[test]
    fn cycle_skipping_is_bit_identical(
        kernel in 0usize..6,
        sparsity_pct in 5u32..95,
        buffers in 1usize..=3,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default().with_buffers(buffers);
        assert_skip_matches_legacy(cfg, kernel, n, sparsity_pct as f64 / 100.0, seed);
    }

    /// The same differential property holds under deterministic fault
    /// injection with the timeout/retry protocol and recovery enabled:
    /// injections land at the same cycles in both loops, detections fire
    /// on the same stepped cycle, and a fallback reruns identically.
    /// (HHT kernels only: a corrupted baseline run has no recovery path.)
    #[test]
    fn cycle_skipping_is_bit_identical_under_fault_injection(
        kernel in 1usize..6,
        sparsity_pct in 10u32..90,
        fault_seed in 1u64..1_000_000,
        timeout in 16u64..128,
        n in 12usize..32,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(timeout)
            .with_recovery(true);
        assert_skip_matches_legacy(cfg, kernel, n, sparsity_pct as f64 / 100.0, seed);
    }
}

#[test]
fn cycle_skipping_matches_legacy_with_slow_memory_and_events() {
    // Fixed heavier configurations the proptest would be too slow to cover:
    // multi-cycle SRAM words (burst wake hints) and full event tracing
    // (identical StallBegin/StallEnd cycle stamps).
    for kernel in 0..6 {
        let traced = SystemConfig::paper_default()
            .with_ram_word_cycles(4)
            .with_trace(TraceConfig::enabled());
        assert_skip_matches_legacy(traced, kernel, 24, 0.5, 0xD1FF);
    }
}

#[test]
fn cycle_skipping_matches_legacy_with_faults_and_events() {
    // Full event tracing under injection: the fault track (inject, detect,
    // retry, fallback) must carry identical cycle stamps in both loops.
    for kernel in 1..6 {
        let cfg = SystemConfig::paper_default()
            .with_trace(TraceConfig::enabled())
            .with_fault(FaultConfig { seed: 0xFEED ^ kernel as u64, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(64)
            .with_recovery(true);
        assert_skip_matches_legacy(cfg, kernel, 24, 0.5, 0xABC);
    }
}

#[test]
fn cycle_skipping_matches_legacy_on_figure_sweep_cells() {
    // Spot-check the Fig. 4-7 sweep grid corners at reduced n.
    let cfg = SystemConfig::paper_default();
    for kernel in [1usize, 2, 3] {
        for s in [0.1, 0.9] {
            for buffers in [1usize, 2] {
                assert_skip_matches_legacy(cfg.with_buffers(buffers), kernel, 48, s, 99);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-tile fabric vs the preserved pre-refactor machine (LegacySystem)
// ---------------------------------------------------------------------------

/// Build the full-problem image and program for one kernel of
/// [`FABRIC_KERNELS`] so the port-based one-tile fabric and the
/// pre-refactor `LegacySystem` can run bit-identical inputs.
fn build_image(
    cfg: &SystemConfig,
    kernel: usize,
    n: usize,
    sparsity: f64,
    seed: u64,
) -> (hht::mem::Sram, hht::isa::Program, u32, usize) {
    let p = Problem::new(n, sparsity, seed);
    let (sram, program, y_base) = p.job(FABRIC_KERNELS[kernel]).image(cfg).unwrap();
    (sram, program, y_base, n)
}

/// The one-tile port-based fabric (via the `System` wrapper) must agree
/// with the preserved pre-refactor machine bit-for-bit: final cycle count,
/// every counter, the result vector, and every traced event — in both the
/// cycle-skipping and per-cycle modes.
fn assert_fabric_matches_legacy(base: SystemConfig, kernel: usize, n: usize, s: f64, seed: u64) {
    use hht::system::{LegacySystem, System};
    for scheduler in [Scheduler::EventQueue, Scheduler::PerCycle] {
        let cfg = base.with_scheduler(scheduler).with_trace(TraceConfig::enabled());
        let (sram, program, y_base, rows) = build_image(&cfg, kernel, n, s, seed);
        let mut legacy = LegacySystem::new(&cfg, program.clone(), sram);
        let ls = legacy.run().expect("legacy run");
        let (sram, program, ..) = build_image(&cfg, kernel, n, s, seed);
        let mut sys = System::new(&cfg, program, sram);
        let fs = sys.run().expect("fabric run");
        assert_eq!(fs, ls, "kernel {kernel} n={n} s={s} {scheduler:?}");
        assert_eq!(sys.read_output(y_base, rows), legacy.read_output(y_base, rows));
        assert_eq!(sys.take_events(), legacy.take_events(), "kernel {kernel} {scheduler:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind the port refactor: a one-tile
    /// fabric over one bank is observationally identical to the
    /// pre-refactor machine across random kernels × sparsities × buffer
    /// counts, with and without cycle skipping.
    #[test]
    fn one_tile_fabric_is_bit_identical_to_legacy(
        kernel in 0usize..3,
        sparsity_pct in 5u32..95,
        buffers in 1usize..=3,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default().with_buffers(buffers);
        assert_fabric_matches_legacy(cfg, kernel, n, sparsity_pct as f64 / 100.0, seed);
    }
}

#[test]
fn one_tile_fabric_matches_legacy_with_slow_memory() {
    // Multi-cycle SRAM words exercise the burst wake hints through the
    // banked port layer.
    for kernel in 0..3 {
        let cfg = SystemConfig::paper_default().with_ram_word_cycles(4);
        assert_fabric_matches_legacy(cfg, kernel, 24, 0.5, 0xD1FF);
    }
}

#[test]
fn multi_tile_fabric_skip_matches_per_cycle() {
    // The N-tile scheduler's skip spans differ from any single-tile span
    // choice, but replay correctness must still make the two modes
    // bit-identical: FabricStats (per tile and shared memory) and every
    // tile's event stream.
    use hht::system::FabricConfig;
    let m = generate::random_csr(40, 40, 0.6, 0xF4B);
    let v = generate::random_dense_vector(40, 0xF4C);
    for tiles in [2usize, 4] {
        let traced = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
        let skip = runner::run_fabric(
            &traced.with_scheduler(Scheduler::EventQueue),
            FabricConfig::scaled(tiles),
            &Job::new(Kernel::SpmvHht, &m, &v),
        )
        .unwrap();
        let step = runner::run_fabric(
            &traced.with_scheduler(Scheduler::PerCycle),
            FabricConfig::scaled(tiles),
            &Job::new(Kernel::SpmvHht, &m, &v),
        )
        .unwrap();
        assert_eq!(skip.stats, step.stats, "tiles={tiles}");
        assert_eq!(skip.y, step.y);
        assert_eq!(skip.tile_events, step.tile_events, "tiles={tiles}");
    }
}

// ---------------------------------------------------------------------------
// Discrete-event queue vs the per-cycle fabric oracle (test names that say
// "lockstep" predate the lock-step scheduler's removal; the oracle is now
// the per-cycle loop)
// ---------------------------------------------------------------------------

/// Run one kernel of [`FABRIC_KERNELS`] for a given config, under `plan`
/// when one is given.
fn run_fabric_kernel(
    cfg: &SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    sparsity: f64,
    seed: u64,
    plan: Option<hht::fault::FaultPlan>,
) -> runner::FabricRunOutput {
    use hht::system::FabricConfig;
    let p = Problem::new(n, sparsity, seed);
    let mut job = p.job(FABRIC_KERNELS[kernel]);
    job.plan = plan;
    runner::run_fabric(cfg, FabricConfig::scaled(tiles), &job).unwrap()
}

/// The event-queue and per-cycle runs of one fabric kernel must agree
/// bit-for-bit: results, per-tile counters, shared-memory statistics,
/// (when traced) every tile's event stream, and the recovery log.
fn assert_event_queue_matches_per_cycle(
    base: SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    s: f64,
    seed: u64,
    plan: Option<hht::fault::FaultPlan>,
) {
    let eq = run_fabric_kernel(
        &base.with_scheduler(Scheduler::EventQueue),
        kernel,
        tiles,
        n,
        s,
        seed,
        plan.clone(),
    );
    let pc = run_fabric_kernel(
        &base.with_scheduler(Scheduler::PerCycle),
        kernel,
        tiles,
        n,
        s,
        seed,
        plan,
    );
    let ctx = format!("kernel {kernel} tiles={tiles} n={n} s={s} seed={seed}");
    assert_eq!(eq.stats, pc.stats, "{ctx}");
    assert_eq!(eq.y, pc.y, "{ctx}");
    assert_eq!(eq.tile_events, pc.tile_events, "{ctx}");
    assert_eq!(eq.recovery, pc.recovery, "{ctx}");
}

/// A fault plan mixing a transient engine stall, delayed responses and a
/// fatal tile kill, derived from `seed` over `tiles` tiles.
fn mixed_fault_plan(tiles: usize, seed: u64) -> hht::fault::FaultPlan {
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    let tile = |shift: u32| ((seed >> shift) % tiles as u64) as u32;
    FaultPlan::new(vec![
        FaultEvent::on_tile(
            20 + seed % 300,
            FaultKind::EngineStall { cycles: 1 + seed % 200 },
            tile(8),
        ),
        FaultEvent::on_tile(
            40 + (seed >> 4) % 400,
            FaultKind::DelayResponse { cycles: 1 + (seed >> 12) % 100 },
            tile(16),
        ),
        FaultEvent::on_tile(100 + (seed >> 6) % 500, FaultKind::TileKill, tile(24)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential property behind the discrete-event scheduler: the
    /// event queue is observationally identical to the per-cycle loop
    /// across random fabric kernels × tile counts × sparsities, on the
    /// paper's 1-cycle SRAM and behind 300 ns DRAM, with and without a
    /// mixed fault plan (engine stall, delayed responses, a tile kill)
    /// under the per-tile recovery policy.
    #[test]
    fn event_queue_is_bit_identical_to_lockstep(
        kernel in 0usize..3,
        tiles_log in 0u32..5, // 1, 2, 4, 8, 16 tiles
        mode in 0u32..4, // bit 0: 300 ns DRAM, bit 1: mixed fault plan
        sparsity_pct in 5u32..95,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        use hht::mem::DramConfig;
        let (tiles, slow_dram, faults) = (1 << tiles_log, mode & 1 == 1, mode & 2 == 2);
        let mut cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
        if slow_dram {
            cfg = cfg.with_dram(DramConfig::slow_300ns());
        }
        let (kernel, plan) = if faults {
            cfg = cfg.with_hht_timeout(64).with_recovery(true);
            (0, Some(mixed_fault_plan(tiles, seed)))
        } else {
            (kernel, None)
        };
        assert_event_queue_matches_per_cycle(
            cfg, kernel, tiles, n, sparsity_pct as f64 / 100.0, seed, plan,
        );
    }
}

#[test]
fn event_queue_matches_lockstep_with_slow_memory_and_events() {
    // Multi-cycle SRAM words make long parks the common case, and full
    // event tracing pins every replayed stall to its exact cycle stamp.
    for kernel in 0..3 {
        for tiles in [2usize, 8] {
            let traced = SystemConfig::paper_default()
                .with_ram_word_cycles(8)
                .with_trace(TraceConfig::enabled());
            assert_event_queue_matches_per_cycle(traced, kernel, tiles, 24, 0.5, 0xD1FF, None);
        }
    }
}

#[test]
fn event_queue_matches_lockstep_under_fault_injection() {
    // Timing faults (delays, engine stalls) move wake times and memory
    // faults may corrupt the result, so drive the fabric directly (no
    // golden verify): the event queue must produce the per-cycle oracle's
    // outcome —
    // same stats, same output words, same traced fault timeline.
    use hht::system::FabricConfig;
    let m = generate::random_csr(32, 32, 0.5, 0xFA8);
    let v = generate::random_dense_vector(32, 0xFA9);
    for (tiles, fault_seed) in [(2usize, 11u64), (4, 23), (8, 37), (4, 59)] {
        let cfg = SystemConfig::paper_default()
            .with_trace(TraceConfig::enabled())
            .with_hht_timeout(64)
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 4096 });
        let fab = FabricConfig::scaled(tiles);
        let (mut eq, y_base) =
            runner::build_fabric(&cfg, fab, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        let eq_res = eq.run();
        let (mut pc, _) = runner::build_fabric(
            &cfg.with_scheduler(Scheduler::PerCycle),
            fab,
            &Job::new(Kernel::SpmvHht, &m, &v),
        )
        .unwrap();
        let pc_res = pc.run();
        assert_eq!(
            format!("{eq_res:?}"),
            format!("{pc_res:?}"),
            "tiles={tiles} fault_seed={fault_seed}"
        );
        assert_eq!(eq.stats(), pc.stats(), "tiles={tiles} fault_seed={fault_seed}");
        assert_eq!(eq.read_output(y_base, 32), pc.read_output(y_base, 32));
        assert_eq!(eq.take_all_events(), pc.take_all_events(), "tiles={tiles}");
    }
}

#[test]
fn event_queue_matches_lockstep_under_recovery_failover() {
    // With the per-tile fault-domain recovery policy on, the event queue
    // must take the per-cycle oracle's failover decisions: same quarantine verdicts,
    // same attempt walls and shard assignments, same degraded FabricStats,
    // the same assembled (bit-exact) result and the same event timelines
    // including the host-side quarantine/failover markers.
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    use hht::system::FabricConfig;
    let m = generate::random_csr(40, 40, 0.6, 0xC4A);
    let v = generate::random_dense_vector(40, 0xC4B);
    let cases: [(usize, &[(u64, u32)]); 3] =
        [(2, &[(60, 0)]), (4, &[(80, 1), (200, 3)]), (8, &[(50, 2), (120, 5), (300, 7)])];
    for (tiles, kills) in cases {
        let cfg = SystemConfig::paper_default()
            .with_hht_timeout(64)
            .with_recovery(true)
            .with_trace(TraceConfig::enabled());
        let fab = FabricConfig::scaled(tiles);
        let plan = || {
            FaultPlan::new(
                kills
                    .iter()
                    .map(|&(c, t)| FaultEvent::on_tile(c, FaultKind::TileKill, t))
                    .collect(),
            )
        };
        let run = |scheduler| {
            runner::run_fabric(
                &cfg.with_scheduler(scheduler),
                fab,
                &Job::new(Kernel::SpmvHht, &m, &v).with_plan(plan()),
            )
            .unwrap()
        };
        let eq = run(Scheduler::EventQueue);
        let pc = run(Scheduler::PerCycle);
        assert_eq!(eq.stats, pc.stats, "tiles={tiles}");
        assert_eq!(eq.y, pc.y, "tiles={tiles}");
        assert_eq!(eq.recovery, pc.recovery, "tiles={tiles}");
        assert_eq!(eq.tile_events, pc.tile_events, "tiles={tiles}");
        let rec = eq.recovery.expect("tile kills must trigger recovery");
        assert!(!rec.quarantined().is_empty(), "tiles={tiles}: at least one kill must land");
        assert!(rec.quarantined().len() <= kills.len());
    }
}

/// The guarantee behind every park: single-stepping a parked tile through
/// its span produces no architectural event. Collect the event queue's
/// per-tile park spans, then replay the same image under the per-cycle
/// scheduler and check that the discrete per-tile counters (instructions,
/// memory beats, delivered elements, engine reads, faults) are frozen
/// across each span. Per-cycle tallies (stall and busy counters) are
/// excluded on purpose: they tick during inert cycles by design and the
/// scheduler replays them arithmetically on wake.
#[test]
fn event_queue_parks_are_architecturally_inert() {
    use hht::system::{Fabric, FabricConfig};
    use std::collections::{BTreeMap, BTreeSet};

    fn sigs(f: &Fabric) -> Vec<[u64; 12]> {
        f.stats()
            .tiles
            .iter()
            .map(|t| {
                [
                    t.core.instructions,
                    t.core.loads,
                    t.core.stores,
                    t.core.vector_instrs,
                    t.core.mem_beats,
                    t.core.l1d_hits,
                    t.core.l1d_misses,
                    t.core.hht_timeouts,
                    t.core.hht_retries,
                    t.hht.elements_delivered,
                    t.hht.engine.mem_reads,
                    t.faults.injected,
                ]
            })
            .collect()
    }

    let m = generate::random_csr(32, 32, 0.7, 0x9A7);
    let v = generate::random_dense_vector(32, 0x9A8);
    for tiles in [2usize, 4, 8] {
        let cfg = SystemConfig::paper_default()
            .with_ram_word_cycles(8)
            .with_trace(TraceConfig::enabled());
        let fab = FabricConfig::scaled(tiles);
        let (mut eq, _) =
            runner::build_fabric(&cfg, fab, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        let wall = eq.run().expect("event-queue run").cycles;
        let parks = eq.take_park_spans();
        let total: usize = parks.iter().map(Vec::len).sum();
        assert!(total > 0, "tiles={tiles}: event queue recorded no parks");

        // Capture tile signatures at every span boundary by single-stepping
        // the same image under the per-cycle scheduler (which the fabric
        // differential tests pin to the identical timeline).
        let boundaries: BTreeSet<u64> =
            parks.iter().flatten().flat_map(|s| [s.start, s.end]).collect();
        let (mut oracle, _) = runner::build_fabric(
            &cfg.with_scheduler(Scheduler::PerCycle),
            fab,
            &Job::new(Kernel::SpmvHht, &m, &v),
        )
        .unwrap();
        let mut at: BTreeMap<u64, Vec<[u64; 12]>> = BTreeMap::new();
        while oracle.cycle() < wall {
            if boundaries.contains(&oracle.cycle()) {
                at.insert(oracle.cycle(), sigs(&oracle));
            }
            oracle.step();
        }
        at.insert(wall, sigs(&oracle));

        // The signature counters are monotone, so endpoint equality pins
        // the whole span.
        for (t, spans) in parks.iter().enumerate() {
            for s in spans {
                assert_eq!(
                    at[&s.start][t], at[&s.end][t],
                    "tiles={tiles} tile={t}: architectural event inside park [{}, {})",
                    s.start, s.end
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DRAM-class timing path vs the flat path of the one SharedMemory
// ---------------------------------------------------------------------------

/// The DRAM path's safety net: with every effect unable to bind (zero row
/// extras, a window no tile can fill, no budget) the general DRAM-class
/// path of `SharedMemory` must be observationally the default flat path.
/// Result vector, cycles, per-tile stats, every shared-memory counter but
/// the row hit/miss counts, and every traced event off the mem-queue track
/// must match bit-for-bit under both schedulers — and the DRAM path must
/// really have run (row misses counted).
fn assert_flat_dram_matches_shared(
    base: SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    s: f64,
    seed: u64,
) {
    use hht::mem::DramConfig;
    use hht::obs::Track;
    let unbound = DramConfig::flat().with_window(u32::MAX);
    for scheduler in [Scheduler::EventQueue, Scheduler::PerCycle] {
        let cfg = base.with_scheduler(scheduler).with_trace(TraceConfig::enabled());
        let flat = run_fabric_kernel(&cfg, kernel, tiles, n, s, seed, None);
        let dram = run_fabric_kernel(&cfg.with_dram(unbound), kernel, tiles, n, s, seed, None);
        let ctx = format!("kernel {kernel} tiles={tiles} n={n} s={s} {scheduler:?}");
        assert_eq!(dram.y, flat.y, "{ctx}");
        assert_eq!(dram.stats.cycles, flat.stats.cycles, "{ctx}");
        assert_eq!(dram.stats.tiles, flat.stats.tiles, "{ctx}");
        let mem = dram.stats.mem;
        assert!(mem.row_misses > 0, "{ctx}: the DRAM path never ran");
        assert_eq!(flat.stats.mem, hht::mem::SharedMemStats { row_hits: 0, row_misses: 0, ..mem });
        let off_queue: Vec<Vec<_>> = dram
            .tile_events
            .iter()
            .map(|ev| ev.iter().copied().filter(|e| e.track != Track::MemQueue).collect())
            .collect();
        assert_eq!(off_queue, flat.tile_events, "{ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind the DRAM path: its general
    /// row/window/budget logic with every effect unable to bind is
    /// bit-identical to the default flat path across random fabric
    /// kernels × tile counts × sparsities, under both schedulers.
    #[test]
    fn flat_dram_is_bit_identical_to_shared_memory(
        kernel in 0usize..3,
        tiles_log in 0u32..3, // 1, 2, 4 tiles
        sparsity_pct in 5u32..95,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default();
        assert_flat_dram_matches_shared(
            cfg, kernel, 1 << tiles_log, n, sparsity_pct as f64 / 100.0, seed,
        );
    }

    /// With real DRAM timing in force (row extras, MLP window, bandwidth
    /// budget), the event queue and the per-cycle oracle must still agree
    /// bit-for-bit: queued responses, window-full parks and budget refusals
    /// all replay to the same cycle stamps.
    #[test]
    fn dram_event_queue_is_bit_identical_to_lockstep(
        kernel in 0usize..3,
        tiles_log in 0u32..3, // 1, 2, 4 tiles
        window in 0u32..3,
        budget in 0u32..3,
        sparsity_pct in 10u32..90,
        seed in 0u64..1_000_000,
    ) {
        use hht::mem::DramConfig;
        let dc = DramConfig::flat()
            .with_row_latency(8, 24)
            .with_window(window)
            .with_bandwidth(budget);
        let cfg = SystemConfig::paper_default().with_dram(dc);
        assert_event_queue_matches_per_cycle(
            cfg, kernel, 1 << tiles_log, 24, sparsity_pct as f64 / 100.0, seed, None,
        );
    }
}

#[test]
fn dram_window_parks_replay_identically() {
    // Park soundness for in-flight response queues: with slow rows and a
    // one-deep MLP window, a refused tile's wake bound is the *oldest
    // in-flight arrival* (the window only drains when responses land, not
    // with time). The event queue and the per-cycle loop must agree
    // bit-for-bit on stats,
    // result and traced events, and the scenario must actually exercise the
    // window (stalls observed), or the test proves nothing.
    use hht::mem::DramConfig;
    use hht::system::FabricConfig;
    let m = generate::random_csr(32, 32, 0.6, 0xDD1);
    let v = generate::random_dense_vector(32, 0xDD2);
    for tiles in [1usize, 2, 4] {
        let cfg = SystemConfig::paper_default()
            .with_dram(DramConfig::slow_300ns().with_window(1).with_bandwidth(2))
            .with_trace(TraceConfig::enabled());
        let fab = FabricConfig::scaled(tiles);
        let eq = runner::run_fabric(
            &cfg.with_scheduler(Scheduler::EventQueue),
            fab,
            &Job::new(Kernel::SpmvHht, &m, &v),
        )
        .unwrap();
        let step = runner::run_fabric(
            &cfg.with_scheduler(Scheduler::PerCycle),
            fab,
            &Job::new(Kernel::SpmvHht, &m, &v),
        )
        .unwrap();
        assert_eq!(eq.stats, step.stats, "tiles={tiles}: event queue vs per-cycle");
        assert_eq!(eq.y, step.y, "tiles={tiles}");
        assert_eq!(eq.tile_events, step.tile_events, "tiles={tiles}");
        assert!(eq.stats.mem.window_stalls > 0, "tiles={tiles}: scenario never hit the MLP window");
    }
}

#[test]
fn watchdog_expiry_is_a_recoverable_error() {
    use hht::isa::asm::assemble;
    use hht::mem::Sram;
    use hht::sim::RunError;
    use hht::system::System;

    let mut cfg = SystemConfig::paper_default();
    cfg.core.max_cycles = 10_000;
    let p = assemble("loop:\n  j loop\n").unwrap();
    for scheduler in [Scheduler::EventQueue, Scheduler::PerCycle] {
        let sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
        let mut sys = System::new(&cfg.with_scheduler(scheduler), p.clone(), sram);
        match sys.run() {
            Err(RunError::Watchdog(c)) => assert_eq!(c, 10_000),
            other => panic!("expected watchdog error, got {other:?}"),
        }
    }
}

/// Lazy probing must not turn a deadlock's watchdog jump into a host hang:
/// with the HHT latched dead (sticky error, no timeout protocol) and a
/// 10^12-cycle watchdog, the event queue still reports the watchdog after
/// stepping at most about twice the cycles before the deadlock began.
#[test]
fn deadlock_still_jumps_to_the_watchdog() {
    use hht::fault::{FaultEvent, FaultKind, FaultPlan};
    use hht::sim::RunError;
    use hht::system::FabricConfig;
    let m = generate::random_csr(32, 32, 0.5, 0xDEAD);
    let v = generate::random_dense_vector(32, 0xDEAE);
    let plan = || FaultPlan::new(vec![FaultEvent::new(300, FaultKind::MmrStickyError)]);
    let mut cfg = SystemConfig::paper_default();
    assert_eq!(cfg.core.hht_timeout, 0, "the paper default has no timeout protocol");
    // Deadlock onset: the first watchdog limit by which the per-cycle
    // oracle has retired every instruction the kernel ever will.
    let retired_by = |limit: u64| {
        let mut c = cfg.with_scheduler(Scheduler::PerCycle);
        c.core.max_cycles = limit;
        let (mut f, _) =
            runner::build_fabric(&c, FabricConfig::single(), &Job::new(Kernel::SpmvHht, &m, &v))
                .unwrap();
        f.set_fault_plan(plan());
        f.run().expect_err("a dead HHT must deadlock the kernel");
        f.stats().tiles[0].core.instructions
    };
    let all = retired_by(20_000);
    let (mut lo, mut onset) = (1u64, 20_000u64);
    while lo < onset {
        let mid = (lo + onset) / 2;
        if retired_by(mid) == all {
            onset = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert!((300..10_000).contains(&onset), "onset {onset}: the fault must stall the kernel");

    cfg.core.max_cycles = 1_000_000_000_000;
    let (mut fabric, _) =
        runner::build_fabric(&cfg, FabricConfig::single(), &Job::new(Kernel::SpmvHht, &m, &v))
            .unwrap();
    fabric.set_fault_plan(plan());
    let err = fabric.run().expect_err("a dead HHT must deadlock the kernel");
    assert_eq!(err.first(), RunError::Watchdog(cfg.core.max_cycles));
    let stepped = fabric.sched_stats().stepped_cycles;
    assert!(stepped <= 2 * onset + 64, "stepped {stepped} cycles for a deadlock at {onset}");
}

/// One serve request (pair of identical requests from two tenants) for
/// `kernel`, plus the naive cold one-shot runs of the same stream.
fn serve_pair(kernel: usize, n: usize, s: f64, seed: u64) -> Vec<hht::serve::Request> {
    use hht::serve::Request;
    use std::sync::Arc;
    let m = Arc::new(generate::random_csr(n, n, s, seed));
    match kernel {
        0 => {
            let v = Arc::new(generate::random_dense_vector(n, seed ^ 1));
            vec![Request::spmv(0, Arc::clone(&m), Arc::clone(&v)), Request::spmv(1, m, v)]
        }
        1 => {
            let x = Arc::new(generate::random_sparse_vector(n, s, seed ^ 2));
            vec![Request::spmspv_v1(0, Arc::clone(&m), Arc::clone(&x)), Request::spmspv_v1(1, m, x)]
        }
        _ => {
            let x = Arc::new(generate::random_sparse_vector(n, s, seed ^ 2));
            vec![Request::spmspv_v2(0, Arc::clone(&m), Arc::clone(&x)), Request::spmspv_v2(1, m, x)]
        }
    }
}

/// The differential property behind `hht-serve`: a request served through
/// the service must be bit-identical — output words, every counter of the
/// fabric stats, every traced event, the scheduler accounting and the
/// recovery report — to the naive cold one-shot run of the same job.
/// Covered paths: cold service pass, replay-tier hit, and a repeat
/// re-simulated cold (replay off).
fn assert_serve_matches_cold(
    base: SystemConfig,
    kernel: usize,
    tiles: usize,
    n: usize,
    s: f64,
    seed: u64,
) {
    use hht::serve::{naive_run_stream, Service, ServiceConfig};
    use hht::system::FabricConfig;
    let fab = FabricConfig::scaled(tiles);
    let requests = serve_pair(kernel, n, s, seed);
    let naive = naive_run_stream(&base, fab, &requests);
    let shapes = [
        // Replay on: the repeat is served from the replay tier.
        ServiceConfig { batching: false, ..ServiceConfig::default() },
        // Replay off: the repeat is simulated again from a fresh image.
        ServiceConfig { batching: false, replay: false, ..ServiceConfig::default() },
    ];
    for scfg in shapes {
        let mut svc = Service::new(base, fab, scfg);
        let responses = svc.run_stream(&requests);
        for (i, (resp, (cold, _))) in responses.iter().zip(&naive).enumerate() {
            let ctx = format!(
                "kernel {kernel} tiles={tiles} n={n} s={s} replay={} request {i} ({:?})",
                scfg.replay, resp.served
            );
            assert_eq!(resp.y.as_slice(), cold.y.as_slice(), "{ctx}: y");
            assert_eq!(resp.run.stats, cold.stats, "{ctx}: stats");
            assert_eq!(resp.run.tile_events, cold.tile_events, "{ctx}: events");
            assert_eq!(resp.run.sched, cold.sched, "{ctx}: sched");
            assert_eq!(resp.run.tile_sched, cold.tile_sched, "{ctx}: tile sched");
            assert_eq!(resp.run.recovery, cold.recovery, "{ctx}: recovery");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serving through the replay tier and re-simulated repeats is
    /// observationally identical to cold one-shot runs across kernels ×
    /// tile counts × both fabric schedulers, with event tracing on.
    #[test]
    fn serving_is_bit_identical_to_cold_runs(
        kernel in 0usize..3,
        tiles_log in 0u32..3, // 1, 2, 4 tiles
        per_cycle in any::<bool>(),
        sparsity_pct in 40u32..95,
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_scheduler(if per_cycle { Scheduler::PerCycle } else { Scheduler::EventQueue })
            .with_trace(TraceConfig::enabled());
        assert_serve_matches_cold(cfg, kernel, 1 << tiles_log, n, sparsity_pct as f64 / 100.0, seed);
    }

    /// The same property under seeded fault injection with recovery on:
    /// every simulated pass builds a byte-identical image, so the seed
    /// derives the identical fault schedule and detections, retries and
    /// failovers replay exactly.
    #[test]
    fn serving_is_bit_identical_to_cold_runs_under_faults(
        kernel in 0usize..3,
        tiles_log in 1u32..3, // 2, 4 tiles (failover needs a survivor)
        fault_seed in 1u64..1_000_000,
        sparsity_pct in 40u32..90,
        n in 12usize..32,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default()
            .with_fault(FaultConfig { seed: fault_seed, max_faults: 3, horizon: 2048 })
            .with_hht_timeout(64)
            .with_recovery(true);
        assert_serve_matches_cold(cfg, kernel, 1 << tiles_log, n, sparsity_pct as f64 / 100.0, seed);
    }
}
