//! The host hot path is allocation-free: once a run is built, stepping the
//! machine allocates nothing per simulated cycle or instruction.
//!
//! A counting global allocator tallies the heap allocations the test
//! thread makes inside `System::run` / `Fabric::run` (image layout and
//! fabric construction happen before the count starts). The counter is a
//! `const` thread-local, so the harness's other threads do not add to it.
//! Each kernel runs on a 64² and a 512² matrix: the larger run steps many
//! times more cycles and instructions, so any per-cycle or per-instruction
//! allocation shows up as a count that grows with the problem.

use hht::sparse::{generate, CsrMatrix, DenseVector, SparseVector};
use hht::system::config::SystemConfig;
use hht::system::{runner, FabricConfig, Job, Kernel, System};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown find no counter.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations a large run may make beyond the small one: room for a
/// container that happens to grow once more, never for one per cycle.
const SLACK: u64 = 8;

/// The paper's 90%-sparse problem at `n`².
fn problem(n: usize) -> (CsrMatrix, DenseVector, SparseVector) {
    (
        generate::random_csr(n, n, 0.9, 42),
        generate::random_dense_vector(n, 43),
        generate::random_sparse_vector(n, 0.9, 44),
    )
}

/// Allocations inside one single-tile run of `kernel` at `n`², with the
/// run's simulated cycles.
fn single_tile(kernel: Kernel, n: usize) -> (u64, u64) {
    let cfg = SystemConfig::paper_default();
    let (m, v, x) = problem(n);
    let job = if kernel.takes_sparse_operand() {
        Job::new(kernel, &m, &x)
    } else {
        Job::new(kernel, &m, &v)
    };
    let (sram, program, _) = job.image(&cfg).unwrap();
    let mut sys = System::new(&cfg, program, sram);
    let (allocs, stats) = allocs_in(|| sys.run().unwrap());
    (allocs, stats.cycles)
}

fn assert_flat(what: &str, small: (u64, u64), large: (u64, u64)) {
    let ((a_small, c_small), (a_large, c_large)) = (small, large);
    assert!(c_large > 10 * c_small, "{what}: the large run must step far more cycles");
    assert!(
        a_large <= a_small + SLACK,
        "{what}: {a_small} allocations over {c_small} cycles at 64², \
         {a_large} over {c_large} cycles at 512²: the hot path allocates per cycle"
    );
}

#[test]
fn single_tile_runs_allocate_nothing_per_cycle() {
    for kernel in [
        Kernel::SpmvBaseline,
        Kernel::SpmvHht,
        Kernel::SpmspvBaseline,
        Kernel::SpmspvHhtV1,
        Kernel::SpmspvHhtV2,
    ] {
        assert_flat(&format!("{kernel:?}"), single_tile(kernel, 64), single_tile(kernel, 512));
    }
}

/// Allocations inside one 4-tile SpMV fabric pass at `n`², with the
/// pass's wall cycles.
fn fabric_pass(n: usize) -> (u64, u64) {
    let cfg = SystemConfig::paper_default();
    let (m, v, _) = problem(n);
    let job = Job::new(Kernel::SpmvHht, &m, &v);
    let (mut fabric, _) = runner::build_fabric(&cfg, FabricConfig::scaled(4), &job).unwrap();
    let (allocs, stats) = allocs_in(|| fabric.run().unwrap());
    (allocs, stats.cycles)
}

#[test]
fn fabric_pass_allocates_nothing_per_cycle() {
    assert_flat("4-tile spmv fabric", fabric_pass(64), fabric_pass(512));
}
