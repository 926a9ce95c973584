//! Observability-layer integration tests: the per-cause stall histogram
//! must sum exactly to the coarse wait counters, sinks must never change
//! simulated timing, and the Chrome trace export must stay byte-stable.

use hht::fault::{FaultEvent, FaultKind, FaultPlan};
use hht::mem::DramConfig;
use hht::obs::chrome::chrome_trace_json;
use hht::obs::{Event, EventKind, StallCause, Track};
use hht::sparse::generate;
use hht::system::config::{SystemConfig, TraceConfig};
use hht::system::{runner, Job, Kernel, MetricsSnapshot};
use proptest::prelude::*;

/// Sinks on or off, the simulated machine must be bit-identical: same
/// cycles, same statistics, same result vector (Fig. 4 reproducibility).
#[test]
fn sinks_never_change_simulated_timing() {
    let m = generate::random_csr(48, 48, 0.6, 77);
    let v = generate::random_dense_vector(48, 78);
    let plain_cfg = SystemConfig::paper_default();
    let traced_cfg =
        SystemConfig::paper_default().with_trace(TraceConfig::enabled().with_instr_trace());
    for kernel in [Kernel::SpmvBaseline, Kernel::SpmvHht] {
        let job = Job::new(kernel, &m, &v);
        let plain = runner::run(&plain_cfg, &job).unwrap();
        let traced = runner::run(&traced_cfg, &job).unwrap();
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.y, traced.y);
        assert!(plain.events.is_empty());
        assert!(!traced.events.is_empty());
    }
}

/// Event-enabled HHT runs populate every track (SpMV never touches the
/// secondary window, so SpMSpV v1 covers that one; the fault track needs
/// an injected fault; the mem-queue track only carries events under the
/// DRAM backend) and export balanced Chrome traces (each `B` slice has a
/// matching `E`).
#[test]
fn traced_runs_cover_all_tracks_with_balanced_slices() {
    let cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    let m = generate::random_csr(48, 48, 0.6, 41);
    let v = generate::random_dense_vector(48, 42);
    let x = generate::random_sparse_vector(48, 0.6, 43);
    let spmv = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    let spmspv = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
    // A transient engine stall covers the fault track without perturbing
    // the result (the engine resumes and the run completes normally).
    let plan = FaultPlan::new(vec![FaultEvent::new(5, FaultKind::EngineStall { cycles: 16 })]);
    let faulty = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v).with_plan(plan)).unwrap();
    // The DRAM backend covers the mem-queue track (row transitions and
    // in-flight occupancy).
    let dram =
        runner::run(&cfg.with_dram(DramConfig::slow_300ns()), &Job::new(Kernel::SpmvHht, &m, &v))
            .unwrap();
    for track in Track::ALL {
        assert!(
            spmv.events
                .iter()
                .chain(&spmspv.events)
                .chain(&faulty.events)
                .chain(&dram.events)
                .any(|e| e.track == track),
            "no events on track {:?}",
            track
        );
    }
    for events in [&spmv.events, &spmspv.events, &faulty.events, &dram.events] {
        let json = chrome_trace_json(events);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), json.matches("\"ph\":\"E\"").count());
    }
}

/// A tiny event ring drops old events but the export still works and
/// reports the loss.
#[test]
fn bounded_event_ring_degrades_gracefully() {
    let cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled().with_capacity(32));
    let m = generate::random_csr(32, 32, 0.6, 51);
    let v = generate::random_dense_vector(32, 52);
    let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
    // Three component buses, each capped at 32 retained events.
    assert!(out.events.len() <= 3 * 32);
    let json = chrome_trace_json(&out.events);
    assert!(json.contains("traceEvents"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fine-grained stall histogram sums exactly to the coarse wait
    /// counters on arbitrary problems, for both SpMV and SpMSpV kernels.
    #[test]
    fn stall_histogram_sums_to_wait_counters(
        n in 8usize..40,
        density_tenths in 2u32..9,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SystemConfig::paper_default();
        let density = density_tenths as f64 / 10.0;
        let m = generate::random_csr(n, n, density, seed);
        let v = generate::random_dense_vector(n, seed ^ 0xABCD);
        let snap = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap().stats.snapshot();
        prop_assert!(snap.validate().is_ok(), "{:?}", snap.validate());
        prop_assert_eq!(snap.stalls.cpu_hht_wait(), snap.core.hht_wait_cycles);
        prop_assert_eq!(snap.stalls.arbitration_loss, snap.core.mem_port_stall_cycles);

        let x = generate::random_sparse_vector(n, density, seed ^ 0x5EED);
        let snap2 = runner::run(&cfg, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap().stats.snapshot();
        prop_assert!(snap2.validate().is_ok(), "{:?}", snap2.validate());
    }

    /// Sinks-off and sinks-on runs agree cycle-for-cycle on arbitrary
    /// problems, and the snapshot JSON round-trips losslessly.
    #[test]
    fn tracing_is_timing_neutral_and_snapshot_round_trips(
        n in 8usize..32,
        seed in 0u64..1_000_000,
    ) {
        let m = generate::random_csr(n, n, 0.5, seed);
        let v = generate::random_dense_vector(n, seed.wrapping_add(1));
        let plain = runner::run(&SystemConfig::paper_default(), &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        let traced = runner::run(&SystemConfig::paper_default().with_trace(TraceConfig::enabled()), &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        prop_assert_eq!(plain.stats, traced.stats);
        prop_assert_eq!(&plain.y, &traced.y);

        let snap = traced.stats.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        prop_assert_eq!(back, snap);
    }

    /// On an N-tile fabric the exact-sum invariants hold for *every tile's*
    /// snapshot (each tile's counters are its own, normalized by its own
    /// completion cycle) and for the merged record (normalized by total
    /// tile-time, so every wait fraction stays a proper fraction).
    #[test]
    fn fabric_metrics_validate_per_tile_and_merged(
        n in 16usize..40,
        density_tenths in 2u32..9,
        tiles_log in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        use hht::system::FabricConfig;
        let cfg = SystemConfig::paper_default();
        let density = density_tenths as f64 / 10.0;
        let m = generate::random_csr(n, n, density, seed);
        let v = generate::random_dense_vector(n, seed ^ 0xFAB);
        let out = runner::run_fabric(&cfg, FabricConfig::scaled(1usize << tiles_log), &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        for t in &out.stats.tiles {
            let snap = t.snapshot();
            prop_assert!(snap.validate().is_ok(), "per-tile: {:?}", snap.validate());
            prop_assert!((0.0..=1.0).contains(&t.cpu_wait_frac()));
            prop_assert!((0.0..=1.0).contains(&t.hht_wait_frac()));
        }
        let merged = out.stats.merged().snapshot();
        prop_assert!(merged.validate().is_ok(), "merged: {:?}", merged.validate());
        let fracs = [
            out.stats.cpu_wait_frac(),
            out.stats.hht_wait_frac(),
            out.stats.bank_conflict_frac(),
        ];
        for f in fracs {
            prop_assert!((0.0..=1.0).contains(&f), "fabric frac {} out of range", f);
        }
    }
}

/// A fixed event stream exercising every event kind and track, used to pin
/// the Chrome trace export byte-for-byte.
fn golden_events() -> Vec<Event> {
    vec![
        Event { cycle: 0, track: Track::HhtBackend, kind: EventKind::SliceBegin("engine") },
        Event { cycle: 1, track: Track::SramPort, kind: EventKind::ArbGrant { requester: "hht" } },
        Event { cycle: 2, track: Track::BufferPrimary, kind: EventKind::BufferLevel { level: 3 } },
        Event { cycle: 2, track: Track::BufferCounts, kind: EventKind::BufferLevel { level: 1 } },
        Event {
            cycle: 3,
            track: Track::CpuPipe,
            kind: EventKind::StallBegin(StallCause::HhtWindowEmpty),
        },
        Event { cycle: 4, track: Track::SramPort, kind: EventKind::ArbConflict { loser: "cpu" } },
        Event {
            cycle: 5,
            track: Track::Fault,
            kind: EventKind::FaultInject { what: "drop_response" },
        },
        Event {
            cycle: 5,
            track: Track::Fault,
            kind: EventKind::FaultDetect { what: "hht_timeout" },
        },
        Event { cycle: 6, track: Track::Fault, kind: EventKind::Recovery { what: "hht_retry" } },
        Event {
            cycle: 6,
            track: Track::CpuPipe,
            kind: EventKind::StallEnd(StallCause::HhtWindowEmpty),
        },
        Event {
            cycle: 7,
            track: Track::CpuPipe,
            kind: EventKind::StallBegin(StallCause::ArbitrationLoss),
        },
        Event {
            cycle: 8,
            track: Track::CpuPipe,
            kind: EventKind::StallEnd(StallCause::ArbitrationLoss),
        },
        Event {
            cycle: 9,
            track: Track::BufferSecondary,
            kind: EventKind::BufferLevel { level: 0 },
        },
        // Deliberately left open: the exporter must auto-close it.
        Event { cycle: 10, track: Track::HhtBackend, kind: EventKind::SliceBegin("drain") },
    ]
}

/// The Chrome trace export is pinned byte-for-byte by a checked-in golden
/// file. Regenerate (after an intentional format change) with
/// `REGEN_GOLDEN=1 cargo test --test observability`.
#[test]
fn chrome_trace_matches_golden_file() {
    let json = chrome_trace_json(&golden_events());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chrome_trace.json");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing tests/golden/chrome_trace.json (set REGEN_GOLDEN=1 to create it)");
    assert_eq!(
        json, golden,
        "Chrome trace export changed; if intentional, regenerate with REGEN_GOLDEN=1"
    );
}
