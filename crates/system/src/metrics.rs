//! Unified metrics export.
//!
//! Every component keeps its own counters ([`CoreStats`], [`HhtStats`] with
//! its nested engine stats, [`SramStats`], and the per-cause
//! [`StallBreakdown`]); this module gathers them into one serializable
//! tree, [`MetricsSnapshot`], together with the derived Fig. 6/7 wait
//! fractions. The snapshot is *self-auditing*: [`MetricsSnapshot::validate`]
//! checks that the fine-grained stall histogram sums exactly to the coarse
//! wait counters the figures are computed from.

use crate::system::{FaultSummary, SystemStats};
use hht_accel::HhtStats;
use hht_mem::SramStats;
use hht_obs::{ObsDrops, StallBreakdown};
use hht_sim::CoreStats;
use serde::{Deserialize, Serialize};

/// One run's complete measurement record as a single serde tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Total execution cycles.
    pub cycles: u64,
    /// CPU counters (including the core-side stall attribution).
    pub core: CoreStats,
    /// HHT counters (front-end and nested back-end engine).
    pub hht: HhtStats,
    /// SRAM port counters.
    pub sram: SramStats,
    /// Unified per-cause stall histogram: the core's causes plus the
    /// back-end's output-full cycles, one tree for the whole machine.
    pub stalls: StallBreakdown,
    /// Fraction of cycles the CPU waited on the HHT (Figs. 6/7).
    pub cpu_wait_frac: f64,
    /// Fraction of cycles the HHT back-end was throttled by full buffers.
    pub hht_wait_frac: f64,
    /// Fault-injection and recovery counters (all zero on a clean run).
    pub faults: FaultSummary,
    /// Ring-buffer eviction counters for the observability sinks: non-zero
    /// values mean the exported event timeline is *incomplete* and any
    /// trace-derived analysis should be treated as sampled. Zero in
    /// [`MetricsSnapshot::from_stats`]; attach the run's real counters with
    /// [`MetricsSnapshot::with_drops`].
    pub dropped: ObsDrops,
}

impl MetricsSnapshot {
    /// Assemble the snapshot from a run's [`SystemStats`].
    pub fn from_stats(s: &SystemStats) -> Self {
        let mut stalls = s.core.stalls;
        stalls.output_full = s.hht.engine.stall_out_full;
        MetricsSnapshot {
            cycles: s.cycles,
            core: s.core,
            hht: s.hht,
            sram: s.sram,
            stalls,
            cpu_wait_frac: s.cpu_wait_frac(),
            hht_wait_frac: s.hht_wait_frac(),
            faults: s.faults,
            dropped: ObsDrops::default(),
        }
    }

    /// Attach the run's ring-buffer drop counters (see
    /// [`crate::runner::RunOutput::dropped`]).
    pub fn with_drops(mut self, dropped: ObsDrops) -> Self {
        self.dropped = dropped;
        self
    }

    /// Check the exact-sum invariants between the per-cause histogram and
    /// the coarse counters:
    ///
    /// - `stalls.hht_window_empty + stalls.hht_header_wait` ==
    ///   `core.hht_wait_cycles` (the CPU-waiting-for-HHT counter);
    /// - `stalls.arbitration_loss` == `core.mem_port_stall_cycles`;
    /// - `stalls.output_full` == `hht.engine.stall_out_full`;
    /// - `sram.cpu_conflicts` == `core.mem_port_stall_cycles` (every port
    ///   rejection the memory charged to the CPU is a stall the core saw),
    ///   with `sram.cpu_cross_tile_conflicts` a subset of it.
    pub fn validate(&self) -> Result<(), String> {
        if self.stalls.cpu_hht_wait() != self.core.hht_wait_cycles {
            return Err(format!(
                "hht_window_empty + hht_header_wait = {} != hht_wait_cycles = {}",
                self.stalls.cpu_hht_wait(),
                self.core.hht_wait_cycles
            ));
        }
        if self.stalls.arbitration_loss != self.core.mem_port_stall_cycles {
            return Err(format!(
                "arbitration_loss = {} != mem_port_stall_cycles = {}",
                self.stalls.arbitration_loss, self.core.mem_port_stall_cycles
            ));
        }
        if self.stalls.output_full != self.hht.engine.stall_out_full {
            return Err(format!(
                "output_full = {} != stall_out_full = {}",
                self.stalls.output_full, self.hht.engine.stall_out_full
            ));
        }
        if self.sram.cpu_conflicts != self.core.mem_port_stall_cycles {
            return Err(format!(
                "sram.cpu_conflicts = {} != mem_port_stall_cycles = {}",
                self.sram.cpu_conflicts, self.core.mem_port_stall_cycles
            ));
        }
        if self.sram.cpu_cross_tile_conflicts > self.sram.cpu_conflicts {
            return Err(format!(
                "cpu_cross_tile_conflicts = {} exceeds cpu_conflicts = {}",
                self.sram.cpu_cross_tile_conflicts, self.sram.cpu_conflicts
            ));
        }
        Ok(())
    }

    /// Render as pretty JSON (deterministic field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot fields are always finite")
    }
}

impl SystemStats {
    /// The unified, validated-by-construction metrics tree for this run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::job::{Job, Kernel};
    use crate::runner;
    use hht_sparse::generate;

    #[test]
    fn snapshot_validates_and_round_trips() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(24, 24, 0.6, 5);
        let v = generate::random_dense_vector(24, 6);
        let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        let snap = out.stats.snapshot();
        snap.validate().unwrap();
        // The HHT run must actually have attributed CPU waits.
        assert!(snap.stalls.cpu_hht_wait() > 0 || snap.core.hht_wait_cycles == 0);
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn validate_catches_a_broken_histogram() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(16, 16, 0.5, 9);
        let v = generate::random_dense_vector(16, 10);
        let mut snap =
            runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap().stats.snapshot();
        snap.stalls.hht_window_empty += 1;
        assert!(snap.validate().is_err());
    }
}
