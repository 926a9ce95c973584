//! DRAM-class timing: the split-transaction memory model behind the
//! latency/bandwidth/MLP wall.
//!
//! A [`DramConfig`] on the [`SharedMemory`](crate::SharedMemory) adds the three effects a flat
//! SRAM-class model cannot show:
//!
//! - **Row-buffer timing** — each bank tracks its open row; an access to
//!   the open row pays `row_hit_extra` response cycles on top of the flat
//!   port cost, any other access precharges + activates and pays
//!   `row_miss_extra`. The extra is *response latency*, not port
//!   occupancy: the bank frees at the flat cost (requests pipeline behind
//!   it) while the data arrives later — the split transaction.
//! - **Bounded in-flight window** — each tile may have at most
//!   `max_inflight_per_tile` transactions whose responses are still
//!   outstanding (Little's-law MLP ceiling). A full window refuses the
//!   request with [`MemRefusal::WindowFull`](crate::MemRefusal) until the
//!   oldest response retires.
//! - **Bandwidth budget** — at most `max_grants_per_cycle` grants per
//!   cycle across all banks; once spent, otherwise-grantable requests are
//!   refused with [`MemRefusal::BandwidthExhausted`](crate::MemRefusal).
//!
//! The flat configuration ([`DramConfig::flat`], the default: zero extras,
//! unlimited window and budget) takes the memory's flat path, which skips
//! every check. The timing decision and the scheduler's park bounds live
//! in [`SharedMemory::request_burst_for`](crate::SharedMemory::request_burst_for)
//! and [`SharedMemory::next_event_for`](crate::SharedMemory::next_event_for).

use serde::{Deserialize, Serialize};

/// Timing parameters of the [`SharedMemory`](crate::SharedMemory)'s
/// DRAM-class model. The
/// [`DramConfig::flat`] preset (the default) is the flat banked model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Extra response cycles for an access that hits the bank's open row.
    pub row_hit_extra: u64,
    /// Extra response cycles for an access that opens a new row
    /// (precharge + activate).
    pub row_miss_extra: u64,
    /// Words per DRAM row (the open-row granule; addresses in the same
    /// `row_words`-aligned window share a row).
    pub row_words: u32,
    /// Grants per cycle across all banks; 0 = unlimited.
    pub max_grants_per_cycle: u32,
    /// Outstanding transactions per tile; 0 = unlimited.
    pub max_inflight_per_tile: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::flat()
    }
}

impl DramConfig {
    /// Zero latency, unlimited window and bandwidth: the flat banked model.
    pub fn flat() -> Self {
        DramConfig {
            row_hit_extra: 0,
            row_miss_extra: 0,
            row_words: 256,
            max_grants_per_cycle: 0,
            max_inflight_per_tile: 0,
        }
    }

    /// A 300 ns-class external DRAM at the paper's 1.1 GHz clock: ~330
    /// cycles to open a row, ~110 on an open-row hit, 1 KB rows, and a
    /// 4-deep per-tile window (the Little's-law MLP ceiling a small
    /// in-order tile can realistically sustain).
    pub fn slow_300ns() -> Self {
        DramConfig {
            row_hit_extra: 110,
            row_miss_extra: 330,
            row_words: 256,
            max_grants_per_cycle: 0,
            max_inflight_per_tile: 4,
        }
    }

    /// Set the row hit/miss response latencies.
    pub fn with_row_latency(mut self, hit_extra: u64, miss_extra: u64) -> Self {
        self.row_hit_extra = hit_extra;
        self.row_miss_extra = miss_extra;
        self
    }

    /// Set the open-row granule in words.
    pub fn with_row_words(mut self, row_words: u32) -> Self {
        assert!(row_words >= 1, "a row holds at least one word");
        self.row_words = row_words;
        self
    }

    /// Set the grants-per-cycle bandwidth budget (0 = unlimited).
    pub fn with_bandwidth(mut self, max_grants_per_cycle: u32) -> Self {
        self.max_grants_per_cycle = max_grants_per_cycle;
        self
    }

    /// Set the per-tile in-flight window (0 = unlimited).
    pub fn with_window(mut self, max_inflight_per_tile: u32) -> Self {
        self.max_inflight_per_tile = max_inflight_per_tile;
        self
    }

    /// True when every effect is disabled: the memory takes its flat path.
    pub fn is_flat(&self) -> bool {
        self.row_hit_extra == 0
            && self.row_miss_extra == 0
            && self.max_grants_per_cycle == 0
            && self.max_inflight_per_tile == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::{MemIssue, MemRefusal, MemoryPort, RowOutcome};
    use crate::{FabricPort, Requester, SharedMemStats, SharedMemory};
    use hht_obs::{EventBus, EventKind, Track};

    /// A word request by `tile`.
    fn req(d: &mut SharedMemory, tile: usize, now: u64, addr: u32, who: Requester) -> MemIssue {
        d.request_burst_for(tile, now, addr, who, 1)
    }

    /// The general DRAM path with every effect unable to bind (zero row
    /// extras, a window no tile can fill, no budget) grants, refuses and
    /// bounds exactly like the flat path; only the row counters differ.
    #[test]
    fn flat_dram_matches_shared_memory() {
        let mut flat = SharedMemory::new(256, 2, 2, 2);
        let mut dram =
            SharedMemory::new(256, 2, 2, 2).with_dram(DramConfig::flat().with_window(u32::MAX));
        for t in 0..2 {
            flat.set_event_bus_for(t, EventBus::new(64));
            dram.set_event_bus_for(t, EventBus::new(64));
        }
        let script: &[(usize, u64, u32, Requester, u64)] = &[
            (0, 0, 0x00, Requester::Cpu, 1),
            (1, 0, 0x20, Requester::Hht, 1),
            (0, 1, 0x20, Requester::Cpu, 1),
            (0, 2, 0x80, Requester::Cpu, 8),
            (1, 3, 0x84, Requester::Hht, 1),
            (1, 10, 0x84, Requester::Hht, 1),
        ];
        for &(tile, now, addr, who, words) in script {
            let a = flat.request_burst_for(tile, now, addr, who, words);
            let b = dram.request_burst_for(tile, now, addr, who, words);
            assert_eq!(a.data_at(), b.data_at(), "diverged at cycle {now}");
            assert_eq!(flat.next_event_for(tile, addr, now), dram.next_event_for(tile, addr, now));
        }
        flat.skip_conflicts_for(1, 11, 3, 0x84, Requester::Cpu);
        dram.skip_conflicts_for(1, 11, 3, 0x84, Requester::Cpu);
        for t in 0..2 {
            assert_eq!(flat.stats_for(t), dram.stats_for(t));
            let mut events = dram.take_events_for(t);
            events.retain(|e| e.track != Track::MemQueue);
            assert_eq!(flat.take_events_for(t), events);
        }
        let (a, b) = (flat.shared_stats(), dram.shared_stats());
        assert!(b.row_misses > 0, "the general DRAM path never ran");
        assert_eq!(a, SharedMemStats { row_hits: 0, row_misses: 0, ..b });
    }

    /// Row-buffer timing: the first access to a row pays the miss extra,
    /// subsequent accesses to the same open row pay the hit extra, and a
    /// different row on the same bank pays the miss extra again. The bank
    /// itself frees at the flat cost — the extra is response latency.
    #[test]
    fn row_hit_and_miss_response_latency() {
        let cfg = DramConfig::flat().with_row_latency(2, 10).with_row_words(16);
        let mut d = SharedMemory::new(1024, 1, 1, 1).with_dram(cfg);
        // Cold: row miss. Flat cost 1, +10 response.
        assert_eq!(
            req(&mut d, 0, 0, 0x00, Requester::Cpu),
            MemIssue::Granted { data_at: 11, row: RowOutcome::Miss }
        );
        // Bank frees at the flat cost: a request at cycle 1 is granted
        // even though the first response is still in flight.
        assert_eq!(
            req(&mut d, 0, 1, 0x04, Requester::Cpu),
            MemIssue::Granted { data_at: 4, row: RowOutcome::Hit }
        );
        // Same bank (single bank), different 16-word row: miss again.
        assert_eq!(
            req(&mut d, 0, 2, 0x40, Requester::Hht),
            MemIssue::Granted { data_at: 13, row: RowOutcome::Miss }
        );
        let shared = d.shared_stats();
        assert_eq!(shared.row_hits, 1);
        assert_eq!(shared.row_misses, 2);
        let tile = d.stats_for(0);
        assert_eq!(tile.cpu_row_miss_extra, 10);
        assert_eq!(tile.cpu_row_hit_extra, 2);
    }

    /// The per-tile window refuses a request while the tile is at its MLP
    /// ceiling, charges window stalls (never cross-tile), and the park
    /// bound is the oldest outstanding response.
    #[test]
    fn window_caps_in_flight_transactions() {
        let cfg = DramConfig::flat().with_row_latency(0, 20).with_window(1);
        let mut d = SharedMemory::new(1024, 1, 1, 1).with_dram(cfg);
        assert_eq!(req(&mut d, 0, 0, 0x00, Requester::Cpu).data_at(), Some(21));
        assert_eq!(d.in_flight(0, 1), 1);
        // Bank is free at cycle 1, but the window is full until cycle 21.
        assert_eq!(
            req(&mut d, 0, 1, 0x04, Requester::Cpu),
            MemIssue::Refused(MemRefusal::WindowFull)
        );
        assert_eq!(d.next_event_for(0, 0x04, 1), Some(21));
        // Response retires, window opens: open-row hit, zero extra.
        assert_eq!(
            req(&mut d, 0, 21, 0x04, Requester::Cpu),
            MemIssue::Granted { data_at: 22, row: RowOutcome::Hit }
        );
        let tile = d.stats_for(0);
        assert_eq!(tile.cpu_window_stalls, 1);
        assert_eq!(tile.cpu_conflicts, 1);
        assert_eq!(tile.cpu_cross_tile_conflicts, 0);
        assert_eq!(d.shared_stats().window_stalls, 1);
    }

    /// The grant budget refuses otherwise-grantable requests once spent,
    /// and the hint is `None` (retry next cycle, never park).
    #[test]
    fn bandwidth_budget_limits_grants_per_cycle() {
        let cfg = DramConfig::flat().with_bandwidth(1);
        let mut d = SharedMemory::new(1024, 1, 2, 2).with_dram(cfg);
        // Two different banks, same cycle: second grant exceeds the budget.
        assert!(req(&mut d, 0, 5, 0x00, Requester::Cpu).data_at().is_some());
        assert_eq!(
            req(&mut d, 1, 5, 0x20, Requester::Cpu),
            MemIssue::Refused(MemRefusal::BandwidthExhausted)
        );
        assert_eq!(d.next_event_for(1, 0x20, 5), None);
        // Budget refreshes next cycle.
        assert!(req(&mut d, 1, 6, 0x20, Requester::Cpu).data_at().is_some());
        let shared = d.shared_stats();
        assert_eq!(shared.bandwidth_stalls, 1);
        assert_eq!(shared.grant_budget, 1);
        // Budget refusals are not cross-tile: no bank was held.
        assert_eq!(shared.cross_tile_conflicts, 0);
    }

    /// A burst is one transaction against the window and the budget no
    /// matter how many words it carries.
    #[test]
    fn burst_is_one_transaction() {
        let cfg = DramConfig::flat().with_window(1).with_bandwidth(1);
        let mut d = SharedMemory::new(1024, 2, 1, 1).with_dram(cfg);
        assert_eq!(d.request_burst_for(0, 0, 0x00, Requester::Cpu, 8).data_at(), Some(9));
        assert_eq!(d.in_flight(0, 0), 1);
        assert_eq!(d.stats_for(0).cpu_accesses, 8);
    }

    /// Bulk window-stall replay charges exactly what the per-cycle retry
    /// loop would have: same counters, same per-tile attribution.
    #[test]
    fn window_skip_replay_matches_per_cycle_refusals() {
        let cfg = DramConfig::flat().with_row_latency(0, 30).with_window(1);
        // Per-cycle oracle: retry every cycle against the full window.
        let mut a = SharedMemory::new(1024, 1, 1, 1).with_dram(cfg);
        req(&mut a, 0, 0, 0x00, Requester::Cpu);
        for c in 1..6 {
            assert_eq!(
                req(&mut a, 0, c, 0x40, Requester::Cpu),
                MemIssue::Refused(MemRefusal::WindowFull)
            );
        }
        // Bulk replay of the same span.
        let mut b = SharedMemory::new(1024, 1, 1, 1).with_dram(cfg);
        req(&mut b, 0, 0, 0x00, Requester::Cpu);
        b.skip_conflicts_for(0, 1, 5, 0x40, Requester::Cpu);
        assert_eq!(a.stats_for(0), b.stats_for(0));
        assert_eq!(a.shared_stats(), b.shared_stats());
    }

    /// The DRAM path emits row-transition and occupancy events on the
    /// mem-queue track; the flat path emits none.
    #[test]
    fn dram_emits_mem_queue_events() {
        let cfg = DramConfig::flat().with_row_latency(1, 5);
        let mut d = SharedMemory::new(1024, 1, 1, 1).with_dram(cfg);
        d.set_event_bus_for(0, EventBus::new(64));
        req(&mut d, 0, 0, 0x00, Requester::Cpu); // miss: RowOpen + level
        req(&mut d, 0, 1, 0x04, Requester::Cpu); // hit: level only
        let events = d.take_events_for(0);
        let row_opens =
            events.iter().filter(|e| matches!(e.kind, EventKind::RowOpen { .. })).count();
        let levels = events
            .iter()
            .filter(|e| {
                e.track == Track::MemQueue && matches!(e.kind, EventKind::BufferLevel { .. })
            })
            .count();
        assert_eq!(row_opens, 1);
        assert_eq!(levels, 2);

        let mut flat = SharedMemory::new(1024, 1, 1, 1);
        flat.set_event_bus_for(0, EventBus::new(64));
        req(&mut flat, 0, 0, 0x00, Requester::Cpu);
        let events = flat.take_events_for(0);
        assert!(events.iter().all(|e| e.track != Track::MemQueue));
    }

    /// `FabricPort` exposes the `MemoryPort` surface: over DRAM timing it
    /// surfaces the real refusal kinds and row outcomes, and it remembers
    /// its latest response and whether it refused.
    #[test]
    fn fabric_port_surfaces_real_outcomes() {
        let cfg = DramConfig::flat().with_row_latency(0, 7).with_window(1);
        let mut mem = SharedMemory::new(1024, 1, 1, 1).with_dram(cfg);
        {
            let mut port = FabricPort::new(&mut mem, 0);
            let p: &mut dyn MemoryPort = &mut port;
            assert_eq!(
                p.request(0, 0x00, Requester::Cpu),
                MemIssue::Granted { data_at: 8, row: RowOutcome::Miss }
            );
            assert_eq!(
                p.request(1, 0x04, Requester::Hht),
                MemIssue::Refused(MemRefusal::WindowFull)
            );
            p.write_u32(16, 99);
            assert_eq!(p.read_u32(16), 99);
            assert_eq!((port.lands_at(), port.refused()), (8, true));
        }
        assert_eq!(mem.next_event_for(0, 0x04, 1), Some(8));
        assert_eq!(mem.stats_for(0).hht_window_stalls, 1);

        let mut flat = SharedMemory::new(256, 2, 1, 1);
        let mut port = FabricPort::new(&mut flat, 0);
        assert_eq!(
            port.request(0, 0, Requester::Cpu),
            MemIssue::Granted { data_at: 2, row: RowOutcome::Flat }
        );
        assert_eq!(port.request(1, 0, Requester::Hht), MemIssue::Refused(MemRefusal::BankBusy));
    }
}
