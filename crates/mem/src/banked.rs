//! The banked shared memory behind the N-tile fabric.
//!
//! [`SharedMemory`] generalizes the single-ported [`Sram`](crate::Sram):
//! the flat byte array is shared by every tile, but the timing model has
//! `banks` independent ports, address-interleaved at a `bank_words` granule
//! (32 bytes by default — one L1D line, so a line fill streams from one
//! bank). Each tile accesses memory through a [`TilePort`] view that
//! implements [`MemoryPort`](crate::MemoryPort); grants, conflicts and
//! arbitration events are accounted *per tile* (so a tile's `SramStats`
//! keeps exactly the meaning it had when the tile owned a private SRAM),
//! plus fabric-wide aggregates in [`SharedMemStats`] including how many
//! rejections lost to a bank held by a *different* tile.
//!
//! With one bank and one tile the timing model degenerates to `Sram`
//! exactly: same grant cycles, same burst cost, same per-requester stats,
//! same arbitration events. The fabric's 1-tile differential tests lean on
//! this equivalence.

use crate::sram::{Requester, Sram};
use crate::MemoryPort;
use hht_obs::{Event, EventBus, EventKind, Track};
use serde::{Deserialize, Serialize};

use crate::SramStats;

/// Fabric-wide counters for the banked shared memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemStats {
    /// Number of banks.
    pub banks: u64,
    /// Word accesses granted (all tiles, all banks).
    pub accesses: u64,
    /// Attempts rejected because the target bank was busy.
    pub conflicts: u64,
    /// Rejections where the busy bank was held by a different tile — the
    /// contention that only exists because the memory is shared.
    pub cross_tile_conflicts: u64,
    /// Granted transactions that hit a bank's open row (all tiles). Zero
    /// unless a DRAM-class backend with row timing wraps this memory.
    pub row_hits: u64,
    /// Granted transactions that opened a new row.
    pub row_misses: u64,
    /// Refusal cycles lost to a full per-tile in-flight window (the subset
    /// of `conflicts` where no bank was busy — the MLP ceiling).
    pub window_stalls: u64,
    /// Refusal cycles lost to the cycle-wide grant budget (the bandwidth
    /// wall: bank free, window open, budget spent).
    pub bandwidth_stalls: u64,
    /// Grants-per-cycle budget in force (shape datum like `banks`, not a
    /// counter; 0 = unlimited).
    pub grant_budget: u64,
}

impl SharedMemStats {
    /// Fraction of port attempts that lost bank arbitration.
    pub fn conflict_frac(&self) -> f64 {
        let attempts = self.accesses + self.conflicts;
        if attempts == 0 {
            return 0.0;
        }
        self.conflicts as f64 / attempts as f64
    }

    /// Fold another attempt's counters into this one. `banks` and
    /// `grant_budget` are shape data, not counters: they are taken from
    /// `other`, never summed (every attempt of one recovered run shares the
    /// memory shape).
    pub fn absorb(&mut self, other: &SharedMemStats) {
        let SharedMemStats {
            banks,
            accesses,
            conflicts,
            cross_tile_conflicts,
            row_hits,
            row_misses,
            window_stalls,
            bandwidth_stalls,
            grant_budget,
        } = *other;
        self.banks = banks;
        self.accesses += accesses;
        self.conflicts += conflicts;
        self.cross_tile_conflicts += cross_tile_conflicts;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
        self.window_stalls += window_stalls;
        self.bandwidth_stalls += bandwidth_stalls;
        self.grant_budget = grant_budget;
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    free_at: u64,
    /// Tile whose transaction holds the bank while `free_at` is in the
    /// future (valid only then).
    holder: usize,
}

/// Byte-addressable memory shared by N tiles over `banks` interleaved
/// ports. Functional access is untimed (exactly like [`Sram`]); timed
/// access goes through a per-tile [`TilePort`].
#[derive(Debug)]
pub struct SharedMemory {
    data: Vec<u8>,
    word_cycles: u64,
    bank_words: u32,
    banks: Vec<Bank>,
    tile_stats: Vec<SramStats>,
    obs: Vec<Option<Box<EventBus>>>,
    stats: SharedMemStats,
}

/// Default interleave granule: 8 words = 32 bytes, one L1D line.
pub const DEFAULT_BANK_WORDS: u32 = 8;

impl SharedMemory {
    /// Create a shared memory of `size` bytes with `word_cycles` per word,
    /// `banks` interleaved ports and `tiles` accounting domains.
    pub fn new(size: u32, word_cycles: u64, banks: usize, tiles: usize) -> Self {
        Self::from_parts(vec![0; size as usize], word_cycles, banks, tiles)
    }

    /// Re-house an already-built [`Sram`] image (problem data loaded by the
    /// layout code) behind `banks` ports shared by `tiles` tiles.
    pub fn from_sram(sram: Sram, banks: usize, tiles: usize) -> Self {
        let word_cycles = sram.word_cycles();
        Self::from_parts(sram.into_data(), word_cycles, banks, tiles)
    }

    fn from_parts(data: Vec<u8>, word_cycles: u64, banks: usize, tiles: usize) -> Self {
        assert!(word_cycles >= 1, "an access takes at least one cycle");
        assert!(banks >= 1, "at least one bank");
        assert!(tiles >= 1, "at least one tile");
        SharedMemory {
            data,
            word_cycles,
            bank_words: DEFAULT_BANK_WORDS,
            banks: vec![Bank { free_at: 0, holder: 0 }; banks],
            tile_stats: vec![SramStats::default(); tiles],
            obs: (0..tiles).map(|_| None).collect(),
            stats: SharedMemStats { banks: banks as u64, ..SharedMemStats::default() },
        }
    }

    /// Override the interleave granule (in words). Rarely needed; the
    /// default is one L1D line so line fills stay within a bank.
    pub fn with_bank_words(mut self, bank_words: u32) -> Self {
        assert!(bank_words >= 1, "granule of at least one word");
        self.bank_words = bank_words;
        self
    }

    /// Install a structured-event sink for one tile's arbitration events.
    pub fn set_event_bus_for(&mut self, tile: usize, bus: EventBus) {
        self.obs[tile] = Some(Box::new(bus));
    }

    /// Move one tile's collected arbitration events out of its bus.
    pub fn take_events_for(&mut self, tile: usize) -> Vec<Event> {
        match self.obs[tile].as_mut() {
            Some(bus) => bus.take_events(),
            None => Vec::new(),
        }
    }

    /// Events evicted from one tile's bus by its ring bound.
    pub fn events_dropped_for(&self, tile: usize) -> u64 {
        self.obs[tile].as_ref().map_or(0, |b| b.dropped())
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Number of tile accounting domains.
    pub fn tiles(&self) -> usize {
        self.tile_stats.len()
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Cycles one word access occupies a bank.
    pub fn word_cycles(&self) -> u64 {
        self.word_cycles
    }

    /// One tile's port statistics (same meaning as [`Sram::stats`] had for
    /// the tile's private SRAM).
    pub fn stats_for(&self, tile: usize) -> SramStats {
        self.tile_stats[tile]
    }

    /// Fabric-wide aggregates.
    pub fn shared_stats(&self) -> SharedMemStats {
        self.stats
    }

    pub(crate) fn bank_of(&self, addr: u32) -> usize {
        ((addr >> 2) / self.bank_words) as usize % self.banks.len()
    }

    /// Cycle the bank frees (≤ `now` means idle). Hook for the DRAM wrapper,
    /// which needs to test occupancy separately from granting.
    pub(crate) fn bank_free_at(&self, bank: usize) -> u64 {
        self.banks[bank].free_at
    }

    /// Record the memory shape's grants-per-cycle budget (a datum the
    /// DRAM wrapper sets once at construction; see
    /// [`SharedMemStats::grant_budget`]).
    pub(crate) fn set_grant_budget(&mut self, budget: u64) {
        self.stats.grant_budget = budget;
    }

    /// Emit one event on `tile`'s bus (no-op without a sink). Hook for the
    /// DRAM wrapper's row-transition and queue-occupancy events.
    pub(crate) fn emit_for(&mut self, tile: usize, now: u64, track: Track, kind: EventKind) {
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, track, kind);
        }
    }

    /// Charge `span` window-full refusal cycles to `tile`/`who` starting at
    /// `now`: the tile's bounded in-flight window — not a bank — refused
    /// the request, so no cross-tile attribution applies. Emits the same
    /// per-cycle conflict events a failing retry loop would.
    pub(crate) fn note_window_stall(&mut self, tile: usize, now: u64, span: u64, who: Requester) {
        self.tile_stats[tile].conflicts += span;
        self.stats.conflicts += span;
        self.stats.window_stalls += span;
        match who {
            Requester::Cpu => {
                self.tile_stats[tile].cpu_conflicts += span;
                self.tile_stats[tile].cpu_window_stalls += span;
            }
            Requester::Hht => self.tile_stats[tile].hht_window_stalls += span,
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            for c in 0..span {
                bus.emit(now + c, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
        }
    }

    /// Charge one bandwidth-budget refusal cycle to `tile`/`who`: the bank
    /// was free but the cycle-wide grant budget was spent. Not cross-tile
    /// in the bank-holder sense (no bank is held), though the budget was of
    /// course consumed fabric-wide.
    pub(crate) fn note_bandwidth_stall(&mut self, tile: usize, now: u64, who: Requester) {
        self.tile_stats[tile].conflicts += 1;
        self.stats.conflicts += 1;
        self.stats.bandwidth_stalls += 1;
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += 1;
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
        }
    }

    /// Record a granted transaction's row-buffer outcome and the extra
    /// response-latency cycles it was charged.
    pub(crate) fn note_row(&mut self, tile: usize, who: Requester, hit: bool, extra: u64) {
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        if who == Requester::Cpu {
            if hit {
                self.tile_stats[tile].cpu_row_hit_extra += extra;
            } else {
                self.tile_stats[tile].cpu_row_miss_extra += extra;
            }
        }
    }

    pub(crate) fn reject(&mut self, tile: usize, now: u64, bank: usize, who: Requester) {
        self.tile_stats[tile].conflicts += 1;
        self.stats.conflicts += 1;
        let cross = self.banks[bank].holder != tile;
        if cross {
            self.stats.cross_tile_conflicts += 1;
        }
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += 1;
            if cross {
                self.tile_stats[tile].cpu_cross_tile_conflicts += 1;
            }
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
        }
    }

    pub(crate) fn grant(
        &mut self,
        tile: usize,
        now: u64,
        bank: usize,
        who: Requester,
        words: u64,
    ) -> u64 {
        let cost = self.word_cycles + words.max(1) - 1;
        self.banks[bank] = Bank { free_at: now + cost, holder: tile };
        match who {
            Requester::Cpu => self.tile_stats[tile].cpu_accesses += words,
            Requester::Hht => self.tile_stats[tile].hht_accesses += words,
        }
        self.stats.accesses += words;
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, Track::SramPort, EventKind::ArbGrant { requester: who.label() });
        }
        now + cost
    }

    /// Timed word access by `tile` (see [`MemoryPort::try_start`]). A burst
    /// is charged wholly to the bank of its first word.
    pub fn try_start_for(
        &mut self,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
    ) -> Option<u64> {
        self.try_start_burst_for(tile, now, addr, who, 1)
    }

    /// Timed burst access by `tile` (see [`MemoryPort::try_start_burst`]).
    pub fn try_start_burst_for(
        &mut self,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
        words: u64,
    ) -> Option<u64> {
        let bank = self.bank_of(addr);
        if self.banks[bank].free_at > now {
            self.reject(tile, now, bank, who);
            return None;
        }
        Some(self.grant(tile, now, bank, who, words))
    }

    /// Earliest cycle at which any busy bank frees, `None` when all idle.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.banks.iter().map(|b| b.free_at).filter(|&t| t > now).min()
    }

    /// When the bank serving `addr` frees, `None` when it is already free.
    pub fn next_event_at(&self, addr: u32, now: u64) -> Option<u64> {
        let t = self.banks[self.bank_of(addr)].free_at;
        (t > now).then_some(t)
    }

    /// Replay `span` skipped arbitration losses by `tile`/`who` against the
    /// bank serving `addr` (which the cycle-skipping scheduler has proved
    /// stays busy through the span, so the holder — and hence the
    /// cross-tile attribution — is constant).
    pub fn skip_conflicts_for(
        &mut self,
        tile: usize,
        now: u64,
        span: u64,
        addr: u32,
        who: Requester,
    ) {
        let bank = self.bank_of(addr);
        self.tile_stats[tile].conflicts += span;
        self.stats.conflicts += span;
        let cross = self.banks[bank].holder != tile;
        if cross {
            self.stats.cross_tile_conflicts += span;
        }
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += span;
            if cross {
                self.tile_stats[tile].cpu_cross_tile_conflicts += span;
            }
        }
        if let Some(bus) = self.obs[tile].as_mut() {
            for c in 0..span {
                bus.emit(now + c, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
            }
        }
    }

    // ---- functional storage (mirrors `Sram`) ----

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.data[addr as usize]
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.data[addr as usize] = value;
    }

    /// Read a little-endian 16-bit halfword.
    pub fn read_u16(&self, addr: u32) -> u16 {
        let a = addr as usize;
        u16::from_le_bytes(self.data[a..a + 2].try_into().expect("in-range read"))
    }

    /// Write a little-endian 16-bit halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let a = addr as usize;
        self.data[a..a + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Read a little-endian 32-bit word (panics out of range).
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("in-range read"))
    }

    /// Read a little-endian 32-bit word, or `None` out of range.
    pub fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        let a = addr as usize;
        let end = a.checked_add(4)?;
        let bytes = self.data.get(a..end)?;
        Some(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Write a little-endian 32-bit word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Flip bit `bit % 32` of the word at `addr` (fault injection); `false`
    /// without touching memory when out of range.
    pub fn corrupt_word(&mut self, addr: u32, bit: u8) -> bool {
        match self.read_u32_checked(addr) {
            Some(w) => {
                self.write_u32(addr, w ^ (1 << (bit % 32)));
                true
            }
            None => false,
        }
    }

    /// Read an `f32`.
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Read `n` consecutive `f32`s starting at `addr`.
    pub fn read_f32s(&self, addr: u32, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u32)).collect()
    }

    /// Read `n` consecutive `u32`s starting at `addr`.
    pub fn read_u32s(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u32)).collect()
    }
}

/// One tile's view of the [`SharedMemory`]: the object the tile's core and
/// HHT hold as their `&mut dyn MemoryPort` for the current cycle.
pub struct TilePort<'a> {
    mem: &'a mut SharedMemory,
    tile: usize,
}

impl<'a> TilePort<'a> {
    /// Borrow `mem` as tile `tile`'s port.
    pub fn new(mem: &'a mut SharedMemory, tile: usize) -> Self {
        TilePort { mem, tile }
    }
}

impl MemoryPort for TilePort<'_> {
    fn try_start(&mut self, now: u64, addr: u32, who: Requester) -> Option<u64> {
        self.mem.try_start_for(self.tile, now, addr, who)
    }

    fn try_start_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> Option<u64> {
        self.mem.try_start_burst_for(self.tile, now, addr, who, words)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.mem.next_event(now)
    }

    fn next_event_at(&self, addr: u32, now: u64) -> Option<u64> {
        self.mem.next_event_at(addr, now)
    }

    fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester) {
        self.mem.skip_conflicts_for(self.tile, now, span, addr, who)
    }

    fn size(&self) -> u32 {
        self.mem.size()
    }

    fn word_cycles(&self) -> u64 {
        self.mem.word_cycles()
    }

    fn read_u8(&self, addr: u32) -> u8 {
        self.mem.read_u8(addr)
    }

    fn read_u16(&self, addr: u32) -> u16 {
        self.mem.read_u16(addr)
    }

    fn read_u32(&self, addr: u32) -> u32 {
        self.mem.read_u32(addr)
    }

    fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        self.mem.read_u32_checked(addr)
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        self.mem.write_u8(addr, value)
    }

    fn write_u16(&mut self, addr: u32, value: u16) {
        self.mem.write_u16(addr, value)
    }

    fn write_u32(&mut self, addr: u32, value: u32) {
        self.mem.write_u32(addr, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One bank, one tile: grant cycles, burst cost and stats match the
    /// single-ported `Sram` call for call.
    #[test]
    fn single_bank_matches_sram() {
        let mut sram = Sram::new(256, 2);
        let mut shared = SharedMemory::new(256, 2, 1, 1);
        let script: &[(u64, u32, Requester, u64)] = &[
            (0, 0x00, Requester::Cpu, 1),
            (1, 0x40, Requester::Hht, 1),
            (2, 0x40, Requester::Hht, 1),
            (4, 0x80, Requester::Cpu, 8),
            (7, 0x10, Requester::Hht, 1),
            (12, 0x10, Requester::Hht, 1),
        ];
        for &(now, addr, who, words) in script {
            let a = sram.try_start_burst(now, who, words);
            let b = shared.try_start_burst_for(0, now, addr, who, words);
            assert_eq!(a, b, "diverged at cycle {now}");
            assert_eq!(sram.next_event(now), shared.next_event(now));
        }
        assert_eq!(sram.stats(), shared.stats_for(0));
        assert_eq!(shared.shared_stats().cross_tile_conflicts, 0);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        // Granule 8 words = 32 bytes: 0x00 -> bank 0, 0x20 -> bank 1.
        let mut m = SharedMemory::new(256, 4, 2, 2);
        assert_eq!(m.try_start_for(0, 0, 0x00, Requester::Cpu), Some(4));
        assert_eq!(m.try_start_for(1, 0, 0x20, Requester::Cpu), Some(4));
        // Same bank, other tile: cross-tile conflict.
        assert_eq!(m.try_start_for(1, 1, 0x00, Requester::Hht), None);
        // Same bank, same tile (its own in-flight txn): not cross-tile.
        assert_eq!(m.try_start_for(0, 1, 0x04, Requester::Hht), None);
        let s = m.shared_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.conflicts, 2);
        assert_eq!(s.cross_tile_conflicts, 1);
        assert_eq!(m.stats_for(0).conflicts, 1);
        assert_eq!(m.stats_for(1).conflicts, 1);
        // Bank-targeted hints.
        assert_eq!(m.next_event_at(0x00, 1), Some(4));
        assert_eq!(m.next_event_at(0x40, 1), Some(4)); // bank 0 again (wraps)
        assert_eq!(m.next_event(4), None);
    }

    #[test]
    fn from_sram_preserves_the_image() {
        let mut sram = Sram::new(64, 1);
        sram.load_words(0, &[1, 2, 3, 4]);
        let m = SharedMemory::from_sram(sram, 2, 2);
        assert_eq!(m.read_u32s(0, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.word_cycles(), 1);
        assert_eq!(m.banks(), 2);
        assert_eq!(m.tiles(), 2);
    }

    #[test]
    fn skip_replay_matches_per_cycle_conflicts() {
        // Per-cycle: tile 1 retries a bank held by tile 0 for 3 cycles.
        let mut a = SharedMemory::new(64, 8, 1, 2);
        a.try_start_for(0, 0, 0x0, Requester::Hht);
        for c in 1..4 {
            assert_eq!(a.try_start_for(1, c, 0x4, Requester::Cpu), None);
        }
        // Bulk replay of the same span.
        let mut b = SharedMemory::new(64, 8, 1, 2);
        b.try_start_for(0, 0, 0x0, Requester::Hht);
        b.skip_conflicts_for(1, 1, 3, 0x4, Requester::Cpu);
        assert_eq!(a.stats_for(1), b.stats_for(1));
        assert_eq!(a.shared_stats(), b.shared_stats());
    }

    #[test]
    fn conflict_frac_counts_rejections() {
        let mut m = SharedMemory::new(64, 2, 1, 1);
        m.try_start_for(0, 0, 0, Requester::Cpu);
        m.try_start_for(0, 1, 0, Requester::Cpu);
        assert_eq!(m.shared_stats().conflict_frac(), 0.5);
    }
}
