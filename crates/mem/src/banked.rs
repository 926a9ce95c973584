//! The one memory behind the N-tile fabric.
//!
//! [`SharedMemory`] generalizes the single-ported [`Sram`]: the flat byte
//! array is shared by every tile, but the timing model has `banks`
//! independent ports, address-interleaved at an 8-word granule (32 bytes —
//! one L1D line, so a line fill streams from one bank). Each
//! tile accesses memory through a [`FabricPort`] view that implements
//! [`MemoryPort`]; grants, conflicts and arbitration events are accounted
//! *per tile* (so a tile's `SramStats` keeps exactly the meaning it had
//! when the tile owned a private SRAM), plus fabric-wide aggregates in
//! [`SharedMemStats`] including how many rejections lost to a bank held by
//! a *different* tile.
//!
//! The memory also carries a [`DramConfig`] (flat by default). A flat
//! config grants every request at the flat port cost; any other config
//! turns on the DRAM-class split-transaction timing described in
//! [`crate::dram`]: row-buffer response latency, a per-tile in-flight
//! window and a grants-per-cycle budget. Both live in
//! [`SharedMemory::request_burst_for`], the one place the timing decision
//! is made.
//!
//! With one bank and one tile the flat timing model degenerates to `Sram`
//! exactly: same grant cycles, same burst cost, same per-requester stats,
//! same arbitration events. The fabric's 1-tile differential tests lean on
//! this equivalence.

use crate::dram::DramConfig;
use crate::port::{MemIssue, MemRefusal, MemoryPort, RowOutcome};
use crate::sram::{Requester, Sram};
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
    /// under flat timing, which models no row buffer.
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
/// ports, with flat or DRAM-class timing. Functional access is untimed
/// (exactly like [`Sram`]); timed access goes through a per-tile
/// [`FabricPort`].
#[derive(Debug)]
pub struct SharedMemory {
    data: Vec<u8>,
    word_cycles: u64,
    banks: Vec<Bank>,
    tile_stats: Vec<SramStats>,
    obs: Vec<Option<Box<EventBus>>>,
    stats: SharedMemStats,
    dram: DramConfig,
    /// Open row id per bank (`None` = all rows precharged).
    open_rows: Vec<Option<u32>>,
    /// Response-arrival cycles of each tile's outstanding transactions.
    inflight: Vec<Vec<u64>>,
    /// Cycle `budget_used` counts grants for.
    budget_cycle: u64,
    budget_used: u32,
}

/// Interleave granule: 8 words = 32 bytes, one L1D line.
const BANK_WORDS: u32 = 8;

impl SharedMemory {
    /// Create a flat shared memory of `size` bytes with `word_cycles` per
    /// word, `banks` interleaved ports and `tiles` accounting domains.
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
            banks: vec![Bank { free_at: 0, holder: 0 }; banks],
            tile_stats: vec![SramStats::default(); tiles],
            obs: (0..tiles).map(|_| None).collect(),
            stats: SharedMemStats { banks: banks as u64, ..SharedMemStats::default() },
            dram: DramConfig::flat(),
            open_rows: vec![None; banks],
            inflight: vec![Vec::new(); tiles],
            budget_cycle: 0,
            budget_used: 0,
        }
    }

    /// The same memory under DRAM-class timing `cfg` (see
    /// [`crate::dram`]). [`DramConfig::flat`] keeps the flat model.
    pub fn with_dram(mut self, cfg: DramConfig) -> Self {
        assert!(cfg.row_words >= 1, "a row holds at least one word");
        self.stats.grant_budget = cfg.max_grants_per_cycle as u64;
        self.dram = cfg;
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
    #[inline]
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Cycles one word access occupies a bank.
    #[inline]
    pub fn word_cycles(&self) -> u64 {
        self.word_cycles
    }

    /// True when a grant or a refusal can hold a requester for more than
    /// one cycle: DRAM-class timing (row latency, window, budget) or
    /// multi-cycle words. On flat 1-cycle memory every response lands on
    /// the next cycle and every busy bank frees by then.
    pub fn multi_cycle(&self) -> bool {
        self.word_cycles > 1 || !self.dram.is_flat()
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

    /// Transactions of `tile` whose responses are still outstanding at
    /// `now` (the window occupancy the MLP cap is tested against).
    pub fn in_flight(&self, tile: usize, now: u64) -> usize {
        self.inflight[tile].iter().filter(|&&d| d > now).count()
    }

    /// Issue a split-transaction burst request of `words` words by `tile`
    /// (`words` = 1 for a plain word access). A burst is charged wholly to
    /// the bank of its first word, and is one transaction against the
    /// window and the budget regardless of `words`.
    ///
    /// Flat timing: granted when the bank is free, the response lands at
    /// the flat port cost. DRAM-class timing tests, in order, the tile's
    /// in-flight window (a tile at its ceiling may not even arbitrate for
    /// a bank), the bank, and the cycle's grant budget; a grant then pays
    /// the row hit or miss extra as response latency on top of the flat
    /// port cost, while the bank frees at the flat cost.
    #[inline]
    pub fn request_burst_for(
        &mut self,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
        words: u64,
    ) -> MemIssue {
        let bank = self.bank_of(addr);
        if self.dram.is_flat() {
            if self.banks[bank].free_at > now {
                self.reject(tile, now, bank, who);
                return MemIssue::Refused(MemRefusal::BankBusy);
            }
            let data_at = self.grant(tile, now, bank, who, words);
            return MemIssue::Granted { data_at, row: RowOutcome::Flat };
        }
        // Retire delivered responses, then test the MLP window first.
        self.inflight[tile].retain(|&d| d > now);
        if self.window_full(tile, now) {
            self.note_window_stall(tile, now, 1, who);
            return MemIssue::Refused(MemRefusal::WindowFull);
        }
        if self.banks[bank].free_at > now {
            self.reject(tile, now, bank, who);
            return MemIssue::Refused(MemRefusal::BankBusy);
        }
        if self.budget_cycle != now {
            self.budget_cycle = now;
            self.budget_used = 0;
        }
        let budget = self.dram.max_grants_per_cycle;
        if budget > 0 && self.budget_used >= budget {
            self.note_bandwidth_stall(tile, now, who);
            return MemIssue::Refused(MemRefusal::BandwidthExhausted);
        }
        self.budget_used += 1;
        let done = self.grant(tile, now, bank, who, words);
        let row = (addr >> 2) / self.dram.row_words;
        let hit = self.open_rows[bank] == Some(row);
        let extra = if hit { self.dram.row_hit_extra } else { self.dram.row_miss_extra };
        if !hit {
            self.open_rows[bank] = Some(row);
            self.emit(tile, now, Track::MemQueue, EventKind::RowOpen { bank: bank as u32 });
        }
        self.note_row(tile, who, hit, extra);
        let data_at = done + extra;
        self.inflight[tile].push(data_at);
        let level = self.inflight[tile].len() as u32;
        self.emit(tile, now, Track::MemQueue, EventKind::BufferLevel { level });
        MemIssue::Granted { data_at, row: if hit { RowOutcome::Hit } else { RowOutcome::Miss } }
    }

    /// Park bound for a request by `tile` to `addr` refused at `now`: the
    /// cycle a retry could first succeed for a *different* reason, `None`
    /// when a retry next cycle may already succeed.
    ///
    /// - *Window full*: the oldest outstanding response's arrival. The
    ///   tile issues nothing while parked, so its window only drains, and
    ///   it stays full exactly until that response retires.
    /// - *Bank busy*: the bank's free cycle. A busy bank's `free_at`
    ///   cannot move (granting requires a free bank).
    /// - *Budget spent*: only possible with the bank free and the window
    ///   open, so the bound is `None` — the fabric maps that to an
    ///   immediate retry, and no park ever spans a bandwidth refusal.
    pub fn next_event_for(&self, tile: usize, addr: u32, now: u64) -> Option<u64> {
        if !self.dram.is_flat() && self.window_full(tile, now) {
            return self.oldest_inflight(tile, now);
        }
        let t = self.banks[self.bank_of(addr)].free_at;
        (t > now).then_some(t)
    }

    /// Replay `span` skipped refusal cycles by `tile`/`who` against `addr`
    /// — the bulk-replay hook of the event-queue scheduler, recording
    /// exactly what `span` failing per-cycle retries would have, events
    /// included. The refusal kind is re-derived at replay time: if the
    /// tile's window is full at `now` it stays full through the span (the
    /// park bound is the oldest response's arrival and the parked tile
    /// issues nothing), so the whole span is window stalls; otherwise the
    /// span lost to the bank serving `addr`, which provably stays busy
    /// through it, so its holder — and hence the cross-tile attribution —
    /// is constant.
    pub fn skip_conflicts_for(
        &mut self,
        tile: usize,
        now: u64,
        span: u64,
        addr: u32,
        who: Requester,
    ) {
        if !self.dram.is_flat() && self.window_full(tile, now) {
            debug_assert!(
                self.oldest_inflight(tile, now).is_none_or(|d| d >= now + span),
                "window-stall replay span outlives the oldest in-flight response"
            );
            return self.note_window_stall(tile, now, span, who);
        }
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

    #[inline]
    fn bank_of(&self, addr: u32) -> usize {
        // 32-bit remainder: the granule index fits, and it divides faster
        // than a `usize` one on every request.
        ((addr >> 2) / BANK_WORDS % self.banks.len() as u32) as usize
    }

    fn window_full(&self, tile: usize, now: u64) -> bool {
        let cap = self.dram.max_inflight_per_tile;
        cap > 0 && self.in_flight(tile, now) >= cap as usize
    }

    /// Earliest outstanding response of `tile` after `now` — the cycle a
    /// full window opens a slot.
    fn oldest_inflight(&self, tile: usize, now: u64) -> Option<u64> {
        self.inflight[tile].iter().copied().filter(|&d| d > now).min()
    }

    /// Emit one event on `tile`'s bus (no-op without a sink).
    #[inline]
    fn emit(&mut self, tile: usize, now: u64, track: Track, kind: EventKind) {
        if let Some(bus) = self.obs[tile].as_mut() {
            bus.emit(now, track, kind);
        }
    }

    /// Charge `span` window-full refusal cycles to `tile`/`who` starting at
    /// `now`: the tile's bounded in-flight window — not a bank — refused
    /// the request, so no cross-tile attribution applies. Emits the same
    /// per-cycle conflict events a failing retry loop would.
    fn note_window_stall(&mut self, tile: usize, now: u64, span: u64, who: Requester) {
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
    fn note_bandwidth_stall(&mut self, tile: usize, now: u64, who: Requester) {
        self.tile_stats[tile].conflicts += 1;
        self.stats.conflicts += 1;
        self.stats.bandwidth_stalls += 1;
        if who == Requester::Cpu {
            self.tile_stats[tile].cpu_conflicts += 1;
        }
        self.emit(tile, now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
    }

    /// Record a granted transaction's row-buffer outcome and the extra
    /// response-latency cycles it was charged.
    fn note_row(&mut self, tile: usize, who: Requester, hit: bool, extra: u64) {
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

    /// Charge one lost bank arbitration to `tile`/`who`.
    #[inline]
    fn reject(&mut self, tile: usize, now: u64, bank: usize, who: Requester) {
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
        self.emit(tile, now, Track::SramPort, EventKind::ArbConflict { loser: who.label() });
    }

    /// Grant `bank` to `tile`/`who` for `words` words; returns the cycle
    /// the bank frees (the flat response cycle).
    #[inline]
    fn grant(&mut self, tile: usize, now: u64, bank: usize, who: Requester, words: u64) -> u64 {
        let cost = self.word_cycles + words.max(1) - 1;
        self.banks[bank] = Bank { free_at: now + cost, holder: tile };
        match who {
            Requester::Cpu => self.tile_stats[tile].cpu_accesses += words,
            Requester::Hht => self.tile_stats[tile].hht_accesses += words,
        }
        self.stats.accesses += words;
        self.emit(tile, now, Track::SramPort, EventKind::ArbGrant { requester: who.label() });
        now + cost
    }

    // ---- functional storage (mirrors `Sram`) ----

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.data[addr as usize]
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.data[addr as usize] = value;
    }

    /// Read a little-endian 16-bit halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        let a = addr as usize;
        u16::from_le_bytes(self.data[a..a + 2].try_into().expect("in-range read"))
    }

    /// Write a little-endian 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let a = addr as usize;
        self.data[a..a + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Read a little-endian 32-bit word (panics out of range).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("in-range read"))
    }

    /// Read a little-endian 32-bit word, or `None` out of range.
    #[inline]
    pub fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        let a = addr as usize;
        let end = a.checked_add(4)?;
        let bytes = self.data.get(a..end)?;
        Some(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Write a little-endian 32-bit word.
    #[inline]
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

/// One tile's view of the [`SharedMemory`]: the [`MemoryPort`] the tile's
/// core and HHT are stepped with for the current cycle. The components are
/// generic over the port, so these calls compile to direct (inlined) ones.
///
/// The port also remembers how its traffic went — the latest response
/// cycle it granted ([`FabricPort::lands_at`]) and whether it refused a
/// request ([`FabricPort::refused`]) — so a scheduler can tell after a
/// step whether the tile may have become parkable on memory.
pub struct FabricPort<'a> {
    mem: &'a mut SharedMemory,
    tile: usize,
    lands_at: u64,
    refused: bool,
}

impl<'a> FabricPort<'a> {
    /// Borrow `mem` as tile `tile`'s port.
    #[inline]
    pub fn new(mem: &'a mut SharedMemory, tile: usize) -> Self {
        FabricPort { mem, tile, lands_at: 0, refused: false }
    }

    /// Latest response cycle of the requests this port granted (0 when it
    /// granted none).
    #[inline]
    pub fn lands_at(&self) -> u64 {
        self.lands_at
    }

    /// True when this port refused at least one request.
    #[inline]
    pub fn refused(&self) -> bool {
        self.refused
    }
}

impl MemoryPort for FabricPort<'_> {
    #[inline]
    fn request(&mut self, now: u64, addr: u32, who: Requester) -> MemIssue {
        self.request_burst(now, addr, who, 1)
    }

    #[inline]
    fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue {
        let issue = self.mem.request_burst_for(self.tile, now, addr, who, words);
        match issue {
            MemIssue::Granted { data_at, .. } => self.lands_at = self.lands_at.max(data_at),
            MemIssue::Refused(_) => self.refused = true,
        }
        issue
    }

    #[inline]
    fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester) {
        self.mem.skip_conflicts_for(self.tile, now, span, addr, who)
    }

    #[inline]
    fn size(&self) -> u32 {
        self.mem.size()
    }

    #[inline]
    fn word_cycles(&self) -> u64 {
        self.mem.word_cycles()
    }

    #[inline]
    fn read_u8(&self, addr: u32) -> u8 {
        self.mem.read_u8(addr)
    }

    #[inline]
    fn read_u16(&self, addr: u32) -> u16 {
        self.mem.read_u16(addr)
    }

    #[inline]
    fn read_u32(&self, addr: u32) -> u32 {
        self.mem.read_u32(addr)
    }

    #[inline]
    fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        self.mem.read_u32_checked(addr)
    }

    #[inline]
    fn write_u8(&mut self, addr: u32, value: u8) {
        self.mem.write_u8(addr, value)
    }

    #[inline]
    fn write_u16(&mut self, addr: u32, value: u16) {
        self.mem.write_u16(addr, value)
    }

    #[inline]
    fn write_u32(&mut self, addr: u32, value: u32) {
        self.mem.write_u32(addr, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A word request's response cycle, `None` when refused.
    fn start(
        m: &mut SharedMemory,
        tile: usize,
        now: u64,
        addr: u32,
        who: Requester,
    ) -> Option<u64> {
        m.request_burst_for(tile, now, addr, who, 1).data_at()
    }

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
            let want = a.map_or(MemIssue::Refused(MemRefusal::BankBusy), |data_at| {
                MemIssue::Granted { data_at, row: RowOutcome::Flat }
            });
            let got = shared.request_burst_for(0, now, addr, who, words);
            assert_eq!(got, want, "diverged at cycle {now}");
            assert_eq!(sram.next_event(now), shared.next_event_for(0, addr, now));
        }
        assert_eq!(sram.stats(), shared.stats_for(0));
        assert_eq!(shared.shared_stats().cross_tile_conflicts, 0);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        // Granule 8 words = 32 bytes: 0x00 -> bank 0, 0x20 -> bank 1.
        let mut m = SharedMemory::new(256, 4, 2, 2);
        assert_eq!(start(&mut m, 0, 0, 0x00, Requester::Cpu), Some(4));
        assert_eq!(start(&mut m, 1, 0, 0x20, Requester::Cpu), Some(4));
        // Same bank, other tile: cross-tile conflict.
        assert_eq!(
            m.request_burst_for(1, 1, 0x00, Requester::Hht, 1),
            MemIssue::Refused(MemRefusal::BankBusy)
        );
        // Same bank, same tile (its own in-flight txn): not cross-tile.
        assert_eq!(start(&mut m, 0, 1, 0x04, Requester::Hht), None);
        let s = m.shared_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.conflicts, 2);
        assert_eq!(s.cross_tile_conflicts, 1);
        assert_eq!(m.stats_for(0).conflicts, 1);
        assert_eq!(m.stats_for(1).conflicts, 1);
        // Bank-targeted hints.
        assert_eq!(m.next_event_for(0, 0x00, 1), Some(4));
        assert_eq!(m.next_event_for(1, 0x40, 1), Some(4)); // bank 0 again (wraps)
        assert_eq!(m.next_event_for(0, 0x20, 4), None);
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
        assert!(!m.multi_cycle());
    }

    #[test]
    fn skip_replay_matches_per_cycle_conflicts() {
        // Per-cycle: tile 1 retries a bank held by tile 0 for 3 cycles.
        let mut a = SharedMemory::new(64, 8, 1, 2);
        start(&mut a, 0, 0, 0x0, Requester::Hht);
        for c in 1..4 {
            assert_eq!(start(&mut a, 1, c, 0x4, Requester::Cpu), None);
        }
        // Bulk replay of the same span.
        let mut b = SharedMemory::new(64, 8, 1, 2);
        start(&mut b, 0, 0, 0x0, Requester::Hht);
        b.skip_conflicts_for(1, 1, 3, 0x4, Requester::Cpu);
        assert_eq!(a.stats_for(1), b.stats_for(1));
        assert_eq!(a.shared_stats(), b.shared_stats());
    }

    #[test]
    fn conflict_frac_counts_rejections() {
        let mut m = SharedMemory::new(64, 2, 1, 1);
        start(&mut m, 0, 0, 0, Requester::Cpu);
        start(&mut m, 0, 1, 0, Requester::Cpu);
        assert_eq!(m.shared_stats().conflict_frac(), 0.5);
    }
}
