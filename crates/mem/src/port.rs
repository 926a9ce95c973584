//! The typed memory-port interface between cycle-domain components and
//! whatever memory implementation backs them.
//!
//! The core and the HHT engines speak [`MemoryPort`], so the same
//! component code runs against the single-ported [`Sram`](crate::Sram) (the
//! paper's one-core-one-HHT configuration, kept as the test reference) or
//! against one tile's [`FabricPort`](crate::FabricPort) view of the
//! [`SharedMemory`](crate::SharedMemory) (the N-tile fabric).
//!
//! The trait has exactly the calls components make:
//!
//! - *timed* access ([`MemoryPort::request`]/[`MemoryPort::request_burst`])
//!   issues a split-transaction request — refused requests are retried
//!   next cycle — and [`MemoryPort::skip_conflicts`] replays the refusals
//!   of a span the scheduler skipped;
//! - *functional* access (`read_u32`, `write_u32`, …) is untimed and used
//!   by agents that already won the port for the current transaction.
//!
//! Wake bounds are not on the trait: the fabric asks its memory directly
//! ([`SharedMemory::next_event_for`](crate::SharedMemory::next_event_for)).

use crate::sram::Requester;

/// Why a split-transaction request was refused this cycle (see
/// [`MemoryPort::request`]). The caller retries next cycle in every case;
/// the distinction is what the retry is waiting *for*, which the scheduler
/// uses to pick a sound park bound and the profiler uses to attribute the
/// stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRefusal {
    /// The bank serving the address is occupied by an earlier transaction.
    BankBusy,
    /// The requesting tile's bounded in-flight window is full (Little's-law
    /// MLP ceiling): no new transaction may issue until a response retires.
    WindowFull,
    /// The memory's cycle-wide grant budget is spent (bandwidth limit);
    /// the bank itself is free, so a retry next cycle usually wins.
    BandwidthExhausted,
}

/// Row-buffer outcome of a granted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The backend models no row buffer (flat SRAM-class timing).
    Flat,
    /// The access hit the bank's open row.
    Hit,
    /// The access opened a new row (precharge + activate charged).
    Miss,
}

/// Result of a split-transaction request issue (see [`MemoryPort::request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssue {
    /// The request was accepted; its response (data / write commit) is
    /// ready at `data_at`. Responses are delivered at that fixed cycle,
    /// never reordered and never retracted.
    Granted {
        /// Cycle the response arrives.
        data_at: u64,
        /// Row-buffer outcome (always [`RowOutcome::Flat`] on SRAM-class
        /// backends).
        row: RowOutcome,
    },
    /// The request was not accepted this cycle; retry next cycle.
    Refused(MemRefusal),
}

impl MemIssue {
    /// The response-ready cycle of a granted issue, `None` when refused.
    pub fn data_at(self) -> Option<u64> {
        match self {
            MemIssue::Granted { data_at, .. } => Some(data_at),
            MemIssue::Refused(_) => None,
        }
    }
}

/// A component-facing memory port: timed requests plus functional storage
/// access. Implemented by [`Sram`](crate::Sram) (single shared port) and
/// [`FabricPort`](crate::FabricPort) (one tile's view of the shared memory).
pub trait MemoryPort {
    // ---- timed requests ----

    /// Issue a word request to `addr` at cycle `now`. Call order within a
    /// cycle is the arbitration order. On grant the port queues a response
    /// for `data_at` and the requestor is free to do other work until
    /// then; on refusal the caller retries next cycle (the refusal kind
    /// says what the retry waits for).
    fn request(&mut self, now: u64, addr: u32, who: Requester) -> MemIssue;

    /// Issue a burst request of `words` consecutive words starting at
    /// `addr` (an L1D line fill) — the burst counterpart of
    /// [`MemoryPort::request`], one transaction regardless of `words`.
    fn request_burst(&mut self, now: u64, addr: u32, who: Requester, words: u64) -> MemIssue;

    /// Replay `span` skipped refusals of requests by `who` to `addr`, one
    /// per cycle starting at `now` — the per-requestor bulk-replay hook the
    /// event-queue scheduler uses so conflict counters and per-cycle
    /// conflict events stay bit-identical to the per-cycle loop. The
    /// single-ported SRAM ignores `addr`.
    fn skip_conflicts(&mut self, now: u64, span: u64, addr: u32, who: Requester);

    // ---- functional storage ----

    /// Size in bytes.
    fn size(&self) -> u32;

    /// Cycles one word access occupies the port.
    fn word_cycles(&self) -> u64;

    /// Read one byte.
    fn read_u8(&self, addr: u32) -> u8;

    /// Read a little-endian 16-bit halfword.
    fn read_u16(&self, addr: u32) -> u16;

    /// Read a little-endian 32-bit word (panics out of range — a simulator
    /// wiring bug, not a guest condition).
    fn read_u32(&self, addr: u32) -> u32;

    /// Read a little-endian 32-bit word, or `None` when any byte falls
    /// outside the array (guest-programmed agents read open-bus instead of
    /// crashing the simulator).
    fn read_u32_checked(&self, addr: u32) -> Option<u32>;

    /// Write one byte.
    fn write_u8(&mut self, addr: u32, value: u8);

    /// Write a little-endian 16-bit halfword.
    fn write_u16(&mut self, addr: u32, value: u16);

    /// Write a little-endian 32-bit word.
    fn write_u32(&mut self, addr: u32, value: u32);

    /// Read an `f32` (bit pattern of the word at `addr`).
    fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Write an `f32`.
    fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copy a `u32` slice into memory starting at `addr`.
    fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * i as u32, *w);
        }
    }

    /// Copy an `f32` slice into memory starting at `addr`.
    fn load_f32s(&mut self, addr: u32, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u32, *v);
        }
    }

    /// Read `n` consecutive `f32`s starting at `addr`.
    fn read_f32s(&self, addr: u32, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u32)).collect()
    }

    /// Read `n` consecutive `u32`s starting at `addr`.
    fn read_u32s(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u32)).collect()
    }
}

/// An [`Sram`](crate::Sram) grant as a flat split-transaction issue: the
/// response lands at the grant's completion cycle, a busy port refuses.
fn flat_issue(done_at: Option<u64>) -> MemIssue {
    match done_at {
        Some(data_at) => MemIssue::Granted { data_at, row: RowOutcome::Flat },
        None => MemIssue::Refused(MemRefusal::BankBusy),
    }
}

impl MemoryPort for crate::Sram {
    fn request(&mut self, now: u64, _addr: u32, who: Requester) -> MemIssue {
        flat_issue(crate::Sram::try_start(self, now, who))
    }

    fn request_burst(&mut self, now: u64, _addr: u32, who: Requester, words: u64) -> MemIssue {
        flat_issue(crate::Sram::try_start_burst(self, now, who, words))
    }

    /// `Sram` has exactly one port, so every address maps to the same
    /// arbitration domain and the bank-exactness `addr` exists for is
    /// vacuous: a replayed loss is charged to the same port (and emits the
    /// same events) no matter which address the retries targeted. Banked
    /// and DRAM-class backends must not discard it — they route the span to
    /// the bank serving `addr` (see `SharedMemory::skip_conflicts_for`).
    /// `sram_skip_replay_is_addr_independent` pins this equivalence.
    fn skip_conflicts(&mut self, now: u64, span: u64, _addr: u32, who: Requester) {
        crate::Sram::skip_conflicts(self, now, span, who)
    }

    fn size(&self) -> u32 {
        crate::Sram::size(self)
    }

    fn word_cycles(&self) -> u64 {
        crate::Sram::word_cycles(self)
    }

    fn read_u8(&self, addr: u32) -> u8 {
        crate::Sram::read_u8(self, addr)
    }

    fn read_u16(&self, addr: u32) -> u16 {
        crate::Sram::read_u16(self, addr)
    }

    fn read_u32(&self, addr: u32) -> u32 {
        crate::Sram::read_u32(self, addr)
    }

    fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        crate::Sram::read_u32_checked(self, addr)
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        crate::Sram::write_u8(self, addr, value)
    }

    fn write_u16(&mut self, addr: u32, value: u16) {
        crate::Sram::write_u16(self, addr, value)
    }

    fn write_u32(&mut self, addr: u32, value: u32) {
        crate::Sram::write_u32(self, addr, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sram;

    /// The trait impl on `Sram` forwards to the inherent methods, so a
    /// component holding `&mut dyn MemoryPort` sees the exact single-port
    /// timing model: grants become flat responses at the grant's
    /// completion cycle, a busy port refuses with `BankBusy`.
    #[test]
    fn sram_through_the_trait_is_the_sram() {
        let mut sram = Sram::new(64, 2);
        let port: &mut dyn MemoryPort = &mut sram;
        let issue = port.request(0, 0, Requester::Cpu);
        assert_eq!(issue, MemIssue::Granted { data_at: 2, row: RowOutcome::Flat });
        assert_eq!(issue.data_at(), Some(2));
        let refused = port.request(1, 4, Requester::Hht);
        assert_eq!(refused, MemIssue::Refused(MemRefusal::BankBusy));
        assert_eq!(refused.data_at(), None);
        assert_eq!(port.request_burst(2, 0, Requester::Cpu, 8).data_at(), Some(11));
        port.write_u32(8, 0xABCD_EF01);
        assert_eq!(port.read_u32(8), 0xABCD_EF01);
        assert_eq!(port.read_u16(8), 0xEF01);
        assert_eq!(port.read_u8(11), 0xAB);
        assert_eq!(port.read_u32_checked(64), None);
        port.write_f32(12, 2.5);
        assert_eq!(port.read_f32(12), 2.5);
        assert_eq!(port.size(), 64);
        assert_eq!(port.word_cycles(), 2);
        port.skip_conflicts(11, 3, 0, Requester::Hht);
        assert_eq!(sram.stats().cpu_accesses, 9);
        assert_eq!(sram.stats().conflicts, 4);
    }

    /// Regression for the discarded `addr` in `Sram`'s `skip_conflicts`:
    /// with a single port there is one arbitration domain, so a bulk
    /// replay must equal the per-cycle retries whatever addresses those
    /// retries used — counters and event-free state alike.
    #[test]
    fn sram_skip_replay_is_addr_independent() {
        // Per-cycle oracle: retries against three *different* addresses.
        let mut a = Sram::new(64, 8);
        a.try_start(0, Requester::Hht);
        for (c, addr) in [(1u64, 0x00u32), (2, 0x14), (3, 0x3c)] {
            let p: &mut dyn MemoryPort = &mut a;
            assert_eq!(p.request(c, addr, Requester::Cpu), MemIssue::Refused(MemRefusal::BankBusy));
        }
        // Bulk replay of the same span via the trait, at yet another addr.
        let mut b = Sram::new(64, 8);
        b.try_start(0, Requester::Hht);
        {
            let p: &mut dyn MemoryPort = &mut b;
            p.skip_conflicts(1, 3, 0x28, Requester::Cpu);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.free_at(), b.free_at());
    }
}
