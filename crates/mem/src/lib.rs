//! Cycle-level memory system model.
//!
//! The paper's Table 1 memory is "buffers and RAM" — a 1 MB on-chip SRAM
//! shared by the CPU core and the HHT, reached over an on-chip interconnect
//! (§3.2: "In the MCU integration, the BE issues requests to the on-chip
//! RAM via an on-chip interconnect"). This crate models:
//!
//! - [`Sram`] — the RAM: functional byte/word storage plus a single-ported
//!   timing model (`try_start` arbitration; whoever calls first in a cycle
//!   wins the port, and the system steps the CPU before the HHT so the CPU
//!   has priority). It builds every problem image and is the timing
//!   reference of the 1-tile differential tests.
//! - [`L1dCache`] — an optional set-associative cache for the paper's
//!   "high-performance processor integration" (§3.2), used in ablations.
//! - [`SharedMemory`] — the one fabric memory: the RAM shared by every
//!   tile over interleaved banks, flat by default or under DRAM-class
//!   timing ([`DramConfig`]: row-buffer hit/miss response latency, a
//!   per-tile bounded in-flight window (MLP ceiling) and a grants-per-cycle
//!   bandwidth budget). Each tile reaches it through a [`FabricPort`].
//! - [`MemoryPort`] — the calls the core and the HHT engines make on
//!   memory: split-transaction requests, skipped-refusal replay and
//!   functional storage.
//! - [`map`] — the physical address map (RAM, HHT MMRs, HHT buffer window).
//! - [`MmioDevice`] — the trait the HHT front-end implements to appear in
//!   the CPU's load/store space.

pub mod banked;
pub mod cache;
pub mod dram;
pub mod map;
pub mod mmio;
pub mod port;
pub mod sram;

pub use banked::{FabricPort, SharedMemStats, SharedMemory};
pub use cache::L1dCache;
pub use dram::DramConfig;
pub use mmio::{MmioDevice, MmioReadResult};
pub use port::{MemIssue, MemRefusal, MemoryPort, RowOutcome};
pub use sram::{Requester, Sram, SramStats};
