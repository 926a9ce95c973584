//! `hht-serve`: a persistent simulation service over the HHT fabric.
//!
//! Every other entry point in this repository is one-shot: build a
//! problem layout, construct a [`hht_system::fabric::Fabric`], simulate,
//! drop everything. This crate keeps a [`Service`] alive across requests
//! from many tenants and reuses work in the two ways that measurably pay
//! off against a naive cold loop:
//!
//! - **Replay tier** ([`cache`]) — whole run outputs memoized per
//!   `(kernel, matrix, operand)`, keyed by the stable content hashes from
//!   `hht_sparse::hash`. Because the simulator is bit-deterministic
//!   (pinned by the determinism suite), an exact repeat request is served
//!   by replaying the stored output — bit-identical to re-running it, at
//!   near-zero host cost.
//! - **Request batching** ([`batch`]) — small SpMV jobs in a wave are
//!   packed into one block-diagonal fabric pass and the per-job `y`
//!   demultiplexed afterwards; block-diagonal structure keeps every row's
//!   f32 summation order identical to its singleton run, so demuxed
//!   results are bit-identical per job.
//!
//! Everything else is simulated cold: each pass builds a fresh image and
//! fabric through the same `hht_system::runner` functions that
//! [`naive_run_stream`] calls. Image build and layout cost ~0.1 ms
//! against ~16.5 ms to simulate a 512² 4-tile job, so they are not cached
//! (DESIGN.md §4.14).
//!
//! Admission is **tenant-fair** ([`service`]): requests queue per tenant
//! and each scheduling wave admits at most one request per tenant in
//! round-robin order, so one tenant's burst cannot starve the others.
//! Waves dispatch over the persistent `hht-exec` worker pool.
//!
//! Throughput is measured by the `figures serve` driver into the committed
//! `BENCH_serve.json` ([`report`]): deterministic fields (simulated cycle
//! totals, replay and batch counts) are regression-gated in CI, host
//! jobs/sec is informational.

pub mod batch;
pub mod cache;
pub mod report;
pub mod request;
pub mod service;

pub use batch::SpmvBatch;
pub use cache::CacheKey;
pub use report::{percentile_us, ServeBenchReport, ServeConfigReport, SERVE_SCHEMA};
pub use request::{KernelKind, Operand, Request, Response, Served};
pub use service::{naive_run_stream, ServeStats, Service, ServiceConfig};
