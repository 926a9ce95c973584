//! The job path: [`run`] runs a [`Job`] on one tile, [`run_fabric`]
//! row-shards one of the HHT kernels across an N-tile [`Fabric`] (each
//! tile its own fault domain), and [`build_fabric`] builds that fabric
//! without running it.
//!
//! Every run builds the SRAM image, assembles the kernel, runs to
//! completion, reads back `y` and **verifies it against the golden
//! `hht-sparse` kernel** (exact to a small FP-reassociation tolerance). A
//! wrong result is a [`JobError`]: performance numbers from an incorrect
//! kernel are meaningless.
//!
//! With [`SystemConfig::recovery`] enabled, accelerated kernels degrade
//! gracefully instead: when the HHT is declared failed
//! ([`RunError::HhtFailed`]), the watchdog expires, or the accelerated
//! result diverges from golden, the kernel is re-run on its software
//! fallback (fault injection disabled) and the returned `y` is the
//! numerically correct fallback result. The failed attempt's cycles are
//! added to the total so the degradation is visible in the stats, and the
//! recovery is recorded in [`RunOutput::recovery`] and
//! `stats.faults.fallbacks`. The fabric driver retries and fails over per
//! tile first (see [`run_fabric`]).

use crate::config::SystemConfig;
use crate::fabric::{Fabric, FabricConfig, FabricStats, SchedStats, TileHealth, TileSchedStats};
use crate::job::{Job, JobError, Kernel};
use crate::layout;
use crate::system::{System, SystemStats};
use hht_mem::{SharedMemStats, SharedMemory};
use hht_sim::RunError;
use hht_sparse::{CsrMatrix, DenseVector, SparseFormat, SparseVector};

/// How an accelerated run recovered after a fault (see
/// [`RunOutput::recovery`]).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Human-readable description of what failed (the [`RunError`] or the
    /// golden-divergence that triggered the fallback).
    pub error: String,
    /// Fault domain (tile index) the failure was attributed to. Always 0 on
    /// the single-system path, where the whole machine is one domain.
    pub tile: usize,
    /// Statistics of the failed accelerated attempt (its cycles are also
    /// folded into the returned total).
    pub failed_stats: SystemStats,
}

/// Numeric result plus measured statistics of one kernel run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The computed output vector.
    pub y: DenseVector,
    /// Measured statistics.
    pub stats: SystemStats,
    /// Merged structured-event timeline (empty unless the configuration
    /// enables event tracing).
    pub events: Vec<hht_obs::Event>,
    /// `Some` when the recovery policy re-ran the kernel on the software
    /// path after an accelerated-run failure; `None` for a clean run.
    pub recovery: Option<RecoveryReport>,
    /// Host-side scheduler accounting (stepped vs skipped cycles). Not part
    /// of [`SystemStats`]: the split depends on the scheduler mode.
    pub sched: SchedStats,
    /// Ring-buffer eviction counters for the run's observability sinks
    /// (all zero when tracing is off); attach to the exported snapshot with
    /// [`crate::metrics::MetricsSnapshot::with_drops`].
    pub dropped: hht_obs::ObsDrops,
}

/// Read the host-side run accounting (scheduler counters and ring drops),
/// then drain the event streams — in that order: draining resets the rings.
pub(crate) fn drain(sys: &mut System) -> (SchedStats, hht_obs::ObsDrops, Vec<hht_obs::Event>) {
    let sched = sys.sched_stats();
    let dropped = sys.obs_drops();
    (sched, dropped, sys.take_events())
}

/// Tolerance for comparing simulated FP results with golden results: both
/// use f32 adds in the same per-row order, but vector strip-mining
/// reassociates partial sums.
const TOL: f32 = 1e-3;

/// Compare a simulated result with its golden vector element by element.
///
/// A non-finite element (NaN or ±Inf, on either side) passes only when it
/// is bitwise equal to its counterpart. Finite elements may differ by
/// `TOL * scale`, where `scale` is `max(1, max finite |golden|)`: an Inf in
/// the golden vector therefore never widens the tolerance of its
/// neighbours. Returns a description of the first failing element.
pub(crate) fn check_golden(y: &DenseVector, golden: &DenseVector) -> Result<(), String> {
    if y.len() != golden.len() {
        return Err(format!("{} elements, golden has {}", y.len(), golden.len()));
    }
    let gold = golden.as_slice();
    let scale = gold.iter().filter(|v| v.is_finite()).fold(1.0f32, |m, v| m.max(v.abs()));
    for (i, (&a, &b)) in y.as_slice().iter().zip(gold).enumerate() {
        if a.to_bits() == b.to_bits() {
            continue;
        }
        if !a.is_finite() || !b.is_finite() || (a - b).abs() > TOL * scale {
            return Err(format!("y[{i}] = {a:e}, golden {b:e} (scale {scale:e})"));
        }
    }
    Ok(())
}

#[cfg(test)]
fn matches_golden(y: &DenseVector, golden: &DenseVector) -> bool {
    check_golden(y, golden).is_ok()
}

/// Run `job` on one tile and verify it against golden.
///
/// Without [`SystemConfig::recovery`] (and always for the software
/// kernels) a fault or a divergence is an error. With it, an accelerated
/// kernel's HHT failure, watchdog expiry or corrupted result re-runs the
/// job at once on the kernel's software fallback. Guest faults unrelated to the
/// accelerator stay errors: those are kernel bugs, not injected hardware
/// faults.
pub fn run(cfg: &SystemConfig, job: &Job) -> Result<RunOutput, JobError> {
    let (sram, program, y_base) = job.image(cfg)?;
    let gold = job.golden()?;
    let what = job.kernel.name();
    let fallback = job.kernel.fallback().filter(|_| cfg.recovery);
    let mut sys = System::new(cfg, program, sram);
    if let Some(p) = &job.plan {
        sys.set_fault_plan(p.clone());
    }
    let (fallback, error, stats) = match (sys.run(), fallback) {
        (Ok(stats), fallback) => {
            let y = sys.read_output(y_base, job.matrix.rows());
            match (check_golden(&y, &gold), fallback) {
                (Ok(()), _) => {
                    let (sched, dropped, events) = drain(&mut sys);
                    return Ok(RunOutput { y, stats, events, recovery: None, sched, dropped });
                }
                (Err(detail), None) => return Err(JobError::Diverged { what, detail }),
                (Err(_), Some(fb)) => {
                    (fb, format!("{what}: accelerated result diverges from golden"), stats)
                }
            }
        }
        (Err(e @ (RunError::HhtFailed { .. } | RunError::Watchdog(_))), Some(fb)) => {
            (fb, e.to_string(), sys.stats())
        }
        (Err(error), _) => return Err(JobError::KernelFault { what, error }),
    };
    let (sched, dropped, events) = drain(&mut sys);
    let baseline = Job::new(fallback, job.matrix, job.operand);
    software_fallback(cfg, &baseline, error, stats, events, sched, dropped)
}

/// Re-run the job on its software fallback after a failed accelerated
/// attempt, folding the failed attempt's cost into the stats.
fn software_fallback(
    cfg: &SystemConfig,
    baseline: &Job,
    error: String,
    failed_stats: SystemStats,
    failed_events: Vec<hht_obs::Event>,
    failed_sched: SchedStats,
    failed_dropped: hht_obs::ObsDrops,
) -> Result<RunOutput, JobError> {
    let mut fb_cfg = *cfg;
    fb_cfg.fault.seed = 0; // the fallback run must not re-inject faults
    let mut out = run(&fb_cfg, baseline)?;
    out.sched.add(&failed_sched);
    out.dropped.add(&failed_dropped);
    out.stats.cycles += failed_stats.cycles;
    out.stats.faults.injected = failed_stats.faults.injected;
    out.stats.faults.dropped = failed_stats.faults.dropped;
    out.stats.faults.fallbacks = 1;
    out.stats.faults.failed_cycles = failed_stats.cycles;
    if cfg.trace.events {
        // Keep the failed attempt's timeline (where the injections and
        // detections live) plus one recovery marker; the fallback run's
        // own events would carry restarted cycle stamps, so they are
        // dropped rather than spliced in.
        let mut events = failed_events;
        events.push(hht_obs::Event {
            cycle: failed_stats.cycles,
            track: hht_obs::Track::Fault,
            kind: hht_obs::EventKind::Recovery { what: "software_fallback" },
        });
        out.events = events;
    }
    out.recovery = Some(RecoveryReport { error, tile: 0, failed_stats });
    Ok(out)
}

/// Numeric result plus measured statistics of one fabric run.
#[derive(Debug, Clone)]
pub struct FabricRunOutput {
    /// The computed output vector (the full problem, assembled from every
    /// tile's row block).
    pub y: DenseVector,
    /// Per-tile and shared-memory statistics.
    pub stats: FabricStats,
    /// One merged event timeline per tile (empty unless the configuration
    /// enables event tracing).
    pub tile_events: Vec<Vec<hht_obs::Event>>,
    /// Host-side scheduler accounting (stepped vs skipped cycles),
    /// fabric-wide.
    pub sched: SchedStats,
    /// Host-side per-tile scheduler accounting (queue pops, wake-bound
    /// probes, parked spans), indexed by tile.
    pub tile_sched: Vec<TileSchedStats>,
    /// Ring-buffer eviction counters summed over every tile's sinks.
    pub dropped: hht_obs::ObsDrops,
    /// The clock jumps the event-queue scheduler took (empty when tracing
    /// is off or the per-cycle scheduler ran); feed to
    /// [`hht_obs::chrome::chrome_trace_json_tiles_sched`].
    pub skip_spans: Vec<hht_obs::SkipSpan>,
    /// `Some` when the per-tile fault-domain recovery policy had to act
    /// (any tile failed an attempt, or the whole run fell back to
    /// software); `None` for a clean run.
    pub recovery: Option<FabricRecovery>,
}

/// One failover attempt of the fabric recovery driver (see
/// [`FabricRecovery::attempts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricAttempt {
    /// Wall cycles this attempt ran before completing or failing (retry
    /// backoff is accounted separately in
    /// [`FabricRecovery::backoff_cycles`]).
    pub wall: u64,
    /// Row-range assignment `(tile, (row0, row1))` per participating tile,
    /// in global (original) tile indices.
    pub shards: Vec<(usize, (usize, usize))>,
    /// Fault domains that failed this attempt (global tile index, rendered
    /// error); empty for a fully clean attempt.
    pub failed: Vec<(usize, String)>,
}

/// How the fabric recovery policy degraded a run across per-tile fault
/// domains (see [`FabricRunOutput::recovery`]).
///
/// Per-tile state machine: healthy → suspected (bounded exponential-backoff
/// retries, `tile_retries`/`tile_backoff`) → quarantined; fatal faults
/// ([`hht_fault::FaultKind::TileKill`]) quarantine immediately. A
/// quarantined tile's unfinished row shard is re-sharded (nnz-balanced)
/// across the surviving tiles and re-run; the whole-run software fallback
/// fires only when every tile is dead.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRecovery {
    /// Final health verdict per original tile.
    pub health: Vec<TileHealth>,
    /// Every attempt in order; `attempts[0]` is the original full-width run.
    pub attempts: Vec<FabricAttempt>,
    /// Wall cycle at which each tile was quarantined (`None` = never).
    pub quarantined_at: Vec<Option<u64>>,
    /// Total retry-backoff cycles charged to the wall clock (the max
    /// per-attempt backoff across that attempt's failing tiles).
    pub backoff_cycles: u64,
    /// `Some(reason)` when the whole run degraded to the software baseline:
    /// every tile quarantined, retry budget exhausted, or the assembled
    /// result diverged from golden.
    pub fallback: Option<String>,
    /// Cycles the software-fallback run added to the wall clock (0 without
    /// a whole-run fallback).
    pub fallback_cycles: u64,
}

impl FabricRecovery {
    /// Tiles never quarantined.
    pub fn survivors(&self) -> usize {
        self.health.iter().filter(|h| !h.is_quarantined()).count()
    }

    /// Global indices of the quarantined tiles.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&t| self.health[t].is_quarantined()).collect()
    }

    /// Per-tile quarantine spans (quarantine cycle to end of run) for the
    /// Chrome fault-domain lane
    /// ([`hht_obs::chrome::chrome_trace_json_tiles_fault_domains`]).
    pub fn domain_spans(&self, wall: u64) -> Vec<Vec<hht_obs::SkipSpan>> {
        self.quarantined_at
            .iter()
            .map(|q| match q {
                Some(c) => vec![hht_obs::SkipSpan { start: *c, end: wall.max(*c) }],
                None => Vec::new(),
            })
            .collect()
    }
}

/// Sum per-tile host scheduler counters across attempts. Exhaustive
/// destructuring: a new counter breaks this merge at compile time instead
/// of being silently dropped from multi-attempt totals.
fn add_tile_sched(acc: &mut TileSchedStats, s: &TileSchedStats) {
    let TileSchedStats { pops, probes, stepped_cycles, skipped_cycles, parks } = *s;
    acc.pops += pops;
    acc.probes += probes;
    acc.stepped_cycles += stepped_cycles;
    acc.skipped_cycles += skipped_cycles;
    acc.parks += parks;
}

/// Assign the pending row ranges to `s` surviving tiles. With at least as
/// many ranges as survivors, the first `s` ranges go out as-is (the rest
/// wait for the next attempt). With fewer, the `s` shard slots are
/// distributed across the ranges proportionally to their nnz (every range
/// gets at least one; leftovers go one at a time to the range with the most
/// nnz per slot, ties to the lowest index — fully deterministic) and each
/// range is nnz-balance split with [`layout::row_shards_range`]. Returns
/// the per-tile ranges plus how many pending ranges were consumed.
fn assign_shards(
    m: &CsrMatrix,
    pending: &[(usize, usize)],
    s: usize,
) -> (Vec<(usize, usize)>, usize) {
    if pending.len() >= s {
        return (pending[..s].to_vec(), s);
    }
    let ptr = m.row_ptr();
    let nnz = |r: &(usize, usize)| (ptr[r.1] - ptr[r.0]) as u64;
    let mut slots = vec![1usize; pending.len()];
    for _ in pending.len()..s {
        let mut best = 0usize;
        let mut best_load = -1.0f64;
        for (i, r) in pending.iter().enumerate() {
            let load = nnz(r) as f64 / slots[i] as f64;
            if load > best_load {
                best_load = load;
                best = i;
            }
        }
        slots[best] += 1;
    }
    let assigned = pending
        .iter()
        .zip(&slots)
        .flat_map(|(&(r0, r1), &k)| layout::row_shards_range(m, r0, r1, k))
        .collect();
    (assigned, pending.len())
}

/// Run one of the three HHT kernels (SpMV, SpMSpV v1/v2) row-sharded across
/// an N-tile fabric: build the full image plus per-shard row-pointer
/// copies, run one kernel per tile over the banked memory, and verify the
/// assembled result against golden.
///
/// Without `cfg.recovery` a tile fault or divergence is an error (the seed
/// behaviour). With it, each tile is its own fault domain: a failed tile is
/// retried with bounded exponential backoff and then quarantined, its
/// unfinished row shard re-sharded nnz-balanced across the surviving tiles
/// on a fresh image; N tiles degrade to N−1, …, down to the whole-run
/// software fallback only when every tile is quarantined (or the
/// assembled result diverges from golden). Clean tiles of a failed attempt
/// keep their finished row ranges — only unfinished work is re-run. Even a
/// one-tile fabric retries `tile_retries` times before it falls back,
/// where [`run`] falls back at once.
///
/// Stats: per-original-tile [`SystemStats`] accumulate across attempts; a
/// failed tile's stall counters are discarded (its partial work is thrown
/// away) but its elapsed cycles and backoff are charged to both `cycles`
/// and `faults.failed_cycles`, so CPI accounting stays exact. The wall
/// clock sums every attempt plus the max backoff per failed attempt. Event
/// timelines keep attempt 0 (where injections live) plus host-side
/// quarantine/failover markers; retries run untraced.
pub fn run_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    job: &Job,
) -> Result<FabricRunOutput, JobError> {
    let what = check_fabric(cfg, fab, job)?;
    let golden = job.golden()?;
    let m = job.matrix;
    let n0 = fab.tiles;
    let rows = m.rows();
    let mut health = vec![TileHealth::Healthy; n0];
    let mut quarantined_at: Vec<Option<u64>> = vec![None; n0];
    let mut acc: Vec<SystemStats> = vec![SystemStats::default(); n0];
    let mut mem_acc = SharedMemStats::default();
    let mut y = vec![0f32; rows];
    let mut wall = 0u64;
    let mut backoff_total = 0u64;
    let mut attempts: Vec<FabricAttempt> = Vec::new();
    let mut pending: Vec<(usize, usize)> = vec![(0, rows)];
    let mut sched = SchedStats::default();
    let mut tile_sched = vec![TileSchedStats::default(); n0];
    let mut dropped = hht_obs::ObsDrops::default();
    let mut tile_events: Vec<Vec<hht_obs::Event>> = vec![Vec::new(); n0];
    let mut skip_spans: Vec<hht_obs::SkipSpan> = Vec::new();
    let mut plan = job.plan.clone();
    let mut fallback_reason: Option<String> = None;
    let mut fallback_cycles = 0u64;
    // Retry-storm backstop: enough for every tile to burn its full retry
    // budget plus the quarantine cascade, with slack.
    let max_attempts = (cfg.tile_retries as usize + 2) * n0 + 2;

    let mut attempt = 0usize;
    loop {
        let survivors: Vec<usize> = (0..n0).filter(|&t| !health[t].is_quarantined()).collect();
        if survivors.is_empty() {
            fallback_reason = Some("every tile quarantined".into());
            break;
        }
        if attempts.len() >= max_attempts {
            fallback_reason = Some("retry budget exhausted".into());
            break;
        }
        let (assigned, taken) = assign_shards(m, &pending, survivors.len());
        let mut attempt_cfg = *cfg;
        if attempt > 0 {
            // Retries run clean and untraced: the injected campaign (and
            // its timeline) belongs to the original attempt.
            attempt_cfg.fault.seed = 0;
            attempt_cfg.trace.events = false;
        }
        // Fresh image per attempt: failover restarts shards from clean
        // state (a fault may have corrupted shared arrays), and the bump
        // allocator re-places the rebased row-pointer copies.
        let (mut fabric, y_base) = shard_fabric(&attempt_cfg, fab, job, &assigned)?;
        if attempt == 0 {
            if let Some(p) = plan.take() {
                fabric.set_fault_plan(p);
            }
        }
        let result = fabric.run();
        if let Err(error) = &result {
            if !cfg.recovery {
                return Err(JobError::FabricFault { what, error: error.clone() });
            }
        }
        let st = fabric.stats();
        wall += st.cycles;
        mem_acc.absorb(&st.mem);
        sched.add(&fabric.sched_stats());
        let attempt_tile_sched = fabric.tile_sched_stats();
        for (lt, &g) in survivors.iter().enumerate() {
            add_tile_sched(&mut tile_sched[g], &attempt_tile_sched[lt]);
        }
        dropped.add(&fabric.obs_drops());
        let spans = fabric.take_skip_spans();
        if attempt == 0 {
            skip_spans = spans;
            tile_events = fabric.take_all_events();
        }
        let failed: Vec<(usize, RunError)> = match &result {
            Ok(_) => Vec::new(),
            Err(e) => e.tiles.clone(),
        };
        let mut failed_named: Vec<(usize, String)> = Vec::new();
        let mut requeue: Vec<(usize, usize)> = Vec::new();
        let mut max_backoff = 0u64;
        for (lt, &g) in survivors.iter().enumerate() {
            let (r0, r1) = assigned[lt];
            if let Some((_, e)) = failed.iter().find(|&&(ft, _)| ft == lt) {
                // Failed domain: discard its partial counters, charge its
                // elapsed cycles as failed cycles, re-queue its range.
                let tc = st.tiles[lt].cycles;
                acc[g].cycles += tc;
                acc[g].faults.failed_cycles += tc;
                acc[g].faults.injected += st.tiles[lt].faults.injected;
                acc[g].faults.dropped += st.tiles[lt].faults.dropped;
                acc[g].faults.failovers += 1;
                failed_named.push((g, e.to_string()));
                if r1 > r0 {
                    requeue.push((r0, r1));
                }
                let prev_retries = match health[g] {
                    TileHealth::Suspected { retries } => retries,
                    _ => 0,
                };
                if fabric.tile_fatal(lt) || prev_retries + 1 > cfg.tile_retries {
                    health[g] = TileHealth::Quarantined;
                    quarantined_at[g] = Some(wall);
                } else {
                    let retries = prev_retries + 1;
                    health[g] = TileHealth::Suspected { retries };
                    let backoff = cfg.tile_backoff << (retries - 1);
                    acc[g].cycles += backoff;
                    acc[g].faults.failed_cycles += backoff;
                    max_backoff = max_backoff.max(backoff);
                }
                if cfg.trace.events {
                    tile_events[g].push(hht_obs::Event {
                        cycle: wall,
                        track: hht_obs::Track::Fault,
                        kind: hht_obs::EventKind::Failover { rows: (r1 - r0) as u32 },
                    });
                    if health[g].is_quarantined() {
                        tile_events[g].push(hht_obs::Event {
                            cycle: wall,
                            track: hht_obs::Track::Fault,
                            kind: hht_obs::EventKind::Quarantine { retries: prev_retries },
                        });
                    }
                }
            } else {
                // Clean domain: full stats absorb, salvage its row range —
                // finished work is never re-run.
                acc[g].absorb(&st.tiles[lt]);
                let out = fabric.read_output(y_base + 4 * r0 as u32, r1 - r0);
                y[r0..r1].copy_from_slice(out.as_slice());
            }
        }
        wall += max_backoff;
        backoff_total += max_backoff;
        attempts.push(FabricAttempt {
            wall: st.cycles,
            shards: survivors.iter().copied().zip(assigned.iter().copied()).collect(),
            failed: failed_named,
        });
        let mut next: Vec<(usize, usize)> = pending[taken..].to_vec();
        next.extend(requeue);
        pending = next;
        if pending.is_empty() {
            break;
        }
        attempt += 1;
    }

    let mut yv = DenseVector::from(y);
    if fallback_reason.is_none() {
        if let Err(detail) = check_golden(&yv, &golden) {
            if !cfg.recovery {
                return Err(JobError::Diverged { what, detail });
            }
            fallback_reason = Some(format!("{what}: assembled result diverges from golden"));
        }
    }
    if fallback_reason.is_some() {
        // Whole-run degradation: re-run on the baseline software path
        // (fault injection off), exactly like the single-system policy.
        let mut fb_cfg = *cfg;
        fb_cfg.fault.seed = 0;
        let fallback = job.kernel.fallback().expect("shardable kernels have a fallback");
        let base = run(&fb_cfg, &Job::new(fallback, job.matrix, job.operand))?;
        yv = base.y;
        wall += base.stats.cycles;
        fallback_cycles = base.stats.cycles;
        acc[0].faults.fallbacks = 1;
        if cfg.trace.events {
            tile_events[0].push(hht_obs::Event {
                cycle: wall,
                track: hht_obs::Track::Fault,
                kind: hht_obs::EventKind::Recovery { what: "software_fallback" },
            });
        }
    }

    let recovered = fallback_reason.is_some() || attempts.iter().any(|a| !a.failed.is_empty());
    Ok(FabricRunOutput {
        y: yv,
        stats: FabricStats { cycles: wall, tiles: acc, mem: mem_acc },
        tile_events,
        sched,
        tile_sched,
        dropped,
        skip_spans,
        recovery: recovered.then_some(FabricRecovery {
            health,
            attempts,
            quarantined_at,
            backoff_cycles: backoff_total,
            fallback: fallback_reason,
            fallback_cycles,
        }),
    })
}

/// Extra image words for `fab.tiles` shards' rebased row-pointer copies
/// (plus per-array alignment slack).
fn shard_words(fab: FabricConfig, m: &CsrMatrix) -> usize {
    fab.tiles.saturating_mul(m.rows() + 1 + 8)
}

/// Validate a fabric job before anything is built or allocated; returns
/// the fabric kernel's label.
fn check_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    job: &Job,
) -> Result<&'static str, JobError> {
    let what = job.kernel.fabric_name().ok_or(JobError::NotShardable(job.kernel))?;
    if fab.tiles == 0 {
        return Err(JobError::NoTiles);
    }
    if fab.banks == 0 {
        return Err(JobError::NoBanks);
    }
    job.sram_size(cfg, shard_words(fab, job.matrix))?;
    Ok(what)
}

/// Build the fabric for one attempt: the full image with room for
/// `fab.tiles` shards' row-pointer copies, one kernel per entry of
/// `shards`, and the banked memory over `shards.len()` tiles. Returns the
/// fabric plus the output vector's base address.
fn shard_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    job: &Job,
    shards: &[(usize, usize)],
) -> Result<(Fabric, u32), JobError> {
    let m = job.matrix;
    let (mut sram, full) = job.layout(cfg, shard_words(fab, m))?;
    let layouts = layout::shard_layouts(&mut sram, &full, m, shards);
    let programs = layouts.iter().map(|l| job.emit(cfg, l)).collect();
    let tiles = shards.len();
    let mem = SharedMemory::from_sram(sram, fab.banks, tiles);
    Ok((Fabric::new(cfg, FabricConfig { tiles, ..fab }, programs, mem), full.y_base))
}

/// Build (but do not run) the fabric [`run_fabric`] would drive for `job`:
/// the full problem image, nnz-balanced row shards, one kernel per tile,
/// the banked shared memory and the job's fault plan. The determinism
/// suite uses this to step the fabric manually as a per-cycle oracle and
/// to run differential schedulers over identical images without the
/// golden check. Returns the fabric plus the output vector's base address.
pub fn build_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    job: &Job,
) -> Result<(Fabric, u32), JobError> {
    check_fabric(cfg, fab, job)?;
    let (mut fabric, y_base) =
        shard_fabric(cfg, fab, job, &layout::row_shards(job.matrix, fab.tiles))?;
    if let Some(p) = &job.plan {
        fabric.set_fault_plan(p.clone());
    }
    Ok((fabric, y_base))
}

// The frozen benchmark adapter's surface: one-line delegations.

/// Run baseline SpMV: [`run`] on [`Kernel::SpmvBaseline`], panicking on error.
#[deprecated(note = "frozen perfbench surface; use runner::run / build_fabric")]
pub fn run_spmv_baseline(cfg: &SystemConfig, m: &CsrMatrix, v: &DenseVector) -> RunOutput {
    run(cfg, &Job::new(Kernel::SpmvBaseline, m, v)).unwrap_or_else(|e| panic!("{e}"))
}

/// Run HHT-assisted SpMV: [`run`] on [`Kernel::SpmvHht`], panicking on error.
#[deprecated(note = "frozen perfbench surface; use runner::run / build_fabric")]
pub fn run_spmv_hht(cfg: &SystemConfig, m: &CsrMatrix, v: &DenseVector) -> RunOutput {
    run(cfg, &Job::new(Kernel::SpmvHht, m, v)).unwrap_or_else(|e| panic!("{e}"))
}

/// Run baseline SpMSpV: [`run`] on [`Kernel::SpmspvBaseline`], panicking on error.
#[deprecated(note = "frozen perfbench surface; use runner::run / build_fabric")]
pub fn run_spmspv_baseline(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    run(cfg, &Job::new(Kernel::SpmspvBaseline, m, x)).unwrap_or_else(|e| panic!("{e}"))
}

/// Run HHT SpMSpV variant 1: [`run`] on [`Kernel::SpmspvHhtV1`], panicking on error.
#[deprecated(note = "frozen perfbench surface; use runner::run / build_fabric")]
pub fn run_spmspv_hht_v1(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    run(cfg, &Job::new(Kernel::SpmspvHhtV1, m, x)).unwrap_or_else(|e| panic!("{e}"))
}

/// Run HHT SpMSpV variant 2: [`run`] on [`Kernel::SpmspvHhtV2`], panicking on error.
#[deprecated(note = "frozen perfbench surface; use runner::run / build_fabric")]
pub fn run_spmspv_hht_v2(cfg: &SystemConfig, m: &CsrMatrix, x: &SparseVector) -> RunOutput {
    run(cfg, &Job::new(Kernel::SpmspvHhtV2, m, x)).unwrap_or_else(|e| panic!("{e}"))
}

/// Build the SpMV fabric: [`build_fabric`] on [`Kernel::SpmvHht`], panicking on error.
#[deprecated(note = "frozen perfbench surface; use runner::run / build_fabric")]
pub fn build_spmv_fabric(
    cfg: &SystemConfig,
    fab: FabricConfig,
    m: &CsrMatrix,
    v: &DenseVector,
) -> (Fabric, u32) {
    build_fabric(cfg, fab, &Job::new(Kernel::SpmvHht, m, v)).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Operand;
    use hht_sparse::generate;
    use proptest::prelude::*;

    #[test]
    fn golden_check_rejects_nan_and_is_not_widened_by_inf() {
        let v = |xs: &[f32]| DenseVector::from(xs.to_vec());
        // A NaN result never passes against a finite golden value.
        assert!(!matches_golden(&v(&[f32::NAN, 2.0]), &v(&[1.0, 2.0])));
        // One Inf in the golden vector leaves the finite elements' scale
        // at max(1, max finite |golden|) = 2, so a wrong neighbour fails.
        assert!(!matches_golden(&v(&[f32::INFINITY, 9.0]), &v(&[f32::INFINITY, 2.0])));
        assert!(matches_golden(&v(&[f32::INFINITY, 2.001]), &v(&[f32::INFINITY, 2.0])));
        // Infinities must match exactly, sign included.
        assert!(!matches_golden(&v(&[f32::NEG_INFINITY]), &v(&[f32::INFINITY])));
        assert!(!matches_golden(&v(&[f32::MAX]), &v(&[f32::INFINITY])));
    }

    /// One non-finite or subnormal value to plant into a vector.
    fn special() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            (1u32..0x007f_ffff).prop_map(f32::from_bits),
            (1u32..0x007f_ffff).prop_map(|b| -f32::from_bits(b)),
        ]
    }

    proptest! {
        /// Plant NaN, ±Inf and subnormal values into either side (or both
        /// sides) of a near-equal pair. Comparing a vector with itself
        /// always passes; a non-finite element passes only against its own
        /// bit pattern; `max_abs_diff` is never NaN; only finite golden
        /// values set the tolerance scale; and on all-finite data the
        /// verdict is the plain `max |y - golden| <= TOL * max(1, max
        /// |golden|)`.
        #[test]
        fn golden_check_handles_special_values(
            base in proptest::collection::vec(-4_000i32..4_000, 1..12),
            noise in proptest::collection::vec(-4_000i32..4_000, 12),
            plants in proptest::collection::vec((0usize..12, 0u8..3, special()), 0..4),
        ) {
            // Golden values in ±4, results off by up to ±4e-3: both sides of
            // the 1e-3 relative tolerance occur.
            let mut gold: Vec<f32> = base.iter().map(|&b| b as f32 / 1e3).collect();
            let mut y: Vec<f32> =
                gold.iter().zip(&noise).map(|(g, &n)| g + n as f32 / 1e6).collect();
            for &(i, side, x) in &plants {
                let i = i % y.len();
                match side {
                    0 => y[i] = x,
                    1 => gold[i] = x,
                    _ => {
                        y[i] = x;
                        gold[i] = x;
                    }
                }
            }
            let (yv, gv) = (DenseVector::from(y.clone()), DenseVector::from(gold.clone()));
            prop_assert!(matches_golden(&gv, &gv));
            prop_assert!(matches_golden(&yv, &yv));
            prop_assert_eq!(gv.max_abs_diff(&gv), 0.0);
            let diff = yv.max_abs_diff(&gv);
            prop_assert!(!diff.is_nan());
            let mismatched_special = y
                .iter()
                .zip(&gold)
                .any(|(a, b)| a.to_bits() != b.to_bits() && !(a.is_finite() && b.is_finite()));
            if mismatched_special {
                prop_assert!(!matches_golden(&yv, &gv));
                prop_assert_eq!(diff, f32::INFINITY);
            }
            let finite_scale =
                gold.iter().filter(|v| v.is_finite()).fold(1.0f32, |m, v| m.max(v.abs()));
            let expected = y.iter().zip(&gold).all(|(a, b)| {
                a.to_bits() == b.to_bits()
                    || (a.is_finite() && b.is_finite() && (a - b).abs() <= TOL * finite_scale)
            });
            prop_assert_eq!(matches_golden(&yv, &gv), expected);
            if y.iter().chain(&gold).all(|v| v.is_finite()) {
                let scale = gold.iter().fold(1.0f32, |m, v| m.max(v.abs()));
                prop_assert_eq!(matches_golden(&yv, &gv), diff <= TOL * scale);
            }
        }
    }

    /// Run a job that must succeed.
    fn ok<'a>(
        cfg: &SystemConfig,
        kernel: Kernel,
        m: &'a CsrMatrix,
        x: impl Into<Operand<'a>>,
    ) -> RunOutput {
        run(cfg, &Job::new(kernel, m, x)).unwrap()
    }

    #[test]
    fn spmv_baseline_and_hht_agree_with_golden() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(24, 24, 0.6, 11);
        let v = generate::random_dense_vector(24, 12);
        let base = ok(&cfg, Kernel::SpmvBaseline, &m, &v);
        let hht = ok(&cfg, Kernel::SpmvHht, &m, &v);
        // Both verified against golden inside the runner; also: HHT must
        // be faster.
        assert!(
            hht.stats.cycles < base.stats.cycles,
            "HHT ({}) not faster than baseline ({})",
            hht.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn spmv_scalar_interface() {
        let cfg = SystemConfig::paper_default().with_vlen(1);
        let m = generate::random_csr(16, 16, 0.5, 21);
        let v = generate::random_dense_vector(16, 22);
        let base = ok(&cfg, Kernel::SpmvBaseline, &m, &v);
        let hht = ok(&cfg, Kernel::SpmvHht, &m, &v);
        assert!(hht.stats.cycles < base.stats.cycles);
    }

    #[test]
    fn spmspv_all_three_kernels_agree() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(24, 24, 0.7, 31);
        let x = generate::random_sparse_vector(24, 0.7, 32);
        let base = ok(&cfg, Kernel::SpmspvBaseline, &m, &x);
        let v1 = ok(&cfg, Kernel::SpmspvHhtV1, &m, &x);
        let v2 = ok(&cfg, Kernel::SpmspvHhtV2, &m, &x);
        assert!(v1.y.max_abs_diff(&base.y) < 1e-3);
        assert!(v2.y.max_abs_diff(&base.y) < 1e-3);
    }

    #[test]
    fn smash_run_matches_golden() {
        let cfg = SystemConfig::paper_default();
        let csr = generate::random_csr(32, 32, 0.8, 41);
        let v = generate::random_dense_vector(32, 42);
        let out = ok(&cfg, Kernel::SmashSpmvHht, &csr, &v);
        assert!(out.stats.cycles > 0);
    }

    #[test]
    fn fabric_spmv_matches_golden_across_tile_counts() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(48, 48, 0.6, 61);
        let v = generate::random_dense_vector(48, 62);
        let job = Job::new(Kernel::SpmvHht, &m, &v);
        let single = run_fabric(&cfg, FabricConfig::single(), &job).unwrap();
        for n in [2, 4] {
            let out = run_fabric(&cfg, FabricConfig::scaled(n), &job).unwrap();
            assert_eq!(out.stats.tiles.len(), n);
            assert!(out.y.max_abs_diff(&single.y) < 1e-3);
        }
    }

    #[test]
    fn fabric_spmspv_variants_match_golden() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(32, 32, 0.7, 71);
        let x = generate::random_sparse_vector(32, 0.7, 72);
        // Verified against golden inside the runner.
        let fab = FabricConfig::scaled(2);
        let v1 = run_fabric(&cfg, fab, &Job::new(Kernel::SpmspvHhtV1, &m, &x)).unwrap();
        let v2 = run_fabric(&cfg, fab, &Job::new(Kernel::SpmspvHhtV2, &m, &x)).unwrap();
        assert!(v1.y.max_abs_diff(&v2.y) < 1e-3);
    }

    #[test]
    fn empty_matrix_runs() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(8, 8, 1.0, 51);
        let v = generate::random_dense_vector(8, 52);
        let base = ok(&cfg, Kernel::SpmvBaseline, &m, &v);
        assert!(base.y.as_slice().iter().all(|x| *x == 0.0));
        let hht = ok(&cfg, Kernel::SpmvHht, &m, &v);
        assert!(hht.y.as_slice().iter().all(|x| *x == 0.0));
    }

    /// One malformed or failing job per [`JobError`] variant: each comes
    /// back as that error, with its message, instead of a panic.
    #[test]
    fn every_job_error_variant_is_returned() {
        use hht_fault::{FaultEvent, FaultKind, FaultPlan};
        use hht_mem::DramConfig;
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(16, 16, 0.5, 81);
        let v = generate::random_dense_vector(16, 82);
        let short = generate::random_dense_vector(12, 83);
        let x = generate::random_sparse_vector(16, 0.5, 84);
        // An empty 40k x 40k matrix: its dense expansion needs 6.4 GB.
        let wide = CsrMatrix::from_raw(40_000, 40_000, vec![0; 40_001], vec![], vec![]).unwrap();
        let wide_v = DenseVector::zeros(40_000);
        let spmv = Job::new(Kernel::SpmvHht, &m, &v);
        let fab = FabricConfig::scaled(2);
        let mut stuck = cfg;
        stuck.core.max_cycles = 50_000;
        let sticky = FaultPlan::new(vec![FaultEvent::new(200, FaultKind::MmrStickyError)]);
        let kill = FaultPlan::new(vec![FaultEvent::on_tile(50, FaultKind::TileKill, 0)]);
        let (_, l) = spmv.layout(&cfg, 0).unwrap();
        let flip = FaultPlan::new(vec![FaultEvent::new(
            1,
            FaultKind::SramBitFlip { addr: l.v_base, bit: 30 },
        )]);
        let cases: Vec<(Result<(), JobError>, &str)> = vec![
            (
                run(&cfg, &Job::new(Kernel::SpmvHht, &m, &x)).map(drop),
                "spmv_hht takes a dense operand, got a sparse one",
            ),
            (
                run(&cfg, &Job::new(Kernel::SpmvBaseline, &m, &short)).map(drop),
                "spmv_baseline: operand has 12 elements, matrix has 16 columns",
            ),
            (
                run_fabric(&cfg, fab, &Job::new(Kernel::DenseMatvec, &m, &v)).map(drop),
                "dense_matvec has no row-sharded fabric form",
            ),
            (run_fabric(&cfg, FabricConfig::scaled(0), &spmv).map(drop), "fabric has no tiles"),
            (
                run_fabric(&cfg, FabricConfig { banks: 0, ..fab }, &spmv).map(drop),
                "fabric has no memory banks",
            ),
            (
                run(&cfg, &Job::new(Kernel::DenseMatvec, &wide, &wide_v)).map(drop),
                "past the 32-bit address space",
            ),
            (run(&cfg.with_ram_word_cycles(0), &spmv).map(drop), "memory words take 0 cycles"),
            (
                run_fabric(
                    &cfg.with_dram(DramConfig { row_words: 0, ..DramConfig::flat() }),
                    fab,
                    &spmv,
                )
                .map(drop),
                "DRAM rows hold 0 words",
            ),
            (
                run(&stuck, &spmv.clone().with_plan(sticky)).map(drop),
                "spmv_hht kernel fault: watchdog",
            ),
            (
                run_fabric(&cfg, fab, &spmv.clone().with_plan(kill)).map(drop),
                "spmv_fabric: fabric run failed",
            ),
            (
                run(&cfg, &spmv.clone().with_plan(flip)).map(drop),
                "spmv_hht: simulated result diverges from golden: y[",
            ),
        ];
        let mut variants = std::collections::HashSet::new();
        for (result, text) in cases {
            let e = result.expect_err(text);
            assert!(e.to_string().contains(text), "{e} does not contain {text:?}");
            variants.insert(std::mem::discriminant(&e));
        }
        assert_eq!(variants.len(), 11, "one case per JobError variant");
    }

    /// The frozen benchmark wrappers are bit-identical to the job calls
    /// they delegate to.
    #[test]
    #[allow(deprecated)]
    fn frozen_wrappers_match_the_job_path() {
        let cfg = SystemConfig::paper_default();
        let m = generate::random_csr(24, 24, 0.6, 91);
        let v = generate::random_dense_vector(24, 92);
        let x = generate::random_sparse_vector(24, 0.6, 93);
        let same = |a: RunOutput, b: RunOutput| {
            assert_eq!(a.y, b.y);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.sched, b.sched);
        };
        same(run_spmv_baseline(&cfg, &m, &v), ok(&cfg, Kernel::SpmvBaseline, &m, &v));
        same(run_spmv_hht(&cfg, &m, &v), ok(&cfg, Kernel::SpmvHht, &m, &v));
        same(run_spmspv_baseline(&cfg, &m, &x), ok(&cfg, Kernel::SpmspvBaseline, &m, &x));
        same(run_spmspv_hht_v1(&cfg, &m, &x), ok(&cfg, Kernel::SpmspvHhtV1, &m, &x));
        same(run_spmspv_hht_v2(&cfg, &m, &x), ok(&cfg, Kernel::SpmspvHhtV2, &m, &x));
        let fab = FabricConfig::scaled(4);
        let (mut a, ya) = build_spmv_fabric(&cfg, fab, &m, &v);
        let (mut b, yb) = build_fabric(&cfg, fab, &Job::new(Kernel::SpmvHht, &m, &v)).unwrap();
        assert_eq!(ya, yb);
        assert_eq!(a.run().unwrap(), b.run().unwrap());
        assert_eq!(a.sched_stats(), b.sched_stats());
        assert_eq!(a.read_output(ya, 24), b.read_output(yb, 24));
    }
}
