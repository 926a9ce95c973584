//! The only file that calls into the simulator. Everything it hands back
//! is benchmark-owned plain data (`Vec<f32>`, counters), so an API change
//! in the simulator crates is absorbed here and nowhere else.

use hht_mem::DramConfig;
use hht_prof::CpiStack;
use hht_serve::{Request, Served, Service, ServiceConfig};
use hht_sparse::{generate, kernels, CsrMatrix, DenseVector, SparseFormat, SparseVector};
use hht_system::fabric::{Fabric, FabricConfig, FabricStats};
use hht_system::runner;
use hht_system::system::SystemStats;
use hht_system::SystemConfig;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The modelled machine a run uses. Fault injection is off in both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// Table 1 of the paper: 1-cycle SRAM.
    PaperSram,
    /// The same core and HHT behind the calibrated 300 ns-class DRAM.
    Dram300ns,
}

impl Machine {
    fn config(self) -> SystemConfig {
        match self {
            Machine::PaperSram => SystemConfig::paper_default(),
            Machine::Dram300ns => SystemConfig::paper_default().with_dram(DramConfig::slow_300ns()),
        }
    }
}

/// One single-tile kernel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    SpmvBaseline,
    SpmvHht,
    SpmspvBaseline,
    SpmspvV1,
    SpmspvV2,
}

/// A generated CSR matrix (shared, so repeated requests share storage).
#[derive(Clone)]
pub struct Matrix(Arc<CsrMatrix>);

/// A kernel operand: dense for SpMV, sparse for SpMSpV.
#[derive(Clone)]
pub enum Vector {
    Dense(Arc<DenseVector>),
    Sparse(Arc<SparseVector>),
}

/// Seeded `n x n` matrix with the given fraction of zeros.
pub fn gen_matrix(n: usize, sparsity: f64, seed: u64) -> Matrix {
    Matrix(Arc::new(generate::random_csr(n, n, sparsity, seed)))
}

/// Seeded dense operand of length `n`.
pub fn gen_dense(n: usize, seed: u64) -> Vector {
    Vector::Dense(Arc::new(generate::random_dense_vector(n, seed)))
}

/// Seeded sparse operand of length `n` with the given fraction of zeros.
pub fn gen_sparse(n: usize, sparsity: f64, seed: u64) -> Vector {
    Vector::Sparse(Arc::new(generate::random_sparse_vector(n, sparsity, seed)))
}

impl Matrix {
    pub fn rows(&self) -> usize {
        self.0.rows()
    }
}

/// The golden output of one kernel plus, per element, what the output
/// check needs to bound reassociation error: the sum of the absolute
/// products `|a_ij * x_j|` and how many products there are.
pub struct Reference {
    pub y: Vec<f32>,
    pub abs_sum: Vec<f64>,
    pub terms: Vec<u32>,
}

/// Golden SpMV (dense operand) or SpMSpV (sparse operand) from the
/// reference kernels of `hht-sparse`.
pub fn reference(m: &Matrix, x: &Vector) -> Reference {
    let (y, xd) = match x {
        Vector::Dense(v) => (kernels::spmv(&m.0, v), v.as_slice().to_vec()),
        Vector::Sparse(s) => (kernels::spmspv(&m.0, s), s.to_dense().as_slice().to_vec()),
    };
    let y = y.expect("generated shapes agree").as_slice().to_vec();
    let mut abs_sum = Vec::with_capacity(m.rows());
    let mut terms = Vec::with_capacity(m.rows());
    for r in 0..m.rows() {
        let (cols, vals) = m.0.row(r);
        let mut s = 0.0f64;
        let mut t = 0u32;
        for (&c, &a) in cols.iter().zip(vals) {
            let xv = xd[c as usize];
            if xv != 0.0 {
                s += (a as f64 * xv as f64).abs();
                t += 1;
            }
        }
        abs_sum.push(s);
        terms.push(t);
    }
    Reference { y, abs_sum, terms }
}

/// Simulated counters of one run (one tile, or every tile of a fabric
/// folded together). Exact: equal inputs give equal values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sim {
    /// Wall cycles (the last tile's completion cycle).
    pub wall_cycles: u64,
    /// Sum of every tile's completion cycle.
    pub tile_cycles: u64,
    pub instructions: u64,
    /// Core cycles spent waiting on the HHT stream.
    pub core_hht_wait: u64,
    pub elements_delivered: u64,
    pub hht_busy: u64,
    pub mem_accesses: u64,
    pub mem_conflicts: u64,
    pub cross_tile_conflicts: u64,
    pub window_stalls: u64,
}

impl Sim {
    fn from_stats(wall_cycles: u64, s: &SystemStats) -> Sim {
        Sim {
            wall_cycles,
            tile_cycles: s.cycles,
            instructions: s.core.instructions,
            core_hht_wait: s.core.hht_wait_cycles,
            elements_delivered: s.hht.elements_delivered,
            hht_busy: s.hht.busy_cycles,
            mem_accesses: s.sram.cpu_accesses + s.sram.hht_accesses,
            mem_conflicts: s.sram.conflicts,
            cross_tile_conflicts: s.sram.cpu_cross_tile_conflicts,
            window_stalls: s.sram.cpu_window_stalls + s.sram.hht_window_stalls,
        }
    }

    fn from_fabric(s: &FabricStats) -> Sim {
        Sim::from_stats(s.cycles, &s.merged())
    }

    pub fn add(&mut self, o: &Sim) {
        self.wall_cycles += o.wall_cycles;
        self.tile_cycles += o.tile_cycles;
        self.instructions += o.instructions;
        self.core_hht_wait += o.core_hht_wait;
        self.elements_delivered += o.elements_delivered;
        self.hht_busy += o.hht_busy;
        self.mem_accesses += o.mem_accesses;
        self.mem_conflicts += o.mem_conflicts;
        self.cross_tile_conflicts += o.cross_tile_conflicts;
        self.window_stalls += o.window_stalls;
    }
}

/// Host-side scheduler accounting of one run. Deterministic for a given
/// scheduler, but not a property of the modelled machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sched {
    pub pops: u64,
    pub stepped: u64,
    pub skipped: u64,
}

impl Sched {
    pub fn add(&mut self, o: &Sched) {
        self.pops += o.pops;
        self.stepped += o.stepped;
        self.skipped += o.skipped;
    }
}

/// The outcome of one run.
pub struct Run {
    pub y: Vec<f32>,
    pub sim: Sim,
    pub sched: Sched,
    stats: SystemStats,
}

/// Run one kernel on one tile through the `runner` entry points. The
/// operand must match the kernel (dense for SpMV, sparse for SpMSpV).
pub fn run_single(machine: Machine, kernel: Kernel, m: &Matrix, x: &Vector) -> Run {
    let cfg = machine.config();
    let out = match (kernel, x) {
        (Kernel::SpmvBaseline, Vector::Dense(v)) => runner::run_spmv_baseline(&cfg, &m.0, v),
        (Kernel::SpmvHht, Vector::Dense(v)) => runner::run_spmv_hht(&cfg, &m.0, v),
        (Kernel::SpmspvBaseline, Vector::Sparse(s)) => runner::run_spmspv_baseline(&cfg, &m.0, s),
        (Kernel::SpmspvV1, Vector::Sparse(s)) => runner::run_spmspv_hht_v1(&cfg, &m.0, s),
        (Kernel::SpmspvV2, Vector::Sparse(s)) => runner::run_spmspv_hht_v2(&cfg, &m.0, s),
        _ => panic!("{kernel:?} given the wrong operand kind"),
    };
    Run {
        y: out.y.as_slice().to_vec(),
        sim: Sim::from_stats(out.stats.cycles, &out.stats),
        sched: Sched {
            pops: 0,
            stepped: out.sched.stepped_cycles,
            skipped: out.sched.skipped_cycles,
        },
        stats: out.stats,
    }
}

/// The CPI buckets reported per kernel, in this order.
pub const CPI_BUCKETS: [&str; 11] = [
    "issue",
    "branch_refill",
    "vector_busy",
    "mem_load_latency",
    "mem_row_hit",
    "mem_row_miss",
    "mem_mlp_stall",
    "mem_port_refusal",
    "mem_cross_tile",
    "hht_window_empty",
    "hht_header_drain",
];

/// The run's CPI stack in [`CPI_BUCKETS`] order, plus its total cycles.
/// `fault_recovery` is left out: fault injection is off, so it must be 0,
/// and a non-zero value is an error.
pub fn cpi(run: &Run) -> Result<([u64; 11], u64), String> {
    let c = CpiStack::from_stats(&run.stats)?;
    if c.fault_recovery != 0 {
        return Err(format!("fault_recovery = {} with fault injection off", c.fault_recovery));
    }
    let b = [
        c.issue,
        c.branch_refill,
        c.vector_busy,
        c.mem_load_latency,
        c.mem_row_hit,
        c.mem_row_miss,
        c.mem_mlp_stall,
        c.mem_port_refusal,
        c.mem_cross_tile,
        c.hht_window_empty,
        c.hht_header_drain,
    ];
    Ok((b, c.cycles))
}

/// A built, not yet run, HHT SpMV fabric.
pub struct FabricJob {
    fabric: Fabric,
    y_base: u32,
    rows: usize,
}

/// Lay out the SpMV image, shard it across `tiles` tiles and build the
/// fabric (`FabricConfig::scaled`). The operand must be dense.
pub fn build_fabric(machine: Machine, tiles: usize, m: &Matrix, x: &Vector) -> FabricJob {
    let Vector::Dense(v) = x else { panic!("fabric SpMV needs a dense operand") };
    let (fabric, y_base) =
        runner::build_spmv_fabric(&machine.config(), FabricConfig::scaled(tiles), &m.0, v);
    FabricJob { fabric, y_base, rows: m.rows() }
}

/// Run a built fabric to completion and read its output.
pub fn run_fabric(job: &mut FabricJob) -> Result<Run, String> {
    let stats = job.fabric.run().map_err(|e| e.to_string())?;
    let sched = job.fabric.sched_stats();
    let pops = job.fabric.tile_sched_stats().iter().map(|t| t.pops).sum();
    Ok(Run {
        y: job.fabric.read_output(job.y_base, job.rows).as_slice().to_vec(),
        sim: Sim::from_fabric(&stats),
        sched: Sched { pops, stepped: sched.stepped_cycles, skipped: sched.skipped_cycles },
        stats: stats.merged(),
    })
}

/// One request of the served stream.
#[derive(Clone)]
pub struct ServeRequest(Request);

impl ServeRequest {
    /// The same request (sharing its matrix and operand) from `tenant`.
    pub fn with_tenant(&self, tenant: usize) -> ServeRequest {
        ServeRequest(Request { tenant, ..self.0.clone() })
    }
}

/// Which kernel a served request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKernel {
    Spmv,
    SpmspvV1,
    SpmspvV2,
}

pub fn serve_request(tenant: usize, kernel: ServeKernel, m: &Matrix, x: &Vector) -> ServeRequest {
    let req = match (kernel, x) {
        (ServeKernel::Spmv, Vector::Dense(v)) => Request::spmv(tenant, m.0.clone(), v.clone()),
        (ServeKernel::SpmspvV1, Vector::Sparse(s)) => {
            Request::spmspv_v1(tenant, m.0.clone(), s.clone())
        }
        (ServeKernel::SpmspvV2, Vector::Sparse(s)) => {
            Request::spmspv_v2(tenant, m.0.clone(), s.clone())
        }
        _ => panic!("{kernel:?} request given the wrong operand kind"),
    };
    ServeRequest(req)
}

/// What one served request returned.
pub struct ServeReply {
    pub y: Vec<f32>,
}

/// The fabric passes one `run_stream` call executed (replays excluded),
/// each counted once even when several batched jobs share it.
#[derive(Default)]
pub struct Passes {
    pub sim: Sim,
    pub sched: Sched,
    /// Host time the service measured around each pass.
    pub host: Vec<Duration>,
}

/// Serving counters of the service so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    pub requests: u64,
    pub waves: u64,
    pub replay_hits: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub batches: u64,
    pub batched_jobs: u64,
    pub pool_reuses: u64,
    pub pool_builds: u64,
}

impl ServeCounters {
    pub fn add(&mut self, o: &ServeCounters) {
        self.requests += o.requests;
        self.waves += o.waves;
        self.replay_hits += o.replay_hits;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.batches += o.batches;
        self.batched_jobs += o.batched_jobs;
        self.pool_reuses += o.pool_reuses;
        self.pool_builds += o.pool_builds;
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &ServeCounters) -> ServeCounters {
        ServeCounters {
            requests: self.requests - before.requests,
            waves: self.waves - before.waves,
            replay_hits: self.replay_hits - before.replay_hits,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            batches: self.batches - before.batches,
            batched_jobs: self.batched_jobs - before.batched_jobs,
            pool_reuses: self.pool_reuses - before.pool_reuses,
            pool_builds: self.pool_builds - before.pool_builds,
        }
    }
}

/// A warm-fabric service on a paper-default fabric of `tiles` tiles,
/// dispatching over `workers` threads, every other knob at its default.
pub struct Server(Service);

impl Server {
    pub fn new(tiles: usize, workers: usize) -> Server {
        let scfg = ServiceConfig { jobs: workers, ..ServiceConfig::default() };
        Server(Service::new(Machine::PaperSram.config(), FabricConfig::scaled(tiles), scfg))
    }

    /// Serve `reqs` to completion; replies in input order.
    pub fn run_stream(&mut self, reqs: &[ServeRequest]) -> (Vec<ServeReply>, Passes) {
        let reqs: Vec<Request> = reqs.iter().map(|r| r.0.clone()).collect();
        let responses = self.0.run_stream(&reqs);
        let mut passes = Passes::default();
        let mut seen = HashSet::new();
        let replies = responses
            .into_iter()
            .map(|r| {
                if r.served != Served::ReplayHit && seen.insert(Arc::as_ptr(&r.run)) {
                    passes.sim.add(&Sim::from_fabric(&r.run.stats));
                    passes.sched.add(&Sched {
                        pops: r.run.tile_sched.iter().map(|t| t.pops).sum(),
                        stepped: r.run.sched.stepped_cycles,
                        skipped: r.run.sched.skipped_cycles,
                    });
                    passes.host.push(r.latency);
                }
                ServeReply { y: r.y.as_slice().to_vec() }
            })
            .collect();
        (replies, passes)
    }

    pub fn counters(&self) -> ServeCounters {
        let s = self.0.stats();
        ServeCounters {
            requests: s.requests,
            waves: s.waves,
            replay_hits: s.replay_hits,
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
            batches: s.batches,
            batched_jobs: s.batched_jobs,
            pool_reuses: s.pool_reuses,
            pool_builds: s.pool_builds,
        }
    }
}
