//! Closed-loop workloads: one job in flight; the next job starts when the
//! previous one ends. A job runs SpMV and SpMSpV (v1, v2) on one tile,
//! each as the CPU-only baseline and with the HHT, and optionally the same
//! SpMV on a multi-tile fabric.

use crate::adapter::{self, Kernel, Machine, Matrix, Reference, Run, Sched, Sim, Vector};
use crate::check;
use crate::stats::Rng;
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub struct Spec {
    pub machine: Machine,
    /// Matrix and operand dimension.
    pub n: usize,
    /// Fraction of zeros in the matrix and in the SpMSpV operand.
    pub sparsity: f64,
    /// Distinct problems generated per run; the timed loop cycles over them.
    pub problems: usize,
    /// Tiles of the extra fabric SpMV pass, if the workload has one.
    pub fabric_tiles: Option<usize>,
}

/// The single-tile runs of one job, in this order.
pub const KERNELS: [Kernel; 5] = [
    Kernel::SpmvBaseline,
    Kernel::SpmvHht,
    Kernel::SpmspvBaseline,
    Kernel::SpmspvV1,
    Kernel::SpmspvV2,
];

/// The HHT kernels whose CPI stacks are reported, with their names.
pub const CPI_KERNELS: [(usize, &str); 3] = [(1, "spmv"), (3, "spmspv_v1"), (4, "spmspv_v2")];

pub struct Problem {
    m: Matrix,
    v: Vector,
    x: Vector,
    ref_v: Reference,
    ref_x: Reference,
}

/// Generate the run's problems from the seed, with their golden outputs.
pub fn generate(spec: &Spec, seed: u64, tr: &mut Tracer) -> Vec<Problem> {
    let mut rng = Rng::new(seed);
    (0..spec.problems)
        .map(|j| {
            let span = tr.open("sparse.gen", j as u64);
            let m = adapter::gen_matrix(spec.n, spec.sparsity, rng.next_u64());
            let v = adapter::gen_dense(spec.n, rng.next_u64());
            let x = adapter::gen_sparse(spec.n, spec.sparsity, rng.next_u64());
            let ref_v = adapter::reference(&m, &v);
            let ref_x = adapter::reference(&m, &x);
            tr.close(span);
            Problem { m, v, x, ref_v, ref_x }
        })
        .collect()
}

/// Everything one job's simulations report that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    pub single: [Sim; 5],
    pub single_sched: [Sched; 5],
    pub fabric: Option<(Sim, Sched)>,
    /// `(buckets, cycles)` per entry of [`CPI_KERNELS`].
    pub cpi: [([u64; 11], u64); 3],
}

impl Signature {
    /// Simulated tile-cycles of every run of the job.
    pub fn tile_cycles(&self) -> u64 {
        self.single.iter().map(|s| s.tile_cycles).sum::<u64>()
            + self.fabric.map_or(0, |(f, _)| f.tile_cycles)
    }
}

struct JobOut {
    single: Vec<Run>,
    fabric: Option<Run>,
    cpi: [([u64; 11], u64); 3],
}

fn run_job(spec: &Spec, p: &Problem, tr: &mut Tracer, job: u64) -> Result<JobOut, String> {
    let mut single = Vec::with_capacity(KERNELS.len());
    for k in KERNELS {
        let x = if matches!(k, Kernel::SpmvBaseline | Kernel::SpmvHht) { &p.v } else { &p.x };
        let span = tr.open("system.run", job);
        single.push(adapter::run_single(spec.machine, k, &p.m, x));
        tr.close(span);
    }
    let fabric = match spec.fabric_tiles {
        Some(tiles) => {
            let span = tr.open("system.layout", job);
            let mut f = adapter::build_fabric(spec.machine, tiles, &p.m, &p.v);
            tr.close(span);
            let span = tr.open("system.fabric_run", job);
            let run = adapter::run_fabric(&mut f);
            tr.close(span);
            Some(run?)
        }
        None => None,
    };
    let span = tr.open("prof.cpi", job);
    let mut cpi = [([0; 11], 0); 3];
    for (slot, &(i, _)) in cpi.iter_mut().zip(&CPI_KERNELS) {
        *slot = adapter::cpi(&single[i])?;
    }
    tr.close(span);
    Ok(JobOut { single, fabric, cpi })
}

fn verify(p: &Problem, out: &JobOut) -> Result<(), String> {
    for (k, run) in KERNELS.iter().zip(&out.single) {
        let r =
            if matches!(k, Kernel::SpmvBaseline | Kernel::SpmvHht) { &p.ref_v } else { &p.ref_x };
        check::check(&run.y, r).map_err(|e| format!("{k:?}: {e}"))?;
    }
    if let Some(f) = &out.fabric {
        check::check(&f.y, &p.ref_v).map_err(|e| format!("fabric SpMV: {e}"))?;
    }
    Ok(())
}

fn signature(out: &JobOut) -> Signature {
    let mut single = [Sim::default(); 5];
    let mut single_sched = [Sched::default(); 5];
    for (i, r) in out.single.iter().enumerate() {
        single[i] = r.sim;
        single_sched[i] = r.sched;
    }
    Signature {
        single,
        single_sched,
        fabric: out.fabric.as_ref().map(|f| (f.sim, f.sched)),
        cpi: out.cpi,
    }
}

/// One timed phase of the closed loop.
#[derive(Default)]
pub struct Phase {
    /// Host latency of every job that produced a correct output.
    pub latencies_ms: Vec<f64>,
    /// Per problem, its fastest correct repetition (infinite if none).
    pub best_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Fabric-pass queue pops of every correct job.
    pub fabric_pops: u64,
    /// One signature per problem, from the first pass over them.
    pub first: Vec<Option<Signature>>,
}

/// Run one job untimed, so that code and allocator warm-up is part of the
/// set-up rather than of the first timed job.
pub fn warm_up(spec: &Spec, problems: &[Problem]) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let out = run_job(spec, &problems[0], &mut tr, 0)?;
    verify(&problems[0], &out)
}

/// Cycle over the problems until `seconds` have passed, always finishing
/// at least one pass so that every problem's signature is recorded. Each
/// later repetition of a problem must reproduce its first signature.
pub fn run_phase(spec: &Spec, problems: &[Problem], seconds: f64, tr: &mut Tracer) -> Phase {
    let mut ph = Phase {
        first: vec![None; problems.len()],
        best_ms: vec![f64::INFINITY; problems.len()],
        ..Phase::default()
    };
    let start = Instant::now();
    let mut i = 0usize;
    while i < problems.len() || start.elapsed().as_secs_f64() < seconds {
        let j = i % problems.len();
        let job = i as u64;
        let root = tr.open("job", job);
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run_job(spec, &problems[j], tr, job)));
        let latency = t0.elapsed();
        tr.close(root);
        ph.attempted += 1;

        let span = tr.open("bench.verify", job);
        let verdict = match out {
            Err(_) => Err("panicked".to_string()),
            Ok(Err(e)) => Err(e),
            Ok(Ok(out)) => verify(&problems[j], &out).and_then(|()| {
                let sig = signature(&out);
                match &ph.first[j] {
                    None if i < problems.len() => ph.first[j] = Some(sig),
                    Some(first) if *first == sig => {}
                    _ => return Err("simulated counters differ from the first run".into()),
                }
                Ok(out)
            }),
        };
        tr.close(span);
        match verdict {
            Ok(out) => {
                let ms = latency.as_secs_f64() * 1e3;
                ph.latencies_ms.push(ms);
                ph.best_ms[j] = ph.best_ms[j].min(ms);
                ph.fabric_pops += out.fabric.as_ref().map_or(0, |f| f.sched.pops);
            }
            Err(e) => {
                ph.failed += 1;
                ph.errors.push(format!("job {i} (problem {j}): {e}"));
            }
        }
        i += 1;
    }
    ph
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_SRAM: Spec = Spec {
        machine: Machine::PaperSram,
        n: 48,
        sparsity: 0.9,
        problems: 2,
        fabric_tiles: Some(2),
    };
    const SMALL_DRAM: Spec =
        Spec { machine: Machine::Dram300ns, n: 48, sparsity: 0.9, problems: 2, fabric_tiles: None };

    /// The golden outputs (as bits) and first-pass signatures of one pass.
    fn one_pass(spec: &Spec, seed: u64, traced: bool) -> (Vec<Vec<u32>>, Vec<Option<Signature>>) {
        let mut tr = Tracer::new(traced);
        let problems = generate(spec, seed, &mut tr);
        let bits = |r: &Reference| r.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let inputs = problems.iter().flat_map(|p| [bits(&p.ref_v), bits(&p.ref_x)]).collect();
        let ph = run_phase(spec, &problems, 0.0, &mut tr);
        assert_eq!(ph.failed, 0, "{:?}", ph.errors);
        assert_eq!(ph.attempted, spec.problems as u64);
        (inputs, ph.first)
    }

    #[test]
    fn same_seed_gives_same_inputs_and_simulated_counters() {
        for spec in [&SMALL_SRAM, &SMALL_DRAM] {
            let a = one_pass(spec, 5, false);
            assert!(a.1.iter().all(Option::is_some));
            assert_eq!(a, one_pass(spec, 5, false));
            let other = one_pass(spec, 6, false);
            assert_ne!(a.0, other.0);
            assert_ne!(a.1, other.1);
        }
    }

    #[test]
    fn tracing_leaves_simulated_counters_unchanged() {
        assert_eq!(one_pass(&SMALL_SRAM, 9, false).1, one_pass(&SMALL_SRAM, 9, true).1);
    }

    #[test]
    fn a_corrupted_output_fails_the_job() {
        let mut tr = Tracer::new(false);
        let problems = generate(&SMALL_SRAM, 3, &mut tr);
        let mut out = run_job(&SMALL_SRAM, &problems[0], &mut tr, 0).expect("job runs");
        assert!(verify(&problems[0], &out).is_ok());
        out.fabric.as_mut().expect("fabric pass").y[0] = f32::NAN;
        assert!(verify(&problems[0], &out).unwrap_err().contains("fabric"));
    }
}
