//! The three workloads and the metrics they report.

use crate::adapter::{Machine, Sched, ServeCounters, Server, Sim, CPI_BUCKETS};
use crate::closed::{self, Signature, Spec, CPI_KERNELS};
use crate::serve;
use crate::stats::{median, peak_rss_mb, tail, Tail};
use crate::trace::{self_times, Tracer};
use crate::{metric, Args, Report};
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAMES: [&str; 3] = ["paper_sram", "dram_300ns", "serve_open"];

/// The paper's own corner: Table 1 machine, 512x512 at 90% sparsity, plus
/// the same SpMV on a 16-tile fabric.
const PAPER_SRAM: Spec = Spec {
    machine: Machine::PaperSram,
    n: 512,
    sparsity: 0.9,
    problems: 4,
    fabric_tiles: Some(16),
};

/// The same job shape on one tile behind 300 ns-class DRAM.
const DRAM_300NS: Spec =
    Spec { machine: Machine::Dram300ns, n: 512, sparsity: 0.9, problems: 8, fabric_tiles: None };

/// `serve_open`'s simulated metrics come from this reference job shape,
/// run once per set-up on one paper-default tile: the served stream's
/// pass composition depends on host timing, so its cycles do not repeat.
const SERVE_REFERENCE: Spec =
    Spec { machine: Machine::PaperSram, n: 256, sparsity: 0.9, problems: 4, fabric_tiles: None };

/// Latency limit of the closed-loop jobs (a job is 5 single-tile runs,
/// plus the 16-tile pass on `paper_sram`).
const CLOSED_SLO_MS: f64 = 1000.0;

/// Set-up repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub fn run(a: &Args) -> Result<Report, String> {
    match a.workload.as_str() {
        "paper_sram" => Ok(run_closed(&PAPER_SRAM, a)),
        "dram_300ns" => Ok(run_closed(&DRAM_300NS, a)),
        "serve_open" => Ok(run_serve(a)),
        w => Err(format!("unknown workload {w} (one of {})", NAMES.join(", "))),
    }
}

/// Simulated end-to-end metrics and per-layer totals from one pass over a
/// closed loop's problems.
struct SimSummary {
    sim_cycles: u64,
    speedup: [f64; 3],
    /// The HHT runs, folded together.
    hht: Sim,
    /// The fabric passes if the workload has any, else the single-tile runs.
    sched: Sched,
    cpi: [([u64; 11], u64); 3],
}

fn summarize(first: &[Option<Signature>]) -> Option<SimSummary> {
    let sigs: Vec<&Signature> = first.iter().map(Option::as_ref).collect::<Option<_>>()?;
    let wall = |i: usize| sigs.iter().map(|s| s.single[i].wall_cycles).sum::<u64>() as f64;
    let mut s = SimSummary {
        sim_cycles: 0,
        speedup: [wall(0) / wall(1), wall(2) / wall(3), wall(2) / wall(4)],
        hht: Sim::default(),
        sched: Sched::default(),
        cpi: [([0; 11], 0); 3],
    };
    for sig in &sigs {
        for i in [1, 3, 4] {
            s.hht.add(&sig.single[i]);
        }
        match &sig.fabric {
            Some((sim, sched)) => {
                s.hht.add(sim);
                s.sched.add(sched);
            }
            None => sig.single_sched.iter().for_each(|x| s.sched.add(x)),
        }
        for (acc, (b, c)) in s.cpi.iter_mut().zip(&sig.cpi) {
            acc.0.iter_mut().zip(b).for_each(|(a, v)| *a += v);
            acc.1 += c;
        }
    }
    s.sim_cycles = s.hht.wall_cycles;
    Some(s)
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn tail_note(name: &str, t: &Tail) -> String {
    if t.beyond == 0 {
        format!(
            "{name}: only {} samples, no percentile has 10 beyond it; reporting the maximum",
            t.samples
        )
    } else {
        format!("{name} is p{:.2} of {} samples ({} beyond it)", t.percentile, t.samples, t.beyond)
    }
}

/// Host-time figures of one timed phase.
struct Host {
    jobs_per_s: f64,
    p50_ms: f64,
    mcycles_per_s: f64,
    /// Every correct job's latency, for the tail and the latency limit.
    latencies_ms: Vec<f64>,
}

/// Closed loops repeat each problem many times. Other tenants of a shared
/// host slow whole stretches of a run by up to 2x, so throughput and the
/// median come from each problem's fastest repetition (best of N); the
/// tail keeps every repetition.
fn closed_host(ph: &closed::Phase) -> Host {
    let best_s = ph.best_ms.iter().sum::<f64>() / 1e3;
    let cycles: u64 = ph.first.iter().flatten().map(Signature::tile_cycles).sum();
    Host {
        jobs_per_s: ph.best_ms.len() as f64 / best_s,
        p50_ms: median(&ph.best_ms),
        mcycles_per_s: cycles as f64 / best_s / 1e6,
        latencies_ms: ph.latencies_ms.clone(),
    }
}

/// The open loop replays its schedule in [`SERVE_ROUNDS`] rounds, each on
/// a fresh service, for the same reason: a request's latency is its
/// fastest round (a request that fails in any round is a miss). A tick's
/// requests arrive together and are answered by one `run_stream` call, so
/// the slowest of a tick's best latencies is that tick's service time, and
/// throughput is requests per second of those.
fn serve_host(rounds: &[serve::Phase]) -> Host {
    let n = rounds[0].latencies_ms.len();
    let best: Vec<Option<f64>> = (0..n)
        .map(|i| {
            let each: Option<Vec<f64>> = rounds.iter().map(|p| p.latencies_ms[i]).collect();
            each.map(|v| v.into_iter().fold(f64::INFINITY, f64::min))
        })
        .collect();
    let tick_ms: f64 = best
        .chunks(serve::TENANTS)
        .map(|tick| tick.iter().flatten().fold(0.0, |a: f64, &b| a.max(b)))
        .sum();
    let best: Vec<f64> = best.into_iter().flatten().collect();
    let cycles: u64 =
        rounds.iter().map(|p| p.passes.sim.tile_cycles).sum::<u64>() / rounds.len() as u64;
    Host {
        jobs_per_s: best.len() as f64 / (tick_ms / 1e3),
        p50_ms: median(&best),
        mcycles_per_s: cycles as f64 / (tick_ms / 1e3) / 1e6,
        latencies_ms: best,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
/// `timed` is the number of jobs the timed phase attempted; a failed job
/// misses the latency limit.
fn end_to_end(setup_s: f64, h: &Host, timed: u64, sim: &SimSummary, slo_ms: f64, r: &mut Report) {
    let t = tail(&h.latencies_ms);
    r.notes.push(tail_note("job_ms_tail", &t));
    let met = h.latencies_ms.iter().filter(|&&l| l <= slo_ms).count();
    r.notes.push(format!("slo_met_frac limit: {slo_ms} ms"));
    r.notes.push(format!("fail_frac = {}", frac(r.failed, r.attempted)));
    r.metrics.extend([
        metric("setup_s", setup_s, "s"),
        metric("jobs_per_s", h.jobs_per_s, "1/s"),
        metric("job_ms_p50", h.p50_ms, "ms"),
        metric("job_ms_tail", t.value, "ms"),
        metric("sim_mcycles_per_s", h.mcycles_per_s, "Mcycles/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("ok_frac", 1.0 - frac(r.failed, r.attempted), "frac"),
        metric("sim_cycles", sim.sim_cycles as f64, "cycles"),
        metric("hht_speedup_spmv", sim.speedup[0], "x"),
        metric("hht_speedup_spmspv_v1", sim.speedup[1], "x"),
        metric("hht_speedup_spmspv_v2", sim.speedup[2], "x"),
        metric("slo_met_frac", frac(met as u64, timed), "frac"),
    ]);
}

/// Per-layer inputs a workload collects in its traced phase.
#[derive(Default)]
struct Layers {
    /// Self time (ns) and call count per span name.
    spans: BTreeMap<&'static str, (u64, u64)>,
    /// Host time of the fabric passes and how many there were.
    fabric_ns: u64,
    fabric_passes: u64,
    /// Queue pops of those passes.
    fabric_pops: u64,
    serve: Option<(ServeCounters, u64)>,
    backlog_max: usize,
    gen_late_ms_tail: f64,
    verify_ms_per_job: f64,
    trace_overhead: f64,
    backlog_growing: bool,
}

fn per_call_ms(spans: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    spans.get(name).map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e6)
}

fn per_layer(l: &Layers, s: &SimSummary, r: &mut Report) {
    let h = &s.hht;
    let sc = &s.sched;
    r.metrics.extend([
        metric("system.fabric_run_ms", frac(l.fabric_ns, l.fabric_passes) / 1e6, "ms"),
        metric("system.ns_per_tile_pop", frac(l.fabric_ns, l.fabric_pops), "ns"),
        metric("system.pops", sc.pops as f64, "count"),
        metric("system.stepped_cycles", sc.stepped as f64, "cycles"),
        metric("system.skipped_cycles", sc.skipped as f64, "cycles"),
        metric("system.skip_frac", frac(sc.skipped, sc.stepped + sc.skipped), "frac"),
    ]);
    for (&(_, kernel), (buckets, cycles)) in CPI_KERNELS.iter().zip(&s.cpi) {
        for (b, v) in CPI_BUCKETS.iter().zip(buckets) {
            r.metrics.push(metric(format!("prof.cpi.{kernel}.{b}"), frac(*v, *cycles), "frac"));
        }
    }
    let (sv, calls) = l.serve.unwrap_or_default();
    r.metrics.extend([
        metric(
            "mem.conflict_frac",
            frac(h.mem_conflicts, h.mem_accesses + h.mem_conflicts),
            "frac",
        ),
        metric("mem.cross_tile_conflicts", h.cross_tile_conflicts as f64, "count"),
        metric("mem.window_stalls", h.window_stalls as f64, "cycles"),
        metric("accel.elements_delivered", h.elements_delivered as f64, "count"),
        metric("accel.busy_frac", frac(h.hht_busy, h.tile_cycles), "frac"),
        metric("sim.ipc", frac(h.instructions, h.tile_cycles), "instr/cycle"),
        metric("sim.hht_wait_frac", frac(h.core_hht_wait, h.tile_cycles), "frac"),
        metric("sparse.gen_ms", per_call_ms(&l.spans, "sparse.gen"), "ms"),
        metric("system.layout_ms", per_call_ms(&l.spans, "system.layout"), "ms"),
        metric("system.run_ms", per_call_ms(&l.spans, "system.run"), "ms"),
        metric("serve.run_stream_ms", per_call_ms(&l.spans, "serve.run_stream"), "ms"),
        metric("serve.replay_hit_frac", frac(sv.replay_hits, sv.requests), "frac"),
        metric("serve.plan_hit_frac", frac(sv.plan_hits, sv.plan_hits + sv.plan_misses), "frac"),
        metric("serve.batched_frac", frac(sv.batched_jobs, sv.requests), "frac"),
        metric("serve.batch_size_mean", frac(sv.batched_jobs, sv.batches), "count"),
        metric(
            "serve.pool_reuse_frac",
            frac(sv.pool_reuses, sv.pool_reuses + sv.pool_builds),
            "frac",
        ),
        metric("serve.waves", sv.waves as f64, "count"),
        metric("bench.backlog_max", l.backlog_max as f64, "count"),
        metric("bench.backlog_growing", f64::from(u8::from(l.backlog_growing)), "flag"),
        metric("bench.gen_late_ms_tail", l.gen_late_ms_tail, "ms"),
        metric("bench.verify_ms", l.verify_ms_per_job, "ms"),
        metric("bench.trace_overhead_frac", l.trace_overhead, "frac"),
    ]);
    if calls > 0 {
        r.notes.push(format!("serve: {} requests in {calls} run_stream calls", sv.requests));
    }
}

fn note_errors(errors: &[String], r: &mut Report) {
    for e in errors.iter().take(10) {
        r.notes.push(format!("failure: {e}"));
    }
    if errors.len() > 10 {
        r.notes.push(format!("... and {} more failures", errors.len() - 10));
    }
}

/// Set-up of a closed-loop run: generate the problems and run one job
/// untimed.
fn closed_setup(
    spec: &Spec,
    seed: u64,
    tr: &mut Tracer,
) -> (Vec<closed::Problem>, Result<(), String>) {
    let problems = closed::generate(spec, seed, tr);
    let warm = closed::warm_up(spec, &problems);
    (problems, warm)
}

/// Run `setup` [`SETUP_REPS`] times; return the last result and the
/// median time.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous result first, so that peak memory holds one.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

fn run_closed(spec: &Spec, a: &Args) -> Report {
    let mut r = Report::default();
    let mut off = Tracer::new(false);
    let account = |warm: Result<(), String>, ph: &closed::Phase, r: &mut Report| {
        r.attempted += ph.attempted + 1;
        r.failed += ph.failed;
        if let Err(e) = warm {
            r.notes.push(format!("warm-up job failed: {e}"));
            r.failed += 1;
        }
        note_errors(&ph.errors, r);
    };
    if !a.trace {
        let ((problems, warm), setup_s) = timed_setup(|| closed_setup(spec, a.seed, &mut off));
        let ph = closed::run_phase(spec, &problems, a.seconds, &mut off);
        account(warm, &ph, &mut r);
        let Some(sim) = summarize(&ph.first) else {
            r.notes.push("a first-pass job failed; simulated metrics are missing".into());
            r.failed = r.failed.max(1);
            return r;
        };
        r.correct = r.failed == 0;
        end_to_end(setup_s, &closed_host(&ph), ph.attempted, &sim, CLOSED_SLO_MS, &mut r);
        return r;
    }

    // Untraced half, then traced half; their simulated counters must agree.
    let half = a.seconds / 2.0;
    let (problems, warm) = closed_setup(spec, a.seed, &mut off);
    let untraced = closed::run_phase(spec, &problems, half, &mut off);
    account(warm, &untraced, &mut r);
    let mut tr = Tracer::new(true);
    let (problems, warm) = closed_setup(spec, a.seed, &mut tr);
    let traced = closed::run_phase(spec, &problems, half, &mut tr);
    account(warm, &traced, &mut r);
    let same = untraced.first == traced.first;
    if !same {
        r.notes.push("simulated counters differ between the untraced and traced phases".into());
    }
    let Some(sim) = summarize(&traced.first) else {
        r.notes.push("a first-pass job failed; simulated metrics are missing".into());
        r.failed = r.failed.max(1);
        return r;
    };
    r.correct = r.failed == 0 && same;
    let spans = self_times(tr.spans());
    let fabric = spans.get("system.fabric_run").copied().unwrap_or_default();
    let layers = Layers {
        fabric_ns: fabric.0,
        fabric_passes: fabric.1,
        fabric_pops: traced.fabric_pops,
        verify_ms_per_job: per_call_ms(&spans, "bench.verify"),
        trace_overhead: 1.0 - closed_host(&traced).jobs_per_s / closed_host(&untraced).jobs_per_s,
        spans,
        ..Layers::default()
    };
    write_trace(&tr, a, &mut r);
    per_layer(&layers, &sim, &mut r);
    r
}

/// Rounds of the open-loop schedule per phase (see [`serve_host`]).
const SERVE_ROUNDS: usize = 4;

/// Set-up of a serving run: the request schedule of one round, the first
/// round's service (warmed by a separate stream) and the reference jobs'
/// simulated metrics.
struct ServeSetup {
    items: Vec<serve::Item>,
    server: Option<Server>,
    warm: Result<(), String>,
    reference: closed::Phase,
}

/// Dispatch threads: the host's parallelism, at most one per tenant (a
/// wave holds at most one request per tenant).
fn serve_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(serve::TENANTS)
}

/// A new service, warmed by a stream that shares no request with the
/// schedule.
fn fresh_server(seed: u64) -> (Server, Result<(), String>) {
    let mut server = Server::new(serve::TILES, serve_workers());
    let warm = serve::warm_up(&mut server, seed);
    (server, warm)
}

fn serve_setup(seed: u64, round_seconds: f64, tr: &mut Tracer) -> ServeSetup {
    let items = serve::schedule(seed, round_seconds, tr);
    let (server, warm) = fresh_server(seed);
    let problems = closed::generate(&SERVE_REFERENCE, seed ^ 0x5245_4645, tr);
    let reference = closed::run_phase(&SERVE_REFERENCE, &problems, 0.0, tr);
    ServeSetup { items, server: Some(server), warm, reference }
}

/// Run every round of one phase, each on its own service, and account
/// the set-up's and every round's jobs in `r`.
fn serve_rounds(
    mut s: ServeSetup,
    seed: u64,
    tr: &mut Tracer,
    r: &mut Report,
) -> (Vec<serve::Phase>, closed::Phase) {
    let mut rounds = Vec::with_capacity(SERVE_ROUNDS);
    let mut warms = vec![s.warm];
    for _ in 0..SERVE_ROUNDS {
        let mut server = match s.server.take() {
            Some(server) => server,
            None => {
                let (server, warm) = fresh_server(seed);
                warms.push(warm);
                server
            }
        };
        rounds.push(serve::run_phase(&mut server, &s.items, tr));
    }
    for w in warms {
        r.attempted += 1;
        if let Err(e) = w {
            r.notes.push(format!("warm-up stream failed: {e}"));
            r.failed += 1;
        }
    }
    r.attempted += s.reference.attempted;
    r.failed += s.reference.failed;
    note_errors(&s.reference.errors, r);
    for ph in &rounds {
        r.attempted += ph.attempted;
        r.failed += ph.failed;
        note_errors(&ph.errors, r);
        if serve::backlog_growing(&ph.backlog) {
            r.notes.push(
                "WARNING: the backlog grew over a round; the offered rate is above capacity".into(),
            );
        }
    }
    (rounds, s.reference)
}

fn run_serve(a: &Args) -> Report {
    let mut r = Report::default();
    let mut off = Tracer::new(false);
    r.notes.push(format!(
        "offered {} req/s ({} tenants x {} ticks/s) on a {}-tile fabric, {} workers, {SERVE_ROUNDS} rounds",
        serve::TENANTS as f64 * serve::TICKS_PER_S,
        serve::TENANTS,
        serve::TICKS_PER_S,
        serve::TILES,
        serve_workers()
    ));
    if !a.trace {
        let round = a.seconds / SERVE_ROUNDS as f64;
        let (s, setup_s) = timed_setup(|| serve_setup(a.seed, round, &mut off));
        let timed = s.items.len() as u64;
        let (rounds, reference) = serve_rounds(s, a.seed, &mut off, &mut r);
        let Some(sim) = summarize(&reference.first) else {
            r.notes.push("a reference job failed; simulated metrics are missing".into());
            r.failed = r.failed.max(1);
            return r;
        };
        r.correct = r.failed == 0;
        end_to_end(setup_s, &serve_host(&rounds), timed, &sim, serve::SLO_MS, &mut r);
        return r;
    }

    let round = a.seconds / 2.0 / SERVE_ROUNDS as f64;
    let s = serve_setup(a.seed, round, &mut off);
    let (untraced, untraced_ref) = serve_rounds(s, a.seed, &mut off, &mut r);
    let mut tr = Tracer::new(true);
    let s = serve_setup(a.seed, round, &mut tr);
    let (traced, reference) = serve_rounds(s, a.seed, &mut tr, &mut r);
    let same = untraced_ref.first == reference.first;
    if !same {
        r.notes.push("simulated counters differ between the untraced and traced phases".into());
    }
    let Some(mut sim) = summarize(&reference.first) else {
        r.notes.push("a reference job failed; simulated metrics are missing".into());
        r.failed = r.failed.max(1);
        return r;
    };
    r.correct = r.failed == 0 && same;
    // Layer counters of every served pass; CPI stays the reference jobs'.
    let mut counters = ServeCounters::default();
    let mut pass_ns = 0u64;
    let mut passes = 0u64;
    let mut late = Vec::new();
    let (mut calls, mut backlog_max, mut verify, mut requests) = (0u64, 0usize, 0.0, 0u64);
    sim.hht = Sim::default();
    sim.sched = Sched::default();
    for ph in &traced {
        sim.hht.add(&ph.passes.sim);
        sim.sched.add(&ph.passes.sched);
        counters.add(&ph.counters);
        pass_ns += ph.passes.host.iter().map(|d| d.as_nanos() as u64).sum::<u64>();
        passes += ph.passes.host.len() as u64;
        late.extend_from_slice(&ph.late_ms);
        calls += ph.backlog.len() as u64;
        backlog_max = backlog_max.max(ph.backlog.iter().map(|&(_, b)| b).max().unwrap_or(0));
        verify += ph.verify.as_secs_f64() * 1e3;
        requests += ph.attempted;
    }
    let late = tail(&late);
    r.notes.push(tail_note("bench.gen_late_ms_tail", &late));
    let layers = Layers {
        spans: self_times(tr.spans()),
        fabric_ns: pass_ns,
        fabric_passes: passes,
        fabric_pops: sim.sched.pops,
        serve: Some((counters, calls)),
        backlog_max,
        gen_late_ms_tail: late.value,
        verify_ms_per_job: verify / requests.max(1) as f64,
        trace_overhead: 1.0 - serve_host(&traced).jobs_per_s / serve_host(&untraced).jobs_per_s,
        backlog_growing: traced.iter().any(|ph| serve::backlog_growing(&ph.backlog)),
    };
    write_trace(&tr, a, &mut r);
    per_layer(&layers, &sim, &mut r);
    r
}

/// Write the traced phase's spans next to the benchmark's sources.
fn write_trace(tr: &Tracer, a: &Args, r: &mut Report) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", a.workload, a.seed));
    match tr.write_chrome(&path) {
        Ok(()) => r.notes.push(format!("spans written to {}", path.display())),
        Err(e) => r.notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("no {key}"))
    }

    fn text(v: &Value) -> String {
        match v {
            Value::Str(s) => s.clone(),
            _ => panic!("not a string"),
        }
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match field(v, key) {
            Value::Seq(items) => items,
            _ => panic!("{key} is not a list"),
        }
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
        list(v, key).iter().map(|m| (text(field(m, "name")), text(field(m, "unit")))).collect()
    }

    fn printed(r: &Report) -> Vec<(String, String)> {
        r.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    fn summary() -> SimSummary {
        SimSummary {
            sim_cycles: 1,
            speedup: [1.0; 3],
            hht: Sim::default(),
            sched: Sched::default(),
            cpi: [([0; 11], 1); 3],
        }
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let v = benchmark_json();
        let mut r = Report { attempted: 1, ..Report::default() };
        let host =
            Host { jobs_per_s: 1.0, p50_ms: 1.0, mcycles_per_s: 1.0, latencies_ms: vec![1.0] };
        end_to_end(1.0, &host, 1, &summary(), 1.0, &mut r);
        assert_eq!(printed(&r), listed(&v, "end_to_end"));
        let mut r = Report::default();
        per_layer(&Layers::default(), &summary(), &mut r);
        assert_eq!(printed(&r), listed(&v, "per_layer"));
    }

    #[test]
    fn benchmark_json_records_workloads_rate_limit_and_seeds() {
        let v = benchmark_json();
        let ws = list(&v, "workloads");
        let names: Vec<String> = ws.iter().map(|w| text(field(w, "name"))).collect();
        assert_eq!(names, NAMES);
        let why = text(field(&ws[2], "why"));
        let rate = serve::TENANTS as f64 * serve::TICKS_PER_S;
        assert!(why.contains(&format!("{rate} req/s")), "{why}");
        assert!(why.contains(&format!("SLO {} ms", serve::SLO_MS)), "{why}");
        assert!(why.contains("default 1, held out 1009"), "{why}");
    }
}
