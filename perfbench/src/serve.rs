//! The open-loop serving workload: a single generator thread sends
//! requests on a fixed schedule, whatever the service is doing, and hands
//! the service everything that is due in one `run_stream` call.

use crate::adapter::{
    self, Passes, Reference, ServeCounters, ServeKernel, ServeReply, ServeRequest, Server,
};
use crate::check;
use crate::stats::{Deck, Rng};
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants; at every tick each sends one request.
pub const TENANTS: usize = 4;
/// Ticks per second: the offered rate is `TENANTS * TICKS_PER_S` req/s.
pub const TICKS_PER_S: f64 = 25.0;
/// Latency limit, from each request's due time.
pub const SLO_MS: f64 = 50.0;
/// Tiles of the served fabric.
pub const TILES: usize = 4;

// The traffic mix is dealt from shuffled decks rather than drawn
// independently, so every seed gets exactly the same shares and only their
// order and content differ.

/// Per tick (one request per tenant), 2 exact repeats of an earlier
/// request and 2 fresh requests. A tick's requests are served by one call,
/// so every tick doing the same amount of fresh work keeps the spread of
/// call times, and of the median latency, down.
const REPEAT_DECK: [bool; TENANTS] = [true, true, false, false];
/// Rows of the square matrix of each fresh request.
const SIZES: [usize; 4] = [64, 128, 256, 512];
/// Per 20 fresh requests, indices into [`SIZES`]: 9, 9, 1 and 1 of each.
/// A 256- or 512-row pass costs several times a small one, whose time is
/// mostly per-pass overhead; with this mix about a fifth of the waves hold
/// a large request, so the median latency is a small wave's and the tail a
/// large one's. With uniform sizes half the waves held one, and the median
/// jumped between the two kinds of wave from seed to seed.
const SIZE_DECK: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3];
/// Per 4 fresh requests: 2 SpMV, 1 SpMSpV v1, 1 SpMSpV v2.
const KERNEL_DECK: [ServeKernel; 4] =
    [ServeKernel::Spmv, ServeKernel::Spmv, ServeKernel::SpmspvV1, ServeKernel::SpmspvV2];
/// Distinct matrices per size. A fresh request pairs one of them with a
/// new operand: the generator's cost grows with the square of the
/// non-zeros, so a fresh matrix per request would make set-up longer than
/// the run. A new operand is enough for the request to miss the replay
/// tier and to be simulated; an SpMV that reuses a matrix can hit the
/// plan tier, as a client iterating over one matrix would.
const MATRICES_PER_SIZE: usize = 4;
const SPARSITY: f64 = 0.9;

pub struct Item {
    req: ServeRequest,
    reference: Arc<Reference>,
    /// Due time from the start of the schedule.
    due: Duration,
}

/// Build the request schedule for `seconds` of arrivals from the seed.
pub fn schedule(seed: u64, seconds: f64, tr: &mut Tracer) -> Vec<Item> {
    let ticks = (seconds * TICKS_PER_S).ceil().max(1.0) as usize;
    let mut rng = Rng::new(seed);
    let span = tr.open("sparse.gen", 0);
    let pool: Vec<Vec<adapter::Matrix>> = SIZES
        .iter()
        .map(|&n| {
            (0..MATRICES_PER_SIZE)
                .map(|_| adapter::gen_matrix(n, SPARSITY, rng.next_u64()))
                .collect()
        })
        .collect();
    tr.close(span);
    let mut repeats = Deck::new(REPEAT_DECK);
    let mut sizes = Deck::new(SIZE_DECK);
    let mut kernels = Deck::new(KERNEL_DECK);
    let mut items: Vec<Item> = Vec::with_capacity(ticks * TENANTS);
    for i in 0..ticks * TENANTS {
        let tenant = i % TENANTS;
        let due = Duration::from_secs_f64((i / TENANTS) as f64 / TICKS_PER_S);
        if repeats.deal(&mut rng) && !items.is_empty() {
            let orig = &items[rng.below(items.len())];
            let item =
                Item { req: orig.req.with_tenant(tenant), reference: orig.reference.clone(), due };
            items.push(item);
            continue;
        }
        let span = tr.open("sparse.gen", i as u64);
        let m = &pool[sizes.deal(&mut rng)][rng.below(MATRICES_PER_SIZE)];
        let kernel = kernels.deal(&mut rng);
        let x = match kernel {
            ServeKernel::Spmv => adapter::gen_dense(m.rows(), rng.next_u64()),
            _ => adapter::gen_sparse(m.rows(), SPARSITY, rng.next_u64()),
        };
        let reference = Arc::new(adapter::reference(m, &x));
        tr.close(span);
        items.push(Item { req: adapter::serve_request(tenant, kernel, m, &x), reference, due });
    }
    items
}

/// One timed open-loop phase.
#[derive(Default)]
pub struct Phase {
    /// Per request: completion minus due time if it was answered
    /// correctly.
    pub latencies_ms: Vec<Option<f64>>,
    /// Send minus due time, for every request.
    pub late_ms: Vec<f64>,
    /// Requests due but not yet sent at each `run_stream` call, with the
    /// call's offset from the schedule start.
    pub backlog: Vec<(Duration, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub passes: Passes,
    pub counters: ServeCounters,
    pub verify: Duration,
}

/// Send `items` on their schedule; each `run_stream` call gets every
/// request that is due and not yet sent. Outputs are checked after the
/// schedule ends, so checking never delays the generator.
pub fn run_phase(server: &mut Server, items: &[Item], tr: &mut Tracer) -> Phase {
    let mut ph = Phase { latencies_ms: vec![None; items.len()], ..Phase::default() };
    let before = server.counters();
    let mut replies: Vec<Option<ServeReply>> = (0..items.len()).map(|_| None).collect();
    let start = Instant::now();
    let mut next = 0usize;
    while next < items.len() {
        let now = start.elapsed();
        if items[next].due > now {
            std::thread::sleep(items[next].due - now);
            continue;
        }
        let end = next + items[next..].iter().take_while(|it| it.due <= now).count();
        ph.backlog.push((now, end - next));
        let batch: Vec<ServeRequest> = items[next..end].iter().map(|it| it.req.clone()).collect();
        for it in &items[next..end] {
            ph.late_ms.push(ms_after(it.due, now));
        }
        let span = tr.open("serve.run_stream", next as u64);
        let out = catch_unwind(AssertUnwindSafe(|| server.run_stream(&batch)));
        tr.close(span);
        let done = start.elapsed();
        match out {
            Ok((rs, passes)) => {
                ph.passes.sim.add(&passes.sim);
                ph.passes.sched.add(&passes.sched);
                ph.passes.host.extend(passes.host);
                for (k, r) in rs.into_iter().enumerate() {
                    replies[next + k] = Some(r);
                }
            }
            Err(_) => ph.errors.push(format!("run_stream panicked on requests {next}..{end}")),
        }
        for (k, it) in items[next..end].iter().enumerate() {
            if replies[next + k].is_some() {
                ph.latencies_ms[next + k] = Some(ms_after(it.due, done));
            }
        }
        next = end;
    }
    ph.counters = server.counters().since(&before);

    let t0 = Instant::now();
    let span = tr.open("bench.verify", 0);
    for (i, (it, r)) in items.iter().zip(&replies).enumerate() {
        ph.attempted += 1;
        let verdict = match r {
            None => Err("no reply".to_string()),
            Some(r) => check::check(&r.y, &it.reference),
        };
        if let Err(e) = verdict {
            ph.failed += 1;
            ph.latencies_ms[i] = None;
            ph.errors.push(format!("request {i}: {e}"));
        }
    }
    tr.close(span);
    ph.verify = t0.elapsed();
    ph
}

/// Milliseconds from `due` to `at` (0 if `at` is earlier).
pub fn ms_after(due: Duration, at: Duration) -> f64 {
    at.saturating_sub(due).as_secs_f64() * 1e3
}

/// Send a few requests of a separate schedule in one call and check them,
/// so that the fabric pool and worker threads are warm before timing.
pub fn warm_up(server: &mut Server, seed: u64) -> Result<(), String> {
    let items = schedule(seed ^ 0x5741_524D, 2.0 / TICKS_PER_S, &mut Tracer::new(false));
    let reqs: Vec<ServeRequest> = items.iter().map(|it| it.req.clone()).collect();
    let (replies, _) = server.run_stream(&reqs);
    for (it, r) in items.iter().zip(&replies) {
        check::check(&r.y, &it.reference)?;
    }
    Ok(())
}

/// Whether the backlog grew over the run: the mean backlog of the last
/// third of the schedule exceeds that of the first third by more than
/// half, plus one tick of arrivals.
pub fn backlog_growing(backlog: &[(Duration, usize)]) -> bool {
    let Some(&(end, _)) = backlog.last() else { return false };
    let third = end / 3;
    let mean = |sel: &dyn Fn(Duration) -> bool| {
        let v: Vec<f64> = backlog.iter().filter(|(t, _)| sel(*t)).map(|&(_, b)| b as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let first = mean(&|t| t <= third);
    let last = mean(&|t| t >= end - third);
    last > 1.5 * first + TENANTS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        // A request due at 40 ms, sent late at 55 ms and answered at 70 ms
        // has waited 30 ms, of which 15 ms were the generator's lateness.
        let ms = Duration::from_millis;
        assert_eq!(ms_after(ms(40), ms(70)), 30.0);
        assert_eq!(ms_after(ms(40), ms(55)), 15.0);
        // Sent on time: no lateness.
        assert_eq!(ms_after(ms(40), ms(40)), 0.0);
        assert_eq!(ms_after(ms(40), ms(39)), 0.0);
        // Sub-millisecond waits keep their digits.
        assert_eq!(ms_after(Duration::from_micros(1_000), Duration::from_micros(1_250)), 0.25);
    }

    #[test]
    fn due_times_follow_the_tick_schedule() {
        let mut tr = Tracer::new(false);
        let items = schedule(3, 0.2, &mut tr);
        assert_eq!(items.len(), 5 * TENANTS);
        for (i, it) in items.iter().enumerate() {
            let want = Duration::from_secs_f64((i / TENANTS) as f64 / TICKS_PER_S);
            assert_eq!(it.due, want);
        }
    }

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let mut tr = Tracer::new(false);
        let bits = |items: &[Item]| -> Vec<(Duration, Vec<u32>)> {
            items
                .iter()
                .map(|it| (it.due, it.reference.y.iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        let a = bits(&schedule(11, 0.2, &mut tr));
        assert_eq!(a, bits(&schedule(11, 0.2, &mut tr)));
        assert_ne!(a, bits(&schedule(12, 0.2, &mut tr)));
    }

    #[test]
    fn backlog_growth_flag() {
        let ms = Duration::from_millis;
        let steady: Vec<_> = (0..30).map(|k| (ms(40 * k), TENANTS)).collect();
        assert!(!backlog_growing(&steady));
        let growing: Vec<_> = (0..30).map(|k| (ms(40 * k), TENANTS * (1 + k as usize))).collect();
        assert!(backlog_growing(&growing));
        assert!(!backlog_growing(&[]));
    }
}
