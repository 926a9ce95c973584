//! The pre-fabric single-tile cycle loop, kept verbatim as the
//! differential reference for the port-based [`Fabric`](crate::fabric).
//!
//! [`LegacySystem`] owns one [`Core`], one [`Hht`] and one private
//! single-ported [`Sram`] and couples them with the original lock-step
//! loop (CPU steps first each cycle, then the HHT). It is not used by the
//! runners or the experiment drivers — [`crate::system::System`] wraps a
//! 1-tile fabric instead — but `tests/determinism.rs` proves the 1-tile
//! fabric cycle-, stats- and event-identical to this machine, which pins
//! the refactor to the seed behaviour.

use crate::config::{Scheduler, SystemConfig};
use crate::system::{FaultSummary, SystemStats};
use hht_accel::{Hht, Wake};
use hht_fault::{FaultKind, FaultPlan};
use hht_isa::Program;
use hht_mem::Sram;
use hht_obs::{merge_events, Event, EventBus, EventKind, Track};
use hht_sim::{Core, RunError};
use hht_sparse::DenseVector;

/// A CPU + HHT + private SRAM instance executing one program — the
/// pre-fabric machine.
pub struct LegacySystem {
    core: Core,
    hht: Hht,
    sram: Sram,
    cycle: u64,
    max_cycles: u64,
    cycle_skip: bool,
    /// Pending fault schedule (`None` once drained or when injection is
    /// disabled). The next pending cycle bounds every fast-forward so no
    /// injection point is skipped over.
    fault_plan: Option<FaultPlan>,
    faults_injected: u64,
    /// The system's own event sink (fault-injection timeline).
    obs: Option<Box<EventBus>>,
}

impl LegacySystem {
    /// Build a system: the SRAM must already hold the problem image. When
    /// `cfg.trace` asks for it, event buses are installed on the core, the
    /// HHT and the SRAM port (sinks never change simulated timing).
    pub fn new(cfg: &SystemConfig, program: Program, mut sram: Sram) -> Self {
        let mut core = Core::new(cfg.core, program);
        let mut hht = Hht::new(cfg.hht);
        let mut obs = None;
        if cfg.trace.events {
            let bus = || EventBus::with_sampling(cfg.trace.event_capacity, cfg.trace.sample_every);
            core.set_event_bus(bus());
            hht.set_event_bus(bus());
            sram.set_event_bus(bus());
            obs = Some(Box::new(bus()));
        }
        if cfg.trace.instr_trace {
            core.enable_trace_with_capacity(cfg.trace.instr_trace_capacity);
        }
        let plan = FaultPlan::from_seed(cfg.fault, sram.size());
        LegacySystem {
            core,
            hht,
            sram,
            cycle: 0,
            max_cycles: cfg.core.max_cycles,
            cycle_skip: cfg.scheduler == Scheduler::EventQueue,
            fault_plan: (!plan.is_empty()).then_some(plan),
            faults_injected: 0,
            obs,
        }
    }

    /// Install an explicit fault schedule (replacing any seed-derived one).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
    }

    /// Advance one cycle: CPU first (port priority), then the HHT.
    pub fn step(&mut self) {
        self.core.step(self.cycle, &mut self.sram, &mut self.hht);
        self.hht.step(self.cycle, &mut self.sram);
        self.cycle += 1;
    }

    /// Apply every fault-plan event due at or before the current cycle.
    /// Runs at the top of the run loop, so an injection at cycle `t`
    /// perturbs state *before* cycle `t` executes — in both the per-cycle
    /// and the cycle-skipping loop (fast-forward never jumps past the next
    /// pending injection cycle).
    fn inject_due_faults(&mut self) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let now = self.cycle;
        let due: Vec<FaultKind> = plan.take_due(now).iter().map(|e| e.kind).collect();
        if plan.remaining() == 0 {
            self.fault_plan = None;
        }
        for kind in due {
            self.apply_fault(now, kind);
        }
    }

    /// Inject one fault into the machine and record it.
    fn apply_fault(&mut self, now: u64, kind: FaultKind) {
        let applied = match kind {
            FaultKind::SramBitFlip { addr, bit } => self.sram.corrupt_word(addr, bit),
            FaultKind::DropResponse => self.hht.drop_response(),
            FaultKind::DelayResponse { cycles } => {
                self.hht.delay_responses(now, cycles);
                true
            }
            FaultKind::EngineStall { cycles } => {
                self.hht.freeze_engine(now, cycles);
                true
            }
            FaultKind::BufferCorrupt { bit } => self.hht.corrupt_buffer(now, bit),
            FaultKind::MmrStickyError => {
                self.hht.set_sticky_error();
                true
            }
            // The legacy single-tile machine has no fault domains to
            // quarantine; a kill is the sticky-error failure it models.
            FaultKind::TileKill => {
                self.hht.set_sticky_error();
                true
            }
        };
        if applied {
            self.faults_injected += 1;
            if let Some(obs) = self.obs.as_mut() {
                obs.emit(now, Track::Fault, EventKind::FaultInject { what: kind.label() });
            }
        }
    }

    /// Run to `ebreak`. Returns the collected statistics.
    ///
    /// Errors on guest faults and on watchdog expiry
    /// ([`RunError::Watchdog`]), so a deadlocked configuration fails one
    /// experiment cell instead of aborting a whole parallel sweep.
    ///
    /// Under [`Scheduler::EventQueue`] (the default) the loop is
    /// event-driven: after each stepped cycle it asks every component for
    /// its next wake cycle and fast-forwards `self.cycle` over spans where all of them are
    /// provably inert, charging the span to the same counters the per-cycle
    /// loop would have recorded. Cycle counts, stats and obs event streams
    /// are bit-identical between the two modes (see `tests/determinism.rs`).
    pub fn run(&mut self) -> Result<SystemStats, RunError> {
        while !self.core.halted() {
            self.inject_due_faults();
            self.step();
            if self.cycle >= self.max_cycles {
                return Err(RunError::Watchdog(self.max_cycles));
            }
            if self.cycle_skip {
                self.fast_forward();
                // A skipped span may land exactly on the watchdog limit (a
                // detected deadlock jumps straight there); expire before
                // stepping a cycle the per-cycle loop never executes.
                if self.cycle >= self.max_cycles {
                    return Err(RunError::Watchdog(self.max_cycles));
                }
            }
        }
        if let Some(e) = self.core.error() {
            return Err(e);
        }
        Ok(self.stats())
    }

    /// Advance `self.cycle` to the earliest cycle at which any component can
    /// act. Skipped spans are exactly the cycles the per-cycle loop would
    /// have burned ticking inert components:
    ///
    /// - the core returns from `step` immediately while `now < busy_until`;
    ///   its two runnable retry states — parked on an empty stream window,
    ///   or losing SRAM-port arbitration to an in-flight HHT burst — fail
    ///   provably until the engine pushes (resp. the port frees), and their
    ///   per-cycle charges are replayed in bulk by `Core::skip_hht_wait` /
    ///   `Core::skip_port_wait`;
    /// - the HHT charges `busy_cycles` per cycle while an engine waits on a
    ///   memory read, plus its state's retry counters (`stall_out_full`
    ///   while output-blocked, `port_conflicts` + an SRAM conflict while
    ///   port-starved) — replayed in bulk by `Hht::skip_idle`;
    /// - obs event *transitions* only ever fire on stepped cycles (a span
    ///   with no state change emits nothing), and the per-retry-cycle SRAM
    ///   conflict events are replayed with their original stamps, so event
    ///   streams stay bit-identical.
    fn fast_forward(&mut self) {
        let now = self.cycle;
        let Some(core_at) = self.core.next_event(now) else {
            return; // halted: the run loop exits next check
        };
        // Classify the core before the (costlier) HHT hint: busy until a
        // known cycle, runnable (nothing to skip), or runnable-but-blocked
        // on a provably failing retry.
        let mut window_read = None;
        let mut port_free = None;
        if core_at <= now {
            if let Some(addr) = self.core.pending_hht_read(now) {
                if !self.hht.window_read_would_stall(addr, now) {
                    return; // the pop succeeds this cycle
                }
                window_read = Some(addr);
            } else {
                match self.sram.next_event(now) {
                    Some(free_at) if self.core.pending_port_access(now) => {
                        if free_at <= now + 1 {
                            return; // a 1-cycle skip costs more than a step
                        }
                        port_free = Some(free_at);
                    }
                    _ => return, // the core acts this cycle
                }
            }
        } else if core_at <= now + 1 {
            // The core resumes next cycle, capping any span at 1 — not
            // worth the hint computations below.
            return;
        }
        let hht_wake = self.hht.next_event(now);
        // When the engine can next change state, or `None` when only a CPU
        // action (popping a full FIFO) — or nothing at all — can unblock it.
        let hht_bound = match hht_wake {
            Wake::At(t) => Some(t),
            // Wants the port: issues the moment it frees.
            Wake::NeedsPort { .. } => Some(self.sram.next_event(now).unwrap_or(now)),
            Wake::OutputBlocked | Wake::Never => None,
        };
        let target = if let Some(free_at) = port_free {
            // Core losing arbitration: the holder is the engine's in-flight
            // burst, so core and engine both resume at the port's free
            // cycle.
            hht_bound.map_or(free_at, |t| t.min(free_at))
        } else if let Some(addr) = window_read {
            // Core parked on an empty window: only the engine can unpark
            // it; every cycle until then is one failing retry on the core
            // side and one idle cycle on the engine side. With no engine
            // wake bound this is a true deadlock (the parked core can never
            // pop the FIFO an output-blocked engine waits on) — jump
            // straight to the watchdog limit, both retry counters replayed.
            let mut t = hht_bound.unwrap_or(self.max_cycles);
            // A delayed response (fault) can make a window with buffered
            // data stall: the pop succeeds the moment the delay expires,
            // possibly before any engine wake.
            if let Some(ready) = self.hht.window_ready_at(addr, now) {
                t = t.min(ready);
            }
            // The timeout protocol fires mid-wait: stop the span at the
            // cycle whose stalled retry trips it, so the timeout path
            // executes on a stepped cycle exactly as in the legacy loop.
            if let Some(bound) = self.core.hht_timeout_bound(now) {
                t = t.min(bound);
            }
            t
        } else {
            // Core busy until `core_at`; the engine may wake earlier.
            hht_bound.map_or(core_at, |t| t.min(core_at))
        };
        // Never jump past a pending fault injection: the run loop applies
        // it before stepping that cycle, identically in both modes.
        let target = match self.fault_plan.as_ref().and_then(FaultPlan::next_cycle) {
            Some(fault_at) => target.min(fault_at),
            None => target,
        };
        if target <= now + 1 {
            return; // nothing to skip (or a 1-cycle span: cheaper to step)
        }
        let span = (target - now).min(self.max_cycles.saturating_sub(now));
        self.hht.skip_idle(now, span, &mut self.sram);
        if let Some(addr) = window_read {
            self.core.skip_hht_wait(now, span, addr);
            self.hht.skip_stalled_reads(span);
        } else if port_free.is_some() {
            self.core.skip_port_wait(now, span, &mut self.sram);
        }
        self.cycle = now + span;
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            cycles: self.cycle,
            core: self.core.stats(),
            hht: self.hht.stats(),
            sram: self.sram.stats(),
            faults: FaultSummary { injected: self.faults_injected, ..FaultSummary::default() },
        }
    }

    /// Read the output vector from SRAM after a run.
    pub fn read_output(&self, y_base: u32, n: usize) -> DenseVector {
        DenseVector::from(self.sram.read_f32s(y_base, n))
    }

    /// Borrow the memory (for test inspection).
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Borrow the core (for test inspection).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Drain every component's event stream into one cycle-ordered
    /// timeline (empty when the system was built without event sinks).
    pub fn take_events(&mut self) -> Vec<Event> {
        let system = self.obs.as_mut().map(|b| b.take_events()).unwrap_or_default();
        merge_events(vec![
            self.core.take_events(),
            self.hht.take_events(),
            self.sram.take_events(),
            system,
        ])
    }

    /// Drain the event streams and render them as Chrome trace-event JSON.
    pub fn chrome_trace_json(&mut self) -> String {
        hht_obs::chrome::chrome_trace_json(&self.take_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_isa::asm::assemble;

    #[test]
    fn trivial_program_runs() {
        let cfg = SystemConfig::paper_default();
        let sram = Sram::new(cfg.ram_size, cfg.ram_word_cycles);
        let p = assemble("li a0, 1\nebreak").unwrap();
        let mut sys = LegacySystem::new(&cfg, p, sram);
        let stats = sys.run().unwrap();
        assert!(stats.cycles >= 2);
        assert_eq!(stats.core.instructions, 2);
    }
}
