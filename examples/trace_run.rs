//! Observability demo: per-cause stall attribution + Chrome trace export.
//!
//! ```text
//! cargo run --release --example trace_run
//! ```
//!
//! Runs the HHT SpMV kernel with the event sinks enabled, prints the
//! unified metrics snapshot's stall histogram (which sums exactly to the
//! coarse wait counters the paper's figures use), and writes a Chrome
//! trace-event JSON file to the system temp directory — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see the CPU stall
//! slices, HHT back-end activity, SRAM arbitration and buffer levels on
//! one cycle-accurate timeline.

use hht::obs::chrome::chrome_trace_json;
use hht::sparse::generate;
use hht::system::config::{SystemConfig, TraceConfig};
use hht::system::{runner, Job, JobError, Kernel};

fn main() -> Result<(), JobError> {
    let cfg = SystemConfig::paper_default().with_trace(TraceConfig::enabled());
    let m = generate::random_csr(96, 96, 0.6, 7);
    let v = generate::random_dense_vector(96, 8);
    let out = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &m, &v))?;

    let snap = out.stats.snapshot();
    snap.validate().expect("stall histogram must sum to the wait counters");

    println!("== HHT SpMV 96x96, {} cycles ==", snap.cycles);
    println!("stall attribution (cycles):");
    for (label, cycles) in snap.stalls.entries() {
        let pct = 100.0 * cycles as f64 / snap.cycles as f64;
        println!("  {label:<18} {cycles:>8}  ({pct:5.1}% of run)");
    }
    println!(
        "  cpu hht wait       {:>8}  (== hht_window_empty + hht_header_wait)",
        snap.core.hht_wait_cycles
    );
    println!("  port arb losses    {:>8}  (== arbitration_loss)", snap.core.mem_port_stall_cycles);

    let trace_path = std::env::temp_dir().join("hht_trace.json");
    std::fs::write(&trace_path, chrome_trace_json(&out.events)).expect("write trace");
    println!(
        "\n{} events captured; Chrome trace written to {}",
        out.events.len(),
        trace_path.display()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
