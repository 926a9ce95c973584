//! DNN edge-inference scenario (the paper's motivating workload, §2/§5.4):
//! the fully-connected classifier layer of a quantized network running on
//! a microcontroller-class core, with and without the HHT, including the
//! §5.5 energy derivation.
//!
//! ```text
//! cargo run --release --example dnn_inference [network]
//! ```

use hht::energy::{energy_savings, ClockSpeed, ProcessNode};
use hht::sparse::{generate, SparseFormat};
use hht::system::config::SystemConfig;
use hht::system::{runner, Job, JobError, Kernel};
use hht::workloads::dnn;

fn main() -> Result<(), JobError> {
    let want = std::env::args().nth(1).unwrap_or_else(|| "MobileNet".to_string());
    let layer = dnn::suite()
        .into_iter()
        .find(|l| l.network.eq_ignore_ascii_case(&want))
        .unwrap_or_else(|| {
            eprintln!("unknown network {want}; available:");
            for l in dnn::suite() {
                eprintln!("  {}", l.network);
            }
            std::process::exit(2);
        });

    println!("network:      {}", layer.network);
    let weights = layer.weights();
    println!(
        "FC layer:     {}x{} weights, {:.0}% sparse ({} non-zeros)",
        weights.rows(),
        weights.cols(),
        weights.sparsity() * 100.0,
        weights.nnz()
    );

    // One inference = SpMV of the weight matrix against the activation
    // vector coming out of the backbone.
    let activations = generate::random_dense_vector(weights.cols(), 7);
    let cfg = SystemConfig::paper_default();
    let base = runner::run(&cfg, &Job::new(Kernel::SpmvBaseline, &weights, &activations))?;
    let hht = runner::run(&cfg, &Job::new(Kernel::SpmvHht, &weights, &activations))?;
    let speedup = base.stats.cycles as f64 / hht.stats.cycles as f64;
    println!("baseline:     {} cycles", base.stats.cycles);
    println!("with HHT:     {} cycles ({speedup:.2}x)", hht.stats.cycles);

    // §5.5 energy: at the synthesis corner (16 nm, 50 MHz MCU clock) the
    // core+HHT draws more power but finishes sooner.
    let e =
        energy_savings(base.stats.cycles, hht.stats.cycles, ProcessNode::N16, ClockSpeed::MHz50);
    println!(
        "power:        {:.0} uW core-only vs {:.0} uW core+HHT",
        e.baseline_power_w * 1e6,
        e.hht_power_w * 1e6
    );
    println!(
        "energy/infer: {:.2} nJ -> {:.2} nJ ({:+.1}% saved)",
        e.baseline_j * 1e9,
        e.hht_j * 1e9,
        e.savings() * 100.0
    );

    // Classification result: index of the max logit.
    let best = hht
        .y
        .as_slice()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty output");
    println!("argmax class: {best}");
    Ok(())
}
