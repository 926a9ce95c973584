//! Calibration probe: prints the measured speedups and wait fractions at a
//! few parameter points so the free timing parameters of DESIGN.md §4 can
//! be tuned against the paper's bands.
//!
//! ```text
//! cargo run --release -p hht-bench --bin calibration [-- n]
//! ```

use hht_system::config::SystemConfig;
use hht_system::{experiments, Kernel};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let cfg = SystemConfig::paper_default();
    println!("== SpMV ({n}x{n}), VL=8 ==");
    println!(
        "{:>9} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9}",
        "sparsity", "base_cyc", "hht_cyc", "spd(1b)", "spd(2b)", "cpu_wait", "hht_wait"
    );
    for s in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let p1 = experiments::spmv_point(&cfg, n, s, 1);
        let p2 = experiments::spmv_point(&cfg, n, s, 2);
        println!(
            "{:>9.1} {:>12} {:>12} {:>8.3} {:>8.3} {:>9.4} {:>9.4}",
            s,
            p2.baseline_cycles,
            p2.hht_cycles,
            p1.speedup(),
            p2.speedup(),
            p2.cpu_wait_frac,
            p2.hht_wait_frac
        );
    }
    println!("\n== SpMSpV ({n}x{n}), VL=8, 2 buffers ==");
    println!(
        "{:>9} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "sparsity", "base_cyc", "spd(v1)", "spd(v2)", "wait(v1)", "wait(v2)"
    );
    for s in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let v1 = experiments::spmspv_point(&cfg, n, s, 2, Kernel::SpmspvHhtV1);
        let v2 = experiments::spmspv_point(&cfg, n, s, 2, Kernel::SpmspvHhtV2);
        println!(
            "{:>9.1} {:>12} {:>10.3} {:>10.3} {:>10.4} {:>10.4}",
            s,
            v1.baseline_cycles,
            v1.speedup(),
            v2.speedup(),
            v1.cpu_wait_frac,
            v2.cpu_wait_frac
        );
    }
    println!("\n== SpMV vector-width sensitivity ({n}x{n}, 2 buffers) ==");
    println!("{:>9} {:>10} {:>10} {:>10}", "sparsity", "VL=1", "VL=4", "VL=8");
    for s in [0.1, 0.5, 0.9] {
        let mut row = format!("{s:>9.1}");
        for vl in [1usize, 4, 8] {
            let p = experiments::spmv_point(&cfg.with_vlen(vl), n, s, 2);
            row += &format!(" {:>10.3}", p.speedup());
        }
        println!("{row}");
    }
}
