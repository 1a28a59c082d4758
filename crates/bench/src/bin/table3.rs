//! Regenerates **Table 3**: MPEG-7-style global motion estimation over
//! the four test sequences — modelled Pentium-M software time vs modelled
//! AddressEngine (FPGA) time, with AddressLib call counts.
//!
//! The original MPEG-1 clips are replaced by synthetic CIF sequences with
//! scripted ground-truth camera motion (see `vip-video`); the GME runs
//! for real, frame by frame, dispatching every pixel pass through the
//! simulated engine, whose timing model accumulates the FPGA column while
//! the calibrated PM cost model accumulates the software column.
//!
//! ```text
//! cargo run --release -p vip-bench --bin table3            # full CIF run
//! cargo run --release -p vip-bench --bin table3 -- --quick # 88×72, 12 frames
//! ```

use vip_bench::{fmt_minutes, run_table3_row, table3_rows_to_json};
use vip_video::TestSequence;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let scale = quick.then_some((88, 72, 12));
    if quick {
        println!("(quick mode: 88x72 frames, 12 per sequence — shapes, not magnitudes)\n");
    }

    println!(
        "============================== Table 3 — GME runtimes =============================="
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "Video",
        "frames",
        "Time PM",
        "Time FPGA",
        "speedup",
        "intra",
        "inter",
        "gt-err px",
        "harness"
    );

    // Paper reference rows for comparison.
    let paper = [
        ("singapore", 275.0, 64.0, 4542u64, 3173u64),
        ("dome", 328.0, 73.0, 4931, 3404),
        ("pisa", 745.0, 141.0, 9294, 6541),
        ("movie", 322.0, 65.0, 4070, 3085),
    ];

    let mut speedups = Vec::new();
    let mut rows = Vec::new();
    for seq in TestSequence::table3() {
        let row = run_table3_row(&seq, scale);
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>7.2}x {:>8} {:>8} {:>9.3} {:>8.1}s",
            row.name,
            row.frames,
            fmt_minutes(row.pm_seconds),
            fmt_minutes(row.fpga_seconds),
            row.speedup(),
            row.intra_calls,
            row.inter_calls,
            row.mean_truth_error,
            row.harness_seconds,
        );
        speedups.push(row.speedup());
        rows.push(row);
    }
    if json {
        let path = "table3.json";
        std::fs::write(path, table3_rows_to_json(&rows)).expect("write table3.json");
        println!("\nwrote machine-readable rows to {path}");
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("\naverage speedup: {avg:.2}x   (paper: ≈5x over a 1.6 GHz Pentium-M)");

    println!("\npaper reference rows:");
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "Video", "Time PM", "Time FPGA", "speedup", "intra", "inter"
    );
    for (name, pm, fpga, intra, inter) in paper {
        println!(
            "{name:<10} {:>10} {:>10} {:>7.2}x {intra:>8} {inter:>8}",
            fmt_minutes(pm),
            fmt_minutes(fpga),
            pm / fpga
        );
    }
    println!(
        "\nnotes: times are model-derived (PM cost model / engine timeline), call counts are\n\
         real dispatch counts from the GME run; 'gt-err' is the mean translation error against\n\
         the synthetic sequences' scripted ground truth; 'harness' is this simulation's own\n\
         wall-clock time."
    );
}
