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
//! cargo run --release -p vip-bench --bin table3 -- --check # full run against the golden
//! ```
//!
//! The four sequences run concurrently on the `vip-par` pool
//! (`VIP_THREADS` workers) and print in sequence order, so every column
//! but the wall-clock `harness` one is identical at any thread count.
//! `--check` compares those columns, bit for bit, with
//! `tests/golden/table3.txt` and exits 1 on any difference.

use vip_bench::{fmt_minutes, run_table3_row, table3_golden, table3_rows_to_json};
use vip_video::TestSequence;

/// The committed full-CIF rows `--check` compares against.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/table3.txt");

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let check = std::env::args().any(|a| a == "--check");
    if quick && check {
        eprintln!("table3: --check compares the full CIF rows; drop --quick");
        std::process::exit(2);
    }
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

    let rows = vip_par::map(&TestSequence::table3(), vip_par::default_threads(), |seq| {
        run_table3_row(seq, scale)
    });
    for row in &rows {
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
    }
    if json {
        let path = "table3.json";
        std::fs::write(path, table3_rows_to_json(&rows)).expect("write table3.json");
        println!("\nwrote machine-readable rows to {path}");
    }
    let avg = rows.iter().map(|row| row.speedup()).sum::<f64>() / rows.len() as f64;
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

    if check {
        let want = std::fs::read_to_string(GOLDEN).expect("read tests/golden/table3.txt");
        let got = table3_golden(&rows);
        if got != want {
            eprintln!("\ntable3 --check: rows differ from tests/golden/table3.txt");
            eprintln!("--- golden\n{want}+++ this run\n{got}");
            std::process::exit(1);
        }
        println!("\ntable3 --check: rows match tests/golden/table3.txt");
    }
}
