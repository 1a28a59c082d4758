//! # vip-bench — table/figure regeneration harnesses
//!
//! Shared plumbing for the binaries that regenerate every table and
//! figure of the DATE 2005 AddressEngine paper:
//!
//! | binary          | regenerates                                        |
//! |-----------------|----------------------------------------------------|
//! | `table1`        | Table 1 — device utilisation + timing summary      |
//! | `table2`        | Table 2 — memory accesses software vs hardware     |
//! | `table3`        | Table 3 — GME runtimes PM vs FPGA + call counts    |
//! | `fig1`          | Fig. 1 — the three pixel-addressing schemes        |
//! | `fig2`          | Fig. 2 — architecture block diagram (textual)      |
//! | `fig3`          | Fig. 3 — ZBT memory distribution                   |
//! | `fig4`          | Fig. 4 — worst-case ⊥ neighbourhood, 1-cycle fetch |
//! | `fig5`          | Fig. 5/6 — PLC pipeline occupancy trace            |
//! | `speedup_bound` | §1 — the ×30 profiling bound                       |
//! | `pci_overhead`  | §4.1 — the 12.5 % special-inter overhead           |
//! | `ablation`      | design-choice sweeps (strip size, overlap, clock)  |

#![forbid(unsafe_code)]

use vip_gme::{EngineBackend, GmeConfig, SequenceRunner};
use vip_obs::json::JsonWriter;
use vip_video::TestSequence;

/// Formats seconds like the paper's Table 3 (`4'35''`).
#[must_use]
pub fn fmt_minutes(seconds: f64) -> String {
    let total = seconds.round() as u64;
    format!("{}'{:02}''", total / 60, total % 60)
}

/// One Table 3 row as produced by a GME run.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Sequence name.
    pub name: &'static str,
    /// Frames processed.
    pub frames: usize,
    /// Modelled Pentium-M software seconds ("Time in PM").
    pub pm_seconds: f64,
    /// Modelled AddressEngine seconds ("Time in FPGA").
    pub fpga_seconds: f64,
    /// Intra AddressLib calls.
    pub intra_calls: u64,
    /// Inter AddressLib calls.
    pub inter_calls: u64,
    /// Wall-clock seconds this harness spent simulating the row.
    pub harness_seconds: f64,
    /// Mean translation error against the scripted ground truth (px).
    pub mean_truth_error: f64,
}

impl Table3Row {
    /// Speedup PM / FPGA.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.fpga_seconds == 0.0 {
            return 0.0;
        }
        self.pm_seconds / self.fpga_seconds
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("name");
        w.string(self.name);
        w.key("frames");
        w.u64(self.frames as u64);
        w.key("pm_seconds");
        w.f64(self.pm_seconds);
        w.key("fpga_seconds");
        w.f64(self.fpga_seconds);
        w.key("speedup");
        w.f64(self.speedup());
        w.key("intra_calls");
        w.u64(self.intra_calls);
        w.key("inter_calls");
        w.u64(self.inter_calls);
        w.key("harness_seconds");
        w.f64(self.harness_seconds);
        w.key("mean_truth_error");
        w.f64(self.mean_truth_error);
        w.end_object();
    }
}

/// The Table 3 golden text (`tests/golden/table3.txt`, checked by
/// `table3 --check`): one line per row with the frames, the call counts
/// and the bits of `pm_seconds`, `fpga_seconds` and `mean_truth_error`.
/// The harness column is wall-clock time and is left out.
#[must_use]
pub fn table3_golden(rows: &[Table3Row]) -> String {
    let mut text =
        String::from("# video frames intra inter pm_seconds fpga_seconds gt_err_px (f64 bits)\n");
    for row in rows {
        text.push_str(&format!(
            "{} {} {} {} {:#018x} {:#018x} {:#018x}\n",
            row.name,
            row.frames,
            row.intra_calls,
            row.inter_calls,
            row.pm_seconds.to_bits(),
            row.fpga_seconds.to_bits(),
            row.mean_truth_error.to_bits(),
        ));
    }
    text
}

/// Serialises Table 3 rows to a JSON array (machine-readable `--json`
/// output), using the in-workspace writer instead of serde_json.
#[must_use]
pub fn table3_rows_to_json(rows: &[Table3Row]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for row in rows {
        row.write_json(&mut w);
    }
    w.end_array();
    w.finish()
}

/// Runs one sequence through GME on the engine backend and produces its
/// Table 3 row. `scale` optionally down-scales the sequence
/// (width, height, frames) for quick runs.
///
/// # Panics
///
/// Panics when the GME run fails (synthetic sequences are always valid).
#[must_use]
pub fn run_table3_row(seq: &TestSequence, scale: Option<(usize, usize, usize)>) -> Table3Row {
    let seq = match scale {
        Some((w, h, f)) => seq.scaled(w, h, f),
        None => seq.clone(),
    };
    let runner = SequenceRunner::new(GmeConfig::default());
    let mut backend = EngineBackend::prototype();
    let start = std::time::Instant::now();
    let report = runner
        .run(seq.frames(), &mut backend)
        .expect("synthetic sequence GME must succeed");
    let harness_seconds = start.elapsed().as_secs_f64();

    let mut err_sum = 0.0;
    for rec in &report.records {
        let truth = seq.script().ground_truth(rec.index - 1);
        let (edx, edy) = rec.relative.translation_part();
        err_sum += ((edx - truth.dx).powi(2) + (edy - truth.dy).powi(2)).sqrt();
    }
    let mean_truth_error = if report.records.is_empty() {
        0.0
    } else {
        err_sum / report.records.len() as f64
    };

    Table3Row {
        name: seq.name(),
        frames: seq.frame_count(),
        pm_seconds: report.pm_seconds,
        fpga_seconds: report.backend_seconds,
        intra_calls: report.tally.intra,
        inter_calls: report.tally.inter,
        harness_seconds,
        mean_truth_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_minutes_matches_paper_style() {
        assert_eq!(fmt_minutes(275.0), "4'35''");
        assert_eq!(fmt_minutes(64.0), "1'04''");
        assert_eq!(fmt_minutes(0.4), "0'00''");
        assert_eq!(fmt_minutes(745.0), "12'25''");
    }

    #[test]
    fn table3_json_round_trips_through_validator() {
        let rows = vec![Table3Row {
            name: "movie",
            frames: 4,
            pm_seconds: 1.5,
            fpga_seconds: 0.5,
            intra_calls: 10,
            inter_calls: 7,
            harness_seconds: 0.01,
            mean_truth_error: 0.25,
        }];
        let json = table3_rows_to_json(&rows);
        vip_obs::json::validate(&json).unwrap();
        assert!(json.contains("\"speedup\":3"), "{json}");
    }

    #[test]
    fn table3_golden_pins_every_column_but_the_harness_time() {
        let row = Table3Row {
            name: "dome",
            frames: 3,
            pm_seconds: 0.5,
            fpga_seconds: 0.125,
            intra_calls: 40,
            inter_calls: 27,
            harness_seconds: 1.0,
            mean_truth_error: 0.25,
        };
        let golden = table3_golden(std::slice::from_ref(&row));
        assert!(golden
            .ends_with("dome 3 40 27 0x3fe0000000000000 0x3fc0000000000000 0x3fd0000000000000\n"));
        let slower = Table3Row {
            harness_seconds: 9.0,
            ..row.clone()
        };
        assert_eq!(table3_golden(&[slower]), golden);
        let moved = Table3Row {
            mean_truth_error: 0.25 + f64::EPSILON,
            ..row
        };
        assert_ne!(table3_golden(&[moved]), golden);
    }

    /// The `table3 --quick` rows, pinned exactly: any change to the GME,
    /// the kernels or the timing models that moves the paper's headline
    /// fails here. Per sequence: frames, intra calls, inter calls, and the
    /// bits of `pm_seconds`, `fpga_seconds` and `mean_truth_error`. An
    /// intended change updates these values and EXPERIMENTS.md together.
    #[test]
    fn quick_row_produces_sane_numbers() {
        type Pin = (&'static str, usize, u64, u64, [u64; 3]);
        let pinned: [Pin; 4] = [
            (
                "singapore",
                12,
                150,
                93,
                [0x3fc8e19332cd31ce, 0x3faa96ed2a74f78d, 0x3fd75a58f03fce1c],
            ),
            (
                "dome",
                12,
                170,
                113,
                [0x3fd2366506bfe2af, 0x3fb338d27b55731e, 0x3fb3f3df60c853b5],
            ),
            (
                "pisa",
                12,
                162,
                105,
                [0x3fd1dea14dc30171, 0x3fb2b30910f9ae2e, 0x3fb77ce8ec74ed2d],
            ),
            (
                "movie",
                12,
                156,
                99,
                [0x3fccf8df449e9580, 0x3faebc7468e945c8, 0x3f941177466bc229],
            ),
        ];
        let sequences = TestSequence::table3();
        assert_eq!(sequences.len(), pinned.len());
        for (seq, (name, frames, intra, inter, bits)) in sequences.iter().zip(pinned) {
            let row = run_table3_row(seq, Some((88, 72, 12)));
            assert_eq!(row.name, name);
            assert_eq!(
                (row.frames, row.intra_calls, row.inter_calls),
                (frames, intra, inter),
                "{name} frames and calls"
            );
            let measured = [row.pm_seconds, row.fpga_seconds, row.mean_truth_error];
            assert_eq!(
                measured.map(f64::to_bits),
                bits,
                "{name} pm_seconds, fpga_seconds, mean_truth_error: {measured:?}"
            );
            assert!(
                row.speedup() > 1.0,
                "{name}: engine must win: {}",
                row.speedup()
            );
            assert!(
                row.mean_truth_error < 2.0,
                "{name}: {}",
                row.mean_truth_error
            );
        }
    }
}
