//! `vipctl` — command-line front end to the AddressEngine reproduction.
//!
//! ```text
//! vipctl info
//! vipctl render <singapore|dome|pisa|movie> --frames N --width W --height H --out clip.y4m
//! vipctl gme <sequence> [--frames N] [--size WxH] [--software] [--mosaic out.pgm]
//! vipctl segment --tolerance T [--size WxH] [--out labels.pgm]
//! vipctl trace <intra|inter|gme> [--size WxH] [--frames N] --out trace.json
//! vipctl trace-diff <a.json> <b.json> [--threshold PCT]
//! vipctl stats <intra|inter|gme> [--size WxH] [--frames N] [--format json]
//! vipctl report <intra|inter|gme> [--size WxH] [--frames N] [--format json]
//! vipctl check [--root DIR]
//! ```
//!
//! `trace` writes a Chrome trace-event JSON file loadable in Perfetto
//! (<https://ui.perfetto.dev>); `trace-diff` aligns two exported traces
//! and reports per-track busy-time and event-count deltas. `stats`
//! prints the engine metrics registry; `report` adds the cycle
//! attribution: per-track utilization, process-unit stall causes, ZBT
//! bank duty, the PCI/host/engine split of every call second, and the
//! Amdahl decomposition reproducing the paper's ×30-bound-vs-×5-measured
//! gap.

use std::collections::HashMap;
use std::error::Error;
use std::process::ExitCode;

use vip::core::accounting::CallDescriptor;
use vip::core::addressing::labeling::label_all_segments;
use vip::core::addressing::segment::SegmentOptions;
use vip::core::frame::Frame;
use vip::core::geometry::Dims;
use vip::core::neighborhood::Connectivity;
use vip::core::ops::arith::AbsDiff;
use vip::core::ops::filter::SobelGradient;
use vip::core::ops::segment_ops::HomogeneityCriterion;
use vip::core::pixel::{ChannelSet, Pixel};
use vip::engine::report::keys;
use vip::engine::{AddressEngine, EngineConfig, Recording, Registry, ResourceEstimate, Session};
use vip::gme::{EngineBackend, GmeBackend, GmeConfig, SequenceRunner, SoftwareBackend};
use vip::video::io::{write_pgm, Y4mWriter};
use vip::video::TestSequence;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vipctl: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  vipctl info
  vipctl render <sequence> [--frames N] [--size WxH] [--out clip.y4m]
  vipctl gme <sequence> [--frames N] [--size WxH] [--software] [--mosaic out.pgm]
  vipctl segment [--tolerance T] [--size WxH] [--out labels.pgm]
  vipctl trace <scenario> [--size WxH] [--frames N] [--out trace.json]
  vipctl trace-diff <a.json> <b.json> [--threshold PCT]
  vipctl stats <scenario> [--size WxH] [--frames N] [--format json]
  vipctl report <scenario> [--size WxH] [--frames N] [--format json]
  vipctl check [--root DIR]
sequences: singapore | dome | pisa | movie
scenarios: intra (CIF Sobel, detailed) | inter (CIF AbsDiff, detailed) | gme";

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "info" => info(),
        "render" => render(args.get(1), &flags),
        "gme" => gme(args.get(1), &flags),
        "segment" => segment(&flags),
        "trace" => trace(args.get(1), &flags),
        "trace-diff" => trace_diff(args.get(1), args.get(2), &flags),
        "stats" => stats(args.get(1), &flags),
        "report" => report(args.get(1), &flags),
        "check" => check(&flags),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn parse_flags(rest: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(name) = rest[i].strip_prefix("--") {
            let value = rest
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string());
            if value != "true" {
                i += 1;
            }
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    flags
}

fn sequence_by_name(name: Option<&String>) -> Result<TestSequence, Box<dyn Error>> {
    match name.map(String::as_str) {
        Some("singapore") => Ok(TestSequence::singapore()),
        Some("dome") => Ok(TestSequence::dome()),
        Some("pisa") => Ok(TestSequence::pisa()),
        Some("movie") => Ok(TestSequence::movie()),
        Some(other) if !other.starts_with("--") => {
            Err(format!("unknown sequence `{other}`").into())
        }
        _ => Err("missing sequence name".into()),
    }
}

fn parse_size(flags: &HashMap<String, String>, default: Dims) -> Result<Dims, Box<dyn Error>> {
    match flags.get("size") {
        None => Ok(default),
        Some(s) => {
            let (w, h) = s
                .split_once(['x', 'X'])
                .ok_or("--size expects WxH, e.g. 176x144")?;
            let dims = Dims::new(w.parse()?, h.parse()?);
            if dims.is_empty() {
                return Err(format!("--size {s}: width and height must be at least 1").into());
            }
            Ok(dims)
        }
    }
}

fn scaled(
    seq: &TestSequence,
    flags: &HashMap<String, String>,
) -> Result<TestSequence, Box<dyn Error>> {
    let dims = parse_size(flags, Dims::new(176, 144))?;
    let frames: usize = flags
        .get("frames")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(12);
    if frames == 0 {
        return Err("--frames must be at least 1".into());
    }
    Ok(seq.scaled(dims.width, dims.height, frames))
}

fn info() -> Result<(), Box<dyn Error>> {
    let cfg = EngineConfig::prototype();
    println!("AddressEngine prototype configuration (DATE 2005):");
    println!(
        "  PCI          : {} × {} B = {:.0} MB/s",
        cfg.pci_clock,
        cfg.pci_bytes_per_cycle,
        cfg.pci_bandwidth() / 1e6
    );
    println!("  engine clock : {}", cfg.engine_clock);
    println!(
        "  ZBT          : {} banks × {} words = {} MB",
        cfg.zbt_banks,
        cfg.zbt_bank_words,
        cfg.zbt_bytes() / (1024 * 1024)
    );
    println!(
        "  strips       : {} lines   IIM/OIM: {}/{} lines",
        cfg.strip_lines, cfg.iim_lines, cfg.oim_lines
    );
    println!("  pipeline     : {} stages", cfg.pipeline_stages);
    println!(
        "  segment mode : {}",
        if cfg.segment_capable {
            "enabled"
        } else {
            "v2 outlook only"
        }
    );
    println!();
    println!("{}", ResourceEstimate::for_config(&cfg));
    Ok(())
}

fn render(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let seq = scaled(&sequence_by_name(name)?, flags)?;
    let default_out = format!("{}.y4m", seq.name());
    let out = flags.get("out").cloned().unwrap_or(default_out);
    if out.ends_with(".pgm") {
        write_pgm(&seq.render_frame(0), &out)?;
        println!("wrote first frame of {} to {out}", seq.name());
    } else {
        let mut w = Y4mWriter::create(&out, seq.dims(), 25)?;
        for f in seq.frames() {
            w.write_frame(&f)?;
        }
        let n = w.frames_written();
        w.into_inner()?;
        println!(
            "wrote {n} frames of {} ({}) to {out}",
            seq.name(),
            seq.dims()
        );
    }
    Ok(())
}

fn gme(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let seq = scaled(&sequence_by_name(name)?, flags)?;
    let use_software = flags.contains_key("software");
    let mut runner = SequenceRunner::new(GmeConfig::default());
    if flags.contains_key("mosaic") {
        runner = runner.with_mosaic(seq.dims().width as f64, seq.dims().height as f64 / 2.0);
    }

    let mut backend: Box<dyn GmeBackend> = if use_software {
        Box::new(SoftwareBackend::new())
    } else {
        Box::new(EngineBackend::prototype())
    };
    let report = runner.run(seq.frames(), backend.as_mut())?;

    println!(
        "{}: {} frames ({}), backend {}",
        seq.name(),
        report.frames,
        seq.dims(),
        backend.name()
    );
    println!(
        "  calls        : {} intra + {} inter",
        report.tally.intra, report.tally.inter
    );
    println!("  PM model     : {:.3} s", report.pm_seconds);
    if !use_software {
        println!(
            "  engine model : {:.3} s  (speedup {:.2}x)",
            report.backend_seconds,
            report.pm_seconds / report.backend_seconds
        );
    }
    let mut err = 0.0;
    for rec in &report.records {
        let truth = seq.script().ground_truth(rec.index - 1);
        let (dx, dy) = rec.relative.translation_part();
        err += ((dx - truth.dx).powi(2) + (dy - truth.dy).powi(2)).sqrt();
    }
    println!(
        "  ground truth : {:.3} px mean translation error",
        err / report.records.len().max(1) as f64
    );

    if let (Some(path), Some(mosaic)) = (flags.get("mosaic"), report.mosaic) {
        write_pgm(mosaic.canvas(), path)?;
        println!(
            "  mosaic       : {} canvas, {:.0} % covered → {path}",
            mosaic.canvas().dims(),
            mosaic.coverage() * 100.0
        );
    }
    Ok(())
}

fn segment(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let dims = parse_size(flags, Dims::new(96, 72))?;
    let tolerance: u8 = flags
        .get("tolerance")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(12);
    // Segment the first frame of the pisa stand-in.
    let seq = TestSequence::pisa().scaled(dims.width, dims.height, 1);
    let frame = seq.render_frame(0);
    let labelling = label_all_segments(
        &frame,
        &HomogeneityCriterion::luma(tolerance),
        SegmentOptions::default(),
    )?;
    println!(
        "segmented {} ({}): {} segments, largest {}, mean size {:.1}",
        seq.name(),
        dims,
        labelling.segment_count(),
        labelling.largest_segment(),
        labelling.mean_segment_size()
    );
    if let Some(path) = flags.get("out") {
        // Visualise labels as luma (scaled into 0..255).
        let n = labelling.segment_count().max(1) as u32;
        let vis = vip::core::frame::Frame::from_fn(dims, |p| {
            let label = u32::from(labelling.label_at(p));
            Pixel::from_luma((label * 255 / n) as u8)
        });
        write_pgm(&vis, path)?;
        println!("label map → {path}");
    }
    Ok(())
}

/// Runs an observability scenario with a recorder attached and returns
/// the finished recording, the engine's metrics registry, and the frame
/// dimensions the scenario processed.
fn run_scenario(
    name: Option<&String>,
    flags: &HashMap<String, String>,
) -> Result<(Recording, Registry, Dims), Box<dyn Error>> {
    let session = Session::new();
    match name.map(String::as_str) {
        Some(kind @ ("intra" | "inter")) => {
            let dims = parse_size(flags, Dims::new(352, 288))?;
            let mut engine = AddressEngine::new(EngineConfig::prototype_detailed())?;
            engine.set_recorder(session.recorder());
            let frame = Frame::from_fn(dims, |p| {
                Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
            });
            if kind == "intra" {
                engine.run_intra(&frame, &SobelGradient::new())?;
            } else {
                let shifted = Frame::from_fn(dims, |p| {
                    Pixel::from_luma(((p.x * 7 + p.y * 13 + 31) % 256) as u8)
                });
                engine.run_inter(&frame, &shifted, &AbsDiff::luma())?;
            }
            let registry = engine.metrics().clone();
            Ok((session.finish(), registry, dims))
        }
        Some("gme") => {
            let seq = scaled(&TestSequence::singapore(), flags)?;
            let dims = seq.dims();
            // Detailed fidelity so the report's stall buckets and ZBT
            // bank duty reflect simulated cycles, not just the schedule.
            let mut backend = EngineBackend::new(EngineConfig::prototype_detailed())?;
            backend.engine_mut().set_recorder(session.recorder());
            let runner =
                SequenceRunner::new(GmeConfig::default()).with_recorder(session.recorder());
            runner.run(seq.frames(), &mut backend)?;
            let registry = backend.engine().metrics().clone();
            Ok((session.finish(), registry, dims))
        }
        Some(other) if !other.starts_with("--") => {
            Err(format!("unknown scenario `{other}` (expected intra | inter | gme)").into())
        }
        _ => Err("missing scenario (intra | inter | gme)".into()),
    }
}

/// Parses the `--format` flag: plain text by default, `json` on request.
fn json_format(flags: &HashMap<String, String>) -> Result<bool, Box<dyn Error>> {
    match flags.get("format").map(String::as_str) {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(format!("unknown --format `{other}` (expected text | json)").into()),
    }
}

/// `vipctl check` — static schedule/hazard verification plus workspace
/// lints, exactly what the standalone `vip-check` binary runs.
fn check(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let root = match flags.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let mut dir = std::env::current_dir()?;
            loop {
                let manifest = dir.join("Cargo.toml");
                if std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("[workspace]")) {
                    break dir;
                }
                if !dir.pop() {
                    return Err("no workspace Cargo.toml found above the current directory \
                                (pass --root DIR)"
                        .into());
                }
            }
        }
    };
    println!("verifying workspace at {}", root.display());
    let report = vip::check::check_workspace(&root);
    println!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} invariant violation(s)", report.violations.len()).into())
    }
}

fn trace(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (recording, _, _) = run_scenario(name, flags)?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "trace.json".to_string());
    std::fs::write(&out, recording.to_chrome_json())?;
    let tracks: Vec<&str> = recording.tracks().iter().map(|t| t.name()).collect();
    println!(
        "wrote {} events on {} tracks ({}) to {out}",
        recording.len(),
        tracks.len(),
        tracks.join(", ")
    );
    println!("open in https://ui.perfetto.dev or chrome://tracing");
    Ok(())
}

fn stats(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (recording, registry, _) = run_scenario(name, flags)?;
    if json_format(flags)? {
        let mut w = vip::obs::json::JsonWriter::new();
        w.begin_object();
        w.key("scenario");
        w.string(name.map(String::as_str).unwrap_or_default());
        w.key("metrics");
        registry.write_json(&mut w);
        w.key("trace_events");
        w.u64(recording.len() as u64);
        w.key("trace_tracks");
        w.u64(recording.tracks().len() as u64);
        w.end_object();
        println!("{}", w.finish());
        return Ok(());
    }
    print!("{}", registry.text_table());
    println!();
    println!(
        "trace: {} events across {} tracks (use `vipctl trace` to export)",
        recording.len(),
        recording.tracks().len()
    );
    Ok(())
}

/// Percentage of `part` in `whole`, 0 when the whole is empty.
fn pct(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// The modelled software seconds of the calls a scenario issued — the
/// "Time in PM" side of the Table 3 comparison, reconstructed from the
/// per-mode call counters.
fn modelled_software_seconds(registry: &Registry, dims: Dims) -> f64 {
    let model = vip::profiling::CostModel::pentium_m_xm();
    let intra = CallDescriptor::intra(Connectivity::Con8, ChannelSet::Y, ChannelSet::Y);
    let inter = CallDescriptor::inter(ChannelSet::Y, ChannelSet::Y);
    let segment = CallDescriptor::segment(
        Connectivity::Con4,
        ChannelSet::Y,
        ChannelSet::ALPHA.union(ChannelSet::AUX),
    );
    registry.counter(keys::INTRA_CALLS) as f64
        * vip::profiling::software_call_seconds(&intra, dims, &model)
        + registry.counter(keys::INTER_CALLS) as f64
            * vip::profiling::software_call_seconds(&inter, dims, &model)
        + registry.counter(keys::SEGMENT_CALLS) as f64
            * vip::profiling::software_call_seconds(&segment, dims, &model)
}

/// `vipctl report` — the cycle-attribution view of one scenario: where
/// every engine second and every process-unit cycle went, plus the
/// Amdahl decomposition that connects the measurement to the paper's
/// ×30 bound and ×5 end-to-end observation.
fn report(name: Option<&String>, flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (recording, registry, dims) = run_scenario(name, flags)?;
    let attrib = vip::obs::Attribution::of(&recording);

    // Process-unit cycle buckets — a mutually exclusive partition.
    let pu_cycles = registry.counter(keys::PU_CYCLES);
    let buckets = [
        ("busy", registry.counter(keys::ATTRIB_PU_BUSY_CYCLES)),
        ("iim_stall", registry.counter(keys::PU_IIM_STALLS)),
        ("oim_stall", registry.counter(keys::PU_OIM_STALLS)),
        ("idle", registry.counter(keys::PU_IDLE_CYCLES)),
    ];

    // ZBT bank duty.
    let banks: Vec<u64> = (0..6)
        .map(|b| registry.counter(vip::engine::report::zbt_bank_key(b)))
        .collect();
    let bank_total: u64 = banks.iter().sum();

    // Call-second split.
    let total_s = registry.gauge(keys::BUSY_SECONDS);
    let split = [
        ("pci_input", registry.gauge(keys::ATTRIB_PCI_INPUT_SECONDS)),
        (
            "pci_output",
            registry.gauge(keys::ATTRIB_PCI_OUTPUT_SECONDS),
        ),
        (
            "host_overhead",
            registry.gauge(keys::ATTRIB_HOST_OVERHEAD_SECONDS),
        ),
        (
            "engine_nonpci",
            registry.gauge(keys::ATTRIB_ENGINE_NONPCI_SECONDS),
        ),
    ];

    // Amdahl decomposition: the workload-level offloadable fraction
    // (§1) against this scenario's measured coprocessor-side speedup.
    let model = vip::profiling::CostModel::pentium_m_xm();
    let mix = vip::profiling::segmentation_workload(Dims::new(352, 288));
    let prof = vip::profiling::profile::profile(&mix, &model);
    let ideal = vip::profiling::amdahl::ideal_speedup(prof.offloadable_fraction);
    let software_s = modelled_software_seconds(&registry, dims);
    let coproc = if total_s > 0.0 {
        software_s / total_s
    } else {
        0.0
    };
    let overall = vip::profiling::amdahl::amdahl(prof.offloadable_fraction, coproc);

    if json_format(flags)? {
        let mut w = vip::obs::json::JsonWriter::new();
        w.begin_object();
        w.key("scenario");
        w.string(name.map(String::as_str).unwrap_or_default());
        w.key("dims");
        w.string(&dims.to_string());
        w.key("attribution");
        attrib.write_json(&mut w);
        w.key("pu_cycles");
        w.begin_object();
        w.key("total");
        w.u64(pu_cycles);
        for (label, cycles) in &buckets {
            w.key(label);
            w.u64(*cycles);
        }
        w.end_object();
        w.key("zbt_bank_words");
        w.begin_array();
        for words in &banks {
            w.u64(*words);
        }
        w.end_array();
        w.key("call_seconds");
        w.begin_object();
        w.key("total");
        w.f64(total_s);
        for (label, seconds) in &split {
            w.key(label);
            w.f64(*seconds);
        }
        w.end_object();
        w.key("amdahl");
        w.begin_object();
        w.key("offloadable_fraction");
        w.f64(prof.offloadable_fraction);
        w.key("ideal_bound");
        w.f64(ideal);
        w.key("coprocessor_speedup");
        w.f64(coproc);
        w.key("overall_speedup");
        w.f64(overall);
        w.end_object();
        w.end_object();
        println!("{}", w.finish());
        return Ok(());
    }

    println!(
        "cycle attribution — {} ({dims})",
        name.map(String::as_str).unwrap_or_default()
    );
    println!();
    println!("track utilization (virtual-clock window)");
    print!("{}", attrib.text_table());
    println!();

    println!("process-unit cycle buckets");
    println!("{:<12} {:>14} {:>8}", "bucket", "cycles", "share");
    for (label, cycles) in &buckets {
        println!(
            "{:<12} {:>14} {:>7.2}%",
            label,
            cycles,
            pct(*cycles as f64, pu_cycles as f64)
        );
    }
    println!("{:<12} {:>14} {:>7.2}%", "total", pu_cycles, 100.0);
    println!(
        "matrix: {} loads, {} shifts",
        registry.counter(keys::PU_MATRIX_LOADS),
        registry.counter(keys::PU_MATRIX_SHIFTS)
    );
    println!();

    println!("ZBT bank duty (words moved, detailed calls)");
    for (bank, words) in banks.iter().enumerate() {
        println!(
            "bank{bank:<8} {:>14} {:>7.2}%",
            words,
            pct(*words as f64, bank_total as f64)
        );
    }
    println!();

    println!("call-second split");
    for (label, seconds) in &split {
        println!(
            "{:<14} {:>12.6} s {:>7.2}%",
            label,
            seconds,
            pct(*seconds, total_s)
        );
    }
    println!("{:<14} {:>12.6} s {:>7.2}%", "total", total_s, 100.0);
    println!();

    println!("Amdahl decomposition (segmentation workload profile, CIF, Pentium-M model)");
    println!(
        "offloadable fraction          : {:.4}",
        prof.offloadable_fraction
    );
    println!("ideal coprocessor bound (§1)  : {ideal:.1}x");
    println!("measured coprocessor speedup  : {coproc:.2}x  (modelled software {software_s:.4} s / engine {total_s:.4} s)");
    println!("overall Amdahl speedup (§5)   : {overall:.2}x");
    Ok(())
}

/// `vipctl trace-diff` — aligns two exported Chrome traces by track and
/// reports per-track busy-time and event-count deltas, flagging tracks
/// whose busy time moved beyond the threshold.
fn trace_diff(
    a: Option<&String>,
    b: Option<&String>,
    flags: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let (Some(a), Some(b)) = (a, b) else {
        return Err("trace-diff needs two trace files: vipctl trace-diff a.json b.json".into());
    };
    if a.starts_with("--") || b.starts_with("--") {
        return Err("trace-diff needs two trace files before any flags".into());
    }
    let threshold: f64 = flags
        .get("threshold")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(10.0)
        / 100.0;
    let doc_a = std::fs::read_to_string(a).map_err(|e| format!("{a}: {e}"))?;
    let doc_b = std::fs::read_to_string(b).map_err(|e| format!("{b}: {e}"))?;
    let diff = vip::obs::diff_chrome_traces(&doc_a, &doc_b)?;
    println!("trace diff: {a} → {b}");
    print!("{}", diff.text_table(threshold));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn flags(line: &str) -> HashMap<String, String> {
        parse_flags(&args(line))
    }

    #[test]
    fn parse_size_accepts_wxh_and_rejects_zero_dimensions() {
        let default = Dims::new(176, 144);
        assert_eq!(parse_size(&flags(""), default).unwrap(), default);
        assert_eq!(
            parse_size(&flags("--size 88x72"), default).unwrap(),
            Dims::new(88, 72)
        );
        assert_eq!(
            parse_size(&flags("--size 1X1"), default).unwrap(),
            Dims::new(1, 1)
        );
        for size in ["0x0", "0x72", "88x0"] {
            let err = parse_size(&flags(&format!("--size {size}")), default).unwrap_err();
            assert!(err.to_string().contains("--size"), "{size}: {err}");
        }
        let err = parse_size(&flags("--size 88"), default).unwrap_err();
        assert!(err.to_string().contains("--size"), "{err}");
    }

    #[test]
    fn scaled_rejects_zero_frames() {
        let seq = TestSequence::dome();
        let err = scaled(&seq, &flags("--frames 0")).unwrap_err();
        assert!(err.to_string().contains("--frames"), "{err}");
        let ok = scaled(&seq, &flags("--frames 2 --size 32x24")).unwrap();
        assert_eq!((ok.frame_count(), ok.dims()), (2, Dims::new(32, 24)));
    }

    #[test]
    fn zero_sized_requests_fail_before_any_work() {
        // Each of these used to panic (exit 101) or write an empty clip.
        for line in [
            "gme dome --frames 0",
            "gme dome --size 0x0",
            "render dome --size 0x0 --out unused.y4m",
            "render dome --frames 0 --out unused.y4m",
            "segment --size 0x8",
            "trace gme --frames 0 --out unused.json",
        ] {
            assert!(run(&args(line)).is_err(), "`vipctl {line}` must fail");
        }
        assert!(!std::path::Path::new("unused.y4m").exists());
    }
}
