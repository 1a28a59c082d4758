//! Scenario sweeps: the verified configuration family and the
//! adversarial grid.
//!
//! [`must_pass_scenarios`] enumerates the configuration family the
//! workspace ships (prototype, cycle-stepped prototype, §5 outlook,
//! Table 1 f_max operating point, interleaved inter overlap, and the
//! gate-fraction ablations) crossed with frame dimensions from 1×1 up
//! to CIF and all four addressing modes — several hundred scenarios the
//! `vip-check` binary requires to verify clean.
//!
//! [`adversarial_scenarios`] is the complement: deliberately broken
//! configurations (oversubscribed PCI, an engine clock too slow for the
//! outbound DMA, an undersized IIM, a zero-capacity OIM, a mis-declared
//! pipeline depth, a disabled drain gate, an overflowing frame) that
//! the checker must reject *with a concrete witness each* — asserted by
//! the crate tests and by `tests/static_vs_detailed.rs`.

use vip_core::geometry::Dims;
use vip_engine::clock::ClockDomain;
use vip_engine::config::{EngineConfig, InterOverlap};

use crate::witness::{CallKind, Scenario};

/// Frame dimensions of the sweep: degenerate, small odd, strip-sized,
/// QCIF and CIF.
pub const SWEEP_DIMS: [(usize, usize); 7] = [
    (1, 1),
    (3, 3),
    (16, 16),
    (17, 5),
    (64, 48),
    (176, 144),
    (352, 288),
];

/// The configuration family the workspace must keep verification-clean.
#[must_use]
pub fn must_pass_configs() -> Vec<(&'static str, EngineConfig)> {
    let fmax = || EngineConfig {
        engine_clock: ClockDomain::engine_fmax(),
        ..EngineConfig::prototype()
    };
    vec![
        ("prototype", EngineConfig::prototype()),
        ("prototype-detailed", EngineConfig::prototype_detailed()),
        ("outlook-v2", EngineConfig::outlook_v2()),
        ("fmax", fmax()),
        (
            "interleaved",
            EngineConfig {
                inter_overlap: InterOverlap::Interleaved,
                ..EngineConfig::prototype()
            },
        ),
        (
            "fmax-interleaved",
            EngineConfig {
                inter_overlap: InterOverlap::Interleaved,
                ..fmax()
            },
        ),
        (
            "early-gate",
            EngineConfig {
                output_latency_fraction: 0.125,
                ..EngineConfig::prototype()
            },
        ),
        (
            "late-gate",
            EngineConfig {
                output_latency_fraction: 0.5,
                ..EngineConfig::prototype()
            },
        ),
    ]
}

/// The addressing modes swept for a frame of `dims`.
fn modes_for(dims: Dims) -> Vec<CallKind> {
    let n = dims.pixel_count() as u64;
    vec![
        CallKind::Intra { radius: 0 },
        CallKind::Intra { radius: 1 },
        CallKind::Intra { radius: 2 },
        CallKind::Intra { radius: 4 },
        CallKind::Inter,
        CallKind::Segment { pixels: 1 },
        CallKind::Segment { pixels: n / 2 },
        CallKind::Segment { pixels: n },
        CallKind::SegmentIndexed { entries: 1 },
        CallKind::SegmentIndexed {
            entries: n.div_ceil(4),
        },
    ]
}

/// The full must-pass sweep: family × dims × modes (> 500 scenarios).
#[must_use]
pub fn must_pass_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (label, config) in must_pass_configs() {
        for (w, h) in SWEEP_DIMS {
            let dims = Dims::new(w, h);
            for mode in modes_for(dims) {
                out.push(Scenario::new(label, config.clone(), dims, mode));
            }
        }
    }
    out
}

/// Deliberately broken configurations, each expected to produce at
/// least one violation with a concrete witness.
#[must_use]
pub fn adversarial_scenarios() -> Vec<Scenario> {
    let cif = Dims::new(352, 288);
    let mut out = Vec::new();

    // 133 MHz PCI doubles the DMA duty on the input banks: 1.0 + 0.5
    // accesses per engine cycle.
    let fast_pci = EngineConfig {
        pci_clock: ClockDomain::new("pci", 133e6),
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "fast-pci",
        fast_pci,
        cif,
        CallKind::Intra { radius: 1 },
    ));

    // A 33 MHz engine drains at half the outbound DMA rate: the read
    // pointer overtakes the drain (§3.1 ordering broken).
    let slow_engine = EngineConfig {
        engine_clock: ClockDomain::new("engine", 33e6),
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "slow-engine",
        slow_engine,
        cif,
        CallKind::Intra { radius: 1 },
    ));

    // Draining every cycle needs the full input-bank port: 0.5 + 1.0.
    let drain_one = EngineConfig {
        oim_drain_cycles_per_pixel: 1,
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "drain-1",
        drain_one,
        cif,
        CallKind::Intra { radius: 1 },
    ));

    // Three IIM line blocks cannot hold a radius-2 (five-line) window:
    // transmission unit and fetch stage deadlock.
    let tiny_iim = EngineConfig {
        iim_lines: 3,
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "tiny-iim",
        tiny_iim,
        Dims::new(32, 32),
        CallKind::Intra { radius: 2 },
    ));

    // A single line block is below the engine's structural minimum.
    let one_iim = EngineConfig {
        iim_lines: 1,
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "one-iim",
        one_iim,
        Dims::new(16, 16),
        CallKind::Intra { radius: 0 },
    ));

    // Zero OIM lines: every push fails, the call never completes.
    let zero_oim = EngineConfig {
        oim_lines: 0,
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "zero-oim",
        zero_oim,
        Dims::new(16, 16),
        CallKind::Inter,
    ));

    // Detailed fidelity with a declared depth the hard-wired 4-stage
    // datapath cannot honour.
    let deep = EngineConfig {
        pipeline_stages: 5,
        ..EngineConfig::prototype_detailed()
    };
    out.push(Scenario::new(
        "deep-detailed",
        deep,
        Dims::new(16, 16),
        CallKind::Inter,
    ));

    // No drain gate: on frames where the processing lead exceeds the
    // input transfer, the ungated DMA starts before the first drained
    // pixel.
    let no_gate = EngineConfig {
        output_latency_fraction: 0.0,
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "no-gate",
        no_gate,
        Dims::new(3, 3),
        CallKind::Intra { radius: 1 },
    ));

    // A megapixel frame overflows the 256 Ki-word banks.
    out.push(Scenario::new(
        "megapixel",
        EngineConfig::prototype(),
        Dims::new(1024, 1024),
        CallKind::Inter,
    ));

    // Four banks cannot host the fig. 3 six-bank map.
    let four_banks = EngineConfig {
        zbt_banks: 4,
        ..EngineConfig::prototype()
    };
    out.push(Scenario::new(
        "four-banks",
        four_banks,
        Dims::new(16, 16),
        CallKind::Inter,
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_model;

    #[test]
    fn sweep_is_large_and_labelled() {
        let scenarios = must_pass_scenarios();
        assert!(scenarios.len() > 500, "{} scenarios", scenarios.len());
        assert!(scenarios.iter().any(|s| s.label == "prototype"));
        assert!(scenarios.iter().any(|s| s.label == "fmax-interleaved"));
    }

    #[test]
    fn every_adversarial_config_is_caught() {
        for s in adversarial_scenarios() {
            let report = check_model(std::slice::from_ref(&s));
            assert!(
                !report.is_clean(),
                "adversarial scenario `{s}` produced no violation"
            );
        }
    }

    #[test]
    fn adversarial_witnesses_name_the_broken_field() {
        let report = check_model(&adversarial_scenarios());
        let witnesses: Vec<&str> = report
            .violations
            .iter()
            .map(|v| v.witness.as_str())
            .collect();
        assert!(
            witnesses.iter().any(|w| w.contains("pci_clock=133.0MHz")),
            "{witnesses:?}"
        );
        assert!(
            witnesses.iter().any(|w| w.contains("engine_clock=33.0MHz")),
            "{witnesses:?}"
        );
        assert!(
            witnesses.iter().any(|w| w.contains("iim_lines=3")),
            "{witnesses:?}"
        );
        assert!(
            witnesses.iter().any(|w| w.contains("1024")),
            "{witnesses:?}"
        );
    }
}
