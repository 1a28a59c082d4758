//! Detailed-engine configuration sweep, fanned out across the `vip-par`
//! work pool: cycle counts, stall breakdown and OIM occupancy for a grid
//! of IIM/OIM/drain configurations of the cycle-stepped datapath.
//!
//! Each grid cell is an independent simulation, so the sweep computes
//! all cells in parallel (`VIP_THREADS` overrides the worker count) and
//! prints them serially in grid order — the output is byte-identical at
//! any thread count.
//!
//! ```text
//! cargo run -p vip-bench --bin sweep
//! ```

use vip_core::frame::Frame;
use vip_core::geometry::Dims;
use vip_core::ops::filter::BoxBlur;
use vip_core::pixel::Pixel;
use vip_engine::{AddressEngine, EngineConfig, EngineError};

/// One grid cell: the configuration axes under sweep.
#[derive(Debug, Clone, Copy)]
struct Cell {
    radius: usize,
    iim_lines: usize,
    oim_lines: usize,
    drain: u64,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for radius in [1usize, 2] {
        for iim_lines in [3usize, 5, 9, 16] {
            for oim_lines in [2usize, 8, 16] {
                for drain in [1u64, 2, 4] {
                    cells.push(Cell {
                        radius,
                        iim_lines,
                        oim_lines,
                        drain,
                    });
                }
            }
        }
    }
    cells
}

/// Simulates one cell; returns the formatted table row.
fn simulate(dims: Dims, frame: &Frame, cell: Cell) -> String {
    let mut config = EngineConfig::prototype_detailed();
    config.iim_lines = cell.iim_lines;
    config.oim_lines = cell.oim_lines;
    config.oim_drain_cycles_per_pixel = cell.drain;
    let label = format!(
        "r={} iim={:>2} oim={:>2} drain={}",
        cell.radius, cell.iim_lines, cell.oim_lines, cell.drain
    );
    let op = BoxBlur::with_radius(cell.radius).expect("radius ≤ 4");
    let outcome = AddressEngine::new(config).and_then(|mut engine| engine.run_intra(frame, &op));
    match outcome {
        Ok(run) => {
            let p = run.report.processing.expect("detailed mode records stats");
            format!(
                "{label:<28} {:>9} {:>9} {:>9} {:>7}/{:<3} {:>9.3}",
                p.cycles,
                p.iim_stalls,
                p.oim_stalls,
                p.oim_max_occupancy,
                cell.oim_lines * dims.width,
                p.cycles as f64 / dims.pixel_count() as f64,
            )
        }
        Err(EngineError::PipelineHazard { .. }) => {
            format!("{label:<28} {:>9}", "deadlock")
        }
        Err(e) => format!("{label:<28} error: {e}"),
    }
}

fn main() {
    let dims = Dims::new(64, 48);
    let frame = Frame::from_fn(dims, |p| {
        Pixel::from_luma(((p.x * 7 + p.y * 13) % 256) as u8)
    });
    let cells = grid();
    let threads = vip_par::default_threads();

    println!("======== detailed-engine configuration sweep ({dims}, {} cells, {threads} threads) ========\n", cells.len());
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "configuration", "cycles", "iim stall", "oim stall", "occ/cap", "cyc/px"
    );

    let rows = vip_par::map(&cells, threads, |cell| simulate(dims, &frame, *cell));
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n→ IIM blocks below the 2r+1-line window deadlock (the static checker's\n  \
         occupancy.iim_deadlock verdict); slow drains trade OIM occupancy for stalls\n  \
         only once the buffer saturates."
    );
}
