#!/usr/bin/env bash
# Full offline verification: rustfmt check, release build, tests, static
# verifier, the fig. 5/fig. 4 harnesses, the Table 3 golden check, the
# four examples, the
# intra/inter/GME utilization reports and Chrome traces (kept in
# target/observability; the intra/inter/GME text reports are diffed
# against tests/golden), a perfbench smoke run, and clippy (perfbench and
# workspace) and rustdoc with warnings denied. This is exactly what CI
# runs; run it before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check (the workspace stays rustfmt-clean)"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> vip-check (static schedule/hazard verifier + workspace lint)"
cargo run --release -q -p vip-check -- .

echo "==> fig5 (prints the fig. 5 stage-occupancy trace of a detailed call)"
cargo run --release -q -p vip-bench --bin fig5

echo "==> fig4 (sweeps radius-4 windows out of the IIM, one fetch per window)"
cargo run --release -q -p vip-bench --bin fig4

echo "==> table3 --check (the full CIF Table 3 rows must match tests/golden/table3.txt bit for bit)"
cargo run --release -q -p vip-bench --bin table3 -- --check > /dev/null

echo "==> examples (each asserts its own results; a non-zero exit fails)"
for example in quickstart surveillance_diff segmentation_grow motion_mosaic; do
    cargo run --release -q -p vip --example "$example" > /dev/null
done

echo "==> vipctl report/trace intra, inter and gme into target/observability (gme: a recorder on a reused detailed engine, so replayed skeleton spans)"
obs_out=target/observability
rm -rf "$obs_out"
mkdir -p "$obs_out"
for scenario in intra inter gme; do
    cargo run --release -q -p vip --bin vipctl -- report "$scenario" > "$obs_out/report_$scenario.txt"
done
echo "==> report goldens (intra/inter/gme reports, ZBT bank duty and zbt.bank* spans included, must match byte for byte)"
for scenario in intra inter gme; do
    diff -u "tests/golden/report_$scenario.txt" "$obs_out/report_$scenario.txt"
done
cargo run --release -q -p vip --bin vipctl -- trace intra --out "$obs_out/trace_intra.json" > /dev/null
cargo run --release -q -p vip --bin vipctl -- trace inter --out "$obs_out/trace_inter.json" > /dev/null
cargo run --release -q -p vip --bin vipctl -- report gme --format json > "$obs_out/report_gme.json"
cargo run --release -q -p vip --bin vipctl -- trace gme --out "$obs_out/trace_gme.json"

echo "==> perfbench smoke (every workload; fails on any output-check failure)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
perfbench() {
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --seed 1 --seconds 2 "$@"
}
for workload in gme_clip gme_batch engine_detailed surveillance; do
    perfbench --workload "$workload" --trace 0
done
perfbench --workload engine_detailed --trace 1

echo "==> cargo clippy on perfbench (deny warnings)"
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "==> cargo clippy on the workspace (deny warnings)"
cargo clippy --all-targets --workspace -- -D warnings

echo "==> cargo doc on the workspace (deny warnings, so intra-doc links cannot rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> OK"
