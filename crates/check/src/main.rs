//! `vip-check` — static schedule/hazard verifier and workspace lint.
//!
//! Runs the full model-checking sweep (ZBT bank schedule, IIM/OIM
//! occupancy, the Process-Unit pipeline proof, call-timeline ordering) plus the
//! source lints over the enclosing workspace, prints every violation
//! with its witness, and exits non-zero if any invariant fails.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Walks up from the current directory to the workspace root (the
/// first `Cargo.toml` declaring `[workspace]`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let root = match std::env::args_os().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => match find_workspace_root() {
            Some(root) => root,
            None => {
                eprintln!("vip-check: no workspace Cargo.toml found above the current directory");
                return ExitCode::FAILURE;
            }
        },
    };
    println!("vip-check: verifying workspace at {}", root.display());
    let report = vip_check::check_workspace(&root);
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
