//! Token-level workspace lint.
//!
//! A comment- and string-aware scanner over `crates/**/*.rs`,
//! `tests/*.rs`, `examples/*.rs` and every `Cargo.toml`, enforcing the
//! workspace invariants that `rustc` cannot:
//!
//! * **metric-key agreement** — every string literal passed to a
//!   metrics-registry call (`inc`, `observe`, `add_gauge`, `max_gauge`,
//!   `counter`, `gauge`, `histogram`, `record_*`) must be declared in
//!   `vip-engine::report::keys`, and every declared key must be used
//!   somewhere (no orphans — the metric-key drift PR 1 surfaced);
//!   `vip-obs` is exempt as the generic registry layer,
//! * **no wall clock in simulation crates** — `vip-core`, `vip-engine`,
//!   `vip-gme` and `vip-par` model time with the virtual clock only; any
//!   `std::time::{Instant, SystemTime}` path or
//!   `Instant::now`/`SystemTime::now` call is nondeterminism smuggled
//!   into the simulation (`Duration` as a value type is fine),
//! * **no external dependencies** — every `[dependencies]`-like section
//!   may name only `vip-*` path/workspace crates (the offline-build
//!   invariant recorded in CHANGES.md),
//! * **`#![forbid(unsafe_code)]`** in every crate root.
//!
//! Violations carry `file:line` witnesses. The scanner strips `//` and
//! nested `/* */` comments, ordinary/raw/byte string literals, char
//! literals and lifetimes, so text inside strings or docs never
//! triggers a lint.

use std::fs;
use std::path::{Path, PathBuf};

use crate::{CheckReport, Violation};

/// Crates that must not read the wall clock (virtual time only). The
/// `vip-par` work pool is included: it runs inside simulation sweeps,
/// so any wall-clock read there would smuggle nondeterminism into them.
pub const SIMULATION_CRATES: [&str; 4] = ["core", "engine", "gme", "par"];

/// Crates exempt from the metric-key cross-check (the generic registry
/// layer, whose docs and tests use free-form example keys).
pub const METRIC_KEY_EXEMPT_CRATES: [&str; 1] = ["obs"];

/// Registry methods whose first argument is a metrics key.
const METRIC_METHODS: [&str; 7] = [
    "inc",
    "observe",
    "add_gauge",
    "max_gauge",
    "counter",
    "gauge",
    "histogram",
];

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Str(String),
    Punct(char),
}

/// Strips comments/strings and tokenizes Rust source.
fn tokenize(src: &str) -> Vec<(usize, Token)> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let (value, next, lines) = scan_string(&chars, i);
                out.push((line, Token::Str(value)));
                line += lines;
                i = next;
            }
            '\'' => {
                // Char literal vs lifetime: an escape or a closing quote
                // two ahead means a char literal; otherwise a lifetime.
                if chars.get(i + 1) == Some(&'\\') {
                    i += 2;
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                } else {
                    i += 1; // lifetime: the ident tokenizes next
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // Raw / byte string prefixes.
                let raw = matches!(ident.as_str(), "r" | "br")
                    && matches!(chars.get(i), Some('"') | Some('#'));
                let byte = ident == "b" && chars.get(i) == Some(&'"');
                if raw {
                    let (value, next, lines) = scan_raw_string(&chars, i);
                    out.push((line, Token::Str(value)));
                    line += lines;
                    i = next;
                } else if byte {
                    let (value, next, lines) = scan_string(&chars, i);
                    out.push((line, Token::Str(value)));
                    line += lines;
                    i = next;
                } else {
                    out.push((line, Token::Ident(ident)));
                }
            }
            _ if c.is_ascii_digit() => {
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            _ if c.is_whitespace() => i += 1,
            _ => {
                out.push((line, Token::Punct(c)));
                i += 1;
            }
        }
    }
    out
}

/// Scans a `"…"` string starting at the opening quote; returns the
/// value, the index past the closing quote, and newlines consumed.
fn scan_string(chars: &[char], start: usize) -> (String, usize, usize) {
    let mut i = start + 1;
    let mut value = String::new();
    let mut lines = 0;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if let Some(&esc) = chars.get(i + 1) {
                    value.push(esc);
                    if esc == '\n' {
                        lines += 1;
                    }
                }
                i += 2;
            }
            '"' => return (value, i + 1, lines),
            c => {
                if c == '\n' {
                    lines += 1;
                }
                value.push(c);
                i += 1;
            }
        }
    }
    (value, i, lines)
}

/// Scans a raw string `#…#"…"#…#` starting at the first `#` or `"`.
fn scan_raw_string(chars: &[char], start: usize) -> (String, usize, usize) {
    let mut i = start;
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    let mut value = String::new();
    let mut lines = 0;
    while i < chars.len() {
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|c| **c == '#')
                .count()
                == hashes
        {
            return (value, i + 1 + hashes, lines);
        }
        if chars[i] == '\n' {
            lines += 1;
        }
        value.push(chars[i]);
        i += 1;
    }
    (value, i, lines)
}

/// What one Rust file contributes to the workspace lints.
#[derive(Debug, Default)]
struct FileScan {
    /// `(line, key)` string literals passed to metric-registry calls.
    metric_literals: Vec<(usize, String)>,
    /// `(const name, key literal)` definitions inside `pub mod keys`.
    key_definitions: Vec<(String, String)>,
    /// Names referenced as `keys::NAME`.
    key_const_uses: Vec<String>,
    /// `(line, pattern)` wall-clock accesses.
    wall_clock: Vec<(usize, &'static str)>,
    /// Whether the file contains `forbid(unsafe_code)`.
    has_forbid_unsafe: bool,
}

fn ident_at(tokens: &[(usize, Token)], i: usize) -> Option<&str> {
    match tokens.get(i) {
        Some((_, Token::Ident(s))) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[(usize, Token)], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some((_, Token::Punct(p))) if *p == c)
}

fn is_metric_method(name: &str) -> bool {
    METRIC_METHODS.contains(&name) || name.starts_with("record_")
}

/// Identifiers reachable from a `::` path continuation at `start`:
/// either the single next segment (`::Instant`) or every name inside a
/// use-group (`::{Duration, Instant}`).
fn path_tail_idents(tokens: &[(usize, Token)], start: usize) -> Vec<&str> {
    if !(punct_at(tokens, start, ':') && punct_at(tokens, start + 1, ':')) {
        return Vec::new();
    }
    if let Some(name) = ident_at(tokens, start + 2) {
        return vec![name];
    }
    let mut out = Vec::new();
    if punct_at(tokens, start + 2, '{') {
        let mut j = start + 3;
        while j < tokens.len() && !punct_at(tokens, j, '}') {
            if let Some(name) = ident_at(tokens, j) {
                out.push(name);
            }
            j += 1;
        }
    }
    out
}

/// Scans one tokenized Rust file for every lint-relevant pattern.
fn scan_tokens(tokens: &[(usize, Token)]) -> FileScan {
    let mut scan = FileScan::default();
    for i in 0..tokens.len() {
        // `.method("key"` — a literal metric key.
        if punct_at(tokens, i, '.') {
            if let Some(method) = ident_at(tokens, i + 1) {
                if is_metric_method(method) && punct_at(tokens, i + 2, '(') {
                    if let Some((line, Token::Str(key))) = tokens.get(i + 3) {
                        scan.metric_literals.push((*line, key.clone()));
                    }
                }
            }
        }
        // `pub const NAME: &str = "key"` — a key definition.
        if ident_at(tokens, i) == Some("pub")
            && ident_at(tokens, i + 1) == Some("const")
            && punct_at(tokens, i + 3, ':')
            && punct_at(tokens, i + 4, '&')
            && ident_at(tokens, i + 5) == Some("str")
            && punct_at(tokens, i + 6, '=')
        {
            if let (Some(name), Some((_, Token::Str(value)))) =
                (ident_at(tokens, i + 2), tokens.get(i + 7))
            {
                scan.key_definitions.push((name.to_string(), value.clone()));
            }
        }
        // `keys::NAME` — a key used through its constant.
        if ident_at(tokens, i) == Some("keys")
            && punct_at(tokens, i + 1, ':')
            && punct_at(tokens, i + 2, ':')
        {
            if let Some(name) = ident_at(tokens, i + 3) {
                scan.key_const_uses.push(name.to_string());
            }
        }
        // Wall-clock patterns. `std::time::Duration` is a deterministic
        // value type and allowed; only the clock sources are banned.
        if punct_at(tokens, i + 1, ':') && punct_at(tokens, i + 2, ':') {
            let line = tokens[i].0;
            match (ident_at(tokens, i), ident_at(tokens, i + 3)) {
                (Some("std"), Some("time")) => {
                    for name in path_tail_idents(tokens, i + 4) {
                        match name {
                            "Instant" => scan.wall_clock.push((line, "std::time::Instant")),
                            "SystemTime" => {
                                scan.wall_clock.push((line, "std::time::SystemTime"));
                            }
                            _ => {}
                        }
                    }
                }
                (Some("Instant"), Some("now")) => scan.wall_clock.push((line, "Instant::now")),
                (Some("SystemTime"), Some("now")) => {
                    scan.wall_clock.push((line, "SystemTime::now"));
                }
                _ => {}
            }
        }
        // `forbid(unsafe_code)`.
        if ident_at(tokens, i) == Some("forbid")
            && punct_at(tokens, i + 1, '(')
            && ident_at(tokens, i + 2) == Some("unsafe_code")
        {
            scan.has_forbid_unsafe = true;
        }
    }
    scan
}

/// Recursively collects files with the given extension, sorted for
/// deterministic reports.
fn collect_files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            // Never descend into build artefacts.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&path, ext, out);
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`).
fn crate_of(rel: &Path) -> Option<String> {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if parts.next().as_deref() == Some("crates") {
        parts.next().map(|s| s.to_string())
    } else {
        None
    }
}

/// Lints the dependency sections of one `Cargo.toml`.
fn lint_cargo_toml(text: &str, rel: &str, out: &mut Vec<Violation>) {
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if !(section.ends_with("dependencies")) || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name_part, spec)) = line.split_once('=') else {
            continue;
        };
        let name = name_part
            .trim()
            .trim_matches('"')
            .split('.')
            .next()
            .unwrap_or_default()
            .to_string();
        let witness = format!("{rel}:{}", idx + 1);
        if !name.starts_with("vip-") {
            out.push(Violation {
                check: "lint.external_dependency",
                message: format!(
                    "dependency `{name}` is not a vip-* workspace crate — the workspace \
                     builds fully offline (CHANGES.md invariant)"
                ),
                witness,
            });
        } else if !(spec.contains("workspace") || spec.contains("path")) {
            out.push(Violation {
                check: "lint.external_dependency",
                message: format!(
                    "dependency `{name}` must be a path/workspace dependency, not a \
                     registry version"
                ),
                witness,
            });
        }
    }
}

/// Runs every source lint over the workspace rooted at `root`.
///
/// `root` is the directory containing the workspace `Cargo.toml` and the
/// `crates/` tree. Returns one case per scanned file.
#[must_use]
pub fn lint_workspace(root: &Path) -> CheckReport {
    let mut report = CheckReport::default();

    // --- Collect sources.
    let mut rust_files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        collect_files(&root.join(dir), "rs", &mut rust_files);
    }
    let mut cargo_tomls = vec![root.join("Cargo.toml")];
    collect_files(&root.join("crates"), "toml", &mut cargo_tomls);

    let mut key_definitions: Vec<(String, String, String)> = Vec::new(); // name, key, file
    let mut key_const_uses: Vec<String> = Vec::new();
    let mut metric_literals: Vec<(String, usize, String)> = Vec::new(); // file, line, key
    let mut forbid_by_crate: Vec<(String, bool, String)> = Vec::new(); // crate, has, file

    for path in &rust_files {
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        report.cases += 1;
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.display().to_string();
        let krate = crate_of(rel);
        let scan = scan_tokens(&tokenize(&src));

        let exempt = krate
            .as_deref()
            .is_some_and(|k| METRIC_KEY_EXEMPT_CRATES.contains(&k));
        if !exempt {
            for (line, key) in scan.metric_literals {
                metric_literals.push((rel_str.clone(), line, key));
            }
            for (name, key) in scan.key_definitions {
                key_definitions.push((name, key, rel_str.clone()));
            }
            key_const_uses.extend(scan.key_const_uses);
        }

        if krate
            .as_deref()
            .is_some_and(|k| SIMULATION_CRATES.contains(&k))
        {
            for (line, pattern) in scan.wall_clock {
                report.violations.push(Violation {
                    check: "lint.wall_clock",
                    message: format!(
                        "`{pattern}` in a simulation crate — vip-core/engine/gme/par \
                         model time with the virtual clock only"
                    ),
                    witness: format!("{rel_str}:{line}"),
                });
            }
        }

        if rel.ends_with(Path::new("src/lib.rs")) {
            if let Some(k) = krate {
                forbid_by_crate.push((k, scan.has_forbid_unsafe, rel_str.clone()));
            }
        }
    }

    // --- Metric-key cross-check.
    for (file, line, key) in &metric_literals {
        if !key_definitions.iter().any(|(_, k, _)| k == key) {
            report.violations.push(Violation {
                check: "lint.metric_key_unknown",
                message: format!(
                    "metric key \"{key}\" is not declared in vip-engine::report::keys"
                ),
                witness: format!("{file}:{line}"),
            });
        }
    }
    for (name, key, file) in &key_definitions {
        let used_by_const = key_const_uses.iter().any(|u| u == name);
        let used_by_literal = metric_literals.iter().any(|(_, _, k)| k == key);
        if !used_by_const && !used_by_literal {
            report.violations.push(Violation {
                check: "lint.metric_key_orphan",
                message: format!(
                    "metric key {name} (\"{key}\") is declared but never recorded — \
                     dead telemetry"
                ),
                witness: file.clone(),
            });
        }
    }

    // --- forbid(unsafe_code) in every crate root.
    for (krate, has, file) in &forbid_by_crate {
        if !has {
            report.violations.push(Violation {
                check: "lint.missing_forbid_unsafe",
                message: format!("crate `{krate}` does not `#![forbid(unsafe_code)]`"),
                witness: file.clone(),
            });
        }
    }

    // --- Cargo.toml dependency allowlist.
    for path in &cargo_tomls {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        report.cases += 1;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        lint_cargo_toml(&text, &rel, &mut report.violations);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real workspace root (two levels up from this crate).
    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A scratch fixture workspace under `target/`, kept inside the
    /// repository.
    fn fixture_root(name: &str) -> PathBuf {
        let root = workspace_root()
            .join("target/vip-check-fixtures")
            .join(name);
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/engine/src")).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        root
    }

    #[test]
    fn tokenizer_strips_comments_and_strings() {
        let src = r##"
            // reg.inc("comment.key", 1);
            /* nested /* reg.inc("block.key", 1) */ still comment */
            let s = "reg.inc(\"string.key\", 1)";
            let raw = r#"reg.inc("raw.key", 1)"#;
            let life: &'static str = "x";
            let c = '\'';
            reg.inc("real.key", 1);
        "##;
        let scan = scan_tokens(&tokenize(src));
        assert_eq!(scan.metric_literals.len(), 1, "{:?}", scan.metric_literals);
        assert_eq!(scan.metric_literals[0].1, "real.key");
    }

    #[test]
    fn tokenizer_tracks_lines() {
        let src = "let a = 1;\nlet b = 2;\nreg.observe(\"k\", &[1.0], 2.0);\n";
        let scan = scan_tokens(&tokenize(src));
        assert_eq!(scan.metric_literals, vec![(3, "k".to_string())]);
    }

    #[test]
    fn wall_clock_patterns_detected_but_not_enum_variants() {
        let src = "
            use std::time::Instant;
            let t = Instant::now();
            let s = SystemTime::now();
            let p = Phase::Instant; // an enum variant, not the clock
        ";
        let scan = scan_tokens(&tokenize(src));
        let patterns: Vec<&str> = scan.wall_clock.iter().map(|(_, p)| *p).collect();
        assert_eq!(
            patterns,
            vec!["std::time::Instant", "Instant::now", "SystemTime::now"]
        );
    }

    #[test]
    fn duration_is_allowed_but_grouped_instant_is_not() {
        let ok = scan_tokens(&tokenize("use std::time::Duration;"));
        assert!(ok.wall_clock.is_empty(), "{:?}", ok.wall_clock);
        let bad = scan_tokens(&tokenize("use std::time::{Duration, Instant};"));
        let patterns: Vec<&str> = bad.wall_clock.iter().map(|(_, p)| *p).collect();
        assert_eq!(patterns, vec!["std::time::Instant"]);
    }

    #[test]
    fn forbid_detection() {
        assert!(scan_tokens(&tokenize("#![forbid(unsafe_code)]")).has_forbid_unsafe);
        assert!(!scan_tokens(&tokenize("// #![forbid(unsafe_code)]")).has_forbid_unsafe);
    }

    #[test]
    fn key_definitions_and_const_uses() {
        let src = "
            pub mod keys {
                pub const A: &str = \"x.a\";
            }
            fn f(r: &mut R) { r.inc(keys::A, 1); }
        ";
        let scan = scan_tokens(&tokenize(src));
        assert_eq!(
            scan.key_definitions,
            vec![("A".to_string(), "x.a".to_string())]
        );
        assert_eq!(scan.key_const_uses, vec!["A".to_string()]);
    }

    #[test]
    fn cargo_toml_external_dep_flagged() {
        let mut v = Vec::new();
        lint_cargo_toml(
            "[package]\nname = \"x\"\n[dependencies]\nvip-core = { workspace = true }\nrand = \"0.8\"\n",
            "crates/x/Cargo.toml",
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "lint.external_dependency");
        assert!(v[0].message.contains("rand"));
        assert_eq!(v[0].witness, "crates/x/Cargo.toml:5");
    }

    #[test]
    fn cargo_toml_registry_version_flagged() {
        let mut v = Vec::new();
        lint_cargo_toml(
            "[dependencies]\nvip-core = \"1.0\"\n",
            "crates/x/Cargo.toml",
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("path/workspace"));
    }

    #[test]
    fn cargo_toml_features_and_tests_ignored() {
        let mut v = Vec::new();
        lint_cargo_toml(
            "[features]\nserde = []\n[[test]]\nname = \"t\"\npath = \"../t.rs\"\n",
            "crates/x/Cargo.toml",
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn injected_orphan_key_is_caught() {
        // Regression test for the metric-key cross-check: a key declared
        // in report::keys but never recorded anywhere must be reported.
        let root = fixture_root("orphan-key");
        fs::write(
            root.join("crates/engine/src/report.rs"),
            "pub mod keys {\n\
             pub const USED: &str = \"engine.used\";\n\
             pub const ORPHANED: &str = \"engine.orphaned\";\n\
             }\n\
             pub fn record(r: &mut R) { r.inc(keys::USED, 1); }\n",
        )
        .unwrap();
        fs::write(
            root.join("crates/engine/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub mod report;\n",
        )
        .unwrap();
        let report = lint_workspace(&root);
        let orphans: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| v.check == "lint.metric_key_orphan")
            .collect();
        assert_eq!(orphans.len(), 1, "{report}");
        assert!(orphans[0].message.contains("engine.orphaned"));
        assert!(orphans[0].witness.contains("report.rs"));
    }

    #[test]
    fn injected_orphan_attribution_key_is_caught() {
        // The attribution keys (`attrib.*`, the `vipctl report` buckets)
        // go through the same orphan cross-check as the engine counters:
        // declaring one without recording it anywhere must be flagged.
        let root = fixture_root("orphan-attrib-key");
        fs::write(
            root.join("crates/engine/src/report.rs"),
            "pub mod keys {\n\
             pub const BUSY: &str = \"attrib.pu.busy_cycles\";\n\
             pub const DRAIN: &str = \"attrib.oim.drain_cycles\";\n\
             }\n\
             pub fn record(r: &mut R) { r.inc(keys::BUSY, 1); }\n",
        )
        .unwrap();
        fs::write(
            root.join("crates/engine/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub mod report;\n",
        )
        .unwrap();
        let report = lint_workspace(&root);
        let orphans: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| v.check == "lint.metric_key_orphan")
            .collect();
        assert_eq!(orphans.len(), 1, "{report}");
        assert!(orphans[0].message.contains("attrib.oim.drain_cycles"));
        assert!(orphans[0].witness.contains("report.rs"));
    }

    #[test]
    fn injected_unknown_key_is_caught_with_location() {
        let root = fixture_root("unknown-key");
        fs::write(
            root.join("crates/engine/src/report.rs"),
            "pub mod keys { pub const A: &str = \"engine.a\"; }\n\
             pub fn record(r: &mut R) { r.inc(keys::A, 1); }\n",
        )
        .unwrap();
        fs::write(
            root.join("crates/engine/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub mod report;\n\
             pub fn oops(r: &mut R) {\n    r.inc(\"engine.bogus_key\", 1);\n}\n",
        )
        .unwrap();
        let report = lint_workspace(&root);
        let unknown: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| v.check == "lint.metric_key_unknown")
            .collect();
        assert_eq!(unknown.len(), 1, "{report}");
        assert!(unknown[0].message.contains("engine.bogus_key"));
        assert!(
            unknown[0].witness.contains("lib.rs:4"),
            "{}",
            unknown[0].witness
        );
    }

    #[test]
    fn missing_forbid_and_wall_clock_are_caught() {
        let root = fixture_root("forbid-clock");
        fs::write(
            root.join("crates/engine/src/lib.rs"),
            "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n",
        )
        .unwrap();
        let report = lint_workspace(&root);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.check == "lint.missing_forbid_unsafe"),
            "{report}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.check == "lint.wall_clock"),
            "{report}"
        );
    }

    #[test]
    fn real_workspace_is_clean() {
        let report = lint_workspace(&workspace_root());
        assert!(report.cases > 30, "only {} files scanned", report.cases);
        assert!(report.is_clean(), "{report}");
    }
}
