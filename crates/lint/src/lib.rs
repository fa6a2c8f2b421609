//! `allconcur-lint` — the workspace invariant checker.
//!
//! A self-contained static-analysis pass (hand-rolled lexer, zero
//! dependencies) that enforces the invariants the rest of the test
//! suite *assumes*: determinism in transcript-pinned crates, no panics
//! in protocol threads, no allocation in `lint:hot_path` functions,
//! bounded queues and no sleeps in the transport crates, an acyclic
//! lock-acquisition order, and `#![forbid(unsafe_code)]` at protocol
//! crate roots. See `DESIGN.md` § "Static analysis &
//! invariants" for the rule table and suppression policy.
//!
//! Library layout:
//! * [`lexer`] — tokens, comment markers, test/hot regions
//! * [`rules`] — the rule scans and per-crate scoping
//! * [`baseline`] — grandfathered-debt file format and diffing
//! * [`report`] — console + `GITHUB_STEP_SUMMARY` output

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;

use rules::{SourceFile, Violation};
use std::path::{Path, PathBuf};

/// Everything one workspace scan produced, pre-baseline.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Unsuppressed violations across all files.
    pub violations: Vec<Violation>,
    /// Count of violations silenced by justified inline allows.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files: usize,
}

/// Scan one file's source text (path is workspace-relative).
///
/// This is the unit the fixture tests drive directly.
pub fn scan_source(rel_path: &str, src: &str) -> (Vec<Violation>, usize) {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("allconcur")
        .to_string();
    let f = SourceFile::new(rel_path, &crate_name, src);
    let mut vs = rules::scan_file(&f);
    let is_crate_root = rel_path == format!("crates/{crate_name}/src/lib.rs");
    if is_crate_root && rules::FORBID_UNSAFE_CRATES.contains(&crate_name.as_str()) {
        vs.extend(rules::check_forbid_unsafe(&f));
    }
    rules::apply_allows(&f, vs)
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort(); // deterministic scan order, naturally
    for p in paths {
        if p.is_dir() {
            rs_files_under(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Scan the whole workspace rooted at `root`.
///
/// Covered: every `crates/<name>/src/**/*.rs` plus the umbrella
/// crate's own `src/`. Not covered: `tests/`, `examples/`, `benches/`
/// (test and harness code may panic freely), `vendor/`, and `target/`.
pub fn run_workspace(root: &Path) -> std::io::Result<ScanResult> {
    let mut result = ScanResult::default();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crate_dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crate_dirs.sort();
        for c in crate_dirs {
            roots.push(c.join("src"));
        }
    }
    // Lock-order is a cross-file pass: gather per-file acquisition
    // sequences over the union of all declared lock fields first.
    let mut lock_files: Vec<(String, String)> = Vec::new(); // (rel, src)

    for dir in roots {
        let mut files = Vec::new();
        rs_files_under(&dir, &mut files);
        for path in files {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&path)?;
            let (vs, supp) = scan_source(&rel, &src);
            result.violations.extend(vs);
            result.suppressed += supp;
            result.files += 1;
            let crate_name =
                rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("");
            if rules::LOCK_ORDER_CRATES.contains(&crate_name) {
                lock_files.push((rel, src));
            }
        }
    }

    // Cross-file lock-order pass.
    let parsed: Vec<(String, String, String)> = lock_files
        .into_iter()
        .map(|(rel, src)| {
            let crate_name = rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("")
                .to_string();
            (rel, crate_name, src)
        })
        .collect();
    let files: Vec<SourceFile<'_>> =
        parsed.iter().map(|(rel, crate_name, src)| SourceFile::new(rel, crate_name, src)).collect();
    let mut fields: Vec<String> = Vec::new();
    for f in &files {
        for field in rules::collect_lock_fields(f) {
            if !fields.contains(&field) {
                fields.push(field);
            }
        }
    }
    let mut seqs = Vec::new();
    for f in &files {
        seqs.extend(rules::collect_acquisitions(f, &fields));
    }
    let lock_vs = rules::check_lock_order(&seqs);
    // Lock-order findings honour inline allows too.
    for v in lock_vs {
        let suppressed = files.iter().any(|f| {
            f.path == v.path
                && f.lexed.allows.iter().any(|a| {
                    a.rule == v.rule
                        && !a.justification.is_empty()
                        && (a.line == v.line || a.line + 1 == v.line)
                })
        });
        if suppressed {
            result.suppressed += 1;
        } else {
            result.violations.push(v);
        }
    }

    Ok(result)
}

/// Locate the workspace root: walk up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(d) = cur {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        cur = d.parent().map(|p| p.to_path_buf());
    }
    None
}
