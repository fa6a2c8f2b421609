//! Per-rule self-tests driven by the fixture sources in
//! `tests/fixtures/` (raw `.rs` files, never compiled).

use allconcur_lint::rules::{
    check_lock_order, collect_acquisitions, collect_lock_fields, SourceFile,
};
use allconcur_lint::{baseline, scan_source};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn count(vs: &[allconcur_lint::rules::Violation], rule: &str) -> usize {
    vs.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn determinism_rule_fires_and_respects_suppressions() {
    let src = fixture("determinism.rs");
    // Scanned as if it lived in the sim crate (determinism scope).
    let (vs, suppressed) = scan_source("crates/sim/src/fixture.rs", &src);
    assert_eq!(count(&vs, "determinism"), 3, "HashMap + Instant::now + thread_rng: {vs:#?}");
    // The justified allow on `SystemTime` suppressed exactly one.
    assert_eq!(suppressed, 1);
    // The unjustified allow is itself a violation.
    assert_eq!(count(&vs, "suppression"), 1);
    // The #[cfg(test)] module's HashSet is exempt.
    assert!(!vs.iter().any(|v| v.snippet.contains("HashSet")), "{vs:#?}");
}

#[test]
fn determinism_rule_is_scoped_per_crate() {
    // The same source in a non-determinism crate (net) is clean —
    // except the unjustified allow, which is always flagged.
    let src = fixture("determinism.rs");
    let (vs, _) = scan_source("crates/net/src/fixture.rs", &src);
    assert_eq!(count(&vs, "determinism"), 0, "{vs:#?}");
}

#[test]
fn determinism_rule_covers_the_failure_detector_file() {
    // The net failure detector is held to the rule by file, not crate:
    // no clock read and no hash container outside its tests.
    let src = fixture("determinism_file.rs");
    let (vs, _) = scan_source("crates/net/src/heartbeat.rs", &src);
    assert_eq!(count(&vs, "determinism"), 3, "HashMap twice + Instant::now: {vs:#?}");
    assert!(!vs.iter().any(|v| v.snippet.contains("exempt")), "{vs:#?}");
    // The rest of the net crate is not.
    let (vs, _) = scan_source("crates/net/src/event_loop.rs", &src);
    assert_eq!(count(&vs, "determinism"), 0, "{vs:#?}");
}

#[test]
fn no_panic_rule_fires_and_exempts_tests() {
    let src = fixture("no_panic.rs");
    let (vs, suppressed) = scan_source("crates/core/src/fixture.rs", &src);
    assert_eq!(count(&vs, "no_panic"), 4, "unwrap + expect + panic! + unreachable!: {vs:#?}");
    // Leading-line and trailing-line allows both suppress.
    assert_eq!(suppressed, 2);
    // Nothing from the #[test] fn or #[cfg(test)] module leaks through.
    assert!(!vs.iter().any(|v| v.snippet.contains("fine in tests")), "{vs:#?}");
    // unwrap_or / unwrap_or_else / unwrap_or_default never match.
    assert!(!vs.iter().any(|v| v.snippet.contains("unwrap_or")), "{vs:#?}");
}

#[test]
fn no_alloc_rule_checks_only_hot_path_regions() {
    let src = fixture("no_alloc.rs");
    let (vs, _) = scan_source("crates/core/src/fixture.rs", &src);
    assert_eq!(count(&vs, "no_alloc"), 6, "{vs:#?}");
    // The unmarked `cold` fn allocates freely.
    assert!(!vs.iter().any(|v| v.line > 20), "cold fn must be exempt: {vs:#?}");
    // Vec::with_capacity inside the hot region stays legal.
    assert!(!vs.iter().any(|v| v.snippet.contains("with_capacity")), "{vs:#?}");
}

#[test]
fn bounded_queues_rule_fires_and_is_scoped() {
    let src = fixture("bounded_queues.rs");
    // In scope (net): plain, turbofish, and std forms all fire, and so
    // does importing std's `channel` by path or in a `use` group;
    // bounded constructors, the bare call and the crossbeam `use`
    // import never match.
    let (vs, suppressed) = scan_source("crates/net/src/fixture.rs", &src);
    assert_eq!(count(&vs, "bounded_queues"), 5, "{vs:#?}");
    assert!(vs.iter().any(|v| v.snippet.contains("use std::sync::mpsc::{")), "{vs:#?}");
    assert!(vs.iter().any(|v| v.snippet.contains("use std::sync::mpsc::channel;")), "{vs:#?}");
    assert!(!vs.iter().any(|v| v.snippet.contains("= channel()")), "{vs:#?}");
    assert_eq!(suppressed, 1, "justified allow suppresses exactly one");
    assert!(!vs.iter().any(|v| v.snippet.contains("= bounded::")), "{vs:#?}");
    assert!(!vs.iter().any(|v| v.snippet.contains("sync_channel")), "{vs:#?}");
    assert!(!vs.iter().any(|v| v.snippet.contains("use crossbeam")), "{vs:#?}");
    // The #[cfg(test)] module's unbounded channel is exempt.
    assert!(!vs.iter().any(|v| v.line > 21), "test module must be exempt: {vs:#?}");
    // Out of scope (rsm): clean.
    let (vs, _) = scan_source("crates/rsm/src/fixture.rs", &src);
    assert_eq!(count(&vs, "bounded_queues"), 0, "{vs:#?}");
}

#[test]
fn no_sleep_rule_fires_and_is_scoped() {
    let src = fixture("no_sleep.rs");
    // In scope (net and cluster): the import and both call paths fire;
    // timed receives and `park_timeout` never match.
    for path in ["crates/net/src/fixture.rs", "crates/cluster/src/fixture.rs"] {
        let (vs, suppressed) = scan_source(path, &src);
        assert_eq!(count(&vs, "no_sleep"), 3, "{path}: {vs:#?}");
        assert_eq!(suppressed, 1, "justified allow suppresses exactly one");
        assert!(!vs.iter().any(|v| v.snippet.contains("recv_timeout")), "{vs:#?}");
        assert!(!vs.iter().any(|v| v.snippet.contains("park_timeout")), "{vs:#?}");
        // The #[cfg(test)] module's sleep is exempt.
        assert!(!vs.iter().any(|v| v.line > 14), "test module must be exempt: {vs:#?}");
    }
    // Out of scope (rsm): clean.
    let (vs, _) = scan_source("crates/rsm/src/fixture.rs", &src);
    assert_eq!(count(&vs, "no_sleep"), 0, "{vs:#?}");
}

#[test]
fn lock_order_detects_cycles_and_reacquisition() {
    let src = fixture("lock_order.rs");
    let f = SourceFile::new("crates/net/src/fixture.rs", "net", &src);
    let fields = collect_lock_fields(&f);
    assert_eq!(fields, vec!["table".to_string(), "stats".to_string()]);
    let seqs = collect_acquisitions(&f, &fields);
    assert_eq!(seqs.len(), 3, "forward, backward, double");
    let vs = check_lock_order(&seqs);
    assert!(
        vs.iter().any(|v| v.message.contains("cycle")),
        "table->stats->table must be reported: {vs:#?}"
    );
    assert!(
        vs.iter().any(|v| v.message.contains("acquired twice")),
        "double acquisition must be reported: {vs:#?}"
    );
}

#[test]
fn forbid_unsafe_checks_crate_roots() {
    let with = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    let without = "#![warn(missing_docs)]\npub fn f() {}\n";
    let (vs, _) = scan_source("crates/core/src/lib.rs", with);
    assert_eq!(count(&vs, "forbid_unsafe"), 0);
    let (vs, _) = scan_source("crates/core/src/lib.rs", without);
    assert_eq!(count(&vs, "forbid_unsafe"), 1);
    // Non-root files and out-of-scope crates are not checked.
    let (vs, _) = scan_source("crates/core/src/server.rs", without);
    assert_eq!(count(&vs, "forbid_unsafe"), 0);
    let (vs, _) = scan_source("crates/bench/src/lib.rs", without);
    assert_eq!(count(&vs, "forbid_unsafe"), 0, "bench owns the counting allocator");
}

#[test]
fn baseline_grandfathers_and_goes_stale() {
    let src = fixture("no_panic.rs");
    let (vs, _) = scan_source("crates/core/src/fixture.rs", &src);
    let live: Vec<_> = vs.iter().filter(|v| v.rule == "no_panic").cloned().collect();
    // Grandfather the `.unwrap()` finding only.
    let text = format!(
        "# comment lines are skipped\nno_panic\tcrates/core/src/fixture.rs\tfixture \
         justification\t{}\n",
        live[0].snippet
    );
    let entries = baseline::parse(&text).expect("well-formed baseline");
    let diff = baseline::diff(live.clone(), &entries);
    assert_eq!(diff.grandfathered.len(), 1);
    assert_eq!(diff.new.len(), live.len() - 1);
    assert!(diff.stale.is_empty());

    // A baseline entry whose code was fixed must surface as stale.
    let stale_text = "no_panic\tcrates/core/src/fixture.rs\told justification\tlet gone = \
                      this.line.was.fixed();\n";
    let stale_entries = baseline::parse(stale_text).expect("well-formed baseline");
    let diff = baseline::diff(live, &stale_entries);
    assert_eq!(diff.stale.len(), 1, "fixed code leaves its baseline entry stale");

    // Malformed baselines fail closed.
    assert!(baseline::parse("no_panic\tonly-two-fields\n").is_err());
    assert!(baseline::parse("no_panic\tp\t\tsnippet-without-justification\n").is_err());
}
