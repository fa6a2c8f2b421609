//! The rule set and per-crate scoping.
//!
//! Every rule is a lexical over-approximation chosen so that a clean
//! tree stays clean without parser-grade precision:
//!
//! * `determinism` — forbids `Instant::now`, `SystemTime`, `thread_rng`,
//!   and the `HashMap`/`HashSet` *types* outright in the crates whose
//!   behaviour is pinned by golden transcripts and seeded replays.
//!   Forbidding the type (not just iteration) is deliberate: iteration
//!   is what leaks nondeterminism, but spotting iteration lexically is
//!   unreliable, and these crates have no legitimate unordered-map use.
//!   It also covers single files of other crates whose state machines
//!   must stay clock-free: the net failure detector takes every instant
//!   from its reactor.
//! * `no_panic` — forbids `.unwrap(` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test protocol
//!   code; a peer-triggered panic in a protocol thread takes the node
//!   down without a typed `ClusterError`.
//! * `no_alloc` — inside `// lint:hot_path`-marked fn bodies, forbids
//!   `Vec::new` / `vec!` / `.to_vec(` / `.clone(` / `format!` /
//!   `Box::new` / `String::new` / `.to_string(` / `.to_owned(`.
//!   (`Vec::with_capacity` stays legal: pre-sized buffers are the
//!   sanctioned pattern, and the `core_rounds` counting allocator
//!   asserts the steady-state loop allocates nothing per event.)
//! * `lock_order` — builds a static acquisition graph over
//!   `Mutex`/`RwLock` struct fields (matched by type name, so `std` and
//!   any drop-in replacement alike) and fails on cycles (including
//!   same-lock re-acquisition within one fn body, since neither kind
//!   of lock is reentrant). Guard drops are invisible
//!   lexically, so this over-approximates; suppress with justification
//!   where a drop provably breaks the order.
//! * `bounded_queues` — forbids unbounded channel construction
//!   (`unbounded(`, `unbounded::<`, `mpsc::channel`) in the transport
//!   crates: every queue between peers must have a capacity and a shed
//!   or backpressure story, or an open-loop producer turns into
//!   unbounded memory growth. Queues whose depth is provably bounded
//!   elsewhere are suppressed with a justification.
//! * `no_sleep` — forbids `thread::sleep` in non-test code of the
//!   transport crates: they wait on a channel, a condvar or a poll
//!   deadline, which wakes the moment the awaited thing happens. A
//!   sleep-and-retry loop instead adds up to one sleep of latency to
//!   every wait it sits in.
//! * `forbid_unsafe` — asserts `#![forbid(unsafe_code)]` stays present
//!   at the crate roots that carry it.
//! * `suppression` — meta-rule: every `lint:allow` must carry a
//!   non-empty justification after the closing `):`.

use crate::lexer::{Lexed, Tok, Token};

/// Crates scanned by the `determinism` rule.
pub const DETERMINISM_CRATES: &[&str] = &["graph", "core", "sim", "nemesis"];
/// Single files scanned by the `determinism` rule outside those crates.
pub const DETERMINISM_FILES: &[&str] = &["crates/net/src/heartbeat.rs"];
/// Crates scanned by the `no_panic` rule.
pub const NO_PANIC_CRATES: &[&str] = &["core", "cluster", "rsm", "net", "durability"];
/// Crates scanned by the `lock_order` rule.
pub const LOCK_ORDER_CRATES: &[&str] = &["net", "cluster"];
/// Crates scanned by the `bounded_queues` rule.
pub const BOUNDED_QUEUE_CRATES: &[&str] = &["net", "cluster"];
/// Crates scanned by the `no_sleep` rule.
pub const NO_SLEEP_CRATES: &[&str] = &["net", "cluster"];
/// Crates whose roots must carry `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE_CRATES: &[&str] =
    &["graph", "core", "sim", "net", "cluster", "rsm", "durability", "nemesis"];

/// All rule names, for CLI validation and report ordering.
pub const ALL_RULES: &[&str] = &[
    "determinism",
    "no_panic",
    "no_alloc",
    "bounded_queues",
    "no_sleep",
    "lock_order",
    "forbid_unsafe",
    "suppression",
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line (baseline matching key).
    pub snippet: String,
    /// Human-readable description with the fix direction.
    pub message: String,
}

/// A parsed source file ready for rule scans.
pub struct SourceFile<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Owning crate (directory name under `crates/`, or `allconcur`
    /// for the umbrella crate's own `src/`).
    pub crate_name: &'a str,
    /// Raw source lines, for snippets.
    pub lines: Vec<&'a str>,
    /// Lexer output.
    pub lexed: Lexed,
}

impl<'a> SourceFile<'a> {
    /// Lex `src` into a scannable file.
    pub fn new(path: &'a str, crate_name: &'a str, src: &'a str) -> Self {
        SourceFile { path, crate_name, lines: src.lines().collect(), lexed: crate::lexer::lex(src) }
    }

    fn snippet(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map(|s| s.trim().to_string()).unwrap_or_default()
    }

    fn violation(&self, rule: &'static str, line: u32, message: String) -> Violation {
        Violation { rule, path: self.path.to_string(), line, snippet: self.snippet(line), message }
    }
}

/// Match `pattern` (mix of idents and puncts) at token index `i`.
fn seq_at(tokens: &[Token], i: usize, pattern: &[Tok]) -> bool {
    tokens.len() - i >= pattern.len()
        && tokens[i..i + pattern.len()].iter().zip(pattern).all(|(t, p)| match (&t.tok, p) {
            (Tok::Ident(a), Tok::Ident(b)) => a == b,
            (Tok::Punct(a), Tok::Punct(b)) => a == b,
            _ => false,
        })
}

/// Whether the `use` group opening with the `{` at `open` names `name`
/// at its top level (`{a, name, b}`, not `{a::{name}}`).
fn group_names(tokens: &[Token], open: usize, name: &str) -> bool {
    let mut depth = 0usize;
    for t in &tokens[open..] {
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(s) if depth == 1 && s == name => return true,
            _ => {}
        }
    }
    false
}

fn id(s: &str) -> Tok {
    Tok::Ident(s.to_string())
}

fn p(c: char) -> Tok {
    Tok::Punct(c)
}

/// Run every applicable rule over one file. Suppressions are *not*
/// applied here — the caller filters through [`apply_allows`].
pub fn scan_file(f: &SourceFile<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &f.lexed.tokens;
    let in_test = &f.lexed.in_test;

    let live = |i: usize| !in_test.get(i).copied().unwrap_or(false);

    if DETERMINISM_CRATES.contains(&f.crate_name) || DETERMINISM_FILES.contains(&f.path) {
        for i in 0..toks.len() {
            if !live(i) {
                continue;
            }
            let line = toks[i].line;
            if seq_at(toks, i, &[id("Instant"), p(':'), p(':'), id("now")]) {
                out.push(
                    f.violation(
                        "determinism",
                        line,
                        "wall-clock read in deterministic code; take the time as an \
                     argument (the sim clock, a reactor iteration's timestamp)"
                            .into(),
                    ),
                );
            } else if toks[i].is_ident("SystemTime") {
                out.push(f.violation(
                    "determinism",
                    line,
                    "SystemTime in deterministic code; wall time leaks into transcripts".into(),
                ));
            } else if toks[i].is_ident("thread_rng") {
                out.push(f.violation(
                    "determinism",
                    line,
                    "thread_rng in deterministic code; use a seeded StdRng so runs replay".into(),
                ));
            } else if toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet") {
                out.push(f.violation(
                    "determinism",
                    line,
                    format!(
                        "{} in deterministic code; iteration order is nondeterministic — \
                         use a dense Vec index, sorted Vec, or BTreeMap",
                        toks[i].ident().unwrap_or("hash container")
                    ),
                ));
            }
        }
    }

    if NO_PANIC_CRATES.contains(&f.crate_name) {
        for i in 0..toks.len() {
            if !live(i) {
                continue;
            }
            // Anchor on the method ident, not the `.`: in a chained
            // call the dot can sit on the previous line, and inline
            // allows must line up with the visible call.
            let line = toks.get(i + 1).map(|t| t.line).unwrap_or(toks[i].line);
            if seq_at(toks, i, &[p('.'), id("unwrap"), p('(')]) {
                out.push(
                    f.violation(
                        "no_panic",
                        line,
                        ".unwrap() in protocol code; return a typed error (ClusterError/io::Error)"
                            .into(),
                    ),
                );
            } else if seq_at(toks, i, &[p('.'), id("expect"), p('(')]) {
                out.push(
                    f.violation(
                        "no_panic",
                        line,
                        ".expect() in protocol code; return a typed error or restructure the \
                     invariant into the types"
                            .into(),
                    ),
                );
            } else {
                for mac in ["panic", "unreachable", "todo", "unimplemented"] {
                    if seq_at(toks, i, &[id(mac), p('!')]) {
                        out.push(f.violation(
                            "no_panic",
                            line,
                            format!("{mac}! in protocol code; return a typed error instead"),
                        ));
                    }
                }
            }
        }
    }

    if BOUNDED_QUEUE_CRATES.contains(&f.crate_name) {
        for i in 0..toks.len() {
            if !live(i) {
                continue;
            }
            let line = toks[i].line;
            // `unbounded(` and `unbounded::<` catch both the plain call
            // and the turbofish form; `mpsc::channel` catches std's
            // unbounded constructor (std's bounded one is sync_channel)
            // and its import by path, and `mpsc::{.., channel, ..}` its
            // import in a group, which would let a bare `channel()`
            // through.
            let hit = seq_at(toks, i, &[id("unbounded"), p('(')])
                || seq_at(toks, i, &[id("unbounded"), p(':'), p(':'), p('<')])
                || seq_at(toks, i, &[id("mpsc"), p(':'), p(':'), id("channel")])
                || (seq_at(toks, i, &[id("mpsc"), p(':'), p(':'), p('{')])
                    && group_names(toks, i + 3, "channel"));
            if hit {
                out.push(
                    f.violation(
                        "bounded_queues",
                        line,
                        "unbounded channel in transport code; give the queue a capacity with a \
                     shed/backpressure story (watermarks + typed Busy), or justify why its \
                     depth is bounded elsewhere"
                            .into(),
                    ),
                );
            }
        }
    }

    if NO_SLEEP_CRATES.contains(&f.crate_name) {
        for i in 0..toks.len() {
            // `thread::sleep` catches the call in any path form and the
            // `use` that would let a bare `sleep(` through.
            if live(i) && seq_at(toks, i, &[id("thread"), p(':'), p(':'), id("sleep")]) {
                out.push(
                    f.violation(
                        "no_sleep",
                        toks[i].line,
                        "thread::sleep in transport code; wait on a channel, a condvar or a poll \
                     deadline so the wait ends when the awaited event happens"
                            .into(),
                    ),
                );
            }
        }
    }

    // no_alloc applies wherever hot-path markers appear, in any crate.
    for (fn_name, lo, hi) in &f.lexed.hot_regions {
        for i in 0..toks.len() {
            let line = toks.get(i + 1).map(|t| t.line).unwrap_or(toks[i].line);
            if line < *lo || line > *hi || !live(i) {
                continue;
            }
            let hit: Option<&str> = if seq_at(toks, i, &[id("Vec"), p(':'), p(':'), id("new")]) {
                Some("Vec::new")
            } else if seq_at(toks, i, &[id("String"), p(':'), p(':'), id("new")]) {
                Some("String::new")
            } else if seq_at(toks, i, &[id("Box"), p(':'), p(':'), id("new")]) {
                Some("Box::new")
            } else if seq_at(toks, i, &[p('.'), id("to_vec"), p('(')]) {
                Some(".to_vec()")
            } else if seq_at(toks, i, &[p('.'), id("clone"), p('(')]) {
                Some(".clone()")
            } else if seq_at(toks, i, &[p('.'), id("to_string"), p('(')]) {
                Some(".to_string()")
            } else if seq_at(toks, i, &[p('.'), id("to_owned"), p('(')]) {
                Some(".to_owned()")
            } else if seq_at(toks, i, &[id("format"), p('!')]) {
                Some("format!")
            } else if seq_at(toks, i, &[id("vec"), p('!')]) {
                Some("vec!")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(f.violation(
                    "no_alloc",
                    line,
                    format!(
                        "{what} inside `lint:hot_path` fn `{fn_name}`; hot-path fns must \
                         reuse pre-sized buffers (see the core_rounds allocator assertion)"
                    ),
                ));
            }
        }
    }

    out
}

/// Check `#![forbid(unsafe_code)]` presence for a crate-root file.
/// Returns a violation when the attribute is missing.
pub fn check_forbid_unsafe(f: &SourceFile<'_>) -> Option<Violation> {
    let toks = &f.lexed.tokens;
    let pat = [p('#'), p('!'), p('['), id("forbid"), p('('), id("unsafe_code"), p(')'), p(']')];
    let present = (0..toks.len()).any(|i| seq_at(toks, i, &pat));
    if present {
        None
    } else {
        Some(Violation {
            rule: "forbid_unsafe",
            path: f.path.to_string(),
            line: 1,
            snippet: "(crate root)".into(),
            message: "crate root must carry #![forbid(unsafe_code)]".into(),
        })
    }
}

/// A lock acquisition observed in a fn body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// The lock field name.
    pub lock: String,
    /// Where it happens.
    pub path: String,
    /// Line of the `.lock()`/`.read()`/`.write()` call.
    pub line: u32,
    /// Enclosing fn name.
    pub func: String,
}

/// Extract declared `Mutex`/`RwLock` struct fields from a file.
///
/// Matches `field: [path::]*(Arc<)?(Mutex|RwLock)<...`, walking back
/// over path segments and single-ident wrappers.
pub fn collect_lock_fields(f: &SourceFile<'_>) -> Vec<String> {
    let toks = &f.lexed.tokens;
    let mut fields = Vec::new();
    for i in 0..toks.len() {
        if f.lexed.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let is_lock_ty = toks[i].is_ident("Mutex") || toks[i].is_ident("RwLock");
        if !is_lock_ty || !toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        // Walk back over `path::` segments and `Wrapper<` layers.
        let mut j = i;
        loop {
            if j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && toks[j - 3].ident().is_some()
            {
                j -= 3;
            } else if j >= 2 && toks[j - 1].is_punct('<') && toks[j - 2].ident().is_some() {
                j -= 2;
            } else {
                break;
            }
        }
        if j >= 2 && toks[j - 1].is_punct(':') && !toks[j - 2].is_punct(':') {
            if let Some(name) = toks[j - 2].ident() {
                if !fields.contains(&name.to_string()) {
                    fields.push(name.to_string());
                }
            }
        }
    }
    fields
}

/// Extract the ordered lock-acquisition sequences of every non-test fn
/// body in a file, restricted to the known lock field names.
pub fn collect_acquisitions(f: &SourceFile<'_>, fields: &[String]) -> Vec<Vec<Acquisition>> {
    let toks = &f.lexed.tokens;
    let mut seqs = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if f.lexed.in_test.get(i).copied().unwrap_or(false) || !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let func = toks.get(i + 1).and_then(|t| t.ident()).unwrap_or("<anon>").to_string();
        // Locate the body (same walk as hot-region resolution).
        let mut depth = 0i64;
        let mut open = None;
        let mut k = i;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => {
                    open = Some(k);
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let close = {
            let mut d = 0i64;
            let mut c = open;
            while c < toks.len() {
                if toks[c].is_punct('{') {
                    d += 1;
                } else if toks[c].is_punct('}') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                c += 1;
            }
            c
        };
        let mut seq = Vec::new();
        for t in open..close.min(toks.len()) {
            if t + 3 < toks.len()
                && toks[t].ident().is_some_and(|n| fields.iter().any(|f| f == n))
                && toks[t + 1].is_punct('.')
                && toks[t + 2].ident().is_some_and(|m| m == "lock" || m == "read" || m == "write")
                && toks[t + 3].is_punct('(')
            {
                seq.push(Acquisition {
                    lock: toks[t].ident().unwrap_or_default().to_string(),
                    path: f.path.to_string(),
                    line: toks[t].line,
                    func: func.clone(),
                });
            }
        }
        if !seq.is_empty() {
            seqs.push(seq);
        }
        i = close + 1;
    }
    seqs
}

/// Build the acquisition graph from all fn sequences and report cycles.
pub fn check_lock_order(seqs: &[Vec<Acquisition>]) -> Vec<Violation> {
    // Edge (a, b): some fn holds `a` (lexically) while acquiring `b`.
    let mut edges: Vec<(String, String, Acquisition)> = Vec::new();
    let mut out = Vec::new();
    for seq in seqs {
        for x in 0..seq.len() {
            for y in (x + 1)..seq.len() {
                let (a, b) = (&seq[x], &seq[y]);
                if a.lock == b.lock {
                    out.push(Violation {
                        rule: "lock_order",
                        path: b.path.clone(),
                        line: b.line,
                        snippet: format!("{} re-acquired in fn {}", b.lock, b.func),
                        message: format!(
                            "`{}` acquired twice in fn `{}` (lines {} and {}); these \
                             locks are not reentrant — this self-deadlocks unless the first \
                             guard is dropped",
                            b.lock, b.func, a.line, b.line
                        ),
                    });
                } else if !edges.iter().any(|(ea, eb, _)| ea == &a.lock && eb == &b.lock) {
                    edges.push((a.lock.clone(), b.lock.clone(), b.clone()));
                }
            }
        }
    }
    // DFS cycle detection over the distinct-lock edges.
    let mut nodes: Vec<&String> = Vec::new();
    for (a, b, _) in &edges {
        if !nodes.contains(&a) {
            nodes.push(a);
        }
        if !nodes.contains(&b) {
            nodes.push(b);
        }
    }
    fn dfs<'e>(
        node: &'e String,
        edges: &'e [(String, String, Acquisition)],
        stack: &mut Vec<&'e String>,
        done: &mut Vec<&'e String>,
    ) -> Option<Vec<&'e String>> {
        if done.contains(&node) {
            return None;
        }
        if let Some(pos) = stack.iter().position(|n| *n == node) {
            return Some(stack[pos..].to_vec());
        }
        stack.push(node);
        for (a, b, _) in edges {
            if a == node {
                if let Some(cy) = dfs(b, edges, stack, done) {
                    return Some(cy);
                }
            }
        }
        stack.pop();
        done.push(node);
        None
    }
    let mut done = Vec::new();
    for n in &nodes {
        let mut stack = Vec::new();
        if let Some(cycle) = dfs(n, &edges, &mut stack, &mut done) {
            let names: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
            // Anchor the report on the edge that closes the cycle.
            let (wa, wb) = (&names[names.len() - 1], &names[0]);
            let witness =
                edges.iter().find(|(a, b, _)| a == wa && b == wb).map(|(_, _, acq)| acq.clone());
            let (path, line, func) = witness
                .map(|w| (w.path, w.line, w.func))
                .unwrap_or_else(|| ("<unknown>".into(), 0, "<unknown>".into()));
            out.push(Violation {
                rule: "lock_order",
                path,
                line,
                snippet: format!("lock cycle: {}", names.join(" -> ")),
                message: format!(
                    "lock acquisition cycle {} (closing edge in fn `{}`); impose a total \
                     order on these locks or drop the first guard before taking the second",
                    names.join(" -> "),
                    func
                ),
            });
            break; // one cycle report at a time keeps output actionable
        }
    }
    out
}

/// Apply inline `lint:allow` suppressions to a violation list.
///
/// A violation on line `L` is suppressed by a justified allow for its
/// rule on line `L` (trailing) or `L-1` (comment above). Allows with an
/// empty justification never suppress; each produces a `suppression`
/// violation of its own. Returns `(live, suppressed_count)`.
pub fn apply_allows(f: &SourceFile<'_>, vs: Vec<Violation>) -> (Vec<Violation>, usize) {
    let mut live = Vec::new();
    let mut suppressed = 0usize;
    for v in vs {
        let hit = f.lexed.allows.iter().any(|a| {
            a.rule == v.rule
                && !a.justification.is_empty()
                && (a.line == v.line || a.line + 1 == v.line)
        });
        if hit {
            suppressed += 1;
        } else {
            live.push(v);
        }
    }
    for a in &f.lexed.allows {
        if a.justification.is_empty() {
            live.push(Violation {
                rule: "suppression",
                path: f.path.to_string(),
                line: a.line,
                snippet: f.snippet(a.line),
                message: format!(
                    "lint:allow({}) without a justification — write \
                     `// lint:allow({}): <why this is sound>`",
                    a.rule, a.rule
                ),
            });
        }
    }
    (live, suppressed)
}
