//! In-memory spans recorded by the benchmark's own driver around each
//! call into a layer's public API (tracing *inside* the crates is a
//! later change — ROADMAP item 5 — and should then replace these
//! outside timers).
//!
//! Every span feeds per-name statistics online: call count, total time
//! and *self* time — its duration minus the part its child spans
//! cover. The first [`SAMPLE_CAP`] spans are also kept raw, with their
//! parent link and round/request id, for the `trace-<workload>.json`
//! dump; the statistics always cover every span.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Raw spans kept for the dump. `batch_n8_large` alone issues ~200 k
/// `rsm.submit` calls a second; keeping all of them would make tracing
/// the dominant cost of the traced run.
pub const SAMPLE_CAP: usize = 20_000;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the raw sample, if it was sampled.
    pub parent: Option<u32>,
    /// Round or request id the call worked on.
    pub id: u64,
}

/// Accumulated over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    /// Time covered by already-closed direct children.
    child_ns: u64,
    sample: Option<u32>,
}

/// Span recorder. A disabled tracer makes `enter`/`exit` one branch
/// each, so the untraced run shares the driver code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<Open>,
    sample: Vec<Span>,
    stats: BTreeMap<&'static str, NameStats>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            sample: Vec::new(),
            stats: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if self.enabled {
            let now = self.now_ns();
            self.enter_at(name, id, now);
        }
    }

    /// Close the innermost open span; returns its duration in ns (0
    /// when disabled).
    #[inline]
    pub fn exit(&mut self) -> u64 {
        if self.enabled {
            let now = self.now_ns();
            self.exit_at(now)
        } else {
            0
        }
    }

    /// [`Tracer::exit`], filing the span under `name` instead of the
    /// name it was opened with — for calls whose kind is only known
    /// from their result (a `pump` that found a delivery or did not).
    #[inline]
    pub fn exit_as(&mut self, name: &'static str) -> u64 {
        if let Some(span) = self.open.last_mut() {
            span.name = name;
            if let Some(index) = span.sample {
                self.sample[index as usize].name = name;
            }
        }
        self.exit()
    }

    /// [`Tracer::enter`] with an explicit timestamp.
    pub fn enter_at(&mut self, name: &'static str, id: u64, start_ns: u64) {
        let sample = (self.sample.len() < SAMPLE_CAP).then(|| {
            let parent = self.open.last().and_then(|o| o.sample);
            self.sample.push(Span { name, start_ns, end_ns: start_ns, parent, id });
            (self.sample.len() - 1) as u32
        });
        self.open.push(Open { name, start_ns, child_ns: 0, sample });
    }

    /// [`Tracer::exit`] with an explicit timestamp.
    pub fn exit_at(&mut self, end_ns: u64) -> u64 {
        let Some(span) = self.open.pop() else { return 0 };
        let duration = end_ns.saturating_sub(span.start_ns);
        let stats = self.stats.entry(span.name).or_default();
        stats.count += 1;
        stats.total_ns += duration;
        stats.self_ns += duration.saturating_sub(span.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(index) = span.sample {
            self.sample[index as usize].end_ns = end_ns;
        }
        duration
    }

    /// Statistics of one span name (zeros if never recorded).
    pub fn stats(&self, name: &str) -> NameStats {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of one span name, ns.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let stats = self.stats(name);
        crate::stats::ratio(stats.total_ns as f64, stats.count as f64)
    }

    /// Spans closed so far, sampled or not.
    pub fn spans_recorded(&self) -> u64 {
        self.stats.values().map(|s| s.count).sum()
    }

    /// The dump: per-name statistics over every span, then the raw
    /// sample.
    pub fn to_json(&self) -> Json {
        let self_time = Json::Obj(
            self.stats
                .iter()
                .map(|(name, s)| {
                    let fields = [
                        ("count", Json::Num(s.count as f64)),
                        ("total_us", Json::Num(s.total_ns as f64 / 1e3)),
                        ("self_us", Json::Num(s.self_ns as f64 / 1e3)),
                    ];
                    (name.to_string(), Json::obj(fields))
                })
                .collect(),
        );
        let spans = self
            .sample
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("id", Json::Num(s.id as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("spans_recorded", Json::Num(self.spans_recorded() as f64)),
            ("spans_sampled", Json::Num(self.sample.len() as f64)),
            ("self_time", self_time),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut t = Tracer::new(true);
        t.enter_at("driver.iteration", 7, 0);
        t.enter_at("rsm.submit", 7, 10);
        assert_eq!(t.exit_at(30), 20);
        t.enter_at("rsm.pump", 7, 40);
        t.enter_at("cluster.next_delivery", 7, 45); // grandchild
        t.exit_at(85);
        t.exit_at(90);
        assert_eq!(t.exit_at(100), 100);

        // Parent: 100 total, children cover 20 + 50; the grandchild is
        // charged to its own parent only.
        assert_eq!(t.stats("driver.iteration"), NameStats { count: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(t.stats("rsm.pump"), NameStats { count: 1, total_ns: 50, self_ns: 10 });
        assert_eq!(
            t.stats("cluster.next_delivery"),
            NameStats { count: 1, total_ns: 40, self_ns: 40 }
        );
        assert_eq!(t.stats("rsm.submit").self_ns, 20);
        assert_eq!(t.mean_ns("rsm.submit"), 20.0);
        assert_eq!(t.stats("never"), NameStats::default());

        // Self times partition the root's duration.
        let total_self: u64 =
            ["driver.iteration", "rsm.submit", "rsm.pump", "cluster.next_delivery"]
                .iter()
                .map(|n| t.stats(n).self_ns)
                .sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn raw_sample_links_parents_and_is_capped() {
        let mut t = Tracer::new(true);
        t.enter_at("outer", 1, 0);
        t.enter_at("inner", 2, 1);
        t.exit_at(2);
        t.exit_at(3);
        assert_eq!(t.sample[0].parent, None);
        assert_eq!(
            t.sample[1],
            Span { name: "inner", start_ns: 1, end_ns: 2, parent: Some(0), id: 2 }
        );

        for i in 0..(SAMPLE_CAP as u64 + 50) {
            t.enter_at("flood", i, 10 + i);
            t.exit_at(11 + i);
        }
        assert_eq!(t.sample.len(), SAMPLE_CAP, "dump is capped");
        assert_eq!(t.stats("flood").count, SAMPLE_CAP as u64 + 50, "statistics are not");
        let dump = t.to_json();
        assert_eq!(dump.get("spans_sampled").and_then(Json::as_f64), Some(SAMPLE_CAP as f64));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x", 0);
        assert_eq!(t.exit(), 0);
        assert_eq!(t.stats("x"), NameStats::default());
        assert!(t.sample.is_empty());
    }
}
