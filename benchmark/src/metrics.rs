//! The metric lists this benchmark reports. `BENCHMARK.json` at the
//! repository root is the only place that declares them: it is compiled
//! in, and the code produces values *by name*, so a name the JSON
//! declares and no code path produces fails the run instead of reading 0.

use crate::json::Json;
use crate::workload::{Load, Spec};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change counts as a
/// regression; per-layer metrics have none.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Counts that must repeat exactly between two runs of one commit.
pub const EXACT: [&str; 4] =
    ["sim.msgs_per_round", "sim.bytes_per_round", "core.events_per_round", "core.sends_per_round"];

/// What `BENCHMARK.json` declares.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is compiled in")
    })
}

fn parse(text: &str) -> Result<Declared, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("{key}: expected an array")),
    };
    let text_of = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{key}: expected a string")),
    };
    let metrics = |key: &str| {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect::<Result<Vec<_>, String>>()
    };
    Ok(Declared {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("run_seconds")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Per-layer metrics `spec` has nothing to measure for: they are
/// reported as 0 and printed as `n/a`. Everything else must be produced.
pub fn not_applicable(spec: &Spec, name: &str) -> bool {
    match name {
        // `Service::recover` in the output check of a durable run.
        "durability.recover_ms" => !spec.durable,
        "client.post_crash_p50_us" => !spec.crash,
        // How late the open-loop generator ran.
        "client.gen_late_us_p99" | "client.gen_late_us_max" => {
            matches!(spec.load, Load::Closed { .. })
        }
        // The rate sweep follows the durable workload only.
        "client.max_rate_under_slo" => !spec.durable,
        _ => name.starts_with("client.p99_us_at_") && !spec.durable,
    }
}

/// Values produced by name during a run.
pub type Values = BTreeMap<&'static str, f64>;

/// `values` in the order `list` declares them, as `(name, value, unit,
/// applicable)`. A declared metric nobody produced, or a produced value
/// nobody declared, is an error: neither may pass silently.
pub fn collect(
    list: &'static [Metric],
    values: &Values,
    spec: &Spec,
) -> Result<Vec<(&'static str, f64, &'static str, bool)>, String> {
    if let Some(stray) = values.keys().find(|k| !list.iter().any(|m| m.name == **k)) {
        return Err(format!("{stray} was measured but BENCHMARK.json does not declare it"));
    }
    list.iter()
        .map(|m| match (values.get(m.name.as_str()), not_applicable(spec, &m.name)) {
            (Some(&value), false) => Ok((m.name.as_str(), value, m.unit.as_str(), true)),
            (None, true) => Ok((m.name.as_str(), 0.0, m.unit.as_str(), false)),
            (None, false) => Err(format!("{} is declared but was not measured", m.name)),
            (Some(_), true) => Err(format!("{} does not apply to {}", m.name, spec.name)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, WORKLOADS};

    #[test]
    fn declared_lists_are_well_formed() {
        let d = declared();
        let here: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(d.workloads, here, "BENCHMARK.json and WORKLOADS name the same workloads");
        let names: Vec<&str> = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str())
            .chain(here.iter().copied())
            .collect();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(EXACT.iter().all(|e| d.per_layer.iter().any(|m| m.name == *e)));
    }

    #[test]
    fn collect_refuses_missing_stray_and_misapplied_values() {
        let d = declared();
        let closed = find("rounds_n16_small").unwrap();
        let durable = find("durable_open_n8").unwrap();
        let mut values = Values::new();
        assert!(collect(&d.per_layer, &values, closed).unwrap_err().contains("not measured"));
        for m in &d.per_layer {
            if !not_applicable(closed, &m.name) {
                values.insert(m.name.as_str(), 1.0);
            }
        }
        let rows = collect(&d.per_layer, &values, closed).unwrap();
        assert_eq!(rows.len(), d.per_layer.len());
        let sweep = rows.iter().find(|r| r.0 == "client.max_rate_under_slo").unwrap();
        assert_eq!((sweep.1, sweep.3), (0.0, false), "no sweep off the durable workload");
        assert!(collect(&d.per_layer, &values, durable).unwrap_err().contains("not measured"));
        values.insert("client.max_rate_under_slo", 4000.0);
        assert!(collect(&d.per_layer, &values, closed).unwrap_err().contains("does not apply"));
        values.remove("client.max_rate_under_slo");
        values.insert("net.no_such_metric", 1.0);
        assert!(collect(&d.per_layer, &values, closed).unwrap_err().contains("does not declare"));
    }
}
