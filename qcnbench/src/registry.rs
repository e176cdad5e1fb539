//! Readings of the program's global metrics registry — the same
//! instruments an operator scrapes — taken around a traced phase.

use crate::trace::Tracer;
use qcn_telemetry::MetricValue;
use std::collections::BTreeMap;

/// The registry series the per-layer metrics use, flattened to numbers.
pub struct Readings(BTreeMap<String, f64>);

fn label<'a>(labels: &'a [(String, String)], key: &str) -> &'a str {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map_or("", |(_, v)| v.as_str())
}

impl Readings {
    /// Reads `qcn_stage_duration_us` (sum and count per engine and stage),
    /// `qcn_tensor_pool_dispatch_total` (all modes) and every
    /// `qcn_search_*_total` counter.
    pub fn now() -> Readings {
        let mut out = BTreeMap::new();
        for m in qcn_telemetry::global().snapshot() {
            match (&m.value, m.name.as_str()) {
                (MetricValue::Histogram { count, sum, .. }, "qcn_stage_duration_us") => {
                    let key = format!(
                        "{}.{}",
                        label(&m.labels, "engine"),
                        label(&m.labels, "stage")
                    );
                    *out.entry(format!("registry.stage_us.{key}")).or_default() += sum;
                    *out.entry(format!("registry.stage_calls.{key}"))
                        .or_default() += *count as f64;
                }
                (MetricValue::Counter(n), "qcn_tensor_pool_dispatch_total") => {
                    *out.entry("registry.pool_dispatches".to_string())
                        .or_default() += *n as f64;
                }
                (MetricValue::Counter(n), name) if name.starts_with("qcn_search_") => {
                    out.insert(format!("registry.{name}"), *n as f64);
                }
                _ => {}
            }
        }
        Readings(out)
    }

    /// `self − before` for one series (0 when absent).
    pub fn delta(&self, before: &Readings, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0) - before.0.get(key).copied().unwrap_or(0.0)
    }

    /// Records `self − before` for every series as a count.
    pub fn record_deltas(&self, t: &Tracer, before: &Readings) {
        for k in self.0.keys() {
            t.count(k, self.delta(before, k));
        }
    }
}
