//! What one run reports: end-to-end and per-layer metrics, the
//! operation count, and every failed check with the operation it failed.

use crate::trace::Budget;

pub struct Report {
    pub e2e: Vec<(String, f64, &'static str)>,
    pub layer: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub budgets: Vec<Budget>,
    /// Extra JSON fields for the detail line (sample counts, per-program
    /// rows); each entry is `"key": value`.
    pub details: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            e2e: Vec::new(),
            layer: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            budgets: Vec::new(),
            details: Vec::new(),
        }
    }

    /// Count one operation; a failed check is counted and kept with the
    /// operation's name, never filtered out.
    pub fn check(&mut self, op: &str, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 64 {
                self.failures.push(format!("{op}: {}", why()));
            }
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, key: &str, json: String) {
        self.details
            .push(format!("{}: {json}", cmm_serve::json::quote(key)));
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit kept.
pub fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": \"{u}\"}}",
                cmm_serve::json::quote(n)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}
