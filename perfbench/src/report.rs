//! What a run reports: metrics by name with their units, and the
//! operation counts behind the result's `attempted` / `failed`.

use std::fmt::Write as _;

/// Metrics in report order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Both metric sets of a run and its operation counts.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics, reported with `--trace 0`.
    pub e2e: Metrics,
    /// Per-layer metrics, reported with `--trace 1`.
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
}
