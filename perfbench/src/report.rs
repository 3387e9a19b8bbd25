//! The benchmark's result: named metrics with units, correctness bookkeeping,
//! and the one-line JSON object printed last on standard output.

use std::collections::BTreeMap;

/// Named metric values with units, in insertion-independent (sorted) order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }
}

/// Output checks and attempt counts accumulated over a run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Outcome {
    /// Records a failed output check (the run then reports `correct: false`
    /// and exits nonzero).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("check failed: {message}");
            self.violations.push(message);
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Formats a float as a JSON number with all its digits (non-finite values,
/// which JSON cannot carry, become `null`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}
