//! What one run found: operations and checks attempted and failed, and the
//! metric values by name.

use std::collections::BTreeMap;

/// Accumulates a run's outcome. Every operation and every correctness check
/// counts as one attempt; a failed one also counts as one failure. Failures
/// never abort the run.
#[derive(Default)]
pub struct Report {
    /// Operations plus checks attempted.
    pub attempted: u64,
    /// Operations plus checks that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form facts for the detail line (sample counts, percentiles).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Count one correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Record a note for the detail line.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.insert(key.into(), value.to_string());
    }

    /// Share of attempts that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}
