//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Samples stay in memory and are summarised when
//! the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats;

/// Durations in microseconds, keyed by span name.
#[derive(Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Run `f`, recording its wall time under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Record one duration under `name`.
    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.samples
            .entry(name)
            .or_default()
            .push(d.as_secs_f64() * 1e6);
    }

    /// Every sample of `name` (empty when the span never ran).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`, in microseconds.
    pub fn p50(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    /// 99th percentile of `name` (or the highest the sample supports).
    pub fn p99(&self, name: &str) -> f64 {
        stats::tail(self.get(name), 99.0).1
    }

    /// Sum of `name`, in microseconds.
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Move every sample of `other` into `self`.
    pub fn absorb(&mut self, other: Spans) {
        for (name, mut v) in other.samples {
            self.samples.entry(name).or_default().append(&mut v);
        }
    }

    /// `(span, samples, percentile used for its tail)` for every span, so the
    /// report states each sample count.
    pub fn counts(&self) -> Vec<(&'static str, usize, f64)> {
        self.samples
            .iter()
            .map(|(name, v)| (*name, v.len(), stats::tail(v, 99.0).0))
            .collect()
    }
}
