//! Host fingerprint recorded with every result, so a noisy run can be told
//! apart from a regression: core count, CPU model, compiler, and the share
//! of CPU time the hypervisor stole during the run.

use std::process::Command;

/// What the run executed on.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Host {
    /// Read the fingerprint of this machine.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
        }
    }
}

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Current counters; `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        Self::parse(stat.lines().next()?)
    }

    /// Parse an aggregate `cpu  user nice system idle iowait irq softirq
    /// steal …` line. Guest time is already inside `user`, so the total
    /// sums the first eight fields.
    fn parse(line: &str) -> Option<Self> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let ticks: Vec<u64> = fields
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (ticks.len() == 8).then(|| Self {
            steal: ticks[7],
            total: ticks.iter().sum(),
        })
    }

    /// Share of all CPU ticks since `earlier` that were stolen.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let a = CpuTicks::parse("cpu  100 0 50 800 10 0 0 40 0 0").unwrap();
        let b = CpuTicks::parse("cpu  150 0 60 880 10 0 0 60 5 0").unwrap();
        assert_eq!(a.total, 1000);
        assert!((b.steal_share_since(&a) - 20.0 / 160.0).abs() < 1e-12);
        assert_eq!(a.steal_share_since(&a), 0.0);
        assert!(CpuTicks::parse("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(CpuTicks::parse("cpu  1 2 3").is_none());
    }
}
