//! Per-process resource accounting for Table 7 of the paper.
//!
//! §4.2.7 reports mean/std CPU% and memory for three process classes
//! (`scorer`, `agg`, `client`) plus the fixed overhead of the Geth and IPFS
//! daemons. The simulator cannot measure real utilization, so components
//! *declare* samples as they perform work: a client training for `d` seconds
//! at 60% CPU records that interval, idle gaps record near-zero samples, and
//! the [`ResourceMonitor`] aggregates everything into summary statistics.

use std::collections::BTreeMap;

/// A single utilization observation attributed to a process class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSample {
    /// CPU utilization in percent of one core (may exceed 100 on multicore).
    pub cpu_pct: f64,
    /// Resident memory in megabytes.
    pub mem_mb: f64,
    /// How long the observation lasted, in virtual seconds (used as weight).
    pub duration_secs: f64,
}

/// Aggregated statistics for one process class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceSummary {
    /// Duration-weighted mean CPU%.
    pub cpu_mean: f64,
    /// Duration-weighted standard deviation of CPU%.
    pub cpu_std: f64,
    /// Duration-weighted mean resident memory (MB).
    pub mem_mean: f64,
    /// Duration-weighted standard deviation of resident memory (MB).
    pub mem_std: f64,
    /// Number of samples observed.
    pub samples: usize,
}

/// Collects [`ResourceSample`]s per process label and summarizes them.
///
/// ```
/// use unifyfl_sim::ResourceMonitor;
///
/// let mut mon = ResourceMonitor::new();
/// mon.record("client", 60.0, 1800.0, 10.0);
/// mon.record("client", 2.0, 1750.0, 10.0);
/// let s = mon.summary("client").unwrap();
/// assert_eq!(s.samples, 2);
/// assert!((s.cpu_mean - 31.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceMonitor {
    samples: BTreeMap<String, Vec<ResourceSample>>,
}

impl ResourceMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observation for the process class `label`.
    ///
    /// Observations with non-positive duration are ignored (they carry no
    /// weight).
    pub fn record(&mut self, label: &str, cpu_pct: f64, mem_mb: f64, duration_secs: f64) {
        if !(duration_secs.is_finite() && duration_secs > 0.0) {
            return;
        }
        self.samples
            .entry(label.to_owned())
            .or_default()
            .push(ResourceSample {
                cpu_pct,
                mem_mb,
                duration_secs,
            });
    }

    /// Duration-weighted summary statistics for `label`, or `None` if no
    /// samples were recorded under that label.
    pub fn summary(&self, label: &str) -> Option<ResourceSummary> {
        let samples = self.samples.get(label)?;
        if samples.is_empty() {
            return None;
        }
        let total_w: f64 = samples.iter().map(|s| s.duration_secs).sum();
        let cpu_mean = samples
            .iter()
            .map(|s| s.cpu_pct * s.duration_secs)
            .sum::<f64>()
            / total_w;
        let mem_mean = samples
            .iter()
            .map(|s| s.mem_mb * s.duration_secs)
            .sum::<f64>()
            / total_w;
        let cpu_var = samples
            .iter()
            .map(|s| (s.cpu_pct - cpu_mean).powi(2) * s.duration_secs)
            .sum::<f64>()
            / total_w;
        let mem_var = samples
            .iter()
            .map(|s| (s.mem_mb - mem_mean).powi(2) * s.duration_secs)
            .sum::<f64>()
            / total_w;
        Some(ResourceSummary {
            cpu_mean,
            cpu_std: cpu_var.sqrt(),
            mem_mean,
            mem_std: mem_var.sqrt(),
            samples: samples.len(),
        })
    }

    /// All summaries keyed by label.
    pub fn summaries(&self) -> BTreeMap<String, ResourceSummary> {
        self.samples
            .keys()
            .filter_map(|l| self.summary(l).map(|s| (l.clone(), s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_monitor_has_no_summary() {
        let mon = ResourceMonitor::new();
        assert!(mon.summary("client").is_none());
        assert!(mon.summaries().is_empty());
    }

    #[test]
    fn weighted_mean_respects_duration() {
        let mut mon = ResourceMonitor::new();
        mon.record("agg", 100.0, 0.0, 1.0);
        mon.record("agg", 0.0, 0.0, 3.0);
        let s = mon.summary("agg").unwrap();
        assert!((s.cpu_mean - 25.0).abs() < 1e-9);
    }

    #[test]
    fn std_is_zero_for_constant_samples() {
        let mut mon = ResourceMonitor::new();
        for _ in 0..5 {
            mon.record("scorer", 11.4, 1038.0, 2.0);
        }
        let s = mon.summary("scorer").unwrap();
        assert!(s.cpu_std.abs() < 1e-9);
        assert!(s.mem_std.abs() < 1e-9);
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn nonpositive_duration_is_ignored() {
        let mut mon = ResourceMonitor::new();
        mon.record("client", 50.0, 100.0, 0.0);
        mon.record("client", 50.0, 100.0, -1.0);
        mon.record("client", 50.0, 100.0, f64::NAN);
        assert!(mon.summary("client").is_none());
    }

    #[test]
    fn summaries_returns_all_labels() {
        let mut mon = ResourceMonitor::new();
        mon.record("a", 1.0, 1.0, 1.0);
        mon.record("b", 2.0, 2.0, 1.0);
        let all = mon.summaries();
        assert_eq!(all.len(), 2);
        assert!((all["b"].cpu_mean - 2.0).abs() < 1e-9);
    }
}
