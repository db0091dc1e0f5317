//! Sample statistics, the host block, and the result printer.

use std::fmt::Write as _;
use std::time::Instant;

/// Median, quartiles and count of a sample set.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Linear-interpolated quantile `q` of an ascending slice.
fn interpolated(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Summarises `values` (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: interpolated(&sorted, 0.5),
        q1: interpolated(&sorted, 0.25),
        q3: interpolated(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank quantile `q` of nanosecond samples (any order), in µs.
pub fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q) as f64 / 1e3
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One reported metric: the value is the median of `summary` when the
/// metric was sampled more than once.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// A workload's result: metrics plus the operation ledger behind
/// `fail_frac`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable check results, one line each.
    pub checks: Vec<String>,
}

impl Outcome {
    /// Adds a metric measured once.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    /// Adds a metric reported as the median of `samples`.
    pub fn sampled(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: s.median,
            summary: Some(s),
        });
    }

    /// Adds latency quantile `q` (µs) pooled over every pass's samples
    /// (ns); the per-pass quantiles give its quartiles and count.
    pub fn latency(&mut self, name: &str, q: f64, passes: &[&[u64]]) {
        let per_pass: Vec<f64> = passes.iter().map(|p| quantile_us(p, q)).collect();
        let pooled: Vec<u64> = passes.iter().flat_map(|p| p.iter().copied()).collect();
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: "us",
            value: quantile_us(&pooled, q),
            summary: Some(summarize(&per_pass)),
        });
    }

    /// Records a check over `ops` operations; a failed check counts all
    /// of them as failed.
    pub fn check(&mut self, what: &str, ops: u64, ok: bool) {
        if !ok {
            self.failed += ops;
        }
        self.checks.push(format!(
            "check {}: {what}",
            if ok { "ok  " } else { "FAIL" }
        ));
    }

    /// Failed operations over attempted ones.
    pub fn fail_frac(&self) -> f64 {
        self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, CPU model and `rustc` version, one `host.*` line each.
pub fn host_block() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host.nproc: {}\nhost.cpu: {cpu}\nhost.rustc: {rustc}\n",
        nproc()
    )
}

/// The human-readable report: every metric with unit, median, quartiles
/// and sample count, then the checks.
pub fn render(workload: &str, seed: u64, outcome: &Outcome) -> String {
    let mut out = format!("workload: {workload}  seed: {seed}\n");
    for m in &outcome.metrics {
        match m.summary {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{:<34} {:>14.4} {:<8} (q1 {:.4}, q3 {:.4}, n {})",
                    m.name, m.value, m.unit, s.q1, s.q3, s.n
                );
            }
            None => {
                let _ = writeln!(out, "{:<34} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
    }
    let _ = writeln!(
        out,
        "{:<34} {:>14.6} ratio ({} of {} operations failed)",
        "fail_frac",
        outcome.fail_frac(),
        outcome.failed,
        outcome.attempted
    );
    for c in &outcome.checks {
        let _ = writeln!(out, "{c}");
    }
    out
}

/// The one-line JSON result the last line of stdout carries.
pub fn json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_inclusive_method() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.5), 50);
    }
}
