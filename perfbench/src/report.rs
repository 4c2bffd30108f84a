//! What a run reports: metrics by name with their units, failure accounting and the
//! correctness checks, printed for people and as the final JSON line for tools.

use crate::trace::json_number;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations a run attempted and the ones that did not complete on the full path.
#[derive(Debug, Clone, Default)]
pub struct Failures {
    /// Estimates requested.
    pub requested: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Requests whose deadline passed in the queue.
    pub expired: u64,
    /// Requests answered by the degraded fallback after a failed batch.
    pub degraded: u64,
    /// Requests that resolved with an error.
    pub failed: u64,
    /// Feedback records offered to the maintenance lane.
    pub feedback_sent: u64,
    /// Feedback records the lane shed.
    pub feedback_shed: u64,
    /// Other operations (training fits).
    pub other: u64,
}

impl Failures {
    pub fn attempted(&self) -> u64 {
        self.requested + self.feedback_sent + self.other
    }

    pub fn failed_ops(&self) -> u64 {
        self.rejected + self.expired + self.degraded + self.failed + self.feedback_shed
    }
}

/// The correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    run: u64,
    failed: Vec<String>,
}

impl Checks {
    /// Records one check; `detail` is only built when it failed.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl FnOnce() -> String) {
        self.run += 1;
        if !passed {
            self.failed.push(format!("{name}: {}", detail()));
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failed.is_empty()
    }
}

pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// In the traced run, its end-to-end figures: not reported, printed so the tracing
    /// overhead can be read against the untraced run.
    pub traced_end_to_end: Vec<Metric>,
    pub failures: Failures,
    pub checks: Checks,
    /// Where the run's wall time went, for people reading the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Prints the human-readable lines, then the JSON object as the last line of stdout.
    pub fn print(&self) {
        println!("workload {}", self.workload);
        for note in &self.notes {
            println!("  {note}");
        }
        for metric in &self.traced_end_to_end {
            println!(
                "  (traced) {:<19} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for metric in &self.metrics {
            println!(
                "  {:<28} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            );
        }
        let f = &self.failures;
        println!(
            "  failures: estimates requested {}, not answered by the full path {} \
             (rejected {}, expired {}, degraded {}, failed {}); feedback records sent {}, \
             shed {}; checks run {}, failed {}",
            f.requested,
            f.rejected + f.expired + f.degraded + f.failed,
            f.rejected,
            f.expired,
            f.degraded,
            f.failed,
            f.feedback_sent,
            f.feedback_shed,
            self.checks.run,
            self.checks.failed.len()
        );
        for failure in &self.checks.failed {
            println!("  CHECK FAILED {failure}");
        }
        println!("{}", self.json());
    }

    pub fn correct(&self) -> bool {
        self.checks.all_passed() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.failures.attempted().max(1),
            self.failures.failed_ops(),
            metrics.join(", ")
        )
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the kernel does not
/// report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_share_counts_every_unanswered_operation() {
        let failures = Failures {
            requested: 100,
            rejected: 1,
            expired: 2,
            degraded: 3,
            failed: 4,
            feedback_sent: 10,
            feedback_shed: 5,
            other: 0,
        };
        assert_eq!(failures.attempted(), 110);
        assert_eq!(failures.failed_ops(), 15);
    }

    #[test]
    fn the_json_line_has_exactly_the_four_keys() {
        let mut checks = Checks::default();
        checks.check("ok", true, String::new);
        let report = Report {
            workload: "w",
            metrics: vec![Metric {
                name: "latency_p50_us",
                value: 12.5,
                unit: "us",
            }],
            failures: Failures {
                requested: 3,
                ..Failures::default()
            },
            checks,
            notes: Vec::new(),
            traced_end_to_end: Vec::new(),
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
        let mut failing = Checks::default();
        failing.check("bad", false, || "detail".into());
        assert!(!failing.all_passed());
    }
}
