//! Metric names and units, failure accounting, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("solve_ms_p90", "ms"),
    ("cpu_ms_per_solve", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every run with `--trace 1`. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.steal_attempts_per_steal", "ratio"),
    ("sched.parks_per_solve", "count"),
    ("sched.wakes_per_solve", "count"),
    ("runtime.busy_frac", "frac"),
    ("runtime.tasks_per_solve", "count"),
    ("runtime.task_p99_ns", "ns"),
    ("lcos.future_wait_p50_ns", "ns"),
    ("lcos.future_wait_p99_ns", "ns"),
    ("parcel.parcels_per_step", "count"),
    ("parcel.serialize_ns", "ns"),
    ("parcel.frame_encode_ns", "ns"),
    ("parcel.frame_decode_ns", "ns"),
    ("tcp.writes_per_parcel", "ratio"),
    ("tcp.bytes_per_parcel", "B"),
    ("locality.mesh_connect_ms", "ms"),
    ("agas.solver_new_us", "us"),
    ("reliable.retransmits_per_solve", "count"),
    ("reliable.acks_per_data", "ratio"),
    ("reliable.dup_drops_per_solve", "count"),
    ("reliable.corrupt_drops_per_solve", "count"),
    ("fault.injected_drops_per_solve", "count"),
    ("fault.injected_dups_per_solve", "count"),
    ("fault.injected_delays_per_solve", "count"),
    ("fault.injected_corrupts_per_solve", "count"),
    ("stencil.computed_gbs", "GB/s"),
    ("stream.copy_gbs", "GB/s"),
    ("stencil.bw_frac", "frac"),
    ("algorithms.tasks_per_step", "count"),
    ("trace.compute_frac", "frac"),
    ("trace.parcel_frac", "frac"),
    ("trace.exposed_wait_frac", "frac"),
    ("trace.hidden_wait_frac", "frac"),
    ("trace.steal_frac", "frac"),
    ("trace.park_frac", "frac"),
    ("trace.idle_frac", "frac"),
    ("trace.parcel_flight_p50_frac", "frac"),
    ("trace.parcel_flight_p99_frac", "frac"),
    ("trace.critical_path_coverage", "frac"),
    ("trace.conservation_error_max", "frac"),
    ("trace.overhead_pct", "%"),
];

/// Solves attempted and failed, with the first few failure reasons.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Solves (or run-level checks) attempted.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Reasons of the first failures, for the human-readable log.
    pub reasons: Vec<String>,
}

impl Outcome {
    /// Count one attempt; `check` is `Err(reason)` when it failed.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    /// Failed attempts as a share of all attempts.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// A run's metrics and outcome, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name to value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Solves attempted and failed.
    pub outcome: Outcome,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record `name` = `value`.
    ///
    /// # Panics
    /// Panics if `name` is in neither metric table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Print the notes, the failure accounting, one line per metric of
    /// `table` and, last, the result line.
    pub fn print(&self, table: &[(&str, &str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "failed_frac {} ({} of {} solves)",
            self.outcome.failed_frac(),
            self.outcome.failed,
            self.outcome.attempted
        );
        for reason in &self.outcome.reasons {
            println!("  failure: {reason}");
        }
        for (name, unit) in table {
            println!(
                "{name:<36} {:>16.6} {unit}",
                self.metrics.get(name).copied().unwrap_or(f64::NAN)
            );
        }
        println!("{}", self.result_line(table));
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `table` in
    /// table order. A missing or non-finite value makes the run
    /// incorrect rather than printing a number that was not measured.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let mut correct = self.outcome.failed == 0 && self.outcome.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.outcome.attempted.max(1),
            self.outcome.failed,
        )
    }
}

/// Unit of a metric in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        r.outcome.record(Ok(()));
        let line = r.result_line(END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_failure_or_a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        r.outcome.record(Ok(()));
        assert!(r.result_line(END_TO_END).contains("\"correct\": false"));
        for (name, _) in END_TO_END {
            r.set(name, 2.0);
        }
        r.outcome.record(Err("wrong count".into()));
        assert!(r
            .result_line(END_TO_END)
            .contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(r.outcome.failed_frac(), 0.5);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
