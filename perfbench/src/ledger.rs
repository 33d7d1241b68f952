//! The per-layer ledger: counter deltas read through the runtime's
//! counter paths, the conservation identities they must satisfy, and the
//! time fractions of a traced solve.

use std::collections::{BTreeMap, BTreeSet};

use parallex::introspect::analyze::parcel_flight_histogram;
use parallex::introspect::{analyze, CounterSnapshot, Instance, Trace};

use crate::stats::{median, ratio};

/// Sum of the locality-total counter `/{object}{locality#*/total}/{name}`
/// over every locality in `snap`.
pub fn total(snap: &CounterSnapshot, object: &str, name: &str) -> u64 {
    snap.iter()
        .filter(|(p, _)| p.object == object && p.instance == Instance::Total && p.name == name)
        .map(|(_, v)| v)
        .sum()
}

/// A latency quantile (`channel/p50`, ...) across localities, each
/// locality's value weighted by its sample count. Histograms are
/// cumulative, so this reads a snapshot, not a delta.
pub fn latency_quantile(snap: &CounterSnapshot, channel: &str, q: &str) -> f64 {
    let (mut weighted, mut samples) = (0.0, 0.0);
    let localities: BTreeSet<u32> = snap.iter().map(|(p, _)| p.locality).collect();
    for loc in localities {
        let get = |name: String| {
            snap.iter()
                .find(|(p, _)| {
                    p.object == "latency"
                        && p.locality == loc
                        && p.instance == Instance::Total
                        && p.name == name
                })
                .map_or(0.0, |(_, v)| v as f64)
        };
        let n = get(format!("{channel}/count"));
        weighted += get(format!("{channel}/{q}")) * n;
        samples += n;
    }
    ratio(weighted, samples)
}

/// The conservation identities every solve must keep once the runtime
/// is idle: every spawned task ran or panicked, every parcel sent was
/// received, and the reliable layer delivered every data parcel it sent.
pub fn check_conservation(delta: &CounterSnapshot) -> Result<(), String> {
    let spawned = total(delta, "threads", "count/spawned");
    let ran =
        total(delta, "threads", "count/cumulative") + total(delta, "threads", "count/panicked");
    if spawned != ran {
        return Err(format!(
            "tasks: spawned {spawned} != executed + panicked {ran}"
        ));
    }
    let (sent, received) = (
        total(delta, "parcels", "count/sent"),
        total(delta, "parcels", "count/received"),
    );
    if sent != received {
        return Err(format!("parcels: sent {sent} != received {received}"));
    }
    let (data_sent, delivered) = (
        total(delta, "resilience", "data/sent"),
        total(delta, "resilience", "data/delivered"),
    );
    if data_sent != delivered {
        return Err(format!(
            "reliable: data sent {data_sent} != delivered {delivered}"
        ));
    }
    Ok(())
}

/// Counter deltas summed over the solves of a run, plus the latency
/// quantiles read after each solve.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Solves accumulated.
    pub solves: u64,
    /// Wall time of those solves, seconds.
    pub solve_s: f64,
    sums: BTreeMap<String, u64>,
    task_p99_ns: Vec<f64>,
    wait_p50_ns: Vec<f64>,
    wait_p99_ns: Vec<f64>,
}

impl Ledger {
    /// Add one solve: its counter delta, the snapshot after it, and its
    /// wall time.
    pub fn add(&mut self, delta: &CounterSnapshot, after: &CounterSnapshot, solve_s: f64) {
        self.solves += 1;
        self.solve_s += solve_s;
        for (p, v) in delta.iter().filter(|(p, _)| p.object != "latency") {
            let key = match p.instance {
                Instance::Total => format!("{}/{}", p.object, p.name),
                Instance::Worker(_) => format!("{}/worker/{}", p.object, p.name),
            };
            *self.sums.entry(key).or_default() += v;
        }
        self.task_p99_ns
            .push(latency_quantile(after, "task", "p99"));
        self.wait_p50_ns
            .push(latency_quantile(after, "future-wait", "p50"));
        self.wait_p99_ns
            .push(latency_quantile(after, "future-wait", "p99"));
    }

    /// Summed delta of a locality-total counter.
    pub fn sum(&self, object: &str, name: &str) -> f64 {
        self.sums
            .get(&format!("{object}/{name}"))
            .copied()
            .unwrap_or(0) as f64
    }

    /// Summed delta of a per-worker counter over every worker.
    pub fn worker_sum(&self, object: &str, name: &str) -> f64 {
        self.sums
            .get(&format!("{object}/worker/{name}"))
            .copied()
            .unwrap_or(0) as f64
    }

    /// Summed delta of a locality-total counter per solve.
    pub fn per_solve(&self, object: &str, name: &str) -> f64 {
        ratio(self.sum(object, name), self.solves as f64)
    }

    /// The counter-derived per-layer metrics. `workers` is the worker
    /// count across all localities and `steps` the time steps per solve.
    pub fn metrics(&self, workers: usize, steps: usize) -> Vec<(&'static str, f64)> {
        let parcels = self.sum("parcels", "count/sent");
        vec![
            (
                "sched.steal_attempts_per_steal",
                ratio(
                    self.sum("threads", "count/steal-attempts"),
                    self.sum("threads", "count/steal-batches"),
                ),
            ),
            (
                "sched.parks_per_solve",
                self.per_solve("threads", "count/parks"),
            ),
            (
                "sched.wakes_per_solve",
                self.per_solve("threads", "count/wakes"),
            ),
            // A task that help-executes others while it waits counts their
            // time too, so nested workloads such as `uts` read above 1.
            (
                "runtime.busy_frac",
                ratio(
                    self.worker_sum("threads", "time/busy-ns") * 1e-9,
                    workers as f64 * self.solve_s,
                ),
            ),
            (
                "runtime.tasks_per_solve",
                self.per_solve("threads", "count/spawned"),
            ),
            ("runtime.task_p99_ns", median(&self.task_p99_ns)),
            ("lcos.future_wait_p50_ns", median(&self.wait_p50_ns)),
            ("lcos.future_wait_p99_ns", median(&self.wait_p99_ns)),
            (
                "parcel.parcels_per_step",
                ratio(parcels, (self.solves as usize * steps) as f64),
            ),
            (
                "tcp.writes_per_parcel",
                ratio(self.sum("parcels", "count/writes"), parcels),
            ),
            (
                "tcp.bytes_per_parcel",
                ratio(self.sum("parcels", "bytes/sent"), parcels),
            ),
            (
                "reliable.retransmits_per_solve",
                self.per_solve("resilience", "count/retransmits"),
            ),
            (
                "reliable.acks_per_data",
                ratio(
                    self.sum("resilience", "count/acks-sent"),
                    self.sum("resilience", "data/sent"),
                ),
            ),
            (
                "reliable.dup_drops_per_solve",
                self.per_solve("resilience", "count/dup-drops"),
            ),
            (
                "reliable.corrupt_drops_per_solve",
                self.per_solve("resilience", "count/corrupt-drops"),
            ),
            (
                "fault.injected_drops_per_solve",
                self.per_solve("chaos", "count/injected-drops"),
            ),
            (
                "fault.injected_dups_per_solve",
                self.per_solve("chaos", "count/injected-dups"),
            ),
            (
                "fault.injected_delays_per_solve",
                self.per_solve("chaos", "count/injected-delays"),
            ),
            (
                "fault.injected_corrupts_per_solve",
                self.per_solve("chaos", "count/injected-corrupts"),
            ),
        ]
    }
}

/// Where the worker lanes' time went in traced solves, as medians over
/// the solves.
#[derive(Debug, Default)]
pub struct TraceLedger {
    fracs: Vec<[f64; 7]>,
    flight_p50_frac: Vec<f64>,
    flight_p99_frac: Vec<f64>,
    coverage: Vec<f64>,
    conservation_max: f64,
    /// Traced solve wall times, seconds.
    pub solve_s: Vec<f64>,
    /// Events the tracer dropped at its capacity cap.
    pub dropped: usize,
}

/// Largest share of a worker lane's wall time that its attributed
/// buckets may miss before the traced solve counts as invalid.
pub const MAX_CONSERVATION_ERROR: f64 = 0.01;

/// Names of the seven lane fractions, in [`TraceLedger`] order.
const FRAC_NAMES: [&str; 7] = [
    "trace.compute_frac",
    "trace.parcel_frac",
    "trace.exposed_wait_frac",
    "trace.hidden_wait_frac",
    "trace.steal_frac",
    "trace.park_frac",
    "trace.idle_frac",
];

impl TraceLedger {
    /// Analyze one traced solve of `solve_s` seconds and `steps` steps.
    /// A trace whose lanes break the time conservation identity by more
    /// than [`MAX_CONSERVATION_ERROR`] is recorded and reported as an
    /// invalid solve.
    pub fn add(
        &mut self,
        traces: &[(u32, Trace)],
        solve_s: f64,
        steps: usize,
    ) -> Result<(), String> {
        let a = analyze(traces);
        let lanes: Vec<_> = a.worker_lanes().collect();
        let wall: f64 = lanes.iter().map(|l| l.wall_us).sum();
        let share = |f: &dyn Fn(&parallex::introspect::LaneAttribution) -> f64| {
            ratio(lanes.iter().map(|l| f(l)).sum(), wall)
        };
        self.fracs.push([
            share(&|l| l.compute_us),
            share(&|l| l.parcel_us),
            share(&|l| l.exposed_wait_us),
            share(&|l| l.hidden_wait_us),
            share(&|l| l.steal_us),
            share(&|l| l.park_us),
            share(&|l| l.idle_us),
        ]);
        // Parcel flight as a share of the mean step of this solve.
        let flights = parcel_flight_histogram(traces);
        let step_ns = solve_s * 1e9 / steps as f64;
        let flight = |q: f64| {
            if flights.count() == 0 {
                0.0
            } else {
                flights.value_at_quantile(q) as f64 / step_ns
            }
        };
        self.flight_p50_frac.push(flight(0.5));
        self.flight_p99_frac.push(flight(0.99));
        self.coverage.push(a.critical_path.coverage());
        let error = a.max_conservation_error();
        self.conservation_max = self.conservation_max.max(error);
        self.solve_s.push(solve_s);
        self.dropped += a.dropped;
        if error > MAX_CONSERVATION_ERROR {
            return Err(format!(
                "traced lanes break time conservation by {:.2}%",
                error * 100.0
            ));
        }
        Ok(())
    }

    /// The trace metrics; `untraced_solve_s` is the median untraced solve
    /// time of the same run, the base of the tracing overhead.
    pub fn metrics(&self, untraced_solve_s: f64) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = FRAC_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    *name,
                    median(&self.fracs.iter().map(|f| f[i]).collect::<Vec<_>>()),
                )
            })
            .collect();
        out.extend([
            (
                "trace.parcel_flight_p50_frac",
                median(&self.flight_p50_frac),
            ),
            (
                "trace.parcel_flight_p99_frac",
                median(&self.flight_p99_frac),
            ),
            ("trace.critical_path_coverage", median(&self.coverage)),
            ("trace.conservation_error_max", self.conservation_max),
            (
                "trace.overhead_pct",
                100.0 * (ratio(median(&self.solve_s), untraced_solve_s) - 1.0),
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallex::introspect::CounterPath;

    fn snap(entries: &[(&str, u32, &str, u64)]) -> CounterSnapshot {
        let entries = entries
            .iter()
            .map(|&(object, loc, name, v)| {
                (CounterPath::new(object, loc, Instance::Total, name), v)
            })
            .collect();
        CounterSnapshot::from_entries(0.0, entries)
    }

    #[test]
    fn conservation_sums_over_localities() {
        let ok = snap(&[
            ("threads", 0, "count/spawned", 5),
            ("threads", 0, "count/cumulative", 4),
            ("threads", 0, "count/panicked", 1),
            ("parcels", 0, "count/sent", 3),
            ("parcels", 1, "count/received", 3),
        ]);
        assert_eq!(check_conservation(&ok), Ok(()));
        let lost_parcel = snap(&[
            ("parcels", 0, "count/sent", 2),
            ("parcels", 1, "count/received", 1),
        ]);
        assert!(check_conservation(&lost_parcel)
            .unwrap_err()
            .starts_with("parcels"));
        let lost_task = snap(&[
            ("threads", 0, "count/spawned", 2),
            ("threads", 0, "count/cumulative", 1),
        ]);
        assert!(check_conservation(&lost_task)
            .unwrap_err()
            .starts_with("tasks"));
        let undelivered = snap(&[
            ("resilience", 1, "data/sent", 9),
            ("resilience", 0, "data/delivered", 8),
        ]);
        assert!(check_conservation(&undelivered)
            .unwrap_err()
            .starts_with("reliable"));
    }

    #[test]
    fn latency_quantiles_weight_localities_by_samples() {
        let s = snap(&[
            ("latency", 0, "task/p99", 100),
            ("latency", 0, "task/count", 3),
            ("latency", 1, "task/p99", 200),
            ("latency", 1, "task/count", 1),
        ]);
        assert_eq!(latency_quantile(&s, "task", "p99"), 125.0);
        assert_eq!(latency_quantile(&s, "future-wait", "p50"), 0.0);
    }
}
