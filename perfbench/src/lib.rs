//! One closed-loop benchmark of the parallex runtime through its public
//! API: one solve in flight, the next starts when it returns. Every run
//! prints a manifest line, a few human-readable lines and, last, one JSON
//! result line with the end-to-end metrics (`--trace 0`) or the
//! per-layer ledger (`--trace 1`).
//!
//! Why each workload was chosen, with what was measured on a 2-CPU
//! Xeon (105 MiB L3) when the benchmark was written:
//!
//! * `uts` — `uts_count` on a 2-worker `Runtime`, `UtsParams::small(seed)`
//!   with `root_branches = 2000` and `sequential_below = 8`: ~95k nodes,
//!   ~30k tasks and ~31 ms per solve (21-31 ms in this benchmark's runs,
//!   moving with the host CPU reference every run prints). A fine-grain
//!   irregular task tree with no parcels and under 1 ms of hashing, so
//!   spawn, steal, help-wait and park dominate. Scheduler changes show
//!   here; transport changes should not move it. A run cycles through 64
//!   trees drawn from its seed: with one tree per run, run medians
//!   followed that tree's task count and spread 12% across ten seeds.
//! * `heat1d-tcp` — `Heat1dSolver`, 64 points and 200 steps on
//!   `Cluster::new_tcp(2, 1)`, the cluster built fresh for every solve.
//!   The step is latency-bound (~290 us/step, 290-305 us in this
//!   benchmark's runs, against 8.5 us on the in-process port; a traced run
//!   showed 96% exposed wait and 276 us mean parcel flight), so transport
//!   changes show here and kernel changes cannot. Reusing one cluster
//!   made whole runs land at 51 or 61 ms per solve; a fresh cluster per
//!   solve turns that into per-solve spread that the median absorbs.
//! * `heat1d-chaos` — the same solve on `Cluster::new_resilient(2, 1,
//!   Some(ChaosSpec::pinned()))`, fresh for every solve: the same TCP
//!   layer, but sequenced, acked, checksummed and retransmitted, ~5
//!   ms/step and dominated by the 50 ms retransmit timeout. A coalescing
//!   change that helps `heat1d-tcp` but delays acks shows up here as a
//!   regression, and retransmit-timeout or ack work can only show up
//!   here. The fault schedule is the pinned one in every run; the run
//!   seed feeds the initial field only. Seeding the schedule from the run
//!   seed made run medians 983, 1381 and 1535 ms on three seeds, because
//!   each schedule drops a different number of halos and every drop
//!   stalls a step for one timeout.
//! * `jacobi2d` — `Jacobi2dVns::<f64, 8>` on an 8192x8192 grid with 2
//!   workers, one step per solve. Each grid is 512 MiB, at least 4x the
//!   last-level cache, so the kernel is bandwidth-bound (0.83-0.86 GLUP/s
//!   over 3 runs) with almost no task or parcel traffic: scheduler and
//!   transport changes should leave it unchanged, kernel and chunking
//!   changes should move it. In this benchmark's runs it read 0.7-1.3
//!   GLUP/s, and each run's median step followed the host's STREAM copy
//!   bandwidth printed beside it, which ranged 10-22 GB/s with the code
//!   unchanged: comparisons on such a host need interleaved runs.

pub mod heat1d;
pub mod jacobi;
pub mod ledger;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod uts;
pub mod watchdog;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parallex::introspect::{CounterSnapshot, Trace};
use parallex::resilience::SplitMix64;

use ledger::{Ledger, TraceLedger};
use report::{Report, END_TO_END, PER_LAYER};
use stats::{median, percentile};
use watchdog::Watchdog;

/// The generator of seeded input `i` (a tree, a cell) of a run: every
/// seeded input of the benchmark comes from here.
pub(crate) fn seeded(seed: u64, i: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A run still going this long after it started is hung, whatever it is
/// doing.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Worker threads in the whole process (the box has 2 CPUs).
pub const WORKERS: usize = 2;

/// Solves timed at least, however short `--seconds` is.
const MIN_SOLVES: usize = 5;

/// Traced solves in a `--trace 1` run, at least.
const MIN_TRACED: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Unbalanced tree search on one runtime.
    Uts,
    /// 1D heat over plain TCP.
    Heat1dTcp,
    /// 1D heat over the reliable TCP stack under injected faults.
    Heat1dChaos,
    /// Bandwidth-bound 2D Jacobi.
    Jacobi2d,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Uts,
        WorkloadKind::Heat1dTcp,
        WorkloadKind::Heat1dChaos,
        WorkloadKind::Jacobi2d,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Uts => "uts",
            WorkloadKind::Heat1dTcp => "heat1d-tcp",
            WorkloadKind::Heat1dChaos => "heat1d-chaos",
            WorkloadKind::Jacobi2d => "jacobi2d",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run does.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured closed loop, seconds.
    pub seconds: f64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Test-sized inputs (and no last-level-cache size check).
    pub smoke: bool,
}

/// One measured pass through the closed loop.
pub struct Solve {
    /// Wall time of the solve, seconds.
    pub solve_s: f64,
    /// Process CPU time while the solve was in flight, seconds.
    pub cpu_s: f64,
    /// Counter delta over the solve, read once the runtime was idle.
    pub delta: CounterSnapshot,
    /// Counter snapshot after the solve (latency quantiles).
    pub after: CounterSnapshot,
    /// The solve's result and conservation checks.
    pub check: Result<(), String>,
    /// Per-locality traces when the solve was traced.
    pub traces: Vec<(u32, Trace)>,
}

/// A workload the closed loop can drive.
pub trait Workload {
    /// The workload's sizes as a JSON object, for the run manifest.
    fn sizes(&self) -> String;
    /// Time steps per solve (1 when the solve has no steps).
    fn steps(&self) -> usize;
    /// Work units per solve: tree nodes or lattice-site updates.
    fn work(&self) -> f64;
    /// Wall time past which a solve counts as failed, seconds.
    fn timeout_s(&self) -> f64;
    /// Run one solve, traced or not.
    fn solve(&mut self, traced: bool) -> Solve;
    /// Every set-up time measured so far, seconds.
    fn setup_samples(&self) -> Vec<f64>;
    /// Checks that cover the whole run rather than one solve.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Readings of the host taken after the timed solves of an
    /// end-to-end run, printed as notes and kept out of every metric.
    fn host_notes(&mut self, _report: &mut Report) {}
    /// Per-layer probes of layers this workload times itself or that
    /// only it exercises.
    fn probes(&mut self, report: &mut Report);
}

/// Build the workload `cfg` names (its set-up is timed inside).
fn build(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload {
        WorkloadKind::Uts => Box::new(uts::Uts::new(cfg)),
        WorkloadKind::Heat1dTcp | WorkloadKind::Heat1dChaos => Box::new(heat1d::Heat1d::new(cfg)),
        WorkloadKind::Jacobi2d => Box::new(jacobi::Jacobi::new(cfg)?),
    })
}

/// The run manifest: the machine, the build and the workload's inputs,
/// as one JSON object.
fn manifest(cfg: &Config, w: &dyn Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The benchmark may run from a plain copy of the sources; only ask git
    // when this directory is a checkout, or it would report a parent's.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let llc = procfs::llc_bytes().map_or("null".to_string(), |b| b.to_string());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": \"{commit}\", \"profile\": \"{profile}\", \"rustc\": \"{rustc}\", \"llc_bytes\": {llc}, \"sizes\": {}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        w.sizes(),
    )
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// Judge one solve: its own checks, then the timeout.
fn judged(w: &dyn Workload, s: &Solve) -> Result<(), String> {
    s.check.clone()?;
    if s.solve_s > w.timeout_s() {
        return Err(format!(
            "solve took {:.3} s, timeout {:.3} s",
            s.solve_s,
            w.timeout_s()
        ));
    }
    Ok(())
}

/// Run one solve under the watchdog and count it: as failed if it
/// panics, fails its checks or its timeout, or if `more` (what the
/// caller does with the solve) reports a failure.
fn attempt(
    w: &mut dyn Workload,
    traced: bool,
    report: &mut Report,
    dog: &Watchdog,
    more: impl FnOnce(&Solve) -> Result<(), String>,
) {
    dog.arm(w.timeout_s());
    let verdict = match catch_unwind(AssertUnwindSafe(|| w.solve(traced))) {
        Ok(s) => judged(w, &s).and(more(&s)),
        Err(panic) => Err(format!(
            "solve panicked: {}",
            panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("(no message)")
        )),
    };
    report.outcome.record(verdict);
    dog.settle(report);
}

/// Run `cfg` to completion and return its report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let dog = Watchdog::start(table, RUN_DEADLINE);
    let report = watched(cfg, &dog);
    dog.stop();
    report
}

fn watched(cfg: &Config, dog: &Watchdog) -> Result<Report, String> {
    let steal0 = procfs::host_steal_ticks();
    let mut w = build(cfg)?;
    println!("manifest {}", manifest(cfg, &*w));
    let mut report = Report::default();
    // Warm-up: lazy set-up and caches, checked but not timed.
    attempt(&mut *w, false, &mut report, dog, |_| Ok(()));
    if cfg.trace {
        per_layer(&mut *w, cfg, &mut report, dog);
    } else {
        end_to_end(&mut *w, cfg, &mut report, dog);
    }
    if let Err(reason) = w.finish() {
        // A run-level check failing puts every solve in doubt.
        report.outcome.failed = report.outcome.attempted;
        report.outcome.reasons.push(reason);
    }
    if cfg.trace {
        // Layers only `jacobi2d` exercises read 0 unless its probes say more.
        for name in [
            "stencil.computed_gbs",
            "stream.copy_gbs",
            "stencil.bw_frac",
            "algorithms.tasks_per_step",
        ] {
            report.set(name, 0.0);
        }
        probes::codec(&mut report);
        w.probes(&mut report);
    }
    if let (Some(a), Some(b)) = (steal0, procfs::host_steal_ticks()) {
        // CPU time the hypervisor gave to others while this run wanted it.
        report.notes.push(format!(
            "host steal {:.1}% of all CPU time during the run",
            100.0 * stats::ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64)
        ));
    }
    report.notes.push(format!(
        "host cpu reference {:.3} ms (a fixed single-thread loop, median of 5)",
        probes::host_cpu_ms()
    ));
    Ok(report)
}

/// The closed loop: solve until `seconds` have passed, at least
/// [`MIN_SOLVES`] times, handing each solve that returned to `each`.
fn closed_loop(
    w: &mut dyn Workload,
    seconds: f64,
    report: &mut Report,
    dog: &Watchdog,
    mut each: impl FnMut(&Solve),
) {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_SOLVES || start.elapsed().as_secs_f64() < seconds {
        attempt(w, false, report, dog, |s| {
            each(s);
            Ok(())
        });
        n += 1;
    }
}

fn end_to_end(w: &mut dyn Workload, cfg: &Config, report: &mut Report, dog: &Watchdog) {
    let mut solve_s = Vec::new();
    let mut cpu_s = 0.0;
    closed_loop(w, cfg.seconds, report, dog, |s| {
        solve_s.push(s.solve_s);
        cpu_s += s.cpu_s;
    });
    report.set("peak_rss_mb", procfs::peak_rss_mb());
    w.host_notes(report);
    let med = median(&solve_s);
    report.set("setup_s", median(&w.setup_samples()));
    report.set("solve_ms", med * 1e3);
    report.set("solve_ms_p90", percentile(&solve_s, 90.0) * 1e3);
    report.set("cpu_ms_per_solve", cpu_s / solve_s.len() as f64 * 1e3);
    report.notes.push(format!(
        "solves {} | per step: median {:.1} us, p90 {:.1} us | {:.4} M updates/s at the median",
        solve_s.len(),
        med * 1e6 / w.steps() as f64,
        percentile(&solve_s, 90.0) * 1e6 / w.steps() as f64,
        stats::ratio(w.work(), med) / 1e6,
    ));
}

fn per_layer(w: &mut dyn Workload, cfg: &Config, report: &mut Report, dog: &Watchdog) {
    let start = Instant::now();
    let mut ledger = Ledger::default();
    let mut solve_s = Vec::new();
    closed_loop(w, cfg.seconds * 0.5, report, dog, |s| {
        ledger.add(&s.delta, &s.after, s.solve_s);
        solve_s.push(s.solve_s);
    });
    let untraced = median(&solve_s);
    let mut traced = TraceLedger::default();
    // Counted solves take the first half of the run, traced ones most of
    // the rest; the probes after them are short.
    let steps = w.steps();
    let mut n = 0;
    while n < MIN_TRACED || start.elapsed().as_secs_f64() < cfg.seconds * 0.9 {
        attempt(w, true, report, dog, |s| {
            traced.add(&s.traces, s.solve_s, steps)
        });
        n += 1;
    }
    for (name, value) in ledger
        .metrics(WORKERS, w.steps())
        .into_iter()
        .chain(traced.metrics(untraced))
    {
        report.set(name, value);
    }
    report.notes.push(format!(
        "counted solves {} | traced solves {} (dropped events {})",
        ledger.solves,
        traced.solve_s.len(),
        traced.dropped
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose every second solve panics.
    struct Flaky {
        solves: usize,
    }

    impl Workload for Flaky {
        fn sizes(&self) -> String {
            "{}".to_string()
        }
        fn steps(&self) -> usize {
            1
        }
        fn work(&self) -> f64 {
            1.0
        }
        fn timeout_s(&self) -> f64 {
            5.0
        }
        fn solve(&mut self, _traced: bool) -> Solve {
            self.solves += 1;
            assert!(self.solves % 2 == 1, "solve {} lost a halo", self.solves);
            Solve {
                solve_s: 1e-3,
                cpu_s: 1e-3,
                delta: CounterSnapshot::default(),
                after: CounterSnapshot::default(),
                check: Ok(()),
                traces: Vec::new(),
            }
        }
        fn setup_samples(&self) -> Vec<f64> {
            vec![0.1]
        }
        fn probes(&mut self, _report: &mut Report) {}
    }

    #[test]
    fn a_panicking_solve_counts_as_failed_and_the_loop_goes_on() {
        let dog = Watchdog::start(END_TO_END, Duration::from_secs(60));
        let mut w = Flaky { solves: 0 };
        let mut report = Report::default();
        let mut returned = 0;
        closed_loop(&mut w, 0.0, &mut report, &dog, |_| returned += 1);
        dog.stop();
        assert_eq!(report.outcome.attempted, MIN_SOLVES as u64);
        assert_eq!(report.outcome.failed, (MIN_SOLVES / 2) as u64);
        assert_eq!(returned, MIN_SOLVES - MIN_SOLVES / 2);
        assert!(
            report.outcome.reasons[0].contains("panicked: solve 2 lost a halo"),
            "{:?}",
            report.outcome.reasons
        );
    }
}
