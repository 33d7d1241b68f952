//! Irregular workloads on the AMT runtime — the workload class the
//! paper's introduction motivates ParalleX with ("future algorithms are
//! expected to feature an increased dynamic behavior and low uniformity").
//!
//! ```text
//! cargo run --release -p parallex-bench --example irregular_workloads
//! ```

use parallex::introspect::{analyze, EventKind};
use parallex::prelude::*;
use parallex::sched::SchedulerPolicy;
use parallex::util::HighResolutionTimer;
use parallex_workloads::quadrature::integrate_adaptive;
use parallex_workloads::uts::{uts_count, uts_count_sequential, UtsParams};
use parallex_workloads::{fib::fib_reference, parallel_fib};

fn main() {
    // ---- unbalanced tree search: stealing vs static placement ----------
    let mut params = UtsParams::small(42);
    params.sequential_below = 6;
    let want = uts_count_sequential(params);
    println!("UTS tree: {want} nodes (deterministic, shape unknown until traversal)\n");
    for (name, policy) in [
        ("work-stealing", SchedulerPolicy::LocalPriority),
        ("static       ", SchedulerPolicy::Static),
    ] {
        let rt = Runtime::builder().worker_threads(4).scheduler(policy).build();
        let t = HighResolutionTimer::new();
        let got = uts_count(&rt, params);
        let secs = t.elapsed();
        assert_eq!(got, want);
        let steals = rt.perf_snapshot().tasks_stolen;
        println!("  {name}: {secs:>8.4}s  ({steals} steals)");
        rt.shutdown();
    }

    // ---- fork-join fib with the grain-size dial -------------------------
    println!("\nfib(30) task recursion (grain-size dial):");
    let rt = Runtime::builder().worker_threads(4).build();
    for threshold in [12u64, 18, 24] {
        let t = HighResolutionTimer::new();
        let got = parallel_fib(&rt, 30, threshold);
        assert_eq!(got, fib_reference(30));
        println!("  threshold {threshold:>2}: {:.4}s", t.elapsed());
    }

    // ---- adaptive quadrature with a task-timeline trace ------------------
    println!("\nadaptive quadrature of a spike, with the task tracer on:");
    rt.tracer().start();
    let v = integrate_adaptive(&rt, |x| 1.0 / (1e-4 + x * x), -1.0, 1.0, 1e-9);
    rt.wait_idle();
    let trace = rt.tracer().stop();
    let grains: Vec<f64> = trace
        .of_kind(EventKind::TaskRun)
        .filter_map(|e| e.dur_us)
        .collect();
    // Task self-time over the traced window: nested (help-executed)
    // tasks count once, so utilization never exceeds 100%.
    let a = analyze(&[(0, trace)]);
    let busy_us: f64 = a.worker_lanes().map(|l| l.compute_us).sum();
    println!("  integral = {v:.4}");
    println!(
        "  {} tasks, mean grain {:.1} us, pool utilization {:.0}%",
        grains.len(),
        grains.iter().sum::<f64>() / grains.len().max(1) as f64,
        100.0 * busy_us / (a.wall_us * rt.workers() as f64).max(1e-9)
    );
    rt.shutdown();
    println!("\nThe subdivision tree followed the integrand's spike — data-directed");
    println!("computing, scheduled by work stealing without any static partition.");
}
