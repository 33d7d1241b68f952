//! End-to-end tests of the introspection layer: trace a distributed
//! heat1d solve on a loopback cluster and check the Chrome-trace export,
//! counter conservation, and native/simulated schema parity.

use parallex::introspect::{
    chrome_trace_json, CounterPath, CounterSampler, EventKind, Instance,
};
use parallex::locality::Cluster;
use parallex_perfsim::des::{simulate_traced, DesConfig, SimTask};
use parallex_stencil::heat1d::{install, Heat1dParams, Heat1dSolver};
use parallex_stencil::plan::StencilPlan;
use parallex_stencil::verify::{heat1d_reference, max_abs_diff};
use std::time::Duration;

const LOCALITIES: usize = 2;
const WORKERS: usize = 2;
const N: usize = 1 << 14;
const STEPS: usize = 20;

/// Run a traced 2-locality heat1d solve, returning the per-locality
/// traces, the cluster-wide counter delta, and the solve's max error.
fn traced_heat1d() -> (
    Vec<(u32, parallex::introspect::Trace)>,
    parallex::introspect::CounterSnapshot,
    f64,
) {
    let cluster = Cluster::new(LOCALITIES, WORKERS);
    install(&cluster);
    let params = Heat1dParams::new(N, STEPS, 0.25);
    let solver = Heat1dSolver::new(&cluster, params);
    let before = cluster.counter_snapshot();
    cluster.start_trace();
    let init = |i: usize| if i < N / 2 { 1.0 } else { 0.0 };
    let result = solver.run(init);
    let traces = cluster.stop_trace();
    // A task's completion is counted after its body returns, so the solve
    // can finish before its last tasks are; the identities hold at idle.
    cluster.wait_idle();
    let delta = cluster.counter_snapshot().delta(&before);
    cluster.shutdown();
    let reference = heat1d_reference(N, STEPS, 0.25, 0.0, 0.0, init);
    (traces, delta, max_abs_diff(&result, &reference))
}

#[test]
fn traced_distributed_run_exports_chrome_json() {
    let (traces, _delta, err) = traced_heat1d();
    assert!(err < 1e-12, "solver still correct under tracing: {err}");
    assert_eq!(traces.len(), LOCALITIES);
    for (_, t) in &traces {
        t.check_well_nested().expect("spans well nested per lane");
        assert_eq!(t.dropped, 0, "default capacity covers this run");
    }

    let json = chrome_trace_json(&traces);
    // Both localities render as distinct processes.
    for pid in 0..LOCALITIES {
        assert!(json.contains(&format!("\"name\":\"locality#{pid}\"")), "pid {pid}");
        assert!(json.contains(&format!("\"pid\":{pid},")), "pid {pid}");
    }
    // The event mix of a halo-exchanging stencil is all present.
    for name in ["task-run", "parcel-send", "parcel-recv", "halo-exchange", "future-wait"] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name} missing");
    }
    // Every locality both sends and receives halo parcels.
    for (loc, t) in &traces {
        assert!(t.of_kind(EventKind::ParcelSend).count() >= STEPS, "locality {loc} sends");
        assert!(t.of_kind(EventKind::ParcelRecv).count() >= STEPS, "locality {loc} recvs");
        assert!(t.of_kind(EventKind::HaloExchange).count() >= STEPS, "locality {loc} halos");
    }

    // Halo-parcel activity overlaps compute: on each locality some parcel
    // receive falls inside the span of the step loop's task-run window.
    for (loc, t) in &traces {
        let runs: Vec<(f64, f64)> = t
            .of_kind(EventKind::TaskRun)
            .filter_map(|e| e.dur_us.map(|d| (e.t_us, e.t_us + d)))
            .collect();
        let overlapping = t
            .of_kind(EventKind::ParcelRecv)
            .filter(|e| runs.iter().any(|&(s, f)| e.t_us >= s && e.t_us <= f))
            .count();
        assert!(overlapping > 0, "locality {loc}: no parcel overlapped compute");
    }
}

#[test]
fn cluster_counters_conserve_and_match_legacy_snapshot() {
    let (_, delta, _) = traced_heat1d();
    assert_eq!(delta.total("parcels", "count/sent"), delta.total("parcels", "count/received"));
    assert_eq!(
        delta.total("threads", "count/spawned"),
        delta.total("threads", "count/cumulative") + delta.total("threads", "count/panicked"),
    );
    // Per-worker cumulative counts add up to each locality's total.
    for loc in 0..LOCALITIES as u32 {
        let total = delta
            .get(&CounterPath::new("threads", loc, Instance::Total, "count/cumulative"))
            .unwrap();
        let per_worker: u64 = (0..WORKERS)
            .filter_map(|w| {
                delta.get(&CounterPath::new(
                    "threads",
                    loc,
                    Instance::Worker(w),
                    "count/cumulative",
                ))
            })
            .sum();
        assert_eq!(per_worker, total, "locality {loc}");
    }
}

#[test]
fn sampler_series_is_monotone_on_a_live_runtime() {
    let cluster = Cluster::new(1, 2);
    install(&cluster);
    let registry = cluster.locality(0).runtime().counter_registry().clone();
    let sampler = CounterSampler::start(registry, Duration::from_millis(1));
    let solver = Heat1dSolver::new(&cluster, Heat1dParams::new(4096, 50, 0.25));
    let _ = solver.run(|_| 1.0);
    let series = sampler.stop();
    cluster.shutdown();

    assert!(!series.is_empty());
    let path = CounterPath::new("threads", 0, Instance::Total, "count/spawned");
    let counts: Vec<u64> = series.samples.iter().filter_map(|s| s.get(&path)).collect();
    assert_eq!(counts.len(), series.len(), "every snapshot carries the path");
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "cumulative counter is monotone");
    assert!(*counts.last().unwrap() > 0);
    // Rates are finite and non-negative.
    for (_, r) in series.rates(&path) {
        assert!(r.is_finite() && r >= 0.0);
    }
}

#[test]
fn simulated_and_native_runs_share_the_schema() {
    let (_, delta, _) = traced_heat1d();
    let plan = StencilPlan::new(1, N / LOCALITIES, 4 * WORKERS);
    let tasks: Vec<SimTask> = (0..plan.chunks())
        .map(|i| SimTask { duration_ns: plan.chunk_lups(i) as f64 * 2.0, pinned: None })
        .collect();
    let cfg = DesConfig { cores: WORKERS, ..Default::default() };
    let (result, sim_trace) = simulate_traced(&cfg, &tasks);

    // Same path type, same textual form, diffable: every simulated path
    // also exists in the native snapshot (locality 0).
    let sim = result.as_snapshot(0);
    for (p, _) in sim.iter() {
        assert!(delta.get(p).is_some(), "native run lacks simulated path {p}");
    }
    // The simulated trace feeds the same exporter.
    let json = chrome_trace_json(&[(0, sim_trace)]);
    assert!(json.contains("\"name\":\"task-run\""));
    assert!(json.ends_with('\n'));
}
