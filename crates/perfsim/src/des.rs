//! A discrete-event simulator of the AMT scheduler.
//!
//! Models what `parallex`'s work-stealing scheduler does to a bag of chunk
//! tasks on `n` simulated cores: per-core queues, pinning, stealing (with
//! a latency per steal) and a fixed dispatch overhead per task. Used to
//! validate the analytic makespans in [`crate::exec`] and to study the
//! grain-size regime where AMT overheads bite (the paper: "Like every AMT
//! model, HPX is known to have contention overheads when the grain size is
//! too small", Section VII-B).

use parallex::introspect::{CounterPath, CounterSnapshot, EventKind, Instance, Trace, TraceEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One simulated task.
#[derive(Clone, Copy, Debug)]
pub struct SimTask {
    /// Pure compute time, nanoseconds.
    pub duration_ns: f64,
    /// Pin to a specific core (never stolen) or run anywhere.
    pub pinned: Option<usize>,
}

/// Simulated scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct DesConfig {
    /// Simulated cores.
    pub cores: usize,
    /// Dispatch overhead per task, nanoseconds (queue pop, cache warmup).
    pub task_overhead_ns: f64,
    /// Whether idle cores steal from the busiest queue.
    pub steal_enabled: bool,
    /// Extra cost of a stolen task, nanoseconds (cold cache, queue
    /// contention).
    pub steal_latency_ns: f64,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            cores: 4,
            task_overhead_ns: 400.0,
            steal_enabled: true,
            steal_latency_ns: 800.0,
        }
    }
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct DesResult {
    /// Virtual time when the last task finished, nanoseconds.
    pub makespan_ns: f64,
    /// Number of stolen tasks.
    pub steals: usize,
    /// Busy time per core, nanoseconds.
    pub busy_ns: Vec<f64>,
    /// Tasks executed per core.
    pub tasks_run: Vec<usize>,
    /// Ground-truth critical path, nanoseconds. Every task is ready at
    /// virtual time zero and a simulated core executes its chain
    /// back-to-back (a core with no acquirable task exits the event
    /// loop instead of idling), so the longest dependency chain is the
    /// last-finishing core's serial run and its length equals the
    /// makespan. The trace analyzer's heuristic chain walk is validated
    /// against this exact quantity.
    pub critical_path_ns: f64,
    /// Tasks on the ground-truth critical chain (the last-finishing
    /// core's task count).
    pub critical_chain_len: usize,
}

impl DesResult {
    /// Fraction of `cores * makespan` spent computing (1.0 = perfect).
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            return 1.0;
        }
        self.busy_ns.iter().sum::<f64>() / (self.busy_ns.len() as f64 * self.makespan_ns)
    }

    /// Render the outcome through the native counter schema so simulated
    /// and measured runs diff path-for-path. The snapshot timestamp is the
    /// virtual makespan; counter names mirror the `/threads{...}` paths a
    /// native runtime registers in its
    /// [`Runtime::counter_registry`](parallex::runtime::Runtime::counter_registry).
    pub fn as_snapshot(&self, locality: u32) -> CounterSnapshot {
        let mut entries = Vec::new();
        let total: usize = self.tasks_run.iter().sum();
        entries.push((
            CounterPath::new("threads", locality, Instance::Total, "count/cumulative"),
            total as u64,
        ));
        entries.push((
            CounterPath::new("threads", locality, Instance::Total, "count/spawned"),
            total as u64,
        ));
        entries.push((
            CounterPath::new("threads", locality, Instance::Total, "count/stolen"),
            self.steals as u64,
        ));
        for (w, (&n, &b)) in self.tasks_run.iter().zip(&self.busy_ns).enumerate() {
            entries.push((
                CounterPath::new("threads", locality, Instance::Worker(w), "count/cumulative"),
                n as u64,
            ));
            entries.push((
                CounterPath::new("threads", locality, Instance::Worker(w), "time/busy-ns"),
                b as u64,
            ));
        }
        CounterSnapshot::from_entries(self.makespan_ns / 1_000.0, entries)
    }
}

/// Run the simulation: all tasks are ready at time zero (one bulk-
/// synchronous wave, which is what each stencil time step submits).
pub fn simulate(cfg: &DesConfig, tasks: &[SimTask]) -> DesResult {
    run_sim(cfg, tasks, None)
}

/// [`simulate`], additionally producing an event trace in the runtime's
/// native schema: one lane per simulated core, a `TaskRun` span per task
/// (virtual time, `arg` = 1 when stolen) and a `Steal` instant per steal
/// (`arg` = victim core). The trace feeds [`chrome_trace_json`] unchanged,
/// so a simulated schedule renders next to a measured one in Perfetto.
///
/// [`chrome_trace_json`]: parallex::introspect::chrome_trace_json
pub fn simulate_traced(cfg: &DesConfig, tasks: &[SimTask]) -> (DesResult, Trace) {
    let mut events = Vec::new();
    let result = run_sim(cfg, tasks, Some(&mut events));
    let trace = Trace::from_parts(cfg.cores, events, 0);
    (result, trace)
}

fn run_sim(cfg: &DesConfig, tasks: &[SimTask], mut sink: Option<&mut Vec<TraceEvent>>) -> DesResult {
    assert!(cfg.cores > 0);
    // Distribute: pinned tasks to their core, unpinned round-robin (the
    // runtime's block/parallel executors do the same).
    let mut queues: Vec<VecDeque<(f64, bool)>> = vec![VecDeque::new(); cfg.cores];
    let mut rr = 0;
    for t in tasks {
        let core = match t.pinned {
            Some(c) => c % cfg.cores,
            None => {
                rr = (rr + 1) % cfg.cores;
                rr
            }
        };
        queues[core].push_back((t.duration_ns, t.pinned.is_some()));
    }

    // Event queue of core-becomes-free times. f64 is not Ord; nanosecond
    // u64 keys are exact enough for the model.
    let mut events: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for c in 0..cfg.cores {
        events.push(Reverse((0, c)));
    }
    let mut busy = vec![0.0; cfg.cores];
    let mut tasks_run = vec![0usize; cfg.cores];
    let mut last_finish = vec![0.0f64; cfg.cores];
    let mut makespan = 0.0f64;
    let mut steals = 0;

    while let Some(Reverse((now, core))) = events.pop() {
        let now_ns = now as f64;
        // Own queue first.
        let (dur, extra, victim) = if let Some((d, _)) = queues[core].pop_front() {
            (d, 0.0, None)
        } else if cfg.steal_enabled {
            // Steal from the longest queue, oldest unpinned task first.
            let victim = (0..cfg.cores)
                .filter(|&v| v != core)
                .max_by_key(|&v| queues[v].iter().filter(|(_, pinned)| !pinned).count());
            let mut stolen = None;
            if let Some(v) = victim {
                if let Some(pos) = queues[v].iter().position(|(_, pinned)| !pinned) {
                    stolen = queues[v].remove(pos).map(|t| (t, v));
                }
            }
            match stolen {
                Some(((d, _), v)) => {
                    steals += 1;
                    (d, cfg.steal_latency_ns, Some(v))
                }
                None => continue, // nothing left anywhere for this core
            }
        } else {
            continue;
        };
        let finish = now_ns + cfg.task_overhead_ns + extra + dur;
        busy[core] += dur;
        tasks_run[core] += 1;
        if let Some(out) = sink.as_deref_mut() {
            if let Some(v) = victim {
                out.push(TraceEvent {
                    lane: core,
                    kind: EventKind::Steal,
                    t_us: now_ns / 1_000.0,
                    dur_us: None,
                    arg: v as u64,
                });
            }
            out.push(TraceEvent {
                lane: core,
                kind: EventKind::TaskRun,
                t_us: now_ns / 1_000.0,
                dur_us: Some((finish - now_ns) / 1_000.0),
                arg: victim.is_some() as u64,
            });
        }
        makespan = makespan.max(finish);
        last_finish[core] = finish;
        events.push(Reverse((finish.ceil() as u64, core)));
    }

    // Cores run gap-free from t=0, so the critical chain is the
    // last-finishing core's serial run.
    let crit_core = (0..cfg.cores)
        .max_by(|&a, &b| last_finish[a].partial_cmp(&last_finish[b]).unwrap())
        .unwrap_or(0);
    DesResult {
        makespan_ns: makespan,
        steals,
        busy_ns: busy,
        tasks_run: tasks_run.clone(),
        critical_path_ns: last_finish[crit_core],
        critical_chain_len: tasks_run[crit_core],
    }
}

/// Convenience: simulate one stencil time step of `lups` updates split
/// into `chunks` equal unpinned tasks at `ns_per_lup`.
pub fn simulate_step(cfg: &DesConfig, lups: f64, chunks: usize, ns_per_lup: f64) -> DesResult {
    assert!(chunks > 0);
    let per_chunk = lups / chunks as f64 * ns_per_lup;
    let tasks: Vec<SimTask> =
        (0..chunks).map(|_| SimTask { duration_ns: per_chunk, pinned: None }).collect();
    simulate(cfg, &tasks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, dur: f64) -> Vec<SimTask> {
        (0..n).map(|_| SimTask { duration_ns: dur, pinned: None }).collect()
    }

    #[test]
    fn empty_task_set_finishes_instantly() {
        let r = simulate(&DesConfig::default(), &[]);
        assert_eq!(r.makespan_ns, 0.0);
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn single_task_pays_overhead_plus_duration() {
        let cfg = DesConfig { cores: 1, task_overhead_ns: 100.0, ..Default::default() };
        let r = simulate(&cfg, &uniform(1, 1000.0));
        assert!((r.makespan_ns - 1100.0).abs() < 2.0, "{}", r.makespan_ns);
    }

    #[test]
    fn perfect_speedup_for_balanced_coarse_tasks() {
        let cfg = DesConfig { cores: 8, task_overhead_ns: 10.0, ..Default::default() };
        let r = simulate(&cfg, &uniform(8, 1_000_000.0));
        assert!(r.utilization() > 0.98, "{}", r.utilization());
    }

    #[test]
    fn stealing_rebalances_a_skewed_load() {
        // All 16 tasks land on core 0's queue via pinning? No — pinned
        // tasks are never stolen. Instead: round-robin with 2 cores but
        // tasks of very different sizes.
        let mut tasks = uniform(2, 10_000.0);
        tasks.extend(uniform(14, 100.0));
        let steal = simulate(
            &DesConfig { cores: 4, task_overhead_ns: 1.0, steal_latency_ns: 5.0, steal_enabled: true },
            &tasks,
        );
        let no_steal = simulate(
            &DesConfig { cores: 4, task_overhead_ns: 1.0, steal_latency_ns: 5.0, steal_enabled: false },
            &tasks,
        );
        assert!(steal.makespan_ns <= no_steal.makespan_ns + 1.0);
    }

    #[test]
    fn pinned_tasks_stay_put() {
        // Everything pinned to core 0: makespan is serial even with
        // stealing enabled.
        let tasks: Vec<SimTask> =
            (0..8).map(|_| SimTask { duration_ns: 1000.0, pinned: Some(0) }).collect();
        let cfg = DesConfig { cores: 4, task_overhead_ns: 0.0, ..Default::default() };
        let r = simulate(&cfg, &tasks);
        assert_eq!(r.steals, 0);
        assert!(r.makespan_ns >= 8000.0 - 8.0, "{}", r.makespan_ns);
        assert_eq!(r.busy_ns[1], 0.0);
    }

    #[test]
    fn fine_grain_is_dominated_by_overhead() {
        // The paper's grain-size effect: same total work, 1000x more
        // tasks, overhead swamps compute.
        let cfg = DesConfig { cores: 4, task_overhead_ns: 500.0, ..Default::default() };
        let coarse = simulate_step(&cfg, 1e6, 16, 1.0);
        let fine = simulate_step(&cfg, 1e6, 16_000, 1.0);
        assert!(fine.makespan_ns > 4.0 * coarse.makespan_ns,
            "fine {} vs coarse {}", fine.makespan_ns, coarse.makespan_ns);
    }

    #[test]
    fn des_agrees_with_analytic_makespan_for_uniform_waves() {
        // chunks = 4*cores uniform tasks: analytic = 4 waves of
        // (chunk + overhead).
        let cfg = DesConfig { cores: 8, task_overhead_ns: 200.0, ..Default::default() };
        let lups = 8192.0 * 1024.0;
        let ns_per_lup = 0.5;
        let chunks = 32;
        let r = simulate_step(&cfg, lups, chunks, ns_per_lup);
        let per_chunk = lups / chunks as f64 * ns_per_lup;
        let analytic = 4.0 * (per_chunk + cfg.task_overhead_ns);
        let err = (r.makespan_ns - analytic).abs() / analytic;
        assert!(err < 0.02, "DES {} vs analytic {}", r.makespan_ns, analytic);
    }

    #[test]
    fn traced_sim_mirrors_untraced_result() {
        let cfg = DesConfig { cores: 4, task_overhead_ns: 100.0, ..Default::default() };
        let tasks = uniform(16, 5000.0);
        let plain = simulate(&cfg, &tasks);
        let (traced, trace) = simulate_traced(&cfg, &tasks);
        assert_eq!(plain.makespan_ns, traced.makespan_ns);
        assert_eq!(plain.steals, traced.steals);
        assert_eq!(trace.of_kind(EventKind::TaskRun).count(), 16);
        assert_eq!(trace.of_kind(EventKind::Steal).count(), traced.steals);
        trace.check_well_nested().unwrap();
    }

    #[test]
    fn sim_snapshot_speaks_native_counter_schema() {
        let cfg = DesConfig { cores: 2, task_overhead_ns: 50.0, ..Default::default() };
        let r = simulate(&cfg, &uniform(8, 1000.0));
        let snap = r.as_snapshot(3);
        // Every simulated path round-trips through the textual HPX form,
        // exactly like the paths the native registry emits.
        for (p, _) in snap.iter() {
            assert_eq!(&CounterPath::parse(&p.to_string()).unwrap(), p);
            assert_eq!(p.locality, 3);
        }
        let total =
            snap.get(&CounterPath::new("threads", 3, Instance::Total, "count/cumulative"));
        assert_eq!(total, Some(8));
        let per_worker: u64 = (0..2)
            .map(|w| {
                snap.get(&CounterPath::new("threads", 3, Instance::Worker(w), "count/cumulative"))
                    .unwrap()
            })
            .sum();
        assert_eq!(per_worker, 8);
    }

    #[test]
    fn critical_path_is_the_makespan_of_the_busiest_core() {
        let cfg = DesConfig { cores: 4, task_overhead_ns: 100.0, ..Default::default() };
        let r = simulate(&cfg, &uniform(17, 3000.0));
        assert!((r.critical_path_ns - r.makespan_ns).abs() < 1e-6,
            "all-ready-at-zero ⇒ chain == makespan: {} vs {}",
            r.critical_path_ns, r.makespan_ns);
        assert!(r.critical_chain_len >= 1);
        assert!(r.critical_chain_len <= 17);
        let total: usize = r.tasks_run.iter().sum();
        assert_eq!(total, 17);
        // Empty simulation has an empty chain.
        let empty = simulate(&cfg, &[]);
        assert_eq!(empty.critical_path_ns, 0.0);
        assert_eq!(empty.critical_chain_len, 0);
    }

    #[test]
    fn utilization_definition_is_bounded() {
        let cfg = DesConfig::default();
        let r = simulate(&cfg, &uniform(13, 777.0));
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }
}
