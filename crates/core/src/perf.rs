//! The backing store of the runtime's counters.
//!
//! HPX exposes introspection counters under paths like
//! `/threads{locality#0/total}/count/cumulative`; this module holds the
//! cheap relaxed atomics bumped on the hot paths and registers one probe
//! per counter in the runtime's [`CounterRegistry`]
//! (`register_runtime_counters`). The registry is the only way to read
//! them.
//!
//! Once a runtime is idle (`wait_idle`), the counters satisfy two
//! conservation identities (pinned by tests):
//! `count/spawned == count/cumulative + count/panicked`, and — summed over
//! every locality of a loopback cluster — `parcels count/sent ==
//! count/received` (response parcels included). Each per-worker
//! `count/cumulative` counts the same successful completions as the
//! locality total, so the workers sum to it exactly.

use crate::introspect::{CounterPath, CounterRegistry, Instance};
use crate::runtime::Core;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Monotone event counters for one runtime.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Tasks handed to the scheduler.
    pub(crate) tasks_spawned: AtomicUsize,
    /// Tasks that finished executing without panicking.
    pub(crate) tasks_executed: AtomicUsize,
    /// Tasks whose closure panicked.
    pub(crate) tasks_panicked: AtomicUsize,
    /// Future continuations run.
    pub(crate) continuations_run: AtomicUsize,
    /// Parcels sent from this locality.
    pub(crate) parcels_sent: AtomicUsize,
    /// Parcels received by this locality.
    pub(crate) parcels_received: AtomicUsize,
}

/// Per-worker execution stats (one per scheduler worker, owned by the
/// runtime core), feeding the `/threads{locality#L/worker#W}/...`
/// counter paths.
#[derive(Debug, Default)]
pub(crate) struct WorkerStat {
    /// Tasks this worker ran to completion without panicking.
    pub(crate) tasks_executed: AtomicUsize,
    /// Wall time this worker spent inside tasks, panicked or not,
    /// nanoseconds.
    pub(crate) busy_ns: AtomicU64,
}

/// Populate `registry` with the standard counter set of one runtime:
/// locality-total task, continuation, parcel and scheduler counters plus
/// per-worker cumulative-task and busy-time counters. Probes capture the core and
/// evaluate a relaxed atomic load at snapshot time.
pub(crate) fn register_runtime_counters(registry: &CounterRegistry, locality: u32, core: &Arc<Core>) {
    macro_rules! counter {
        ($object:expr, $name:expr, $field:ident) => {{
            let c = core.clone();
            registry.register(
                CounterPath::new($object, locality, Instance::Total, $name),
                move || c.counters.$field.load(Ordering::Relaxed) as u64,
            );
        }};
    }
    macro_rules! sched_counter {
        ($name:expr, $field:ident) => {{
            let c = core.clone();
            registry.register(
                CounterPath::new("threads", locality, Instance::Total, $name),
                move || c.sched.$field.load(Ordering::Relaxed) as u64,
            );
        }};
    }
    counter!("threads", "count/cumulative", tasks_executed);
    counter!("threads", "count/spawned", tasks_spawned);
    counter!("threads", "count/panicked", tasks_panicked);
    counter!("lcos", "count/continuations", continuations_run);
    counter!("parcels", "count/sent", parcels_sent);
    counter!("parcels", "count/received", parcels_received);
    sched_counter!("count/stolen", stat_stolen);
    sched_counter!("count/pushes", stat_pushed);
    sched_counter!("count/steal-attempts", stat_steal_attempts);
    sched_counter!("count/steal-batches", stat_steal_batches);
    sched_counter!("count/parks", stat_parks);
    sched_counter!("count/wakes", stat_wakes);
    for w in 0..core.worker_stats.len() {
        let c = core.clone();
        registry.register(
            CounterPath::new("threads", locality, Instance::Worker(w), "count/cumulative"),
            move || c.worker_stats[w].tasks_executed.load(Ordering::Relaxed) as u64,
        );
        let c = core.clone();
        registry.register(
            CounterPath::new("threads", locality, Instance::Worker(w), "time/busy-ns"),
            move || c.worker_stats[w].busy_ns.load(Ordering::Relaxed),
        );
    }
    // Latency-histogram probes (nanoseconds): locality-total p50/p99 and
    // sample count for every channel, plus per-worker task quantiles —
    // the `/latency{locality#L/worker#W}/task/p99` paths.
    for ch in crate::introspect::LatencyChannel::ALL {
        for (qname, q) in [("p50", 0.5), ("p99", 0.99)] {
            let c = core.clone();
            registry.register(
                CounterPath::new(
                    "latency",
                    locality,
                    Instance::Total,
                    format!("{}/{qname}", ch.name()),
                ),
                move || c.latency.merged(ch).value_at_quantile(q),
            );
        }
        let c = core.clone();
        registry.register(
            CounterPath::new(
                "latency",
                locality,
                Instance::Total,
                format!("{}/count", ch.name()),
            ),
            move || c.latency.merged(ch).count(),
        );
    }
    for w in 0..core.worker_stats.len() {
        for (qname, q) in [("p50", 0.5), ("p99", 0.99)] {
            let c = core.clone();
            registry.register(
                CounterPath::new("latency", locality, Instance::Worker(w), format!("task/{qname}")),
                move || {
                    c.latency
                        .lane(crate::introspect::LatencyChannel::Task, w)
                        .value_at_quantile(q)
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::introspect::CounterSnapshot;
    use crate::runtime::Runtime;

    /// The standalone runtime's `/{object}{locality#0/total}/{name}`.
    fn read(snap: &CounterSnapshot, object: &str, name: &str) -> u64 {
        let path = CounterPath::new(object, 0, Instance::Total, name);
        snap.get(&path).unwrap_or_else(|| panic!("{path} is registered"))
    }

    #[test]
    fn snapshot_reflects_counts() {
        let rt = Runtime::builder().worker_threads(1).build();
        let c = &rt.core().counters;
        c.tasks_spawned.fetch_add(3, Ordering::Relaxed);
        c.parcels_sent.fetch_add(2, Ordering::Relaxed);
        let snap = rt.counter_snapshot();
        assert_eq!(read(&snap, "threads", "count/spawned"), 3);
        assert_eq!(read(&snap, "parcels", "count/sent"), 2);
        assert_eq!(read(&snap, "threads", "count/stolen"), 0);
        rt.shutdown();
    }

    #[test]
    fn paths_cover_all_counters() {
        let rt = Runtime::builder().worker_threads(1).build();
        let snap = rt.counter_snapshot();
        let paths = [
            ("threads", "count/cumulative"),
            ("threads", "count/spawned"),
            ("threads", "count/panicked"),
            ("threads", "count/stolen"),
            ("threads", "count/pushes"),
            ("threads", "count/steal-attempts"),
            ("threads", "count/steal-batches"),
            ("threads", "count/parks"),
            ("threads", "count/wakes"),
            ("lcos", "count/continuations"),
            ("parcels", "count/sent"),
            ("parcels", "count/received"),
        ];
        for (object, name) in paths {
            read(&snap, object, name);
        }
        let non_latency_totals = snap
            .iter()
            .filter(|(p, _)| p.instance == Instance::Total && p.object != "latency")
            .count();
        assert_eq!(non_latency_totals, paths.len());
        rt.shutdown();
    }

    #[test]
    fn task_conservation_after_wait_idle() {
        // spawned == executed + panicked once the runtime is idle, even
        // with panicking tasks in the mix.
        let rt = Runtime::builder().worker_threads(2).build();
        let before = rt.counter_snapshot();
        for i in 0..40 {
            rt.spawn(move || {
                if i % 10 == 0 {
                    panic!("intentional test panic");
                }
            });
        }
        rt.wait_idle();
        let d = rt.counter_snapshot().delta(&before);
        let (spawned, executed, panicked) = (
            read(&d, "threads", "count/spawned"),
            read(&d, "threads", "count/cumulative"),
            read(&d, "threads", "count/panicked"),
        );
        assert_eq!(spawned, 40);
        assert_eq!(panicked, 4);
        assert_eq!(spawned, executed + panicked, "conservation: {d:?}");
        rt.shutdown();
    }

    #[test]
    fn per_worker_cumulative_sums_to_locality_total() {
        // `count/cumulative` means successful completions at every
        // instance, so the workers sum to the locality total exactly even
        // when tasks panic.
        let rt = Runtime::builder().worker_threads(2).build();
        for i in 0..25 {
            rt.spawn(move || {
                if i % 5 == 0 {
                    panic!("intentional test panic");
                }
            });
        }
        rt.wait_idle();
        let snap = rt.counter_snapshot();
        assert_eq!(read(&snap, "threads", "count/spawned"), 25);
        assert_eq!(read(&snap, "threads", "count/panicked"), 5);
        let cumulative = read(&snap, "threads", "count/cumulative");
        assert_eq!(cumulative, 20);
        let per_worker: u64 = (0..rt.workers())
            .map(|w| {
                snap.get(&CounterPath::new(
                    "threads",
                    0,
                    Instance::Worker(w),
                    "count/cumulative",
                ))
                .unwrap()
            })
            .sum();
        assert_eq!(per_worker, cumulative);
        // 12 runtime totals + 12 latency totals (4 channels × p50/p99/count)
        // + per worker: 2 thread stats and 2 task-latency quantiles
        assert_eq!(snap.len(), 24 + 4 * rt.workers());
        rt.shutdown();
    }

    #[test]
    fn latency_counters_populate_after_work() {
        use crate::introspect::{CounterPath, Instance};
        let rt = crate::runtime::Runtime::builder().worker_threads(2).build();
        for _ in 0..50 {
            rt.spawn(|| {
                std::hint::black_box((0..100).sum::<u64>());
            });
        }
        rt.wait_idle();
        let snap = rt.counter_snapshot();
        let count = snap
            .get(&CounterPath::new("latency", 0, Instance::Total, "task/count"))
            .unwrap();
        assert!(count >= 50, "every task records a latency sample: {count}");
        let p50 = snap
            .get(&CounterPath::new("latency", 0, Instance::Total, "task/p50"))
            .unwrap();
        let p99 = snap
            .get(&CounterPath::new("latency", 0, Instance::Total, "task/p99"))
            .unwrap();
        assert!(p50 > 0 && p99 >= p50, "quantiles ordered: p50={p50} p99={p99}");
        // Per-worker task quantiles exist for every worker.
        for w in 0..rt.workers() {
            assert!(snap
                .get(&CounterPath::new("latency", 0, Instance::Worker(w), "task/p99"))
                .is_some());
        }
        rt.shutdown();
    }
}
