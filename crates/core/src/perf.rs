//! The backing store of the runtime's counters.
//!
//! HPX exposes introspection counters under paths like
//! `/threads{locality#0/total}/count/cumulative`; this module holds the
//! cheap atomics bumped on the hot paths and registers one probe per
//! counter in the runtime's [`CounterRegistry`]
//! (`register_runtime_counters`). The registry is the only way to read
//! them.
//!
//! Task accounting is per worker: every worker owns a cache-padded
//! [`WorkerStat`] and bumps only its own, and spawns from threads outside
//! the pool share one more slot. A locality-total path is the sum of the
//! slots, read at snapshot time, so counting a task's spawn and finish
//! writes no cache line another worker writes. The runtime's count of unfinished
//! tasks (`Runtime::outstanding`) is derived from the same slots rather
//! than kept in a counter of its own (see `Core::outstanding`).
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

/// The runtime's event counters that are not per worker.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Parcels sent from this locality.
    pub(crate) parcels_sent: AtomicUsize,
    /// Parcels received by this locality.
    pub(crate) parcels_received: AtomicUsize,
}

/// One worker's task accounting, owned by the runtime core (one per
/// scheduler worker, plus one shared by every thread outside the pool),
/// feeding the locality totals and the `/threads{locality#L/worker#W}/...`
/// counter paths.
///
/// The finish counts (`tasks_executed`, `tasks_panicked`) are bumped with
/// `Release` as the last act of running a task, so that a reader who
/// loads them with `Acquire` also sees the spawn of every task it sees
/// finish (`Core::outstanding` relies on this).
#[derive(Debug, Default)]
pub(crate) struct WorkerStat {
    /// Tasks this thread handed to the scheduler.
    pub(crate) tasks_spawned: AtomicUsize,
    /// Of those, future continuations spawned as tasks.
    pub(crate) continuations: AtomicUsize,
    /// Tasks this worker ran to completion without panicking.
    pub(crate) tasks_executed: AtomicUsize,
    /// Tasks this worker ran whose closure panicked.
    pub(crate) tasks_panicked: AtomicUsize,
    /// Wall time this worker spent inside tasks, panicked or not,
    /// nanoseconds.
    pub(crate) busy_ns: AtomicU64,
}

/// Populate `registry` with the standard counter set of one runtime:
/// locality-total task, continuation, parcel and scheduler counters plus
/// per-worker cumulative-task and busy-time counters. Probes capture the
/// core and evaluate atomic loads (summed over the per-worker slots for
/// task, push and steal-probe totals) at snapshot time.
pub(crate) fn register_runtime_counters(registry: &CounterRegistry, locality: u32, core: &Arc<Core>) {
    let total = |object: &str, name: &str, read: fn(&Core) -> usize| {
        let c = core.clone();
        registry.register(
            CounterPath::new(object, locality, Instance::Total, name),
            move || read(&c) as u64,
        );
    };
    total("threads", "count/cumulative", |c| c.task_total(|s| &s.tasks_executed));
    total("threads", "count/spawned", |c| c.task_total(|s| &s.tasks_spawned));
    total("threads", "count/panicked", |c| c.task_total(|s| &s.tasks_panicked));
    total("lcos", "count/continuations", |c| c.task_total(|s| &s.continuations));
    total("parcels", "count/sent", |c| c.counters.parcels_sent.load(Ordering::Relaxed));
    total("parcels", "count/received", |c| c.counters.parcels_received.load(Ordering::Relaxed));
    total("threads", "count/stolen", |c| c.sched.stat_stolen.load(Ordering::Relaxed));
    total("threads", "count/pushes", |c| c.sched.pushes());
    total("threads", "count/steal-attempts", |c| c.sched.steal_attempts());
    total("threads", "count/steal-batches", |c| c.sched.stat_steal_batches.load(Ordering::Relaxed));
    total("threads", "count/parks", |c| c.sched.stat_parks.load(Ordering::Relaxed));
    total("threads", "count/wakes", |c| c.sched.stat_wakes.load(Ordering::Relaxed));
    for w in 0..core.sched.workers() {
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
    for w in 0..core.sched.workers() {
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
        let c = rt.core();
        c.worker_stats[0].tasks_spawned.fetch_add(3, Ordering::Relaxed);
        c.counters.parcels_sent.fetch_add(2, Ordering::Relaxed);
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
