//! The runtime: a pool of OS worker threads executing lightweight tasks.
//!
//! One [`Runtime`] corresponds to one HPX locality's thread-manager: a set
//! of workers (one per "processing unit", pinned logically via
//! [`crate::task::ScheduleHint`]) draining a shared [`crate::sched::Scheduler`].
//! Blocking waits issued *from* a worker (future `get`, latch `wait`,
//! algorithm joins) never park the OS thread — they **help-execute** other
//! ready tasks until their condition is met, which is how HPX keeps cores
//! busy while user code blocks on LCOs (the "increased asynchrony" the
//! paper's Section III-A credits for resource utilization).

use crate::introspect::{
    prometheus_text, CounterRegistry, CounterSnapshot, EventKind, LatencyChannel, LatencySet,
    MetricsServer, Tracer,
};
use crate::lcos::future::{Future, Promise};
use crate::perf::{Counters, WorkerStat};
use crate::sched::{Scheduler, SchedulerPolicy};
use crate::task::{Priority, ScheduleHint, Task};
use crate::topology::Topology;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

thread_local! {
    /// The core this thread is a worker of (null on other threads) and its
    /// worker index. A plain address, compared but never dereferenced: the
    /// worker loop holds the core alive while it is set, so looking up
    /// "which worker am I" touches no reference count.
    static CURRENT: Cell<(*const Core, usize)> = const { Cell::new((std::ptr::null(), 0)) };
}

/// Shared runtime state: what worker threads and futures need to run and
/// help-execute tasks. Kept separate from [`Runtime`] so worker threads do
/// not keep the runtime alive in a reference cycle.
pub(crate) struct Core {
    pub(crate) sched: Scheduler,
    pub(crate) counters: Counters,
    /// Task accounting: one cache-padded slot per worker, then one shared
    /// by every thread outside the pool (see [`crate::perf::WorkerStat`]).
    pub(crate) worker_stats: Vec<CachePadded<WorkerStat>>,
    /// Structured event recorder shared with the scheduler.
    pub(crate) tracer: Arc<Tracer>,
    /// Always-on per-worker latency histograms (task, steal,
    /// future-wait, parcel-RTT), shared with the scheduler and cluster.
    pub(crate) latency: Arc<LatencySet>,
}

impl Core {
    /// Execute `task`, accounting and catching panics. Panics inside raw
    /// spawned tasks are counted and traced rather than tearing down the
    /// worker; value-returning tasks route panics through their
    /// promise instead (see [`Runtime::async_task`]).
    pub(crate) fn run_task(&self, task: Task, worker: usize) {
        let start = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| task.run()));
        let end = std::time::Instant::now();
        self.tracer.span(worker, EventKind::TaskRun, start, end, 0);
        self.latency.record(
            LatencyChannel::Task,
            worker,
            end.duration_since(start).as_nanos() as u64,
        );
        let stat = &self.worker_stats[worker];
        stat.busy_ns
            .fetch_add(end.duration_since(start).as_nanos() as u64, Ordering::Relaxed);
        // `tasks_executed` counts successful completions only, so the
        // conservation identity `spawned == executed + panicked` holds
        // once the runtime is idle. A panic is counted and traced here;
        // the panic hook has already reported its message. The finish
        // count is the last write (`Release`, see `outstanding`): once it
        // lands, the task and its accounting are done.
        if result.is_ok() {
            stat.tasks_executed.fetch_add(1, Ordering::Release);
        } else {
            self.tracer.instant(worker, EventKind::User("task-panicked"), 0);
            stat.tasks_panicked.fetch_add(1, Ordering::Release);
        }
    }

    /// Try to run one ready task as worker `index`. Returns false if no
    /// work was available.
    pub(crate) fn run_one(&self, index: usize) -> bool {
        match self.sched.pop(index) {
            Some(t) => {
                self.run_task(t, index);
                true
            }
            None => false,
        }
    }

    /// Hand `task` to the scheduler, counted in the calling worker's slot
    /// (or the shared one for threads outside the pool).
    pub(crate) fn spawn(&self, task: Task) {
        let worker = self.current_worker();
        self.stat_of(worker).tasks_spawned.fetch_add(1, Ordering::Relaxed);
        self.sched.push(task, worker);
    }

    /// [`Core::spawn`] a future continuation at high priority (to keep
    /// dependency chains moving), counted at `count/continuations`.
    pub(crate) fn spawn_continuation(&self, f: impl FnOnce() + Send + 'static) {
        self.stat_of(self.current_worker()).continuations.fetch_add(1, Ordering::Relaxed);
        self.spawn(Task::new(f).with_priority(Priority::High));
    }

    /// Index of the calling thread if it is one of this core's workers.
    pub(crate) fn current_worker(&self) -> Option<usize> {
        let (core, index) = CURRENT.with(Cell::get);
        std::ptr::eq(core, self).then_some(index)
    }

    /// The accounting slot of `worker`, or the shared one for `None`.
    fn stat_of(&self, worker: Option<usize>) -> &WorkerStat {
        &self.worker_stats[worker.unwrap_or(self.worker_stats.len() - 1)]
    }

    /// Sum one counter over every accounting slot.
    pub(crate) fn task_total(&self, field: impl Fn(&WorkerStat) -> &AtomicUsize) -> usize {
        self.worker_stats.iter().map(|s| field(s).load(Ordering::Acquire)).sum()
    }

    /// Tasks spawned and not yet finished (queued or running).
    ///
    /// Derived, not counted: every finish count is read (`Acquire`)
    /// *before* any spawn count. A task's spawn is counted before it is
    /// pushed, the push happens before its pop, and the pop before its
    /// finish count (a `Release` increment). So every finish this read
    /// sees has its spawn in the spawn counts read after it: the spawn
    /// sum is never below the finish sum, and a task that spawns its
    /// successor before it returns can never let the difference read a
    /// false zero between the two.
    pub(crate) fn outstanding(&self) -> usize {
        let finished =
            self.task_total(|s| &s.tasks_executed) + self.task_total(|s| &s.tasks_panicked);
        self.task_total(|s| &s.tasks_spawned) - finished
    }
}

/// Help-execute tasks (when called from a worker of `core`) or yield, until
/// `done()` returns true. This is the universal blocking primitive behind
/// future `get`, latch `wait`, etc.
pub(crate) fn help_until(core: Option<&Arc<Core>>, mut done: impl FnMut() -> bool) {
    if done() {
        return;
    }
    // Time the blocking wait: it always feeds the future-wait latency
    // histogram and becomes a FutureWait span when tracing is on
    // (help-executed tasks nest inside it).
    let t0 = core.map(|_| std::time::Instant::now());
    let lane = core.and_then(|c| c.current_worker());
    match core.zip(lane) {
        Some((core, index)) => {
            let mut spins = 0u32;
            while !done() {
                if core.run_one(index) {
                    spins = 0;
                } else {
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        None => {
            // Not a worker: plain exponential-backoff yield wait.
            let mut spins = 0u32;
            while !done() {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
    }
    if let (Some(core), Some(t0)) = (core, t0) {
        let end = std::time::Instant::now();
        let lane = lane.unwrap_or_else(|| core.tracer.external_lane());
        core.latency.record(
            LatencyChannel::FutureWait,
            lane,
            end.duration_since(t0).as_nanos() as u64,
        );
        core.tracer.span(lane, EventKind::FutureWait, t0, end, 0);
    }
}

/// Builder for a [`Runtime`] (HPX's command-line/config equivalent).
pub struct RuntimeBuilder {
    /// `None` until set: the machine's parallelism is probed (a handful
    /// of syscalls and cgroup file reads) only if the caller never says.
    workers: Option<usize>,
    policy: SchedulerPolicy,
    numa_domains: usize,
    thread_name: String,
    locality: u32,
    trace_capacity: usize,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            workers: None,
            policy: SchedulerPolicy::LocalPriority,
            numa_domains: 1,
            thread_name: "parallex-worker".to_string(),
            locality: 0,
            trace_capacity: crate::introspect::events::DEFAULT_LANE_CAPACITY,
        }
    }
}

impl RuntimeBuilder {
    /// Number of worker OS threads (HPX `--hpx:threads`).
    pub fn worker_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        self.workers = Some(n);
        self
    }

    /// Scheduling policy (HPX `--hpx:queuing`).
    pub fn scheduler(mut self, p: SchedulerPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Number of emulated NUMA domains the workers are spread over (drives
    /// the topology used by the block executor).
    pub fn numa_domains(mut self, d: usize) -> Self {
        assert!(d > 0);
        self.numa_domains = d;
        self
    }

    /// Worker thread name prefix.
    pub fn thread_name(mut self, name: impl Into<String>) -> Self {
        self.thread_name = name.into();
        self
    }

    /// Locality id used in counter paths and trace pids (set by
    /// [`crate::locality::Cluster`]; standalone runtimes are locality 0).
    pub fn locality_id(mut self, id: u32) -> Self {
        self.locality = id;
        self
    }

    /// Per-lane event capacity of the structured tracer (events past the
    /// cap are dropped and counted, bounding trace memory).
    pub fn trace_capacity(mut self, events_per_lane: usize) -> Self {
        assert!(events_per_lane > 0, "trace capacity must be positive");
        self.trace_capacity = events_per_lane;
        self
    }

    /// Start the workers and return the runtime.
    pub fn build(self) -> Runtime {
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get()));
        let topology = Topology::uniform(workers, self.numa_domains.min(workers));
        // One lane per worker plus one for external (non-worker) threads.
        let tracer = Arc::new(Tracer::with_capacity(workers + 1, self.trace_capacity));
        // Histogram lanes mirror the tracer's: one per worker plus one
        // external lane for non-worker threads.
        let latency = Arc::new(LatencySet::new(workers + 1));
        let core = Arc::new(Core {
            sched: Scheduler::with_topology(workers, self.policy, &topology),
            counters: Counters::default(),
            worker_stats: (0..=workers).map(|_| CachePadded::default()).collect(),
            tracer: tracer.clone(),
            latency: latency.clone(),
        });
        core.sched.attach_tracer(tracer);
        core.sched.attach_latency(latency);
        let registry = Arc::new(CounterRegistry::new());
        crate::perf::register_runtime_counters(&registry, self.locality, &core);
        let threads = (0..workers)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("{}-{}", self.thread_name, i))
                    .spawn(move || worker_loop(core, i))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime {
            inner: Arc::new(RuntimeInner {
                core,
                topology,
                threads: Mutex::new(threads),
                timer: crate::parcel::TimerWheel::new(),
                registry,
                locality: self.locality,
            }),
        }
    }
}

/// Idle backoff ladder: spin (cheap, catches work within ~100ns), then
/// yield the timeslice, then park on the scheduler's eventcount with no
/// timeout. The counter is deliberately NOT reset after a fruitless park:
/// a worker that parked once and found nothing re-parks immediately, so an
/// idle runtime settles at ~0% CPU instead of cycling through the spin
/// phase on every spurious wake.
const IDLE_SPINS: u32 = 64;
const IDLE_YIELDS: u32 = 16;

fn worker_loop(core: Arc<Core>, index: usize) {
    CURRENT.with(|c| c.set((Arc::as_ptr(&core), index)));
    let mut idle = 0u32;
    loop {
        if core.run_one(index) {
            idle = 0;
            continue;
        }
        if core.sched.is_shutdown() && !core.sched.has_queued() {
            break;
        }
        if idle < IDLE_SPINS {
            std::hint::spin_loop();
            idle += 1;
        } else if idle < IDLE_SPINS + IDLE_YIELDS {
            std::thread::yield_now();
            idle += 1;
        } else {
            core.sched.wait_for_work(index);
        }
    }
    CURRENT.with(|c| c.set((std::ptr::null(), 0)));
}

struct RuntimeInner {
    core: Arc<Core>,
    topology: Topology,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Timer backing `spawn_after` / `sleep` (its thread starts lazily).
    timer: crate::parcel::TimerWheel,
    /// HPX-style counter registry, pre-populated with this runtime's
    /// counters at hierarchical paths.
    registry: Arc<CounterRegistry>,
    /// Locality id used in counter paths and trace pids.
    locality: u32,
}

impl RuntimeInner {
    fn shutdown(&self) {
        self.core.sched.signal_shutdown();
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A running task pool. Cheap to clone; the workers stop when the last
/// clone is dropped or [`Runtime::shutdown`] is called.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Start a runtime with defaults (one worker per host CPU).
    pub fn new() -> Runtime {
        Runtime::builder().build()
    }

    /// Configure a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.core.sched.workers()
    }

    /// The emulated topology (worker → NUMA domain map).
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The atomics behind this runtime's counters, for the code that
    /// bumps them; read them through [`Runtime::counter_snapshot`].
    pub(crate) fn counters(&self) -> &Counters {
        &self.inner.core.counters
    }

    /// The structured event tracer (see [`crate::introspect`]): typed
    /// spans/instants for task runs, steals, parks/wakes, LCO waits and
    /// parcel traffic, recorded into per-worker bounded buffers.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.core.tracer
    }

    /// The HPX-style counter registry for this runtime, pre-populated
    /// with `/threads{...}`, `/parcels{...}` and `/lcos{...}` counters.
    /// Share it with a [`crate::introspect::CounterSampler`] for
    /// interval sampling.
    pub fn counter_registry(&self) -> &Arc<CounterRegistry> {
        &self.inner.registry
    }

    /// Snapshot every registered counter (see
    /// [`crate::introspect::CounterSnapshot::delta`] for interval rates).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.inner.registry.snapshot()
    }

    /// Locality id this runtime reports under in counter paths and
    /// trace pids (0 unless set by a cluster).
    pub fn locality_id(&self) -> u32 {
        self.inner.locality
    }

    /// The always-on mergeable latency histograms (task, steal,
    /// future-wait, parcel-RTT), one lane per worker plus an external
    /// lane. Quantiles are also registered as `/latency{...}` counters.
    pub fn latency_histograms(&self) -> &Arc<LatencySet> {
        &self.inner.core.latency
    }

    /// Serve this runtime's counter registry (including latency
    /// quantiles) in Prometheus text format on a std-only TCP listener.
    /// Bind `"127.0.0.1:0"` for an ephemeral port and read it back with
    /// [`MetricsServer::local_addr`]; the endpoint stops when the
    /// returned server is dropped or [`MetricsServer::stop`]ped.
    pub fn serve_metrics<A: std::net::ToSocketAddrs>(
        &self,
        addr: A,
    ) -> std::io::Result<MetricsServer> {
        let registry = self.inner.registry.clone();
        MetricsServer::bind(addr, Arc::new(move || prometheus_text(&registry.snapshot())))
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.inner.core
    }

    /// Fire-and-forget spawn (HPX `hpx::apply`).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.spawn_task(Task::new(f));
    }

    /// Spawn a pre-built task (with priority/hint).
    pub fn spawn_task(&self, task: Task) {
        self.inner.core.spawn(task);
    }

    /// Spawn with a placement hint.
    pub fn spawn_hinted(&self, hint: ScheduleHint, f: impl FnOnce() + Send + 'static) {
        self.spawn_task(Task::new(f).with_hint(hint));
    }

    /// Spawn returning a future of the result (HPX `hpx::async`). Panics in
    /// `f` are captured into the future as [`crate::error::Error::TaskPanicked`].
    pub fn async_task<T: Send + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<T> {
        self.async_task_with(Priority::Normal, ScheduleHint::None, f)
    }

    /// [`Runtime::async_task`] with explicit priority and hint.
    pub fn async_task_with<T: Send + 'static>(
        &self,
        priority: Priority,
        hint: ScheduleHint,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Future<T> {
        let mut promise = Promise::with_core(self.inner.core.clone());
        let future = promise.future();
        let task = Task::new(move || match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => promise.set_value(v),
            Err(p) => promise.set_error(crate::error::Error::TaskPanicked(
                crate::util::panic_message(&*p),
            )),
        })
        .with_priority(priority)
        .with_hint(hint);
        self.spawn_task(task);
        future
    }

    /// Create an unfulfilled promise whose continuations will be scheduled
    /// on this runtime.
    pub fn make_promise<T: Send + 'static>(&self) -> Promise<T> {
        Promise::with_core(self.inner.core.clone())
    }

    /// A future that is already ready (HPX `make_ready_future`).
    pub fn make_ready_future<T: Send + 'static>(&self, v: T) -> Future<T> {
        let mut p = self.make_promise();
        let f = p.future();
        p.set_value(v);
        f
    }

    /// Block until no spawned task remains (queued or running), from a
    /// thread outside this runtime's pool or a worker of another runtime.
    ///
    /// # Panics
    /// Panics when called from inside one of this runtime's own tasks:
    /// the calling task is itself outstanding, so the wait could never
    /// end. Inside a task, wait on the futures or LCOs of the work
    /// instead.
    pub fn wait_idle(&self) {
        let core = &self.inner.core;
        assert!(
            core.current_worker().is_none(),
            "Runtime::wait_idle called from inside one of this runtime's tasks: \
             the calling task counts as outstanding, so the runtime can never become idle"
        );
        help_until(Some(core), || core.outstanding() == 0);
    }

    /// Tasks spawned and not yet finished.
    pub fn outstanding(&self) -> usize {
        self.inner.core.outstanding()
    }

    /// Stop the workers (idempotent). Queued tasks are drained first.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Spawn `f` as a task after `delay` (HPX timed execution,
    /// `hpx::make_timed_task`-style).
    pub fn spawn_after(&self, delay: Duration, f: impl FnOnce() + Send + 'static) {
        let core = self.inner.core.clone();
        self.inner.timer.schedule(delay, move || {
            core.spawn(Task::new(f));
        });
    }

    /// A future that becomes ready after `delay` without occupying a
    /// worker while waiting.
    pub fn sleep(&self, delay: Duration) -> Future<()> {
        let mut p = self.make_promise();
        let f = p.future();
        self.inner.timer.schedule(delay, move || p.set_value(()));
        f
    }

    /// Index of the current worker thread if the caller is one of this
    /// runtime's workers.
    pub fn current_worker(&self) -> Option<usize> {
        self.inner.core.current_worker()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn spawn_runs_tasks() {
        let rt = Runtime::builder().worker_threads(2).build();
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let n = n.clone();
            rt.spawn(move || {
                n.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_idle();
        assert_eq!(n.load(Ordering::Relaxed), 100);
        rt.shutdown();
    }

    #[test]
    fn async_task_returns_value() {
        let rt = Runtime::builder().worker_threads(2).build();
        let f = rt.async_task(|| 7 * 6);
        assert_eq!(f.get(), 42);
        rt.shutdown();
    }

    #[test]
    fn async_task_panic_becomes_error() {
        let rt = Runtime::builder().worker_threads(1).build();
        let f = rt.async_task(|| -> i32 { panic!("boom") });
        match f.try_get() {
            Err(crate::error::Error::TaskPanicked(m)) => assert!(m.contains("boom")),
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        rt.shutdown();
    }

    #[test]
    fn raw_task_panic_is_counted_and_traced() {
        use crate::introspect::{CounterPath, Instance};
        let rt = Runtime::builder().worker_threads(1).build();
        rt.tracer().start();
        rt.spawn(|| panic!("boom"));
        rt.spawn(|| {});
        rt.wait_idle();
        let trace = rt.tracer().stop();
        assert_eq!(trace.of_kind(EventKind::User("task-panicked")).count(), 1);
        let path = |name| CounterPath::new("threads", 0, Instance::Total, name);
        let snap = rt.counter_snapshot();
        assert_eq!(snap.get(&path("count/panicked")), Some(1));
        assert_eq!(snap.get(&path("count/cumulative")), Some(1));
        rt.shutdown();
    }

    #[test]
    fn nested_spawn_from_worker() {
        let rt = Runtime::builder().worker_threads(2).build();
        let rt2 = rt.clone();
        let f = rt.async_task(move || {
            let inner = rt2.async_task(|| 10);
            inner.get() + 1
        });
        assert_eq!(f.get(), 11);
        rt.shutdown();
    }

    #[test]
    fn deeply_nested_gets_do_not_deadlock_on_one_worker() {
        // A single worker must help-execute through a chain of dependent
        // tasks rather than deadlocking.
        let rt = Runtime::builder().worker_threads(1).build();
        fn chain(rt: &Runtime, depth: usize) -> usize {
            if depth == 0 {
                return 0;
            }
            let rt2 = rt.clone();
            let f = rt.async_task(move || chain(&rt2, depth - 1) + 1);
            f.get()
        }
        assert_eq!(chain(&rt, 20), 20);
        rt.shutdown();
    }

    #[test]
    fn wait_idle_from_external_thread() {
        let rt = Runtime::builder().worker_threads(4).build();
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let n = n.clone();
            rt.spawn(move || {
                n.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_idle();
        assert_eq!(rt.outstanding(), 0);
        assert_eq!(n.load(Ordering::Relaxed), 1000);
        rt.shutdown();
    }

    #[test]
    fn wait_idle_from_inside_a_task_panics_instead_of_hanging() {
        let rt = Runtime::builder().worker_threads(2).build();
        let rt2 = rt.clone();
        let f = rt.async_task(move || {
            rt2.spawn(|| {});
            rt2.wait_idle();
        });
        let t = std::time::Instant::now();
        while !f.is_ready() && t.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !f.is_ready() {
            // The stuck worker would block the runtime's shutdown join.
            std::mem::forget(rt);
            panic!("wait_idle inside a task still pending after 5 s");
        }
        match f.try_get() {
            Err(crate::error::Error::TaskPanicked(m)) => {
                assert!(m.contains("wait_idle called from inside"), "{m}")
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        rt.wait_idle();
        rt.shutdown();
    }

    /// Spawn link `left` of a chain whose every task spawns its successor
    /// (hinted to another worker, or to its own deque) before it
    /// returns; the last link sets `done` just before returning.
    fn chain_link(rt: &Runtime, state: u64, left: u32, done: Arc<std::sync::atomic::AtomicBool>) {
        let state = crate::resilience::SplitMix64::new(state).next_u64();
        let hint = match state % 3 {
            0 => ScheduleHint::None,
            w => ScheduleHint::Worker(w as usize),
        };
        let rt2 = rt.clone();
        rt.spawn_hinted(hint, move || {
            for _ in 0..(state >> 8) % 200 {
                std::hint::spin_loop();
            }
            if left == 0 {
                done.store(true, Ordering::SeqCst);
            } else {
                chain_link(&rt2, state, left - 1, done);
            }
        });
    }

    #[test]
    fn outstanding_never_reads_zero_while_a_chain_hands_across_workers() {
        use std::sync::atomic::AtomicBool;
        for seed in [3u64, 17, 256, 4099, 65537, 1_000_003] {
            let rt = Runtime::builder().worker_threads(3).build();
            let done = Arc::new(AtomicBool::new(false));
            chain_link(&rt, seed, 2_000, done.clone());
            while rt.outstanding() != 0 {}
            assert!(
                done.load(Ordering::SeqCst),
                "seed {seed}: outstanding read 0 before the chain's last task returned"
            );
            rt.shutdown();
        }
    }

    #[test]
    fn counters_track_spawn_and_execute() {
        let rt = Runtime::builder().worker_threads(2).build();
        for _ in 0..10 {
            rt.spawn(|| {});
        }
        rt.wait_idle();
        let snap = rt.counter_snapshot();
        assert!(snap.total("threads", "count/spawned") >= 10);
        assert!(snap.total("threads", "count/cumulative") >= 10);
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let rt = Runtime::builder().worker_threads(1).build();
        rt.shutdown();
        rt.shutdown();
    }

    #[test]
    fn current_worker_identity() {
        let rt = Runtime::builder().worker_threads(2).build();
        assert_eq!(rt.current_worker(), None, "external thread is not a worker");
        let rt2 = rt.clone();
        let f = rt.async_task(move || rt2.current_worker());
        let idx = f.get();
        assert!(idx.is_some());
        assert!(idx.unwrap() < 2);
        rt.shutdown();
    }

    #[test]
    fn spawn_after_fires_later() {
        let rt = Runtime::builder().worker_threads(2).build();
        let hit = Arc::new(AtomicUsize::new(0));
        let h2 = hit.clone();
        let t = crate::util::HighResolutionTimer::new();
        rt.spawn_after(Duration::from_millis(10), move || {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 0, "not yet");
        while hit.load(Ordering::SeqCst) == 0 && t.elapsed() < 2.0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert!(t.elapsed() >= 0.009, "{}", t.elapsed());
        rt.shutdown();
    }

    #[test]
    fn sleep_future_completes_after_delay() {
        let rt = Runtime::builder().worker_threads(1).build();
        let t = crate::util::HighResolutionTimer::new();
        let f = rt.sleep(Duration::from_millis(8));
        assert!(!f.is_ready());
        f.get();
        assert!(t.elapsed() >= 0.007, "{}", t.elapsed());
        rt.shutdown();
    }

    #[test]
    fn sleep_composes_with_then() {
        let rt = Runtime::builder().worker_threads(2).build();
        let f = rt.sleep(Duration::from_millis(5)).then(|()| 99);
        assert_eq!(f.get(), 99);
        rt.shutdown();
    }

    #[test]
    fn pinned_tasks_run_on_their_worker() {
        let rt = Runtime::builder().worker_threads(3).build();
        for pin in 0..3 {
            let rt2 = rt.clone();
            let f = rt.async_task_with(Priority::Normal, ScheduleHint::Pinned(pin), move || {
                rt2.current_worker().unwrap()
            });
            assert_eq!(f.get(), pin);
        }
        rt.shutdown();
    }

    #[test]
    fn busy_workers_receive_no_wake_syscalls() {
        use std::sync::atomic::AtomicBool;
        // Occupy every worker with a spinning task, then spawn a burst of
        // work: with zero parked workers the sleeper count is zero, so no
        // push may issue a condvar notify (no syscall-level wake).
        let rt = Runtime::builder().worker_threads(2).build();
        let release = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let release = release.clone();
            let running = running.clone();
            rt.spawn(move || {
                running.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
        }
        while running.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let wakes_before = rt.core().sched.stat_wakes.load(Ordering::SeqCst);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            rt.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let wakes_after = rt.core().sched.stat_wakes.load(Ordering::SeqCst);
        assert_eq!(
            wakes_after, wakes_before,
            "pushes while all workers are busy must not notify"
        );
        release.store(true, Ordering::SeqCst);
        rt.wait_idle();
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        rt.shutdown();
    }
}
