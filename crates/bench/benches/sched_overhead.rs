//! Scheduler overhead A/B benchmark: the lock-free Chase-Lev scheduler
//! (current `parallex` runtime) against a faithful replica of the seed's
//! lock-based design (per-worker `Mutex<VecDeque>` deques, unconditional
//! notify on push, 1 ms-timeout polling park).
//!
//! The seed itself predates the vendored dependency shims and cannot be
//! built in this environment, so the baseline is reimplemented here from
//! the seed's `sched.rs` (same queue structure, same pop order, same
//! sleep protocol) for an honest same-binary, same-machine comparison.
//!
//! Workloads, each at 1/2/4/8 workers:
//!   * spawn-drain: one external thread pushes N trivial tasks, workers
//!     drain them (throughput).
//!   * ping-pong: a task chain hops between adjacent workers via
//!     `ScheduleHint::Worker` (per-hop handoff latency).
//!   * UTS-style tree: an unbalanced task tree where every node spawns
//!     its children locally, so all load balancing happens by stealing.
//!
//! Results are printed and written to `BENCH_sched.json` at the workspace
//! root (consumed by CI).

use crossbeam::queue::SegQueue;
use parallex::prelude::*;
use parallex::task::ScheduleHint;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// --------------------------------------------------------------------------
// Lock-based baseline: replica of the seed scheduler + a minimal pool.
// --------------------------------------------------------------------------

struct LockCtx {
    sched: Arc<LockSched>,
    worker: usize,
}

type Job = Box<dyn FnOnce(&LockCtx) + Send + 'static>;

struct LockSched {
    locals: Vec<Mutex<VecDeque<Job>>>,
    injector: SegQueue<Job>,
    lock: Mutex<()>,
    cond: Condvar,
    queued: AtomicUsize,
    outstanding: AtomicUsize,
    shutdown: AtomicBool,
}

impl LockSched {
    fn new(workers: usize) -> Arc<LockSched> {
        Arc::new(LockSched {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: SegQueue::new(),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            queued: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Push from outside the pool (seed: hint `None`, `from_worker: None`).
    fn spawn_external(&self, job: Job) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::Release);
        self.injector.push(job);
        self.cond.notify_one(); // seed: unconditional wake on every push
    }

    /// Push onto worker `w`'s deque (seed: `Worker(w)` hint or local spawn).
    fn spawn_to(&self, w: usize, job: Job) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::Release);
        self.locals[w].lock().push_back(job);
        self.cond.notify_one();
    }

    fn pop(&self, w: usize) -> Option<Job> {
        // The local guard must drop before stealing locks other workers'
        // queues, or two thieves deadlock holding each other's lock.
        let local = self.locals[w].lock().pop_back();
        let got = local
            .or_else(|| self.injector.pop())
            .or_else(|| self.steal(w));
        if got.is_some() {
            self.queued.fetch_sub(1, Ordering::AcqRel);
        }
        got
    }

    fn steal(&self, thief: usize) -> Option<Job> {
        let n = self.locals.len();
        for off in 1..n {
            let victim = (thief + off) % n;
            if let Some(job) = self.locals[victim].lock().pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Seed sleep protocol: condvar with a 1 ms timeout so a lost wakeup
    /// can never hang a worker (and idle workers poll forever).
    fn wait_for_work(&self) {
        if self.queued.load(Ordering::Acquire) > 0 || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut guard = self.lock.lock();
        if self.queued.load(Ordering::Acquire) > 0 || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        self.cond.wait_for(&mut guard, Duration::from_millis(1));
    }
}

struct LockPool {
    sched: Arc<LockSched>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl LockPool {
    fn new(workers: usize) -> LockPool {
        let sched = LockSched::new(workers);
        let threads = (0..workers)
            .map(|w| {
                let sched = sched.clone();
                std::thread::spawn(move || {
                    let ctx = LockCtx { sched: sched.clone(), worker: w };
                    loop {
                        if let Some(job) = sched.pop(w) {
                            job(&ctx);
                            sched.outstanding.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        }
                        if sched.shutdown.load(Ordering::Acquire)
                            && sched.queued.load(Ordering::Acquire) == 0
                        {
                            break;
                        }
                        sched.wait_for_work();
                    }
                })
            })
            .collect();
        LockPool { sched, threads }
    }

    fn wait_idle(&self) {
        while self.sched.outstanding.load(Ordering::SeqCst) != 0 {
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn shutdown(self) {
        self.sched.shutdown.store(true, Ordering::Release);
        let _guard = self.sched.lock.lock();
        self.sched.cond.notify_all();
        drop(_guard);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// --------------------------------------------------------------------------
// Workloads.
// --------------------------------------------------------------------------

const SPAWN_DRAIN_TASKS: usize = 20_000;
const PING_PONG_HOPS: usize = 1_000;
const UTS_DEPTH: u32 = 11;
const REPS: usize = 3;

/// Node count of the deterministic unbalanced tree: a node at depth `d`
/// spawns `2 + d % 2` children.
fn uts_expected(depth: u32) -> usize {
    if depth == 0 {
        1
    } else {
        1 + (2 + depth as usize % 2) * uts_expected(depth - 1)
    }
}

fn lock_uts(ctx: &LockCtx, depth: u32, count: &Arc<AtomicUsize>) {
    count.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    for _ in 0..(2 + depth as usize % 2) {
        let count = count.clone();
        ctx.sched.spawn_to(
            ctx.worker,
            Box::new(move |c| lock_uts(c, depth - 1, &count)),
        );
    }
}

fn rt_uts(rt: &Runtime, depth: u32, count: &Arc<AtomicUsize>) {
    count.fetch_add(1, Ordering::Relaxed);
    if depth == 0 {
        return;
    }
    for _ in 0..(2 + depth as usize % 2) {
        let rt2 = rt.clone();
        let count = count.clone();
        rt.spawn(move || rt_uts(&rt2, depth - 1, &count));
    }
}

fn lock_pingpong(ctx: &LockCtx, remaining: usize, workers: usize) {
    if remaining == 0 {
        return;
    }
    let target = (ctx.worker + 1) % workers;
    ctx.sched.spawn_to(
        target,
        Box::new(move |c| lock_pingpong(c, remaining - 1, workers)),
    );
}

fn rt_pingpong(rt: &Runtime, remaining: usize) {
    if remaining == 0 {
        return;
    }
    let target = (rt.current_worker().unwrap_or(0) + 1) % rt.workers();
    let rt2 = rt.clone();
    rt.spawn_hinted(ScheduleHint::Worker(target), move || {
        rt_pingpong(&rt2, remaining - 1)
    });
}

fn time_median<F: FnMut() -> Duration>(reps: usize, mut f: F) -> Duration {
    let _ = f(); // warmup
    let mut samples: Vec<Duration> = (0..reps).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// (utime + stime) of this process in clock ticks, from /proc/self/stat.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // utime/stime are fields 14 and 15 (1-based); split after the
    // parenthesised comm field, which may itself contain spaces.
    let after = stat.rsplit(')').next()?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

// --------------------------------------------------------------------------
// Harness.
// --------------------------------------------------------------------------

struct Record {
    workload: &'static str,
    engine: &'static str,
    workers: usize,
    items: usize,
    secs: f64,
}

impl Record {
    fn per_sec(&self) -> f64 {
        self.items as f64 / self.secs
    }
}

fn main() {
    let worker_counts = [1usize, 2, 4, 8];
    let mut records: Vec<Record> = Vec::new();
    let uts_nodes = uts_expected(UTS_DEPTH);
    // Cumulative scheduler counters of the 4-worker runtime, captured
    // after its UTS run (the steal-heavy workload).
    let mut loaded_snap: Option<parallex::introspect::CounterSnapshot> = None;

    for &w in &worker_counts {
        // ---- lock-based baseline ----
        let pool = LockPool::new(w);
        let d = time_median(REPS, || {
            let t = Instant::now();
            for _ in 0..SPAWN_DRAIN_TASKS {
                pool.sched.spawn_external(Box::new(|_| {}));
            }
            pool.wait_idle();
            t.elapsed()
        });
        records.push(Record {
            workload: "spawn_drain",
            engine: "lock_based",
            workers: w,
            items: SPAWN_DRAIN_TASKS,
            secs: d.as_secs_f64(),
        });
        let d = time_median(REPS, || {
            let t = Instant::now();
            pool.sched.spawn_to(
                0,
                Box::new(move |c| lock_pingpong(c, PING_PONG_HOPS, w)),
            );
            pool.wait_idle();
            t.elapsed()
        });
        records.push(Record {
            workload: "ping_pong",
            engine: "lock_based",
            workers: w,
            items: PING_PONG_HOPS,
            secs: d.as_secs_f64(),
        });
        let d = time_median(REPS, || {
            let count = Arc::new(AtomicUsize::new(0));
            let c2 = count.clone();
            let t = Instant::now();
            pool.sched
                .spawn_external(Box::new(move |c| lock_uts(c, UTS_DEPTH, &c2)));
            pool.wait_idle();
            let elapsed = t.elapsed();
            assert_eq!(count.load(Ordering::Relaxed), uts_nodes);
            elapsed
        });
        records.push(Record {
            workload: "uts_tree",
            engine: "lock_based",
            workers: w,
            items: uts_nodes,
            secs: d.as_secs_f64(),
        });
        pool.shutdown();

        // ---- Chase-Lev runtime ----
        let rt = Runtime::builder().worker_threads(w).build();
        let d = time_median(REPS, || {
            let t = Instant::now();
            for _ in 0..SPAWN_DRAIN_TASKS {
                rt.spawn(|| {});
            }
            rt.wait_idle();
            t.elapsed()
        });
        records.push(Record {
            workload: "spawn_drain",
            engine: "chase_lev",
            workers: w,
            items: SPAWN_DRAIN_TASKS,
            secs: d.as_secs_f64(),
        });
        let d = time_median(REPS, || {
            let rt2 = rt.clone();
            let t = Instant::now();
            rt.spawn_hinted(ScheduleHint::Worker(0), move || {
                rt_pingpong(&rt2, PING_PONG_HOPS)
            });
            rt.wait_idle();
            t.elapsed()
        });
        records.push(Record {
            workload: "ping_pong",
            engine: "chase_lev",
            workers: w,
            items: PING_PONG_HOPS,
            secs: d.as_secs_f64(),
        });
        let d = time_median(REPS, || {
            let count = Arc::new(AtomicUsize::new(0));
            let c2 = count.clone();
            let rt2 = rt.clone();
            let t = Instant::now();
            rt.spawn(move || rt_uts(&rt2, UTS_DEPTH, &c2));
            rt.wait_idle();
            let elapsed = t.elapsed();
            assert_eq!(count.load(Ordering::Relaxed), uts_nodes);
            elapsed
        });
        records.push(Record {
            workload: "uts_tree",
            engine: "chase_lev",
            workers: w,
            items: uts_nodes,
            secs: d.as_secs_f64(),
        });
        if w == 4 {
            loaded_snap = Some(rt.counter_snapshot());
        }
        rt.shutdown();
    }
    let snap = loaded_snap.expect("4-worker config always runs");
    let sched = |name| snap.total("threads", name);
    let (stolen, steal_attempts, steal_batches, parks, wakes) = (
        sched("count/stolen"),
        sched("count/steal-attempts"),
        sched("count/steal-batches"),
        sched("count/parks"),
        sched("count/wakes"),
    );

    // ---- idle CPU: 4 workers, no work for 500 ms ----
    let idle_window = Duration::from_millis(500);
    let rt = Runtime::builder().worker_threads(4).build();
    rt.wait_idle();
    std::thread::sleep(Duration::from_millis(50)); // let workers park
    let before = process_cpu_ticks();
    std::thread::sleep(idle_window);
    let after = process_cpu_ticks();
    let idle_ticks_chase_lev = match (before, after) {
        (Some(b), Some(a)) => Some(a - b),
        _ => None,
    };
    rt.shutdown();

    let pool = LockPool::new(4);
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu_ticks();
    std::thread::sleep(idle_window);
    let after = process_cpu_ticks();
    let idle_ticks_lock = match (before, after) {
        (Some(b), Some(a)) => Some(a - b),
        _ => None,
    };
    pool.shutdown();

    // ---- report ----
    println!(
        "{:<12} {:<11} {:>3}w {:>10} items {:>12} {:>14}",
        "workload", "engine", "", "", "median", "rate"
    );
    for r in &records {
        println!(
            "{:<12} {:<11} {:>3}w {:>10} items {:>10.3} ms {:>11.0} /s",
            r.workload,
            r.engine,
            r.workers,
            r.items,
            r.secs * 1e3,
            r.per_sec()
        );
    }
    for &w in &worker_counts {
        let find = |engine: &str| {
            records
                .iter()
                .find(|r| r.workload == "spawn_drain" && r.engine == engine && r.workers == w)
                .unwrap()
        };
        println!(
            "spawn_drain speedup at {w} workers: {:.2}x (chase_lev vs lock_based)",
            find("chase_lev").per_sec() / find("lock_based").per_sec()
        );
    }
    println!(
        "idle 4-worker CPU over {:?}: chase_lev {:?} ticks, lock_based {:?} ticks",
        idle_window, idle_ticks_chase_lev, idle_ticks_lock
    );
    println!(
        "chase_lev 4-worker counters (cumulative through UTS): stolen={stolen} steal_attempts={steal_attempts} steal_batches={steal_batches} parks={parks} wakes={wakes}",
    );

    // ---- BENCH_sched.json ----
    let mut json = String::from("{\n  \"bench\": \"sched_overhead\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"workers\": {}, \"items\": {}, \"median_secs\": {:.6}, \"per_sec\": {:.1}}}{}\n",
            r.workload,
            r.engine,
            r.workers,
            r.items,
            r.secs,
            r.per_sec(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"idle_4worker_cpu_ticks\": {{\"window_ms\": {}, \"chase_lev\": {}, \"lock_based\": {}}},\n",
        idle_window.as_millis(),
        idle_ticks_chase_lev.map_or("null".into(), |v| v.to_string()),
        idle_ticks_lock.map_or("null".into(), |v| v.to_string())
    ));
    json.push_str(&format!(
        "  \"chase_lev_4worker_counters\": {{\"stolen\": {stolen}, \"steal_attempts\": {steal_attempts}, \"steal_batches\": {steal_batches}, \"parks\": {parks}, \"wakes\": {wakes}}}\n}}\n",
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    std::fs::write(out, &json).expect("write BENCH_sched.json");
    println!("wrote {out}");
}
