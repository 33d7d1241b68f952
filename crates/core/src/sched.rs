//! Task schedulers.
//!
//! The default scheduler mirrors HPX's `local-priority` scheduling policy
//! on top of lock-free queues. Every worker owns a Chase-Lev deque
//! (`crossbeam::deque::Worker`): the owner pushes and pops at the LIFO
//! end, so the task most recently made runnable touches warm cache lines,
//! while thieves take from the FIFO end, so stolen work is the oldest and
//! coldest. Around the deque each worker also has a FIFO *pinned* queue
//! that stealing never touches (for `ScheduleHint::Pinned`, the paper's
//! one-thread-per-core `hwloc-bind` pinning), a high-priority lane, and an
//! *inbox* `Injector` for work other threads hint toward it. Two global
//! `Injector`s (high and normal priority) accept work arriving from
//! outside the worker pool; workers drain them in batches straight into
//! their own deque. Thieves visit victims in NUMA-aware order (same-domain
//! victims first) and use `steal_batch_and_pop`, so one victim visit
//! amortizes over up to half its queue. A `static` policy
//! (stealing disabled) matches HPX's `static` scheduler, which the paper's
//! NUMA experiments rely on for deterministic placement.
//!
//! Idle workers park through per-worker eventcount slots instead of the
//! old 1 ms polling timeout. Runnable work is tracked in two counters —
//! a global *shared* count (tasks any worker may acquire) and a per-worker
//! *private* count (pinned tasks, hinted high-priority tasks, and, under
//! the static policy, everything hinted to that worker) — so a worker
//! parks exactly when nothing *it* could pop exists, not merely when the
//! whole system is empty. A would-be sleeper advertises itself (park flag
//! plus a sleeper count), re-validates those counters and its slot's epoch,
//! and only then blocks on its own condvar with *no* timeout. A push that
//! enqueues private work wakes that worker's slot specifically; a push of
//! shared work claims any advertised sleeper's flag. Claiming a flag
//! happens with a `swap`, so each notify syscall is paid at most once and
//! not at all when nobody is parked — a saturated runtime never pays for
//! wakeups, an idle one burns ~0% CPU, and a pinned task can never be
//! stranded by its wakeup going to a worker that cannot acquire it.
//!
//! Each worker's queues and counters sit on cache lines of their own
//! (`CachePadded`), and the push and steal-probe counts are kept per
//! worker and summed on read, so a worker spawning and running its own
//! tasks writes no line another worker writes except the shared
//! runnable count. The number of queued tasks is not tracked
//! separately: it is the shared count plus every worker's private
//! count.

use crate::introspect::{EventKind, LatencyChannel, LatencySet, Tracer};
use crate::task::{Priority, ScheduleHint, Task};
use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use crossbeam::queue::SegQueue;
use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Which scheduling policy to run (HPX `--hpx:queuing`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Per-worker local queues with work stealing (HPX `local-priority`).
    #[default]
    LocalPriority,
    /// Per-worker queues, no stealing (HPX `static`): tasks stay where
    /// their hint put them, giving deterministic NUMA placement.
    Static,
}

/// A per-thread token identifying deque owners. Tokens start at 1 so 0
/// can mean "unclaimed".
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TOKEN.with(|t| {
        let mut v = t.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

/// A worker's Chase-Lev deque plus the claim that guards its owner end.
///
/// `crossbeam::deque::Worker` is single-owner (`Send` but not `Sync`);
/// the scheduler is shared, so the deque sits in an `UnsafeCell` guarded
/// by `owner`: the first thread to CAS its token into `owner` becomes the
/// only thread ever allowed to touch the owner end. Everyone else goes
/// through the `Stealer`, which synchronizes internally.
struct DequeSlot {
    owner: AtomicU64,
    deque: UnsafeCell<Deque<Task>>,
}

// SAFETY: the inner deque's owner end is only reached through
// `owned_deque`, whose contract requires a successful `claim` by the
// calling thread; `owner` is written once (0 -> token) so at most one
// thread ever passes that check. Cross-thread access goes through the
// separate `Stealer` handle, which is `Sync`.
unsafe impl Sync for DequeSlot {}

impl DequeSlot {
    /// Claim (or re-confirm) ownership for the calling thread.
    fn claim(&self) -> bool {
        let me = thread_token();
        let cur = self.owner.load(Ordering::Acquire);
        if cur == me {
            return true;
        }
        cur == 0
            && self
                .owner
                .compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Whether the calling thread already owns this deque.
    fn is_mine(&self) -> bool {
        self.owner.load(Ordering::Acquire) == thread_token()
    }

    /// The owner end of the deque.
    ///
    /// # Safety
    /// The calling thread must have received `true` from [`claim`] (or
    /// [`is_mine`]) on this slot.
    unsafe fn owned_deque(&self) -> &Deque<Task> {
        &*self.deque.get()
    }
}

/// One worker's private parking place (eventcount protocol, per worker).
///
/// Giving every worker its own slot is what lets a push of *unacquirable-
/// by-others* work (a pinned task, or any hinted task under the static
/// policy) wake exactly the worker that can run it. A single shared
/// condvar with `notify_one` could hand that wakeup to a worker that can
/// never pop the task, leaving the target parked forever.
struct ParkSlot {
    lock: Mutex<()>,
    cond: Condvar,
    /// The worker advertises intent to park; wakers claim the flag with a
    /// `swap(false)`, so each parked worker costs at most one notify.
    parked: AtomicBool,
    /// Bumped (under `lock`) by every wake; a would-be sleeper re-validates
    /// it under the lock so a wake between "checked the queues" and
    /// "blocked on the condvar" can never be lost.
    epoch: AtomicUsize,
}

impl ParkSlot {
    fn new() -> Self {
        ParkSlot {
            lock: Mutex::new(()),
            cond: Condvar::new(),
            parked: AtomicBool::new(false),
            epoch: AtomicUsize::new(0),
        }
    }
}

struct WorkerQueues {
    /// Tasks pinned to this worker; never stolen.
    pinned: SegQueue<Task>,
    /// High-priority tasks hinted to this worker.
    high: SegQueue<Task>,
    /// Normal-priority tasks hinted to this worker by threads that do not
    /// own its deque. Stealable, drained in batches by the owner.
    inbox: Injector<Task>,
    /// Thief end of this worker's deque.
    stealer: Stealer<Task>,
    /// Owner end of this worker's deque, behind the claim protocol.
    slot: DequeSlot,
    /// Queued tasks only this worker may pop: pinned + hinted-high, plus
    /// deque/inbox contents under [`SchedulerPolicy::Static`]. Feeds the
    /// park predicate so idle peers neither spin on nor get woken for
    /// work they cannot acquire.
    private: AtomicUsize,
    park: ParkSlot,
    /// Tasks pushed by this worker (a push from outside the pool counts
    /// in [`Scheduler::external_pushes`]).
    pushes: AtomicUsize,
    /// Victim queues this worker probed while stealing (hits and misses).
    steal_attempts: AtomicUsize,
}

impl WorkerQueues {
    fn new() -> Self {
        let deque = Deque::new_lifo();
        let stealer = deque.stealer();
        WorkerQueues {
            pinned: SegQueue::new(),
            high: SegQueue::new(),
            inbox: Injector::new(),
            stealer,
            slot: DequeSlot { owner: AtomicU64::new(0), deque: UnsafeCell::new(deque) },
            private: AtomicUsize::new(0),
            park: ParkSlot::new(),
            pushes: AtomicUsize::new(0),
            steal_attempts: AtomicUsize::new(0),
        }
    }
}

/// The shared scheduler state. One instance per [`crate::runtime::Runtime`].
pub struct Scheduler {
    policy: SchedulerPolicy,
    queues: Vec<CachePadded<WorkerQueues>>,
    injector_high: Injector<Task>,
    injector: Injector<Task>,
    /// Workers currently registered as (about to be) parked; lets pushers
    /// of shared work skip the park-flag scan when everyone is busy.
    sleepers: AtomicUsize,
    /// Per-thief victim visit order (NUMA-aware stealing: same-domain
    /// victims first, so stolen tasks stay close to their data).
    steal_order: Vec<Vec<usize>>,
    /// Queued tasks acquirable by *any* worker (injectors, plus deques and
    /// inboxes when stealing is enabled). Counterpart of the per-worker
    /// `private` counts; together they drive the park predicate and sum
    /// to the number of queued tasks.
    shared: AtomicUsize,
    /// Tasks pushed from threads outside the worker pool.
    external_pushes: CachePadded<AtomicUsize>,
    // The `stat_*` counters below are monotone and read through the
    // runtime's counter registry, as are the per-worker push and
    // steal-probe counts (`pushes`, `steal_attempts`).
    /// Successful steal operations (each may move a whole batch).
    pub(crate) stat_stolen: AtomicUsize,
    /// Successful batched steals (`steal_batch_and_pop` into a deque).
    pub(crate) stat_steal_batches: AtomicUsize,
    /// Times a worker actually blocked on the condvar.
    pub(crate) stat_parks: AtomicUsize,
    /// Notify syscalls issued (only when a worker was parked).
    pub(crate) stat_wakes: AtomicUsize,
    /// Event recorder attached by the owning runtime (steal/park/wake
    /// events). Standalone schedulers (tests, benches) have none; the
    /// check is one acquire load, and a no-op when tracing is disabled.
    tracer: OnceLock<Arc<Tracer>>,
    /// Latency histograms attached by the owning runtime (steal-latency
    /// channel). Standalone schedulers (tests, benches) have none.
    latency: OnceLock<Arc<LatencySet>>,
    shutdown: AtomicBool,
}

fn cyclic_order(workers: usize) -> Vec<Vec<usize>> {
    (0..workers)
        .map(|thief| (1..workers).map(|off| (thief + off) % workers).collect())
        .collect()
}

/// Retry-looping wrapper around one lock-free steal source.
fn steal_one<F: Fn() -> Steal<Task>>(source: F) -> Option<Task> {
    loop {
        match source() {
            Steal::Success(t) => return Some(t),
            Steal::Empty => return None,
            Steal::Retry => std::hint::spin_loop(),
        }
    }
}

impl Scheduler {
    /// Create a scheduler for `workers` worker threads (cyclic steal
    /// order).
    pub fn new(workers: usize, policy: SchedulerPolicy) -> Scheduler {
        assert!(workers > 0, "need at least one worker");
        Scheduler {
            policy,
            queues: (0..workers).map(|_| CachePadded::new(WorkerQueues::new())).collect(),
            injector_high: Injector::new(),
            injector: Injector::new(),
            sleepers: AtomicUsize::new(0),
            steal_order: cyclic_order(workers),
            shared: AtomicUsize::new(0),
            external_pushes: CachePadded::new(AtomicUsize::new(0)),
            stat_stolen: AtomicUsize::new(0),
            stat_steal_batches: AtomicUsize::new(0),
            stat_parks: AtomicUsize::new(0),
            stat_wakes: AtomicUsize::new(0),
            tracer: OnceLock::new(),
            latency: OnceLock::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Attach the runtime's event tracer (idempotent; first caller wins).
    pub(crate) fn attach_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// Attach the runtime's latency histograms (idempotent; first
    /// caller wins). Steal latencies are recorded into their channel.
    pub(crate) fn attach_latency(&self, latency: Arc<LatencySet>) {
        let _ = self.latency.set(latency);
    }

    /// The attached tracer, if any and currently recording.
    #[inline]
    fn tracer_if_enabled(&self) -> Option<&Tracer> {
        self.tracer
            .get()
            .map(|t| t.as_ref())
            .filter(|t| t.is_enabled())
    }

    /// Create a scheduler whose steal order follows a topology: each thief
    /// visits same-NUMA-domain victims before remote ones (hwloc-aware
    /// stealing, as HPX configures on NUMA machines).
    pub fn with_topology(
        workers: usize,
        policy: SchedulerPolicy,
        topo: &crate::topology::Topology,
    ) -> Scheduler {
        assert_eq!(topo.workers(), workers);
        let mut s = Scheduler::new(workers, policy);
        s.steal_order = (0..workers)
            .map(|thief| {
                let my_domain = topo.domain_of(thief);
                let mut order: Vec<usize> = (1..workers).map(|off| (thief + off) % workers).collect();
                // Stable partition: same-domain victims first, preserving
                // the cyclic order within each class.
                order.sort_by_key(|&v| topo.domain_of(v) != my_domain);
                order
            })
            .collect();
        s
    }

    /// The victim visit order used by worker `thief`.
    pub fn steal_order_of(&self, thief: usize) -> &[usize] {
        &self.steal_order[thief]
    }

    /// Number of workers this scheduler serves.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// The configured policy.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Whether a worker's deque/inbox contents are acquirable by other
    /// workers (they are, unless stealing is disabled).
    fn local_is_shared(&self) -> bool {
        self.policy != SchedulerPolicy::Static
    }

    /// Enqueue a task. `from_worker` is the id of the calling worker if the
    /// caller *is* one of this scheduler's workers (lets unhinted tasks go
    /// to the caller's local deque, HPX's default child-stealing setup).
    pub fn push(&self, task: Task, from_worker: Option<usize>) {
        match from_worker {
            Some(w) => &self.queues[w].pushes,
            None => &self.external_pushes,
        }
        .fetch_add(1, Ordering::Relaxed);
        // Count before publishing: a concurrent pop may take the task the
        // instant it lands, and its decrement must never underflow. The
        // lane counter is bumped before the enqueue — and before any park
        // flag is read — so a worker that registers as a sleeper and then
        // re-checks the counters can never miss this task.
        match task.hint {
            ScheduleHint::Pinned(w) => {
                let w = w % self.queues.len();
                let q = &self.queues[w];
                q.private.fetch_add(1, Ordering::SeqCst);
                q.pinned.push(task);
                self.notify_worker(w);
            }
            ScheduleHint::Worker(w) => {
                let w = w % self.queues.len();
                let q = &self.queues[w];
                if task.priority == Priority::High {
                    // Only worker `w` ever drains its high lane.
                    q.private.fetch_add(1, Ordering::SeqCst);
                    q.high.push(task);
                    self.notify_worker(w);
                } else {
                    let shared = self.local_is_shared();
                    if shared {
                        self.shared.fetch_add(1, Ordering::SeqCst);
                    } else {
                        q.private.fetch_add(1, Ordering::SeqCst);
                    }
                    if q.slot.is_mine() {
                        // SAFETY: `is_mine` confirmed this thread's claim.
                        unsafe { q.slot.owned_deque() }.push(task);
                    } else {
                        q.inbox.push(task);
                    }
                    if shared {
                        self.notify_shared();
                    } else {
                        self.notify_worker(w);
                    }
                }
            }
            ScheduleHint::None => match (task.priority, from_worker) {
                (Priority::High, _) => {
                    self.shared.fetch_add(1, Ordering::SeqCst);
                    self.injector_high.push(task);
                    self.notify_shared();
                }
                (_, Some(w)) => {
                    let q = &self.queues[w];
                    let shared = self.local_is_shared();
                    if shared {
                        self.shared.fetch_add(1, Ordering::SeqCst);
                    } else {
                        q.private.fetch_add(1, Ordering::SeqCst);
                    }
                    if q.slot.claim() {
                        // SAFETY: `claim` just succeeded on this thread.
                        unsafe { q.slot.owned_deque() }.push(task);
                    } else {
                        // Another thread owns this deque (only happens if
                        // a caller lies about being worker `w`); fall back
                        // to the stealable inbox rather than corrupting it.
                        q.inbox.push(task);
                    }
                    if shared {
                        self.notify_shared();
                    } else {
                        self.notify_worker(w);
                    }
                }
                (_, None) => {
                    self.shared.fetch_add(1, Ordering::SeqCst);
                    self.injector.push(task);
                    self.notify_shared();
                }
            },
        }
    }

    /// Dequeue work for `worker`, in priority order: pinned, local high,
    /// global high, local (deque, then inbox), global injector, steal.
    /// Returns `None` when nothing is runnable anywhere (caller should
    /// park via [`Scheduler::wait_for_work`]).
    pub fn pop(&self, worker: usize) -> Option<Task> {
        let q = &self.queues[worker];
        if let Some(t) = q.pinned.pop() {
            q.private.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        if let Some(t) = q.high.pop() {
            q.private.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        if let Some(t) = steal_one(|| self.injector_high.steal()) {
            self.shared.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        // Deque/inbox contents count as shared while stealing is enabled,
        // private to this worker under the static policy.
        let local_lane = if self.local_is_shared() { &self.shared } else { &q.private };
        if q.slot.claim() {
            // Owner path: LIFO deque, then drain inbox and global injector
            // in batches so one synchronized operation feeds many pops.
            // SAFETY: `claim` succeeded on this thread.
            let deque = unsafe { q.slot.owned_deque() };
            if let Some(t) = deque.pop() {
                local_lane.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
            // Inbox and deque share a lane class, so a batch move between
            // them leaves the counters untouched.
            if let Some(t) = steal_one(|| q.inbox.steal_batch_and_pop(deque)) {
                local_lane.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
            let from_injector = if self.local_is_shared() {
                // Injector tasks stay shared when they land in a stealable
                // deque, so whole batches can move without re-counting.
                steal_one(|| self.injector.steal_batch_and_pop(deque))
            } else {
                // Static: the deque is private, so batching would silently
                // reclassify shared tasks. Take exactly one instead.
                steal_one(|| self.injector.steal())
            };
            if let Some(t) = from_injector {
                self.shared.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
            let got = self.steal(worker, Some(deque));
            if got.is_some() {
                self.shared.fetch_sub(1, Ordering::SeqCst);
            }
            got
        } else {
            // Foreign path (another thread popping on this worker's
            // behalf): the deque is reachable only through its stealer.
            if let Some(t) = steal_one(|| q.stealer.steal()) {
                local_lane.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
            if let Some(t) = steal_one(|| q.inbox.steal()) {
                local_lane.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
            if let Some(t) = steal_one(|| self.injector.steal()) {
                self.shared.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
            let got = self.steal(worker, None);
            if got.is_some() {
                self.shared.fetch_sub(1, Ordering::SeqCst);
            }
            got
        }
    }

    /// Visit victims in NUMA-aware order, taking from their deque's FIFO
    /// end first and their inbox second. With a destination deque a batch
    /// (up to half the victim's queue) is moved per successful steal.
    fn steal(&self, thief: usize, dest: Option<&Deque<Task>>) -> Option<Task> {
        if self.policy == SchedulerPolicy::Static {
            return None;
        }
        // Time the victim walk only when someone consumes the number
        // (histograms attached or tracing on), so standalone schedulers
        // in benches pay nothing for the clock.
        let t0 = (self.latency.get().is_some() || self.tracer_if_enabled().is_some())
            .then(std::time::Instant::now);
        let attempts = &self.queues[thief].steal_attempts;
        for &victim in &self.steal_order[thief] {
            attempts.fetch_add(1, Ordering::Relaxed);
            let vq = &self.queues[victim];
            let got = match dest {
                Some(d) => steal_one(|| vq.stealer.steal_batch_and_pop(d))
                    .or_else(|| steal_one(|| vq.inbox.steal_batch_and_pop(d))),
                None => steal_one(|| vq.stealer.steal())
                    .or_else(|| steal_one(|| vq.inbox.steal())),
            };
            if got.is_some() {
                self.stat_stolen.fetch_add(1, Ordering::Relaxed);
                if dest.is_some() {
                    self.stat_steal_batches.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(t0) = t0 {
                    let end = std::time::Instant::now();
                    if let Some(lat) = self.latency.get() {
                        lat.record(
                            LatencyChannel::Steal,
                            thief,
                            end.duration_since(t0).as_nanos() as u64,
                        );
                    }
                    // A span (probe walk → success), not an instant: the
                    // attribution engine charges steal time to the thief.
                    if let Some(t) = self.tracer_if_enabled() {
                        t.span(thief, EventKind::Steal, t0, end, victim as u64);
                    }
                }
                return got;
            }
        }
        None
    }

    /// Whether any task is queued (racy; for idle heuristics only).
    pub fn has_queued(&self) -> bool {
        self.queued_len() > 0
    }

    /// Number of queued (not yet popped) tasks.
    pub fn queued_len(&self) -> usize {
        self.shared.load(Ordering::SeqCst)
            + self.queues.iter().map(|q| q.private.load(Ordering::SeqCst)).sum::<usize>()
    }

    /// Tasks pushed so far, from workers and outside threads alike.
    pub(crate) fn pushes(&self) -> usize {
        self.external_pushes.load(Ordering::Relaxed)
            + self.queues.iter().map(|q| q.pushes.load(Ordering::Relaxed)).sum::<usize>()
    }

    /// Victim queues probed while stealing, summed over the workers.
    pub(crate) fn steal_attempts(&self) -> usize {
        self.queues.iter().map(|q| q.steal_attempts.load(Ordering::Relaxed)).sum()
    }

    /// Whether some queued task is acquirable by `worker` right now (racy;
    /// this is the park predicate, deliberately per-worker: a task pinned
    /// elsewhere must not keep this worker spinning awake).
    fn runnable_by(&self, worker: usize) -> bool {
        self.shared.load(Ordering::SeqCst) > 0
            || self.queues[worker].private.load(Ordering::SeqCst) > 0
    }

    /// Park the calling worker until work *it can acquire* might be
    /// available or shutdown is signalled. No timeout: the Dekker-style
    /// pairing is `count++ ; read park flag` in the pusher against
    /// `set park flag ; read counts` here — at least one side always sees
    /// the other — and the slot epoch (bumped under the slot lock by every
    /// waker) closes the window between the re-check and the condvar wait.
    pub fn wait_for_work(&self, worker: usize) {
        if self.runnable_by(worker) || self.is_shutdown() {
            return;
        }
        let slot = &self.queues[worker].park;
        let epoch0 = slot.epoch.load(Ordering::SeqCst);
        slot.parked.store(true, Ordering::SeqCst);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.runnable_by(worker) || self.is_shutdown() {
            // Aborting the park: withdraw the advertisement. A waker that
            // already claimed the flag just spends a spurious notify.
            slot.parked.store(false, Ordering::SeqCst);
        } else {
            let mut guard = slot.lock.lock();
            let mut park_span: Option<std::time::Instant> = None;
            if slot.epoch.load(Ordering::SeqCst) == epoch0
                && !self.runnable_by(worker)
                && !self.is_shutdown()
            {
                self.stat_parks.fetch_add(1, Ordering::Relaxed);
                park_span = self.tracer_if_enabled().map(|_| std::time::Instant::now());
                slot.cond.wait(&mut guard);
            }
            drop(guard);
            slot.parked.store(false, Ordering::SeqCst);
            if let (Some(t0), Some(t)) = (park_span, self.tracer_if_enabled()) {
                t.span(worker, EventKind::Park, t0, std::time::Instant::now(), 0);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Bump a slot's epoch and notify it (the waker side of the
    /// eventcount). Callers must have claimed the slot's park flag, or be
    /// waking unconditionally (shutdown).
    fn wake_slot(&self, worker: usize, slot: &ParkSlot) {
        {
            let _guard = slot.lock.lock();
            slot.epoch.fetch_add(1, Ordering::SeqCst);
            self.stat_wakes.fetch_add(1, Ordering::Relaxed);
            slot.cond.notify_one();
        }
        // Recorded on the woken worker's lane: "worker was woken here".
        if let Some(t) = self.tracer_if_enabled() {
            t.instant(worker, EventKind::Wake, 0);
        }
    }

    /// Wake worker `w` if it advertised itself as parked. Used after
    /// enqueuing work only `w` can acquire — an arbitrary-worker wake
    /// could go to a worker that can never pop the task, leaving `w`
    /// parked forever on its timeout-less condvar.
    fn notify_worker(&self, w: usize) {
        let slot = &self.queues[w].park;
        if slot.parked.swap(false, Ordering::SeqCst) {
            self.wake_slot(w, slot);
        }
    }

    /// Wake some parked worker, if any, after enqueuing work anyone can
    /// acquire. The sleeper count makes the common all-busy case a single
    /// load (no syscall, no scan).
    fn notify_shared(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        for (w, q) in self.queues.iter().enumerate() {
            if q.park.parked.swap(false, Ordering::SeqCst) {
                self.wake_slot(w, &q.park);
                return;
            }
        }
        // Every advertised sleeper was already claimed by another waker or
        // is aborting its park; each of those re-checks the counters after
        // our increment, so the new task cannot be lost.
    }

    /// Wake one parked worker, if any.
    pub fn wake_one(&self) {
        self.notify_shared();
    }

    /// Wake all parked workers.
    pub fn wake_all(&self) {
        self.stat_wakes.fetch_add(1, Ordering::Relaxed);
        for q in &self.queues {
            q.park.parked.store(false, Ordering::SeqCst);
            let _guard = q.park.lock.lock();
            q.park.epoch.fetch_add(1, Ordering::SeqCst);
            q.park.cond.notify_all();
        }
    }

    /// Signal shutdown: workers drain and exit.
    pub fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(|| {})
    }

    #[test]
    fn push_pop_roundtrip() {
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        s.push(task(), None);
        assert_eq!(s.queued_len(), 1);
        assert!(s.pop(0).is_some());
        assert_eq!(s.queued_len(), 0);
        assert!(s.pop(0).is_none());
    }

    #[test]
    fn pinned_tasks_are_not_stolen() {
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        s.push(task().with_hint(crate::task::ScheduleHint::Pinned(1)), None);
        // Worker 0 must not see it (pinned queues are never stolen)…
        assert!(s.pop(0).is_none());
        // …but worker 1 does.
        assert!(s.pop(1).is_some());
    }

    #[test]
    fn hinted_tasks_can_be_stolen() {
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        s.push(task().with_hint(crate::task::ScheduleHint::Worker(1)), None);
        // Worker 0 steals it from worker 1's local queue.
        assert!(s.pop(0).is_some());
        assert_eq!(s.stat_stolen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn static_policy_never_steals() {
        let s = Scheduler::new(2, SchedulerPolicy::Static);
        s.push(task().with_hint(crate::task::ScheduleHint::Worker(1)), None);
        assert!(s.pop(0).is_none(), "static scheduler must not steal");
        assert!(s.pop(1).is_some());
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let s = Scheduler::new(1, SchedulerPolicy::LocalPriority);
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        for (tag, prio) in [(1, Priority::Normal), (2, Priority::High)] {
            let order = order.clone();
            s.push(
                Task::new(move || order.lock().push(tag)).with_priority(prio),
                None,
            );
        }
        while let Some(t) = s.pop(0) {
            t.run();
        }
        assert_eq!(*order.lock(), vec![2, 1]);
    }

    #[test]
    fn local_queue_is_lifo_for_owner() {
        let s = Scheduler::new(1, SchedulerPolicy::LocalPriority);
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        for tag in [1, 2, 3] {
            let order = order.clone();
            // from_worker = Some(0): goes to worker 0's local deque.
            s.push(Task::new(move || order.lock().push(tag)), Some(0));
        }
        while let Some(t) = s.pop(0) {
            t.run();
        }
        assert_eq!(*order.lock(), vec![3, 2, 1], "owner pops LIFO");
    }

    #[test]
    fn steal_takes_oldest_first() {
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        for tag in [1, 2] {
            let order = order.clone();
            s.push(Task::new(move || order.lock().push(tag)), Some(0));
        }
        // Worker 1 steals the *oldest* task (FIFO steal end).
        s.pop(1).unwrap().run();
        assert_eq!(*order.lock(), vec![1]);
    }

    #[test]
    fn shutdown_wakes_and_flags() {
        let s = Scheduler::new(1, SchedulerPolicy::LocalPriority);
        assert!(!s.is_shutdown());
        s.signal_shutdown();
        assert!(s.is_shutdown());
        // wait_for_work returns immediately after shutdown.
        s.wait_for_work(0);
    }

    #[test]
    fn numa_aware_steal_prefers_same_domain() {
        // 4 workers in 2 domains {0,1} {2,3}. A task hinted to worker 1
        // and one hinted to worker 3: thief 0 must steal worker 1's first.
        let topo = crate::topology::Topology::uniform(4, 2);
        let s = Scheduler::with_topology(4, SchedulerPolicy::LocalPriority, &topo);
        assert_eq!(s.steal_order_of(0), &[1, 2, 3]);
        assert_eq!(s.steal_order_of(2), &[3, 0, 1], "same-domain (3) first, then cyclic");
        let tag = std::sync::Arc::new(Mutex::new(Vec::new()));
        for (worker, label) in [(1usize, "near"), (3usize, "far")] {
            let tag = tag.clone();
            s.push(
                Task::new(move || tag.lock().push(label))
                    .with_hint(crate::task::ScheduleHint::Worker(worker)),
                None,
            );
        }
        s.pop(0).unwrap().run();
        assert_eq!(*tag.lock(), vec!["near"], "same-domain victim first");
    }

    #[test]
    fn topology_steal_order_visits_everyone_once() {
        let topo = crate::topology::Topology::uniform(6, 3);
        let s = Scheduler::with_topology(6, SchedulerPolicy::LocalPriority, &topo);
        for thief in 0..6 {
            let mut order = s.steal_order_of(thief).to_vec();
            assert_eq!(order.len(), 5);
            assert!(!order.contains(&thief));
            order.sort_unstable();
            let mut expect: Vec<usize> = (0..6).filter(|&w| w != thief).collect();
            expect.sort_unstable();
            assert_eq!(order, expect);
            // First victim shares the thief's domain (each domain has 2
            // workers here).
            let first = s.steal_order_of(thief)[0];
            assert_eq!(topo.domain_of(first), topo.domain_of(thief));
        }
    }

    #[test]
    fn concurrent_push_pop_conserves_tasks() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let s = Arc::new(Scheduler::new(4, SchedulerPolicy::LocalPriority));
        let ran = Arc::new(AtomicUsize::new(0));
        const N: usize = 1000;
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                let ran = ran.clone();
                std::thread::spawn(move || {
                    for _ in 0..N {
                        let ran = ran.clone();
                        s.push(
                            Task::new(move || {
                                ran.fetch_add(1, Ordering::Relaxed);
                            }),
                            None,
                        );
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|w| {
                let s = s.clone();
                std::thread::spawn(move || loop {
                    match s.pop(w) {
                        Some(t) => t.run(),
                        None => {
                            if s.is_shutdown() && !s.has_queued() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        s.signal_shutdown();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 4 * N);
    }

    #[test]
    fn pop_priority_order_is_pinned_high_local_global_steal() {
        // One task per lane, pushed in scrambled order; worker 0 must pop
        // them as pinned -> local-high -> global-high -> local deque ->
        // local inbox -> global injector -> steal.
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tagged = |tag: &'static str| {
            let order = order.clone();
            Task::new(move || order.lock().push(tag))
        };
        s.push(tagged("global"), None);
        s.push(tagged("steal").with_hint(crate::task::ScheduleHint::Worker(1)), None);
        s.push(tagged("global-high").with_priority(Priority::High), None);
        s.push(tagged("local-deque"), Some(0));
        s.push(
            tagged("local-high")
                .with_hint(crate::task::ScheduleHint::Worker(0))
                .with_priority(Priority::High),
            None,
        );
        // Main already owns deque 0 (the Some(0) push claimed it), so a
        // Worker(0) hint from the owner thread lands in the deque: LIFO
        // above "local-deque".
        s.push(tagged("local-top").with_hint(crate::task::ScheduleHint::Worker(0)), None);
        s.push(tagged("pinned").with_hint(crate::task::ScheduleHint::Pinned(0)), None);
        while let Some(t) = s.pop(0) {
            t.run();
        }
        assert_eq!(
            *order.lock(),
            vec!["pinned", "local-high", "global-high", "local-top", "local-deque", "global", "steal"]
        );
    }

    #[test]
    fn hinted_inbox_tasks_fifo_for_owner() {
        // A thread that does NOT own worker 0's deque hints tasks to it:
        // they land in the inbox and drain FIFO.
        let s = std::sync::Arc::new(Scheduler::new(1, SchedulerPolicy::LocalPriority));
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let s2 = s.clone();
        let order2 = order.clone();
        std::thread::spawn(move || {
            for tag in [1, 2, 3] {
                let order = order2.clone();
                s2.push(
                    Task::new(move || order.lock().push(tag))
                        .with_hint(crate::task::ScheduleHint::Worker(0)),
                    None,
                );
            }
        })
        .join()
        .unwrap();
        while let Some(t) = s.pop(0) {
            t.run();
        }
        assert_eq!(*order.lock(), vec![1, 2, 3], "inbox drains oldest-first");
    }

    #[test]
    fn push_without_sleepers_issues_no_wake() {
        // All-busy runtime: nobody is parked, so pushes must not touch the
        // condvar at all (no notify syscalls, satellite of the eventcount
        // protocol).
        let s = Scheduler::new(2, SchedulerPolicy::LocalPriority);
        for _ in 0..100 {
            s.push(task(), None);
        }
        assert_eq!(s.stat_wakes.load(Ordering::Relaxed), 0, "no sleeper, no notify");
        assert_eq!(s.stat_parks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn push_wakes_parked_worker() {
        use std::sync::Arc;
        let s = Arc::new(Scheduler::new(1, SchedulerPolicy::LocalPriority));
        let s2 = s.clone();
        let sleeper = std::thread::spawn(move || s2.wait_for_work(0));
        // stat_parks is bumped under the slot lock immediately before the
        // wait, and the waker takes the same lock, so once we observe the
        // park the notify cannot be lost.
        while s.stat_parks.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        s.push(task(), None);
        sleeper.join().unwrap();
        assert_eq!(s.stat_wakes.load(Ordering::Relaxed), 1);
        assert_eq!(s.stat_parks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parking_worker_aborts_when_push_races() {
        // Deterministic single-thread slice of the eventcount protocol: a
        // push between the fast check and the park bumps the epoch, so
        // wait_for_work must return without blocking (queued is visible).
        let s = Scheduler::new(1, SchedulerPolicy::LocalPriority);
        s.push(task(), None);
        s.wait_for_work(0); // runnable shared work -> immediate return
        assert_eq!(s.stat_parks.load(Ordering::Relaxed), 0);
    }

    /// Two workers park; a task only worker 1 may acquire is pushed. The
    /// wake must go to worker 1 — an arbitrary `notify_one` could wake
    /// worker 0, which can never pop the task, stranding it forever.
    fn targeted_wake_case(policy: SchedulerPolicy, build: impl FnOnce(Task) -> Task) {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let s = Arc::new(Scheduler::new(2, policy));
        let ran = Arc::new(AtomicBool::new(false));
        let w1 = {
            let s = s.clone();
            std::thread::spawn(move || loop {
                if let Some(t) = s.pop(1) {
                    t.run();
                    return;
                }
                if s.is_shutdown() {
                    return;
                }
                s.wait_for_work(1);
            })
        };
        let w0 = {
            let s = s.clone();
            std::thread::spawn(move || loop {
                if s.is_shutdown() {
                    return;
                }
                s.wait_for_work(0);
            })
        };
        while s.stat_parks.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        let r2 = ran.clone();
        s.push(build(Task::new(move || r2.store(true, Ordering::SeqCst))), None);
        // Hangs here (worker 1 never woken) if the wake goes astray.
        w1.join().unwrap();
        assert!(ran.load(Ordering::SeqCst), "worker 1 ran its task");
        s.signal_shutdown();
        w0.join().unwrap();
    }

    #[test]
    fn pinned_push_wakes_the_pinned_worker() {
        targeted_wake_case(SchedulerPolicy::LocalPriority, |t| {
            t.with_hint(crate::task::ScheduleHint::Pinned(1))
        });
    }

    #[test]
    fn hinted_high_priority_push_wakes_the_hinted_worker() {
        // Worker(w) + High lands in w's high lane, which is never stolen.
        targeted_wake_case(SchedulerPolicy::LocalPriority, |t| {
            t.with_hint(crate::task::ScheduleHint::Worker(1)).with_priority(Priority::High)
        });
    }

    #[test]
    fn static_hinted_push_wakes_the_hinted_worker() {
        // Under Static nothing is ever stolen, so any hinted task is
        // acquirable only by its target.
        targeted_wake_case(SchedulerPolicy::Static, |t| {
            t.with_hint(crate::task::ScheduleHint::Worker(1))
        });
    }

    #[test]
    fn worker_parks_despite_unacquirable_pinned_work() {
        use std::sync::Arc;
        // A task pinned to worker 1 sits queued; worker 0 must still park
        // rather than hot-spin on the global queued count (it can never
        // acquire the task).
        let s = Arc::new(Scheduler::new(2, SchedulerPolicy::LocalPriority));
        s.push(task().with_hint(crate::task::ScheduleHint::Pinned(1)), None);
        let s2 = s.clone();
        let w0 = std::thread::spawn(move || s2.wait_for_work(0));
        while s.stat_parks.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        assert!(s.has_queued(), "parked with the unacquirable task still queued");
        s.signal_shutdown();
        w0.join().unwrap();
        assert!(s.pop(1).is_some(), "pinned task still acquirable by worker 1");
    }

    #[test]
    fn concurrent_batch_steal_conserves_tasks() {
        // 8 producers hammer every lane (global, hinted, pinned, high)
        // while 8 thieves drain with batch stealing; every task must run
        // exactly once.
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        const WORKERS: usize = 8;
        const N: usize = 500;
        let s = Arc::new(Scheduler::new(WORKERS, SchedulerPolicy::LocalPriority));
        let ran = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..8)
            .map(|p| {
                let s = s.clone();
                let ran = ran.clone();
                std::thread::spawn(move || {
                    for i in 0..N {
                        let ran = ran.clone();
                        let t = Task::new(move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                        let t = match i % 4 {
                            0 => t,
                            1 => t.with_hint(crate::task::ScheduleHint::Worker(i % WORKERS)),
                            2 => t.with_hint(crate::task::ScheduleHint::Pinned(p % WORKERS)),
                            _ => t.with_priority(Priority::High),
                        };
                        s.push(t, None);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let s = s.clone();
                std::thread::spawn(move || loop {
                    match s.pop(w) {
                        Some(t) => t.run(),
                        None => {
                            if s.is_shutdown() && !s.has_queued() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        s.signal_shutdown();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 8 * N);
        // Sanity: batch stealing actually engaged under this much
        // contention (each consumer owns its deque, so steals use the
        // batched path).
        assert!(
            s.stat_stolen.load(Ordering::Relaxed)
                >= s.stat_steal_batches.load(Ordering::Relaxed)
        );
    }
}
