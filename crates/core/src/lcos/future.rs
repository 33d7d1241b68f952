//! Promises and futures with HPX semantics.
//!
//! These are *eager, continuation-based* futures (like `hpx::future`, not
//! like Rust's polling `std::future::Future`): the producer side runs
//! regardless of whether anyone waits, and attaching a continuation with
//! [`Future::then`] schedules a new lightweight task when the value
//! arrives. `get` from a worker thread help-executes other tasks while
//! waiting, so blocking on a future never idles a core.
//!
//! Where a callback runs depends on whose code it is. User closures
//! (`then`, `SharedFuture::then`, the `dataflow` combiners) run inline
//! when their inputs are already ready at attach time, and otherwise as
//! one high-priority task on the future's runtime (inline for detached
//! promises), counted at `/lcos{...}/count/continuations`; a shared
//! future's pending `then`s run together in one task. The runtime's own
//! bookkeeping callbacks — the `when_all` gather, `when_any`, `share`'s
//! fan-out, the `dataflow` joins and the replay/replicate resubmits —
//! never run user code, so they run inline on whichever thread completes
//! their input, and inline depth is bounded by how deeply combinators
//! nest. A `when_all` over N task futures therefore costs N tasks, not
//! 2N.

use crate::error::{Error, Result};
use crate::runtime::{help_until, Core};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type Callback<T> = Box<dyn FnOnce(Result<T>) + Send + 'static>;

/// Where a callback registered on a pending future runs once the value
/// arrives (see the module doc).
enum Run {
    /// On the completing thread: runtime bookkeeping that runs no user
    /// code.
    Inline,
    /// As a high-priority task on the future's runtime (inline for a
    /// detached promise): user continuations.
    Task,
}

enum State<T> {
    /// Not yet completed; at most one continuation may be registered.
    Pending { cb: Option<(Callback<T>, Run)> },
    /// Completed, value not yet consumed.
    Ready(Result<T>),
    /// Value handed to `get` or a continuation.
    Consumed,
}

pub(crate) struct Shared<T> {
    state: Mutex<State<T>>,
    /// Set once the result (or error) has been produced: lock-free
    /// `is_ready` fast path.
    completed: AtomicBool,
    /// Runtime to schedule continuations on and to help-execute while
    /// waiting; `None` for detached promises (continuations run inline on
    /// the completing thread).
    core: Option<Arc<Core>>,
}

impl<T: Send + 'static> Shared<T> {
    #[allow(clippy::single_match)] // the no-op arm documents the when_any race
    fn complete(self: &Arc<Self>, res: Result<T>) {
        let mut st = self.state.lock();
        match &mut *st {
            State::Pending { cb } => match cb.take() {
                Some((cb, run)) => {
                    *st = State::Consumed;
                    drop(st);
                    self.completed.store(true, Ordering::Release);
                    match (run, &self.core) {
                        (Run::Task, Some(core)) => core.spawn_continuation(move || cb(res)),
                        _ => cb(res),
                    }
                }
                None => {
                    *st = State::Ready(res);
                    drop(st);
                    self.completed.store(true, Ordering::Release);
                }
            },
            // Already completed (e.g. a when_any race lost): drop `res`.
            _ => {}
        }
    }
}

/// The write side of a future (HPX `hpx::promise`).
pub struct Promise<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    fulfilled: bool,
    future_taken: bool,
}

impl<T: Send + 'static> Promise<T> {
    /// A detached promise: continuations run inline on the completing
    /// thread and waiting threads cannot help-execute.
    pub fn new() -> Promise<T> {
        Promise::make(None)
    }

    pub(crate) fn with_core(core: Arc<Core>) -> Promise<T> {
        Promise::make(Some(core))
    }

    fn make(core: Option<Arc<Core>>) -> Promise<T> {
        Promise {
            shared: Arc::new(Shared {
                state: Mutex::new(State::Pending { cb: None }),
                completed: AtomicBool::new(false),
                core,
            }),
            fulfilled: false,
            future_taken: false,
        }
    }

    /// Obtain the read side. May be called once.
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn future(&mut self) -> Future<T> {
        assert!(!self.future_taken, "future() already taken from this promise");
        self.future_taken = true;
        Future { shared: self.shared.clone() }
    }

    /// Fulfil with a value, waking/scheduling any continuation.
    pub fn set_value(mut self, v: T) {
        self.fulfilled = true;
        self.shared.complete(Ok(v));
    }

    /// Fulfil with an error.
    pub fn set_error(mut self, e: Error) {
        self.fulfilled = true;
        self.shared.complete(Err(e));
    }

}

impl<T: Send + 'static> Default for Promise<T> {
    fn default() -> Self {
        Promise::new()
    }
}

impl<T: Send + 'static> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.shared.complete(Err(Error::BrokenPromise));
        }
    }
}

/// The read side (HPX `hpx::future`): single-consumer — `get` or `then`
/// consumes it.
pub struct Future<T: Send + 'static> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Future<T> {
    /// A future that is already ready (detached; see
    /// [`crate::runtime::Runtime::make_ready_future`] for the
    /// runtime-attached variant).
    pub fn ready(v: T) -> Future<T> {
        let mut p = Promise::new();
        let f = p.future();
        p.set_value(v);
        f
    }

    /// Whether the result has been produced.
    pub fn is_ready(&self) -> bool {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Block until ready (help-executing if called from a worker).
    pub fn wait(&self) {
        let shared = self.shared.clone();
        help_until(self.shared.core.as_ref(), move || {
            shared.completed.load(Ordering::Acquire)
        });
    }

    /// Wait and take the value.
    ///
    /// # Panics
    /// Panics if the producing task failed ([`Error::TaskPanicked`]) or the
    /// promise was dropped. Use [`Future::try_get`] to handle errors.
    pub fn get(self) -> T {
        match self.try_get() {
            Ok(v) => v,
            Err(e) => panic!("future::get failed: {e}"),
        }
    }

    /// Wait and take the result.
    pub fn try_get(self) -> Result<T> {
        self.wait();
        let mut st = self.shared.state.lock();
        match std::mem::replace(&mut *st, State::Consumed) {
            State::Ready(res) => res,
            State::Consumed => panic!("future value already consumed"),
            State::Pending { .. } => unreachable!("wait() returned before completion"),
        }
    }

    /// Register runtime bookkeeping `cb` to run with the result on
    /// whichever thread completes this future, or on this thread right
    /// away if it is already ready. `cb` must not run user code: see the
    /// module doc.
    pub(crate) fn on_complete(self, cb: impl FnOnce(Result<T>) + Send + 'static) {
        self.register(cb, Run::Inline);
    }

    /// Register `cb` to run with the result: right away on this thread if
    /// the future is already ready, otherwise where `run` says.
    fn register(self, cb: impl FnOnce(Result<T>) + Send + 'static, run: Run) {
        let mut cb = Some(cb);
        let run_now = {
            let mut st = self.shared.state.lock();
            match std::mem::replace(&mut *st, State::Consumed) {
                State::Ready(res) => Some(res),
                State::Consumed => panic!("future value already consumed"),
                State::Pending { cb: existing } => {
                    assert!(existing.is_none(), "only one continuation per future");
                    *st = State::Pending {
                        cb: Some((Box::new(cb.take().expect("cb present")), run)),
                    };
                    None
                }
            }
        };
        if let Some(res) = run_now {
            (cb.take().expect("cb not stored"))(res);
        }
    }

    /// Attach a continuation: returns a future of `f(value)`. If this
    /// future is already ready, `f` runs right away on this thread;
    /// otherwise it is scheduled as a high-priority task when this future
    /// belongs to a runtime, and runs on the completing thread when it is
    /// detached. Errors propagate without running `f`.
    pub fn then<U: Send + 'static>(
        self,
        f: impl FnOnce(T) -> U + Send + 'static,
    ) -> Future<U> {
        let mut p = match &self.shared.core {
            Some(core) => Promise::with_core(core.clone()),
            None => Promise::new(),
        };
        let out = p.future();
        self.register(
            move |res| match res {
                Ok(v) => {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v))) {
                        Ok(u) => p.set_value(u),
                        Err(pl) => {
                            p.set_error(Error::TaskPanicked(crate::util::panic_message(&*pl)))
                        }
                    }
                }
                Err(e) => p.set_error(e),
            },
            Run::Task,
        );
        out
    }

    pub(crate) fn core(&self) -> Option<Arc<Core>> {
        self.shared.core.clone()
    }
}

/// A multi-consumer future (HPX `hpx::shared_future`): cloneable, any
/// number of continuations, `get` returns a clone of the value. Created
/// with [`Future::share`].
///
/// ```
/// use parallex::prelude::*;
///
/// let rt = Runtime::builder().worker_threads(2).build();
/// let sf = rt.async_task(|| 21).share();
/// let doubled = sf.then(|x| x * 2);
/// assert_eq!(sf.get(), 21);      // repeatable
/// assert_eq!(sf.get(), 21);
/// assert_eq!(doubled.get(), 42);
/// rt.shutdown();
/// ```
pub struct SharedFuture<T: Clone + Send + 'static> {
    inner: Arc<SharedInner<T>>,
}

impl<T: Clone + Send + 'static> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        SharedFuture { inner: self.inner.clone() }
    }
}

type SharedCallback<T> = Box<dyn FnOnce(Result<T>) + Send + 'static>;

enum SharedState<T> {
    Pending(Vec<SharedCallback<T>>),
    Ready(Result<T>),
}

struct SharedInner<T: Clone + Send + 'static> {
    state: Mutex<SharedState<T>>,
    completed: AtomicBool,
    core: Option<Arc<Core>>,
}

impl<T: Clone + Send + 'static> SharedInner<T> {
    fn result(&self) -> Result<T> {
        match &*self.state.lock() {
            SharedState::Ready(r) => r.clone(),
            SharedState::Pending(_) => unreachable!("checked completed first"),
        }
    }
}

impl<T: Clone + Send + 'static> Future<T> {
    /// Convert into a multi-consumer [`SharedFuture`].
    pub fn share(self) -> SharedFuture<T> {
        let inner = Arc::new(SharedInner {
            state: Mutex::new(SharedState::Pending(Vec::new())),
            completed: AtomicBool::new(false),
            core: self.core(),
        });
        let inner2 = inner.clone();
        self.on_complete(move |res| {
            let callbacks = {
                let mut st = inner2.state.lock();
                let cbs = match &mut *st {
                    SharedState::Pending(cbs) => std::mem::take(cbs),
                    SharedState::Ready(_) => Vec::new(),
                };
                *st = SharedState::Ready(res.clone());
                inner2.completed.store(true, Ordering::Release);
                cbs
            };
            if callbacks.is_empty() {
                return;
            }
            let run_all = move || {
                for cb in callbacks {
                    cb(res.clone());
                }
            };
            // The pending `then`s are user code: one task runs them all.
            match &inner2.core {
                Some(core) => core.spawn_continuation(run_all),
                None => run_all(),
            }
        });
        SharedFuture { inner }
    }
}

impl<T: Clone + Send + 'static> SharedFuture<T> {
    /// Whether the result has been produced.
    pub fn is_ready(&self) -> bool {
        self.inner.completed.load(Ordering::Acquire)
    }

    /// Block until ready (help-executing from workers).
    pub fn wait(&self) {
        let inner = self.inner.clone();
        help_until(self.inner.core.as_ref(), move || {
            inner.completed.load(Ordering::Acquire)
        });
    }

    /// Wait and clone the value out; unlike [`Future::get`] this can be
    /// called from any number of clones.
    ///
    /// # Panics
    /// Panics if the producer failed; use [`SharedFuture::try_get`].
    pub fn get(&self) -> T {
        match self.try_get() {
            Ok(v) => v,
            Err(e) => panic!("shared_future::get failed: {e}"),
        }
    }

    /// Wait and clone the result out.
    pub fn try_get(&self) -> Result<T> {
        self.wait();
        self.inner.result()
    }

    /// Attach a continuation; unlike [`Future::then`], any number may be
    /// attached (each receives a clone).
    pub fn then<U: Send + 'static>(
        &self,
        f: impl FnOnce(T) -> U + Send + 'static,
    ) -> Future<U> {
        let mut p = match &self.inner.core {
            Some(core) => Promise::with_core(core.clone()),
            None => Promise::new(),
        };
        let out = p.future();
        let run = move |res: Result<T>| match res {
            Ok(v) => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(v))) {
                Ok(u) => p.set_value(u),
                Err(pl) => p.set_error(Error::TaskPanicked(crate::util::panic_message(&*pl))),
            },
            Err(e) => p.set_error(e),
        };
        let mut run = Some(run);
        let immediate = {
            let mut st = self.inner.state.lock();
            match &mut *st {
                SharedState::Pending(cbs) => {
                    cbs.push(Box::new(run.take().expect("run present")));
                    None
                }
                SharedState::Ready(r) => Some(r.clone()),
            }
        };
        if let Some(res) = immediate {
            (run.take().expect("run not stored"))(res);
        }
        out
    }
}

/// Future of all results: resolves when every input future has resolved,
/// preserving order. The first error (if any) wins.
pub fn when_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<Vec<T>> {
    let n = futures.len();
    let core = futures.iter().find_map(|f| f.core());
    let mut p = match core {
        Some(core) => Promise::with_core(core),
        None => Promise::new(),
    };
    let out = p.future();
    if n == 0 {
        p.set_value(Vec::new());
        return out;
    }
    struct Gather<T: Send + 'static> {
        slots: Mutex<Vec<Option<Result<T>>>>,
        promise: Mutex<Option<Promise<Vec<T>>>>,
        remaining: std::sync::atomic::AtomicUsize,
    }
    let gather = Arc::new(Gather {
        slots: Mutex::new((0..n).map(|_| None).collect()),
        promise: Mutex::new(Some(p)),
        remaining: std::sync::atomic::AtomicUsize::new(n),
    });
    for (i, f) in futures.into_iter().enumerate() {
        let g = gather.clone();
        f.on_complete(move |res| {
            g.slots.lock()[i] = Some(res);
            if g.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let slots = std::mem::take(&mut *g.slots.lock());
                let mut vals = Vec::with_capacity(slots.len());
                let mut first_err = None;
                for s in slots {
                    match s.expect("slot must be filled") {
                        Ok(v) => vals.push(v),
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                let p = g.promise.lock().take().expect("completed once");
                match first_err {
                    None => p.set_value(vals),
                    Some(e) => p.set_error(e),
                }
            }
        });
    }
    out
}

/// Future of the first result: resolves with `(index, value)` of whichever
/// input resolves first (errors only win if every input fails).
pub fn when_any<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<(usize, T)> {
    assert!(!futures.is_empty(), "when_any of zero futures");
    let n = futures.len();
    let core = futures.iter().find_map(|f| f.core());
    let mut p = match core {
        Some(core) => Promise::with_core(core),
        None => Promise::new(),
    };
    let out = p.future();
    struct Race<T: Send + 'static> {
        promise: Mutex<Option<Promise<(usize, T)>>>,
        failures: std::sync::atomic::AtomicUsize,
        total: usize,
    }
    let race = Arc::new(Race {
        promise: Mutex::new(Some(p)),
        failures: std::sync::atomic::AtomicUsize::new(0),
        total: n,
    });
    for (i, f) in futures.into_iter().enumerate() {
        let r = race.clone();
        f.on_complete(move |res| match res {
            Ok(v) => {
                if let Some(p) = r.promise.lock().take() {
                    p.set_value((i, v));
                }
            }
            Err(e) => {
                if r.failures.fetch_add(1, Ordering::AcqRel) + 1 == r.total {
                    if let Some(p) = r.promise.lock().take() {
                        p.set_error(e);
                    }
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn promise_future_roundtrip() {
        let mut p = Promise::new();
        let f = p.future();
        assert!(!f.is_ready());
        p.set_value(5);
        assert!(f.is_ready());
        assert_eq!(f.get(), 5);
    }

    #[test]
    fn ready_future() {
        let f = Future::ready("hi");
        assert!(f.is_ready());
        assert_eq!(f.get(), "hi");
    }

    #[test]
    fn dropped_promise_breaks_future() {
        let mut p: Promise<i32> = Promise::new();
        let f = p.future();
        drop(p);
        assert_eq!(f.try_get(), Err(Error::BrokenPromise));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn double_future_panics() {
        let mut p: Promise<i32> = Promise::new();
        let _a = p.future();
        let _b = p.future();
    }

    #[test]
    fn then_runs_inline_for_detached_promise() {
        let mut p = Promise::new();
        let f = p.future().then(|x: i32| x + 1).then(|x| x * 2);
        p.set_value(10);
        assert_eq!(f.get(), 22);
    }

    #[test]
    fn then_propagates_errors_without_running() {
        let mut p: Promise<i32> = Promise::new();
        let f = p.future().then(|_| panic!("must not run"));
        p.set_error(Error::BrokenPromise);
        assert_eq!(f.try_get(), Err(Error::BrokenPromise));
    }

    #[test]
    fn then_captures_panics() {
        let mut p = Promise::new();
        let f = p.future().then(|_: i32| -> i32 { panic!("inner") });
        p.set_value(1);
        match f.try_get() {
            Err(Error::TaskPanicked(m)) => assert!(m.contains("inner")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn when_all_collects_in_order() {
        let mut ps: Vec<Promise<i32>> = (0..3).map(|_| Promise::new()).collect();
        let fs = ps.iter_mut().map(|p| p.future()).collect();
        let all = when_all(fs);
        // Complete out of order.
        ps.pop().unwrap().set_value(2);
        ps.remove(0).set_value(0);
        ps.pop().unwrap().set_value(1);
        assert_eq!(all.get(), vec![0, 1, 2]);
    }

    #[test]
    fn when_all_empty_is_ready() {
        let all: Future<Vec<i32>> = when_all(vec![]);
        assert_eq!(all.get(), Vec::<i32>::new());
    }

    #[test]
    fn when_all_surfaces_first_error() {
        let mut a: Promise<i32> = Promise::new();
        let mut b: Promise<i32> = Promise::new();
        let all = when_all(vec![a.future(), b.future()]);
        a.set_value(1);
        b.set_error(Error::BrokenPromise);
        assert_eq!(all.try_get(), Err(Error::BrokenPromise));
    }

    #[test]
    fn when_any_returns_first() {
        let mut a: Promise<i32> = Promise::new();
        let mut b: Promise<i32> = Promise::new();
        let any = when_any(vec![a.future(), b.future()]);
        b.set_value(9);
        let (idx, v) = any.get();
        assert_eq!((idx, v), (1, 9));
        a.set_value(1); // late completion is ignored
    }

    #[test]
    fn when_any_errors_only_if_all_fail() {
        let mut a: Promise<i32> = Promise::new();
        let mut b: Promise<i32> = Promise::new();
        let any = when_any(vec![a.future(), b.future()]);
        a.set_error(Error::BrokenPromise);
        b.set_value(3);
        assert_eq!(any.get(), (1, 3));
    }

    #[test]
    fn shared_future_fans_out_to_many_consumers() {
        let mut p = Promise::new();
        let sf = p.future().share();
        let a = sf.clone();
        let b = sf.clone();
        let doubled = sf.then(|x: i32| x * 2);
        let tripled = sf.then(|x: i32| x * 3);
        assert!(!sf.is_ready());
        p.set_value(7);
        assert_eq!(a.get(), 7);
        assert_eq!(b.get(), 7);
        assert_eq!(sf.get(), 7, "get is repeatable");
        assert_eq!(doubled.get(), 14);
        assert_eq!(tripled.get(), 21);
    }

    #[test]
    fn shared_future_then_after_ready_runs_immediately() {
        let sf = Future::ready(5).share();
        assert!(sf.is_ready());
        assert_eq!(sf.then(|x| x + 1).get(), 6);
    }

    #[test]
    fn shared_future_propagates_errors_to_all() {
        let mut p: Promise<i32> = Promise::new();
        let sf = p.future().share();
        let c1 = sf.clone();
        let t = sf.then(|_| unreachable!("must not run"));
        p.set_error(Error::BrokenPromise);
        assert_eq!(c1.try_get(), Err(Error::BrokenPromise));
        assert_eq!(sf.try_get(), Err(Error::BrokenPromise));
        assert!(t.try_get().is_err());
    }

    #[test]
    fn shared_future_across_runtime_tasks() {
        let rt = Runtime::builder().worker_threads(4).build();
        let sf = rt.async_task(|| 10u64).share();
        let fs: Vec<_> = (0..16)
            .map(|i| {
                let sf = sf.clone();
                rt.async_task(move || sf.get() + i)
            })
            .collect();
        let sum: u64 = when_all(fs).get().into_iter().sum();
        assert_eq!(sum, 16 * 10 + (0..16).sum::<u64>());
        rt.shutdown();
    }

    #[test]
    fn runtime_futures_schedule_continuations() {
        let rt = Runtime::builder().worker_threads(2).build();
        let f = rt.async_task(|| 20).then(|x| x + 1).then(|x| x * 2);
        assert_eq!(f.get(), 42);
        rt.shutdown();
    }

    #[test]
    fn when_all_over_pending_task_futures_spawns_only_the_tasks() {
        // The gather runs inline on each completing worker: N inputs cost
        // exactly the N tasks that produce them.
        use std::sync::atomic::AtomicBool;
        const N: usize = 8;
        let rt = Runtime::builder().worker_threads(2).build();
        let gate = Arc::new(AtomicBool::new(false));
        let before = rt.counter_snapshot();
        let fs: Vec<_> = (0..N)
            .map(|i| {
                let gate = gate.clone();
                rt.async_task(move || {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    i
                })
            })
            .collect();
        let all = when_all(fs);
        gate.store(true, Ordering::Release);
        assert_eq!(all.get(), (0..N).collect::<Vec<_>>());
        rt.wait_idle();
        let d = rt.counter_snapshot().delta(&before);
        assert_eq!(d.total("threads", "count/spawned"), N as u64);
        assert_eq!(d.total("lcos", "count/continuations"), 0);
        rt.shutdown();
    }

    #[test]
    fn user_continuations_of_pending_runtime_futures_run_on_a_worker() {
        // A plain thread completes the inputs; `then` and a shared
        // future's `then` must still run on one of the runtime's workers.
        let rt = Runtime::builder().worker_threads(2).build();
        let before = rt.counter_snapshot();
        let mut pa = rt.make_promise::<i32>();
        let mut pb = rt.make_promise::<i32>();
        let on_worker = |rt: &Runtime| {
            let rt = rt.clone();
            move |_: i32| rt.current_worker().is_some()
        };
        let then = pa.future().then(on_worker(&rt));
        let shared_then = pb.future().share().then(on_worker(&rt));
        std::thread::spawn(move || {
            pa.set_value(1);
            pb.set_value(2);
        })
        .join()
        .unwrap();
        assert!(then.get(), "Future::then ran off the workers");
        assert!(shared_then.get(), "SharedFuture::then ran off the workers");
        rt.wait_idle();
        let d = rt.counter_snapshot().delta(&before);
        assert_eq!(d.total("lcos", "count/continuations"), 2);
        rt.shutdown();
    }

    #[test]
    fn then_on_a_ready_runtime_future_runs_inline() {
        let rt = Runtime::builder().worker_threads(2).build();
        let caller = std::thread::current().id();
        let f = rt
            .make_ready_future(5)
            .then(move |x| (std::thread::current().id(), x + 1));
        assert!(f.is_ready(), "ran before then returned");
        assert_eq!(f.get(), (caller, 6));
        rt.shutdown();
    }

    #[test]
    fn when_all_across_runtime_tasks() {
        let rt = Runtime::builder().worker_threads(4).build();
        let fs: Vec<_> = (0..32).map(|i| rt.async_task(move || i)).collect();
        let sum: i32 = when_all(fs).get().into_iter().sum();
        assert_eq!(sum, (0..32).sum());
        rt.shutdown();
    }
}
