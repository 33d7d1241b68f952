//! `dataflow`: run a function when all its future arguments are ready
//! (HPX `hpx::dataflow`).
//!
//! Dataflow is the idiom HPX stencils are built from: each chunk's
//! time-step `t+1` task is `dataflow(update, left[t], middle[t],
//! right[t])`, producing exactly the dependency DAG the paper's Section I
//! describes ("tasks are launched arbitrarily based on the input data and
//! the DAG generated").

use crate::lcos::future::{when_all, Future};
use crate::runtime::Core;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Run `f(a, b)` once both futures are ready; errors propagate. Nothing
/// blocks: the per-input joins run inline on the completing threads, and
/// whichever future completes last fires the combiner as one
/// high-priority task when the futures belong to a runtime. If both were
/// ready already, `f` runs right away on the calling thread.
///
/// ```
/// use parallex::prelude::*;
/// use parallex::lcos::dataflow::dataflow2;
///
/// let rt = Runtime::builder().worker_threads(2).build();
/// let a = rt.async_task(|| 6);
/// let b = rt.async_task(|| 7);
/// assert_eq!(dataflow2(a, b, |x, y| x * y).get(), 42);
/// rt.shutdown();
/// ```
pub fn dataflow2<A, B, R>(
    fa: Future<A>,
    fb: Future<B>,
    f: impl FnOnce(A, B) -> R + Send + 'static,
) -> Future<R>
where
    A: Send + 'static,
    B: Send + 'static,
    R: Send + 'static,
{
    join2(fa, fb, f, true)
}

/// [`dataflow2`]'s body. A `user` combiner fired by a completing input is
/// spawned as a task; a bookkeeping one (`user == false`, e.g. the tuple
/// pairing inside [`dataflow3`]) runs inline on the completing thread.
fn join2<A, B, R>(
    fa: Future<A>,
    fb: Future<B>,
    f: impl FnOnce(A, B) -> R + Send + 'static,
    user: bool,
) -> Future<R>
where
    A: Send + 'static,
    B: Send + 'static,
    R: Send + 'static,
{
    use crate::error::Result;
    use crate::lcos::future::Promise;

    struct Join<A, B, R: Send + 'static> {
        a: Mutex<Option<Result<A>>>,
        b: Mutex<Option<Result<B>>>,
        /// Both inputs plus the attach itself: when the attach arrives
        /// last, both inputs were ready and `f` runs inline.
        remaining: AtomicUsize,
        /// Where a completing input spawns a user combiner (`None`: run it
        /// inline).
        core: Option<Arc<Core>>,
        #[allow(clippy::type_complexity)]
        finish: Mutex<Option<(Promise<R>, Box<dyn FnOnce(A, B) -> R + Send>)>>,
    }

    impl<A: Send + 'static, B: Send + 'static, R: Send + 'static> Join<A, B, R> {
        fn arrived(self: &Arc<Self>, attaching: bool) {
            if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
                return;
            }
            match (&self.core, attaching) {
                (Some(core), false) => {
                    let join = self.clone();
                    core.spawn_continuation(move || join.fire());
                }
                _ => self.fire(),
            }
        }

        fn fire(&self) {
            let (p, f) = self.finish.lock().take().expect("finish fires once");
            let a = self.a.lock().take().expect("a filled");
            let b = self.b.lock().take().expect("b filled");
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(a, b))) {
                        Ok(r) => p.set_value(r),
                        Err(pl) => p.set_error(crate::error::Error::TaskPanicked(
                            crate::util::panic_message(&*pl),
                        )),
                    }
                }
                (Err(e), _) | (_, Err(e)) => p.set_error(e),
            }
        }
    }

    let core = fa.core().or_else(|| fb.core());
    let mut promise = match &core {
        Some(core) => Promise::with_core(core.clone()),
        None => Promise::new(),
    };
    let core = core.filter(|_| user);
    let out = promise.future();
    let join = Arc::new(Join {
        a: Mutex::new(None),
        b: Mutex::new(None),
        remaining: AtomicUsize::new(3),
        core,
        finish: Mutex::new(Some((promise, Box::new(f) as Box<dyn FnOnce(A, B) -> R + Send>))),
    });
    let ja = join.clone();
    fa.on_complete(move |res| {
        *ja.a.lock() = Some(res);
        ja.arrived(false);
    });
    let jb = join.clone();
    fb.on_complete(move |res| {
        *jb.b.lock() = Some(res);
        jb.arrived(false);
    });
    join.arrived(true);
    out
}

/// Run `f(a, b, c)` once all three futures are ready.
pub fn dataflow3<A, B, C, R>(
    fa: Future<A>,
    fb: Future<B>,
    fc: Future<C>,
    f: impl FnOnce(A, B, C) -> R + Send + 'static,
) -> Future<R>
where
    A: Send + 'static,
    B: Send + 'static,
    C: Send + 'static,
    R: Send + 'static,
{
    dataflow2(join2(fa, fb, |a, b| (a, b), false), fc, move |(a, b), c| f(a, b, c))
}

/// Run `f(values)` once every future in the (homogeneous) vector is ready.
pub fn dataflow_vec<T, R>(
    futures: Vec<Future<T>>,
    f: impl FnOnce(Vec<T>) -> R + Send + 'static,
) -> Future<R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    when_all(futures).then(f)
}

/// A dynamic unrolled-dependency counter used by `dataflow`-heavy codes to
/// know when a whole DAG stage has retired (diagnostics/testing aid).
#[derive(Clone, Default)]
pub struct StageCounter {
    fired: Arc<AtomicUsize>,
}

impl StageCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
    /// Record one completion.
    pub fn bump(&self) {
        self.fired.fetch_add(1, Ordering::Relaxed);
    }
    /// Completions recorded so far.
    pub fn count(&self) -> usize {
        self.fired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcos::future::Promise;
    use crate::runtime::Runtime;

    #[test]
    fn dataflow2_combines_when_both_ready() {
        let mut pa = Promise::new();
        let mut pb = Promise::new();
        let f = dataflow2(pa.future(), pb.future(), |a: i32, b: i32| a + b);
        pb.set_value(2);
        assert!(!f.is_ready());
        pa.set_value(40);
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn dataflow3_combines_three() {
        let mut pa = Promise::new();
        let mut pb = Promise::new();
        let mut pc = Promise::new();
        let f = dataflow3(pa.future(), pb.future(), pc.future(), |a: i32, b: i32, c: i32| {
            a * 100 + b * 10 + c
        });
        pc.set_value(3);
        pa.set_value(1);
        pb.set_value(2);
        assert_eq!(f.get(), 123);
    }

    #[test]
    fn dataflow_vec_over_tasks() {
        let rt = Runtime::builder().worker_threads(2).build();
        let fs: Vec<_> = (1..=5).map(|i| rt.async_task(move || i)).collect();
        let f = dataflow_vec(fs, |v| v.into_iter().product::<i64>());
        assert_eq!(f.get(), 120);
        rt.shutdown();
    }

    #[test]
    fn dataflow_error_propagates() {
        let mut pa: Promise<i32> = Promise::new();
        let mut pb: Promise<i32> = Promise::new();
        let f = dataflow2(pa.future(), pb.future(), |_, _| unreachable!("must not run"));
        pa.set_error(crate::error::Error::BrokenPromise);
        pb.set_value(1);
        assert!(f.try_get().is_err());
    }

    #[test]
    fn combiner_of_pending_runtime_futures_runs_on_a_worker() {
        let rt = Runtime::builder().worker_threads(2).build();
        let mut pa = rt.make_promise::<i32>();
        let mut pb = rt.make_promise::<i32>();
        let rt2 = rt.clone();
        let f = dataflow2(pa.future(), pb.future(), move |_, _| rt2.current_worker().is_some());
        std::thread::spawn(move || {
            pa.set_value(1);
            pb.set_value(2);
        })
        .join()
        .unwrap();
        assert!(f.get(), "dataflow2 combiner ran off the workers");
        rt.shutdown();
    }

    #[test]
    fn combiner_of_ready_runtime_futures_runs_inline() {
        let rt = Runtime::builder().worker_threads(2).build();
        let caller = std::thread::current().id();
        let f = dataflow3(
            rt.make_ready_future(1),
            rt.make_ready_future(2),
            rt.make_ready_future(3),
            move |a, b, c| (std::thread::current().id(), a + b + c),
        );
        assert!(f.is_ready(), "ran before dataflow3 returned");
        assert_eq!(f.get(), (caller, 6));
        rt.shutdown();
    }

    #[test]
    fn stencil_like_dag_over_time_steps() {
        // Three cells, each step depends on left/middle/right of previous
        // step: the canonical ParalleX 3-point-stencil DAG.
        let rt = Runtime::builder().worker_threads(4).build();
        let steps = 16;
        let mut current: Vec<Future<f64>> =
            (0..3).map(|i| rt.make_ready_future(i as f64)).collect();
        for _ in 0..steps {
            // Duplicate the layer: each future is single-consumer, so fan
            // it out through `then`-created copies.
            let dup: Vec<(Future<f64>, Future<f64>, Future<f64>)> = current
                .into_iter()
                .map(|f| {
                    let v = f.get(); // materialize for simple duplication
                    (
                        rt.make_ready_future(v),
                        rt.make_ready_future(v),
                        rt.make_ready_future(v),
                    )
                })
                .collect();
            let (l0, l1, l2) = {
                let mut it = dup.into_iter();
                (it.next().unwrap(), it.next().unwrap(), it.next().unwrap())
            };
            let new0 = dataflow2(l0.0, l1.0, |a, b| (a + b) / 2.0);
            let new1 = dataflow3(l0.1, l1.1, l2.0, |a, b, c| (a + b + c) / 3.0);
            let new2 = dataflow2(l1.2, l2.1, |b, c| (b + c) / 2.0);
            drop(l2.2);
            current = vec![new0, new1, new2];
        }
        let finals: Vec<f64> = current.into_iter().map(|f| f.get()).collect();
        // Diffusion drives every cell toward the mean of the initial data.
        for v in finals {
            assert!((v - 1.0).abs() < 0.2, "{v}");
        }
        rt.shutdown();
    }
}
