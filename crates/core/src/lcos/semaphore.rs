//! Counting semaphore with future-based acquire
//! (HPX `hpx::lcos::local::sliding_semaphore` family).
//!
//! HPX's distributed stencil codes use a sliding semaphore to bound how far
//! ahead the time-stepper may run of its neighbours' halo exchanges; our
//! 1D heat solver uses this semaphore the same way.

use crate::lcos::future::{Future, Promise};
use crate::runtime::Runtime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

struct SemState {
    permits: usize,
    waiters: VecDeque<Promise<()>>,
}

struct Inner {
    state: Mutex<SemState>,
    runtime: Option<Runtime>,
}

/// A counting semaphore. `acquire` yields a future of a [`Permit`]; the
/// permit returns itself on drop.
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<Inner>,
}

/// An acquired permit; releases on drop.
pub struct Permit {
    inner: Arc<Inner>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        release(&self.inner);
    }
}

fn release(inner: &Arc<Inner>) {
    let waiter = {
        let mut st = inner.state.lock();
        match st.waiters.pop_front() {
            Some(w) => Some(w),
            None => {
                st.permits += 1;
                None
            }
        }
    };
    if let Some(p) = waiter {
        p.set_value(());
    }
}

impl Semaphore {
    /// Detached semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            inner: Arc::new(Inner {
                state: Mutex::new(SemState { permits, waiters: VecDeque::new() }),
                runtime: None,
            }),
        }
    }

    /// Semaphore whose acquire-continuations are scheduled on `rt`.
    pub fn for_runtime(rt: &Runtime, permits: usize) -> Semaphore {
        let mut s = Semaphore::new(permits);
        Arc::get_mut(&mut s.inner).unwrap().runtime = Some(rt.clone());
        s
    }

    fn make_promise(&self) -> Promise<()> {
        match &self.inner.runtime {
            Some(rt) => rt.make_promise(),
            None => Promise::new(),
        }
    }

    /// Acquire one permit as a future.
    pub fn acquire(&self) -> Future<Permit> {
        let mut p = self.make_promise();
        let f = p.future();
        let granted = {
            let mut st = self.inner.state.lock();
            if st.permits > 0 {
                st.permits -= 1;
                Some(p)
            } else {
                // Queue under the same lock that saw no permit: a release
                // in between would otherwise find no waiter to hand it to.
                st.waiters.push_back(p);
                None
            }
        };
        if let Some(p) = granted {
            p.set_value(());
        }
        let inner = self.inner.clone();
        f.then(move |()| Permit { inner })
    }

    /// Try to acquire without waiting.
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut st = self.inner.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            Some(Permit { inner: self.inner.clone() })
        } else {
            None
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.state.lock().permits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let s = Semaphore::new(2);
        let a = s.acquire().get();
        let b = s.acquire().get();
        assert_eq!(s.available(), 0);
        assert!(s.try_acquire().is_none());
        drop(a);
        assert_eq!(s.available(), 1);
        drop(b);
        assert_eq!(s.available(), 2);
    }

    #[test]
    fn waiter_woken_on_release() {
        let s = Semaphore::new(1);
        let first = s.acquire().get();
        let pending = s.acquire();
        assert!(!pending.is_ready());
        drop(first);
        let _second = pending.get();
    }

    #[test]
    fn fifo_handoff() {
        let s = Semaphore::new(0);
        let f1 = s.acquire();
        let f2 = s.acquire();
        // Two releases in a row hand permits to waiters in order.
        release(&s.inner);
        assert!(f1.is_ready());
        assert!(!f2.is_ready());
        release(&s.inner);
        assert!(f2.is_ready());
        drop(f1.get());
        drop(f2.get());
        assert_eq!(s.available(), 2);
    }

    #[test]
    fn bounds_pipeline_depth_across_tasks() {
        // The sliding-semaphore pattern from the 1D stencil: at most
        // `window` stages in flight. Continuation style — the guarded work
        // runs when the permit arrives (never block a worker on a
        // contended permit; see the AsyncMutex module docs).
        let rt = Runtime::builder().worker_threads(2).build();
        let s = Semaphore::for_runtime(&rt, 3);
        let max_seen = Arc::new(Mutex::new(0usize));
        let in_flight = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let done = crate::lcos::latch::Latch::for_runtime(&rt, 20);
        for _ in 0..20 {
            let max_seen = max_seen.clone();
            let in_flight = in_flight.clone();
            let done = done.clone();
            drop(s.acquire().then(move |permit| {
                let now = in_flight.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                {
                    let mut m = max_seen.lock();
                    *m = (*m).max(now);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
                in_flight.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                drop(permit);
                done.count_down(1);
            }));
        }
        done.wait();
        assert!(*max_seen.lock() <= 3, "window exceeded: {}", *max_seen.lock());
        rt.shutdown();
    }
}
