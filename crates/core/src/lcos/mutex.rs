//! A suspending mutex (HPX `hpx::mutex`).
//!
//! `lock()` returns a *future* of the guard: a contended lock parks a
//! continuation instead of an OS thread, in keeping with the ParalleX rule
//! that contention should cost a queued task, not a blocked core.
//!
//! # Blocking on a contended lock from a worker
//!
//! Prefer `lock().then(|guard| …)` to `lock().get()` inside tasks. A
//! worker blocked in `get()` help-executes other queued tasks; if one of
//! *those* also blocks on this mutex, the task that currently owns the
//! about-to-be-granted guard can end up buried under the helper's stack
//! and never resume — the run-to-completion analogue of a lock-ordering
//! deadlock (HPX avoids it by suspending stackful threads, which safe
//! Rust cannot do). Continuation style has no such hazard: the critical
//! section becomes a task that runs when the guard arrives.

use crate::lcos::future::{Future, Promise};
use crate::runtime::Runtime;
use parking_lot::Mutex as PlMutex;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

struct LockState {
    locked: bool,
    waiters: VecDeque<Promise<()>>,
}

struct Inner<T> {
    state: PlMutex<LockState>,
    value: UnsafeCell<T>,
    runtime: Option<Runtime>,
}

// SAFETY: the value is only ever accessed through AsyncMutexGuard, and the
// lock-state machine guarantees at most one guard exists at a time.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

/// An asynchronous mutual-exclusion lock around a value.
pub struct AsyncMutex<T: Send + 'static> {
    inner: Arc<Inner<T>>,
}

impl<T: Send + 'static> Clone for AsyncMutex<T> {
    fn clone(&self) -> Self {
        AsyncMutex { inner: self.inner.clone() }
    }
}

/// Exclusive access to the value; unlocks on drop.
pub struct AsyncMutexGuard<T: Send + 'static> {
    inner: Arc<Inner<T>>,
}

impl<T: Send + 'static> Deref for AsyncMutexGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard existence implies exclusive ownership of the value.
        unsafe { &*self.inner.value.get() }
    }
}

impl<T: Send + 'static> DerefMut for AsyncMutexGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, and &mut self gives unique guard access.
        unsafe { &mut *self.inner.value.get() }
    }
}

impl<T: Send + 'static> Drop for AsyncMutexGuard<T> {
    fn drop(&mut self) {
        let next = {
            let mut st = self.inner.state.lock();
            match st.waiters.pop_front() {
                Some(w) => Some(w), // hand the lock over directly
                None => {
                    st.locked = false;
                    None
                }
            }
        };
        if let Some(p) = next {
            p.set_value(());
        }
    }
}

impl<T: Send + 'static> AsyncMutex<T> {
    /// Detached async mutex.
    pub fn new(value: T) -> AsyncMutex<T> {
        AsyncMutex {
            inner: Arc::new(Inner {
                state: PlMutex::new(LockState { locked: false, waiters: VecDeque::new() }),
                value: UnsafeCell::new(value),
                runtime: None,
            }),
        }
    }

    /// Async mutex whose lock-continuations are scheduled on `rt`.
    pub fn for_runtime(rt: &Runtime, value: T) -> AsyncMutex<T> {
        let mut m = AsyncMutex::new(value);
        Arc::get_mut(&mut m.inner).unwrap().runtime = Some(rt.clone());
        m
    }

    fn make_promise(&self) -> Promise<()> {
        match &self.inner.runtime {
            Some(rt) => rt.make_promise(),
            None => Promise::new(),
        }
    }

    /// Acquire the lock as a future of the guard.
    pub fn lock(&self) -> Future<AsyncMutexGuard<T>> {
        let mut p = self.make_promise();
        let f = p.future();
        let granted = {
            let mut st = self.inner.state.lock();
            if st.locked {
                // Queue under the same lock that saw it held: were the
                // lock released in between, the holder's unlock would find
                // no waiter and this one would never be granted.
                st.waiters.push_back(p);
                None
            } else {
                st.locked = true;
                Some(p)
            }
        };
        if let Some(p) = granted {
            p.set_value(());
        }
        let inner = self.inner.clone();
        f.then(move |()| AsyncMutexGuard { inner })
    }

    /// Try to acquire without waiting.
    pub fn try_lock(&self) -> Option<AsyncMutexGuard<T>> {
        let mut st = self.inner.state.lock();
        if st.locked {
            None
        } else {
            st.locked = true;
            Some(AsyncMutexGuard { inner: self.inner.clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_guards_value() {
        let m = AsyncMutex::new(5);
        {
            let mut g = m.lock().get();
            *g += 1;
        }
        assert_eq!(*m.lock().get(), 6);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = AsyncMutex::new(());
        let g = m.try_lock().unwrap();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn contended_lock_hands_over_fifo() {
        let m = AsyncMutex::new(Vec::new());
        let g = m.lock().get();
        let f1 = m.lock();
        let f2 = m.lock();
        assert!(!f1.is_ready());
        drop(g);
        f1.get().push(1);
        f2.get().push(2);
        assert_eq!(*m.lock().get(), vec![1, 2]);
    }

    #[test]
    fn parallel_increments_are_exclusive() {
        // Continuation style (see module docs): the critical section runs
        // as a task when the guard is granted — never block a worker on a
        // contended lock.
        let rt = Runtime::builder().worker_threads(4).build();
        let m = AsyncMutex::for_runtime(&rt, 0u64);
        let done = crate::lcos::latch::Latch::for_runtime(&rt, 200);
        for _ in 0..200 {
            let m = m.clone();
            let done = done.clone();
            rt.spawn(move || {
                let done = done.clone();
                // Dropping the resulting future is fine: the continuation
                // still runs when the guard arrives.
                drop(m.lock().then(move |mut g| {
                    *g += 1;
                    drop(g);
                    done.count_down(1);
                }));
            });
        }
        done.wait();
        assert_eq!(*m.lock().get(), 200);
        rt.shutdown();
    }
}
