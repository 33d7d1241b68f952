//! HPX-style recovery combinators: task replay and task replication.
//!
//! `hpx::resiliency` offers `async_replay` (re-run a failed task) and
//! `async_replicate` (run n copies, keep the first good answer); these
//! are their equivalents on our futures. A task failure here means a
//! panic ([`Error::TaskPanicked`]) or a promise that died with its task
//! ([`Error::BrokenPromise`] — what an injected runtime-level panic
//! produces); genuine application errors returned as values are not
//! retried.
//!
//! The resubmit and election callbacks are runtime bookkeeping: they run
//! inline on the thread that finishes an attempt, so a retry costs one
//! task (the new attempt), not two.

use crate::error::{Error, Result};
use crate::lcos::future::Future;
use crate::runtime::Runtime;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Failures the combinators consider transient and retryable.
fn retryable(e: &Error) -> bool {
    matches!(e, Error::TaskPanicked(_) | Error::BrokenPromise)
}

/// Run `f` as a task, re-spawning it on panic up to `n` total attempts
/// (HPX `async_replay`). The future carries the first success, or —
/// once attempts are exhausted — the error of the final attempt.
pub fn async_replay<T, F>(rt: &Runtime, n: usize, f: F) -> Future<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    assert!(n >= 1, "async_replay needs at least one attempt");
    let mut promise = rt.make_promise();
    let future = promise.future();
    replay_attempt(rt.clone(), Arc::new(f), n, promise);
    future
}

fn replay_attempt<T, F>(rt: Runtime, f: Arc<F>, left: usize, promise: crate::lcos::future::Promise<T>)
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let job = {
        let f = f.clone();
        move || f()
    };
    let rt2 = rt.clone();
    rt.async_task(job).on_complete(move |res| match res {
        Ok(v) => promise.set_value(v),
        Err(e) if left > 1 && retryable(&e) => replay_attempt(rt2, f, left - 1, promise),
        Err(e) => promise.set_error(e),
    });
}

/// Spawn `n` concurrent copies of `f`; the future carries the first
/// successful result (HPX `async_replicate`). Losing copies keep
/// running to completion but their results are ignored; if every copy
/// fails, the last failure surfaces.
pub fn async_replicate<T, F>(rt: &Runtime, n: usize, f: F) -> Future<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    assert!(n >= 1, "async_replicate needs at least one copy");
    let mut promise = rt.make_promise();
    let future = promise.future();
    // (winner slot, failure count)
    let state = Arc::new(Mutex::new((Some(promise), 0usize)));
    let f = Arc::new(f);
    for _ in 0..n {
        let state = state.clone();
        let job = {
            let f = f.clone();
            move || f()
        };
        rt.async_task(job).on_complete(move |res| {
            let mut st = state.lock();
            match res {
                Ok(v) => {
                    if let Some(p) = st.0.take() {
                        p.set_value(v);
                    }
                }
                Err(e) => {
                    st.1 += 1;
                    if st.1 == n {
                        if let Some(p) = st.0.take() {
                            p.set_error(e);
                        }
                    }
                }
            }
        });
    }
    future
}

/// Spawn `n` concurrent copies and elect the most frequent successful
/// answer once all copies finish (HPX `async_replicate_vote`): tolerates
/// copies that *return wrong data* rather than failing. Errors only if
/// every copy fails.
pub fn async_replicate_vote<T, F>(rt: &Runtime, n: usize, f: F) -> Future<T>
where
    T: Send + Clone + PartialEq + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    assert!(n >= 1, "async_replicate_vote needs at least one copy");
    let mut promise = rt.make_promise();
    let future = promise.future();
    type VoteState<T> = (Vec<Result<T>>, Option<crate::lcos::future::Promise<T>>);
    let state: Arc<Mutex<VoteState<T>>> = Arc::new(Mutex::new((Vec::new(), Some(promise))));
    let f = Arc::new(f);
    for _ in 0..n {
        let state = state.clone();
        let job = {
            let f = f.clone();
            move || f()
        };
        rt.async_task(job).on_complete(move |res| {
            let mut st = state.lock();
            st.0.push(res);
            if st.0.len() < n {
                return;
            }
            let promise = st.1.take().expect("vote resolves once");
            // Plurality vote over successful values.
            let mut best: Option<(usize, &T)> = None;
            for (i, r) in st.0.iter().enumerate() {
                let Ok(v) = r else { continue };
                if st.0[..i].iter().any(|prev| matches!(prev, Ok(p) if p == v)) {
                    continue; // already tallied under its first occurrence
                }
                let votes = st.0.iter().filter(|r| matches!(r, Ok(p) if p == v)).count();
                if best.is_none_or(|(b, _)| votes > b) {
                    best = Some((votes, v));
                }
            }
            match best {
                Some((_, v)) => promise.set_value(v.clone()),
                None => {
                    let e = st
                        .0
                        .iter()
                        .find_map(|r| r.as_ref().err().cloned())
                        .unwrap_or(Error::BrokenPromise);
                    promise.set_error(e);
                }
            }
        });
    }
    future
}

/// Synchronous replay: run `f` on the calling thread, retrying a panic
/// up to `n` total attempts. Used inside a running task, where a retry
/// must not re-spawn: the heat1d solver wraps each step's interior
/// update in it, so a chaos stack's injected task panic heals in place.
pub fn replay_sync<T>(n: usize, mut f: impl FnMut() -> T) -> Result<T> {
    assert!(n >= 1, "replay_sync needs at least one attempt");
    let mut last: Option<Error> = None;
    for _ in 0..n {
        match catch_unwind(AssertUnwindSafe(&mut f)) {
            Ok(v) => return Ok(v),
            Err(p) => last = Some(Error::TaskPanicked(crate::util::panic_message(&*p))),
        }
    }
    Err(last.expect("n >= 1 attempts ran"))
}

/// Bounded retry with linear backoff for fallible side-effecting calls
/// (the stencil halo-push retry path). The first failure retries after
/// `backoff`, the second after `2*backoff`, and so on; the final error
/// surfaces unchanged.
pub fn retry<T>(attempts: usize, backoff: Duration, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    assert!(attempts >= 1, "retry needs at least one attempt");
    let mut last: Option<Error> = None;
    for i in 0..attempts {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
        if i + 1 < attempts && !backoff.is_zero() {
            std::thread::sleep(backoff * (i as u32 + 1));
        }
    }
    Err(last.expect("attempts >= 1 ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn replay_sync_retries_through_panics() {
        let tries = AtomicUsize::new(0);
        let v = replay_sync(3, || {
            if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("flaky");
            }
            99
        })
        .unwrap();
        assert_eq!(v, 99);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn replay_sync_exhaustion_surfaces_the_panic() {
        let err = replay_sync(2, || -> i32 { panic!("always broken") }).unwrap_err();
        match err {
            Error::TaskPanicked(m) => assert!(m.contains("always broken")),
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn retry_backs_off_and_returns_final_error() {
        let tries = AtomicUsize::new(0);
        let err = retry(3, Duration::ZERO, || -> Result<()> {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(Error::PeerLost(7))
        })
        .unwrap_err();
        assert_eq!(err, Error::PeerLost(7));
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_succeeds_midway() {
        let tries = AtomicUsize::new(0);
        let v = retry(5, Duration::ZERO, || {
            if tries.fetch_add(1, Ordering::SeqCst) < 1 {
                Err(Error::ResponseTimeout)
            } else {
                Ok(5)
            }
        })
        .unwrap();
        assert_eq!(v, 5);
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }
}
