//! `SegQueue`: unbounded MPMC FIFO.
//!
//! Upstream's segmented lock-free queue needs epoch-based reclamation to
//! free consumed segments safely; vendoring that machinery is not worth it
//! for the cold lanes this queue serves (pinned / high-priority tasks and
//! external injection). This stand-in is a short-critical-section spinlock
//! around a `VecDeque`, with a batch pop so callers can amortize one lock
//! acquisition over many elements. An atomic length, written under the
//! lock, lets `pop` and `pop_batch` on an empty queue return without
//! taking the lock, so idle consumers polling many queues only read.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A minimal test-and-test-and-set spinlock.
struct SpinLock {
    locked: AtomicBool,
}

impl SpinLock {
    const fn new() -> SpinLock {
        SpinLock { locked: AtomicBool::new(false) }
    }

    fn acquire(&self) {
        let mut spins = 0u32;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    fn release(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

/// An unbounded MPMC FIFO queue.
pub struct SegQueue<T> {
    lock: SpinLock,
    items: UnsafeCell<VecDeque<T>>,
    /// `items.len()`, stored under the lock after every change.
    len: AtomicUsize,
}

unsafe impl<T: Send> Send for SegQueue<T> {}
unsafe impl<T: Send> Sync for SegQueue<T> {}

impl<T> SegQueue<T> {
    pub const fn new() -> SegQueue<T> {
        SegQueue {
            lock: SpinLock::new(),
            items: UnsafeCell::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<T>) -> R) -> R {
        self.lock.acquire();
        // SAFETY: the spinlock serializes all access to `items`.
        let items = unsafe { &mut *self.items.get() };
        let r = f(items);
        self.len.store(items.len(), Ordering::Release);
        self.lock.release();
        r
    }

    /// Append to the back.
    pub fn push(&self, value: T) {
        self.with(|q| q.push_back(value));
    }

    /// Take from the front.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        self.with(|q| q.pop_front())
    }

    /// Take up to half the queue (at least one element, at most `max`)
    /// from the front in one lock acquisition.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        if self.is_empty() {
            return Vec::new();
        }
        self.with(|q| {
            let n = q.len().div_ceil(2).min(max).min(q.len());
            q.drain(..n).collect()
        })
    }

    /// The length at the last completed push or pop (lock-free).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        SegQueue::new()
    }
}

impl<T> std::fmt::Debug for SegQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegQueue").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_batch_takes_half_up_to_max() {
        let q = SegQueue::new();
        for i in 0..10 {
            q.push(i);
        }
        let b = q.pop_batch(32);
        assert_eq!(b, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_batch(2), vec![5, 6]);
    }

    #[test]
    fn len_tracks_every_push_and_pop() {
        let q = SegQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(q.pop_batch(8).is_empty());
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop_batch(8), vec![2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_push_pop() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let q = Arc::new(SegQueue::new());
        let got = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        q.push(i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                let got = got.clone();
                std::thread::spawn(move || loop {
                    if q.pop().is_some() {
                        if got.fetch_add(1, Ordering::Relaxed) + 1 == 4000 {
                            break;
                        }
                    } else if got.load(Ordering::Relaxed) >= 4000 {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(got.load(Ordering::Relaxed), 4000);
    }
}
