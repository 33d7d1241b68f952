//! Small utilities shared across the runtime.

use std::any::Any;
use std::time::Instant;

/// Monotonic wall-clock timer, the analogue of
/// `hpx::util::high_resolution_timer` used to time the paper's kernels
/// (Listing 2 line 22).
#[derive(Clone, Copy, Debug)]
pub struct HighResolutionTimer {
    start: Instant,
}

impl HighResolutionTimer {
    /// Start (or restart) timing now.
    pub fn new() -> Self {
        HighResolutionTimer { start: Instant::now() }
    }

    /// Seconds elapsed since construction/restart.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed since construction/restart.
    pub fn elapsed_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    /// Restart the timer.
    pub fn restart(&mut self) {
        self.start = Instant::now();
    }
}

impl Default for HighResolutionTimer {
    fn default() -> Self {
        Self::new()
    }
}

/// Join `handle` unless it is the calling thread, which would deadlock:
/// a transport thread can run the last owner's shutdown through a sink.
pub(crate) fn join_unless_current(handle: std::thread::JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

/// Extract a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A raw mutable pointer wrapper asserting `Send + Sync`, used by the
/// parallel algorithms to lend borrowed data to tasks that provably finish
/// before the borrow ends (a latch joins them before the algorithm
/// returns). The field is
/// private and exposed only through [`SendMutPtr::get`] so closures capture
/// the whole wrapper (2021-edition precise capture would otherwise grab the
/// raw pointer field directly, losing the Send/Sync assertion).
pub(crate) struct SendMutPtr<T: ?Sized>(*mut T);

unsafe impl<T: ?Sized> Send for SendMutPtr<T> {}
unsafe impl<T: ?Sized> Sync for SendMutPtr<T> {}

impl<T: ?Sized> Copy for SendMutPtr<T> {}
impl<T: ?Sized> Clone for SendMutPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> SendMutPtr<T> {
    pub(crate) fn new(p: *mut T) -> Self {
        SendMutPtr(p)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_time() {
        let t = HighResolutionTimer::new();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let e = t.elapsed();
        assert!(e >= 0.004, "{e}");
        assert!(t.elapsed_us() >= 4000.0);
    }

    #[test]
    fn timer_restart_resets() {
        let mut t = HighResolutionTimer::new();
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.restart();
        assert!(t.elapsed() < 0.005);
    }

    #[test]
    fn panic_message_variants() {
        let p: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(&*p), "static str");
        let p: Box<dyn Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(&*p), "owned");
        let p: Box<dyn Any + Send> = Box::new(42i32);
        assert_eq!(panic_message(&*p), "<non-string panic payload>");
    }
}
