//! The lightweight-task representation.
//!
//! A ParalleX "HPX thread" is a unit of work far cheaper than an OS
//! thread. HPX implements them as user-level stackful threads; in safe
//! Rust we represent them as **run-to-completion closures** whose
//! suspension points are expressed through LCO continuations (a blocked
//! "thread" is simply a continuation parked on a future) — see DESIGN.md
//! for why this preserves the model's semantics.

use std::fmt;

/// Scheduling priority of a task. High-priority tasks are drained before
/// normal ones (HPX's `thread_priority`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Run after all other work.
    Low,
    /// Default priority.
    #[default]
    Normal,
    /// Run before normal work (used for continuations and parcel handlers
    /// to keep latency-critical chains moving).
    High,
}

/// Where a task would like to run (HPX's `schedule_hint`). The block
/// executor uses this to keep tasks on the worker that first-touched their
/// data (the paper's NUMA-aware allocation, Section VII-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScheduleHint {
    /// Any worker.
    #[default]
    None,
    /// Prefer this worker; work stealing may still move it.
    Worker(usize),
    /// Must run on this worker (never stolen) — what `hwloc-bind`-style
    /// pinning gives the paper's benchmarks.
    Pinned(usize),
}

/// A unit of work for the scheduler.
pub struct Task {
    func: Box<dyn FnOnce() + Send + 'static>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Placement hint.
    pub hint: ScheduleHint,
}

impl Task {
    /// Wrap a closure as a normal-priority task.
    pub fn new(func: impl FnOnce() + Send + 'static) -> Task {
        Task {
            func: Box::new(func),
            priority: Priority::Normal,
            hint: ScheduleHint::None,
        }
    }

    /// Set the priority.
    pub fn with_priority(mut self, p: Priority) -> Task {
        self.priority = p;
        self
    }

    /// Set the placement hint.
    pub fn with_hint(mut self, h: ScheduleHint) -> Task {
        self.hint = h;
        self
    }

    /// Execute the task, consuming it.
    pub fn run(self) {
        (self.func)();
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("priority", &self.priority)
            .field("hint", &self.hint)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn task_runs_closure() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        Task::new(move || r2.store(true, Ordering::SeqCst)).run();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn builder_style_setters() {
        let t = Task::new(|| {})
            .with_priority(Priority::High)
            .with_hint(ScheduleHint::Pinned(3));
        assert_eq!(t.priority, Priority::High);
        assert_eq!(t.hint, ScheduleHint::Pinned(3));
    }
}
