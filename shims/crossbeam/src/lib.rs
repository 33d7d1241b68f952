//! Offline stand-in for the [`crossbeam`](https://docs.rs/crossbeam) facade
//! crate, providing the subset this workspace uses:
//!
//! * [`deque`] — a genuine lock-free Chase-Lev work-stealing deque
//!   (`Worker` / `Stealer` / `Injector` / `Steal`), including
//!   `steal_batch_and_pop`. The owner-side `push`/`pop` and the thief-side
//!   `steal` are wait-free/lock-free exactly as in `crossbeam-deque`; this
//!   is the hot path of the `parallex` scheduler.
//! * [`queue`] — `SegQueue`, an unbounded MPMC FIFO. Unlike upstream this
//!   one is a small spinlock around a `VecDeque` (safe memory reclamation
//!   for a fully lock-free segmented queue needs epoch GC, which is not
//!   worth vendoring); the scheduler only touches it on cold lanes
//!   (pinned/high-priority tasks, inboxes, injectors). An atomic length
//!   lets a pop of an empty queue return without taking the lock.
//! * [`utils`] — `CachePadded`, alignment padding against false sharing.
//!
//! The build container has no registry access, so the real crate cannot be
//! fetched; API names and semantics follow upstream so the workspace code
//! reads identically.

pub mod deque;
pub mod queue;
pub mod utils;
