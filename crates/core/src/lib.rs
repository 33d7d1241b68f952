//! # parallex
//!
//! An Asynchronous Many-Task (AMT) runtime system implementing the
//! **ParalleX execution model** (Kaiser, Brodowicz, Sterling 2009) — the
//! model whose reference implementation is HPX, the runtime the paper
//! ports to Arm. ParalleX attacks the four exascale bottlenecks the paper
//! lists (SLOW: **S**tarvation, **L**atency, **O**verhead, **W**aiting for
//! contention) with:
//!
//! * **lightweight tasks** scheduled over OS threads
//!   ([`runtime::Runtime`], [`sched`]) — millions of short-lived tasks,
//!   work-stealing load balance, NUMA-aware placement hints;
//! * **Local Control Objects** ([`lcos`]) — futures/promises, `when_all`,
//!   dataflow, latches, barriers, channels, semaphores and gates for
//!   wait-free composition instead of global synchronization;
//! * **an Active Global Address Space** ([`agas`]) — global IDs that
//!   survive object migration between localities;
//! * **parcels** ([`parcel`]) — active messages that ship *work to data*;
//! * **parallel algorithms** ([`algorithms`]) — `for_each` et al. with
//!   execution policies and chunkers, the API the paper's Listings 1 and 2
//!   are written against, including the NUMA-aware block executor the
//!   paper credits for its first-touch data placement.
//!
//! A [`locality::Cluster`] runs several localities ("nodes") inside one
//! process, each with its own scheduler, AGAS view and parcelport; the
//! parcelport can inject configurable network delays so distributed
//! experiments (the paper's Fig. 3) run against a simulated interconnect.
//!
//! ## Quick example
//!
//! ```
//! use parallex::prelude::*;
//!
//! let rt = Runtime::builder().worker_threads(4).build();
//! // async task + future composition
//! let f = rt.async_task(|| 21).then(|x| x * 2);
//! assert_eq!(f.get(), 42);
//! // data-parallel loop
//! let mut data = vec![0u64; 1024];
//! par(&rt).for_each_mut(&mut data, |i, x| *x = i as u64);
//! assert_eq!(data[100], 100);
//! rt.shutdown();
//! ```

pub mod agas;
pub mod algorithms;
pub mod error;
pub mod executors;
pub mod introspect;
pub mod lcos;
pub mod locality;
pub mod parcel;
mod perf;
pub mod resilience;
pub mod runtime;
pub mod sched;
pub mod task;
pub mod topology;
#[cfg(test)]
mod trace;
pub mod util;

/// The most common imports, HPX-style.
pub mod prelude {
    pub use crate::algorithms::{par, seq, ExecutionPolicy};
    pub use crate::error::{Error, Result};
    pub use crate::executors::{BlockExecutor, Executor, ParallelExecutor};
    pub use crate::lcos::channel::Channel;
    pub use crate::lcos::dataflow::dataflow2;
    pub use crate::lcos::future::{when_all, when_any, Future, Promise, SharedFuture};
    pub use crate::lcos::latch::Latch;
    pub use crate::locality::{Cluster, Locality};
    pub use crate::resilience::{async_replay, async_replicate, ChaosSpec, FaultPlan};
    pub use crate::runtime::{Runtime, RuntimeBuilder};
    pub use crate::task::Priority;
    pub use crate::util::HighResolutionTimer;
}
