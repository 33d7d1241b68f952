//! APEX-style introspection: counter registry, interval sampling,
//! structured event tracing and exporters.
//!
//! HPX ships a first-class observability stack — performance counters
//! addressed by hierarchical paths (`/threads{locality#0/worker#3}/count/
//! stolen`, queried by `hpx::performance_counters`) and APEX task
//! timelines — and the paper leans on exactly that machinery to explain
//! its figures and tables. This module is the equivalent for `parallex`:
//!
//! * [`CounterPath`] / [`CounterRegistry`] / [`CounterSnapshot`] — named
//!   counters registered at hierarchical paths with per-locality and
//!   per-worker instances, snapshotted on demand, diffable with
//!   [`CounterSnapshot::delta`] for interval rates and summed over
//!   localities with [`CounterSnapshot::total`] ([`counters`]). The
//!   registry is the one way to read a runtime count: task, scheduler,
//!   parcel, transport, resilience, chaos and halo counters all register
//!   there, and their atomics are only its backing store;
//! * [`CounterSampler`] — a background thread snapshotting a registry at
//!   a fixed interval into a [`SampleSeries`] time series;
//! * [`Tracer`] / [`TraceEvent`] / [`EventKind`] — typed span/instant
//!   event logs (task run, steal, park/wake, future wait, parcel
//!   send/recv, halo exchange) recorded into per-worker bounded buffers,
//!   so tracing a long run cannot OOM and never contends on a global
//!   lock ([`events`]);
//! * [`chrome_trace_json`] — Chrome trace-event JSON (loadable in
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)): one
//!   pid per locality, one tid per worker ([`chrome`]);
//! * [`analyze`](fn@analyze) — the latency-attribution engine: turns a
//!   recorded [`Trace`] into a per-worker time breakdown (compute /
//!   exposed wait / hidden wait / steal / park / idle, conserving wall
//!   time) and a cross-lane critical path ([`analyze()`]);
//! * [`LatencyHistogram`] / [`LatencySet`] — mergeable log-bucketed
//!   latency histograms (HdrHistogram-style) recorded lock-free per
//!   worker for task / steal / future-wait / parcel-RTT latencies, with
//!   quantiles registered as `/latency{...}` counters ([`hist`]);
//! * [`prometheus_text`] / [`MetricsServer`] — Prometheus text
//!   exposition of any counter snapshot, served live from a std-only
//!   `TcpListener` via [`crate::runtime::Runtime::serve_metrics`]
//!   ([`expose`]).
//!
//! The performance simulator (`parallex-perfsim`) emits snapshots and
//! events through these same types, so a native run and a simulated run
//! of the same `stencil::plan` are diffable side by side — and
//! [`analyze::analyze`] accepts both, which is how the critical-path
//! engine is validated against the DES's ground truth.

pub mod analyze;
pub mod chrome;
pub mod counters;
pub mod events;
pub mod expose;
pub mod hist;

pub use analyze::{analyze, diff_report, render_report, Analysis, CriticalPath, LaneAttribution};
pub use chrome::{chrome_trace_json, render_counters};
pub use counters::{
    CounterPath, CounterRegistry, CounterSampler, CounterSnapshot, Instance, SampleSeries,
};
pub use events::{EventKind, Trace, TraceEvent, Tracer};
pub use expose::{prometheus_text, validate_prometheus_text, MetricsServer};
pub use hist::{LatencyChannel, LatencyHistogram, LatencySet};
