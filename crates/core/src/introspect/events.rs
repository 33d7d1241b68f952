//! Structured event tracing: typed spans and instants recorded into
//! per-worker bounded buffers.
//!
//! Each worker thread records into its own lane (a bounded `Vec` behind
//! an uncontended per-lane mutex), so the hot path never serializes
//! across workers; one extra lane collects events from non-worker
//! threads (the main thread, parcel delivery helpers). Every lane is
//! capped: once full, further events bump a dropped-records counter
//! instead of growing without bound, so tracing an hour-long run cannot
//! OOM the process.
//!
//! Recording is a no-op (a single relaxed atomic load) while the tracer
//! is disabled — cheap enough to leave compiled into every hot path.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Default per-lane event capacity (events beyond this are dropped and
/// counted). 64Ki events × ~48 B ≈ 3 MiB per lane worst case.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// What a trace event describes. Span kinds carry a duration; instant
/// kinds are points in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A task executed on a worker (span).
    TaskRun,
    /// A successful steal by this lane's worker; `arg` = victim worker.
    /// A span (probe walk → success) in runtime traces, an instant in
    /// DES traces (the model charges steal latency to the task itself).
    Steal,
    /// A worker blocked in the scheduler waiting for work (span).
    Park,
    /// A parked worker was woken; recorded on the woken worker's lane (instant).
    Wake,
    /// A thread blocked on an LCO (future/latch/barrier), possibly
    /// help-executing tasks while waiting (span).
    FutureWait,
    /// A parcel was handed to the transport; `arg` = action id (instant).
    ParcelSend,
    /// A parcel's action handler ran on the destination; `arg` = action id (span).
    ParcelRecv,
    /// A solver waited for halo cells from its neighbours; `arg` = step (span).
    HaloExchange,
    /// Application-defined event with a static label.
    User(&'static str),
}

impl EventKind {
    /// Stable display name (used as the Chrome-trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TaskRun => "task-run",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::Wake => "wake",
            EventKind::FutureWait => "future-wait",
            EventKind::ParcelSend => "parcel-send",
            EventKind::ParcelRecv => "parcel-recv",
            EventKind::HaloExchange => "halo-exchange",
            EventKind::User(s) => s,
        }
    }

    /// Chrome-trace category (`cat` field) grouping related kinds.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::TaskRun => "task",
            EventKind::Steal | EventKind::Park | EventKind::Wake => "sched",
            EventKind::FutureWait => "lco",
            EventKind::ParcelSend | EventKind::ParcelRecv => "parcel",
            EventKind::HaloExchange | EventKind::User(_) => "app",
        }
    }
}

/// One recorded event. `dur_us` is `Some` for spans, `None` for
/// instants. Times are microseconds since the tracer's epoch (the
/// runtime's construction), so events from one runtime share a clock;
/// cross-locality alignment happens at export via [`Trace::epoch`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Lane (worker index; the last lane collects non-worker threads).
    pub lane: usize,
    /// Event type.
    pub kind: EventKind,
    /// Start time, µs since the trace epoch.
    pub t_us: f64,
    /// Duration in µs for spans; `None` for instants.
    pub dur_us: Option<f64>,
    /// Kind-specific payload (victim worker, action id, step, ...).
    pub arg: u64,
}

struct Lane {
    buf: Mutex<Vec<TraceEvent>>,
    dropped: AtomicUsize,
}

/// Per-worker buffered event recorder. One per runtime; workers record
/// into their own lane, so enabled-mode recording takes an uncontended
/// lock, and disabled-mode recording is a single atomic load.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    lanes: Vec<Lane>,
    capacity: usize,
}

impl Tracer {
    /// Tracer with `lanes` buffers (workers + 1 external lane) and the
    /// default per-lane capacity.
    pub fn new(lanes: usize) -> Self {
        Self::with_capacity(lanes, DEFAULT_LANE_CAPACITY)
    }

    /// Tracer with an explicit per-lane event capacity.
    pub fn with_capacity(lanes: usize, capacity: usize) -> Self {
        let lanes = (0..lanes.max(1))
            .map(|_| Lane {
                buf: Mutex::new(Vec::new()),
                dropped: AtomicUsize::new(0),
            })
            .collect();
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            lanes,
            capacity,
        }
    }

    /// Number of lanes (workers + 1 external).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane index used for events recorded off any worker thread.
    pub fn external_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Instant all event timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// True while events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Clear all lanes and begin recording.
    pub fn start(&self) {
        for lane in &self.lanes {
            lane.buf.lock().clear();
            lane.dropped.store(0, Ordering::Relaxed);
        }
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording and merge every lane into one time-sorted
    /// [`Trace`].
    pub fn stop(&self) -> Trace {
        self.enabled.store(false, Ordering::Release);
        let mut events = Vec::new();
        let mut dropped = 0;
        for lane in &self.lanes {
            events.append(&mut lane.buf.lock());
            dropped += lane.dropped.swap(0, Ordering::Relaxed);
        }
        events.sort_by(|a, b| a.t_us.partial_cmp(&b.t_us).expect("finite timestamps"));
        Trace {
            lanes: self.lanes.len(),
            epoch: self.epoch,
            events,
            dropped,
        }
    }

    /// Record a span from `start` to `end` on `lane`. No-op while
    /// disabled.
    #[inline]
    pub fn span(&self, lane: usize, kind: EventKind, start: Instant, end: Instant, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        let t_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.push(TraceEvent {
            lane,
            kind,
            t_us,
            dur_us: Some(dur_us),
            arg,
        });
    }

    /// Record an instant event (timestamped now) on `lane`. No-op while
    /// disabled.
    #[inline]
    pub fn instant(&self, lane: usize, kind: EventKind, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        let t_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.push(TraceEvent {
            lane,
            kind,
            t_us,
            dur_us: None,
            arg,
        });
    }

    fn push(&self, mut ev: TraceEvent) {
        ev.lane = ev.lane.min(self.external_lane());
        let lane = &self.lanes[ev.lane];
        let mut buf = lane.buf.lock();
        if buf.len() >= self.capacity {
            drop(buf);
            lane.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.push(ev);
        }
    }
}

/// The merged result of one recording session: all events sorted by
/// start time, plus how many were dropped to the capacity cap.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Lane count of the tracer that produced this (workers + 1).
    pub lanes: usize,
    /// Wall-clock instant that `t_us == 0` corresponds to. Exporters
    /// use it to align traces from different runtimes on one timeline.
    pub epoch: Instant,
    /// Events sorted by `t_us`.
    pub events: Vec<TraceEvent>,
    /// Events discarded because a lane hit its capacity cap.
    pub dropped: usize,
}

impl Trace {
    /// Build a trace from pre-computed events (used by simulators that
    /// emit the native schema). Events are sorted by start time.
    pub fn from_parts(lanes: usize, mut events: Vec<TraceEvent>, dropped: usize) -> Self {
        events.sort_by(|a, b| a.t_us.partial_cmp(&b.t_us).expect("finite timestamps"));
        Trace {
            lanes: lanes.max(1),
            epoch: Instant::now(),
            events,
            dropped,
        }
    }

    /// Events of one kind, in time order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Verify spans are properly nested per lane: any two spans on one
    /// lane either don't overlap or one contains the other. This holds
    /// by construction for *complete* runtime traces (help-execution
    /// nests fully inside the blocking span) and is what makes the
    /// Chrome-trace rendering meaningful.
    ///
    /// When the tracer dropped events at its capacity cap
    /// (`self.dropped > 0`), Begin/End pairs are legitimately orphaned
    /// and partial overlaps are *expected*: truncation is then reported
    /// as success (consumers that care can inspect
    /// [`nesting_report`](Self::nesting_report) and degrade per lane, as
    /// the attribution engine does). Only a trace that claims to be
    /// complete fails this check.
    pub fn check_well_nested(&self) -> Result<(), String> {
        match self.nesting_report().into_iter().next() {
            None => Ok(()),
            Some(_) if self.dropped > 0 => Ok(()),
            Some((_, msg)) => Err(msg),
        }
    }

    /// Lanes whose spans are not properly nested, with the first
    /// offending span pair per lane. Empty for a well-nested trace.
    pub fn nesting_report(&self) -> Vec<(usize, String)> {
        // 1 ns of slack for f64 rounding of timestamps.
        const EPS: f64 = 1e-3;
        let mut report = Vec::new();
        'lanes: for lane in 0..self.lanes {
            let mut spans: Vec<(f64, f64, EventKind)> = self
                .events
                .iter()
                .filter(|e| e.lane == lane)
                .filter_map(|e| e.dur_us.map(|d| (e.t_us, e.t_us + d, e.kind)))
                .collect();
            // Sort by start; wider span first on ties so it becomes the parent.
            spans.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap()
                    .then(b.1.partial_cmp(&a.1).unwrap())
            });
            let mut stack: Vec<(f64, f64, EventKind)> = Vec::new();
            for s in spans {
                while let Some(top) = stack.last() {
                    if s.0 >= top.1 - EPS {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last() {
                    if s.1 > top.1 + EPS {
                        report.push((
                            lane,
                            format!(
                                "lane {lane}: span {:?} [{:.3}, {:.3}] partially overlaps \
                                 {:?} [{:.3}, {:.3}]",
                                s.2, s.0, s.1, top.2, top.0, top.1
                            ),
                        ));
                        continue 'lanes;
                    }
                }
                stack.push(s);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(2);
        let now = Instant::now();
        t.span(0, EventKind::TaskRun, now, now, 0);
        t.instant(1, EventKind::Steal, 7);
        let trace = t.stop();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn spans_and_instants_merge_sorted() {
        let t = Tracer::new(3);
        t.start();
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let b = Instant::now();
        t.span(1, EventKind::TaskRun, a, b, 1);
        t.instant(0, EventKind::Wake, 0);
        t.span(2, EventKind::Park, a, b, 0);
        let trace = t.stop();
        assert_eq!(trace.events.len(), 3);
        for w in trace.events.windows(2) {
            assert!(w[0].t_us <= w[1].t_us, "sorted by start time");
        }
        let run = trace.of_kind(EventKind::TaskRun).next().unwrap();
        assert_eq!(run.lane, 1);
        assert!(run.dur_us.unwrap() >= 900.0, "~1ms span: {:?}", run.dur_us);
        assert!(trace.of_kind(EventKind::Wake).next().unwrap().dur_us.is_none());
    }

    #[test]
    fn capacity_cap_counts_dropped() {
        let t = Tracer::with_capacity(2, 4);
        t.start();
        for i in 0..10 {
            t.instant(0, EventKind::Steal, i);
        }
        let trace = t.stop();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 6);
        // a fresh start clears both buffers and the dropped count
        t.start();
        t.instant(0, EventKind::Steal, 0);
        let trace = t.stop();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn out_of_range_lane_clamps_to_external() {
        let t = Tracer::new(2);
        t.start();
        t.instant(99, EventKind::User("x"), 0);
        let trace = t.stop();
        assert_eq!(trace.events[0].lane, t.external_lane());
    }

    #[test]
    fn truncated_trace_tolerates_orphaned_spans() {
        let overlap = vec![
            TraceEvent { lane: 0, kind: EventKind::TaskRun, t_us: 0.0, dur_us: Some(50.0), arg: 0 },
            TraceEvent {
                lane: 0,
                kind: EventKind::FutureWait,
                t_us: 30.0,
                dur_us: Some(50.0),
                arg: 0,
            },
        ];
        // A complete trace with partially overlapping spans is corrupt.
        let complete = Trace::from_parts(1, overlap.clone(), 0);
        assert!(complete.check_well_nested().is_err());
        assert_eq!(complete.nesting_report().len(), 1);
        assert_eq!(complete.nesting_report()[0].0, 0);
        // The same spans with dropped events are legitimate truncation.
        let truncated = Trace::from_parts(1, overlap, 3);
        truncated.check_well_nested().expect("truncation is not corruption");
        assert_eq!(truncated.nesting_report().len(), 1, "still inspectable");
    }

    #[test]
    fn lanes_minimum_is_one() {
        let t = Tracer::new(0);
        assert_eq!(t.lanes(), 1);
        assert_eq!(t.external_lane(), 0);
    }
}
