//! Runtime-level checks of task tracing: a live runtime's
//! [`Tracer`](crate::introspect::Tracer) together with
//! [`analyze`](crate::introspect::analyze), the busy-time, utilization
//! and grain-size summary of a task timeline.

mod tests {
    use crate::algorithms::par;
    use crate::introspect::{analyze, Analysis, EventKind, Trace, TraceEvent};
    use crate::runtime::Runtime;

    /// Σ worker task self-time / (window × workers): 1.0 = perfectly packed.
    fn utilization(a: &Analysis) -> f64 {
        let workers = a.worker_lanes().count();
        if a.wall_us <= 0.0 || workers == 0 {
            return 0.0;
        }
        a.worker_lanes().map(|l| l.compute_us).sum::<f64>() / (a.wall_us * workers as f64)
    }

    fn task(worker: usize, start_us: f64, end_us: f64) -> TraceEvent {
        TraceEvent {
            lane: worker,
            kind: EventKind::TaskRun,
            t_us: start_us,
            dur_us: Some(end_us - start_us),
            arg: 0,
        }
    }

    /// `workers` worker lanes plus the external lane, as a runtime traces.
    fn timeline(workers: usize, tasks: Vec<TraceEvent>) -> Analysis {
        analyze(&[(0, Trace::from_parts(workers + 1, tasks, 0))])
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let rt = Runtime::builder().worker_threads(2).build();
        rt.spawn(|| {});
        rt.wait_idle();
        assert!(rt.tracer().stop().events.is_empty());
        rt.shutdown();
    }

    #[test]
    fn trace_captures_spawned_tasks() {
        let rt = Runtime::builder().worker_threads(2).build();
        rt.tracer().start();
        let l = crate::lcos::latch::Latch::for_runtime(&rt, 10);
        for _ in 0..10 {
            let l = l.clone();
            rt.spawn(move || l.count_down(1));
        }
        l.wait();
        rt.wait_idle();
        let trace = rt.tracer().stop();
        let runs: Vec<&TraceEvent> = trace.of_kind(EventKind::TaskRun).collect();
        assert!(runs.len() >= 10, "{}", runs.len());
        for r in &runs {
            assert!(r.lane < 2);
            assert!(r.dur_us.is_some_and(|d| d >= 0.0));
        }
        rt.shutdown();
    }

    #[test]
    fn trace_capacity_bounds_records() {
        // Per-worker buffers are capped; overflow shows up in the
        // dropped counter instead of unbounded memory growth.
        let rt = Runtime::builder()
            .worker_threads(2)
            .trace_capacity(8)
            .build();
        rt.tracer().start();
        let l = crate::lcos::latch::Latch::for_runtime(&rt, 200);
        for _ in 0..200 {
            let l = l.clone();
            rt.spawn(move || l.count_down(1));
        }
        l.wait();
        rt.wait_idle();
        let trace = rt.tracer().stop();
        assert!(
            trace.events.len() <= 8 * rt.tracer().lanes(),
            "{} events exceed cap",
            trace.events.len()
        );
        assert!(trace.dropped > 0, "expected overflow to be counted");
        rt.shutdown();
    }

    #[test]
    fn report_summarizes_grain_size() {
        let rt = Runtime::builder().worker_threads(3).build();
        rt.tracer().start();
        let mut data = vec![0.0f64; 300_000];
        par(&rt).for_each_mut(&mut data, |i, x| *x = (i as f64).sin());
        rt.wait_idle();
        let trace = rt.tracer().stop();
        let grains: Vec<f64> = trace
            .of_kind(EventKind::TaskRun)
            .filter_map(|e| e.dur_us)
            .collect();
        assert!(grains.len() >= 12, "4 chunks per worker: {}", grains.len());
        let mean = grains.iter().sum::<f64>() / grains.len() as f64;
        let max = grains.iter().copied().fold(0.0f64, f64::max);
        assert!(mean > 0.0);
        assert!(max >= mean);
        let a = analyze(&[(0, trace)]);
        assert!(a.wall_us > 0.0);
        let u = utilization(&a);
        assert!(u > 0.0 && u <= 1.0, "{u}");
        rt.shutdown();
    }

    #[test]
    fn report_of_empty_timeline_is_zeroed() {
        let a = timeline(4, vec![]);
        assert_eq!(a.wall_us, 0.0);
        let busy: Vec<f64> = a.worker_lanes().map(|l| l.compute_us).collect();
        assert_eq!(busy, vec![0.0; 4]);
        assert_eq!(utilization(&a), 0.0);
    }

    #[test]
    fn nested_help_execution_does_not_inflate_utilization() {
        // A task that help-executes another shows as nested intervals on
        // one worker; the union, not the sum, is the busy time.
        let a = timeline(
            1,
            vec![
                task(0, 0.0, 100.0),
                task(0, 10.0, 60.0),
                task(0, 20.0, 40.0),
            ],
        );
        let busy = a.worker_lanes().next().unwrap().compute_us;
        assert!((busy - 100.0).abs() < 1e-9, "{busy}");
        assert!(utilization(&a) <= 1.0 + 1e-9, "{}", utilization(&a));
    }

    #[test]
    fn report_utilization_math() {
        // Two workers, one 10us task each, fully overlapping.
        let tasks = vec![task(0, 0.0, 10.0), task(1, 0.0, 10.0)];
        let mean_task_us = tasks.iter().filter_map(|e| e.dur_us).sum::<f64>() / 2.0;
        assert_eq!(mean_task_us, 10.0);
        let a = timeline(2, tasks);
        assert!((utilization(&a) - 1.0).abs() < 1e-9);
        assert_eq!(a.wall_us, 10.0);
        let busy: Vec<f64> = a.worker_lanes().map(|l| l.compute_us).collect();
        assert_eq!(busy, vec![10.0; 2]);
    }
}
