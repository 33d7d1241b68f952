//! Smoke-size runs of every workload in both modes: every metric of the
//! mode is printed with its unit, no solve fails, and the metric tables
//! agree with `BENCHMARK.json`.

use std::sync::Mutex;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, WorkloadKind};

/// Runs share the machine's two CPUs; one at a time keeps them honest.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: WorkloadKind) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for trace in [false, true] {
        let cfg = Config {
            workload,
            seed: 42,
            seconds: 0.2,
            trace,
            smoke: true,
        };
        let report = run(&cfg).expect("smoke configuration is accepted");
        assert_eq!(
            report.outcome.failed_frac(),
            0.0,
            "{} trace={trace}: {:?}",
            workload.name(),
            report.outcome.reasons
        );
        let table = if trace { PER_LAYER } else { END_TO_END };
        let line = report.result_line(table);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        for (name, unit) in table {
            let value = report
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} not printed"
            );
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"}}")),
                "{name} unit not printed"
            );
        }
        if trace {
            assert!(report.metrics["trace.conservation_error_max"] <= 0.01);
            assert!(report.metrics["runtime.tasks_per_solve"] > 0.0);
        } else {
            for name in [
                "setup_s",
                "solve_ms",
                "solve_ms_p90",
                "cpu_ms_per_solve",
                "peak_rss_mb",
            ] {
                assert!(report.metrics[name] > 0.0, "{name} must never be 0");
            }
        }
    }
}

#[test]
fn uts_smoke() {
    smoke(WorkloadKind::Uts);
}

#[test]
fn heat1d_tcp_smoke() {
    smoke(WorkloadKind::Heat1dTcp);
}

#[test]
fn heat1d_chaos_smoke() {
    smoke(WorkloadKind::Heat1dChaos);
}

#[test]
fn jacobi2d_smoke() {
    smoke(WorkloadKind::Jacobi2d);
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        compact.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in WorkloadKind::ALL {
        assert!(
            compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())),
            "{}",
            w.name()
        );
    }
}
