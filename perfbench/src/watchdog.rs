//! The watchdog: a solve that never returns can be neither judged nor
//! followed by the next one, so a side thread judges it instead. When
//! the solve in flight outlives its timeout, or the whole run outlives
//! its deadline, the watchdog counts one more failed attempt, prints the
//! failure accounting and a result line with `correct: false`, and ends
//! the process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::{Outcome, Report};

/// How often the watchdog looks at the solve in flight.
const POLL: Duration = Duration::from_millis(50);

#[derive(Default)]
struct Armed {
    /// The solve in flight: when it started and its timeout.
    solve: Option<(Instant, Duration)>,
    /// Attempts and failures counted so far.
    outcome: Outcome,
}

/// Handle of the watchdog thread; [`Watchdog::stop`] ends it.
pub struct Watchdog {
    armed: Arc<Mutex<Armed>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching a run that prints the metrics of `table` and must
    /// end within `deadline`.
    pub fn start(table: &'static [(&'static str, &'static str)], deadline: Duration) -> Watchdog {
        let armed = Arc::new(Mutex::new(Armed::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        let thread = {
            let (armed, stop) = (Arc::clone(&armed), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(POLL);
                    // Held until the process ends, so a run that finishes
                    // meanwhile cannot print a second result.
                    let state = armed.lock().unwrap_or_else(|e| e.into_inner());
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let reason = match state.solve {
                        Some((t, timeout)) if t.elapsed() > timeout => format!(
                            "solve still running after its {:.3} s timeout",
                            timeout.as_secs_f64()
                        ),
                        _ if start.elapsed() > deadline => format!(
                            "run still going after its {} s deadline",
                            deadline.as_secs()
                        ),
                        _ => continue,
                    };
                    let mut report = Report {
                        outcome: state.outcome.clone(),
                        ..Report::default()
                    };
                    report.outcome.record(Err(reason));
                    report.print(table);
                    std::process::exit(0);
                }
            })
        };
        Watchdog {
            armed,
            stop,
            thread: Some(thread),
        }
    }

    /// A solve with a timeout of `timeout` seconds starts.
    pub fn arm(&self, timeout: f64) {
        let mut state = self.armed.lock().unwrap_or_else(|e| e.into_inner());
        state.solve = Some((Instant::now(), Duration::from_secs_f64(timeout)));
    }

    /// The solve returned or panicked, and `report` has counted it.
    pub fn settle(&self, report: &Report) {
        let mut state = self.armed.lock().unwrap_or_else(|e| e.into_inner());
        state.solve = None;
        state.outcome = report.outcome.clone();
    }

    /// Stop watching and wait for the watchdog thread to end. Returns
    /// only if the watchdog did not fire.
    pub fn stop(mut self) {
        {
            // Taking the lock first means a firing watchdog already owns
            // the output and is ending the process.
            let _state = self.armed.lock().unwrap_or_else(|e| e.into_inner());
            self.stop.store(true, Ordering::Release);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
