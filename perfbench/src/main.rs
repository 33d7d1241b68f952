//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <uts|heat1d-tcp|heat1d-chaos|jacobi2d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run manifest, human-readable lines and, last, the JSON
//! result line. Exits 2 on bad arguments or a refused configuration. A
//! solve that hangs past its timeout ends the run early with a result
//! line that reads `correct: false` (see the `watchdog` module).

use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, WorkloadKind};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <uts|heat1d-tcp|heat1d-chaos|jacobi2d> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    match run(&cfg) {
        Ok(report) => {
            report.print(if cfg.trace { PER_LAYER } else { END_TO_END });
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: refused: {msg}");
            ExitCode::from(2)
        }
    }
}
