//! `uts`: counting unbalanced task trees on one 2-worker runtime.

use std::time::Instant;

use parallex::runtime::Runtime;
use parallex_workloads::uts::{uts_count, uts_count_sequential, UtsParams};

use crate::ledger::check_conservation;
use crate::report::Report;
use crate::{probes, procfs, seeded, Config, Solve, Workload, WORKERS};

/// Runtime builds timed for `setup_s`; the last one is kept.
const SETUP_BUILDS: usize = 201;

/// Distinct trees a run cycles through, each drawn from the run seed.
const TREES: u64 = 64;

/// Tree `i` of a run: `UtsParams::small` widened at the root.
fn params(cfg: &Config, i: u64) -> UtsParams {
    let mut p = UtsParams::small(seeded(cfg.seed, i).next_u64());
    p.root_branches = if cfg.smoke { 200 } else { 2000 };
    p.sequential_below = 8;
    p
}

/// The `uts` workload.
pub struct Uts {
    rt: Runtime,
    /// Each tree with its sequentially counted size.
    trees: Vec<(UtsParams, u64)>,
    solves: usize,
    setup_s: Vec<f64>,
}

impl Uts {
    /// Build the runtime [`SETUP_BUILDS`] times, timing each build, and
    /// count every tree sequentially for reference.
    pub fn new(cfg: &Config) -> Uts {
        let mut setup_s = Vec::new();
        let mut rt: Option<Runtime> = None;
        for _ in 0..SETUP_BUILDS {
            if let Some(old) = rt.take() {
                old.shutdown();
            }
            let t = Instant::now();
            rt = Some(Runtime::builder().worker_threads(WORKERS).build());
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let trees = (0..TREES)
            .map(|i| {
                let p = params(cfg, i);
                (p, uts_count_sequential(p))
            })
            .collect();
        Uts {
            rt: rt.expect("at least one build"),
            trees,
            solves: 0,
            setup_s,
        }
    }
}

impl Workload for Uts {
    fn sizes(&self) -> String {
        let (p, _) = self.trees[0];
        let nodes = self.trees.iter().map(|&(_, n)| n);
        format!(
            "{{\"workers\": {WORKERS}, \"trees\": {TREES}, \"root_branches\": {}, \"sequential_below\": {}, \"nodes_min\": {}, \"nodes_max\": {}}}",
            p.root_branches,
            p.sequential_below,
            nodes.clone().min().unwrap_or(0),
            nodes.max().unwrap_or(0),
        )
    }

    fn steps(&self) -> usize {
        1
    }

    fn work(&self) -> f64 {
        self.trees.iter().map(|&(_, n)| n as f64).sum::<f64>() / self.trees.len() as f64
    }

    fn timeout_s(&self) -> f64 {
        5.0
    }

    fn solve(&mut self, traced: bool) -> Solve {
        let (params, expected) = self.trees[self.solves % self.trees.len()];
        self.solves += 1;
        let before = self.rt.counter_snapshot();
        if traced {
            self.rt.tracer().start();
        }
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let nodes = uts_count(&self.rt, params);
        let solve_s = t.elapsed().as_secs_f64();
        let traces = if traced {
            vec![(0, self.rt.tracer().stop())]
        } else {
            Vec::new()
        };
        self.rt.wait_idle();
        let cpu_s = procfs::cpu_seconds() - cpu0;
        let after = self.rt.counter_snapshot();
        let delta = after.delta(&before);
        let check = if nodes == expected {
            check_conservation(&delta)
        } else {
            Err(format!(
                "uts counted {nodes} nodes, sequential reference {expected}"
            ))
        };
        Solve {
            solve_s,
            cpu_s,
            delta,
            after,
            check,
            traces,
        }
    }

    fn setup_samples(&self) -> Vec<f64> {
        self.setup_s.clone()
    }

    fn probes(&mut self, report: &mut Report) {
        probes::cluster_setup(report);
    }
}

impl Drop for Uts {
    fn drop(&mut self) {
        self.rt.shutdown();
    }
}
