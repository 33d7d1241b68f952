//! `heat1d-tcp` and `heat1d-chaos`: the distributed 1D heat solve on a
//! 2-locality cluster whose halos cross loopback sockets, built fresh for
//! every solve.

use std::time::Instant;

use parallex::locality::Cluster;
use parallex::resilience::ChaosSpec;
use parallex_stencil::heat1d::{install, Heat1dParams, Heat1dSolver};

use crate::ledger::check_conservation;
use crate::report::Report;
use crate::stats::median;
use crate::{procfs, seeded, Config, Solve, Workload, WorkloadKind, WORKERS};

/// Localities of the cluster, one worker each.
const LOCALITIES: usize = WORKERS;

/// Stencil points across the cluster.
const POINTS: usize = 64;

/// Set-ups timed before the first solve (every solve adds one more).
const SETUP_BUILDS: usize = 100;

/// `alpha * dt / dx^2` of the solve.
const R: f64 = 0.25;

/// Initial temperature of point `i`: a seeded value in `[0, 100)`.
fn initial(seed: u64, i: usize) -> f64 {
    seeded(seed, i as u64).next_f64() * 100.0
}

/// The `heat1d-tcp` or `heat1d-chaos` workload.
pub struct Heat1d {
    params: Heat1dParams,
    seed: u64,
    chaos: Option<ChaosSpec>,
    reference: Vec<f64>,
    setup_s: Vec<f64>,
    mesh_s: Vec<f64>,
    solver_new_s: Vec<f64>,
}

impl Heat1d {
    /// Solve once on the in-process transport for the reference field,
    /// then time [`SETUP_BUILDS`] set-ups.
    pub fn new(cfg: &Config) -> Heat1d {
        let steps = if cfg.smoke { 20 } else { 200 };
        let params = Heat1dParams::new(POINTS, steps, R);
        let chaos = (cfg.workload == WorkloadKind::Heat1dChaos).then(ChaosSpec::pinned);
        let cluster = Cluster::new(LOCALITIES, 1);
        install(&cluster);
        let seed = cfg.seed;
        let reference = Heat1dSolver::new(&cluster, params).run(move |i| initial(seed, i));
        cluster.shutdown();
        let mut heat = Heat1d {
            params,
            seed,
            chaos,
            reference,
            setup_s: Vec::new(),
            mesh_s: Vec::new(),
            solver_new_s: Vec::new(),
        };
        // Set-up alone, several times, so `setup_s` has enough samples
        // even when solves are long and few.
        for _ in 0..SETUP_BUILDS {
            let (cluster, _solver) = heat.setup();
            cluster.shutdown();
        }
        heat
    }

    /// The timed set-up of one solve: the TCP mesh, the action table and
    /// the AGAS components.
    fn setup(&mut self) -> (Cluster, Heat1dSolver) {
        let t = Instant::now();
        let cluster = match &self.chaos {
            Some(spec) => Cluster::new_resilient(LOCALITIES, 1, Some(spec.clone())),
            None => Cluster::new_tcp(LOCALITIES, 1),
        };
        let mesh_s = t.elapsed().as_secs_f64();
        install(&cluster);
        let t_solver = Instant::now();
        let solver = Heat1dSolver::new(&cluster, self.params);
        self.solver_new_s.push(t_solver.elapsed().as_secs_f64());
        self.setup_s.push(t.elapsed().as_secs_f64());
        self.mesh_s.push(mesh_s);
        (cluster, solver)
    }
}

impl Workload for Heat1d {
    fn sizes(&self) -> String {
        let transport = match &self.chaos {
            Some(spec) => format!("\"resilient, chaos {}\"", spec.render()),
            None => "\"tcp\"".to_string(),
        };
        format!(
            "{{\"localities\": {LOCALITIES}, \"workers_each\": 1, \"points\": {}, \"steps\": {}, \"transport\": {transport}}}",
            self.params.total_points, self.params.steps
        )
    }

    fn steps(&self) -> usize {
        self.params.steps
    }

    fn work(&self) -> f64 {
        (self.params.total_points * self.params.steps) as f64
    }

    fn timeout_s(&self) -> f64 {
        if self.chaos.is_some() {
            30.0
        } else {
            5.0
        }
    }

    fn solve(&mut self, traced: bool) -> Solve {
        let (cluster, solver) = self.setup();
        let before = cluster.counter_snapshot();
        if traced {
            cluster.start_trace();
        }
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let seed = self.seed;
        let field = solver.run(move |i| initial(seed, i));
        let solve_s = t.elapsed().as_secs_f64();
        let traces = if traced {
            cluster.stop_trace()
        } else {
            Vec::new()
        };
        cluster.wait_idle();
        let cpu_s = procfs::cpu_seconds() - cpu0;
        let after = cluster.counter_snapshot();
        cluster.shutdown();
        let delta = after.delta(&before);
        let identical = field.len() == self.reference.len()
            && field
                .iter()
                .zip(&self.reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let check = if identical {
            check_conservation(&delta)
        } else {
            Err("heat1d field differs bitwise from the in-process reference".to_string())
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
        report.set("locality.mesh_connect_ms", median(&self.mesh_s) * 1e3);
        report.set("agas.solver_new_us", median(&self.solver_new_s) * 1e6);
    }
}
