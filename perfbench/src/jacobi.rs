//! `jacobi2d`: the paper's bandwidth-bound 2D Jacobi kernel, one step per
//! solve, on grids several times the last-level cache.

use std::time::Instant;

use parallex::algorithms::{par, seq};
use parallex::runtime::Runtime;
use parallex_stencil::jacobi2d::{Jacobi2d, Jacobi2dVns};
use parallex_stencil::stream::stream_copy_host;

use crate::ledger::{check_conservation, total};
use crate::report::Report;
use crate::stats::{median, ratio};
use crate::{probes, procfs, seeded, Config, Solve, Workload, WORKERS};

/// Grid side of a full run: 8192^2 doubles are 512 MiB per grid.
const SIDE: usize = 8192;

/// Grid builds timed for `setup_s`; the last one is kept.
const SETUP_BUILDS: usize = 5;

/// A grid (and each STREAM array) must be at least this many times the
/// last-level cache, so the run measures memory, not cache.
const MIN_LLC_RATIO: f64 = 4.0;

/// Steps of the verification grid against the scalar reference.
const VERIFY_STEPS: usize = 6;

type Grid = Jacobi2dVns<f64, 8>;

/// Initial value of cell `(x, y)`: a seeded value in `[0, 1)`.
fn initial(seed: u64, x: usize, y: usize) -> f64 {
    seeded(seed, ((y as u64) << 32) | x as u64).next_f64()
}

/// The `jacobi2d` workload.
pub struct Jacobi {
    rt: Runtime,
    grid: Option<Grid>,
    nx: usize,
    ny: usize,
    llc: Option<u64>,
    smoke: bool,
    setup_s: Vec<f64>,
    verified: Result<(), String>,
    step_s: Vec<f64>,
    tasks: u64,
}

impl Jacobi {
    /// Check the grid against the last-level cache, verify the kernel on
    /// a small grid, then build the runtime and grid [`SETUP_BUILDS`]
    /// times, timing each build.
    pub fn new(cfg: &Config) -> Result<Jacobi, String> {
        let (nx, ny) = if cfg.smoke { (256, 128) } else { (SIDE, SIDE) };
        let llc = procfs::llc_bytes();
        let grid_bytes = (nx * ny * 8) as f64;
        if let (false, Some(llc)) = (cfg.smoke, llc) {
            if grid_bytes / (llc as f64) < MIN_LLC_RATIO {
                return Err(format!(
                    "jacobi2d: a {nx}x{ny} grid is {grid_bytes} B, under {MIN_LLC_RATIO}x the {llc} B last-level cache"
                ));
            }
        }
        let verified = verify(cfg.seed);
        let seed = cfg.seed;
        let mut setup_s = Vec::new();
        let mut built = None;
        for _ in 0..SETUP_BUILDS {
            // Free the previous grid first, so builds never overlap in memory.
            if let Some((rt, grid)) = built.take() {
                drop(grid);
                Runtime::shutdown(&rt);
            }
            let t = Instant::now();
            let rt = Runtime::builder().worker_threads(WORKERS).build();
            let grid = Grid::new(nx, ny, 0.0, |x, y| initial(seed, x, y));
            setup_s.push(t.elapsed().as_secs_f64());
            built = Some((rt, grid));
        }
        let (rt, grid) = built.expect("at least one build");
        Ok(Jacobi {
            rt,
            grid: Some(grid),
            nx,
            ny,
            llc,
            smoke: cfg.smoke,
            setup_s,
            verified,
            step_s: Vec::new(),
            tasks: 0,
        })
    }

    fn grid_bytes(&self) -> f64 {
        (self.nx * self.ny * 8) as f64
    }

    /// STREAM copy bandwidth of the host, GB/s, on arrays at least as
    /// large (relative to the cache) as one grid.
    fn stream_gbs(&self) -> f64 {
        let elems = match (self.smoke, self.llc) {
            (false, Some(llc)) => (MIN_LLC_RATIO * llc as f64 / 8.0).ceil() as usize,
            _ => self.nx * self.ny,
        };
        stream_copy_host(&self.rt, elems, 5).best_gbs
    }

    /// GB/s the median step moves, computed from the array sizes: each
    /// step reads one grid and writes the other (cache misses beyond that
    /// are not counted).
    fn computed_gbs(&self) -> f64 {
        2.0 * self.grid_bytes() / median(&self.step_s) / 1e9
    }
}

/// The VNS kernel on the runtime against the scalar kernel run
/// sequentially, on a small seeded grid: the two must agree bitwise.
fn verify(seed: u64) -> Result<(), String> {
    let rt = Runtime::builder().worker_threads(WORKERS).build();
    let (nx, ny) = (96, 40);
    let mut scalar = Jacobi2d::new(nx, ny, 0.0, |x, y| initial(seed, x, y));
    let mut vns = Grid::new(nx, ny, 0.0, |x, y| initial(seed, x, y));
    for _ in 0..VERIFY_STEPS {
        scalar.step(&seq());
        vns.step(&par(&rt));
    }
    rt.shutdown();
    let (a, b) = (scalar.grid(), vns.grid());
    let same = (0..ny).all(|y| (0..nx).all(|x| a.get(x, y).to_bits() == b.get(x, y).to_bits()));
    if same {
        Ok(())
    } else {
        Err(format!(
            "jacobi2d VNS differs from the scalar reference by {}",
            a.max_abs_diff(&b)
        ))
    }
}

impl Workload for Jacobi {
    fn sizes(&self) -> String {
        let llc_ratio = self.llc.map_or("null".to_string(), |llc| {
            format!("{}", self.grid_bytes() / llc as f64)
        });
        format!(
            "{{\"workers\": {WORKERS}, \"nx\": {}, \"ny\": {}, \"grid_bytes\": {}, \"grid_bytes_per_llc\": {llc_ratio}, \"element\": \"f64\", \"layout\": \"vns8\"}}",
            self.nx,
            self.ny,
            self.grid_bytes(),
        )
    }

    fn steps(&self) -> usize {
        1
    }

    fn work(&self) -> f64 {
        (self.nx * self.ny) as f64
    }

    fn timeout_s(&self) -> f64 {
        5.0
    }

    fn solve(&mut self, traced: bool) -> Solve {
        let grid = self.grid.as_mut().expect("grid lives until finish");
        let before = self.rt.counter_snapshot();
        if traced {
            self.rt.tracer().start();
        }
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        grid.step(&par(&self.rt));
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
        if !traced {
            self.step_s.push(solve_s);
            self.tasks += total(&delta, "threads", "count/spawned");
        }
        let check = check_conservation(&delta);
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

    /// The small-grid verification, then the maximum principle on the
    /// big grid: with a zero boundary and initial values in `[0, 1)`,
    /// every step keeps every value in `[0, 1)`.
    fn finish(&mut self) -> Result<(), String> {
        self.verified.clone()?;
        let grid = self.grid.take().expect("finish runs once").grid();
        let bad = (0..self.ny)
            .flat_map(|y| (0..self.nx).map(move |x| (x, y)))
            .find(|&(x, y)| !(0.0..1.0).contains(&grid.get(x, y)));
        match bad {
            Some((x, y)) => Err(format!(
                "jacobi2d cell ({x}, {y}) = {} left [0, 1)",
                grid.get(x, y)
            )),
            None => Ok(()),
        }
    }

    /// The host's memory bandwidth next to the step time, so that a run
    /// slowed by other memory traffic on the host shows as such.
    fn host_notes(&mut self, report: &mut Report) {
        let stream = self.stream_gbs();
        let computed = self.computed_gbs();
        report.notes.push(format!(
            "host stream copy {stream:.3} GB/s after the timed steps | step moves {computed:.3} GB/s at the median, {:.1}% of it",
            100.0 * ratio(computed, stream)
        ));
    }

    fn probes(&mut self, report: &mut Report) {
        probes::cluster_setup(report);
        let stream = self.stream_gbs();
        let computed = self.computed_gbs();
        report.set("stream.copy_gbs", stream);
        report.set("stencil.computed_gbs", computed);
        report.set("stencil.bw_frac", ratio(computed, stream));
        report.set(
            "algorithms.tasks_per_step",
            ratio(self.tasks as f64, self.step_s.len() as f64),
        );
    }
}

impl Drop for Jacobi {
    fn drop(&mut self) {
        self.rt.shutdown();
    }
}
