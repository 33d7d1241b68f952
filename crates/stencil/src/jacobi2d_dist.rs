//! Distributed 2D Jacobi — an *extension* beyond the paper.
//!
//! The paper runs its 2D stencil shared-memory only (Section V-B) and its
//! distributed experiments in 1D; combining the two — a row-block
//! distributed 2D Jacobi with halo-row parcels and compute/communication
//! overlap — is the natural next step its conclusion points toward, and
//! exercises every subsystem at once: AGAS components, parcels carrying
//! `Vec<f64>` payloads, halo mailboxes and per-locality parallel
//! `for_each`. Each step runs the halo exchange of [`crate::halo`], the
//! one the 1D solver runs, with rows for cells: a block's top row is its
//! [`Side::Left`] edge and its bottom row its [`Side::Right`] edge.
//!
//! 1. send this block's top and bottom interior rows (step `t`),
//! 2. compute the block's interior rows (independent of halo rows),
//! 3. await the neighbour rows, finish the two edge rows, swap.

use crate::grid::ScalarGrid;
use crate::halo::{self, HaloBlock, HaloDriver, Side};
use crate::jacobi2d::jacobi_step_scalar_edges;
use parallex::agas::Gid;
use parallex::algorithms::{par, seq};
use parallex::locality::Cluster;
use parallex::parcel::ActionId;
use parallex::runtime::Runtime;

/// Action id of the halo-row push message.
pub const ROW_PUSH: ActionId = 0x4A32; // "J2"

/// Parameters of a distributed 2D Jacobi run.
#[derive(Clone, Copy, Debug)]
pub struct Jacobi2dDistParams {
    /// Global grid width.
    pub nx: usize,
    /// Global grid height (row-block partitioned over localities).
    pub ny: usize,
    /// Time steps.
    pub steps: usize,
    /// Dirichlet boundary value around the global grid.
    pub boundary: f64,
}

impl Jacobi2dDistParams {
    /// Sanity-checked constructor.
    ///
    /// # Panics
    /// Panics on an empty grid.
    pub fn new(nx: usize, ny: usize, steps: usize) -> Self {
        assert!(nx > 0 && ny > 0, "empty grid");
        Jacobi2dDistParams { nx, ny, steps, boundary: 0.0 }
    }
}

/// Install the halo-row action on a cluster (once, before solvers). Its
/// payload is `(Side, step, row)`.
pub fn install(cluster: &Cluster) {
    halo::install::<Vec<f64>>(cluster, ROW_PUSH, "jacobi2d::row_push");
}

/// The distributed solver: owns per-locality row mailboxes.
pub struct Jacobi2dDist {
    params: Jacobi2dDistParams,
    halo: HaloDriver<Vec<f64>>,
}

impl Jacobi2dDist {
    /// Create solver state on a cluster where [`install`] was called.
    ///
    /// # Panics
    /// Panics if the cluster has more ranks than the grid has rows.
    pub fn new(cluster: &Cluster, params: Jacobi2dDistParams) -> Jacobi2dDist {
        let row = vec![params.boundary; params.nx];
        let halo = HaloDriver::new(cluster, ROW_PUSH, params.ny, params.steps, (row.clone(), row));
        Jacobi2dDist { params, halo }
    }

    /// Aggregate `(already_arrived, had_to_wait)` halo statistics over
    /// the hosted localities (see [`HaloDriver::halo_stats`]).
    pub fn halo_stats(&self) -> (usize, usize) {
        self.halo.halo_stats()
    }

    /// GID of locality `i`'s row mailbox, hosted or not.
    pub fn store_gid(&self, i: usize) -> Gid {
        self.halo.mailbox_gid(i)
    }

    /// Run to completion on the hosted localities and gather their row
    /// blocks in rank order, row-major: the whole `ny * nx` grid when the
    /// cluster hosts every rank.
    pub fn run(&self, init: impl Fn(usize, usize) -> f64 + Send + Sync + 'static) -> Vec<f64> {
        let Jacobi2dDistParams { nx, boundary, .. } = self.params;
        self.halo.run(move |rows| {
            let (y0, block_ny) = (rows.start, rows.len());
            let mut cur = ScalarGrid::from_fn(nx, block_ny, |x, y| init(x, y0 + y));
            cur.set_boundary(boundary);
            let mut next = ScalarGrid::zeros(nx, block_ny);
            next.set_boundary(boundary);
            Rows { cur, next }
        })
    }
}

/// One locality's block of rows, with halo rows above and below.
struct Rows {
    cur: ScalarGrid<f64>,
    next: ScalarGrid<f64>,
}

impl HaloBlock for Rows {
    type Halo = Vec<f64>;

    fn edge(&self, side: Side) -> Vec<f64> {
        match side {
            Side::Left => self.cur.interior_row(0),
            Side::Right => self.cur.interior_row(self.cur.ny() - 1),
        }
    }

    /// Rows `1..block_ny-1`, which read no halo row.
    fn interior(&mut self, rt: &Runtime) {
        jacobi_step_scalar_edges(&self.cur, &mut self.next, &par(rt), false);
    }

    fn finish(&mut self, top: Vec<f64>, bottom: Vec<f64>) {
        self.cur.set_top_halo_row(&top);
        self.cur.set_bottom_halo_row(&bottom);
        // The two edge rows update serially: the policy goes unused.
        jacobi_step_scalar_edges(&self.cur, &mut self.next, &seq(), true);
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn into_values(self) -> Vec<f64> {
        self.cur.interior()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi2d::Jacobi2d;
    use parallex::algorithms::seq;

    fn run_dist(
        localities: usize,
        params: Jacobi2dDistParams,
        init: fn(usize, usize) -> f64,
    ) -> Vec<f64> {
        let cluster = Cluster::new(localities, 2);
        install(&cluster);
        let solver = Jacobi2dDist::new(&cluster, params);
        let out = solver.run(init);
        cluster.shutdown();
        out
    }

    fn run_serial(params: Jacobi2dDistParams, init: fn(usize, usize) -> f64) -> Vec<f64> {
        let mut j = Jacobi2d::new(params.nx, params.ny, params.boundary, init);
        for _ in 0..params.steps {
            j.step(&seq());
        }
        j.grid().interior()
    }

    fn spot(x: usize, y: usize) -> f64 {
        if (3..6).contains(&x) && (4..7).contains(&y) {
            50.0
        } else {
            0.0
        }
    }

    #[test]
    fn matches_shared_memory_solver_one_locality() {
        let params = Jacobi2dDistParams::new(12, 10, 8);
        let got = run_dist(1, params, spot);
        assert_eq!(got, run_serial(params, spot));
    }

    #[test]
    fn matches_shared_memory_solver_across_localities() {
        let params = Jacobi2dDistParams::new(12, 17, 12);
        let want = run_serial(params, spot);
        for localities in [2, 3, 4] {
            let got = run_dist(localities, params, spot);
            assert_eq!(got.len(), 12 * 17);
            assert_eq!(got, want, "{localities} localities");
        }
    }

    #[test]
    fn nonzero_boundary_and_uneven_blocks() {
        let mut params = Jacobi2dDistParams::new(8, 11, 9);
        params.boundary = 1.5;
        let want = run_serial(params, |x, y| (x + 2 * y) as f64 * 0.1);
        let got = run_dist(3, params, |x, y| (x + 2 * y) as f64 * 0.1);
        assert_eq!(got, want);
    }

    #[test]
    fn single_row_blocks_edge_case() {
        // As many localities as rows: every block is all edges.
        let params = Jacobi2dDistParams::new(6, 4, 6);
        let want = run_serial(params, spot);
        let got = run_dist(4, params, spot);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "leave a rank empty")]
    fn more_ranks_than_rows_is_rejected() {
        let cluster = Cluster::new(5, 1);
        install(&cluster);
        let _ = Jacobi2dDist::new(&cluster, Jacobi2dDistParams::new(6, 4, 2));
    }

    #[test]
    fn chaos_transport_matches_shared_memory_solver_bitwise() {
        let params = Jacobi2dDistParams::new(10, 12, 8);
        let want = run_serial(params, spot);
        let chaos = parallex::resilience::ChaosSpec::parse(
            "seed=42,drop=5%,dup=2%,corrupt=1%,delay=1ms,panics=2",
        )
        .unwrap();
        let cluster = Cluster::new_resilient(3, 2, Some(chaos));
        install(&cluster);
        let solver = Jacobi2dDist::new(&cluster, params);
        let got = solver.run(spot);
        let injected_panics: u64 = cluster
            .counter_snapshot()
            .iter()
            .filter(|(p, _)| p.object == "chaos" && p.name == "count/injected-panics")
            .map(|(_, v)| v)
            .sum();
        cluster.shutdown();
        assert_eq!(got, want, "chaos run diverged from the serial solver");
        assert_eq!(injected_panics, 6, "two replayed panics per locality");
    }

    #[test]
    fn works_under_network_delay() {
        let params = Jacobi2dDistParams::new(8, 12, 5);
        let cluster = Cluster::new(3, 2);
        install(&cluster);
        cluster.set_network_delay(std::sync::Arc::new(|_p| {
            std::time::Duration::from_micros(400)
        }));
        let solver = Jacobi2dDist::new(&cluster, params);
        let got = solver.run(spot);
        let (ready, parked) = solver.halo_stats();
        cluster.shutdown();
        assert_eq!(got, run_serial(params, spot));
        // 3 localities: middle has 2 neighbours, ends 1 each = 4 takes/step.
        assert_eq!(ready + parked, 4 * params.steps);
    }
}
