//! The fully distributed 1D heat-equation solver (Listing 1, Eq. 3).
//!
//! The domain is block-partitioned over the localities of a
//! [`Cluster`]. Each step a locality sends its two boundary cells to its
//! neighbours, updates its interior cells with a parallel `for_each` on
//! its own runtime while those parcels travel, then waits for the
//! incoming halos and finishes the two edge cells: the halo exchange of
//! [`crate::halo`], which this solver shares with
//! [`crate::jacobi2d_dist`]. Run the cluster with a `parallex-netsim`
//! delay function to execute against a modeled interconnect.
//!
//! The solver drives the localities its cluster hosts: all of them, or
//! one rank per process of a multi-process run (see [`Cluster`]).

use crate::halo::{self, HaloBlock, HaloDriver};
use parallex::agas::Gid;
use parallex::algorithms::par;
use parallex::locality::Cluster;
use parallex::parcel::ActionId;
use parallex::runtime::Runtime;

pub use crate::halo::Side;

/// Action id of the halo-push active message.
pub const HALO_PUSH: ActionId = 0x48_41; // "HA"

/// Solver parameters.
#[derive(Clone, Copy, Debug)]
pub struct Heat1dParams {
    /// Total stencil points across the cluster.
    pub total_points: usize,
    /// Time steps.
    pub steps: usize,
    /// `alpha * dt / dx^2` of Eq. 3 (stability requires `r <= 0.5`).
    pub r: f64,
    /// Fixed temperature outside the left end.
    pub left_bc: f64,
    /// Fixed temperature outside the right end.
    pub right_bc: f64,
}

impl Heat1dParams {
    /// Sanity-checked constructor.
    ///
    /// # Panics
    /// Panics on an unstable `r` or an empty domain.
    pub fn new(total_points: usize, steps: usize, r: f64) -> Self {
        assert!(total_points > 0, "empty domain");
        assert!(r > 0.0 && r <= 0.5, "unstable r = {r}");
        Heat1dParams { total_points, steps, r, left_bc: 0.0, right_bc: 0.0 }
    }
}

/// Install the halo-push action on a cluster (once per cluster, before
/// constructing solvers). Its payload is `(Side, step, cell)`.
pub fn install(cluster: &Cluster) {
    halo::install::<f64>(cluster, HALO_PUSH, "heat1d::halo_push");
}

/// The distributed solver: owns the per-locality halo mailboxes.
pub struct Heat1dSolver {
    params: Heat1dParams,
    halo: HaloDriver<f64>,
}

impl Heat1dSolver {
    /// Create solver state on a cluster where [`install`] was called.
    ///
    /// # Panics
    /// Panics if the cluster has more ranks than points.
    pub fn new(cluster: &Cluster, params: Heat1dParams) -> Heat1dSolver {
        let boundary = (params.left_bc, params.right_bc);
        let halo = HaloDriver::new(cluster, HALO_PUSH, params.total_points, params.steps, boundary);
        Heat1dSolver { params, halo }
    }

    /// GID of locality `i`'s halo mailbox, hosted or not.
    pub fn store_gid(&self, i: usize) -> Gid {
        self.halo.mailbox_gid(i)
    }

    /// Run to completion on the hosted localities and gather their blocks
    /// of the final temperature field in rank order: the whole field when
    /// the cluster hosts every rank.
    pub fn run(&self, init: impl Fn(usize) -> f64 + Send + Sync + 'static) -> Vec<f64> {
        let r = self.params.r;
        self.halo.run(move |range| {
            // u[1..=n] are the block's cells; u[0] / u[n+1] are halo slots.
            let u: Vec<f64> = std::iter::once(0.0)
                .chain(range.map(&init))
                .chain(std::iter::once(0.0))
                .collect();
            let next = vec![0.0f64; u.len()];
            Cells { u, next, r }
        })
    }
}

/// One locality's block of cells.
struct Cells {
    /// The cells `u[1..=n]` between the halo slots `u[0]` and `u[n+1]`.
    u: Vec<f64>,
    next: Vec<f64>,
    r: f64,
}

impl HaloBlock for Cells {
    type Halo = f64;

    fn edge(&self, side: Side) -> f64 {
        match side {
            Side::Left => self.u[1],
            Side::Right => self.u[self.u.len() - 2],
        }
    }

    /// Cells `2..=n-1` in parallel on this locality's workers — the
    /// Listing 1 `for_each`. Small blocks run serially (chunk-task
    /// overhead would dominate); both paths compute identical values in
    /// identical order.
    fn interior(&mut self, rt: &Runtime) {
        let (u, next, r) = (&self.u, &mut self.next, self.r);
        let n = u.len() - 2;
        if n > 2 {
            if n > 4096 {
                par(rt).for_each_mut(&mut next[2..n], |k, out| {
                    let x = k + 2;
                    *out = u[x] + r * (u[x - 1] - 2.0 * u[x] + u[x + 1]);
                });
            } else {
                for x in 2..n {
                    next[x] = u[x] + r * (u[x - 1] - 2.0 * u[x] + u[x + 1]);
                }
            }
        }
    }

    fn finish(&mut self, left: f64, right: f64) {
        let (u, next, r) = (&mut self.u, &mut self.next, self.r);
        let n = u.len() - 2;
        u[0] = left;
        u[n + 1] = right;
        next[1] = u[1] + r * (u[0] - 2.0 * u[1] + u[2]);
        if n > 1 {
            next[n] = u[n] + r * (u[n - 1] - 2.0 * u[n] + u[n + 1]);
        }
        std::mem::swap(u, next);
    }

    fn into_values(self) -> Vec<f64> {
        let n = self.u.len() - 2;
        self.u[1..=n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{heat1d_reference, max_abs_diff};

    fn run_distributed(localities: usize, params: Heat1dParams, init: fn(usize) -> f64) -> Vec<f64> {
        let cluster = Cluster::new(localities, 2);
        install(&cluster);
        let solver = Heat1dSolver::new(&cluster, params);
        let out = solver.run(init);
        cluster.shutdown();
        out
    }

    fn bump(i: usize) -> f64 {
        if (20..30).contains(&i) {
            1.0
        } else {
            0.0
        }
    }

    #[test]
    fn matches_serial_reference_on_one_locality() {
        let params = Heat1dParams::new(64, 25, 0.25);
        let got = run_distributed(1, params, bump);
        let want = heat1d_reference(64, 25, 0.25, 0.0, 0.0, bump);
        assert!(max_abs_diff(&got, &want) < 1e-14);
    }

    #[test]
    fn matches_serial_reference_across_localities() {
        let params = Heat1dParams::new(64, 25, 0.25);
        let want = heat1d_reference(64, 25, 0.25, 0.0, 0.0, bump);
        for localities in [2, 3, 4] {
            let got = run_distributed(localities, params, bump);
            assert_eq!(got.len(), 64);
            assert!(
                max_abs_diff(&got, &want) < 1e-14,
                "{localities} localities: {}",
                max_abs_diff(&got, &want)
            );
        }
    }

    #[test]
    fn uneven_partitions_are_correct() {
        // 61 points over 4 localities: blocks of 16/15/15/15.
        let params = Heat1dParams::new(61, 12, 0.3);
        let got = run_distributed(4, params, |i| (i % 7) as f64);
        let want = heat1d_reference(61, 12, 0.3, 0.0, 0.0, |i| (i % 7) as f64);
        assert!(max_abs_diff(&got, &want) < 1e-13);
    }

    #[test]
    fn nonzero_boundary_conditions_propagate() {
        let n = 32usize;
        let mut params = Heat1dParams::new(n, 4000, 0.5);
        params.left_bc = 1.0;
        params.right_bc = 3.0;
        let cluster = Cluster::new(2, 2);
        install(&cluster);
        let solver = Heat1dSolver::new(&cluster, params);
        let out = solver.run(|_| 0.0);
        cluster.shutdown();
        // Steady state of the discrete heat equation is linear between the
        // BCs: u_i = left + (right-left) * (i+1) / (n+1).
        for (i, &v) in out.iter().enumerate() {
            let want = 1.0 + 2.0 * (i as f64 + 1.0) / (n as f64 + 1.0);
            assert!((v - want).abs() < 0.01, "cell {i}: {v} vs steady {want}");
        }
    }

    #[test]
    fn matches_serial_reference_over_tcp_parcelport() {
        // Same solver, but every halo crosses a real loopback socket
        // through the TCP parcelport (framing + coalescing).
        let params = Heat1dParams::new(64, 25, 0.25);
        let want = heat1d_reference(64, 25, 0.25, 0.0, 0.0, bump);
        let cluster = Cluster::new_tcp(3, 2);
        install(&cluster);
        let solver = Heat1dSolver::new(&cluster, params);
        let got = solver.run(bump);
        let wire_parcels = cluster.counter_snapshot().total("parcels", "count/wire-sent");
        cluster.shutdown();
        assert_eq!(got.len(), 64);
        assert!(max_abs_diff(&got, &want) < 1e-14, "{}", max_abs_diff(&got, &want));
        // 25 steps × 4 inter-locality halos per step went over sockets.
        assert!(wire_parcels >= 100, "halos must cross the wire, got {wire_parcels}");
    }

    #[test]
    fn chaos_run_is_bitwise_identical_to_fault_free_run() {
        // The tentpole proof at unit scale: the same solve over a
        // transport injecting drops, dups, delays and bit-corruption,
        // with two steps per locality failing in a task panic, must
        // produce the exact bits of the fault-free run — the reliability
        // layer heals every transport fault before it reaches the
        // numerics, and the step replay every panic.
        let params = Heat1dParams::new(64, 25, 0.25);
        let run = |cluster: Cluster| -> Vec<f64> {
            install(&cluster);
            let solver = Heat1dSolver::new(&cluster, params);
            let out = solver.run(bump);
            cluster.shutdown();
            out
        };
        let fault_free = run(Cluster::new_tcp(3, 2));
        let chaos = parallex::resilience::ChaosSpec::parse(
            "seed=1337,drop=5%,dup=2%,corrupt=1%,delay=2ms,panics=2",
        )
        .unwrap();
        let chaotic = run(Cluster::new_resilient(3, 2, Some(chaos)));
        assert_eq!(chaotic, fault_free, "chaos run diverged bitwise");
        let want = heat1d_reference(64, 25, 0.25, 0.0, 0.0, bump);
        assert!(max_abs_diff(&chaotic, &want) < 1e-14);
    }

    #[test]
    fn works_under_simulated_network_delay() {
        let params = Heat1dParams::new(48, 10, 0.25);
        let cluster = Cluster::new(3, 2);
        install(&cluster);
        cluster.set_network_delay(std::sync::Arc::new(|_p| {
            std::time::Duration::from_micros(300)
        }));
        let solver = Heat1dSolver::new(&cluster, params);
        let got = solver.run(bump);
        cluster.shutdown();
        let want = heat1d_reference(48, 10, 0.25, 0.0, 0.0, bump);
        assert!(max_abs_diff(&got, &want) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "leave a rank empty")]
    fn more_ranks_than_points_is_rejected() {
        // Rank 2 would get no cell and send no halo; rank 1 would wait
        // for it forever.
        let cluster = Cluster::new(3, 1);
        install(&cluster);
        let _ = Heat1dSolver::new(&cluster, Heat1dParams::new(2, 5, 0.25));
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_r_is_rejected() {
        let _ = Heat1dParams::new(10, 1, 0.6);
    }
}
