//! The fully distributed 1D heat-equation solver (Listing 1, Eq. 3).
//!
//! The domain is block-partitioned over the localities of a
//! [`Cluster`]; each step a locality
//!
//! 1. **sends** its two boundary cells to its neighbours as parcels
//!    (active messages targeting the neighbour's halo-store component),
//! 2. **computes the interior** — every cell that does not need a
//!    neighbour's halo — with a parallel `for_each` on its own runtime,
//! 3. **waits** on futures for the incoming halos and finishes the two
//!    edge cells.
//!
//! Step 2 runs while the step-1 parcels are in flight, which is the
//! latency-hiding structure the paper credits for its flat weak scaling
//! ("the network latencies are aptly hidden", Section VII-A). Run the
//! cluster with a `parallex-netsim` delay function to execute against a
//! modeled interconnect.

use crate::halo::HaloMailbox;
use parallex::agas::Gid;
use parallex::algorithms::par;
use parallex::introspect::EventKind;
use parallex::lcos::future::{when_all, Future};
use parallex::locality::{Cluster, Locality};
use parallex::parcel::serialize;
use parallex::parcel::ActionId;
use std::sync::Arc;

/// Action id of the halo-push active message.
pub const HALO_PUSH: ActionId = 0x48_41; // "HA"

/// Halo-push send attempts before giving up (a transient transport
/// error — e.g. a reconnecting peer — heals within a retry or two; a
/// genuinely dead peer still fails after the last attempt).
const HALO_SEND_ATTEMPTS: usize = 3;

/// Linear backoff base between halo-push retries.
const HALO_SEND_BACKOFF: std::time::Duration = std::time::Duration::from_millis(2);

/// Which halo slot of the *receiver* a message fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Side {
    /// The receiver's left halo cell.
    Left,
    /// The receiver's right halo cell.
    Right,
}

/// Per-locality mailbox for incoming halo cells, keyed by (side, step):
/// a thin typed wrapper over the shared [`HaloMailbox`].
#[derive(Default)]
pub struct HaloStore {
    inner: HaloMailbox<f64>,
}

impl Side {
    fn tag(self) -> u8 {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

impl HaloStore {
    /// Create an empty store.
    pub fn new() -> HaloStore {
        HaloStore::default()
    }

    /// Deliver a halo value (called by the parcel handler).
    pub fn put(&self, side: Side, step: u64, v: f64) {
        self.inner.put(side.tag(), step, v);
    }

    /// Future of the halo value for (side, step).
    pub fn take(&self, loc: &Locality, side: Side, step: u64) -> Future<f64> {
        self.inner.take(loc, side.tag(), step)
    }

    /// `(already_arrived, had_to_wait)` take counts — the direct measure of
    /// how well communication overlapped compute (the paper's latency
    /// hiding): a high first component means halos were in flight while
    /// the interior computed.
    pub fn take_stats(&self) -> (usize, usize) {
        self.inner.take_stats()
    }

    /// Buffered (undelivered) halo values.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }
}

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
/// constructing solvers).
pub fn install(cluster: &Cluster) {
    cluster.register_action(HALO_PUSH, "heat1d::halo_push", |loc, gid, payload| {
        let (side, step, v): (Side, u64, f64) = serialize::from_bytes(payload)?;
        let store = loc.components().get::<HaloStore>(gid)?;
        store.put(side, step, v);
        Ok(Vec::new())
    });
}

/// The distributed solver: owns the per-locality halo stores.
pub struct Heat1dSolver {
    cluster: Cluster,
    params: Heat1dParams,
    store_gids: Vec<Gid>,
}

impl Heat1dSolver {
    /// Create solver state on a cluster where [`install`] was called.
    pub fn new(cluster: &Cluster, params: Heat1dParams) -> Heat1dSolver {
        let store_gids = (0..cluster.len())
            .map(|i| cluster.new_component(i, HaloStore::new()))
            .collect();
        Heat1dSolver { cluster: cluster.clone(), params, store_gids }
    }

    /// Aggregate `(already_arrived, had_to_wait)` halo-take statistics
    /// over all localities (see [`HaloStore::take_stats`]).
    pub fn halo_stats(&self) -> (usize, usize) {
        self.store_gids
            .iter()
            .map(|&gid| {
                self.cluster
                    .get_component::<HaloStore>(gid)
                    .map(|s| s.take_stats())
                    .unwrap_or((0, 0))
            })
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    }

    /// Block range of locality `i` (contiguous block partition).
    pub fn block_range(&self, i: usize) -> std::ops::Range<usize> {
        parallex::topology::block_ranges(self.params.total_points, self.cluster.len())[i].clone()
    }

    /// Run to completion and gather the final temperature field.
    pub fn run(&self, init: impl Fn(usize) -> f64 + Send + Sync + 'static) -> Vec<f64> {
        let init = Arc::new(init);
        let n_loc = self.cluster.len();
        let drivers: Vec<Future<Vec<f64>>> = (0..n_loc)
            .map(|i| {
                let loc = self.cluster.locality(i);
                let params = self.params;
                let range = self.block_range(i);
                let init = init.clone();
                let my_gid = self.store_gids[i];
                let left_gid = (i > 0).then(|| self.store_gids[i - 1]);
                let right_gid = (i + 1 < n_loc).then(|| self.store_gids[i + 1]);
                let loc2 = loc.clone();
                loc.runtime().async_task(move || {
                    drive_partition(&loc2, params, range, &*init, my_gid, left_gid, right_gid)
                })
            })
            .collect();
        let blocks = when_all(drivers).get();
        blocks.into_iter().flatten().collect()
    }
}

/// The per-locality time-stepping loop (runs as a task on that locality).
fn drive_partition(
    loc: &Arc<Locality>,
    params: Heat1dParams,
    range: std::ops::Range<usize>,
    init: &(dyn Fn(usize) -> f64 + Send + Sync),
    my_gid: Gid,
    left_gid: Option<Gid>,
    right_gid: Option<Gid>,
) -> Vec<f64> {
    let n = range.len();
    if n == 0 {
        return Vec::new();
    }
    let store = loc
        .components()
        .get::<HaloStore>(my_gid)
        .expect("halo store exists");
    let rt = loc.runtime().clone();
    let r = params.r;
    // u[1..=n] are this block's cells; u[0] / u[n+1] are halo slots.
    let mut u: Vec<f64> = std::iter::once(0.0)
        .chain(range.clone().map(init))
        .chain(std::iter::once(0.0))
        .collect();
    let mut next = vec![0.0f64; n + 2];

    for t in 0..params.steps as u64 {
        // (1) Ship boundary cells to the neighbours; their parcels travel
        // while we compute the interior.
        if let Some(lg) = left_gid {
            parallex::resilience::retry(HALO_SEND_ATTEMPTS, HALO_SEND_BACKOFF, || {
                loc.apply(lg, HALO_PUSH, &(Side::Right, t, u[1]))
            })
            .expect("halo parcel to left neighbour");
        }
        if let Some(rg) = right_gid {
            parallex::resilience::retry(HALO_SEND_ATTEMPTS, HALO_SEND_BACKOFF, || {
                loc.apply(rg, HALO_PUSH, &(Side::Left, t, u[n]))
            })
            .expect("halo parcel to right neighbour");
        }
        // (2) Interior update (cells 2..=n-1) in parallel on this
        // locality's workers — the Listing 1 `for_each`. Small blocks run
        // serially (chunk-task overhead would dominate); both paths
        // compute identical values in identical order.
        if n > 2 {
            let u2 = &u;
            if n > 4096 {
                par(&rt).for_each_mut(&mut next[2..n], |k, out| {
                    let x = k + 2;
                    *out = u2[x] + r * (u2[x - 1] - 2.0 * u2[x] + u2[x + 1]);
                });
            } else {
                for x in 2..n {
                    next[x] = u2[x] + r * (u2[x - 1] - 2.0 * u2[x] + u2[x + 1]);
                }
            }
        }
        // (3) Resolve halos (futures — possibly already buffered) and
        // finish the edge cells. The wait is recorded as a halo-exchange
        // span whose arg packs the step and which sides actually blocked
        // — `(step << 2) | waited_left << 1 | waited_right` — so the
        // attribution engine can tell a fully hidden exchange (halo
        // already buffered when the interior finished) from an exposed
        // one without timing heuristics.
        let tracer = rt.tracer();
        let halo_start = tracer.is_enabled().then(std::time::Instant::now);
        let mut waited = 0u64;
        let left_halo = match left_gid {
            Some(_) => {
                let f = store.take(loc, Side::Left, t);
                if !f.is_ready() {
                    waited |= 0b10;
                }
                f.get()
            }
            None => params.left_bc,
        };
        let right_halo = match right_gid {
            Some(_) => {
                let f = store.take(loc, Side::Right, t);
                if !f.is_ready() {
                    waited |= 0b01;
                }
                f.get()
            }
            None => params.right_bc,
        };
        if let Some(t0) = halo_start {
            let lane = rt.current_worker().unwrap_or_else(|| tracer.external_lane());
            tracer.span(
                lane,
                EventKind::HaloExchange,
                t0,
                std::time::Instant::now(),
                (t << 2) | waited,
            );
        }
        u[0] = left_halo;
        u[n + 1] = right_halo;
        next[1] = u[1] + r * (u[0] - 2.0 * u[1] + u[2]);
        if n > 1 {
            next[n] = u[n] + r * (u[n - 1] - 2.0 * u[n] + u[n + 1]);
        }
        std::mem::swap(&mut u, &mut next);
    }
    u[1..=n].to_vec()
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
        let wire_parcels: u64 = cluster
            .counter_snapshot()
            .iter()
            .filter(|(p, _)| p.object == "parcels" && p.name == "count/wire-sent")
            .map(|(_, v)| v)
            .sum();
        cluster.shutdown();
        assert_eq!(got.len(), 64);
        assert!(max_abs_diff(&got, &want) < 1e-14, "{}", max_abs_diff(&got, &want));
        // 25 steps × 4 inter-locality halos per step went over sockets.
        assert!(wire_parcels >= 100, "halos must cross the wire, got {wire_parcels}");
    }

    #[test]
    fn chaos_run_is_bitwise_identical_to_fault_free_run() {
        // The tentpole proof at unit scale: the same solve over a
        // transport injecting drops, dups, delays and bit-corruption
        // must produce the exact bits of the fault-free run — the
        // reliability layer heals every fault before it reaches the
        // numerics.
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
            "seed=1337,drop=5%,dup=2%,corrupt=1%,delay=2ms",
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
    fn halo_store_buffers_out_of_order_arrivals() {
        let store = HaloStore::new();
        store.put(Side::Left, 3, 7.5);
        assert_eq!(store.buffered(), 1);
        let cluster = Cluster::new(1, 1);
        let loc = cluster.locality(0);
        let f = store.take(&loc, Side::Left, 3);
        assert_eq!(f.get(), 7.5);
        assert_eq!(store.buffered(), 0);
        cluster.shutdown();
    }

    #[test]
    fn halo_store_waits_for_future_arrivals() {
        let store = Arc::new(HaloStore::new());
        let cluster = Cluster::new(1, 2);
        let loc = cluster.locality(0);
        let f = store.take(&loc, Side::Right, 0);
        assert!(!f.is_ready());
        store.put(Side::Right, 0, -1.25);
        assert_eq!(f.get(), -1.25);
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_r_is_rejected() {
        let _ = Heat1dParams::new(10, 1, 0.6);
    }
}
