//! The halo exchange of the distributed stencil solvers (Listing 1,
//! Eq. 3), written once.
//!
//! A solver partitions one axis of its domain into contiguous blocks, one
//! per rank: the cells of the 1D heat equation ([`crate::heat1d`]), the
//! rows of the 2D Jacobi grid ([`crate::jacobi2d_dist`]). Each step, every
//! rank
//!
//! 1. **sends** its two edge values to its neighbours as parcels (active
//!    messages targeting the neighbour's [`HaloMailbox`] component),
//! 2. **computes the interior** — every point that reads no halo —
//!    while those parcels travel,
//! 3. **waits** on futures for the incoming halos and finishes the edges.
//!
//! Step 2 running while the step-1 parcels are in flight is the
//! latency-hiding structure the paper credits for its flat weak scaling
//! ("the network latencies are aptly hidden", Section VII-A).
//!
//! A solver describes its block through [`HaloBlock`]; [`HaloDriver`]
//! owns the protocol: the mailboxes and their GIDs, send retries, the
//! replay of injected task panics, the halo-exchange trace span, the
//! boundary value of a rank without a neighbour, and driving the hosted
//! localities. The mailbox is keyed by `(side, step)`. One mutex guards
//! both of its maps, so a value can never land in the buffer while a
//! waiter parks (the two-lock version of this once lost halos).

use parallex::agas::Gid;
use parallex::introspect::EventKind;
use parallex::lcos::future::{when_all, Future, Promise};
use parallex::locality::{Cluster, Locality};
use parallex::parcel::{serialize, ActionId};
use parallex::resilience::{replay_sync, retry};
use parallex::runtime::Runtime;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Halo-push send attempts before giving up (a transient transport
/// error — e.g. a reconnecting peer — heals within a retry or two; a
/// genuinely dead peer still fails after the last attempt).
const HALO_SEND_ATTEMPTS: usize = 3;

/// Linear backoff base between halo-push retries.
const HALO_SEND_BACKOFF: std::time::Duration = std::time::Duration::from_millis(2);

/// Which halo of the *receiving* rank a value fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Side {
    /// The halo from rank − 1: the left cell in 1D, the top row in 2D.
    Left,
    /// The halo from rank + 1: the right cell in 1D, the bottom row in 2D.
    Right,
}

type Key = (Side, u64);

struct MailboxState<V: Send + 'static> {
    values: HashMap<Key, V>,
    waiters: HashMap<Key, Promise<V>>,
}

/// A mailbox for neighbour data keyed by `(side, step)`.
pub struct HaloMailbox<V: Send + 'static> {
    state: Mutex<MailboxState<V>>,
    /// `take`s whose value had already arrived (fully overlapped
    /// communication).
    ready_takes: AtomicUsize,
    /// `take`s that parked a waiter (exposed communication).
    parked_takes: AtomicUsize,
}

impl<V: Send + 'static> Default for HaloMailbox<V> {
    fn default() -> Self {
        HaloMailbox {
            state: Mutex::new(MailboxState { values: HashMap::new(), waiters: HashMap::new() }),
            ready_takes: AtomicUsize::new(0),
            parked_takes: AtomicUsize::new(0),
        }
    }
}

impl<V: Send + 'static> HaloMailbox<V> {
    /// Empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deliver a value (parcel-handler side).
    pub fn put(&self, side: Side, step: u64, v: V) {
        let to_fulfil = {
            let mut st = self.state.lock();
            match st.waiters.remove(&(side, step)) {
                Some(p) => Some((p, v)),
                None => {
                    st.values.insert((side, step), v);
                    None
                }
            }
        };
        // Fulfil outside the lock: the continuation may run inline.
        if let Some((p, v)) = to_fulfil {
            p.set_value(v);
        }
    }

    /// Future of the value for `(side, step)` (consumer side).
    pub fn take(&self, loc: &Locality, side: Side, step: u64) -> Future<V> {
        let mut promise = loc.runtime().make_promise();
        let future = promise.future();
        let ready = {
            let mut st = self.state.lock();
            match st.values.remove(&(side, step)) {
                Some(v) => Some(v),
                None => {
                    st.waiters.insert((side, step), promise);
                    None
                }
            }
        };
        match ready {
            Some(v) => {
                self.ready_takes.fetch_add(1, Ordering::Relaxed);
                let mut p = loc.runtime().make_promise();
                let f = p.future();
                p.set_value(v);
                f
            }
            None => {
                self.parked_takes.fetch_add(1, Ordering::Relaxed);
                future
            }
        }
    }

    /// `(already_arrived, had_to_wait)` take counts — the direct overlap
    /// measurement behind the latency-hiding tests.
    pub fn take_stats(&self) -> (usize, usize) {
        (
            self.ready_takes.load(Ordering::Relaxed),
            self.parked_takes.load(Ordering::Relaxed),
        )
    }

    /// Buffered (delivered but unconsumed) values.
    pub fn buffered(&self) -> usize {
        self.state.lock().values.len()
    }
}

/// One rank's block of a distributed stencil: the part of a solver the
/// halo exchange does not own.
pub trait HaloBlock {
    /// What neighbours exchange each step: one cell in 1D, one row in 2D.
    type Halo;

    /// The edge value on `side` that the neighbour on that side needs.
    fn edge(&self, side: Side) -> Self::Halo;

    /// Update every point that reads no halo. A replay calls this again
    /// after a failed attempt, so it must compute the same values from
    /// the same block state.
    fn interior(&mut self, rt: &Runtime);

    /// Install this step's halos, update the edge points and advance to
    /// the next step.
    fn finish(&mut self, left: Self::Halo, right: Self::Halo);

    /// The block's values, in order.
    fn into_values(self) -> Vec<f64>;
}

/// Register the halo-push action `action` under `name` (once per cluster,
/// before constructing a [`HaloDriver`] that sends it). Its payload is
/// `(Side, step, V)`, delivered into the target [`HaloMailbox<V>`].
pub fn install<V: DeserializeOwned + Send + 'static>(
    cluster: &Cluster,
    action: ActionId,
    name: &'static str,
) {
    cluster.register_action(action, name, |loc, gid, payload| {
        let (side, step, v): (Side, u64, V) = serialize::from_bytes(payload)?;
        loc.components().get::<HaloMailbox<V>>(gid)?.put(side, step, v);
        Ok(Vec::new())
    });
}

/// The halo exchange of one distributed solver: a mailbox per rank, the
/// block partition, and the time-stepping driver.
pub struct HaloDriver<V> {
    cluster: Cluster,
    action: ActionId,
    steps: u64,
    ranges: Vec<Range<usize>>,
    mailbox_gids: Vec<Gid>,
    /// Halo values of a rank with no neighbour on the left / right.
    boundary: (V, V),
}

impl<V: Serialize + Clone + Send + 'static> HaloDriver<V> {
    /// Partition `points` over the cluster's ranks into contiguous blocks
    /// and create every rank's mailbox, for a run of `steps` steps whose
    /// halos travel as `action` (registered with [`install`]).
    ///
    /// # Panics
    /// Panics if a rank would get an empty block: a rank with no points
    /// sends no halos, so its neighbours would wait forever.
    pub fn new(
        cluster: &Cluster,
        action: ActionId,
        points: usize,
        steps: usize,
        boundary: (V, V),
    ) -> Self {
        let ranks = cluster.len();
        assert!(points >= ranks, "{points} points leave a rank empty on {ranks} ranks");
        let mailbox_gids = (0..ranks)
            .map(|i| cluster.new_component(i, HaloMailbox::<V>::new()))
            .collect();
        HaloDriver {
            cluster: cluster.clone(),
            action,
            steps: steps as u64,
            ranges: parallex::topology::block_ranges(points, ranks),
            mailbox_gids,
            boundary,
        }
    }

    /// GID of rank `i`'s mailbox, hosted or not.
    pub fn mailbox_gid(&self, i: usize) -> Gid {
        self.mailbox_gids[i]
    }

    /// Aggregate `(already_arrived, had_to_wait)` halo-take counts over
    /// the hosted ranks — the direct measure of how well communication
    /// overlapped compute (the paper's latency hiding): a high first
    /// component means halos were in flight while the interior computed.
    pub fn halo_stats(&self) -> (usize, usize) {
        self.mailbox_gids
            .iter()
            .map(|&gid| {
                self.cluster
                    .get_component::<HaloMailbox<V>>(gid)
                    .map(|m| m.take_stats())
                    .unwrap_or((0, 0))
            })
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    }

    /// Run every step on the hosted ranks, each as a task on its own
    /// locality with the block `block(range)` builds, and gather their
    /// values in rank order: the whole domain when the cluster hosts
    /// every rank.
    pub fn run<B: HaloBlock<Halo = V>>(
        &self,
        block: impl Fn(Range<usize>) -> B + Send + Sync + 'static,
    ) -> Vec<f64> {
        let block = Arc::new(block);
        let last = self.mailbox_gids.len() - 1;
        let drivers: Vec<Future<Vec<f64>>> = self
            .cluster
            .localities()
            .iter()
            .map(|loc| {
                let i = loc.id() as usize;
                let rank = Rank {
                    loc: loc.clone(),
                    action: self.action,
                    mailbox: self.mailbox_gids[i],
                    left: (i > 0).then(|| self.mailbox_gids[i - 1]),
                    right: (i < last).then(|| self.mailbox_gids[i + 1]),
                    boundary: self.boundary.clone(),
                };
                let (steps, range, block) = (self.steps, self.ranges[i].clone(), block.clone());
                loc.runtime().async_task(move || rank.drive(steps, block(range)))
            })
            .collect();
        when_all(drivers).get().into_iter().flatten().collect()
    }
}

/// What one rank's driver task knows of the exchange.
struct Rank<V> {
    loc: Arc<Locality>,
    action: ActionId,
    mailbox: Gid,
    left: Option<Gid>,
    right: Option<Gid>,
    boundary: (V, V),
}

impl<V: Serialize + Clone + Send + 'static> Rank<V> {
    /// The per-rank time-stepping loop.
    fn drive<B: HaloBlock<Halo = V>>(&self, steps: u64, mut block: B) -> Vec<f64> {
        let loc = &self.loc;
        let mailbox = loc
            .components()
            .get::<HaloMailbox<V>>(self.mailbox)
            .expect("halo mailbox exists");
        let rt = loc.runtime();
        let panic_steps = loc.injected_panic_steps(steps);
        for t in 0..steps {
            // (1) Ship the edges; the neighbour on our left fills its
            // right halo with our left edge, and vice versa.
            if let Some(gid) = self.left {
                self.send(gid, Side::Right, t, &block.edge(Side::Left));
            }
            if let Some(gid) = self.right {
                self.send(gid, Side::Left, t, &block.edge(Side::Right));
            }
            // (2) Interior update while the parcels travel. On a chaos
            // stack the scheduled steps fail their first attempt with a
            // task panic; the update is pure in the block state, so the
            // replay recomputes the exact values.
            let mut attempt = 0;
            replay_sync(3, || {
                attempt += 1;
                if attempt == 1 && panic_steps.contains(&t) {
                    loc.count_injected_panic();
                    // Unwind without the panic hook: no message, no backtrace.
                    std::panic::resume_unwind(Box::new(format!("injected task panic at step {t}")));
                }
                block.interior(rt);
            })
            .unwrap_or_else(|e| panic!("step {t} interior update failed every replay: {e}"));
            // (3) Resolve the halos (futures, possibly already buffered)
            // and finish the edges. The wait is recorded as a
            // halo-exchange span whose arg packs the step and which sides
            // actually blocked — `(step << 2) | waited_left << 1 |
            // waited_right` — so the attribution engine can tell a fully
            // hidden exchange from an exposed one without timing
            // heuristics.
            let tracer = rt.tracer();
            let halo_start = tracer.is_enabled().then(std::time::Instant::now);
            let mut waited = 0u64;
            let mut take = |side: Side, neighbour: Option<Gid>, boundary: &V, bit: u64| {
                if neighbour.is_none() {
                    return boundary.clone();
                }
                let f = mailbox.take(loc, side, t);
                if !f.is_ready() {
                    waited |= bit;
                }
                f.get()
            };
            let left = take(Side::Left, self.left, &self.boundary.0, 0b10);
            let right = take(Side::Right, self.right, &self.boundary.1, 0b01);
            if let Some(t0) = halo_start {
                let lane = rt.current_worker().unwrap_or_else(|| tracer.external_lane());
                let now = std::time::Instant::now();
                tracer.span(lane, EventKind::HaloExchange, t0, now, (t << 2) | waited);
            }
            block.finish(left, right);
        }
        block.into_values()
    }

    /// Push `edge` into the `side` halo of the mailbox `gid`.
    fn send(&self, gid: Gid, side: Side, t: u64, edge: &V) {
        retry(HALO_SEND_ATTEMPTS, HALO_SEND_BACKOFF, || {
            self.loc.apply(gid, self.action, &(side, t, edge))
        })
        .expect("halo parcel to a neighbour");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_take_is_ready() {
        let c = Cluster::new(1, 1);
        let m: HaloMailbox<Vec<f64>> = HaloMailbox::new();
        m.put(Side::Left, 7, vec![1.0, 2.0]);
        assert_eq!(m.buffered(), 1);
        let f = m.take(&c.locality(0), Side::Left, 7);
        assert_eq!(f.get(), vec![1.0, 2.0]);
        assert_eq!(m.buffered(), 0);
        assert_eq!(m.take_stats(), (1, 0));
        c.shutdown();
    }

    #[test]
    fn take_then_put_resolves_waiter() {
        let c = Cluster::new(1, 1);
        let m: HaloMailbox<i64> = HaloMailbox::new();
        let f = m.take(&c.locality(0), Side::Right, 0);
        assert!(!f.is_ready());
        m.put(Side::Right, 0, -9);
        assert_eq!(f.get(), -9);
        assert_eq!(m.take_stats(), (0, 1));
        c.shutdown();
    }

    #[test]
    fn tags_and_steps_do_not_collide() {
        let c = Cluster::new(1, 1);
        let m: HaloMailbox<u32> = HaloMailbox::new();
        m.put(Side::Left, 0, 1);
        m.put(Side::Right, 0, 2);
        m.put(Side::Left, 1, 3);
        assert_eq!(m.take(&c.locality(0), Side::Left, 1).get(), 3);
        assert_eq!(m.take(&c.locality(0), Side::Right, 0).get(), 2);
        assert_eq!(m.take(&c.locality(0), Side::Left, 0).get(), 1);
        c.shutdown();
    }

    #[test]
    fn concurrent_put_take_never_loses_values() {
        // The regression test for the two-lock race: hammer put/take from
        // two threads; every value must arrive.
        let c = Cluster::new(1, 2);
        let m = std::sync::Arc::new(HaloMailbox::<u64>::new());
        let loc = c.locality(0);
        const N: u64 = 2000;
        let m2 = m.clone();
        let producer = std::thread::spawn(move || {
            for s in 0..N {
                m2.put(Side::Left, s, s * 3);
            }
        });
        let mut sum = 0u64;
        for s in 0..N {
            sum += m.take(&loc, Side::Left, s).get();
        }
        producer.join().unwrap();
        assert_eq!(sum, 3 * N * (N - 1) / 2);
        c.shutdown();
    }
}
