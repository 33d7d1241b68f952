//! Localities and clusters: the distributed-memory layer.
//!
//! An HPX *locality* is one node of the cluster: its own thread pool,
//! component storage and parcelport, sharing a global AGAS view. A
//! [`Cluster`] of `n` ranks hosts some or all of their localities in one
//! process — the substrate on which the paper's distributed 1D stencil
//! (Fig. 3) runs — and routes [`crate::parcel::Parcel`]s between them,
//! optionally through a [`crate::parcel::DelayFn`] modeling the
//! interconnect. Parcels to ranks another process hosts leave through
//! the sender's parcelport stack.

use crate::agas::{AgasService, ComponentStore, Gid, MigrationRegistry};
use crate::error::{Error, Result};
use crate::introspect::{
    prometheus_text, CounterPath, CounterSnapshot, EventKind, Instance, LatencyChannel,
    MetricsServer, Trace,
};
use crate::lcos::future::{Future, Promise};
use crate::parcel::stack::{build_stack, Stack};
use crate::parcel::tcp::TcpParcelport;
use crate::parcel::{
    in_flight, serialize, ActionFn, ActionId, ActionRegistry, DelayFn, Parcel, Parcelport,
    PortEvent, PortSink, TimerToken, TimerWheel, RESPONSE_ACTION,
};
use crate::resilience::{
    ChaosSpec, FaultPlan, HeartbeatConfig, PeerHealth, PeerState, HEARTBEAT_ACTION,
};
use crate::runtime::Runtime;
use crate::sched::SchedulerPolicy;
use crate::task::{Priority, Task};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// An outstanding request: its promise, send time (completing the
/// parcel-RTT latency histogram on response), destination locality (so a
/// peer loss can fail exactly the requests aimed at the dead node), and
/// the response-timeout timer, if one is armed.
struct PendingRequest {
    promise: Promise<Vec<u8>>,
    sent_at: std::time::Instant,
    dest: u32,
    timeout: Option<TimerToken>,
}

/// One simulated node: runtime + component store + parcel endpoints.
pub struct Locality {
    id: u32,
    runtime: Runtime,
    components: ComponentStore,
    cluster: RwLock<Weak<ClusterShared>>,
    /// Outstanding request promises by token, with their send time so
    /// the response completes the parcel-RTT latency histogram.
    pending: Mutex<HashMap<u64, PendingRequest>>,
    next_token: AtomicU64,
    /// Peer liveness as observed from this locality, fed by heartbeat
    /// arrivals once [`Cluster::start_heartbeat`] is running.
    health: PeerHealth,
    /// The top of this locality's parcelport stack. Unset when the
    /// cluster keeps its parcels in the process: they go straight to the
    /// destination's delivery path.
    port: OnceLock<Arc<dyn Parcelport>>,
    /// The stack's TCP layer, for addressing only.
    tcp: OnceLock<Arc<TcpParcelport>>,
    /// The spec of a [`Stack::Chaos`] locality.
    chaos: Option<ChaosSpec>,
    /// `/chaos{locality#L/total}/count/injected-panics` (chaos only).
    injected_panics: Arc<AtomicU64>,
    /// `count/dropped/send-failed`: parcels the transport refused with
    /// no caller waiting to be told.
    dropped_send_failed: Arc<AtomicU64>,
    /// `count/dropped/unknown-locality`: parcels addressed to a locality
    /// the cluster does not have.
    dropped_unknown_locality: Arc<AtomicU64>,
    /// `count/dropped/handler-failed`: fire-and-forget parcels whose
    /// action is unregistered, whose component is missing or whose
    /// handler failed or panicked, with no caller to tell.
    dropped_handler_failed: Arc<AtomicU64>,
}

/// Record a parcel event on the calling thread's lane of `rt`'s tracer
/// (a no-op unless tracing is on).
fn trace_parcel(rt: &Runtime, kind: EventKind, action: ActionId) {
    let tracer = rt.tracer();
    if tracer.is_enabled() {
        let lane = rt.current_worker().unwrap_or_else(|| tracer.external_lane());
        tracer.instant(lane, kind, action as u64);
    }
}

impl Locality {
    /// This locality's rank.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The locality's task runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Local component storage.
    pub fn components(&self) -> &ComponentStore {
        &self.components
    }

    /// This locality's view of its peers' liveness (populated by the
    /// heartbeat protocol; empty until [`Cluster::start_heartbeat`]).
    pub fn health(&self) -> &PeerHealth {
        &self.health
    }

    /// The address this locality's parcelport listens on (`None` when
    /// the cluster exchanges parcels in-process).
    pub fn endpoint(&self) -> Option<SocketAddr> {
        self.tcp.get().map(|tcp| tcp.local_addr())
    }

    /// The steps, out of `steps`, whose first attempt a solver fails with
    /// an injected task panic: [`FaultPlan::panic_steps`] of this
    /// locality's stream of its [`Stack::Chaos`] spec. Empty on any other
    /// stack.
    pub fn injected_panic_steps(&self, steps: u64) -> BTreeSet<u64> {
        self.chaos.as_ref().map_or_else(BTreeSet::new, |spec| {
            FaultPlan::for_stream(spec.clone(), self.id as u64).panic_steps(steps)
        })
    }

    /// Count one task panic injected from [`Locality::injected_panic_steps`].
    pub fn count_injected_panic(&self) {
        self.injected_panics.fetch_add(1, Ordering::Relaxed);
    }

    fn shared(&self) -> Result<Arc<ClusterShared>> {
        self.cluster
            .read()
            .upgrade()
            .ok_or(Error::RuntimeShutDown)
    }

    /// Fire-and-forget remote action (HPX `hpx::apply`): ships `arg` to the
    /// locality owning `gid` and runs the action there.
    pub fn apply<A: Serialize>(&self, gid: Gid, action: ActionId, arg: &A) -> Result<()> {
        let shared = self.shared()?;
        let dest_locality = shared.agas.resolve(gid)?;
        let parcel = Parcel {
            source: self.id,
            dest_locality,
            dest: gid,
            action,
            payload: Bytes::from(serialize::to_bytes(arg)?),
            response_token: None,
        };
        self.runtime.counters().parcels_sent.fetch_add(1, Ordering::Relaxed);
        trace_parcel(&self.runtime, EventKind::ParcelSend, action);
        ClusterShared::send(&shared, parcel);
        Ok(())
    }

    /// Remote action returning the handler's raw response bytes
    /// (HPX `hpx::async` on an action).
    pub fn async_action_raw<A: Serialize>(
        &self,
        gid: Gid,
        action: ActionId,
        arg: &A,
    ) -> Result<Future<Vec<u8>>> {
        let shared = self.shared()?;
        let dest_locality = shared.agas.resolve(gid)?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut promise = self.runtime.make_promise();
        let future = promise.future();
        self.pending.lock().insert(
            token,
            PendingRequest {
                promise,
                sent_at: std::time::Instant::now(),
                dest: dest_locality,
                timeout: None,
            },
        );
        if let Some(d) = *shared.response_timeout.read() {
            let me = shared.hosted(self.id as usize).expect("a locality hosts itself");
            let weak = Arc::downgrade(me);
            let timer = shared.timer.schedule_cancelable(d, move || {
                if let Some(loc) = weak.upgrade() {
                    loc.fail_token(token, Error::ResponseTimeout);
                }
            });
            let mut pend = self.pending.lock();
            match pend.get_mut(&token) {
                Some(req) => req.timeout = Some(timer),
                // The response won the race; the timer must not linger.
                None => {
                    drop(pend);
                    shared.timer.cancel(&timer);
                }
            }
        }
        let parcel = Parcel {
            source: self.id,
            dest_locality,
            dest: gid,
            action,
            payload: Bytes::from(serialize::to_bytes(arg)?),
            response_token: Some(token),
        };
        self.runtime.counters().parcels_sent.fetch_add(1, Ordering::Relaxed);
        trace_parcel(&self.runtime, EventKind::ParcelSend, action);
        ClusterShared::send(&shared, parcel);
        Ok(future)
    }

    /// Typed remote call: serializes `arg`, runs the action remotely,
    /// deserializes its response as `R`.
    pub fn call<A: Serialize, R: DeserializeOwned + Send + 'static>(
        &self,
        gid: Gid,
        action: ActionId,
        arg: &A,
    ) -> Result<Future<R>> {
        Ok(self.async_action_raw(gid, action, arg)?.then(|bytes| {
            serialize::from_bytes::<R>(&bytes).expect("response payload decodes as R")
        }))
    }

    fn complete_response(&self, token: u64, result: std::result::Result<Vec<u8>, String>) {
        let req = self.pending.lock().remove(&token);
        if let Some(req) = req {
            self.disarm_timeout(&req);
            // Request → response round-trip as observed by the caller's
            // locality, recorded on the completing thread's lane.
            let lane = self
                .runtime
                .current_worker()
                .unwrap_or_else(|| self.runtime.workers());
            self.runtime.latency_histograms().record(
                LatencyChannel::ParcelRtt,
                lane,
                req.sent_at.elapsed().as_nanos() as u64,
            );
            match result {
                Ok(bytes) => req.promise.set_value(bytes),
                Err(msg) => req.promise.set_error(Error::RemoteError(msg)),
            }
        }
    }

    fn disarm_timeout(&self, req: &PendingRequest) {
        if let Some(t) = &req.timeout {
            if let Ok(shared) = self.shared() {
                shared.timer.cancel(t);
            }
        }
    }

    /// Fail one outstanding request with `err` (response timeout, or a
    /// transport send error observed synchronously).
    fn fail_token(&self, token: u64, err: Error) {
        let req = self.pending.lock().remove(&token);
        if let Some(req) = req {
            self.disarm_timeout(&req);
            req.promise.set_error(err);
        }
    }

    /// The peer `peer` is gone: fail every outstanding request addressed
    /// to it with [`Error::PeerLost`] so blocked callers resume instead
    /// of hanging (and `Cluster::wait_idle` stops spinning on orphaned
    /// tokens).
    pub(crate) fn fail_pending_to(&self, peer: u32) {
        let drained: Vec<PendingRequest> = {
            let mut pend = self.pending.lock();
            let tokens: Vec<u64> = pend
                .iter()
                .filter(|(_, r)| r.dest == peer)
                .map(|(t, _)| *t)
                .collect();
            tokens.into_iter().filter_map(|t| pend.remove(&t)).collect()
        };
        for req in drained {
            self.disarm_timeout(&req);
            req.promise.set_error(Error::PeerLost(peer));
        }
    }
}

pub(crate) struct ClusterShared {
    /// The localities this process hosts: ranks `first..first + len`.
    localities: Vec<Arc<Locality>>,
    first: usize,
    /// Ranks in the whole cluster, hosted here or not.
    ranks: usize,
    agas: AgasService,
    actions: ActionRegistry,
    migration: MigrationRegistry,
    timer: TimerWheel,
    delay: RwLock<Option<DelayFn>>,
    /// If set, remote calls fail with [`Error::ResponseTimeout`] when no
    /// response arrives in time.
    response_timeout: RwLock<Option<Duration>>,
    /// One "system" component per rank: the target GID for
    /// locality-wide (collective) actions.
    system_gids: Vec<Gid>,
}

/// Marker component representing "the locality itself" — the target of
/// collective actions like [`Cluster::broadcast`].
pub struct SystemComponent;

impl ClusterShared {
    /// The locality of rank `rank`, or [`Error::UnknownLocality`] if this
    /// process does not host it.
    fn hosted(&self, rank: usize) -> Result<&Arc<Locality>> {
        rank.checked_sub(self.first)
            .and_then(|i| self.localities.get(i))
            .ok_or(Error::UnknownLocality(rank as u32))
    }

    /// Every hosted locality's parcelport (none in an in-process cluster).
    fn ports(&self) -> Vec<Arc<dyn Parcelport>> {
        self.localities
            .iter()
            .filter_map(|l| l.port.get().cloned())
            .collect()
    }

    fn send(self: &Arc<Self>, parcel: Parcel) {
        let delay = self.delay.read().as_ref().map(|d| d(&parcel));
        match delay {
            Some(d) if d > Duration::ZERO => {
                let weak = Arc::downgrade(self);
                self.timer.schedule(d, move || {
                    if let Some(shared) = weak.upgrade() {
                        ClusterShared::transmit(&shared, parcel);
                    }
                });
            }
            _ => ClusterShared::transmit(self, parcel),
        }
    }

    /// Hand the parcel to the source locality's parcelport (self-sends
    /// and port-less clusters skip the transport — no loopback socket
    /// hop even under TCP). A synchronous transport failure fails the
    /// caller's pending request with the typed error instead of letting
    /// it hang.
    fn transmit(self: &Arc<Self>, parcel: Parcel) {
        let src = self
            .hosted(parcel.source as usize)
            .expect("parcels leave from hosted localities");
        let port = match src.port.get() {
            Some(port) if parcel.source != parcel.dest_locality => port,
            _ => return ClusterShared::deliver(self, parcel, src),
        };
        let (action, token) = (parcel.action, parcel.response_token);
        if let Err(e) = port.send(parcel) {
            match token {
                // A request: fail it so the caller gets the typed error
                // immediately.
                Some(tok) if action != RESPONSE_ACTION => src.fail_token(tok, e),
                // Fire-and-forget or an undeliverable response (the
                // requester's own peer-loss handling covers the latter):
                // nobody to tell, so count the drop.
                _ => {
                    src.dropped_send_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Spawn the parcel's handler on its destination locality; `observer`
    /// is the locality that holds the parcel and counts it if dropped.
    fn deliver(self: &Arc<Self>, parcel: Parcel, observer: &Locality) {
        let Ok(dest) = self.hosted(parcel.dest_locality as usize).cloned() else {
            observer
                .dropped_unknown_locality
                .fetch_add(1, Ordering::Relaxed);
            return;
        };
        let shared = self.clone();
        let dest2 = dest.clone();
        let task = Task::new(move || {
            shared.handle(dest2.clone(), parcel);
        })
        .with_priority(Priority::High);
        dest.runtime.spawn_task(task);
    }

    fn handle(self: &Arc<Self>, dest: Arc<Locality>, parcel: Parcel) {
        dest.runtime
            .counters()
            .parcels_received
            .fetch_add(1, Ordering::Relaxed);
        let tracer = dest.runtime.tracer();
        let recv_start = tracer.is_enabled().then(std::time::Instant::now);
        let action = parcel.action;
        if parcel.action == RESPONSE_ACTION {
            let token = parcel.response_token.expect("response parcels carry a token");
            let result: std::result::Result<Vec<u8>, String> =
                serialize::from_bytes(&parcel.payload).unwrap_or_else(|e| Err(e.to_string()));
            dest.complete_response(token, result);
        } else {
            let outcome: std::result::Result<Vec<u8>, String> =
                match self.actions.get(parcel.action) {
                    Ok(handler) => run_handler(&handler, &dest, parcel.dest, &parcel.payload),
                    Err(e) => Err(e.to_string()),
                };
            if let Some(token) = parcel.response_token {
                let payload =
                    serialize::to_bytes(&outcome).expect("Result<Vec<u8>,String> serializes");
                let response = Parcel {
                    source: parcel.dest_locality,
                    dest_locality: parcel.source,
                    dest: parcel.dest,
                    action: RESPONSE_ACTION,
                    payload: Bytes::from(payload),
                    response_token: Some(token),
                };
                // Responses are parcels too: count them as sent so
                // Σsent == Σreceived holds across the cluster.
                dest.runtime
                    .counters()
                    .parcels_sent
                    .fetch_add(1, Ordering::Relaxed);
                trace_parcel(&dest.runtime, EventKind::ParcelSend, RESPONSE_ACTION);
                ClusterShared::send(self, response);
            } else if outcome.is_err() {
                // Fire-and-forget: nobody to tell, so count the drop.
                dest.dropped_handler_failed.fetch_add(1, Ordering::Relaxed);
                trace_parcel(&dest.runtime, EventKind::User("parcel-dropped"), action);
            }
        }
        if let Some(t0) = recv_start {
            let lane = dest
                .runtime
                .current_worker()
                .unwrap_or_else(|| tracer.external_lane());
            tracer.span(
                lane,
                EventKind::ParcelRecv,
                t0,
                std::time::Instant::now(),
                action as u64,
            );
        }
    }
}

fn run_handler(
    handler: &ActionFn,
    dest: &Arc<Locality>,
    gid: Gid,
    payload: &[u8],
) -> std::result::Result<Vec<u8>, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(dest, gid, payload))) {
        Ok(Ok(bytes)) => Ok(bytes),
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(format!("action panicked: {}", crate::util::panic_message(&*p))),
    }
}

/// A set of localities sharing an AGAS and exchanging parcels.
///
/// A cluster has `len()` ranks, of which this process hosts a contiguous
/// range: all of them, except under [`Cluster::host`]. The processes of
/// one cluster run SPMD: each registers the same actions and makes the
/// same cluster calls ([`Cluster::new_component`], solver construction)
/// in the same order. A process allocates GIDs on ranks it does not host
/// too, storing nothing, so a GID names the same component everywhere.
#[derive(Clone)]
pub struct Cluster {
    shared: Arc<ClusterShared>,
}

impl Cluster {
    /// Build a cluster of `localities` nodes with `threads_each` workers
    /// per locality.
    pub fn new(localities: usize, threads_each: usize) -> Cluster {
        Cluster::with_scheduler(localities, threads_each, SchedulerPolicy::LocalPriority)
    }

    /// [`Cluster::new`] with an explicit scheduling policy per locality.
    pub fn with_scheduler(
        localities: usize,
        threads_each: usize,
        policy: SchedulerPolicy,
    ) -> Cluster {
        Cluster::build(localities, 0..localities, threads_each, policy, None)
            .expect("an in-process cluster binds no transport")
    }

    /// Host ranks `hosted` of a `ranks`-rank cluster, each over its own
    /// parcelport `stack` listening on loopback, with each layer's
    /// counters on its locality's registry. [`Cluster::connect`] wires
    /// the mesh.
    ///
    /// # Panics
    /// Panics if `hosted` is empty or reaches past `ranks`.
    pub fn host(
        ranks: usize,
        hosted: Range<usize>,
        threads_each: usize,
        stack: &Stack,
    ) -> Result<Cluster> {
        Cluster::build(ranks, hosted, threads_each, SchedulerPolicy::LocalPriority, Some(stack))
    }

    /// The one construction path: runtimes, system components and, given
    /// a `stack`, the parcelports of the hosted localities.
    fn build(
        ranks: usize,
        hosted: Range<usize>,
        threads_each: usize,
        policy: SchedulerPolicy,
        stack: Option<&Stack>,
    ) -> Result<Cluster> {
        assert!(ranks > 0, "need at least one locality");
        assert!(
            !hosted.is_empty() && hosted.end <= ranks,
            "hosted ranks {hosted:?} must be a non-empty part of 0..{ranks}"
        );
        let chaos = stack.and_then(|s| match s {
            Stack::Chaos(spec) => Some(spec.clone()),
            _ => None,
        });
        let locs: Vec<Arc<Locality>> = hosted
            .clone()
            .map(|rank| {
                let id = rank as u32;
                Arc::new(Locality {
                    id,
                    runtime: Runtime::builder()
                        .worker_threads(threads_each)
                        .scheduler(policy)
                        .thread_name(format!("loc{id}"))
                        .locality_id(id)
                        .build(),
                    components: ComponentStore::new(),
                    cluster: RwLock::new(Weak::new()),
                    pending: Mutex::new(HashMap::new()),
                    next_token: AtomicU64::new(1),
                    health: PeerHealth::new(),
                    port: OnceLock::new(),
                    tcp: OnceLock::new(),
                    chaos: chaos.clone(),
                    injected_panics: Arc::new(AtomicU64::new(0)),
                    dropped_send_failed: Arc::new(AtomicU64::new(0)),
                    dropped_unknown_locality: Arc::new(AtomicU64::new(0)),
                    dropped_handler_failed: Arc::new(AtomicU64::new(0)),
                })
            })
            .collect();
        let agas = AgasService::new();
        let system_gids: Vec<Gid> = (0..ranks).map(|i| agas.allocate(i as u32)).collect();
        let shared = Arc::new(ClusterShared {
            localities: locs,
            first: hosted.start,
            ranks,
            agas,
            actions: ActionRegistry::new(),
            migration: MigrationRegistry::new(),
            timer: TimerWheel::new(),
            delay: RwLock::new(None),
            response_timeout: RwLock::new(None),
            system_gids,
        });
        for loc in &shared.localities {
            *loc.cluster.write() = Arc::downgrade(&shared);
            loc.components
                .insert(shared.system_gids[loc.id as usize], SystemComponent);
            let reg = loc.runtime.counter_registry();
            let mut counters = vec![
                ("parcels", "count/dropped/send-failed", &loc.dropped_send_failed),
                (
                    "parcels",
                    "count/dropped/unknown-locality",
                    &loc.dropped_unknown_locality,
                ),                (
                    "parcels",
                    "count/dropped/handler-failed",
                    &loc.dropped_handler_failed,
                ),
            ];
            if loc.chaos.is_some() {
                counters.push(("chaos", "count/injected-panics", &loc.injected_panics));
            }
            for (object, name, counter) in counters {
                let counter = counter.clone();
                reg.register(
                    CounterPath::new(object, loc.id, Instance::Total, name),
                    move || counter.load(Ordering::Relaxed),
                );
            }
            if let Some(stack) = stack {
                let (port, tcp) = build_stack(loc.id, stack, Self::delivery_sink(&shared, loc.id))?;
                port.clone().register_counters(reg, loc.id);
                let _ = loc.port.set(port);
                let _ = loc.tcp.set(tcp);
            }
        }
        Ok(Cluster { shared })
    }

    /// The sink a locality's parcelport drives: inbound parcels enter the
    /// delivery path; a lost peer fails the locality's pending requests.
    fn delivery_sink(shared: &Arc<ClusterShared>, owner: u32) -> PortSink {
        let weak = Arc::downgrade(shared);
        Arc::new(move |ev| {
            let Some(shared) = weak.upgrade() else { return };
            let loc = shared.hosted(owner as usize).expect("a stack's owner is hosted");
            match ev {
                PortEvent::Deliver(p) => ClusterShared::deliver(&shared, p, loc),
                PortEvent::PeerLost(peer) => loc.fail_pending_to(peer),
            }
        })
    }

    /// The one mesh connect: every hosted locality connects to every
    /// other rank `j` at `endpoints[j]`. Call once, after every rank's
    /// stack listens. Does nothing for an in-process cluster.
    ///
    /// # Panics
    /// Panics unless there is one endpoint per rank.
    pub fn connect(&self, endpoints: &[SocketAddr]) -> Result<()> {
        assert_eq!(endpoints.len(), self.len(), "one endpoint per rank");
        for loc in &self.shared.localities {
            let Some(tcp) = loc.tcp.get() else { continue };
            for (j, addr) in endpoints.iter().enumerate() {
                if j != loc.id as usize {
                    tcp.connect_peer(j as u32, *addr)?;
                }
            }
        }
        Ok(())
    }

    /// Host every rank over `stack` and connect them to each other.
    fn with_stack(localities: usize, threads_each: usize, stack: &Stack) -> Result<Cluster> {
        let c = Cluster::host(localities, 0..localities, threads_each, stack)?;
        let endpoints: Vec<SocketAddr> = c
            .localities()
            .iter()
            .map(|l| l.endpoint().expect("a stack listens"))
            .collect();
        c.connect(&endpoints)?;
        Ok(c)
    }

    /// A cluster whose every inter-locality parcel crosses a loopback
    /// socket: TCP parcelports with framing and coalescing. The
    /// network-delay model still composes on top (delays apply before a
    /// parcel is handed to the port).
    ///
    /// # Panics
    /// Panics if loopback listeners cannot be bound.
    pub fn new_tcp(localities: usize, threads_each: usize) -> Cluster {
        Cluster::with_stack(localities, threads_each, &Stack::Tcp)
            .expect("TCP parcelport on loopback")
    }

    /// A cluster over the resilient TCP stack — the chaos-run entry point
    /// used by `repro --chaos`. Every inter-locality parcel is sequenced,
    /// acked and retransmitted by the reliable layer; with `chaos` set, a
    /// fault injector below it applies the seeded schedule (drop /
    /// duplicate / delay-reorder / bit-corruption), one decorrelated
    /// stream per locality, and solvers inject the spec's task panics
    /// (see [`Locality::injected_panic_steps`]). Resilience counters
    /// (`/resilience{locality#L/total}/...`) and, under chaos,
    /// `/chaos{...}/count/injected-*` register on each locality.
    ///
    /// # Panics
    /// Panics if loopback listeners cannot be bound.
    pub fn new_resilient(
        localities: usize,
        threads_each: usize,
        chaos: Option<ChaosSpec>,
    ) -> Cluster {
        let stack = chaos.map_or(Stack::Reliable, Stack::Chaos);
        Cluster::with_stack(localities, threads_each, &stack)
            .expect("resilient TCP parcelport on loopback")
    }

    /// Fail remote calls whose response does not arrive within `d`
    /// (typed [`Error::ResponseTimeout`]); the timer is disarmed when
    /// the response wins the race.
    pub fn set_response_timeout(&self, d: Duration) {
        *self.shared.response_timeout.write() = Some(d);
    }

    /// Remove the response timeout.
    pub fn clear_response_timeout(&self) {
        *self.shared.response_timeout.write() = None;
    }

    /// Fault injection: sever locality `i` from the cluster as if its
    /// node died — its whole parcelport stack shuts down, closing its
    /// listener and connections, and every peer's outstanding requests
    /// toward it fail with [`Error::PeerLost`]. Does nothing when the
    /// cluster exchanges parcels in-process or does not host rank `i`.
    pub fn disconnect_locality(&self, i: usize) {
        if let Some(port) = self.shared.hosted(i).ok().and_then(|l| l.port.get()) {
            port.shutdown();
        }
    }

    /// Number of ranks, hosted in this process or not.
    pub fn len(&self) -> usize {
        self.shared.ranks
    }

    /// Whether the cluster has no localities (never true; see
    /// [`Cluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get the locality of rank `i`.
    ///
    /// # Panics
    /// Panics if this process does not host rank `i`.
    pub fn locality(&self, i: usize) -> Arc<Locality> {
        self.shared.hosted(i).expect("rank hosted in this process").clone()
    }

    /// The localities this process hosts, in rank order.
    pub fn localities(&self) -> &[Arc<Locality>] {
        &self.shared.localities
    }

    /// The shared AGAS directory.
    pub fn agas(&self) -> &AgasService {
        &self.shared.agas
    }

    /// Register an action handler cluster-wide.
    pub fn register_action(
        &self,
        id: ActionId,
        name: &'static str,
        f: impl Fn(&Arc<Locality>, Gid, &[u8]) -> Result<Vec<u8>> + Send + Sync + 'static,
    ) {
        self.shared.actions.register(id, name, f);
    }

    /// Install a per-parcel network delay model (None of delay ⇒ immediate
    /// shared-memory delivery).
    pub fn set_network_delay(&self, f: DelayFn) {
        *self.shared.delay.write() = Some(f);
    }

    /// Remove the network delay model.
    pub fn clear_network_delay(&self) {
        *self.shared.delay.write() = None;
    }

    /// Register `T` as migratable (required before [`Cluster::migrate`]).
    pub fn register_migratable<T>(&self)
    where
        T: Serialize + DeserializeOwned + Send + Sync + 'static,
    {
        self.shared.migration.register::<T>();
    }

    /// Create a component on rank `locality` and register it in AGAS. On
    /// a rank another process hosts this only allocates the GID, the same
    /// one that process allocates when it stores the object (see
    /// [`Cluster`]).
    ///
    /// # Panics
    /// Panics if `locality` is not a rank of the cluster.
    pub fn new_component<T: Send + Sync + 'static>(&self, locality: usize, obj: T) -> Gid {
        assert!(locality < self.len(), "no rank {locality} in a {}-rank cluster", self.len());
        let gid = self.shared.agas.allocate(locality as u32);
        if let Ok(loc) = self.shared.hosted(locality) {
            loc.components.insert(gid, obj);
        }
        gid
    }

    /// Read a component on a hosted locality (shared-memory shortcut;
    /// remote reads would be an action).
    pub fn get_component<T: Send + Sync + 'static>(&self, gid: Gid) -> Result<Arc<T>> {
        let rank = self.shared.agas.resolve(gid)?;
        self.shared.hosted(rank as usize)?.components.get(gid)
    }

    /// Move a component to another hosted locality, keeping its GID valid
    /// — the AGAS migration the paper's Section III-B describes.
    /// Migration to or from a rank this process does not host fails with
    /// [`Error::UnknownLocality`].
    pub fn migrate(&self, gid: Gid, dest: usize) -> Result<()> {
        let to = self.shared.hosted(dest)?;
        let src = self.shared.agas.resolve(gid)?;
        if src as usize == dest {
            return Ok(());
        }
        let from = self.shared.hosted(src as usize)?;
        let (obj, type_name) = from.components.take(gid)?;
        let bytes = match self.shared.migration.serialize(type_name, obj.as_ref()) {
            Ok(b) => b,
            Err(e) => {
                // Roll back: the object stays where it was.
                from.components.insert_any(gid, obj, type_name);
                return Err(e);
            }
        };
        let rebuilt = self.shared.migration.deserialize(type_name, &bytes)?;
        to.components.insert_any(gid, rebuilt, type_name);
        self.shared.agas.rebind(gid, dest as u32)?;
        Ok(())
    }

    /// The system GID of a locality — the target for locality-wide
    /// actions.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn system_gid(&self, locality: usize) -> Gid {
        self.shared.system_gids[locality]
    }

    /// Collective: run `action` on *every* rank (rooted at the first
    /// hosted locality) and gather the decoded results in rank order — an
    /// HPX `broadcast`/`gather` over parcels.
    pub fn broadcast<A, R>(&self, action: ActionId, arg: &A) -> Result<crate::lcos::future::Future<Vec<R>>>
    where
        A: Serialize,
        R: DeserializeOwned + Send + 'static,
    {
        let root = &self.shared.localities[0];
        let futures = (0..self.len())
            .map(|i| root.call::<A, R>(self.system_gid(i), action, arg))
            .collect::<Result<Vec<_>>>()?;
        Ok(crate::lcos::future::when_all(futures))
    }

    /// Collective: [`Cluster::broadcast`] then fold the per-locality
    /// results with `op` — an all-reduce as seen from the caller.
    pub fn reduce_all<A, R>(
        &self,
        action: ActionId,
        arg: &A,
        op: impl Fn(R, R) -> R + Send + 'static,
    ) -> Result<crate::lcos::future::Future<R>>
    where
        A: Serialize,
        R: DeserializeOwned + Send + 'static,
    {
        Ok(self.broadcast::<A, R>(action, arg)?.then(move |vals| {
            vals.into_iter()
                .reduce(&op)
                .expect("clusters have at least one locality")
        }))
    }

    /// Block until every hosted locality's runtime is idle and nothing
    /// waits in the timer wheel or a parcelport queue. When this process
    /// hosts every rank, also wait until every parcel sent has been
    /// delivered; a process hosting some ranks cannot see its peers'
    /// ledgers.
    pub fn wait_idle(&self) {
        let ports = self.shared.ports();
        let hosts_all = self.shared.localities.len() == self.shared.ranks;
        loop {
            for loc in &self.shared.localities {
                loc.runtime.wait_idle();
            }
            // Parcels in the timer wheel, queued in a parcelport or on the
            // wire may spawn more work when they land; only stop once
            // nothing is pending anywhere.
            let busy = self.shared.timer.pending() > 0
                || ports.iter().any(|p| p.pending() > 0)
                || (hosts_all && in_flight(&ports) > 0)
                || self
                    .shared
                    .localities
                    .iter()
                    .any(|l| l.runtime.outstanding() > 0);
            if !busy {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Shut down the hosted localities' runtimes (quiescing the transport
    /// first, so no late parcels land on stopping runtimes).
    pub fn shutdown(&self) {
        for port in self.shared.ports() {
            port.shutdown();
        }
        for loc in &self.shared.localities {
            loc.runtime.shutdown();
        }
    }

    /// Merge every hosted locality's counter registry into one snapshot
    /// (paths are disjoint because each locality registers under its own
    /// `locality#N` instance).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        CounterSnapshot::merge(
            self.shared
                .localities
                .iter()
                .map(|l| l.runtime.counter_snapshot()),
        )
    }

    /// Start structured tracing on every hosted locality's runtime.
    pub fn start_trace(&self) {
        for loc in &self.shared.localities {
            loc.runtime.tracer().start();
        }
    }

    /// Stop tracing on the hosted localities and return `(locality id,
    /// trace)` pairs, ready for [`crate::introspect::chrome_trace_json`]
    /// (which aligns the per-runtime epochs onto one timeline) or
    /// [`crate::introspect::analyze()`].
    pub fn stop_trace(&self) -> Vec<(u32, Trace)> {
        self.shared
            .localities
            .iter()
            .map(|l| (l.id, l.runtime.tracer().stop()))
            .collect()
    }

    /// Serve the merged counter snapshot of the hosted localities
    /// (including latency quantiles) in Prometheus text format. The
    /// closure captures only the counter registries, so the endpoint
    /// does not keep worker threads alive beyond the cluster itself.
    pub fn serve_metrics<A: std::net::ToSocketAddrs>(
        &self,
        addr: A,
    ) -> std::io::Result<MetricsServer> {
        let registries: Vec<_> = self
            .shared
            .localities
            .iter()
            .map(|l| l.runtime.counter_registry().clone())
            .collect();
        MetricsServer::bind(
            addr,
            Arc::new(move || {
                prometheus_text(&CounterSnapshot::merge(
                    registries.iter().map(|r| r.snapshot()),
                ))
            }),
        )
    }

    /// Start the heartbeat failure-detection protocol: every `interval`
    /// each hosted locality pings every other rank with a
    /// [`HEARTBEAT_ACTION`] parcel (sent *around* the reliable layer — a
    /// healed liveness probe would be a lie), and a monitor thread
    /// re-scores every hosted [`PeerHealth`] table, walking silent peers
    /// Alive → Suspect → Dead.
    ///
    /// Registers, per hosted locality: `/resilience{locality#L/total}/`
    /// `count/heartbeats-sent`, `count/heartbeat-misses`, and one
    /// `peer#P/state` gauge per peer (0 = alive, 1 = suspect, 2 = dead).
    /// State transitions are traced as [`EventKind::User`]
    /// `"peer-state"` instants (`arg = peer << 8 | state`).
    ///
    /// Call at most once per cluster (action and counter registration
    /// are not idempotent). Returns a handle that stops the monitor when
    /// dropped.
    pub fn start_heartbeat(&self, cfg: HeartbeatConfig) -> HeartbeatHandle {
        let ranks = self.len();
        self.register_action(HEARTBEAT_ACTION, "heartbeat", |loc, _gid, payload| {
            let src: u32 = serialize::from_bytes(payload)?;
            // Heartbeats bypass the reliable layer's checksum, so a
            // chaos-corrupted sender id can arrive; don't let it invent
            // a phantom peer.
            if (src as usize) >= loc.shared()?.ranks {
                return Ok(Vec::new());
            }
            let prev = loc.health.record_heartbeat(src);
            if prev == PeerState::Dead {
                let tracer = loc.runtime.tracer();
                if tracer.is_enabled() {
                    tracer.instant(
                        tracer.external_lane(),
                        EventKind::User("peer-recovered"),
                        src as u64,
                    );
                }
            }
            Ok(Vec::new())
        });
        // One slot per hosted locality, in `localities()` order.
        let hosted = self.localities().len();
        let beats: Arc<Vec<AtomicU64>> =
            Arc::new((0..hosted).map(|_| AtomicU64::new(0)).collect());
        let misses: Arc<Vec<AtomicU64>> =
            Arc::new((0..hosted).map(|_| AtomicU64::new(0)).collect());
        for (k, loc) in self.localities().iter().enumerate() {
            let i = loc.id;
            let reg = loc.runtime.counter_registry();
            let b = beats.clone();
            reg.register(
                CounterPath::new("resilience", i, Instance::Total, "count/heartbeats-sent"),
                move || b[k].load(Ordering::Relaxed),
            );
            let m = misses.clone();
            reg.register(
                CounterPath::new("resilience", i, Instance::Total, "count/heartbeat-misses"),
                move || m[k].load(Ordering::Relaxed),
            );
            for j in (0..ranks as u32).filter(|&j| j != i) {
                let weak = Arc::downgrade(loc);
                reg.register(
                    CounterPath::new("resilience", i, Instance::Total, format!("peer#{j}/state")),
                    move || {
                        weak.upgrade()
                            .and_then(|l| l.health.state(j))
                            .map_or(0, PeerState::as_u64)
                    },
                );
            }
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            let weak = Arc::downgrade(&self.shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("parallex-heartbeat".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let Some(shared) = weak.upgrade() else { return };
                        for (k, loc) in shared.localities.iter().enumerate() {
                            for j in (0..shared.ranks).filter(|&j| j != loc.id as usize) {
                                // A send failure (peer gone) is itself a
                                // missed heartbeat; the detector handles it.
                                if loc
                                    .apply(shared.system_gids[j], HEARTBEAT_ACTION, &loc.id)
                                    .is_ok()
                                {
                                    beats[k].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        for (k, loc) in shared.localities.iter().enumerate() {
                            let report = loc.health.evaluate(&cfg);
                            if report.new_misses > 0 {
                                misses[k].fetch_add(report.new_misses, Ordering::Relaxed);
                            }
                            let tracer = loc.runtime.tracer();
                            if tracer.is_enabled() {
                                for (peer, _old, new) in report.transitions {
                                    tracer.instant(
                                        tracer.external_lane(),
                                        EventKind::User("peer-state"),
                                        ((peer as u64) << 8) | new.as_u64(),
                                    );
                                }
                            }
                        }
                        drop(shared);
                        std::thread::sleep(cfg.interval);
                    }
                })
                .expect("spawn heartbeat monitor thread")
        };
        HeartbeatHandle { stop, thread: Some(thread) }
    }
}

/// Stops the heartbeat monitor started by [`Cluster::start_heartbeat`]
/// when dropped (or explicitly via [`HeartbeatHandle::stop`]).
pub struct HeartbeatHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatHandle {
    /// Stop the monitor thread and wait for it to exit.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ECHO: ActionId = 1;
    const ADD_TO: ActionId = 2;
    const WHERE_AM_I: ActionId = 3;

    fn cluster() -> Cluster {
        with_actions(Cluster::new(3, 2))
    }

    fn tcp_cluster() -> Cluster {
        with_actions(Cluster::new_tcp(3, 2))
    }

    /// Sum of the locality-total counter `/{object}{locality#*/total}/{name}`.
    fn total(c: &Cluster, object: &str, name: &str) -> u64 {
        c.counter_snapshot()
            .iter()
            .filter(|(p, _)| p.object == object && p.instance == Instance::Total && p.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    fn with_actions(c: Cluster) -> Cluster {
        c.register_action(ECHO, "echo", |_, _, payload| Ok(payload.to_vec()));
        c.register_action(ADD_TO, "add_to", |loc, gid, payload| {
            let x: i64 = serialize::from_bytes(payload)?;
            let cell = loc.components().get::<Mutex<i64>>(gid)?;
            let mut g = cell.lock();
            *g += x;
            serialize::to_bytes(&*g)
        });
        c.register_action(WHERE_AM_I, "where_am_i", |loc, _, _| {
            serialize::to_bytes(&loc.id())
        });
        c
    }

    #[test]
    fn echo_roundtrip_between_localities() {
        let c = cluster();
        let gid = c.new_component(2, ());
        let f = c
            .locality(0)
            .call::<String, String>(gid, ECHO, &"hello".to_string())
            .unwrap();
        assert_eq!(f.get(), "hello");
        c.shutdown();
    }

    #[test]
    fn action_runs_at_the_data() {
        let c = cluster();
        let gid = c.new_component(1, ());
        let f = c.locality(0).call::<(), u32>(gid, WHERE_AM_I, &()).unwrap();
        assert_eq!(f.get(), 1, "action must execute on the owning locality");
        c.shutdown();
    }

    #[test]
    fn apply_fire_and_forget_mutates_component() {
        let c = cluster();
        let gid = c.new_component(1, Mutex::new(0i64));
        for _ in 0..10 {
            c.locality(0).apply(gid, ADD_TO, &5i64).unwrap();
        }
        c.wait_idle();
        let cell = c.get_component::<Mutex<i64>>(gid).unwrap();
        assert_eq!(*cell.lock(), 50);
        c.shutdown();
    }

    #[test]
    fn unknown_action_surfaces_as_remote_error() {
        let c = cluster();
        let gid = c.new_component(0, ());
        let f = c.locality(1).call::<(), ()>(gid, 99, &()).unwrap();
        assert!(matches!(f.try_get(), Err(Error::RemoteError(_))));
        c.shutdown();
    }

    #[test]
    fn panicking_action_surfaces_as_remote_error() {
        let c = cluster();
        c.register_action(50, "boom", |_, _, _| panic!("kaboom"));
        let gid = c.new_component(0, ());
        let f = c.locality(1).async_action_raw(gid, 50, &()).unwrap();
        match f.try_get() {
            Err(Error::RemoteError(m)) => assert!(m.contains("kaboom")),
            other => panic!("{other:?}"),
        }
        c.shutdown();
    }

    #[test]
    fn migration_preserves_gid_and_state() {
        let c = cluster();
        c.register_migratable::<Vec<f64>>();
        let gid = c.new_component(0, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(c.agas().resolve(gid).unwrap(), 0);
        c.migrate(gid, 2).unwrap();
        assert_eq!(c.agas().resolve(gid).unwrap(), 2);
        let v = c.get_component::<Vec<f64>>(gid).unwrap();
        assert_eq!(*v, vec![1.0, 2.0, 3.0]);
        assert!(c.locality(2).components().contains(gid));
        assert!(!c.locality(0).components().contains(gid));
        c.shutdown();
    }

    #[test]
    fn migrating_unregistered_type_fails_and_rolls_back() {
        let c = cluster();
        let gid = c.new_component(0, Mutex::new(1i64));
        assert!(c.migrate(gid, 1).is_err());
        assert_eq!(c.agas().resolve(gid).unwrap(), 0, "stays at source");
        assert!(c.locality(0).components().contains(gid), "rolled back");
        c.shutdown();
    }

    #[test]
    fn actions_follow_migrated_components() {
        let c = cluster();
        c.register_migratable::<Vec<f64>>();
        let gid = c.new_component(0, ());
        // WHERE_AM_I reports the executing locality, which must track the
        // component's residence.
        c.register_migratable::<()>();
        let f = c.locality(1).call::<(), u32>(gid, WHERE_AM_I, &()).unwrap();
        assert_eq!(f.get(), 0);
        c.migrate(gid, 2).unwrap();
        let f = c.locality(1).call::<(), u32>(gid, WHERE_AM_I, &()).unwrap();
        assert_eq!(f.get(), 2);
        c.shutdown();
    }

    #[test]
    fn delayed_parcels_still_arrive() {
        let c = cluster();
        c.set_network_delay(Arc::new(|_p| Duration::from_millis(2)));
        let gid = c.new_component(1, ());
        let t = crate::util::HighResolutionTimer::new();
        let f = c
            .locality(0)
            .call::<String, String>(gid, ECHO, &"delayed".to_string())
            .unwrap();
        assert_eq!(f.get(), "delayed");
        // Request + response each pay the delay.
        assert!(t.elapsed() >= 0.004, "{}", t.elapsed());
        c.shutdown();
    }

    #[test]
    fn parcel_counters_advance() {
        let c = cluster();
        let gid = c.new_component(1, ());
        let f = c.locality(0).call::<(), u32>(gid, WHERE_AM_I, &()).unwrap();
        f.get();
        let sent = c.locality(0).runtime().counters().parcels_sent.load(Ordering::Relaxed);
        assert!(sent >= 1);
        c.shutdown();
    }

    #[test]
    fn broadcast_reaches_every_locality() {
        let c = cluster();
        let ids: Vec<u32> = c.broadcast::<(), u32>(WHERE_AM_I, &()).unwrap().get();
        assert_eq!(ids, vec![0, 1, 2]);
        c.shutdown();
    }

    #[test]
    fn reduce_all_folds_results() {
        let c = cluster();
        let sum = c
            .reduce_all::<(), u32>(WHERE_AM_I, &(), |a, b| a + b)
            .unwrap()
            .get();
        assert_eq!(sum, 3); // 0 + 1 + 2
        c.shutdown();
    }

    #[test]
    fn system_gids_resolve_to_their_locality() {
        let c = cluster();
        for i in 0..c.len() {
            assert_eq!(c.agas().resolve(c.system_gid(i)).unwrap(), i as u32);
        }
        c.shutdown();
    }

    #[test]
    fn parcel_conservation_on_loopback_cluster() {
        // Every parcel sent anywhere (requests AND responses) must be
        // received somewhere: Σsent == Σreceived once the cluster idles.
        let c = cluster();
        let gid = c.new_component(1, Mutex::new(0i64));
        for _ in 0..20 {
            c.locality(0).apply(gid, ADD_TO, &1i64).unwrap();
        }
        let fs: Vec<_> = (0..10)
            .map(|i| {
                c.locality(i % 3)
                    .call::<(), u32>(c.system_gid((i + 1) % 3), WHERE_AM_I, &())
                    .unwrap()
            })
            .collect();
        for f in fs {
            f.get();
        }
        let _ = c.broadcast::<(), u32>(WHERE_AM_I, &()).unwrap().get();
        c.wait_idle();
        let (mut sent, mut received) = (0usize, 0usize);
        for loc in c.localities() {
            let snap = loc.runtime().perf_snapshot();
            sent += snap.parcels_sent;
            received += snap.parcels_received;
        }
        assert!(sent >= 20 + 2 * 10, "sent {sent}");
        assert_eq!(sent, received, "parcel conservation violated");
        // the same identity through the hierarchical registry schema
        let snap = c.counter_snapshot();
        let sum = |name: &str| -> u64 {
            snap.iter()
                .filter(|(p, _)| p.object == "parcels" && p.name == name)
                .map(|(_, v)| v)
                .sum()
        };
        assert_eq!(sum("count/sent"), sent as u64);
        assert_eq!(sum("count/received"), received as u64);
        c.shutdown();
    }

    #[test]
    fn cluster_trace_spans_localities() {
        let c = cluster();
        c.start_trace();
        let gid = c.new_component(1, Mutex::new(0i64));
        for _ in 0..5 {
            c.locality(0).apply(gid, ADD_TO, &1i64).unwrap();
        }
        c.locality(0)
            .call::<(), u32>(c.system_gid(2), WHERE_AM_I, &())
            .unwrap()
            .get();
        c.wait_idle();
        let traces = c.stop_trace();
        assert_eq!(traces.len(), 3);
        let sends: usize = traces
            .iter()
            .map(|(_, t)| t.of_kind(crate::introspect::EventKind::ParcelSend).count())
            .sum();
        let recvs: usize = traces
            .iter()
            .map(|(_, t)| t.of_kind(crate::introspect::EventKind::ParcelRecv).count())
            .sum();
        assert!(sends >= 6, "sends {sends}");
        assert!(recvs >= 6, "recvs {recvs}");
        // locality 1 saw the applies arrive as ParcelRecv spans
        let loc1 = &traces[1].1;
        assert!(loc1.of_kind(crate::introspect::EventKind::ParcelRecv).count() >= 5);
        for (_, t) in &traces {
            t.check_well_nested().unwrap();
        }
        c.shutdown();
    }

    #[test]
    fn self_send_works() {
        let c = cluster();
        let gid = c.new_component(0, ());
        let f = c.locality(0).call::<(), u32>(gid, WHERE_AM_I, &()).unwrap();
        assert_eq!(f.get(), 0);
        c.shutdown();
    }

    // ---- TCP transport -------------------------------------------------

    #[test]
    fn tcp_echo_roundtrip_crosses_real_sockets() {
        let c = tcp_cluster();
        let gid = c.new_component(2, ());
        let f = c
            .locality(0)
            .call::<String, String>(gid, ECHO, &"over tcp".to_string())
            .unwrap();
        assert_eq!(f.get(), "over tcp");
        // The request and its response really went over the wire.
        let wire_parcels = total(&c, "parcels", "count/wire-sent");
        assert!(wire_parcels >= 2, "request + response on sockets, got {wire_parcels}");
        assert!(total(&c, "parcels", "bytes/sent") > 0);
        c.shutdown();
    }

    #[test]
    fn tcp_broadcast_and_collectives_work() {
        let c = tcp_cluster();
        let ids: Vec<u32> = c.broadcast::<(), u32>(WHERE_AM_I, &()).unwrap().get();
        assert_eq!(ids, vec![0, 1, 2]);
        let sum = c
            .reduce_all::<(), u32>(WHERE_AM_I, &(), |a, b| a + b)
            .unwrap()
            .get();
        assert_eq!(sum, 3);
        c.shutdown();
    }

    #[test]
    fn tcp_parcel_conservation_and_wire_counters() {
        let c = tcp_cluster();
        let gid = c.new_component(1, Mutex::new(0i64));
        for _ in 0..20 {
            c.locality(0).apply(gid, ADD_TO, &1i64).unwrap();
        }
        let fs: Vec<_> = (0..10)
            .map(|i| {
                c.locality(i % 3)
                    .call::<(), u32>(c.system_gid((i + 1) % 3), WHERE_AM_I, &())
                    .unwrap()
            })
            .collect();
        for f in fs {
            f.get();
        }
        c.wait_idle();
        let cell = c.get_component::<Mutex<i64>>(gid).unwrap();
        assert_eq!(*cell.lock(), 20);
        // Σ sent == Σ received at the runtime-counter level…
        let (mut sent, mut received) = (0usize, 0usize);
        for loc in c.localities() {
            let snap = loc.runtime().perf_snapshot();
            sent += snap.parcels_sent;
            received += snap.parcels_received;
        }
        assert_eq!(sent, received, "parcel conservation violated over TCP");
        // …and at the wire level (every inter-locality parcel here
        // crosses a socket; none of these targets are self-sends).
        let wire_sent = total(&c, "parcels", "count/wire-sent");
        let wire_received = total(&c, "parcels", "count/wire-received");
        assert_eq!(wire_sent, wire_received, "wire-level conservation violated");
        assert!(wire_sent >= 30, "wire_sent {wire_sent}");
        // Coalescing means fewer physical writes than parcels.
        let writes = total(&c, "parcels", "count/writes");
        assert!(writes <= wire_sent, "writes {writes} vs parcels {wire_sent}");
        assert!(
            total(&c, "parcels", "bytes/sent") > 0,
            "/parcels/.../bytes/sent must count"
        );
        c.shutdown();
    }

    #[test]
    fn tcp_heat_like_traffic_matches_inprocess_results() {
        // The same action workload on both transports must produce the
        // same component state.
        let run = |c: Cluster| -> i64 {
            let gid = c.new_component(2, Mutex::new(0i64));
            for k in 1..=15 {
                c.locality(k % 3).apply(gid, ADD_TO, &(k as i64)).unwrap();
            }
            c.wait_idle();
            let v = *c.get_component::<Mutex<i64>>(gid).unwrap().lock();
            c.shutdown();
            v
        };
        assert_eq!(run(cluster()), run(tcp_cluster()));
    }

    #[test]
    fn tcp_network_delay_composes_on_top() {
        let c = tcp_cluster();
        c.set_network_delay(Arc::new(|_p| Duration::from_millis(2)));
        let gid = c.new_component(1, ());
        let t = crate::util::HighResolutionTimer::new();
        let f = c
            .locality(0)
            .call::<String, String>(gid, ECHO, &"delayed".to_string())
            .unwrap();
        assert_eq!(f.get(), "delayed");
        assert!(t.elapsed() >= 0.004, "{}", t.elapsed());
        c.shutdown();
    }

    #[test]
    fn killed_peer_fails_pending_calls_with_peer_lost() {
        let c = tcp_cluster();
        c.register_action(60, "slow", |_, _, _| {
            std::thread::sleep(Duration::from_millis(400));
            Ok(vec![])
        });
        let gid = c.new_component(2, ());
        // In flight when the peer dies: must fail, not hang.
        let f = c.locality(0).async_action_raw(gid, 60, &()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        c.disconnect_locality(2);
        assert_eq!(f.try_get(), Err(Error::PeerLost(2)));
        // New calls to the dead locality fail fast too (possibly after
        // the loss propagates through the reader threads).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let f = c.locality(0).async_action_raw(gid, 60, &()).unwrap();
            if f.try_get() == Err(Error::PeerLost(2)) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "PeerLost never surfaced");
            std::thread::sleep(Duration::from_millis(20));
        }
        // wait_idle must not spin on the orphaned tokens.
        c.wait_idle();
        c.shutdown();
    }

    #[test]
    fn send_failures_with_nobody_to_tell_are_counted() {
        let c = tcp_cluster();
        // AGAS knows a GID on locality 9, which has no connection: the
        // TCP layer refuses the parcel, and a fire-and-forget apply has no
        // caller to fail.
        let nowhere = c.agas().allocate(9);
        c.locality(0).apply(nowhere, ECHO, &()).unwrap();
        let path = CounterPath::new("parcels", 0, Instance::Total, "count/dropped/send-failed");
        assert_eq!(c.counter_snapshot().get(&path), Some(1));
        // A request gets the typed error instead and is not a drop.
        let f = c.locality(0).async_action_raw(nowhere, ECHO, &()).unwrap();
        assert_eq!(f.try_get(), Err(Error::UnknownLocality(9)));
        assert_eq!(c.counter_snapshot().get(&path), Some(1));
        c.shutdown();
    }

    #[test]
    fn parcels_to_unknown_localities_are_counted() {
        let c = cluster();
        let nowhere = c.agas().allocate(9);
        c.locality(1).apply(nowhere, ECHO, &()).unwrap();
        let path = CounterPath::new(
            "parcels",
            1,
            Instance::Total,
            "count/dropped/unknown-locality",
        );
        assert_eq!(c.counter_snapshot().get(&path), Some(1));
        c.shutdown();
    }

    #[test]
    fn response_less_handler_failures_are_counted() {
        let c = cluster();
        c.start_trace();
        // No action is registered under this id, and nobody waits on an
        // apply: the destination counts the drop.
        c.locality(0).apply(c.system_gid(1), 0x7E57, &()).unwrap();
        c.wait_idle();
        let path = CounterPath::new("parcels", 1, Instance::Total, "count/dropped/handler-failed");
        assert_eq!(c.counter_snapshot().get(&path), Some(1));
        let dropped: usize = c
            .stop_trace()
            .iter()
            .map(|(_, t)| t.of_kind(EventKind::User("parcel-dropped")).count())
            .sum();
        assert_eq!(dropped, 1, "a dropped parcel leaves a trace instant");
        c.shutdown();
    }

    #[test]
    fn transport_counter_paths_are_pinned() {
        // perfbench's ledger and the Prometheus endpoint read these paths
        // by name: no layer may rename or drop one silently.
        let registered = |c: Cluster| -> std::collections::BTreeSet<String> {
            let paths = c
                .counter_snapshot()
                .iter()
                .filter(|(p, _)| matches!(p.object.as_str(), "parcels" | "resilience" | "chaos"))
                .map(|(p, _)| p.to_string())
                .collect();
            c.shutdown();
            paths
        };
        let paths = |names: &[(&str, &str)]| -> std::collections::BTreeSet<String> {
            (0..2)
                .flat_map(|l| {
                    names.iter().map(move |(object, name)| {
                        CounterPath::new(*object, l, Instance::Total, *name).to_string()
                    })
                })
                .collect()
        };
        let tcp: &[(&str, &str)] = &[
            // runtime
            ("parcels", "count/sent"),
            ("parcels", "count/received"),
            // cluster
            ("parcels", "count/dropped/send-failed"),
            ("parcels", "count/dropped/unknown-locality"),
            ("parcels", "count/dropped/handler-failed"),
            // TCP layer
            ("parcels", "bytes/sent"),
            ("parcels", "bytes/received"),
            ("parcels", "count/writes"),
            ("parcels", "count/dropped/corrupt-frame"),
            ("parcels", "count/wire-sent"),
            ("parcels", "count/wire-received"),
        ];
        let resilient: &[(&str, &str)] = &[
            // reliable layer
            ("resilience", "count/retransmits"),
            ("resilience", "count/dup-drops"),
            ("resilience", "count/corrupt-drops"),
            ("resilience", "count/dropped/malformed-carrier"),
            ("resilience", "count/peer-give-ups"),
            ("resilience", "count/acks-sent"),
            ("resilience", "data/sent"),
            ("resilience", "data/delivered"),
            // fault injector
            ("chaos", "count/injected-drops"),
            ("chaos", "count/injected-dups"),
            ("chaos", "count/injected-delays"),
            ("chaos", "count/injected-corrupts"),
            // cluster, on a chaos stack
            ("chaos", "count/injected-panics"),
        ];
        assert_eq!(registered(Cluster::new_tcp(2, 1)), paths(tcp));
        let chaos = Cluster::new_resilient(2, 1, Some(ChaosSpec::pinned()));
        assert_eq!(registered(chaos), paths(&[tcp, resilient].concat()));
    }

    // ---- Resilient transport -------------------------------------------

    fn resilient_cluster(chaos: Option<ChaosSpec>) -> Cluster {
        with_actions(Cluster::new_resilient(3, 2, chaos))
    }

    #[test]
    fn resilient_transport_without_chaos_matches_inprocess_results() {
        let run = |c: Cluster| -> i64 {
            let gid = c.new_component(2, Mutex::new(0i64));
            for k in 1..=15 {
                c.locality(k % 3).apply(gid, ADD_TO, &(k as i64)).unwrap();
            }
            c.wait_idle();
            let v = *c.get_component::<Mutex<i64>>(gid).unwrap().lock();
            c.shutdown();
            v
        };
        assert_eq!(run(cluster()), run(resilient_cluster(None)));
    }

    #[test]
    fn chaos_transport_heals_drops_dups_and_corruption() {
        let spec =
            crate::resilience::ChaosSpec::parse("seed=7,drop=10%,dup=5%,corrupt=3%,delay=1ms")
                .unwrap();
        let c = resilient_cluster(Some(spec));
        let gid = c.new_component(1, Mutex::new(0i64));
        for _ in 0..50 {
            c.locality(0).apply(gid, ADD_TO, &1i64).unwrap();
        }
        let f = c
            .locality(2)
            .call::<String, String>(c.system_gid(0), ECHO, &"through chaos".to_string())
            .unwrap();
        assert_eq!(f.get(), "through chaos");
        c.wait_idle();
        // Effectively-once despite injected drops, dups and corruption.
        assert_eq!(*c.get_component::<Mutex<i64>>(gid).unwrap().lock(), 50);
        let sent = total(&c, "resilience", "data/sent");
        let delivered = total(&c, "resilience", "data/delivered");
        assert_eq!(sent, delivered, "logical ledger balances at idle");
        // The schedule above must actually have injected something, and
        // the injected faults surface through the counter registry.
        let injected: u64 = [
            "count/injected-drops",
            "count/injected-dups",
            "count/injected-corrupts",
        ]
        .iter()
        .map(|name| total(&c, "chaos", name))
        .sum();
        assert!(injected > 0, "chaos spec injected no faults — seed too tame");
        assert!(
            total(&c, "resilience", "count/retransmits") > 0,
            "drops must force retransmission"
        );
        c.shutdown();
    }

    #[test]
    fn heartbeat_walks_silent_peer_to_dead_and_registers_counters() {
        let c = resilient_cluster(None);
        let hb = c.start_heartbeat(HeartbeatConfig {
            interval: Duration::from_millis(10),
            suspect_after: 3.0,
            dead_after: 6.0,
        });
        // Let a few rounds land, then kill locality 2's socket.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(c.locality(0).health().state(2), Some(crate::resilience::PeerState::Alive));
        c.disconnect_locality(2);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if c.locality(0).health().state(2) == Some(crate::resilience::PeerState::Dead) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "peer 2 never detected dead");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Locality 1 is still healthy from 0's point of view.
        assert_eq!(c.locality(0).health().state(1), Some(crate::resilience::PeerState::Alive));
        let snap = c.counter_snapshot();
        let beats = snap
            .get(&CounterPath::new("resilience", 0, Instance::Total, "count/heartbeats-sent"))
            .unwrap();
        assert!(beats > 0);
        let state = snap
            .get(&CounterPath::new("resilience", 0, Instance::Total, "peer#2/state"))
            .unwrap();
        assert_eq!(state, 2, "dead peer gauges as 2");
        let misses = snap
            .get(&CounterPath::new("resilience", 0, Instance::Total, "count/heartbeat-misses"))
            .unwrap();
        assert!(misses > 0);
        hb.stop();
        c.shutdown();
    }

    #[test]
    fn response_timeout_fails_stuck_calls() {
        let c = tcp_cluster();
        c.set_response_timeout(Duration::from_millis(80));
        c.register_action(61, "sleepy", |_, _, payload| {
            let ms: u64 = serialize::from_bytes(payload)?;
            std::thread::sleep(Duration::from_millis(ms));
            Ok(vec![])
        });
        let gid = c.new_component(1, ());
        // Slower than the timeout: typed failure.
        let f = c.locality(0).async_action_raw(gid, 61, &300u64).unwrap();
        assert_eq!(f.try_get(), Err(Error::ResponseTimeout));
        // Faster than the timeout: unaffected (timer disarmed).
        let f = c.locality(0).async_action_raw(gid, 61, &1u64).unwrap();
        assert!(f.try_get().is_ok());
        c.wait_idle();
        c.shutdown();
    }
}
