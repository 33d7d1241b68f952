//! Localities and clusters: the distributed-memory layer.
//!
//! An HPX *locality* is one node of the cluster: its own thread pool,
//! component storage and parcelport, sharing a global AGAS view. A
//! [`Cluster`] instantiates several localities inside one process — the
//! substrate on which the paper's distributed 1D stencil (Fig. 3) runs —
//! and routes [`crate::parcel::Parcel`]s between them, optionally through
//! a [`crate::parcel::DelayFn`] modeling the interconnect.

use crate::agas::{AgasService, ComponentStore, Gid, MigrationRegistry};
use crate::error::{Error, Result};
use crate::introspect::{
    prometheus_text, CounterPath, CounterSnapshot, EventKind, Instance, LatencyChannel,
    MetricsServer, Trace,
};
use crate::lcos::future::{Future, Promise};
use crate::parcel::{
    serialize, tcp, ActionFn, ActionId, ActionRegistry, DelayFn, InProcessParcelport, Parcel,
    Parcelport, PortEvent, PortSink, TimerToken, TimerWheel, RESPONSE_ACTION,
};
use crate::resilience::{
    ChaosSpec, FaultPlan, FaultyParcelport, HeartbeatConfig, PeerHealth, PeerState,
    ReliableConfig, ReliableParcelport, HEARTBEAT_ACTION,
};
use crate::runtime::Runtime;
use crate::sched::SchedulerPolicy;
use crate::task::{Priority, Task};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
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
            let weak = Arc::downgrade(&shared.localities[self.id as usize]);
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
    localities: Vec<Arc<Locality>>,
    agas: AgasService,
    actions: ActionRegistry,
    migration: MigrationRegistry,
    timer: TimerWheel,
    delay: RwLock<Option<DelayFn>>,
    /// The parcelport per locality (in-process handoff by default,
    /// TCP after [`Cluster::attach_tcp`]).
    transport: RwLock<Transport>,
    /// If set, remote calls fail with [`Error::ResponseTimeout`] when no
    /// response arrives in time.
    response_timeout: RwLock<Option<Duration>>,
    /// One "system" component per locality: the target GID for
    /// locality-wide (collective) actions.
    system_gids: Vec<Gid>,
}

/// Which [`Parcelport`] implementation carries inter-locality parcels.
enum Transport {
    /// Shared-memory handoff inside one process.
    InProcess(Vec<Arc<InProcessParcelport>>),
    /// Real sockets with framing and coalescing.
    Tcp(Vec<Arc<tcp::TcpParcelport>>),
    /// TCP wrapped in the resilience stack: sends enter the reliable
    /// layer (seq/ack/retransmit/dedup), pass the optional chaos
    /// decorator, and exit on the socket; inbound frames climb back up
    /// the same chain.
    Resilient {
        rel: Vec<Arc<ReliableParcelport>>,
        /// Present only when chaos injection was requested.
        faulty: Vec<Arc<FaultyParcelport>>,
        tcp: Vec<Arc<tcp::TcpParcelport>>,
    },
}

impl Transport {
    fn port(&self, i: usize) -> Option<Arc<dyn Parcelport>> {
        match self {
            Transport::InProcess(v) => v.get(i).cloned().map(|p| p as Arc<dyn Parcelport>),
            Transport::Tcp(v) => v.get(i).cloned().map(|p| p as Arc<dyn Parcelport>),
            Transport::Resilient { rel, .. } => {
                rel.get(i).cloned().map(|p| p as Arc<dyn Parcelport>)
            }
        }
    }

    fn pending(&self) -> usize {
        match self {
            Transport::InProcess(v) => v.iter().map(|p| p.pending()).sum(),
            Transport::Tcp(v) => v.iter().map(|p| p.pending()).sum(),
            // The reliable port's `pending` delegates down the chain, so
            // it already covers chaos-delayed parcels and socket queues.
            Transport::Resilient { rel, .. } => rel.iter().map(|p| p.pending()).sum(),
        }
    }

    fn shutdown_ports(&self) {
        match self {
            Transport::InProcess(v) => v.iter().for_each(|p| p.shutdown()),
            Transport::Tcp(v) => v.iter().for_each(|p| p.shutdown()),
            // Shutting the reliable layer joins its retransmit thread
            // and cascades down through faulty → tcp.
            Transport::Resilient { rel, .. } => rel.iter().for_each(|p| p.shutdown()),
        }
    }

    /// Parcels written to the wire but not yet decoded by a receiver.
    /// The in-process port hands parcels over synchronously, so only TCP
    /// can have bytes genuinely in flight. After a peer loss the
    /// sent/received ledger can never balance (frames toward the dead
    /// peer are gone), so the check is disabled rather than spun on.
    fn in_flight(&self) -> u64 {
        match self {
            Transport::InProcess(_) => 0,
            Transport::Tcp(v) => {
                if v.iter().any(|p| p.any_peer_lost()) {
                    return 0;
                }
                let sent: u64 = v.iter().map(|p| p.parcels_sent()).sum();
                let received: u64 = v.iter().map(|p| p.parcels_received()).sum();
                sent.saturating_sub(received)
            }
            // Under chaos the wire-level ledger never balances (drops,
            // dups, retransmits), so idle detection uses the reliable
            // layer's *logical* ledger: unique data parcels accepted
            // from senders vs unique parcels handed to receivers after
            // dedup. Delivered is read before sent so a concurrent
            // delivery can only make the result conservatively high,
            // never a false zero.
            Transport::Resilient { rel, tcp, .. } => {
                if rel.iter().any(|p| p.any_peer_lost()) || tcp.iter().any(|p| p.any_peer_lost()) {
                    return 0;
                }
                let delivered: u64 = rel.iter().map(|p| p.data_delivered()).sum();
                let sent: u64 = rel.iter().map(|p| p.data_sent()).sum();
                sent.saturating_sub(delivered)
            }
        }
    }
}

/// Marker component representing "the locality itself" — the target of
/// collective actions like [`Cluster::broadcast`].
pub struct SystemComponent;

impl ClusterShared {
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
    /// skip the transport — no loopback socket hop even under TCP). A
    /// synchronous transport failure fails the caller's pending request
    /// with the typed error instead of letting it hang.
    fn transmit(self: &Arc<Self>, parcel: Parcel) {
        let port = if parcel.source == parcel.dest_locality {
            None
        } else {
            self.transport.read().port(parcel.source as usize)
        };
        let Some(port) = port else {
            ClusterShared::deliver(self, parcel);
            return;
        };
        let source = parcel.source;
        let action = parcel.action;
        let token = parcel.response_token;
        if let Err(e) = port.send(parcel) {
            match (action, token) {
                // A request with a response token: fail it so the caller
                // gets the typed error immediately.
                (a, Some(tok)) if a != RESPONSE_ACTION => {
                    if let Some(loc) = self.localities.get(source as usize) {
                        loc.fail_token(tok, e);
                    }
                }
                // Fire-and-forget or an undeliverable response: the
                // requester's own peer-loss handling covers the latter.
                _ => eprintln!("parallex: dropping parcel (action {action}): {e}"),
            }
        }
    }

    fn deliver(self: &Arc<Self>, parcel: Parcel) {
        let Some(dest) = self.localities.get(parcel.dest_locality as usize).cloned() else {
            eprintln!("parallex: dropping parcel to unknown locality {}", parcel.dest_locality);
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

/// A set of localities sharing an AGAS and exchanging parcels — one
/// in-process "cluster".
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
        assert!(localities > 0, "need at least one locality");
        let locs: Vec<Arc<Locality>> = (0..localities as u32)
            .map(|id| {
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
                })
            })
            .collect();
        let agas = AgasService::new();
        let system_gids: Vec<Gid> = (0..locs.len())
            .map(|i| {
                let gid = agas.allocate(i as u32);
                locs[i].components.insert(gid, SystemComponent);
                gid
            })
            .collect();
        let shared = Arc::new(ClusterShared {
            localities: locs,
            agas,
            actions: ActionRegistry::new(),
            migration: MigrationRegistry::new(),
            timer: TimerWheel::new(),
            delay: RwLock::new(None),
            transport: RwLock::new(Transport::InProcess(Vec::new())),
            response_timeout: RwLock::new(None),
            system_gids,
        });
        for loc in &shared.localities {
            *loc.cluster.write() = Arc::downgrade(&shared);
        }
        // Default transport: the in-process parcelport, one per locality,
        // delivering straight back into the cluster.
        let inproc: Vec<Arc<InProcessParcelport>> = (0..shared.localities.len())
            .map(|_| Arc::new(InProcessParcelport::new(Self::delivery_sink(&shared, None))))
            .collect();
        *shared.transport.write() = Transport::InProcess(inproc);
        Cluster { shared }
    }

    /// The sink a parcelport drives: inbound parcels enter the delivery
    /// path; a lost peer fails the owning locality's pending requests.
    fn delivery_sink(shared: &Arc<ClusterShared>, owner: Option<usize>) -> PortSink {
        let weak = Arc::downgrade(shared);
        Arc::new(move |ev| {
            let Some(shared) = weak.upgrade() else { return };
            match ev {
                PortEvent::Deliver(p) => ClusterShared::deliver(&shared, p),
                PortEvent::PeerLost(peer) => {
                    if let Some(loc) = owner.and_then(|i| shared.localities.get(i)) {
                        loc.fail_pending_to(peer);
                    }
                }
            }
        })
    }

    /// Switch the cluster's transport to real TCP parcelports on
    /// loopback: one listener per locality, a full mesh of per-direction
    /// connections, parcel coalescing per [`tcp::TcpConfig`]. The
    /// network-delay model still composes on top (delays are applied
    /// before the parcel is handed to the port). Wire-level counters
    /// (`/parcels/.../bytes/sent`, `count/writes`,
    /// `count/dropped/corrupt-frame`) register on each locality's counter
    /// registry.
    pub fn attach_tcp(&self, cfg: tcp::TcpConfig) -> Result<()> {
        let shared = &self.shared;
        let n = self.len();
        let mut ports = Vec::with_capacity(n);
        for i in 0..n {
            let sink = Self::delivery_sink(shared, Some(i));
            let addr = "127.0.0.1:0".parse().expect("loopback addr");
            let port = tcp::TcpParcelport::bind(i as u32, addr, sink, cfg.clone())
                .map_err(|e| Error::Io(e.to_string()))?;
            ports.push(port);
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    ports[i].connect_peer(j as u32, ports[j].local_addr())?;
                }
            }
        }
        Self::register_wire_counters(shared, &ports);
        *shared.transport.write() = Transport::Tcp(ports);
        Ok(())
    }

    /// Register the wire-level TCP counters (`/parcels{...}/bytes/sent`
    /// etc.) on each locality's registry.
    fn register_wire_counters(shared: &Arc<ClusterShared>, ports: &[Arc<tcp::TcpParcelport>]) {
        for (i, port) in ports.iter().enumerate() {
            let reg = shared.localities[i].runtime.counter_registry().clone();
            let p = port.clone();
            reg.register(
                CounterPath::new("parcels", i as u32, Instance::Total, "bytes/sent"),
                move || p.bytes_sent(),
            );
            let p = port.clone();
            reg.register(
                CounterPath::new("parcels", i as u32, Instance::Total, "bytes/received"),
                move || p.bytes_received(),
            );
            let p = port.clone();
            reg.register(
                CounterPath::new("parcels", i as u32, Instance::Total, "count/writes"),
                move || p.writes(),
            );
            let p = port.clone();
            let path = "count/dropped/corrupt-frame";
            reg.register(CounterPath::new("parcels", i as u32, Instance::Total, path), move || {
                p.corrupt_frames()
            });
        }
    }

    /// Switch the transport to TCP wrapped in the resilience stack:
    /// every inter-locality parcel is sequenced, acked and retransmitted
    /// by a [`ReliableParcelport`]; with `chaos` set, a
    /// [`FaultyParcelport`] between the reliable layer and the socket
    /// injects the seeded fault schedule (drop / duplicate /
    /// delay-reorder / bit-corruption), one decorrelated
    /// [`FaultPlan`] stream per locality.
    ///
    /// Outbound path: reliable → faulty (optional) → TCP; inbound events
    /// climb back up the same chain. Resilience counters
    /// (`/resilience{locality#L/total}/count/retransmits`, `dup-drops`,
    /// `corrupt-drops`, `acks-sent`, `data/sent`, `data/delivered`) and
    /// — under chaos — `/chaos{...}/count/injected-*` register on each
    /// locality; they exist only on this transport, so counter-exact
    /// tests of the plain runtime registry are unaffected.
    pub fn attach_tcp_resilient(
        &self,
        tcp_cfg: tcp::TcpConfig,
        rel_cfg: ReliableConfig,
        chaos: Option<ChaosSpec>,
    ) -> Result<()> {
        let shared = &self.shared;
        let n = self.len();
        let mut rels: Vec<Arc<ReliableParcelport>> = Vec::with_capacity(n);
        let mut tcps: Vec<Arc<tcp::TcpParcelport>> = Vec::with_capacity(n);
        let mut faults: Vec<Arc<FaultyParcelport>> = Vec::new();
        for i in 0..n {
            let owner = Self::delivery_sink(shared, Some(i));
            let rel = ReliableParcelport::new(i as u32, rel_cfg.clone(), owner);
            let addr = "127.0.0.1:0".parse().expect("loopback addr");
            let port =
                tcp::TcpParcelport::bind(i as u32, addr, rel.inbound_sink(), tcp_cfg.clone())
                    .map_err(|e| Error::Io(e.to_string()))?;
            let inner: Arc<dyn Parcelport> = match &chaos {
                Some(spec) => {
                    let plan = Arc::new(FaultPlan::for_stream(spec.clone(), i as u64));
                    // Crash-gate PeerLost events go through the reliable
                    // layer's sink so its retransmit state is purged too.
                    let f = FaultyParcelport::new(port.clone(), plan, Some(rel.inbound_sink()));
                    faults.push(f.clone());
                    f
                }
                None => port.clone(),
            };
            rel.attach_inner(inner);
            tcps.push(port);
            rels.push(rel);
        }
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    tcps[i].connect_peer(j as u32, tcps[j].local_addr())?;
                }
            }
        }
        Self::register_wire_counters(shared, &tcps);
        for (i, rel) in rels.iter().enumerate() {
            let reg = shared.localities[i].runtime.counter_registry().clone();
            let path = |name: &str| CounterPath::new("resilience", i as u32, Instance::Total, name);
            let p = rel.clone();
            reg.register(path("count/retransmits"), move || p.retransmits());
            let p = rel.clone();
            reg.register(path("count/dup-drops"), move || p.dup_drops());
            let p = rel.clone();
            reg.register(path("count/corrupt-drops"), move || p.corrupt_drops());
            let p = rel.clone();
            reg.register(path("count/acks-sent"), move || p.acks_sent());
            let p = rel.clone();
            reg.register(path("data/sent"), move || p.data_sent());
            let p = rel.clone();
            reg.register(path("data/delivered"), move || p.data_delivered());
        }
        for (i, f) in faults.iter().enumerate() {
            let reg = shared.localities[i].runtime.counter_registry().clone();
            let path = |name: &str| CounterPath::new("chaos", i as u32, Instance::Total, name);
            let p = f.clone();
            reg.register(path("count/injected-drops"), move || p.injected_drops());
            let p = f.clone();
            reg.register(path("count/injected-dups"), move || p.injected_dups());
            let p = f.clone();
            reg.register(path("count/injected-delays"), move || p.injected_delays());
            let p = f.clone();
            reg.register(path("count/injected-corrupts"), move || p.injected_corrupts());
        }
        *shared.transport.write() = Transport::Resilient { rel: rels, faulty: faults, tcp: tcps };
        Ok(())
    }

    /// [`Cluster::new`] + [`Cluster::attach_tcp_resilient`] with default
    /// tuning — the chaos-run entry point used by `repro --chaos`.
    ///
    /// # Panics
    /// Panics if loopback listeners cannot be bound.
    pub fn new_resilient(
        localities: usize,
        threads_each: usize,
        chaos: Option<ChaosSpec>,
    ) -> Cluster {
        let c = Cluster::new(localities, threads_each);
        c.attach_tcp_resilient(tcp::TcpConfig::default(), ReliableConfig::default(), chaos)
            .expect("resilient TCP parcelport on loopback");
        c
    }

    /// [`Cluster::new`] + [`Cluster::attach_tcp`] with default tuning:
    /// every inter-locality parcel really crosses a loopback socket.
    ///
    /// # Panics
    /// Panics if loopback listeners cannot be bound.
    pub fn new_tcp(localities: usize, threads_each: usize) -> Cluster {
        let c = Cluster::new(localities, threads_each);
        c.attach_tcp(tcp::TcpConfig::default())
            .expect("TCP parcelport on loopback");
        c
    }

    /// The TCP parcelports, in locality order (empty for the in-process
    /// transport) — for wire-level stats and fault injection.
    pub fn tcp_ports(&self) -> Vec<Arc<tcp::TcpParcelport>> {
        match &*self.shared.transport.read() {
            Transport::Tcp(p) => p.clone(),
            Transport::Resilient { tcp, .. } => tcp.clone(),
            Transport::InProcess(_) => Vec::new(),
        }
    }

    /// The reliable-delivery layers, in locality order (empty unless
    /// [`Cluster::attach_tcp_resilient`] is active) — for retransmit and
    /// dedup statistics.
    pub fn reliable_ports(&self) -> Vec<Arc<ReliableParcelport>> {
        match &*self.shared.transport.read() {
            Transport::Resilient { rel, .. } => rel.clone(),
            _ => Vec::new(),
        }
    }

    /// The chaos injectors, in locality order (empty unless
    /// [`Cluster::attach_tcp_resilient`] was given a [`ChaosSpec`]) —
    /// for injected-fault statistics and manual crash/hang gates.
    pub fn faulty_ports(&self) -> Vec<Arc<FaultyParcelport>> {
        match &*self.shared.transport.read() {
            Transport::Resilient { faulty, .. } => faulty.clone(),
            _ => Vec::new(),
        }
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
    /// node died — its listener and all of its connections close, and
    /// every peer's outstanding requests toward it fail with
    /// [`Error::PeerLost`]. Only meaningful on the TCP transport.
    pub fn disconnect_locality(&self, i: usize) {
        let port = match &*self.shared.transport.read() {
            Transport::Tcp(p) => p.get(i).cloned(),
            Transport::Resilient { tcp, .. } => tcp.get(i).cloned(),
            Transport::InProcess(_) => None,
        };
        if let Some(p) = port {
            p.shutdown();
        }
    }

    /// Number of localities.
    pub fn len(&self) -> usize {
        self.shared.localities.len()
    }

    /// Whether the cluster has no localities (never true; see
    /// [`Cluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.shared.localities.is_empty()
    }

    /// Get locality `i`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn locality(&self, i: usize) -> Arc<Locality> {
        self.shared.localities[i].clone()
    }

    /// All localities.
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

    /// Create a component on `locality` and register it in AGAS.
    pub fn new_component<T: Send + Sync + 'static>(&self, locality: usize, obj: T) -> Gid {
        let gid = self.shared.agas.allocate(locality as u32);
        self.shared.localities[locality].components.insert(gid, obj);
        gid
    }

    /// Read a component wherever it lives (shared-memory shortcut; remote
    /// reads in a real cluster would be an action).
    pub fn get_component<T: Send + Sync + 'static>(&self, gid: Gid) -> Result<Arc<T>> {
        let loc = self.shared.agas.resolve(gid)?;
        self.shared.localities[loc as usize].components.get(gid)
    }

    /// Move a component to another locality, keeping its GID valid — the
    /// AGAS migration the paper's Section III-B describes.
    pub fn migrate(&self, gid: Gid, dest: usize) -> Result<()> {
        if dest >= self.len() {
            return Err(Error::UnknownLocality(dest as u32));
        }
        let src = self.shared.agas.resolve(gid)?;
        if src as usize == dest {
            return Ok(());
        }
        let store = &self.shared.localities[src as usize].components;
        let (obj, type_name) = store.take(gid)?;
        let bytes = match self.shared.migration.serialize(type_name, obj.as_ref()) {
            Ok(b) => b,
            Err(e) => {
                // Roll back: the object stays where it was.
                self.shared.localities[src as usize]
                    .components
                    .insert_any(gid, obj, type_name);
                return Err(e);
            }
        };
        let rebuilt = self.shared.migration.deserialize(type_name, &bytes)?;
        self.shared.localities[dest]
            .components
            .insert_any(gid, rebuilt, type_name);
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

    /// Collective: run `action` on *every* locality (rooted at locality 0)
    /// and gather the decoded results in locality order — an HPX
    /// `broadcast`/`gather` over parcels.
    pub fn broadcast<A, R>(&self, action: ActionId, arg: &A) -> Result<crate::lcos::future::Future<Vec<R>>>
    where
        A: Serialize,
        R: DeserializeOwned + Send + 'static,
    {
        let root = self.locality(0);
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

    /// Block until every locality's runtime is idle.
    pub fn wait_idle(&self) {
        loop {
            for loc in &self.shared.localities {
                loc.runtime.wait_idle();
            }
            // Parcels in the timer wheel or queued in a parcelport may
            // spawn more work when they land; only stop once nothing is
            // pending anywhere.
            let busy = self.shared.timer.pending() > 0
                || self.shared.transport.read().pending() > 0
                || self.shared.transport.read().in_flight() > 0
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

    /// Shut down all localities' runtimes (quiescing the transport
    /// first, so no late parcels land on stopping runtimes).
    pub fn shutdown(&self) {
        self.shared.transport.read().shutdown_ports();
        for loc in &self.shared.localities {
            loc.runtime.shutdown();
        }
    }

    /// Merge every locality's counter registry into one snapshot (paths
    /// are disjoint because each locality registers under its own
    /// `locality#N` instance).
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        CounterSnapshot::merge(
            self.shared
                .localities
                .iter()
                .map(|l| l.runtime.counter_snapshot()),
        )
    }

    /// Start structured tracing on every locality's runtime.
    pub fn start_trace(&self) {
        for loc in &self.shared.localities {
            loc.runtime.tracer().start();
        }
    }

    /// Stop tracing everywhere and return `(locality id, trace)` pairs,
    /// ready for [`crate::introspect::chrome_trace_json`] (which aligns
    /// the per-runtime epochs onto one timeline) or
    /// [`crate::introspect::analyze`].
    pub fn stop_trace(&self) -> Vec<(u32, Trace)> {
        self.shared
            .localities
            .iter()
            .map(|l| (l.id, l.runtime.tracer().stop()))
            .collect()
    }

    /// Serve the merged cluster-wide counter snapshot (all localities,
    /// including latency quantiles) in Prometheus text format. The
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
    /// each locality pings every peer with a [`HEARTBEAT_ACTION`] parcel
    /// (sent *around* the reliable layer — a healed liveness probe would
    /// be a lie), and a monitor thread re-scores every [`PeerHealth`]
    /// table, walking silent peers Alive → Suspect → Dead.
    ///
    /// Registers, per locality: `/resilience{locality#L/total}/`
    /// `count/heartbeats-sent`, `count/heartbeat-misses`, and one
    /// `peer#P/state` gauge per peer (0 = alive, 1 = suspect, 2 = dead).
    /// State transitions are traced as [`EventKind::User`]
    /// `"peer-state"` instants (`arg = peer << 8 | state`) and logged to
    /// stderr.
    ///
    /// Call at most once per cluster (action and counter registration
    /// are not idempotent). Returns a handle that stops the monitor when
    /// dropped.
    pub fn start_heartbeat(&self, cfg: HeartbeatConfig) -> HeartbeatHandle {
        let n = self.len();
        self.register_action(HEARTBEAT_ACTION, "heartbeat", |loc, _gid, payload| {
            let src: u32 = serialize::from_bytes(payload)?;
            // Heartbeats bypass the reliable layer's checksum, so a
            // chaos-corrupted sender id can arrive; don't let it invent
            // a phantom peer.
            if (src as usize) >= loc.shared()?.localities.len() {
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
        let beats: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let misses: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        for i in 0..n {
            let reg = self.shared.localities[i].runtime.counter_registry().clone();
            let b = beats.clone();
            reg.register(
                CounterPath::new("resilience", i as u32, Instance::Total, "count/heartbeats-sent"),
                move || b[i].load(Ordering::Relaxed),
            );
            let m = misses.clone();
            reg.register(
                CounterPath::new("resilience", i as u32, Instance::Total, "count/heartbeat-misses"),
                move || m[i].load(Ordering::Relaxed),
            );
            for j in 0..n {
                if i == j {
                    continue;
                }
                let weak = Arc::downgrade(&self.shared.localities[i]);
                reg.register(
                    CounterPath::new(
                        "resilience",
                        i as u32,
                        Instance::Total,
                        format!("peer#{j}/state"),
                    ),
                    move || {
                        weak.upgrade()
                            .and_then(|l| l.health.state(j as u32))
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
                        let cluster = Cluster { shared };
                        for i in 0..cluster.len() {
                            let loc = cluster.locality(i);
                            for j in 0..cluster.len() {
                                if i == j {
                                    continue;
                                }
                                // A send failure (peer gone) is itself a
                                // missed heartbeat; the detector handles it.
                                if loc
                                    .apply(cluster.system_gid(j), HEARTBEAT_ACTION, &(i as u32))
                                    .is_ok()
                                {
                                    beats[i].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        for i in 0..cluster.len() {
                            let loc = cluster.locality(i);
                            let report = loc.health.evaluate(&cfg);
                            if report.new_misses > 0 {
                                misses[i].fetch_add(report.new_misses, Ordering::Relaxed);
                            }
                            for (peer, old, new) in report.transitions {
                                eprintln!(
                                    "parallex: locality {i} sees peer {peer} go {old:?} -> {new:?}"
                                );
                                let tracer = loc.runtime.tracer();
                                if tracer.is_enabled() {
                                    tracer.instant(
                                        tracer.external_lane(),
                                        EventKind::User("peer-state"),
                                        ((peer as u64) << 8) | new.as_u64(),
                                    );
                                }
                            }
                        }
                        drop(cluster);
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
        let ports = c.tcp_ports();
        assert_eq!(ports.len(), 3);
        let wire_parcels: u64 = ports.iter().map(|p| p.parcels_sent()).sum();
        assert!(wire_parcels >= 2, "request + response on sockets, got {wire_parcels}");
        let wire_bytes: u64 = ports.iter().map(|p| p.bytes_sent()).sum();
        assert!(wire_bytes > 0);
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
        let ports = c.tcp_ports();
        let wire_sent: u64 = ports.iter().map(|p| p.parcels_sent()).sum();
        let wire_received: u64 = ports.iter().map(|p| p.parcels_received()).sum();
        assert_eq!(wire_sent, wire_received, "wire-level conservation violated");
        assert!(wire_sent >= 30, "wire_sent {wire_sent}");
        // Coalescing means fewer physical writes than parcels.
        let writes: u64 = ports.iter().map(|p| p.writes()).sum();
        assert!(writes <= wire_sent, "writes {writes} vs parcels {wire_sent}");
        // The wire counters surface through the introspection registry.
        let snap = c.counter_snapshot();
        let wire_counter: u64 = snap
            .iter()
            .filter(|(p, _)| p.object == "parcels" && p.name == "bytes/sent")
            .map(|(_, v)| v)
            .sum();
        assert!(wire_counter > 0, "/parcels/.../bytes/sent must be registered");
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

    // ---- Resilient transport -------------------------------------------

    fn resilient_cluster(chaos: Option<ChaosSpec>) -> Cluster {
        let c = Cluster::new(3, 2);
        c.attach_tcp_resilient(tcp::TcpConfig::default(), ReliableConfig::default(), chaos)
            .unwrap();
        with_actions(c)
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
        let rels = c.reliable_ports();
        let sent: u64 = rels.iter().map(|p| p.data_sent()).sum();
        let delivered: u64 = rels.iter().map(|p| p.data_delivered()).sum();
        assert_eq!(sent, delivered, "logical ledger balances at idle");
        // The schedule above must actually have injected something, and
        // the injected faults surface through the counter registry.
        let faults = c.faulty_ports();
        let injected: u64 = faults
            .iter()
            .map(|f| f.injected_drops() + f.injected_dups() + f.injected_corrupts())
            .sum();
        assert!(injected > 0, "chaos spec injected no faults — seed too tame");
        let snap = c.counter_snapshot();
        let retransmits: u64 = snap
            .iter()
            .filter(|(p, _)| p.object == "resilience" && p.name == "count/retransmits")
            .map(|(_, v)| v)
            .sum();
        assert!(retransmits > 0, "drops must force retransmission");
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
