//! The parcel subsystem: active messages.
//!
//! A [`Parcel`] carries an action id, a destination GID and a serialized
//! payload; delivering it *spawns a task at the data* (the "message-driven
//! computation" pillar of ParalleX, Fig. 1's Parcelport box). Within one
//! process, localities exchange parcels through shared memory; an optional
//! [`DelayFn`] injects per-parcel network latency so the distributed
//! experiments of the paper's Fig. 3 run against a modeled interconnect
//! (see `parallex-netsim`).

pub mod frame;
pub mod serialize;
pub mod tcp;

use crate::agas::Gid;
use crate::error::{Error, Result};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies a registered action (HPX action registration).
pub type ActionId = u32;

/// Reserved action id used internally to deliver responses to
/// [`crate::locality::Locality::async_action_raw`] calls.
pub const RESPONSE_ACTION: ActionId = 0;

/// An active message.
#[derive(Clone, Debug)]
pub struct Parcel {
    /// Locality the parcel was sent from.
    pub source: u32,
    /// Locality the parcel is addressed to (resolved from the GID at send
    /// time).
    pub dest_locality: u32,
    /// Object the action applies to.
    pub dest: Gid,
    /// Which action to run.
    pub action: ActionId,
    /// Serialized argument.
    pub payload: Bytes,
    /// If set, the handler's return bytes are sent back as a
    /// [`RESPONSE_ACTION`] parcel carrying this token.
    pub response_token: Option<u64>,
}

impl Parcel {
    /// Wire size estimate (header + payload), used by the network model.
    pub fn wire_bytes(&self) -> usize {
        // source + dest_locality + gid + action + token
        4 + 4 + 16 + 4 + 9 + self.payload.len()
    }
}

/// Handler type: runs *at the destination locality* with the target GID
/// and payload; returns response bytes.
pub type ActionFn =
    Arc<dyn Fn(&Arc<crate::locality::Locality>, Gid, &[u8]) -> Result<Vec<u8>> + Send + Sync>;

/// Cluster-wide action table (HPX registers actions at static-init time;
/// we register at cluster construction).
#[derive(Default)]
pub struct ActionRegistry {
    actions: RwLock<HashMap<ActionId, (ActionFn, &'static str)>>,
}

impl ActionRegistry {
    /// Empty registry.
    pub fn new() -> ActionRegistry {
        ActionRegistry::default()
    }

    /// Register `f` under `id`.
    ///
    /// # Panics
    /// Panics on id 0 (reserved) or duplicate registration, both of which
    /// are programming errors.
    pub fn register(
        &self,
        id: ActionId,
        name: &'static str,
        f: impl Fn(&Arc<crate::locality::Locality>, Gid, &[u8]) -> Result<Vec<u8>>
            + Send
            + Sync
            + 'static,
    ) {
        assert_ne!(id, RESPONSE_ACTION, "action id 0 is reserved for responses");
        let prev = self.actions.write().insert(id, (Arc::new(f), name));
        assert!(prev.is_none(), "action id {id} registered twice");
    }

    /// Look up an action.
    pub fn get(&self, id: ActionId) -> Result<ActionFn> {
        self.actions
            .read()
            .get(&id)
            .map(|(f, _)| f.clone())
            .ok_or(Error::UnknownAction(id))
    }

    /// Human-readable name for diagnostics.
    pub fn name(&self, id: ActionId) -> Option<&'static str> {
        self.actions.read().get(&id).map(|(_, n)| *n)
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.actions.read().len()
    }

    /// Whether no actions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes the simulated network delay for a parcel (`None` ⇒ deliver
/// immediately, same-process shared memory).
pub type DelayFn = Arc<dyn Fn(&Parcel) -> Duration + Send + Sync>;

/// What a parcelport hands to its owner: inbound parcels and peer-loss
/// notifications.
#[derive(Debug)]
pub enum PortEvent {
    /// A parcel arrived and should enter the delivery path.
    Deliver(Parcel),
    /// The connection to this peer locality is gone; outstanding requests
    /// to it will never be answered.
    PeerLost(u32),
}

/// Sink invoked by a parcelport for every [`PortEvent`]; must be cheap
/// and non-blocking (ports call it from reader threads).
pub type PortSink = Arc<dyn Fn(PortEvent) + Send + Sync>;

/// A transport that moves parcels between localities — Fig. 1's
/// "Parcelport" box. Two implementations exist: the zero-copy in-process
/// handoff ([`InProcessParcelport`]) used by a single-process
/// [`crate::locality::Cluster`], and the real socket transport
/// ([`tcp::TcpParcelport`]) with framing and coalescing.
pub trait Parcelport: Send + Sync {
    /// Transport name for diagnostics ("inproc", "tcp").
    fn name(&self) -> &'static str;

    /// Queue `parcel` for delivery to `parcel.dest_locality`. May block
    /// briefly for backpressure; fails with
    /// [`Error::PeerLost`](crate::error::Error::PeerLost) once the peer
    /// is unreachable.
    fn send(&self, parcel: Parcel) -> Result<()>;

    /// Parcels accepted by [`Parcelport::send`] but not yet handed to the
    /// wire (or the sink) — `Cluster::wait_idle` polls this.
    fn pending(&self) -> usize;

    /// Total payload+header bytes put on the wire so far.
    fn bytes_sent(&self) -> u64;

    /// Number of physical writes issued — with coalescing this is
    /// (often much) smaller than the number of parcels sent.
    fn writes(&self) -> u64;

    /// Stop accepting sends and release transport resources.
    fn shutdown(&self);
}

/// The in-process parcelport: hands every parcel straight to the sink on
/// the caller's thread — the shared-memory "transport" a single-process
/// cluster uses.
pub struct InProcessParcelport {
    sink: PortSink,
    parcels: std::sync::atomic::AtomicU64,
    bytes: std::sync::atomic::AtomicU64,
}

impl InProcessParcelport {
    /// Wrap `sink` as a parcelport.
    pub fn new(sink: PortSink) -> InProcessParcelport {
        InProcessParcelport {
            sink,
            parcels: std::sync::atomic::AtomicU64::new(0),
            bytes: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Parcelport for InProcessParcelport {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn send(&self, parcel: Parcel) -> Result<()> {
        use std::sync::atomic::Ordering;
        self.parcels.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(parcel.wire_bytes() as u64, Ordering::Relaxed);
        (self.sink)(PortEvent::Deliver(parcel));
        Ok(())
    }

    fn pending(&self) -> usize {
        0 // delivery is synchronous
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn writes(&self) -> u64 {
        // One "write" per parcel: nothing coalesces in shared memory.
        self.parcels.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn shutdown(&self) {}
}

type Deferred = Box<dyn FnOnce() + Send + 'static>;

/// Handle to a deferred item scheduled on a [`TimerWheel`].
#[derive(Debug)]
pub struct TimerToken(u64);

struct TimerState {
    queue: BinaryHeap<Reverse<(Instant, u64)>>,
    items: HashMap<u64, Deferred>,
    /// Items popped from `items` but still running on the timer thread.
    /// Counted by `pending()` so an idle check can't observe zero while a
    /// delayed parcel is mid-delivery (popped, delivery task not yet
    /// spawned).
    executing: usize,
    next_seq: u64,
    shutdown: bool,
}

/// A timer thread delivering deferred closures at their due time — the
/// "wire" that delays parcels by the modeled network latency.
pub struct TimerWheel {
    state: Arc<(Mutex<TimerState>, Condvar)>,
    /// Started by the first scheduled item: most wheels (one per cluster
    /// and per fault layer) never defer anything, and a thread spawn is a
    /// measurable share of building a cluster.
    thread: std::sync::OnceLock<std::thread::JoinHandle<()>>,
}

impl TimerWheel {
    /// An empty wheel; its thread starts with the first scheduled item.
    pub fn new() -> TimerWheel {
        TimerWheel {
            state: Arc::new((
                Mutex::new(TimerState {
                    queue: BinaryHeap::new(),
                    items: HashMap::new(),
                    executing: 0,
                    next_seq: 0,
                    shutdown: false,
                }),
                Condvar::new(),
            )),
            thread: std::sync::OnceLock::new(),
        }
    }

    fn run(state: Arc<(Mutex<TimerState>, Condvar)>) {
        let (lock, cond) = &*state;
        loop {
            let mut due: Vec<Deferred> = Vec::new();
            {
                let mut st = lock.lock();
                loop {
                    if st.shutdown && st.queue.is_empty() {
                        if due.is_empty() {
                            return;
                        }
                        // Flush already-collected items before exiting.
                        break;
                    }
                    let now = Instant::now();
                    match st.queue.peek() {
                        // Due — or cancelled, in which case pop it now so
                        // shutdown never waits out a dead deadline.
                        Some(Reverse((t, seq))) if *t <= now || !st.items.contains_key(seq) => {
                            let Reverse((_, seq)) = st.queue.pop().unwrap();
                            if let Some(item) = st.items.remove(&seq) {
                                due.push(item);
                            }
                        }
                        Some(Reverse((t, _))) => {
                            let t = *t;
                            if !due.is_empty() {
                                break;
                            }
                            cond.wait_until(&mut st, t);
                        }
                        None => {
                            if !due.is_empty() {
                                break;
                            }
                            cond.wait_for(&mut st, Duration::from_millis(50));
                        }
                    }
                }
                st.executing += due.len();
            }
            let ran = due.len();
            for item in due {
                item();
            }
            lock.lock().executing -= ran;
        }
    }

    /// Run `f` after `delay`.
    pub fn schedule(&self, delay: Duration, f: impl FnOnce() + Send + 'static) {
        let _ = self.schedule_cancelable(delay, f);
    }

    /// Run `f` after `delay`, returning a token that [`TimerWheel::cancel`]
    /// accepts (used for response timeouts, which are cancelled when the
    /// response arrives so `pending` drains promptly).
    pub fn schedule_cancelable(
        &self,
        delay: Duration,
        f: impl FnOnce() + Send + 'static,
    ) -> TimerToken {
        let (lock, cond) = &*self.state;
        let seq = {
            let mut st = lock.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(Reverse((Instant::now() + delay, seq)));
            st.items.insert(seq, Box::new(f));
            seq
        };
        self.thread.get_or_init(|| {
            let state = self.state.clone();
            std::thread::Builder::new()
                .name("parallex-timer".into())
                .spawn(move || Self::run(state))
                .expect("failed to spawn timer thread")
        });
        cond.notify_one();
        TimerToken(seq)
    }

    /// Drop a scheduled item before it fires. Returns whether it was
    /// still pending (false ⇒ it already ran or was cancelled).
    pub fn cancel(&self, token: &TimerToken) -> bool {
        let hit = self.state.0.lock().items.remove(&token.0).is_some();
        // Wake the wheel so it is not left sleeping toward a dead deadline.
        self.state.1.notify_one();
        hit
    }

    /// Pending deferred items, including any currently executing on the
    /// timer thread (a delayed parcel is "pending" until its delivery
    /// task has been handed to the destination runtime).
    pub fn pending(&self) -> usize {
        let st = self.state.0.lock();
        st.items.len() + st.executing
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl Drop for TimerWheel {
    fn drop(&mut self) {
        {
            let mut st = self.state.0.lock();
            st.shutdown = true;
        }
        self.state.1.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn timer_runs_in_order() {
        let tw = TimerWheel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (tag, ms) in [(2, 20u64), (1, 5)] {
            let log = log.clone();
            tw.schedule(Duration::from_millis(ms), move || log.lock().push(tag));
        }
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(*log.lock(), vec![1, 2]);
    }

    #[test]
    fn timer_zero_delay_runs_soon() {
        let tw = TimerWheel::new();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let hits = hits.clone();
            tw.schedule(Duration::ZERO, move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        while hits.load(Ordering::Relaxed) < 10 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn timer_drop_waits_for_pending() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let tw = TimerWheel::new();
            let hits = hits.clone();
            tw.schedule(Duration::from_millis(5), move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        } // drop joins after the queue drains
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn registry_rejects_reserved_and_duplicate_ids() {
        let reg = ActionRegistry::new();
        reg.register(1, "ping", |_, _, _| Ok(vec![]));
        assert_eq!(reg.name(1), Some("ping"));
        assert_eq!(reg.len(), 1);
        let reg_ref = std::panic::AssertUnwindSafe(&reg);
        assert!(std::panic::catch_unwind(|| {
            reg_ref.register(RESPONSE_ACTION, "bad", |_, _, _| Ok(vec![]))
        })
        .is_err());
        let reg_ref = std::panic::AssertUnwindSafe(&reg);
        assert!(
            std::panic::catch_unwind(|| reg_ref.register(1, "dup", |_, _, _| Ok(vec![]))).is_err()
        );
    }

    #[test]
    fn registry_unknown_action() {
        let reg = ActionRegistry::new();
        assert!(matches!(reg.get(42), Err(Error::UnknownAction(42))));
    }

    #[test]
    fn parcel_wire_bytes_counts_payload() {
        let p = Parcel {
            source: 0,
            dest_locality: 1,
            dest: Gid { origin: 0, lid: 1 },
            action: 1,
            payload: Bytes::from(vec![0u8; 100]),
            response_token: None,
        };
        assert!(p.wire_bytes() > 100);
        assert!(p.wire_bytes() < 200);
    }
}
