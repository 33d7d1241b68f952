//! Reliable delivery over an unreliable parcelport: per-peer sequence
//! numbers, positive acks with retransmission, receive-side dedup, and
//! an end-to-end payload checksum.
//!
//! The guarantee is **at-least-once transport + exactly-once handoff**:
//! a data parcel is retransmitted until acked, duplicates are dropped by
//! the receiver's sequence window, and a corrupted payload (checksum
//! mismatch) is treated as a drop so the retransmit path heals it. The
//! owner sink therefore sees every accepted parcel exactly once —
//! effectively-once action execution (DESIGN.md §10).
//!
//! Wire mapping: a data parcel is wrapped into a carrier parcel whose
//! action is [`RELIABLE_DATA`] and whose payload prepends
//! `[seq u64][orig action u32][flags u8][token u64][fnv1a32 u32]` to the
//! original payload. Acks are [`RELIABLE_ACK`] parcels carrying a list
//! of acknowledged sequence numbers (batched by a delayed-ack window so
//! the fault-free overhead stays low). Actions listed in
//! [`ReliableConfig::bypass_actions`] (heartbeats) skip the layer
//! entirely: liveness probes must not be healed into lies.

use crate::error::{Error, Result};
use crate::introspect::CounterRegistry;
use crate::parcel::frame::{fnv1a32, fnv1a32_with};
use crate::parcel::{ActionId, Parcel, Parcelport, PortEvent, PortSink};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Carrier action for sequenced data parcels (reserved; never hits the
/// action registry — the layer unwraps before the delivery sink).
pub const RELIABLE_DATA: ActionId = 0xFFFF_FF00;

/// Carrier action for ack parcels.
pub const RELIABLE_ACK: ActionId = 0xFFFF_FF01;

/// Bytes prepended to a wrapped payload: seq + action + flags + token +
/// checksum.
const WRAP_HEADER: usize = 8 + 4 + 1 + 8 + 4;

const WRAP_FLAG_TOKEN: u8 = 0b0000_0001;

/// Tuning knobs for [`ReliableParcelport`].
#[derive(Clone, Debug)]
pub struct ReliableConfig {
    /// Retransmit an unacked parcel after this long.
    pub retransmit_timeout: Duration,
    /// Give up and declare the peer lost after this many retransmits of
    /// one parcel.
    pub max_retransmits: u32,
    /// Delayed-ack window: acks accumulate for up to this long before a
    /// batch ack parcel is sent.
    pub ack_flush: Duration,
    /// Actions sent around the layer, unsequenced and unacked
    /// (heartbeats — healing liveness probes would defeat them).
    pub bypass_actions: Vec<ActionId>,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_timeout: Duration::from_millis(50),
            max_retransmits: 40,
            ack_flush: Duration::from_millis(1),
            bypass_actions: vec![super::heartbeat::HEARTBEAT_ACTION],
        }
    }
}

struct Unacked {
    parcel: Parcel, // the wrapped carrier, ready to resend
    sent_at: Instant,
    attempts: u32,
}

/// Receive-side dedup window for one source peer: everything below
/// `floor` was seen; `above` holds out-of-order seqs past it. Memory is
/// bounded by the sender's unacked window, not by traffic volume.
#[derive(Default)]
struct RecvWindow {
    floor: u64,
    above: BTreeSet<u64>,
}

impl RecvWindow {
    /// Record `seq`; returns false if it was already seen (duplicate).
    fn record(&mut self, seq: u64) -> bool {
        if seq < self.floor || self.above.contains(&seq) {
            return false;
        }
        self.above.insert(seq);
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }
}

#[derive(Default)]
struct RelState {
    next_seq: HashMap<u32, u64>,
    unacked: HashMap<(u32, u64), Unacked>,
    recv: HashMap<u32, RecvWindow>,
    pending_acks: HashMap<u32, Vec<u64>>,
    dead_peers: HashSet<u32>,
}

/// The reliability decorator. Wraps any [`Parcelport`]; hand its
/// [`ReliableParcelport::inbound_sink`] to the inner port and attach the
/// inner port back with [`ReliableParcelport::attach_inner`].
pub struct ReliableParcelport {
    local: u32,
    cfg: ReliableConfig,
    inner: RwLock<Option<Arc<dyn Parcelport>>>,
    owner: PortSink,
    state: Mutex<RelState>,
    wake: Condvar,
    shutdown: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Unique data parcels accepted from the owner (excludes
    /// retransmits, acks and bypass traffic).
    data_sent: AtomicU64,
    /// Unique data parcels forwarded to the owner (post-dedup). The
    /// cluster-wide invariant Σ`data_sent` == Σ`data_delivered` at idle
    /// is what keeps `wait_idle` exact under retransmission.
    data_delivered: AtomicU64,
    retransmits: AtomicU64,
    dup_drops: AtomicU64,
    corrupt_drops: AtomicU64,
    /// Carriers too short to hold the wrap header.
    malformed_drops: AtomicU64,
    /// Peers declared lost after `max_retransmits`.
    give_ups: AtomicU64,
    acks_sent: AtomicU64,
}

impl ReliableParcelport {
    /// Create the layer for locality `local`, delivering accepted
    /// parcels to `owner`.
    pub fn new(local: u32, cfg: ReliableConfig, owner: PortSink) -> Arc<ReliableParcelport> {
        let port = Arc::new(ReliableParcelport {
            local,
            cfg,
            inner: RwLock::new(None),
            owner,
            state: Mutex::new(RelState::default()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            thread: Mutex::new(None),
            data_sent: AtomicU64::new(0),
            data_delivered: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            dup_drops: AtomicU64::new(0),
            corrupt_drops: AtomicU64::new(0),
            malformed_drops: AtomicU64::new(0),
            give_ups: AtomicU64::new(0),
            acks_sent: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&port);
        let handle = std::thread::Builder::new()
            .name(format!("parallex-retx-{local}"))
            .spawn(move || {
                while let Some(port) = weak.upgrade() {
                    if port.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    port.tick();
                    let period = port.cfg.ack_flush.min(port.cfg.retransmit_timeout / 4).max(Duration::from_micros(200));
                    let mut st = port.state.lock();
                    if !port.shutdown.load(Ordering::Acquire) {
                        port.wake.wait_for(&mut st, period);
                    }
                }
            })
            .expect("failed to spawn retransmit thread");
        *port.thread.lock() = Some(handle);
        port
    }

    /// Attach the wrapped transport (two-phase construction: the inner
    /// port needs this layer's sink, this layer needs the inner port).
    pub fn attach_inner(&self, inner: Arc<dyn Parcelport>) {
        *self.inner.write() = Some(inner);
    }

    fn inner(&self) -> Result<Arc<dyn Parcelport>> {
        self.inner.read().clone().ok_or_else(|| {
            Error::InvalidArgument("reliable parcelport has no inner transport attached".into())
        })
    }

    /// The sink to hand to the inner transport.
    pub fn inbound_sink(self: &Arc<Self>) -> PortSink {
        let me = self.clone();
        Arc::new(move |ev| me.on_inbound(ev))
    }

    /// Data parcels sent but not yet acknowledged.
    pub fn unacked(&self) -> usize {
        self.state.lock().unacked.len()
    }

    fn wrap(&self, parcel: &Parcel, seq: u64) -> Parcel {
        let mut payload = Vec::with_capacity(WRAP_HEADER + parcel.payload.len());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&parcel.action.to_le_bytes());
        payload.push(if parcel.response_token.is_some() { WRAP_FLAG_TOKEN } else { 0 });
        payload.extend_from_slice(&parcel.response_token.unwrap_or(0).to_le_bytes());
        // The checksum covers the carrier header too (seq/action/flags/
        // token): a bit flipped in the *sequence number* would otherwise
        // pass a payload-only check and ack the wrong parcel — a silent,
        // permanent loss.
        let cksum = fnv1a32_with(fnv1a32(&payload[..WRAP_HEADER - 4]), &parcel.payload);
        payload.extend_from_slice(&cksum.to_le_bytes());
        payload.extend_from_slice(&parcel.payload);
        Parcel {
            source: parcel.source,
            dest_locality: parcel.dest_locality,
            dest: parcel.dest,
            action: RELIABLE_DATA,
            payload: Bytes::from(payload),
            response_token: None,
        }
    }

    /// `(seq, rebuilt parcel)` if the carrier unwraps and passes the
    /// checksum; `Err(true)` means checksum failure, `Err(false)` means
    /// a structurally bad carrier.
    fn unwrap_carrier(carrier: &Parcel) -> std::result::Result<(u64, Parcel), bool> {
        let buf = &carrier.payload[..];
        if buf.len() < WRAP_HEADER {
            return Err(false);
        }
        let seq = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        let action = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        let flags = buf[12];
        let token = u64::from_le_bytes(buf[13..21].try_into().expect("8 bytes"));
        let cksum = u32::from_le_bytes(buf[21..25].try_into().expect("4 bytes"));
        let payload = &buf[WRAP_HEADER..];
        if fnv1a32_with(fnv1a32(&buf[..WRAP_HEADER - 4]), payload) != cksum {
            return Err(true);
        }
        Ok((
            seq,
            Parcel {
                source: carrier.source,
                dest_locality: carrier.dest_locality,
                dest: carrier.dest,
                action,
                // Zero-copy view into the carrier: the payload is the
                // hot path's dominant allocation otherwise.
                payload: carrier.payload.slice(WRAP_HEADER..),
                response_token: (flags & WRAP_FLAG_TOKEN != 0).then_some(token),
            },
        ))
    }

    fn on_inbound(&self, ev: PortEvent) {
        match ev {
            PortEvent::Deliver(p) if p.action == RELIABLE_ACK => {
                // Acks carry a trailing checksum over the seq list: a
                // bit-flipped ack acknowledging the *wrong* sequence
                // would silently lose a parcel forever. A rejected ack
                // just means another retransmit round.
                let buf = &p.payload[..];
                let ok = buf.len() >= 4 && (buf.len() - 4) % 8 == 0 && {
                    let (seqs, tail) = buf.split_at(buf.len() - 4);
                    fnv1a32(seqs) == u32::from_le_bytes(tail.try_into().expect("4 bytes"))
                };
                if !ok {
                    self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let mut st = self.state.lock();
                for chunk in buf[..buf.len() - 4].chunks_exact(8) {
                    let seq = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                    st.unacked.remove(&(p.source, seq));
                }
            }
            PortEvent::Deliver(p) if p.action == RELIABLE_DATA => {
                match Self::unwrap_carrier(&p) {
                    Ok((seq, parcel)) => {
                        let (fresh, first_ack) = {
                            let mut st = self.state.lock();
                            // Always ack, even duplicates: the dup means
                            // the sender missed (or has yet to see) an
                            // earlier ack.
                            let acks = st.pending_acks.entry(p.source).or_default();
                            let first_ack = acks.is_empty();
                            acks.push(seq);
                            (st.recv.entry(p.source).or_default().record(seq), first_ack)
                        };
                        // Wake the flush thread only when this parcel
                        // *opens* a batch; later arrivals ride the same
                        // flush. A per-parcel notify is a futex wake on
                        // the hot path and throttles small-parcel
                        // streams measurably.
                        if first_ack {
                            self.wake.notify_one();
                        }
                        if fresh {
                            // Forward before counting so an idle check
                            // can't observe "delivered" with the parcel
                            // still outside the delivery path.
                            (self.owner)(PortEvent::Deliver(parcel));
                            self.data_delivered.fetch_add(1, Ordering::Release);
                        } else {
                            self.dup_drops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(true) => {
                        // Checksum mismatch: treat as a drop; no ack, so
                        // the sender retransmits the intact original.
                        self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(false) => {
                        self.malformed_drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            PortEvent::Deliver(p) => (self.owner)(PortEvent::Deliver(p)),
            PortEvent::PeerLost(peer) => {
                self.drop_peer_state(peer);
                (self.owner)(PortEvent::PeerLost(peer));
            }
        }
    }

    fn drop_peer_state(&self, peer: u32) {
        let mut st = self.state.lock();
        st.dead_peers.insert(peer);
        st.unacked.retain(|(p, _), _| *p != peer);
        st.pending_acks.remove(&peer);
    }

    /// One maintenance pass: flush batched acks, retransmit overdue
    /// parcels, declare peers dead after `max_retransmits`.
    fn tick(&self) {
        let Ok(inner) = self.inner() else { return };
        let now = Instant::now();
        let mut acks: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut resend: Vec<Parcel> = Vec::new();
        let mut lost: Vec<u32> = Vec::new();
        {
            let mut st = self.state.lock();
            for (peer, seqs) in st.pending_acks.drain() {
                if !seqs.is_empty() {
                    acks.push((peer, seqs));
                }
            }
            let rto = self.cfg.retransmit_timeout;
            let max = self.cfg.max_retransmits;
            let mut give_up: Vec<u32> = Vec::new();
            for ((peer, _), entry) in st.unacked.iter_mut() {
                if now.duration_since(entry.sent_at) >= rto {
                    if entry.attempts >= max {
                        give_up.push(*peer);
                    } else {
                        entry.attempts += 1;
                        entry.sent_at = now;
                        resend.push(entry.parcel.clone());
                    }
                }
            }
            for peer in give_up {
                if st.dead_peers.insert(peer) {
                    lost.push(peer);
                }
                st.unacked.retain(|(p, _), _| *p != peer);
                st.pending_acks.remove(&peer);
            }
        }
        for (peer, seqs) in acks {
            let mut payload = Vec::with_capacity(seqs.len() * 8 + 4);
            for s in &seqs {
                payload.extend_from_slice(&s.to_le_bytes());
            }
            payload.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
            let ack = Parcel {
                source: self.local,
                dest_locality: peer,
                dest: crate::agas::Gid { origin: peer, lid: 0 },
                action: RELIABLE_ACK,
                payload: Bytes::from(payload),
                response_token: None,
            };
            if inner.send(ack).is_ok() {
                self.acks_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        for parcel in resend {
            self.retransmits.fetch_add(1, Ordering::Relaxed);
            let _ = inner.send(parcel);
        }
        for peer in lost {
            self.give_ups.fetch_add(1, Ordering::Relaxed);
            (self.owner)(PortEvent::PeerLost(peer));
        }
    }
}

impl Parcelport for ReliableParcelport {
    fn send(&self, parcel: Parcel) -> Result<()> {
        let inner = self.inner()?;
        if self.cfg.bypass_actions.contains(&parcel.action) {
            return inner.send(parcel);
        }
        let peer = parcel.dest_locality;
        let wrapped = {
            let mut st = self.state.lock();
            if st.dead_peers.contains(&peer) {
                return Err(Error::PeerLost(peer));
            }
            let seq_ref = st.next_seq.entry(peer).or_insert(0);
            let seq = *seq_ref;
            *seq_ref += 1;
            let wrapped = self.wrap(&parcel, seq);
            st.unacked.insert(
                (peer, seq),
                Unacked { parcel: wrapped.clone(), sent_at: Instant::now(), attempts: 0 },
            );
            wrapped
        };
        self.data_sent.fetch_add(1, Ordering::Release);
        match inner.send(wrapped) {
            Ok(()) => Ok(()),
            Err(e) => {
                // The first transmission never left; the retransmit
                // thread would only hammer a dead queue.
                self.drop_peer_state(peer);
                self.data_sent.fetch_sub(1, Ordering::Release);
                Err(e)
            }
        }
    }

    fn pending(&self) -> usize {
        self.inner.read().as_ref().map_or(0, |p| p.pending())
    }

    /// Unique data parcels accepted from the owner (no retransmits, acks
    /// or bypass traffic): under faults only this logical ledger
    /// balances, never the wire's.
    fn sent(&self) -> u64 {
        self.data_sent.load(Ordering::Acquire)
    }

    /// Unique data parcels forwarded to the owner after dedup.
    fn delivered(&self) -> u64 {
        self.data_delivered.load(Ordering::Acquire)
    }

    /// A peer declared lost here (retransmits exhausted, or the loss
    /// reported from below) or anywhere further down the stack.
    fn peer_lost(&self) -> bool {
        !self.state.lock().dead_peers.is_empty()
            || self.inner.read().as_ref().is_some_and(|p| p.peer_lost())
    }

    /// `/resilience{locality#L/total}/...` for this layer, then the
    /// layers below it.
    fn register_counters(self: Arc<Self>, registry: &CounterRegistry, locality: u32) {
        registry.register_fields(
            "resilience",
            locality,
            &self,
            &[
                ("count/retransmits", |p| &p.retransmits),
                ("count/dup-drops", |p| &p.dup_drops),
                ("count/corrupt-drops", |p| &p.corrupt_drops),
                ("count/dropped/malformed-carrier", |p| &p.malformed_drops),
                ("count/peer-give-ups", |p| &p.give_ups),
                ("count/acks-sent", |p| &p.acks_sent),
                ("data/sent", |p| &p.data_sent),
                ("data/delivered", |p| &p.data_delivered),
            ],
        );
        if let Some(inner) = self.inner.read().clone() {
            inner.register_counters(registry, locality);
        }
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
        if let Some(inner) = self.inner.read().clone() {
            inner.shutdown();
        }
    }
}

impl Drop for ReliableParcelport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agas::Gid;
    use crate::introspect::{CounterPath, Instance};

    fn parcel(src: u32, dst: u32, action: ActionId, payload: &[u8], token: Option<u64>) -> Parcel {
        Parcel {
            source: src,
            dest_locality: dst,
            dest: Gid { origin: dst, lid: 9 },
            action,
            payload: Bytes::from(payload.to_vec()),
            response_token: token,
        }
    }

    /// Loopback inner port: every send lands in the same layer's
    /// inbound sink (peer == self), good enough for wrap/dedup tests.
    struct Loopback {
        sink: Mutex<Option<PortSink>>,
    }

    impl Parcelport for Loopback {
        fn send(&self, parcel: Parcel) -> Result<()> {
            if let Some(sink) = self.sink.lock().clone() {
                sink(PortEvent::Deliver(parcel));
            }
            Ok(())
        }
        fn pending(&self) -> usize {
            0
        }
        fn sent(&self) -> u64 {
            0
        }
        fn delivered(&self) -> u64 {
            0
        }
        fn peer_lost(&self) -> bool {
            false
        }
        fn register_counters(self: Arc<Self>, _: &CounterRegistry, _: u32) {}
        fn shutdown(&self) {}
    }

    /// The layer's counter at `name`, read through the registry it
    /// registers into.
    fn counter(rel: &Arc<ReliableParcelport>, name: &str) -> u64 {
        let reg = CounterRegistry::new();
        rel.clone().register_counters(&reg, 0);
        reg.snapshot()
            .get(&CounterPath::new("resilience", 0, Instance::Total, name))
            .unwrap()
    }

    fn rig(cfg: ReliableConfig) -> (Arc<ReliableParcelport>, Arc<Mutex<Vec<Parcel>>>) {
        let seen: Arc<Mutex<Vec<Parcel>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let owner: PortSink = Arc::new(move |ev| {
            if let PortEvent::Deliver(p) = ev {
                seen2.lock().push(p);
            }
        });
        let rel = ReliableParcelport::new(0, cfg, owner);
        let loopback = Arc::new(Loopback { sink: Mutex::new(Some(rel.inbound_sink())) });
        rel.attach_inner(loopback);
        (rel, seen)
    }

    #[test]
    fn wrap_unwrap_roundtrips_token_and_payload() {
        let (rel, _) = rig(ReliableConfig::default());
        for token in [None, Some(0u64), Some(77)] {
            let p = parcel(0, 0, 0x42, b"data bytes", token);
            let w = rel.wrap(&p, 5);
            assert_eq!(w.action, RELIABLE_DATA);
            let (seq, back) = ReliableParcelport::unwrap_carrier(&w).unwrap();
            assert_eq!(seq, 5);
            assert_eq!(back.action, p.action);
            assert_eq!(back.payload, p.payload);
            assert_eq!(back.response_token, p.response_token);
        }
        rel.shutdown();
    }

    #[test]
    fn corrupted_wrapped_payload_is_rejected() {
        let (rel, _) = rig(ReliableConfig::default());
        let p = parcel(0, 0, 0x42, b"data bytes", None);
        let w = rel.wrap(&p, 1);
        let mut bytes = w.payload.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let mut corrupted = w;
        corrupted.payload = Bytes::from(bytes);
        assert!(matches!(ReliableParcelport::unwrap_carrier(&corrupted), Err(true)));
        rel.shutdown();
    }

    #[test]
    fn duplicates_are_dropped_and_delivery_is_exactly_once() {
        let (rel, seen) = rig(ReliableConfig::default());
        let p = parcel(0, 0, 0x42, b"one", None);
        let w = rel.wrap(&p, 0);
        let sink = rel.inbound_sink();
        sink(PortEvent::Deliver(w.clone()));
        sink(PortEvent::Deliver(w.clone()));
        sink(PortEvent::Deliver(w));
        assert_eq!(seen.lock().len(), 1, "exactly-once handoff");
        assert_eq!(counter(&rel, "count/dup-drops"), 2);
        assert_eq!(rel.delivered(), 1);
        rel.shutdown();
    }

    #[test]
    fn recv_window_floor_advances_and_stays_bounded() {
        let mut w = RecvWindow::default();
        for seq in [1u64, 0, 2, 4, 3] {
            assert!(w.record(seq));
        }
        assert_eq!(w.floor, 5);
        assert!(w.above.is_empty(), "contiguous prefix collapses into the floor");
        assert!(!w.record(2), "below-floor is a duplicate");
    }

    #[test]
    fn loopback_send_acks_and_clears_unacked() {
        let (rel, seen) = rig(ReliableConfig {
            ack_flush: Duration::from_micros(200),
            ..ReliableConfig::default()
        });
        for i in 0..10u8 {
            rel.send(parcel(0, 0, 0x42, &[i], None)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while (rel.unacked() > 0 || seen.lock().len() < 10) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(seen.lock().len(), 10);
        assert_eq!(rel.unacked(), 0, "acks cleared the retransmit buffer");
        assert_eq!(rel.sent(), 10);
        assert_eq!(rel.delivered(), 10);
        assert!(counter(&rel, "count/acks-sent") >= 1);
        rel.shutdown();
    }

    #[test]
    fn bypass_actions_skip_sequencing() {
        let (rel, seen) = rig(ReliableConfig {
            bypass_actions: vec![0x99],
            ..ReliableConfig::default()
        });
        rel.send(parcel(0, 0, 0x99, b"hb", None)).unwrap();
        assert_eq!(rel.sent(), 0);
        assert_eq!(seen.lock().len(), 1, "bypass traffic is forwarded untouched");
        assert_eq!(seen.lock()[0].action, 0x99);
        rel.shutdown();
    }

    #[test]
    fn malformed_carrier_is_dropped_and_counted() {
        let (rel, seen) = rig(ReliableConfig::default());
        // A data carrier too short to hold the wrap header.
        rel.inbound_sink()(PortEvent::Deliver(parcel(
            1,
            0,
            RELIABLE_DATA,
            b"short",
            None,
        )));
        assert!(seen.lock().is_empty(), "nothing reaches the owner");
        assert_eq!(counter(&rel, "count/dropped/malformed-carrier"), 1);
        rel.shutdown();
    }

    #[test]
    fn giving_up_on_a_silent_peer_is_counted_and_reported() {
        let lost: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let lost2 = lost.clone();
        let owner: PortSink = Arc::new(move |ev| {
            if let PortEvent::PeerLost(p) = ev {
                lost2.lock().push(p);
            }
        });
        let cfg = ReliableConfig {
            retransmit_timeout: Duration::from_millis(1),
            max_retransmits: 2,
            ..ReliableConfig::default()
        };
        let rel = ReliableParcelport::new(0, cfg, owner);
        // An inner port with no sink: every send vanishes, no ack returns.
        rel.attach_inner(Arc::new(Loopback {
            sink: Mutex::new(None),
        }));
        rel.send(parcel(0, 3, 0x42, b"into the void", None))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while lost.lock().is_empty() {
            assert!(
                Instant::now() < deadline,
                "the silent peer was never given up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*lost.lock(), vec![3]);
        assert_eq!(counter(&rel, "count/peer-give-ups"), 1);
        assert_eq!(counter(&rel, "count/retransmits"), 2);
        assert!(rel.peer_lost());
        rel.shutdown();
    }
}
