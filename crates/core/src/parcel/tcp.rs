//! The TCP parcelport: real sockets, framing, and parcel coalescing.
//!
//! Modeled on HPX's TCP parcelport as deployed on commodity clusters
//! (the Raspberry Pi study that accompanies the paper's platform line):
//! each ordered pair of localities gets one TCP connection, owned by the
//! *sender*. A per-peer writer thread drains a bounded byte queue and
//! **coalesces** frames into `write`s — on loopback and gigabit-class
//! links the syscall/packet overhead of many tiny active messages
//! dominates, and batching them is what makes AMT halo traffic viable.
//!
//! Batching is *self-clocked*: the writer takes everything queued the
//! moment it wakes and writes it out in units of at most
//! [`TcpConfig::coalesce_max_bytes`]. A frame waits only while the
//! previous `write` is in flight, so a lone latency-bound halo leaves at
//! once, while a burst that outpaces the syscall piles up behind it and
//! goes out in a few large writes. There is no timed hold.
//!
//! Inbound, an accept thread performs a 4-byte hello handshake (the
//! connecting locality announces its id) and spawns a reader that
//! re-frames the byte stream via [`frame::decode`] and forwards each
//! parcel to the [`PortSink`]. EOF or an I/O error on a peer's stream
//! surfaces as [`PortEvent::PeerLost`], and all queued/future sends to
//! that peer fail with [`Error::PeerLost`] — callers never hang on a
//! dead node.

use super::frame;
use super::{Parcel, Parcelport, PortEvent, PortSink};
use crate::error::{Error, Result};
use crate::introspect::CounterRegistry;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`TcpParcelport`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Upper bound on the bytes of one coalesced `write` (a unit always
    /// holds at least one whole frame, so larger frames still go out).
    pub coalesce_max_bytes: usize,
    /// Backpressure bound: [`Parcelport::send`] blocks while a peer's
    /// queue holds this many bytes.
    pub queue_capacity_bytes: usize,
    /// Connection attempts before giving up on a peer.
    pub connect_attempts: u32,
    /// Initial retry backoff (doubles per attempt, capped at 200 ms,
    /// jittered ±25% per sleep to avoid synchronized reconnect storms).
    pub connect_backoff: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            coalesce_max_bytes: 16 << 10,
            queue_capacity_bytes: 4 << 20,
            connect_attempts: 20,
            connect_backoff: Duration::from_millis(1),
        }
    }
}

impl TcpConfig {
    /// A configuration with coalescing disabled: every parcel is its own
    /// `write` (the baseline the coalescing benchmark compares against).
    pub fn uncoalesced() -> TcpConfig {
        TcpConfig {
            coalesce_max_bytes: 1,
            ..TcpConfig::default()
        }
    }
}

#[derive(Default)]
struct Stats {
    parcels_sent: AtomicU64,
    parcels_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    writes: AtomicU64,
    corrupt_frames: AtomicU64,
}

/// The sender-side queue for one peer.
struct PeerQueue {
    /// Encoded frames awaiting the writer thread.
    buf: Vec<u8>,
    /// Length of each queued frame, in order (one entry per queued
    /// parcel); the writer uses these to split a batch into write units.
    lens: Vec<usize>,
    /// The writer is parked on `ready`; only then does a sender pay for
    /// the wake-up, so a burst costs one notification, not one per frame.
    writer_idle: bool,
    closed: bool,
}

struct PeerShared {
    state: Mutex<PeerQueue>,
    /// Wakes the writer when frames arrive or the queue closes.
    ready: Condvar,
    /// Wakes blocked senders when the writer drains the queue.
    space: Condvar,
}

struct Peer {
    id: u32,
    shared: Arc<PeerShared>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

struct Inner {
    local_id: u32,
    cfg: TcpConfig,
    sink: PortSink,
    peers: RwLock<HashMap<u32, Arc<Peer>>>,
    shutdown: AtomicBool,
    /// Set once any connection dies; parcels toward that peer can never
    /// arrive, so exact sent-vs-received accounting is off the table.
    peer_lost: AtomicBool,
    stats: Stats,
}

impl Inner {
    /// Mark the outgoing queue to `peer` closed so senders fail fast.
    fn close_peer_queue(&self, peer: u32) {
        if let Some(p) = self.peers.read().get(&peer) {
            let mut q = p.shared.state.lock();
            q.closed = true;
            p.shared.ready.notify_all();
            p.shared.space.notify_all();
        }
    }

    fn emit(&self, ev: PortEvent) {
        if !self.shutdown.load(Ordering::Acquire) {
            (self.sink)(ev);
        }
    }

    fn mark_peer_lost(&self) {
        self.peer_lost.store(true, Ordering::Release);
    }
}

/// Accepted inbound streams and their reader threads, shared with the
/// accept loop so shutdown can sever and join them.
type ReaderRegistry = Arc<Mutex<Vec<(TcpStream, std::thread::JoinHandle<()>)>>>;

/// A [`Parcelport`] over TCP; see the module docs for the design.
pub struct TcpParcelport {
    inner: Arc<Inner>,
    listener_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
    readers: ReaderRegistry,
}

impl TcpParcelport {
    /// Bind a listener for `local_id` on `addr` (use port 0 for an
    /// OS-assigned port, then [`TcpParcelport::local_addr`]) and start
    /// the accept loop. Inbound parcels and peer losses go to `sink`.
    pub fn bind(
        local_id: u32,
        addr: SocketAddr,
        sink: PortSink,
        cfg: TcpConfig,
    ) -> std::io::Result<Arc<TcpParcelport>> {
        let listener = TcpListener::bind(addr)?;
        let listener_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            local_id,
            cfg,
            sink,
            peers: RwLock::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            peer_lost: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));
        let port = Arc::new(TcpParcelport {
            inner: inner.clone(),
            listener_addr,
            accept: Mutex::new(None),
            readers: readers.clone(),
        });
        let accept = std::thread::Builder::new()
            .name(format!("px-tcp-accept{local_id}"))
            .spawn(move || accept_loop(listener, inner, readers))
            .expect("failed to spawn parcelport accept thread");
        *port.accept.lock() = Some(accept);
        Ok(port)
    }

    /// The address peers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// Establish the outgoing connection to `peer_id` at `addr`, with
    /// bounded retry/backoff (the peer's listener may not be up yet).
    /// Each sleep is jittered ±25% from a PRNG seeded by the
    /// (local, peer) pair, so peers that start retrying in lockstep —
    /// e.g. a whole rack reconnecting after a switch blip — desynchronize
    /// instead of thundering-herd on the same instant.
    pub fn connect_peer(&self, peer_id: u32, addr: SocketAddr) -> Result<()> {
        let cfg = &self.inner.cfg;
        let mut backoff = cfg.connect_backoff;
        let mut jitter = crate::resilience::SplitMix64::new(
            ((self.inner.local_id as u64) << 32) | peer_id as u64,
        );
        let mut last_err = String::new();
        let mut stream = None;
        for _ in 0..cfg.connect_attempts.max(1) {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(Error::RuntimeShutDown);
            }
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => {
                    last_err = e.to_string();
                    let scale = 0.75 + 0.5 * jitter.next_f64(); // ±25%
                    std::thread::sleep(backoff.mul_f64(scale));
                    backoff = (backoff * 2).min(Duration::from_millis(200));
                }
            }
        }
        let mut stream = stream.ok_or_else(|| {
            Error::Io(format!("connect to locality {peer_id} at {addr}: {last_err}"))
        })?;
        let _ = stream.set_nodelay(true);
        // Hello: announce who is on this end of the connection.
        stream
            .write_all(&self.inner.local_id.to_le_bytes())
            .map_err(|e| Error::Io(format!("hello to locality {peer_id}: {e}")))?;
        let shared = Arc::new(PeerShared {
            state: Mutex::new(PeerQueue {
                buf: Vec::new(),
                lens: Vec::new(),
                writer_idle: false,
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        let inner = self.inner.clone();
        let shared2 = shared.clone();
        let writer = std::thread::Builder::new()
            .name(format!("px-tcp-w{}-{}", self.inner.local_id, peer_id))
            .spawn(move || writer_loop(stream, peer_id, shared2, inner))
            .expect("failed to spawn parcelport writer thread");
        let peer = Arc::new(Peer { id: peer_id, shared, writer: Mutex::new(Some(writer)) });
        self.inner.peers.write().insert(peer_id, peer);
        Ok(())
    }

    /// Total frame bytes put on the wire so far.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.stats.bytes_sent.load(Ordering::Relaxed)
    }

    /// Number of physical writes issued — with coalescing this is
    /// (often much) smaller than the number of parcels sent.
    pub fn writes(&self) -> u64 {
        self.inner.stats.writes.load(Ordering::Relaxed)
    }
}

impl Parcelport for TcpParcelport {
    fn send(&self, parcel: Parcel) -> Result<()> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::RuntimeShutDown);
        }
        let dest = parcel.dest_locality;
        let peer = self
            .inner
            .peers
            .read()
            .get(&dest)
            .cloned()
            .ok_or(Error::UnknownLocality(dest))?;
        let cfg = &self.inner.cfg;
        let mut q = peer.shared.state.lock();
        // Backpressure: block while the peer's queue is full, failing if
        // the connection dies while we wait.
        while !q.closed && q.buf.len() >= cfg.queue_capacity_bytes {
            peer.shared.space.wait_for(&mut q, Duration::from_millis(50));
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(Error::RuntimeShutDown);
            }
        }
        if q.closed {
            return Err(Error::PeerLost(peer.id));
        }
        let before = q.buf.len();
        frame::encode(&parcel, &mut q.buf);
        let len = q.buf.len() - before;
        q.lens.push(len);
        // Counted before the writer can see the frame, so no receiver
        // ever counts a parcel its sender has not.
        self.inner.stats.parcels_sent.fetch_add(1, Ordering::Relaxed);
        let wake = std::mem::take(&mut q.writer_idle);
        drop(q);
        if wake {
            peer.shared.ready.notify_one();
        }
        Ok(())
    }

    fn pending(&self) -> usize {
        self.inner
            .peers
            .read()
            .values()
            .map(|p| p.shared.state.lock().lens.len())
            .sum()
    }

    fn sent(&self) -> u64 {
        self.inner.stats.parcels_sent.load(Ordering::Relaxed)
    }

    fn delivered(&self) -> u64 {
        self.inner.stats.parcels_received.load(Ordering::Relaxed)
    }

    fn peer_lost(&self) -> bool {
        self.inner.peer_lost.load(Ordering::Acquire)
    }

    /// The wire-level counters under `/parcels{locality#L/total}/`. The
    /// wire parcel counts include acks and retransmits, so they are named
    /// apart from the runtime's logical `count/sent`/`count/received`.
    fn register_counters(self: Arc<Self>, registry: &CounterRegistry, locality: u32) {
        registry.register_fields(
            "parcels",
            locality,
            &self.inner,
            &[
                ("bytes/sent", |i| &i.stats.bytes_sent),
                ("bytes/received", |i| &i.stats.bytes_received),
                ("count/writes", |i| &i.stats.writes),
                ("count/dropped/corrupt-frame", |i| &i.stats.corrupt_frames),
                ("count/wire-sent", |i| &i.stats.parcels_sent),
                ("count/wire-received", |i| &i.stats.parcels_received),
            ],
        );
    }

    fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close every outgoing queue and join the writers (they flush
        // what's already queued, then drop their streams).
        let peers: Vec<Arc<Peer>> = self.inner.peers.read().values().cloned().collect();
        for peer in &peers {
            let mut q = peer.shared.state.lock();
            q.closed = true;
            drop(q);
            peer.shared.ready.notify_all();
            peer.shared.space.notify_all();
        }
        for peer in &peers {
            if let Some(t) = peer.writer.lock().take() {
                let _ = t.join();
            }
        }
        // Unblock the accept loop with a throwaway connection, then join.
        let _ = TcpStream::connect(self.listener_addr);
        if let Some(t) = self.accept.lock().take() {
            let _ = t.join();
        }
        // Force blocked readers out of `read` and join them.
        let readers = std::mem::take(&mut *self.readers.lock());
        for (stream, thread) in readers {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

impl Drop for TcpParcelport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<Inner>,
    readers: ReaderRegistry,
) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        // Hello handshake: the 4-byte id of the connecting locality.
        let mut hello = [0u8; 4];
        if stream.read_exact(&mut hello).is_err() {
            continue;
        }
        let peer_id = u32::from_le_bytes(hello);
        let _ = stream.set_nodelay(true);
        let Ok(registered) = stream.try_clone() else { continue };
        let inner2 = inner.clone();
        let reader = std::thread::Builder::new()
            .name(format!("px-tcp-r{}-{}", inner.local_id, peer_id))
            .spawn(move || reader_loop(stream, peer_id, inner2))
            .expect("failed to spawn parcelport reader thread");
        readers.lock().push((registered, reader));
    }
}

fn reader_loop(mut stream: TcpStream, peer_id: u32, inner: Arc<Inner>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    'read: loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        inner.stats.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
        buf.extend_from_slice(&chunk[..n]);
        // Decode at a cursor and compact once per read, so a read of many
        // small frames costs O(bytes), not O(frames × bytes).
        let mut at = 0usize;
        loop {
            match frame::decode(&buf[at..]) {
                Ok((parcel, used)) => {
                    at += used;
                    // Emit before counting: once `parcels_received` matches
                    // the sender's `parcels_sent`, every parcel is
                    // guaranteed to have reached the sink (the cluster's
                    // idle check relies on this ordering).
                    inner.emit(PortEvent::Deliver(parcel));
                    inner.stats.parcels_received.fetch_add(1, Ordering::Relaxed);
                }
                Err(frame::DecodeError::Incomplete { .. }) => break,
                Err(frame::DecodeError::Malformed(_)) => {
                    inner.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                    break 'read;
                }
            }
        }
        buf.drain(..at);
    }
    // EOF, I/O error or a corrupt stream: the peer is gone. Fail our sends
    // toward it and tell the owner so pending responses resolve instead of
    // hanging.
    inner.close_peer_queue(peer_id);
    inner.mark_peer_lost();
    inner.emit(PortEvent::PeerLost(peer_id));
}

/// Split queued frames of the given lengths into write units: whole
/// frames packed greedily up to `max_bytes` per unit, always at least
/// one frame per unit so an oversized frame still goes out on its own.
fn write_units(lens: &[usize], max_bytes: usize) -> Vec<usize> {
    let mut units = Vec::new();
    let mut unit = 0usize;
    for &len in lens {
        if unit > 0 && unit + len > max_bytes {
            units.push(unit);
            unit = 0;
        }
        unit += len;
    }
    if unit > 0 {
        units.push(unit);
    }
    units
}

fn writer_loop(mut stream: TcpStream, peer_id: u32, shared: Arc<PeerShared>, inner: Arc<Inner>) {
    loop {
        let (batch, lens) = {
            let mut q = shared.state.lock();
            while q.buf.is_empty() {
                if q.closed {
                    return;
                }
                q.writer_idle = true;
                shared.ready.wait(&mut q);
            }
            // Self-clocked: take everything queued right now. Frames that
            // arrive while the writes below are in flight form the next
            // batch.
            let batch = std::mem::take(&mut q.buf);
            // Senders block only once the queue reaches capacity, and it
            // only grows between drains, so a smaller batch had no waiters.
            if batch.len() >= inner.cfg.queue_capacity_bytes {
                shared.space.notify_all();
            }
            (batch, std::mem::take(&mut q.lens))
        };
        let mut start = 0usize;
        for unit_len in write_units(&lens, inner.cfg.coalesce_max_bytes) {
            if stream.write_all(&batch[start..start + unit_len]).is_err() {
                inner.close_peer_queue(peer_id);
                inner.mark_peer_lost();
                inner.emit(PortEvent::PeerLost(peer_id));
                return;
            }
            inner.stats.writes.fetch_add(1, Ordering::Relaxed);
            inner.stats.bytes_sent.fetch_add(unit_len as u64, Ordering::Relaxed);
            start += unit_len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agas::Gid;
    use bytes::Bytes;
    use std::sync::mpsc;
    use std::time::Instant;

    fn parcel(dest: u32, payload: &[u8]) -> Parcel {
        Parcel {
            source: 0,
            dest_locality: dest,
            dest: Gid { origin: dest, lid: 1 },
            action: 7,
            payload: Bytes::from(payload.to_vec()),
            response_token: None,
        }
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// Two ports wired A→B; returns (A, B, receiver of B's events).
    fn pair(cfg: TcpConfig) -> (Arc<TcpParcelport>, Arc<TcpParcelport>, mpsc::Receiver<PortEvent>) {
        let (tx, rx) = mpsc::channel();
        let sink_b: PortSink = Arc::new(move |ev| {
            let _ = tx.send(ev);
        });
        let sink_a: PortSink = Arc::new(|_| {});
        let a = TcpParcelport::bind(0, loopback(), sink_a, cfg.clone()).unwrap();
        let b = TcpParcelport::bind(1, loopback(), sink_b, cfg).unwrap();
        a.connect_peer(1, b.local_addr()).unwrap();
        (a, b, rx)
    }

    fn recv_parcels(rx: &mpsc::Receiver<PortEvent>, n: usize) -> Vec<Parcel> {
        let mut got = Vec::new();
        while got.len() < n {
            match rx.recv_timeout(Duration::from_secs(5)).expect("parcel arrives") {
                PortEvent::Deliver(p) => got.push(p),
                PortEvent::PeerLost(l) => panic!("unexpected peer loss of {l}"),
            }
        }
        got
    }

    #[test]
    fn parcels_cross_a_real_socket_in_order() {
        let (a, b, rx) = pair(TcpConfig::default());
        for i in 0..20u8 {
            a.send(parcel(1, &[i; 32])).unwrap();
        }
        let got = recv_parcels(&rx, 20);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.payload[0], i as u8, "in-order delivery");
            assert_eq!(p.action, 7);
        }
        assert_eq!(a.sent(), 20);
        assert_eq!(b.delivered(), 20);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn write_units_pack_greedily_and_pass_oversized_frames_alone() {
        assert_eq!(write_units(&[], 100), Vec::<usize>::new());
        // Greedy: fill a unit until the next frame would overflow it.
        assert_eq!(write_units(&[40, 40, 40, 40, 40], 100), vec![80, 80, 40]);
        assert_eq!(write_units(&[50, 50, 50], 100), vec![100, 50]);
        // An oversized frame closes the open unit and goes out on its own.
        assert_eq!(write_units(&[10, 250, 10], 100), vec![10, 250, 10]);
        // One byte per unit is one frame per write.
        assert_eq!(write_units(&[40, 40, 40], 1), vec![40, 40, 40]);
    }

    #[test]
    fn lone_frame_leaves_in_one_write() {
        // A size threshold no single halo reaches: the frame must still
        // leave at once rather than wait for company.
        let cfg = TcpConfig { coalesce_max_bytes: 1 << 20, ..TcpConfig::default() };
        let (a, b, rx) = pair(cfg);
        a.send(parcel(1, &[7; 64])).unwrap();
        recv_parcels(&rx, 1);
        assert_eq!(a.writes(), 1, "a lone parcel is exactly one write");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn burst_batches_behind_in_flight_writes() {
        // The peer does not read until the burst is queued, so the first
        // frame (larger than any socket buffering) keeps its write in
        // flight while 1 000 small parcels are sent in a tight loop. A
        // free-running receiver would make this a race between the sender
        // and the syscall, which a slow (debug) build can lose.
        let listener = TcpListener::bind(loopback()).unwrap();
        let a = TcpParcelport::bind(0, loopback(), Arc::new(|_| {}), TcpConfig::default()).unwrap();
        a.connect_peer(1, listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        a.send(parcel(1, &vec![0xEE; 8 << 20])).unwrap();
        for i in 0..1000u32 {
            a.send(parcel(1, &i.to_le_bytes().repeat(8))).unwrap();
        }
        let mut hello = [0u8; 4];
        peer.read_exact(&mut hello).unwrap();
        let (mut buf, mut at, mut got) = (Vec::new(), 0usize, Vec::new());
        let mut chunk = vec![0u8; 64 << 10];
        while got.len() < 1001 {
            let n = peer.read(&mut chunk).unwrap();
            assert!(n > 0, "stream ended after {} parcels", got.len());
            buf.extend_from_slice(&chunk[..n]);
            loop {
                match frame::decode(&buf[at..]) {
                    Ok((p, used)) => {
                        at += used;
                        got.push(p);
                    }
                    Err(frame::DecodeError::Incomplete { .. }) => break,
                    Err(frame::DecodeError::Malformed(m)) => panic!("corrupt stream: {m}"),
                }
            }
        }
        assert_eq!(got[0].payload.len(), 8 << 20);
        for (i, p) in got[1..].iter().enumerate() {
            assert_eq!(p.payload[..4], (i as u32).to_le_bytes(), "in-order delivery");
        }
        let writes = a.writes();
        assert!(writes <= 250, "a burst must coalesce, got {writes} writes for 1001 parcels");
        a.shutdown();
    }

    #[test]
    fn corrupt_stream_is_counted_and_drops_the_peer() {
        let (a, b, rx) = pair(TcpConfig::default());
        let mut raw = TcpStream::connect(b.local_addr()).unwrap();
        raw.write_all(&5u32.to_le_bytes()).unwrap(); // valid hello
        raw.write_all(&[0xAB; 64]).unwrap(); // not a frame
        match rx.recv_timeout(Duration::from_secs(5)).expect("an event arrives") {
            PortEvent::PeerLost(5) => {}
            PortEvent::PeerLost(l) => panic!("wrong peer lost: {l}"),
            PortEvent::Deliver(_) => panic!("garbage decoded as a parcel"),
        }
        assert_eq!(b.inner.stats.corrupt_frames.load(Ordering::Relaxed), 1);
        assert!(b.peer_lost());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn sends_to_unknown_peer_are_typed_errors() {
        let (a, b, _rx) = pair(TcpConfig::default());
        assert!(matches!(a.send(parcel(9, b"x")), Err(Error::UnknownLocality(9))));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn peer_death_surfaces_as_peer_lost() {
        let (a, b, _rx) = pair(TcpConfig::default());
        // B also connects back to A so A has an inbound stream from B
        // whose EOF announces B's death.
        b.connect_peer(0, a.local_addr()).unwrap();
        a.send(parcel(1, b"before")).unwrap();
        b.shutdown();
        // Eventually the writer or a fresh send observes the dead peer.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match a.send(parcel(1, b"after")) {
                Err(Error::PeerLost(1)) => break,
                Ok(_) | Err(_) => {
                    assert!(Instant::now() < deadline, "send never failed with PeerLost");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        a.shutdown();
    }
}
