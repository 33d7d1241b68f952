//! Integration tests of the TCP parcelport stack: wire-format
//! properties and end-to-end conservation over real loopback sockets.

use parallex::agas::Gid;
use parallex::locality::Cluster;
use parallex::parcel::frame::{self, DecodeError};
use parallex::parcel::serialize;
use parallex::parcel::Parcel;
use proptest::prelude::*;

fn mk_parcel(
    ids: (u32, u32, u32),
    lid: u64,
    payload: Vec<u8>,
    token: Option<u64>,
) -> Parcel {
    let (source, dest_locality, action) = ids;
    Parcel {
        source,
        dest_locality,
        dest: Gid { origin: dest_locality, lid },
        action,
        payload: bytes::Bytes::from(payload),
        response_token: token,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frames_roundtrip_bitwise(
        ids in (any::<u32>(), any::<u32>(), any::<u32>()),
        lid in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        token in proptest::option::of(any::<u64>()),
    ) {
        let p = mk_parcel(ids, lid, payload, token);
        let mut buf = Vec::new();
        frame::encode(&p, &mut buf);
        prop_assert_eq!(buf.len(), frame::encoded_len(&p));
        let (back, used) = frame::decode(&buf).expect("self-encoded frame decodes");
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back.source, p.source);
        prop_assert_eq!(back.dest_locality, p.dest_locality);
        prop_assert_eq!(back.dest, p.dest);
        prop_assert_eq!(back.action, p.action);
        prop_assert_eq!(back.payload, p.payload);
        prop_assert_eq!(back.response_token, p.response_token);
    }

    #[test]
    fn truncated_frames_ask_for_more_without_panicking(
        ids in (any::<u32>(), any::<u32>(), any::<u32>()),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        token in proptest::option::of(any::<u64>()),
        frac in 0.0f64..1.0,
    ) {
        let p = mk_parcel(ids, 1, payload, token);
        let mut buf = Vec::new();
        frame::encode(&p, &mut buf);
        let cut = (((buf.len() - 1) as f64) * frac) as usize;
        match frame::decode(&buf[..cut]) {
            Err(DecodeError::Incomplete { need }) => prop_assert!(need > cut),
            other => prop_assert!(false, "truncated frame must be Incomplete, got {:?}", other),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Any byte soup must either decode, ask for more, or be rejected —
        // never panic, never allocate an absurd buffer.
        let _ = frame::decode(&bytes);
    }

    #[test]
    fn corrupt_headers_are_rejected(
        ids in (any::<u32>(), any::<u32>(), any::<u32>()),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        at in 0usize..4,
        bit in 0u8..8,
    ) {
        // Flip one bit in the magic/version/flags region of a valid
        // frame: either the corruption is caught as malformed, or (a
        // flags-bit flip on a frame whose token field happens to agree)
        // it still decodes to *some* parcel — but it must never panic,
        // hang, or mis-measure the frame.
        let p = mk_parcel(ids, 2, payload, None);
        let mut buf = Vec::new();
        frame::encode(&p, &mut buf);
        buf[at] ^= 1 << bit; // always changes the byte
        match frame::decode(&buf) {
            Ok((_, used)) => prop_assert_eq!(used, buf.len()),
            Err(DecodeError::Malformed(_)) => {}
            Err(DecodeError::Incomplete { .. }) => {
                prop_assert!(false, "complete frame must not be Incomplete")
            }
        }
    }

    #[test]
    fn corrupt_payload_bits_are_rejected_by_the_checksum(
        ids in (any::<u32>(), any::<u32>(), any::<u32>()),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        at_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // Flip one bit anywhere in the *payload* region: unlike the
        // header flips above (where a flips-bit may survive), the
        // payload checksum must catch every single-bit payload flip.
        let p = mk_parcel(ids, 3, payload.clone(), None);
        let mut buf = Vec::new();
        frame::encode(&p, &mut buf);
        let header = buf.len() - payload.len();
        let at = header + (((payload.len() - 1) as f64) * at_frac) as usize;
        buf[at] ^= 1 << bit;
        match frame::decode(&buf) {
            Err(DecodeError::Malformed(msg)) => {
                prop_assert!(msg.contains("checksum"), "wrong rejection: {}", msg)
            }
            other => prop_assert!(
                false,
                "payload bit flip at offset {} must fail the checksum, got {:?}",
                at,
                other
            ),
        }
    }

    #[test]
    fn streamed_frames_reassemble_across_chunk_boundaries(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..8,
        ),
        chunk in 1usize..64,
    ) {
        // Feed the concatenated encoding through a chunked reader-loop
        // replica: every frame must come out once, in order.
        let parcels: Vec<Parcel> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, pl)| mk_parcel((0, 1, i as u32 + 1), i as u64, pl, None))
            .collect();
        let mut stream = Vec::new();
        for p in &parcels {
            frame::encode(p, &mut stream);
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            buf.extend_from_slice(piece);
            loop {
                match frame::decode(&buf) {
                    Ok((p, used)) => {
                        buf.drain(..used);
                        got.push(p);
                    }
                    Err(DecodeError::Incomplete { .. }) => break,
                    Err(DecodeError::Malformed(m)) => {
                        prop_assert!(false, "valid stream flagged malformed: {}", m);
                    }
                }
            }
        }
        prop_assert!(buf.is_empty(), "stream must be fully consumed");
        prop_assert_eq!(got.len(), parcels.len());
        for (a, b) in got.iter().zip(&parcels) {
            prop_assert_eq!(a.payload.clone(), b.payload.clone());
            prop_assert_eq!(a.action, b.action);
        }
    }
}

// ---------------------------------------------------------------------------
// end-to-end over real sockets
// ---------------------------------------------------------------------------

const ECHO: u32 = 0x4E45; // "NE"

#[test]
fn tcp_cluster_conserves_parcels_under_load() {
    let cluster = Cluster::new_tcp(3, 2);
    cluster.register_action(ECHO, "net::echo", |_loc, _gid, payload| {
        let v: u64 = serialize::from_bytes(payload)?;
        serialize::to_bytes(&(v + 1))
    });
    let targets: Vec<Gid> = (1..3).map(|i| cluster.new_component(i, ())).collect();
    let loc = cluster.locality(0);
    let mut futures = Vec::new();
    for i in 0..200u64 {
        let gid = targets[(i % 2) as usize]; // localities 1 and 2: always remote
        futures.push(loc.call::<u64, u64>(gid, ECHO, &i).expect("send echo"));
    }
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(f.try_get().expect("echo response"), i as u64 + 1);
    }
    cluster.wait_idle();
    let snap = cluster.counter_snapshot();
    let total = |name: &str| -> u64 {
        snap.iter()
            .filter(|(p, _)| p.object == "parcels" && p.name == name)
            .map(|(_, v)| v)
            .sum()
    };
    let (sent, received) = (total("count/wire-sent"), total("count/wire-received"));
    // Every request crossed the wire and produced a wire response.
    assert!(sent >= 400, "200 requests + 200 responses expected, saw {sent}");
    assert_eq!(sent, received, "no parcel may be lost or duplicated on loopback");
    let writes = total("count/writes");
    assert!(writes > 0 && writes <= sent, "coalescing can only reduce writes");
    cluster.shutdown();
}

#[test]
fn corrupt_stream_is_counted_on_the_cluster_registry() {
    use parallex::introspect::counters::{CounterPath, Instance};
    use std::io::Write;
    let cluster = Cluster::new_tcp(2, 1);
    let endpoint = cluster
        .locality(1)
        .endpoint()
        .expect("a TCP cluster has endpoints");
    let mut raw = std::net::TcpStream::connect(endpoint).expect("connect");
    raw.write_all(&0u32.to_le_bytes()).expect("hello"); // a valid hello from locality 0
    raw.write_all(&[0xAB; 64]).expect("garbage"); // then bytes that are no frame
    let path = CounterPath::new("parcels", 1, Instance::Total, "count/dropped/corrupt-frame");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while cluster.counter_snapshot().get(&path) != Some(1) {
        assert!(std::time::Instant::now() < deadline, "{path} never read 1");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The corrupt stream counts as a lost peer: locality 1 stops sending
    // to locality 0, and its requests there fail with the typed error.
    loop {
        let f = cluster
            .locality(1)
            .async_action_raw(cluster.system_gid(0), ECHO, &0u64);
        if f.expect("send").try_get() == Err(parallex::error::Error::PeerLost(0)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "peer 0 never counted as lost"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let drops: u64 = cluster
        .counter_snapshot()
        .iter()
        .filter(|(p, _)| p.name == "count/dropped/corrupt-frame")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(drops, 1, "only the corrupted stream is dropped");
    cluster.shutdown();
}
