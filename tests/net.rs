//! Integration tests of the TCP parcelport stack: wire-format
//! properties, end-to-end conservation over real loopback sockets, and
//! the distributed solve across clusters that each host one rank.

use parallex::agas::Gid;
use parallex::introspect::counters::{CounterPath, Instance};
use parallex::introspect::CounterSnapshot;
use parallex::locality::Cluster;
use parallex::parcel::frame::{self, DecodeError};
use parallex::parcel::serialize;
use parallex::parcel::stack::Stack;
use parallex::parcel::Parcel;
use parallex::resilience::ChaosSpec;
use parallex_stencil::heat1d::{install, Heat1dParams, Heat1dSolver};
use parallex_stencil::jacobi2d_dist::{self, Jacobi2dDist, Jacobi2dDistParams};
use parallex_stencil::Jacobi2d;
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

// ---------------------------------------------------------------------------
// one rank per cluster: the multi-process shape inside one test process
// ---------------------------------------------------------------------------

fn bump(i: usize) -> f64 {
    if (20..30).contains(&i) {
        1.0
    } else {
        0.0
    }
}

fn spot(x: usize, y: usize) -> f64 {
    if (3..6).contains(&x) && (4..7).contains(&y) {
        50.0
    } else {
        0.0
    }
}

/// A distributed solve run SPMD on three clusters that each host one
/// rank over `stack` and connect over loopback: the shape of `repro
/// heat1d-net`.
/// `solver` installs the solver's action and builds it on one cluster,
/// `mailbox_gid` names a rank's halo mailbox and `run` solves. Checks
/// that the clusters agree on every system and halo-mailbox GID, and
/// returns the assembled field and the merged counter snapshot.
fn one_rank_per_cluster<S: Sync>(
    stack: &Stack,
    solver: impl Fn(&Cluster) -> S,
    mailbox_gid: impl Fn(&S, usize) -> Gid,
    run: impl Fn(&S) -> Vec<f64> + Sync,
) -> (Vec<f64>, CounterSnapshot) {
    const RANKS: usize = 3;
    let clusters: Vec<Cluster> = (0..RANKS)
        .map(|r| Cluster::host(RANKS, r..r + 1, 2, stack).expect("host one rank"))
        .collect();
    let endpoints: Vec<std::net::SocketAddr> = clusters
        .iter()
        .enumerate()
        .map(|(r, c)| c.locality(r).endpoint().expect("a stack listens"))
        .collect();
    let solvers: Vec<S> = clusters
        .iter()
        .map(|c| {
            c.connect(&endpoints).expect("connect the mesh");
            solver(c)
        })
        .collect();
    for (c, s) in clusters.iter().zip(&solvers) {
        for i in 0..RANKS {
            assert_eq!(c.system_gid(i), clusters[0].system_gid(i), "system GID of {i}");
            assert_eq!(mailbox_gid(s, i), mailbox_gid(&solvers[0], i), "halo-mailbox GID of {i}");
        }
    }
    let blocks: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let runs: Vec<_> = solvers
            .iter()
            .map(|s| {
                let run = &run;
                scope.spawn(move || run(s))
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("rank solve"))
            .collect()
    });
    let snapshots: Vec<CounterSnapshot> = clusters
        .iter()
        .map(|c| {
            c.wait_idle();
            c.counter_snapshot()
        })
        .collect();
    for c in &clusters {
        c.shutdown();
    }
    (blocks.concat(), CounterSnapshot::merge(snapshots))
}

fn injected_panics(snap: &CounterSnapshot) -> u64 {
    snap.iter()
        .filter(|(p, _)| p.object == "chaos" && p.name == "count/injected-panics")
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn clusters_hosting_one_rank_each_solve_bitwise_like_one_cluster() {
    let reference = Cluster::new(3, 2);
    install(&reference);
    let want = Heat1dSolver::new(&reference, Heat1dParams::new(96, 40, 0.25)).run(bump);
    reference.shutdown();
    // The solve of `repro heat1d-net`.
    let solve = |stack: &Stack| {
        one_rank_per_cluster(
            stack,
            |c| {
                install(c);
                Heat1dSolver::new(c, Heat1dParams::new(96, 40, 0.25))
            },
            Heat1dSolver::store_gid,
            |s| s.run(bump),
        )
    };
    let (raw, snap) = solve(&Stack::Tcp);
    assert_eq!(raw, want, "TCP ranks diverged from the in-process cluster");
    assert_eq!(injected_panics(&snap), 0);
    let (chaos, snap) = solve(&Stack::Chaos(ChaosSpec::pinned()));
    assert_eq!(chaos, want, "chaos ranks diverged from the in-process cluster");
    assert_eq!(injected_panics(&snap), 3, "one injected panic per rank");
}

#[test]
fn jacobi2d_on_clusters_hosting_one_rank_each_matches_the_serial_solver_bitwise() {
    let params = Jacobi2dDistParams::new(12, 17, 12);
    let mut serial = Jacobi2d::new(params.nx, params.ny, params.boundary, spot);
    for _ in 0..params.steps {
        serial.step(&parallex::algorithms::seq());
    }
    let want = serial.grid().interior();
    let solve = |stack: &Stack| {
        one_rank_per_cluster(
            stack,
            |c| {
                jacobi2d_dist::install(c);
                Jacobi2dDist::new(c, params)
            },
            Jacobi2dDist::store_gid,
            |s| s.run(spot),
        )
    };
    let (raw, snap) = solve(&Stack::Tcp);
    assert_eq!(raw, want, "TCP ranks diverged from the serial solver");
    assert_eq!(injected_panics(&snap), 0);
    let (chaos, snap) = solve(&Stack::Chaos(ChaosSpec::pinned()));
    assert_eq!(chaos, want, "chaos ranks diverged from the serial solver");
    assert_eq!(injected_panics(&snap), 3, "one injected panic per rank");
}

#[test]
fn wait_idle_on_a_cluster_hosting_some_ranks_skips_the_peers_ledgers() {
    // Rank 0 sends rank 1 one parcel. Rank 0's own ledger never balances
    // (one sent, none delivered to it), so its wait_idle must not wait on it.
    let clusters: Vec<Cluster> = (0..2)
        .map(|r| Cluster::host(2, r..r + 1, 1, &Stack::Tcp).expect("host one rank"))
        .collect();
    let endpoints: Vec<std::net::SocketAddr> = clusters
        .iter()
        .enumerate()
        .map(|(r, c)| c.locality(r).endpoint().expect("a stack listens"))
        .collect();
    for c in &clusters {
        c.connect(&endpoints).expect("connect the mesh");
        c.register_action(ECHO, "net::echo", |_, _, _| Ok(Vec::new()));
    }
    let gid = clusters[0].system_gid(1);
    clusters[0].locality(0).apply(gid, ECHO, &0u64).expect("send");
    let (done, idle) = std::sync::mpsc::channel();
    let rank0 = clusters[0].clone();
    let waiter = std::thread::spawn(move || {
        rank0.wait_idle();
        done.send(()).expect("report idle");
    });
    idle.recv_timeout(std::time::Duration::from_secs(10))
        .expect("wait_idle returned");
    waiter.join().expect("waiter thread");
    let received = CounterPath::new("parcels", 1, Instance::Total, "count/received");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while clusters[1].counter_snapshot().get(&received) != Some(1) {
        assert!(std::time::Instant::now() < deadline, "rank 1 never got the parcel");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for c in &clusters {
        c.shutdown();
    }
}

#[test]
fn repro_heat1d_net_is_bitwise_across_processes_raw_and_under_chaos() {
    // The multi-process proof itself: three worker processes, each
    // hosting one rank and running the solver, against the in-process
    // cluster.
    let out = std::env::temp_dir().join(format!("parallex-heat1d-net-{}", std::process::id()));
    let repro = |chaos: bool| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.arg("--out").arg(&out);
        if chaos {
            cmd.arg("--chaos");
        }
        let run = cmd.arg("heat1d-net").output().expect("run repro");
        assert!(
            run.status.success(),
            "repro heat1d-net (chaos: {chaos}) exited with {}: {}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        );
    };
    let read = |name: &str| std::fs::read_to_string(out.join(name)).expect("bench file written");
    repro(false);
    let net = read("BENCH_net.json");
    assert!(net.contains("\"max_abs_diff\": 0e0"), "{net}");
    repro(true);
    let resilience = read("BENCH_resilience.json");
    assert!(resilience.contains("\"bitwise_identical\": true"), "{resilience}");
    assert!(resilience.contains("\"task_panics\": 3"), "{resilience}");
    let _ = std::fs::remove_dir_all(&out);
}
