//! Multi-process distributed heat1d over real TCP parcelports
//! (`repro heat1d-net`), with an optional chaos mode
//! (`repro heat1d-net --chaos [spec]`).
//!
//! The parent binds a rendezvous listener, spawns one worker *process*
//! per rank (re-invoking the `repro` binary with the hidden
//! `heat1d-net-worker` argv), and plays address book: each worker hosts
//! its one rank of a [`Cluster`] ([`Cluster::host`]), reports
//! `HELLO <rank> <addr>`, receives the full `PEERS` list back and
//! connects its mesh with it. Every worker then runs the unchanged
//! [`Heat1dSolver`] on its rank — scheduler, AGAS, actions, futures and
//! step replay included — and every halo crosses a real loopback socket
//! as a framed parcel between processes. The parent reassembles the
//! field, checks it against the in-process [`Cluster`] solver on the same
//! parameters, checks the conservation identities over every rank's
//! counters, and appends a loopback coalescing benchmark (same parcel
//! stream with coalescing on vs off) for `BENCH_net.json`.
//!
//! In chaos mode each worker hosts its rank over the [`Stack::Chaos`]
//! stack — TCP at the bottom, the seeded fault injector in the middle,
//! reliable delivery on top — and the solver fails the first attempt of
//! the spec's scheduled steps with a task panic that its step replay
//! heals. Despite injected drops, duplicates, delays, bit-corruption and
//! panics, the reassembled field must be **bitwise identical** to the
//! fault-free in-process solve; `BENCH_resilience.json` additionally
//! records the fault-free overhead of the reliable layer.
//!
//! Each worker reports its block and its cluster's counter snapshot, one
//! `path value` line per counter. The parent sums them per path with
//! [`CounterSnapshot::total`], including the `/halo{...}` take counters
//! that say how many halos had already arrived when their rank needed
//! them.

use parallex::agas::Gid;
use parallex::introspect::{CounterPath, CounterRegistry, CounterSnapshot};
use parallex::locality::Cluster;
use parallex::parcel::stack::{build_stack, Stack};
use parallex::parcel::tcp::{TcpConfig, TcpParcelport};
use parallex::parcel::{Parcel, Parcelport};
use parallex::resilience::ChaosSpec;
use parallex_stencil::heat1d::{install, Heat1dParams, Heat1dSolver};
use parallex_stencil::verify::max_abs_diff;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Experiment parameters shared by the parent and the in-process
/// reference run.
const RANKS: u32 = 3;
const POINTS: usize = 96;
const STEPS: u64 = 40;
const R: f64 = 0.25;

/// Worker threads per locality, in the workers and the reference alike.
const THREADS: usize = 2;

/// Initial temperature field; both the workers and the reference solver
/// must call this exact function.
fn net_init(i: usize) -> f64 {
    if (20..30).contains(&i) {
        1.0
    } else {
        0.0
    }
}

/// What `heat1d_net` hands back to the `repro` sink.
pub struct NetRunReport {
    /// Human-readable experiment summary.
    pub summary: String,
    /// Machine-readable `BENCH_net.json` body.
    pub bench_json: String,
    /// Machine-readable `BENCH_resilience.json` body (chaos mode only).
    pub resilience_json: Option<String>,
}

// ---------------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------------

/// Entry point of a worker process (hidden `heat1d-net-worker` argv of
/// the `repro` binary). `args` is
/// `[rank, ranks, points, steps, r, addr, chaos]` where `chaos` is a
/// [`ChaosSpec`] string or `-` for the raw transport.
///
/// # Panics
/// Panics on malformed arguments or any rendezvous/transport failure —
/// the parent surfaces the non-zero exit status.
pub fn run_worker(args: &[String]) {
    assert_eq!(
        args.len(),
        7,
        "worker args: rank ranks points steps r rendezvous_addr chaos"
    );
    let rank: usize = args[0].parse().expect("rank");
    let ranks: usize = args[1].parse().expect("ranks");
    let points: usize = args[2].parse().expect("points");
    let steps: usize = args[3].parse().expect("steps");
    let r: f64 = args[4].parse().expect("r");
    let rendezvous: SocketAddr = args[5].parse().expect("rendezvous addr");
    let stack = match args[6].as_str() {
        "-" => Stack::Tcp,
        s => Stack::Chaos(ChaosSpec::parse(s).expect("chaos spec")),
    };

    // The action and the halo mailboxes exist before this rank says HELLO,
    // so no peer can connect, let alone send a halo, before they do.
    let cluster =
        Cluster::host(ranks, rank..rank + 1, THREADS, &stack).expect("host this rank");
    install(&cluster);
    let solver = Heat1dSolver::new(&cluster, Heat1dParams::new(points, steps, r));
    let endpoint = cluster.locality(rank).endpoint().expect("a stack listens");
    let mut ctrl = TcpStream::connect(rendezvous).expect("connect to rendezvous");
    writeln!(ctrl, "HELLO {rank} {endpoint}").expect("send hello");
    let mut lines = BufReader::new(ctrl.try_clone().expect("clone rendezvous stream"));
    let mut line = String::new();
    lines.read_line(&mut line).expect("read peer list");
    let mut toks = line.split_whitespace();
    assert_eq!(toks.next(), Some("PEERS"), "unexpected rendezvous reply: {line:?}");
    let addrs: Vec<SocketAddr> = toks.map(|t| t.parse().expect("peer addr")).collect();
    cluster.connect(&addrs).expect("connect the mesh");

    let t0 = Instant::now();
    let field = solver.run(net_init);
    let elapsed_us = t0.elapsed().as_micros() as u64;
    cluster.wait_idle();

    // RESULT header, the counter lines, then the block as raw
    // little-endian f64s.
    let counters = cluster.counter_snapshot();
    writeln!(
        ctrl,
        "RESULT {rank} {} {elapsed_us} {}",
        field.len(),
        counters.len()
    )
    .expect("send result header");
    for (path, value) in counters.iter() {
        writeln!(ctrl, "{path} {value}").expect("send counter");
    }
    let mut raw = Vec::with_capacity(field.len() * 8);
    for v in &field {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    ctrl.write_all(&raw).expect("send result payload");
    ctrl.flush().expect("flush result");

    // Hold the transport open until every rank has reported: a peer may
    // still need our acks or retransmits to finish its steps.
    line.clear();
    lines.read_line(&mut line).expect("read shutdown barrier");
    assert_eq!(line.trim(), "BYE", "unexpected shutdown barrier: {line:?}");
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// parent side
// ---------------------------------------------------------------------------

/// One completed distributed run: the reassembled field, every rank's
/// counters, and the slowest rank's step-loop time.
struct DistRun {
    field: Vec<f64>,
    counters: CounterSnapshot,
    makespan_us: u64,
}

/// Spawn one worker process per rank with the given chaos argv (`-` =
/// raw transport), play rendezvous, and gather the results.
fn run_distributed(chaos_arg: &str) -> DistRun {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous listener");
    let rendezvous = listener.local_addr().expect("rendezvous addr");
    let exe = std::env::current_exe().expect("own binary path");

    let mut children: Vec<std::process::Child> = (0..RANKS)
        .map(|rank| {
            std::process::Command::new(&exe)
                .arg("heat1d-net-worker")
                .arg(rank.to_string())
                .arg(RANKS.to_string())
                .arg(POINTS.to_string())
                .arg(STEPS.to_string())
                .arg(R.to_string())
                .arg(rendezvous.to_string())
                .arg(chaos_arg)
                .spawn()
                .expect("spawn worker process")
        })
        .collect();

    // Collect HELLOs (workers connect in arbitrary order).
    let mut conns: Vec<Option<(BufReader<TcpStream>, TcpStream)>> =
        (0..RANKS).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); RANKS as usize];
    for _ in 0..RANKS {
        let (stream, _) = listener.accept().expect("worker connects to rendezvous");
        let mut rd = BufReader::new(stream.try_clone().expect("clone worker stream"));
        let mut line = String::new();
        rd.read_line(&mut line).expect("read hello");
        let mut toks = line.split_whitespace();
        assert_eq!(toks.next(), Some("HELLO"), "unexpected worker greeting: {line:?}");
        let rank: usize = toks.next().expect("hello rank").parse().expect("hello rank");
        addrs[rank] = toks.next().expect("hello addr").to_string();
        assert!(conns[rank].is_none(), "rank {rank} said hello twice");
        conns[rank] = Some((rd, stream));
    }

    // Broadcast the address book; workers connect their mesh and run.
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    for conn in conns.iter_mut().flatten() {
        conn.1.write_all(peers_line.as_bytes()).expect("send peer list");
    }

    // Gather per-rank results.
    let mut field = Vec::with_capacity(POINTS);
    let mut snapshots = Vec::with_capacity(RANKS as usize);
    let mut makespan_us = 0u64;
    for (rank, conn) in conns.iter_mut().enumerate() {
        let (rd, _) = conn.as_mut().expect("every rank connected");
        let mut line = String::new();
        rd.read_line(&mut line).expect("read result header");
        let mut toks = line.split_whitespace();
        assert_eq!(toks.next(), Some("RESULT"), "unexpected worker result: {line:?}");
        let got_rank: usize = toks.next().expect("rank").parse().expect("rank");
        assert_eq!(got_rank, rank);
        let mut num = || -> u64 { toks.next().expect("result field").parse().expect("number") };
        let (len, elapsed_us, n_counters) = (num() as usize, num(), num());
        makespan_us = makespan_us.max(elapsed_us);
        let counters = (0..n_counters)
            .map(|_| {
                line.clear();
                rd.read_line(&mut line).expect("read counter");
                let (path, value) = line.trim_end().rsplit_once(' ').expect("path value");
                (
                    CounterPath::parse(path).expect("counter path"),
                    value.parse().expect("value"),
                )
            })
            .collect();
        let snap = CounterSnapshot::from_entries(0.0, counters);
        // The rank's runtime ran each task it spawned to completion or to
        // a counted panic.
        let tasks = |name| snap.total("threads", name);
        let ran = tasks("count/cumulative") + tasks("count/panicked");
        assert_eq!(tasks("count/spawned"), ran, "rank {rank}: tasks spawned vs ran");
        snapshots.push(snap);
        let mut raw = vec![0u8; len * 8];
        rd.read_exact(&mut raw).expect("read result payload");
        for chunk in raw.chunks_exact(8) {
            field.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
    }
    // Shutdown barrier: only once every rank has drained and reported is
    // it safe for any of them to tear down its transport.
    for conn in conns.iter_mut().flatten() {
        conn.1.write_all(b"BYE\n").expect("send shutdown barrier");
    }
    for (rank, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker rank {rank} exited with {status}");
    }
    assert_eq!(field.len(), POINTS, "reassembled field covers the domain");
    DistRun {
        field,
        counters: CounterSnapshot::merge(snapshots),
        makespan_us,
    }
}

/// Run the multi-process experiment: spawn the workers, reassemble the
/// field, validate against the in-process cluster, then benchmark
/// coalescing on a loopback port pair. `chaos` is a [`ChaosSpec`] string
/// (`Some("")` selects [`ChaosSpec::pinned`]); in chaos mode the field
/// must be **bitwise identical** to the fault-free reference and the
/// report additionally carries `BENCH_resilience.json` with the
/// fault-free overhead of the reliable layer (solve makespan with the
/// resilient stack, zero fault probabilities, vs the raw transport).
///
/// # Panics
/// Panics if a worker fails, the rendezvous protocol is violated, or the
/// distributed field diverges from the in-process solver.
pub fn heat1d_net(chaos: Option<&str>) -> NetRunReport {
    let chaos_spec: Option<ChaosSpec> = chaos.map(|s| {
        if s.trim().is_empty() {
            ChaosSpec::pinned()
        } else {
            ChaosSpec::parse(s).expect("chaos spec")
        }
    });
    let chaos_arg = chaos_spec.as_ref().map_or_else(|| "-".to_string(), ChaosSpec::render);
    let DistRun {
        field,
        counters,
        makespan_us,
    } = run_distributed(&chaos_arg);
    let wire = |name| counters.total("parcels", name);
    let (parcels, writes, bytes) = (
        wire("count/wire-sent"),
        wire("count/writes"),
        wire("bytes/sent"),
    );
    let chaos = |name| counters.total("chaos", name);
    let (inj_drops, inj_dups, inj_delays, inj_corrupts, task_panics) = (
        chaos("count/injected-drops"),
        chaos("count/injected-dups"),
        chaos("count/injected-delays"),
        chaos("count/injected-corrupts"),
        chaos("count/injected-panics"),
    );
    // Conservation on the real runtime, summed over the processes: every
    // parcel a rank sent was received by one.
    let (sent, received) = (wire("count/sent"), wire("count/received"));
    assert_eq!(sent, received, "parcels sent vs received across the ranks");
    // Every rank takes one halo per neighbour per step, raw or under chaos.
    let (halo_ready, halo_parked) = (
        counters.total("halo", "count/ready-takes"),
        counters.total("halo", "count/parked-takes"),
    );
    assert_eq!(
        halo_ready + halo_parked,
        2 * (RANKS as u64 - 1) * STEPS,
        "halo takes across the ranks"
    );
    let recovery = |name| counters.total("resilience", name);
    let (retransmits, dup_drops, corrupt_drops) = (
        recovery("count/retransmits"),
        recovery("count/dup-drops"),
        recovery("count/corrupt-drops"),
    );

    // In-process reference: the same solve on a shared-memory Cluster.
    let cluster = Cluster::new(RANKS as usize, THREADS);
    install(&cluster);
    let solver = Heat1dSolver::new(&cluster, Heat1dParams::new(POINTS, STEPS as usize, R));
    let want = solver.run(net_init);
    cluster.shutdown();
    let diff = max_abs_diff(&field, &want);
    assert!(
        diff < 1e-12,
        "multi-process field diverged from in-process cluster: max abs diff {diff:e}"
    );
    let bitwise = field.len() == want.len()
        && field.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
    if chaos_spec.is_some() {
        assert!(bitwise, "chaos run must be bitwise identical to the fault-free reference");
    }

    let coalesced = coalescing_run(TcpConfig::default());
    let uncoalesced = coalescing_run(TcpConfig::uncoalesced());

    let mut summary = format!(
        "== heat1d-net: {RANKS} OS processes over TCP loopback ==\n\
         domain {POINTS} points, {STEPS} steps, r = {R}\n\
         max abs diff vs in-process Cluster: {diff:e}\n\
         wire: {parcels} parcels in {writes} writes ({bytes} bytes)\n\
         halo takes: {halo_ready} ready, {halo_parked} parked\n",
    );
    let mut resilience_json = None;
    if let Some(spec) = &chaos_spec {
        // Fault-free overhead of the reliable layer: the same
        // distributed solve through the resilient stack with every fault
        // probability zeroed, vs the raw transport. The arms alternate
        // (raw, quiet, raw, quiet, …) so machine drift hits both alike,
        // and best-of-3 makespans damp process-scheduling noise; the cost
        // left over is pure sequence/ack/checksum machinery.
        let quiet = ChaosSpec { seed: spec.seed, ..ChaosSpec::default() };
        let quiet_arg = quiet.render();
        let (mut raw_us, mut quiet_us) = (u64::MAX, u64::MAX);
        for _ in 0..3 {
            raw_us = raw_us.min(run_distributed("-").makespan_us);
            quiet_us = quiet_us.min(run_distributed(&quiet_arg).makespan_us);
        }
        let overhead_pct = 100.0 * (quiet_us as f64 - raw_us as f64) / (raw_us as f64).max(1.0);
        // Supplementary: the worst case for the layer — tiny parcels at
        // maximum rate through the coalescing stream.
        let reliable_stream = reliable_coalescing_run();
        summary.push_str(&format!(
            "\n== chaos: {} ==\n\
             injected: {inj_drops} drops, {inj_dups} dups, {inj_delays} delays, \
             {inj_corrupts} corrupts, {task_panics} task panics\n\
             recovered: {retransmits} retransmits, {dup_drops} duplicate drops, \
             {corrupt_drops} corrupt drops\n\
             field bitwise identical to fault-free reference: {bitwise}\n\
             chaos solve makespan: {makespan_us} us\n\
             reliable layer fault-free overhead: {overhead_pct:.1}% \
             (solve makespan {quiet_us} us resilient vs {raw_us} us raw, best of 3)\n",
            spec.render(),
        ));
        resilience_json = Some(format!(
            "{{\n  \"experiment\": \"heat1d-net-chaos\",\n  \
             \"chaos\": \"{}\",\n  \"ranks\": {RANKS},\n  \"points\": {POINTS},\n  \
             \"steps\": {STEPS},\n  \"bitwise_identical\": {bitwise},\n  \
             \"faults_injected\": {{ \"drops\": {inj_drops}, \"dups\": {inj_dups}, \
             \"delays\": {inj_delays}, \"corrupts\": {inj_corrupts}, \"task_panics\": {task_panics} }},\n  \
             \"recovery\": {{ \"retransmits\": {retransmits}, \"dup_drops\": {dup_drops}, \
             \"corrupt_drops\": {corrupt_drops} }},\n  \
             \"solve_makespan_us\": {{ \"chaos\": {makespan_us}, \"resilient_fault_free\": {quiet_us}, \
             \"raw\": {raw_us} }},\n  \
             \"fault_free_overhead_pct\": {overhead_pct:.2},\n  \
             \"reliable_coalescing_stream\": {{\n    \"raw\": {},\n    \"reliable\": {}\n  }}\n}}\n",
            spec.render(),
            coalesced.json(),
            reliable_stream.json(),
        ));
    }
    summary.push_str(&format!(
        "\n== parcel coalescing on a loopback port pair ==\n\
         {} parcels of {} payload bytes each\n\
         coalesced:   {:>6} writes ({:.3} writes/parcel), {:>9.0} parcels/s\n\
         uncoalesced: {:>6} writes ({:.3} writes/parcel), {:>9.0} parcels/s\n",
        COALESCE_PARCELS,
        COALESCE_PAYLOAD,
        coalesced.writes,
        coalesced.writes_per_parcel(),
        coalesced.parcels_per_sec(),
        uncoalesced.writes,
        uncoalesced.writes_per_parcel(),
        uncoalesced.parcels_per_sec(),
    ));
    let bench_json = format!(
        "{{\n  \"experiment\": \"heat1d-net\",\n  \"ranks\": {RANKS},\n  \"points\": {POINTS},\n  \
         \"steps\": {STEPS},\n  \"max_abs_diff\": {diff:e},\n  \
         \"wire\": {{ \"parcels\": {parcels}, \"writes\": {writes}, \"bytes\": {bytes} }},\n  \
         \"halo_takes\": {{ \"ready\": {halo_ready}, \"parked\": {halo_parked} }},\n  \
         \"coalescing\": {{\n    \"parcels\": {COALESCE_PARCELS},\n    \"payload_bytes\": {COALESCE_PAYLOAD},\n    \
         \"coalesced\": {},\n    \"uncoalesced\": {}\n  }}\n}}\n",
        coalesced.json(),
        uncoalesced.json(),
    );
    NetRunReport { summary, bench_json, resilience_json }
}

// ---------------------------------------------------------------------------
// coalescing benchmark
// ---------------------------------------------------------------------------

const COALESCE_PARCELS: u64 = 4000;
const COALESCE_PAYLOAD: usize = 32;

struct CoalesceStats {
    writes: u64,
    bytes: u64,
    elapsed: Duration,
}

impl CoalesceStats {
    fn writes_per_parcel(&self) -> f64 {
        self.writes as f64 / COALESCE_PARCELS as f64
    }

    fn parcels_per_sec(&self) -> f64 {
        COALESCE_PARCELS as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "{{ \"writes\": {}, \"bytes\": {}, \"elapsed_us\": {}, \
             \"writes_per_parcel\": {:.4}, \"parcels_per_sec\": {:.0} }}",
            self.writes,
            self.bytes,
            self.elapsed.as_micros(),
            self.writes_per_parcel(),
            self.parcels_per_sec(),
        )
    }
}

fn bench_parcel(payload: &bytes::Bytes) -> Parcel {
    Parcel {
        source: 0,
        dest_locality: 1,
        dest: Gid { origin: 1, lid: 0 },
        action: 7,
        payload: payload.clone(),
        response_token: None,
    }
}

/// Push the stream from `a` to locality 1 until `b` has delivered all of
/// it, and read the physical writes and bytes the TCP layer at the bottom
/// of `a` took from the registry `a`'s stack registers into.
fn stream_run(a: Arc<dyn Parcelport>, b: &dyn Parcelport) -> CoalesceStats {
    let registry = CounterRegistry::new();
    a.clone().register_counters(&registry, 0);
    let payload = bytes::Bytes::from(vec![0x5a_u8; COALESCE_PAYLOAD]);
    let t0 = Instant::now();
    for _ in 0..COALESCE_PARCELS {
        a.send(bench_parcel(&payload)).expect("bench send");
    }
    let deadline = t0 + Duration::from_secs(30);
    while b.delivered() < COALESCE_PARCELS {
        assert!(Instant::now() < deadline, "bench parcels did not all arrive");
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = t0.elapsed();
    let snap = registry.snapshot();
    let stats = CoalesceStats {
        writes: snap.total("parcels", "count/writes"),
        bytes: snap.total("parcels", "bytes/sent"),
        elapsed,
    };
    a.shutdown();
    b.shutdown();
    stats
}

/// Push a stream of small parcels through a loopback port pair under
/// `cfg` and count the physical writes it took.
fn coalescing_run(cfg: TcpConfig) -> CoalesceStats {
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let bind = |id, cfg| TcpParcelport::bind(id, loopback, Arc::new(|_| {}), cfg);
    let a = bind(0, cfg.clone()).expect("bind sender port");
    let b = bind(1, cfg).expect("bind receiver port");
    a.connect_peer(1, b.local_addr()).expect("connect loopback pair");
    stream_run(a, &*b)
}

/// The same stream through the reliable stack (no chaos): what sequence
/// numbers, acks and the retransmit timer cost when nothing goes wrong.
fn reliable_coalescing_run() -> CoalesceStats {
    let (a, tcp_a) = build_stack(0, &Stack::Reliable, Arc::new(|_| {})).expect("sender stack");
    let (b, tcp_b) = build_stack(1, &Stack::Reliable, Arc::new(|_| {})).expect("receiver stack");
    tcp_a
        .connect_peer(1, tcp_b.local_addr())
        .expect("connect data path");
    tcp_b
        .connect_peer(0, tcp_a.local_addr())
        .expect("connect ack path");
    stream_run(a, &*b)
}
