//! Timed calls into single layers' public functions, for the per-layer
//! ledger of a `--trace 1` run.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use parallex::agas::Gid;
use parallex::locality::Cluster;
use parallex::parcel::{frame, serialize, Parcel};
use parallex_stencil::heat1d::{install, Heat1dParams, Heat1dSolver, Side, HALO_PUSH};

use crate::report::Report;
use crate::stats::median;

/// Calls per timed batch of a codec probe.
const CODEC_CALLS: u32 = 20_000;

/// Timed batches per codec probe; the median batch is reported.
const CODEC_BATCHES: usize = 7;

/// Cluster builds the set-up probe times.
const CLUSTER_BUILDS: usize = 5;

/// Iterations of the host CPU reference loop.
const CPU_REF_ITERS: u32 = 10_000_000;

/// Timed runs of the host CPU reference loop; the median is reported.
const CPU_REF_RUNS: usize = 5;

/// Milliseconds one thread takes for a fixed chain of xorshift steps
/// that calls no code of the repository, median of [`CPU_REF_RUNS`]: how
/// fast the host runs this process at the time, to set beside its solve
/// times.
pub fn host_cpu_ms() -> f64 {
    let runs: Vec<f64> = (0..CPU_REF_RUNS)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
            for _ in 0..CPU_REF_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// Median ns per call of `f` over [`CODEC_BATCHES`] batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..CODEC_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CODEC_CALLS {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(CODEC_CALLS)
        })
        .collect();
    median(&batches)
}

/// `parcel.serialize_ns`, `parcel.frame_encode_ns` and
/// `parcel.frame_decode_ns`: the codec cost of one halo-sized parcel,
/// which bounds how much of a step codec work can be.
pub fn codec(report: &mut Report) {
    let halo = (Side::Left, 5u64, 0.5f64);
    let payload = serialize::to_bytes(&halo).expect("halo tuple serializes");
    let parcel = Parcel {
        source: 0,
        dest_locality: 1,
        dest: Gid { origin: 1, lid: 7 },
        action: HALO_PUSH,
        payload: Bytes::from(payload),
        response_token: None,
    };
    let mut wire = Vec::new();
    frame::encode(&parcel, &mut wire);
    let decoded = frame::decode(&wire).expect("an encoded frame decodes");
    assert_eq!(decoded.0.payload, parcel.payload, "codec round trip");

    report.set(
        "parcel.serialize_ns",
        ns_per_call(|| {
            black_box(serialize::to_bytes(black_box(&halo)).expect("halo tuple serializes"));
        }),
    );
    let mut out = Vec::with_capacity(wire.len());
    report.set(
        "parcel.frame_encode_ns",
        ns_per_call(|| {
            out.clear();
            frame::encode(black_box(&parcel), &mut out);
            black_box(&out);
        }),
    );
    report.set(
        "parcel.frame_decode_ns",
        ns_per_call(|| {
            black_box(frame::decode(black_box(&wire)).expect("an encoded frame decodes"));
        }),
    );
}

/// `locality.mesh_connect_ms` and `agas.solver_new_us` for workloads that
/// build no cluster of their own: time `Cluster::new_tcp(2, 1)` and
/// `Heat1dSolver::new` on fresh clusters.
pub fn cluster_setup(report: &mut Report) {
    let mut mesh_s = Vec::new();
    let mut solver_s = Vec::new();
    for _ in 0..CLUSTER_BUILDS {
        let t = Instant::now();
        let cluster = Cluster::new_tcp(2, 1);
        mesh_s.push(t.elapsed().as_secs_f64());
        install(&cluster);
        let t = Instant::now();
        let solver = Heat1dSolver::new(&cluster, Heat1dParams::new(64, 1, 0.25));
        solver_s.push(t.elapsed().as_secs_f64());
        drop(solver);
        cluster.shutdown();
    }
    report.set("locality.mesh_connect_ms", median(&mesh_s) * 1e3);
    report.set("agas.solver_new_us", median(&solver_s) * 1e6);
}
