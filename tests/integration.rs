//! Cross-crate integration: the runtime, SIMD layer and stencil kernels
//! working together end-to-end.

use parallex::algorithms::par;
use parallex::lcos::future::when_all;
use parallex::prelude::*;
use parallex_simd::Pack;
use parallex_stencil::jacobi2d::{Jacobi2d, Jacobi2dVns};
use parallex_stencil::verify::jacobi_reference_step;

#[test]
fn simd_kernels_inside_runtime_tasks() {
    // Pack arithmetic inside spawned tasks, composed with futures.
    let rt = Runtime::builder().worker_threads(4).build();
    let futures: Vec<_> = (0..16)
        .map(|i| {
            rt.async_task(move || {
                let a = Pack::<f64, 8>::splat(i as f64);
                let b = Pack::<f64, 8>::from_fn(|l| l as f64);
                (a * 2.0 + b).reduce_sum()
            })
        })
        .collect();
    let total: f64 = when_all(futures).get().into_iter().sum();
    // sum_i (16i + 28) for i in 0..16 = 16*120 + 16*28
    assert_eq!(total, (16 * 120 + 16 * 28) as f64);
    rt.shutdown();
}

#[test]
fn jacobi_layouts_agree_across_policies_and_widths() {
    let rt = Runtime::builder().worker_threads(3).build();
    let init = |x: usize, y: usize| ((x * 7 + y * 13) % 17) as f64;
    let mut reference = Jacobi2d::new(32, 24, 0.5, init);
    let mut wide = Jacobi2dVns::<f64, 8>::new(32, 24, 0.5, init);
    let mut narrow = Jacobi2dVns::<f64, 2>::new(32, 24, 0.5, init);
    for _ in 0..15 {
        reference.step(&par(&rt));
        wide.step(&par(&rt).with_chunks(5));
        narrow.step(&par(&rt).per_worker().block());
    }
    assert_eq!(reference.grid().max_abs_diff(&wide.grid()), 0.0);
    assert_eq!(reference.grid().max_abs_diff(&narrow.grid()), 0.0);
    rt.shutdown();
}

#[test]
fn jacobi_matches_serial_reference_through_many_steps() {
    let rt = Runtime::builder().worker_threads(4).build();
    let init = |x: usize, y: usize| if (x + y) % 3 == 0 { 2.0 } else { -1.0 };
    let mut solver = Jacobi2d::new(20, 20, 0.0, init);
    let mut ref_grid = solver.grid().clone();
    for _ in 0..30 {
        solver.step(&par(&rt));
        ref_grid = jacobi_reference_step(&ref_grid);
    }
    assert_eq!(solver.grid().max_abs_diff(&ref_grid), 0.0);
    rt.shutdown();
}

#[test]
fn runtime_counters_reflect_stencil_work() {
    let rt = Runtime::builder().worker_threads(2).build();
    let before = rt.counter_snapshot();
    let mut j = Jacobi2d::new(64, 64, 0.0, |_, _| 1.0);
    j.run(5, &par(&rt));
    let after = rt.counter_snapshot();
    let executed =
        |snap: &parallex::introspect::CounterSnapshot| snap.total("threads", "count/cumulative");
    assert!(executed(&after) > executed(&before));
    assert!(after.total("threads", "count/spawned") >= executed(&after));
    rt.shutdown();
}

#[test]
fn nested_algorithms_inside_cluster_actions() {
    // An action that itself runs a parallel algorithm on the destination
    // locality's runtime — work shipped to data, then parallelized there.
    use parallex::locality::Cluster;
    use parallex::parcel::serialize;

    let cluster = Cluster::new(2, 3);
    cluster.register_action(7, "par_sum_squares", |loc, _gid, payload| {
        let n: usize = serialize::from_bytes(payload)?;
        let s = par(loc.runtime()).reduce(0..n, 0u64, |i| (i * i) as u64, |a, b| a + b);
        serialize::to_bytes(&s)
    });
    let gid = cluster.new_component(1, ());
    let got: u64 = cluster.locality(0).call(gid, 7, &1000usize).unwrap().get();
    let want: u64 = (0..1000u64).map(|i| i * i).sum();
    assert_eq!(got, want);
    cluster.shutdown();
}

#[test]
fn distributed_2d_jacobi_equals_shared_memory_2d_jacobi() {
    // The extension solver (distributed rows + halo parcels) must agree
    // bit-for-bit with the paper's shared-memory kernel.
    use parallex::locality::Cluster;
    use parallex_stencil::jacobi2d_dist::{install, Jacobi2dDist, Jacobi2dDistParams};

    let params = Jacobi2dDistParams::new(16, 22, 10);
    let init = |x: usize, y: usize| ((x * 5 + y * 3) % 11) as f64;

    let mut shared = Jacobi2d::new(params.nx, params.ny, 0.0, init);
    for _ in 0..params.steps {
        shared.step(&parallex::algorithms::seq());
    }

    let cluster = Cluster::new(3, 2);
    install(&cluster);
    let solver = Jacobi2dDist::new(&cluster, params);
    let got = solver.run(init);
    cluster.shutdown();

    assert_eq!(got, shared.grid().interior());
}

#[test]
fn collectives_aggregate_stencil_residuals() {
    // Cluster-wide reduce over per-locality values — an all-reduce of
    // per-block residuals, the pattern a distributed convergence check
    // uses.
    use parallex::locality::Cluster;
    use parallex::parcel::serialize;

    let cluster = Cluster::new(4, 2);
    cluster.register_action(21, "block_residual", |loc, _gid, _payload| {
        // Each locality computes a little parallel reduction of its own.
        let residual = par(loc.runtime()).reduce(
            0..1000,
            0.0f64,
            |i| ((i + loc.id() as usize) as f64).sin().abs(),
            |a, b| a + b,
        );
        serialize::to_bytes(&residual)
    });
    let total = cluster
        .reduce_all::<(), f64>(21, &(), |a, b| a + b)
        .unwrap()
        .get();
    let per_block: Vec<f64> = cluster.broadcast::<(), f64>(21, &()).unwrap().get();
    cluster.shutdown();
    assert_eq!(per_block.len(), 4);
    assert!((total - per_block.iter().sum::<f64>()).abs() < 1e-9);
    assert!(total > 0.0);
}

#[test]
fn stream_host_benchmark_is_self_consistent() {
    let rt = Runtime::builder().worker_threads(2).build();
    let r = parallex_stencil::stream::stream_copy_host(&rt, 1 << 18, 2);
    assert!(r.best_gbs > 0.05, "implausibly low bandwidth: {}", r.best_gbs);
    rt.shutdown();
}
