//! Futurized shared-memory 1D heat solver — the dataflow formulation.
//!
//! This is the canonical ParalleX stencil structure from Heller, Kaiser &
//! Iglberger, "Application of the ParalleX execution model to stencil-based
//! problems" (the paper's reference \[9\], and HPX's `1d_stencil_4`
//! example): the domain is split into partitions, each time-step/partition
//! value is a *future*, and partition `i` at step `t+1` is a
//! `dataflow(update, left[t], middle[t], right[t])`. No loop-level
//! barriers exist — "tasks are launched arbitrarily based on the input
//! data and the DAG generated" (the paper's Section I) — so a fast
//! partition can run several steps ahead of a slow neighbour, bounded only
//! by the data dependencies.
//!
//! The block-partitioned distributed solver in [`crate::heat1d`] is the
//! production variant; this module exists to execute the *model's* DAG
//! shape literally and to exercise [`parallex::lcos::future::SharedFuture`]
//! (each partition future has up to three consumers).

use parallex::lcos::dataflow::dataflow3;
use parallex::lcos::future::{Future, SharedFuture};
use parallex::runtime::Runtime;
use std::sync::Arc;

/// One partition of the rod at one time step.
type Part = Arc<Vec<f64>>;

/// The boundary "partition" a missing neighbour contributes.
fn boundary_part(value: f64) -> Part {
    Arc::new(vec![value])
}

/// Update one partition given its neighbours at the previous step
/// (Eq. 3 per cell; `left`/`right` supply the single halo cell each).
fn update_partition(left: &[f64], mid: &[f64], right: &[f64], r: f64) -> Vec<f64> {
    let n = mid.len();
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let l = if j == 0 { *left.last().expect("nonempty") } else { mid[j - 1] };
        let rt = if j + 1 == n { right[0] } else { mid[j + 1] };
        out.push(mid[j] + r * (l - 2.0 * mid[j] + rt));
    }
    out
}

/// Solve the heat equation with `np` partitions of `nx` cells for `steps`
/// steps, fully futurized: returns the final field (`np * nx` cells).
///
/// # Panics
/// Panics on a degenerate decomposition or unstable `r`.
pub fn heat1d_dataflow(
    rt: &Runtime,
    np: usize,
    nx: usize,
    steps: usize,
    r: f64,
    init: impl Fn(usize) -> f64,
) -> Vec<f64> {
    assert!(np > 0 && nx > 0, "degenerate decomposition");
    assert!(r > 0.0 && r <= 0.5, "unstable r = {r}");
    // Time step 0: ready futures holding the initial partitions.
    let mut current: Vec<SharedFuture<Part>> = (0..np)
        .map(|i| {
            let part: Part = Arc::new((0..nx).map(|j| init(i * nx + j)).collect());
            rt.make_ready_future(part).share()
        })
        .collect();

    for _t in 0..steps {
        let next: Vec<SharedFuture<Part>> = (0..np)
            .map(|i| {
                // Pull per-consumer futures out of the shared neighbours
                // (Arc clone — no data copy).
                let left: Future<Part> = if i == 0 {
                    rt.make_ready_future(boundary_part(0.0))
                } else {
                    current[i - 1].then(|p| p)
                };
                let mid: Future<Part> = current[i].then(|p| p);
                let right: Future<Part> = if i + 1 == np {
                    rt.make_ready_future(boundary_part(0.0))
                } else {
                    current[i + 1].then(|p| p)
                };
                dataflow3(left, mid, right, move |l: Part, m: Part, rg: Part| -> Part {
                    Arc::new(update_partition(&l, &m, &rg, r))
                })
                .share()
            })
            .collect();
        current = next;
    }

    current
        .into_iter()
        .flat_map(|sf| sf.get().as_ref().clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{heat1d_exact_sine_mode, heat1d_reference, max_abs_diff, sine_mode_init};

    fn rt() -> Runtime {
        Runtime::builder().worker_threads(4).build()
    }

    #[test]
    fn matches_serial_reference() {
        let rt = rt();
        let (np, nx, steps, r) = (6, 8, 20, 0.3);
        let init = |i: usize| ((i * 3) % 13) as f64;
        let got = heat1d_dataflow(&rt, np, nx, steps, r, init);
        let want = heat1d_reference(np * nx, steps, r, 0.0, 0.0, init);
        assert!(max_abs_diff(&got, &want) < 1e-14);
        rt.shutdown();
    }

    #[test]
    fn matches_exact_sine_decay() {
        let rt = rt();
        let (np, nx, steps, r, k) = (4, 16, 25, 0.25, 1);
        let n = np * nx;
        let got = heat1d_dataflow(&rt, np, nx, steps, r, sine_mode_init(n, k));
        for i in (0..n).step_by(7) {
            let want = heat1d_exact_sine_mode(n, k, r, steps, i);
            assert!((got[i] - want).abs() < 1e-12, "cell {i}");
        }
        rt.shutdown();
    }

    #[test]
    fn decomposition_does_not_change_the_answer() {
        let rt = rt();
        let init = |i: usize| if i == 17 { 9.0 } else { 0.0 };
        let a = heat1d_dataflow(&rt, 1, 48, 15, 0.4, init);
        let b = heat1d_dataflow(&rt, 6, 8, 15, 0.4, init);
        let c = heat1d_dataflow(&rt, 48, 1, 15, 0.4, init);
        assert!(max_abs_diff(&a, &b) < 1e-15);
        assert!(max_abs_diff(&a, &c) < 1e-15);
        rt.shutdown();
    }

    #[test]
    fn single_cell_partitions_exercise_pure_dataflow() {
        // nx = 1: every update reads both neighbours' futures; the DAG is
        // maximally fine-grained.
        let rt = rt();
        let got = heat1d_dataflow(&rt, 10, 1, 12, 0.5, |i| i as f64);
        let want = heat1d_reference(10, 12, 0.5, 0.0, 0.0, |i| i as f64);
        assert!(max_abs_diff(&got, &want) < 1e-14);
        rt.shutdown();
    }

    #[test]
    fn runs_on_a_single_worker_without_deadlock() {
        // The whole DAG must be executable by one worker through
        // continuations (no blocking cycles).
        let rt = Runtime::builder().worker_threads(1).build();
        let got = heat1d_dataflow(&rt, 4, 4, 10, 0.25, |i| (i % 3) as f64);
        let want = heat1d_reference(16, 10, 0.25, 0.0, 0.0, |i| (i % 3) as f64);
        assert!(max_abs_diff(&got, &want) < 1e-14);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_r_rejected() {
        let rt = rt();
        let _ = heat1d_dataflow(&rt, 2, 4, 1, 0.9, |_| 0.0);
    }
}
