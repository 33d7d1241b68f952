//! Quickstart: the ParalleX programming model in five minutes.
//!
//! ```text
//! cargo run --release -p parallex-bench --example quickstart
//! ```
//!
//! Walks through the core API: a runtime, async tasks + futures, dataflow
//! composition, LCOs, and a data-parallel `for_each` — the building
//! blocks the paper's benchmarks (Listings 1 and 2) are made of.

use parallex::lcos::dataflow::dataflow2;
use parallex::prelude::*;

fn main() {
    // An HPX-style runtime: lightweight tasks over a worker pool.
    let rt = Runtime::builder().worker_threads(4).build();
    println!("runtime up with {} workers", rt.workers());

    // --- futures: eager async tasks with continuations -----------------
    let answer = rt
        .async_task(|| 6 * 7)
        .then(|x| {
            println!("task produced {x}");
            x
        })
        .get();
    assert_eq!(answer, 42);

    // --- dataflow: run when all inputs are ready ------------------------
    let a = rt.async_task(|| 2.0_f64);
    let b = rt.async_task(|| 3.0_f64);
    let hyp = dataflow2(a, b, |a, b| (a * a + b * b).sqrt()).get();
    println!("dataflow: hypotenuse = {hyp:.4}");

    // --- when_all over a task fan-out -----------------------------------
    let squares: Vec<u64> = when_all((0..10).map(|i| rt.async_task(move || i * i)).collect()).get();
    println!("fan-out squares: {squares:?}");

    // --- LCOs: channel between producer and consumer tasks ---------------
    let ch: Channel<String> = Channel::for_runtime(&rt);
    let tx = ch.clone();
    rt.spawn(move || {
        for i in 0..3 {
            tx.send(format!("parcel {i}")).unwrap();
        }
    });
    for _ in 0..3 {
        println!("received: {}", ch.recv().get());
    }

    // --- parallel algorithms: the Listing 1/2 workhorse ------------------
    let mut field = vec![0.0_f64; 1 << 16];
    par(&rt).for_each_mut(&mut field, |i, x| *x = (i as f64 * 0.001).sin());
    let energy = par(&rt).reduce(0..field.len(), 0.0, |i| field[i] * field[i], |a, b| a + b);
    println!("field energy = {energy:.2}");

    // Runtime introspection (HPX performance counters).
    let snap = rt.counter_snapshot();
    println!("tasks executed: {}", snap.total("threads", "count/cumulative"));
    rt.shutdown();
    println!("done.");
}
