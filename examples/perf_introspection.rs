//! Performance introspection: the PAPI-like hardware-counter emulation
//! (Tables III–VI), the runtime's own counters, the grain-size study on
//! the discrete-event scheduler simulator, and the SMT/pinning model
//! behind the paper's one-thread-per-core choice (Section VI).
//!
//! ```text
//! cargo run --release -p parallex-bench --example perf_introspection
//! ```

use parallex::algorithms::par;
use parallex::introspect::render_counters;
use parallex::prelude::*;
use parallex_machine::spec::ProcessorId;
use parallex_perfsim::counters::measure_reference;
use parallex_perfsim::des::{simulate_step, DesConfig};
use parallex_perfsim::exec::{glups_at, glups_at_smt, Stencil2dConfig};
use parallex_perfsim::kernel::Vectorization;

fn main() {
    // ---- emulated hardware counters (the Tables III–VI workflow) -------
    println!("Hardware counters, 8192x16384 x 100 iterations, one core:\n");
    for id in ProcessorId::ALL {
        println!("{}:", id.name());
        for (bytes, vec) in [
            (4, Vectorization::Auto),
            (4, Vectorization::Explicit),
            (8, Vectorization::Auto),
            (8, Vectorization::Explicit),
        ] {
            let m = measure_reference(id, bytes, vec).expect("4/8 elem bytes are calibrated");
            print!(
                "  {:<14} instr {:>9.3e}  misses {:>9.3e}",
                vec.label(bytes).expect("4/8 elem bytes are calibrated"),
                m.instructions,
                m.cache_misses
            );
            if m.stalls_supported() {
                print!("  FE {:>9.3e}  BE {:>9.3e}", m.fe_stalls, m.be_stalls);
            } else {
                print!("  (stall counters unsupported, as in the paper)");
            }
            println!();
        }
    }

    // ---- real runtime counters -----------------------------------------
    let rt = Runtime::builder().worker_threads(4).build();
    let mut field = vec![0.0f64; 1 << 18];
    par(&rt).for_each_mut(&mut field, |i, x| *x = (i as f64).sqrt());
    println!("\nRuntime counters after one parallel sweep:");
    print!("{}", render_counters(&rt.counter_snapshot()));
    rt.shutdown();

    // ---- grain size on the DES scheduler --------------------------------
    println!("\nGrain-size study (DES, 8 cores, 10M LUPs, 0.5 ns/LUP):");
    println!("{:>10} {:>14} {:>12}", "chunks", "makespan ms", "utilization");
    let cfg = DesConfig { cores: 8, task_overhead_ns: 400.0, ..Default::default() };
    for chunks in [8usize, 32, 256, 4096, 65_536] {
        let r = simulate_step(&cfg, 1e7, chunks, 0.5);
        println!(
            "{:>10} {:>14.3} {:>12.2}",
            chunks,
            r.makespan_ns / 1e6,
            r.utilization()
        );
    }
    println!("(the paper: \"HPX is known to have contention overheads when the");
    println!(" grain size is too small\" — visible in the 65536-chunk row)");

    // ---- SMT vs pinning --------------------------------------------------
    println!("\nWhy the paper pins one thread per core (modeled GLUP/s):");
    for id in [ProcessorId::XeonE5_2660v3, ProcessorId::ThunderX2] {
        let spec = id.spec();
        let cfg = Stencil2dConfig::paper(id, 4, Vectorization::Explicit);
        let cores = spec.total_cores();
        print!("  {:<24} pinned {:>7.2}", id.name(), glups_at(&cfg, cores).expect("4/8 elem bytes are calibrated"));
        for t in 2..=spec.threads_per_core {
            print!("  {}x-SMT {:>7.2}", t, glups_at_smt(&cfg, cores, t).expect("4/8 elem bytes are calibrated"));
        }
        println!();
    }
}
