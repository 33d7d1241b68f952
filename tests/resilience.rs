//! Integration tests of the resilience layer: fault-plan determinism
//! (with minimal-repro printouts), replay/replicate recovery semantics,
//! and cluster idleness under an actively faulty transport.

use parallex::locality::Cluster;
use parallex::parcel::serialize;
use parallex::resilience::{
    async_replay, async_replicate, replay_sync, ChaosSpec, FaultPlan, SendFate,
};
use parallex::error::Error;
use parallex::runtime::Runtime;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Format the shortest command that reproduces a schedule divergence:
/// the spec string (canonical form), the stream, and the first index at
/// which the two schedules disagree.
fn divergence_repro(spec: &ChaosSpec, stream: u64, a: &[SendFate], b: &[SendFate]) -> Option<String> {
    let i = (0..a.len().min(b.len())).find(|&i| a[i] != b[i])?;
    Some(format!(
        "schedules diverge at parcel #{i}: {:?} vs {:?}\n  \
         minimal repro: FaultPlan::for_stream(ChaosSpec::parse(\"{}\").unwrap(), {stream}).fate_at({i})",
        a[i],
        b[i],
        spec.render(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Determinism is the contract the whole chaos harness rests on: any
    // failure found under a seed must replay from that seed alone.
    #[test]
    fn fault_plan_is_a_pure_function_of_seed_and_stream(
        seed in any::<u64>(),
        stream in 0u64..64,
        drop in 0.0f64..0.3,
        dup in 0.0f64..0.2,
        corrupt in 0.0f64..0.2,
    ) {
        let spec = ChaosSpec { seed, drop, dup, corrupt, ..ChaosSpec::default() };
        let a = FaultPlan::for_stream(spec.clone(), stream);
        let b = FaultPlan::for_stream(spec.clone(), stream);
        let (sa, sb) = (a.schedule(256), b.schedule(256));
        if let Some(repro) = divergence_repro(&spec, stream, &sa, &sb) {
            prop_assert!(false, "two plans from one spec: {}", repro);
        }
        // The stateful live path must walk the same schedule as the
        // pure random-access one.
        let live: Vec<SendFate> = (0..256).map(|_| a.next_fate()).collect();
        if let Some(repro) = divergence_repro(&spec, stream, &live, &sb) {
            prop_assert!(false, "live fates vs pure schedule: {}", repro);
        }
    }

    // The spec string is the replay token operators copy out of CI logs;
    // it must survive a render → parse round trip bit-for-bit.
    #[test]
    fn chaos_spec_survives_the_argv_round_trip(
        seed in any::<u64>(),
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        delay_us in 0u64..10_000,
        panics in 0u32..8,
    ) {
        let spec = ChaosSpec {
            seed,
            drop,
            dup,
            corrupt,
            delay: Duration::from_micros(delay_us),
            delay_p: if delay_us > 0 { 0.1 } else { 0.0 },
            panics,
        };
        prop_assert_eq!(ChaosSpec::parse(&spec.render()).unwrap(), spec);
    }

    #[test]
    fn panic_steps_are_deterministic_distinct_and_in_range(
        seed in any::<u64>(),
        panics in 0u32..16,
        total in 1u64..500,
    ) {
        let spec = ChaosSpec { seed, panics, ..ChaosSpec::default() };
        let a = FaultPlan::new(spec.clone()).panic_steps(total);
        prop_assert_eq!(&a, &FaultPlan::new(spec).panic_steps(total));
        prop_assert_eq!(a.len() as u64, u64::from(panics).min(total));
        prop_assert!(a.iter().all(|&s| s < total));
    }
}

#[test]
fn replay_succeeds_when_the_panic_count_is_below_the_attempt_budget() {
    let rt = Runtime::builder().worker_threads(2).build();
    for failures in 0..3 {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let f = async_replay(&rt, 3, move || {
            if t.fetch_add(1, Ordering::SeqCst) < failures {
                panic!("transient fault #{failures}");
            }
            failures * 10
        });
        assert_eq!(f.get(), failures * 10);
        assert_eq!(tries.load(Ordering::SeqCst), failures + 1, "no extra attempts after success");
    }
    rt.shutdown();
}

#[test]
fn exhausted_replay_surfaces_the_original_error_without_hanging() {
    let rt = Runtime::builder().worker_threads(2).build();
    let tries = Arc::new(AtomicUsize::new(0));
    let t = tries.clone();
    let f = async_replay(&rt, 3, move || -> i32 {
        let k = t.fetch_add(1, Ordering::SeqCst);
        panic!("attempt {k} burns");
    });
    // try_get must *return* (the future resolves to an error), and the
    // error must carry the task's own panic, not a generic timeout.
    let err = f.try_get().expect_err("all attempts panicked");
    match &err {
        Error::TaskPanicked(msg) => assert!(msg.contains("burns"), "lost the panic message: {msg}"),
        Error::BrokenPromise => {}
        other => panic!("unexpected error kind: {other}"),
    }
    assert_eq!(tries.load(Ordering::SeqCst), 3, "exactly the attempt budget ran");
    rt.shutdown();
}

#[test]
fn replicate_returns_the_first_success_and_ignores_losing_replicas() {
    let rt = Runtime::builder().worker_threads(4).build();
    let calls = Arc::new(AtomicUsize::new(0));
    let c = calls.clone();
    let f = async_replicate(&rt, 4, move || {
        // Replica 0 dies, the rest agree; the future must still yield
        // the value, and the panicking replica must not poison it.
        if c.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("replica zero lost its node");
        }
        99
    });
    assert_eq!(f.get(), 99);
    rt.shutdown();
}

#[test]
fn replay_sync_exhaustion_reports_the_last_panic() {
    let err = replay_sync(2, || -> i32 { panic!("persistent fault") })
        .expect_err("both attempts panic");
    match err {
        Error::TaskPanicked(msg) => assert!(msg.contains("persistent fault"), "{msg}"),
        other => panic!("unexpected error kind: {other}"),
    }
}

#[test]
fn wait_idle_settles_exactly_once_deliveries_under_retransmits() {
    const ADD: parallex::parcel::ActionId = 0x7E57;
    // Aggressive loss: plenty of retransmits and duplicate deliveries
    // in flight while wait_idle decides whether the cluster is done.
    let chaos = ChaosSpec::parse("seed=23,drop=15%,dup=10%,delay=1ms").unwrap();
    let c = Cluster::new_resilient(2, 1, Some(chaos));
    c.register_action(ADD, "test::add", |loc, gid, payload| {
        let x: i64 = serialize::from_bytes(payload)?;
        *loc.components().get::<Mutex<i64>>(gid)?.lock() += x;
        Ok(Vec::new())
    });
    let gid = c.new_component(1, Mutex::new(0i64));
    for _ in 0..100 {
        c.locality(0).apply(gid, ADD, &1i64).unwrap();
    }
    c.wait_idle();
    // Idle may not be declared while a dropped parcel still awaits its
    // retransmit: at this point every one of the 100 must have landed
    // exactly once.
    assert_eq!(*c.get_component::<Mutex<i64>>(gid).unwrap().lock(), 100);
    let snap = c.counter_snapshot();
    let total = |name: &str| -> u64 {
        snap.iter()
            .filter(|(p, _)| p.object == "resilience" && p.name == name)
            .map(|(_, v)| v)
            .sum()
    };
    assert_eq!(
        total("data/sent"),
        total("data/delivered"),
        "ledger must balance once idle"
    );
    c.shutdown();
}
