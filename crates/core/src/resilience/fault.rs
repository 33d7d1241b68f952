//! Deterministic fault injection: seeded chaos plans and a faulty
//! parcelport decorator. Task panics are scheduled by
//! [`FaultPlan::panic_steps`] and raised by the distributed stencil
//! solvers' step replay, the one task-fault path.
//!
//! Everything here is driven by a [`FaultPlan`]: a pure function from
//! `(seed, stream, event index)` to a fault decision. Two plans built
//! from the same [`ChaosSpec`] produce bit-identical schedules, so any
//! chaos failure replays exactly from its seed — the property the
//! determinism proptest in `tests/resilience.rs` pins down.

use crate::error::{Error, Result};
use crate::introspect::CounterRegistry;
use crate::parcel::{Parcel, Parcelport, TimerWheel};
use bytes::Bytes;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: tiny, high-quality, dependency-free PRNG. Good enough for
/// fault schedules; NOT cryptographic.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parsed chaos specification, e.g.
/// `seed=1337,drop=5%,dup=2%,delay=2ms,corrupt=1%,panics=1`.
///
/// Fields:
/// - `seed=<u64>`   — PRNG seed (the replay handle)
/// - `drop=<p>%`    — probability a parcel is silently dropped
/// - `dup=<p>%`     — probability a parcel is sent twice
/// - `corrupt=<p>%` — probability one payload bit is flipped
/// - `delay=<dur>`  — extra latency injected into delayed parcels
///   (`2ms`, `500us`, `1s`); because later parcels overtake a delayed
///   one, this is also the reordering knob
/// - `delayp=<p>%`  — probability a parcel is delayed (defaults to 10%
///   when `delay` is set, 0 otherwise)
/// - `panics=<n>`   — task panics to inject per locality: either
///   distributed stencil solver (1D heat or 2D Jacobi) on a chaos stack
///   fails the first attempt of the [`FaultPlan::panic_steps`]
///   steps of its locality
///   ([`Locality::injected_panic_steps`](crate::locality::Locality::injected_panic_steps))
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    /// PRNG seed; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Drop probability in `[0, 1]`.
    pub drop: f64,
    /// Duplication probability in `[0, 1]`.
    pub dup: f64,
    /// Payload bit-corruption probability in `[0, 1]`.
    pub corrupt: f64,
    /// Injected delay duration for delayed parcels.
    pub delay: Duration,
    /// Probability a parcel is delayed by `delay`.
    pub delay_p: f64,
    /// Task panics a distributed stencil solver injects per locality.
    pub panics: u32,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0x5EED,
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay: Duration::ZERO,
            delay_p: 0.0,
            panics: 0,
        }
    }
}

impl ChaosSpec {
    /// The pinned CI chaos spec: every fault class at once, fixed seed.
    pub fn pinned() -> ChaosSpec {
        ChaosSpec {
            seed: 1337,
            drop: 0.05,
            dup: 0.02,
            corrupt: 0.01,
            delay: Duration::from_millis(2),
            delay_p: 0.10,
            panics: 1,
        }
    }

    /// The canonical `key=value,...` form: `parse(render())` roundtrips
    /// exactly. Probabilities are emitted as raw fractions (shortest
    /// f64 round-trip) and the delay in nanoseconds, so the string can
    /// cross a process boundary (the chaos worker's argv) losslessly.
    pub fn render(&self) -> String {
        format!(
            "seed={},drop={},dup={},corrupt={},delay={}ns,delayp={},panics={}",
            self.seed,
            self.drop,
            self.dup,
            self.corrupt,
            self.delay.as_nanos(),
            self.delay_p,
            self.panics,
        )
    }

    /// Parse a `key=value,...` spec string (see type docs for the keys).
    pub fn parse(s: &str) -> Result<ChaosSpec> {
        let mut spec = ChaosSpec::default();
        let mut delay_p_set = false;
        for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| Error::InvalidArgument(format!("chaos: expected key=value, got {tok:?}")))?;
            match key.trim() {
                "seed" => spec.seed = parse_u64(val)?,
                "drop" => spec.drop = parse_percent(val)?,
                "dup" => spec.dup = parse_percent(val)?,
                "corrupt" => spec.corrupt = parse_percent(val)?,
                "delay" => spec.delay = parse_duration(val)?,
                "delayp" => {
                    spec.delay_p = parse_percent(val)?;
                    delay_p_set = true;
                }
                "panics" => spec.panics = parse_u64(val)? as u32,
                other => {
                    return Err(Error::InvalidArgument(format!("chaos: unknown key {other:?}")))
                }
            }
        }
        if !delay_p_set && !spec.delay.is_zero() {
            spec.delay_p = 0.10;
        }
        let total = spec.drop + spec.dup + spec.corrupt + spec.delay_p;
        if total > 1.0 {
            return Err(Error::InvalidArgument(format!(
                "chaos: fault probabilities sum to {total:.2} > 1"
            )));
        }
        Ok(spec)
    }
}

impl std::fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={},drop={}%,dup={}%,corrupt={}%,delay={}us,delayp={}%,panics={}",
            self.seed,
            self.drop * 100.0,
            self.dup * 100.0,
            self.corrupt * 100.0,
            self.delay.as_micros(),
            self.delay_p * 100.0,
            self.panics
        )
    }
}

fn parse_u64(v: &str) -> Result<u64> {
    v.trim()
        .parse()
        .map_err(|_| Error::InvalidArgument(format!("chaos: bad integer {v:?}")))
}

fn parse_percent(v: &str) -> Result<f64> {
    let v = v.trim();
    let (num, scale) =
        if let Some(p) = v.strip_suffix('%') { (p, 100.0) } else { (v, 1.0) };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| Error::InvalidArgument(format!("chaos: bad probability {v:?}")))?;
    let p = x / scale;
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::InvalidArgument(format!("chaos: probability {v:?} out of [0,1]")));
    }
    Ok(p)
}

fn parse_duration(v: &str) -> Result<Duration> {
    let v = v.trim();
    let (num, unit): (&str, fn(u64) -> Duration) = if let Some(n) = v.strip_suffix("ms") {
        (n, Duration::from_millis)
    } else if let Some(n) = v.strip_suffix("us") {
        (n, Duration::from_micros)
    } else if let Some(n) = v.strip_suffix("ns") {
        (n, Duration::from_nanos)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, Duration::from_secs)
    } else {
        return Err(Error::InvalidArgument(format!(
            "chaos: duration {v:?} needs a unit (ns/us/ms/s)"
        )));
    };
    let x: u64 = num
        .trim()
        .parse()
        .map_err(|_| Error::InvalidArgument(format!("chaos: bad duration {v:?}")))?;
    Ok(unit(x))
}

/// What the plan decided for one outbound parcel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendFate {
    /// Pass through untouched.
    Deliver,
    /// Silently discard.
    Drop,
    /// Send twice.
    Duplicate,
    /// Defer by this much — later parcels overtake it (reordering).
    Delay(Duration),
    /// Flip bit `bit` of payload byte `byte_seed % payload_len`.
    Corrupt {
        /// Reduced modulo the payload length at injection time.
        byte_seed: u64,
        /// Bit index 0..8.
        bit: u8,
    },
}

/// A replayable fault schedule: a pure function from event index to
/// [`SendFate`], plus a consumption counter for live injection.
///
/// `stream` decorrelates multiple plans built from one spec (one per
/// locality/process) while keeping each individually replayable.
#[derive(Debug)]
pub struct FaultPlan {
    spec: ChaosSpec,
    stream: u64,
    counter: AtomicU64,
}

impl FaultPlan {
    /// Plan on stream 0.
    pub fn new(spec: ChaosSpec) -> FaultPlan {
        FaultPlan::for_stream(spec, 0)
    }

    /// Plan on a decorrelated sub-stream (e.g. one per locality).
    pub fn for_stream(spec: ChaosSpec, stream: u64) -> FaultPlan {
        FaultPlan { spec, stream, counter: AtomicU64::new(0) }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Fate of the `index`-th send event — pure, timing-independent.
    pub fn fate_at(&self, index: u64) -> SendFate {
        let mut rng = SplitMix64::new(
            self.spec
                .seed
                .wrapping_add(self.stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        rng.next_u64(); // decorrelate nearby seeds
        let roll = rng.next_f64();
        let mut acc = self.spec.drop;
        if roll < acc {
            return SendFate::Drop;
        }
        acc += self.spec.dup;
        if roll < acc {
            return SendFate::Duplicate;
        }
        acc += self.spec.corrupt;
        if roll < acc {
            return SendFate::Corrupt { byte_seed: rng.next_u64(), bit: (rng.next_u64() & 7) as u8 };
        }
        acc += self.spec.delay_p;
        if roll < acc && !self.spec.delay.is_zero() {
            return SendFate::Delay(self.spec.delay);
        }
        SendFate::Deliver
    }

    /// Fate of the next live send event (advances the counter).
    pub fn next_fate(&self) -> SendFate {
        self.fate_at(self.counter.fetch_add(1, Ordering::Relaxed))
    }

    /// The first `n` fates — the replayable schedule the determinism
    /// proptest compares across plan instances.
    pub fn schedule(&self, n: usize) -> Vec<SendFate> {
        (0..n as u64).map(|i| self.fate_at(i)).collect()
    }

    /// Choose `spec.panics` distinct indices in `[0, total)` at which a
    /// solver injects a task panic. Deterministic in the seed.
    pub fn panic_steps(&self, total: u64) -> BTreeSet<u64> {
        let mut rng = SplitMix64::new(self.spec.seed ^ 0x7061_6e69_635f_6174); // "panic_at"
        let mut out = BTreeSet::new();
        if total == 0 {
            return out;
        }
        while out.len() < self.spec.panics.min(total as u32) as usize {
            out.insert(rng.next_u64() % total);
        }
        out
    }
}

/// A [`Parcelport`] decorator that injects the faults a [`FaultPlan`]
/// schedules: drop, duplicate, delay/reorder and payload bit-corruption.
///
/// It sits *above* framing, so injected corruption models end-to-end
/// damage the wire checksum cannot see — exactly what the reliability
/// layer's payload checksum exists to catch.
pub struct FaultyParcelport {
    inner: Arc<dyn Parcelport>,
    plan: Arc<FaultPlan>,
    timer: TimerWheel,
    drops: AtomicU64,
    dups: AtomicU64,
    delays: AtomicU64,
    corrupts: AtomicU64,
}

impl FaultyParcelport {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn Parcelport>, plan: Arc<FaultPlan>) -> Arc<FaultyParcelport> {
        Arc::new(FaultyParcelport {
            inner,
            plan,
            timer: TimerWheel::new(),
            drops: AtomicU64::new(0),
            dups: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            corrupts: AtomicU64::new(0),
        })
    }
}

impl Parcelport for FaultyParcelport {
    fn send(&self, parcel: Parcel) -> Result<()> {
        match self.plan.next_fate() {
            SendFate::Deliver => self.inner.send(parcel),
            SendFate::Drop => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            SendFate::Duplicate => {
                self.dups.fetch_add(1, Ordering::Relaxed);
                self.inner.send(parcel.clone())?;
                self.inner.send(parcel)
            }
            SendFate::Delay(d) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                let inner = self.inner.clone();
                // A delayed parcel that outlives the port is dropped — a
                // fault injector losing a parcel at shutdown is in-contract.
                self.timer.schedule(d, move || {
                    let _ = inner.send(parcel);
                });
                Ok(())
            }
            SendFate::Corrupt { byte_seed, bit } => {
                self.corrupts.fetch_add(1, Ordering::Relaxed);
                if parcel.payload.is_empty() {
                    return self.inner.send(parcel);
                }
                let mut bytes = parcel.payload.to_vec();
                let at = (byte_seed % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << bit;
                let mut corrupted = parcel;
                corrupted.payload = Bytes::from(bytes);
                self.inner.send(corrupted)
            }
        }
    }

    fn pending(&self) -> usize {
        self.timer.pending() + self.inner.pending()
    }

    fn sent(&self) -> u64 {
        self.inner.sent()
    }

    fn delivered(&self) -> u64 {
        self.inner.delivered()
    }

    fn peer_lost(&self) -> bool {
        self.inner.peer_lost()
    }

    /// `/chaos{locality#L/total}/count/injected-*`, then the layer below.
    fn register_counters(self: Arc<Self>, registry: &CounterRegistry, locality: u32) {
        registry.register_fields(
            "chaos",
            locality,
            &self,
            &[
                ("count/injected-drops", |p| &p.drops),
                ("count/injected-dups", |p| &p.dups),
                ("count/injected-delays", |p| &p.delays),
                ("count/injected-corrupts", |p| &p.corrupts),
            ],
        );
        self.inner.clone().register_counters(registry, locality);
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_the_readme_example() {
        let s = ChaosSpec::parse("seed=42,drop=5%,dup=2%,delay=2ms").unwrap();
        assert_eq!(s.seed, 42);
        assert!((s.drop - 0.05).abs() < 1e-12);
        assert!((s.dup - 0.02).abs() < 1e-12);
        assert_eq!(s.delay, Duration::from_millis(2));
        assert!((s.delay_p - 0.10).abs() < 1e-12, "delayp defaults to 10% when delay set");
    }

    #[test]
    fn spec_render_parse_roundtrips_exactly() {
        for spec in [
            ChaosSpec::pinned(),
            ChaosSpec::default(),
            ChaosSpec::parse("seed=9,drop=3.5%,delay=750us,delayp=12%,panics=2").unwrap(),
        ] {
            assert_eq!(ChaosSpec::parse(&spec.render()).unwrap(), spec, "{}", spec.render());
        }
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(ChaosSpec::parse("drop").is_err());
        assert!(ChaosSpec::parse("drop=banana%").is_err());
        assert!(ChaosSpec::parse("delay=5").is_err(), "duration needs a unit");
        assert!(ChaosSpec::parse("drop=150%").is_err());
        assert!(ChaosSpec::parse("drop=60%,dup=60%").is_err(), "probabilities must sum <= 1");
        assert!(ChaosSpec::parse("frobnicate=1").is_err());
    }

    #[test]
    fn plan_is_deterministic_and_streams_decorrelate() {
        let spec = ChaosSpec::parse("seed=7,drop=20%,dup=10%,corrupt=5%,delay=1ms").unwrap();
        let a = FaultPlan::for_stream(spec.clone(), 1);
        let b = FaultPlan::for_stream(spec.clone(), 1);
        assert_eq!(a.schedule(500), b.schedule(500));
        let c = FaultPlan::for_stream(spec, 2);
        assert_ne!(a.schedule(500), c.schedule(500), "different streams differ");
    }

    #[test]
    fn live_counter_matches_pure_schedule() {
        let spec = ChaosSpec::parse("seed=9,drop=30%").unwrap();
        let plan = FaultPlan::new(spec.clone());
        let live: Vec<SendFate> = (0..100).map(|_| plan.next_fate()).collect();
        assert_eq!(live, FaultPlan::new(spec).schedule(100));
    }

    #[test]
    fn panic_steps_are_deterministic_and_bounded() {
        let spec = ChaosSpec { panics: 3, ..ChaosSpec::default() };
        let plan = FaultPlan::new(spec.clone());
        let a = plan.panic_steps(40);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&s| s < 40));
        assert_eq!(a, FaultPlan::new(spec).panic_steps(40));
    }
}
