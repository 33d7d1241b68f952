//! HPX-style performance-counter registry with hierarchical paths,
//! interval snapshots and a background sampler.
//!
//! Counter names follow the HPX convention
//! `/{object}{locality#L/instance}/{counter-name}`, e.g.
//! `/threads{locality#0/worker#3}/count/stolen` or
//! `/parcels{locality#1/total}/count/sent`. A [`CounterRegistry`] maps
//! each path to a probe closure; [`CounterRegistry::snapshot`] evaluates
//! every probe into an immutable [`CounterSnapshot`], and two snapshots
//! taken at different times subtract into an interval delta
//! ([`CounterSnapshot::delta`]). [`CounterSampler`] automates that on a
//! background thread, producing a [`SampleSeries`] of snapshots at a
//! fixed cadence — the moral equivalent of
//! `hpx --hpx:print-counter-interval`.
//!
//! Every runtime count is read through a registry: the runtime's task
//! and scheduler counters, each parcelport layer's transport counters,
//! and the cluster's drop, chaos and halo-take counters. The subsystems
//! keep their relaxed atomics as the probes' backing store and expose no
//! other view of them. [`CounterSnapshot::total`] sums one locality-total
//! counter over the localities of a (merged) snapshot.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Which instance of an object a counter describes: the locality-wide
/// aggregate (`total`) or a single worker thread (`worker#N`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Instance {
    /// Aggregate over the whole locality.
    Total,
    /// A single scheduler worker, by index.
    Worker(usize),
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instance::Total => write!(f, "total"),
            Instance::Worker(w) => write!(f, "worker#{w}"),
        }
    }
}

/// A hierarchical counter name in HPX path syntax:
/// `/{object}{locality#L/instance}/{name}`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterPath {
    /// Counter object — `threads`, `parcels`, `lcos`, ...
    pub object: String,
    /// Locality the counter lives on.
    pub locality: u32,
    /// Instance dimension: locality total or a single worker.
    pub instance: Instance,
    /// Counter name below the instance, e.g. `count/stolen`.
    pub name: String,
}

impl CounterPath {
    /// Build a path from its four components.
    pub fn new(
        object: impl Into<String>,
        locality: u32,
        instance: Instance,
        name: impl Into<String>,
    ) -> Self {
        CounterPath {
            object: object.into(),
            locality,
            instance,
            name: name.into(),
        }
    }

    /// Parse the HPX textual form produced by `Display`, e.g.
    /// `/threads{locality#0/worker#3}/count/stolen`.
    pub fn parse(s: &str) -> Result<CounterPath, String> {
        let rest = s
            .strip_prefix('/')
            .ok_or_else(|| format!("counter path must start with '/': {s:?}"))?;
        let brace = rest
            .find('{')
            .ok_or_else(|| format!("missing '{{' in counter path {s:?}"))?;
        let object = &rest[..brace];
        let after = &rest[brace + 1..];
        let close = after
            .find('}')
            .ok_or_else(|| format!("missing '}}' in counter path {s:?}"))?;
        let inst_str = &after[..close];
        let name = after[close + 1..]
            .strip_prefix('/')
            .ok_or_else(|| format!("missing counter name in {s:?}"))?;
        if object.is_empty() || name.is_empty() {
            return Err(format!("empty object or name in counter path {s:?}"));
        }
        let (loc_str, worker_str) = inst_str
            .split_once('/')
            .ok_or_else(|| format!("instance must be locality#L/<inst> in {s:?}"))?;
        let locality: u32 = loc_str
            .strip_prefix("locality#")
            .ok_or_else(|| format!("instance must start with locality# in {s:?}"))?
            .parse()
            .map_err(|e| format!("bad locality number in {s:?}: {e}"))?;
        let instance = if worker_str == "total" {
            Instance::Total
        } else if let Some(w) = worker_str.strip_prefix("worker#") {
            Instance::Worker(
                w.parse()
                    .map_err(|e| format!("bad worker number in {s:?}: {e}"))?,
            )
        } else {
            return Err(format!("unknown instance {worker_str:?} in {s:?}"));
        };
        Ok(CounterPath::new(object, locality, instance, name))
    }
}

impl fmt::Display for CounterPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "/{}{{locality#{}/{}}}/{}",
            self.object, self.locality, self.instance, self.name
        )
    }
}

/// Probe closure evaluated at snapshot time.
type Probe = Box<dyn Fn() -> u64 + Send + Sync>;

/// A counter name and the `AtomicU64` of a `T` it reads; see
/// [`CounterRegistry::register_fields`].
pub(crate) type AtomicField<T> = (&'static str, fn(&T) -> &AtomicU64);

/// A set of named counters that can be snapshotted atomically enough
/// for rate computation (each probe is an atomic load; the set is read
/// in one pass without blocking writers).
pub struct CounterRegistry {
    counters: Mutex<Vec<(CounterPath, Probe)>>,
    epoch: Instant,
}

impl Default for CounterRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterRegistry {
    /// Empty registry; snapshot timestamps are relative to this call.
    pub fn new() -> Self {
        CounterRegistry {
            counters: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Register `probe` under `path`.
    ///
    /// # Panics
    /// Panics if `path` is already registered — duplicate registration
    /// is a programming error (two subsystems claiming one name).
    pub fn register(&self, path: CounterPath, probe: impl Fn() -> u64 + Send + Sync + 'static) {
        let mut counters = self.counters.lock();
        assert!(
            !counters.iter().any(|(p, _)| *p == path),
            "duplicate counter registration: {path}"
        );
        counters.push((path, Box::new(probe)));
    }

    /// Register one locality-total counter
    /// `/{object}{locality#L/total}/{name}` per `(name, field)`, each
    /// probing `field(owner)` with a relaxed load.
    pub(crate) fn register_fields<T: Send + Sync + 'static>(
        &self,
        object: &str,
        locality: u32,
        owner: &Arc<T>,
        fields: &[AtomicField<T>],
    ) {
        for &(name, field) in fields {
            let owner = owner.clone();
            self.register(
                CounterPath::new(object, locality, Instance::Total, name),
                move || field(&owner).load(Ordering::Relaxed),
            );
        }
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.counters.lock().len()
    }

    /// True when no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate every probe into a sorted, timestamped snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        let t_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let entries = self
            .counters
            .lock()
            .iter()
            .map(|(p, probe)| (p.clone(), probe()))
            .collect();
        CounterSnapshot::from_entries(t_us, entries)
    }
}

/// Values of every registered counter at one point in time, sorted by
/// path for deterministic rendering and diffing.
#[derive(Clone, Debug, Default)]
pub struct CounterSnapshot {
    /// Microseconds since the registry (or series) epoch.
    pub t_us: f64,
    entries: Vec<(CounterPath, u64)>,
}

impl CounterSnapshot {
    /// Build a snapshot from raw entries (used by the registry and by
    /// simulators emitting the same schema). Entries are sorted by path.
    pub fn from_entries(t_us: f64, mut entries: Vec<(CounterPath, u64)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        CounterSnapshot { t_us, entries }
    }

    /// Iterate `(path, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&CounterPath, u64)> {
        self.entries.iter().map(|(p, v)| (p, *v))
    }

    /// Number of counters in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no counters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Value of the counter at `path`, if present.
    pub fn get(&self, path: &CounterPath) -> Option<u64> {
        self.entries
            .binary_search_by(|(p, _)| p.cmp(path))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Sum of the locality-total counter `/{object}{locality#*/total}/{name}`
    /// over every locality in the snapshot (0 if none has it).
    pub fn total(&self, object: &str, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(p, _)| p.object == object && p.instance == Instance::Total && p.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Interval delta `self - earlier`, counter by counter (saturating;
    /// counters absent from `earlier` keep their full value).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(p, v)| (p.clone(), v.saturating_sub(earlier.get(p).unwrap_or(0))))
            .collect();
        CounterSnapshot::from_entries(self.t_us, entries)
    }

    /// Merge several snapshots (e.g. one per locality) into one; paths
    /// are expected to be disjoint across inputs. The merged timestamp
    /// is the max of the inputs.
    pub fn merge<I: IntoIterator<Item = CounterSnapshot>>(snaps: I) -> CounterSnapshot {
        let mut t_us = 0.0f64;
        let mut entries = Vec::new();
        for s in snaps {
            t_us = t_us.max(s.t_us);
            entries.extend(s.entries);
        }
        CounterSnapshot::from_entries(t_us, entries)
    }
}

/// Background thread snapshotting a [`CounterRegistry`] at a fixed
/// interval into a [`SampleSeries`].
pub struct CounterSampler {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<CounterSnapshot>>>,
    handle: thread::JoinHandle<()>,
}

impl CounterSampler {
    /// Start sampling `registry` every `interval`. One snapshot is
    /// taken immediately; a final one is taken on [`stop`](Self::stop).
    pub fn start(registry: Arc<CounterRegistry>, interval: Duration) -> CounterSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(vec![registry.snapshot()]));
        let handle = {
            let stop = stop.clone();
            let samples = samples.clone();
            thread::Builder::new()
                .name("px-sampler".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        thread::sleep(interval);
                        samples.lock().push(registry.snapshot());
                    }
                })
                .expect("spawn counter sampler thread")
        };
        CounterSampler {
            stop,
            samples,
            handle,
        }
    }

    /// Stop the sampler thread and return the collected series.
    pub fn stop(self) -> SampleSeries {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("join counter sampler thread");
        let samples = std::mem::take(&mut *self.samples.lock());
        SampleSeries { samples }
    }
}

/// Time series of counter snapshots produced by a [`CounterSampler`].
#[derive(Clone, Debug, Default)]
pub struct SampleSeries {
    /// Snapshots in sampling order.
    pub samples: Vec<CounterSnapshot>,
}

impl SampleSeries {
    /// Number of snapshots in the series.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Per-interval rate (events per second) of the counter at `path`,
    /// as `(t_us of interval end, rate)` pairs. Zero-width, reversed or
    /// non-finite intervals (duplicate or garbage timestamps, as a
    /// simulator emitting snapshots might produce) are skipped rather
    /// than yielding NaN/Inf rates.
    pub fn rates(&self, path: &CounterPath) -> Vec<(f64, f64)> {
        self.samples
            .windows(2)
            .filter_map(|w| {
                let dt_s = (w[1].t_us - w[0].t_us) / 1e6;
                // NaN fails every comparison, so test finiteness
                // explicitly: `dt_s <= 0.0` alone lets NaN through.
                if !dt_s.is_finite() || dt_s <= 0.0 {
                    return None;
                }
                let dv = w[1].get(path)?.saturating_sub(w[0].get(path)?);
                Some((w[1].t_us, dv as f64 / dt_s))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn path_display_roundtrip() {
        for p in [
            CounterPath::new("threads", 0, Instance::Worker(3), "count/stolen"),
            CounterPath::new("threads", 2, Instance::Total, "count/cumulative"),
            CounterPath::new("parcels", 1, Instance::Total, "count/sent"),
            CounterPath::new("threads", 0, Instance::Worker(11), "time/busy-ns"),
        ] {
            let s = p.to_string();
            assert_eq!(CounterPath::parse(&s).unwrap(), p, "roundtrip of {s}");
        }
        assert_eq!(
            CounterPath::new("threads", 0, Instance::Worker(3), "count/stolen").to_string(),
            "/threads{locality#0/worker#3}/count/stolen"
        );
    }

    #[test]
    fn path_parse_rejects_malformed() {
        for bad in [
            "threads{locality#0/total}/x",
            "/threads/count/x",
            "/threads{locality#0}/x",
            "/threads{loc#0/total}/x",
            "/threads{locality#0/worker}/x",
            "/threads{locality#0/total}",
            "/{locality#0/total}/x",
        ] {
            assert!(CounterPath::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn registry_snapshot_and_delta() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicU64::new(7));
        let probe = v.clone();
        let path = CounterPath::new("threads", 0, Instance::Total, "count/test");
        reg.register(path.clone(), move || probe.load(Ordering::Relaxed));
        reg.register(
            CounterPath::new("threads", 0, Instance::Worker(0), "count/test"),
            || 1,
        );
        assert_eq!(reg.len(), 2);

        let s0 = reg.snapshot();
        assert_eq!(s0.get(&path), Some(7));
        v.store(19, Ordering::Relaxed);
        let s1 = reg.snapshot();
        assert!(s1.t_us >= s0.t_us);
        let d = s1.delta(&s0);
        assert_eq!(d.get(&path), Some(12));
        // the constant counter deltas to zero
        assert_eq!(
            d.get(&CounterPath::new(
                "threads",
                0,
                Instance::Worker(0),
                "count/test"
            )),
            Some(0)
        );
        // A reversed delta saturates to zero instead of wrapping.
        assert_eq!(s0.delta(&s1).get(&path), Some(0));
    }

    #[test]
    fn total_sums_the_total_instance_over_localities() {
        let path = |object: &str, locality, instance, name: &str| {
            CounterPath::new(object, locality, instance, name)
        };
        let snap = CounterSnapshot::from_entries(
            0.0,
            vec![
                (path("threads", 0, Instance::Total, "count/x"), 3),
                (path("threads", 1, Instance::Total, "count/x"), 4),
                (path("threads", 2, Instance::Total, "count/x"), 5),
                // Worker instances, other objects and other names are not summed.
                (path("threads", 0, Instance::Worker(0), "count/x"), 100),
                (path("parcels", 0, Instance::Total, "count/x"), 1000),
                (path("threads", 0, Instance::Total, "count/y"), 10_000),
            ],
        );
        assert_eq!(snap.total("threads", "count/x"), 12);
        assert_eq!(snap.total("parcels", "count/x"), 1000);
        assert_eq!(snap.total("lcos", "count/x"), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate counter registration")]
    fn duplicate_registration_panics() {
        let reg = CounterRegistry::new();
        let p = CounterPath::new("threads", 0, Instance::Total, "count/x");
        reg.register(p.clone(), || 0);
        reg.register(p, || 1);
    }

    #[test]
    fn snapshots_sorted_and_mergeable() {
        let a = CounterSnapshot::from_entries(
            5.0,
            vec![
                (CounterPath::new("threads", 1, Instance::Total, "b"), 2),
                (CounterPath::new("threads", 1, Instance::Total, "a"), 1),
            ],
        );
        let b = CounterSnapshot::from_entries(
            9.0,
            vec![(CounterPath::new("threads", 0, Instance::Total, "a"), 3)],
        );
        let m = CounterSnapshot::merge([a, b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.t_us, 9.0);
        let paths: Vec<String> = m.iter().map(|(p, _)| p.to_string()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted, "merged snapshot is path-sorted");
    }

    #[test]
    fn rates_skip_degenerate_intervals() {
        let path = CounterPath::new("threads", 0, Instance::Total, "count/x");
        let snap = |t_us: f64, v: u64| {
            CounterSnapshot::from_entries(t_us, vec![(path.clone(), v)])
        };
        // Duplicate timestamps (zero width), reversed time, and
        // non-finite timestamps must all be skipped — no NaN/Inf rates.
        let series = SampleSeries {
            samples: vec![
                snap(0.0, 0),
                snap(1_000_000.0, 10),    // ok: 10/s
                snap(1_000_000.0, 20),    // zero-width
                snap(500_000.0, 30),      // reversed
                snap(f64::NAN, 40),       // NaN start of next window too
                snap(2_000_000.0, 50),    // window starts at NaN -> skipped
                snap(3_000_000.0, 60),    // ok: 10/s
            ],
        };
        let rates = series.rates(&path);
        assert_eq!(rates.len(), 2, "only the two clean intervals: {rates:?}");
        for (t, r) in &rates {
            assert!(t.is_finite() && r.is_finite(), "finite: ({t}, {r})");
            assert!((r - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sampler_collects_series_and_rates() {
        let reg = Arc::new(CounterRegistry::new());
        let v = Arc::new(AtomicU64::new(0));
        let probe = v.clone();
        let path = CounterPath::new("threads", 0, Instance::Total, "count/ticks");
        reg.register(path.clone(), move || probe.load(Ordering::Relaxed));

        let sampler = CounterSampler::start(reg, Duration::from_millis(2));
        for _ in 0..10 {
            v.fetch_add(100, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(2));
        }
        let series = sampler.stop();
        assert!(series.len() >= 3, "got {} samples", series.len());
        // timestamps strictly increase
        for w in series.samples.windows(2) {
            assert!(w[1].t_us > w[0].t_us);
        }
        let rates = series.rates(&path);
        assert!(!rates.is_empty());
        assert!(
            rates.iter().any(|&(_, r)| r > 0.0),
            "some interval saw a positive rate: {rates:?}"
        );
    }
}
