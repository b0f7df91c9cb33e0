//! Zero-dependency observability: a process-wide metrics registry
//! (atomic [`Counter`]s and [`Gauge`]s, mergeable log-bucketed
//! [`Histogram`]s), RAII [`span`] timers, a Prometheus-style text
//! exposition, and a structured JSON-lines event [`log`].
//!
//! # Contract
//!
//! Observability is **write-only** for the engine: nothing in this module
//! feeds back into execution decisions, so transcripts and model sets stay
//! byte-identical whether it is on or off (`tests/differential_oracle.rs`
//! in `ntgd-server` pins this).  `NTGD_OBS=0` disables the registry and the
//! span timers process-wide; when disabled every instrument is a single
//! relaxed atomic load and an early return.
//!
//! # Shape
//!
//! Instruments are `static`s declared at their use site and registered
//! lazily on first use, so the registry only ever lists instruments the
//! process actually touched:
//!
//! ```
//! use ntgd_core::obs;
//!
//! static ROUNDS: obs::Counter = obs::Counter::new("chase.rounds");
//! ROUNDS.incr();
//! {
//!     let _span = obs::span("chase.round");
//!     // ... timed work; elapsed ns recorded into the "chase.round"
//!     // histogram when the guard drops ...
//! }
//! ```
//!
//! Snapshots ([`counters_snapshot`], [`gauges_snapshot`],
//! [`histograms_snapshot`]) are sorted by name; [`prometheus_lines`]
//! renders them as a Prometheus-style text exposition (the `METRICS`
//! protocol verb in `ntgd-server` serves exactly those lines).

pub mod histogram;
pub mod log;

pub use histogram::Histogram;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// --- enablement -----------------------------------------------------------

/// Runtime override of the `NTGD_OBS` switch: 0 = follow the environment,
/// 1 = forced off, 2 = forced on.  Exists for the `obs_overhead` benchmark
/// and tests, which must flip enablement after the process read its
/// environment.
static ENABLED_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| std::env::var("NTGD_OBS").map_or(true, |value| value.trim() != "0"))
}

/// Whether instruments record.  On by default; `NTGD_OBS=0` (or a
/// [`set_enabled_override`]) turns every instrument into a no-op.
pub fn enabled() -> bool {
    match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Forces enablement on or off regardless of `NTGD_OBS` (`None` returns to
/// the environment's verdict).  For benchmarks and tests.
pub fn set_enabled_override(value: Option<bool>) {
    let encoded = match value {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    ENABLED_OVERRIDE.store(encoded, Ordering::SeqCst);
}

// --- registry -------------------------------------------------------------

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// A monotonically increasing process-wide counter.  Declare as a `static`
/// and bump with [`Counter::incr`]/[`Counter::add`]; hot loops should
/// accumulate locally and `add` once per batch.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A counter named `name` (dotted lowercase, e.g. `"chase.rounds"`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op when observability is disabled).
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A process-wide gauge: a signed level that can move both ways (queue
/// depths, live connection counts).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// A gauge named `name`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn touch(&'static self) -> bool {
        if !enabled() {
            return false;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().gauges.lock().unwrap().push(self);
        }
        true
    }

    /// Sets the level (no-op when observability is disabled).
    pub fn set(&'static self, value: i64) {
        if self.touch() {
            self.value.store(value, Ordering::Relaxed);
        }
    }

    /// Moves the level by `delta`.
    pub fn add(&'static self, delta: i64) {
        if self.touch() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// --- durations and spans --------------------------------------------------

/// Records `ns` into the process-wide histogram named `name` (no-op when
/// observability is disabled).
pub fn record_duration(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    registry()
        .histograms
        .lock()
        .unwrap()
        .entry(name)
        .or_default()
        .record(ns);
}

/// An RAII phase timer: elapsed wall time lands in the histogram named at
/// [`span`] when the guard drops.  Nests freely (each guard times its own
/// scope) and is thread-safe; when observability is disabled the guard
/// never reads the clock.
#[must_use = "a span records when the guard drops; binding it to _ drops immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_duration(self.name, ns);
        }
    }
}

/// Starts a span timer over the histogram named `name`.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

// --- snapshots and exposition ---------------------------------------------

/// Every counter touched so far, as `(name, value)` sorted by name.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = registry()
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|counter| (counter.name, counter.get()))
        .collect();
    out.sort_unstable_by_key(|&(name, _)| name);
    out
}

/// Every gauge touched so far, as `(name, level)` sorted by name.
pub fn gauges_snapshot() -> Vec<(&'static str, i64)> {
    let mut out: Vec<(&'static str, i64)> = registry()
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|gauge| (gauge.name, gauge.get()))
        .collect();
    out.sort_unstable_by_key(|&(name, _)| name);
    out
}

/// Every histogram recorded so far, as `(name, clone)` sorted by name.
pub fn histograms_snapshot() -> Vec<(&'static str, Histogram)> {
    registry()
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(&name, histogram)| (name, histogram.clone()))
        .collect()
}

/// Mangles a dotted instrument name into a Prometheus metric name
/// (`chase.rounds` → `ntgd_chase_rounds`).
fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("ntgd_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders explicit snapshots as Prometheus-style text exposition lines —
/// the pure core of [`prometheus_lines`], so wire-format tests can assert
/// exact bytes over inputs they control.
///
/// Counters render as `# TYPE` + `_total`; gauges as `# TYPE` + a bare
/// sample; histograms (nanosecond-valued, `_ns` suffix) as cumulative
/// non-empty `_bucket{le=…}` lines, `_sum`/`_count`, and
/// `{quantile=…}` summary lines for p50/p90/p99.
pub fn render_prometheus(
    counters: &[(&str, u64)],
    gauges: &[(&str, i64)],
    histograms: &[(&str, Histogram)],
) -> Vec<String> {
    let mut lines = Vec::new();
    for &(name, value) in counters {
        let mangled = mangle(name);
        lines.push(format!("# TYPE {mangled} counter"));
        lines.push(format!("{mangled}_total {value}"));
    }
    for &(name, value) in gauges {
        let mangled = mangle(name);
        lines.push(format!("# TYPE {mangled} gauge"));
        lines.push(format!("{mangled} {value}"));
    }
    for (name, histogram) in histograms {
        let mangled = format!("{}_ns", mangle(name));
        lines.push(format!("# TYPE {mangled} histogram"));
        let mut cumulative = 0u64;
        for (upper, count) in histogram.buckets() {
            cumulative += count;
            lines.push(format!("{mangled}_bucket{{le=\"{upper}\"}} {cumulative}"));
        }
        lines.push(format!(
            "{mangled}_bucket{{le=\"+Inf\"}} {}",
            histogram.count()
        ));
        lines.push(format!("{mangled}_sum {}", histogram.sum()));
        lines.push(format!("{mangled}_count {}", histogram.count()));
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            lines.push(format!(
                "{mangled}{{quantile=\"{label}\"}} {}",
                histogram.quantile(q)
            ));
        }
    }
    lines
}

/// The current process-wide exposition: every touched instrument, rendered
/// by [`render_prometheus`] in snapshot (name) order.
pub fn prometheus_lines() -> Vec<String> {
    let counters = counters_snapshot();
    let gauges = gauges_snapshot();
    let histograms = histograms_snapshot();
    render_prometheus(&counters, &gauges, &histograms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Enablement is process-global; tests that flip it serialise here.
    fn enablement_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counters_register_lazily_and_accumulate() {
        let _guard = enablement_lock();
        set_enabled_override(Some(true));
        static TEST_COUNTER: Counter = Counter::new("obs.test.counter");
        TEST_COUNTER.incr();
        TEST_COUNTER.add(4);
        assert_eq!(TEST_COUNTER.get(), 5);
        let snapshot = counters_snapshot();
        assert!(snapshot.contains(&("obs.test.counter", 5)));
        assert!(snapshot.windows(2).all(|pair| pair[0].0 <= pair[1].0));
        set_enabled_override(None);
    }

    #[test]
    fn gauges_move_both_ways() {
        let _guard = enablement_lock();
        set_enabled_override(Some(true));
        static TEST_GAUGE: Gauge = Gauge::new("obs.test.gauge");
        TEST_GAUGE.set(7);
        TEST_GAUGE.add(-3);
        assert_eq!(TEST_GAUGE.get(), 4);
        assert!(gauges_snapshot().contains(&("obs.test.gauge", 4)));
        set_enabled_override(None);
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let _guard = enablement_lock();
        set_enabled_override(Some(false));
        static DEAD_COUNTER: Counter = Counter::new("obs.test.dead");
        DEAD_COUNTER.incr();
        assert_eq!(DEAD_COUNTER.get(), 0);
        let before = histograms_snapshot()
            .iter()
            .find(|(name, _)| *name == "obs.test.dead_span")
            .map(|(_, hist)| hist.count());
        {
            let _span = span("obs.test.dead_span");
        }
        let after = histograms_snapshot()
            .iter()
            .find(|(name, _)| *name == "obs.test.dead_span")
            .map(|(_, hist)| hist.count());
        assert_eq!(before, after);
        set_enabled_override(None);
    }

    #[test]
    fn spans_nest_and_record_once_per_guard() {
        let _guard = enablement_lock();
        set_enabled_override(Some(true));
        let count_of = |name: &str| {
            histograms_snapshot()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, hist)| hist.count())
                .unwrap_or(0)
        };
        let outer_before = count_of("obs.test.outer");
        let inner_before = count_of("obs.test.inner");
        {
            let _outer = span("obs.test.outer");
            {
                let _inner = span("obs.test.inner");
                // Nested same-name spans record independently too.
                let _again = span("obs.test.inner");
            }
        }
        assert_eq!(count_of("obs.test.outer"), outer_before + 1);
        assert_eq!(count_of("obs.test.inner"), inner_before + 2);
        set_enabled_override(None);
    }

    #[test]
    fn extreme_durations_do_not_overflow() {
        let _guard = enablement_lock();
        set_enabled_override(Some(true));
        record_duration("obs.test.overflow", u64::MAX);
        record_duration("obs.test.overflow", 0);
        let (_, hist) = histograms_snapshot()
            .into_iter()
            .find(|(name, _)| *name == "obs.test.overflow")
            .expect("histogram registered");
        assert_eq!(hist.quantile(1.0), u64::MAX);
        set_enabled_override(None);
    }

    #[test]
    fn exposition_renders_exact_lines_from_explicit_snapshots() {
        let mut hist = Histogram::new();
        hist.record(10);
        hist.record(20);
        let lines = render_prometheus(
            &[("chase.rounds", 12)],
            &[("server.runnable", 3)],
            &[("server.request.assert", hist)],
        );
        assert_eq!(
            lines,
            vec![
                "# TYPE ntgd_chase_rounds counter",
                "ntgd_chase_rounds_total 12",
                "# TYPE ntgd_server_runnable gauge",
                "ntgd_server_runnable 3",
                "# TYPE ntgd_server_request_assert_ns histogram",
                "ntgd_server_request_assert_ns_bucket{le=\"10\"} 1",
                "ntgd_server_request_assert_ns_bucket{le=\"20\"} 2",
                "ntgd_server_request_assert_ns_bucket{le=\"+Inf\"} 2",
                "ntgd_server_request_assert_ns_sum 30",
                "ntgd_server_request_assert_ns_count 2",
                "ntgd_server_request_assert_ns{quantile=\"0.5\"} 10",
                "ntgd_server_request_assert_ns{quantile=\"0.9\"} 20",
                "ntgd_server_request_assert_ns{quantile=\"0.99\"} 20",
            ]
        );
    }

    #[test]
    fn concurrent_recording_is_safe_and_lossless() {
        let _guard = enablement_lock();
        set_enabled_override(Some(true));
        static SHARED: Counter = Counter::new("obs.test.shared");
        let before = SHARED.get();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        SHARED.incr();
                        let _span = span("obs.test.shared_span");
                    }
                });
            }
        });
        assert_eq!(SHARED.get(), before + 4000);
        set_enabled_override(None);
    }
}
