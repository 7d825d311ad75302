//! The [`Registry`]: named metric families, label sets, and the cheap
//! atomic handles layers record through.

use crate::hist::{HistCore, HistogramOpts, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The three Prometheus metric kinds the registry can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing `u64` (rendered as `counter`).
    Counter,
    /// An instantaneous `f64` (rendered as `gauge`).
    Gauge,
    /// A log-linear histogram with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum MetricCore {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCore>),
}

/// One registered family: a name, a kind, a help string, and every
/// label set registered under it, in registration order.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) name: String,
    pub(crate) kind: Kind,
    pub(crate) help: String,
    pub(crate) metrics: Vec<(Vec<(String, String)>, MetricCore)>,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) families: Mutex<Vec<Family>>,
}

pub(crate) fn lock(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<Family>> {
    inner
        .families
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A registry of named metric families shared by every layer of the
/// stack.
///
/// Cloning is shallow — clones share the same families, so the server
/// can hand its registry to the gateway, stream sessions, and exporters
/// without coordination. Mirrors
/// `Tracer`'s enabled/disabled split: [`Registry::new`] records,
/// [`Registry::disabled`] hands out no-op handles whose every operation
/// is a branch on a `None` — near-zero cost, bit-for-bit identical
/// serving results either way.
///
/// Registration is idempotent: asking for the same `(name, labels)`
/// pair again returns a handle to the *same* underlying cell, so
/// independent call sites (worker threads, per-session recorders) share
/// state without passing handles around. Re-registering a name under a
/// different [`Kind`] panics — that is a programming error, not a
/// runtime condition.
///
/// # Examples
///
/// ```
/// use snappix_metrics::{HistogramOpts, Registry};
///
/// let registry = Registry::new();
/// let served = registry.counter("demo_requests_total", "Requests served.");
/// let latency = registry.histogram(
///     "demo_latency_seconds",
///     "Request latency.",
///     HistogramOpts::nanos(),
/// );
/// served.inc();
/// latency.record(1_500_000); // 1.5 ms, recorded in nanoseconds
/// let page = registry.render();
/// assert!(page.contains("demo_requests_total 1"));
/// assert!(page.contains("demo_latency_seconds_count 1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// An enabled registry: handles record, [`render`](Self::render)
    /// exports.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op and
    /// [`render`](Self::render) returns an empty page. This is also the
    /// `Default`.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    fn register(
        &self,
        name: &str,
        kind: Kind,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricCore,
    ) -> Option<MetricCore> {
        let inner = self.inner.as_ref()?;
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        debug_assert!(
            labels.iter().all(|(k, _)| valid_name(k)),
            "invalid label name in {labels:?}"
        );
        let mut families = lock(inner);
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind,
                    kind,
                    "metric {name} already registered as a {}",
                    family.kind.as_str()
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    kind,
                    help: help.to_string(),
                    metrics: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some((_, core)) = family.metrics.iter().find(|(l, _)| *l == labels) {
            return Some(core.clone());
        }
        let core = make();
        family.metrics.push((labels, core.clone()));
        Some(core)
    }

    /// Registers (or re-fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-fetches) a counter under a label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let core = self.register(name, Kind::Counter, help, labels, || {
            MetricCore::Counter(Arc::new(AtomicU64::new(0)))
        });
        Counter {
            cell: core.map(|c| match c {
                MetricCore::Counter(cell) => cell,
                _ => unreachable!("registered as counter"),
            }),
        }
    }

    /// Registers (or re-fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-fetches) a gauge under a label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let core = self.register(name, Kind::Gauge, help, labels, || {
            MetricCore::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        });
        Gauge {
            cell: core.map(|c| match c {
                MetricCore::Gauge(cell) => cell,
                _ => unreachable!("registered as gauge"),
            }),
        }
    }

    /// Registers (or re-fetches) an unlabelled log-linear histogram.
    pub fn histogram(&self, name: &str, help: &str, opts: HistogramOpts) -> Histogram {
        self.histogram_with(name, help, opts, &[])
    }

    /// Registers (or re-fetches) a log-linear histogram under a label
    /// set. `opts` only applies on first registration; later fetches
    /// share the original buckets.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        opts: HistogramOpts,
        labels: &[(&str, &str)],
    ) -> Histogram {
        let core = self.register(name, Kind::Histogram, help, labels, || {
            MetricCore::Histogram(Arc::new(HistCore::new(opts)))
        });
        Histogram {
            core: core.map(|c| match c {
                MetricCore::Histogram(core) => core,
                _ => unreachable!("registered as histogram"),
            }),
        }
    }

    /// Renders every family in registration order as classic Prometheus
    /// text exposition (version 0.0.4). A disabled registry renders an
    /// empty page.
    pub fn render(&self) -> String {
        match &self.inner {
            Some(inner) => crate::render::render(&lock(inner), false),
            None => String::new(),
        }
    }

    /// Renders the OpenMetrics variant: counter families drop their
    /// `_total` suffix in `# HELP`/`# TYPE` (samples keep it),
    /// histogram buckets carry trace-id exemplars, and the page ends
    /// with the mandatory `# EOF` trailer (present even on a disabled
    /// registry, whose page is otherwise empty).
    pub fn render_openmetrics(&self) -> String {
        match &self.inner {
            Some(inner) => crate::render::render(&lock(inner), true),
            None => "# EOF\n".to_string(),
        }
    }
}

pub(crate) fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A monotonic counter handle (clones share the cell; a handle from a
/// disabled registry no-ops).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Compensates an optimistic increment (saturating at zero). The
    /// one sanctioned decrement: admission accounting counts a request
    /// *before* publishing it so completions can never lead
    /// submissions, and deducts here when the publish fails.
    pub fn deduct(&self, n: u64) {
        if let Some(cell) = &self.cell {
            // fetch_sub would wrap a racing underflow; CAS keeps the
            // counter saturating like the rest of the accounting.
            let mut current = cell.load(Ordering::Relaxed);
            loop {
                let next = current.saturating_sub(n);
                match cell.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(seen) => current = seen,
                }
            }
        }
    }

    /// The current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// An instantaneous `f64` gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (negative to decrease).
    pub fn add(&self, delta: f64) {
        if let Some(cell) = &self.cell {
            let mut current = cell.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(current) + delta).to_bits();
                match cell.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(seen) => current = seen,
                }
            }
        }
    }

    /// The current value (0 for a disabled handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A log-linear histogram handle; see [`HistogramOpts`] for the error
/// bound and [`HistogramSnapshot`] for the export side.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistCore>>,
}

impl Histogram {
    /// A standalone histogram not attached to any registry — for local
    /// aggregation whose snapshot is later merged with a registered
    /// one's ([`HistogramSnapshot::merge`]).
    pub fn standalone(opts: HistogramOpts) -> Self {
        Histogram {
            core: Some(Arc::new(HistCore::new(opts))),
        }
    }

    /// Records one raw value (lock-free: three atomic adds and a max).
    pub fn record(&self, value: u64) {
        self.record_with_trace(value, 0);
    }

    /// Records one raw value and, when exemplars are enabled and
    /// `trace_id` is nonzero, remembers the id on the value's bucket as
    /// its exemplar.
    pub fn record_with_trace(&self, value: u64, trace_id: u64) {
        if let Some(core) = &self.core {
            core.record(value, trace_id);
        }
    }

    /// A point-in-time copy (empty for a disabled handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |core| core.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("reqs_total", "Requests.");
        let b = registry.counter("reqs_total", "Requests.");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles share one cell");
        let l1 = registry.counter_with("by_ep_total", "By endpoint.", &[("ep", "a")]);
        let l2 = registry.counter_with("by_ep_total", "By endpoint.", &[("ep", "b")]);
        l1.inc();
        assert_eq!((l1.get(), l2.get()), (1, 0), "label sets are distinct");
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        let _ = registry.counter("thing_total", "A counter.");
        let _ = registry.gauge("thing_total", "Now a gauge?");
    }

    #[test]
    fn disabled_registry_hands_out_noops() {
        let registry = Registry::disabled();
        let c = registry.counter("c_total", "c");
        let g = registry.gauge("g", "g");
        let h = registry.histogram("h", "h", HistogramOpts::default());
        c.inc();
        g.set(4.2);
        h.record(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(registry.render(), "");
        assert_eq!(registry.render_openmetrics(), "# EOF\n");
    }

    #[test]
    fn counter_deduct_saturates() {
        let registry = Registry::new();
        let c = registry.counter("c_total", "c");
        c.inc();
        c.deduct(5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_add_accumulates_floats() {
        let registry = Registry::new();
        let g = registry.gauge("g", "g");
        g.add(1.5);
        g.add(-0.5);
        assert!((g.get() - 1.0).abs() < 1e-12);
        g.set(10.0);
        assert_eq!(g.get(), 10.0);
    }

    #[test]
    fn standalone_histograms_fold_into_registered_ones() {
        let registry = Registry::new();
        let shared = registry.histogram("lat", "Latency.", HistogramOpts::default());
        let local = Histogram::standalone(HistogramOpts::default());
        local.record(100);
        local.record(200);
        shared.record(50);
        let snap = shared.snapshot().merge(&local.snapshot());
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 350);
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("snappix_server_requests_total"));
        assert!(valid_name("_x:y9"));
        assert!(!valid_name(""));
        assert!(!valid_name("9lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("has-dash"));
    }
}
