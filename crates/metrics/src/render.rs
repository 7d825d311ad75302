//! Text exposition: classic Prometheus 0.0.4 and OpenMetrics 1.0.
//!
//! Both formats are line-oriented text; the differences this module
//! cares about are:
//!
//! * OpenMetrics declares counter families *without* their `_total`
//!   suffix in `# HELP`/`# TYPE` (samples keep it);
//! * OpenMetrics histogram `_bucket` lines may carry an exemplar —
//!   `# {trace_id="..."} value` — linking the bucket to a recent trace;
//! * an OpenMetrics page ends with the mandatory `# EOF` trailer.
//!
//! Float samples use Rust's shortest-round-trip formatting, so a
//! scraper that parses `f64` reproduces every value bit-for-bit.

use crate::hist::HistogramSnapshot;
use crate::registry::{Family, Kind, MetricCore};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

pub(crate) fn render(families: &[Family], openmetrics: bool) -> String {
    let mut out = String::with_capacity(4096);
    for family in families {
        let declared = if openmetrics && family.kind == Kind::Counter {
            family.name.strip_suffix("_total").unwrap_or(&family.name)
        } else {
            &family.name
        };
        let _ = writeln!(out, "# HELP {declared} {}", escape_help(&family.help));
        let _ = writeln!(out, "# TYPE {declared} {}", family.kind.as_str());
        for (labels, core) in &family.metrics {
            render_metric(&mut out, &family.name, labels, core, openmetrics);
        }
    }
    if openmetrics {
        out.push_str("# EOF\n");
    }
    out
}

fn render_metric(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    core: &MetricCore,
    openmetrics: bool,
) {
    match core {
        MetricCore::Counter(cell) => {
            let set = label_set(labels, &[]);
            let _ = writeln!(out, "{name}{set} {}", cell.load(Ordering::Relaxed));
        }
        MetricCore::Gauge(cell) => {
            let set = label_set(labels, &[]);
            let value = f64::from_bits(cell.load(Ordering::Relaxed));
            let _ = writeln!(out, "{name}{set} {value}");
        }
        MetricCore::Histogram(core) => {
            render_histogram(out, name, labels, &core.snapshot(), openmetrics);
        }
    }
}

/// Cumulative `_bucket` lines over the snapshot's non-empty buckets
/// (plus the mandatory `+Inf`), then `_sum` and `_count`.
fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
    openmetrics: bool,
) {
    let mut cumulative = 0u64;
    for bucket in &snap.buckets {
        cumulative += bucket.count;
        let le = bucket.upper as f64 * snap.scale;
        let set = label_set(labels, &[("le", &le.to_string())]);
        let _ = write!(out, "{name}_bucket{set} {cumulative}");
        if openmetrics {
            if let Some(trace_id) = bucket.exemplar {
                // The exemplar's value is the bucket's own upper bound:
                // always inside the bucket, as OpenMetrics requires.
                let _ = write!(out, " # {{trace_id=\"{trace_id}\"}} {le}");
            }
        }
        out.push('\n');
    }
    let set = label_set(labels, &[("le", "+Inf")]);
    let _ = writeln!(out, "{name}_bucket{set} {}", snap.count);
    let set = label_set(labels, &[]);
    let sum = snap.sum as f64 * snap.scale;
    let _ = writeln!(out, "{name}_sum{set} {sum}");
    let _ = writeln!(out, "{name}_count{set} {}", snap.count);
}

/// `{a="x",le="+Inf"}`, or the empty string when there are no labels.
fn label_set(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|&(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use crate::{HistogramOpts, Registry};

    fn demo() -> Registry {
        let registry = Registry::new();
        registry
            .counter("demo_requests_total", "Requests served.")
            .add(7);
        registry
            .counter_with(
                "demo_by_endpoint_total",
                "Requests by endpoint.",
                &[("endpoint", "classify")],
            )
            .add(3);
        registry
            .gauge("demo_depth", "Queue depth right now.")
            .set(2.5);
        let stage = registry.histogram_with(
            "demo_stage_seconds",
            "Stage time.",
            HistogramOpts::nanos(),
            &[("stage", "sense")],
        );
        for _ in 0..4 {
            stage.record(500_000_000);
        }
        let hist = registry.histogram(
            "demo_latency_seconds",
            "Latency.",
            HistogramOpts::nanos().with_exemplars(),
        );
        hist.record_with_trace(1_000, 42);
        hist.record(1_000);
        hist.record(250_000_000);
        registry
    }

    #[test]
    fn classic_page_renders_every_kind() {
        let page = demo().render();
        for needle in [
            "# HELP demo_requests_total Requests served.\n# TYPE demo_requests_total counter\ndemo_requests_total 7\n",
            "demo_by_endpoint_total{endpoint=\"classify\"} 3\n",
            "# TYPE demo_depth gauge\ndemo_depth 2.5\n",
            "demo_stage_seconds_sum{stage=\"sense\"} 2\n",
            "demo_stage_seconds_count{stage=\"sense\"} 4\n",
            "demo_stage_seconds_bucket{stage=\"sense\",le=\"+Inf\"} 4\n",
            "# TYPE demo_latency_seconds histogram\n",
            // 1000 ns lands in the [1000, 1007] bucket (6 sub-bucket
            // bits); the bucket's upper bound is its `le`.
            "demo_latency_seconds_bucket{le=\"0.000001007\"} 2\n",
            "demo_latency_seconds_bucket{le=\"+Inf\"} 3\n",
            "demo_latency_seconds_count 3\n",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        assert!(!page.contains("# EOF"), "classic page has no EOF");
        assert!(!page.contains("trace_id"), "classic page has no exemplars");
    }

    #[test]
    fn openmetrics_page_strips_total_adds_exemplars_and_eof() {
        let page = demo().render_openmetrics();
        assert!(
            page.contains("# TYPE demo_requests counter\ndemo_requests_total 7\n"),
            "counter family declared without _total, sample keeps it:\n{page}"
        );
        assert!(
            page.contains(
                "demo_latency_seconds_bucket{le=\"0.000001007\"} 2 # {trace_id=\"42\"} 0.000001007\n"
            ),
            "bucket exemplar missing:\n{page}"
        );
        assert!(page.ends_with("# EOF\n"), "missing EOF trailer:\n{page}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = Registry::new();
        let h = registry.histogram("h", "h", HistogramOpts::default());
        for v in [1u64, 1, 2, 50] {
            h.record(v);
        }
        let page = registry.render();
        let bucket = |le: &str| -> u64 {
            let needle = format!("h_bucket{{le=\"{le}\"}} ");
            page.lines()
                .find_map(|l| l.strip_prefix(&needle))
                .unwrap_or_else(|| panic!("bucket {le} missing in:\n{page}"))
                .parse()
                .expect("integer")
        };
        assert_eq!(bucket("1"), 2);
        assert_eq!(bucket("2"), 3);
        assert_eq!(bucket("50"), 4);
        assert_eq!(bucket("+Inf"), 4);
        assert!(page.contains("h_sum 54\n"), "{page}");
        assert!(page.contains("h_count 4\n"), "{page}");
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with("esc_total", "Escapes.", &[("v", "a\"b\\c\nd")])
            .inc();
        let page = registry.render();
        assert!(
            page.contains("esc_total{v=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{page}"
        );
    }
}
