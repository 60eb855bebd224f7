//! The benchmark's metric catalogue and the statistics it reports.
//!
//! End-to-end metrics come from the untraced run (`--trace 0`); per-layer
//! metrics from the traced run (`--trace 1`). Every workload reports
//! every metric: a layer a workload bypasses reads 0.

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Self time (s) of the named spans, summed per pass.
    PassSelf(&'static str),
    /// Whole duration (s) of the named spans, summed per pass.
    PassTotal(&'static str),
    /// Self time (s) of the named spans, summed per set-up.
    SetupSelf(&'static str),
    /// A counter taken per pass.
    Counter(&'static str),
    /// A counter taken per set-up.
    SetupCounter(&'static str),
    /// Per pass: self time of a span (ns) per unit of a counter.
    NsPer(&'static str, &'static str),
    /// Per pass: one counter over another.
    Ratio(&'static str, &'static str),
    /// Computed once for the whole traced run.
    Run,
}

/// One metric: name, unit, which direction is better, and its source.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
    }
}

/// End-to-end metrics, in report order (their sources are computed by
/// the run loop directly).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", Source::Run),
    m("ops_per_s", "1/s", "higher", Source::Run),
    m("requests_per_s", "1/s", "higher", Source::Run),
    m("peak_rss_mb", "MB", "lower", Source::Run),
    m("anchor_err_pct", "%", "lower", Source::Run),
];

use Source::*;

/// Per-layer metrics, in report order.
pub const PER_LAYER: &[Metric] = &[
    m(
        "trt.build_engine.s",
        "s",
        "lower",
        SetupSelf("trt.build_engine"),
    ),
    m(
        "trt.cache.misses",
        "count",
        "lower",
        SetupCounter("trt.cache.misses"),
    ),
    m("trt.cache.hit_rate", "ratio", "higher", Run),
    m("sim.config.s", "s", "lower", PassSelf("sim.config")),
    m("sim.new.s", "s", "lower", PassSelf("sim.new")),
    m("sim.run.s", "s", "lower", PassSelf("sim.run")),
    m("sim.events", "count", "lower", Counter("sim.events")),
    m(
        "sim.ns_per_event",
        "ns",
        "lower",
        NsPer("sim.run", "sim.events"),
    ),
    m(
        "sim.records.requests",
        "count",
        "lower",
        Counter("sim.records.requests"),
    ),
    m(
        "sim.records.kernel_events",
        "count",
        "lower",
        Counter("sim.records.kernel_events"),
    ),
    m(
        "sim.records.ec_records",
        "count",
        "lower",
        Counter("sim.records.ec_records"),
    ),
    m(
        "sim.records.serve_events",
        "count",
        "lower",
        Counter("sim.records.serve_events"),
    ),
    m(
        "sim.records.power_samples",
        "count",
        "lower",
        Counter("sim.records.power_samples"),
    ),
    m(
        "sim.trace_bytes",
        "bytes",
        "lower",
        Counter("sim.trace_bytes"),
    ),
    m(
        "profile.jetson_stats.s",
        "s",
        "lower",
        PassSelf("profile.jetson_stats"),
    ),
    m("profile.nsight.s", "s", "lower", PassSelf("profile.nsight")),
    m(
        "core.tenant_metrics.s",
        "s",
        "lower",
        PassSelf("core.tenant_metrics"),
    ),
    m("core.analysis.s", "s", "lower", PassSelf("core.analysis")),
    m("serve.report.s", "s", "lower", PassSelf("serve.report")),
    m("serve.offered", "count", "higher", Counter("serve.offered")),
    m("serve.served", "count", "higher", Counter("serve.served")),
    m(
        "serve.rejected",
        "count",
        "lower",
        Counter("serve.rejected"),
    ),
    m("serve.failed", "count", "lower", Counter("serve.failed")),
    m(
        "serve.retry_amplification",
        "ratio",
        "lower",
        Ratio("serve.attempts", "serve.offered"),
    ),
    m(
        "serve.useful_ratio",
        "ratio",
        "higher",
        Ratio("serve.in_slo", "serve.attempts"),
    ),
    m("fleet.run.s", "s", "lower", PassTotal("fleet.run")),
    m("fleet.route.s", "s", "lower", PassSelf("fleet.route")),
    m(
        "fleet.route.ns_per_request",
        "ns",
        "lower",
        NsPer("fleet.route", "fleet.routed"),
    ),
    m("fleet.network.s", "s", "lower", PassSelf("fleet.network")),
    m("des.arrivals.s", "s", "lower", PassSelf("des.arrivals")),
    m(
        "serve.estimate_capacity.s",
        "s",
        "lower",
        PassSelf("serve.estimate_capacity"),
    ),
    m("bench.trace_overhead_pct", "%", "lower", Run),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_have_the_required_syntax_and_are_unique() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad metric name {}", metric.name);
            assert!(seen.insert(metric.name), "duplicate metric {}", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                metric.unit
            );
            assert!(matches!(metric.better, "higher" | "lower"));
        }
    }

    #[test]
    fn name_syntax() {
        assert!(valid_name("sim.ns_per_event"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("sim.records.{requests}"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
