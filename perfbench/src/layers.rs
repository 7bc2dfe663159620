//! Per-layer metrics of a traced run, folded from the recorded spans and
//! counters. The list is the `per_layer` section of `BENCHMARK.json`.

use crate::stats::{median, Metric};
use crate::trace::{Request, Tracer};

/// How a per-layer metric is derived.
enum Source {
    /// Median over requests of the named span's self time, in ms.
    SelfMs(&'static str),
    /// Summed self time of the named span over summed request time (or
    /// over the summed `SHARE_BASE` counter where the workload records one).
    Share(&'static str),
    /// Median over requests of a counter (summed within a request).
    Median(&'static str),
    /// Summed counter over summed counter.
    Ratio(&'static str, &'static str),
    /// Median over requests of the glue spans' self time, in ms.
    GlueMs,
    /// Share of request time inside layer spans.
    Coverage,
    /// Layer-span time over the untraced time of the same requests.
    UntracedCoverage,
    /// Estimated cost of recording the spans over request time.
    Overhead,
}

/// `(name, unit, source)` of every per-layer metric.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("fsv.ms", "ms", Source::SelfMs("fsv")),
    ("fsv.share", "ratio", Source::Share("fsv")),
    ("fsv.y_cubes", "count", Source::Median("fsv.y_cubes")),
    ("assign.ms", "ms", Source::SelfMs("assign")),
    ("assign.share", "ratio", Source::Share("assign")),
    (
        "assign.dichotomies",
        "count",
        Source::Median("assign.dichotomies"),
    ),
    ("assign.vars", "count", Source::Median("assign.vars")),
    ("factoring.ms", "ms", Source::SelfMs("factoring")),
    ("factoring.share", "ratio", Source::Share("factoring")),
    (
        "factoring.added_cubes",
        "count",
        Source::Median("factoring.added_cubes"),
    ),
    ("minimize.ms", "ms", Source::SelfMs("minimize")),
    ("minimize.share", "ratio", Source::Share("minimize")),
    (
        "minimize.accepted",
        "ratio",
        Source::Ratio("minimize.accepted", "minimize.runs"),
    ),
    (
        "minimize.states_ratio",
        "ratio",
        Source::Ratio("minimize.states_after", "minimize.states_before"),
    ),
    ("flow.validate.ms", "ms", Source::SelfMs("flow.validate")),
    ("spec.ms", "ms", Source::SelfMs("spec")),
    ("outputs.ms", "ms", Source::SelfMs("outputs")),
    ("hazard.ms", "ms", Source::SelfMs("hazard")),
    ("hazard.states", "count", Source::Median("hazard.states")),
    ("depth.ms", "ms", Source::SelfMs("depth")),
    ("canonical.ms", "ms", Source::SelfMs("canonical")),
    ("canonical.share", "ratio", Source::Share("canonical")),
    (
        "canonical.exact_ratio",
        "ratio",
        Source::Ratio("canonical.exact", "canonical.calls"),
    ),
    (
        "service.hit_ratio",
        "ratio",
        Source::Ratio("service.hits", "service.replies"),
    ),
    ("service.batch_ms", "ms", Source::SelfMs("service.batch")),
    ("service.other_ms", "ms", Source::Median("service.other_ms")),
    ("emit.ms", "ms", Source::SelfMs("emit")),
    ("emit.gates", "count", Source::Median("emit.gates")),
    ("campaign.ms", "ms", Source::Median("campaign.ms")),
    ("sim.events", "count", Source::Median("sim.events")),
    (
        "sim.ns_per_event",
        "ns",
        Source::Ratio("campaign.ns", "sim.events"),
    ),
    ("pipeline.other_ms", "ms", Source::GlueMs),
    ("trace.coverage", "ratio", Source::Coverage),
    ("trace.untraced_coverage", "ratio", Source::UntracedCoverage),
    ("trace.overhead", "ratio", Source::Overhead),
];

/// Spans that only group layer spans: their self time is the benchmark's
/// and the replay's own work between calls into the layers.
const GLUE: [&str; 2] = ["request", "pipeline"];

/// Counter (ns) a workload records when a request's layer shares must not
/// divide by the request span: `resubmit` records the pool's thread time of
/// the timed batch, because its request span also holds the replays.
pub const SHARE_BASE: &str = "share.base_ns";

/// Names and units of every per-layer metric, in report order.
#[cfg(test)]
pub fn names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|(n, u, _)| (*n, *u))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of the traced run. A layer the workload never
/// calls reads 0.
pub fn metrics(tr: &Tracer, span_cost_ns: f64) -> Vec<Metric> {
    let reqs = tr.requests();
    let total: f64 = reqs.iter().map(|r| r.total_ns as f64).sum();
    let sum_self = |name: &str| -> f64 {
        reqs.iter()
            .map(|r| r.self_ns.get(name).copied().unwrap_or(0) as f64)
            .sum()
    };
    let sum_count = |name: &str| -> f64 {
        reqs.iter()
            .map(|r| r.counts.get(name).copied().unwrap_or(0.0))
            .sum()
    };
    let per_request =
        |f: &dyn Fn(&Request) -> f64| -> f64 { median(&reqs.iter().map(f).collect::<Vec<f64>>()) };
    let glue = |r: &Request| -> f64 {
        GLUE.iter()
            .map(|g| r.self_ns.get(g).copied().unwrap_or(0) as f64)
            .sum()
    };
    let layer_ns: f64 = total - reqs.iter().map(glue).sum::<f64>();
    let share_base: f64 = reqs
        .iter()
        .map(|r| {
            r.counts
                .get(SHARE_BASE)
                .copied()
                .unwrap_or(r.total_ns as f64)
        })
        .sum();
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Source::SelfMs(span) => {
                    per_request(&|r| r.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6)
                }
                Source::Share(span) => ratio(sum_self(span), share_base),
                Source::Median(counter) => {
                    per_request(&|r| r.counts.get(counter).copied().unwrap_or(0.0))
                }
                Source::Ratio(num, den) => ratio(sum_count(num), sum_count(den)),
                Source::GlueMs => per_request(&|r| glue(r) / 1e6),
                Source::Coverage => ratio(layer_ns, total),
                Source::UntracedCoverage => ratio(layer_ns, sum_count("untraced.ns")),
                Source::Overhead => ratio(span_cost_ns * tr.len() as f64, total),
            };
            Metric { name, value, unit }
        })
        .collect()
}
