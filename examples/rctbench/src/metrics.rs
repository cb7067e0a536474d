//! Metric names and units — the single table `BENCHMARK.json`, the result
//! line and the smoke test agree on.

use crate::layers::Layer;

/// End-to-end metrics, reported on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("stream_hours_per_s", "h/s"), ("stream_hours_per_cpu_s", "h/cpu-s"), ("setup_s", "s")];

/// End-to-end metrics without a bound.  Every run prints them, and they are
/// carried in the per-layer set (`--trace 1`), where a workload without a
/// retrain or an archive reports 0.  `peak_rss_mb` and `analysis_s` are
/// measured on every workload, but scale with the data volume a seed
/// happens to produce — too much, on `rct_insitu`, for a bound.
pub const UNBOUNDED: [(&str, &str); 4] = [
    ("peak_rss_mb", "MiB"),
    ("retrain_s", "s"),
    ("analysis_s", "s"),
    ("archive_bytes_per_stream_hour", "B/h"),
];

/// Per-layer counters that are not `<layer>.<stat>` summaries.
const LAYER_EXTRAS: [(&str, &str); 6] = [
    ("core.ttp.rows", "count"),
    ("core.training.samples", "count"),
    ("platform.archive.bytes", "bytes"),
    ("platform.experiment.busy_frac", "frac"),
    ("bench.trace.coverage", "frac"),
    ("bench.trace.overhead", "frac"),
];

/// Per-layer metrics, reported on every workload with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in Layer::REPORTED {
        for (stat, unit) in
            [("calls", "count"), ("busy_s", "s"), ("p50_us", "us"), ("p99_us", "us")]
        {
            out.push((format!("{}.{stat}", layer.name()), unit));
        }
    }
    out.extend(LAYER_EXTRAS.iter().chain(&UNBOUNDED).map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Render `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_json(values: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::quote(name),
                number(*v),
                crate::json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number with all its digits (JSON has no NaN or infinity).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
