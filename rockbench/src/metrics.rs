//! The metric catalog and the result line.
//!
//! Every workload emits every metric of the mode it runs in: the
//! end-to-end set untraced, the per-layer set traced. A layer a workload
//! does not exercise reports 0 for its counters and times.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, quality).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and (end-to-end only) the share of
/// the parent's median by which it may worsen before a change is a
/// regression.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the fitted, served or evolving model sees. The bounds
/// follow the quartile spreads (IQR over median) measured across ten
/// seeds per workload, listed in `rockbench/README.md`. Timings on the
/// shared reference host spread by up to 21% as neighbours come and go,
/// so they take the widest bound allowed. `ari` and `peak_heap_mb`
/// repeat exactly for a seed but differ between seeds, by up to 6% and
/// 9% (IQR over median).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("ari", "ari", Higher, 0.2),
    e2e("peak_heap_mb", "MB", Lower, 0.25),
];

/// Per-layer work, time and yield from the traced run. Times and counts
/// are totals over the traced round (one fit, one pass of requests, or
/// one stream of absorbs).
pub const PER_LAYER: &[Metric] = &[
    layer("sampling.self_s", "s", Lower),
    layer("neighbors.self_s", "s", Lower),
    layer("neighbors.sim_evals", "count", Lower),
    layer("neighbors.edges", "count", Lower),
    layer("neighbors.yield", "ratio", Higher),
    layer("links_matrix.self_s", "s", Lower),
    layer("links_matrix.pairs_emitted", "count", Lower),
    layer("links_matrix.bytes_touched", "B", Lower),
    layer("links_matrix.linked_pairs", "count", Lower),
    layer("links_matrix.dense_kernel", "flag", Lower),
    layer("algorithm.self_s", "s", Lower),
    layer("algorithm.merges", "count", Lower),
    layer("algorithm.scratch_reused", "count", Higher),
    layer("labeling.self_s", "s", Lower),
    layer("labeling.sim_evals", "count", Lower),
    layer("labeling.hit_frac", "ratio", Higher),
    layer("labeling.outlier_frac", "ratio", Lower),
    layer("serve.self_s", "s", Lower),
    layer("serve.sim_evals_per_query", "count", Lower),
    layer("serve.hit_frac", "ratio", Higher),
    layer("serve.degraded_batches", "count", Lower),
    layer("serve.quarantined", "count", Lower),
    layer("incremental.update_calm_p50_ms", "ms", Lower),
    layer("incremental.update_remerge_p50_ms", "ms", Lower),
    layer("incremental.remerge_passes", "count", Lower),
    layer("incremental.remerge_merges", "count", Lower),
    layer("incremental.relabels", "count", Lower),
    layer("incremental.dirty_links", "count", Lower),
    layer("incremental.rejected_frac", "ratio", Lower),
    layer("incremental.sim_evals", "count", Lower),
    layer("incremental.snapshot_s", "s", Lower),
    layer("incremental.service_build_s", "s", Lower),
    layer("artifact.save_s", "s", Lower),
    layer("artifact.load_s", "s", Lower),
    layer("artifact.bytes", "B", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Whether `name` fits the metric-name grammar: a letter or digit first,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Looks a metric up in either catalog.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The result line: exactly the catalog's metrics, in catalog order.
///
/// # Errors
/// Names a catalog metric the run did not produce, or a produced metric
/// the catalog does not list — both are benchmark bugs.
pub fn result_line(
    catalog: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !catalog.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    let mut fields = Vec::with_capacity(catalog.len());
    for m in catalog {
        let Some(&v) = values.get(m.name) else {
            return Err(format!("metric {} was not measured", m.name));
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn name_grammar() {
        for ok in [
            "ari",
            "op_p50_ms",
            "links_matrix.self_s",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
        }
    }

    #[test]
    fn names_are_unique_and_bounds_in_range() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn result_line_round_trips_and_rejects_gaps() {
        let values: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 0.5 + i as f64))
            .collect();
        let line = result_line(END_TO_END, &values, true, 9, 0).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::num), Some(9.0));
        let metrics = v.get("metrics").and_then(Json::obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["ari"].get("unit").and_then(Json::str), Some("ari"));

        let mut missing = values.clone();
        missing.remove("ari");
        assert!(result_line(END_TO_END, &missing, true, 1, 0).is_err());
        let mut extra = values;
        extra.insert("neighbors.edges", 1.0);
        assert!(result_line(END_TO_END, &extra, true, 1, 0).is_err());
    }
}
