//! The metric vocabulary: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` lists the same names (with directions and
//! bounds); `--quick` fails if the two lists disagree.

/// `(name, unit)` of the end-to-end metrics, reported per workload with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("recovery_ops_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("journal_bytes_per_op", "bytes"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, reported with `--trace 1`.
/// A layer a workload bypasses reports 0 for its rows.
pub const PER_LAYER: [(&str, &str); 57] = [
    // The ladder: serial latency of the workload's own stream through
    // successively deeper entry points.
    ("ladder.wire_repl_ms", "ms"),
    ("ladder.wire_ms", "ms"),
    ("ladder.engine_journal_ms", "ms"),
    ("ladder.engine_ms", "ms"),
    ("ladder.admission_ms", "ms"),
    ("ladder.analysis_ms", "ms"),
    // net
    ("net.wire.self_ms", "ms"),
    ("net.client.send_us", "us"),
    ("net.client.recv_wait_us", "us"),
    ("net.frame.codec_ns", "ns"),
    ("net.frames_per_op", "count"),
    ("net.bytes_in_per_op", "bytes"),
    ("net.bytes_out_per_op", "bytes"),
    ("net.repl.self_ms", "ms"),
    ("net.repl.lag_records_p95", "count"),
    ("net.repl.bytes_streamed_per_op", "bytes"),
    ("net.repl.drain_ms", "ms"),
    ("net.repl.bootstrap_s", "s"),
    ("net.shed_frac", "ratio"),
    ("net.client.retries_per_op", "count"),
    // engine
    ("engine.frontdoor.self_us", "us"),
    ("engine.phase.reserve_us", "us"),
    ("engine.phase.route_us", "us"),
    ("engine.phase.checkout_us", "us"),
    ("engine.phase.analyze_us", "us"),
    ("engine.phase.settle_us", "us"),
    ("engine.reserve.wait_us", "us"),
    ("engine.settle.wait_us", "us"),
    ("engine.fast_path_frac", "ratio"),
    ("engine.fast_conflicts_per_op", "count"),
    ("engine.fast_fallbacks_per_op", "count"),
    ("engine.exclusive_drains_per_op", "count"),
    ("engine.journal.self_ms", "ms"),
    ("engine.journal.fsync_ms", "ms"),
    ("engine.journal.fsyncs_per_op", "count"),
    ("engine.sync.batch_epochs_mean", "count"),
    ("engine.journal.append_us", "us"),
    ("engine.snapshot.call_ms", "ms"),
    ("engine.replay.self_us_per_record", "us"),
    // admission
    ("admission.commit.self_us", "us"),
    ("admission.cone.transactions_mean", "count"),
    ("admission.dirty_fraction_pct_mean", "%"),
    ("admission.cone.islands_mean", "count"),
    ("admission.warm_commit_frac", "ratio"),
    ("admission.reject_frac", "ratio"),
    // analysis
    ("analysis.share_of_latency", "ratio"),
    ("analysis.cold_island_ms", "ms"),
    ("analysis.fixpoint.iterations_cold_mean", "count"),
    ("analysis.fixpoint.iterations_warm_mean", "count"),
    ("analysis.rta_cache.foreign_hit_frac", "ratio"),
    ("analysis.rta_cache.completion_hit_frac", "ratio"),
    // numeric / supply
    ("numeric.rational.op_ns", "ns"),
    ("numeric.small_operand_frac", "ratio"),
    ("supply.inverse_ns", "ns"),
    // loadgen: the harness itself
    ("loadgen.ladder_coverage", "ratio"),
    ("loadgen.trace_overhead_pct", "%"),
    ("loadgen.loaded_throughput_ops_s", "1/s"),
];

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Builds the reported list from `values`, in vocabulary order. Panics
/// if a value is missing or extra — a metric cannot silently drop out.
pub fn assemble(
    vocabulary: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            vocabulary.iter().any(|(known, _)| known == name),
            "metric `{name}` is not in the vocabulary"
        );
    }
    vocabulary
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"))
                .1;
            assert!(
                value.is_finite(),
                "metric `{name}` is not a number: {value}"
            );
            Metric { name, unit, value }
        })
        .collect()
}

/// Every `"name": "..."` value of a JSON document, in order. Enough to
/// read the names out of `BENCHMARK.json` without a JSON dependency.
pub fn declared_names(json: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + 6..];
        let Some(open) = rest.find('"') else { break };
        let Some(len) = rest[open + 1..].find('"') else {
            break;
        };
        names.push(rest[open + 1..open + 1 + len].to_string());
        rest = &rest[open + 1 + len..];
    }
    names
}

/// `(name, bound)` of every JSON object that declares a `"bound"`.
pub fn declared_bounds(json: &str) -> Vec<(String, f64)> {
    json.split('{')
        .filter_map(|object| {
            let object = object.split('}').next()?;
            let at = object.find("\"bound\"")?;
            let number: String = object[at + 7..]
                .chars()
                .skip_while(|c| *c == ':' || c.is_whitespace())
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            Some((declared_names(object).pop()?, number.parse().ok()?))
        })
        .collect()
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    #[test]
    fn names_are_read_out_of_json() {
        let json = r#"{"workloads": [{"name": "a", "why": "x"}], "end_to_end": [{"name" : "b.c", "unit": "ms"}]}"#;
        assert_eq!(declared_names(json), vec!["a", "b.c"]);
        let json =
            r#"{"end_to_end": [{"name": "x", "unit": "ms", "better": "lower", "bound": 0.15}]}"#;
        assert_eq!(declared_bounds(json), vec![("x".to_string(), 0.15)]);
    }
}
