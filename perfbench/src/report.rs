//! Metric names, units and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! a test checks the table against `BENCHMARK.json`, so a name printed
//! here is a name the benchmark declares.

use std::fmt::Write as _;

/// Every end-to-end metric: `(name, unit)`. Every workload prints each
/// of them; what a read and a write are depends on the workload:
///
/// * `kv_read`, `kv_durable`: a GET and a PUT over the network, each
///   timed from when it was due to be sent;
/// * `query_join_agg`: one `hash_join` query (build and probe: two
///   lookups per insert) and one `group_aggregate` query (an upsert per
///   group per chunk), each timed around the call.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("table_bytes_per_entry", "bytes"),
];

/// Every per-layer metric: `(name, unit)`. Every workload's traced run
/// prints each of them, so they are named by the role a layer plays in
/// the workload:
///
/// * `service` is the layer the workload's requests enter: `net` (the
///   `KvServer` workers) on `kv_*`, `query` on `query_join_agg`; an op
///   is a request on `kv_*` and an input tuple or row on
///   `query_join_agg`;
/// * `table` is the table API that layer calls, timed by the
///   benchmark's wrappers: `core.sharded` on `kv_read`, `durable` (over
///   `core.sharded`) on `kv_durable`, `core` (the join) and
///   `core.dynamic` (the group-by) on `query_join_agg`;
/// * `core` is the LP×Mult kernel under every table, `hashfn` its hash.
///
/// The tracing overhead of each end-to-end metric `m` is reported with
/// them as `overhead.<m>`, unit `ratio` (traced ÷ untraced).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.self_ns_per_op", "ns"),
    ("service.cpu_ns_per_op", "ns"),
    ("table.lookup_ns_per_key", "ns"),
    ("table.insert_ns_per_key", "ns"),
    ("table.keys_per_call", "count"),
    ("table.max_call_us", "us"),
    ("core.probe_len_hit", "slots"),
    ("core.probe_len_miss", "slots"),
    ("hashfn.ns_per_key", "ns"),
];

/// Figures only some workloads have: printed as text lines before the
/// result, never in it (the result carries the same metrics on every
/// workload). On a shared virtual machine the tails and the highest
/// sustained rate also measure the host more than this program.
pub const DIAGNOSTICS: &[(&str, &str)] = &[
    ("max_rate_ops_s", "ops/s"),
    ("get_p99_us", "us"),
    ("put_p99_us", "us"),
    ("recovery_s", "s"),
    ("storage_bytes_per_put", "bytes"),
    ("join_tuples_per_s", "tuples/s"),
    ("agg_rows_per_s", "rows/s"),
    ("net.worker_runq_wait_us_per_op", "us"),
    ("net.worker_wakeups_per_op", "count"),
    ("net.client_codec_ns_per_op", "ns"),
    ("durable.ops_per_record", "count"),
    ("durable.snapshots", "count"),
    ("durable.replayed_ops", "count"),
    ("core.insert_ns_per_key", "ns"),
    ("core.lookup_ns_per_key", "ns"),
    ("core.dynamic.lookup_ns_per_key", "ns"),
    ("core.dynamic.insert_ns_per_key", "ns"),
    ("core.dynamic.rehashes", "count"),
    ("core.dynamic.max_call_us", "us"),
    ("query.join_self_s", "s"),
    ("query.agg_self_s", "s"),
    ("query.agg_keys_per_call", "count"),
    ("gen.late_us_p99", "us"),
];

/// Figures a traced run takes from its untraced half.
pub const FROM_UNTRACED: &[&str] = &["max_rate_ops_s", "get_p99_us", "put_p99_us"];

/// Prefix of the tracing-overhead metrics.
pub const OVERHEAD_PREFIX: &str = "overhead.";

/// The declared unit of `name`, `None` if undeclared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    if let Some(base) = name.strip_prefix(OVERHEAD_PREFIX) {
        return END_TO_END.iter().any(|&(n, _)| n == base).then_some("ratio");
    }
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DIAGNOSTICS)
        .find(|&&(n, _)| n == name)
        .map(|&(_, u)| u)
}

/// The names a run's result must carry: the end-to-end metrics, or with
/// `trace` the per-layer metrics and each end-to-end metric's overhead.
pub fn reported(trace: bool) -> Vec<String> {
    if !trace {
        return END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    }
    let overheads = END_TO_END.iter().map(|(n, _)| format!("{OVERHEAD_PREFIX}{n}"));
    PER_LAYER.iter().map(|(n, _)| n.to_string()).chain(overheads).collect()
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared in report.rs");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.0.iter().enumerate() {
        let unit = unit_of(name).expect("metric declared");
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// A finite float as a JSON number with every digit Rust keeps
/// (non-finite values have no JSON form; they are reported as 0 and the
/// caller has already failed the run for them).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Whether `name` is a legal metric name: 1..=64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit)` pairs of one section of BENCHMARK.json, read with
    /// a minimal scan (the file is small, flat and machine-written).
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> Option<String> {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = &obj[at + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit").expect("unit")))
            .collect()
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json_with_its_unit() {
        let e2e = declared("end_to_end");
        let layer = declared("per_layer");
        for &(name, unit) in END_TO_END {
            assert!(e2e.contains(&(name.into(), unit.into())), "{name} [{unit}] not in end_to_end");
            let overhead = format!("{OVERHEAD_PREFIX}{name}");
            assert!(layer.contains(&(overhead.clone(), "ratio".into())), "{overhead} missing");
        }
        for &(name, unit) in PER_LAYER {
            assert!(
                layer.contains(&(name.into(), unit.into())),
                "{name} [{unit}] not in per_layer"
            );
        }
        // And nothing is declared that the result does not carry.
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layer.len(), PER_LAYER.len() + END_TO_END.len());
        for &(name, _) in DIAGNOSTICS {
            assert!(!e2e.iter().chain(&layer).any(|(n, _)| n == name), "{name} is declared");
        }
    }

    #[test]
    fn every_name_is_legal() {
        let overheads: Vec<String> =
            END_TO_END.iter().map(|(n, _)| format!("{OVERHEAD_PREFIX}{n}")).collect();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(DIAGNOSTICS)
            .map(|(n, _)| *n)
            .chain(overheads.iter().map(String::as_str))
        {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("_lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("read_p50_us", 40.0);
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"read_p50_us\": {\"value\": 40.0, \"unit\": \"us\"}}}"
        );
    }
}
