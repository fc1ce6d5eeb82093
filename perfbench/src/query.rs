//! The `query_join_agg` workload: in-process `query` operators over
//! `core` tables, no network and no WAL.
//!
//! * A PK–FK [`hash_join`] builds 2^23 keys into a pre-sized 2^25-slot
//!   LP×Mult table (512 MiB of slots, beyond the last-level cache; load
//!   0.25, so one repetition is short and a pass holds several) and
//!   probes it with 2^24 foreign keys, a quarter of which miss.
//! * [`group_aggregate`] (SUM) folds 2^20 uniform rows over 2^14 groups
//!   into an LP×Mult table that starts at 2^8 slots and doubles at load
//!   0.5, ending at 2^15 slots (512 KiB, inside L2).
//!
//! A repetition runs one join and [`AGG_RUNS`] group-bys. The join is
//! the workload's read (`read_p50_us`, two probes per build insert) and
//! the group-by its write (`write_p50_us`, an upsert per group per
//! chunk), each the median over the pass's calls.

use crate::inputs::{key, mix64, SplitMix64};
use crate::procfs;
use crate::report::Metrics;
use crate::stats;
use crate::trace::{self, now_ns, TracedTable};
use crate::Outcome;
use hashfn::MultShift;
use query::{group_aggregate, hash_join, AggFn};
use sevendim_core::{HashKind, HashTable, LinearProbing, TableBuilder, TableScheme};
use std::collections::HashMap;

const JOIN_BITS: u8 = 25;
const BUILD: usize = 1 << 23;
const PROBE: usize = 2 * BUILD;
const MISS_PCT: u64 = 25;
const AGG_GROUPS: u64 = 1 << 14;
const AGG_ROWS: usize = 1 << 20;
const AGG_START_BITS: u8 = 8;
const AGG_GROW_AT: f64 = 0.5;
/// Probe tuples sampled with `lookup_probed` for the probe-length counts.
const PROBE_SAMPLE: usize = 1 << 16;
/// Group-bys per repetition: each takes a tenth of a join's time and
/// varies more from call to call, so its median needs more samples.
const AGG_RUNS: usize = 12;
/// Repetitions a pass runs at least, however short `--seconds` is.
const MIN_REPS: usize = 2;

/// The generated inputs and the answers the outputs must match.
pub struct Inputs {
    pub build: Vec<(u64, u64)>,
    pub probe: Vec<(u64, u64)>,
    pub hits: usize,
    pub misses: usize,
    /// Order-independent checksum of the expected join rows.
    pub checksum: u64,
    pub agg_rows: Vec<(u64, u64)>,
    /// Expected `(group, sum)` pairs, sorted.
    pub agg_expected: Vec<(u64, u64)>,
}

fn row_hash(k: u64, build_payload: u64, probe_payload: u64) -> u64 {
    mix64(k ^ mix64(build_payload ^ mix64(probe_payload)))
}

fn build_payload(seed: u64, i: u64) -> u64 {
    mix64(i ^ seed.rotate_left(29))
}

/// Generate every input of the workload from `seed`, scaled by `shift`
/// (0 = full size; tests shrink the sizes by `2^shift`).
pub fn generate(seed: u64, shift: u32) -> Inputs {
    let n_build = (BUILD >> shift) as u64;
    let n_probe = PROBE >> shift;
    let build: Vec<(u64, u64)> =
        (0..n_build).map(|i| (key(seed, i), build_payload(seed, i))).collect();
    let mut rng = SplitMix64::stream(seed, 1);
    let (mut hits, mut checksum) = (0usize, 0u64);
    let probe: Vec<(u64, u64)> = (0..n_probe as u64)
        .map(|j| {
            if rng.below(100) < MISS_PCT {
                // Indices at or past `n_build` are never build keys.
                (key(seed, n_build + rng.below(4 * n_build)), j)
            } else {
                let i = rng.below(n_build);
                let k = key(seed, i);
                hits += 1;
                checksum = checksum.wrapping_add(row_hash(k, build_payload(seed, i), j));
                (k, j)
            }
        })
        .collect();
    let mut rng = SplitMix64::stream(seed, 2);
    let agg_rows: Vec<(u64, u64)> = (0..AGG_ROWS >> shift)
        .map(|_| (key(seed ^ 0xA66, rng.below(AGG_GROUPS)), rng.below(1000)))
        .collect();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in &agg_rows {
        *reference.entry(k).or_default() += v;
    }
    let mut agg_expected: Vec<(u64, u64)> = reference.into_iter().collect();
    agg_expected.sort_unstable();
    Inputs { misses: n_probe - hits, build, probe, hits, checksum, agg_rows, agg_expected }
}

fn join_table(seed: u64, shift: u32) -> TracedTable<LinearProbing<MultShift>> {
    TracedTable::new(LinearProbing::with_seed(JOIN_BITS - shift as u8, seed), "core")
}

fn agg_table(seed: u64) -> TracedTable<sevendim_core::BoxedTable> {
    let t = TableBuilder::new(TableScheme::LinearProbing)
        .hash(HashKind::Mult)
        .bits(AGG_START_BITS)
        .grow_at(AGG_GROW_AT)
        .seed(seed)
        .build();
    TracedTable::new(t, "core.dynamic")
}

/// Run one pass for `seconds` (at least [`MIN_REPS`] repetitions).
pub fn run(seed: u64, seconds: f64, traced: bool, shift: u32) -> Outcome {
    let mut o = Outcome::default();
    let t_gen = now_ns();
    let inp = generate(seed, shift);
    o.note(format!("inputs generated in {:.2} s", (now_ns() - t_gen) as f64 / 1e9));
    let (mut setup, mut join_s, mut agg_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_ns = 0u64;
    let mut layer = Metrics::default();
    let deadline = now_ns() + (seconds * 1e9) as u64;
    let mut rep = 0;
    while rep < MIN_REPS || now_ns() < deadline {
        rep += 1;
        let t0 = now_ns();
        let mut jt = join_table(seed, shift);
        let mut ats: Vec<_> = (0..AGG_RUNS).map(|_| agg_table(seed)).collect();
        setup.push((now_ns() - t0) as f64 / 1e9);
        trace::set_enabled(traced);

        let cpu0 = procfs::this_thread_cpu_ns();
        let t0 = now_ns();
        let joined =
            trace::span("query", "join", (inp.build.len() + inp.probe.len()) as u64, || {
                hash_join(&mut jt, &inp.build, &inp.probe)
            });
        join_s.push((now_ns() - t0) as f64 / 1e9);
        let mut aggregated = Vec::with_capacity(AGG_RUNS);
        for at in &mut ats {
            let t0 = now_ns();
            aggregated.push(trace::span("query", "agg", inp.agg_rows.len() as u64, || {
                group_aggregate(at, &inp.agg_rows, AggFn::Sum)
            }));
            agg_s.push((now_ns() - t0) as f64 / 1e9);
        }
        cpu_ns += procfs::this_thread_cpu_ns() - cpu0;
        trace::set_enabled(false);
        o.note(format!(
            "repetition {rep}: join {:.3} s, aggregates {:.3?} s",
            join_s[rep - 1],
            &agg_s[agg_s.len() - AGG_RUNS..]
        ));

        o.attempted += 1;
        match joined {
            Ok(j) => {
                let sum =
                    j.rows.iter().fold(0u64, |acc, &(k, b, p)| acc.wrapping_add(row_hash(k, b, p)));
                if j.rows.len() != inp.hits || j.probe_misses != inp.misses || sum != inp.checksum {
                    o.failed += 1;
                    o.fail_check(format!(
                        "join gave {} rows / {} misses / checksum {sum:#x}, expected {} / {} / {:#x}",
                        j.rows.len(),
                        j.probe_misses,
                        inp.hits,
                        inp.misses,
                        inp.checksum
                    ));
                }
            }
            Err(e) => {
                o.failed += 1;
                o.fail_check(format!("join failed: {e}"));
            }
        }
        for result in aggregated {
            o.attempted += 1;
            match result {
                Ok(mut a) => {
                    a.sort_unstable();
                    if a != inp.agg_expected {
                        o.failed += 1;
                        o.fail_check(format!(
                            "aggregate differs from the HashMap reference ({} groups vs {})",
                            a.len(),
                            inp.agg_expected.len()
                        ));
                    }
                }
                Err(e) => {
                    o.failed += 1;
                    o.fail_check(format!("aggregate failed: {e}"));
                }
            }
        }
        if rep == 1 {
            o.metrics.set("table_bytes_per_entry", jt.memory_bytes() as f64 / jt.len() as f64);
        }
        if traced && rep == 1 {
            probe_lengths(&jt, &inp, &mut layer);
            let rehashes = ats[0].table_stats().map_or(0, |s| s.rehashes);
            layer.set("core.dynamic.rehashes", rehashes as f64);
        }
    }
    o.note(format!("{rep} repetitions"));
    o.metrics.set("setup_s", stats::median(&setup));
    let (join_p50, agg_p50) = (stats::median(&join_s), stats::median(&agg_s));
    o.metrics.set("read_p50_us", join_p50 * 1e6);
    o.metrics.set("write_p50_us", agg_p50 * 1e6);
    let tuples = inp.build.len() + inp.probe.len();
    o.metrics.set("join_tuples_per_s", tuples as f64 / join_p50);
    o.metrics.set("agg_rows_per_s", inp.agg_rows.len() as f64 / agg_p50);
    if traced {
        let ops = (rep * (tuples + AGG_RUNS * inp.agg_rows.len())) as f64;
        layer.set("service.cpu_ns_per_op", cpu_ns as f64 / ops);
        let sample: Vec<u64> = inp.probe.iter().map(|&(k, _)| k).take(1 << 12).collect();
        layer.set("hashfn.ns_per_key", trace::hash_ns_per_key(seed, &sample));
        let spans = trace::drain();
        span_metrics(&spans, ops, &mut layer);
        for line in trace::summary_lines(&spans) {
            o.note(line);
        }
        o.metrics.0.extend(layer.0);
    }
    o
}

/// Mean probe lengths of hits and misses over a fixed sample of the
/// probe relation (the first [`PROBE_SAMPLE`] tuples).
fn probe_lengths<T: HashTable>(t: &T, inp: &Inputs, m: &mut Metrics) {
    let (mut hit, mut miss) = ((0u64, 0u64), (0u64, 0u64));
    for &(k, _) in inp.probe.iter().take(PROBE_SAMPLE) {
        let (v, steps) = t.lookup_probed(k);
        let acc = if v.is_some() { &mut hit } else { &mut miss };
        acc.0 += steps as u64;
        acc.1 += 1;
    }
    m.set("core.probe_len_hit", hit.0 as f64 / hit.1.max(1) as f64);
    m.set("core.probe_len_miss", miss.0 as f64 / miss.1.max(1) as f64);
}

/// The traced pass's layer figures from its spans: the `service`
/// (query) and `table` metrics every workload reports, and the `core.`,
/// `core.dynamic.` and `query.` figures only this workload has. Means,
/// not medians: the join's and the group-by's calls are as many, and
/// their costs differ, so a median would fall between the two.
fn span_metrics(spans: &[trace::Span], ops: f64, m: &mut Metrics) {
    let t = trace::totals(spans);
    let get = |l, op| t.get(&(l, op)).copied().unwrap_or_default();
    let per_key = |x: trace::OpTotals| x.total_ns as f64 / x.items.max(1) as f64;
    m.set("core.insert_ns_per_key", per_key(get("core", "insert")));
    m.set("core.lookup_ns_per_key", per_key(get("core", "lookup")));
    let (dl, di) = (get("core.dynamic", "lookup"), get("core.dynamic", "insert"));
    m.set("core.dynamic.lookup_ns_per_key", per_key(dl));
    m.set("core.dynamic.insert_ns_per_key", per_key(di));
    m.set("core.dynamic.max_call_us", dl.max_ns.max(di.max_ns) as f64 / 1e3);
    let self_s_per_call = |x: trace::OpTotals| x.self_ns as f64 / 1e9 / x.calls.max(1) as f64;
    m.set("query.join_self_s", self_s_per_call(get("query", "join")));
    m.set("query.agg_self_s", self_s_per_call(get("query", "agg")));
    m.set("query.agg_keys_per_call", dl.items as f64 / dl.calls.max(1) as f64);
    let (join, agg) = (get("query", "join"), get("query", "agg"));
    m.set("service.self_ns_per_op", (join.self_ns + agg.self_ns) as f64 / ops);
    let tables = ["core", "core.dynamic"];
    let (lookup, insert) =
        (trace::merged(spans, &tables, "lookup"), trace::merged(spans, &tables, "insert"));
    m.set("table.lookup_ns_per_key", per_key(lookup));
    m.set("table.insert_ns_per_key", per_key(insert));
    let calls = (lookup.calls + insert.calls).max(1);
    m.set("table.keys_per_call", (lookup.items + insert.items) as f64 / calls as f64);
    m.set("table.max_call_us", lookup.max_ns.max(insert.max_ns) as f64 / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_input_set_with_the_stated_shape() {
        let a = generate(3, 8);
        let b = generate(3, 8);
        assert_eq!(a.build, b.build);
        assert_eq!(a.probe, b.probe);
        assert_eq!(a.agg_rows, b.agg_rows);
        assert_eq!((a.hits, a.misses, a.checksum), (b.hits, b.misses, b.checksum));
        assert_ne!(generate(4, 8).probe, a.probe);
        assert_eq!(a.probe.len(), 2 * a.build.len());
        let miss_share = a.misses as f64 / a.probe.len() as f64;
        assert!((0.22..0.28).contains(&miss_share), "miss share {miss_share}");
    }

    /// The count metrics a traced pass reports (timings vary; these
    /// must not).
    const COUNTS: [&str; 6] = [
        "table_bytes_per_entry",
        "core.probe_len_hit",
        "core.probe_len_miss",
        "core.dynamic.rehashes",
        "query.agg_keys_per_call",
        "table.keys_per_call",
    ];

    #[test]
    fn a_small_pass_checks_its_outputs_and_repeats_its_counts() {
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let counts = |traced| {
            let o = run(11, 0.0, traced, 8);
            assert!(o.check_failures.is_empty(), "{:?}", o.check_failures);
            assert_eq!((o.attempted, o.failed), ((1 + AGG_RUNS) as u64 * MIN_REPS as u64, 0));
            COUNTS.map(|name| o.metrics.get(name))
        };
        let first = counts(true);
        assert!(first.iter().all(|c| c.is_some_and(|v| v > 0.0)), "{first:?}");
        let o = run(12, 0.0, true, 8);
        for (name, _) in crate::report::END_TO_END.iter().chain(crate::report::PER_LAYER) {
            assert!(o.metrics.get(name).is_some_and(|v| v > 0.0), "{name}: {:?}", o.metrics);
        }
        assert_eq!(first, counts(true));
        // An untraced pass checks its outputs the same way.
        assert_eq!(counts(false)[0], first[0]);
    }
}
