//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `kv_read` — open-loop 95% GET / 5% PUT over the network against a
//!   preloaded sharded table;
//! * `kv_durable` — the same server and rate over a `DurableTable`
//!   (fsync every 64 records), 98% GET / 2% PUT, then a restart;
//! * `query_join_agg` — an out-of-cache hash join and an in-cache
//!   growing group-by, in process.
//!
//! Every workload reports the same metrics. `--trace 0` reports the
//! end-to-end metrics. `--trace 1` splits the time into an untraced and
//! a traced half, reports the per-layer metrics from the traced half,
//! and each end-to-end metric's tracing overhead as `overhead.<metric>`
//! = traced ÷ untraced. Figures only some workloads have (tails, the
//! highest sustained rate, recovery time, the named layers' own counts)
//! are printed as text lines. The last line of standard output is the
//! JSON result; everything before it is for people. Exit status: 0 on
//! success, 1 when an output check failed (the result says
//! `"correct": false`), 2 on bad arguments, 3 when the run is invalid
//! (nothing is reported), as when a declared metric was not measured.

mod inputs;
mod kv;
mod loadgen;
mod os;
mod procfs;
mod query;
mod report;
mod stats;
mod trace;

use report::{Metrics, OVERHEAD_PREFIX};
use std::path::{Path, PathBuf};

/// What a pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed: the run reports `"correct": false`.
    pub check_failures: Vec<String>,
    /// Conditions that make the run invalid: nothing is reported.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn error(mut self, e: String) -> Self {
        self.errors.push(e);
        self
    }

    pub fn fail_check(&mut self, why: String) {
        self.check_failures.push(why);
    }

    pub fn note(&mut self, what: String) {
        eprintln!("  {what}");
        self.notes.push(what);
    }

    /// Count one generator phase's requests and failures.
    pub fn count(&mut self, out: &loadgen::PhaseOut) {
        self.attempted += out.sent;
        self.failed += out.failed;
        if let Some(e) = &out.first_error {
            self.check_failures.push(e.clone());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value} ({})", WORKLOADS.join(", ")));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

const WORKLOADS: [&str; 3] = ["kv_read", "kv_durable", "query_join_agg"];

/// One pass of `workload`. `search_rate` adds the `max_rate_ops_s`
/// search to a `kv_*` pass (after its measured window), which only the
/// untraced half of a traced run reports.
fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    search_rate: bool,
    work: &Path,
) -> Outcome {
    eprintln!("{workload}: {} pass of {seconds} s", if traced { "traced" } else { "untraced" });
    match workload {
        "kv_read" => kv::run(&kv::KV_READ, seed, seconds, traced, search_rate, work),
        "kv_durable" => kv::run(&kv::KV_DURABLE, seed, seconds, traced, search_rate, work),
        "query_join_agg" => query::run(seed, seconds, traced, 0),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// Merge a traced run's halves: the traced half's figures (those
/// listed in `report::FROM_UNTRACED` from the untraced half), and for
/// each end-to-end metric its overhead, traced ÷ untraced.
fn traced_result(plain: Outcome, mut traced: Outcome) -> Outcome {
    let mut merged = Metrics::default();
    for (name, value) in &traced.metrics.0 {
        println!("traced half {name} = {value}");
        if report::END_TO_END.iter().any(|(n, _)| n == name) {
            if let Some(base) = plain.metrics.get(name) {
                merged.set(&format!("{OVERHEAD_PREFIX}{name}"), value / base);
            }
        } else if !report::FROM_UNTRACED.contains(&name.as_str()) {
            merged.set(name, *value);
        }
    }
    for name in report::FROM_UNTRACED {
        if let Some(v) = plain.metrics.get(name) {
            merged.set(name, v);
        }
    }
    traced.metrics = merged;
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.check_failures.extend(plain.check_failures);
    traced.errors.extend(plain.errors);
    traced.notes.splice(0..0, plain.notes);
    traced
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|_| "?".into())
}

/// The host facts every result is stamped with.
fn host_lines(work: &Path) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "?".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        if !Path::new(&base).exists() {
            break;
        }
        caches.push(format!(
            "L{} {} {}",
            read_trim(&format!("{base}/level")),
            read_trim(&format!("{base}/type")),
            read_trim(&format!("{base}/size"))
        ));
    }
    vec![
        format!("host nproc: {nproc}"),
        format!("host kernel: {}", read_trim("/proc/sys/kernel/osrelease")),
        format!("host cpu: {model}"),
        format!("host caches (cpu0): {}", caches.join(", ")),
        format!("host work-dir filesystem: {}", filesystem_of(work)),
    ]
}

/// Filesystem type and source of the mount holding `path` (longest
/// matching mount point in `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "?".into() };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|&f| f == "-") else { continue };
        let (Some(mount), Some(fstype), Some(source)) =
            (fields.get(4), fields.get(dash + 1), fields.get(dash + 2))
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), format!("{fstype} on {source} (mounted at {mount})")));
        }
    }
    best.map_or_else(|| "?".into(), |(_, s)| s)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Scratch files (the WAL) live under the working directory, which is
    // the checkout the benchmark runs from.
    let work: PathBuf = PathBuf::from(".perfbench_run").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(3);
    }
    let code = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_run");
    std::process::exit(code);
}

fn run(args: &Args, work: &Path) -> i32 {
    println!("workload: {}", args.workload);
    println!("seed: {}", args.seed);
    println!("seconds: {}", args.seconds);
    println!("trace: {}", u8::from(args.trace));
    for line in host_lines(work) {
        println!("{line}");
    }
    let mut outcome = if args.trace {
        // Untraced and traced halves, so the overhead is measured on one
        // host in one run.
        let half = args.seconds / 2.0;
        let plain = run_pass(&args.workload, args.seed, half, false, true, work);
        traced_result(plain, run_pass(&args.workload, args.seed, half, true, false, work))
    } else {
        run_pass(&args.workload, args.seed, args.seconds, false, false, work)
    };
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(peak) = status.lines().find(|l| l.starts_with("VmHWM:")) {
        println!("peak resident memory: {}", peak["VmHWM:".len()..].trim());
    }
    for (name, value) in &outcome.metrics.0 {
        println!("{name} = {value} {}", report::unit_of(name).expect("declared"));
    }
    // The result carries exactly the metrics BENCHMARK.json declares for
    // this mode, each one measured; the rest were printed above.
    let reported = report::reported(args.trace);
    outcome.metrics.0.retain(|(n, _)| reported.contains(n));
    for name in &reported {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() && v != 0.0 => {}
            Some(v) => outcome.errors.push(format!("metric {name} is {v}")),
            None => outcome.errors.push(format!("metric {name} was not measured")),
        }
    }
    outcome.metrics.0.sort_by_key(|(n, _)| reported.iter().position(|r| r == n));
    if !outcome.errors.is_empty() {
        for e in &outcome.errors {
            eprintln!("run invalid: {e}");
        }
        return 3;
    }
    for f in &outcome.check_failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = outcome.check_failures.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted.max(1), outcome.failed, &outcome.metrics)
    );
    if correct {
        0
    } else {
        1
    }
}
