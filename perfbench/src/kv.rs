//! The `kv_read` and `kv_durable` workloads: an in-process `KvServer`
//! (two epoll workers, mailbox accept) serving a preloaded sharded
//! LP×Mult table — plain, or behind a `DurableTable` — driven open loop
//! by two connections.
//!
//! How the layers' numbers should move the end-to-end ones:
//!
//! * A faster layer saves at most its share of the blocking steps: the
//!   table call is a few percent of a `kv_read` round trip, so kernel work
//!   cannot move `read_p50_us` by more unless it frees worker CPU
//!   (`service.cpu_ns_per_op`).
//! * As the workers near saturation, the tail rises (`get_p99_us`) before
//!   the sustainable rate (`max_rate_ops_s`) stops rising.
//! * On `kv_durable`, `write_p50_us` ≈ round trip + one WAL append
//!   under the log lock; the PUT that closes every 64th record also waits
//!   for the fsync, which shows in `put_p99_us`. Group commit shows as
//!   more `durable.ops_per_record` and fewer `storage_bytes_per_put`.

use crate::inputs::{key, mix64};
use crate::loadgen::{run_parallel, Conn, Model, PhaseOut, GEN_LATE_LIMIT_US};
use crate::procfs::{self, ThreadCounters};
use crate::report::Metrics;
use crate::stats::{self, Rung};
use crate::trace::{self, now_ns, TracedConcurrent};
use crate::Outcome;
use sevendim_core::{
    BoxedTable, ConcurrentTable, FsyncPolicy, HashKind, HashTable, InsertOutcome, ShardedTable,
    TableBuilder, TableScheme,
};
use sevendim_durable::{DurableSharded, DurableTable};
use sevendim_net::{AcceptMode, KvServer, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SHARD_BITS: u8 = 3;
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 9;
/// Reopens after a `kv_durable` run; `recovery_s` is their median.
const REOPENS: usize = 9;
/// `kv_durable`'s WAL syncs every 64 records. With a sync per record the
/// median write timed the shared virtual disk's fsync: over ten runs a
/// few minutes apart it read 172-304 µs, its quartiles 27% of the median
/// apart — the host's disk, not this program.
const DURABLE_FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);
const WARMUP: Duration = Duration::from_millis(500);
/// A rung's queue counts as growing only past this many seconds of
/// arrivals (see [`stats::backlog_growing`]).
const BACKLOG_SLACK_S: f64 = 0.005;

/// One `kv_*` workload's traffic and limits.
pub struct KvWorkload {
    /// Preloaded keys, as a power of two; the table has twice as many
    /// slots.
    pub keys_log2: u8,
    /// `Some(records)`: serve a `DurableTable` that syncs as
    /// [`DURABLE_FSYNC`] says and snapshots every `records` records.
    pub snapshot_every: Option<u64>,
    /// Share of GETs, percent; the rest are PUTs.
    pub get_pct: u64,
    /// The fixed rate the latency metrics are measured at, ops/s.
    pub reference_rate: f64,
    /// Coarse offered rates climbed for `max_rate_ops_s`, ascending.
    pub coarse: &'static [f64],
    /// Log-space bisections between the last sustained and the first
    /// unsustained coarse rate.
    pub bisect_steps: u32,
    /// How long each rung runs.
    pub rung: Duration,
    /// p99 limit (µs) a rung must meet to count as sustained.
    pub p99_limit_us: f64,
    /// The reference window runs as sub-windows of this length; each
    /// p99 metric is the median of the sub-windows' p99s, so one host
    /// stall moves one sub-window, not the run. Long enough for 1000
    /// samples of each operation type.
    pub sub_window: Duration,
}

/// 2^20 keys in 2^21 slots: 32 MiB of slots, beyond L2, within L3.
pub const KV_READ: KvWorkload = KvWorkload {
    keys_log2: 20,
    snapshot_every: None,
    get_pct: 95,
    reference_rate: 20_000.0,
    coarse: &[20e3, 80e3, 320e3, 640e3, 1280e3, 2560e3, 5120e3],
    bisect_steps: 4,
    rung: Duration::from_millis(750),
    // Above the multi-millisecond stalls a shared virtual machine's host
    // imposes at any load, so a rung fails on queueing, not on the host.
    p99_limit_us: 25_000.0,
    sub_window: Duration::from_secs(2),
};

/// 2^18 keys: each snapshot writes 4 MiB, and a restart replays a
/// snapshot large enough (tens of milliseconds) to time steadily. The
/// rate is `kv_read`'s, so the workers and the generator stay as busy
/// and a GET costs what it costs there; 2% PUTs are 400 logged writes a
/// second from the two connections, so the two workers often write at
/// once. A 30 s window logs 11 500 to 12 100 records (about 12 000
/// PUTs, a few percent coalesced into shared records); a snapshot every
/// 1750 records puts both ends of that range inside the seventh cycle,
/// so the window holds six snapshots whatever the seed and the timing.
pub const KV_DURABLE: KvWorkload = KvWorkload {
    keys_log2: 18,
    snapshot_every: Some(1750),
    get_pct: 98,
    reference_rate: 20_000.0,
    // No rate search: on a shared virtual disk the sustainable rate
    // swings with the neighbours' I/O far past any useful bound.
    coarse: &[],
    bisect_steps: 0,
    rung: Duration::ZERO,
    p99_limit_us: 0.0,
    sub_window: Duration::from_secs(4),
};

/// The preloaded value of `k`.
fn initial_value(seed: u64, k: u64) -> u64 {
    mix64(k ^ seed.rotate_left(17))
}

/// The served table, typed for the checks that need more than
/// `ConcurrentTable`.
enum Table {
    Plain(Arc<ShardedTable<BoxedTable>>),
    Durable(Arc<DurableSharded>),
}

impl Table {
    fn shared(&self) -> Arc<dyn ConcurrentTable> {
        match self {
            Table::Plain(t) => Arc::clone(t) as Arc<dyn ConcurrentTable>,
            Table::Durable(t) => Arc::clone(t) as Arc<dyn ConcurrentTable>,
        }
    }

    /// The sharded table, under the WAL when there is one.
    fn sharded(&self) -> &ShardedTable<BoxedTable> {
        match self {
            Table::Plain(t) => t,
            Table::Durable(t) => t.inner(),
        }
    }

    fn bytes_per_entry(&self) -> f64 {
        let t = self.sharded();
        t.memory_bytes() as f64 / t.len() as f64
    }
}

fn builder(w: &KvWorkload, seed: u64) -> TableBuilder {
    TableBuilder::new(TableScheme::LinearProbing)
        .hash(HashKind::Mult)
        .bits(w.keys_log2 + 1)
        .shards(SHARD_BITS)
        .optimistic_reads(true)
        .seed(seed)
}

/// A running server with its table and connected clients.
struct Served {
    table: Table,
    server: ServerHandle,
    conns: Vec<Conn>,
}

/// Build and preload the table, spawn the server, connect, and check
/// that the two connections landed on different workers.
fn set_up(
    w: &KvWorkload,
    seed: u64,
    keys: &[u64],
    wal: &Path,
    traced: bool,
) -> Result<Served, String> {
    let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, initial_value(seed, k))).collect();
    let table = if let Some(every) = w.snapshot_every {
        let b = builder(w, seed).wal(wal).fsync_policy(DURABLE_FSYNC).snapshot_every(every);
        let (t, report) = DurableTable::open(&b).map_err(|e| format!("WAL open: {e}"))?;
        if report.records != 0 || report.snapshot_entries != 0 {
            return Err(format!("fresh WAL directory {} was not empty", wal.display()));
        }
        Table::Durable(Arc::new(t))
    } else {
        Table::Plain(Arc::new(builder(w, seed).build_sharded()))
    };
    let shared = table.shared();
    let chunk = if w.snapshot_every.is_some() { 1 << 16 } else { 1 << 12 };
    let mut outcomes = vec![Ok(InsertOutcome::Inserted); chunk];
    for batch in items.chunks(chunk) {
        let out = &mut outcomes[..batch.len()];
        shared.insert_batch_shared(batch, out);
        if let Some(e) = out.iter().find_map(|o| o.err()) {
            return Err(format!("preload refused: {e}"));
        }
    }
    let served: Arc<dyn ConcurrentTable> = if traced {
        let layer = if w.snapshot_every.is_some() { "durable" } else { "core.sharded" };
        Arc::new(TracedConcurrent::new(shared, layer))
    } else {
        shared
    };
    let server = KvServer::builder()
        .threads(WORKERS)
        .accept(AcceptMode::Mailbox)
        .spawn("127.0.0.1:0", served)
        .map_err(|e| format!("server spawn: {e}"))?;
    let mut conns = Vec::with_capacity(CONNS);
    let mut accepted = vec![0u64; WORKERS];
    for c in 0..CONNS {
        let mine: Vec<u64> = keys.iter().copied().skip(c).step_by(CONNS).collect();
        let values = mine.iter().map(|&k| initial_value(seed, k)).collect();
        let conn = Conn::connect(server.addr(), Model { keys: mine, values })
            .map_err(|e| format!("connect: {e}"))?;
        conns.push(conn);
        let worker = placed_on(&server, &mut accepted)?;
        pin_worker(worker, c)?;
    }
    Ok(Served { table, server, conns })
}

/// Wait until the mailbox has placed one more connection and return the
/// worker it went to (`accepted` is the per-worker count before, and is
/// updated). The mailbox hands each connection to the least-loaded
/// worker, so no worker may hold two while another holds none — the
/// stacking `SO_REUSEPORT`'s flow hash allows.
fn placed_on(server: &ServerHandle, accepted: &mut [u64]) -> Result<usize, String> {
    let deadline = now_ns() + 2_000_000_000;
    loop {
        let now: Vec<u64> = server.stats_per_worker().iter().map(|s| s.accepted).collect();
        if now.iter().sum::<u64>() > accepted.iter().sum::<u64>() {
            let worker = (0..now.len()).find(|&w| now[w] > accepted[w]).expect("some count rose");
            accepted.copy_from_slice(&now);
            let (lo, hi) = (now.iter().min(), now.iter().max());
            if hi.zip(lo).is_some_and(|(h, l)| h - l > 1) {
                return Err(format!("connections stacked on workers: accepted per worker {now:?}"));
            }
            return Ok(worker);
        }
        if now_ns() > deadline {
            return Err(format!("no worker took the connection: accepted per worker {now:?}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Pin worker `worker`'s thread to the CPU its connection's generator
/// thread uses, so each connection's whole request path runs on one CPU
/// and runs do not differ by where the scheduler happened to put it.
fn pin_worker(worker: usize, conn: usize) -> Result<(), String> {
    let name = format!("kv-worker-{worker}");
    let tid = procfs::thread_id(&name).ok_or_else(|| format!("no thread named {name}"))?;
    crate::os::pin(tid, cpu_of(conn)).map_err(|e| format!("pin {name}: {e}"))
}

/// The CPU connection `conn`'s generator and worker run on.
pub fn cpu_of(conn: usize) -> usize {
    conn % std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything one pass measured, before it becomes metrics.
struct Window {
    out: PhaseOut,
    /// Sub-windows run, and the GET and PUT p99 of each that supports one.
    subs: usize,
    sub_p99_ns: [Vec<f64>; 2],
    workers: ThreadCounters,
    write_bytes: u64,
    records: u64,
    snapshots: u64,
    spans: Vec<trace::Span>,
}

fn durable_counts(t: &Table) -> (u64, u64) {
    match t {
        Table::Durable(d) => (d.records_logged(), d.snapshots_taken()),
        Table::Plain(_) => (0, 0),
    }
}

/// Run the reference-rate window, as back-to-back sub-windows of
/// `w.sub_window`, with before/after counters around the whole.
fn reference_window(
    w: &KvWorkload,
    s: &mut Served,
    seed: u64,
    dur: Duration,
    traced: bool,
) -> Result<Window, String> {
    if let Table::Durable(d) = &s.table {
        // Start the window at the start of a snapshot cycle, so the
        // number of snapshots inside it does not depend on the seed.
        d.join_background_snapshot();
        d.snapshot_now().map_err(|e| format!("snapshot before the window: {e}"))?;
    }
    trace::drain();
    let workers0 = procfs::threads_named("kv-worker-");
    let bytes0 = procfs::process_write_bytes();
    let (rec0, snap0) = durable_counts(&s.table);
    let subs = (dur.as_secs_f64() / w.sub_window.as_secs_f64()).floor().max(1.0) as u64;
    let mut out = PhaseOut::default();
    let mut sub_p99_ns = [Vec::new(), Vec::new()];
    for i in 0..subs {
        let mut sub = run_parallel(
            &mut s.conns,
            w.reference_rate,
            dur / subs as u32,
            w.get_pct,
            seed ^ (0x5EED_0001 + (i << 32)),
            traced,
        );
        for (tails, samples) in sub_p99_ns.iter_mut().zip([&mut sub.get_ns, &mut sub.put_ns]) {
            if let Some(t) = stats::summarize(samples) {
                tails.push(t.p99_ns as f64);
            }
        }
        out.absorb(sub);
    }
    let workers = procfs::threads_named("kv-worker-").since(&workers0);
    let write_bytes = procfs::process_write_bytes() - bytes0;
    let (rec1, snap1) = durable_counts(&s.table);
    Ok(Window {
        out,
        subs: subs as usize,
        sub_p99_ns,
        workers,
        write_bytes,
        records: rec1 - rec0,
        snapshots: snap1 - snap0,
        spans: trace::drain(),
    })
}

/// Run one pass of a `kv_*` workload: `seconds` at the reference rate,
/// then, with `search_rate`, the search for `max_rate_ops_s`.
pub fn run(
    w: &KvWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    search_rate: bool,
    work: &Path,
) -> Outcome {
    let mut o = Outcome::default();
    let keys: Vec<u64> = (0..1u64 << w.keys_log2).map(|i| key(seed, i)).collect();
    let wal_of = |i: usize| -> PathBuf { work.join(format!("wal-{}-{i}", u8::from(traced))) };

    // Set up SETUPS times; keep the last.
    let mut setup_s = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let t0 = now_ns();
        match set_up(w, seed, &keys, &wal_of(i), traced) {
            Ok(s) => {
                setup_s.push((now_ns() - t0) as f64 / 1e9);
                if i + 1 < SETUPS {
                    drop(s.conns);
                    if let Err(e) = s.server.shutdown() {
                        return o.error(format!("shutdown after set-up: {e}"));
                    }
                    drop(s.table);
                    let _ = std::fs::remove_dir_all(wal_of(i));
                } else {
                    served = Some(s);
                }
            }
            Err(e) => return o.error(e),
        }
    }
    let mut s = served.expect("last set-up kept");
    trace::set_enabled(traced);

    let warm =
        run_parallel(&mut s.conns, w.reference_rate, WARMUP, w.get_pct, seed ^ 0x5EED_0000, false);
    let mut sent = warm.sent;
    o.count(&warm);
    let ref_dur = Duration::from_secs_f64(seconds);
    let mut win = match reference_window(w, &mut s, seed, ref_dur, traced) {
        Ok(win) => win,
        Err(e) => return o.error(e),
    };
    sent += win.out.sent;
    o.count(&win.out);

    let max_rate = (search_rate && !w.coarse.is_empty())
        .then(|| search_max_rate(w, &mut s, seed, &mut sent, &mut o));
    trace::set_enabled(false);
    trace::drain();

    // Shut down and check the server's own account.
    let table_bytes = s.table.bytes_per_entry();
    let models: Vec<Model> = s.conns.drain(..).map(|c| c.model).collect();
    match s.server.shutdown() {
        Ok(st) => {
            if st.ops != sent || st.protocol_closes != 0 || st.io_closes != 0 {
                o.fail_check(format!(
                    "server counted {} ops for {sent} sent, {} protocol and {} I/O closes",
                    st.ops, st.protocol_closes, st.io_closes
                ));
            }
        }
        Err(e) => o.fail_check(format!("server shutdown: {e}")),
    }

    let m = &mut o.metrics;
    m.set("setup_s", stats::median(&setup_s));
    m.set("table_bytes_per_entry", table_bytes);
    latency_metrics(&mut win, m, &mut o.errors);
    match max_rate {
        Some(Some(r)) => m.set("max_rate_ops_s", r),
        Some(None) => o.errors.push(format!("no rung met p99 <= {} us", w.p99_limit_us)),
        None => {}
    }
    let late_p50 = late_p50_us(&mut win.out.late_ns);
    if late_p50 > GEN_LATE_LIMIT_US {
        o.errors.push(format!(
            "the generator fell behind its schedule at the reference rate (median {late_p50:.0} us late)"
        ));
    }
    let late = late_p99_us(&mut win.out.late_ns);
    if traced {
        layer_metrics(&mut win, late, &mut o.metrics);
        probe_lengths(s.table.sharded(), seed, w.keys_log2, &mut o.metrics);
        o.metrics.set("hashfn.ns_per_key", trace::hash_ns_per_key(seed, &keys));
        for line in trace::summary_lines(&win.spans) {
            o.note(line);
        }
    }

    if let Table::Durable(d) = s.table {
        o.note(format!(
            "window: {} PUTs acknowledged, {} records, {} snapshots, {} bytes written",
            win.out.puts_acked, win.records, win.snapshots, win.write_bytes
        ));
        let acked = win.out.puts_acked.max(1) as f64;
        o.metrics.set("storage_bytes_per_put", win.write_bytes as f64 / acked);
        if traced {
            o.metrics.set(
                "durable.ops_per_record",
                win.out.puts_acked as f64 / win.records.max(1) as f64,
            );
            o.metrics.set("durable.snapshots", win.snapshots as f64);
        }
        restart_check(w, d, seed, &models, &wal_of(SETUPS - 1), traced, &mut o);
    }
    let _ = std::fs::remove_dir_all(wal_of(SETUPS - 1));
    o
}

/// Search for the highest sustained rate. A rung that misses is run
/// once more before it counts as a miss: one host stall must not end the
/// climb.
fn search_max_rate(
    w: &KvWorkload,
    s: &mut Served,
    seed: u64,
    sent: &mut u64,
    o: &mut Outcome,
) -> Option<f64> {
    let mut phase = 0u64;
    stats::search_max_rate(w.coarse, w.bisect_steps, |rate| {
        (0..2).any(|_| {
            phase += 1;
            let phase_seed = seed ^ (0x5EED_0100 + phase);
            let mut out = run_parallel(&mut s.conns, rate, w.rung, w.get_pct, phase_seed, false);
            *sent += out.sent;
            o.count(&out);
            let (rung, p50_us) = measure_rung(rate, &mut out);
            o.note(format!(
                "rung {rate:.0} ops/s: p50 {p50_us:.1} us, p99 {:.1} us, generator late p50 {:.1} us, \
                 backlog {}, failed {}",
                rung.p99_us,
                late_p50_us(&mut out.late_ns),
                if rung.backlog_growing { "growing" } else { "steady" },
                rung.failed
            ));
            rung.sustained(w.p99_limit_us)
        })
    })
}

/// The rung's verdict inputs, and its median latency (µs) for the record.
fn measure_rung(rate: f64, out: &mut PhaseOut) -> (Rung, f64) {
    let mut all: Vec<u64> = out.get_ns.iter().chain(&out.put_ns).copied().collect();
    // Failed requests count as missing the limit.
    all.extend(std::iter::repeat_n(u64::MAX, out.failed as usize));
    all.sort_unstable();
    let at =
        |p| if all.is_empty() { f64::INFINITY } else { stats::percentile(&all, p) as f64 / 1e3 };
    let rung = Rung {
        rate,
        p99_us: at(99.0),
        backlog_growing: stats::backlog_growing(&out.backlog, rate * BACKLOG_SLACK_S),
        failed: out.failed,
        generator_on_time: late_p50_us(&mut out.late_ns) <= GEN_LATE_LIMIT_US,
    };
    (rung, at(50.0))
}

fn late_percentile_us(late: &mut [u64], p: f64) -> f64 {
    if late.is_empty() {
        return 0.0;
    }
    late.sort_unstable();
    stats::percentile(late, p) as f64 / 1e3
}

fn late_p50_us(late: &mut [u64]) -> f64 {
    late_percentile_us(late, 50.0)
}

fn late_p99_us(late: &mut [u64]) -> f64 {
    late_percentile_us(late, 99.0)
}

/// p50 over every sample of the window (the end-to-end read and write
/// latency); p99 as the median of the sub-windows' p99s (each
/// sub-window must support its own p99).
fn latency_metrics(win: &mut Window, m: &mut Metrics, errors: &mut Vec<String>) {
    let samples = [&mut win.out.get_ns, &mut win.out.put_ns];
    let kinds = [("get", "read"), ("put", "write")];
    for (((kind, role), samples), tails) in kinds.into_iter().zip(samples).zip(&win.sub_p99_ns) {
        match stats::summarize(samples) {
            Some(s) if tails.len() == win.subs => {
                let p99 = stats::median(tails);
                m.set(&format!("{role}_p50_us"), s.p50_ns as f64 / 1e3);
                m.set(&format!("{kind}_p99_us"), p99 / 1e3);
                eprintln!(
                    "{kind}: n={} p50={:.1}us; p99 median of {} sub-windows {:.1}us; pooled p{}={:.1}us",
                    s.n,
                    s.p50_ns as f64 / 1e3,
                    win.subs,
                    p99 / 1e3,
                    s.tail_p,
                    s.tail_ns as f64 / 1e3
                );
            }
            _ => errors.push(format!(
                "{} {kind} samples over {} sub-windows cannot support a p99 in each",
                samples.len(),
                win.subs
            )),
        }
    }
}

/// The traced pass's layer figures: the `service` (net) and `table`
/// metrics every workload reports, and the `net.` figures only the
/// `kv_*` workloads have.
fn layer_metrics(win: &mut Window, late_us: f64, m: &mut Metrics) {
    let ops = win.out.sent.max(1) as f64;
    m.set("service.cpu_ns_per_op", win.workers.cpu_ns as f64 / ops);
    m.set("net.worker_runq_wait_us_per_op", win.workers.runq_ns as f64 / 1e3 / ops);
    m.set("net.worker_wakeups_per_op", win.workers.wakeups as f64 / ops);
    m.set("net.client_codec_ns_per_op", win.out.codec_ns as f64 / ops);
    m.set("gen.late_us_p99", late_us);
    let totals = trace::totals(&win.spans);
    let durable = totals.keys().any(|(l, _)| *l == "durable");
    let layer = if durable { "durable" } else { "core.sharded" };
    let get = |op| totals.get(&(layer, op)).copied().unwrap_or_default();
    let (lookup, insert) = (get("lookup"), get("insert"));
    // Medians: a host preemption inside one call or one round trip
    // would otherwise dominate a mean of microsecond events.
    let keys = (lookup.items + insert.items).max(1) as f64;
    let keys_per_call = keys / (lookup.calls + insert.calls).max(1) as f64;
    let table_us_per_op = (lookup.items as f64 * lookup.median_ns_per_item
        + insert.items as f64 * insert.median_ns_per_item)
        / keys
        / 1e3;
    win.out.rtt_ns.sort_unstable();
    let rtt_us = if win.out.rtt_ns.is_empty() {
        0.0
    } else {
        stats::percentile(&win.out.rtt_ns, 50.0) as f64 / 1e3
    };
    m.set("service.self_ns_per_op", (rtt_us - table_us_per_op) * 1e3);
    m.set("table.lookup_ns_per_key", lookup.median_ns_per_item);
    m.set("table.insert_ns_per_key", insert.median_ns_per_item);
    m.set("table.keys_per_call", keys_per_call);
    m.set("table.max_call_us", lookup.max_ns.max(insert.max_ns) as f64 / 1e3);
}

/// Mean probe lengths of the kernel under the sharded table, over a
/// fixed sample of preloaded keys (hits) and of keys never stored
/// (misses), each looked up in the shard it routes to.
fn probe_lengths(t: &ShardedTable<BoxedTable>, seed: u64, keys_log2: u8, m: &mut Metrics) {
    const SAMPLE: u64 = 1 << 14;
    let n = 1u64 << keys_log2;
    let mut by_shard: Vec<Vec<(u64, bool)>> = vec![Vec::new(); t.num_shards()];
    for i in 0..SAMPLE.min(n) {
        for (k, hit) in [(key(seed, i), true), (key(seed, n + i), false)] {
            by_shard[t.shard_of(k)].push((k, hit));
        }
    }
    let (mut hit, mut miss) = ((0u64, 0u64), (0u64, 0u64));
    t.for_each_shard(|i, shard| {
        for &(k, expect_hit) in &by_shard[i] {
            let (v, steps) = shard.lookup_probed(k);
            let acc = if expect_hit { &mut hit } else { &mut miss };
            debug_assert_eq!(v.is_some(), expect_hit);
            acc.0 += steps as u64;
            acc.1 += 1;
        }
    });
    m.set("core.probe_len_hit", hit.0 as f64 / hit.1.max(1) as f64);
    m.set("core.probe_len_miss", miss.0 as f64 / miss.1.max(1) as f64);
}

/// Reopen the WAL the run wrote (several times, timing each), and check
/// that every acknowledged PUT's last value is readable.
fn restart_check(
    w: &KvWorkload,
    d: Arc<DurableSharded>,
    seed: u64,
    models: &[Model],
    wal: &Path,
    traced: bool,
    o: &mut Outcome,
) {
    match Arc::try_unwrap(d) {
        Ok(table) => drop(table),
        Err(_) => return o.fail_check("durable table still shared after shutdown".into()),
    }
    let b = builder(w, seed).wal(wal).fsync_policy(DURABLE_FSYNC);
    let mut times = Vec::new();
    for round in 0..REOPENS {
        let t0 = now_ns();
        let (table, report) = match DurableTable::open(&b) {
            Ok(x) => x,
            Err(e) => return o.fail_check(format!("reopen: {e}")),
        };
        times.push((now_ns() - t0) as f64 / 1e9);
        if !report.clean() {
            o.fail_check(format!("recovery found damage: {:?}", report.tail_error));
        }
        if round == 0 {
            if traced {
                o.metrics.set("durable.replayed_ops", report.replayed_ops as f64);
            }
            let mut wrong = 0u64;
            let mut checked = 0u64;
            for model in models {
                for (&k, &v) in model.keys.iter().zip(&model.values) {
                    checked += 1;
                    if table.lookup_shared(k) != Some(v) {
                        wrong += 1;
                    }
                }
            }
            o.attempted += checked;
            if wrong > 0 {
                o.failed += wrong;
                o.fail_check(format!(
                    "{wrong} of {checked} keys lost their acknowledged value across the restart"
                ));
            }
        }
    }
    o.note(format!("reopen times (s): {times:?}"));
    o.metrics.set("recovery_s", stats::median(&times));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_states_the_p99_limit() {
        let json = include_str!("../../BENCHMARK.json");
        let stated = format!("max rate: p99 <= {} ms", KV_READ.p99_limit_us / 1e3);
        assert!(json.contains(&stated), "BENCHMARK.json should state \"{stated}\"");
    }

    #[test]
    fn one_seed_one_preload() {
        let preload = |seed| {
            (0..1000u64).map(move |i| {
                let k = key(seed, i);
                (k, initial_value(seed, k))
            })
        };
        assert!(preload(7).eq(preload(7)));
        assert!(!preload(7).eq(preload(8)));
    }

    #[test]
    fn a_small_kv_read_pass_checks_every_answer() {
        // Every pass drains the process-wide span buffers.
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let w = KvWorkload {
            keys_log2: 10,
            get_pct: 50,
            reference_rate: 20_000.0,
            coarse: &[20e3, 40e3],
            bisect_steps: 1,
            rung: Duration::from_millis(100),
            sub_window: Duration::from_millis(1000),
            ..KV_READ
        };
        // `kv_read` writes no files: the WAL directory is never created.
        let unused = Path::new("no-wal-for-kv-read");
        let o = run(&w, 5, 0.4, false, true, unused);
        assert!(!unused.exists());
        assert!(
            o.errors.is_empty() && o.check_failures.is_empty(),
            "{:?} {:?}",
            o.errors,
            o.check_failures
        );
        assert!(o.attempted > 1000 && o.failed == 0);
        assert_eq!(o.metrics.get("table_bytes_per_entry"), Some(32.0));
        assert!(o.metrics.get("max_rate_ops_s").is_some_and(|r| r >= 20e3));
        for (name, _) in crate::report::END_TO_END {
            assert!(o.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn a_traced_kv_read_pass_measures_every_per_layer_metric() {
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let w = KvWorkload { keys_log2: 10, get_pct: 50, ..KV_READ };
        let pass = || run(&w, 6, 1.0, true, false, Path::new("no-wal-for-kv-read"));
        let o = pass();
        assert!(o.errors.is_empty() && o.check_failures.is_empty(), "{o:?}");
        for (name, _) in crate::report::PER_LAYER {
            assert!(o.metrics.get(name).is_some_and(|v| v > 0.0), "{name}: {:?}", o.metrics);
        }
        // Probe lengths are counts: one seed, one value.
        let hit = o.metrics.get("core.probe_len_hit");
        assert_eq!(hit, pass().metrics.get("core.probe_len_hit"));
    }
}
