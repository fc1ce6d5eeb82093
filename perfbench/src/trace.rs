//! In-memory span tracing at layer boundaries.
//!
//! Only the benchmark's own code records spans: the wrappers below sit
//! between a caller and a layer's public API (a table handed to the KV
//! server, the tables `hash_join` and `group_aggregate` drive), and the
//! workloads wrap their own calls into `query`. Each thread appends to
//! its own buffer; buffers are registered once in a global list and
//! drained when the run ends, so nothing is written out while measuring.
//! With tracing off every wrapper is a straight pass-through after one
//! relaxed load.

use hashfn::{HashFamily, HashFn64, MultShift};
use sevendim_core::{ConcurrentTable, HashTable, InsertOutcome, ReadView, TableError, TableStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process (a monotonic clock
/// shared by every thread, so spans from different threads compare).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"core.sharded"`.
    pub layer: &'static str,
    /// Operation, e.g. `"lookup"`.
    pub op: &'static str,
    pub id: u32,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Keys (or rows) the call handled.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Serializes the tests that switch the process-wide tracing flag.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span of `layer`/`op` handling `items` keys, when
/// tracing is on; otherwise just run `f`.
pub fn span<R>(layer: &'static str, op: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let record = Span { layer, op, id, parent, start_ns, end_ns, items };
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let buf = l.get_or_insert_with(|| {
            let buf: Buffer = Arc::default();
            BUFFERS.lock().expect("trace registry poisoned").push(Arc::clone(&buf));
            buf
        });
        buf.lock().expect("trace buffer poisoned").push(record);
    });
    out
}

/// Remove and return every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("trace registry poisoned");
    let mut all = Vec::new();
    for b in buffers.iter() {
        all.append(&mut b.lock().expect("trace buffer poisoned"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Totals of one `layer`/`op` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
    pub max_ns: u64,
    /// Median over calls of a call's duration per item: unlike the
    /// totals, one preempted call cannot move it.
    pub median_ns_per_item: f64,
}

/// Per `(layer, op)` totals, with self time = span time minus the union
/// of its children's intervals (clipped to the span).
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), OpTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<(&'static str, &'static str), OpTotals> = BTreeMap::new();
    let mut per_item: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for s in spans {
        per_item
            .entry((s.layer, s.op))
            .or_default()
            .push(s.duration_ns() as f64 / s.items.max(1) as f64);
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry((s.layer, s.op)).or_default();
        t.calls += 1;
        t.items += s.items;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - covered;
        t.max_ns = t.max_ns.max(s.duration_ns());
    }
    for (k, v) in per_item {
        out.get_mut(&k).expect("same keys").median_ns_per_item = crate::stats::median(&v);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|&(a, b)| a < b).collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Totals of `op` over the spans of every layer in `layers`, as if they
/// were one layer (self time is not kept).
pub fn merged(spans: &[Span], layers: &[&str], op: &'static str) -> OpTotals {
    let picked: Vec<Span> = spans
        .iter()
        .filter(|s| s.op == op && layers.contains(&s.layer))
        .map(|s| Span { layer: "merged", parent: 0, ..*s })
        .collect();
    totals(&picked).into_values().next().unwrap_or_default()
}

/// Nanoseconds per key of the tables' hash function (`MultShift`)
/// alone: an L1-resident sample of the workload's keys (at most 4096)
/// hashed over and over, so the loop measures the function and not the
/// memory it would otherwise stream.
pub fn hash_ns_per_key(seed: u64, keys: &[u64]) -> f64 {
    const ROUNDS: usize = 1 << 12;
    let h = MultShift::from_seed(seed);
    let sample = &keys[..keys.len().min(1 << 12)];
    let t0 = now_ns();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        for &k in sample {
            acc ^= h.hash(black_box(k));
        }
    }
    black_box(acc);
    (now_ns() - t0) as f64 / (sample.len().max(1) * ROUNDS) as f64
}

/// One line per `(layer, op)`: the form in which a traced run writes its
/// spans out when it ends.
pub fn summary_lines(spans: &[Span]) -> Vec<String> {
    totals(spans)
        .iter()
        .map(|((layer, op), t)| {
            format!(
                "span {layer}/{op}: calls {} items {} total {:.6} s self {:.6} s median {:.1} ns/item max {:.1} us",
                t.calls,
                t.items,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9,
                t.median_ns_per_item,
                t.max_ns as f64 / 1e3
            )
        })
        .collect()
}

/// A [`HashTable`] wrapper that records a span around every call into
/// the wrapped table (the single-threaded path `query` drives).
pub struct TracedTable<T> {
    inner: T,
    layer: &'static str,
}

impl<T: HashTable> TracedTable<T> {
    pub fn new(inner: T, layer: &'static str) -> Self {
        Self { inner, layer }
    }
}

impl<T: HashTable> ReadView for TracedTable<T> {}

impl<T: HashTable> HashTable for TracedTable<T> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        span(self.layer, "insert", 1, || self.inner.insert(key, value))
    }
    fn lookup(&self, key: u64) -> Option<u64> {
        span(self.layer, "lookup", 1, || self.inner.lookup(key))
    }
    fn lookup_probed(&self, key: u64) -> (Option<u64>, usize) {
        self.inner.lookup_probed(key)
    }
    fn delete(&mut self, key: u64) -> Option<u64> {
        span(self.layer, "delete", 1, || self.inner.delete(key))
    }
    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        span(self.layer, "lookup", keys.len() as u64, || self.inner.lookup_batch(keys, out))
    }
    fn insert_batch(
        &mut self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        span(self.layer, "insert", items.len() as u64, || self.inner.insert_batch(items, out))
    }
    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        span(self.layer, "delete", keys.len() as u64, || self.inner.delete_batch(keys, out))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        self.inner.for_each(f)
    }
    fn display_name(&self) -> String {
        self.inner.display_name()
    }
    fn table_stats(&self) -> Option<TableStats> {
        self.inner.table_stats()
    }
}

/// A [`ConcurrentTable`] wrapper recording a span around every call the
/// KV server's workers make into the served table.
pub struct TracedConcurrent<T: ?Sized> {
    inner: Arc<T>,
    layer: &'static str,
}

impl<T: ConcurrentTable + ?Sized> TracedConcurrent<T> {
    pub fn new(inner: Arc<T>, layer: &'static str) -> Self {
        Self { inner, layer }
    }
}

impl<T: ConcurrentTable + ?Sized> ConcurrentTable for TracedConcurrent<T> {
    fn insert_shared(&self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        span(self.layer, "insert", 1, || self.inner.insert_shared(key, value))
    }
    fn lookup_shared(&self, key: u64) -> Option<u64> {
        span(self.layer, "lookup", 1, || self.inner.lookup_shared(key))
    }
    fn delete_shared(&self, key: u64) -> Option<u64> {
        span(self.layer, "delete", 1, || self.inner.delete_shared(key))
    }
    fn lookup_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        span(self.layer, "lookup", keys.len() as u64, || self.inner.lookup_batch_shared(keys, out))
    }
    fn insert_batch_shared(
        &self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        span(self.layer, "insert", items.len() as u64, || {
            self.inner.insert_batch_shared(items, out)
        })
    }
    fn delete_batch_shared(&self, keys: &[u64], out: &mut [Option<u64>]) {
        span(self.layer, "delete", keys.len() as u64, || self.inner.delete_batch_shared(keys, out))
    }
    fn len_shared(&self) -> usize {
        self.inner.len_shared()
    }
    fn for_each_shared(&self, f: &mut dyn FnMut(u64, u64)) {
        self.inner.for_each_shared(f)
    }
    fn stats_shared(&self) -> TableStats {
        self.inner.stats_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "l",
            op: if parent == 0 { "root" } else { "child" },
            id,
            parent,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; children 10..30 and 20..50 overlap (union 40) and
        // one sticks out past the root's end (clipped to 90..100): covered 50.
        let spans = [s(1, 0, 0, 100), s(2, 1, 10, 30), s(3, 1, 20, 50), s(4, 1, 90, 120)];
        let t = totals(&spans);
        let root = t[&("l", "root")];
        assert_eq!((root.calls, root.total_ns, root.self_ns), (1, 100, 50));
        let child = t[&("l", "child")];
        assert_eq!((child.calls, child.total_ns, child.self_ns, child.max_ns), (3, 80, 80, 30));
        assert_eq!(child.median_ns_per_item, 30.0);
    }

    #[test]
    fn disabled_tracing_records_nothing_and_enabled_nests() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        span("t", "off", 1, || ());
        set_enabled(true);
        let inner_parent = span("t", "outer", 0, || span("t", "inner", 3, || 7));
        set_enabled(false);
        assert_eq!(inner_parent, 7);
        let spans: Vec<Span> = drain().into_iter().filter(|s| s.layer == "t").collect();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.op == "outer").expect("outer span");
        let inner = spans.iter().find(|s| s.op == "inner").expect("inner span");
        assert_eq!((outer.parent, inner.parent, inner.items), (0, outer.id, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
