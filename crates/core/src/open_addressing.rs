//! The open-addressing core: one tombstone-based probing algorithm,
//! monomorphized over two of the paper's dimensions — slot layout (§7)
//! and probe sequence (§2.2, §2.3).
//!
//! [`OpenAddressing<L, P, H>`] is written once; the open-addressing
//! schemes of the study are its instantiations:
//!
//! | Scheme | Layout `L` | Probe sequence `P` |
//! |---|---|---|
//! | [`LinearProbing<H>`](crate::LinearProbing) | [`Aos`] | [`Linear`] |
//! | [`LinearProbingSoA<H>`](crate::LinearProbingSoA) | [`Soa`] | [`Linear`] |
//! | [`QuadraticProbing<H>`](crate::QuadraticProbing) | [`Aos`] | [`Triangular`] |
//!
//! All of them share map semantics, tombstone recycling on insert, the
//! blocked-insert remedy ([`OpenAddressing::rehash_in_place`]), the
//! two-pass batch operations and the optimistic [`ReadView`] probe. The
//! layout supplies slot access, its scan kernel and its volatile reads;
//! [`ProbeSeq::CONTIGUOUS`] alone decides where the two sequences differ:
//!
//! * a contiguous sequence may use the SIMD scan kernels ([`crate::simd`])
//!   and the windowed volatile probe of [`crate::optimistic`];
//! * a contiguous sequence clears a deleted slot whose successor is empty
//!   (the paper's optimized tombstones) — a scattered one must always
//!   tombstone, because the successor of a slot differs per key;
//! * a scattered sequence has no window to copy, so its optimistic probe
//!   walks the sequence step by step, bounded by the capacity.
//!
//! Robin Hood (displacement order, backward-shift deletes) and the
//! fingerprint table (tag groups) keep their own probe algorithms and
//! share only the two-pass batch driver.

use crate::optimistic::{probe_window_volatile, ReadView};
use crate::simd::{
    clamp_prefetch_batch, prefetch_read, scan_keys, scan_pairs, ProbeKind, ScanOutcome, ScanResult,
    MAX_PREFETCH_BATCH, PREFETCH_BATCH,
};
use crate::slot_array::SlotArray;
use crate::{
    check_capacity_bits, home_slot, is_reserved_key, HashTable, InsertOutcome, Pair, TableError,
    EMPTY_KEY, TOMBSTONE_KEY,
};
use hashfn::{HashFamily, HashFn64};
use std::marker::PhantomData;

mod sealed {
    pub trait Sealed {}
}

/// How an open-addressing table stores its slots (paper §7): [`Aos`] or
/// [`Soa`]. Sealed: the optimistic probe's soundness rests on the
/// volatile reads of exactly these two.
pub trait SlotLayout: sealed::Sealed + Clone + Send + Sync + 'static {
    /// The unit a probe walks: a whole pair (AoS) or a bare key (SoA).
    type Slot: Copy;
    /// A free slot.
    const EMPTY_SLOT: Self::Slot;
    /// Display-name infix: `""` or `"SoA"`.
    const NAME: &'static str;

    /// `cap` empty slots. On Linux, each array of at least one whole
    /// 2 MiB-aligned huge page is advised for transparent huge pages
    /// (`madvise(MADV_HUGEPAGE)`) before it is filled, so a table far
    /// larger than the cache does not pay a page walk per probe; the size
    /// and [`SlotLayout::memory_bytes`] are those of plain arrays.
    fn with_capacity(cap: usize) -> Self;
    /// The probed array.
    fn slots(&self) -> &[Self::Slot];
    /// The key (or control marker) `slot` holds.
    fn key_of(slot: &Self::Slot) -> u64;
    /// The value of `slot`, which is slot `pos`.
    fn value(&self, slot: &Self::Slot, pos: usize) -> u64;
    /// The value of slot `pos`, for in-place replacement.
    fn value_mut(&mut self, pos: usize) -> &mut u64;
    /// Store `key` (a live key, [`EMPTY_KEY`] or [`TOMBSTONE_KEY`]) and
    /// `value` in slot `pos`.
    fn store(&mut self, pos: usize, key: u64, value: u64);
    /// The circular scan kernel over this layout's slots (see
    /// [`crate::simd`]).
    fn scan(slots: &[Self::Slot], start: usize, key: u64, kind: ProbeKind) -> ScanResult;
    /// Bytes owned by the slot arrays.
    fn memory_bytes(&self) -> usize;
    /// Volatile copy of slot `pos`.
    ///
    /// # Safety
    ///
    /// `pos` must be below the capacity. The slot may race a writer (see
    /// [`crate::optimistic`]); the caller validates before trusting it.
    unsafe fn read_volatile(&self, pos: usize) -> Self::Slot;
    /// The value belonging to `slot`, a volatile copy of slot `pos`.
    ///
    /// # Safety
    ///
    /// As [`SlotLayout::read_volatile`].
    unsafe fn value_volatile(&self, slot: &Self::Slot, pos: usize) -> u64;
}

/// Array-of-structs: interleaved 16-byte [`Pair`]s ("similar to a row
/// layout"), the layout the paper found superior in most cases (§7).
#[derive(Clone)]
pub struct Aos(SlotArray<Pair>);

impl sealed::Sealed for Aos {}

/// [`RobinHood`](crate::RobinHood) keeps its displacement-ordered slots
/// in an [`Aos`] too and indexes the pairs directly.
impl std::ops::Deref for Aos {
    type Target = [Pair];

    #[inline(always)]
    fn deref(&self) -> &[Pair] {
        &self.0
    }
}

impl std::ops::DerefMut for Aos {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [Pair] {
        &mut self.0
    }
}

impl SlotLayout for Aos {
    type Slot = Pair;
    const EMPTY_SLOT: Pair = Pair::empty();
    const NAME: &'static str = "";

    fn with_capacity(cap: usize) -> Self {
        Aos(SlotArray::new(cap, Pair::empty()))
    }

    #[inline(always)]
    fn slots(&self) -> &[Pair] {
        &self.0
    }

    #[inline(always)]
    fn key_of(slot: &Pair) -> u64 {
        slot.key
    }

    #[inline(always)]
    fn value(&self, slot: &Pair, _pos: usize) -> u64 {
        slot.value
    }

    #[inline(always)]
    fn value_mut(&mut self, pos: usize) -> &mut u64 {
        &mut self.0[pos].value
    }

    #[inline(always)]
    fn store(&mut self, pos: usize, key: u64, value: u64) {
        self.0[pos] = Pair { key, value };
    }

    #[inline(always)]
    fn scan(slots: &[Pair], start: usize, key: u64, kind: ProbeKind) -> ScanResult {
        scan_pairs(slots, start, key, kind)
    }

    fn memory_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<Pair>()
    }

    #[inline(always)]
    unsafe fn read_volatile(&self, pos: usize) -> Pair {
        std::ptr::read_volatile(self.0.as_ptr().add(pos))
    }

    #[inline(always)]
    unsafe fn value_volatile(&self, slot: &Pair, _pos: usize) -> u64 {
        slot.value
    }
}

/// Struct-of-arrays: index-aligned key and value arrays ("similar to
/// column layout", §7). A probe touches keys only — twice as many per
/// cache line as AoS — and a hit pays a second line for the value.
#[derive(Clone)]
pub struct Soa {
    keys: SlotArray<u64>,
    values: SlotArray<u64>,
}

impl sealed::Sealed for Soa {}

impl SlotLayout for Soa {
    type Slot = u64;
    const EMPTY_SLOT: u64 = EMPTY_KEY;
    const NAME: &'static str = "SoA";

    fn with_capacity(cap: usize) -> Self {
        Soa { keys: SlotArray::new(cap, EMPTY_KEY), values: SlotArray::new(cap, 0) }
    }

    #[inline(always)]
    fn slots(&self) -> &[u64] {
        &self.keys
    }

    #[inline(always)]
    fn key_of(slot: &u64) -> u64 {
        *slot
    }

    #[inline(always)]
    fn value(&self, _slot: &u64, pos: usize) -> u64 {
        self.values[pos]
    }

    #[inline(always)]
    fn value_mut(&mut self, pos: usize) -> &mut u64 {
        &mut self.values[pos]
    }

    /// A control marker leaves the value array alone, so deletes do not
    /// dirty (and later write back) a value cache line.
    #[inline(always)]
    fn store(&mut self, pos: usize, key: u64, value: u64) {
        self.keys[pos] = key;
        if key < TOMBSTONE_KEY {
            self.values[pos] = value;
        }
    }

    #[inline(always)]
    fn scan(slots: &[u64], start: usize, key: u64, kind: ProbeKind) -> ScanResult {
        scan_keys(slots, start, key, kind)
    }

    fn memory_bytes(&self) -> usize {
        (self.keys.len() + self.values.len()) * std::mem::size_of::<u64>()
    }

    #[inline(always)]
    unsafe fn read_volatile(&self, pos: usize) -> u64 {
        std::ptr::read_volatile(self.keys.as_ptr().add(pos))
    }

    /// The key and value are read at different instants, but a torn
    /// pairing implies a racing writer, which the caller's seqlock
    /// validation detects.
    #[inline(always)]
    unsafe fn value_volatile(&self, _slot: &u64, pos: usize) -> u64 {
        std::ptr::read_volatile(self.values.as_ptr().add(pos))
    }
}

/// The order in which a probe visits slots: [`Linear`] (§2.2) or
/// [`Triangular`] (§2.3). Sealed, like [`SlotLayout`].
pub trait ProbeSeq: sealed::Sealed + Clone + Send + Sync + 'static {
    /// Whether the sequence visits consecutive slots — the one switch
    /// between the sequences' behaviours (see the [module docs](self)).
    const CONTIGUOUS: bool;
    /// Display-name prefix: `"LP"` or `"QP"`.
    const NAME: &'static str;

    /// The slot after `pos` at probe step `i` (`i = 1` for the first step
    /// away from home), before reduction modulo the capacity.
    fn next(pos: usize, i: usize) -> usize;
}

/// Linear probing: `h(k, i) = (h'(k) + i) mod l`.
#[derive(Clone, Copy, Debug)]
pub struct Linear;

impl sealed::Sealed for Linear {}

impl ProbeSeq for Linear {
    const CONTIGUOUS: bool = true;
    const NAME: &'static str = "LP";

    #[inline(always)]
    fn next(pos: usize, _i: usize) -> usize {
        pos + 1
    }
}

/// Quadratic probing with `c1 = c2 = 1/2`: triangular offsets
/// `h'(k) + i(i+1)/2`, which visit every slot of a power-of-two table
/// exactly once in `l` probes.
#[derive(Clone, Copy, Debug)]
pub struct Triangular;

impl sealed::Sealed for Triangular {}

impl ProbeSeq for Triangular {
    const CONTIGUOUS: bool = false;
    const NAME: &'static str = "QP";

    #[inline(always)]
    fn next(pos: usize, i: usize) -> usize {
        pos + i
    }
}

/// How [`HashTable::delete`] removes an entry from a linear-probing table
/// (paper §2.2 evaluates both).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeleteStrategy {
    /// Optimized tombstones — the strategy the paper selected for its
    /// experiments: tombstone only when the cluster continues past the
    /// deleted slot, clear otherwise.
    #[default]
    Tombstone,
    /// Partial cluster rehash: clear the slot, then re-insert every
    /// following entry of the cluster. Slower per delete but leaves the
    /// table tombstone-free, so it never degrades future lookups. No
    /// figure binary selects it; the unit tests check it against
    /// [`DeleteStrategy::Tombstone`] on random operation streams.
    Rehash,
}

/// An open-addressing hash table with slot layout `L`, probe sequence `P`
/// and hash function `H` — see the [module docs](self). Use it through
/// the scheme names [`LinearProbing`](crate::LinearProbing),
/// [`LinearProbingSoA`](crate::LinearProbingSoA) and
/// [`QuadraticProbing`](crate::QuadraticProbing).
#[derive(Clone)]
pub struct OpenAddressing<L: SlotLayout, P: ProbeSeq, H: HashFn64> {
    layout: L,
    pub(crate) bits: u8,
    mask: usize,
    pub(crate) hash: H,
    len: usize,
    tombstones: usize,
    /// Publicly settable on [`Linear`] tables only; only contiguous
    /// sequences read it.
    pub(crate) probe_kind: ProbeKind,
    /// Settable on [`Aos`] + [`Linear`] tables only.
    delete_strategy: DeleteStrategy,
    prefetch_batch: usize,
    probe: PhantomData<P>,
}

impl<L: SlotLayout, P: ProbeSeq, H: HashFamily> OpenAddressing<L, P, H> {
    /// Create a table with `2^bits` slots and a hash function drawn from
    /// seed `seed`.
    pub fn with_seed(bits: u8, seed: u64) -> Self {
        Self::with_hash(bits, H::from_seed(seed))
    }
}

impl<L: SlotLayout, H: HashFamily> OpenAddressing<L, Linear, H> {
    /// Like [`OpenAddressing::with_seed`], but probing compares four keys
    /// per step with AVX2 where available (paper §7, "LPAoSMultSIMD" and
    /// "LPSoAMultSIMD").
    pub fn with_seed_simd(bits: u8, seed: u64) -> Self {
        let mut t = Self::with_seed(bits, seed);
        t.probe_kind = ProbeKind::Simd;
        t
    }
}

impl<L: SlotLayout, H: HashFn64> OpenAddressing<L, Linear, H> {
    /// Switch between scalar and SIMD probing.
    pub fn set_probe_kind(&mut self, kind: ProbeKind) {
        self.probe_kind = kind;
    }

    /// The probe kind in use.
    pub fn probe_kind(&self) -> ProbeKind {
        self.probe_kind
    }
}

impl<H: HashFn64> OpenAddressing<Aos, Linear, H> {
    /// Choose how [`HashTable::delete`] removes entries (default:
    /// optimized tombstones, the paper's pick).
    pub fn set_delete_strategy(&mut self, strategy: DeleteStrategy) {
        self.delete_strategy = strategy;
    }

    /// The deletion strategy in use.
    pub fn delete_strategy(&self) -> DeleteStrategy {
        self.delete_strategy
    }
}

impl<P: ProbeSeq, H: HashFn64> OpenAddressing<Aos, P, H> {
    /// Direct slot access for statistics and tests.
    pub fn raw_slots(&self) -> &[Pair] {
        self.layout.slots()
    }
}

impl<P: ProbeSeq, H: HashFn64> OpenAddressing<Soa, P, H> {
    /// Direct key-array access for statistics and tests.
    pub fn raw_keys(&self) -> &[u64] {
        self.layout.slots()
    }
}

impl<L: SlotLayout, P: ProbeSeq, H: HashFn64> OpenAddressing<L, P, H> {
    /// Create a table with `2^bits` slots using an explicit hash function.
    pub fn with_hash(bits: u8, hash: H) -> Self {
        let cap = check_capacity_bits(bits);
        Self {
            layout: L::with_capacity(cap),
            bits,
            mask: cap - 1,
            hash,
            len: 0,
            tombstones: 0,
            probe_kind: ProbeKind::Scalar,
            delete_strategy: DeleteStrategy::default(),
            prefetch_batch: PREFETCH_BATCH,
            probe: PhantomData,
        }
    }

    /// Set the hash-and-prefetch window of the batch operations (clamped
    /// to `1..=`[`MAX_PREFETCH_BATCH`]; default [`PREFETCH_BATCH`]).
    pub fn set_prefetch_batch(&mut self, window: usize) {
        self.prefetch_batch = clamp_prefetch_batch(window);
    }

    /// The batch prefetch window in use.
    pub fn prefetch_batch(&self) -> usize {
        self.prefetch_batch
    }

    /// The hash function in use.
    #[inline]
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    /// Number of tombstone slots currently in the table.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Rebuild the table in place (same capacity, same hash function),
    /// dropping all tombstones — the paper's "shrink ... and perform a
    /// rehash anyway" remedy after heavy deletion.
    ///
    /// Literally in place: live entries are snapshotted, the *existing*
    /// slot arrays are cleared and refilled. No allocation ever moves, so
    /// optimistic readers (see [`crate::optimistic`]) holding a pointer
    /// into one stay in-bounds for the table's whole lifetime.
    pub fn rehash_in_place(&mut self) {
        let mut live = Vec::with_capacity(self.len);
        self.for_each(&mut |k, v| live.push((k, v)));
        for pos in 0..=self.mask {
            self.layout.store(pos, EMPTY_KEY, 0);
        }
        self.len = 0;
        self.tombstones = 0;
        for (k, v) in live {
            // Re-inserting distinct keys into an equally-sized empty table
            // cannot fail or replace.
            let _ = self.insert(k, v);
        }
    }

    /// Home slot of `key`.
    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        home_slot(&self.hash, key, self.bits)
    }

    #[inline(always)]
    fn key_at(&self, pos: usize) -> u64 {
        L::key_of(&self.layout.slots()[pos])
    }

    #[inline(always)]
    fn value_at(&self, pos: usize) -> u64 {
        self.layout.value(&self.layout.slots()[pos], pos)
    }

    /// Whether probes run the SIMD scan kernels.
    #[inline(always)]
    fn simd(&self) -> bool {
        P::CONTIGUOUS && self.probe_kind == ProbeKind::Simd
    }

    /// Probe for `key` starting at its home slot `home`: returns
    /// `Ok(slot)` if found, or `Err(first_free)` where `first_free` is the
    /// slot an insert should use (first tombstone on the path if any, else
    /// the terminating empty slot).
    ///
    /// Returns `Err(usize::MAX)` if a SIMD scan wrapped the entire table
    /// without finding key or empty slot (table saturated with
    /// entries/tombstones and key absent).
    #[inline(always)]
    fn probe_from(&self, home: usize, key: u64) -> Result<usize, usize> {
        if self.simd() {
            let r = L::scan(self.layout.slots(), home, key, ProbeKind::Simd);
            return match r.outcome {
                ScanOutcome::FoundKey(pos) => Ok(pos),
                ScanOutcome::FoundEmpty(pos) => Err(r.first_tombstone.unwrap_or(pos)),
                ScanOutcome::Exhausted => Err(r.first_tombstone.unwrap_or(usize::MAX)),
            };
        }
        // Termination: `insert` maintains len + tombstones ≤ capacity − 1
        // (non-empty slots never reach capacity), so an EMPTY slot always
        // exists, and both sequences visit every slot within `capacity`
        // steps — the unguarded loop is safe.
        let slots = self.layout.slots();
        let mut pos = home;
        let mut i = 0;
        let mut first_tombstone = usize::MAX;
        loop {
            let k = L::key_of(&slots[pos]);
            if k == key {
                return Ok(pos);
            }
            if k == EMPTY_KEY {
                return Err(if first_tombstone != usize::MAX { first_tombstone } else { pos });
            }
            if k == TOMBSTONE_KEY && first_tombstone == usize::MAX {
                first_tombstone = pos;
            }
            i += 1;
            pos = P::next(pos, i) & self.mask;
        }
    }

    /// [`HashTable::insert`] body with a precomputed `home` slot; `key`
    /// must not be reserved.
    fn insert_from(
        &mut self,
        home: usize,
        key: u64,
        value: u64,
    ) -> Result<InsertOutcome, TableError> {
        if self.simd() || self.len + self.tombstones >= self.mask {
            return self.insert_slow(home, key, value);
        }
        // Hot path — more than one empty slot remains, so storing into an
        // empty slot cannot violate the one-empty-terminator invariant and
        // no capacity check is needed per probe. Empty-first ordering:
        // fresh keys dominate insert workloads and usually land in or near
        // their home slot ("low code complexity which allows for fast
        // execution", §2.2). Values are touched only on the final store.
        let mut pos = home;
        let mut i = 0;
        let mut first_tombstone = usize::MAX;
        loop {
            let k = self.key_at(pos);
            if k == EMPTY_KEY {
                if first_tombstone != usize::MAX {
                    self.tombstones -= 1;
                    pos = first_tombstone;
                }
                self.layout.store(pos, key, value);
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
            if k == key {
                let old = std::mem::replace(self.layout.value_mut(pos), value);
                return Ok(InsertOutcome::Replaced(old));
            }
            if k == TOMBSTONE_KEY && first_tombstone == usize::MAX {
                first_tombstone = pos;
            }
            i += 1;
            pos = P::next(pos, i) & self.mask;
        }
    }

    /// Insert via the full probe: used by the SIMD path and by the
    /// boundary case where only one empty slot remains (a fresh key may
    /// then only take a tombstone). `home` must be `self.home(key)`.
    #[inline(always)]
    fn insert_slow(
        &mut self,
        home: usize,
        key: u64,
        value: u64,
    ) -> Result<InsertOutcome, TableError> {
        let pos = match self.probe_from(home, key) {
            Ok(pos) => {
                let old = std::mem::replace(self.layout.value_mut(pos), value);
                return Ok(InsertOutcome::Replaced(old));
            }
            Err(pos) => pos,
        };
        // `usize::MAX`: the scan exhausted the whole table (unreachable
        // while the one-empty-slot invariant holds, kept defensively).
        // Otherwise filling the last empty slot would leave no probe
        // terminator; keep one slot free, as open-addressing tables must.
        let reuses_tombstone = pos != usize::MAX && self.key_at(pos) == TOMBSTONE_KEY;
        if !reuses_tombstone && (pos == usize::MAX || self.len + self.tombstones >= self.mask) {
            // Blocked-insert remedy: tombstones are reclaimable capacity —
            // drop them all via `rehash_in_place` and retry (at most once,
            // since the rebuilt table is tombstone-free). Only a table
            // genuinely full of live keys reports `TableFull`. `home` stays
            // valid: capacity and hash function are unchanged.
            if self.tombstones == 0 {
                return Err(TableError::TableFull);
            }
            self.rehash_in_place();
            return self.insert_slow(home, key, value);
        }
        if reuses_tombstone {
            self.tombstones -= 1;
        }
        self.layout.store(pos, key, value);
        self.len += 1;
        Ok(InsertOutcome::Inserted)
    }

    /// The scalar walk from `home`: the value of `key` if present, and the
    /// number of slots examined including the terminating one.
    #[inline(always)]
    fn walk(&self, home: usize, key: u64) -> (Option<u64>, usize) {
        let slots = self.layout.slots();
        let mut pos = home;
        let mut steps = 1usize;
        loop {
            let slot = &slots[pos];
            let k = L::key_of(slot);
            if k == key {
                return (Some(self.layout.value(slot, pos)), steps);
            }
            if k == EMPTY_KEY {
                return (None, steps);
            }
            pos = P::next(pos, steps) & self.mask;
            steps += 1;
        }
    }

    /// [`HashTable::lookup`] body with a precomputed `home` slot; `key`
    /// must not be reserved.
    #[inline]
    fn lookup_from(&self, home: usize, key: u64) -> Option<u64> {
        if self.simd() {
            return match L::scan(self.layout.slots(), home, key, ProbeKind::Simd).outcome {
                ScanOutcome::FoundKey(pos) => Some(self.value_at(pos)),
                _ => None,
            };
        }
        self.walk(home, key).0
    }

    /// [`HashTable::delete`] body with a precomputed `home` slot; `key`
    /// must not be reserved.
    fn delete_from(&mut self, home: usize, key: u64) -> Option<u64> {
        if P::CONTIGUOUS && self.delete_strategy == DeleteStrategy::Rehash {
            return self.delete_rehash_from(home, key);
        }
        let pos = self.probe_from(home, key).ok()?;
        let value = self.value_at(pos);
        // Optimized tombstones (§2.2): a contiguous cluster only needs to
        // stay connected when it continues past the deleted slot. On a
        // scattered sequence other keys reach this slot at different probe
        // steps and continue to different successors, so no local check
        // can prove the slot is the tail of every chain crossing it.
        if P::CONTIGUOUS && self.key_at(P::next(pos, 1) & self.mask) == EMPTY_KEY {
            self.layout.store(pos, EMPTY_KEY, 0);
        } else {
            self.layout.store(pos, TOMBSTONE_KEY, 0);
            self.tombstones += 1;
        }
        self.len -= 1;
        Some(value)
    }

    /// Delete by **partial cluster rehash** (see
    /// [`DeleteStrategy::Rehash`]); contiguous sequences only. `home` must
    /// be `self.home(key)` and `key` must not be reserved.
    fn delete_rehash_from(&mut self, home: usize, key: u64) -> Option<u64> {
        let pos = self.probe_from(home, key).ok()?;
        let value = self.value_at(pos);
        self.layout.store(pos, EMPTY_KEY, 0);
        self.len -= 1;
        // Re-place every entry between the hole and the end of the
        // cluster. Tombstones encountered on the way can be dropped too —
        // re-insertion rebuilds the chains they were keeping alive.
        let mut cur = P::next(pos, 1) & self.mask;
        loop {
            let k = self.key_at(cur);
            if k == EMPTY_KEY {
                return Some(value);
            }
            let v = self.value_at(cur);
            self.layout.store(cur, EMPTY_KEY, 0);
            if k == TOMBSTONE_KEY {
                self.tombstones -= 1;
            } else {
                self.len -= 1;
                let _ = self.insert(k, v);
            }
            cur = P::next(cur, 1) & self.mask;
        }
    }
}

/// One element of a batch: a bare key (lookups, deletes) or a key/value
/// pair (inserts).
pub(crate) trait BatchItem: Copy {
    /// The item's key.
    fn key(self) -> u64;
}

impl BatchItem for u64 {
    fn key(self) -> u64 {
        self
    }
}

impl BatchItem for (u64, u64) {
    fn key(self) -> u64 {
        self.0
    }
}

/// What the batch driver [`two_pass`] needs from a table.
pub(crate) trait TwoPass {
    /// Keys hashed and prefetched per window (the table's prefetch batch).
    fn window(&self) -> usize;
    /// Hash `key` to the home pass 2 probes from, prefetching the home's
    /// cache line.
    fn prefetch_home(&self, key: u64) -> usize;
}

/// Two-pass batch driver shared by the open-addressing tables, Robin Hood
/// and the fingerprint table: pass 1 hashes a window of keys and
/// prefetches each home cache line, pass 2 runs `op` from the
/// precomputed homes, so the misses of a whole window are resolved in
/// parallel by the memory subsystem instead of serially by the probe
/// loop. Reserved keys get `reserved` without reaching `op`; they hash
/// like any other, and prefetching their (never probed) home line is
/// harmless.
///
/// `table` is `&T` for lookups and `&mut T` for mutations. A home must
/// stay valid across `op` (every remedy — tombstone writes, in-place
/// rehashes — keeps the hash function and capacity, so it does).
///
/// # Panics
/// Panics if `items.len() != out.len()`.
#[inline(always)]
pub(crate) fn two_pass<T, R, I, O>(
    mut table: R,
    items: &[I],
    out: &mut [O],
    reserved: O,
    mut op: impl FnMut(&mut R, usize, I) -> O,
) where
    T: TwoPass + ?Sized,
    R: std::ops::Deref<Target = T>,
    I: BatchItem,
    O: Copy,
{
    assert_eq!(items.len(), out.len(), "batch: items and out lengths differ");
    let window = table.window();
    let mut homes = [0usize; MAX_PREFETCH_BATCH];
    // Paired `next` calls rather than `zip`: zipping the chunk iterators
    // costs an integer division per call to size them.
    let (mut ichunks, mut ochunks) = (items.chunks(window), out.chunks_mut(window));
    while let (Some(ic), Some(oc)) = (ichunks.next(), ochunks.next()) {
        for (h, &item) in homes.iter_mut().zip(ic) {
            *h = table.prefetch_home(item.key());
        }
        for ((o, &item), &h) in oc.iter_mut().zip(ic).zip(&homes) {
            *o = if is_reserved_key(item.key()) { reserved } else { op(&mut table, h, item) };
        }
    }
}

impl<L: SlotLayout, P: ProbeSeq, H: HashFn64> TwoPass for OpenAddressing<L, P, H> {
    fn window(&self) -> usize {
        self.prefetch_batch
    }

    #[inline(always)]
    fn prefetch_home(&self, key: u64) -> usize {
        let home = self.home(key);
        prefetch_read(&self.layout.slots()[home] as *const L::Slot);
        home
    }
}

impl<L: SlotLayout, P: ProbeSeq, H: HashFn64> HashTable for OpenAddressing<L, P, H> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        self.insert_from(self.home(key), key, value)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        self.lookup_from(self.home(key), key)
    }

    fn lookup_probed(&self, key: u64) -> (Option<u64>, usize) {
        if is_reserved_key(key) {
            return (None, 1);
        }
        // Sampled instrumentation path: always the scalar walk (the SIMD
        // kernel resolves whole windows, hiding per-slot steps).
        self.walk(self.home(key), key)
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        self.delete_from(self.home(key), key)
    }

    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        two_pass(self, keys, out, None, |t, h, k| t.lookup_from(h, k));
    }

    fn insert_batch(
        &mut self,
        items: &[(u64, u64)],
        out: &mut [Result<InsertOutcome, TableError>],
    ) {
        let reserved = Err(TableError::ReservedKey);
        two_pass(self, items, out, reserved, |t, h, (k, v)| t.insert_from(h, k, v));
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        two_pass(self, keys, out, None, |t, h, k| t.delete_from(h, k));
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn memory_bytes(&self) -> usize {
        self.layout.memory_bytes()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        for (pos, slot) in self.layout.slots().iter().enumerate() {
            let k = L::key_of(slot);
            if k < TOMBSTONE_KEY {
                f(k, self.layout.value(slot, pos));
            }
        }
    }

    fn display_name(&self) -> String {
        let simd = if self.simd() { "SIMD" } else { "" };
        format!("{}{}{}{simd}", P::NAME, L::NAME, H::name())
    }
}

/// The slot arrays never move after construction (`rehash_in_place`
/// rebuilds inside the existing allocations), so a lock-free reader's
/// pointers into them stay valid; slot *contents* race and are read
/// volatile, with garbage discarded by the caller's seqlock validation.
impl<L: SlotLayout, P: ProbeSeq, H: HashFn64> ReadView for OpenAddressing<L, P, H> {
    fn supports_optimistic(&self) -> bool {
        true
    }

    unsafe fn lookup_optimistic(&self, key: u64) -> Option<Option<u64>> {
        if is_reserved_key(key) {
            return Some(None);
        }
        let home = self.home(key);
        if P::CONTIGUOUS {
            return Some(probe_window_volatile(
                &self.layout,
                self.mask,
                home,
                key,
                self.probe_kind,
            ));
        }
        // A scattered sequence has no window to copy: walk it with
        // volatile slot reads, bounded by the capacity — unlike `walk`'s
        // unguarded loop, it must not rely on the "an empty slot exists"
        // invariant, which a racing writer can transiently break.
        let mut pos = home;
        for i in 1..=self.mask + 1 {
            let slot = self.layout.read_volatile(pos);
            let k = L::key_of(&slot);
            if k == key {
                return Some(Some(self.layout.value_volatile(&slot, pos)));
            }
            if k == EMPTY_KEY {
                return Some(None);
            }
            pos = P::next(pos, i) & self.mask;
        }
        Some(None)
    }
}
