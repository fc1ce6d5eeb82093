//! The read side of the seqlock protocol: optimistic, lock-free probing.
//!
//! [`ShardedTable`](crate::ShardedTable) guards each shard with a mutex
//! *and* a generation counter (a seqlock: even = stable, odd = writer
//! active). Readers may probe a shard **without** taking the mutex — they
//! read the counter, probe, and accept the answer only if the counter is
//! unchanged and still even. A probe that raced a writer is simply
//! discarded and retried (bounded), then falls back to the locked path.
//!
//! [`ReadView`] is what a table must provide for that to be sound:
//! a probe that can run concurrently with a writer mutating the same
//! table, reading slot contents through [`std::ptr::read_volatile`] so a
//! torn slot is only ever *data the validation step throws away*, never a
//! pointer that gets dereferenced. The trait is a supertrait of
//! [`HashTable`](crate::HashTable), with conservative defaults — a scheme
//! that doesn't opt in simply reports `supports_optimistic() == false`
//! and every read of it goes through the lock, exactly as before.
//!
//! # What makes an implementation sound
//!
//! The probe runs while a writer may be mid-mutation, so the usual
//! invariants ("an empty slot exists", "displacements are monotone") can
//! be *transiently false*. An implementation must therefore guarantee,
//! for any byte garbage in the slot arrays:
//!
//! 1. **In-bounds**: every address read is inside an allocation that
//!    stays alive and fixed for the table's lifetime. The open-addressing
//!    schemes guarantee this by never reallocating their slot arrays
//!    after construction (same-capacity rehashes rebuild in place);
//!    [`DynamicTable`](crate::DynamicTable) guarantees it by publishing
//!    generations through atomic pointers and retiring — not freeing —
//!    replaced generations while optimistic reads are enabled.
//! 2. **Termination**: every probe loop is bounded by the capacity (not
//!    by an invariant like "probing stops at an empty slot").
//! 3. **No trusted derefs**: raced data may be *returned* (the seqlock
//!    validation discards it) but never *dereferenced* or used to index.
//!
//! Wrong answers are fine; crashes and infinite loops are not.
//!
//! # Memory ordering
//!
//! The counter protocol lives in [`ShardedTable`](crate::ShardedTable):
//! writers do
//! `fetch_add(1, AcqRel)` on entry (odd) and `fetch_add(1, Release)` on
//! exit (even); readers load the counter with `Acquire` before probing
//! and re-check it after an `Acquire` fence. A validated read is thus
//! fully ordered against every writer critical section: the initial
//! `Acquire` load sees all writes published by the previous `Release`
//! increment, and the trailing fence + re-check proves no writer entered
//! during the probe. The slot reads themselves are `read_volatile` — not
//! atomic, so formally a data race, which is the standard seqlock
//! compromise: the values are discarded unless validation proves the race
//! did not happen.

use crate::open_addressing::SlotLayout;
use crate::simd::{ProbeKind, ScanOutcome};

/// Number of optimistic attempts before a reader falls back to the lock.
pub const OPTIMISTIC_RETRIES: usize = 2;

/// Slots copied per volatile window. A power of two, so every window
/// slice handed to the scan kernels keeps their power-of-two length
/// contract, and small enough to live on the stack (32 × 16 B = 512 B).
const WINDOW: usize = 32;

/// Slots copied in the *first* window. At moderate load almost every
/// probe terminates within a handful of slots of home, so the first copy
/// is kept small (8 × 16 B = 128 B) and only the rare long probe pays for
/// full windows. Subsequent windows may re-cover up to
/// `WINDOW - FIRST_WINDOW` already-scanned slots after wrapping — benign
/// for a circular scan, and the stride still grows by ≥ `FIRST_WINDOW`
/// per iteration, so termination stays capacity-bounded.
const FIRST_WINDOW: usize = 8;

/// Capacity-bounded optimistic probe in linear probe order (`home,
/// home+1, …` circular) over either slot layout: volatile-copy windows of
/// slots into a stack buffer, then run the configured scan kernel —
/// scalar or SIMD — on the private copy. Returns the candidate value if
/// the snapshot contains `key`, `None` if the probe hit an empty slot or
/// exhausted the table.
///
/// # Safety
///
/// `layout` may alias a concurrently mutating table (see the module
/// docs); the caller must validate via the seqlock stamp before trusting
/// the answer. `mask + 1` must equal the layout's slot count (a power of
/// two).
pub(crate) unsafe fn probe_window_volatile<L: SlotLayout>(
    layout: &L,
    mask: usize,
    home: usize,
    key: u64,
    kind: ProbeKind,
) -> Option<u64> {
    let cap = mask + 1;
    // First window: constant-size copy, fully overwritten before use, so
    // the compiler unrolls it and elides any buffer initialization — the
    // common short probe never touches the big staging buffer below.
    let mut scanned = 0usize;
    if cap >= FIRST_WINDOW {
        let mut first = [L::EMPTY_SLOT; FIRST_WINDOW];
        if let Some(answer) = scan_window(layout, mask, home, &mut first, key, kind) {
            return answer;
        }
        scanned = FIRST_WINDOW;
    }
    let w = WINDOW.min(cap);
    let mut buf = [L::EMPTY_SLOT; WINDOW];
    // The loop advances by `w` masked slots per iteration and stops once
    // `cap` slots are covered (the last window may re-cover up to
    // `WINDOW - FIRST_WINDOW` already-scanned slots after wrapping —
    // benign for a circular scan) — termination never depends on table
    // invariants a racing writer could break.
    while scanned < cap {
        if let Some(answer) = scan_window(layout, mask, home + scanned, &mut buf[..w], key, kind) {
            return answer;
        }
        scanned += w;
    }
    None
}

/// Volatile-copy the `buf.len()` slots from `from` (circular) into `buf`
/// and scan the private copy: `Some(answer)` when it decides the probe,
/// `None` when the probe continues past the window.
///
/// # Safety
///
/// As [`probe_window_volatile`].
#[inline(always)]
unsafe fn scan_window<L: SlotLayout>(
    layout: &L,
    mask: usize,
    from: usize,
    buf: &mut [L::Slot],
    key: u64,
    kind: ProbeKind,
) -> Option<Option<u64>> {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = layout.read_volatile((from + i) & mask);
    }
    // A circular scan of the private copy from 0 is a straight scan: the
    // copy already starts at the probe position.
    match L::scan(buf, 0, key, kind).outcome {
        ScanOutcome::FoundKey(pos) => {
            Some(Some(layout.value_volatile(&buf[pos], (from + pos) & mask)))
        }
        ScanOutcome::FoundEmpty(_) => Some(None),
        ScanOutcome::Exhausted => None,
    }
}

/// A racy, validated-later read view over a hash table — the read side of
/// the seqlock protocol (see the [module docs](self)).
///
/// Every method has a conservative default, so implementing the trait is
/// opt-in per scheme: `supports_optimistic()` defaults to `false` and
/// [`ReadView::lookup_optimistic`] to "bail to the locked path".
pub trait ReadView {
    /// Whether [`ReadView::lookup_optimistic`] can do better than bailing.
    ///
    /// For growing tables this is dynamic: a
    /// [`DynamicTable`](crate::DynamicTable) only supports optimistic
    /// probing while it retains retired generations (see
    /// [`ReadView::retain_retired_allocations`]).
    fn supports_optimistic(&self) -> bool {
        false
    }

    /// Probe for `key` without any synchronization, tolerating a racing
    /// writer.
    ///
    /// Returns `None` to bail (the caller must use the locked path), or
    /// `Some(answer)` — a *candidate* answer that is only correct if the
    /// caller's seqlock validation proves no writer ran during the probe.
    ///
    /// # Safety
    ///
    /// `self` may alias a table that another thread is concurrently
    /// mutating. The caller must
    ///
    /// * only invoke this between a seqlock stamp acquisition and
    ///   validation, and discard the result if validation fails;
    /// * ensure the table outlives the call (the owning shard must not be
    ///   dropped mid-probe).
    ///
    /// Implementations must uphold the soundness rules in the
    /// [module docs](self): in-bounds reads only, capacity-bounded loops,
    /// volatile slot reads, and no dereference of raced data.
    unsafe fn lookup_optimistic(&self, key: u64) -> Option<Option<u64>> {
        let _ = key;
        None
    }

    /// Enable (or disable) retention of retired allocations.
    ///
    /// Tables that replace whole allocations (generation swaps in
    /// [`DynamicTable`](crate::DynamicTable)) must keep the old
    /// allocation alive while lock-free readers may still hold a pointer
    /// into it. With retention **off** (the default) replaced allocations
    /// are freed immediately — correct for exclusively owned tables, and
    /// what non-growing schemes (which never replace allocations) do
    /// anyway.
    fn retain_retired_allocations(&mut self, on: bool) {
        let _ = on;
    }

    /// Bytes currently pinned by retired allocations (0 when retention is
    /// off or nothing has been retired).
    fn retired_bytes(&self) -> usize {
        0
    }

    /// Drop all retired allocations. Sound because `&mut self` proves no
    /// concurrent reader exists.
    fn reclaim_retired(&mut self) {}
}

/// Boxed views forward through the vtable, mirroring the
/// `impl HashTable for Box<T>` blanket so builder-produced trait objects
/// keep their optimistic path.
impl<T: ReadView + ?Sized> ReadView for Box<T> {
    fn supports_optimistic(&self) -> bool {
        (**self).supports_optimistic()
    }

    unsafe fn lookup_optimistic(&self, key: u64) -> Option<Option<u64>> {
        (**self).lookup_optimistic(key)
    }

    fn retain_retired_allocations(&mut self, on: bool) {
        (**self).retain_retired_allocations(on)
    }

    fn retired_bytes(&self) -> usize {
        (**self).retired_bytes()
    }

    fn reclaim_retired(&mut self) {
        (**self).reclaim_retired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashTable, InsertOutcome, TableError};

    struct Plain;
    impl ReadView for Plain {}
    impl HashTable for Plain {
        fn insert(&mut self, _k: u64, _v: u64) -> Result<InsertOutcome, TableError> {
            Ok(InsertOutcome::Inserted)
        }
        fn lookup(&self, _k: u64) -> Option<u64> {
            None
        }
        fn delete(&mut self, _k: u64) -> Option<u64> {
            None
        }
        fn len(&self) -> usize {
            0
        }
        fn capacity(&self) -> usize {
            1
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn for_each(&self, _f: &mut dyn FnMut(u64, u64)) {}
        fn display_name(&self) -> String {
            "Plain".into()
        }
    }

    #[test]
    fn defaults_are_conservative() {
        let mut p = Plain;
        assert!(!p.supports_optimistic());
        assert_eq!(unsafe { p.lookup_optimistic(7) }, None);
        assert_eq!(p.retired_bytes(), 0);
        p.retain_retired_allocations(true);
        p.reclaim_retired();
    }

    #[test]
    fn boxed_view_forwards() {
        let b: Box<dyn HashTable + Send> = Box::new(Plain);
        assert!(!b.supports_optimistic());
        assert_eq!(unsafe { b.lookup_optimistic(7) }, None);
    }
}
