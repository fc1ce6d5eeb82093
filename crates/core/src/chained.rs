//! Chained hashing, in the paper's two flavours (§2.1).
//!
//! * [`ChainedTable8`] ("ChainedH8"): the textbook layout — the directory
//!   is an array of 8-byte links, every entry lives in the entry
//!   allocator. Every operation chases at least one link, so even
//!   collision-free slots cost an extra cache miss.
//! * [`ChainedTable24`] ("ChainedH24"): 24-byte directory slots hold the
//!   first entry of each bucket *inline* (key, value, link), buying
//!   open-addressing-like latency when collisions are rare at the price of
//!   a 3× wider directory.
//!
//! Both are generic over the [`EntryAllocator`]; the default
//! [`SlabAllocator`] is the paper's tuned bulk strategy, and
//! [`slab_alloc::BoxedAllocator`] recreates the naive
//! one-`malloc`-per-insert baseline for the allocation ablation.
//!
//! Chained tables enforce an optional [`MemoryBudget`] (§4.5): an insert
//! that would push the *logical* footprint (directory + 24 B per chained
//! entry — the paper's accounting) past the budget fails with
//! [`TableError::MemoryBudgetExceeded`].

use crate::budget::{chained24_directory_bits, chained8_directory_bits, CHAIN_ENTRY_BYTES};
use crate::slot_array::SlotArray;
use crate::{is_reserved_key, HashTable, InsertOutcome, MemoryBudget, TableError, EMPTY_KEY};
use hashfn::{fold_to_bits, HashFamily, HashFn64};
use slab_alloc::{Entry, EntryAllocator, EntryRef, SlabAllocator};

/// ChainedH8: directory of links, entries in the allocator.
pub struct ChainedTable8<H: HashFn64, A: EntryAllocator = SlabAllocator> {
    directory: SlotArray<Option<EntryRef>>,
    dir_bits: u8,
    hash: H,
    alloc: A,
    len: usize,
    nominal_capacity: usize,
    budget: MemoryBudget,
}

impl<H: HashFamily> ChainedTable8<H, SlabAllocator> {
    /// Unbudgeted table with a `2^dir_bits`-slot directory and a slab
    /// allocator; hash function drawn from `seed`.
    pub fn with_seed(dir_bits: u8, seed: u64) -> Self {
        Self::new(
            dir_bits,
            H::from_seed(seed),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        )
    }

    /// Budgeted table standing in for open addressing with `2^oa_bits`
    /// slots at a target fill of `n_target` entries (paper §4.5): budget is
    /// 110% of the open-addressing footprint and the directory is the
    /// largest power of two that fits. Fails if no directory size can.
    pub fn with_budget(oa_bits: u8, n_target: usize, seed: u64) -> Result<Self, TableError> {
        let budget = MemoryBudget::open_addressing_equivalent(oa_bits);
        let dir_bits = chained8_directory_bits(budget, n_target, oa_bits)
            .ok_or(TableError::MemoryBudgetExceeded)?;
        Ok(Self::new(
            dir_bits,
            H::from_seed(seed),
            SlabAllocator::with_capacity(n_target),
            budget,
            Some(1usize << oa_bits),
        ))
    }
}

impl<H: HashFn64, A: EntryAllocator> ChainedTable8<H, A> {
    /// Fully explicit constructor (hash function, allocator, budget,
    /// nominal open-addressing-equivalent capacity).
    pub fn new(
        dir_bits: u8,
        hash: H,
        alloc: A,
        budget: MemoryBudget,
        nominal_capacity: Option<usize>,
    ) -> Self {
        let dir_len = crate::check_capacity_bits(dir_bits);
        Self {
            directory: SlotArray::new(dir_len, None),
            dir_bits,
            hash,
            alloc,
            len: 0,
            nominal_capacity: nominal_capacity.unwrap_or(dir_len),
            budget,
        }
    }

    /// The hash function in use.
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    /// Directory slot count.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// Paper-style footprint: directory links + 24 B per entry.
    pub fn logical_bytes(&self) -> usize {
        self.directory.len() * 8 + self.len * CHAIN_ENTRY_BYTES
    }

    /// Actually allocated bytes (directory + allocator capacity).
    pub fn allocated_bytes(&self) -> usize {
        self.directory.len() * 8 + self.alloc.memory_bytes()
    }

    /// Length of the chain at directory slot `idx` (stats/test aid).
    pub fn chain_len(&self, idx: usize) -> usize {
        let mut n = 0;
        let mut cur = self.directory[idx];
        while let Some(r) = cur {
            n += 1;
            cur = self.alloc.get(r).next;
        }
        n
    }

    #[inline(always)]
    fn bucket(&self, key: u64) -> usize {
        fold_to_bits(self.hash.hash(key), self.dir_bits)
    }
}

/// Chained tables allocate and free per-entry heap nodes, so a lock-free
/// reader could chase a link into freed memory — no optimistic support;
/// the conservative [`ReadView`](crate::optimistic::ReadView) defaults
/// route every shared read through the lock.
impl<H: HashFn64, A: EntryAllocator> crate::optimistic::ReadView for ChainedTable8<H, A> {}

impl<H: HashFn64, A: EntryAllocator> HashTable for ChainedTable8<H, A> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        let bucket = self.bucket(key);
        // Walk the chain: replace on match, remember the tail for append.
        let mut cur = self.directory[bucket];
        let mut tail: Option<EntryRef> = None;
        while let Some(r) = cur {
            if self.alloc.get(r).key == key {
                let e = self.alloc.get_mut(r);
                let old = std::mem::replace(&mut e.value, value);
                return Ok(InsertOutcome::Replaced(old));
            }
            tail = Some(r);
            cur = self.alloc.get(r).next;
        }
        // New entry: budget check on the paper's logical footprint.
        let would_be = self.directory.len() * 8 + (self.len + 1) * CHAIN_ENTRY_BYTES;
        if !self.budget.allows(would_be) {
            return Err(TableError::MemoryBudgetExceeded);
        }
        let new_ref = self.alloc.alloc(Entry { key, value, next: None });
        match tail {
            // Append, as the paper describes ("entries are appended to the
            // list"); the duplicate walk already brought us to the tail.
            Some(t) => self.alloc.get_mut(t).next = Some(new_ref),
            None => self.directory[bucket] = Some(new_ref),
        }
        self.len += 1;
        Ok(InsertOutcome::Inserted)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        let mut cur = self.directory[self.bucket(key)];
        while let Some(r) = cur {
            let e = self.alloc.get(r);
            if e.key == key {
                return Some(e.value);
            }
            cur = e.next;
        }
        None
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        let bucket = self.bucket(key);
        let mut prev: Option<EntryRef> = None;
        let mut cur = self.directory[bucket];
        while let Some(r) = cur {
            let e = *self.alloc.get(r);
            if e.key == key {
                match prev {
                    Some(p) => self.alloc.get_mut(p).next = e.next,
                    None => self.directory[bucket] = e.next,
                }
                self.alloc.free(r);
                self.len -= 1;
                return Some(e.value);
            }
            prev = Some(r);
            cur = e.next;
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.nominal_capacity
    }

    fn memory_bytes(&self) -> usize {
        self.logical_bytes()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        for head in self.directory.iter() {
            let mut cur = *head;
            while let Some(r) = cur {
                let e = self.alloc.get(r);
                f(e.key, e.value);
                cur = e.next;
            }
        }
    }

    fn display_name(&self) -> String {
        format!("ChainedH8{}", H::name())
    }
}

/// ChainedH24: 24-byte directory slots with the first entry inline.
pub struct ChainedTable24<H: HashFn64, A: EntryAllocator = SlabAllocator> {
    directory: SlotArray<Entry>,
    dir_bits: u8,
    hash: H,
    alloc: A,
    len: usize,
    /// Entries stored in chains (excluding inline ones) — the paper's
    /// "collisions".
    chained: usize,
    nominal_capacity: usize,
    budget: MemoryBudget,
}

impl<H: HashFamily> ChainedTable24<H, SlabAllocator> {
    /// Unbudgeted table with a `2^dir_bits`-slot directory and a slab
    /// allocator; hash function drawn from `seed`.
    pub fn with_seed(dir_bits: u8, seed: u64) -> Self {
        Self::new(
            dir_bits,
            H::from_seed(seed),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        )
    }

    /// Budgeted table standing in for open addressing with `2^oa_bits`
    /// slots at a target fill of `n_target` entries (paper §4.5).
    pub fn with_budget(oa_bits: u8, n_target: usize, seed: u64) -> Result<Self, TableError> {
        let budget = MemoryBudget::open_addressing_equivalent(oa_bits);
        let dir_bits = chained24_directory_bits(budget, n_target, oa_bits)
            .ok_or(TableError::MemoryBudgetExceeded)?;
        Ok(Self::new(
            dir_bits,
            H::from_seed(seed),
            SlabAllocator::new(),
            budget,
            Some(1usize << oa_bits),
        ))
    }
}

const EMPTY_SLOT: Entry = Entry { key: EMPTY_KEY, value: 0, next: None };

impl<H: HashFn64, A: EntryAllocator> ChainedTable24<H, A> {
    /// Fully explicit constructor.
    pub fn new(
        dir_bits: u8,
        hash: H,
        alloc: A,
        budget: MemoryBudget,
        nominal_capacity: Option<usize>,
    ) -> Self {
        let dir_len = crate::check_capacity_bits(dir_bits);
        Self {
            directory: SlotArray::new(dir_len, EMPTY_SLOT),
            dir_bits,
            hash,
            alloc,
            len: 0,
            chained: 0,
            nominal_capacity: nominal_capacity.unwrap_or(dir_len),
            budget,
        }
    }

    /// The hash function in use.
    pub fn hash_fn(&self) -> &H {
        &self.hash
    }

    /// Directory slot count.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// Entries that overflowed into chains (the paper's collision count).
    pub fn chained_entries(&self) -> usize {
        self.chained
    }

    /// Paper-style footprint: 24 B per directory slot + 24 B per chained
    /// (overflow) entry.
    pub fn logical_bytes(&self) -> usize {
        (self.directory.len() + self.chained) * CHAIN_ENTRY_BYTES
    }

    /// Actually allocated bytes (directory + allocator capacity).
    pub fn allocated_bytes(&self) -> usize {
        self.directory.len() * CHAIN_ENTRY_BYTES + self.alloc.memory_bytes()
    }

    #[inline(always)]
    fn bucket(&self, key: u64) -> usize {
        fold_to_bits(self.hash.hash(key), self.dir_bits)
    }
}

/// As [`ChainedTable8`]: per-entry heap nodes rule out lock-free reads.
impl<H: HashFn64, A: EntryAllocator> crate::optimistic::ReadView for ChainedTable24<H, A> {}

impl<H: HashFn64, A: EntryAllocator> HashTable for ChainedTable24<H, A> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        let bucket = self.bucket(key);
        let head = &mut self.directory[bucket];
        if head.key == EMPTY_KEY {
            // Inline placement costs no extra memory.
            *head = Entry { key, value, next: None };
            self.len += 1;
            return Ok(InsertOutcome::Inserted);
        }
        if head.key == key {
            let old = std::mem::replace(&mut head.value, value);
            return Ok(InsertOutcome::Replaced(old));
        }
        // Walk the overflow chain.
        let mut tail: Option<EntryRef> = None;
        let mut cur = head.next;
        while let Some(r) = cur {
            if self.alloc.get(r).key == key {
                let e = self.alloc.get_mut(r);
                let old = std::mem::replace(&mut e.value, value);
                return Ok(InsertOutcome::Replaced(old));
            }
            tail = Some(r);
            cur = self.alloc.get(r).next;
        }
        let would_be = (self.directory.len() + self.chained + 1) * CHAIN_ENTRY_BYTES;
        if !self.budget.allows(would_be) {
            return Err(TableError::MemoryBudgetExceeded);
        }
        let new_ref = self.alloc.alloc(Entry { key, value, next: None });
        match tail {
            Some(t) => self.alloc.get_mut(t).next = Some(new_ref),
            None => self.directory[bucket].next = Some(new_ref),
        }
        self.len += 1;
        self.chained += 1;
        Ok(InsertOutcome::Inserted)
    }

    #[inline]
    fn lookup(&self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        let head = &self.directory[self.bucket(key)];
        if head.key == key {
            return Some(head.value);
        }
        let mut cur = head.next;
        while let Some(r) = cur {
            let e = self.alloc.get(r);
            if e.key == key {
                return Some(e.value);
            }
            cur = e.next;
        }
        None
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        if is_reserved_key(key) {
            return None;
        }
        let bucket = self.bucket(key);
        let head = self.directory[bucket];
        if head.key == key {
            let value = head.value;
            match head.next {
                // Promote the first chained entry into the directory.
                Some(r) => {
                    self.directory[bucket] = *self.alloc.get(r);
                    self.alloc.free(r);
                    self.chained -= 1;
                }
                None => self.directory[bucket] = EMPTY_SLOT,
            }
            self.len -= 1;
            return Some(value);
        }
        if head.key == EMPTY_KEY {
            return None;
        }
        // Delete from the overflow chain.
        let mut prev: Option<EntryRef> = None;
        let mut cur = head.next;
        while let Some(r) = cur {
            let e = *self.alloc.get(r);
            if e.key == key {
                match prev {
                    Some(p) => self.alloc.get_mut(p).next = e.next,
                    None => self.directory[bucket].next = e.next,
                }
                self.alloc.free(r);
                self.len -= 1;
                self.chained -= 1;
                return Some(e.value);
            }
            prev = Some(r);
            cur = e.next;
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.nominal_capacity
    }

    fn memory_bytes(&self) -> usize {
        self.logical_bytes()
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        for head in self.directory.iter() {
            if head.key != EMPTY_KEY {
                f(head.key, head.value);
                let mut cur = head.next;
                while let Some(r) = cur {
                    let e = self.alloc.get(r);
                    f(e.key, e.value);
                    cur = e.next;
                }
            }
        }
    }

    fn display_name(&self) -> String {
        format!("ChainedH24{}", H::name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use hashfn::{MultShift, Murmur};
    use slab_alloc::BoxedAllocator;

    fn t8(bits: u8) -> ChainedTable8<Murmur> {
        ChainedTable8::with_seed(bits, 42)
    }

    fn t24(bits: u8) -> ChainedTable24<Murmur> {
        ChainedTable24::with_seed(bits, 42)
    }

    #[test]
    fn h8_roundtrip() {
        check_roundtrip(&mut t8(8));
    }

    #[test]
    fn h24_roundtrip() {
        check_roundtrip(&mut t24(8));
    }

    #[test]
    fn h8_replace_semantics() {
        check_replace_semantics(&mut t8(8));
    }

    #[test]
    fn h24_replace_semantics() {
        check_replace_semantics(&mut t24(8));
    }

    #[test]
    fn h8_reserved_keys() {
        check_reserved_keys(&mut t8(4));
    }

    #[test]
    fn h24_reserved_keys() {
        check_reserved_keys(&mut t24(4));
    }

    #[test]
    fn h8_for_each() {
        check_for_each(&mut t8(8));
    }

    #[test]
    fn h24_for_each() {
        check_for_each(&mut t24(8));
    }

    #[test]
    fn h8_model_test() {
        check_against_model(&mut t8(6), 5000, 0xAA);
    }

    #[test]
    fn h24_model_test() {
        check_against_model(&mut t24(6), 5000, 0xBB);
    }

    #[test]
    fn h24_model_test_with_boxed_allocator() {
        let mut t: ChainedTable24<Murmur, BoxedAllocator> = ChainedTable24::new(
            6,
            Murmur::with_seed(1),
            BoxedAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        );
        check_against_model(&mut t, 3000, 0xCC);
    }

    #[test]
    fn chains_hold_many_entries_per_bucket() {
        // Load factor > 1 is legal for chained tables.
        let mut t = t8(4); // 16 buckets
        for k in 1..=160u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 160);
        assert!(t.load_factor() > 1.0);
        for k in 1..=160u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
        let total: usize = (0..16).map(|b| t.chain_len(b)).sum();
        assert_eq!(total, 160);
    }

    #[test]
    fn h24_inlines_first_entry() {
        // Multiplier 1: keys below 2^60 land in bucket 0 of any directory.
        let mut t: ChainedTable24<MultShift> = ChainedTable24::new(
            4,
            MultShift::new(1),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        );
        t.insert(1, 10).unwrap();
        assert_eq!(t.chained_entries(), 0, "first entry must be inline");
        t.insert(2, 20).unwrap();
        assert_eq!(t.chained_entries(), 1, "second entry must chain");
        assert_eq!(t.lookup(1), Some(10));
        assert_eq!(t.lookup(2), Some(20));
    }

    #[test]
    fn h24_delete_promotes_chained_entry() {
        let mut t: ChainedTable24<MultShift> = ChainedTable24::new(
            4,
            MultShift::new(1),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        );
        t.insert(1, 10).unwrap(); // inline
        t.insert(2, 20).unwrap(); // chained
        t.insert(3, 30).unwrap(); // chained
        assert_eq!(t.delete(1), Some(10));
        // Entry 2 promoted inline; 3 still chained behind it.
        assert_eq!(t.chained_entries(), 1);
        assert_eq!(t.lookup(2), Some(20));
        assert_eq!(t.lookup(3), Some(30));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn h8_append_preserves_insertion_order() {
        let mut t: ChainedTable8<MultShift> = ChainedTable8::new(
            4,
            MultShift::new(1),
            SlabAllocator::new(),
            MemoryBudget::unlimited(),
            None,
        );
        for k in 1..=4u64 {
            t.insert(k, k).unwrap();
        }
        let mut order = Vec::new();
        t.for_each(&mut |k, _| order.push(k));
        assert_eq!(order, vec![1, 2, 3, 4], "appended order expected");
    }

    #[test]
    fn budget_enforced_at_insert_time() {
        // Budget for oa_bits = 8 (256 slots · 16 B · 1.1 = 4505 B);
        // H8 with dir 2^8: 2048 B directory ⇒ room for (4505-2048)/24 = 102
        // entries.
        let mut t: ChainedTable8<Murmur> = ChainedTable8::with_budget(8, 100, 1).unwrap();
        let mut placed = 0u64;
        let err = loop {
            match t.insert(placed + 1, 0) {
                Ok(_) => placed += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, TableError::MemoryBudgetExceeded);
        assert_eq!(placed, 102);
        // Deleting frees budget again.
        assert_eq!(t.delete(1), Some(0));
        assert!(t.insert(10_000, 0).is_ok());
    }

    #[test]
    fn budgeted_construction_fails_at_high_load() {
        // §4.5 / §5: at 90% of the open-addressing capacity, no chained
        // variant fits the 110% budget.
        let n = (1usize << 12) * 9 / 10;
        assert!(ChainedTable8::<Murmur>::with_budget(12, n, 1).is_err());
        assert!(ChainedTable24::<Murmur>::with_budget(12, n, 1).is_err());
    }

    #[test]
    fn footprint_accounting_matches_paper_formulas() {
        let mut t8 = t8(10);
        for k in 1..=100u64 {
            t8.insert(k, k).unwrap();
        }
        assert_eq!(t8.memory_bytes(), 1024 * 8 + 100 * 24);

        let mut t24 = t24(10);
        for k in 1..=100u64 {
            t24.insert(k, k).unwrap();
        }
        assert_eq!(t24.memory_bytes(), 1024 * 24 + t24.chained_entries() * 24);
    }

    #[test]
    fn nominal_capacity_reflects_oa_equivalent() {
        let t = ChainedTable8::<Murmur>::with_budget(10, 256, 1).unwrap();
        assert_eq!(t.capacity(), 1024);
        // Load factor is relative to the open-addressing equivalent.
        assert_eq!(t.load_factor(), 0.0);
    }
}
