//! Linear probing with optimized tombstone deletion (paper §2.2).
//!
//! The hash function is `h(k, i) = (h'(k) + i) mod l`: on a collision the
//! probe walks consecutive slots circularly until it finds the key, an
//! empty slot, or (for inserts) a reusable tombstone. Low code complexity
//! and a sequential access pattern make LP the fastest scheme at low load
//! factors; primary clustering makes it degrade beyond ~60–70%, and
//! unsuccessful lookups must scan whole clusters.
//!
//! Deletion follows the paper's tuned strategy: a tombstone is placed
//! *only if the next slot is occupied* — i.e. only when removing the entry
//! would otherwise disconnect a cluster; if the next slot is empty the slot
//! is simply cleared. Inserts recycle the first tombstone found on their
//! probe path after confirming the key is absent.

pub use crate::open_addressing::DeleteStrategy;
use crate::open_addressing::{Aos, Linear, OpenAddressing};

/// Linear probing over an array-of-structs slot array.
///
/// `LPMult` in the paper is `LinearProbing<MultShift>`, `LPMurmur` is
/// `LinearProbing<Murmur>`.
pub type LinearProbing<H> = OpenAddressing<Aos, Linear, H>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_common::*;
    use crate::{HashTable, InsertOutcome, TableError};
    use hashfn::{MultShift, Murmur};

    fn table(bits: u8) -> LinearProbing<Murmur> {
        LinearProbing::with_seed(bits, 42)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        check_roundtrip(&mut table(8));
    }

    #[test]
    fn map_semantics_replace() {
        check_replace_semantics(&mut table(8));
    }

    #[test]
    fn reserved_keys_rejected() {
        check_reserved_keys(&mut table(4));
    }

    #[test]
    fn fills_to_capacity_minus_one() {
        let mut t = table(4); // 16 slots
        let mut inserted = 0;
        for k in 0..16u64 {
            match t.insert(k, k) {
                Ok(InsertOutcome::Inserted) => inserted += 1,
                Err(TableError::TableFull) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inserted, 15, "one slot must stay empty as probe terminator");
        // All inserted keys still found.
        for k in 0..inserted as u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
        assert_eq!(t.lookup(100), None);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Multiplier 1 ⇒ home slot = top bits of the raw key: keys below
        // 2^60 all land in slot 0 of a 16-slot table.
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        for k in 1..=5u64 {
            t.insert(k, k * 100).unwrap();
        }
        // They occupy slots 0..5 in insertion order.
        for (i, k) in (1..=5u64).enumerate() {
            assert_eq!(t.raw_slots()[i].key, k);
        }
        for k in 1..=5u64 {
            assert_eq!(t.lookup(k), Some(k * 100));
        }
        assert_eq!(t.lookup(6), None);
    }

    #[test]
    fn probe_wraps_around_table_end() {
        // Put home slots at the last slot and force wraparound.
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        // Keys with top-4 bits = 15 → home slot 15.
        let base = 0xF000_0000_0000_0000u64;
        t.insert(base, 1).unwrap();
        t.insert(base + 1, 2).unwrap(); // wraps to slot 0
        t.insert(base + 2, 3).unwrap(); // slot 1
        assert_eq!(t.raw_slots()[15].key, base);
        assert_eq!(t.raw_slots()[0].key, base + 1);
        assert_eq!(t.raw_slots()[1].key, base + 2);
        assert_eq!(t.lookup(base + 2), Some(3));
        // Deleting the middle of a wrapped cluster keeps it connected.
        assert_eq!(t.delete(base + 1), Some(2));
        assert_eq!(t.lookup(base + 2), Some(3));
    }

    #[test]
    fn tombstone_only_when_cluster_continues() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        let base = 0x1000_0000_0000_0000u64; // home slot 1
        t.insert(base, 1).unwrap(); // slot 1
        t.insert(base + 1, 2).unwrap(); // slot 2
                                        // Deleting the tail entry: next slot (3) is empty → no tombstone.
        t.delete(base + 1);
        assert_eq!(t.tombstone_count(), 0);
        assert!(t.raw_slots()[2].is_empty());
        // Re-insert and delete the head: next slot occupied → tombstone.
        t.insert(base + 1, 2).unwrap();
        t.delete(base);
        assert_eq!(t.tombstone_count(), 1);
        assert!(t.raw_slots()[1].is_tombstone());
        // Lookup scans across the tombstone.
        assert_eq!(t.lookup(base + 1), Some(2));
    }

    #[test]
    fn insert_recycles_tombstones() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        let base = 0x1000_0000_0000_0000u64;
        t.insert(base, 1).unwrap();
        t.insert(base + 1, 2).unwrap();
        t.delete(base); // tombstone at slot 1
        assert_eq!(t.tombstone_count(), 1);
        // A new colliding key reuses the tombstone slot.
        t.insert(base + 2, 3).unwrap();
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.raw_slots()[1].key, base + 2);
        assert_eq!(t.lookup(base + 1), Some(2));
        assert_eq!(t.lookup(base + 2), Some(3));
    }

    #[test]
    fn duplicate_insert_does_not_take_earlier_tombstone() {
        // Key present *behind* a tombstone: insert must replace, not
        // duplicate into the tombstone.
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(4, MultShift::new(1));
        let base = 0x1000_0000_0000_0000u64;
        t.insert(base, 1).unwrap();
        t.insert(base + 1, 2).unwrap();
        t.delete(base); // tombstone at slot 1; base+1 still at slot 2
        assert_eq!(t.insert(base + 1, 99), Ok(InsertOutcome::Replaced(2)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(base + 1), Some(99));
    }

    #[test]
    fn rehash_in_place_drops_tombstones() {
        let mut t = table(8);
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..50u64 {
            t.delete(k);
        }
        let before = t.tombstone_count();
        assert!(before > 0, "expect some tombstones after deletions");
        t.rehash_in_place();
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.len(), 50);
        for k in 50..100u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn saturated_with_tombstones_still_terminates() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(2, MultShift::new(1));
        // Fill 3 of 4 slots, delete them all (head deletes leave tombstones
        // where clusters continue), then look up a missing key.
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        t.insert(3, 3).unwrap();
        t.delete(1);
        t.delete(2);
        t.delete(3);
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(9), None);
        // And inserting still works by recycling tombstones.
        t.insert(7, 70).unwrap();
        assert_eq!(t.lookup(7), Some(70));
    }

    #[test]
    fn memory_is_constant_16_bytes_per_slot() {
        let t = table(10);
        assert_eq!(t.memory_bytes(), 1024 * 16);
        assert_eq!(t.capacity(), 1024);
    }

    #[test]
    fn display_name_matches_paper_style() {
        assert_eq!(table(4).display_name(), "LPMurmur");
        let t: LinearProbing<MultShift> = LinearProbing::with_seed(4, 1);
        assert_eq!(t.display_name(), "LPMult");
    }

    #[test]
    fn for_each_visits_all_live_entries() {
        check_for_each(&mut table(8));
    }

    #[test]
    fn model_test_against_std_hashmap() {
        check_against_model(&mut table(10), 5000, 0xC0FFEE);
    }

    #[test]
    fn model_test_simd_probing() {
        let mut t: LinearProbing<Murmur> = LinearProbing::with_seed_simd(10, 42);
        check_against_model(&mut t, 5000, 0x51D);
    }

    #[test]
    fn batch_ops_match_single_key_path() {
        check_batch_matches_single(&mut table(9), &mut table(9), 0xBA7C);
        let mut a: LinearProbing<Murmur> = LinearProbing::with_seed_simd(9, 42);
        let mut b: LinearProbing<Murmur> = LinearProbing::with_seed_simd(9, 42);
        check_batch_matches_single(&mut a, &mut b, 0xBA7D);
    }

    #[test]
    fn delete_rehash_leaves_no_tombstones() {
        let mut t = table(8);
        t.set_delete_strategy(DeleteStrategy::Rehash);
        assert_eq!(t.delete_strategy(), DeleteStrategy::Rehash);
        for k in 1..=150u64 {
            t.insert(k, k).unwrap();
        }
        for k in (1..=150u64).step_by(3) {
            assert_eq!(t.delete(k), Some(k));
            assert_eq!(t.delete(k), None);
        }
        assert_eq!(t.tombstone_count(), 0, "rehash deletes never tombstone");
        for k in 1..=150u64 {
            let expect = if k % 3 == 1 { None } else { Some(k) };
            assert_eq!(t.lookup(k), expect, "key {k}");
        }
    }

    #[test]
    fn delete_rehash_repairs_clusters() {
        // All keys collide into one cluster (multiplier 1, small keys).
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(5, MultShift::new(1));
        t.set_delete_strategy(DeleteStrategy::Rehash);
        for k in 1..=10u64 {
            t.insert(k, k * 10).unwrap();
        }
        // Delete from the middle: the cluster must close up and every
        // remaining key stay reachable.
        assert_eq!(t.delete(4), Some(40));
        assert_eq!(t.delete(7), Some(70));
        for k in [1u64, 2, 3, 5, 6, 8, 9, 10] {
            assert_eq!(t.lookup(k), Some(k * 10), "key {k}");
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.tombstone_count(), 0);
    }

    #[test]
    fn delete_rehash_clears_existing_tombstones_in_cluster() {
        let mut t: LinearProbing<MultShift> = LinearProbing::with_hash(5, MultShift::new(1));
        for k in 1..=8u64 {
            t.insert(k, k).unwrap();
        }
        t.delete(2); // tombstone (cluster continues)
        assert_eq!(t.tombstone_count(), 1);
        // A rehash-delete sweeping the cluster drops the tombstone too.
        t.set_delete_strategy(DeleteStrategy::Rehash);
        assert_eq!(t.delete(1), Some(1));
        assert_eq!(t.tombstone_count(), 0);
        for k in 3..=8u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn delete_rehash_matches_model_semantics() {
        // Differential: tombstone-delete table vs rehash-delete table must
        // agree on every observable.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let mut a = table(8);
        let mut b = table(8);
        b.set_delete_strategy(DeleteStrategy::Rehash);
        for step in 0..4000 {
            let k = rng.gen_range(1..120u64);
            match rng.gen_range(0..3u8) {
                0 => {
                    assert_eq!(a.insert(k, k), b.insert(k, k), "step {step}");
                }
                1 => {
                    assert_eq!(a.delete(k), b.delete(k), "step {step}");
                }
                _ => {
                    assert_eq!(a.lookup(k), b.lookup(k), "step {step}");
                }
            }
            assert_eq!(a.len(), b.len(), "step {step}");
        }
    }
}
