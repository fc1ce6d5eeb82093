//! Cross-crate differential tests: every 〈scheme, hash function〉 pair must
//! behave exactly like a reference map under long randomized operation
//! sequences, for every key distribution in the study.
//!
//! This is the workspace's strongest correctness net: 6 schemes × 4 hash
//! functions × 3 distributions, each driven through thousands of
//! insert/update/delete/lookup operations and compared against
//! `std::collections::HashMap` step by step.

use rand::{rngs::StdRng, Rng, SeedableRng};
use seven_dim_hashing::prelude::*;
use std::collections::HashMap;

/// Drive `table` through `ops` operations drawn from `keys` and mirror
/// them in a std HashMap; every observable must match.
fn conformance<T: HashTable>(mut table: T, keys: &[u64], ops: usize, seed: u64) {
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..ops {
        let key = keys[rng.gen_range(0..keys.len())];
        match rng.gen_range(0..10u8) {
            0..=4 => {
                // Cap fill to leave open-addressing headroom. Re-read the
                // capacity each time: dynamic tables grow under our feet.
                if model.len() < table.capacity() * 8 / 10 {
                    let value = rng.gen::<u64>() >> 1;
                    let expect = match model.insert(key, value) {
                        None => InsertOutcome::Inserted,
                        Some(old) => InsertOutcome::Replaced(old),
                    };
                    assert_eq!(table.insert(key, value), Ok(expect), "step {step}: insert {key}");
                }
            }
            5..=6 => {
                assert_eq!(table.delete(key), model.remove(&key), "step {step}: delete {key}");
            }
            _ => {
                assert_eq!(
                    table.lookup(key),
                    model.get(&key).copied(),
                    "step {step}: lookup {key}"
                );
            }
        }
        assert_eq!(table.len(), model.len(), "step {step}: len");
    }
    for (&k, &v) in &model {
        assert_eq!(table.lookup(k), Some(v), "final: {k}");
    }
}

const BITS: u8 = 10;
const OPS: usize = 6000;

macro_rules! conformance_suite {
    ($name:ident, $table:ty, $ctor:expr) => {
        #[test]
        fn $name() {
            for (d, dist) in [Distribution::Dense, Distribution::Grid, Distribution::Sparse]
                .into_iter()
                .enumerate()
            {
                // Key universe intentionally smaller than the op count so
                // updates, deletes and re-inserts of the same key are common.
                let keys = dist.generate(400, 77 + d as u64);
                let table: $table = $ctor;
                conformance(table, &keys, OPS, 1000 + d as u64);
            }
        }
    };
}

conformance_suite!(lp_mult, LinearProbing<MultShift>, LinearProbing::with_seed(BITS, 1));
conformance_suite!(lp_murmur, LinearProbing<Murmur>, LinearProbing::with_seed(BITS, 2));
conformance_suite!(lp_multadd, LinearProbing<MultAddShift>, LinearProbing::with_seed(BITS, 3));
conformance_suite!(lp_tab, LinearProbing<Tabulation>, LinearProbing::with_seed(BITS, 4));

conformance_suite!(lp_soa_mult, LinearProbingSoA<MultShift>, LinearProbingSoA::with_seed(BITS, 5));
conformance_suite!(
    lp_soa_simd_murmur,
    LinearProbingSoA<Murmur>,
    LinearProbingSoA::with_seed_simd(BITS, 6)
);
conformance_suite!(
    lp_aos_simd_mult,
    LinearProbing<MultShift>,
    LinearProbing::with_seed_simd(BITS, 7)
);

conformance_suite!(qp_mult, QuadraticProbing<MultShift>, QuadraticProbing::with_seed(BITS, 8));
conformance_suite!(qp_murmur, QuadraticProbing<Murmur>, QuadraticProbing::with_seed(BITS, 9));
conformance_suite!(qp_tab, QuadraticProbing<Tabulation>, QuadraticProbing::with_seed(BITS, 10));

conformance_suite!(rh_mult, RobinHood<MultShift>, RobinHood::with_seed(BITS, 11));
conformance_suite!(rh_murmur, RobinHood<Murmur>, RobinHood::with_seed(BITS, 12));
conformance_suite!(rh_multadd, RobinHood<MultAddShift64>, RobinHood::with_seed(BITS, 13));

conformance_suite!(cuckoo2_murmur, CuckooH2<Murmur>, Cuckoo::with_seed(BITS, 14));
conformance_suite!(cuckoo3_murmur, CuckooH3<Murmur>, Cuckoo::with_seed(BITS, 15));
conformance_suite!(cuckoo4_mult, CuckooH4<MultShift>, Cuckoo::with_seed(BITS, 16));
conformance_suite!(cuckoo4_tab, CuckooH4<Tabulation>, Cuckoo::with_seed(BITS, 17));

conformance_suite!(fp_mult, FingerprintTable<MultShift>, FingerprintTable::with_seed(BITS, 22));
conformance_suite!(
    fp_simd_murmur,
    FingerprintTable<Murmur>,
    FingerprintTable::with_seed_simd(BITS, 23)
);

conformance_suite!(chained8_mult, ChainedTable8<MultShift>, ChainedTable8::with_seed(BITS, 18));
conformance_suite!(chained8_murmur, ChainedTable8<Murmur>, ChainedTable8::with_seed(BITS, 19));
conformance_suite!(chained24_mult, ChainedTable24<MultShift>, ChainedTable24::with_seed(BITS, 20));
conformance_suite!(chained24_murmur, ChainedTable24<Murmur>, ChainedTable24::with_seed(BITS, 21));

#[test]
fn dynamic_tables_conform_while_growing() {
    // Start tiny so the test exercises many growth generations.
    let keys = Distribution::Sparse.generate(600, 5);
    conformance(
        DynamicTable::new(TableBuilder::new(TableScheme::LinearProbing), 4, 1, 0.7),
        &keys,
        OPS,
        42,
    );
    conformance(
        DynamicTable::new(
            TableBuilder::new(TableScheme::Quadratic).hash(HashKind::Murmur),
            4,
            2,
            0.5,
        ),
        &keys,
        OPS,
        43,
    );
    conformance(
        DynamicTable::new(
            TableBuilder::new(TableScheme::RobinHood).hash(HashKind::Murmur),
            4,
            3,
            0.7,
        ),
        &keys,
        OPS,
        44,
    );
    conformance(
        DynamicTable::new(
            TableBuilder::new(TableScheme::Cuckoo4).hash(HashKind::Murmur),
            4,
            4,
            0.65,
        ),
        &keys,
        OPS,
        45,
    );
    conformance(
        DynamicTable::new(TableBuilder::new(TableScheme::Chained24), 4, 5, 0.7),
        &keys,
        OPS,
        46,
    );
}

#[test]
fn dynamic_table_capacity_is_unbounded_by_initial_size() {
    let mut t = DynamicTable::new(
        TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
        4,
        9,
        0.9,
    );
    for k in 1..=50_000u64 {
        t.insert(k, k).unwrap();
    }
    assert_eq!(t.len(), 50_000);
    for k in (1..=50_000u64).step_by(997) {
        assert_eq!(t.lookup(k), Some(k));
    }
}
