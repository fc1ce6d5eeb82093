//! End-to-end pipeline tests: workload drivers and query operators over
//! the public API, the way the benchmark binaries and a downstream user
//! compose the crates.

use seven_dim_hashing::prelude::*;
use seven_dim_hashing::workload::{rw, worm};

#[test]
fn worm_pipeline_all_distributions_and_schemes() {
    for dist in [Distribution::Dense, Distribution::Grid, Distribution::Sparse] {
        let cfg = WormConfig { capacity_bits: 12, load_factor: 0.7, dist, probes: 4000, seed: 21 };
        let keys = WormKeys::prepare(&cfg);
        assert_eq!(keys.inserts.len(), cfg.n_keys());

        let mut lp: LinearProbing<MultShift> = LinearProbing::with_seed(12, 9);
        let mut qp: QuadraticProbing<MultShift> = QuadraticProbing::with_seed(12, 9);
        let mut rh: RobinHood<MultShift> = RobinHood::with_seed(12, 9);
        let mut ck: CuckooH4<MultShift> = CuckooH4::with_seed(12, 9);

        let (b_lp, l_lp) = worm::run_cell(&mut lp, &keys).unwrap();
        let (_b, _l) = worm::run_cell(&mut qp, &keys).unwrap();
        let (_b, _l) = worm::run_cell(&mut rh, &keys).unwrap();
        let (_b, _l) = worm::run_cell(&mut ck, &keys).unwrap();

        assert_eq!(b_lp.ops as usize, cfg.n_keys());
        assert_eq!(l_lp.len(), 5, "{}: one lookup series per unsuccessful pct", dist.name());
        // Every table holds exactly the same content.
        assert_eq!(lp.len(), cfg.n_keys());
        assert_eq!(qp.len(), cfg.n_keys());
        assert_eq!(rh.len(), cfg.n_keys());
        assert_eq!(ck.len(), cfg.n_keys());
    }
}

#[test]
fn worm_chained_respects_budget_boundary() {
    // At 50% the budgeted chained tables run; at 90% construction or
    // filling must fail — the paper's missing panels.
    let ok = WormConfig {
        capacity_bits: 12,
        load_factor: 0.5,
        dist: Distribution::Sparse,
        probes: 100,
        seed: 3,
    };
    let keys = WormKeys::prepare(&ok);
    let mut t = ChainedTable24::<MultShift>::with_budget(12, ok.n_keys(), 1).unwrap();
    worm::run_cell(&mut t, &keys).unwrap();
    assert_eq!(t.len(), ok.n_keys());

    assert!(ChainedTable24::<MultShift>::with_budget(12, (4096 * 9) / 10, 1).is_err());
}

#[test]
fn rw_pipeline_grows_and_verifies() {
    let cfg = RwConfig { initial_keys: 3000, operations: 60_000, update_pct: 50, seed: 77 };
    let mut stream = RwStream::new(cfg);
    let mut table = DynamicTable::new(TableBuilder::new(TableScheme::LinearProbing), 13, 5, 0.7);
    for k in stream.initial_keys() {
        table.insert(k, k).unwrap();
    }
    let mut executed = 0u64;
    while let Some(chunk) = stream.next_chunk(4096) {
        let t = rw::run_chunk(&mut table, &chunk).unwrap();
        executed += t.ops;
    }
    assert_eq!(executed, 60_000);
    // Live-set model and table agree exactly.
    assert_eq!(table.len(), stream.live_len());
}

#[test]
fn join_over_workload_generated_relations() {
    // Build side: grid keys (the "IP address" distribution); probe side:
    // half hits, half misses, exactly as generated.
    let sets = Distribution::Grid.generate_with_misses(2000, 2000, 13);
    let build: Vec<(u64, u64)> = sets.inserts.iter().map(|&k| (k, k ^ 0xAB)).collect();
    let probe: Vec<(u64, u64)> = sets
        .inserts
        .iter()
        .take(1000)
        .chain(sets.misses.iter().take(1000))
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();

    let mut t: RobinHood<Murmur> = RobinHood::with_seed(12, 1);
    let out = hash_join(&mut t, &build, &probe).unwrap();
    assert_eq!(out.rows.len(), 1000);
    assert_eq!(out.probe_misses, 1000);
    for (k, bp, _) in &out.rows {
        assert_eq!(*bp, k ^ 0xAB);
    }
}

#[test]
fn aggregation_over_workload_generated_rows() {
    // Sparse group keys folded into 64 groups.
    let keys = Distribution::Sparse.generate(10_000, 17);
    let rows: Vec<(u64, u64)> = keys.iter().map(|&k| (k % 64 + 1, k % 1000)).collect();
    let mut sums: QuadraticProbing<MultShift> = QuadraticProbing::with_seed(10, 2);
    let result = group_aggregate(&mut sums, &rows, AggFn::Count).unwrap();
    assert_eq!(result.iter().map(|&(_, c)| c).sum::<u64>(), 10_000);
    assert!(result.len() <= 64);
}

#[test]
fn point_index_follows_decision_graph_end_to_end() {
    let profile = WorkloadProfile {
        load_factor: 0.45,
        successful_ratio: 1.0,
        write_ratio: 0.0,
        dense_keys: true,
        mutability: Mutability::Static,
    };
    let mut idx = PointIndex::for_profile(&profile, 14, 4);
    assert_eq!(idx.choice(), TableChoice::LPMult);
    let keys = Distribution::Dense.generate(((1 << 14) as f64 * 0.45) as usize, 5);
    for &k in &keys {
        idx.insert(k, k * 2).unwrap();
    }
    for &k in keys.iter().step_by(13) {
        assert_eq!(idx.lookup(k), Some(k * 2));
    }
    assert_eq!(idx.len(), keys.len());
}

#[test]
fn throughput_measurement_is_consistent_with_ops() {
    let cfg = WormConfig {
        capacity_bits: 12,
        load_factor: 0.5,
        dist: Distribution::Dense,
        probes: 10_000,
        seed: 2,
    };
    let keys = WormKeys::prepare(&cfg);
    let mut t: LinearProbing<MultShift> = LinearProbing::with_seed(12, 2);
    let build = worm::run_build(&mut t, &keys.inserts).unwrap();
    assert_eq!(build.ops as usize, keys.inserts.len());
    assert!(build.nanos > 0);
    for (pct, stream, expected) in &keys.probe_streams {
        let (tp, hits) = worm::run_probes(&t, stream, *expected);
        assert_eq!(tp.ops as usize, stream.len());
        assert_eq!(hits as usize, *expected, "pct {pct}");
    }
}
