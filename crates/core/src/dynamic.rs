//! Growing tables for the read-write workload (paper §6).
//!
//! The RW experiment lets tables grow "over a long sequence of operations":
//! when the load factor crosses a threshold (the paper sweeps 50%, 70%,
//! 90%), the table doubles its capacity and rehashes every entry. This
//! module provides [`DynamicTable`], a scheme-agnostic wrapper implementing
//! that policy over any [`TableFactory`] — in practice
//! [`crate::TableBuilder`], which builds every scheme in the study.
//!
//! Growing at 50% keeps collisions rare but can waste up to 75% of the
//! allocated space right after a doubling; growing at 90% is space-frugal
//! but lives with heavy collisions before each rehash — the trade-off
//! Figure 5 quantifies.
//!
//! # Growth policies
//!
//! *How* the rehash happens is a [`GrowthPolicy`]:
//!
//! * [`GrowthPolicy::AllAtOnce`] is the paper's stop-the-world rebuild:
//!   one operation pays for rehashing every live entry. Mean throughput
//!   barely notices; the latency tail is owned by it (see the
//!   `growth_tail` bench).
//! * [`GrowthPolicy::Incremental`] keeps **two generations** alive during
//!   a growth step: the doubling allocates the next generation and takes
//!   over all inserts, while up to `step` old-generation entries migrate
//!   per subsequent mutating operation (`step × batch_len` per batch
//!   call). Lookups and deletes consult both generations, so the table
//!   stays element-wise identical to an `AllAtOnce` twin at every
//!   intermediate state. With `step ≥ 1` the old generation always drains
//!   before the new one can reach its own threshold, so at most two
//!   generations ever exist. This is the bounded-pause design of the
//!   multilevel-table literature (*The Usefulness of Multilevel Hash
//!   Tables*): probe a small fixed number of tables instead of stalling
//!   the operation stream (*Dynamic External Hashing* shows that stall
//!   dominating the dynamic cost model).
//!
//! The threshold trigger itself is pure integer math: the `f64` threshold
//! is converted once to Q32 fixed point, and `len + 1 > threshold × cap`
//! is evaluated as a `u128` product — exact at every capacity up to
//! `2^MAX_BITS`, where `f64` comparisons can misplace the trigger by an
//! entry.
//!
//! # Migration policies: generations beyond growth
//!
//! The two-generation machinery is scheme-agnostic — nothing about the
//! drain requires the next generation to be a *bigger table of the same
//! scheme*. A [`MigrationPolicy`] decides *what* the next generation is
//! (orthogonal to [`GrowthPolicy`], which decides *how* entries move):
//!
//! * [`MigrationPolicy::Grow`] — doubled capacity, same scheme, on the
//!   load-factor trigger (the original behaviour, and the default).
//! * [`MigrationPolicy::Switch`] — a one-shot live migration to a
//!   different scheme ([`TableChoice`]) at the current capacity; growth
//!   afterwards continues in the new scheme.
//! * [`MigrationPolicy::Adaptive`] — a feedback controller: the table
//!   watches its own runtime signals ([`crate::stats::RuntimeStats`] —
//!   load factor, EWMA miss ratio, write mix), periodically re-runs the
//!   paper's Figure 8 decision graph against the *observed* profile
//!   ([`crate::profile_choice`]), and live-migrates whenever the graph
//!   disagrees with the current scheme (LP→FP when misses dominate,
//!   back toward LP/RH when hits do, with the chained-budget fallbacks
//!   `profile_choice` already encodes).
//!
//! Cross-scheme generations reuse every invariant of incremental growth:
//! at most two generations, lookups/deletes consult both, the drain is
//! funded by mutating operations, and generation publication/retirement
//! for optimistic readers is unchanged (a retiree's exact byte footprint
//! is whatever its own [`HashTable::memory_bytes`] reports — an FP
//! retiree pins its tag array, a chained one its slab). The factory hook
//! is [`TableFactory::for_choice`], which [`crate::TableBuilder`]
//! implements for every choice; a factory fixed to one table type keeps
//! the default and simply refuses to re-target.

use crate::decision::{Mutability, TableChoice, WorkloadProfile};
use crate::entries::EntrySnapshot;
use crate::stats::{RuntimeStats, TableStats};
use crate::{is_reserved_key, HashTable, InsertOutcome, TableError};
use std::sync::atomic::{AtomicPtr, Ordering};

/// Builds fresh tables of one scheme at a requested capacity; used by
/// [`DynamicTable`] on every growth step.
pub trait TableFactory: Clone {
    /// The table type this factory builds.
    type Table: HashTable;

    /// Build an empty table with nominal capacity `2^bits`, deriving hash
    /// functions from `seed`.
    fn build(&self, bits: u8, seed: u64) -> Self::Table;

    /// Scheme name for reports (e.g. `"LP"`).
    fn scheme_name(&self) -> &'static str;

    /// Re-target the factory at the scheme behind `choice`, keeping every
    /// other knob (hash family, SIMD, prefetch): the hook the migration
    /// engine uses to build a *different-scheme* next generation.
    /// Factories fixed to one concrete table type return `None` (the
    /// default); [`crate::TableBuilder`]'s boxed factory represents every
    /// choice.
    fn for_choice(&self, choice: TableChoice) -> Option<Self> {
        let _ = choice;
        None
    }

    /// The [`TableChoice`] whose scheme this factory currently builds,
    /// when it is one of the decision graph's six candidates (`None`
    /// otherwise — e.g. `CuckooH2`, which Figure 8 never recommends).
    /// Used by the adaptive controller to detect "already the right
    /// scheme".
    fn current_choice(&self) -> Option<TableChoice> {
        None
    }
}

/// How a [`DynamicTable`] rehashes when it crosses its growth threshold.
/// See the [module docs](self) for the trade-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthPolicy {
    /// Stop-the-world: the triggering operation rebuilds the whole table
    /// into a doubled one before proceeding (the paper's §6 model).
    AllAtOnce,
    /// Two-generation migration: the doubling allocates the next
    /// generation, then every mutating operation drains up to `step`
    /// old-generation entries (`step × batch_len` per batch call) until
    /// the old generation is empty. `step` must be ≥ 1 — that rate
    /// already guarantees the drain finishes before the next doubling
    /// can trigger.
    Incremental {
        /// Old-generation entries migrated per operation.
        step: usize,
    },
}

/// *What* the next generation is — the migration engine's policy knob,
/// orthogonal to [`GrowthPolicy`] (which decides *how* entries move).
/// See the [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MigrationPolicy {
    /// Same scheme, doubled capacity, on the load-factor trigger — the
    /// original growth-only behaviour and the default.
    Grow,
    /// One live migration to this choice's scheme at the current
    /// capacity, begun by the first mutating operation; growth afterwards
    /// continues in the new scheme. Silently stays put when the factory
    /// cannot represent the choice (see [`TableFactory::for_choice`]).
    Switch(TableChoice),
    /// Watch live signals and re-run the Figure 8 decision graph against
    /// the observed profile, migrating whenever it disagrees with the
    /// current scheme.
    Adaptive(AdaptiveConfig),
}

/// Tuning for [`MigrationPolicy::Adaptive`]. The defaults re-evaluate
/// every 4 Ki mutating ops, demand 1 Ki fresh lookups of evidence, and
/// hold 16 Ki ops of hysteresis after each switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Mutating operations between controller evaluations.
    pub check_every: u64,
    /// Minimum lookups observed since the previous evaluation before the
    /// miss signal is trusted — the controller must not switch without
    /// evidence.
    pub min_lookups: u64,
    /// Mutating operations after a switch during which the controller
    /// stays quiet (hysteresis against flapping on a boundary profile).
    pub cooldown: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self { check_every: 4096, min_lookups: 1024, cooldown: 16_384 }
    }
}

/// A write ratio below this is treated as an *effectively static* phase:
/// the paper's static bands (where FP, chained and cuckoo live) apply to
/// a probe-dominated stream even though the table remains writable.
const ADAPTIVE_STATIC_WRITE_RATIO: f64 = 0.05;

/// Every Nth single-key lookup runs the instrumented probe
/// ([`HashTable::lookup_probed`]) instead of the plain one, feeding the
/// mean-probe-length signal at 1/N of the probes.
const PROBE_SAMPLE_EVERY: u64 = 64;

/// Fixed-point bits of the growth-threshold representation (Q32).
const THRESHOLD_FP_BITS: u32 = 32;

/// Exact integer form of the trigger `len_after > threshold × cap`,
/// with the threshold in Q32 fixed point. `u128` products keep it exact
/// for every `cap ≤ 2^MAX_BITS`, where the former `f64` comparison
/// could round the trigger point by an entry.
#[inline]
fn crosses_threshold(threshold_fp: u64, len_after: usize, cap: usize) -> bool {
    (len_after as u128) << THRESHOLD_FP_BITS > threshold_fp as u128 * cap as u128
}

/// The draining generation of an in-flight incremental migration.
///
/// The table is boxed so its address stays stable while it drains: the
/// optimistic-read path publishes that address through an [`AtomicPtr`]
/// and probes it without any lock.
struct OldGeneration<T> {
    table: Box<T>,
    /// Keys captured when the migration began ([`EntrySnapshot::keys_of`]
    /// — the same live-entry capture the durable snapshot writer uses),
    /// drained LIFO. Keys the workload deletes mid-migration simply miss
    /// on pop; values are re-read through the live table at drain time so
    /// updates are never lost.
    pending: EntrySnapshot<u64>,
}

/// A table that doubles its capacity when the load factor would cross a
/// threshold, rehashing entries into a fresh table (new hash function
/// seeds each generation) — in one pause or incrementally, per its
/// [`GrowthPolicy`].
pub struct DynamicTable<F: TableFactory> {
    factory: F,
    /// The current (target) generation: all inserts land here. Boxed so
    /// its address survives generation swaps (see `inner_published`).
    inner: Box<F::Table>,
    /// The current generation's address, republished with `Release` on
    /// every swap; the lock-free read path loads it with `Acquire`
    /// instead of touching the (concurrently rewritten) `inner` field.
    inner_published: AtomicPtr<F::Table>,
    /// The draining generation of an in-flight incremental migration.
    old: Option<OldGeneration<F::Table>>,
    /// Address of the draining generation's table, or null when no
    /// migration is in flight. Same protocol as `inner_published`.
    old_published: AtomicPtr<F::Table>,
    /// Generations replaced while `retain_retired` was set: optimistic
    /// readers stamped before a swap may still be probing them, so their
    /// allocations must outlive the swap. Reclaimed only through `&mut`
    /// (true quiescence — no shared-phase reader can exist).
    retired: Vec<Box<F::Table>>,
    /// Keep replaced generations alive (set by the sharded wrapper when
    /// optimistic reads are on). Off by default: sequential users get
    /// every drop immediately, exactly as before.
    retain_retired: bool,
    bits: u8,
    seed: u64,
    grow_threshold: f64,
    /// Q32 fixed-point form of `grow_threshold` (the trigger comparison
    /// is pure integer math).
    threshold_fp: u64,
    policy: GrowthPolicy,
    migration: MigrationPolicy,
    /// One-shot [`MigrationPolicy::Switch`] target, consumed by the first
    /// mutating operation (construction stays allocation-cheap and the
    /// switch itself rides the ordinary drain machinery).
    pending_switch: Option<TableChoice>,
    /// Relaxed-atomic runtime signals (miss EWMA, probe samples), shared
    /// with the lock-free read path.
    stats: RuntimeStats,
    /// Cross-scheme migrations begun so far.
    scheme_switches: usize,
    /// Mutating ops since the adaptive controller last evaluated.
    ops_since_check: u64,
    /// Mutating ops of post-switch hysteresis still to burn.
    cooldown_left: u64,
    /// Stats snapshot at the last controller evaluation; deltas against
    /// it form the observed workload profile.
    last_eval: TableStats,
    rehash_count: usize,
}

/// Hard ceiling on growth (2^40 slots ≈ 16 TiB of AoS pairs); reaching it
/// means a runaway workload, not a legitimate table.
const MAX_BITS: u8 = 40;

impl<F: TableFactory> DynamicTable<F> {
    /// Create with initial capacity `2^bits`, growing when an insert would
    /// push `len` beyond `grow_threshold × capacity` (the paper's rehash
    /// thresholds are 0.5, 0.7, 0.9). Growth is stop-the-world
    /// ([`GrowthPolicy::AllAtOnce`]); use [`DynamicTable::with_policy`]
    /// for incremental migration.
    pub fn new(factory: F, bits: u8, seed: u64, grow_threshold: f64) -> Self {
        Self::with_policy(factory, bits, seed, grow_threshold, GrowthPolicy::AllAtOnce)
    }

    /// [`DynamicTable::new`] with an explicit [`GrowthPolicy`].
    pub fn with_policy(
        factory: F,
        bits: u8,
        seed: u64,
        grow_threshold: f64,
        policy: GrowthPolicy,
    ) -> Self {
        assert!(
            grow_threshold > 0.0 && grow_threshold <= 0.99,
            "grow threshold must be in (0, 0.99], got {grow_threshold}"
        );
        if let GrowthPolicy::Incremental { step } = policy {
            assert!(step >= 1, "incremental growth step must be >= 1");
        }
        let inner = Box::new(factory.build(bits, seed));
        let inner_published = AtomicPtr::new(&*inner as *const F::Table as *mut F::Table);
        let threshold_fp = (grow_threshold * (1u64 << THRESHOLD_FP_BITS) as f64).round() as u64;
        Self {
            factory,
            inner,
            inner_published,
            old: None,
            old_published: AtomicPtr::new(std::ptr::null_mut()),
            retired: Vec::new(),
            retain_retired: false,
            bits,
            seed,
            grow_threshold,
            threshold_fp,
            policy,
            migration: MigrationPolicy::Grow,
            pending_switch: None,
            stats: RuntimeStats::new(),
            scheme_switches: 0,
            ops_since_check: 0,
            cooldown_left: 0,
            last_eval: TableStats::default(),
            rehash_count: 0,
        }
    }

    /// [`DynamicTable::with_policy`] with an explicit [`MigrationPolicy`]
    /// — the full migration-engine constructor.
    pub fn with_migration(
        factory: F,
        bits: u8,
        seed: u64,
        grow_threshold: f64,
        policy: GrowthPolicy,
        migration: MigrationPolicy,
    ) -> Self {
        let mut table = Self::with_policy(factory, bits, seed, grow_threshold, policy);
        table.migration = migration;
        if let MigrationPolicy::Switch(choice) = migration {
            table.pending_switch = Some(choice);
        }
        table
    }

    /// The wrapped table (the current generation; during an incremental
    /// migration the draining generation is not reachable through this).
    pub fn inner(&self) -> &F::Table {
        &self.inner
    }

    /// Number of growth steps (started rehashes) so far.
    pub fn rehash_count(&self) -> usize {
        self.rehash_count
    }

    /// The growth threshold.
    pub fn grow_threshold(&self) -> f64 {
        self.grow_threshold
    }

    /// The growth policy.
    pub fn growth_policy(&self) -> GrowthPolicy {
        self.policy
    }

    /// The migration policy.
    pub fn migration_policy(&self) -> MigrationPolicy {
        self.migration
    }

    /// Cross-scheme migrations begun so far (growth doublings are counted
    /// by [`DynamicTable::rehash_count`], which includes these).
    pub fn scheme_switches(&self) -> usize {
        self.scheme_switches
    }

    /// Whether an incremental migration is currently in flight.
    pub fn is_migrating(&self) -> bool {
        self.old.is_some()
    }

    /// Entries still waiting in the draining generation (0 when no
    /// migration is in flight).
    pub fn migration_backlog(&self) -> usize {
        self.old.as_ref().map_or(0, |g| g.table.len())
    }

    /// Live entries across both generations.
    fn total_len(&self) -> usize {
        self.inner.len() + self.old.as_ref().map_or(0, |g| g.table.len())
    }

    /// Seed for a generation rebuilt at `bits` on retry `attempt`.
    fn generation_seed(&self, bits: u8, attempt: u64) -> u64 {
        self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(bits as u64 + attempt))
    }

    /// Republish the current generation's address for lock-free readers.
    fn publish_inner(&self) {
        self.inner_published
            .store(&*self.inner as *const F::Table as *mut F::Table, Ordering::Release);
    }

    /// Republish the draining generation's address (null when none).
    fn publish_old(&self) {
        let ptr = self
            .old
            .as_ref()
            .map_or(std::ptr::null_mut(), |g| &*g.table as *const F::Table as *mut F::Table);
        self.old_published.store(ptr, Ordering::Release);
    }

    /// Dispose of a replaced generation: park it in the graveyard while
    /// optimistic readers may still hold its address, drop it otherwise.
    fn retire(&mut self, table: Box<F::Table>) {
        if self.retain_retired {
            self.retired.push(table);
        }
    }

    /// End the in-flight migration: unpublish and retire the drained
    /// generation (no-op when none is in flight).
    fn drop_old(&mut self) {
        if let Some(generation) = self.old.take() {
            self.publish_old();
            self.retire(generation.table);
        }
    }

    /// Policy dispatch for a threshold-triggered doubling.
    fn grow(&mut self) -> Result<(), TableError> {
        match self.policy {
            GrowthPolicy::AllAtOnce => self.rebuild(self.bits + 1, 0),
            GrowthPolicy::Incremental { .. } => self.start_migration(),
        }
    }

    /// Begin a two-generation growth migration into a doubled table of
    /// the current scheme.
    fn start_migration(&mut self) -> Result<(), TableError> {
        self.begin_generation(self.bits + 1, None)
    }

    /// Begin a two-generation migration: allocate a fresh generation of
    /// `2^bits` slots — re-targeting the factory first when `factory` is
    /// given (a cross-scheme switch) — snapshot the old generation's
    /// keys, and hand all inserts to the new table. If a previous
    /// migration is still draining (possible only when deletes starved
    /// the drain budget, or a switch landed mid-growth), it is finished
    /// first so at most two generations ever exist.
    fn begin_generation(&mut self, bits: u8, factory: Option<F>) -> Result<(), TableError> {
        self.finish_migration()?;
        assert!(bits <= MAX_BITS, "dynamic table exceeded 2^{MAX_BITS} slots");
        if let Some(f) = factory {
            self.factory = f;
        }
        let fresh = Box::new(self.factory.build(bits, self.generation_seed(bits, 0)));
        let old_table = std::mem::replace(&mut self.inner, fresh);
        self.publish_inner();
        let pending = EntrySnapshot::keys_of(&*old_table);
        self.old = Some(OldGeneration { table: old_table, pending });
        self.publish_old();
        self.bits = bits;
        self.rehash_count += 1;
        Ok(())
    }

    /// Begin a live migration to `choice`'s scheme at the current
    /// capacity. Returns `Ok(false)` — without touching the table — when
    /// the switch is impossible or pointless: the factory cannot
    /// represent the choice, the table already is that scheme, or the
    /// capacity is below the target scheme's minimum (fingerprint groups
    /// need `2^4` slots). Under [`GrowthPolicy::AllAtOnce`] the switch is
    /// a stop-the-world rebuild; under incremental growth it drains like
    /// any other generation change.
    pub fn switch_to(&mut self, choice: TableChoice) -> Result<bool, TableError> {
        if self.factory.current_choice() == Some(choice) {
            return Ok(false);
        }
        let Some(factory) = self.factory.for_choice(choice) else {
            return Ok(false);
        };
        if choice == TableChoice::FpMult && (1usize << self.bits) < crate::GROUP_SLOTS {
            return Ok(false);
        }
        match self.policy {
            GrowthPolicy::AllAtOnce => {
                self.factory = factory;
                self.rebuild(self.bits, 0)?;
            }
            GrowthPolicy::Incremental { .. } => {
                self.begin_generation(self.bits, Some(factory))?;
            }
        }
        self.scheme_switches += 1;
        Ok(true)
    }

    /// Per-mutating-operation policy hook: consume a one-shot pending
    /// [`MigrationPolicy::Switch`], or run the adaptive controller every
    /// [`AdaptiveConfig::check_every`] ops.
    fn policy_tick(&mut self) -> Result<(), TableError> {
        if let Some(choice) = self.pending_switch.take() {
            self.switch_to(choice)?;
            return Ok(());
        }
        let MigrationPolicy::Adaptive(cfg) = self.migration else {
            return Ok(());
        };
        self.ops_since_check += 1;
        if self.ops_since_check < cfg.check_every.max(1) {
            return Ok(());
        }
        let ticks = self.ops_since_check;
        self.ops_since_check = 0;
        if self.cooldown_left > 0 {
            self.cooldown_left = self.cooldown_left.saturating_sub(ticks);
            return Ok(());
        }
        if self.is_migrating() {
            // Let the in-flight drain finish before re-deciding: a verdict
            // mid-drain would be judged on a half-moved table.
            return Ok(());
        }
        let snap = self.stats.snapshot();
        let lookups = snap.lookups.saturating_sub(self.last_eval.lookups);
        let writes = (snap.inserts + snap.deletes)
            .saturating_sub(self.last_eval.inserts + self.last_eval.deletes);
        self.last_eval = snap;
        if lookups < cfg.min_lookups {
            return Ok(());
        }
        let write_ratio = writes as f64 / (writes + lookups) as f64;
        let mutability = if write_ratio < ADAPTIVE_STATIC_WRITE_RATIO {
            Mutability::Static
        } else {
            Mutability::Dynamic
        };
        let observed = WorkloadProfile {
            load_factor: self.load_factor(),
            successful_ratio: 1.0 - snap.miss_ewma,
            write_ratio,
            dense_keys: false,
            mutability,
        };
        // The same graph walk `TableBuilder::for_profile` uses offline,
        // including its feasibility fallbacks (chained past its §4.5
        // budget falls to FP/RH) — here fed by *observed* signals.
        let desired = crate::builder::profile_choice(&observed, self.bits);
        if self.factory.current_choice() != Some(desired) && self.switch_to(desired)? {
            self.cooldown_left = cfg.cooldown;
        }
        Ok(())
    }

    /// Migrate up to `budget` old-generation keys into the current
    /// generation. Keys already deleted (or replaced — which moves them
    /// to the new generation) by the workload miss on pop and still
    /// consume budget; popping them is O(1) against the O(probe) of a
    /// real move, so the bound holds either way.
    fn migrate_step(&mut self, budget: usize) -> Result<(), TableError> {
        if self.old.is_none() {
            return Ok(());
        }
        let mut moved = 0usize;
        while moved < budget {
            let Some(gen) = self.old.as_mut() else { return Ok(()) };
            let Some(key) = gen.pending.pop() else {
                debug_assert!(gen.table.is_empty(), "pending drained but old generation not empty");
                self.drop_old();
                return Ok(());
            };
            moved += 1;
            if let Some(value) = gen.table.delete(key) {
                if let Err(e) = self.inner.insert(key, value) {
                    // Restore, then recover: capacity pressure in the new
                    // generation (cuckoo cycles) merges both generations
                    // through the stop-the-world fallback; anything else
                    // (a factory's memory budget) propagates.
                    let _ = gen.table.insert(key, value);
                    gen.pending.push(key);
                    match e {
                        TableError::TableFull | TableError::CuckooFailure => {
                            return self.rebuild(self.bits, 1);
                        }
                        e => return Err(e),
                    }
                }
            }
            if self.old.as_ref().is_some_and(|g| g.table.is_empty()) {
                self.drop_old();
                return Ok(());
            }
        }
        Ok(())
    }

    /// Drain the old generation completely (no-op when not migrating).
    fn finish_migration(&mut self) -> Result<(), TableError> {
        while self.old.is_some() {
            self.migrate_step(usize::MAX)?;
        }
        Ok(())
    }

    /// Stop-the-world rebuild of *everything* (both generations) into a
    /// fresh table of at least `2^start_bits` slots, retrying with fresh
    /// seeds — and eventually more bits — when the rebuild itself fails
    /// (possible for Cuckoo tables at unlucky seeds). This is both the
    /// [`GrowthPolicy::AllAtOnce`] growth path and the incremental
    /// policy's escape hatch. A factory memory budget that cannot hold
    /// the entries propagates as an error, leaving the table untouched —
    /// growing *more* on a budget failure would loop forever while
    /// allocating more memory.
    fn rebuild(&mut self, start_bits: u8, start_attempt: u64) -> Result<(), TableError> {
        let entries = {
            let mut v = Vec::with_capacity(self.total_len());
            self.for_each(&mut |k, val| v.push((k, val)));
            v
        };
        let mut bits = start_bits;
        let mut attempt = start_attempt;
        'outer: loop {
            assert!(bits <= MAX_BITS, "dynamic table exceeded 2^{MAX_BITS} slots");
            let mut bigger = self.factory.build(bits, self.generation_seed(bits, attempt));
            for &(k, v) in &entries {
                match bigger.insert(k, v) {
                    Ok(_) => {}
                    Err(e @ TableError::MemoryBudgetExceeded) => return Err(e),
                    Err(_) => {
                        attempt += 1;
                        if attempt.is_multiple_of(3) {
                            bits += 1;
                        }
                        continue 'outer;
                    }
                }
            }
            let prev = std::mem::replace(&mut self.inner, Box::new(bigger));
            self.publish_inner();
            self.drop_old();
            self.retire(prev);
            self.bits = bits;
            self.rehash_count += 1;
            return Ok(());
        }
    }

    /// The incremental drain budget for one operation (0 under
    /// [`GrowthPolicy::AllAtOnce`], which never has an old generation).
    fn step_budget(&self) -> usize {
        match self.policy {
            GrowthPolicy::AllAtOnce => 0,
            GrowthPolicy::Incremental { step } => step,
        }
    }
}

/// Lock-free reads over both generations, gated on generation retention.
///
/// A growing table is the one place where a scheme's slot allocation *is*
/// replaced: every doubling swaps in a fresh generation and drops the old
/// one. An optimistic reader that stamped before the swap could otherwise
/// probe freed memory. Two mechanisms close that hole:
///
/// * Generations are boxed and their addresses published through
///   [`AtomicPtr`]s (`Release` on swap, `Acquire` on probe), so a reader
///   never reads the concurrently rewritten `inner`/`old` fields.
/// * Replaced generations are parked in a graveyard instead of dropped
///   while `retain_retired_allocations(true)` is in effect — any address
///   a stale reader holds stays valid until
///   [`reclaim_retired`](crate::optimistic::ReadView::reclaim_retired)
///   is called through `&mut` (which proves no shared-phase reader
///   exists).
///
/// With retention off (the default), `supports_optimistic` is `false`
/// and every replaced generation drops immediately, exactly as before.
impl<F: TableFactory> crate::optimistic::ReadView for DynamicTable<F> {
    fn supports_optimistic(&self) -> bool {
        // `retain_retired` and the scheme's own support are both fixed
        // during any shared (reader) phase, so this is race-free.
        self.retain_retired && self.inner.supports_optimistic()
    }

    unsafe fn lookup_optimistic(&self, key: u64) -> Option<Option<u64>> {
        // Probe the published current generation, then the published
        // draining generation. A swap racing with this probe can make
        // the answer stale or torn — the caller's seqlock validation
        // rejects it — but never unsound: both loads see either a live
        // generation or a retained (still-allocated) one.
        let inner = self.inner_published.load(Ordering::Acquire);
        let result = 'probe: {
            if let Some(value) = (*inner).lookup_optimistic(key)? {
                break 'probe Some(value);
            }
            let old = self.old_published.load(Ordering::Acquire);
            if old.is_null() {
                break 'probe None;
            }
            (*old).lookup_optimistic(key)?
        };
        // Feed the adaptive controller even when reads bypass the lock:
        // the counters are relaxed atomics, so this write never data-races
        // a locked writer (which updates them through `&mut self`'s own
        // atomic path). A probe the caller's validation later rejects gets
        // re-counted by the locked retry — a rare, advisory-only skew.
        self.stats.record_lookups(1, result.is_none() as u64);
        Some(result)
    }

    fn retain_retired_allocations(&mut self, on: bool) {
        self.retain_retired = on;
        if !on {
            self.retired.clear();
        }
    }

    fn retired_bytes(&self) -> usize {
        self.retired.iter().map(|t| t.memory_bytes()).sum()
    }

    fn reclaim_retired(&mut self) {
        self.retired.clear();
    }
}

impl<F: TableFactory> HashTable for DynamicTable<F> {
    fn insert(&mut self, key: u64, value: u64) -> Result<InsertOutcome, TableError> {
        // Reserved keys are inert: no migration step, no growth — the
        // observable behaviour of an erroring insert must not include a
        // capacity change.
        if is_reserved_key(key) {
            return Err(TableError::ReservedKey);
        }
        self.stats.record_inserts(1);
        self.policy_tick()?;
        if self.old.is_some() {
            self.migrate_step(self.step_budget())?;
        }
        // Grow *before* the threshold is crossed. Lookups of existing keys
        // (replacements) never trigger growth, matching the paper's
        // element-count-based rehash policy.
        if crosses_threshold(self.threshold_fp, self.total_len() + 1, self.inner.capacity())
            && self.lookup(key).is_none()
        {
            self.grow()?;
        }
        // Insert into the current generation *first*: if it fails, the
        // table is untouched (claiming the key from the draining
        // generation before a fallible insert would lose the entry on the
        // error path). Only on success is any old-generation copy of the
        // key claimed, restoring generation disjointness and supplying
        // the replaced value.
        let outcome = loop {
            match self.inner.insert(key, value) {
                Ok(outcome) => break outcome,
                Err(TableError::TableFull) | Err(TableError::CuckooFailure) => {
                    // Capacity pressure the threshold missed (e.g. cuckoo
                    // cycles below threshold): rebuild and retry. The
                    // rebuild merges any draining generation, so a retried
                    // insert reports replacements naturally.
                    self.rebuild(self.bits + 1, 0)?;
                }
                // A reserved key was rejected above; a memory budget that
                // refuses the insert must reach the caller — growing on
                // it would allocate more while already over budget.
                Err(e) => return Err(e),
            }
        };
        let prev_old = self.old.as_mut().and_then(|g| g.table.delete(key));
        Ok(match prev_old {
            Some(prev) => {
                debug_assert_eq!(
                    outcome,
                    InsertOutcome::Inserted,
                    "key was in both generations at once"
                );
                InsertOutcome::Replaced(prev)
            }
            None => outcome,
        })
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        let inner_hit = if self.stats.lookups().is_multiple_of(PROBE_SAMPLE_EVERY) {
            let (v, steps) = self.inner.lookup_probed(key);
            self.stats.record_probe(steps as u64);
            v
        } else {
            self.inner.lookup(key)
        };
        let result = match inner_hit {
            Some(v) => Some(v),
            None => self.old.as_ref().and_then(|g| g.table.lookup(key)),
        };
        self.stats.record_lookups(1, result.is_none() as u64);
        result
    }

    fn delete(&mut self, key: u64) -> Option<u64> {
        self.stats.record_deletes(1);
        // A failed policy tick or drain step (factory budget) leaves both
        // generations consistent; the delete itself still proceeds.
        let _ = self.policy_tick();
        if self.old.is_some() {
            let _ = self.migrate_step(self.step_budget());
        }
        match self.inner.delete(key) {
            Some(v) => Some(v),
            None => self.old.as_mut().and_then(|g| g.table.delete(key)),
        }
    }

    // Reads and deletes never grow the table, so whole batches delegate
    // straight to the inner table's (prefetching) overrides whenever no
    // migration is in flight; mid-migration they run the two-pass on the
    // new generation and re-probe only the misses against the old one.
    // `insert_batch` deliberately keeps the element-by-element default:
    // each insert must re-check the growth threshold (and pay its own
    // drain step), and a mid-batch doubling invalidates any precomputed
    // home slots.
    fn lookup_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        // Stats cost per *batch*, not per key: one sampled probe when the
        // batch straddles a sampling point, plus two fetch_adds at the
        // end — the ≤ 2%-overhead budget of the shared read path.
        if let Some(&first) = keys.first() {
            let before = self.stats.lookups();
            if before / PROBE_SAMPLE_EVERY != (before + keys.len() as u64) / PROBE_SAMPLE_EVERY {
                let (_, steps) = self.inner.lookup_probed(first);
                self.stats.record_probe(steps as u64);
            }
        }
        self.inner.lookup_batch(keys, out);
        if let Some(gen) = self.old.as_ref() {
            let miss_keys: Vec<u64> =
                keys.iter().zip(out.iter()).filter(|(_, o)| o.is_none()).map(|(&k, _)| k).collect();
            if !miss_keys.is_empty() {
                let mut old_vals = vec![None; miss_keys.len()];
                gen.table.lookup_batch(&miss_keys, &mut old_vals);
                let mut it = old_vals.into_iter();
                for o in out.iter_mut().filter(|o| o.is_none()) {
                    *o = it.next().expect("one old-generation probe per miss");
                }
            }
        }
        let misses = out.iter().filter(|o| o.is_none()).count() as u64;
        self.stats.record_lookups(keys.len() as u64, misses);
    }

    fn delete_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "delete_batch: keys and out lengths differ");
        self.stats.record_deletes(keys.len() as u64);
        let _ = self.policy_tick();
        if self.old.is_some() {
            let budget = self.step_budget().saturating_mul(keys.len().max(1));
            let _ = self.migrate_step(budget);
        }
        self.inner.delete_batch(keys, out);
        if let Some(gen) = self.old.as_mut() {
            let miss_keys: Vec<u64> =
                keys.iter().zip(out.iter()).filter(|(_, o)| o.is_none()).map(|(&k, _)| k).collect();
            if miss_keys.is_empty() {
                return;
            }
            let mut old_vals = vec![None; miss_keys.len()];
            gen.table.delete_batch(&miss_keys, &mut old_vals);
            let mut it = old_vals.into_iter();
            for o in out.iter_mut().filter(|o| o.is_none()) {
                *o = it.next().expect("one old-generation delete per miss");
            }
        }
    }

    fn len(&self) -> usize {
        self.total_len()
    }

    fn capacity(&self) -> usize {
        // The target generation's capacity: where every entry will live
        // once the drain completes, and what the next trigger compares
        // against — identical to an AllAtOnce twin at every state.
        self.inner.capacity()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.old.as_ref().map_or(0, |g| g.table.memory_bytes() + g.pending.heap_bytes())
            + crate::optimistic::ReadView::retired_bytes(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, u64)) {
        self.inner.for_each(f);
        if let Some(gen) = self.old.as_ref() {
            gen.table.for_each(f);
        }
    }

    fn display_name(&self) -> String {
        self.inner.display_name()
    }

    fn table_stats(&self) -> Option<TableStats> {
        let mut s = self.stats.snapshot();
        s.rehashes = self.rehash_count as u64;
        s.scheme_switches = self.scheme_switches as u64;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{HashKind, TableBuilder, TableScheme};
    use crate::tests_common::*;
    use crate::{ChainedTable8, MemoryBudget};
    use hashfn::{HashFamily, Murmur};
    use slab_alloc::SlabAllocator;

    #[test]
    fn grows_on_threshold() {
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            1,
            0.5,
        );
        assert_eq!(t.capacity(), 16);
        for k in 1..=8u64 {
            t.insert(k, k).unwrap();
        }
        // Eight entries in sixteen slots sit exactly at the threshold.
        assert_eq!(t.capacity(), 16);
        assert_eq!(t.rehash_count(), 0);
        // The 9th key would cross 50% → the table doubles first.
        t.insert(9, 9).unwrap();
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.rehash_count(), 1);
        for k in 1..=9u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost in growth");
        }
    }

    #[test]
    fn replacement_does_not_grow() {
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            1,
            0.5,
        );
        for k in 1..=8u64 {
            t.insert(k, k).unwrap();
        }
        let cap = t.capacity();
        // Updating existing keys repeatedly must not trigger growth.
        for _ in 0..100 {
            t.insert(3, 99).unwrap();
        }
        assert_eq!(t.capacity(), cap);
    }

    #[test]
    fn sustained_inserts_grow_repeatedly() {
        let mut t = DynamicTable::new(TableBuilder::new(TableScheme::RobinHood), 4, 7, 0.9);
        for k in 1..=10_000u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert!(t.rehash_count() >= 9, "rehashed {} times", t.rehash_count());
        assert!(t.load_factor() <= 0.9 + 1e-9);
        for k in (1..=10_000u64).step_by(37) {
            assert_eq!(t.lookup(k), Some(k * 2));
        }
    }

    #[test]
    fn cuckoo_dynamic_handles_internal_failures() {
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::Cuckoo2).hash(HashKind::Murmur),
            4,
            3,
            0.45,
        );
        for k in 1..=5_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 5000);
        for k in (1..=5_000u64).step_by(17) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn chained_factories_track_nominal_capacity() {
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::Chained24).hash(HashKind::Murmur),
            6,
            1,
            0.5,
        );
        assert_eq!(t.capacity(), 64);
        for k in 1..=200u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.capacity() >= 512, "nominal capacity should have doubled repeatedly");
        for k in 1..=200u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn chained_directory_is_half_nominal() {
        // The documented convention: a `2^bits` nominal capacity gets a
        // `2^(bits-1)` directory. An empty table's footprint is exactly
        // the directory, which makes the invariant observable. `bits = 4`
        // is the regression case: `.max(4)` used to produce a directory
        // *equal* to the nominal capacity there.
        for bits in 2..=8u8 {
            let t8 = TableFactory::build(
                &TableBuilder::new(TableScheme::Chained8).hash(HashKind::Murmur),
                bits,
                1,
            );
            assert_eq!(t8.capacity(), 1 << bits, "H8 nominal at bits {bits}");
            assert_eq!(t8.memory_bytes(), (1usize << (bits - 1)) * 8, "H8 dir at bits {bits}");
            let t24 = TableFactory::build(
                &TableBuilder::new(TableScheme::Chained24).hash(HashKind::Murmur),
                bits,
                1,
            );
            assert_eq!(t24.capacity(), 1 << bits, "H24 nominal at bits {bits}");
            assert_eq!(t24.memory_bytes(), (1usize << (bits - 1)) * 24, "H24 dir at bits {bits}");
        }
    }

    #[test]
    fn model_semantics_preserved_across_growth() {
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::Quadratic).hash(HashKind::Murmur),
            4,
            5,
            0.7,
        );
        check_against_model(&mut t, 4000, 0xD1);
    }

    #[test]
    fn model_semantics_preserved_across_incremental_growth() {
        for step in [1usize, 4, 64] {
            let mut t = DynamicTable::with_policy(
                TableBuilder::new(TableScheme::Quadratic).hash(HashKind::Murmur),
                4,
                5,
                0.7,
                GrowthPolicy::Incremental { step },
            );
            check_against_model(&mut t, 4000, 0xD1);
        }
    }

    #[test]
    #[should_panic(expected = "grow threshold")]
    fn rejects_invalid_threshold() {
        let _ = DynamicTable::new(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            1,
            1.5,
        );
    }

    #[test]
    #[should_panic(expected = "step must be >= 1")]
    fn rejects_zero_migration_step() {
        let _ = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            1,
            0.5,
            GrowthPolicy::Incremental { step: 0 },
        );
    }

    #[test]
    fn incremental_and_all_at_once_twins_agree_element_wise() {
        // Drive both policies through an identical mixed stream; every
        // observable must match at every step, including the states where
        // the incremental table holds two generations.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut inc = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            9,
            0.7,
            GrowthPolicy::Incremental { step: 1 },
        );
        let mut aao = DynamicTable::new(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            9,
            0.7,
        );
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut saw_migration = false;
        for stepno in 0..6000 {
            let key = rng.gen_range(1..=900u64);
            match rng.gen_range(0..10u8) {
                0..=5 => {
                    let v = rng.gen::<u64>() >> 1;
                    assert_eq!(inc.insert(key, v), aao.insert(key, v), "step {stepno}");
                }
                6..=7 => assert_eq!(inc.delete(key), aao.delete(key), "step {stepno}"),
                _ => assert_eq!(inc.lookup(key), aao.lookup(key), "step {stepno}"),
            }
            assert_eq!(inc.len(), aao.len(), "step {stepno}: len");
            assert_eq!(inc.capacity(), aao.capacity(), "step {stepno}: capacity");
            assert_eq!(inc.rehash_count(), aao.rehash_count(), "step {stepno}: rehashes");
            saw_migration |= inc.is_migrating();
        }
        assert!(saw_migration, "step 1 over 900 keys must leave a migration observable");
        assert!(aao.rehash_count() >= 2, "stream must cross at least two generations");
    }

    #[test]
    fn migration_drains_at_step_rate_and_completes() {
        let mut t = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            2,
            0.5,
            GrowthPolicy::Incremental { step: 2 },
        );
        for k in 1..=8u64 {
            t.insert(k, k).unwrap();
        }
        assert!(!t.is_migrating());
        t.insert(9, 9).unwrap();
        assert!(t.is_migrating(), "crossing the threshold must start a migration");
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.len(), 9);
        let backlog = t.migration_backlog();
        assert!(backlog > 0 && backlog <= 8, "backlog {backlog}");
        // Deletes of not-yet-migrated keys must hit the old generation.
        assert_eq!(t.delete(1), Some(1));
        // Lookups see both generations.
        for k in 2..=9u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k} invisible mid-migration");
        }
        // Each further mutating op drains ≤ step entries; the backlog
        // must strictly shrink and reach zero.
        let mut ops = 0;
        while t.is_migrating() {
            t.insert(100 + ops, 100 + ops).unwrap();
            ops += 1;
            assert!(ops < 64, "migration never completed");
        }
        for k in 2..=9u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost after drain");
        }
    }

    #[test]
    fn replacing_an_unmigrated_key_reports_old_value() {
        let mut t = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            3,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=9u64 {
            t.insert(k, k * 10).unwrap();
        }
        assert!(t.is_migrating());
        // Some keys are still in the old generation; replacing any key
        // must report its previous value exactly once.
        for k in 1..=9u64 {
            assert_eq!(t.insert(k, k * 100), Ok(InsertOutcome::Replaced(k * 10)), "key {k}");
        }
        for k in 1..=9u64 {
            assert_eq!(t.lookup(k), Some(k * 100));
        }
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn incremental_cuckoo_survives_generation_failures() {
        // Cuckoo cycles inside the *new* generation force the rebuild
        // escape hatch mid-migration; no entry may be lost.
        let mut t = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::Cuckoo2).hash(HashKind::Murmur),
            4,
            3,
            0.45,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=5_000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 5000);
        for k in (1..=5_000u64).step_by(17) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn incremental_batches_see_both_generations() {
        let mut t = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::RobinHood).hash(HashKind::Murmur),
            4,
            5,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        for k in 1..=9u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.is_migrating());
        let keys: Vec<u64> = (1..=12u64).collect();
        let mut vals = vec![None; keys.len()];
        t.lookup_batch(&keys, &mut vals);
        for (&k, v) in keys.iter().zip(&vals) {
            let expect = if k <= 9 { Some(k * 3) } else { None };
            assert_eq!(*v, expect, "lookup_batch key {k}");
        }
        let mut removed = vec![None; keys.len()];
        t.delete_batch(&keys, &mut removed);
        for (&k, v) in keys.iter().zip(&removed) {
            let expect = if k <= 9 { Some(k * 3) } else { None };
            assert_eq!(*v, expect, "delete_batch key {k}");
        }
        assert_eq!(t.len(), 0);
    }

    /// A chained factory with a fixed byte budget — the configuration
    /// whose budget errors must propagate instead of triggering growth.
    #[derive(Clone)]
    struct BudgetedChained8 {
        budget_bytes: usize,
    }

    impl TableFactory for BudgetedChained8 {
        type Table = ChainedTable8<Murmur>;

        fn build(&self, bits: u8, seed: u64) -> Self::Table {
            ChainedTable8::new(
                bits.saturating_sub(1).max(1),
                HashFamily::from_seed(seed),
                SlabAllocator::new(),
                MemoryBudget::bytes(self.budget_bytes),
                Some(1usize << bits),
            )
        }

        fn scheme_name(&self) -> &'static str {
            "ChainedH8"
        }
    }

    #[test]
    fn memory_budget_errors_propagate_instead_of_growing() {
        // Room for the directory plus ~40 chain entries. The growth
        // threshold (90% of 2^8 = 230) sits far beyond what the budget
        // admits, so the budget error fires first. It used to be treated
        // as capacity pressure — growing (and allocating *more*) forever.
        let factory = BudgetedChained8 { budget_bytes: (1 << 7) * 8 + 40 * 24 };
        for policy in [GrowthPolicy::AllAtOnce, GrowthPolicy::Incremental { step: 4 }] {
            let mut t = DynamicTable::with_policy(factory.clone(), 8, 1, 0.9, policy);
            let mut inserted = 0u64;
            let err = loop {
                match t.insert(inserted + 1, inserted + 1) {
                    Ok(_) => inserted += 1,
                    Err(e) => break e,
                }
                assert!(inserted < 1000, "{policy:?}: budget never enforced");
            };
            assert_eq!(err, TableError::MemoryBudgetExceeded, "{policy:?}");
            assert!(inserted >= 30, "{policy:?}: only {inserted} inserts fit");
            // The failed insert must leave the table fully usable.
            assert_eq!(t.len() as u64, inserted, "{policy:?}");
            for k in 1..=inserted {
                assert_eq!(t.lookup(k), Some(k), "{policy:?}: key {k} lost after budget error");
            }
        }
    }

    #[test]
    fn failed_insert_never_loses_draining_entries() {
        // Mid-migration, a failing insert whose key still sits in the
        // draining generation must leave that entry in place: claiming it
        // before the (fallible) new-generation insert would lose it on
        // the budget-error path. The budget is tuned so the error fires
        // while a migration is in flight (dir 2^7 fits, dir 2^8 leaves
        // room for only ~60 of the ~95 live entries).
        let factory = BudgetedChained8 { budget_bytes: (1 << 7) * 8 + 60 * 24 };
        let mut t =
            DynamicTable::with_policy(factory, 6, 1, 0.5, GrowthPolicy::Incremental { step: 1 });
        let mut key = 0u64;
        let err = loop {
            key += 1;
            if let Err(e) = t.insert(key, key) {
                break e;
            }
            assert!(key < 10_000, "budget never enforced");
        };
        assert_eq!(err, TableError::MemoryBudgetExceeded);
        assert!(t.is_migrating(), "scenario must hit the budget mid-migration");
        let live = key - 1;
        let len_before = t.len();
        // Replacing keys still in the old generation makes the new
        // generation allocate a fresh node — over budget, so it errors.
        // The entry must survive the failed attempt.
        for k in 1..=live {
            match t.insert(k, k + 7000) {
                Ok(crate::InsertOutcome::Replaced(_)) => {}
                Ok(o) => panic!("key {k}: unexpected outcome {o:?}"),
                Err(TableError::MemoryBudgetExceeded) => {}
                Err(e) => panic!("key {k}: unexpected error {e:?}"),
            }
            assert!(t.lookup(k).is_some(), "key {k} lost by a failed replacement");
        }
        assert_eq!(t.len(), len_before, "failed replacements changed len");
    }

    #[test]
    fn threshold_trigger_is_exact_integer_math() {
        // For any threshold and capacity the trigger must flip exactly at
        // `floor(threshold_fp · cap / 2^32) + 1` — including the huge
        // capacities where the old `f64` comparison rounds.
        for thr in [0.5f64, 0.7, 0.9, 0.99] {
            let fp = (thr * (1u64 << 32) as f64).round() as u64;
            for bits in [4u8, 20, 39, 40] {
                let cap = 1usize << bits;
                let boundary = ((fp as u128 * cap as u128) >> 32) as usize;
                assert!(
                    !crosses_threshold(fp, boundary, cap),
                    "thr {thr} bits {bits}: fired one entry early"
                );
                assert!(
                    crosses_threshold(fp, boundary + 1, cap),
                    "thr {thr} bits {bits}: missed the trigger"
                );
            }
        }
        // The paper's 50% case stays bit-exact: 2^31 in Q32.
        assert!(!crosses_threshold(1 << 31, 8, 16));
        assert!(crosses_threshold(1 << 31, 9, 16));
    }

    #[test]
    fn retired_generations_accumulate_and_reclaim() {
        use crate::ReadView;
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            1,
            0.5,
        );
        assert!(!t.supports_optimistic(), "retention off must disable optimism");
        t.retain_retired_allocations(true);
        assert!(t.supports_optimistic());
        for k in 1..=200u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.rehash_count() >= 3);
        assert!(t.retired_bytes() > 0, "growth must have parked generations");
        assert!(t.memory_bytes() > t.inner().memory_bytes(), "retired bytes must be counted");
        let retired = t.retired_bytes();
        t.reclaim_retired();
        assert_eq!(t.retired_bytes(), 0, "reclaim must drop all {retired} retired bytes");
        // Switching retention off clears the graveyard from then on.
        for k in 201..=800u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.retired_bytes() > 0);
        t.retain_retired_allocations(false);
        assert_eq!(t.retired_bytes(), 0);
        assert!(!t.supports_optimistic());
    }

    #[test]
    fn optimistic_lookup_sees_both_generations() {
        use crate::ReadView;
        let mut t = DynamicTable::with_policy(
            TableBuilder::new(TableScheme::LinearProbing).hash(HashKind::Murmur),
            4,
            3,
            0.5,
            GrowthPolicy::Incremental { step: 1 },
        );
        t.retain_retired_allocations(true);
        for k in 1..=9u64 {
            t.insert(k, k * 7).unwrap();
        }
        assert!(t.is_migrating(), "the 9th insert must leave a migration in flight");
        // Quiescent (no racing writer), so every optimistic probe must
        // commit on the first attempt and agree with the locked path.
        for k in 1..=12u64 {
            let got = unsafe { t.lookup_optimistic(k) };
            assert_eq!(got, Some(t.lookup(k)), "key {k} mid-migration");
        }
    }

    #[test]
    fn unsupported_scheme_disables_dynamic_optimism() {
        use crate::ReadView;
        let mut t = DynamicTable::new(
            TableBuilder::new(TableScheme::Chained8).hash(HashKind::Murmur),
            6,
            1,
            0.5,
        );
        t.retain_retired_allocations(true);
        assert!(
            !t.supports_optimistic(),
            "chained inner tables must keep the dynamic wrapper pessimistic"
        );
    }

    /// A builder-backed dynamic table — the only factory whose
    /// generations can change scheme.
    fn builder_table(
        scheme: TableScheme,
        bits: u8,
        policy: GrowthPolicy,
        migration: MigrationPolicy,
    ) -> DynamicTable<TableBuilder> {
        DynamicTable::with_migration(TableBuilder::new(scheme), bits, 7, 0.9, policy, migration)
    }

    #[test]
    fn switch_to_rehomes_contents_incrementally() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 2 },
            MigrationPolicy::Grow,
        );
        for k in 1..=500u64 {
            t.insert(k, k * 3).unwrap();
        }
        assert!(t.inner().display_name().starts_with("LP"));
        assert_eq!(t.switch_to(TableChoice::FpMult), Ok(true));
        assert!(t.is_migrating(), "an incremental switch must open a draining generation");
        assert!(t.inner().display_name().starts_with("FP"), "new generation must be the target");
        assert_eq!(t.capacity(), 1 << 10, "a switch re-homes at the same capacity");
        assert_eq!(t.scheme_switches(), 1);
        // Every observable stays correct at every drain state.
        let mut model: std::collections::HashMap<u64, u64> =
            (1..=500u64).map(|k| (k, k * 3)).collect();
        let mut key = 500u64;
        while t.is_migrating() {
            key += 1;
            t.insert(key, key * 3).unwrap();
            model.insert(key, key * 3);
            assert_eq!(t.len(), model.len());
            for probe in [1u64, 250, 499, key, key + 1] {
                assert_eq!(t.lookup(probe), model.get(&probe).copied(), "key {probe} mid-drain");
            }
            assert!(key < 2000, "switch drain never completed");
        }
        for (k, v) in &model {
            assert_eq!(t.lookup(*k), Some(*v), "key {k} lost by the switch");
        }
        // Deletes mid-drain must hit the draining generation: switch
        // again and delete a key that has not migrated yet.
        assert_eq!(t.switch_to(TableChoice::RHMult), Ok(true));
        assert!(t.is_migrating());
        assert_eq!(t.delete(1), Some(3), "delete must reach the draining generation");
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn switch_to_all_at_once_is_a_stop_the_world_rebuild() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            8,
            GrowthPolicy::AllAtOnce,
            MigrationPolicy::Grow,
        );
        for k in 1..=100u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.switch_to(TableChoice::QPMult), Ok(true));
        assert!(!t.is_migrating(), "all-at-once switches leave no draining generation");
        assert!(t.inner().display_name().starts_with("QP"));
        assert_eq!(t.len(), 100);
        for k in 1..=100u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn switch_to_refuses_pointless_or_infeasible_targets() {
        // Already that scheme.
        let mut t = builder_table(
            TableScheme::RobinHood,
            8,
            GrowthPolicy::AllAtOnce,
            MigrationPolicy::Grow,
        );
        t.insert(1, 1).unwrap();
        assert_eq!(t.switch_to(TableChoice::RHMult), Ok(false));
        // A fingerprint target below one 16-slot group.
        let mut small = builder_table(
            TableScheme::LinearProbing,
            3,
            GrowthPolicy::AllAtOnce,
            MigrationPolicy::Grow,
        );
        assert_eq!(small.switch_to(TableChoice::FpMult), Ok(false));
        // A factory that cannot re-target (one fixed to a single table type).
        let mut fixed = DynamicTable::new(BudgetedChained8 { budget_bytes: 1 << 20 }, 8, 1, 0.9);
        assert_eq!(fixed.switch_to(TableChoice::FpMult), Ok(false));
        assert_eq!(t.scheme_switches() + small.scheme_switches() + fixed.scheme_switches(), 0);
    }

    #[test]
    fn pending_switch_fires_on_first_mutating_op() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            8,
            GrowthPolicy::AllAtOnce,
            MigrationPolicy::Switch(TableChoice::FpMult),
        );
        assert_eq!(t.migration_policy(), MigrationPolicy::Switch(TableChoice::FpMult));
        assert!(t.inner().display_name().starts_with("LP"), "switch is lazy until a mutation");
        assert_eq!(t.scheme_switches(), 0);
        t.insert(1, 10).unwrap();
        assert!(t.inner().display_name().starts_with("FP"));
        assert_eq!(t.scheme_switches(), 1);
        assert_eq!(t.lookup(1), Some(10), "the triggering insert must land in the new scheme");
        // One-shot: later mutations do not re-switch.
        t.insert(2, 20).unwrap();
        assert_eq!(t.scheme_switches(), 1);
    }

    /// Small controller windows so tests converge in a few hundred ops.
    const TEST_ADAPTIVE: AdaptiveConfig =
        AdaptiveConfig { check_every: 8, min_lookups: 32, cooldown: 64 };

    #[test]
    fn adaptive_switches_lp_to_fp_when_misses_dominate() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 8 },
            MigrationPolicy::Adaptive(TEST_ADAPTIVE),
        );
        // Build phase: ~59% load, no lookups yet.
        for k in 1..=600u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.inner().display_name().starts_with("LP"));
        // Probe phase: read-mostly (1 write per 100 lookups) and ~100%
        // miss — the decision graph's static miss-heavy mid-load band,
        // which recommends the fingerprint filter.
        let mut switched_at = None;
        for round in 0..300u64 {
            for i in 0..100u64 {
                assert_eq!(t.lookup(1_000_000 + round * 100 + i), None);
            }
            // The rare mutation that funds controller ticks and drain.
            t.delete(2_000_000 + round);
            if switched_at.is_none() && t.scheme_switches() > 0 {
                switched_at = Some(round);
            }
            if switched_at.is_some() && !t.is_migrating() {
                break;
            }
        }
        assert!(switched_at.is_some(), "controller never reacted to the miss-heavy phase");
        assert!(!t.is_migrating(), "drain never completed");
        assert!(
            t.inner().display_name().starts_with("FP"),
            "miss-heavy reads should land on the fingerprint table, got {}",
            t.inner().display_name()
        );
        for k in (1..=600u64).step_by(29) {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost by the adaptive switch");
        }
        let stats = t.table_stats().expect("dynamic tables report runtime stats");
        assert_eq!(stats.scheme_switches, t.scheme_switches() as u64);
        assert!(
            stats.miss_ewma > 0.9,
            "EWMA {:.3} should have tracked the misses",
            stats.miss_ewma
        );
    }

    #[test]
    fn adaptive_returns_to_lp_when_hits_dominate_at_low_load() {
        let mut t = builder_table(
            TableScheme::Fingerprint,
            10,
            GrowthPolicy::Incremental { step: 8 },
            MigrationPolicy::Adaptive(TEST_ADAPTIVE),
        );
        // ~29% load — the graph's low-load band, where successful reads
        // recommend plain linear probing.
        for k in 1..=300u64 {
            t.insert(k, k * 2).unwrap();
        }
        for round in 0..300u64 {
            for i in 0..100u64 {
                assert_eq!(
                    t.lookup(1 + (round * 100 + i) % 300),
                    Some((1 + (round * 100 + i) % 300) * 2)
                );
            }
            t.delete(2_000_000 + round);
            if t.scheme_switches() > 0 && !t.is_migrating() {
                break;
            }
        }
        assert!(t.scheme_switches() > 0, "controller never reacted to the hit-heavy phase");
        assert!(
            t.inner().display_name().starts_with("LP"),
            "hit-heavy low-load reads should land on LP, got {}",
            t.inner().display_name()
        );
        for k in (1..=300u64).step_by(17) {
            assert_eq!(t.lookup(k), Some(k * 2));
        }
    }

    #[test]
    fn adaptive_respects_cooldown_between_switches() {
        // After a switch the controller must hold still for `cooldown`
        // mutating ops even though the profile still disagrees — no
        // flapping while the EWMA catches up.
        let cfg = AdaptiveConfig { check_every: 4, min_lookups: 8, cooldown: 10_000 };
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 64 },
            MigrationPolicy::Adaptive(cfg),
        );
        for k in 1..=600u64 {
            t.insert(k, k).unwrap();
        }
        // Miss-heavy burst → one switch.
        for round in 0..200u64 {
            for i in 0..50u64 {
                let _ = t.lookup(1_000_000 + round * 50 + i);
            }
            t.delete(2_000_000 + round);
        }
        assert_eq!(t.scheme_switches(), 1, "cooldown must pin the table after the first switch");
    }

    #[test]
    fn cross_scheme_retirees_account_exact_bytes() {
        use crate::ReadView;
        let mut t = builder_table(
            TableScheme::LinearProbing,
            10,
            GrowthPolicy::Incremental { step: 4 },
            MigrationPolicy::Grow,
        );
        t.retain_retired_allocations(true);
        for k in 1..=500u64 {
            t.insert(k, k).unwrap();
        }
        let lp_bytes = t.inner().memory_bytes();
        assert_eq!(t.switch_to(TableChoice::FpMult), Ok(true));
        let mut key = 500u64;
        while t.is_migrating() {
            key += 1;
            t.insert(key, key).unwrap();
            assert!(key < 5000, "drain never completed");
        }
        // The drained LP generation is parked, and its exact footprint —
        // an array scheme's bytes depend only on capacity, so the figure
        // is knowable in advance — shows up in the retiree accounting.
        assert_eq!(t.retired_bytes(), lp_bytes, "retired LP generation must be charged exactly");
        assert!(t.memory_bytes() >= t.inner().memory_bytes() + lp_bytes);
        t.reclaim_retired();
        assert_eq!(t.retired_bytes(), 0);
        for k in (1..=key).step_by(31) {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn switch_during_growth_drain_finishes_the_growth_first() {
        // A switch landing while a growth migration is still draining
        // must finish that drain stop-the-world before opening the new
        // generation — at most two generations ever exist.
        let mut t = builder_table(
            TableScheme::LinearProbing,
            4,
            GrowthPolicy::Incremental { step: 1 },
            MigrationPolicy::Grow,
        );
        for k in 1..=15u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.is_migrating(), "the growth drain must still be in flight");
        assert_eq!(t.switch_to(TableChoice::RHMult), Ok(true));
        assert!(t.inner().display_name().starts_with("RH"));
        for k in 1..=15u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k} lost across growth+switch");
        }
        let mut key = 15u64;
        while t.is_migrating() {
            key += 1;
            t.insert(key, key).unwrap();
            assert!(key < 500, "switch drain never completed");
        }
        for k in 1..=key {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn runtime_stats_flow_through_the_dynamic_wrapper() {
        let mut t = builder_table(
            TableScheme::LinearProbing,
            8,
            GrowthPolicy::AllAtOnce,
            MigrationPolicy::Grow,
        );
        for k in 1..=50u64 {
            t.insert(k, k).unwrap();
        }
        for k in 1..=100u64 {
            let _ = t.lookup(k);
        }
        t.delete(1);
        let s = t.table_stats().expect("dynamic tables report stats");
        assert_eq!(s.lookups, 100);
        assert_eq!(s.misses, 50);
        assert_eq!(s.inserts, 50);
        assert_eq!(s.deletes, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
        assert!(s.probe_samples > 0, "the sampled probe path must have fired");
        assert!(s.mean_probe_len() >= 1.0);
        assert_eq!(s.rehashes, 0);
    }
}
