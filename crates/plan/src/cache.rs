//! Sharded, epoch-keyed plan cache.
//!
//! Planning is by far the hottest pure-CPU path in workload evaluation:
//! the System-R enumerator runs a DP over connected subsets per query,
//! and evaluation harnesses re-plan the same queries across training
//! iterations, hint-set sweeps, and A/B comparisons. This cache memoizes
//! `Planner::best_plan` results so repeated (query, hints) pairs cost a
//! hash lookup.
//!
//! # Keying and invalidation
//!
//! The cache key is `(fingerprint, epoch)`:
//!
//! * **fingerprint** — [`Query::fingerprint`] (structure *and*
//!   constants, so two queries share an entry only if the planner must
//!   produce the same plan) folded with the [`HintSet::bits`] of the
//!   active hints.
//! * **epoch** — a hash of everything else the planner consults, i.e.
//!   the [`CostWeights`] (see [`epoch_of`]). Learned calibration (e.g.
//!   ParamTree updating R-params) changes the weights, which changes the
//!   epoch, which makes every old entry unreachable — stale plans are
//!   never served; they age out rather than being eagerly evicted.
//!
//! # Concurrency and determinism
//!
//! Entries live in [`SHARDS`](PlanCache::with_shards) independent
//! mutex-guarded maps ([`Shards`]) selected by [`CacheKey::shard`], so
//! parallel evaluation threads rarely contend. Values are computed
//! *outside* the shard lock:
//! two threads racing on the same key may both plan, but the planner is
//! deterministic, so whichever insert lands last is byte-identical to
//! the other — cached results can never depend on scheduling. Hit/miss
//! counters are monotone atomics (a lost race counts as a miss, which
//! keeps the accounting honest about work actually performed).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ml4db_storage::CostWeights;

use crate::hints::HintSet;
use crate::plan::PlanNode;
use crate::query::Query;

/// Hashes the cost-model weights into a cache epoch. Uses `f64::to_bits`
/// so any observable change to any weight — however small — moves to a
/// fresh epoch (and `-0.0` vs `0.0` conservatively count as different).
pub fn epoch_of(weights: &CostWeights) -> u64 {
    let mut h = ml4db_obs::digest::Fingerprint::new();
    for w in [
        weights.seq_page,
        weights.random_page,
        weights.cpu_tuple,
        weights.cpu_compare,
        weights.hash_build,
        weights.hash_probe,
        weights.sort_op,
    ] {
        h.u64(w.to_bits());
    }
    h.finish()
}

/// A fully-resolved cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query fingerprint folded with the hint-set bits.
    pub fingerprint: u64,
    /// Cost-model epoch (see [`epoch_of`]).
    pub epoch: u64,
}

impl CacheKey {
    /// Builds the key for planning `query` under `hints` at `epoch`.
    pub fn new(query: &Query, hints: HintSet, epoch: u64) -> Self {
        Self::of_fingerprint(query.fingerprint(), hints, epoch)
    }

    /// [`CacheKey::new`] from an already computed [`Query::fingerprint`],
    /// for callers that key several hint sets of one query.
    pub fn of_fingerprint(fingerprint: u64, hints: HintSet, epoch: u64) -> Self {
        // Splitmix-style fold keeps hint variants of one query from
        // clustering in the same shard.
        let folded = (fingerprint ^ u64::from(hints.bits())).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self { fingerprint: folded, epoch }
    }

    /// Like [`CacheKey::new`], additionally distinguished by an
    /// estimator `tag` — for callers that plan the same query with
    /// different cardinality estimators (e.g. a lifecycle gate scoring a
    /// shadow candidate against the incumbent and the classical
    /// baseline). Tag `0` is the untagged serving path: it produces the
    /// exact key [`CacheKey::new`] would.
    pub fn tagged(query: &Query, hints: HintSet, epoch: u64, tag: u64) -> Self {
        let base = Self::new(query, hints, epoch);
        Self {
            fingerprint: base.fingerprint ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
            epoch: base.epoch,
        }
    }

    /// The key's shard among `n`: the multiply-high of the golden-ratio
    /// mix of both halves onto `0..n`. Both halves are hashes already, so
    /// one multiply spreads them.
    pub fn shard(&self, n: usize) -> usize {
        let mixed = (self.fingerprint ^ self.epoch).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((u128::from(mixed) * n as u128) >> 64) as usize
    }
}

/// One mutex-guarded map per shard, a key's shard picked by
/// [`CacheKey::shard`]: [`PlanCache`]'s plans and `ml4db-optimizer`'s
/// expert-latency memo. Every lock recovers from poisoning: a worker that
/// panicked holding one (e.g. a faulty learned component inside a
/// `par_map` evaluation) must not take the cache down, and the maps only
/// ever hold fully-constructed values.
pub struct Shards<V> {
    maps: Vec<Mutex<HashMap<CacheKey, V>>>,
}

impl<V: Clone + Send> Shards<V> {
    /// `n` empty shards (minimum 1).
    pub fn new(n: usize) -> Self {
        Self { maps: (0..n.max(1)).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn lock(map: &Mutex<HashMap<CacheKey, V>>) -> MutexGuard<'_, HashMap<CacheKey, V>> {
        map.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shard(&self, key: &CacheKey) -> MutexGuard<'_, HashMap<CacheKey, V>> {
        Self::lock(&self.maps[key.shard(self.maps.len())])
    }

    /// A copy of the value stored under `key`.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.shard(key).get(key).cloned()
    }

    /// Stores `value` under `key`.
    pub fn insert(&self, key: CacheKey, value: V) {
        self.shard(&key).insert(key, value);
    }

    /// Poisons every shard the way a panicking worker would, so tests
    /// can prove a poisoned shard never wedges a caller. Test hook only.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        for m in &self.maps {
            let _ = std::thread::scope(|s| {
                s.spawn(|| {
                    let _guard = m.lock().unwrap();
                    panic!("poison the shard");
                })
                .join()
            });
            assert!(m.is_poisoned());
        }
    }
}

/// Sharded memoization of `best_plan` results, keyed by
/// ([`CacheKey::fingerprint`], [`CacheKey::epoch`]).
///
/// Values are `Option<PlanNode>` so "this hint set admits no plan" is
/// cached too — re-probing an impossible hint set should be as cheap as
/// re-probing a possible one.
pub struct PlanCache {
    shards: Shards<Option<PlanNode>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_shards(16)
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.maps.len())
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl PlanCache {
    /// A cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with `n` shards (minimum 1). More shards means less
    /// contention under parallel evaluation; 16 is plenty for the pool
    /// sizes `ml4db_par` will spawn.
    pub fn with_shards(n: usize) -> Self {
        Self {
            shards: Shards::new(n),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached plan for `key`, or computes it with `plan_fn`,
    /// stores it, and returns it. `plan_fn` runs outside the shard lock;
    /// it must be a deterministic function of the key (see module docs).
    pub fn get_or_insert_with(
        &self,
        key: CacheKey,
        plan_fn: impl FnOnce() -> Option<PlanNode>,
    ) -> Option<PlanNode> {
        if let Some(cached) = self.shards.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Self::observe_lookup(true);
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Self::observe_lookup(false);
        let value = plan_fn();
        self.shards.insert(key, value.clone());
        value
    }

    /// Reports one lookup to the observability sink: a per-query
    /// [`ml4db_obs::Event::CacheLookup`] plus hit/miss counters.
    fn observe_lookup(hit: bool) {
        ml4db_obs::emit_with(|| ml4db_obs::Event::CacheLookup { cache: "plan_cache", hit });
        ml4db_obs::counter_add(if hit { "plan_cache.hit" } else { "plan_cache.miss" }, 1);
    }

    /// Probes without computing on miss.
    pub fn get(&self, key: &CacheKey) -> Option<Option<PlanNode>> {
        let found = self.shards.get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        Self::observe_lookup(found.is_some());
        found
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to (or would have to) plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from cache; 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Entries currently resident (across every epoch still stored).
    pub fn len(&self) -> usize {
        self.shards.maps.iter().map(|m| Shards::lock(m).len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and zeroes the counters.
    pub fn clear(&self) {
        for m in &self.shards.maps {
            Shards::lock(m).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::ClassicEstimator;
    use crate::enumerate::Planner;
    use crate::CostModel;
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use ml4db_storage::{CmpOp, Database};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(5);
        let cat = joblite(&DatasetConfig { base_rows: 100, ..Default::default() }, &mut rng);
        Database::analyze(cat, &mut rng)
    }

    fn planner(model: CostModel) -> Planner {
        Planner { cost_model: model, hint: HintSet::all(), ..Default::default() }
    }

    fn two_way(year: f64) -> Query {
        Query::new(&["title", "cast_info"])
            .join(0, "id", 1, "movie_id")
            .filter(0, "year", CmpOp::Ge, year)
    }

    /// Both constants were computed with std's default hasher before the
    /// fingerprint moved to `ml4db_obs::digest`: every plan-cache key,
    /// training seed and golden trace id rests on them.
    #[test]
    fn query_fingerprint_and_epoch_are_pinned() {
        assert_eq!(format!("{:016x}", two_way(2000.0).fingerprint()), "9018f9d3f97be403");
        assert_eq!(format!("{:016x}", epoch_of(&CostModel::default().weights)), "5c01bbd33a8f5b83");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let db = db();
        let cache = PlanCache::new();
        let model = CostModel::default();
        let epoch = epoch_of(&model.weights);
        let planner = planner(model);
        let q = two_way(2000.0);
        let key = CacheKey::new(&q, HintSet::all(), epoch);

        let first =
            cache.get_or_insert_with(key, || planner.best_plan(&db, &q, &ClassicEstimator));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.get_or_insert_with(key, || panic!("must not re-plan"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
        assert!(cache.hit_rate() > 0.49 && cache.hit_rate() < 0.51);
    }

    #[test]
    fn distinct_constants_do_not_collide() {
        let cache = PlanCache::new();
        let epoch = 7;
        let k1 = CacheKey::new(&two_way(2000.0), HintSet::all(), epoch);
        let k2 = CacheKey::new(&two_way(1990.0), HintSet::all(), epoch);
        assert_ne!(k1, k2);
        cache.get_or_insert_with(k1, || None);
        cache.get_or_insert_with(k2, || None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn hint_bits_distinguish_entries() {
        let q = two_way(2000.0);
        let k_all = CacheKey::new(&q, HintSet::all(), 1);
        let k_nl = CacheKey::new(&q, HintSet { nested_loop: false, ..HintSet::all() }, 1);
        assert_ne!(k_all, k_nl);
    }

    #[test]
    fn epoch_change_invalidates() {
        let db = db();
        let cache = PlanCache::new();
        let q = two_way(2000.0);

        let m1 = CostModel::default();
        let planner1 = planner(m1);
        let k1 = CacheKey::new(&q, HintSet::all(), epoch_of(&m1.weights));
        cache.get_or_insert_with(k1, || planner1.best_plan(&db, &q, &ClassicEstimator));

        // Recalibrate one weight: new epoch, old entry unreachable.
        let mut m2 = CostModel::default();
        m2.weights.random_page *= 1.5;
        let planner2 = planner(m2);
        let k2 = CacheKey::new(&q, HintSet::all(), epoch_of(&m2.weights));
        assert_ne!(k1, k2, "weight change must move the epoch");
        let mut replanned = false;
        cache.get_or_insert_with(k2, || {
            replanned = true;
            planner2.best_plan(&db, &q, &ClassicEstimator)
        });
        assert!(replanned, "stale entry must not satisfy the new epoch");
        assert_eq!(cache.misses(), 2);

        // Same weights → same epoch, order-independent.
        assert_eq!(epoch_of(&m1.weights), epoch_of(&CostModel::default().weights));
    }

    #[test]
    fn survives_poisoned_shard() {
        let cache = PlanCache::with_shards(1);
        let key = CacheKey { fingerprint: 42, epoch: 1 };
        cache.get_or_insert_with(key, || None);
        // Poison the single shard from a panicking thread.
        cache.shards.poison_for_test();
        // Reads, writes, len and clear must all keep working.
        assert_eq!(cache.get(&key), Some(None));
        let other = CacheKey { fingerprint: 43, epoch: 1 };
        cache.get_or_insert_with(other, || None);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let db = db();
        let cache = PlanCache::with_shards(4);
        let model = CostModel::default();
        let epoch = epoch_of(&model.weights);
        let planner = planner(model);
        let queries: Vec<Query> =
            (0..16).map(|i| two_way(1980.0 + f64::from(i))).collect();

        // One pass = 4 threads x 16 lookups, released together by a
        // barrier so the passes really overlap.
        let pass = || -> Vec<Vec<Option<PlanNode>>> {
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            queries
                                .iter()
                                .map(|q| {
                                    let key = CacheKey::new(q, HintSet::all(), epoch);
                                    cache.get_or_insert_with(key, || {
                                        planner.best_plan(&db, q, &ClassicEstimator)
                                    })
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        // Cold pass: threads race to plan the same keys. How many of the
        // 64 lookups miss depends on the interleaving (16 if one thread
        // runs ahead, up to 64 in lockstep); what must hold regardless is
        // that every lookup is counted once, every key is planned at
        // least once, and exactly the 16 keys end up resident.
        let cold = pass();
        for r in &cold[1..] {
            assert_eq!(r, &cold[0], "all threads must observe identical plans");
        }
        assert_eq!(cache.hits() + cache.misses(), 64);
        assert!(cache.misses() >= 16);
        assert_eq!(cache.len(), 16);

        // Warm pass: every key is resident, so all 64 concurrent lookups
        // hit and return the plans the cold pass settled on.
        let (hits, misses) = (cache.hits(), cache.misses());
        let warm = pass();
        for r in &warm {
            assert_eq!(r, &cold[0], "warm lookups must return the cached plans");
        }
        assert_eq!(cache.hits() - hits, 64, "every warm lookup must hit");
        assert_eq!(cache.misses(), misses);
        assert_eq!(cache.len(), 16);
    }
}
