//! Seeded input generators. Every input the program under test receives
//! is made here — from `--seed`, except the content the two join workloads
//! pin (see [`PINNED_CONTENT_SEED`]); the program sees only the generated
//! `Query` / key values, never the seed or the workload's name.

use std::collections::HashSet;

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::Zipf;

use ml4db_datagen::{SchemaGraph, WorkloadConfig, WorkloadGenerator};
use ml4db_plan::Query;
use ml4db_storage::datasets::{joblite, DatasetConfig};
use ml4db_storage::{CmpOp, Database};

/// Seed of the *content* the two join workloads pin (data instance, query
/// pool, training stream). Join cost is heavy-tailed — a handful of queries
/// carry most of a block's time — so content drawn from `--seed` moved
/// throughput by 10–15 % from seed to seed on top of the host's own noise,
/// more than any bound could absorb. `analytic_closed` and `learned_plan`
/// therefore draw their content from this constant and use `--seed` for
/// the order requests arrive in; `point_closed` and `kv_durable`, whose
/// operations cost about the same whatever the draw, take everything from
/// `--seed`.
pub const PINNED_CONTENT_SEED: u64 = 42;

/// An independent RNG stream for one purpose (`salt`) under one seed.
pub fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A fresh analyzed `joblite` instance with the given secondary indexes.
pub fn joblite_db(seed: u64, base_rows: usize, indexes: &[(&str, &str)]) -> Database {
    let mut rng = rng_for(seed, 1);
    let mut db = Database::analyze(
        joblite(
            &DatasetConfig {
                base_rows,
                ..Default::default()
            },
            &mut rng,
        ),
        &mut rng,
    );
    for (table, column) in indexes {
        db.add_index(table, column);
    }
    db
}

/// The bounded hot set of `point_closed`: `n` distinct single-table
/// queries on `title`, 80 % equality lookups on `id` and 20 % one-year
/// ranges on `year`.
pub fn point_hot_set(n: usize, n_titles: usize, rng: &mut StdRng) -> Vec<Query> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let q = if out.len() % 5 == 4 {
            let year = f64::from(rng.gen_range(1950..2023));
            Query::new(&["title"])
                .filter(0, "year", CmpOp::Ge, year)
                .filter(0, "year", CmpOp::Le, year)
        } else {
            let id = rng.gen_range(0..n_titles) as f64;
            Query::new(&["title"]).filter(0, "id", CmpOp::Eq, id)
        };
        if seen.insert(q.fingerprint()) {
            out.push(q);
        }
    }
    out
}

/// A stream of generated join queries in which no fingerprint repeats:
/// a query whose fingerprint was already issued is redrawn, so every
/// request misses every plan cache.
pub struct FreshQueries {
    generator: WorkloadGenerator,
    seen: HashSet<u64>,
    rng: StdRng,
}

impl FreshQueries {
    pub fn new(config: WorkloadConfig, rng: StdRng) -> Self {
        Self {
            generator: WorkloadGenerator::new(SchemaGraph::joblite(), config),
            seen: HashSet::new(),
            rng,
        }
    }

    pub fn next(&mut self, db: &Database) -> Query {
        loop {
            let q = self.generator.generate(db, &mut self.rng);
            if self.seen.insert(q.fingerprint()) {
                return q;
            }
        }
    }

    pub fn take(&mut self, db: &Database, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next(db)).collect()
    }
}

/// One key-value operation of `kv_durable`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    Get(u64),
    Put(u64, u64),
    /// Inclusive key range.
    Range(u64, u64),
}

/// Loaded keys are spaced this far apart so that new keys can land
/// between them and a 100-key range has a fixed width in key space.
pub const KV_KEY_STRIDE: u64 = 16;
const KV_RANGE_KEYS: u64 = 100;

/// The `i`-th key loaded during set-up.
pub fn kv_loaded_key(i: u64) -> u64 {
    i * KV_KEY_STRIDE
}

/// The `kv_durable` op stream: 50 % `get` (zipf over loaded keys), 45 %
/// `put` (half overwrites of loaded keys, half new keys between them),
/// 5 % `range` of 100 loaded keys.
pub struct KvStream {
    rng: StdRng,
    zipf: Zipf,
    loaded: u64,
}

impl KvStream {
    pub fn new(loaded: u64, rng: StdRng) -> Self {
        Self {
            rng,
            zipf: Zipf::new(loaded, 0.99).expect("valid zipf"),
            loaded,
        }
    }

    /// A zipf-ranked loaded key; ranks are scattered over the key space
    /// so the hot keys do not share a run.
    fn hot_key(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng) as u64 - 1;
        kv_loaded_key(rank.wrapping_mul(2_654_435_761) % self.loaded)
    }

    pub fn next(&mut self) -> KvOp {
        let roll = self.rng.gen_range(0..100u32);
        if roll < 50 {
            KvOp::Get(self.hot_key())
        } else if roll < 95 {
            let value = self.rng.gen::<u64>();
            if roll % 2 == 0 {
                KvOp::Put(self.hot_key(), value)
            } else {
                let base = kv_loaded_key(self.rng.gen_range(0..self.loaded));
                KvOp::Put(base + self.rng.gen_range(1..KV_KEY_STRIDE), value)
            }
        } else {
            let lo = kv_loaded_key(self.rng.gen_range(0..self.loaded - KV_RANGE_KEYS));
            KvOp::Range(lo, lo + KV_RANGE_KEYS * KV_KEY_STRIDE - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_emit_identical_streams_and_other_seeds_differ() {
        let kv = |seed: u64| {
            let mut s = KvStream::new(5_000, rng_for(seed, 9));
            (0..500).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(kv(42), kv(42));
        assert_ne!(kv(42), kv(7));

        let hot = |seed: u64| {
            point_hot_set(96, 1_000, &mut rng_for(seed, 2))
                .iter()
                .map(Query::fingerprint)
                .collect::<Vec<_>>()
        };
        assert_eq!(hot(42), hot(42));
        assert_ne!(hot(42), hot(7));

        let db = joblite_db(3, 60, &[]);
        let joins = |seed: u64| {
            FreshQueries::new(WorkloadConfig::default(), rng_for(seed, 3))
                .take(&db, 40)
                .iter()
                .map(Query::fingerprint)
                .collect::<Vec<_>>()
        };
        assert_eq!(joins(42), joins(42));
        assert_ne!(joins(42), joins(7));
    }

    #[test]
    fn hot_set_is_distinct_with_the_stated_mix() {
        let hot = point_hot_set(96, 20_000, &mut rng_for(1, 2));
        let distinct: HashSet<u64> = hot.iter().map(Query::fingerprint).collect();
        assert_eq!(distinct.len(), 96);
        let ranges = hot.iter().filter(|q| q.predicates.len() == 2).count();
        assert_eq!(ranges, 96 / 5);
    }

    #[test]
    fn fresh_queries_never_repeat_a_fingerprint() {
        let db = joblite_db(5, 60, &[]);
        let qs = FreshQueries::new(WorkloadConfig::default(), rng_for(5, 3)).take(&db, 300);
        let distinct: HashSet<u64> = qs.iter().map(Query::fingerprint).collect();
        assert_eq!(distinct.len(), 300);
    }

    #[test]
    fn kv_mix_matches_the_stated_shares() {
        let mut s = KvStream::new(10_000, rng_for(11, 9));
        let ops: Vec<KvOp> = (0..20_000).map(|_| s.next()).collect();
        let share = |f: fn(&KvOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 20_000.0;
        assert!((share(|o| matches!(o, KvOp::Get(_))) - 0.50).abs() < 0.02);
        assert!((share(|o| matches!(o, KvOp::Put(..))) - 0.45).abs() < 0.02);
        assert!((share(|o| matches!(o, KvOp::Range(..))) - 0.05).abs() < 0.01);
        let new_keys = ops
            .iter()
            .filter(|o| matches!(o, KvOp::Put(k, _) if k % KV_KEY_STRIDE != 0))
            .count() as f64;
        let puts = ops.iter().filter(|o| matches!(o, KvOp::Put(..))).count() as f64;
        assert!((new_keys / puts - 0.5).abs() < 0.05);
    }
}
