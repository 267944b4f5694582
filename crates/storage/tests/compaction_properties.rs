//! Property test for size-tiered compaction: whatever order puts,
//! deletes, commits, flushes and reopens arrive in, the store answers
//! exactly like a `BTreeMap`, and the run count stays logarithmic.
//!
//! `memtable_limit = 4` makes nearly every commit flush, so a
//! few hundred steps cross several merges — including cascades, merges
//! that reach the oldest run (tombstones dropped) and merges that do not
//! (tombstones kept to shadow older puts).

use std::collections::BTreeMap;

use ml4db_storage::durable::{DurableStore, SimDisk, StoreConfig, WalConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small enough that keys collide across runs all the time.
const KEY_SPACE: u64 = 48;
/// Runs merged at a time (`store::COMPACTION_FAN_IN`, private there).
const FAN_IN: usize = 8;

fn cfg() -> StoreConfig {
    StoreConfig {
        wal: WalConfig { segment_bytes: 256, ..WalConfig::default() },
        memtable_limit: 4,
    }
}

/// `floor(log8)` of the largest run's entry count: the tiers in use.
fn tiers(store: &DurableStore<SimDisk>) -> usize {
    let largest = store.runs().iter().map(|r| r.len()).max().unwrap_or(0);
    (largest.max(1).ilog2() / FAN_IN.ilog2()) as usize
}

fn check(store: &DurableStore<SimDisk>, model: &BTreeMap<u64, u64>, step: usize) {
    assert_eq!(&store.committed_state(), model, "committed_state after step {step}");
    for key in 0..KEY_SPACE {
        assert_eq!(store.get(key), model.get(&key).copied(), "get({key}) after step {step}");
    }
    for (lo, hi) in [(0, KEY_SPACE), (5, 11), (17, 17), (30, 200)] {
        let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(store.range(lo, hi), want, "range({lo}, {hi}) after step {step}");
    }
    let bound = FAN_IN * (tiers(store) + 1);
    assert!(
        store.runs().len() <= bound,
        "{} runs after step {step}, bound {bound}",
        store.runs().len()
    );
    assert!(
        store.runs().windows(2).all(|w| w[0].id() < w[1].id()),
        "runs out of age order after step {step}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_equals_the_model_through_merges_and_reopens(
        seed in 0u64..u64::MAX,
        steps in 400usize..700,
        delete_share in 0.05f64..0.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = DurableStore::create(SimDisk::new(), cfg()).unwrap();
        // Acknowledged state, and the batch staged since the last commit.
        let mut model = BTreeMap::new();
        let mut staged: Vec<(u64, Option<u64>)> = Vec::new();
        let mut compactions = 0u64;
        for step in 0..steps {
            match rng.gen_range(0..100u32) {
                0..=59 => {
                    let key = rng.gen_range(0..KEY_SPACE);
                    if rng.gen_bool(delete_share) {
                        store.delete(key).unwrap();
                        staged.push((key, None));
                    } else {
                        let value = rng.gen::<u64>();
                        store.put(key, value).unwrap();
                        staged.push((key, Some(value)));
                    }
                }
                60..=89 => {
                    store.commit().unwrap();
                    for (key, value) in staged.drain(..) {
                        match value {
                            Some(v) => model.insert(key, v),
                            None => model.remove(&key),
                        };
                    }
                }
                90..=94 => store.flush().unwrap(),
                _ => {
                    // A clean restart: the staged batch was never
                    // committed and must not come back.
                    compactions += store.compactions();
                    staged.clear();
                    store = DurableStore::open(store.into_medium(), cfg()).unwrap().0;
                }
            }
            check(&store, &model, step);
        }
        compactions += store.compactions();
        prop_assert!(compactions >= 2, "only {compactions} compactions in {steps} steps");
    }
}
