//! Property test for the per-run key filter (`Run::may_contain`) that
//! `DurableStore::get` asks before it searches a run's index: over seeded
//! histories of puts, deletes, commits, flushes and reopens, every key of
//! every run passes its run's filter (a false negative would make `get`
//! skip the run that holds the answer), and `get` equals a `BTreeMap` model
//! for live keys, deleted keys and keys that were never written.
//!
//! Keys are scattered over the whole `u64` space, so the filter's hash —
//! not a dense key range — decides which block each key lands in. A small
//! `memtable_limit` makes most commits flush, so a history crosses several
//! merges, and every history reopens at least once: flush, merge and
//! `open` are the three paths that assemble a run and its filter.

use std::collections::{BTreeMap, BTreeSet};

use ml4db_storage::durable::{DurableStore, Run, SimDisk, StoreConfig, WalConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(memtable_limit: usize) -> StoreConfig {
    StoreConfig { wal: WalConfig { segment_bytes: 256, ..WalConfig::default() }, memtable_limit }
}

/// Most (run, never-written key) pairs a filter may let through: far
/// above the ~1.3 % a 10-bit-per-key filter passes, far below the 100 %
/// a filter that rules nothing out would.
const MAX_ABSENT_PASS_RATE: f64 = 0.05;

/// Asserts no run's filter rules out one of its own keys, and that `get`
/// answers every written and never-written key as `model` does. Returns
/// how many (run, never-written key) pairs passed a filter, and of how
/// many.
fn check(
    store: &DurableStore<SimDisk>,
    model: &BTreeMap<u64, u64>,
    written: &[u64],
    never: &[u64],
    step: usize,
) -> (usize, usize) {
    for run in store.runs() {
        for entry in run.entries() {
            let (id, key) = (run.id(), entry.key());
            assert!(run.may_contain(key), "run {id} rules out its own key {key} at step {step}");
        }
    }
    for &key in written.iter().chain(never) {
        assert_eq!(store.get(key), model.get(&key).copied(), "get({key}) at step {step}");
    }
    let runs = store.runs();
    let passed = never.iter().map(|&key| runs.iter().filter(|run| run.may_contain(key)).count());
    (passed.sum(), never.len() * runs.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn filters_never_hide_a_key_and_get_equals_the_model(
        seed in 0u64..u64::MAX,
        steps in 500usize..800,
        delete_share in 0.05f64..0.4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut written: Vec<u64> = (0..160).map(|_| rng.gen()).collect();
        if rng.gen_bool(0.5) {
            written.extend([0, u64::MAX]);
        }
        let pool: BTreeSet<u64> = written.iter().copied().collect();
        let never: Vec<u64> =
            (0..160).map(|_| rng.gen::<u64>()).filter(|k| !pool.contains(k)).collect();

        let mut store = DurableStore::create(SimDisk::new(), cfg(6)).unwrap();
        // Acknowledged state, and the batch staged since the last commit.
        let mut model = BTreeMap::new();
        let mut staged: Vec<(u64, Option<u64>)> = Vec::new();
        let (mut compactions, mut opens) = (0u64, 0u32);
        let (mut passed, mut asked) = (0usize, 0usize);
        for step in 0..steps {
            let reopen = step == steps / 2 || rng.gen_range(0..100u32) < 2;
            if reopen {
                // A clean restart: the staged batch was never committed.
                compactions += store.compactions();
                staged.clear();
                store = DurableStore::open(store.into_medium(), cfg(6)).unwrap().0;
                opens += 1;
            } else {
                match rng.gen_range(0..100u32) {
                    0..=64 => {
                        let key = written[rng.gen_range(0..written.len())];
                        if rng.gen_bool(delete_share) {
                            store.delete(key).unwrap();
                            staged.push((key, None));
                        } else {
                            let value = rng.gen::<u64>();
                            store.put(key, value).unwrap();
                            staged.push((key, Some(value)));
                        }
                    }
                    65..=94 => {
                        store.commit().unwrap();
                        for (key, value) in staged.drain(..) {
                            match value {
                                Some(v) => model.insert(key, v),
                                None => model.remove(&key),
                            };
                        }
                    }
                    _ => store.flush().unwrap(),
                }
            }
            if reopen || step % 25 == 0 || step + 1 == steps {
                let (p, a) = check(&store, &model, &written, &never, step);
                passed += p;
                asked += a;
            }
        }
        compactions += store.compactions();
        prop_assert!(opens >= 1);
        prop_assert!(compactions >= 2, "only {compactions} compactions in {steps} steps");
        prop_assert!(asked > 0, "no run was ever checked");
        let rate = passed as f64 / asked as f64;
        prop_assert!(
            rate <= MAX_ABSENT_PASS_RATE,
            "filters passed {passed} of {asked} never-written probes ({rate:.3})"
        );
    }
}

/// A run's filter as `Run`'s `Debug` prints it: every word of every block.
fn filter_words(run: &Run) -> String {
    let debug = format!("{run:?}");
    let start = debug.find("filter: ").expect("Run's Debug shows its filter");
    let len = debug[start..].find(", file_bytes").expect("the filter precedes file_bytes");
    debug[start..start + len].to_owned()
}

/// The filter lives only in memory, so `open` rebuilds it from the key
/// column it decodes: it must come out bit for bit as flush and merge
/// built it, or the filter would depend on something other than the keys
/// (a seeded hasher, say) and a reopened store could rule out keys it
/// holds.
#[test]
fn a_filter_rebuilt_at_open_matches_the_one_built_at_flush() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = DurableStore::create(SimDisk::new(), cfg(64)).unwrap();
    for _ in 0..80 {
        for _ in 0..32 {
            store.put(rng.gen(), rng.gen()).unwrap();
        }
        store.commit().unwrap();
    }
    assert!(store.compactions() >= 1, "the history must cross a merge");
    let built: Vec<(u32, String)> =
        store.runs().iter().map(|r| (r.id(), filter_words(r))).collect();
    assert!(built.len() >= 2, "only {} runs", built.len());

    let (reopened, report) = DurableStore::open(store.into_medium(), cfg(64)).unwrap();
    assert_eq!(report.runs_rejected, 0);
    let rebuilt: Vec<(u32, String)> =
        reopened.runs().iter().map(|r| (r.id(), filter_words(r))).collect();
    assert_eq!(rebuilt, built);
}
