//! Property test for the durable tier's one merge cursor
//! (`run::merge_newest_wins`, reached through `run::merge_runs`): over
//! random key-sorted inputs given oldest first, the merge equals folding
//! the inputs oldest-first into a `BTreeMap` — every distinct key once, in
//! key order, carrying the entry of the newest input that holds it — and
//! with `drop_tombstones` it is that minus the tombstone winners.
//!
//! The generator leans on the cases a k-way merge gets wrong: no inputs,
//! one input, empty inputs between full ones, a key present in *every*
//! input (so each older copy must be skipped, not emitted), tombstones
//! that win and tombstones that lose, and the two ends of the key space
//! (`0` and `u64::MAX`, where a sentinel-based cursor breaks).

use std::collections::BTreeMap;

use ml4db_storage::durable::run::{merge_runs, MergeInput, Run, RunEntry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One key-sorted input: a random subset of `pool` plus every key of
/// `everywhere`; input `age` marks its puts so the winner is checkable.
fn input(rng: &mut StdRng, pool: &[u64], everywhere: &[u64], age: u64, dead: f64) -> Vec<RunEntry> {
    let share = [0.0, 0.1, 0.5, 1.0].choose(rng).copied().unwrap();
    let mut keys: Vec<u64> = pool.iter().copied().filter(|_| rng.gen_bool(share)).collect();
    keys.extend_from_slice(everywhere);
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            if rng.gen_bool(dead) {
                RunEntry::Tombstone { key }
            } else {
                RunEntry::Put { key, value: age * 1_000_000 + key % 1_000 }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_equals_the_oldest_first_map_fold(
        seed in 0u64..u64::MAX,
        fan_in in 0usize..14,
        pool_size in 1usize..60,
        dead in 0.0f64..0.6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A small pool so inputs overlap heavily; the ends of the key
        // space are in it half the time.
        let mut pool: Vec<u64> = (0..pool_size).map(|_| rng.gen_range(0..200u64)).collect();
        if rng.gen_bool(0.5) {
            pool.extend([0, u64::MAX, u64::MAX - 1]);
        }
        let everywhere: Vec<u64> = match rng.gen_range(0..3u32) {
            0 => vec![],
            1 => vec![pool[0]],
            _ => vec![0, pool[0], u64::MAX],
        };
        let runs: Vec<Run> = (0..fan_in)
            .map(|age| {
                let entries = input(&mut rng, &pool, &everywhere, age as u64, dead);
                Run::assemble(age as u32, entries, 0)
            })
            .collect();
        let inputs: Vec<MergeInput<'_>> = runs.iter().map(Run::view).collect();

        let mut fold = BTreeMap::new();
        for e in runs.iter().flat_map(|run| run.entries()) {
            fold.insert(e.key(), *e);
        }
        let want: Vec<RunEntry> = fold.into_values().collect();
        prop_assert_eq!(&merge_runs(&inputs, false), &want);
        let live: Vec<RunEntry> =
            want.into_iter().filter(|e| matches!(e, RunEntry::Put { .. })).collect();
        prop_assert_eq!(merge_runs(&inputs, true), live);
    }
}
