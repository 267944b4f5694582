//! Learned-index staleness under a bulk-insert workload shift.
//!
//! RMI and PGM are *static* learned structures: they memorize the key
//! distribution they were built over. The `ml4db-datagen` `BulkInsert`
//! scenario appends fresh keys past the old range, so a stale index (a)
//! misses point lookups on the new keys and (b) loses range recall on
//! windows touching the new region — while the classical B+-tree rebuilt
//! over the same stream stays exact. The model lifecycle closes the gap:
//! a candidate rebuilt over the post-shift key stream clears the
//! validation gate (scored as `1 − recall` against the incumbent and the
//! B+-tree baseline) and restores recall after promotion.

use ml4db_datagen::{key_stream, ShiftKind, ShiftScenario};
use ml4db_index::{BPlusTree, OrderedIndex, PgmIndex, Rmi};
use ml4db_lifecycle::{GateConfig, LifecycleState, ModelRegistry};
use ml4db_storage::datasets::joblite_db;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn shifted_key_streams(seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = joblite_db(400, &[], &mut rng);
    let scenario = ShiftScenario::new(ShiftKind::BulkInsert, seed);
    let shifted = scenario.apply(&db);
    (key_stream(&db, "title", "id"), key_stream(&shifted, "title", "id"))
}

fn entries(keys: &[u64]) -> Vec<(u64, u64)> {
    keys.iter().map(|&k| (k, k.wrapping_mul(10))).collect()
}

/// Fraction of `keys` that `idx` resolves to the correct payload.
fn lookup_accuracy(idx: &dyn OrderedIndex, keys: &[u64]) -> f64 {
    let good =
        keys.iter().filter(|&&k| idx.get(k) == Some(k.wrapping_mul(10))).count();
    good as f64 / keys.len().max(1) as f64
}

/// Mean recall of 8 quantile range windows over `keys` (kNN-style range
/// probes): |returned ∩ truth| / |truth| per window.
fn range_recall(idx: &dyn OrderedIndex, keys: &[u64]) -> f64 {
    let windows = 8;
    let mut total = 0.0;
    for w in 0..windows {
        let lo = keys[w * keys.len() / windows];
        let hi = keys[((w + 1) * keys.len() / windows).min(keys.len() - 1)];
        let truth = keys.iter().filter(|&&k| lo <= k && k <= hi).count();
        let got = idx
            .range(lo, hi)
            .iter()
            .filter(|(k, v)| *v == k.wrapping_mul(10))
            .count();
        total += got as f64 / truth.max(1) as f64;
    }
    total / windows as f64
}

/// The staleness-and-recovery claim, generic over the learned builder:
/// degrade on the shifted stream, rebuild, clear the gate, recover.
fn staleness_and_recovery<I: OrderedIndex>(build: impl Fn(&[u64]) -> I, name: &str) {
    let (before, after) = shifted_key_streams(23);
    assert!(after.len() > before.len(), "bulk insert must add keys");

    let stale = build(&before);
    let baseline = BPlusTree::bulk_load(&entries(&after));

    // Degradation: the stale learned index misses the inserted keys on
    // both point lookups and range windows; the fresh B+-tree does not.
    let stale_acc = lookup_accuracy(&stale, &after);
    let stale_recall = range_recall(&stale, &after);
    assert!(stale_acc < 0.85, "{name}: stale lookup accuracy suspiciously high: {stale_acc}");
    assert!(stale_recall < 0.9, "{name}: stale range recall suspiciously high: {stale_recall}");
    assert_eq!(lookup_accuracy(&baseline, &after), 1.0);
    assert_eq!(range_recall(&baseline, &after), 1.0);
    // ...while remaining exact on the keys it was actually built over.
    assert_eq!(lookup_accuracy(&stale, &before), 1.0, "{name}: stale index lost old keys");

    // Lifecycle: rebuild on the post-shift stream, gate on 1 − recall.
    let mut registry =
        ModelRegistry::new("learned_index", GateConfig { tolerance: 0.05 }, stale);
    let cid = registry.register_candidate(build(&after), "retrain");
    registry.begin_shadow(cid);
    let incumbent_score = 1.0 - range_recall(registry.active(), &after);
    let candidate_score = 1.0 - range_recall(&registry.version(cid).unwrap().model, &after);
    let baseline_score = 1.0 - range_recall(&baseline, &after);
    let verdict = registry.try_promote(cid, candidate_score, incumbent_score, baseline_score);
    assert!(
        verdict.promoted,
        "{name}: rebuilt index must clear the gate: cand={candidate_score} \
         inc={incumbent_score} base={baseline_score}"
    );
    assert_eq!(registry.generation(), 1);

    // Recovery: the promoted version is exact on the shifted stream.
    assert_eq!(lookup_accuracy(registry.active(), &after), 1.0, "{name}: recall not restored");
    assert_eq!(range_recall(registry.active(), &after), 1.0);

    // And a stale "candidate" (rebuilt on the OLD stream) is rejected.
    let sid = registry.register_candidate(build(&before), "stale_rebuild");
    registry.begin_shadow(sid);
    let stale_score = 1.0 - range_recall(&registry.version(sid).unwrap().model, &after);
    let serving_score = 1.0 - range_recall(registry.active(), &after);
    assert!(
        !registry.try_promote(sid, stale_score, serving_score, baseline_score).promoted,
        "{name}: a stale candidate must not displace the recovered model"
    );
    assert_eq!(registry.version(sid).unwrap().state, LifecycleState::RolledBack);
}

#[test]
fn rmi_degrades_under_bulk_insert_and_recovers_via_promotion() {
    staleness_and_recovery(|keys| Rmi::build(entries(keys), 64), "rmi");
}

#[test]
fn pgm_degrades_under_bulk_insert_and_recovers_via_promotion() {
    staleness_and_recovery(|keys| PgmIndex::build(entries(keys), 16), "pgm");
}

#[test]
fn staleness_is_deterministic_in_the_seed() {
    let (b1, a1) = shifted_key_streams(23);
    let (b2, a2) = shifted_key_streams(23);
    assert_eq!((b1, a1), (b2, a2));
}
