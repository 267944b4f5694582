//! Every estimate the learned planning path consumes, pinned bit for bit:
//! the classical estimate, the raw MSCN estimate, the guarded estimate and
//! MSCN's input features, over every connected sub-join of 200 generated
//! queries. The digests were computed before the estimators stopped
//! allocating and before the classical one stopped looking tables up per
//! predicate and per edge, so a faster estimate that changes one bit — a
//! reordered sum, an input 0.0 no longer skipped — fails here.

use ml4db_card::{collect_samples, query_features, MscnEstimator};
use ml4db_datagen::{SchemaGraph, WorkloadConfig, WorkloadGenerator};
use ml4db_guard::GuardedCardEstimator;
use ml4db_obs::digest::Fingerprint;
use ml4db_plan::{CardEstimator, ClassicEstimator};
use ml4db_storage::datasets::joblite_db;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_estimate_matches_the_pinned_digests() {
    let db = joblite_db(100, &[("title", "year")], &mut StdRng::seed_from_u64(42));
    let gen = WorkloadGenerator::new(SchemaGraph::joblite(), WorkloadConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    let train = gen.generate_many(&db, 40, &mut rng);
    let test = gen.generate_many(&db, 200, &mut rng);
    let mut mscn = MscnEstimator::new(16, &mut rng);
    mscn.fit(&db, &collect_samples(&db, &train), 10, 0.005, &mut rng);
    let guard = GuardedCardEstimator::new(mscn, 8.0);

    let (mut classic, mut raw, mut guarded, mut features) =
        (Fingerprint::new(), Fingerprint::new(), Fingerprint::new(), Fingerprint::new());
    let mut masks = 0;
    for q in &test {
        for mask in (1..=q.full_mask()).filter(|&m| q.is_connected(m)) {
            masks += 1;
            classic.u64(ClassicEstimator.estimate(&db, q, mask).to_bits());
            raw.u64(guard.learned.estimate(&db, q, mask).to_bits());
            guarded.u64(guard.estimate(&db, q, mask).to_bits());
            for f in query_features(&db, q, mask) {
                features.u64(u64::from(f.to_bits()));
            }
        }
    }
    let hex = |h: &Fingerprint| format!("{:016x}", h.finish());
    assert_eq!(masks, 686);
    assert_eq!(hex(&classic), "84a960be55aaaaf0", "classic estimates moved");
    assert_eq!(hex(&raw), "bbeae09c03536f08", "raw MSCN estimates moved");
    assert_eq!(hex(&guarded), "3ecfb74e961a140f", "guarded estimates moved");
    assert_eq!(hex(&features), "5a763b54207b76e7", "MSCN features moved");
    assert_eq!(guard.breaker().fallbacks(), 37);
}
