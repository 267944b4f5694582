//! Query featurization for learned cardinality estimators — the MSCN-style
//! (table set, join set, predicate set) encoding, aggregated into a fixed
//! width so one model serves any sub-join of any query.

use ml4db_plan::{CardEstimator, ClassicEstimator, Query};
use ml4db_storage::{CmpOp, Database};

/// Hashed table-identity buckets.
const TABLE_BUCKETS: usize = 12;
/// Fixed feature width.
pub const QUERY_DIM: usize = TABLE_BUCKETS + 3 + 5 + 1;

fn table_bucket(name: &str) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % TABLE_BUCKETS as u64) as usize
}

/// Featurizes the sub-query selected by `mask`.
///
/// Layout: table one-hots, [#tables, #joins, #predicates] (normalized),
/// predicate aggregates [mean sel, min sel, eq fraction, lt fraction,
/// gt fraction], and the classical estimate in log space — the "injected
/// statistics" channel that lets learned models start from the textbook
/// estimate and learn its correction.
pub fn query_features(db: &Database, query: &Query, mask: u64) -> [f32; QUERY_DIM] {
    let mut f = [0.0f32; QUERY_DIM];
    let mut n_tables = 0;
    for (t, tref) in query.tables.iter().enumerate() {
        if mask & (1 << t) != 0 {
            f[table_bucket(&tref.table)] = 1.0;
            n_tables += 1;
        }
    }
    // One pass over the contained predicates: count, selectivity sum and
    // minimum, and per-operator counts.
    let (mut preds, mut sel_sum, mut sel_min) = (0usize, 0.0f64, 1.0f64);
    let mut ops = [0usize; 3]; // Eq, Lt | Le, Gt | Ge
    for p in query.predicates.iter().filter(|p| mask & (1 << p.table) != 0) {
        let sel = ClassicEstimator::predicate_selectivity(db, query, p);
        preds += 1;
        sel_sum += sel;
        sel_min = sel_min.min(sel);
        ops[match p.op {
            CmpOp::Eq => 0,
            CmpOp::Lt | CmpOp::Le => 1,
            CmpOp::Gt | CmpOp::Ge => 2,
        }] += 1;
    }
    let base = TABLE_BUCKETS;
    f[base] = n_tables as f32 / 6.0;
    f[base + 1] = query.edges_within(mask).count() as f32 / 5.0;
    f[base + 2] = preds as f32 / 6.0;
    if preds > 0 {
        f[base + 3] = (sel_sum / preds as f64) as f32;
        f[base + 4] = sel_min as f32;
        for (slot, &n) in f[base + 5..base + 8].iter_mut().zip(&ops) {
            *slot = n as f32 / preds as f32;
        }
    }
    let classic = ClassicEstimator.estimate(db, query, mask);
    f[base + 8] = ((classic + 1.0).log10() / 7.0) as f32;
    f
}

/// Log-space target used by all learned estimators.
pub fn card_to_target(card: f64) -> f32 {
    ((card.max(0.0) + 1.0).log10() / 7.0) as f32
}

/// Inverse of [`card_to_target`].
pub fn target_to_card(t: f32) -> f64 {
    (10f64.powf(t as f64 * 7.0) - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(1);
        joblite_db(100, &[], &mut rng)
    }

    #[test]
    fn feature_width_fixed() {
        let db = db();
        let q = ml4db_plan::Query::new(&["title", "cast_info"])
            .join(0, "id", 1, "movie_id")
            .filter(0, "year", CmpOp::Ge, 2000.0);
        assert_eq!(query_features(&db, &q, 0b11).len(), QUERY_DIM);
        assert_eq!(query_features(&db, &q, 0b01).len(), QUERY_DIM);
    }

    #[test]
    fn different_masks_different_features() {
        let db = db();
        let q = ml4db_plan::Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id");
        assert_ne!(query_features(&db, &q, 0b01), query_features(&db, &q, 0b11));
    }

    #[test]
    fn target_roundtrip() {
        for c in [0.0, 1.0, 500.0, 1e6] {
            let back = target_to_card(card_to_target(c));
            assert!((back - c).abs() / (c + 1.0) < 0.01);
        }
    }
}
