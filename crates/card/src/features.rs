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
pub fn query_features(db: &Database, query: &Query, mask: u64) -> Vec<f32> {
    let mut f = vec![0.0f32; QUERY_DIM];
    let mut n_tables = 0;
    for (t, tref) in query.tables.iter().enumerate() {
        if mask & (1 << t) != 0 {
            f[table_bucket(&tref.table)] = 1.0;
            n_tables += 1;
        }
    }
    let joins = query.edges_within(mask).len();
    let preds: Vec<_> = query
        .predicates
        .iter()
        .filter(|p| mask & (1 << p.table) != 0)
        .collect();
    let base = TABLE_BUCKETS;
    f[base] = n_tables as f32 / 6.0;
    f[base + 1] = joins as f32 / 5.0;
    f[base + 2] = preds.len() as f32 / 6.0;
    if !preds.is_empty() {
        let sels: Vec<f64> = preds
            .iter()
            .map(|p| ClassicEstimator::predicate_selectivity(db, query, p))
            .collect();
        f[base + 3] = (sels.iter().sum::<f64>() / sels.len() as f64) as f32;
        f[base + 4] = sels.iter().copied().fold(1.0, f64::min) as f32;
        let frac = |pred: fn(CmpOp) -> bool| {
            preds.iter().filter(|p| pred(p.op)).count() as f32 / preds.len() as f32
        };
        f[base + 5] = frac(|op| op == CmpOp::Eq);
        f[base + 6] = frac(|op| matches!(op, CmpOp::Lt | CmpOp::Le));
        f[base + 7] = frac(|op| matches!(op, CmpOp::Gt | CmpOp::Ge));
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
