//! Property tests for the workload zoo, over arbitrary seeds and dials:
//!
//! 1. **deterministic** — every scenario's data transform and both
//!    workload streams are pure functions of the seed;
//! 2. **mix fidelity** — the OLTP/OLAP dial's realized fraction tracks
//!    the declared fraction within binomial tolerance;
//! 3. **in-domain adversaries** — distribution-edge constants always
//!    stay inside the live `[min, max]` of their column (the attack is
//!    the *edge*, never an out-of-range constant the planner could
//!    reject outright);
//! 4. **tenant isolation** — many-tenant template populations are
//!    pairwise disjoint by template signature.

use std::sync::OnceLock;

use ml4db_datagen::zoo::{ScenarioKind, ScenarioSpec};
use ml4db_datagen::key_stream;
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::Database;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = joblite_db(150, &[], &mut rng);
        db.add_index("title", "year");
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replaying any scenario under the same seed reproduces the same
    /// transformed key stream and the same workload fingerprints.
    #[test]
    fn scenarios_are_pure_functions_of_the_seed(seed in 0u64..1 << 48, idx in 0usize..14) {
        let db = db();
        let spec = ScenarioSpec::zoo(seed)[idx];
        let (a, b) = (spec.apply(db), spec.apply(db));
        prop_assert_eq!(
            key_stream(&a, "title", "id"),
            key_stream(&b, "title", "id"),
            "{}: transform not seed-deterministic", spec.name()
        );
        let fp = |qs: &[ml4db_plan::Query]| -> Vec<u64> {
            qs.iter().map(|q| q.fingerprint()).collect()
        };
        prop_assert_eq!(fp(&spec.train_workload(db, 8)), fp(&spec.train_workload(db, 8)));
        prop_assert_eq!(fp(&spec.eval_workload(&a, 8)), fp(&spec.eval_workload(&b, 8)));
    }

    /// The realized OLAP fraction of the mix dial stays within ±0.15 of
    /// the declared fraction plus three binomial standard deviations —
    /// OLTP draws are single-table, OLAP draws join 3–4 tables, so the
    /// table count classifies every query unambiguously.
    #[test]
    fn mix_dial_tracks_declared_fraction(seed in 0u64..1 << 48, frac in 0.1f64..0.9) {
        let db = db();
        let spec = ScenarioSpec::new(ScenarioKind::OltpOlapMix { olap_fraction: frac }, seed);
        let n = 160usize;
        let qs = spec.eval_workload(db, n);
        prop_assert_eq!(qs.len(), n);
        let olap = qs.iter().filter(|q| q.num_tables() >= 3).count() as f64 / n as f64;
        prop_assert!(
            qs.iter().all(|q| q.num_tables() == 1 || q.num_tables() >= 3),
            "a draw fell between the two regimes"
        );
        let sigma = (frac * (1.0 - frac) / n as f64).sqrt();
        let tol = 0.15 + 3.0 * sigma;
        prop_assert!(
            (olap - frac).abs() <= tol,
            "realized {olap:.2} vs declared {frac:.2} (tol {tol:.2})"
        );
    }

    /// Every distribution-edge predicate constant is inside the live
    /// domain of its column, and every comparison is strict.
    #[test]
    fn edge_constants_stay_in_domain(seed in 0u64..1 << 48) {
        let db = db();
        let spec = ScenarioSpec::new(ScenarioKind::DistributionEdge, seed);
        for q in spec.eval_workload(db, 12) {
            prop_assert!(!q.predicates.is_empty(), "edge query without predicates");
            for p in &q.predicates {
                let table = &q.tables[p.table].table;
                let stats = db.table_stats(table).expect("analyzed table");
                let ci = db.catalog.table(table).unwrap().schema.column_index(&p.column).unwrap();
                let h = &stats.columns[ci].histogram;
                prop_assert!(
                    p.value >= h.min() && p.value <= h.max(),
                    "{table}.{} constant {} outside [{}, {}]",
                    p.column, p.value, h.min(), h.max()
                );
                prop_assert!(
                    matches!(p.op, ml4db_storage::CmpOp::Lt | ml4db_storage::CmpOp::Gt),
                    "edge comparison must be strict"
                );
            }
        }
    }

    /// Tenant template populations never share a template signature, for
    /// any seed and tenant count.
    #[test]
    fn tenant_templates_are_pairwise_disjoint(seed in 0u64..1 << 48, tenants in 2usize..6) {
        let db = db();
        let spec = ScenarioSpec::new(ScenarioKind::ManyTenant { tenants }, seed);
        let pools = spec.tenant_templates(db);
        prop_assert_eq!(pools.len(), tenants);
        let mut seen = std::collections::BTreeSet::new();
        for (t, pool) in pools.iter().enumerate() {
            prop_assert_eq!(pool.len(), 3, "tenant {t} pool size");
            for q in pool {
                prop_assert!(
                    seen.insert(q.template_signature()),
                    "tenant {} reuses a template of an earlier tenant", t
                );
            }
        }
    }
}
