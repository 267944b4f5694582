//! Cross-crate integration tests: the end-to-end flows a user of the
//! workspace would run, spanning storage → plan → repr → optimizer.

use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_bao_pipeline_beats_or_matches_expert() {
    let db = demo_database(150, 1);
    let train = demo_workload(&db, 30, 2);
    let (bao, _) = train_bao(&db, &train, 3);
    let env = Env::new(&db);
    let test = demo_workload(&db, 10, 4);
    let mut bao_total = 0.0;
    let mut expert_total = 0.0;
    for q in &test {
        let choice = bao.choose_greedy(&env, q);
        bao_total += env.run(q, &choice.plan);
        expert_total += env.run(q, &env.expert_plan(q).unwrap());
    }
    assert!(
        bao_total <= expert_total * 1.3,
        "bao {bao_total} should track the expert {expert_total}"
    );
}

#[test]
fn every_optimizer_produces_correct_results() {
    // All optimizers must return the same rows as the expert plan — plans
    // differ, answers must not.
    let db = demo_database(120, 5);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(6);
    let queries = demo_workload(&db, 6, 7);

    let mut neo = Neo::new(&mut rng);
    neo.bootstrap(&env, &queries, 8, &mut rng);
    let mut rtos = Rtos::new(&mut rng);
    rtos.warmup_with_cost(&env, &queries, 8, &mut rng);

    for q in &queries {
        let expert = env.expert_plan(q).unwrap();
        let expert_rows = normalize(&db, q, &expert);
        for plan in [neo.plan(&env, q), rtos.plan(&env, q)].into_iter().flatten() {
            plan.validate().unwrap();
            assert_eq!(
                normalize(&db, q, &plan),
                expert_rows,
                "learned optimizer changed the answer for {q:?}"
            );
        }
    }
}

fn normalize(db: &Database, q: &Query, plan: &PlanNode) -> Vec<Vec<String>> {
    let result = ml4db_core::plan::execute(db, q, plan).expect("valid plan");
    let mut rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            ml4db_core::plan::executor::normalize_row(db, q, &result.layout, r)
                .into_iter()
                .map(|v| format!("{v:?}"))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn guarded_learned_estimator_in_the_planner() {
    // A learned estimator with a guardrail plugs straight into the DP
    // planner through the CardEstimator trait.
    let db = demo_database(150, 8);
    let mut rng = StdRng::seed_from_u64(9);
    let queries = demo_workload(&db, 12, 10);
    let samples = ml4db_core::card::collect_samples(&db, &queries);
    let mut learned = MscnEstimator::new(24, &mut rng);
    learned.fit(&db, &samples, 30, 0.005, &mut rng);
    let guarded = GuardedCardEstimator::new(learned, 50.0);
    let planner = Planner::default();
    for q in &queries {
        let plan = planner.best_plan(&db, q, &guarded).expect("plans with learned estimates");
        plan.validate().unwrap();
        ml4db_core::plan::execute(&db, q, &plan).unwrap();
    }
}

#[test]
fn survey_registry_matches_repr_implementations() {
    // Every Table 1 row's implementation label resolves to an actual
    // TreeModelKind, and that encoder actually instantiates.
    let mut rng = StdRng::seed_from_u64(11);
    for row in table1() {
        let kind = TreeModelKind::all()
            .into_iter()
            .find(|k| k.label() == row.implementation)
            .unwrap_or_else(|| panic!("{}: no TreeModelKind labeled {}", row.method, row.implementation));
        let encoder = PlanEncoder::new(kind, 8, 8, &mut rng);
        assert!(encoder.out_dim() > 0);
    }
}

#[test]
fn figure1_series_is_reproducible_and_shifted() {
    let series = figure1_series();
    let again = figure1_series();
    assert_eq!(series, again, "Figure 1 must be deterministic");
    let enh = ml4db_core::survey::late_share(&series, ml4db_core::survey::Paradigm::MlEnhanced);
    let repl = ml4db_core::survey::late_share(&series, ml4db_core::survey::Paradigm::Replacement);
    assert!(enh > repl, "the paradigm shift must be visible in the series");
}

#[test]
fn paramtree_closes_the_loop_with_the_executor() {
    // ParamTree learns weights from executions; predictions with those
    // weights then match fresh executions.
    let db = demo_database(150, 12);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(13);
    let train = demo_workload(&db, 20, 14);
    let obs =
        ml4db_core::optimizer::collect_observations_diverse(&env, &train, 2, &mut rng);
    let pt = ParamTree::fit(&obs);
    let test = demo_workload(&db, 6, 15);
    for q in &test {
        let plan = env.expert_plan(q).unwrap();
        let result = ml4db_core::plan::execute(&db, q, &plan).unwrap();
        let pred = pt.predict(&result.stats);
        let ratio = pred / result.latency_us.max(1.0);
        assert!(
            (0.5..2.0).contains(&ratio),
            "paramtree prediction {pred} vs actual {} (ratio {ratio})",
            result.latency_us
        );
    }
}

#[test]
fn learned_indexes_serve_an_index_scan_workload() {
    // The 1-D indexes answer the same range workload identically.
    let mut rng = StdRng::seed_from_u64(16);
    let entries = ml4db_core::index::keys::generate_entries(
        ml4db_core::index::keys::KeyDistribution::Clustered { clusters: 32 },
        30_000,
        &mut rng,
    );
    let btree = BPlusTree::bulk_load(&entries);
    let rmi = Rmi::build(entries.clone(), 256);
    let pgm = PgmIndex::build(entries.clone(), 16);
    let spline = RadixSpline::build(entries.clone(), 16);
    use rand::Rng;
    for _ in 0..50 {
        let lo = rng.gen_range(0..entries.len() - 100);
        let (a, b) = (entries[lo].0, entries[lo + 99].0);
        let expect = btree.range(a, b);
        assert_eq!(rmi.range(a, b), expect);
        assert_eq!(pgm.range(a, b), expect);
        assert_eq!(spline.range(a, b), expect);
    }
}
