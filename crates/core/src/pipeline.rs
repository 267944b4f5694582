//! End-to-end convenience pipelines used by the examples and the
//! integration tests: build a database, generate a workload, train a
//! component, evaluate it — in one call each.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ml4db_datagen::{SchemaGraph, WorkloadConfig, WorkloadGenerator};
use ml4db_optimizer::{Bao, Env};
use ml4db_plan::{bao_arms, Query};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::Database;

/// Builds the standard demo database (joblite with an index on
/// `title.year`), deterministically from a seed.
pub fn demo_database(base_rows: usize, seed: u64) -> Database {
    joblite_db(base_rows, &[("title", "year")], &mut StdRng::seed_from_u64(seed))
}

/// Generates a standard demo workload over the demo database.
pub fn demo_workload(db: &Database, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    WorkloadGenerator::new(
        SchemaGraph::joblite(),
        WorkloadConfig { min_tables: 2, max_tables: 3, ..Default::default() },
    )
    .generate_many(db, n, &mut rng)
}

/// Trains a Bao bandit on a workload stream; returns the trained bandit
/// and the per-query latencies observed during training.
pub fn train_bao(db: &Database, queries: &[Query], seed: u64) -> (Bao, Vec<f64>) {
    let env = Env::new(db);
    let mut bao = Bao::new(bao_arms());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies = Vec::with_capacity(queries.len());
    for q in queries {
        let (_, latency) = bao.step(&env, q, &mut rng);
        latencies.push(latency);
    }
    (bao, latencies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_pipeline_is_deterministic() {
        let a = demo_database(80, 7);
        let b = demo_database(80, 7);
        assert_eq!(a.table_stats("title").unwrap().rows, b.table_stats("title").unwrap().rows);
        let qa = demo_workload(&a, 5, 3);
        let qb = demo_workload(&b, 5, 3);
        assert_eq!(qa, qb);
    }

    #[test]
    fn train_bao_end_to_end() {
        let db = demo_database(80, 1);
        let queries = demo_workload(&db, 10, 2);
        let (bao, latencies) = train_bao(&db, &queries, 3);
        assert_eq!(latencies.len(), 10);
        assert_eq!(bao.window_len(), 10);
    }
}
