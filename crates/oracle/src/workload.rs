//! Deterministic random-workload generation for the oracle: databases with
//! declared indexes, and random connected SPJ queries over the datasets'
//! foreign-key graphs. Every check family samples plans through these, so
//! the tested plan space is exactly the space the planners and hint sets
//! can emit.

use ml4db_plan::Query;
use ml4db_storage::datasets::{self, tpchlite, DatasetConfig};
use ml4db_storage::{CmpOp, Database, DataType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Foreign-key join graph of the `joblite` dataset, as
/// `(left_table, left_col, right_table, right_col)`.
pub const JOBLITE_EDGES: &[(&str, &str, &str, &str)] = &[
    ("title", "id", "cast_info", "movie_id"),
    ("cast_info", "person_id", "person", "id"),
    ("title", "id", "movie_info", "movie_id"),
    ("title", "id", "movie_companies", "movie_id"),
    ("movie_companies", "company_id", "company", "id"),
];

/// Foreign-key join graph of the `tpchlite` dataset.
pub const TPCHLITE_EDGES: &[(&str, &str, &str, &str)] = &[
    ("nation", "id", "customer", "nation_id"),
    ("customer", "id", "orders", "cust_id"),
    ("orders", "id", "lineitem", "order_id"),
];

/// A `joblite` database with secondary indexes declared on the columns the
/// workload predicates touch, so index-scan plans are reachable.
pub fn joblite_db(base_rows: usize, seed: u64) -> Database {
    datasets::joblite_db(
        base_rows,
        &[("title", "year"), ("title", "votes"), ("person", "age")],
        &mut StdRng::seed_from_u64(seed),
    )
}

/// A `tpchlite` database with secondary indexes.
pub fn tpchlite_db(base_rows: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let cat = tpchlite(&DatasetConfig { base_rows, ..Default::default() }, &mut rng);
    let mut db = Database::analyze(cat, &mut rng);
    db.add_index("orders", "date");
    db.add_index("customer", "balance");
    db.add_index("lineitem", "qty");
    db
}

/// Samples a random connected SPJ query over `edges`: a connected subtree
/// with 2..=`max_tables` tables, plus (when `with_predicates`) up to three
/// random range/equality predicates with constants drawn from the actual
/// column domains.
pub fn sample_query<R: Rng + ?Sized>(
    db: &Database,
    edges: &[(&str, &str, &str, &str)],
    max_tables: usize,
    rng: &mut R,
    with_predicates: bool,
) -> Query {
    let target = rng.gen_range(2..=max_tables.max(2));
    // Grow a connected table set from a random starting edge.
    let first = edges[rng.gen_range(0..edges.len())];
    let mut tables: Vec<String> = vec![first.0.to_string(), first.2.to_string()];
    let mut used: Vec<(String, String, String, String)> =
        vec![(first.0.into(), first.1.into(), first.2.into(), first.3.into())];
    while tables.len() < target {
        let frontier: Vec<_> = edges
            .iter()
            .filter(|e| {
                tables.iter().any(|t| t == e.0) != tables.iter().any(|t| t == e.2)
            })
            .collect();
        if frontier.is_empty() {
            break;
        }
        let e = frontier[rng.gen_range(0..frontier.len())];
        if !tables.iter().any(|t| t == e.0) {
            tables.push(e.0.to_string());
        }
        if !tables.iter().any(|t| t == e.2) {
            tables.push(e.2.to_string());
        }
        used.push((e.0.into(), e.1.into(), e.2.into(), e.3.into()));
    }
    let names: Vec<&str> = tables.iter().map(String::as_str).collect();
    let mut q = Query::new(&names);
    let pos = |name: &str| tables.iter().position(|t| t == name).expect("in set");
    for (lt, lc, rt, rc) in &used {
        q = q.join(pos(lt), lc, pos(rt), rc);
    }
    if with_predicates {
        let npreds = rng.gen_range(1..=3);
        for _ in 0..npreds {
            let t = rng.gen_range(0..tables.len());
            let table = db.catalog.table(&tables[t]).expect("known table");
            let ci = rng.gen_range(0..table.schema.arity());
            let col = &table.schema.columns[ci];
            let Some(stats) = db.table_stats(&tables[t]) else { continue };
            let h = &stats.columns[ci].histogram;
            let (lo, hi) = (h.min(), h.max());
            let mut value = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            if col.dtype == DataType::Int {
                value = value.round();
            }
            let op = match rng.gen_range(0..5) {
                0 => CmpOp::Eq,
                1 => CmpOp::Lt,
                2 => CmpOp::Le,
                3 => CmpOp::Gt,
                _ => CmpOp::Ge,
            };
            q = q.filter(t, &col.name, op, value);
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_queries_are_well_formed() {
        let db = joblite_db(80, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..40 {
            let q = sample_query(&db, JOBLITE_EDGES, 4, &mut rng, i % 2 == 0);
            q.validate(&db).unwrap_or_else(|e| panic!("query {i} invalid: {e}"));
            assert!(q.num_tables() >= 2 && q.num_tables() <= 4);
        }
        let db = tpchlite_db(80, 3);
        for _ in 0..20 {
            let q = sample_query(&db, TPCHLITE_EDGES, 4, &mut rng, true);
            q.validate(&db).unwrap();
        }
    }

    #[test]
    fn databases_have_declared_indexes() {
        let db = joblite_db(50, 9);
        assert!(db.has_index("title", "year"));
        let db = tpchlite_db(50, 9);
        assert!(db.has_index("orders", "date"));
    }
}
