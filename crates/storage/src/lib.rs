//! # ml4db-storage — the relational engine substrate
//!
//! Every surveyed ML4DB system interacts with a DBMS through tables,
//! statistics, physical operators, and observed latencies. This crate is
//! that DBMS stand-in: columnar [`table::Table`]s in a [`table::Catalog`],
//! PostgreSQL-style [`stats`] (equi-depth histograms, MCVs, samples),
//! instrumented physical operators in [`exec`] with a deterministic
//! simulated-latency model, and synthetic [`datasets`] (`joblite`,
//! `tpchlite`) with controllable skew and correlation.
//!
//! [`Database`] bundles a catalog with its statistics and secondary indexes
//! and is the object the planner (`ml4db-plan`) and all learned components
//! operate on.

#![warn(missing_docs)]

pub mod datasets;
pub mod durable;
pub mod exec;
pub mod lindex;
pub mod stats;
pub mod table;

use std::collections::BTreeMap;

use rand::Rng;

pub use exec::{CmpOp, CostWeights, ExecStats, Predicate, TRUE_WEIGHTS};
pub use table::{rows_of, Catalog, ColumnData, DataType, Row, Schema, Table, Value};

/// A catalog plus its statistics and declared secondary indexes — the
/// "database instance" handed to planners and learned components.
#[derive(Clone, Debug)]
pub struct Database {
    /// The tables.
    pub catalog: Catalog,
    /// Per-table statistics (ANALYZE output).
    pub stats: BTreeMap<String, stats::TableStats>,
    /// Columns with a secondary index, as `(table, column)` pairs. Index
    /// scans are only legal on these.
    pub indexes: Vec<(String, String)>,
    /// Built learned secondary indexes, keyed by `(table, column)`.
    secondary: BTreeMap<(String, String), lindex::SecondaryIndex>,
}

impl Database {
    /// Builds a database from a catalog, computing statistics for every
    /// table (the `ANALYZE` step).
    pub fn analyze<R: Rng + ?Sized>(catalog: Catalog, rng: &mut R) -> Self {
        let stats = catalog
            .iter()
            .map(|t| (t.name.clone(), stats::TableStats::build(t, rng)))
            .collect();
        Self { catalog, stats, indexes: Vec::new(), secondary: BTreeMap::new() }
    }

    /// Declares a secondary index on `table.column`.
    ///
    /// # Panics
    /// Panics if the table or column does not exist.
    pub fn add_index(&mut self, table: &str, column: &str) {
        let t = self.catalog.table(table).unwrap_or_else(|| panic!("no table {table}"));
        let ci = t
            .schema
            .column_index(column)
            .unwrap_or_else(|| panic!("no column {column} on table {table}"));
        let key = (table.to_string(), column.to_string());
        if !self.indexes.contains(&key) {
            let built = lindex::SecondaryIndex::build(&t.columns[ci]);
            self.indexes.push(key.clone());
            self.secondary.insert(key, built);
        }
    }

    /// True if `table.column` has a secondary index.
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        self.indexes.iter().any(|(t, c)| t == table && c == column)
    }

    /// The built learned secondary index on `table.column`, if declared.
    pub fn secondary_index(&self, table: &str, column: &str) -> Option<&lindex::SecondaryIndex> {
        // Keyed lookup without allocating: the map is small, scan it.
        self.secondary
            .iter()
            .find(|((t, c), _)| t == table && c == column)
            .map(|(_, idx)| idx)
    }

    /// Statistics for a table.
    pub fn table_stats(&self, table: &str) -> Option<&stats::TableStats> {
        self.stats.get(table)
    }

    /// Total data size in bytes.
    pub fn data_bytes(&self) -> usize {
        self.catalog.iter().map(|t| t.data_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn analyze_builds_stats_for_all_tables() {
        let mut rng = StdRng::seed_from_u64(1);
        let cat = datasets::joblite(
            &datasets::DatasetConfig { base_rows: 200, ..Default::default() },
            &mut rng,
        );
        let db = Database::analyze(cat, &mut rng);
        assert_eq!(db.stats.len(), db.catalog.len());
        let ts = db.table_stats("title").unwrap();
        assert_eq!(ts.rows, 200);
        assert_eq!(ts.columns.len(), 4);
    }

    #[test]
    fn index_declaration() {
        let mut rng = StdRng::seed_from_u64(2);
        let cat = datasets::tpchlite(
            &datasets::DatasetConfig { base_rows: 100, ..Default::default() },
            &mut rng,
        );
        let mut db = Database::analyze(cat, &mut rng);
        db.add_index("orders", "cust_id");
        db.add_index("orders", "cust_id"); // idempotent
        assert!(db.has_index("orders", "cust_id"));
        assert!(!db.has_index("orders", "date"));
        assert_eq!(db.indexes.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn index_on_missing_column_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let cat = datasets::tpchlite(
            &datasets::DatasetConfig { base_rows: 50, ..Default::default() },
            &mut rng,
        );
        let mut db = Database::analyze(cat, &mut rng);
        db.add_index("orders", "nope");
    }
}
