//! The SPJ (select-project-join) query model: a set of base tables, a graph
//! of equi-join edges, and per-table range/equality predicates — the query
//! class every surveyed learned optimizer targets (the tutorial notes that
//! handling more than SPJ is an open generalization problem).

use serde::{Deserialize, Serialize};

use ml4db_storage::{CmpOp, ColumnData, DataType, Database};

use crate::enumerate::MAX_DP_TABLES;

/// A base-table occurrence in a query. `id` is the position in
/// [`Query::tables`], used by joins and predicates (so self-joins work).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableRef {
    /// Catalog table name.
    pub table: String,
}

/// An equi-join edge `tables[left].left_col = tables[right].right_col`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinEdge {
    /// Left table position.
    pub left: usize,
    /// Column on the left table.
    pub left_col: String,
    /// Right table position.
    pub right: usize,
    /// Column on the right table.
    pub right_col: String,
}

/// A base-table predicate `tables[table].column <op> value`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TablePredicate {
    /// Table position.
    pub table: usize,
    /// Column name.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant.
    pub value: f64,
}

/// An SPJ query.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Base tables (positions are the ids used everywhere else).
    pub tables: Vec<TableRef>,
    /// Equi-join edges.
    pub joins: Vec<JoinEdge>,
    /// Base-table predicates.
    pub predicates: Vec<TablePredicate>,
}

impl Query {
    /// Builds a query from table names (joins/predicates added after).
    pub fn new(tables: &[&str]) -> Self {
        Self {
            tables: tables.iter().map(|t| TableRef { table: t.to_string() }).collect(),
            joins: Vec::new(),
            predicates: Vec::new(),
        }
    }

    /// Adds an equi-join edge; builder style.
    pub fn join(mut self, left: usize, left_col: &str, right: usize, right_col: &str) -> Self {
        self.joins.push(JoinEdge {
            left,
            left_col: left_col.to_string(),
            right,
            right_col: right_col.to_string(),
        });
        self
    }

    /// Adds a predicate; builder style.
    pub fn filter(mut self, table: usize, column: &str, op: CmpOp, value: f64) -> Self {
        self.predicates.push(TablePredicate { table, column: column.to_string(), op, value });
        self
    }

    /// Number of base tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Predicates on table position `t`, in query order.
    pub fn predicates_on(&self, t: usize) -> impl Iterator<Item = &TablePredicate> {
        self.predicates.iter().filter(move |p| p.table == t)
    }

    /// Join edges with both endpoints inside `mask` (a bitmask of table
    /// positions), in query order.
    pub fn edges_within(&self, mask: u64) -> impl Iterator<Item = &JoinEdge> {
        self.joins.iter().filter(move |e| mask & (1 << e.left) != 0 && mask & (1 << e.right) != 0)
    }

    /// Join edges connecting `a` to `b` (disjoint masks), in query order.
    pub(crate) fn edges_across(&self, a: u64, b: u64) -> impl Iterator<Item = &JoinEdge> {
        self.joins.iter().filter(move |e| {
            let (l, r) = (1u64 << e.left, 1u64 << e.right);
            (a & l != 0 && b & r != 0) || (a & r != 0 && b & l != 0)
        })
    }

    /// Join edges connecting `a` to `b` (disjoint masks).
    pub fn edges_between(&self, a: u64, b: u64) -> Vec<&JoinEdge> {
        self.edges_across(a, b).collect()
    }

    /// `!edges_between(a, b).is_empty()` without building the list.
    pub fn has_edge_between(&self, a: u64, b: u64) -> bool {
        self.edges_across(a, b).next().is_some()
    }

    /// True when the join graph restricted to `mask` is connected.
    pub fn is_connected(&self, mask: u64) -> bool {
        let members = mask & self.full_mask();
        if members.count_ones() <= 1 {
            return members != 0;
        }
        let mut reached = 1u64 << members.trailing_zeros();
        loop {
            let mut grew = false;
            for e in &self.joins {
                let (l, r) = (1u64 << e.left, 1u64 << e.right);
                if mask & l != 0 && mask & r != 0 {
                    if reached & l != 0 && reached & r == 0 {
                        reached |= r;
                        grew = true;
                    } else if reached & r != 0 && reached & l == 0 {
                        reached |= l;
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        reached == mask
    }

    /// Bitmask of all tables (all 64 bits from 64 tables up).
    pub fn full_mask(&self) -> u64 {
        1u64.checked_shl(self.num_tables() as u32).map_or(u64::MAX, |bit| bit - 1)
    }

    /// Checks the query is well-formed against a database: tables exist,
    /// join/predicate columns exist, every join edge compares columns of one
    /// type, the join graph is connected, and the query is no wider than
    /// the DP enumerates ([`MAX_DP_TABLES`]; its table is `2^n` cells).
    pub fn validate(&self, db: &Database) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("query has no tables".into());
        }
        if self.tables.len() > MAX_DP_TABLES {
            return Err(format!(
                "{} tables: the planner enumerates at most {MAX_DP_TABLES}",
                self.tables.len()
            ));
        }
        for (i, t) in self.tables.iter().enumerate() {
            let table =
                db.catalog.table(&t.table).ok_or(format!("table {} not found", t.table))?;
            let _ = (i, table);
        }
        let col_type = |pos: usize, col: &str| -> Result<DataType, String> {
            let tref = self.tables.get(pos).ok_or(format!("table position {pos} out of range"))?;
            let table = db.catalog.table(&tref.table).ok_or("missing table")?;
            table
                .column(col)
                .map(ColumnData::dtype)
                .ok_or(format!("column {col} not on table {}", tref.table))
        };
        for e in &self.joins {
            let (lt, rt) = (col_type(e.left, &e.left_col)?, col_type(e.right, &e.right_col)?);
            if e.left == e.right {
                return Err("self-edge in join graph".into());
            }
            // `Int(2)` and `Float(2.0)` are equal as numbers and unequal as
            // hash keys: the answer would depend on the join algorithm.
            if lt != rt {
                return Err(format!(
                    "join columns {}.{} ({lt:?}) and {}.{} ({rt:?}) differ in type",
                    self.tables[e.left].table, e.left_col, self.tables[e.right].table, e.right_col
                ));
            }
        }
        for p in &self.predicates {
            col_type(p.table, &p.column)?;
        }
        if !self.is_connected(self.full_mask()) {
            return Err("join graph is not connected".into());
        }
        Ok(())
    }

    /// A 64-bit structural fingerprint of the *full* query — tables,
    /// join edges, and predicates **including constants** (via
    /// `f64::to_bits`, so two queries fingerprint equal iff their plans
    /// and result sets must be equal). This is the plan-cache key; the
    /// constant-blind counterpart is [`Query::template_signature`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = ml4db_obs::digest::Fingerprint::new();
        h.usize(self.tables.len());
        for t in &self.tables {
            h.str(&t.table);
        }
        h.usize(self.joins.len());
        for e in &self.joins {
            h.usize(e.left).str(&e.left_col).usize(e.right).str(&e.right_col);
        }
        h.usize(self.predicates.len());
        for p in &self.predicates {
            h.usize(p.table).str(&p.column).u8(p.op as u8).u64(p.value.to_bits());
        }
        h.finish()
    }

    /// A compact signature used as a template key (tables + join shape,
    /// ignoring constants) — the unit of "seen vs unseen" workload splits.
    pub fn template_signature(&self) -> String {
        let mut tables: Vec<&str> = self.tables.iter().map(|t| t.table.as_str()).collect();
        tables.sort_unstable();
        let mut joins: Vec<String> = self
            .joins
            .iter()
            .map(|e| {
                format!(
                    "{}.{}={}.{}",
                    self.tables[e.left].table, e.left_col, self.tables[e.right].table, e.right_col
                )
            })
            .collect();
        joins.sort_unstable();
        let mut preds: Vec<String> = self
            .predicates
            .iter()
            .map(|p| format!("{}.{}{:?}", self.tables[p.table].table, p.column, p.op))
            .collect();
        preds.sort_unstable();
        format!("T[{}]J[{}]P[{}]", tables.join(","), joins.join(","), preds.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(1);
        let cat = joblite(&DatasetConfig { base_rows: 100, ..Default::default() }, &mut rng);
        Database::analyze(cat, &mut rng)
    }

    fn three_way() -> Query {
        Query::new(&["title", "cast_info", "person"])
            .join(0, "id", 1, "movie_id")
            .join(1, "person_id", 2, "id")
            .filter(0, "year", CmpOp::Ge, 2000.0)
    }

    #[test]
    fn validate_accepts_well_formed() {
        three_way().validate(&db()).unwrap();
    }

    #[test]
    fn validate_rejects_unknown_table() {
        let q = Query::new(&["nope"]);
        assert!(q.validate(&db()).is_err());
    }

    #[test]
    fn validate_rejects_unknown_column() {
        let q = Query::new(&["title", "cast_info"]).join(0, "bogus", 1, "movie_id");
        assert!(q.validate(&db()).unwrap_err().contains("bogus"));
    }

    #[test]
    fn validate_rejects_disconnected() {
        let q = Query::new(&["title", "person"]); // no join edge
        assert!(q.validate(&db()).unwrap_err().contains("connected"));
    }

    #[test]
    fn connectivity_checks() {
        let q = three_way();
        assert!(q.is_connected(0b111));
        assert!(q.is_connected(0b011));
        assert!(!q.is_connected(0b101), "title-person not directly joined");
        assert!(q.is_connected(0b001));
        assert!(!q.is_connected(0b000));
    }

    #[test]
    fn edges_between_masks() {
        let q = three_way();
        assert_eq!(q.edges_between(0b001, 0b010).len(), 1);
        assert_eq!(q.edges_between(0b001, 0b100).len(), 0);
        assert_eq!(q.edges_within(0b111).count(), 2);
    }

    #[test]
    fn fingerprint_sees_constants_and_structure() {
        let a = three_way();
        assert_eq!(a.fingerprint(), three_way().fingerprint(), "deterministic");
        let mut b = three_way();
        b.predicates[0].value = 1990.0;
        assert_ne!(a.fingerprint(), b.fingerprint(), "constants distinguish");
        let mut c = three_way();
        c.joins.swap(0, 1);
        assert_ne!(a.fingerprint(), c.fingerprint(), "join order distinguishes");
    }

    #[test]
    fn template_signature_ignores_constants() {
        let a = three_way();
        let mut b = three_way();
        b.predicates[0].value = 1990.0;
        assert_eq!(a.template_signature(), b.template_signature());
        let c = Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id");
        assert_ne!(a.template_signature(), c.template_signature());
    }
}
