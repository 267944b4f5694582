//! Columnar tables, schemas, and the catalog — the storage layer every
//! query in the workspace executes against.
//!
//! Columns are numeric (`Int` or `Float`): the surveyed ML4DB systems
//! featurize predicates over numeric domains, and synthetic workloads never
//! need more. The executor holds tuples as row ids into these columns and
//! copies values out column-wise ([`ColumnData::gather`]); a [`Row`] is the
//! heap form the oracles and answer checks compare.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A column's data type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
}

/// A scalar value flowing through the executor.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
}

impl Value {
    /// Numeric view of the value (ints widen to f64).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }

    /// Integer view; floats truncate.
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
        }
    }

    /// A stable 64-bit hash key for join/group hashing. Floats are keyed by
    /// their bit pattern after normalizing -0.0 to 0.0.
    #[inline]
    pub fn hash_key(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(v) => {
                let v = if v == 0.0 { 0.0 } else { v };
                v.to_bits()
            }
        }
    }
}

/// A materialized row.
pub type Row = Vec<Value>;

/// The heap rows of a set of equal-length columns: row `i` holds each
/// column's value `i`.
pub fn rows_of(columns: &[ColumnData]) -> Vec<Row> {
    let n = columns.first().map_or(0, ColumnData::len);
    (0..n).map(|i| columns.iter().map(|c| c.get(i)).collect()).collect()
}

/// Column definition inside a schema.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Data type.
    pub dtype: DataType,
}

/// An ordered set of column definitions.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Schema {
    /// Column definitions, in storage order.
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, DataType)]) -> Self {
        Self {
            columns: cols
                .iter()
                .map(|&(name, dtype)| ColumnDef { name: name.to_string(), dtype })
                .collect(),
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// Typed column storage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
}

impl ColumnData {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
        }
    }

    /// Numeric value at row `i`.
    #[inline]
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            ColumnData::Int(v) => v[i] as f64,
            ColumnData::Float(v) => v[i],
        }
    }

    /// The values at `ids`, in that order, as a column of the same type.
    pub fn gather(&self, ids: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(ids.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => {
                ColumnData::Float(ids.iter().map(|&i| v[i as usize]).collect())
            }
        }
    }

    /// The declared type of the column.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
        }
    }
}

/// A columnar table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table {
    /// Table name (unique within a catalog).
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// One [`ColumnData`] per schema column, all the same length.
    pub columns: Vec<ColumnData>,
}

impl Table {
    /// Creates a table; validates column count and lengths.
    ///
    /// # Panics
    /// Panics if the columns don't match the schema or have ragged lengths.
    pub fn new(name: &str, schema: Schema, columns: Vec<ColumnData>) -> Self {
        assert_eq!(schema.arity(), columns.len(), "table {name}: column count mismatch");
        for (def, col) in schema.columns.iter().zip(&columns) {
            assert_eq!(def.dtype, col.dtype(), "table {name}: column {} type mismatch", def.name);
        }
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "table {name}: ragged columns"
            );
        }
        Self { name: name.to_string(), schema, columns }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.schema.column_index(name).map(|i| &self.columns[i])
    }

    /// Approximate bytes of data (8 bytes per value).
    pub fn data_bytes(&self) -> usize {
        self.num_rows() * self.schema.arity() * 8
    }
}

/// A named collection of tables — the "database instance" the experiments
/// run against.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates over the tables.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        Table::new(
            "t",
            Schema::new(&[("id", DataType::Int), ("score", DataType::Float)]),
            vec![
                ColumnData::Int(vec![1, 2, 3]),
                ColumnData::Float(vec![0.5, 1.5, 2.5]),
            ],
        )
    }

    #[test]
    fn table_row_access() {
        let t = small_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(1), vec![Value::Int(2), Value::Float(1.5)]);
        assert_eq!(t.column("score").unwrap().get_f64(2), 2.5);
        assert!(t.column("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        Table::new(
            "bad",
            Schema::new(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![ColumnData::Int(vec![1]), ColumnData::Int(vec![1, 2])],
        );
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_rejected() {
        Table::new(
            "bad",
            Schema::new(&[("a", DataType::Float)]),
            vec![ColumnData::Int(vec![1])],
        );
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        c.add_table(small_table());
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("t").unwrap().num_rows(), 3);
        assert_eq!(c.table_names(), vec!["t"]);
    }

    #[test]
    fn value_hash_key_normalizes_zero() {
        assert_eq!(Value::Float(0.0).hash_key(), Value::Float(-0.0).hash_key());
        assert_ne!(Value::Int(1).hash_key(), Value::Int(2).hash_key());
    }
}
