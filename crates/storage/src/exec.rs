//! Physical operators with instrumented execution statistics and a
//! deterministic simulated-latency model.
//!
//! Operators hold tuples **by reference**: a scan produces a selection
//! vector of row ids, a join [`Matches`] — runs of matched positions — and
//! a [`Batch`] is one row-id column per base table joined so far, gathered
//! from those runs ([`Batch::joined`]). Values are read in place from the
//! typed [`ColumnData`] and copied once, at the result boundary
//! ([`Batch::columns`]). [`ExecStats`] count cardinalities — rows in, rows
//! out, pairs compared — never anything about the representation, so the
//! simulated clock is the one a row-at-a-time engine would read.
//!
//! Substitution note (see DESIGN.md): the surveyed systems observe real
//! query latencies from PostgreSQL or production engines. Here every
//! operator counts the work it does (tuples, comparisons, hash builds and
//! probes, simulated page reads, sort operations) and latency is a fixed
//! weighted sum of those counters ([`TRUE_WEIGHTS`]). The weights are the
//! environment's ground truth: the formula cost model in `ml4db-plan` has
//! its *own* tunable parameters, and recovering the true weights from
//! observed latencies is exactly ParamTree's learning problem (E11).

use serde::{Deserialize, Serialize};

use crate::lindex::SecondaryIndex;
use crate::table::{ColumnData, Table, Value};

/// Rows per simulated disk page.
pub const ROWS_PER_PAGE: u64 = 64;

/// Simulated B+Tree descent cost in random pages for an index over `n`
/// rows: one page per level of a fanout-16 tree, `ceil(log2(n)/4) + 1`.
///
/// This is the single source of truth shared by the executor
/// ([`index_scan`]) and the formula cost model in `ml4db-plan`; the
/// differential oracle asserts the two sides cannot drift apart.
pub fn index_descent_pages(n: u64) -> u64 {
    ((n.max(2) as f64).log2() / 4.0).ceil() as u64 + 1
}

/// Work counters accumulated by every operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Rows produced.
    pub rows_out: u64,
    /// Tuples touched (CPU per-tuple work).
    pub tuples: u64,
    /// Predicate/key comparisons.
    pub comparisons: u64,
    /// Hash-table insertions.
    pub hash_builds: u64,
    /// Hash-table probes.
    pub hash_probes: u64,
    /// Simulated sequential page reads.
    pub pages_read: u64,
    /// Simulated random page reads (index traversals).
    pub random_pages: u64,
    /// Sort comparisons (n log n accounted).
    pub sort_ops: u64,
}

impl ExecStats {
    /// Accumulates another operator's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_out = other.rows_out; // the last operator defines output
        self.tuples += other.tuples;
        self.comparisons += other.comparisons;
        self.hash_builds += other.hash_builds;
        self.hash_probes += other.hash_probes;
        self.pages_read += other.pages_read;
        self.random_pages += other.random_pages;
        self.sort_ops += other.sort_ops;
    }

    /// Simulated latency in microseconds under the given weights.
    pub fn latency_us(&self, w: &CostWeights) -> f64 {
        self.tuples as f64 * w.cpu_tuple
            + self.comparisons as f64 * w.cpu_compare
            + self.hash_builds as f64 * w.hash_build
            + self.hash_probes as f64 * w.hash_probe
            + self.pages_read as f64 * w.seq_page
            + self.random_pages as f64 * w.random_page
            + self.sort_ops as f64 * w.sort_op
    }
}

/// Per-unit work weights (microseconds per unit).
///
/// These are the **R-params** of the tutorial's ParamTree discussion \[50\]:
/// PostgreSQL exposes the same knobs as `seq_page_cost`,
/// `random_page_cost`, `cpu_tuple_cost`, ... The executor uses
/// [`TRUE_WEIGHTS`]; cost models start from [`CostWeights::postgres_defaults`]
/// (deliberately mis-calibrated, as in real deployments) and ParamTree
/// learns the truth from observed latencies.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Cost per sequential page read.
    pub seq_page: f64,
    /// Cost per random page read.
    pub random_page: f64,
    /// Cost per tuple of CPU work.
    pub cpu_tuple: f64,
    /// Cost per comparison.
    pub cpu_compare: f64,
    /// Cost per hash-table insertion.
    pub hash_build: f64,
    /// Cost per hash-table probe.
    pub hash_probe: f64,
    /// Cost per sort comparison.
    pub sort_op: f64,
}

impl CostWeights {
    /// PostgreSQL-flavored default ratios (the mis-calibrated starting
    /// point a DBA ships with).
    pub fn postgres_defaults() -> Self {
        Self {
            seq_page: 1.0,
            random_page: 4.0,
            cpu_tuple: 0.01,
            cpu_compare: 0.005,
            hash_build: 0.02,
            hash_probe: 0.01,
            sort_op: 0.01,
        }
    }
}

/// The environment's ground-truth weights (µs per unit). Note the ratios
/// differ from the defaults: random pages are comparatively cheaper (fast
/// storage) and hashing comparatively more expensive, which is what a tuned
/// cost model must discover.
pub const TRUE_WEIGHTS: CostWeights = CostWeights {
    seq_page: 2.0,
    random_page: 3.0,
    cpu_tuple: 0.02,
    cpu_compare: 0.004,
    hash_build: 0.08,
    hash_probe: 0.03,
    sort_op: 0.02,
};

/// Comparison operator of a base-table predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

/// A predicate `column <op> value` over a row layout.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Column offset within the row.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison constant.
    pub value: f64,
}

impl Predicate {
    /// Evaluates the predicate against a row.
    #[inline]
    pub fn eval(&self, row: &[Value]) -> bool {
        let v = row[self.column].as_f64();
        match self.op {
            CmpOp::Eq => v == self.value,
            CmpOp::Lt => v < self.value,
            CmpOp::Le => v <= self.value,
            CmpOp::Gt => v > self.value,
            CmpOp::Ge => v >= self.value,
        }
    }

    /// Narrows `sel` (row ids into `col`) to the rows satisfying the
    /// predicate, keeping their order. Same comparison as [`Predicate::eval`]
    /// — ints widen to `f64` — read straight from the typed column.
    fn narrow(&self, col: &ColumnData, sel: &mut Vec<u32>) {
        match col {
            ColumnData::Int(v) => retain_cmp(sel, self.op, self.value, |i| v[i as usize] as f64),
            ColumnData::Float(v) => retain_cmp(sel, self.op, self.value, |i| v[i as usize]),
        }
    }
}

/// `sel.retain(get(i) <op> value)` with the operator chosen outside the loop.
fn retain_cmp(sel: &mut Vec<u32>, op: CmpOp, value: f64, get: impl Fn(u32) -> f64) {
    match op {
        CmpOp::Eq => sel.retain(|&i| get(i) == value),
        CmpOp::Lt => sel.retain(|&i| get(i) < value),
        CmpOp::Le => sel.retain(|&i| get(i) <= value),
        CmpOp::Gt => sel.retain(|&i| get(i) > value),
        CmpOp::Ge => sel.retain(|&i| get(i) >= value),
    }
}

/// Narrows `sel` by each predicate in turn and returns the comparisons a
/// row-at-a-time evaluation that stops at a row's first failing predicate
/// performs: each predicate sees exactly the rows that passed the ones
/// before it, so the count is `Σ |sel|` over the predicates.
fn narrow_all(table: &Table, sel: &mut Vec<u32>, predicates: &[Predicate]) -> u64 {
    let mut comparisons = 0;
    for p in predicates {
        comparisons += sel.len() as u64;
        p.narrow(&table.columns[p.column], sel);
    }
    comparisons
}

/// One base table's part of a [`Batch`]: the table and, per batch row, the
/// id of the table row that batch row holds.
#[derive(Debug)]
struct Slot<'a> {
    table: &'a Table,
    ids: Vec<u32>,
}

/// A column of a [`Batch`]: column `column` of the table in slot `slot`.
/// Operators index with it and panic if it names no such column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColRef {
    /// Slot position within the batch.
    pub slot: usize,
    /// Column position within that slot's table.
    pub column: usize,
}

/// An intermediate result held by reference: one slot per base table joined
/// so far, each a column of row ids into its table, all the same length.
/// Batch row `r` is the concatenation, in slot order, of table row
/// `ids[r]` of every slot. No value is copied until [`Batch::columns`].
#[derive(Debug)]
pub struct Batch<'a> {
    /// Never empty.
    slots: Vec<Slot<'a>>,
}

impl<'a> Batch<'a> {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.slots[0].ids.len()
    }

    /// The table behind slot `slot`.
    pub fn table(&self, slot: usize) -> &'a Table {
        self.slots[slot].table
    }

    /// The result boundary: copies the batch out column-wise, one typed
    /// vector per output column, slots in order and each table's columns in
    /// schema order.
    pub fn columns(&self) -> Vec<ColumnData> {
        self.slots
            .iter()
            .flat_map(|s| s.table.columns.iter().map(|c| c.gather(&s.ids)))
            .collect()
    }

    /// Keeps the rows on which columns `a` and `b` are equal (`hash_key`
    /// equality) — a residual join condition applied after the join. Charges
    /// one comparison per input row.
    ///
    /// # Errors
    /// Returns a message if the two columns differ in type.
    pub fn retain_equal(&mut self, a: ColRef, b: ColRef) -> Result<ExecStats, String> {
        let (ka, kb) = hash_key_pair(self, a, self, b)?;
        let before = self.num_rows() as u64;
        for slot in &mut self.slots {
            // `retain` visits the rows once each, in order.
            let mut keys = ka.iter().zip(&kb);
            slot.ids.retain(|_| keys.next().is_some_and(|(x, y)| x == y));
        }
        Ok(ExecStats { comparisons: before, rows_out: self.num_rows() as u64, ..Default::default() })
    }

    fn of(table: &'a Table, ids: Vec<u32>) -> Self {
        Batch { slots: vec![Slot { table, ids }] }
    }

    /// The rows of a join of `left` and `right`: left slots then right
    /// slots, each gathered once from `matches` at exactly its length.
    pub fn joined(left: &Batch<'a>, right: &Batch<'a>, matches: &Matches) -> Self {
        let lefts = left.slots.iter().map(|s| {
            let mut ids = Vec::with_capacity(matches.len);
            for &(l, start, end) in &matches.runs {
                ids.resize(ids.len() + (end - start) as usize, s.ids[l as usize]);
            }
            Slot { table: s.table, ids }
        });
        let rights = right.slots.iter().map(|s| {
            let mut ids = Vec::with_capacity(matches.len);
            for &(_, start, end) in &matches.runs {
                let run = &matches.right[start as usize..end as usize];
                ids.extend(run.iter().map(|&j| s.ids[j as usize]));
            }
            Slot { table: s.table, ids }
        });
        Batch { slots: lefts.chain(rights).collect() }
    }

    fn column(&self, c: ColRef) -> (&'a ColumnData, &[u32]) {
        let slot = &self.slots[c.slot];
        (&slot.table.columns[c.column], &slot.ids)
    }

    /// Column `c` as join keys under [`Value::hash_key`] semantics.
    fn hash_keys(&self, c: ColRef) -> Vec<u64> {
        match self.column(c) {
            (ColumnData::Int(v), ids) => ids.iter().map(|&i| v[i as usize] as u64).collect(),
            (ColumnData::Float(v), ids) => {
                ids.iter().map(|&i| Value::Float(v[i as usize]).hash_key()).collect()
            }
        }
    }

    /// Column `c` as join keys under [`Value::as_f64`] semantics.
    fn f64_keys(&self, c: ColRef) -> Vec<f64> {
        match self.column(c) {
            (ColumnData::Int(v), ids) => ids.iter().map(|&i| v[i as usize] as f64).collect(),
            (ColumnData::Float(v), ids) => ids.iter().map(|&i| v[i as usize]).collect(),
        }
    }
}

/// Rejects an equi-join between columns of different types: `hash_key`
/// never matches an `Int` with a `Float` while `as_f64` does, so the answer
/// would depend on the join algorithm.
fn same_key_type(left: &Batch, l: ColRef, right: &Batch, r: ColRef) -> Result<(), String> {
    let (lt, rt) = (left.table(l.slot), right.table(r.slot));
    let (ld, rd) = (&lt.schema.columns[l.column], &rt.schema.columns[r.column]);
    if ld.dtype == rd.dtype {
        Ok(())
    } else {
        Err(format!(
            "join key types differ: {}.{} is {:?}, {}.{} is {:?}",
            lt.name, ld.name, ld.dtype, rt.name, rd.name, rd.dtype
        ))
    }
}

fn hash_key_pair(
    left: &Batch,
    l: ColRef,
    right: &Batch,
    r: ColRef,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    same_key_type(left, l, right, r)?;
    Ok((left.hash_keys(l), right.hash_keys(r)))
}

/// All row ids of `table`, ascending.
fn row_ids(table: &Table) -> std::ops::Range<u32> {
    0..u32::try_from(table.num_rows()).expect("a table holds at most u32::MAX rows")
}

/// Reports one physical-operator invocation to the observability sink:
/// coarse call/row counters per operator, merged associatively across
/// worker shards.
fn observe_op(op: &'static str, rows_out: u64) {
    ml4db_obs::counter_add(op, 1);
    ml4db_obs::histogram_observe("exec.rows_out", rows_out as f64);
}

/// Sequential scan with pushed-down predicates; rows in ascending row-id
/// order.
pub fn seq_scan<'a>(table: &'a Table, predicates: &[Predicate]) -> (Batch<'a>, ExecStats) {
    let mut sel: Vec<u32> = row_ids(table).collect();
    let n = sel.len() as u64;
    let comparisons = narrow_all(table, &mut sel, predicates);
    let stats = ExecStats {
        tuples: n,
        pages_read: n.div_ceil(ROWS_PER_PAGE),
        comparisons,
        rows_out: sel.len() as u64,
        ..Default::default()
    };
    observe_op("exec.seq_scan.calls", stats.rows_out);
    (Batch::of(table, sel), stats)
}

/// Index scan: returns rows whose `column` value lies in `[lo, hi]` and that
/// pass `residual`, in ascending row-id order, assuming an ordered auxiliary
/// index exists (the caller guarantees it).
///
/// Cost model: one random page per index level plus one random page per
/// matching `ROWS_PER_PAGE` rows (unclustered access), plus per-tuple CPU
/// for the matches and residual predicate evaluation.
///
/// The matching row ids come from `sidx` — a learned
/// [`SecondaryIndex`] over `column` — when one is built, and from a sweep of
/// the column otherwise. Both give the same selection, so `(rows, stats)`
/// are byte-identical either way: the simulated cost describes the
/// *physical plan*, which is unchanged; only the in-process probe work
/// differs.
pub fn index_scan<'a>(
    table: &'a Table,
    column: usize,
    lo: f64,
    hi: f64,
    residual: &[Predicate],
    sidx: Option<&SecondaryIndex>,
) -> (Batch<'a>, ExecStats) {
    let mut sel = match sidx {
        // An equality probe is one borrowed, already-ascending run.
        Some(sidx) if lo == hi => sidx.probe_eq(lo).to_vec(),
        Some(sidx) => {
            // The run is grouped by key; one copy + sort restores row-id order.
            let mut rids = sidx.range_rows(lo, hi).to_vec();
            rids.sort_unstable();
            rids
        }
        None => {
            let col = &table.columns[column];
            let in_range = |&i: &u32| {
                let v = col.get_f64(i as usize);
                v >= lo && v <= hi
            };
            row_ids(table).filter(in_range).collect()
        }
    };
    let matched = sel.len() as u64;
    let comparisons = narrow_all(table, &mut sel, residual);
    let stats = ExecStats {
        tuples: matched,
        comparisons,
        // Simulated B+Tree descent, then the matching tuples' pages.
        random_pages: index_descent_pages(table.num_rows() as u64)
            + matched.div_ceil(ROWS_PER_PAGE),
        rows_out: sel.len() as u64,
        ..Default::default()
    };
    observe_op("exec.index_scan.calls", stats.rows_out);
    (Batch::of(table, sel), stats)
}

/// Physical join algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinAlgo {
    /// Nested-loop join.
    NestedLoop,
    /// Hash join (build on the right input).
    Hash,
    /// Sort-merge join.
    SortMerge,
}

/// A join's output by position, before any row id is gathered: per matched
/// left row, one run of the right rows it pairs with. [`Batch::joined`]
/// gathers it; a caller that needs only the row count reads [`Matches::len`].
#[derive(Debug)]
pub struct Matches {
    /// Right row positions; every run is a slice of it.
    right: Vec<u32>,
    /// `(left position, start, end)`: that left row pairs with the right
    /// rows at `right[start..end]`. Runs and their slices are in output order.
    runs: Vec<(u32, u32, u32)>,
    /// Output rows: the runs' total length.
    len: usize,
}

impl Matches {
    /// Output rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pair matched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The right input of a hash or nested-loop join grouped by key: open
/// addressing over the distinct keys, then a stable counting sort of the
/// right positions by group, so each key's rows are one ascending slice of
/// `order`.
struct Grouped {
    /// `(key, group id)` per hash slot, the id [`Grouped::FREE`] when the
    /// slot is; a power of two long, at most half full.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: a key's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
    /// Group `g` is `order[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<u32>,
    /// Right positions, grouped.
    order: Vec<u32>,
}

impl Grouped {
    const FREE: u32 = u32::MAX;

    fn build(rk: &[u64]) -> Self {
        // At least two slots keeps `shift` below 64.
        let n_slots = (rk.len() * 2).next_power_of_two().max(2);
        let mut g = Grouped {
            slots: vec![(0, Self::FREE); n_slots],
            shift: 64 - n_slots.trailing_zeros(),
            bounds: Vec::with_capacity(rk.len() + 1),
            order: vec![0; rk.len()],
        };
        // Group ids in first-seen order; `bounds` counts each group's rows.
        let mut group_of = Vec::with_capacity(rk.len());
        for &key in rk {
            let s = g.slot(key);
            if g.slots[s].1 == Self::FREE {
                g.slots[s] = (key, g.bounds.len() as u32);
                g.bounds.push(0);
            }
            let id = g.slots[s].1;
            g.bounds[id as usize] += 1;
            group_of.push(id);
        }
        // Counts become group ends; placing positions back to front then
        // leaves each group ascending and moves its bound to its start.
        let mut end = 0;
        for b in &mut g.bounds {
            end += *b;
            *b = end;
        }
        g.bounds.push(end);
        for (j, &id) in group_of.iter().enumerate().rev() {
            let b = &mut g.bounds[id as usize];
            *b -= 1;
            g.order[*b as usize] = j as u32;
        }
        g
    }

    /// The slot holding `key`, or the free slot where it would go.
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.slots[s].1 != Self::FREE && self.slots[s].0 != key {
            s = (s + 1) & mask;
        }
        s
    }
}

/// Every `(i, j)` with `lk[i] == rk[j]`, left-major and each left row's
/// matches in ascending right order: the nested loop's output, from one
/// grouped build of `rk` and one lookup per left key.
fn grouped_matches(lk: &[u64], rk: &[u64]) -> Matches {
    let grouped = Grouped::build(rk);
    let mut runs = Vec::with_capacity(lk.len());
    let mut len = 0;
    for (i, &key) in lk.iter().enumerate() {
        let id = grouped.slots[grouped.slot(key)].1;
        if id != Grouped::FREE {
            let (start, end) = (grouped.bounds[id as usize], grouped.bounds[id as usize + 1]);
            runs.push((i as u32, start, end));
            len += (end - start) as usize;
        }
    }
    Matches { right: grouped.order, runs, len }
}

/// Sort-merge matching: both inputs stably sorted by key, each left row of
/// an equal-key run paired with the whole right run, left-major. Returns the
/// matches and the sort and merge counters.
fn sort_merge_matches(
    left: &Batch,
    left_key: ColRef,
    right: &Batch,
    right_key: ColRef,
) -> (Matches, ExecStats) {
    let nlogn = |n: usize| -> u64 {
        if n <= 1 {
            n as u64
        } else {
            (n as f64 * (n as f64).log2()).ceil() as u64
        }
    };
    // Row positions in stable key order, and the keys in that order. Ties
    // broken by position make the in-place unstable sort a stable one.
    let sorted = |keys: Vec<f64>| -> (Vec<u32>, Vec<f64>) {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            keys[a as usize]
                .partial_cmp(&keys[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let keys = order.iter().map(|&i| keys[i as usize]).collect();
        (order, keys)
    };
    let (l_order, lk) = sorted(left.f64_keys(left_key));
    let (r_order, rk) = sorted(right.f64_keys(right_key));
    // At most one run per left row.
    let mut runs = Vec::with_capacity(lk.len());
    let mut len = 0;
    let mut comparisons = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < lk.len() && j < rk.len() {
        comparisons += 1;
        let key = lk[i];
        if key < rk[j] {
            i += 1;
        } else if key > rk[j] {
            j += 1;
        } else {
            let mut j_end = j;
            while j_end < rk.len() && rk[j_end] == key {
                j_end += 1;
            }
            while i < lk.len() && lk[i] == key {
                runs.push((l_order[i], j as u32, j_end as u32));
                len += j_end - j;
                i += 1;
            }
            j = j_end;
        }
    }
    let stats = ExecStats {
        sort_ops: nlogn(lk.len()) + nlogn(rk.len()),
        comparisons,
        ..Default::default()
    };
    (Matches { right: r_order, runs, len }, stats)
}

/// Equi-join of `left` and `right` on `left_key = right_key` under `algo`:
/// the matches and the algorithm's work counters. [`Batch::joined`] gathers
/// the output rows, left slots then right slots.
///
/// Nested loop and hash join share one kernel — a grouped build of the right
/// keys — and so return the same matches under `hash_key` equality, left-
/// major, each left row's matches in ascending right order. Only their
/// counters differ: the nested loop is charged every pair compared, the hash
/// join one build per right row and one probe per left row. Sort-merge
/// matches under `as_f64` equality in key order.
///
/// # Errors
/// Returns a message if the key columns differ in type.
pub fn join(
    algo: JoinAlgo,
    left: &Batch,
    right: &Batch,
    left_key: ColRef,
    right_key: ColRef,
) -> Result<(Matches, ExecStats), String> {
    let (l, r) = (left.num_rows() as u64, right.num_rows() as u64);
    let (matches, mut stats, op) = match algo {
        JoinAlgo::NestedLoop => {
            let (lk, rk) = hash_key_pair(left, left_key, right, right_key)?;
            let stats = ExecStats { comparisons: l * r, ..Default::default() };
            (grouped_matches(&lk, &rk), stats, "exec.nested_loop_join.calls")
        }
        JoinAlgo::Hash => {
            let (lk, rk) = hash_key_pair(left, left_key, right, right_key)?;
            let stats = ExecStats { hash_builds: r, hash_probes: l, ..Default::default() };
            (grouped_matches(&lk, &rk), stats, "exec.hash_join.calls")
        }
        JoinAlgo::SortMerge => {
            same_key_type(left, left_key, right, right_key)?;
            let (matches, stats) = sort_merge_matches(left, left_key, right, right_key);
            (matches, stats, "exec.sort_merge_join.calls")
        }
    };
    stats.rows_out = matches.len() as u64;
    stats.tuples = l + r + stats.rows_out;
    observe_op(op, stats.rows_out);
    Ok((matches, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{rows_of, DataType, Row, Schema};
    use proptest::prelude::*;

    fn table_ab() -> Table {
        Table::new(
            "t",
            Schema::new(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![
                ColumnData::Int((0..100).collect()),
                ColumnData::Int((0..100).map(|i| i % 10).collect()),
            ],
        )
    }

    /// A `(key, tag)` table: row `i` is `(keys[i], first_tag + i)`.
    fn keyed(keys: Vec<i64>, first_tag: i64) -> Table {
        let tags = (0..keys.len() as i64).map(|i| first_tag + i).collect();
        Table::new(
            "k",
            Schema::new(&[("key", DataType::Int), ("tag", DataType::Int)]),
            vec![ColumnData::Int(keys), ColumnData::Int(tags)],
        )
    }

    const KEY: ColRef = ColRef { slot: 0, column: 0 };

    const ALGOS: [JoinAlgo; 3] = [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge];

    /// `algo`'s output over two whole tables joined on their first columns.
    fn join_tables(algo: JoinAlgo, left: &Table, right: &Table) -> (Vec<Row>, ExecStats) {
        let (l, r) = (seq_scan(left, &[]).0, seq_scan(right, &[]).0);
        let (matches, stats) = join(algo, &l, &r, KEY, KEY).unwrap();
        let out = Batch::joined(&l, &r, &matches);
        assert_eq!(matches.len(), out.num_rows(), "{algo:?}: matches and gather disagree");
        (rows_of(&out.columns()), stats)
    }

    /// Every join algorithm's output, as `[nested loop, hash, sort-merge]`.
    fn all_joins(left: &Table, right: &Table) -> [(Vec<Row>, ExecStats); 3] {
        ALGOS.map(|algo| join_tables(algo, left, right))
    }

    #[test]
    fn seq_scan_filters() {
        let t = table_ab();
        let (batch, stats) = seq_scan(
            &t,
            &[Predicate { column: 1, op: CmpOp::Eq, value: 3.0 }],
        );
        assert_eq!(batch.num_rows(), 10);
        assert_eq!(stats.rows_out, 10);
        assert_eq!(stats.tuples, 100);
        assert!(stats.pages_read >= 1);
    }

    #[test]
    fn comparisons_count_the_short_circuit() {
        // 100 rows meet the first predicate, the 10 that pass meet the
        // second, the 5 that pass both meet the third.
        let t = table_ab();
        let (batch, stats) = seq_scan(
            &t,
            &[
                Predicate { column: 1, op: CmpOp::Eq, value: 3.0 },
                Predicate { column: 0, op: CmpOp::Lt, value: 50.0 },
                Predicate { column: 0, op: CmpOp::Ge, value: 20.0 },
            ],
        );
        assert_eq!(stats.comparisons, 100 + 10 + 5);
        assert_eq!(rows_of(&batch.columns()), vec![t.row(23), t.row(33), t.row(43)]);
    }

    #[test]
    fn index_scan_matches_seq_scan() {
        // Large table, selective range: the regime where an index scan wins.
        let t = Table::new(
            "big",
            Schema::new(&[("a", DataType::Int)]),
            vec![ColumnData::Int((0..20_000).collect())],
        );
        let (idx, idx_stats) = index_scan(&t, 0, 20.0, 30.0, &[], None);
        let (seq, seq_stats) = seq_scan(
            &t,
            &[
                Predicate { column: 0, op: CmpOp::Ge, value: 20.0 },
                Predicate { column: 0, op: CmpOp::Le, value: 30.0 },
            ],
        );
        assert_eq!(idx.columns(), seq.columns());
        // Selective index scan should cost less than the full scan under
        // the true weights.
        assert!(
            idx_stats.latency_us(&TRUE_WEIGHTS) < seq_stats.latency_us(&TRUE_WEIGHTS),
            "index {} !< seq {}",
            idx_stats.latency_us(&TRUE_WEIGHTS),
            seq_stats.latency_us(&TRUE_WEIGHTS)
        );
    }

    #[test]
    fn learned_index_scan_is_byte_identical_to_sweep() {
        // Duplicated, non-monotone column so equality runs and residual
        // short-circuits are exercised.
        let t = Table::new(
            "t",
            Schema::new(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![
                ColumnData::Int((0..10_000).map(|i| (i * 37) % 997).collect()),
                ColumnData::Int((0..10_000).map(|i| i % 10).collect()),
            ],
        );
        let sidx = SecondaryIndex::build(&t.columns[0]);
        let residuals: [&[Predicate]; 2] = [
            &[],
            &[
                Predicate { column: 1, op: CmpOp::Ge, value: 3.0 },
                Predicate { column: 1, op: CmpOp::Lt, value: 7.0 },
            ],
        ];
        let ranges = [
            (100.0, 300.0), // range
            (42.0, 42.0),   // equality (multi-row run)
            (996.5, 996.5), // equality, absent key
            (2000.0, 3000.0), // above all keys
            (300.0, 100.0), // empty range
        ];
        for residual in residuals {
            for (lo, hi) in ranges {
                let (sweep, sweep_stats) = index_scan(&t, 0, lo, hi, residual, None);
                let (learned, learned_stats) = index_scan(&t, 0, lo, hi, residual, Some(&sidx));
                assert_eq!(learned.columns(), sweep.columns(), "rows differ for [{lo}, {hi}]");
                assert_eq!(learned_stats, sweep_stats, "stats differ for [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn joins_agree() {
        let left = keyed((0..50).map(|i| i % 7).collect(), 0);
        let right = keyed((0..30).map(|i| i % 5).collect(), 0);
        let [(nl, _), (mut hj, _), (mut smj, _)] = all_joins(&left, &right);
        assert_eq!(nl, hj, "hash join keeps the nested loop's row order");
        let key = |r: &Row| (r[1].as_i64(), r[3].as_i64());
        let mut nl_sorted = nl.clone();
        nl_sorted.sort_by_key(|r| key(r));
        hj.sort_by_key(|r| key(r));
        smj.sort_by_key(|r| key(r));
        assert_eq!(nl_sorted, hj, "hash join disagrees with nested loop");
        assert_eq!(nl_sorted, smj, "merge join disagrees with nested loop");
    }

    #[test]
    fn join_cost_shapes() {
        // Large x large: nested loop must be far more expensive than hash.
        let big = keyed((0..500).map(|i| i % 50).collect(), 0);
        let [(_, nl), (_, hj), _] = all_joins(&big, &big);
        assert!(nl.latency_us(&TRUE_WEIGHTS) > 5.0 * hj.latency_us(&TRUE_WEIGHTS));
        // Tiny inner: nested loop can win (no build cost).
        let tiny = keyed(vec![1], 0);
        let [(_, nl2), (_, hj2), _] = all_joins(&tiny, &tiny);
        assert!(nl2.latency_us(&TRUE_WEIGHTS) <= hj2.latency_us(&TRUE_WEIGHTS));
    }

    #[test]
    fn residual_condition_compacts_every_slot() {
        let left = keyed(vec![1, 2, 3], 10);
        let right = keyed(vec![3, 1, 2], 12);
        let (l, r) = (seq_scan(&left, &[]).0, seq_scan(&right, &[]).0);
        let (matches, _) = join(JoinAlgo::Hash, &l, &r, KEY, KEY).unwrap();
        let mut out = Batch::joined(&l, &r, &matches);
        // Keys 1, 2, 3 pair tags (10, 13), (11, 14), (12, 12).
        let tag = |slot| ColRef { slot, column: 1 };
        let stats = out.retain_equal(tag(0), tag(1)).unwrap();
        assert_eq!((stats.comparisons, stats.rows_out), (3, 1));
        assert_eq!(rows_of(&out.columns()), vec![[left.row(2), right.row(0)].concat()]);
    }

    #[test]
    fn mixed_type_keys_are_an_error_under_every_algorithm() {
        let ints = keyed(vec![1, 2, 3], 0);
        let floats = Table::new(
            "f",
            Schema::new(&[("key", DataType::Float)]),
            vec![ColumnData::Float(vec![2.0, 3.0, 4.5])],
        );
        let (l, r) = (seq_scan(&ints, &[]).0, seq_scan(&floats, &[]).0);
        for algo in ALGOS {
            let err = join(algo, &l, &r, KEY, KEY).unwrap_err();
            assert!(err.contains("join key types differ"), "{err}");
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats { tuples: 10, rows_out: 5, ..Default::default() };
        let b = ExecStats { tuples: 7, rows_out: 3, comparisons: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.tuples, 17);
        assert_eq!(a.comparisons, 2);
        assert_eq!(a.rows_out, 3, "rows_out reflects the downstream operator");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All three join algorithms produce identical multisets of rows.
        #[test]
        fn join_equivalence(
            lkeys in proptest::collection::vec(0i64..20, 0..60),
            rkeys in proptest::collection::vec(0i64..20, 0..60),
        ) {
            let [(mut nl, _), (mut hj, _), (mut smj, _)] =
                all_joins(&keyed(lkeys, 0), &keyed(rkeys, 1000));
            let sort_key = |r: &Row| (r[1].as_i64(), r[3].as_i64());
            nl.sort_by_key(sort_key);
            hj.sort_by_key(sort_key);
            smj.sort_by_key(sort_key);
            prop_assert_eq!(&nl, &hj);
            prop_assert_eq!(&nl, &smj);
        }

        /// Over duplicate-heavy keys — a small domain, or Zipf-like repeats
        /// of a few hot keys — and empty sides: nested loop and hash join
        /// emit, in order, what a plain nested loop over the rows emits;
        /// every algorithm's counters are the closed forms the cost model
        /// charges; and the match count is the gathered row count (checked
        /// in `join_tables`).
        #[test]
        fn join_kernels_match_a_reference_nested_loop(
            lkeys in proptest::collection::vec(0i64..6, 0..80),
            rkeys in proptest::collection::vec(0i64..6, 0..80),
            skew in proptest::collection::vec((0u32..64, 0i64..40), 0..80),
        ) {
            // Half the rows take key 0, a quarter key 1, the rest one of 40.
            let zipf: Vec<i64> = skew
                .iter()
                .map(|&(u, k)| if u < 32 { 0 } else if u < 48 { 1 } else { k })
                .collect();
            let sides = [(&lkeys, &rkeys), (&zipf, &rkeys), (&lkeys, &zipf), (&zipf, &zipf)];
            for (lkeys, rkeys) in sides {
                let (left, right) = (keyed(lkeys.clone(), 0), keyed(rkeys.clone(), 1000));
                let reference: Vec<Row> = (0..left.num_rows())
                    .flat_map(|i| (0..right.num_rows()).map(move |j| (i, j)))
                    .filter(|&(i, j)| lkeys[i] == rkeys[j])
                    .map(|(i, j)| [left.row(i), right.row(j)].concat())
                    .collect();
                let (l, r, out) = (lkeys.len() as u64, rkeys.len() as u64, reference.len() as u64);
                let [(nl, nl_stats), (hj, hj_stats), (smj, smj_stats)] = all_joins(&left, &right);
                prop_assert_eq!(&nl, &reference);
                prop_assert_eq!(&hj, &reference);
                prop_assert_eq!(smj.len(), reference.len());
                let common = ExecStats { rows_out: out, tuples: l + r + out, ..Default::default() };
                prop_assert_eq!(nl_stats, ExecStats { comparisons: l * r, ..common });
                prop_assert_eq!(hj_stats, ExecStats { hash_builds: r, hash_probes: l, ..common });
                let (sort_ops, comparisons) = (smj_stats.sort_ops, smj_stats.comparisons);
                prop_assert_eq!(smj_stats, ExecStats { sort_ops, comparisons, ..common });
                prop_assert!(comparisons <= l + r);
            }
        }
    }
}
