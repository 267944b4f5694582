//! Synthetic dataset generators.
//!
//! Substitution note (DESIGN.md): the surveyed papers evaluate on IMDB/JOB
//! and TPC-H. We generate schema-compatible stand-ins — `joblite`, a movie
//! star schema with Zipf-skewed and *correlated* columns (the properties
//! that break independence-assumption estimators), and `tpchlite`, an
//! orders/lineitem chain — with controllable size and skew.

use rand::Rng;
use rand_distr::{Distribution, Zipf};

use crate::table::{Catalog, ColumnData, DataType, Schema, Table};
use crate::Database;

/// Scale and skew knobs for the generators.
#[derive(Clone, Copy, Debug)]
pub struct DatasetConfig {
    /// Base row scale; fact tables get multiples of this.
    pub base_rows: usize,
    /// Zipf skew exponent for categorical columns (0.0 = uniform).
    pub skew: f64,
    /// Strength of cross-column correlation in `[0, 1]`.
    pub correlation: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self { base_rows: 2000, skew: 1.1, correlation: 0.6 }
    }
}

fn zipf_column<R: Rng + ?Sized>(n: usize, domain: u64, skew: f64, rng: &mut R) -> Vec<i64> {
    if skew <= 0.01 {
        return (0..n).map(|_| rng.gen_range(0..domain as i64)).collect();
    }
    let z = Zipf::new(domain, skew).expect("valid zipf");
    (0..n).map(|_| z.sample(rng) as i64 - 1).collect()
}

/// The `joblite` star schema:
///
/// * `title(id, kind, year, votes)` — dimension with skewed `kind`,
///   `year` correlated with `votes`.
/// * `cast_info(movie_id, person_id, role)` — fact, ~5x base rows,
///   movie popularity Zipf-skewed.
/// * `movie_info(movie_id, info_type, score)` — fact, ~3x base rows;
///   `info_type` correlated with `score`.
/// * `person(id, gender, age)` — dimension.
/// * `company(id, country)` and `movie_companies(movie_id, company_id)`.
pub fn joblite<R: Rng + ?Sized>(cfg: &DatasetConfig, rng: &mut R) -> Catalog {
    let mut catalog = Catalog::new();
    let n_titles = cfg.base_rows;
    let n_people = cfg.base_rows / 2;
    let n_companies = (cfg.base_rows / 20).max(10);

    // title
    let kinds = zipf_column(n_titles, 7, cfg.skew, rng);
    let years: Vec<i64> = (0..n_titles).map(|_| rng.gen_range(1950..2024)).collect();
    let votes: Vec<i64> = years
        .iter()
        .map(|&y| {
            // Correlation: newer titles get more votes.
            let base = ((y - 1950) as f64 / 74.0 * cfg.correlation
                + rng.gen::<f64>() * (1.0 - cfg.correlation))
                * 10_000.0;
            base as i64 + rng.gen_range(0..100)
        })
        .collect();
    catalog.add_table(Table::new(
        "title",
        Schema::new(&[
            ("id", DataType::Int),
            ("kind", DataType::Int),
            ("year", DataType::Int),
            ("votes", DataType::Int),
        ]),
        vec![
            ColumnData::Int((0..n_titles as i64).collect()),
            ColumnData::Int(kinds),
            ColumnData::Int(years),
            ColumnData::Int(votes),
        ],
    ));

    // person
    let genders = zipf_column(n_people, 3, cfg.skew * 0.5, rng);
    let ages: Vec<i64> = (0..n_people).map(|_| rng.gen_range(18..90)).collect();
    catalog.add_table(Table::new(
        "person",
        Schema::new(&[("id", DataType::Int), ("gender", DataType::Int), ("age", DataType::Int)]),
        vec![
            ColumnData::Int((0..n_people as i64).collect()),
            ColumnData::Int(genders),
            ColumnData::Int(ages),
        ],
    ));

    // cast_info: popular movies appear much more often (Zipf over titles).
    let n_cast = cfg.base_rows * 5;
    let movie_ids = zipf_column(n_cast, n_titles as u64, cfg.skew, rng);
    let person_ids: Vec<i64> = (0..n_cast).map(|_| rng.gen_range(0..n_people as i64)).collect();
    let roles = zipf_column(n_cast, 12, cfg.skew, rng);
    catalog.add_table(Table::new(
        "cast_info",
        Schema::new(&[
            ("movie_id", DataType::Int),
            ("person_id", DataType::Int),
            ("role", DataType::Int),
        ]),
        vec![ColumnData::Int(movie_ids), ColumnData::Int(person_ids), ColumnData::Int(roles)],
    ));

    // movie_info: info_type correlated with score.
    let n_info = cfg.base_rows * 3;
    let info_movie_ids = zipf_column(n_info, n_titles as u64, cfg.skew, rng);
    let info_types = zipf_column(n_info, 10, cfg.skew * 0.8, rng);
    let scores: Vec<f64> = info_types
        .iter()
        .map(|&t| {
            let mean = t as f64 / 10.0 * cfg.correlation;
            (mean + rng.gen::<f64>() * (1.0 - cfg.correlation)).clamp(0.0, 1.0) * 10.0
        })
        .collect();
    catalog.add_table(Table::new(
        "movie_info",
        Schema::new(&[
            ("movie_id", DataType::Int),
            ("info_type", DataType::Int),
            ("score", DataType::Float),
        ]),
        vec![
            ColumnData::Int(info_movie_ids),
            ColumnData::Int(info_types),
            ColumnData::Float(scores),
        ],
    ));

    // company + movie_companies
    let countries = zipf_column(n_companies, 25, cfg.skew, rng);
    catalog.add_table(Table::new(
        "company",
        Schema::new(&[("id", DataType::Int), ("country", DataType::Int)]),
        vec![ColumnData::Int((0..n_companies as i64).collect()), ColumnData::Int(countries)],
    ));
    let n_mc = cfg.base_rows * 2;
    catalog.add_table(Table::new(
        "movie_companies",
        Schema::new(&[("movie_id", DataType::Int), ("company_id", DataType::Int)]),
        vec![
            ColumnData::Int(zipf_column(n_mc, n_titles as u64, cfg.skew, rng)),
            ColumnData::Int(zipf_column(n_mc, n_companies as u64, cfg.skew, rng)),
        ],
    ));
    catalog
}

/// Stages a `joblite` instance the way every scenario runner, fixture and
/// bench does: generate, `ANALYZE`, declare `indexes` as
/// `(table, column)` pairs. Both generation and analysis draw from `rng`,
/// so a caller that keeps using `rng` afterwards stays on the same stream.
pub fn joblite_db<R: Rng + ?Sized>(
    base_rows: usize,
    indexes: &[(&str, &str)],
    rng: &mut R,
) -> Database {
    let catalog = joblite(&DatasetConfig { base_rows, ..Default::default() }, rng);
    let mut db = Database::analyze(catalog, rng);
    for (table, column) in indexes {
        db.add_index(table, column);
    }
    db
}

/// The `tpchlite` schema: `customer → orders → lineitem` plus `nation`.
pub fn tpchlite<R: Rng + ?Sized>(cfg: &DatasetConfig, rng: &mut R) -> Catalog {
    let mut catalog = Catalog::new();
    let n_cust = cfg.base_rows;
    let n_orders = cfg.base_rows * 3;
    let n_items = cfg.base_rows * 10;
    let n_nations = 25;

    catalog.add_table(Table::new(
        "nation",
        Schema::new(&[("id", DataType::Int), ("region", DataType::Int)]),
        vec![
            ColumnData::Int((0..n_nations as i64).collect()),
            ColumnData::Int((0..n_nations).map(|i| (i % 5) as i64).collect()),
        ],
    ));

    let nations = zipf_column(n_cust, n_nations as u64, cfg.skew, rng);
    let balances: Vec<f64> = (0..n_cust).map(|_| rng.gen_range(-1000.0..10_000.0)).collect();
    catalog.add_table(Table::new(
        "customer",
        Schema::new(&[
            ("id", DataType::Int),
            ("nation_id", DataType::Int),
            ("balance", DataType::Float),
        ]),
        vec![
            ColumnData::Int((0..n_cust as i64).collect()),
            ColumnData::Int(nations),
            ColumnData::Float(balances),
        ],
    ));

    let cust_ids = zipf_column(n_orders, n_cust as u64, cfg.skew, rng);
    let dates: Vec<i64> = (0..n_orders).map(|_| rng.gen_range(0..2556)).collect();
    let priorities: Vec<i64> = dates
        .iter()
        .map(|&d| {
            // Correlation: later orders skew toward high priority.
            if rng.gen::<f64>() < cfg.correlation * d as f64 / 2556.0 {
                rng.gen_range(3..5)
            } else {
                rng.gen_range(0..3)
            }
        })
        .collect();
    catalog.add_table(Table::new(
        "orders",
        Schema::new(&[
            ("id", DataType::Int),
            ("cust_id", DataType::Int),
            ("date", DataType::Int),
            ("priority", DataType::Int),
        ]),
        vec![
            ColumnData::Int((0..n_orders as i64).collect()),
            ColumnData::Int(cust_ids),
            ColumnData::Int(dates),
            ColumnData::Int(priorities),
        ],
    ));

    let order_ids = zipf_column(n_items, n_orders as u64, cfg.skew * 0.6, rng);
    let qtys: Vec<i64> = (0..n_items).map(|_| rng.gen_range(1..51)).collect();
    let prices: Vec<f64> = qtys.iter().map(|&q| q as f64 * rng.gen_range(5.0..100.0)).collect();
    let discounts: Vec<f64> = (0..n_items).map(|_| rng.gen_range(0.0..0.1)).collect();
    catalog.add_table(Table::new(
        "lineitem",
        Schema::new(&[
            ("order_id", DataType::Int),
            ("qty", DataType::Int),
            ("price", DataType::Float),
            ("discount", DataType::Float),
        ]),
        vec![
            ColumnData::Int(order_ids),
            ColumnData::Int(qtys),
            ColumnData::Float(prices),
            ColumnData::Float(discounts),
        ],
    ));
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn joblite_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DatasetConfig { base_rows: 500, ..Default::default() };
        let cat = joblite(&cfg, &mut rng);
        assert_eq!(cat.len(), 6);
        assert_eq!(cat.table("title").unwrap().num_rows(), 500);
        assert_eq!(cat.table("cast_info").unwrap().num_rows(), 2500);
        // Foreign keys stay in range.
        let ci = cat.table("cast_info").unwrap();
        let col = ci.column("movie_id").unwrap();
        for i in 0..ci.num_rows() {
            let v = col.get_f64(i);
            assert!(v >= 0.0 && v < 500.0, "fk out of range: {v}");
        }
    }

    #[test]
    fn zipf_skew_concentrates_mass() {
        let mut rng = StdRng::seed_from_u64(2);
        let vals = zipf_column(10_000, 1000, 1.3, &mut rng);
        let top = vals.iter().filter(|&&v| v < 10).count();
        assert!(
            top > 3000,
            "top-10 values hold {top}/10000 rows; expected heavy skew"
        );
    }

    #[test]
    fn correlation_knob_works() {
        let mut rng = StdRng::seed_from_u64(3);
        let strong = joblite(
            &DatasetConfig { base_rows: 2000, skew: 0.0, correlation: 0.95 },
            &mut rng,
        );
        let t = strong.table("title").unwrap();
        let years: Vec<f64> =
            (0..t.num_rows()).map(|i| t.column("year").unwrap().get_f64(i)).collect();
        let votes: Vec<f64> =
            (0..t.num_rows()).map(|i| t.column("votes").unwrap().get_f64(i)).collect();
        let corr = ml4db_nn::metrics::pearson(&years, &votes);
        assert!(corr > 0.7, "year↔votes correlation too weak: {corr}");
    }

    #[test]
    fn tpchlite_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let cat = tpchlite(&DatasetConfig { base_rows: 300, ..Default::default() }, &mut rng);
        assert_eq!(cat.len(), 4);
        assert_eq!(cat.table("lineitem").unwrap().num_rows(), 3000);
    }
}
