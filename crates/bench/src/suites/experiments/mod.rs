//! The paper's own artifacts as one gated suite: Figure 1, Table 1 and the
//! seventeen paradigm / open-problem claims (EXPERIMENTS.md F1, T1,
//! E1–E17).
//!
//! Each experiment is one `fn(&mut Record)` in its own file: it prints its
//! human-readable table to stderr and records the regenerated values and
//! its named checks. [`EXPERIMENTS`] lists them — a new experiment is one
//! file and one line there. `BENCH_experiments.json` is canonical: it holds
//! only host-independent values (counts, bytes, simulated µs, q-errors,
//! rank correlations and ratios of those — never wall clock), so it is
//! byte-identical across runs, machines and `ML4DB_THREADS`, and CI
//! byte-compares it. One violated check fails the suite.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::Outcome;

mod e10_leon;
mod e11_paramtree;
mod e12_repr_study;
mod e13_pretrain;
mod e14_efficiency;
mod e15_drift;
mod e16_balsa;
mod e17_sam_datagen;
mod e1_learned_index_lookup;
mod e2_index_updates;
mod e3_spatial_replacement;
mod e4_rlr_tree;
mod e5_platon_packing;
mod e6_air_tree;
mod e7_neo_robustness;
mod e8_bao_bandit;
mod e9_autosteer;
mod fig1_publication_trend;
mod table1_repr_registry;

/// `(id, claim, body)`.
type Experiment = (&'static str, &'static str, fn(&mut Record));

/// Ids are the `###` headings of EXPERIMENTS.md.
const EXPERIMENTS: [Experiment; 19] = [
    (
        "F1",
        "publication trend, replacement vs ML-enhanced (Figure 1)",
        fig1_publication_trend::regenerate,
    ),
    ("T1", "query plan representation methods (Table 1)", table1_repr_registry::regenerate),
    (
        "E1",
        "learned index vs B+Tree: structure size (static)",
        e1_learned_index_lookup::regenerate,
    ),
    (
        "E2",
        "updates: RMI degrades, ALEX/dynamic-PGM adapt, B+Tree stable",
        e2_index_updates::regenerate,
    ),
    (
        "E3",
        "learned spatial (ZM/LISA/RSMI) vs R-tree: scans, size, kNN recall",
        e3_spatial_replacement::regenerate,
    ),
    ("E4", "ML-enhanced insertion: RLR-tree / RW-tree vs Guttman", e4_rlr_tree::regenerate),
    (
        "E5",
        "ML-enhanced bulk loading: PLATON (MCTS packing) vs STR",
        e5_platon_packing::regenerate,
    ),
    ("E6", "ML-enhanced search: AI+R routing vs plain R-tree", e6_air_tree::regenerate),
    (
        "E7",
        "replacement optimizers: seen vs unseen template robustness",
        e7_neo_robustness::regenerate,
    ),
    (
        "E8",
        "Bao: tail performance and adaptation under workload shift",
        e8_bao_bandit::regenerate,
    ),
    (
        "E9",
        "AutoSteer: dynamic hint-set discovery vs hand-crafted arms",
        e9_autosteer::regenerate,
    ),
    ("E10", "LEON: mixed ranking + fallback — aided, never catastrophic", e10_leon::regenerate),
    ("E11", "ParamTree: tuned R-params vs PostgreSQL-style defaults", e11_paramtree::regenerate),
    (
        "E12",
        "representation study: encodings x tree models (after [57])",
        e12_repr_study::regenerate,
    ),
    (
        "E13",
        "pretraining, zero-shot transfer, few-shot sample efficiency",
        e13_pretrain::regenerate,
    ),
    (
        "E14",
        "model efficiency: training time, accuracy, and model size",
        e14_efficiency::regenerate,
    ),
    (
        "E15",
        "drift: degradation, detection, Warper and DDUp recovery",
        e15_drift::regenerate,
    ),
    (
        "E16",
        "Balsa: sim-to-real without expert demonstrations + safe timeouts",
        e16_balsa::regenerate,
    ),
    (
        "E17",
        "SAM-style generation: cardinality-faithful synthetic data",
        e17_sam_datagen::regenerate,
    ),
];

/// What one experiment leaves behind.
#[derive(Default)]
pub struct Record {
    values: BTreeMap<String, Value>,
    checks: Vec<(String, bool)>,
}

/// Six decimals: every digit the tables print and more, without pinning
/// the artifact to the last bits of a platform's `exp` / `ln`.
fn rounded(v: Value) -> Value {
    match v {
        Value::Number(n) => Value::Number((n * 1e6).round() / 1e6),
        Value::Array(a) => Value::Array(a.into_iter().map(rounded).collect()),
        other => other,
    }
}

impl Record {
    /// Records one regenerated, host-independent value (or a series of
    /// them) under `name`.
    pub fn value(&mut self, name: impl Into<String>, v: impl Into<Value>) {
        let name = name.into();
        let previous = self.values.insert(name.clone(), rounded(v.into()));
        assert!(previous.is_none(), "value {name:?} recorded twice");
    }

    /// Records a named check of the paper's claim and prints its verdict.
    pub fn check(&mut self, name: &str, holds: bool) {
        eprintln!("shape check ({name}): {}", if holds { "HOLDS" } else { "VIOLATED" });
        self.checks.push((name.into(), holds));
    }

    fn pass(&self) -> bool {
        self.checks.iter().all(|&(_, holds)| holds)
    }
}

/// Formats a ratio as a "×" factor string.
fn factor(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b.max(1e-12))
}

fn run_one(&(id, claim, body): &Experiment) -> Record {
    eprintln!("\n================================================================");
    eprintln!("{id}: {claim}");
    eprintln!("================================================================");
    let mut record = Record::default();
    body(&mut record);
    record
}

fn experiment_json(&(id, claim, _): &Experiment, record: &Record) -> Value {
    let checks = record.checks.iter().map(|(name, holds)| {
        Value::Object(BTreeMap::from([
            ("check".to_string(), Value::from(name.as_str())),
            ("holds".to_string(), Value::Bool(*holds)),
        ]))
    });
    Value::Object(BTreeMap::from([
        ("id".to_string(), Value::from(id)),
        ("claim".to_string(), Value::from(claim)),
        ("values".to_string(), Value::Object(record.values.clone())),
        ("checks".to_string(), Value::Array(checks.collect())),
        ("pass".to_string(), Value::Bool(record.pass())),
    ]))
}

/// The artifact and the verdict, from what the experiments recorded (in
/// [`EXPERIMENTS`] order).
fn outcome(records: &[Record]) -> Outcome {
    let experiments =
        EXPERIMENTS.iter().zip(records).map(|(e, record)| experiment_json(e, record)).collect();
    let pass = records.iter().all(Record::pass);
    let json = Value::Object(BTreeMap::from([
        ("bench".to_string(), Value::from("experiments")),
        ("experiments".to_string(), Value::Array(experiments)),
        ("pass".to_string(), Value::Bool(pass)),
    ]));
    Outcome { json, pass }
}

pub fn run() -> Outcome {
    let records: Vec<Record> = EXPERIMENTS.iter().map(run_one).collect();
    let violated: Vec<&str> = EXPERIMENTS
        .iter()
        .zip(&records)
        .filter(|(_, record)| !record.pass())
        .map(|(&(id, ..), _)| id)
        .collect();
    eprintln!(
        "\nexperiments: {} run, {} checks, violated: {violated:?}",
        records.len(),
        records.iter().map(|r| r.checks.len()).sum::<usize>(),
    );
    outcome(&records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_are_the_headings_of_experiments_md() {
        // The paper's artifacts are every `###` entry above the
        // "Evaluation substrate" section (E18 onwards: infrastructure
        // evidence with entry points of its own).
        let (paper, _) = include_str!("../../../../../EXPERIMENTS.md")
            .split_once("\n## Evaluation substrate")
            .expect("EXPERIMENTS.md has an `Evaluation substrate` section");
        let headings: Vec<&str> = paper
            .lines()
            .filter_map(|line| line.strip_prefix("### "))
            .filter_map(|heading| heading.split_whitespace().next())
            .collect();
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, ..)| id).collect();
        assert_eq!(ids, headings);
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
    }

    fn records_with(verdict_of_last_check: bool) -> Vec<Record> {
        let mut records: Vec<Record> = EXPERIMENTS
            .iter()
            .map(|_| Record { checks: vec![("holds".into(), true)], ..Default::default() })
            .collect();
        records[7].checks.push(("flipped".into(), verdict_of_last_check));
        records
    }

    #[test]
    fn one_violated_check_fails_the_suite() {
        assert!(outcome(&records_with(true)).pass);
        let violated = outcome(&records_with(false));
        assert!(!violated.pass);
        assert_eq!(violated.json["pass"], Value::Bool(false));
        assert_eq!(violated.json["experiments"][7]["pass"], Value::Bool(false));
        assert_eq!(violated.json["experiments"][6]["pass"], Value::Bool(true));
    }

    /// Runs the whole suite once (seconds, even unoptimised) and F1, T1
    /// and E11 a second time.
    #[test]
    fn every_experiment_records_a_check_that_holds_and_reruns_are_identical() {
        let records: Vec<Record> = EXPERIMENTS.iter().map(run_one).collect();
        for (experiment, record) in EXPERIMENTS.iter().zip(&records) {
            let id = experiment.0;
            assert!(!record.checks.is_empty(), "{id} records no check");
            assert!(record.pass(), "{id}: {:?}", record.checks);
            if ["F1", "T1", "E11"].contains(&id) {
                assert_eq!(
                    experiment_json(experiment, &run_one(experiment)).to_string(),
                    experiment_json(experiment, record).to_string(),
                    "{id} is not reproducible"
                );
            }
        }
    }
}
