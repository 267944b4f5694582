//! **Table 1**: summary of query-plan representation methods in ML4DB
//! studies — regenerated from the machine-readable registry, with every
//! row's tree model resolved to the workspace implementation and
//! instantiated as a proof of coverage.

use std::collections::{BTreeMap, BTreeSet};

use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

pub fn regenerate(rec: &mut Record) {
    eprint!("{}", render_table1());
    // Prove every row is implemented: instantiate its encoder.
    let mut rng = StdRng::seed_from_u64(1);
    let rows = table1();
    let mut covered = BTreeSet::new();
    let mut per_tree_model: BTreeMap<&str, usize> = BTreeMap::new();
    let mut instantiated = 0usize;
    for row in &rows {
        *per_tree_model.entry(row.tree_model).or_default() += 1;
        if let Some(kind) =
            TreeModelKind::all().into_iter().find(|k| k.label() == row.implementation)
        {
            let enc = PlanEncoder::new(kind, 25, 16, &mut rng);
            covered.insert(format!("{} (out_dim {})", kind.label(), enc.out_dim()));
            instantiated += 1;
        }
    }
    eprintln!("\ninstantiated implementations:");
    for c in &covered {
        eprintln!("  {c}");
    }
    rec.value("rows", rows.len());
    for (tree_model, n) in &per_tree_model {
        rec.value(format!("rows_per_tree_model/{tree_model}"), *n);
    }
    rec.value("rows_instantiated", instantiated);
    rec.value("implementations", covered.into_iter().collect::<Vec<String>>());
    let paper: BTreeMap<&str, usize> = [
        ("TreeCNN", 3),
        ("TreeLSTM", 2),
        ("Feature Vector", 2),
        ("LSTM", 1),
        ("TreeRNN", 1),
        ("Transformer", 1),
    ]
    .into();
    rec.check(
        "the paper's 10 rows and tree-model counts; every row's implementation instantiates",
        rows.len() == 10 && per_tree_model == paper && instantiated == rows.len(),
    );
}
