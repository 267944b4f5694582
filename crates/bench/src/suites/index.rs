//! Learned-index lookup benchmark: builds PGM, RMI, and RadixSpline over a
//! uniform `u64` key set and drives the two-phase single / batch /
//! sorted-batch entry points against a `slice::binary_search` baseline.
//!
//! All throughput figures are wall-clock on the running host — compare them
//! only against the baseline numbers from the *same* run (the committed
//! per-PR speedup trajectory), never raw across machines.

use std::collections::BTreeMap;
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ml4db_core::index::{KeyValue, PgmIndex, RadixSpline, Rmi, TwoPhaseIndex};
use serde_json::Value;

use crate::{time, Outcome};

/// Keys in each index.
const N: usize = 1_000_000;
/// Lookups per measurement.
const N_PROBES: usize = 1_000_000;
/// Batch size of the batched entry points.
const BATCH: usize = 4096;
const SEED: u64 = 42;

/// `n` distinct sorted keys uniform over the full `u64` range.
fn uniform_keys(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n + n / 8 + 16).map(|_| rng.gen::<u64>()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(keys.len() >= n, "not enough distinct keys");
    keys.truncate(n);
    keys
}

/// Sums payload hits — a checksum that forces the lookups to happen and
/// lets each run be cross-checked against the baseline's.
fn drain(out: &[Option<u64>]) -> u64 {
    out.iter().map(|v| v.unwrap_or(0)).fold(0u64, u64::wrapping_add)
}

struct Measured {
    build_secs: f64,
    size_bytes: usize,
    single_per_sec: f64,
    batch_per_sec: f64,
    sorted_batch_per_sec: f64,
    checksum: u64,
}

fn measure<I: TwoPhaseIndex>(
    build: impl FnOnce() -> I,
    probes: &[u64],
    sorted_probes: &[u64],
    batch: usize,
) -> Measured {
    let (idx, build_secs) = time(build);
    let m = probes.len() as f64;

    let (sum_single, t_single) = time(|| {
        let mut sum = 0u64;
        for &k in probes {
            sum = sum.wrapping_add(black_box(idx.lookup(black_box(k))).unwrap_or(0));
        }
        sum
    });

    let mut out: Vec<Option<u64>> = Vec::with_capacity(batch);
    let (sum_batch, t_batch) = time(|| {
        let mut sum = 0u64;
        for chunk in probes.chunks(batch) {
            idx.lookup_batch(black_box(chunk), &mut out);
            sum = sum.wrapping_add(drain(&out));
        }
        sum
    });

    // Chunks of a globally sorted probe array stay sorted.
    let (sum_sorted, t_sorted) = time(|| {
        let mut sum = 0u64;
        for chunk in sorted_probes.chunks(batch) {
            idx.lookup_batch_sorted(black_box(chunk), &mut out);
            sum = sum.wrapping_add(drain(&out));
        }
        sum
    });

    assert_eq!(sum_single, sum_batch, "batch disagrees with single lookups");
    assert_eq!(sum_single, sum_sorted, "sorted batch disagrees with single lookups");

    Measured {
        build_secs,
        size_bytes: idx.size_bytes(),
        single_per_sec: m / t_single,
        batch_per_sec: m / t_batch,
        sorted_batch_per_sec: m / t_sorted,
        checksum: sum_single,
    }
}

fn to_json(m: &Measured, n: usize) -> Value {
    let mut o = BTreeMap::new();
    o.insert("build_secs".into(), Value::Number(m.build_secs));
    o.insert("size_bytes".into(), Value::Number(m.size_bytes as f64));
    o.insert("bytes_per_key".into(), Value::Number(m.size_bytes as f64 / n as f64));
    o.insert("single_lookups_per_sec".into(), Value::Number(m.single_per_sec.round()));
    o.insert("batch_lookups_per_sec".into(), Value::Number(m.batch_per_sec.round()));
    o.insert(
        "sorted_batch_lookups_per_sec".into(),
        Value::Number(m.sorted_batch_per_sec.round()),
    );
    Value::Object(o)
}

pub fn run() -> Outcome {
    let (n, n_probes, batch) = (N, N_PROBES, BATCH);
    let mut rng = StdRng::seed_from_u64(SEED);
    let keys = uniform_keys(n, &mut rng);
    let entries: Vec<KeyValue> = keys.iter().map(|&k| (k, k.wrapping_mul(31))).collect();

    // Probe mix: mostly present keys with a tail of uniform (almost surely
    // absent) keys, so the miss path is exercised too.
    let probes: Vec<u64> = (0..n_probes)
        .map(|_| {
            if rng.gen_bool(0.875) {
                keys[rng.gen_range(0..n)]
            } else {
                rng.gen::<u64>()
            }
        })
        .collect();
    let mut sorted_probes = probes.clone();
    sorted_probes.sort_unstable();

    // Baseline: plain binary search over the sorted entry array, same
    // chunked drive loop as the batch measurements.
    let m = probes.len() as f64;
    let bs = |k: u64| -> Option<u64> {
        entries.binary_search_by_key(&k, |e| e.0).ok().map(|i| entries[i].1)
    };
    let (base_sum, t_base_single) = time(|| {
        let mut sum = 0u64;
        for &k in &probes {
            sum = sum.wrapping_add(black_box(bs(black_box(k))).unwrap_or(0));
        }
        sum
    });
    let mut out: Vec<Option<u64>> = Vec::with_capacity(batch);
    let (base_sum_batch, t_base_batch) = time(|| {
        let mut sum = 0u64;
        for chunk in probes.chunks(batch) {
            out.clear();
            out.extend(chunk.iter().map(|&k| bs(k)));
            sum = sum.wrapping_add(drain(&out));
        }
        sum
    });
    assert_eq!(base_sum, base_sum_batch);
    drop(out);

    let pgm = measure(
        || PgmIndex::build(entries.clone(), 16),
        &probes,
        &sorted_probes,
        batch,
    );
    let rmi_fanout = (n / 64).max(1);
    let rmi = measure(
        || Rmi::build(entries.clone(), rmi_fanout),
        &probes,
        &sorted_probes,
        batch,
    );
    let rs = measure(
        || RadixSpline::build(entries.clone(), 32),
        &probes,
        &sorted_probes,
        batch,
    );
    for (name, x) in [("pgm", &pgm), ("rmi", &rmi), ("radix_spline", &rs)] {
        assert_eq!(x.checksum, base_sum, "{name} disagrees with binary search");
    }

    let base_batch_per_sec = m / t_base_batch;
    let best_batch =
        pgm.batch_per_sec.max(rmi.batch_per_sec).max(rs.batch_per_sec);

    let mut baseline = BTreeMap::new();
    baseline.insert("single_lookups_per_sec".into(), Value::Number((m / t_base_single).round()));
    baseline.insert("batch_lookups_per_sec".into(), Value::Number(base_batch_per_sec.round()));
    baseline
        .insert("size_bytes".into(), Value::Number((entries.len() * 16) as f64));

    let mut indexes = BTreeMap::new();
    indexes.insert("pgm".to_string(), to_json(&pgm, n));
    indexes.insert("rmi".to_string(), to_json(&rmi, n));
    indexes.insert("radix_spline".to_string(), to_json(&rs, n));

    let mut o = BTreeMap::new();
    o.insert("bench".into(), Value::String("index_two_phase".into()));
    o.insert("n_keys".into(), Value::Number(n as f64));
    o.insert("n_probes".into(), Value::Number(n_probes as f64));
    o.insert("batch_size".into(), Value::Number(batch as f64));
    o.insert("seed".into(), Value::Number(SEED as f64));
    o.insert("distribution".into(), Value::String("uniform_u64".into()));
    o.insert("baseline_binary_search".into(), Value::Object(baseline));
    o.insert("indexes".into(), Value::Object(indexes));
    o.insert(
        "best_batch_speedup_vs_baseline".into(),
        Value::Number((best_batch / base_batch_per_sec * 100.0).round() / 100.0),
    );
    eprintln!(
        "index: n={n}, probes={n_probes}, baseline batch {:.2}M/s | pgm {:.2}M/s, rmi {:.2}M/s, rs {:.2}M/s (best {:.2}x)",
        base_batch_per_sec / 1e6,
        pgm.batch_per_sec / 1e6,
        rmi.batch_per_sec / 1e6,
        rs.batch_per_sec / 1e6,
        best_batch / base_batch_per_sec,
    );
    Outcome { json: Value::Object(o), pass: true }
}
