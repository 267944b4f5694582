//! Durable-tier benchmark: WAL append throughput, recovery latency,
//! run-index build time, on-disk bytes per key — and, on a store loaded
//! the way the `kv_durable` workload loads it, the read amplification
//! compaction leaves behind, the cost of a 100-key `range`, the speed of
//! the tier's merge and the worst commit (the one that pays for a merge).
//!
//! The timing figures are wall-clock on the running host — compare only
//! within one run (the committed per-PR trajectory), never raw across
//! machines. The workload itself is seeded and deterministic and the
//! run key filters hash with a fixed function, so the read-amplification
//! figures (`runs_after_load`, `mean_runs_probed_per_get`,
//! `mean_runs_searched_per_get`) and `filter_false_positive_rate` are
//! exact counts, identical on every host; `runs_after_load` and
//! `mean_runs_searched_per_get` are the suite's gates.

use std::collections::BTreeMap;
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use ml4db_core::storage::durable::run::{
    gate_run_index, merge_runs, MergeInput, Run, RunEntry, RunIndex,
};
use ml4db_core::storage::durable::{
    DurableStore, SimDisk, StoreConfig, Wal, WalConfig, WalRecord,
};
use serde_json::Value;

use crate::{time, Outcome};

/// Records appended and replayed.
const N: u64 = 100_000;
/// Records per commit.
const BATCH: u64 = 64;
const SEED: u64 = 42;
/// Keys loaded for the read-amplification count.
const LOADED_KEYS: u64 = 200_000;
/// Most runs a default-config store may hold after that load: fan-in 8
/// leaves at most 7 per size tier and the load spans three tiers;
/// without compaction it holds 196.
const MAX_RUNS_AFTER_LOAD: usize = 24;
/// Most runs a `get` on that store may search on average: the one
/// holding the key, plus the few whose key filter lets an absent key
/// through (1.07 at 10 bits per key; 5.9 with no filter).
const MAX_RUNS_SEARCHED_PER_GET: f64 = 1.5;
/// Absent keys asked of every run's filter for the false-positive rate.
const ABSENT_PROBES: u64 = 100_000;

/// Ranges timed for `range_100_keys_us`.
const RANGES: u64 = 20_000;

/// What the loaded store showed: five exact figures, three wall-clock
/// ones.
struct Loaded {
    runs_after_load: usize,
    runs_probed_per_get: f64,
    runs_searched_per_get: f64,
    filter_bits_per_key: f64,
    filter_false_positive_rate: f64,
    max_commit_ms: f64,
    range_100_keys_us: f64,
    merge_entries_per_sec: f64,
}

/// Loads [`LOADED_KEYS`] shuffled keys into a default-config store,
/// timing every commit, and counts, exactly, the runs left, the mean
/// runs a `get` probes (newest first, until one holds the key) over a
/// zipf sample of them, how many of those its key filters let through to
/// an index search, and how often a filter passes a key its run lacks.
/// Then times 100-key ranges over the loaded keys
/// and one merge of all the runs left, the way a compaction reaching the
/// oldest run would do it.
fn load_and_read(rng: &mut StdRng) -> Loaded {
    let mut order: Vec<u64> = (0..LOADED_KEYS).collect();
    order.shuffle(rng);
    let mut store = DurableStore::create(SimDisk::new(), StoreConfig::default()).expect("create");
    let mut max_commit = 0f64;
    for chunk in order.chunks(BATCH as usize) {
        for &key in chunk {
            store.put(key, key).expect("put");
        }
        let (_, t_commit) = time(|| store.commit().expect("commit"));
        max_commit = max_commit.max(t_commit);
    }
    store.flush().expect("flush");
    let gets = 100_000u64;
    let (mut probed, mut searched) = (0u64, 0u64);
    for _ in 0..gets {
        // Zipf with exponent 1 by inverse CDF (rank = N^u), ranks
        // scattered over the key space so hot keys do not share a run.
        let rank = (LOADED_KEYS as f64).powf(rng.gen::<f64>()) as u64;
        let key = rank.wrapping_mul(2_654_435_761) % LOADED_KEYS;
        let mut newest_first = store.runs().iter().rev();
        let at = newest_first.position(|run| run.get_unindexed(key).is_some());
        let at = at.expect("every loaded key is in a run") + 1;
        probed += at as u64;
        let passed = store.runs().iter().rev().take(at).filter(|run| run.may_contain(key));
        searched += passed.count() as u64;
    }
    // Keys past the loaded ones are in no run.
    let false_positives: u64 = (LOADED_KEYS..LOADED_KEYS + ABSENT_PROBES)
        .map(|key| store.runs().iter().filter(|run| run.may_contain(key)).count() as u64)
        .sum();
    let filter_bytes: usize = store.runs().iter().map(Run::filter_bytes).sum();
    let run_keys: usize = store.runs().iter().map(Run::len).sum();

    let los: Vec<u64> = (0..RANGES).map(|_| rng.gen_range(0..LOADED_KEYS - 100)).collect();
    let (rows, t_ranges) = time(|| {
        los.iter().map(|&lo| black_box(store.range(lo, lo + 99)).len() as u64).sum::<u64>()
    });
    assert_eq!(rows, RANGES * 100, "every loaded key is live");

    let inputs: Vec<MergeInput<'_>> = store.runs().iter().map(Run::view).collect();
    let (merged, t_merge) = time(|| merge_runs(black_box(&inputs), true));
    assert_eq!(merged.len() as u64, LOADED_KEYS);

    Loaded {
        runs_after_load: store.runs().len(),
        runs_probed_per_get: probed as f64 / gets as f64,
        runs_searched_per_get: searched as f64 / gets as f64,
        filter_bits_per_key: (filter_bytes * 8) as f64 / run_keys as f64,
        filter_false_positive_rate: false_positives as f64
            / (ABSENT_PROBES * store.runs().len() as u64) as f64,
        max_commit_ms: max_commit * 1e3,
        range_100_keys_us: t_ranges * 1e6 / RANGES as f64,
        merge_entries_per_sec: LOADED_KEYS as f64 / t_merge,
    }
}

pub fn run() -> Outcome {
    let (n, batch) = (N, BATCH);
    let mut rng = StdRng::seed_from_u64(SEED);

    // --- WAL append + commit throughput (SimDisk: measures the CPU
    // cost of framing/CRC/bookkeeping, not host fsync latency) --------
    let wal_cfg = WalConfig { segment_bytes: 1 << 20, ..WalConfig::default() };
    let mut disk = SimDisk::new();
    let mut wal = Wal::create(&mut disk, wal_cfg).expect("create");
    let records: Vec<(u64, u64)> =
        (0..n).map(|_| (rng.gen::<u64>(), rng.gen::<u64>())).collect();
    let (_, t_append) = time(|| {
        for chunk in records.chunks(batch as usize) {
            for &(key, value) in chunk {
                let seq = wal.alloc_seq();
                wal.append(&mut disk, &WalRecord::Put { seq, key, value }).expect("append");
            }
            let seq = wal.alloc_seq();
            wal.append(&mut disk, &WalRecord::Commit { seq }).expect("append");
            wal.sync(&mut disk).expect("sync");
        }
    });
    let wal_bytes = disk.durable_bytes();

    // --- Recovery: replay the log just written --------------------------
    let ((_, replay), t_recover) =
        time(|| Wal::recover(&mut disk, wal_cfg).expect("recover"));
    assert_eq!(replay.records.len() as u64, n + n.div_ceil(batch));
    black_box(&replay);

    // --- Full store recovery (runs + WAL + gated index rebuild) ---------
    let store_cfg = StoreConfig {
        wal: wal_cfg,
        memtable_limit: (n as usize / 4).max(1024),
    };
    let mut store = DurableStore::create(SimDisk::new(), store_cfg).expect("create");
    for chunk in records.chunks(batch as usize) {
        for &(key, value) in chunk {
            store.put(key, value).expect("put");
        }
        store.commit().expect("commit");
    }
    store.flush().expect("flush");
    let run_bytes: u64 = store.runs().iter().map(Run::file_bytes).sum();
    let run_entries: u64 = store.runs().iter().map(|r| r.len() as u64).sum();
    let medium = store.into_medium();
    let ((reopened, report), t_store_recover) =
        time(|| DurableStore::open(medium, store_cfg).expect("open"));
    assert_eq!(report.runs_rejected, 0);
    assert!(reopened.runs().iter().all(|r| matches!(r.index(), RunIndex::Learned(_))));

    // --- Run-index build (the lifecycle-gated PGM alone: `Run::assemble`
    // also builds the key filter) ----------------------------------------
    let mut keys: Vec<u64> = records.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(n as usize);
    let keys_built = keys.len() as u64;
    let (index, t_index_build) = time(|| gate_run_index(black_box(&keys)));
    assert!(matches!(index, RunIndex::Learned(_)), "gate rejected a clean build");
    let entries = keys.into_iter().map(|key| RunEntry::Put { key, value: key ^ 0xA5 }).collect();
    let run = Run::assemble(0, entries, 0);

    // --- Probe throughput through the gated index -----------------------
    let probes: Vec<u64> = (0..200_000u64).map(|_| rng.gen::<u64>()).collect();
    let (sum_learned, t_probe) = time(|| {
        let mut sum = 0u64;
        for &k in &probes {
            if let Some(RunEntry::Put { value, .. }) = black_box(run.get(black_box(k))) {
                sum = sum.wrapping_add(value);
            }
        }
        sum
    });
    let (sum_binary, t_probe_binary) = time(|| {
        let mut sum = 0u64;
        for &k in &probes {
            if let Some(RunEntry::Put { value, .. }) = black_box(run.get_unindexed(black_box(k))) {
                sum = sum.wrapping_add(value);
            }
        }
        sum
    });
    assert_eq!(sum_learned, sum_binary, "gated index disagrees with binary search");

    // --- The loaded store: read amplification (exact counts, the gates),
    // range, merge and worst-commit cost -------------------------------
    let loaded = load_and_read(&mut rng);
    eprintln!(
        "storage: range_100_keys_us={:.2} merge_entries_per_sec={:.0} max_commit_ms={:.2}",
        loaded.range_100_keys_us, loaded.merge_entries_per_sec, loaded.max_commit_ms
    );

    let per_1e5 = 100_000.0 / n as f64;
    let mut o = BTreeMap::new();
    o.insert("bench".into(), Value::String("storage_durable".into()));
    o.insert("n_records".into(), Value::Number(n as f64));
    o.insert("batch".into(), Value::Number(batch as f64));
    o.insert("seed".into(), Value::Number(SEED as f64));
    o.insert(
        "wal_append_records_per_sec".into(),
        Value::Number((n as f64 / t_append).round()),
    );
    o.insert(
        "wal_bytes_per_record".into(),
        Value::Number((wal_bytes as f64 / n as f64 * 100.0).round() / 100.0),
    );
    o.insert(
        "wal_recovery_ms_per_100k_records".into(),
        Value::Number((t_recover * 1e3 * per_1e5 * 100.0).round() / 100.0),
    );
    o.insert(
        "store_recovery_ms_per_100k_records".into(),
        Value::Number((t_store_recover * 1e3 * per_1e5 * 100.0).round() / 100.0),
    );
    o.insert(
        "run_index_build_ms".into(),
        Value::Number((t_index_build * 1e3 * 100.0).round() / 100.0),
    );
    o.insert("run_index_keys".into(), Value::Number(keys_built as f64));
    o.insert(
        "run_index_bytes_per_key".into(),
        Value::Number(
            (run.index_bytes() as f64 / keys_built as f64 * 1e4).round() / 1e4,
        ),
    );
    o.insert(
        "run_file_bytes_per_entry".into(),
        Value::Number((run_bytes as f64 / run_entries as f64 * 100.0).round() / 100.0),
    );
    o.insert(
        "run_probe_learned_per_sec".into(),
        Value::Number((probes.len() as f64 / t_probe).round()),
    );
    o.insert(
        "run_probe_binary_search_per_sec".into(),
        Value::Number((probes.len() as f64 / t_probe_binary).round()),
    );
    o.insert(
        "probe_speedup_vs_binary".into(),
        Value::Number((t_probe_binary / t_probe * 100.0).round() / 100.0),
    );
    o.insert("runs_after_load".into(), Value::Number(loaded.runs_after_load as f64));
    o.insert(
        "mean_runs_probed_per_get".into(),
        Value::Number((loaded.runs_probed_per_get * 1e4).round() / 1e4),
    );
    o.insert(
        "mean_runs_searched_per_get".into(),
        Value::Number((loaded.runs_searched_per_get * 1e4).round() / 1e4),
    );
    o.insert(
        "filter_bits_per_key".into(),
        Value::Number((loaded.filter_bits_per_key * 100.0).round() / 100.0),
    );
    o.insert(
        "filter_false_positive_rate".into(),
        Value::Number((loaded.filter_false_positive_rate * 1e6).round() / 1e6),
    );
    o.insert(
        "range_100_keys_us".into(),
        Value::Number((loaded.range_100_keys_us * 100.0).round() / 100.0),
    );
    o.insert(
        "merge_entries_per_sec".into(),
        Value::Number(loaded.merge_entries_per_sec.round()),
    );
    o.insert(
        "max_commit_ms".into(),
        Value::Number((loaded.max_commit_ms * 100.0).round() / 100.0),
    );
    let pass = loaded.runs_after_load <= MAX_RUNS_AFTER_LOAD
        && loaded.runs_searched_per_get <= MAX_RUNS_SEARCHED_PER_GET;
    Outcome { json: Value::Object(o), pass }
}
