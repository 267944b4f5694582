//! `kv_durable` — the durable key-value tier on its own.
//!
//! `DurableStore<SimDisk>` with the default `StoreConfig` and no fault
//! armed: an in-memory medium, so the numbers measure the program and the
//! device counts are exact. Set-up loads 200 000 keys in seeded shuffled
//! order (64 puts per commit). The timed block is 50 % `get` (zipf over
//! loaded keys), 45 % `put` (half overwrites, half new keys, `commit`
//! every 64 puts) and 5 % `range` of 100 keys.
//!
//! Why: the only workload on `storage::durable` — WAL append and commit,
//! memtable flush with a per-run PGM build, and run probes whose cost
//! grows with the number of runs. Reads run beside writes so a write-path
//! gain that adds runs, or a read-path gain that slows flush, shows.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use rand::seq::SliceRandom;

use ml4db_storage::durable::{
    DurableStore, FaultSpec, FsMedium, IoFault, SimDisk, StorageMedium, StoreConfig, TailPolicy,
};

use super::{set_tail, Traced};
use crate::gen::{kv_loaded_key, rng_for, KvOp, KvStream};
use crate::layers::LayerValues;
use crate::measure::{median, rss_peak_mb, PhaseClock, Round};
use crate::trace::{LayerTable, Tracer};
use crate::yardstick::Yardstick;

const LOADED_KEYS: u64 = 200_000;
const PUTS_PER_COMMIT: usize = 64;
/// Operations in one timed block; about 2 s on the 2-core reference sandbox.
const BLOCK_OPS: usize = 320_000;
/// Timed operations between two yardstick ticks; about 40 ms.
const CHUNK_OPS: usize = 6_000;
/// Operations in one block of the traced pass.
const TRACE_BLOCK_OPS: usize = 50_000;
/// Commits timed on the real filesystem (reported, never compared).
const FS_COMMITS: usize = 100;
/// `DurableStore::open` calls whose median is the recovery time.
const RECOVERIES: usize = 5;

/// Creates a store on `medium` and loads [`LOADED_KEYS`] keys into it.
fn load<M: StorageMedium>(medium: M, seed: u64) -> DurableStore<M> {
    let mut order: Vec<u64> = (0..LOADED_KEYS).collect();
    order.shuffle(&mut rng_for(seed, 10));
    let mut store = DurableStore::create(medium, StoreConfig::default()).expect("create store");
    for chunk in order.chunks(PUTS_PER_COMMIT) {
        for &i in chunk {
            store.put(kv_loaded_key(i), i).expect("put");
        }
        store.commit().expect("commit");
    }
    // The timed phase starts from an empty memtable, every key in a run.
    store.flush().expect("flush");
    store
}

/// What set-up loaded, as the model the store is checked against.
fn loaded_model() -> BTreeMap<u64, u64> {
    (0..LOADED_KEYS).map(|i| (kv_loaded_key(i), i)).collect()
}

fn block_ops(seed: u64, n: usize) -> Vec<KvOp> {
    let mut stream = KvStream::new(LOADED_KEYS, rng_for(seed, 9));
    (0..n).map(|_| stream.next()).collect()
}

/// What the store answered to one operation.
enum Answer {
    Got(Option<u64>),
    /// Row count and digest of a range answer (keeping the rows themselves
    /// would make the harness the largest thing in `rss_peak_mb`).
    Ranged(usize, u64),
    /// A put; `true` when it was followed by a commit.
    Staged(bool),
}

/// Order-sensitive `(count, digest)` of a range answer.
fn rows_digest(rows: impl Iterator<Item = (u64, u64)>) -> (usize, u64) {
    rows.fold((0, 0), |(n, h), (k, v)| {
        (
            n + 1,
            (h ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ v,
        )
    })
}

/// Replays `ops` against `model` (puts become visible at their commit, as
/// the store acknowledges them) and counts answers that differ. Leaves
/// `model` at the last acknowledged state.
fn wrong_answers(model: &mut BTreeMap<u64, u64>, ops: &[KvOp], answers: &[Answer]) -> u64 {
    let mut staged = Vec::new();
    let mut wrong = 0u64;
    for (op, answer) in ops.iter().zip(answers) {
        match (op, answer) {
            (KvOp::Get(k), Answer::Got(v)) => wrong += u64::from(model.get(k) != v.as_ref()),
            (KvOp::Range(lo, hi), Answer::Ranged(len, digest)) => {
                let expect = rows_digest(model.range(lo..=hi).map(|(&k, &v)| (k, v)));
                wrong += u64::from(expect != (*len, *digest));
            }
            (KvOp::Put(k, v), Answer::Staged(committed)) => {
                staged.push((*k, *v));
                if *committed {
                    model.extend(staged.drain(..));
                }
            }
            _ => wrong += 1,
        }
    }
    wrong
}

/// Kills the machine under a copy of the store's disk (unsynced bytes are
/// dropped), recovers, and checks every acknowledged commit is there and
/// nothing unacknowledged is.
fn survives_crash(disk: &SimDisk, acknowledged: &BTreeMap<u64, u64>, seed: u64) -> bool {
    let mut disk = disk.clone();
    disk.arm(FaultSpec::CrashAt {
        op: disk.ops(),
        tail: TailPolicy::DropAll,
    });
    assert_eq!(
        disk.list(),
        Err(IoFault::Crashed),
        "the armed crash fires on the next I/O"
    );
    disk.reboot(seed);
    DurableStore::open(disk, StoreConfig::default())
        .is_ok_and(|(store, _)| &store.committed_state() == acknowledged)
}

pub fn round(seed: u64, index: usize) -> Round {
    let started = Instant::now();
    let mut store = load(SimDisk::new(), seed);
    let ops = block_ops(seed, BLOCK_OPS);
    let setup_s = started.elapsed().as_secs_f64();

    let mut latencies_us = Vec::with_capacity(ops.len());
    let mut answers = Vec::with_capacity(ops.len());
    let mut staged = 0usize;
    let mut yardstick = Yardstick::new(1);
    let clock = PhaseClock::start();
    for chunk in ops.chunks(CHUNK_OPS) {
        for op in chunk {
            let t = Instant::now();
            answers.push(match *op {
                KvOp::Get(k) => Answer::Got(store.get(k)),
                KvOp::Range(lo, hi) => {
                    let (len, digest) = rows_digest(store.range(lo, hi).into_iter());
                    Answer::Ranged(len, digest)
                }
                KvOp::Put(k, v) => {
                    store.put(k, v).expect("put");
                    staged += 1;
                    let commit = staged.is_multiple_of(PUTS_PER_COMMIT);
                    if commit {
                        store.commit().expect("commit");
                    }
                    Answer::Staged(commit)
                }
            });
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        yardstick.tick();
    }
    let (wall_s, cpu_s) = clock.stop(yardstick.spent_s());
    let rss_peak_mb = rss_peak_mb();

    let mut model = loaded_model();
    let mut failed = wrong_answers(&mut model, &ops, &answers);
    failed += u64::from(store.committed_state() != model);
    // Rounds are the same single-threaded op sequence; one crash test is all.
    if index == 0 {
        failed += u64::from(!survives_crash(store.medium(), &model, seed));
    }
    Round {
        speed: yardstick.speed_index(),
        setup_s,
        ops: ops.len() as u64,
        failed,
        wall_s,
        cpu_s,
        latencies_us,
        rss_peak_mb,
    }
}

/// A medium that counts what the store asks of the device under it.
#[derive(Clone, Default)]
struct Counting<M> {
    inner: M,
    wal_bytes: u64,
    syncs: u64,
}

impl<M: StorageMedium> StorageMedium for Counting<M> {
    fn create(&mut self, name: &str) -> Result<(), IoFault> {
        self.inner.create(name)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), IoFault> {
        if name.starts_with("wal-") {
            self.wal_bytes += data.len() as u64;
        }
        self.inner.append(name, data)
    }
    fn sync(&mut self, name: &str) -> Result<(), IoFault> {
        self.syncs += 1;
        self.inner.sync(name)
    }
    fn read(&mut self, name: &str) -> Result<Vec<u8>, IoFault> {
        self.inner.read(name)
    }
    fn delete(&mut self, name: &str) -> Result<(), IoFault> {
        self.inner.delete(name)
    }
    fn list(&mut self) -> Result<Vec<String>, IoFault> {
        self.inner.list()
    }
    fn len(&mut self, name: &str) -> Result<u64, IoFault> {
        self.inner.len(name)
    }
}

/// Program-side counts of one traced block.
struct BlockCounts {
    puts: u64,
    commits: u64,
    gets: u64,
    runs_probed: u64,
    wal_bytes: u64,
    syncs: u64,
    runs: usize,
    /// Bytes the disk holds durably when the block ends.
    durable_bytes: u64,
}

/// Walks `ops` against `store`, one `request` root per operation with the
/// store call under it, and a `replica` root re-timing one run probe both
/// ways. `in_memtable` tracks keys committed since the last flush, so the
/// runs a `get` probes can be counted from outside.
fn trace_block(
    store: &mut DurableStore<Counting<SimDisk>>,
    ops: &[KvOp],
    tracer: &Tracer,
    in_memtable: &mut HashSet<u64>,
) -> BlockCounts {
    let before = (store.medium().wal_bytes, store.medium().syncs);
    let mut c = BlockCounts {
        puts: 0,
        commits: 0,
        gets: 0,
        runs_probed: 0,
        wal_bytes: 0,
        syncs: 0,
        runs: 0,
        durable_bytes: 0,
    };
    let mut staged: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        tracer.set_request(i as u64);
        tracer.span("request", || match *op {
            KvOp::Get(k) => {
                tracer.span("storage.durable.get", || store.get(k));
                c.gets += 1;
                if !in_memtable.contains(&k) {
                    let newest_first = store.runs().iter().rev();
                    c.runs_probed += newest_first
                        .enumerate()
                        .find(|(_, run)| run.get_unindexed(k).is_some())
                        .map_or(store.runs().len(), |(at, _)| at + 1)
                        as u64;
                }
            }
            KvOp::Range(lo, hi) => {
                tracer.span("storage.durable.range", || store.range(lo, hi));
            }
            KvOp::Put(k, v) => {
                tracer
                    .span("storage.durable.put", || store.put(k, v))
                    .expect("put");
                c.puts += 1;
                staged.push(k);
                if staged.len() == PUTS_PER_COMMIT {
                    let runs = store.runs().len();
                    tracer
                        .span("storage.durable.commit", || store.commit())
                        .expect("commit");
                    c.commits += 1;
                    if store.runs().len() > runs {
                        tracer
                            .rename_last("storage.durable.commit", "storage.durable.commit_flush");
                        in_memtable.clear();
                        staged.clear();
                    } else {
                        in_memtable.extend(staged.drain(..));
                    }
                }
            }
        });
        if let KvOp::Get(_) = op {
            tracer.span("replica", || {
                let run = &store.runs()[i % store.runs().len()];
                let key = run.entries()[i % run.len()].key();
                let a = tracer.span("storage.durable.run.get", || run.get(key));
                let b = tracer.span("storage.durable.run.get_unindexed", || {
                    run.get_unindexed(key)
                });
                assert!(
                    a.is_some() && a == b,
                    "indexed and unindexed run probes agree"
                );
            });
        }
    }
    c.wal_bytes = store.medium().wal_bytes - before.0;
    c.syncs = store.medium().syncs - before.1;
    c.runs = store.runs().len();
    c.durable_bytes = store.medium().inner.durable_bytes();
    c
}

/// Median commit time (64 staged puts) on the real filesystem under
/// `dir` — this sandbox's disk, reported and never compared.
fn fs_commit_us(dir: &std::path::Path) -> f64 {
    let medium = FsMedium::open(dir).expect("open scratch dir");
    let mut store = DurableStore::create(medium, StoreConfig::default()).expect("create store");
    let mut times = Vec::with_capacity(FS_COMMITS);
    for c in 0..FS_COMMITS {
        for p in 0..PUTS_PER_COMMIT {
            store.put((c * PUTS_PER_COMMIT + p) as u64, 0).expect("put");
        }
        let t = Instant::now();
        store.commit().expect("commit");
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    let mut layers = LayerValues::default();

    // Constant blocks of the op stream, one after another on the same
    // store, for about half the budget; counts come from the first.
    let tracer = Tracer::new(true);
    let mut store = load(Counting::<SimDisk>::default(), seed);
    let mut in_memtable = HashSet::new();
    let mut first = None;
    let mut blocks = 0u64;
    let started = Instant::now();
    while blocks == 0 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let ops = block_ops(seed ^ blocks, TRACE_BLOCK_OPS);
        let counts = trace_block(&mut store, &ops, &tracer, &mut in_memtable);
        first.get_or_insert(counts);
        blocks += 1;
    }
    let traced_s = started.elapsed().as_secs_f64();
    let first = first.expect("at least one block ran");
    // The same blocks on a second, identically loaded store, tracer off.
    let off = Tracer::new(false);
    let mut twin = load(Counting::<SimDisk>::default(), seed);
    let mut twin_memtable = HashSet::new();
    let started = Instant::now();
    for b in 0..blocks {
        let ops = block_ops(seed ^ b, TRACE_BLOCK_OPS);
        trace_block(&mut twin, &ops, &off, &mut twin_memtable);
    }
    layers.set(
        "bench.trace_overhead_ratio",
        started.elapsed().as_secs_f64() / traced_s,
    );
    drop(twin);

    layers.set(
        "storage.durable.write_amp",
        first.durable_bytes as f64 / (16.0 * (LOADED_KEYS + first.puts) as f64),
    );
    let disk = store.medium().clone();
    let live_state = store.committed_state();
    let mut recover_ms = Vec::with_capacity(RECOVERIES);
    let mut failed = 0u64;
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let reopened = DurableStore::open(disk.clone(), StoreConfig::default());
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!reopened.is_ok_and(|(s, _)| s.committed_state() == live_state));
    }
    layers.set("storage.durable.recover_ms", median(&recover_ms));

    let scratch = std::path::Path::new(crate::OUT_DIR).join(format!("fs-{}", std::process::id()));
    layers.set("storage.durable.fs_commit_us", fs_commit_us(&scratch));
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");

    let spans = tracer.into_spans();
    let table = LayerTable::new(&spans);
    layers.set(
        "storage.durable.commit_us",
        table.median_ns("storage.durable.commit") / 1e3,
    );
    layers.set(
        "storage.durable.flush_ms",
        table.median_ns("storage.durable.commit_flush") / 1e6,
    );
    for (metric, span) in [
        ("storage.durable.put_ns", "storage.durable.put"),
        ("storage.durable.get_ns", "storage.durable.get"),
        ("storage.durable.run_get_ns", "storage.durable.run.get"),
        (
            "storage.durable.run_get_unindexed_ns",
            "storage.durable.run.get_unindexed",
        ),
    ] {
        layers.set(metric, table.median_ns(span));
    }
    layers.set(
        "storage.durable.wal_bytes_per_put",
        first.wal_bytes as f64 / first.puts as f64,
    );
    layers.set(
        "storage.durable.fsyncs_per_commit",
        first.syncs as f64 / first.commits as f64,
    );
    layers.set("storage.durable.runs", first.runs as f64);
    layers.set(
        "storage.durable.runs_probed_per_get",
        first.runs_probed as f64 / first.gets as f64,
    );
    set_tail(
        &mut layers,
        table
            .durations_ns("request")
            .iter()
            .map(|ns| ns / 1e3)
            .collect(),
    );

    Traced {
        layers,
        spans,
        attempted: blocks * TRACE_BLOCK_OPS as u64,
        failed,
    }
}
