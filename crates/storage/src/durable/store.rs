//! The durable key-value store: WAL → memtable → immutable runs.
//!
//! ## Commit protocol
//! [`DurableStore::put`] / [`DurableStore::delete`] append `Put` /
//! `Delete` frames and stage the mutation; nothing is visible or owed to
//! the caller yet. [`DurableStore::commit`] appends a `Commit` frame and
//! drives an fsync barrier — only when that returns `Ok` is the batch
//! **acknowledged**, and only then does it enter the memtable. Recovery
//! mirrors this exactly: replayed records are buffered until their
//! `Commit` frame, so an uncommitted tail can never surface.
//!
//! ## Flush protocol
//! [`DurableStore::flush`] freezes the memtable into a sorted immutable
//! run (written and fsynced **before** anything else changes), then
//! rotates the WAL onto a fresh segment, writes a durable
//! `Checkpoint { run_id, flushed_through }` frame there, GCs the old
//! segments, and clears the memtable. A crash between any two of those
//! steps is safe: an orphaned run without its checkpoint merely
//! duplicates data the WAL still holds (replay is idempotent — the run
//! stores the same latest values the records rebuild), and a torn run
//! fails its footer CRC and is ignored, its data still in the un-GC'd
//! log.
//!
//! ## Reads
//! [`DurableStore::get`] checks the memtable, then runs newest-first
//! through their gated learned indexes. [`DurableStore::committed_state`]
//! folds everything into the canonical map the oracle compares against.

use std::collections::BTreeMap;

use super::medium::{IoFault, StorageMedium};
use super::run::{self, Run, RunEntry, RunError};
use super::wal::{Wal, WalConfig, WalError, WalRecord};

/// Knobs for the durable store.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// WAL knobs, including the protection switches.
    pub wal: WalConfig,
    /// Flush the memtable once it holds this many distinct keys.
    pub memtable_limit: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { wal: WalConfig::default(), memtable_limit: 1024 }
    }
}

/// Staged or applied state of one key in the memtable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemVal {
    Put(u64),
    Tombstone,
}

/// What [`DurableStore::open`] found while recovering.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// WAL segments scanned.
    pub wal_segments: u32,
    /// Whole, valid WAL records replayed.
    pub wal_records: u64,
    /// Whether replay stopped at a torn/corrupt tail.
    pub torn_tail: bool,
    /// Put/Delete records dropped because their commit frame never made
    /// it to the log (the batch was never acknowledged).
    pub uncommitted_dropped: u64,
    /// Valid runs loaded.
    pub runs_loaded: u32,
    /// Run files ignored for failing their footer CRC (torn flushes).
    pub runs_rejected: u32,
}

/// The durable store over any [`StorageMedium`].
#[derive(Debug)]
pub struct DurableStore<M: StorageMedium> {
    medium: M,
    wal: Wal,
    cfg: StoreConfig,
    /// Acknowledged, un-flushed state.
    memtable: BTreeMap<u64, MemVal>,
    /// Appended but not yet committed.
    pending: Vec<(u64, MemVal)>,
    /// Immutable runs, oldest first.
    runs: Vec<Run>,
    next_run_id: u32,
    /// Highest sequence number folded into runs.
    flushed_through: u64,
    /// Acknowledged commits (fsync returned) this process lifetime.
    acked_commits: u64,
}

impl<M: StorageMedium> DurableStore<M> {
    /// Creates a fresh store (empty WAL, no runs) on `medium`.
    pub fn create(mut medium: M, cfg: StoreConfig) -> Result<Self, WalError> {
        let wal = Wal::create(&mut medium, cfg.wal)?;
        Ok(Self {
            medium,
            wal,
            cfg,
            memtable: BTreeMap::new(),
            pending: Vec::new(),
            runs: Vec::new(),
            next_run_id: 0,
            flushed_through: 0,
            acked_commits: 0,
        })
    }

    /// Opens a store on a medium that may hold a previous life's state,
    /// replaying the WAL against the surviving runs.
    pub fn open(mut medium: M, cfg: StoreConfig) -> Result<(Self, RecoveryReport), WalError> {
        let mut report = RecoveryReport::default();

        // Load every run file that verifies; torn flushes are ignored
        // (their records are still in the WAL). Transient read errors
        // and silent short reads are retried under the WAL's bounded
        // deterministic policy; if they persist past the retry budget
        // they surface as a clean error rather than silently dropping
        // the run — after a checkpoint GC'd the log, a dropped run is
        // lost data, not a recoverable artifact.
        let mut backoff = 0u64;
        let names = Wal::retry_read_io(&cfg.wal, &mut backoff, &mut medium, |m| m.list())?;
        let mut runs: Vec<Run> = Vec::new();
        for name in names.iter().filter(|n| run::parse_run_name(n).is_some()) {
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                match run::load_run(&mut medium, name, cfg.wal.checksums) {
                    Ok(r) => {
                        runs.push(r);
                        break;
                    }
                    Err(RunError::Io(IoFault::Crashed)) => return Err(WalError::MediumCrashed),
                    Err(RunError::Io(e @ (IoFault::ShortRead | IoFault::Transient)))
                        if cfg.wal.read_retry || e == IoFault::Transient =>
                    {
                        ml4db_obs::counter_add("wal.read_errors", 1);
                        if attempts > cfg.wal.retry_limit {
                            return Err(WalError::Transient { attempts });
                        }
                        backoff += 1u64 << (attempts - 1).min(16);
                    }
                    Err(_) => {
                        report.runs_rejected += 1;
                        break;
                    }
                }
            }
        }
        runs.sort_by_key(Run::id);
        report.runs_loaded = runs.len() as u32;
        let next_run_id = runs.last().map(|r| r.id() + 1).unwrap_or(0);

        // Replay the WAL, folding committed batches into the memtable
        // and honouring checkpoints (records at or below the flush
        // high-water mark are already in runs).
        let (mut wal, replay) = Wal::recover(&mut medium, cfg.wal)?;
        wal.absorb_backoff(backoff);
        report.wal_segments = replay.segments;
        report.wal_records = replay.records.len() as u64;
        report.torn_tail = replay.torn_tail;

        let flushed_through = replay
            .records
            .iter()
            .filter_map(|r| match *r {
                WalRecord::Checkpoint { flushed_through, .. } => Some(flushed_through),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        // Drop runs newer than any checkpoint acknowledges *only if*
        // they failed verification — a valid orphan run (crash after
        // run fsync, before checkpoint) stays: replaying its records
        // again from the WAL is idempotent.

        let mut memtable = BTreeMap::new();
        let mut staged: Vec<(u64, MemVal)> = Vec::new();
        for rec in &replay.records {
            match *rec {
                WalRecord::Put { seq, key, value } => {
                    if seq > flushed_through {
                        staged.push((key, MemVal::Put(value)));
                    }
                }
                WalRecord::Delete { seq, key } => {
                    if seq > flushed_through {
                        staged.push((key, MemVal::Tombstone));
                    }
                }
                WalRecord::Commit { .. } => {
                    for (k, v) in staged.drain(..) {
                        memtable.insert(k, v);
                    }
                }
                WalRecord::Checkpoint { .. } => {}
            }
        }
        report.uncommitted_dropped = staged.len() as u64;

        let (segments, records, torn, dropped) = (
            report.wal_segments,
            report.wal_records,
            report.torn_tail,
            report.uncommitted_dropped,
        );
        ml4db_obs::counter_add("wal.replays", 1);
        ml4db_obs::counter_add("wal.replayed_records", records);
        ml4db_obs::emit_with(move || ml4db_obs::Event::WalReplay {
            segments,
            records,
            torn_tail: torn,
            uncommitted_dropped: dropped,
        });

        let store = Self {
            medium,
            wal,
            cfg,
            memtable,
            pending: Vec::new(),
            runs,
            next_run_id,
            flushed_through,
            acked_commits: 0,
        };
        Ok((store, report))
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Immutable runs, oldest first.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The WAL appender (segment counts, retry stats).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Gives the harness direct access to the medium (fault arming,
    /// op counting). The store is single-threaded by design; callers
    /// must not mutate files the store owns.
    pub fn medium_mut(&mut self) -> &mut M {
        &mut self.medium
    }

    /// Read-only view of the medium (snapshotting in tests).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Consumes the store, returning the medium (for reboot simulation).
    pub fn into_medium(self) -> M {
        self.medium
    }

    /// Acknowledged commits since this store instance started.
    pub fn acked_commits(&self) -> u64 {
        self.acked_commits
    }

    /// Highest sequence folded into runs.
    pub fn flushed_through(&self) -> u64 {
        self.flushed_through
    }

    /// Stages an upsert in the current batch.
    pub fn put(&mut self, key: u64, value: u64) -> Result<(), WalError> {
        let seq = self.wal.alloc_seq();
        self.wal.append(&mut self.medium, &WalRecord::Put { seq, key, value })?;
        self.pending.push((key, MemVal::Put(value)));
        Ok(())
    }

    /// Stages a delete in the current batch.
    pub fn delete(&mut self, key: u64) -> Result<(), WalError> {
        let seq = self.wal.alloc_seq();
        self.wal.append(&mut self.medium, &WalRecord::Delete { seq, key })?;
        self.pending.push((key, MemVal::Tombstone));
        Ok(())
    }

    /// Commits the staged batch: `Commit` frame + fsync barrier. On
    /// `Ok` the batch is acknowledged and visible; on `Err` the caller
    /// must treat it as unacknowledged (it may or may not survive a
    /// crash — prefix consistency, not atomic visibility, is the
    /// contract for in-flight batches).
    pub fn commit(&mut self) -> Result<u64, WalError> {
        let seq = self.wal.alloc_seq();
        self.wal.append(&mut self.medium, &WalRecord::Commit { seq })?;
        self.wal.sync(&mut self.medium)?;
        for (k, v) in self.pending.drain(..) {
            self.memtable.insert(k, v);
        }
        self.acked_commits += 1;
        ml4db_obs::counter_add("store.commits", 1);
        if self.memtable.len() >= self.cfg.memtable_limit {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Freezes the memtable into a new immutable run and truncates the
    /// log under it. See the module docs for the crash-safety argument.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let entries: Vec<RunEntry> = self
            .memtable
            .iter()
            .map(|(&key, &v)| match v {
                MemVal::Put(value) => RunEntry::Put { key, value },
                MemVal::Tombstone => RunEntry::Tombstone { key },
            })
            .collect();
        let run_id = self.next_run_id;
        let run = match run::write_run(
            &mut self.medium,
            run_id,
            entries,
            self.cfg.wal.fsync_barriers,
        ) {
            Ok(r) => r,
            Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
            Err(IoFault::NoSpace) => return Err(WalError::NoSpace { attempts: 1 }),
            Err(_) => return Err(WalError::Transient { attempts: 1 }),
        };
        // The run is durable; everything up to the last assigned seq is
        // covered by it plus older runs.
        let flushed_through = self.wal.next_seq().saturating_sub(1);
        let seq = self.wal.alloc_seq();
        self.wal.rotate(&mut self.medium)?;
        self.wal.append(
            &mut self.medium,
            &WalRecord::Checkpoint { seq, run_id, flushed_through },
        )?;
        self.wal.sync(&mut self.medium)?;
        self.wal.gc_below_active(&mut self.medium)?;
        self.runs.push(run);
        self.next_run_id += 1;
        self.flushed_through = flushed_through;
        self.memtable.clear();
        Ok(())
    }

    /// Reads the committed value of `key` (memtable first, then runs
    /// newest-first through their gated indexes).
    pub fn get(&self, key: u64) -> Option<u64> {
        match self.memtable.get(&key) {
            Some(MemVal::Put(v)) => return Some(*v),
            Some(MemVal::Tombstone) => return None,
            None => {}
        }
        for run in self.runs.iter().rev() {
            match run.get(key) {
                Some(RunEntry::Put { value, .. }) => return Some(value),
                Some(RunEntry::Tombstone { .. }) => return None,
                None => {}
            }
        }
        None
    }

    /// The full committed state as a map — the canonical form the
    /// oracle's reference is compared against.
    pub fn committed_state(&self) -> BTreeMap<u64, u64> {
        let mut state = BTreeMap::new();
        for run in &self.runs {
            for e in run.entries() {
                match *e {
                    RunEntry::Put { key, value } => {
                        state.insert(key, value);
                    }
                    RunEntry::Tombstone { key } => {
                        state.remove(&key);
                    }
                }
            }
        }
        for (&k, &v) in &self.memtable {
            match v {
                MemVal::Put(value) => {
                    state.insert(k, value);
                }
                MemVal::Tombstone => {
                    state.remove(&k);
                }
            }
        }
        state
    }

    /// All committed `(key, value)` pairs with keys in `[lo, hi]`,
    /// merged across memtable and runs via the probe path.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut merged: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for run in &self.runs {
            for e in run.range(lo, hi) {
                match *e {
                    RunEntry::Put { key, value } => {
                        merged.insert(key, Some(value));
                    }
                    RunEntry::Tombstone { key } => {
                        merged.insert(key, None);
                    }
                }
            }
        }
        for (&k, &v) in self.memtable.range(lo..=hi) {
            match v {
                MemVal::Put(value) => {
                    merged.insert(k, Some(value));
                }
                MemVal::Tombstone => {
                    merged.insert(k, None);
                }
            }
        }
        merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::medium::SimDisk;
    use super::*;

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            wal: WalConfig { segment_bytes: 256, ..WalConfig::default() },
            memtable_limit: 16,
        }
    }

    #[test]
    fn commit_then_reopen_preserves_state() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..100u64 {
            store.put(i, i * 2).unwrap();
            model.insert(i, i * 2);
            if i % 5 == 4 {
                store.delete(i - 2).unwrap();
                model.remove(&(i - 2));
            }
            store.commit().unwrap();
        }
        assert!(!store.runs().is_empty(), "memtable_limit should have forced flushes");
        assert_eq!(store.committed_state(), model);

        let disk = store.into_medium();
        let (reopened, report) = DurableStore::open(disk, small_cfg()).unwrap();
        assert_eq!(reopened.committed_state(), model);
        assert_eq!(report.uncommitted_dropped, 0);
        assert!(!report.torn_tail);
        for (&k, &v) in &model {
            assert_eq!(reopened.get(k), Some(v));
        }
    }

    #[test]
    fn uncommitted_tail_never_surfaces() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        store.put(1, 10).unwrap();
        store.commit().unwrap();
        // Staged but never committed.
        store.put(2, 20).unwrap();
        store.delete(1).unwrap();
        let disk = store.into_medium();
        let (reopened, report) = DurableStore::open(disk, small_cfg()).unwrap();
        assert_eq!(report.uncommitted_dropped, 2);
        assert_eq!(reopened.get(1), Some(10));
        assert_eq!(reopened.get(2), None);
    }

    #[test]
    fn flush_survives_reopen_and_gc_keeps_log_bounded() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        for i in 0..200u64 {
            store.put(i, i + 1).unwrap();
            store.commit().unwrap();
        }
        store.flush().unwrap();
        assert!(store.wal().num_segments() <= 1, "GC left old segments behind");
        let model = store.committed_state();
        let (reopened, _) = DurableStore::open(store.into_medium(), small_cfg()).unwrap();
        assert_eq!(reopened.committed_state(), model);
    }

    #[test]
    fn range_merges_runs_and_memtable() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        for i in 0..50u64 {
            store.put(i, i).unwrap();
            store.commit().unwrap();
        }
        store.flush().unwrap();
        // Overwrite and delete some keys post-flush (stay in memtable).
        store.put(10, 999).unwrap();
        store.delete(11).unwrap();
        store.commit().unwrap();
        let got = store.range(8, 13);
        assert_eq!(got, vec![(8, 8), (9, 9), (10, 999), (12, 12), (13, 13)]);
    }
}
