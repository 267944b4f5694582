//! The durable key-value store: WAL → memtable → immutable runs.
//!
//! ## Commit protocol
//! [`DurableStore::put`] / [`DurableStore::delete`] append `Put` /
//! `Delete` frames and stage the mutation; nothing is visible or owed to
//! the caller yet. [`DurableStore::commit`] appends a `Commit` frame and
//! drives an fsync barrier — only when that returns `Ok` is the batch
//! **acknowledged**, and only then does it enter the memtable. Recovery
//! mirrors this exactly: replayed records are buffered until their
//! `Commit` frame, so an uncommitted tail can never surface — and
//! [`DurableStore::open`] buries a tail it dropped under a checkpoint
//! frame, so a commit appended later cannot adopt it either.
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
//! ## Compaction protocol
//! Without merging, every flush adds a run and every read probes all of
//! them. So a completed flush ends with the merge step of the
//! logarithmic method (size-tiered, fan-in `COMPACTION_FAN_IN` = 8): a
//! run's **tier** is `log8` of its entry count, and while at least 8 of
//! the newest runs sit in the newest run's tier or below, that whole
//! **suffix of the age order** is merged into one run (the newest entry
//! wins a key tie). Run ids keep meaning age — the merged run takes
//! `next_run_id`, higher than every input, and everything it replaces
//! is contiguous and directly older — so [`DurableStore::open`] still
//! orders runs by id alone: no manifest, no file-format change. The
//! crash argument, step by step:
//!
//! 1. **Merged run appended and fsynced; no input touched.** A crash
//!    here leaves every input intact plus a torn merged file, which
//!    fails its footer CRC at `open` exactly like a torn flush and is
//!    ignored (the next run written reuses its id and truncates it).
//! 2. **Merged run durable, inputs still present.** Both are loaded; the
//!    merged run has the highest id, so it shadows its inputs with the
//!    same answers they would give. Redundant, never wrong.
//! 3. **Inputs deleted oldest first**, stopping at the first delete
//!    that fails. Whatever survives a crash is therefore a *newest
//!    suffix* of the inputs: each survivor still sits under every
//!    newer input that shadowed it before, and under the merged run.
//! 4. **Tombstones** are dropped only by a merge that includes the
//!    oldest run (nothing older is left for them to shadow). Step 3 is
//!    what makes that safe: a surviving input holding a `Put` always
//!    survives together with the newer input holding its tombstone.
//!    Every other merge keeps its tombstones.
//!
//! A merge is an optimisation, never an obligation: an [`IoFault`] other
//! than `Crashed` while writing the merged run deletes the partial file
//! and leaves the inputs for the next flush — the commit that triggered
//! the flush has long been acknowledged and does not fail. Compaction is
//! synchronous and single-threaded (the crash matrix's op-count clock
//! stays deterministic), so the commit that tips a tier pays for the
//! merge; a run lives fully in memory, so a merge briefly holds its
//! output beside its inputs (streamed into an exact-capacity vector, see
//! `run::merge_runs`).
//!
//! ## Reads
//! [`DurableStore::get`] checks the memtable, then runs newest-first
//! through their gated learned indexes, and allocates nothing. Each run's
//! key filter ([`Run::may_contain`]) is asked first, and a run it rules
//! out is passed over without an index search: all runs but the one
//! holding the key would answer "absent", and a filter check (~9 ns) is a
//! fraction of a search (55–120 ns). So a `get` searches ~1.07 runs where
//! it used to search ~5.9 (`BENCH_storage.json`: `mean_runs_searched_per_get` against
//! `mean_runs_probed_per_get`). The check lives here, not in
//! [`Run::get`], which stays the index search alone.
//!
//! [`DurableStore::range`] is one pass of the tier's one merge cursor
//! (`run::merge_newest_wins`, the same loop compaction runs). Each run
//! contributes the stretch of its key and entry columns inside
//! `[lo, hi]` — start located through its probe path, end by galloping
//! from the start, because the answer is a few dozen entries of a column
//! of tens of thousands — and the memtable's slice is copied out as the
//! newest input. The cursor walks the inputs in key order, lets the
//! newest holder of each key win, and the winners that are `Put`s go
//! straight into the result vector; a tombstone winner is simply not
//! pushed. Nothing is built in between: no map, no merged entry list, so
//! a range costs a handful of allocations however many runs it crosses
//! (`tests/durable_allocs.rs` in the workspace root gates the count).
//!
//! [`DurableStore::committed_state`] — the canonical map the oracle
//! compares against — is the range over the whole key space, collected:
//! the cursor's output is already sorted and duplicate-free, which is the
//! form a `BTreeMap` is bulk-built from.

use std::collections::BTreeMap;

use super::medium::{IoFault, StorageMedium};
use super::run::{self, MergeInput, Run, RunEntry, RunError};
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

/// Runs merged at a time, and the base of the size tiers: measured, not
/// guessed (4 and 16 read as fast but put a 4x larger merge inside a
/// commit), and deliberately not a [`StoreConfig`] knob.
const COMPACTION_FAN_IN: usize = 8;

/// Size tier of a run holding `entries` entries: `floor(log8)`.
fn tier(entries: usize) -> u32 {
    entries.max(1).ilog2() / COMPACTION_FAN_IN.ilog2()
}

/// Staged or applied state of one key in the memtable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemVal {
    Put(u64),
    Tombstone,
}

impl MemVal {
    /// The run entry this state of `key` freezes into.
    fn entry(self, key: u64) -> RunEntry {
        match self {
            MemVal::Put(value) => RunEntry::Put { key, value },
            MemVal::Tombstone => RunEntry::Tombstone { key },
        }
    }
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
    /// Merged runs made durable this process lifetime.
    compactions: u64,
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
            compactions: 0,
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
                // A checkpoint is never written inside a batch that
                // later commits (`flush` re-logs an open batch behind
                // its checkpoint; `open` writes one to bury a dropped
                // tail), so whatever is staged here was abandoned.
                WalRecord::Checkpoint { .. } => {
                    report.uncommitted_dropped += staged.len() as u64;
                    staged.clear();
                }
            }
        }
        report.uncommitted_dropped += staged.len() as u64;
        if !staged.is_empty() {
            // The dropped tail is still in the log, and the next commit
            // frame appended behind it would adopt it on a later replay.
            // Bury it under a checkpoint that changes nothing else.
            let seq = wal.alloc_seq();
            let run_id = next_run_id.saturating_sub(1);
            wal.append(&mut medium, &WalRecord::Checkpoint { seq, run_id, flushed_through })?;
            wal.sync(&mut medium)?;
        }

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
            compactions: 0,
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

    /// Compactions (merged runs made durable) since this store instance
    /// started.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Highest sequence folded into runs.
    pub fn flushed_through(&self) -> u64 {
        self.flushed_through
    }

    /// Stages an upsert in the current batch.
    pub fn put(&mut self, key: u64, value: u64) -> Result<(), WalError> {
        self.log(key, MemVal::Put(value))?;
        self.pending.push((key, MemVal::Put(value)));
        Ok(())
    }

    /// Stages a delete in the current batch.
    pub fn delete(&mut self, key: u64) -> Result<(), WalError> {
        self.log(key, MemVal::Tombstone)?;
        self.pending.push((key, MemVal::Tombstone));
        Ok(())
    }

    /// Appends one mutation to the WAL under a fresh sequence number.
    fn log(&mut self, key: u64, val: MemVal) -> Result<(), WalError> {
        let seq = self.wal.alloc_seq();
        let rec = match val {
            MemVal::Put(value) => WalRecord::Put { seq, key, value },
            MemVal::Tombstone => WalRecord::Delete { seq, key },
        };
        self.wal.append(&mut self.medium, &rec).map(|_| ())
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
        let entries: Vec<RunEntry> = self.memtable.iter().map(|(&key, &v)| v.entry(key)).collect();
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
        // A batch still open sits in the segments GC is about to delete,
        // at sequence numbers the checkpoint just declared flushed: log
        // it again behind the checkpoint, where its commit frame will
        // find it on replay.
        for i in 0..self.pending.len() {
            let (key, val) = self.pending[i];
            self.log(key, val)?;
        }
        self.wal.gc_below_active(&mut self.medium)?;
        self.runs.push(run);
        self.next_run_id += 1;
        self.flushed_through = flushed_through;
        self.memtable.clear();
        self.compact()
    }

    /// Where the suffix of runs to merge starts: the newest runs that
    /// sit in the newest run's tier or below, when there are at least
    /// [`COMPACTION_FAN_IN`] of them.
    fn compaction_start(&self) -> Option<usize> {
        let newest = tier(self.runs.last()?.len());
        let suffix = self.runs.iter().rev().take_while(|r| tier(r.len()) <= newest).count();
        (suffix >= COMPACTION_FAN_IN).then(|| self.runs.len() - suffix)
    }

    /// The merge step after a flush; see the module docs for the
    /// protocol and its crash argument. Only a crashed medium is an
    /// error — any other fault abandons the merge and keeps the inputs.
    fn compact(&mut self) -> Result<(), WalError> {
        while let Some(start) = self.compaction_start() {
            let inputs: Vec<MergeInput<'_>> = self.runs[start..].iter().map(Run::view).collect();
            // Only a merge reaching back to the oldest run may forget
            // deletes: nothing older is left for a tombstone to shadow.
            let entries = run::merge_runs(&inputs, start == 0);
            let run_id = self.next_run_id;
            let merged = match run::write_merged_run(
                &mut self.medium,
                run_id,
                entries,
                self.cfg.wal.fsync_barriers,
            ) {
                Ok(r) => r,
                Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                Err(_) => {
                    // Drop the partial file; the inputs still hold everything.
                    return match self.medium.delete(&run::run_name(run_id)) {
                        Err(IoFault::Crashed) => Err(WalError::MediumCrashed),
                        _ => Ok(()),
                    };
                }
            };
            self.next_run_id += 1;
            self.compactions += 1;
            // The merged run is durable: retire the inputs oldest first,
            // so whatever a crash or a failed delete leaves behind is a
            // newest suffix — still shadowed correctly by the merged run.
            let count = self.runs.len() - start;
            let mut retired = 0usize;
            while retired < count {
                match self.medium.delete(&run::run_name(self.runs[start + retired].id())) {
                    Ok(()) => retired += 1,
                    Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                    Err(_) => break,
                }
            }
            self.runs.drain(start..start + retired);
            self.runs.push(merged);
            if retired < count {
                // Leftover inputs are redundant, not wrong; a later merge
                // of this tier picks them up again.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Reads the committed value of `key` (memtable first, then runs
    /// newest-first through their gated indexes, each behind its key
    /// filter).
    pub fn get(&self, key: u64) -> Option<u64> {
        match self.memtable.get(&key) {
            Some(MemVal::Put(v)) => return Some(*v),
            Some(MemVal::Tombstone) => return None,
            None => {}
        }
        for run in self.runs.iter().rev().filter(|run| run.may_contain(key)) {
            match run.get(key) {
                Some(RunEntry::Put { value, .. }) => return Some(value),
                Some(RunEntry::Tombstone { .. }) => return None,
                None => {}
            }
        }
        None
    }

    /// The full committed state as a map — the canonical form the
    /// oracle's reference is compared against. The merge cursor's output
    /// is already in key order, so the map is bulk-built from it.
    pub fn committed_state(&self) -> BTreeMap<u64, u64> {
        self.range(0, u64::MAX).into_iter().collect()
    }

    /// All committed `(key, value)` pairs with keys in `[lo, hi]`, in key
    /// order; an inverted range (`lo > hi`) is empty. See the module
    /// docs' "Reads" for how the answer is assembled.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let (mem_keys, mem_entries): (Vec<u64>, Vec<RunEntry>) =
            self.memtable.range(lo..=hi).map(|(&key, &v)| (key, v.entry(key))).unzip();
        let inputs: Vec<MergeInput<'_>> = self
            .runs
            .iter()
            .map(|run| run.range_view(lo, hi))
            .chain([MergeInput { keys: &mem_keys, entries: &mem_entries }])
            .collect();
        let mut rows = Vec::with_capacity(inputs.iter().map(|input| input.entries.len()).sum());
        run::merge_newest_wins(&inputs, |entry| {
            if let RunEntry::Put { key, value } = entry {
                rows.push((key, value));
            }
        });
        rows
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

    /// Regression: the dropped tail stayed in the log, so the next
    /// life's first commit frame adopted it on the replay after that.
    #[test]
    fn dropped_tail_stays_dropped_after_a_later_commit() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        store.put(1, 10).unwrap();
        store.commit().unwrap();
        store.put(2, 20).unwrap();
        store.delete(1).unwrap();
        let (mut second, report) = DurableStore::open(store.into_medium(), small_cfg()).unwrap();
        assert_eq!(report.uncommitted_dropped, 2);
        second.put(3, 30).unwrap();
        second.commit().unwrap();
        let want = BTreeMap::from([(1, 10), (3, 30)]);
        assert_eq!(second.committed_state(), want);
        let (third, _) = DurableStore::open(second.into_medium(), small_cfg()).unwrap();
        assert_eq!(third.committed_state(), want, "a commit adopted a dead batch");
    }

    /// Regression: a flush inside an open batch checkpointed past the
    /// staged records and GC'd their segment, so the batch committed in
    /// memory but was gone after a reopen.
    #[test]
    fn flush_inside_an_open_batch_keeps_the_batch() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        store.put(1, 10).unwrap();
        store.commit().unwrap();
        store.put(2, 20).unwrap();
        store.delete(1).unwrap();
        store.flush().unwrap();
        assert_eq!(store.get(2), None, "still uncommitted");
        store.commit().unwrap();
        let want = BTreeMap::from([(2, 20)]);
        assert_eq!(store.committed_state(), want);
        let (reopened, report) = DurableStore::open(store.into_medium(), small_cfg()).unwrap();
        assert_eq!(reopened.committed_state(), want);
        assert_eq!(report.uncommitted_dropped, 0);
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

    /// Manual flushes only, so a test decides where each run ends.
    fn manual_flush_cfg() -> StoreConfig {
        StoreConfig { memtable_limit: usize::MAX, ..small_cfg() }
    }

    /// Feeds `COMPACTION_FAN_IN` one-commit rounds, flushing after each:
    /// round `r` puts keys `r` and `r + 1` (the latter overwritten by the
    /// next round) and deletes key `r - 2`, so the merge the last flush
    /// triggers has key ties to settle and tombstones to drop. Stops at
    /// the first error; returns the medium's op count before the last
    /// flush (the one that compacts).
    fn feed_one_compaction(store: &mut DurableStore<SimDisk>) -> Result<u64, WalError> {
        let mut before_last_flush = 0;
        for r in 0..COMPACTION_FAN_IN as u64 {
            store.put(r, 100 + r)?;
            store.put(r + 1, 200 + r)?;
            if r >= 2 {
                store.delete(r - 2)?;
            }
            store.commit()?;
            before_last_flush = store.medium().ops();
            store.flush()?;
        }
        Ok(before_last_flush)
    }

    /// What [`feed_one_compaction`] leaves committed: keys 0..=5 were
    /// deleted after their last put.
    fn one_compaction_model() -> BTreeMap<u64, u64> {
        BTreeMap::from([(6, 106), (7, 107), (8, 207)])
    }

    #[test]
    fn crash_at_every_op_of_one_compaction_recovers_the_committed_state() {
        use super::super::medium::{FaultSpec, TailPolicy};
        let model = one_compaction_model();
        let model_rows: Vec<(u64, u64)> = model.clone().into_iter().collect();
        let mut clean = DurableStore::create(SimDisk::new(), manual_flush_cfg()).unwrap();
        let start = feed_one_compaction(&mut clean).unwrap();
        let end = clean.medium().ops();
        assert_eq!((clean.compactions(), clean.runs().len()), (1, 1));
        assert_eq!(clean.committed_state(), model);
        // Merged-run create + append + fsync, then one delete per input.
        let compaction_ops = 3 + COMPACTION_FAN_IN as u64;
        assert!(end - start > compaction_ops, "the sweep must cover the whole merge");

        // (runs loaded, runs rejected) seen at recovery, to prove the
        // sweep landed in every phase of the protocol.
        let mut seen = std::collections::BTreeSet::new();
        let tails =
            [TailPolicy::DropAll, TailPolicy::Torn, TailPolicy::BitFlip { offset: 21, bit: 2 }];
        for tail in tails {
            for point in start..end {
                let mut store = DurableStore::create(SimDisk::new(), manual_flush_cfg()).unwrap();
                store.medium_mut().arm(FaultSpec::CrashAt { op: point, tail });
                assert_eq!(feed_one_compaction(&mut store), Err(WalError::MediumCrashed));
                let mut disk = store.into_medium();
                disk.reboot(point);
                let (recovered, report) = DurableStore::open(disk, manual_flush_cfg())
                    .unwrap_or_else(|e| panic!("{tail:?} at op {point}: recovery failed: {e:?}"));
                // Every commit was acknowledged before the last flush began.
                assert_eq!(recovered.committed_state(), model, "{tail:?} at op {point}");
                for key in 0..=9 {
                    assert_eq!(recovered.get(key), model.get(&key).copied(), "{tail:?} at op {point}");
                }
                assert_eq!(recovered.range(0, 20), model_rows, "{tail:?} at op {point}");
                if point >= end - compaction_ops {
                    seen.insert((report.runs_loaded, report.runs_rejected));
                }
            }
        }
        let fan_in = COMPACTION_FAN_IN as u32;
        assert!(seen.contains(&(fan_in, 1)), "never recovered over a torn merged run: {seen:?}");
        assert!(seen.contains(&(fan_in + 1, 0)), "never recovered with merged run and all inputs");
        for survivors in 1..fan_in {
            assert!(
                seen.contains(&(survivors + 1, 0)),
                "never recovered with {survivors} surviving inputs: {seen:?}"
            );
        }
    }

    #[test]
    fn failed_merge_write_keeps_the_inputs_and_does_not_fail_the_flush() {
        use super::super::medium::FaultSpec;
        let mut clean = DurableStore::create(SimDisk::new(), manual_flush_cfg()).unwrap();
        feed_one_compaction(&mut clean).unwrap();
        // The merged run's append: fsync and the input deletes follow it.
        let merged_append = clean.medium().ops() - 2 - COMPACTION_FAN_IN as u64;

        let mut store = DurableStore::create(SimDisk::new(), manual_flush_cfg()).unwrap();
        store.medium_mut().arm(FaultSpec::NoSpaceAt { op: merged_append, times: 1 });
        feed_one_compaction(&mut store).expect("a merge that cannot be written is skipped");
        assert_eq!(store.medium().fault_hits(), 1);
        assert_eq!((store.compactions(), store.runs().len()), (0, COMPACTION_FAN_IN));
        assert_eq!(store.committed_state(), one_compaction_model());
        let partial = run::run_name(COMPACTION_FAN_IN as u32);
        assert!(!store.medium_mut().list().unwrap().contains(&partial), "partial file left behind");

        // The next flush finds the same backlog and merges it.
        store.put(9, 9).unwrap();
        store.commit().unwrap();
        store.flush().unwrap();
        assert_eq!((store.compactions(), store.runs().len()), (1, 1));
        let mut model = one_compaction_model();
        model.insert(9, 9);
        assert_eq!(store.committed_state(), model);
        let (reopened, report) = DurableStore::open(store.into_medium(), manual_flush_cfg()).unwrap();
        assert_eq!((report.runs_loaded, report.runs_rejected), (1, 0));
        assert_eq!(reopened.committed_state(), model);
    }

    #[test]
    fn only_a_merge_reaching_the_oldest_run_drops_tombstones() {
        let mut store = DurableStore::create(SimDisk::new(), manual_flush_cfg()).unwrap();
        // One big old run (tier 1) that the small flushes never reach...
        for key in 0..10 {
            store.put(key, key).unwrap();
        }
        store.commit().unwrap();
        store.flush().unwrap();
        // ...then a tier-0 backlog whose merge must keep `delete(3)`.
        for r in 0..COMPACTION_FAN_IN as u64 {
            if r == 0 {
                store.delete(3).unwrap();
            } else {
                store.put(100 + r, r).unwrap();
            }
            store.commit().unwrap();
            store.flush().unwrap();
        }
        assert_eq!((store.compactions(), store.runs().len()), (1, 2));
        let merged = &store.runs()[1];
        assert_eq!(merged.get(3), Some(RunEntry::Tombstone { key: 3 }));
        assert_eq!(store.get(3), None);
        assert!(merged.id() > store.runs()[0].id(), "run ids keep meaning age");
    }

    #[test]
    fn an_uncompacted_image_opens_unchanged_and_compacts_on_the_next_flush() {
        // A disk as the store wrote it before compaction existed: one run
        // per flush, ids dense, a checkpoint at the head of the log.
        let cfg = manual_flush_cfg();
        let mut disk = SimDisk::new();
        let mut model = BTreeMap::new();
        let backlog = 3 * COMPACTION_FAN_IN as u32;
        for id in 0..backlog {
            let base = u64::from(id) * 2;
            let entries: Vec<RunEntry> =
                (base..base + 4).map(|key| RunEntry::Put { key, value: key + u64::from(id) }).collect();
            for e in &entries {
                model.insert(e.key(), e.key() + u64::from(id));
            }
            run::write_run(&mut disk, id, entries, true).unwrap();
        }
        let mut wal = Wal::create(&mut disk, cfg.wal).unwrap();
        let checkpoint =
            WalRecord::Checkpoint { seq: 500, run_id: backlog - 1, flushed_through: 499 };
        wal.append(&mut disk, &checkpoint).unwrap();
        wal.sync(&mut disk).unwrap();

        let (mut store, report) = DurableStore::open(disk, cfg).unwrap();
        assert_eq!((report.runs_loaded, report.runs_rejected), (backlog, 0));
        assert_eq!(store.committed_state(), model);
        store.put(1_000, 1).unwrap();
        store.commit().unwrap();
        store.flush().unwrap();
        model.insert(1_000, 1);
        assert_eq!(store.runs().len(), 1, "the whole backlog sat in one tier");
        assert_eq!(store.committed_state(), model);
        let (reopened, _) = DurableStore::open(store.into_medium(), cfg).unwrap();
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

    /// Regression: `range(lo, hi)` with `lo > hi` reached
    /// `BTreeMap::range` on the memtable, which panics on an inverted
    /// range; `BTreeIndex::range` documents such a range as empty.
    #[test]
    fn inverted_range_is_empty_not_a_panic() {
        let mut store = DurableStore::create(SimDisk::new(), small_cfg()).unwrap();
        store.put(15, 1).unwrap();
        store.commit().unwrap();
        assert_eq!(store.range(20, 10), vec![], "memtable only");
        store.flush().unwrap();
        store.put(12, 2).unwrap();
        store.commit().unwrap();
        assert_eq!(store.range(20, 10), vec![], "a run and the memtable");
        assert_eq!(store.range(u64::MAX, 0), vec![]);
        assert!(store.runs()[0].range(20, 10).is_empty());
        assert_eq!(store.range(10, 20), vec![(12, 2), (15, 1)]);
    }
}
