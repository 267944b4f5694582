//! Immutable sorted runs and their per-run learned indexes.
//!
//! A run is one memtable flush — or the merge of several older runs
//! (`merge_runs`) — frozen on disk: a header, the entries in key order
//! (tombstones included), and a CRC32 footer over everything before it.
//! Runs are never rewritten, only replaced whole by a merged run with a
//! fresh id — the property that makes them the safe home for a learned
//! index, because the keys a model was fitted on can never drift out
//! from under it (the staleness collapse PR 5 measured on mutable
//! indexes cannot happen here).
//!
//! Every run's index goes through the **lifecycle gate** exactly like
//! any other learned component: a PGM model over the run's keys is
//! registered as a candidate against a binary-search incumbent, shadow-
//! probed on a deterministic key sample, and promoted only if its probe
//! results agree with binary search on every sample (score = fraction
//! of disagreements, gated at zero tolerance against an incumbent score
//! of zero). A rejected model leaves the run on plain binary search —
//! correct, just slower — and the `run_flush` trace event records which
//! way the gate went.
//!
//! Every run also carries a **key filter** (a split-block Bloom filter,
//! `FILTER_BITS_PER_KEY` = 10 bits per key), so `DurableStore::get` can
//! pass over a run that cannot hold its key ([`Run::may_contain`])
//! without searching its index: a `get` walks the runs newest first, and
//! all but the one holding the key answer "absent". The filter is built
//! in [`Run::assemble`] — the one constructor behind a memtable flush, a
//! compaction and `open` — from the key column alone, with a fixed
//! seedless hash, so it lives only in memory, the file format does not
//! know it exists, and a run rebuilt at `open` has the filter it had at
//! flush, bit for bit. [`Run::get`] itself never consults it: it stays
//! "search this run's index", which is what the probe benchmarks time.
//!
//! The tier's one merge lives here too: `merge_newest_wins`, a cursor
//! over [`MergeInput`]s (a stretch of a run's key column with the entries
//! beside it) that compaction, `DurableStore::range` and
//! `DurableStore::committed_state` all read through — see its docs for
//! why the inputs come oldest first, why the scan over them is linear and
//! why keys and entries travel together.

use ml4db_index::pgm::PgmCore;
use ml4db_lifecycle::{GateConfig, ModelRegistry};

use super::medium::{IoFault, StorageMedium};
use super::wal::crc32;

/// Magic prefix of every run file.
pub const RUN_MAGIC: &[u8; 4] = b"RUN1";

/// PGM epsilon for run indexes — same bracket width as the secondary
/// index fast path so `predict_range` windows stay cache-friendly.
pub const RUN_INDEX_EPSILON: usize = 16;

/// One entry in a run: the latest committed fact about a key at flush
/// time. Tombstones must be stored — a delete in a newer run shadows a
/// put in an older one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEntry {
    /// Key present with this value.
    Put {
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Key deleted.
    Tombstone {
        /// Key.
        key: u64,
    },
}

impl RunEntry {
    /// The entry's key.
    pub fn key(&self) -> u64 {
        match *self {
            RunEntry::Put { key, .. } | RunEntry::Tombstone { key } => key,
        }
    }
}

/// Why a run file was rejected at load time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Footer CRC mismatch or truncated/garbled body — a torn flush.
    Corrupt(&'static str),
    /// The medium failed underneath the read.
    Io(IoFault),
}

/// File name of run `id`.
pub fn run_name(id: u32) -> String {
    format!("run-{id:08}.dat")
}

/// Parses a run file name back to its id.
pub fn parse_run_name(name: &str) -> Option<u32> {
    name.strip_prefix("run-")?.strip_suffix(".dat")?.parse().ok()
}

/// Serializes `entries` (must already be key-sorted) into the run file
/// format: `RUN1 | run_id u32 | count u64 | entries | crc32 u32`, each
/// entry `key u64 | tag u8 | value u64` (tag 1 = put, 2 = tombstone,
/// tombstone value = 0).
pub fn encode_run(run_id: u32, entries: &[RunEntry]) -> Vec<u8> {
    debug_assert!(entries.windows(2).all(|w| w[0].key() < w[1].key()));
    let mut out = Vec::with_capacity(16 + entries.len() * 17 + 4);
    out.extend_from_slice(RUN_MAGIC);
    out.extend_from_slice(&run_id.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        match *e {
            RunEntry::Put { key, value } => {
                out.extend_from_slice(&key.to_le_bytes());
                out.push(1);
                out.extend_from_slice(&value.to_le_bytes());
            }
            RunEntry::Tombstone { key } => {
                out.extend_from_slice(&key.to_le_bytes());
                out.push(2);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses and verifies a run file. With `checksums` off the footer CRC
/// is not checked — the unsafe mode the chaos harness demonstrates.
pub fn decode_run(buf: &[u8], checksums: bool) -> Result<(u32, Vec<RunEntry>), RunError> {
    if buf.len() < 20 || &buf[0..4] != RUN_MAGIC {
        return Err(RunError::Corrupt("missing header"));
    }
    if checksums {
        let body = &buf[..buf.len() - 4];
        let crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        if crc32(body) != crc {
            return Err(RunError::Corrupt("footer crc mismatch"));
        }
    }
    let run_id = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let count = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
    let body = &buf[16..buf.len() - 4];
    if body.len() != count * 17 {
        return Err(RunError::Corrupt("entry count mismatch"));
    }
    let mut entries = Vec::with_capacity(count);
    for chunk in body.chunks_exact(17) {
        let key = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
        let value = u64::from_le_bytes(chunk[9..17].try_into().unwrap());
        match chunk[8] {
            1 => entries.push(RunEntry::Put { key, value }),
            2 => entries.push(RunEntry::Tombstone { key }),
            _ => return Err(RunError::Corrupt("bad entry tag")),
        }
    }
    if !entries.windows(2).all(|w| w[0].key() < w[1].key()) {
        return Err(RunError::Corrupt("keys out of order"));
    }
    Ok((run_id, entries))
}

/// The probe model serving a run: the gate's winner.
#[derive(Clone, Debug)]
pub enum RunIndex {
    /// Gated PGM model: `predict_range` window + last-mile search.
    Learned(PgmCore),
    /// Fallback when the gate rejects the model (or the run is empty).
    BinarySearch,
}

impl RunIndex {
    /// Stable label for traces and benches.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunIndex::Learned(_) => "learned",
            RunIndex::BinarySearch => "binary_search",
        }
    }
}

/// A loaded, immutable run: sorted columns plus the gated probe model
/// and the key filter in front of it.
#[derive(Clone, Debug)]
pub struct Run {
    id: u32,
    /// Sorted keys (one per entry).
    keys: Vec<u64>,
    /// Parallel entries array.
    entries: Vec<RunEntry>,
    index: RunIndex,
    filter: KeyFilter,
    /// Bytes of the on-disk encoding (for bench bytes/key).
    file_bytes: u64,
}

impl Run {
    /// Builds the run's probe structures from decoded entries: the PGM
    /// candidate pushed through the lifecycle gate, and the key filter.
    pub fn assemble(id: u32, entries: Vec<RunEntry>, file_bytes: u64) -> Self {
        let keys: Vec<u64> = entries.iter().map(|e| e.key()).collect();
        let index = gate_run_index(&keys);
        let filter = KeyFilter::build(&keys);
        Self { id, keys, entries, index, filter, file_bytes }
    }

    /// Run id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted entries, tombstones included.
    pub fn entries(&self) -> &[RunEntry] {
        &self.entries
    }

    /// The probe model the gate chose.
    pub fn index(&self) -> &RunIndex {
        &self.index
    }

    /// On-disk size of the run file.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Index model size (0 for binary search).
    pub fn index_bytes(&self) -> usize {
        match &self.index {
            RunIndex::Learned(core) => core.size_bytes(),
            RunIndex::BinarySearch => 0,
        }
    }

    /// Key filter size in bytes.
    pub fn filter_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.filter.blocks)
    }

    /// False when the run certainly does not hold `key` (tombstones
    /// count as held); true when it may. Never false for a key of the
    /// run; true for about 1.2 % of the keys it lacks.
    #[inline]
    pub fn may_contain(&self, key: u64) -> bool {
        self.filter.may_contain(key)
    }

    /// Looks `key` up through the gated probe path — the index search
    /// alone, whatever the filter would say.
    pub fn get(&self, key: u64) -> Option<RunEntry> {
        let at = match &self.index {
            RunIndex::Learned(core) => core.search(&self.keys, key).ok()?,
            RunIndex::BinarySearch => self.keys.binary_search(&key).ok()?,
        };
        Some(self.entries[at])
    }

    /// Looks `key` up by plain binary search, bypassing the learned
    /// model — the reference the row-identity invariant compares
    /// against.
    pub fn get_unindexed(&self, key: u64) -> Option<RunEntry> {
        self.keys.binary_search(&key).ok().map(|at| self.entries[at])
    }

    /// The whole run as a merge input.
    pub fn view(&self) -> MergeInput<'_> {
        MergeInput { keys: &self.keys, entries: &self.entries }
    }

    /// All entries with keys in `[lo, hi]`, located via the probe path;
    /// an inverted range (`lo > hi`) is empty.
    pub fn range(&self, lo: u64, hi: u64) -> &[RunEntry] {
        self.range_view(lo, hi).entries
    }

    /// [`Run::range`] with the key column beside it: the form the merge
    /// cursor takes. The start comes from the probe path; the end is
    /// found by galloping from the start (steps of `GALLOP_FIRST_STEP`,
    /// doubling, then a bisection inside the last step), so a short
    /// answer costs a few comparisons on cache lines the start search
    /// just touched instead of a bisection of the whole rest of the
    /// column.
    pub(crate) fn range_view(&self, lo: u64, hi: u64) -> MergeInput<'_> {
        let start = match &self.index {
            RunIndex::Learned(core) => match core.search(&self.keys, lo) {
                Ok(i) | Err(i) => i,
            },
            RunIndex::BinarySearch => self.keys.partition_point(|&k| k < lo),
        };
        let rest = &self.keys[start..];
        // Every key of `rest[..within]` is `<= hi`.
        let (mut within, mut step) = (0, GALLOP_FIRST_STEP);
        while within + step <= rest.len() && rest[within + step - 1] <= hi {
            within += step;
            step *= 2;
        }
        let last_step = &rest[within..rest.len().min(within + step)];
        let end = start + within + last_step.partition_point(|&k| k <= hi);
        MergeInput { keys: &self.keys[start..end], entries: &self.entries[start..end] }
    }
}

/// First step of the gallop that finds where a range ends: a range
/// answer is a few dozen entries per run, so the first probe stays on the
/// cache line the start search ended on.
const GALLOP_FIRST_STEP: usize = 8;

/// Builds and gates a PGM model for one run's keys. Incumbent is binary
/// search (score 0 — it is never wrong); the candidate's score is the
/// fraction of deterministic sample probes whose result disagrees with
/// binary search, so any disagreement fails the zero-tolerance gate.
/// Public so the storage benchmark can time the index build alone.
pub fn gate_run_index(keys: &[u64]) -> RunIndex {
    if keys.len() < 2 {
        return RunIndex::BinarySearch;
    }
    let mut registry: ModelRegistry<Option<PgmCore>> =
        ModelRegistry::new("run_index", GateConfig { tolerance: 0.0 }, None);
    let core = PgmCore::build(keys, RUN_INDEX_EPSILON);
    let id = registry.register_candidate(Some(core), "run_flush");
    registry.begin_shadow(id);

    // Deterministic shadow probe sample: every k-th key plus just-miss
    // neighbours, capped so gating a huge run stays cheap.
    let step = (keys.len() / 64).max(1);
    let mut probes = 0u32;
    let mut disagreements = 0u32;
    let candidate = registry.version(id).and_then(|v| v.model.as_ref()).expect("registered");
    for i in (0..keys.len()).step_by(step) {
        for probe in [keys[i], keys[i].wrapping_add(1)] {
            probes += 1;
            let learned = candidate.search(keys, probe).ok();
            let reference = keys.binary_search(&probe).ok();
            if learned != reference {
                disagreements += 1;
            }
        }
    }
    let score = f64::from(disagreements) / f64::from(probes.max(1));
    let verdict = registry.try_promote(id, score, 0.0, 0.0);
    if verdict.promoted {
        match registry.active().clone() {
            Some(core) => RunIndex::Learned(core),
            None => RunIndex::BinarySearch,
        }
    } else {
        RunIndex::BinarySearch
    }
}

/// Key-filter bits per key: measured, not guessed (false-positive rate
/// 3.4 % at 8 bits, 1.2 % at 10, 0.5 % at 12; `kv_durable` reads the same
/// throughput at all three, and 10 keeps a `get` under 1.07 index
/// searches for 1.25 bytes per key), and deliberately not a
/// `StoreConfig` knob.
const FILTER_BITS_PER_KEY: usize = 10;

/// Odd multipliers, one per word of a block, that turn a key's hash into
/// the bit it sets in that word — the split-block Bloom filter's
/// constants as Parquet and Impala use them.
const FILTER_SALT: [u32; 8] = [
    0x47b6_137b, 0x4497_4d91, 0x8824_ad5b, 0xa2b7_289d, 0x7054_95c7, 0x2df1_424b, 0x9efc_4947,
    0x5c6b_fb31,
];

/// One filter block: eight 32-bit words, aligned to its 32 bytes so it
/// never straddles a cache line.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
struct FilterBlock([u32; 8]);

/// A split-block Bloom filter over a run's key column: every key sets one
/// bit in each of the eight words of one block, so a probe is one cache
/// line and eight independent tests. The hash is murmur3's `fmix64` —
/// fixed and seedless, so the filter is a pure function of the keys
/// (identical at flush and at `open`, and its false-positive count is the
/// same on every host).
#[derive(Clone, Debug)]
struct KeyFilter {
    blocks: Box<[FilterBlock]>,
}

impl KeyFilter {
    fn build(keys: &[u64]) -> Self {
        // 256 bits to a block; an empty run still gets one (all zero).
        let blocks = (keys.len() * FILTER_BITS_PER_KEY).div_ceil(256).max(1);
        let mut filter = Self { blocks: vec![FilterBlock([0; 8]); blocks].into_boxed_slice() };
        for &key in keys {
            let (at, masks) = filter.locate(key);
            for (word, mask) in filter.blocks[at].0.iter_mut().zip(masks) {
                *word |= mask;
            }
        }
        filter
    }

    /// The block `key` hashes to, and the bit it owns in each word.
    #[inline]
    fn locate(&self, key: u64) -> (usize, [u32; 8]) {
        let hash = fmix64(key);
        // High half picks the block (multiply-shift, no division); the low
        // half picks the bits.
        let at = ((hash >> 32) * self.blocks.len() as u64) >> 32;
        let low = hash as u32;
        (at as usize, FILTER_SALT.map(|salt| 1 << (low.wrapping_mul(salt) >> 27)))
    }

    #[inline]
    fn may_contain(&self, key: u64) -> bool {
        let (at, masks) = self.locate(key);
        let block = &self.blocks[at].0;
        // Branch-free: OR together every wanted bit the block lacks.
        (0..8).fold(0, |missing, i| missing | (masks[i] & !block[i])) == 0
    }
}

/// murmur3's 64-bit finalizer: a fixed bijection that spreads every input
/// bit over the whole output.
#[inline]
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Writes a run durably — create, append the encoding, fsync barrier —
/// and assembles the in-memory [`Run`]. Shared by memtable flushes
/// ([`write_run`]) and compactions (`write_merged_run`), which differ
/// only in what they count.
fn persist_run<M: StorageMedium>(
    medium: &mut M,
    run_id: u32,
    entries: Vec<RunEntry>,
    fsync_barriers: bool,
) -> Result<Run, IoFault> {
    let name = run_name(run_id);
    // The encoding lives only inside this block: it is freed before
    // `assemble` allocates the key column and the index beside `entries`.
    let file_bytes = {
        let buf = encode_run(run_id, &entries);
        medium.create(&name)?;
        medium.append(&name, &buf)?;
        buf.len() as u64
    };
    if fsync_barriers {
        medium.sync(&name)?;
    }
    Ok(Run::assemble(run_id, entries, file_bytes))
}

/// Writes one memtable flush durably: append the encoding, then an
/// fsync barrier. Returns the assembled in-memory [`Run`].
pub fn write_run<M: StorageMedium>(
    medium: &mut M,
    run_id: u32,
    entries: Vec<RunEntry>,
    fsync_barriers: bool,
) -> Result<Run, IoFault> {
    let run = persist_run(medium, run_id, entries, fsync_barriers)?;
    ml4db_obs::counter_add("run.flushes", 1);
    let (id, n, promoted) =
        (run.id(), run.len() as u64, matches!(run.index(), RunIndex::Learned(_)));
    ml4db_obs::emit_with(move || ml4db_obs::Event::RunFlush {
        run_id: id,
        entries: n,
        index_promoted: promoted,
    });
    Ok(run)
}

/// Writes the output of a compaction durably, exactly like a flush
/// (same file format, same barrier) but counted as `run.compactions` /
/// `run.compacted_entries` — `run.flushes` and the `run_flush` event
/// keep meaning *memtable flush*.
pub(crate) fn write_merged_run<M: StorageMedium>(
    medium: &mut M,
    run_id: u32,
    entries: Vec<RunEntry>,
    fsync_barriers: bool,
) -> Result<Run, IoFault> {
    let run = persist_run(medium, run_id, entries, fsync_barriers)?;
    ml4db_obs::counter_add("run.compactions", 1);
    ml4db_obs::counter_add("run.compacted_entries", run.len() as u64);
    Ok(run)
}

/// One input of the merge cursor: a key-sorted stretch of entries with
/// its key column beside it (`keys[i] == entries[i].key()`). A [`Run`]
/// hands out its own ([`Run::view`], `Run::range_view`); the store builds
/// one for the memtable.
///
/// The two travel together because they are read at different times. The
/// cursor decides *which* input moves next from keys alone, and whoever
/// located the stretch (a bound search over the key column) has just
/// pulled those keys into cache; the 24-byte entries are cold, and an
/// entry that loses its key to a newer input is never needed at all.
/// Reading keys out of the entries would put one cache miss per step on
/// the loop's dependency chain.
#[derive(Clone, Copy, Debug)]
pub struct MergeInput<'a> {
    pub(crate) keys: &'a [u64],
    pub(crate) entries: &'a [RunEntry],
}

/// The tier's one merge: walks `inputs` (each key-sorted, **oldest
/// first**) in key order and hands `emit` exactly one entry per distinct
/// key — the one from the newest input holding it, tombstones included.
/// Compaction ([`merge_runs`]), `DurableStore::range` and
/// `DurableStore::committed_state` are its three consumers; what to do
/// with a tombstone is theirs to decide.
///
/// Each step moves one input: the newest among those whose head key is
/// smallest. Its entry is emitted unless the step before emitted that key
/// (then a newer input already won it), so an entry is loaded only when
/// it is the answer. The head keys sit in one dense array scanned
/// linearly — no heap: compaction keeps the fan-in at a dozen or so (at
/// most `COMPACTION_FAN_IN - 1` runs per size tier, plus the memtable),
/// where a branch-free scan of two cache lines beats sifting, and the
/// scan order is what makes "newest wins" a comparison instead of a
/// stored rank.
pub(crate) fn merge_newest_wins(inputs: &[MergeInput<'_>], mut emit: impl FnMut(RunEntry)) {
    let mut rest: Vec<MergeInput<'_>> = Vec::with_capacity(inputs.len());
    rest.extend(inputs.iter().filter(|r| !r.keys.is_empty()));
    let mut heads: Vec<u64> = rest.iter().map(|r| r.keys[0]).collect();
    let mut emitted = None;
    while let Some(&first) = heads.first() {
        // `<=`: of equal keys, the later (newer) input is taken first.
        let (mut at, mut key) = (0, first);
        for (i, &k) in heads.iter().enumerate().skip(1) {
            if k <= key {
                (at, key) = (i, k);
            }
        }
        let r = &mut rest[at];
        if emitted != Some(key) {
            emitted = Some(key);
            emit(r.entries[0]);
        }
        *r = MergeInput { keys: &r.keys[1..], entries: &r.entries[1..] };
        match r.keys.first() {
            Some(&next) => heads[at] = next,
            None => {
                rest.remove(at);
                heads.remove(at);
            }
        }
    }
}

/// Merges `inputs` (each key-sorted, **oldest first**) into one
/// key-sorted entry list where the newest entry wins a key tie. With
/// `drop_tombstones` the winners that are tombstones are left out —
/// correct only when nothing older than `inputs` exists for them to
/// shadow.
///
/// The output vector is reserved at the no-duplicates upper bound and
/// trimmed to exact capacity at the end, so the transient is the output
/// beside its inputs and nothing more.
pub fn merge_runs(inputs: &[MergeInput<'_>], drop_tombstones: bool) -> Vec<RunEntry> {
    let mut merged = Vec::with_capacity(inputs.iter().map(|r| r.entries.len()).sum());
    merge_newest_wins(inputs, |entry| {
        if !(drop_tombstones && matches!(entry, RunEntry::Tombstone { .. })) {
            merged.push(entry);
        }
    });
    merged.shrink_to_fit();
    merged
}

/// Loads and verifies one run file; `Err(RunError::Corrupt)` marks a
/// torn flush the caller must ignore (its data is still in the WAL).
pub fn load_run<M: StorageMedium>(
    medium: &mut M,
    name: &str,
    checksums: bool,
) -> Result<Run, RunError> {
    let buf = match medium.read(name) {
        Ok(b) => b,
        Err(e) => return Err(RunError::Io(e)),
    };
    // Cross-check against the medium's length: a silently short read
    // must not masquerade as a torn flush.
    if let Ok(expect) = medium.len(name) {
        if buf.len() as u64 != expect {
            return Err(RunError::Io(IoFault::ShortRead));
        }
    }
    let file_bytes = buf.len() as u64;
    let (run_id, entries) = decode_run(&buf, checksums)?;
    Ok(Run::assemble(run_id, entries, file_bytes))
}

#[cfg(test)]
mod tests {
    use super::super::medium::SimDisk;
    use super::*;

    /// [`super::merge_runs`] over bare entry slices, each lent the key
    /// column a [`Run`] would hold beside it.
    fn merge_runs(inputs: &[&[RunEntry]], drop_tombstones: bool) -> Vec<RunEntry> {
        let columns: Vec<Vec<u64>> =
            inputs.iter().map(|r| r.iter().map(RunEntry::key).collect()).collect();
        let views: Vec<MergeInput<'_>> = inputs
            .iter()
            .zip(&columns)
            .map(|(&entries, keys)| MergeInput { keys, entries })
            .collect();
        super::merge_runs(&views, drop_tombstones)
    }

    fn sample_entries(n: u64) -> Vec<RunEntry> {
        (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    RunEntry::Tombstone { key: i * 3 }
                } else {
                    RunEntry::Put { key: i * 3, value: i * 100 }
                }
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let entries = sample_entries(200);
        let buf = encode_run(7, &entries);
        let (id, got) = decode_run(&buf, true).unwrap();
        assert_eq!(id, 7);
        assert_eq!(got, entries);
    }

    #[test]
    fn run_encoding_is_pinned_byte_for_byte() {
        // The on-disk format older stores wrote and newer ones must read:
        // any change to these bytes orphans every existing run file.
        let entries =
            [RunEntry::Put { key: 1, value: 0x0102_0304_0506_0708 }, RunEntry::Tombstone { key: 2 }];
        #[rustfmt::skip]
        let want: [u8; 54] = [
            b'R', b'U', b'N', b'1',
            7, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,  1,  8, 7, 6, 5, 4, 3, 2, 1,
            2, 0, 0, 0, 0, 0, 0, 0,  2,  0, 0, 0, 0, 0, 0, 0, 0,
            0xE6, 0xA9, 0x01, 0x56,
        ];
        assert_eq!(encode_run(7, &entries), want);
    }

    #[test]
    fn merge_newest_wins_and_only_drops_tombstones_when_told() {
        let put = |key, value| RunEntry::Put { key, value };
        let dead = |key| RunEntry::Tombstone { key };
        let oldest = [put(1, 10), put(2, 20), put(5, 50)];
        let middle = [dead(2), put(3, 31), put(5, 51)];
        let newest = [put(2, 22), dead(5), put(9, 92)];
        let inputs: [&[RunEntry]; 4] = [&oldest, &[], &middle, &newest];
        assert_eq!(
            merge_runs(&inputs, false),
            [put(1, 10), put(2, 22), put(3, 31), dead(5), put(9, 92)]
        );
        let compacted = merge_runs(&inputs, true);
        assert_eq!(compacted, [put(1, 10), put(2, 22), put(3, 31), put(9, 92)]);
        assert_eq!(compacted.capacity(), compacted.len(), "output is trimmed to exact capacity");
        assert!(merge_runs(&[], true).is_empty());
        assert!(merge_runs(&[&[dead(1)]], true).is_empty());
    }

    #[test]
    fn merge_matches_a_map_fold_on_overlapping_runs() {
        // Eight overlapping runs with pseudo-random keys: the streamed
        // merge must equal folding them oldest-first into a map.
        let runs: Vec<Vec<RunEntry>> = (0..8u64)
            .map(|r| {
                let mut keys: Vec<u64> =
                    (0..200u64).map(|i| (i * (r + 3)).wrapping_mul(0x9E37_79B9) % 500).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.into_iter()
                    .map(|key| {
                        if (key + r) % 5 == 0 {
                            RunEntry::Tombstone { key }
                        } else {
                            RunEntry::Put { key, value: r * 1_000 + key }
                        }
                    })
                    .collect()
            })
            .collect();
        let inputs: Vec<&[RunEntry]> = runs.iter().map(Vec::as_slice).collect();
        let mut fold = std::collections::BTreeMap::new();
        for e in runs.iter().flatten() {
            fold.insert(e.key(), *e);
        }
        let want: Vec<RunEntry> = fold.into_values().collect();
        assert_eq!(merge_runs(&inputs, false), want);
        let live: Vec<RunEntry> =
            want.into_iter().filter(|e| matches!(e, RunEntry::Put { .. })).collect();
        assert_eq!(merge_runs(&inputs, true), live);
    }

    #[test]
    fn any_corrupt_byte_is_rejected() {
        let buf = encode_run(1, &sample_entries(20));
        for i in 0..buf.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = buf.clone();
                bad[i] ^= bit;
                assert!(
                    decode_run(&bad, true).is_err(),
                    "flip of byte {i} (bit {bit:#x}) went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let buf = encode_run(1, &sample_entries(20));
        for cut in 0..buf.len() {
            assert!(decode_run(&buf[..cut], true).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn gated_index_probes_match_binary_search_for_every_key() {
        let entries = sample_entries(3000);
        let run = Run::assemble(0, entries.clone(), 0);
        assert!(
            matches!(run.index(), RunIndex::Learned(_)),
            "PGM on clean sorted keys should clear the gate"
        );
        for e in &entries {
            assert_eq!(run.get(e.key()), Some(*e));
            assert_eq!(run.get(e.key()), run.get_unindexed(e.key()));
            assert_eq!(run.get(e.key().wrapping_add(1)), None);
        }
    }

    /// `run.range(lo, hi)` against a filter over `entries`.
    fn assert_range(run: &Run, entries: &[RunEntry], lo: u64, hi: u64) {
        let want: Vec<RunEntry> =
            entries.iter().copied().filter(|e| (lo..=hi).contains(&e.key())).collect();
        assert_eq!(run.range(lo, hi), &want[..], "range [{lo}, {hi}] of {} keys", entries.len());
    }

    #[test]
    fn range_matches_filter_sweep() {
        // Keys 0, 3, ..., 1497.
        let entries = sample_entries(500);
        let run = Run::assemble(0, entries.clone(), 0);
        for (lo, hi) in [
            (0, 0),
            (3, 300),
            (299, 901),
            (0, u64::MAX),
            (1400, 1400),
            // The gallop's edges: an end far past the column, a start
            // past the last key, an end exactly on the last key, windows
            // of one first step, one short of it and one past it, and an
            // inverted range.
            (700, u64::MAX),
            (1498, 5_000),
            (u64::MAX, u64::MAX),
            (1200, 1497),
            (30, 30 + 3 * 7),
            (30, 30 + 3 * 6),
            (30, 30 + 3 * 8),
            (20, 10),
        ] {
            assert_range(&run, &entries, lo, hi);
        }
        assert!(run.range(20, 10).is_empty(), "an inverted range is empty");

        // A one-key run, and the key space's two ends.
        for key in [0, 5, u64::MAX] {
            let one = [RunEntry::Put { key, value: 1 }];
            let run = Run::assemble(0, one.to_vec(), 0);
            for (lo, hi) in [(0, u64::MAX), (key, key), (0, key), (key, u64::MAX), (6, 9)] {
                assert_range(&run, &one, lo, hi);
            }
        }

        // Every `(lo, hi)` over a 40-key run with uneven gaps, windows
        // wider than the run and inverted ones included.
        let entries: Vec<RunEntry> =
            (0..40u64).map(|i| RunEntry::Put { key: 10 + i * 2 + i % 2, value: i }).collect();
        let run = Run::assemble(0, entries.clone(), 0);
        for lo in 0..100 {
            for hi in 0..100 {
                assert_range(&run, &entries, lo, hi);
            }
        }
    }

    #[test]
    fn write_then_load_round_trips_through_a_medium() {
        let mut disk = SimDisk::new();
        let entries = sample_entries(100);
        let written = write_run(&mut disk, 4, entries.clone(), true).unwrap();
        let loaded = load_run(&mut disk, &run_name(4), true).unwrap();
        assert_eq!(loaded.id(), 4);
        assert_eq!(loaded.entries(), written.entries());
        assert_eq!(loaded.file_bytes(), written.file_bytes());
    }

    #[test]
    fn torn_run_write_is_rejected_at_load() {
        use super::super::medium::{FaultSpec, TailPolicy};
        let mut disk = SimDisk::new();
        // Crash on the fsync: create+append land volatile, a torn
        // prefix survives reboot.
        disk.arm(FaultSpec::CrashAt { op: disk.ops() + 2, tail: TailPolicy::Torn });
        let err = write_run(&mut disk, 0, sample_entries(50), true);
        assert!(err.is_err());
        disk.reboot(0xBEEF);
        match load_run(&mut disk, &run_name(0), true) {
            Err(RunError::Corrupt(_)) => {}
            Ok(run) => {
                // A zero-length surviving prefix may drop the file
                // entirely; anything loadable must be impossible.
                panic!("torn run loaded with {} entries", run.len());
            }
            Err(RunError::Io(IoFault::NotFound)) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
}
