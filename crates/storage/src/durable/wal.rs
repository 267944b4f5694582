//! The checksummed, segmented write-ahead log.
//!
//! Every mutation is appended as a **frame** — `[len: u32][crc32: u32]
//! [payload]`, CRC over the payload — into the active segment
//! (`wal-XXXXXXXX.seg`), which rotates at a configurable size. A
//! [`Wal::sync`] barrier is the commit acknowledgement point: a
//! [`WalRecord::Commit`] frame followed by a successful fsync makes the
//! batch durable; everything after the last durable fsync is by
//! definition unacknowledged.
//!
//! Replay ([`Wal::recover`]) walks the segments in order, verifying
//! every frame's CRC, and **stops at the first torn or corrupt frame** —
//! which is always inside the unacknowledged tail on an honest medium,
//! so no committed record is ever dropped. The frame codec is exposed
//! ([`encode_frame`], [`decode_frame`]) for the property tests that
//! prove exactly that: corrupt any byte → the frame is rejected;
//! truncate at any offset → replay stops at the last whole frame.
//!
//! Append errors are survivable: [`IoFault::NoSpace`] and transient
//! write errors are retried a bounded number of times on a
//! deterministic call-count backoff clock, then surface as a clean
//! [`WalError`] (the guard layer trips a named breaker on it — see
//! `ml4db_guard::diskchaos`); the WAL itself never panics on I/O.

use super::medium::{IoFault, StorageMedium};

/// Sanity cap on one frame's payload: no record we write comes close,
/// so a garbage length prefix (torn tail with checksums off) cannot ask
/// replay to skip megabytes.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;

/// Frame header bytes: u32 length + u32 CRC.
pub const FRAME_HEADER: usize = 8;

/// Largest payload any [`WalRecord`] encodes to (a `Put`: tag + three
/// `u64`s), so a whole frame fits a small stack buffer.
pub const MAX_RECORD_PAYLOAD: usize = 25;

/// WAL knobs. The protection switches exist for the chaos harness,
/// which proves recovery *fails* without them; production code leaves
/// them on.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Bounded retries for NoSpace/Transient append errors.
    pub retry_limit: u32,
    /// Verify (and write meaningful) per-frame CRCs.
    pub checksums: bool,
    /// Honor fsync barriers (off = sync is a lying no-op).
    pub fsync_barriers: bool,
    /// Cross-check replay reads against the medium's file length and
    /// retry short reads.
    pub read_retry: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 16 * 1024,
            retry_limit: 4,
            checksums: true,
            fsync_barriers: true,
            read_retry: true,
        }
    }
}

/// A WAL append/replay failure, after bounded retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The medium stayed out of space through every retry.
    NoSpace {
        /// Append attempts made (1 + retries).
        attempts: u32,
    },
    /// A write error persisted through every retry.
    Transient {
        /// Append attempts made.
        attempts: u32,
    },
    /// The (simulated) machine died mid-operation; nothing further can
    /// be appended until recovery.
    MediumCrashed,
    /// Replay could not make sense of the log in a way that is *not*
    /// an honest torn tail (e.g. a missing segment mid-sequence).
    Corrupt(&'static str),
}

impl WalError {
    /// Stable label for traces, breakers, and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            WalError::NoSpace { .. } => "no_space",
            WalError::Transient { .. } => "transient",
            WalError::MediumCrashed => "medium_crashed",
            WalError::Corrupt(_) => "corrupt",
        }
    }
}

/// One logical WAL record. `seq` is a store-wide monotone sequence
/// number; replay uses it to skip records already folded into runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// An upsert, staged until the next commit frame.
    Put {
        /// Sequence number.
        seq: u64,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// A delete (tombstone), staged until the next commit frame.
    Delete {
        /// Sequence number.
        seq: u64,
        /// Key.
        key: u64,
    },
    /// Commits every staged record before it.
    Commit {
        /// Sequence number.
        seq: u64,
    },
    /// All records with `seq <= flushed_through` are durable in the
    /// runs with ids up to `run_id` (ids are sparse: a compaction
    /// retires its inputs' ids and takes a fresh one); replay skips them.
    Checkpoint {
        /// Sequence number of the checkpoint record itself.
        seq: u64,
        /// Id of the run whose flush wrote this checkpoint — the
        /// highest run id it covers.
        run_id: u32,
        /// Highest sequence number folded into those runs.
        flushed_through: u64,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match *self {
            WalRecord::Put { seq, .. }
            | WalRecord::Delete { seq, .. }
            | WalRecord::Commit { seq }
            | WalRecord::Checkpoint { seq, .. } => seq,
        }
    }

    /// Serializes the record payload (tag + seq + fields, little-endian)
    /// into `out`, returning its length — the one payload encoder; the
    /// append path calls it on a stack buffer.
    pub fn encode_into(&self, out: &mut [u8; MAX_RECORD_PAYLOAD]) -> usize {
        out[1..9].copy_from_slice(&self.seq().to_le_bytes());
        let (tag, len) = match *self {
            WalRecord::Put { key, value, .. } => {
                out[9..17].copy_from_slice(&key.to_le_bytes());
                out[17..25].copy_from_slice(&value.to_le_bytes());
                (1, 25)
            }
            WalRecord::Delete { key, .. } => {
                out[9..17].copy_from_slice(&key.to_le_bytes());
                (2, 17)
            }
            WalRecord::Commit { .. } => (3, 9),
            WalRecord::Checkpoint { run_id, flushed_through, .. } => {
                out[9..13].copy_from_slice(&run_id.to_le_bytes());
                out[13..21].copy_from_slice(&flushed_through.to_le_bytes());
                (4, 21)
            }
        };
        out[0] = tag;
        len
    }

    /// [`Self::encode_into`] as an owned buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = [0u8; MAX_RECORD_PAYLOAD];
        let n = self.encode_into(&mut buf);
        buf[..n].to_vec()
    }

    /// Parses a record payload; `None` on a structurally invalid one.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let u64_at = |r: &[u8], at: usize| -> Option<u64> {
            r.get(at..at + 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        match tag {
            1 if rest.len() == 24 => Some(WalRecord::Put {
                seq: u64_at(rest, 0)?,
                key: u64_at(rest, 8)?,
                value: u64_at(rest, 16)?,
            }),
            2 if rest.len() == 16 => {
                Some(WalRecord::Delete { seq: u64_at(rest, 0)?, key: u64_at(rest, 8)? })
            }
            3 if rest.len() == 8 => Some(WalRecord::Commit { seq: u64_at(rest, 0)? }),
            4 if rest.len() == 20 => Some(WalRecord::Checkpoint {
                seq: u64_at(rest, 0)?,
                run_id: u32::from_le_bytes(rest.get(8..12)?.try_into().unwrap()),
                flushed_through: u64_at(rest, 12)?,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, slicing-by-8
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte that sits `k` positions before the end of an 8-byte
/// step, so eight lookups retire eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `data`: eight bytes per step, then the bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The frame header for `payload`: `[len: u32][crc32: u32]` — the one
/// frame encoder; [`encode_frame`] and [`Wal::append`] both lay the
/// payload behind it.
fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    assert!(payload.len() as u32 <= MAX_FRAME_PAYLOAD, "frame payload too large");
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Wraps a record payload in a length-prefixed, CRC-protected frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
    out
}

/// Why frame decoding stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameStop {
    /// Clean end of buffer: every byte belonged to a whole frame.
    End,
    /// The buffer ends inside a header or payload (torn write).
    Torn,
    /// A whole frame failed its CRC or decoded to no valid record.
    Corrupt,
}

/// Decodes one frame at `buf[at..]`. Returns the record and the offset
/// just past the frame, or the reason decoding must stop. With
/// `checksums` off the CRC field is ignored — the mode the chaos
/// harness proves unsafe.
pub fn decode_frame(
    buf: &[u8],
    at: usize,
    checksums: bool,
) -> Result<Option<(WalRecord, usize)>, FrameStop> {
    let rest = &buf[at.min(buf.len())..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < FRAME_HEADER {
        return Err(FrameStop::Torn);
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        // A length this large is never written; with checksums off it is
        // the only line of defense against a garbage length prefix.
        return Err(FrameStop::Corrupt);
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let end = FRAME_HEADER + len as usize;
    if rest.len() < end {
        return Err(FrameStop::Torn);
    }
    let payload = &rest[FRAME_HEADER..end];
    if checksums && crc32(payload) != crc {
        return Err(FrameStop::Corrupt);
    }
    match WalRecord::decode(payload) {
        Some(rec) => Ok(Some((rec, at + end))),
        None => Err(FrameStop::Corrupt),
    }
}

/// Decodes every whole valid frame from the start of `buf`, reporting
/// how decoding stopped.
pub fn decode_all(buf: &[u8], checksums: bool) -> (Vec<WalRecord>, FrameStop) {
    let mut out = Vec::new();
    let mut at = 0usize;
    loop {
        match decode_frame(buf, at, checksums) {
            Ok(Some((rec, next))) => {
                out.push(rec);
                at = next;
            }
            Ok(None) => return (out, FrameStop::End),
            Err(stop) => return (out, stop),
        }
    }
}

// ---------------------------------------------------------------------------
// Segmented appender
// ---------------------------------------------------------------------------

fn segment_name(id: u32) -> String {
    format!("wal-{id:08}.seg")
}

fn parse_segment(name: &str) -> Option<u32> {
    name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()
}

/// What [`Wal::recover`] found in the log.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Every whole, valid record, in log order.
    pub records: Vec<WalRecord>,
    /// Segments scanned.
    pub segments: u32,
    /// Whether replay stopped at a torn/corrupt tail.
    pub torn_tail: bool,
    /// Frames dropped at the tail for failing their CRC (0 or 1 — replay
    /// stops at the first).
    pub corrupt_frames: u64,
}

/// The segmented appender: tracks the active segment, the next sequence
/// number, and the durability high-water mark. All I/O goes through the
/// caller's [`StorageMedium`].
#[derive(Clone, Debug)]
pub struct Wal {
    cfg: WalConfig,
    /// Live segment ids, ascending; the last is active.
    segments: Vec<u32>,
    /// File name of the active segment, kept so an append formats none.
    active_name: String,
    /// Bytes appended to the active segment.
    active_bytes: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Logical backoff clock: advanced by the retry loop instead of
    /// sleeping, so tests can assert the exact schedule.
    backoff_ticks: u64,
    /// Appends that needed at least one retry.
    retried_appends: u64,
}

impl Wal {
    /// Creates a fresh WAL (segment 0) on `medium`.
    pub fn create<M: StorageMedium>(medium: &mut M, cfg: WalConfig) -> Result<Self, WalError> {
        let active_name = segment_name(0);
        medium.create(&active_name).map_err(Self::map_create)?;
        Ok(Self {
            cfg,
            segments: vec![0],
            active_name,
            active_bytes: 0,
            // Sequence numbers start at 1 so `flushed_through = 0` can
            // mean "no checkpoint yet" without colliding with a record.
            next_seq: 1,
            backoff_ticks: 0,
            retried_appends: 0,
        })
    }

    fn map_create(e: IoFault) -> WalError {
        match e {
            IoFault::Crashed => WalError::MediumCrashed,
            IoFault::NoSpace => WalError::NoSpace { attempts: 1 },
            _ => WalError::Transient { attempts: 1 },
        }
    }

    /// The WAL's configuration.
    pub fn config(&self) -> WalConfig {
        self.cfg
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Live segment count.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The active segment's id.
    pub fn active_segment(&self) -> u32 {
        *self.segments.last().expect("wal always has an active segment")
    }

    /// Total ticks the deterministic backoff clock has advanced — the
    /// "time spent waiting" of the retry path, without a wall clock.
    pub fn backoff_ticks(&self) -> u64 {
        self.backoff_ticks
    }

    /// Folds externally accumulated retry waits (e.g. the store's
    /// run-load retries during open) into this WAL's backoff clock, so
    /// one counter audits the whole recovery path.
    pub(crate) fn absorb_backoff(&mut self, ticks: u64) {
        self.backoff_ticks += ticks;
    }

    /// Appends that succeeded only after at least one retry.
    pub fn retried_appends(&self) -> u64 {
        self.retried_appends
    }

    /// Assigns the next sequence number.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Forces rotation onto a fresh segment regardless of fill — the
    /// flush protocol rotates before its checkpoint frame so GC can
    /// reclaim every earlier segment.
    pub fn rotate<M: StorageMedium>(&mut self, medium: &mut M) -> Result<(), WalError> {
        // A segment must be fully durable before it stops being the
        // active one: `sync` only ever fsyncs the active segment, so a
        // volatile tail left behind here could hold records from an
        // already-acknowledged commit whose commit frame lands in the
        // next segment.
        self.sync(medium)?;
        let next = self.active_segment() + 1;
        let name = segment_name(next);
        self.try_io(|m| m.create(&name), medium)?;
        self.segments.push(next);
        self.active_name = name;
        self.active_bytes = 0;
        Ok(())
    }

    /// Appends one record, rotating segments and retrying NoSpace /
    /// transient errors on the deterministic backoff schedule
    /// (1, 2, 4, ... ticks). Returns the record's encoded frame size.
    pub fn append<M: StorageMedium>(
        &mut self,
        medium: &mut M,
        rec: &WalRecord,
    ) -> Result<u64, WalError> {
        // The whole frame is built on the stack: payload behind its
        // header, no heap allocation on the append path.
        let mut frame = [0u8; FRAME_HEADER + MAX_RECORD_PAYLOAD];
        let (header, payload) = frame.split_at_mut(FRAME_HEADER);
        let len = rec.encode_into(payload.try_into().expect("payload buffer size"));
        header.copy_from_slice(&frame_header(&payload[..len]));
        let frame = &frame[..FRAME_HEADER + len];
        if self.active_bytes >= self.cfg.segment_bytes {
            self.rotate(medium)?;
        }
        // Lend the kept name to the retry loop (which needs `&mut self`)
        // instead of formatting a fresh one per append.
        let name = std::mem::take(&mut self.active_name);
        let appended = self.try_io(|m| m.append(&name, frame), medium);
        self.active_name = name;
        appended?;
        self.active_bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Runs one I/O action under the bounded-retry policy.
    fn try_io<M: StorageMedium>(
        &mut self,
        mut op: impl FnMut(&mut M) -> Result<(), IoFault>,
        medium: &mut M,
    ) -> Result<(), WalError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match op(medium) {
                Ok(()) => {
                    if attempts > 1 {
                        self.retried_appends += 1;
                    }
                    return Ok(());
                }
                Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                Err(e @ (IoFault::NoSpace | IoFault::Transient)) => {
                    if attempts > self.cfg.retry_limit {
                        return Err(match e {
                            IoFault::NoSpace => WalError::NoSpace { attempts },
                            _ => WalError::Transient { attempts },
                        });
                    }
                    // Deterministic exponential backoff on the logical
                    // clock: no wall time, identical on every run.
                    self.backoff_ticks += 1u64 << (attempts - 1).min(16);
                }
                Err(_) => return Err(WalError::Corrupt("append on missing segment")),
            }
        }
    }

    /// The fsync barrier: makes the active segment durable when
    /// `fsync_barriers` is on.
    pub fn sync<M: StorageMedium>(&mut self, medium: &mut M) -> Result<(), WalError> {
        if self.cfg.fsync_barriers {
            match medium.sync(&self.active_name) {
                Ok(()) => {}
                Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                Err(IoFault::NoSpace) => return Err(WalError::NoSpace { attempts: 1 }),
                Err(_) => return Err(WalError::Transient { attempts: 1 }),
            }
        }
        Ok(())
    }

    /// Deletes every segment below the active one — called after a
    /// checkpoint frame covering them is durable.
    pub fn gc_below_active<M: StorageMedium>(
        &mut self,
        medium: &mut M,
    ) -> Result<(), WalError> {
        let active = self.active_segment();
        for id in std::mem::take(&mut self.segments) {
            // Any other delete failure leaves a harmless segment behind:
            // replay skips its records by sequence number.
            if id != active && medium.delete(&segment_name(id)) == Err(IoFault::Crashed) {
                self.segments.push(active);
                return Err(WalError::MediumCrashed);
            }
        }
        self.segments.push(active);
        Ok(())
    }

    /// Reads one file with the short-read cross-check: the returned
    /// buffer must match the medium's reported length. Transient read
    /// errors and detected short reads are retried under the same
    /// bounded deterministic policy appends get (`retry_limit` retries
    /// on the 1, 2, 4, … tick backoff clock), then surface as a clean
    /// [`WalError::Transient`]. With `read_retry` off the length
    /// cross-check is skipped and the first successful answer is
    /// trusted — the unprotected mode the chaos harness breaks.
    fn read_checked<M: StorageMedium>(
        medium: &mut M,
        name: &str,
        cfg: &WalConfig,
        backoff: &mut u64,
    ) -> Result<Vec<u8>, WalError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let buf = match medium.read(name) {
                Ok(b) => b,
                Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                Err(IoFault::NotFound) => return Err(WalError::Corrupt("segment vanished")),
                Err(_) => {
                    if attempts > cfg.retry_limit {
                        return Err(WalError::Transient { attempts });
                    }
                    *backoff += 1u64 << (attempts - 1).min(16);
                    continue;
                }
            };
            if !cfg.read_retry {
                return Ok(buf);
            }
            match medium.len(name) {
                Ok(expect) if buf.len() as u64 == expect => return Ok(buf),
                Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                Ok(_) | Err(_) => {
                    if attempts > cfg.retry_limit {
                        return Err(WalError::Transient { attempts });
                    }
                    *backoff += 1u64 << (attempts - 1).min(16);
                }
            }
        }
    }

    /// Runs one read-side I/O action under the append retry policy:
    /// `retry_limit` retries of NoSpace/Transient faults on the
    /// deterministic backoff clock, crash and not-found fatal. Shared
    /// with `DurableStore::open`, whose recovery enumeration must ride
    /// out the same transient reads replay does.
    pub(crate) fn retry_read_io<M: StorageMedium, T>(
        cfg: &WalConfig,
        backoff: &mut u64,
        medium: &mut M,
        mut op: impl FnMut(&mut M) -> Result<T, IoFault>,
    ) -> Result<T, WalError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match op(medium) {
                Ok(v) => return Ok(v),
                Err(IoFault::Crashed) => return Err(WalError::MediumCrashed),
                Err(IoFault::NotFound) => return Err(WalError::Corrupt("segment vanished")),
                Err(_) => {
                    if attempts > cfg.retry_limit {
                        return Err(WalError::Transient { attempts });
                    }
                    *backoff += 1u64 << (attempts - 1).min(16);
                }
            }
        }
    }

    /// Scans the log on `medium`, returning every whole valid record and
    /// a [`Wal`] positioned to continue appending after the survivors.
    ///
    /// Replay stops at the first torn or corrupt frame; a defect in a
    /// **non-final** segment is not an honest crash artifact and fails
    /// with [`WalError::Corrupt`] rather than silently dropping the
    /// segments after it.
    pub fn recover<M: StorageMedium>(
        medium: &mut M,
        cfg: WalConfig,
    ) -> Result<(Self, Replay), WalError> {
        let mut backoff = 0u64;
        let names = Self::retry_read_io(&cfg, &mut backoff, medium, |m| m.list())?;
        let mut seg_ids: Vec<u32> = names.iter().filter_map(|n| parse_segment(n)).collect();
        seg_ids.sort_unstable();
        if seg_ids.is_empty() {
            let wal = Self::create(medium, cfg)?;
            return Ok((
                wal,
                Replay { records: Vec::new(), segments: 0, torn_tail: false, corrupt_frames: 0 },
            ));
        }
        let mut records = Vec::new();
        let mut torn_tail = false;
        let mut corrupt_frames = 0u64;
        let mut active_bytes = 0u64;
        for (i, &id) in seg_ids.iter().enumerate() {
            let buf = Self::read_checked(medium, &segment_name(id), &cfg, &mut backoff)?;
            let (mut recs, stop) = decode_all(&buf, cfg.checksums);
            let last = i + 1 == seg_ids.len();
            match stop {
                FrameStop::End => {}
                FrameStop::Torn | FrameStop::Corrupt if last => {
                    torn_tail = true;
                    if stop == FrameStop::Corrupt {
                        corrupt_frames += 1;
                    }
                }
                // Damage before the final segment cannot come from a
                // torn crash tail: surface it instead of replaying a
                // log with a hole in the middle.
                _ => return Err(WalError::Corrupt("defect in non-final segment")),
            }
            if last {
                // Continue appending after the valid prefix: the torn
                // bytes (if any) are dead — they are unacknowledged by
                // construction — and will be overwritten only by
                // rotation, never reinterpreted, because replay already
                // stopped in front of them. Re-create the segment with
                // just the valid prefix so future frames butt against
                // whole frames.
                if torn_tail {
                    let mut payload = [0u8; MAX_RECORD_PAYLOAD];
                    let valid: usize =
                        recs.iter().map(|r| FRAME_HEADER + r.encode_into(&mut payload)).sum();
                    let name = segment_name(id);
                    Self::retry_read_io(&cfg, &mut backoff, medium, |m| m.create(&name))?;
                    Self::retry_read_io(&cfg, &mut backoff, medium, |m| {
                        m.append(&name, &buf[..valid])
                    })?;
                    active_bytes = valid as u64;
                } else {
                    active_bytes = buf.len() as u64;
                }
            }
            records.append(&mut recs);
        }
        let next_seq = records.iter().map(|r| r.seq() + 1).max().unwrap_or(1);
        let wal = Self {
            cfg,
            active_name: segment_name(*seg_ids.last().expect("non-empty checked above")),
            segments: seg_ids.clone(),
            active_bytes,
            next_seq,
            // Carry recovery's retry waits so the schedule is auditable
            // from the recovered handle, exactly like the append path.
            backoff_ticks: backoff,
            retried_appends: 0,
        };
        Ok((
            wal,
            Replay {
                records,
                segments: seg_ids.len() as u32,
                torn_tail,
                corrupt_frames,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::medium::SimDisk;
    use super::*;

    #[test]
    fn frame_round_trip() {
        for rec in [
            WalRecord::Put { seq: 7, key: 42, value: 99 },
            WalRecord::Delete { seq: 8, key: 42 },
            WalRecord::Commit { seq: 9 },
            WalRecord::Checkpoint { seq: 10, run_id: 3, flushed_through: 9 },
        ] {
            let frame = encode_frame(&rec.encode());
            let (got, stop) = decode_all(&frame, true);
            assert_eq!(stop, FrameStop::End);
            assert_eq!(got, vec![rec]);
        }
    }

    /// The byte-at-a-time CRC32 the slicing kernel replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_slicing_equals_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn frame_encoding_is_pinned_byte_for_byte() {
        // The log format older stores wrote and newer ones must replay.
        let put = WalRecord::Put { seq: 7, key: 42, value: 99 };
        #[rustfmt::skip]
        let want_put: [u8; 33] = [
            25, 0, 0, 0,  0xFF, 0xCF, 0xB4, 0xC0,
            1,  7, 0, 0, 0, 0, 0, 0, 0,  42, 0, 0, 0, 0, 0, 0, 0,  99, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(encode_frame(&put.encode()), want_put);
        let checkpoint = WalRecord::Checkpoint { seq: 10, run_id: 3, flushed_through: 9 };
        #[rustfmt::skip]
        let want_checkpoint: [u8; 29] = [
            21, 0, 0, 0,  0xD5, 0xA8, 0x39, 0x6C,
            4,  10, 0, 0, 0, 0, 0, 0, 0,  3, 0, 0, 0,  9, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(encode_frame(&checkpoint.encode()), want_checkpoint);
        assert_eq!(WalRecord::Delete { seq: 8, key: 42 }.encode().len(), 17);
        assert_eq!(WalRecord::Commit { seq: 9 }.encode().len(), 9);

        // The append path's stack-built frame is those same bytes.
        let mut disk = SimDisk::new();
        let mut wal = Wal::create(&mut disk, WalConfig::default()).unwrap();
        assert_eq!(wal.append(&mut disk, &put), Ok(33));
        assert_eq!(wal.append(&mut disk, &checkpoint), Ok(29));
        assert_eq!(disk.read("wal-00000000.seg").unwrap(), [&want_put[..], &want_checkpoint].concat());
    }

    #[test]
    fn corrupt_byte_rejects_frame() {
        let rec = WalRecord::Put { seq: 1, key: 2, value: 3 };
        let frame = encode_frame(&rec.encode());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let (got, stop) = decode_all(&bad, true);
            assert!(
                got.is_empty() && stop != FrameStop::End,
                "byte {i} flip decoded to {got:?} / {stop:?}"
            );
        }
    }

    #[test]
    fn append_sync_recover_round_trip() {
        let mut disk = SimDisk::new();
        let mut wal = Wal::create(&mut disk, WalConfig::default()).unwrap();
        let mut written = Vec::new();
        for i in 0..10u64 {
            let seq = wal.alloc_seq();
            let rec = WalRecord::Put { seq, key: i, value: i * 10 };
            wal.append(&mut disk, &rec).unwrap();
            written.push(rec);
        }
        let seq = wal.alloc_seq();
        written.push(WalRecord::Commit { seq });
        wal.append(&mut disk, written.last().unwrap()).unwrap();
        wal.sync(&mut disk).unwrap();

        let (wal2, replay) = Wal::recover(&mut disk, WalConfig::default()).unwrap();
        assert_eq!(replay.records, written);
        assert!(!replay.torn_tail);
        assert_eq!(wal2.next_seq(), wal.next_seq());
    }

    #[test]
    fn segments_rotate_and_recover_in_order() {
        let mut disk = SimDisk::new();
        let cfg = WalConfig { segment_bytes: 64, ..WalConfig::default() };
        let mut wal = Wal::create(&mut disk, cfg).unwrap();
        for i in 0..32u64 {
            let seq = wal.alloc_seq();
            wal.append(&mut disk, &WalRecord::Put { seq, key: i, value: i }).unwrap();
        }
        wal.sync(&mut disk).unwrap();
        assert!(wal.num_segments() > 1, "rotation never fired");
        let (_, replay) = Wal::recover(&mut disk, cfg).unwrap();
        assert_eq!(replay.segments as usize, wal.num_segments());
        let keys: Vec<u64> = replay
            .records
            .iter()
            .map(|r| match r {
                WalRecord::Put { key, .. } => *key,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(keys, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn enospc_retries_then_clean_error() {
        use super::super::medium::FaultSpec;
        let mut disk = SimDisk::new();
        let cfg = WalConfig { retry_limit: 2, ..WalConfig::default() };
        let mut wal = Wal::create(&mut disk, cfg).unwrap();
        // Clears after 2 failures: retry path succeeds.
        disk.arm(FaultSpec::NoSpaceAt { op: disk.ops(), times: 2 });
        let seq = wal.alloc_seq();
        wal.append(&mut disk, &WalRecord::Put { seq, key: 1, value: 1 }).unwrap();
        assert_eq!(wal.retried_appends(), 1);
        assert_eq!(wal.backoff_ticks(), 1 + 2, "deterministic 1,2 schedule");
        // Never clears: clean error after the bounded schedule, no panic.
        disk.arm(FaultSpec::NoSpaceAt { op: disk.ops(), times: 1000 });
        let seq = wal.alloc_seq();
        let err = wal.append(&mut disk, &WalRecord::Put { seq, key: 2, value: 2 });
        assert_eq!(err, Err(WalError::NoSpace { attempts: 3 }));
    }

    #[test]
    fn truncation_at_every_offset_stops_at_last_whole_frame() {
        let recs: Vec<WalRecord> =
            (0..6).map(|i| WalRecord::Put { seq: i, key: i, value: i + 100 }).collect();
        let mut log = Vec::new();
        let mut ends = vec![0usize];
        for r in &recs {
            log.extend_from_slice(&encode_frame(&r.encode()));
            ends.push(log.len());
        }
        for cut in 0..=log.len() {
            let (got, _) = decode_all(&log[..cut], true);
            let whole = ends.iter().filter(|&&e| e <= cut).count() - 1;
            assert_eq!(got.len(), whole, "cut at {cut}");
            assert_eq!(&got[..], &recs[..whole]);
        }
    }
}
