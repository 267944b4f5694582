//! The I/O boundary of the durable tier: every byte the WAL and run
//! writers touch goes through a [`StorageMedium`], so the same code runs
//! against real files ([`FsMedium`]) and against a deterministic
//! simulated disk ([`SimDisk`]) that injects faults at seeded crash
//! points — kill-before-fsync, torn tails, bit-flipped records, short
//! reads, ENOSPC on append.
//!
//! The medium models the durability boundary explicitly: appended bytes
//! are **volatile** until a [`StorageMedium::sync`] barrier succeeds.
//! `SimDisk` keeps the volatile tail separate and throws it away (whole,
//! torn, or flipped, per the installed [`FaultPlan`]) when a crash
//! fires, which is exactly the behaviour the recovery invariants are
//! proven against.

use std::collections::BTreeMap;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::PathBuf;

/// An I/O failure surfaced by a [`StorageMedium`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The device is out of space (may clear on retry — compaction,
    /// another tenant freeing segments).
    NoSpace,
    /// A transient write error (EIO-style); retryable.
    Transient,
    /// A read returned fewer bytes than the file holds (detected by the
    /// caller's length cross-check); retryable.
    ShortRead,
    /// The named file does not exist.
    NotFound,
    /// The medium crashed: every subsequent call fails until the
    /// simulated machine reboots ([`SimDisk::reboot`]).
    Crashed,
}

impl IoFault {
    /// Stable label for traces and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            IoFault::NoSpace => "no_space",
            IoFault::Transient => "transient",
            IoFault::ShortRead => "short_read",
            IoFault::NotFound => "not_found",
            IoFault::Crashed => "crashed",
        }
    }
}

/// Flat-namespace file storage with an explicit volatile/durable
/// boundary. All paths are simple names ("wal-000001.seg"); nesting is
/// the caller's concern.
pub trait StorageMedium {
    /// Creates (or truncates) a file.
    fn create(&mut self, name: &str) -> Result<(), IoFault>;
    /// Appends bytes to a file (volatile until [`Self::sync`]).
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), IoFault>;
    /// Durability barrier: everything appended to `name` so far survives
    /// a crash once this returns `Ok`.
    fn sync(&mut self, name: &str) -> Result<(), IoFault>;
    /// Reads the whole file.
    fn read(&mut self, name: &str) -> Result<Vec<u8>, IoFault>;
    /// Deletes a file (idempotent; deleting a missing file is `Ok`).
    fn delete(&mut self, name: &str) -> Result<(), IoFault>;
    /// All file names, sorted — deterministic recovery enumeration.
    fn list(&mut self) -> Result<Vec<String>, IoFault>;
    /// Current length of a file in bytes.
    fn len(&mut self, name: &str) -> Result<u64, IoFault>;
}

// ---------------------------------------------------------------------------
// Real files
// ---------------------------------------------------------------------------

/// [`StorageMedium`] over a real directory via `std::fs`. `sync` maps to
/// `File::sync_all`.
#[derive(Debug)]
pub struct FsMedium {
    root: PathBuf,
}

impl FsMedium {
    /// Opens (creating if needed) a medium rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

fn map_io(e: std::io::Error) -> IoFault {
    match e.kind() {
        std::io::ErrorKind::NotFound => IoFault::NotFound,
        std::io::ErrorKind::StorageFull => IoFault::NoSpace,
        _ => IoFault::Transient,
    }
}

impl StorageMedium for FsMedium {
    fn create(&mut self, name: &str) -> Result<(), IoFault> {
        std::fs::File::create(self.path(name)).map(|_| ()).map_err(map_io)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), IoFault> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(map_io)?;
        f.write_all(data).map_err(map_io)
    }

    fn sync(&mut self, name: &str) -> Result<(), IoFault> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .map_err(map_io)?;
        // Position at the end so sync_all covers every appended byte.
        f.seek(std::io::SeekFrom::End(0)).map_err(map_io)?;
        f.sync_all().map_err(map_io)
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, IoFault> {
        let mut buf = Vec::new();
        std::fs::File::open(self.path(name))
            .map_err(map_io)?
            .read_to_end(&mut buf)
            .map_err(map_io)?;
        Ok(buf)
    }

    fn delete(&mut self, name: &str) -> Result<(), IoFault> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(map_io(e)),
        }
    }

    fn list(&mut self) -> Result<Vec<String>, IoFault> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map_err(map_io)?
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort_unstable();
        Ok(names)
    }

    fn len(&mut self, name: &str) -> Result<u64, IoFault> {
        std::fs::metadata(self.path(name)).map(|m| m.len()).map_err(map_io)
    }
}

// ---------------------------------------------------------------------------
// Simulated disk with seeded fault injection
// ---------------------------------------------------------------------------

/// What happens to a file's volatile tail when the machine dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailPolicy {
    /// The whole unsynced tail is lost (clean kill).
    DropAll,
    /// A seeded-length prefix of the unsynced tail survives — possibly
    /// ending mid-frame (torn write).
    Torn,
    /// The whole unsynced tail survives but one byte at `offset` (into
    /// the tail) has `bit` flipped — latent sector corruption.
    BitFlip {
        /// Byte offset into the volatile tail.
        offset: u64,
        /// Bit (0–7) to flip.
        bit: u8,
    },
}

/// One injected fault, armed on a [`SimDisk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The machine dies *before* I/O op number `op` (a call-count clock
    /// across all medium operations) takes effect. What survives of each
    /// file's volatile tail is decided by `tail` at [`SimDisk::reboot`].
    CrashAt {
        /// Call-count at which the crash fires.
        op: u64,
        /// Fate of unsynced bytes.
        tail: TailPolicy,
    },
    /// Appends fail with [`IoFault::NoSpace`] starting at op `op`, for
    /// `times` consecutive append attempts, then space clears.
    NoSpaceAt {
        /// First failing append's call-count.
        op: u64,
        /// Consecutive failures before space frees up.
        times: u32,
    },
    /// Appends fail with [`IoFault::Transient`] starting at op `op`, for
    /// `times` attempts.
    TransientAt {
        /// First failing append's call-count.
        op: u64,
        /// Consecutive failures.
        times: u32,
    },
    /// The next `times` reads **silently** return only half the file —
    /// the `read(2)`-returned-less-than-requested failure mode. A
    /// careful caller detects it by cross-checking [`StorageMedium::len`]
    /// and retries; a careless one replays a truncated log.
    ShortReads {
        /// Reads that come up short before the path clears.
        times: u32,
    },
    /// Read-side operations (`read`, `list`, `len`) fail with
    /// [`IoFault::Transient`] — the EIO-on-read failure mode. Starting
    /// at op `op`, the next `times` read-family calls error, then the
    /// path clears. Recovery must ride this out with the same bounded
    /// deterministic retry appends get, not treat it as fatal.
    ReadTransientAt {
        /// First failing read's call-count.
        op: u64,
        /// Consecutive read-family failures before the path clears.
        times: u32,
    },
}

#[derive(Clone, Debug, Default)]
struct SimFile {
    /// Bytes that survive a crash.
    durable: Vec<u8>,
    /// Bytes appended since the last successful sync.
    volatile: Vec<u8>,
}

/// A deterministic in-memory disk: appended bytes stay volatile until
/// `sync`, an armed [`FaultSpec`] fires on an exact I/O-op count, and
/// [`SimDisk::reboot`] applies the crash's tail policy — everything a
/// crash-matrix harness needs to kill a store at every single injection
/// point and replay recovery.
#[derive(Clone, Debug)]
pub struct SimDisk {
    files: BTreeMap<String, SimFile>,
    fault: Option<FaultSpec>,
    /// I/O operations performed (the injection clock).
    ops: u64,
    crashed: bool,
    short_reads_left: u32,
    read_transient_left: u32,
    fault_hits: u64,
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl SimDisk {
    /// An empty, fault-free disk.
    pub fn new() -> Self {
        Self {
            files: BTreeMap::new(),
            fault: None,
            ops: 0,
            crashed: false,
            short_reads_left: 0,
            read_transient_left: 0,
            fault_hits: 0,
        }
    }

    /// Arms a fault (replacing any previous one).
    pub fn arm(&mut self, fault: FaultSpec) {
        if let FaultSpec::ShortReads { times } = fault {
            self.short_reads_left = times;
        }
        if let FaultSpec::ReadTransientAt { times, .. } = fault {
            self.read_transient_left = times;
        }
        self.fault = Some(fault);
    }

    /// Fires the armed read-transient fault if `at` is inside its
    /// window; counts down so exactly `times` read-family calls fail.
    fn read_fault(&mut self, at: u64) -> Result<(), IoFault> {
        if let Some(FaultSpec::ReadTransientAt { op, .. }) = self.fault {
            if at >= op && self.read_transient_left > 0 {
                self.read_transient_left -= 1;
                self.fault_hits += 1;
                return Err(IoFault::Transient);
            }
        }
        Ok(())
    }

    /// I/O operations performed so far — the injection clock a crash
    /// matrix sweeps over.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once an armed crash fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// How many times the armed fault fired (ENOSPC/transient/short-read
    /// faults count each failed call).
    pub fn fault_hits(&self) -> u64 {
        self.fault_hits
    }

    /// Total durable bytes across files (bench/diagnostic).
    pub fn durable_bytes(&self) -> u64 {
        self.files.values().map(|f| f.durable.len() as u64).sum()
    }

    /// "Reboots the machine" after a crash: applies the crash's
    /// [`TailPolicy`] to every file's volatile tail, clears the crashed
    /// flag and the fault, and returns the disk ready for recovery.
    /// `torn_seed` drives the surviving-prefix length for [`TailPolicy::Torn`].
    ///
    /// # Panics
    /// Panics if no crash fired ([`SimDisk::crashed`] is false).
    pub fn reboot(&mut self, torn_seed: u64) {
        assert!(self.crashed, "reboot without a crash");
        let tail = match self.fault {
            Some(FaultSpec::CrashAt { tail, .. }) => tail,
            _ => TailPolicy::DropAll,
        };
        let mut mix = torn_seed ^ 0x9E37_79B9_7F4A_7C15;
        for file in self.files.values_mut() {
            match tail {
                TailPolicy::DropAll => file.volatile.clear(),
                TailPolicy::Torn => {
                    // Seeded split point per file: keep a strict prefix
                    // (possibly empty, possibly mid-frame).
                    mix ^= mix << 13;
                    mix ^= mix >> 7;
                    mix ^= mix << 17;
                    if !file.volatile.is_empty() {
                        let keep = (mix % (file.volatile.len() as u64 + 1)) as usize;
                        file.volatile.truncate(keep);
                        file.durable.append(&mut file.volatile);
                    }
                }
                TailPolicy::BitFlip { offset, bit } => {
                    if !file.volatile.is_empty() {
                        let at = (offset as usize).min(file.volatile.len() - 1);
                        file.volatile[at] ^= 1 << (bit & 7);
                    }
                    file.durable.append(&mut file.volatile);
                }
            }
            file.volatile.clear();
        }
        // Drop empty-and-never-synced files the way a journaling fs
        // drops uncreated inodes.
        self.files.retain(|_, f| !(f.durable.is_empty() && f.volatile.is_empty()));
        self.crashed = false;
        self.fault = None;
    }

    /// Advances the injection clock; returns an error if a crash fires
    /// at this op or has already fired.
    fn tick(&mut self) -> Result<u64, IoFault> {
        if self.crashed {
            return Err(IoFault::Crashed);
        }
        let at = self.ops;
        self.ops += 1;
        if let Some(FaultSpec::CrashAt { op, .. }) = self.fault {
            if at == op {
                self.crashed = true;
                self.fault_hits += 1;
                return Err(IoFault::Crashed);
            }
        }
        Ok(at)
    }

    /// The file called `name`, created empty if missing. Looked up by
    /// `&str`: only a file's first touch allocates its key.
    fn file_mut(&mut self, name: &str) -> &mut SimFile {
        if !self.files.contains_key(name) {
            self.files.insert(name.to_string(), SimFile::default());
        }
        self.files.get_mut(name).expect("present or just inserted")
    }
}

impl StorageMedium for SimDisk {
    fn create(&mut self, name: &str) -> Result<(), IoFault> {
        self.tick()?;
        let f = self.file_mut(name);
        f.durable.clear();
        f.volatile.clear();
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), IoFault> {
        let at = self.tick()?;
        match self.fault {
            Some(FaultSpec::NoSpaceAt { op, times }) if at >= op && at < op + times as u64 => {
                self.fault_hits += 1;
                return Err(IoFault::NoSpace);
            }
            Some(FaultSpec::TransientAt { op, times }) if at >= op && at < op + times as u64 => {
                self.fault_hits += 1;
                return Err(IoFault::Transient);
            }
            _ => {}
        }
        self.file_mut(name).volatile.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), IoFault> {
        self.tick()?;
        let f = self.files.get_mut(name).ok_or(IoFault::NotFound)?;
        if f.durable.is_empty() {
            // A file synced once (every run) hands its buffer over whole.
            std::mem::swap(&mut f.durable, &mut f.volatile);
        } else {
            f.durable.append(&mut f.volatile);
        }
        Ok(())
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, IoFault> {
        let at = self.tick()?;
        self.read_fault(at)?;
        let f = self.files.get(name).ok_or(IoFault::NotFound)?;
        // Reads see durable + volatile (the page cache), like a real fs.
        let mut out = f.durable.clone();
        out.extend_from_slice(&f.volatile);
        if self.short_reads_left > 0 {
            self.short_reads_left -= 1;
            self.fault_hits += 1;
            out.truncate(out.len() / 2);
        }
        Ok(out)
    }

    fn delete(&mut self, name: &str) -> Result<(), IoFault> {
        self.tick()?;
        self.files.remove(name);
        Ok(())
    }

    fn list(&mut self) -> Result<Vec<String>, IoFault> {
        let at = self.tick()?;
        self.read_fault(at)?;
        Ok(self.files.keys().cloned().collect())
    }

    fn len(&mut self, name: &str) -> Result<u64, IoFault> {
        let at = self.tick()?;
        self.read_fault(at)?;
        let f = self.files.get(name).ok_or(IoFault::NotFound)?;
        Ok((f.durable.len() + f.volatile.len()) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_disk_round_trip() {
        let mut d = SimDisk::new();
        d.create("a").unwrap();
        d.append("a", b"hello ").unwrap();
        d.append("a", b"world").unwrap();
        assert_eq!(d.read("a").unwrap(), b"hello world");
        assert_eq!(d.len("a").unwrap(), 11);
        d.sync("a").unwrap();
        assert_eq!(d.list().unwrap(), vec!["a".to_string()]);
        d.delete("a").unwrap();
        assert_eq!(d.read("a"), Err(IoFault::NotFound));
    }

    #[test]
    fn crash_drops_unsynced_tail() {
        let mut d = SimDisk::new();
        d.create("w").unwrap();
        d.append("w", b"durable|").unwrap();
        d.sync("w").unwrap();
        d.append("w", b"volatile").unwrap();
        d.arm(FaultSpec::CrashAt { op: d.ops(), tail: TailPolicy::DropAll });
        assert_eq!(d.append("w", b"x"), Err(IoFault::Crashed));
        assert_eq!(d.read("w"), Err(IoFault::Crashed));
        d.reboot(1);
        assert_eq!(d.read("w").unwrap(), b"durable|");
    }

    #[test]
    fn torn_tail_keeps_seeded_prefix() {
        for seed in 0..32u64 {
            let mut d = SimDisk::new();
            d.create("w").unwrap();
            d.append("w", b"AB|").unwrap();
            d.sync("w").unwrap();
            d.append("w", b"0123456789").unwrap();
            d.arm(FaultSpec::CrashAt { op: d.ops(), tail: TailPolicy::Torn });
            assert!(d.sync("w").is_err());
            d.reboot(seed);
            let got = d.read("w").unwrap();
            assert!(got.starts_with(b"AB|"), "durable prefix lost: {got:?}");
            assert!(got.len() <= 13);
            assert_eq!(&got[..], &b"AB|0123456789"[..got.len()]);
        }
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_of_the_tail() {
        let mut d = SimDisk::new();
        d.create("w").unwrap();
        d.append("w", b"dur").unwrap();
        d.sync("w").unwrap();
        d.append("w", &[0u8; 8]).unwrap();
        d.arm(FaultSpec::CrashAt {
            op: d.ops(),
            tail: TailPolicy::BitFlip { offset: 5, bit: 3 },
        });
        assert!(d.sync("w").is_err());
        d.reboot(0);
        let got = d.read("w").unwrap();
        assert_eq!(got.len(), 11);
        assert_eq!(got[3 + 5], 1 << 3);
        assert!(got.iter().skip(3).enumerate().all(|(i, &b)| (i == 5) == (b != 0)));
    }

    #[test]
    fn enospc_fires_for_exactly_n_appends() {
        let mut d = SimDisk::new();
        d.create("w").unwrap();
        d.arm(FaultSpec::NoSpaceAt { op: d.ops(), times: 2 });
        assert_eq!(d.append("w", b"x"), Err(IoFault::NoSpace));
        assert_eq!(d.append("w", b"x"), Err(IoFault::NoSpace));
        assert_eq!(d.append("w", b"x"), Ok(()));
        assert_eq!(d.fault_hits(), 2);
        assert_eq!(d.read("w").unwrap(), b"x");
    }

    #[test]
    fn read_transients_fail_exactly_n_read_ops_then_clear() {
        let mut d = SimDisk::new();
        d.create("w").unwrap();
        d.append("w", b"data").unwrap();
        d.sync("w").unwrap();
        d.arm(FaultSpec::ReadTransientAt { op: d.ops(), times: 3 });
        assert_eq!(d.read("w"), Err(IoFault::Transient));
        assert_eq!(d.list(), Err(IoFault::Transient));
        assert_eq!(d.len("w"), Err(IoFault::Transient));
        // Budget consumed: the path clears for every read-family op.
        assert_eq!(d.read("w").unwrap(), b"data");
        assert_eq!(d.list().unwrap(), vec!["w".to_string()]);
        assert_eq!(d.len("w").unwrap(), 4);
        // Writes were never in scope for the read fault.
        assert_eq!(d.fault_hits(), 3);
    }

    #[test]
    fn read_transients_do_not_fire_before_their_op() {
        let mut d = SimDisk::new();
        d.create("w").unwrap();
        d.append("w", b"x").unwrap();
        d.arm(FaultSpec::ReadTransientAt { op: d.ops() + 1, times: 1 });
        assert_eq!(d.read("w").unwrap(), b"x"); // at == op-1: clean
        assert_eq!(d.read("w"), Err(IoFault::Transient));
        assert_eq!(d.read("w").unwrap(), b"x");
    }

    #[test]
    fn short_reads_silently_truncate_then_clear() {
        let mut d = SimDisk::new();
        d.create("w").unwrap();
        d.append("w", b"data").unwrap();
        d.arm(FaultSpec::ShortReads { times: 1 });
        assert_eq!(d.read("w").unwrap(), b"da");
        assert_eq!(d.read("w").unwrap(), b"data");
        assert_eq!(d.fault_hits(), 1);
    }
}
