//! The durability tier: crash-consistent storage under the in-memory
//! engine.
//!
//! Layering, bottom up:
//!
//! - [`medium`] — the [`medium::StorageMedium`] trait every byte of
//!   I/O goes through, with a real-filesystem implementation
//!   ([`medium::FsMedium`]) and a deterministic fault-injecting
//!   simulator ([`medium::SimDisk`]) driven by a call-count clock.
//! - [`wal`] — the checksummed, segmented write-ahead log: CRC-framed
//!   records, fsync barriers as the acknowledgement point, bounded
//!   deterministic retry on ENOSPC/transient errors, prefix-stopping
//!   replay.
//! - [`run`] — immutable sorted runs with footer CRCs, each carrying a
//!   per-run PGM learned index promoted (or rejected) through the
//!   lifecycle gate and probed via `predict_range` + last-mile search,
//!   behind an in-memory key filter that lets a `get` skip runs that
//!   cannot hold its key.
//! - [`store`] — [`store::DurableStore`]: the commit / flush /
//!   checkpoint / compaction / recovery protocol tying the layers
//!   together (runs are merged size-tiered, so reads probe a
//!   logarithmic number of them).
//!
//! The crash-matrix harness that proves the recovery invariants lives
//! in `ml4db_guard::diskchaos` (the guard crate sits above storage in
//! the dependency order); the oracle-side reference model is
//! `ml4db_oracle::recovery_check`.

pub mod medium;
pub mod run;
pub mod store;
pub mod wal;

pub use medium::{FaultSpec, FsMedium, IoFault, SimDisk, StorageMedium, TailPolicy};
pub use run::{Run, RunEntry, RunError, RunIndex};
pub use store::{DurableStore, RecoveryReport, StoreConfig};
pub use wal::{Wal, WalConfig, WalError, WalRecord};
