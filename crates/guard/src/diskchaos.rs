//! The disk-fault scenario family: a crash matrix that *proves* the
//! durable tier's recovery contract.
//!
//! Where [`crate::chaos`] injects faults into learned components, this
//! module injects them into the storage medium underneath
//! [`DurableStore`] — and instead of sampling a few crash points, the
//! matrix scenarios crash at **every** I/O operation of a seeded
//! workload, recover, and check the invariants against the
//! [`KvOracle`] reference:
//!
//! 1. recovered committed state equals a batch prefix in the legal
//!    window `[acked, attempted]` (no committed write lost, no
//!    uncommitted write surfaced);
//! 2. every rebuilt per-run learned index answers row-identically to
//!    binary search.
//!
//! Each scenario also runs with one protection disabled (`protected =
//! false`): no fsync barriers for the kill/torn families, no checksums
//! for the bit-flip family, no short-read cross-check for the silent
//! short read, and unwrap-style error handling for ENOSPC. The chaos
//! tests assert those runs *demonstrably fail* — the protections are
//! proven against losses that actually happen, not strawmen.
//!
//! Everything is a pure function of `(scenario, protected, seed)`: the
//! injection clock counts I/O calls, torn tails and flip offsets are
//! seeded, and reports hash byte-identically across `ML4DB_THREADS`.

use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ml4db_oracle::recovery_check::{check_run_indexes, KvOp, KvOracle};
use ml4db_storage::durable::{
    DurableStore, FaultSpec, SimDisk, StoreConfig, TailPolicy, WalConfig, WalError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::breaker::{BreakerConfig, CircuitBreaker, TripReason};

/// One disk-fault scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Crash before every fsync/op; unsynced bytes vanish entirely.
    KillBeforeFsync,
    /// Crash at every op; a seeded prefix of the unsynced tail survives
    /// (torn write).
    TornTail,
    /// Crash at every op; one seeded bit of the unsynced tail flips.
    BitFlip,
    /// The medium silently returns half a file on read.
    SilentShortRead,
    /// The medium reports ENOSPC on appends, persistently.
    EnospcBreaker,
}

impl DiskFault {
    /// All scenarios in canonical run order.
    pub fn all() -> Vec<DiskFault> {
        vec![
            DiskFault::KillBeforeFsync,
            DiskFault::TornTail,
            DiskFault::BitFlip,
            DiskFault::SilentShortRead,
            DiskFault::EnospcBreaker,
        ]
    }

    /// Stable scenario name.
    pub fn name(&self) -> &'static str {
        match self {
            DiskFault::KillBeforeFsync => "kill-before-fsync",
            DiskFault::TornTail => "torn-tail",
            DiskFault::BitFlip => "bit-flip",
            DiskFault::SilentShortRead => "silent-short-read",
            DiskFault::EnospcBreaker => "enospc-breaker",
        }
    }
}

/// Outcome of one scenario sweep.
#[derive(Clone, Debug)]
pub struct DiskScenarioReport {
    /// Scenario name ([`DiskFault::name`]).
    pub scenario: String,
    /// Whether the relevant protection was active.
    pub protected: bool,
    /// Crash points (or fault cases) exercised.
    pub crash_points: u64,
    /// Recoveries performed and checked.
    pub recoveries: u64,
    /// Compactions inside the swept op range — merges the every-op sweep
    /// crashes into (crash families; 0 for the single-case scenarios).
    pub compactions: u64,
    /// Crash points whose recovery violated an invariant.
    pub violations: u64,
    /// First violation, human-readable (empty when none).
    pub first_violation: String,
    /// Learned-vs-binary-search probes performed across all recoveries.
    pub index_probes: u64,
    /// The `wal_append` breaker tripped (ENOSPC scenario only).
    pub breaker_tripped: bool,
    /// A panic escaped the store.
    pub panicked: bool,
}

impl DiskScenarioReport {
    /// The durable tier's contract: no escaped panic and zero invariant
    /// violations across every crash point.
    pub fn passes(&self) -> bool {
        !self.panicked && self.violations == 0
    }

    /// Deterministic fingerprint of every field (the `Debug` rendering)
    /// for byte-identity assertions across thread counts.
    pub fn bits(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        h.finish()
    }
}

/// Workload shape: small enough that a full every-op sweep stays fast,
/// busy enough to exercise rotation, flush, checkpoint, GC — and, at
/// about one flush per seven batches and one merge per eight flushes,
/// several compactions.
const BATCHES: usize = 200;
const KEY_SPACE: u64 = 96;

fn store_cfg(checksums: bool, fsync_barriers: bool, read_retry: bool) -> StoreConfig {
    StoreConfig {
        wal: WalConfig {
            segment_bytes: 512,
            retry_limit: 4,
            checksums,
            fsync_barriers,
            read_retry,
        },
        memtable_limit: 12,
    }
}

/// Generates the seeded batch workload (and its oracle history).
fn gen_batches(seed: u64) -> (Vec<Vec<KvOp>>, KvOracle) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_FA17);
    let mut oracle = KvOracle::new();
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let n = rng.gen_range(1..=3usize);
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let key = rng.gen_range(0..KEY_SPACE);
            if rng.gen_bool(0.25) {
                ops.push(KvOp::Delete { key });
            } else {
                ops.push(KvOp::Put { key, value: rng.gen_range(0..1_000_000u64) });
            }
        }
        oracle.push(ops.clone());
        batches.push(ops);
    }
    (batches, oracle)
}

/// How far the workload got before the fault stopped it.
struct FeedOutcome {
    /// Batches whose commit fsync returned — the store *owes* these.
    acked: usize,
    /// Upper end of the legal prefix window: `acked`, plus one if the
    /// crash hit inside a `commit()` call (the commit frame may have
    /// reached the disk without the acknowledgement coming back).
    attempted: usize,
    crashed: bool,
}

fn feed(store: &mut DurableStore<SimDisk>, batches: &[Vec<KvOp>]) -> FeedOutcome {
    let mut acked = 0usize;
    for ops in batches {
        for op in ops {
            let r = match *op {
                KvOp::Put { key, value } => store.put(key, value),
                KvOp::Delete { key } => store.delete(key),
            };
            if r.is_err() {
                // Crash before the commit frame: this batch can never
                // legally surface.
                return FeedOutcome { acked, attempted: acked, crashed: true };
            }
        }
        match store.commit() {
            Ok(_) => acked += 1,
            Err(_) => {
                return FeedOutcome { acked, attempted: acked + 1, crashed: true }
            }
        }
    }
    // Final flush exercises run write + checkpoint + GC inside the
    // swept op range.
    match store.flush() {
        Ok(()) => FeedOutcome { acked, attempted: acked, crashed: false },
        Err(_) => FeedOutcome { acked, attempted: acked, crashed: true },
    }
}

/// Runs the full workload fault-free and returns the total number of
/// medium ops — the sweep's upper bound — and the compactions it holds.
fn probe_total_ops(cfg: StoreConfig, batches: &[Vec<KvOp>]) -> (u64, u64) {
    let mut store =
        DurableStore::create(SimDisk::new(), cfg).expect("clean create cannot fail");
    let out = feed(&mut store, batches);
    assert!(!out.crashed, "probe run must complete");
    (store.medium_mut().ops(), store.compactions())
}

/// Sweeps a crash-tail family over every op of the workload, recovering
/// and checking invariants after each crash. `tail_for(point)` decides
/// the fate of unsynced bytes at that crash point.
#[allow(clippy::too_many_arguments)]
fn crash_matrix(
    name: &'static str,
    protected: bool,
    cfg: StoreConfig,
    seed: u64,
    stride: u64,
    batches: &[Vec<KvOp>],
    oracle: &KvOracle,
    tail_for: impl Fn(u64) -> TailPolicy,
) -> DiskScenarioReport {
    let (total, compactions) = probe_total_ops(cfg, batches);
    let mut report = DiskScenarioReport {
        scenario: name.to_string(),
        protected,
        crash_points: 0,
        recoveries: 0,
        compactions,
        violations: 0,
        first_violation: String::new(),
        index_probes: 0,
        breaker_tripped: false,
        panicked: false,
    };
    // Op 0 is the WAL-create of a store that holds nothing yet; the
    // sweep starts at 1.
    let mut point = 1u64;
    while point < total {
        report.crash_points += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut store = DurableStore::create(SimDisk::new(), cfg)
                .expect("clean create cannot fail");
            store.medium_mut().arm(FaultSpec::CrashAt { op: point, tail: tail_for(point) });
            let out = feed(&mut store, batches);
            let mut disk = store.into_medium();
            if !disk.crashed() {
                return None; // fault never fired (defensive; sweep < total)
            }
            disk.reboot(seed ^ point);
            let (recovered, _rep) = match DurableStore::open(disk, cfg) {
                Ok(v) => v,
                Err(e) => return Some((out, Err(format!("recovery failed: {e:?}")), 0)),
            };
            let state = recovered.committed_state();
            let prefix = oracle
                .check_prefix(&state, out.acked, out.attempted)
                .map_err(|v| v.to_string());
            let probes = match check_run_indexes(&recovered) {
                Ok(p) => p,
                Err(v) => return Some((out, Err(v.to_string()), 0)),
            };
            Some((out, prefix.map(|_| ()), probes))
        }));
        match outcome {
            Err(_) => {
                report.panicked = true;
                if report.first_violation.is_empty() {
                    report.first_violation = format!("panic at crash point {point}");
                }
            }
            Ok(None) => {}
            Ok(Some((_, check, probes))) => {
                report.recoveries += 1;
                report.index_probes += probes;
                if let Err(msg) = check {
                    report.violations += 1;
                    if report.first_violation.is_empty() {
                        report.first_violation = format!("op {point}: {msg}");
                    }
                }
            }
        }
        point += stride;
    }
    report
}

/// The silent-short-read scenario: clean workload, then recovery on a
/// medium that truncates reads without erroring.
fn short_read_scenario(protected: bool, batches: &[Vec<KvOp>], oracle: &KvOracle) -> DiskScenarioReport {
    let cfg = store_cfg(true, true, protected);
    let mut report = DiskScenarioReport {
        scenario: DiskFault::SilentShortRead.name().to_string(),
        protected,
        crash_points: 1,
        recoveries: 0,
        compactions: 0,
        violations: 0,
        first_violation: String::new(),
        index_probes: 0,
        breaker_tripped: false,
        panicked: false,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut store =
            DurableStore::create(SimDisk::new(), cfg).expect("clean create cannot fail");
        let out = feed(&mut store, batches);
        assert!(!out.crashed);
        let mut disk = store.into_medium();
        disk.arm(FaultSpec::ShortReads { times: 2 });
        let (recovered, _rep) = match DurableStore::open(disk, cfg) {
            Ok(v) => v,
            Err(e) => return (out, Err(format!("recovery failed: {e:?}")), 0),
        };
        let state = recovered.committed_state();
        let prefix = oracle
            .check_prefix(&state, out.acked, out.attempted)
            .map_err(|v| v.to_string());
        match check_run_indexes(&recovered) {
            Ok(p) => (out, prefix.map(|_| ()), p),
            Err(v) => (out, Err(v.to_string()), 0),
        }
    }));
    match outcome {
        Err(_) => {
            report.panicked = true;
            report.first_violation = "panic during short-read recovery".to_string();
        }
        Ok((_, check, probes)) => {
            report.recoveries = 1;
            report.index_probes = probes;
            if let Err(msg) = check {
                report.violations = 1;
                report.first_violation = msg;
            }
        }
    }
    report
}

/// The ENOSPC scenario. Protected: the bounded-retry appender surfaces
/// a clean [`WalError`] that trips the named `wal_append` breaker, and
/// the store keeps serving committed reads. Unprotected: the caller
/// unwraps, modelling code written without the error path — the panic
/// is the demonstrable failure.
fn enospc_scenario(protected: bool, batches: &[Vec<KvOp>], oracle: &KvOracle) -> DiskScenarioReport {
    let cfg = store_cfg(true, true, true);
    let mut report = DiskScenarioReport {
        scenario: DiskFault::EnospcBreaker.name().to_string(),
        protected,
        crash_points: 1,
        recoveries: 0,
        compactions: 0,
        violations: 0,
        first_violation: String::new(),
        index_probes: 0,
        breaker_tripped: false,
        panicked: false,
    };
    let half = batches.len() / 2;
    let breaker = CircuitBreaker::named("wal_append", BreakerConfig::default());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut store =
            DurableStore::create(SimDisk::new(), cfg).expect("clean create cannot fail");
        let out = feed(&mut store, &batches[..half]);
        assert!(!out.crashed);
        let at = store.medium_mut().ops();
        store.medium_mut().arm(FaultSpec::NoSpaceAt { op: at, times: 1_000_000 });
        if protected {
            match store.put(KEY_SPACE + 1, 1) {
                Err(WalError::NoSpace { attempts }) => {
                    assert_eq!(
                        attempts,
                        cfg.wal.retry_limit + 1,
                        "retry schedule must be bounded and exact"
                    );
                    breaker.force_open(TripReason::ResourceExhausted);
                }
                other => return (out, Err(format!("expected NoSpace, got {other:?}")), 0),
            }
        } else {
            // Error-path-free code: unwrap. This panics — the point.
            store.put(KEY_SPACE + 1, 1).unwrap();
        }
        // The store must still serve every committed read.
        let state = store.committed_state();
        let prefix = oracle
            .check_prefix(&state, out.acked, out.acked)
            .map_err(|v| v.to_string());
        match check_run_indexes(&store) {
            Ok(p) => (out, prefix.map(|_| ()), p),
            Err(v) => (out, Err(v.to_string()), 0),
        }
    }));
    match outcome {
        Err(_) => {
            report.panicked = true;
            report.first_violation = "panic on ENOSPC".to_string();
        }
        Ok((_, check, probes)) => {
            report.recoveries = 1;
            report.index_probes = probes;
            if let Err(msg) = check {
                report.violations = 1;
                report.first_violation = msg;
            }
        }
    }
    report.breaker_tripped = breaker.trips() > 0;
    report
}

/// Runs one scenario. `protected = false` disables exactly the
/// protection that scenario exists to prove: fsync barriers for the
/// kill/torn families, checksums for bit flips, the read cross-check
/// for silent short reads, and error handling for ENOSPC.
pub fn run_scenario(
    fault: DiskFault,
    protected: bool,
    seed: u64,
    stride: u64,
) -> DiskScenarioReport {
    let (batches, oracle) = gen_batches(seed);
    // Protection-off runs always sweep at full resolution: the
    // demonstrable failure lives at specific crash points (e.g. a bit
    // flip on a committed value byte), and a smoke stride may step over
    // all of them.
    let stride = if protected { stride.max(1) } else { 1 };
    match fault {
        DiskFault::KillBeforeFsync => crash_matrix(
            fault.name(),
            protected,
            store_cfg(true, protected, true),
            seed,
            stride,
            &batches,
            &oracle,
            |_| TailPolicy::DropAll,
        ),
        DiskFault::TornTail => crash_matrix(
            fault.name(),
            protected,
            store_cfg(true, protected, true),
            seed,
            stride,
            &batches,
            &oracle,
            |_| TailPolicy::Torn,
        ),
        DiskFault::BitFlip => crash_matrix(
            fault.name(),
            protected,
            store_cfg(protected, true, true),
            seed,
            stride,
            &batches,
            &oracle,
            // Cycle the flip across the first 40 tail bytes — covering
            // frame headers, tags, keys, and values — and all 8 bits.
            |point| TailPolicy::BitFlip { offset: (point * 13) % 40, bit: (point % 8) as u8 },
        ),
        DiskFault::SilentShortRead => short_read_scenario(protected, &batches, &oracle),
        DiskFault::EnospcBreaker => enospc_scenario(protected, &batches, &oracle),
    }
}

/// Runs every scenario at full matrix resolution (`stride = 1`).
pub fn run_all(protected: bool, seed: u64) -> Vec<DiskScenarioReport> {
    run_all_with_stride(protected, seed, 1)
}

/// Runs every scenario, visiting every `stride`-th crash point — the
/// smoke-scale entry point for CI.
pub fn run_all_with_stride(
    protected: bool,
    seed: u64,
    stride: u64,
) -> Vec<DiskScenarioReport> {
    DiskFault::all()
        .into_iter()
        .map(|f| run_scenario(f, protected, seed, stride))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xC4A5_4D47;

    #[test]
    fn protected_scenarios_all_pass_at_smoke_stride() {
        for rep in run_all_with_stride(true, SEED, 17) {
            assert!(
                rep.passes(),
                "{} violated protected: {} ({} violations / {} recoveries)",
                rep.scenario,
                rep.first_violation,
                rep.violations,
                rep.recoveries
            );
            assert!(rep.recoveries > 0, "{} never recovered", rep.scenario);
        }
    }

    #[test]
    fn every_unprotected_scenario_demonstrably_fails() {
        for rep in run_all_with_stride(false, SEED, 17) {
            assert!(
                !rep.passes(),
                "{} still passed with its protection disabled — the protection \
                 is a strawman",
                rep.scenario
            );
        }
    }

    #[test]
    fn enospc_trips_the_named_breaker_without_panicking() {
        let rep = run_scenario(DiskFault::EnospcBreaker, true, SEED, 1);
        assert!(rep.passes());
        assert!(rep.breaker_tripped);
        let rep = run_scenario(DiskFault::EnospcBreaker, false, SEED, 1);
        assert!(rep.panicked);
    }

    #[test]
    fn reports_are_deterministic() {
        let a: Vec<u64> =
            run_all_with_stride(true, SEED, 23).iter().map(|r| r.bits()).collect();
        let b: Vec<u64> =
            run_all_with_stride(true, SEED, 23).iter().map(|r| r.bits()).collect();
        assert_eq!(a, b);
    }
}
