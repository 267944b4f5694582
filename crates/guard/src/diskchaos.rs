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
//! Every scenario ends in the same check (`check_store`) and folds each
//! case, panic contained, into its report the same way.
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
#[derive(Clone, Debug, Default)]
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

    /// Deterministic fingerprint of every field
    /// ([`ml4db_obs::debug_bits`]) for byte-identity assertions across
    /// thread counts.
    pub fn bits(&self) -> u64 {
        ml4db_obs::debug_bits(self)
    }

    /// A report with nothing run yet.
    fn new(fault: DiskFault, protected: bool) -> Self {
        DiskScenarioReport { scenario: fault.name().to_string(), protected, ..Default::default() }
    }

    /// Runs one crash point or fault case with its panic contained and
    /// folds the outcome in; `case` returns `None` when its fault never
    /// fired. The first violation is labelled by `label`: `None` for an
    /// escaped panic, `Some(message)` for a failed check.
    fn run_case(
        &mut self,
        label: impl FnOnce(Option<String>) -> String,
        case: impl FnOnce() -> Option<Checked>,
    ) {
        self.crash_points += 1;
        let failure = match catch_unwind(AssertUnwindSafe(case)) {
            Err(_) => {
                self.panicked = true;
                None
            }
            Ok(None) => return,
            Ok(Some(checked)) => {
                self.recoveries += 1;
                self.index_probes += checked.probes;
                let Some(msg) = checked.violation else { return };
                self.violations += 1;
                Some(msg)
            }
        };
        if self.first_violation.is_empty() {
            self.first_violation = label(failure);
        }
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

/// What one recovery's checks found: learned-vs-binary-search probes
/// performed, and the violated invariant, if any.
struct Checked {
    probes: u64,
    violation: Option<String>,
}

impl Checked {
    fn violated(msg: String) -> Self {
        Checked { probes: 0, violation: Some(msg) }
    }
}

/// The check every scenario ends in: `store`'s committed state is a
/// batch prefix in the legal window `[acked, attempted]`, and every run
/// index answers like binary search. A failed index check wins over a
/// failed prefix and voids the probe count.
fn check_store(store: &DurableStore<SimDisk>, oracle: &KvOracle, out: &FeedOutcome) -> Checked {
    let prefix = oracle.check_prefix(&store.committed_state(), out.acked, out.attempted);
    match check_run_indexes(store) {
        Ok(probes) => Checked { probes, violation: prefix.err().map(|v| v.to_string()) },
        Err(v) => Checked::violated(v.to_string()),
    }
}

/// Recovers a store from `disk` and checks it ([`check_store`]).
fn recover_and_check(
    disk: SimDisk,
    cfg: StoreConfig,
    oracle: &KvOracle,
    out: &FeedOutcome,
) -> Checked {
    match DurableStore::open(disk, cfg) {
        Ok((recovered, _rep)) => check_store(&recovered, oracle, out),
        Err(e) => Checked::violated(format!("recovery failed: {e:?}")),
    }
}

/// Sweeps a crash-tail family over every op of the workload, recovering
/// and checking invariants after each crash. The family decides the
/// store's protections and the fate of unsynced bytes at each crash
/// point.
fn crash_matrix(
    fault: DiskFault,
    protected: bool,
    seed: u64,
    stride: u64,
    batches: &[Vec<KvOp>],
    oracle: &KvOracle,
) -> DiskScenarioReport {
    let (cfg, tail_for): (StoreConfig, fn(u64) -> TailPolicy) = match fault {
        DiskFault::KillBeforeFsync => (store_cfg(true, protected, true), |_| TailPolicy::DropAll),
        DiskFault::TornTail => (store_cfg(true, protected, true), |_| TailPolicy::Torn),
        // Cycle the flip across the first 40 tail bytes — covering frame
        // headers, tags, keys, and values — and all 8 bits.
        DiskFault::BitFlip => (store_cfg(protected, true, true), |point| TailPolicy::BitFlip {
            offset: (point * 13) % 40,
            bit: (point % 8) as u8,
        }),
        _ => unreachable!("not a crash family"),
    };
    let (total, compactions) = probe_total_ops(cfg, batches);
    let mut report =
        DiskScenarioReport { compactions, ..DiskScenarioReport::new(fault, protected) };
    // Op 0 is the WAL-create of a store that holds nothing yet; the
    // sweep starts at 1.
    for point in (1..total).step_by(stride as usize) {
        let label = |msg: Option<String>| match msg {
            None => format!("panic at crash point {point}"),
            Some(msg) => format!("op {point}: {msg}"),
        };
        report.run_case(label, || {
            let mut store = DurableStore::create(SimDisk::new(), cfg)
                .expect("clean create cannot fail");
            store.medium_mut().arm(FaultSpec::CrashAt { op: point, tail: tail_for(point) });
            let out = feed(&mut store, batches);
            let mut disk = store.into_medium();
            if !disk.crashed() {
                return None; // fault never fired (defensive; sweep < total)
            }
            disk.reboot(seed ^ point);
            Some(recover_and_check(disk, cfg, oracle, &out))
        });
    }
    report
}

/// The silent-short-read scenario: clean workload, then recovery on a
/// medium that truncates reads without erroring.
fn short_read_scenario(protected: bool, batches: &[Vec<KvOp>], oracle: &KvOracle) -> DiskScenarioReport {
    let cfg = store_cfg(true, true, protected);
    let mut report = DiskScenarioReport::new(DiskFault::SilentShortRead, protected);
    let label =
        |msg: Option<String>| msg.unwrap_or_else(|| "panic during short-read recovery".into());
    report.run_case(label, || {
        let mut store =
            DurableStore::create(SimDisk::new(), cfg).expect("clean create cannot fail");
        let out = feed(&mut store, batches);
        assert!(!out.crashed);
        let mut disk = store.into_medium();
        disk.arm(FaultSpec::ShortReads { times: 2 });
        Some(recover_and_check(disk, cfg, oracle, &out))
    });
    report
}

/// The ENOSPC scenario. Protected: the bounded-retry appender surfaces
/// a clean [`WalError`] that trips the named `wal_append` breaker, and
/// the store keeps serving committed reads. Unprotected: the caller
/// unwraps, modelling code written without the error path — the panic
/// is the demonstrable failure.
fn enospc_scenario(protected: bool, batches: &[Vec<KvOp>], oracle: &KvOracle) -> DiskScenarioReport {
    let cfg = store_cfg(true, true, true);
    let mut report = DiskScenarioReport::new(DiskFault::EnospcBreaker, protected);
    let breaker = CircuitBreaker::named("wal_append", BreakerConfig::default());
    let label = |msg: Option<String>| msg.unwrap_or_else(|| "panic on ENOSPC".into());
    report.run_case(label, || {
        let mut store =
            DurableStore::create(SimDisk::new(), cfg).expect("clean create cannot fail");
        let out = feed(&mut store, &batches[..batches.len() / 2]);
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
                other => {
                    return Some(Checked::violated(format!("expected NoSpace, got {other:?}")))
                }
            }
        } else {
            // Error-path-free code: unwrap. This panics — the point.
            store.put(KEY_SPACE + 1, 1).unwrap();
        }
        // The store must still serve every committed read.
        Some(check_store(&store, oracle, &out))
    });
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
        DiskFault::SilentShortRead => short_read_scenario(protected, &batches, &oracle),
        DiskFault::EnospcBreaker => enospc_scenario(protected, &batches, &oracle),
        crash => crash_matrix(crash, protected, seed, stride, &batches, &oracle),
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
