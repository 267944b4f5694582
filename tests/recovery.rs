//! The crash-recovery acceptance suite: the durable tier survives a
//! crash at *every* injection point when its protections are on, and
//! demonstrably fails when they are off.
//!
//! Run with `cargo test --test recovery`. CI runs it under both default
//! threading and `ML4DB_THREADS=1`; the reports carry a `bits()`
//! fingerprint that must agree bit for bit.
//!
//! Scale note: the full matrix (stride 1) crashes and recovers the
//! store at every medium operation of every scenario — about 1 180
//! crash points per fault family, long enough a workload to cross four
//! compactions (merged-run append, its fsync, every input delete) — and
//! completes in about three seconds, so this suite runs at full
//! resolution rather than smoke stride.

use ml4db_guard::diskchaos::{run_all, run_scenario, DiskFault, DiskScenarioReport};

const SEED: u64 = 2026;

fn by_name<'r>(reports: &'r [DiskScenarioReport], name: &str) -> &'r DiskScenarioReport {
    reports
        .iter()
        .find(|r| r.scenario == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

/// Protected, every scenario passes at every crash point: recovery
/// never loses a committed write, never surfaces an uncommitted one,
/// and every rebuilt run index agrees with binary search on every
/// probe.
#[test]
fn every_protected_scenario_passes_full_matrix() {
    for r in run_all(true, SEED) {
        assert!(r.passes(), "protected scenario failed its contract: {r:?}");
    }
}

/// The matrix actually sweeps: every crash-family scenario visits a
/// three-digit number of crash points and recovers at each one, the
/// index oracle runs thousands of probes, and the swept range holds at
/// least three compactions. Guards against the harness silently
/// shrinking into a no-op.
#[test]
fn protected_matrix_has_real_coverage() {
    let reports = run_all(true, SEED);
    for name in ["kill-before-fsync", "torn-tail", "bit-flip"] {
        let r = by_name(&reports, name);
        assert!(r.crash_points >= 100, "{name}: only {} crash points", r.crash_points);
        assert_eq!(r.recoveries, r.crash_points, "{name}: a recovery was skipped");
        assert!(r.index_probes >= 1_000, "{name}: only {} index probes", r.index_probes);
        assert!(r.compactions >= 3, "{name}: the sweep crossed only {} compactions", r.compactions);
    }
    assert!(
        by_name(&reports, "enospc-breaker").breaker_tripped,
        "exhausted retries must trip the wal_append breaker"
    );
}

/// Unprotected, the faults do real damage. At least three scenarios
/// must demonstrably fail with their specific protection disabled, so
/// the checksums and fsync barriers are proven against corruptions
/// that actually happen.
#[test]
fn unprotected_faults_demonstrably_fail() {
    let reports = run_all(false, SEED);
    let failing: Vec<&DiskScenarioReport> =
        reports.iter().filter(|r| !r.passes()).collect();
    assert!(
        failing.len() >= 3,
        "expected at least 3 demonstrable unprotected failures, got {}: {reports:?}",
        failing.len()
    );
    // The specific failure modes, by protection removed:
    assert!(
        by_name(&reports, "kill-before-fsync").violations > 0,
        "without fsync barriers, acknowledged commits must get lost"
    );
    assert!(
        by_name(&reports, "bit-flip").violations > 0,
        "without frame checksums, a flipped bit must corrupt recovered state"
    );
    assert!(
        by_name(&reports, "enospc-breaker").panicked,
        "without bounded retry, ENOSPC must escape as a panic"
    );
}

/// The reports are the ones the per-scenario, hand-written sweeps
/// produced: these digests were computed on the commit before the crash
/// matrix, `silent-short-read` and `enospc-breaker` moved onto one
/// recover-and-check, so a harness rewrite that shifts any scenario's
/// outcome — or a `first_violation` label — fails here. One full sweep
/// per protection setting. CI additionally compares the fingerprints
/// across `ML4DB_THREADS` settings. Re-pin only for a change that is
/// meant to move a report, and say which.
#[test]
fn disk_chaos_reports_match_the_parent() {
    const PROTECTED: [u64; 5] = [
        0xadac86fe688602de,
        0x436743c0d9a11c03,
        0x992497af8ce97b98,
        0x4f505bff602e10c3,
        0x32f5e0827e9bdd8a,
    ];
    const UNPROTECTED: [u64; 5] = [
        0xac2dd327358077f0,
        0x61e59307f3baf462,
        0x4941ae794bcf5e35,
        0x4d34cdefbda8a6fb,
        0xaaf5123ad168409b,
    ];
    for (protected, pinned) in [(true, PROTECTED), (false, UNPROTECTED)] {
        let reports = run_all(protected, SEED);
        let bits: Vec<u64> = reports.iter().map(|r| r.bits()).collect();
        assert_eq!(bits, pinned, "protected={protected} reports moved: {reports:#?}");
    }
}

/// Seeds other than the pinned one hold the invariants too — the
/// matrix is not tuned to one lucky workload.
#[test]
fn protected_matrix_holds_across_seeds() {
    for seed in [7, 0xDEAD_BEEF, 31337] {
        for fault in [DiskFault::KillBeforeFsync, DiskFault::TornTail] {
            let r = run_scenario(fault, true, seed, 7);
            assert!(r.passes(), "seed {seed}: {r:?}");
        }
    }
}
