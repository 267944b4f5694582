//! Golden snapshot of the standing evaluation matrix: the canonical
//! JSON of a fixed smoke-scale [`run_matrix`] is snapshotted
//! byte-for-byte under `tests/golden/matrix.json`. Any drift — a
//! scenario added or renamed, a budget loosened, a scored metric moved —
//! fails the suite until deliberately re-blessed with
//! `ML4DB_BLESS=1 cargo test --test matrix_golden`.
//!
//! The thread-count test mirrors `tests/determinism.rs`: the whole
//! matrix (training, evaluation, probes, serving) must be byte-identical
//! at 1, 4, and 8 threads, because CI diffs the artifacts of both
//! threading modes.

mod common;

use std::sync::OnceLock;

use ml4db_core::matrix::{run_matrix, MatrixConfig, MatrixReport};
use ml4db_core::obs;
use ml4db_core::par;

/// One shared smoke-scale run for every assertion in this file.
fn smoke_report() -> &'static MatrixReport {
    static REPORT: OnceLock<MatrixReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let _prev = obs::set_mode(obs::Mode::Noop);
        run_matrix(&MatrixConfig::smoke())
    })
}

#[test]
fn golden_matrix_snapshot() {
    let _s = obs::serial();
    let canonical = smoke_report().to_canonical_json().to_string();
    common::check_golden("matrix.json", &canonical);
}

#[test]
fn matrix_meets_the_standing_bar() {
    let _s = obs::serial();
    let r = smoke_report();
    assert!(r.scenarios >= 6, "matrix must keep at least 6 scenarios, has {}", r.scenarios);
    assert!(r.policies >= 3, "matrix must keep at least 3 policies, has {}", r.policies);
    assert_eq!(r.cells.len(), r.scenarios * r.policies, "every cell must be scored");
    assert!(r.pass(), "the standing matrix must pass at smoke scale");
    // Adversarial scenarios are canaries for the unguarded learned
    // policies but *gates* for classical and the guarded policy.
    for c in &r.cells {
        if c.adversarial && (c.policy == "bao" || c.policy == "autosteer") {
            assert!(!c.budget.enforced, "{}/{} must be a canary", c.scenario, c.policy);
        }
        if c.policy == "classical" || c.policy == "guarded_bao" {
            assert!(c.budget.enforced, "{}/{} must be enforced", c.scenario, c.policy);
        }
    }
}

#[test]
fn matrix_byte_identical_across_thread_counts() {
    let _s = obs::serial();
    let _prev = obs::set_mode(obs::Mode::Noop);
    let cfg = MatrixConfig::smoke();
    let at = |threads: usize| -> (String, u64) {
        let r = par::with_threads(threads, || run_matrix(&cfg));
        (r.to_canonical_json().to_string(), r.bits())
    };
    let one = at(1);
    for threads in [4, 8] {
        assert_eq!(at(threads), one, "matrix diverged at {threads} threads");
    }
}
