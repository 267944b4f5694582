//! Shared by the golden-snapshot suites (`mod common;` in each).

use std::path::PathBuf;

/// Compares `canonical` byte-for-byte against `tests/golden/<name>`, or
/// rewrites the snapshot when `ML4DB_BLESS=1`.
pub fn check_golden(name: &str, canonical: &str) {
    // `module_path!()` here is `<test target>::common`.
    let suite = module_path!().split("::").next().unwrap_or("<suite>");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("ML4DB_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, format!("{canonical}\n"))
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             ML4DB_BLESS=1 cargo test --test {suite}",
            path.display()
        )
    });
    assert_eq!(
        canonical,
        golden.trim_end(),
        "canonical rendering drifted from {}; if the change is intended, \
         regenerate with ML4DB_BLESS=1 cargo test --test {suite}",
        path.display()
    );
}
