//! A merged run's write is counted as a compaction, never as a flush:
//! `run.flushes` and the `run_flush` event keep meaning *memtable flush*.
//!
//! Alone in its file (its own process) because the obs collector is
//! process-global: any other test writing runs would be counted too.

use ml4db_storage::durable::{DurableStore, SimDisk, StoreConfig};

#[test]
fn a_merged_run_is_counted_as_a_compaction_not_a_flush() {
    let _collect = ml4db_obs::ModeGuard::collect();
    let cfg = StoreConfig { memtable_limit: usize::MAX, ..StoreConfig::default() };
    let mut store = DurableStore::create(SimDisk::new(), cfg).unwrap();
    for round in 0..8u64 {
        store.put(round, round).unwrap();
        store.put(100, round).unwrap();
        store.commit().unwrap();
        store.flush().unwrap();
    }
    assert_eq!((store.compactions(), store.runs().len()), (1, 1));
    let trace = ml4db_obs::take_trace();
    assert_eq!(trace.metrics.counter("run.flushes"), 8);
    assert_eq!(trace.count_kind("run_flush"), 8);
    assert_eq!(trace.metrics.counter("run.compactions"), 1);
    // Keys 0..=7 and the eight-times-overwritten key 100.
    assert_eq!(trace.metrics.counter("run.compacted_entries"), 9);
    assert_eq!(store.runs()[0].len(), 9);
}
