//! A `DurableStore::range` streams its answer out of one merge cursor: it
//! allocates the result, the list of inputs, the memtable's slice (a key
//! column and an entry column) and the cursor's heads — a handful of
//! vectors, however many runs and entries the range crosses. Folding
//! every run's slice into a `BTreeMap` first, which is what `range` used
//! to do, allocates a tree node per ~8 entries touched (13 leaves alone
//! for a 100-key range over a dozen runs) before the result is even
//! started; this gate is the host-independent form of that difference. A
//! `get` allocates nothing at all, the run key filters it asks included.
//!
//! Alone in its file: see `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use ml4db_storage::durable::{DurableStore, SimDisk, StoreConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result, input list, memtable keys, memtable entries, head keys, head
/// rests.
const MAX_RANGE_ALLOCATIONS: u64 = 6;

#[test]
fn a_range_allocates_a_handful_of_vectors_and_a_get_none() {
    // 63 flushes of 128 shuffled keys: seven merged runs of 1 024 and
    // seven fresh ones of 128, every key range spread over all of them.
    let cfg = StoreConfig { memtable_limit: 128, ..StoreConfig::default() };
    let mut order: Vec<u64> = (0..63 * 128).collect();
    order.shuffle(&mut StdRng::seed_from_u64(7));
    let mut store = DurableStore::create(SimDisk::new(), cfg).expect("create");
    for chunk in order.chunks(64) {
        for &key in chunk {
            store.put(key, key).expect("put");
        }
        store.commit().expect("commit");
    }
    let runs = store.runs().len();
    assert!(runs >= 9, "only {runs} runs: the range must cross many inputs");
    // An overwrite, a delete and a new key inside the window, committed
    // and not flushed: the memtable is the newest input.
    store.put(4_010, 1).expect("put");
    store.delete(4_020).expect("delete");
    store.put(9_000_000, 2).expect("put");
    store.commit().expect("commit");
    assert_eq!(store.runs().len(), runs, "the last commit must stay in the memtable");

    let (ranging, rows) = allocations_of(|| store.range(4_000, 4_099));
    let want: Vec<(u64, u64)> = (4_000..4_100)
        .filter(|&k| k != 4_020)
        .map(|k| (k, if k == 4_010 { 1 } else { k }))
        .collect();
    assert_eq!(rows, want);
    assert!(
        ranging <= MAX_RANGE_ALLOCATIONS,
        "a 100-key range over {runs} runs and the memtable made {ranging} allocations, \
         more than the {MAX_RANGE_ALLOCATIONS} its vectors account for"
    );

    // A key only the oldest run holds: its `get` asks every run's key
    // filter on the way down.
    let oldest = store.runs()[0].entries()[0].key();
    assert!(
        store.runs()[1..].iter().all(|run| run.get_unindexed(oldest).is_none()),
        "key {oldest} must be held by the oldest run alone"
    );
    // Memtable hit, memtable tombstone, a key in some run, a key in the
    // oldest run alone, a key in none.
    for (key, want) in
        [(4_010, Some(1)), (4_020, None), (77, Some(77)), (oldest, Some(oldest)), (8_500_000, None)]
    {
        let (getting, got) = allocations_of(|| store.get(key));
        assert_eq!(got, want, "get({key})");
        assert_eq!(getting, 0, "get({key}) allocated");
    }
}
