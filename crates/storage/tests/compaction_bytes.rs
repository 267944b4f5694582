//! The merge behind compaction may be rewritten, the bytes it leaves on
//! disk may not: a fixed seeded op sequence that crosses both kinds of
//! merge must leave exactly the files — names and contents — and exactly
//! the I/O-op count it left before the tier had one shared merge cursor.
//!
//! Both pins were computed on the commit *before* that rewrite (the
//! two-pass loop in `merge_runs`). The op count matters as much as the
//! bytes: it is the clock the crash-at-every-I/O matrix sweeps, so a merge
//! that issued one more or one fewer I/O would silently shift every
//! injection point of `tests/recovery.rs`.

use ml4db_storage::durable::{DurableStore, SimDisk, StorageMedium, StoreConfig, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED_D15C;
const STEPS: usize = 6_000;
const KEY_SPACE: u64 = 1_500;

/// FNV-1a over every file, in name order: name, length, contents.
fn disk_digest(disk: &mut SimDisk) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let mut names = disk.list().unwrap();
    names.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for name in names {
        let bytes = disk.read(&name).unwrap();
        eat(&mut h, name.as_bytes());
        eat(&mut h, &(bytes.len() as u64).to_le_bytes());
        eat(&mut h, &bytes);
    }
    h
}

#[test]
fn a_seeded_history_leaves_the_bytes_and_the_op_count_of_the_two_pass_merge() {
    let cfg = StoreConfig {
        wal: WalConfig { segment_bytes: 1 << 12, ..WalConfig::default() },
        memtable_limit: 16,
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut store = DurableStore::create(SimDisk::new(), cfg).unwrap();
    // Merges that swallowed the oldest run (tombstones dropped) and
    // merges that stopped short of it (tombstones kept).
    let (mut to_the_oldest, mut short_of_it) = (0u64, 0u64);
    for step in 0..STEPS {
        let key = rng.gen_range(0..KEY_SPACE);
        if rng.gen_range(0..5u32) == 0 {
            store.delete(key).unwrap();
        } else {
            store.put(key, rng.gen::<u64>()).unwrap();
        }
        if step % 4 == 3 {
            let before = store.compactions();
            store.commit().unwrap();
            match (store.compactions() - before, store.runs().len()) {
                (0, _) => {}
                (n, 1) => {
                    // A cascade ends at the oldest run; its earlier
                    // merges stopped short of it.
                    to_the_oldest += 1;
                    short_of_it += n - 1;
                }
                (n, _) => short_of_it += n,
            }
        }
    }
    assert!(
        to_the_oldest >= 1 && short_of_it >= 2,
        "the history must cross both kinds of merge: {to_the_oldest} reached the oldest run, \
         {short_of_it} did not"
    );
    let ops = store.medium().ops();
    let mut disk = store.into_medium();
    let digest = disk_digest(&mut disk);
    assert_eq!(
        (to_the_oldest, short_of_it, ops, digest),
        PINNED,
        "compaction wrote different bytes, or a different number of I/Os, than the parent's merge"
    );
}

/// `(merges reaching the oldest run, merges short of it, SimDisk::ops(),
/// disk digest)` of the history above, computed on the parent commit.
const PINNED: (u64, u64, u64, u64) = (2, 48, 12_487, 0x97E8_8CA0_8DCE_94C3);
