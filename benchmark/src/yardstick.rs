//! The yardstick: a fixed reference computation run *between the chunks*
//! of every timed block, so each round also measures how fast the host
//! was while it ran.
//!
//! Why it exists: the reference sandbox is a shared guest whose speed
//! wanders — the same seed gave `ops_per_s` 14–28 % apart (interquartile
//! range over median) run to run, with spells of minutes at half speed,
//! and CPU time inflated by the same spells. A reference kernel timed
//! *beside* each 2-s round did not track that; the same kind of work
//! interleaved every ~15 ms does (on `kv_durable`, 0.19 → 0.03). Every
//! time the benchmark reports is therefore scaled by the round's **speed
//! index** — [`NOMINAL_TICK_S`] over the measured time per tick — i.e.
//! reported at the speed of a host on which one tick takes exactly
//! [`NOMINAL_TICK_S`]. A tick runs on as many threads at once as the timed
//! work keeps busy: with the driver's thread alone, a spell that slowed only
//! the server worker's core went unseen.
//!
//! The kernel is meant to stay as it is for ever: it is the unit. It does
//! what the engine's hot paths do — hash-join two integer columns and
//! materialise the output as one heap row per match, insert into and probe
//! an ordered map, sort — on data it regenerates from a fixed xorshift
//! stream, so every tick is the same work.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Seconds one tick takes on the host whose speed the reported times are
/// expressed at (the reference sandbox on a quiet day).
pub const NOMINAL_TICK_S: f64 = 0.005;

const BUILD_KEYS: u64 = 6_000;
const PROBES: usize = 24_000;
const MAP_OPS: u64 = 6_000;
const SORT_LEN: usize = 12_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One unit of reference work. Returns a checksum so the work cannot be
/// optimised away.
fn tick_work() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    // Hash join: build on a key column, probe with a skewed foreign key,
    // one heap-allocated output row per match.
    let mut build: HashMap<u64, Vec<u32>> = HashMap::new();
    for row in 0..BUILD_KEYS as u32 {
        build
            .entry(xorshift(&mut x) % BUILD_KEYS)
            .or_default()
            .push(row);
    }
    let mut out: Vec<Vec<u64>> = Vec::new();
    for probe in 0..PROBES {
        let key = (xorshift(&mut x) % BUILD_KEYS) * (xorshift(&mut x) % 3) / 2;
        if let Some(rows) = build.get(&key) {
            out.extend(
                rows.iter()
                    .map(|&r| vec![key, u64::from(r), probe as u64, 0]),
            );
        }
    }
    // Ordered map: insert, then probe.
    let mut map = BTreeMap::new();
    for i in 0..MAP_OPS {
        map.insert(xorshift(&mut x) % (4 * MAP_OPS), i);
    }
    let mut sum = out.len() as u64;
    for _ in 0..MAP_OPS {
        sum = sum.wrapping_add(
            map.get(&(xorshift(&mut x) % (4 * MAP_OPS)))
                .copied()
                .unwrap_or(1),
        );
    }
    // Sort.
    let mut v: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    sum.wrapping_add(v[SORT_LEN / 2])
}

/// Accumulates the ticks run inside one timed block.
pub struct Yardstick {
    threads: usize,
    ticks: u64,
    spent_s: f64,
}

impl Yardstick {
    /// A yardstick whose every tick runs the reference work on `threads`
    /// threads at once — as many as the timed work itself keeps busy, so
    /// the index sees every core that work runs on and not only the
    /// caller's. (Two ticks side by side contend for memory, so a
    /// two-thread index sits near 0.75 where a one-thread index sits near
    /// 1; only its variation matters.)
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a yardstick needs a thread");
        Self {
            threads,
            ticks: 0,
            spent_s: 0.0,
        }
    }

    /// Runs one tick on every thread and adds the wall time until all
    /// have finished.
    pub fn tick(&mut self) {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(|| std::hint::black_box(tick_work()));
            }
            std::hint::black_box(tick_work());
        });
        self.spent_s += t.elapsed().as_secs_f64();
        self.ticks += 1;
    }

    /// Wall seconds spent in ticks so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// How fast the host was, relative to nominal: 1 when a tick took
    /// [`NOMINAL_TICK_S`], 0.5 when it took twice that.
    ///
    /// # Panics
    /// Panics if no tick was run: a block without a yardstick is a bug.
    pub fn speed_index(&self) -> f64 {
        assert!(self.ticks > 0, "no yardstick tick in this block");
        NOMINAL_TICK_S / (self.spent_s / self.ticks as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tick_is_the_same_work() {
        assert_eq!(tick_work(), tick_work());
    }

    #[test]
    fn speed_index_is_nominal_over_measured() {
        let y = Yardstick {
            threads: 1,
            ticks: 4,
            spent_s: 4.0 * 2.0 * NOMINAL_TICK_S,
        };
        assert!((y.speed_index() - 0.5).abs() < 1e-12);
        let mut y = Yardstick::new(2);
        y.tick();
        assert!(y.spent_s() > 0.0 && y.speed_index() > 0.0);
    }
}
