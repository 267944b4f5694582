//! Property tests for serving admission control, over arbitrary
//! configurations and offer/pop scripts:
//!
//! 1. **bounded** — queue occupancy never exceeds capacity, at any
//!    point in any script;
//! 2. **ordered** — pops follow strict class priority with FIFO inside
//!    each class (admission sequence numbers are monotone per class);
//! 3. **deterministic** — verdicts are a pure function of the seed and
//!    the arrival order: replaying a script yields byte-identical
//!    verdict sequences.
//!
//! Plus one property of the `Server` in front of the queue: a query too
//! wide for the planner's DP table is refused at `submit`, never planned.

use ml4db_core::optimizer::Env;
use ml4db_core::plan::{Query, MAX_DP_TABLES};
use ml4db_core::storage::datasets::joblite_db;
use ml4db_serve::{
    AdmissionConfig, AdmissionQueue, AdmissionVerdict, Outcome, Request, ServeConfig, Server,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A script step: nonzero offers the next request, zero pops one.
fn run_script(
    cfg: AdmissionConfig,
    script: &[u8],
    classes_of: &[u8],
) -> (Vec<&'static str>, Vec<(u8, u64)>) {
    let mut q: AdmissionQueue<u32> = AdmissionQueue::new(cfg);
    let mut verdicts = Vec::new();
    let mut popped = Vec::new();
    let mut next = 0u32;
    for &step in script {
        if step != 0 {
            let class = classes_of[next as usize % classes_of.len()];
            let v = match q.offer(next, class) {
                Ok(v) => v,
                Err((_, v)) => v,
            };
            verdicts.push(v.kind());
            next += 1;
        } else if let Some(t) = q.pop() {
            popped.push((t.class, t.seq));
        }
        assert!(q.depth() <= cfg.capacity, "occupancy {} > capacity", q.depth());
    }
    (verdicts, popped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Occupancy never exceeds capacity for any config and any
    /// offer/pop interleaving (checked after every step in the script).
    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1usize..64,
        soft in 0usize..64,
        classes in 1u8..=8,
        seed in 0u64..u64::MAX,
        script in proptest::collection::vec(0u8..2, 1..400),
    ) {
        let cfg = AdmissionConfig { capacity, soft_limit: soft, classes, seed };
        let class_cycle: Vec<u8> = (0..classes).collect();
        run_script(cfg, &script, &class_cycle);
    }

    /// Draining a filled queue yields strict class priority and, within
    /// each class, strictly increasing admission sequence numbers.
    #[test]
    fn pops_are_priority_ordered_and_fifo_within_class(
        classes in 1u8..=8,
        seed in 0u64..u64::MAX,
        offers in proptest::collection::vec(0u8..8, 1..200),
    ) {
        let cfg = AdmissionConfig { capacity: 256, soft_limit: 256, classes, seed };
        let mut q: AdmissionQueue<usize> = AdmissionQueue::new(cfg);
        for (i, c) in offers.iter().enumerate() {
            let _ = q.offer(i, c % classes);
        }
        let mut last_class = 0u8;
        let mut last_seq: Vec<Option<u64>> = vec![None; classes as usize];
        while let Some(t) = q.pop() {
            prop_assert!(t.class >= last_class, "priority inversion: {} after {}", t.class, last_class);
            last_class = t.class;
            if let Some(prev) = last_seq[t.class as usize] {
                prop_assert!(t.seq > prev, "FIFO violation in class {}: {} after {}", t.class, t.seq, prev);
            }
            last_seq[t.class as usize] = Some(t.seq);
        }
        prop_assert_eq!(q.depth(), 0);
    }

    /// Verdicts are deterministic given (seed, arrival order): replaying
    /// the same script produces the identical verdict sequence, pops and
    /// all. The overload band's shedding coin must not consume any
    /// ambient randomness.
    #[test]
    fn shed_decisions_replay_exactly(
        capacity in 2usize..64,
        soft_frac in 0.0f64..1.0,
        classes in 1u8..=4,
        seed in 0u64..u64::MAX,
        script in proptest::collection::vec(0u8..2, 1..400),
    ) {
        let soft = ((capacity as f64) * soft_frac) as usize;
        let cfg = AdmissionConfig { capacity, soft_limit: soft, classes, seed };
        let class_cycle: Vec<u8> = (0..classes).collect();
        let a = run_script(cfg, &script, &class_cycle);
        let b = run_script(cfg, &script, &class_cycle);
        prop_assert_eq!(a, b);
    }
}

/// Deterministic shedding is seed-*sensitive* too: under sustained
/// overload two seeds must eventually disagree (not a proptest — one
/// targeted check, so a rare agreeing pair cannot flake the suite).
#[test]
fn shed_decisions_depend_on_seed() {
    let verdicts = |seed: u64| -> Vec<&'static str> {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::new(AdmissionConfig {
            capacity: 64,
            soft_limit: 8,
            classes: 3,
            seed,
        });
        (0..300u32)
            .map(|i| match q.offer(i, (i % 3) as u8) {
                Ok(v) => v.kind(),
                Err((_, v)) => v.kind(),
            })
            .collect()
    };
    assert_ne!(verdicts(1), verdicts(2));
    assert!(verdicts(1).contains(&"shed"));
}

/// Admitted + returned-to-caller partitions the offers: an `Ok` verdict
/// means the queue kept the payload, an `Err` means the caller got it
/// back — no payload is ever silently dropped.
#[test]
fn every_offer_is_kept_or_returned() {
    let mut q: AdmissionQueue<u32> = AdmissionQueue::new(AdmissionConfig {
        capacity: 16,
        soft_limit: 8,
        classes: 2,
        seed: 3,
    });
    let mut kept = 0u32;
    let mut returned = Vec::new();
    for i in 0..100u32 {
        match q.offer(i, (i % 2) as u8) {
            Ok(AdmissionVerdict::Admitted) => kept += 1,
            Ok(v) => panic!("non-admission through Ok: {v:?}"),
            Err((item, _)) => returned.push(item),
        }
    }
    let mut drained = 0u32;
    while q.pop().is_some() {
        drained += 1;
    }
    assert_eq!(kept, drained);
    assert_eq!(kept as usize + returned.len(), 100);
}

/// A well-formed self-join chain `title.id = title.id = …` over `n` tables.
fn title_chain(n: usize) -> Query {
    (1..n).fold(Query::new(&vec!["title"; n]), |q, i| q.join(i - 1, "id", i, "id"))
}

/// Regression: `Query::validate` used to admit up to 64 tables while the
/// DP allocates `2^n` cells — a 30-table chain asked a worker for 128 GB
/// (an allocation failure aborts; `catch_unwind` cannot contain it) and a
/// 64-table one overflowed `full_mask`'s shift. Both are outside input and
/// must be refused at the door, with the server still serving afterwards.
#[test]
fn wide_join_is_rejected_not_enumerated() {
    let db = joblite_db(60, &[], &mut StdRng::seed_from_u64(5));
    let env = Env::new(&db);
    let server = Server::new(&env, ServeConfig::default());
    let request = |id: u64, query: Query| Request { id, session: 0, tenant: 0, class: 0, query };
    std::thread::scope(|s| {
        s.spawn(|| server.run_worker(0));
        for (id, tables) in [(1, 30), (2, 64), (3, MAX_DP_TABLES + 1)] {
            let verdict = server.submit(request(id, title_chain(tables)));
            assert_eq!(verdict, AdmissionVerdict::Rejected("invalid_query"), "{tables} tables");
            assert_eq!(server.await_take(id).outcome, Outcome::Rejected("invalid_query"));
        }
        // The widest query the DP takes is served, after the refusals.
        server.submit(request(4, title_chain(MAX_DP_TABLES)));
        let served = server.await_take(4).outcome;
        assert!(matches!(served, Outcome::Done { .. }), "{served:?}");
        server.close();
    });
    let report = server.report(true);
    assert_eq!((report.rejected(), report.completed()), (3, 1));
}
