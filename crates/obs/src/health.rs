//! Periodic health aggregation for the autonomous controller
//! (`ml4db-ctl`): distills one control interval's [`Event`] stream into
//! a typed [`HealthSnapshot`] — breaker activity with trip reasons,
//! drift verdicts, plan-cache hit rates, admission shed rates, latency
//! histograms, lifecycle counters, and learned-index staleness — so the
//! controller reads one struct instead of scraping the trace.
//!
//! # Merge laws
//!
//! A snapshot obeys the same kind of algebra as [`MetricsRegistry`]:
//! every field is a saturating `u64` counter, a max-wins scalar, or a
//! fixed-bucket [`Histogram`], so [`HealthSnapshot::merge`] is
//! **associative and commutative**. Per-shard snapshots folded by
//! `ml4db-par` workers in any grouping produce byte-identical canonical
//! JSON — the property the controller's decision-log determinism
//! contract is built on, and the reason no field is a float sum or a
//! "last state seen" (neither merges associatively).
//!
//! # Sealing
//!
//! The controller never trusts a snapshot it did not seal:
//! [`SealedSnapshot`] pairs a snapshot with an FNV-1a digest of its
//! canonical rendering. The chaos harness's lying-sensor fault corrupts
//! snapshot fields *after* sealing, so a guarded controller detects the
//! tamper ([`SealedSnapshot::verify`] fails) and degrades to no-op,
//! while a naive controller that skips verification acts on the lie.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::digest::fnv1a;
use crate::metrics::Histogram;
use crate::trace::{Event, Trace};

/// Per-tenant admission outcomes observed in one control interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests admitted for this tenant.
    pub admitted: u64,
    /// Requests shed (soft-limit overflow) for this tenant.
    pub shed: u64,
    /// Requests rejected (hard-capacity overflow) for this tenant.
    pub rejected: u64,
}

impl TenantCounters {
    fn merge(&mut self, o: &TenantCounters) {
        self.admitted = self.admitted.saturating_add(o.admitted);
        self.shed = self.shed.saturating_add(o.shed);
        self.rejected = self.rejected.saturating_add(o.rejected);
    }
}

/// One control interval's health, distilled from the obs event stream.
///
/// Every field is associatively mergeable (see the module docs); state
/// that does not merge — e.g. "the breaker is currently open" — is
/// represented as entry/exit counters (`guard_opens` / `guard_closes`)
/// from which the consumer derives the net state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthSnapshot {
    /// Control tick this snapshot covers (max-wins under merge, so a
    /// sharded interval keeps its tick).
    pub tick: u64,
    /// Breaker state transitions per component (any edge).
    pub guard_transitions: BTreeMap<String, u64>,
    /// Transitions *into* `open` per component (trips).
    pub guard_opens: BTreeMap<String, u64>,
    /// Transitions *out of* `open` per component (recoveries).
    pub guard_closes: BTreeMap<String, u64>,
    /// Trip reasons, keyed `"component/reason"`.
    pub trip_reasons: BTreeMap<String, u64>,
    /// Calls judged failures and served classical, per component.
    pub guard_fallbacks: BTreeMap<String, u64>,
    /// Drift-detector verdicts delivered, per component.
    pub drift_checks: BTreeMap<String, u64>,
    /// Drift-detector verdicts that fired, per component.
    pub drift_fired: BTreeMap<String, u64>,
    /// Cache hits per cache name ("plan_cache", "expert_latency").
    pub cache_hits: BTreeMap<String, u64>,
    /// Cache misses per cache name.
    pub cache_misses: BTreeMap<String, u64>,
    /// Evaluated queries (one per `QueryReport`).
    pub queries: u64,
    /// Queries that regressed ≥2× past the expert plan.
    pub regressions: u64,
    /// Executions aborted on their latency budget.
    pub timeouts: u64,
    /// Per-query charged latency (µs), [`Histogram::latency_us`] buckets.
    pub latency: Option<Histogram>,
    /// Admission verdicts per tenant.
    pub tenants: BTreeMap<u32, TenantCounters>,
    /// Deepest admission queue observed (max-wins).
    pub max_queue_depth: u32,
    /// Candidates registered in a lifecycle registry.
    pub candidates_trained: u64,
    /// Validation-gate verdicts delivered.
    pub gate_verdicts: u64,
    /// Validation-gate rejections.
    pub gate_rejections: u64,
    /// Promotions to serving.
    pub promotions: u64,
    /// Rollbacks (including gate rejections returning a candidate).
    pub rollbacks: u64,
    /// Highest registry generation observed (max-wins).
    pub generation: u64,
    /// Learned-index probes per index name.
    pub index_probes: BTreeMap<String, u64>,
    /// Probes that fell through to the classical path, per index name.
    pub index_misses: BTreeMap<String, u64>,
}

fn bump(map: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    match map.get_mut(key) {
        Some(v) => *v = v.saturating_add(n),
        None => {
            map.insert(key.to_string(), n);
        }
    }
}

fn merge_counts(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (k, &v) in from {
        bump(into, k, v);
    }
}

impl HealthSnapshot {
    /// An empty snapshot for control tick `tick`.
    pub fn new(tick: u64) -> Self {
        Self { tick, ..Self::default() }
    }

    /// Folds one event into the snapshot. Events that carry no health
    /// signal (plan choices, operators, run flushes, spans, …) are
    /// ignored.
    pub fn observe(&mut self, ev: &Event) {
        match *ev {
            Event::CacheLookup { cache, hit } => {
                bump(if hit { &mut self.cache_hits } else { &mut self.cache_misses }, cache, 1);
            }
            Event::QueryReport { latency_us, expert_us: _, regressed } => {
                self.queries = self.queries.saturating_add(1);
                if regressed {
                    self.regressions = self.regressions.saturating_add(1);
                }
                self.latency.get_or_insert_with(Histogram::latency_us).observe(latency_us);
            }
            Event::ExecTimeout { .. } => self.timeouts = self.timeouts.saturating_add(1),
            Event::GuardTransition { component, from, to, reason } => {
                bump(&mut self.guard_transitions, component, 1);
                if to == "open" {
                    bump(&mut self.guard_opens, component, 1);
                    let key = format!("{component}/{reason}");
                    bump(&mut self.trip_reasons, &key, 1);
                }
                if from == "open" {
                    bump(&mut self.guard_closes, component, 1);
                }
            }
            Event::GuardFallback { component, .. } => bump(&mut self.guard_fallbacks, component, 1),
            Event::DriftVerdict { component, fired } => {
                bump(&mut self.drift_checks, component, 1);
                if fired {
                    bump(&mut self.drift_fired, component, 1);
                }
            }
            Event::CandidateTrained { .. } => {
                self.candidates_trained = self.candidates_trained.saturating_add(1);
            }
            Event::ValidationVerdict { promoted, .. } => {
                self.gate_verdicts = self.gate_verdicts.saturating_add(1);
                if !promoted {
                    self.gate_rejections = self.gate_rejections.saturating_add(1);
                }
            }
            Event::Promotion { generation, .. } => {
                self.promotions = self.promotions.saturating_add(1);
                self.generation = self.generation.max(generation);
            }
            Event::Rollback { .. } => self.rollbacks = self.rollbacks.saturating_add(1),
            Event::ServeVerdict { tenant, class: _, verdict, queue_depth } => {
                let t = self.tenants.entry(tenant).or_default();
                match verdict {
                    "admitted" => t.admitted = t.admitted.saturating_add(1),
                    "shed" => t.shed = t.shed.saturating_add(1),
                    _ => t.rejected = t.rejected.saturating_add(1),
                }
                self.max_queue_depth = self.max_queue_depth.max(queue_depth);
            }
            Event::IndexProbe { index, hit } => {
                bump(&mut self.index_probes, index, 1);
                if !hit {
                    bump(&mut self.index_misses, index, 1);
                }
            }
            _ => {}
        }
    }

    /// Builds a snapshot for tick `tick` from an event stream.
    pub fn from_events<'a>(tick: u64, events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut s = Self::new(tick);
        for ev in events {
            s.observe(ev);
        }
        s
    }

    /// Builds a snapshot from everything a drained [`Trace`] holds
    /// (global events first, then per-query streams in query-id order —
    /// though ordering cannot matter: observation is commutative).
    pub fn from_trace(tick: u64, trace: &Trace) -> Self {
        Self::from_events(tick, trace.all_events())
    }

    /// Folds `other` into `self`. Associative and commutative, field by
    /// field (see the module docs).
    pub fn merge(&mut self, other: &HealthSnapshot) {
        self.tick = self.tick.max(other.tick);
        merge_counts(&mut self.guard_transitions, &other.guard_transitions);
        merge_counts(&mut self.guard_opens, &other.guard_opens);
        merge_counts(&mut self.guard_closes, &other.guard_closes);
        merge_counts(&mut self.trip_reasons, &other.trip_reasons);
        merge_counts(&mut self.guard_fallbacks, &other.guard_fallbacks);
        merge_counts(&mut self.drift_checks, &other.drift_checks);
        merge_counts(&mut self.drift_fired, &other.drift_fired);
        merge_counts(&mut self.cache_hits, &other.cache_hits);
        merge_counts(&mut self.cache_misses, &other.cache_misses);
        self.queries = self.queries.saturating_add(other.queries);
        self.regressions = self.regressions.saturating_add(other.regressions);
        self.timeouts = self.timeouts.saturating_add(other.timeouts);
        if let Some(h) = &other.latency {
            match &mut self.latency {
                Some(mine) => mine.merge(h),
                None => self.latency = Some(h.clone()),
            }
        }
        for (tenant, counters) in &other.tenants {
            self.tenants.entry(*tenant).or_default().merge(counters);
        }
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.candidates_trained = self.candidates_trained.saturating_add(other.candidates_trained);
        self.gate_verdicts = self.gate_verdicts.saturating_add(other.gate_verdicts);
        self.gate_rejections = self.gate_rejections.saturating_add(other.gate_rejections);
        self.promotions = self.promotions.saturating_add(other.promotions);
        self.rollbacks = self.rollbacks.saturating_add(other.rollbacks);
        self.generation = self.generation.max(other.generation);
        merge_counts(&mut self.index_probes, &other.index_probes);
        merge_counts(&mut self.index_misses, &other.index_misses);
    }

    // ---- derived signals the controller keys decisions on ----

    /// Hit rate of the named cache in `[0, 1]`; `None` before any lookup.
    pub fn cache_hit_rate(&self, cache: &str) -> Option<f64> {
        let h = self.cache_hits.get(cache).copied().unwrap_or(0);
        let m = self.cache_misses.get(cache).copied().unwrap_or(0);
        let total = h + m;
        (total > 0).then(|| h as f64 / total as f64)
    }

    /// Fraction of serve requests shed or rejected; `None` before any
    /// admission verdict.
    pub fn shed_rate(&self) -> Option<f64> {
        let mut good = 0u64;
        let mut bad = 0u64;
        for t in self.tenants.values() {
            good = good.saturating_add(t.admitted);
            bad = bad.saturating_add(t.shed).saturating_add(t.rejected);
        }
        let total = good + bad;
        (total > 0).then(|| bad as f64 / total as f64)
    }

    /// Whether the named component's drift detector fired this interval.
    pub fn drift_alarmed(&self, component: &str) -> bool {
        self.drift_fired.get(component).copied().unwrap_or(0) > 0
    }

    /// Breaker trips (transitions into `open`) for the named component.
    pub fn trips(&self, component: &str) -> u64 {
        self.guard_opens.get(component).copied().unwrap_or(0)
    }

    /// Net open breaker: more entries into `open` than exits.
    pub fn breaker_net_open(&self, component: &str) -> bool {
        self.trips(component) > self.guard_closes.get(component).copied().unwrap_or(0)
    }

    /// Miss rate of the named learned index; `None` before any probe.
    pub fn index_miss_rate(&self, index: &str) -> Option<f64> {
        let probes = self.index_probes.get(index).copied().unwrap_or(0);
        let misses = self.index_misses.get(index).copied().unwrap_or(0);
        (probes > 0).then(|| misses as f64 / probes as f64)
    }

    /// p99 charged latency (µs); `None` before any query.
    pub fn p99_latency_us(&self) -> Option<f64> {
        self.latency.as_ref().and_then(|h| h.quantile(0.99))
    }

    /// Fraction of queries that regressed; `None` before any query.
    pub fn regression_rate(&self) -> Option<f64> {
        (self.queries > 0).then(|| self.regressions as f64 / self.queries as f64)
    }

    // ---- canonical rendering + digest ----

    /// Deterministic JSON: `BTreeMap`-sorted keys everywhere, counters
    /// as exact integers. Equal snapshots render byte-identically.
    pub fn to_canonical_json(&self) -> Value {
        fn counts(map: &BTreeMap<String, u64>) -> Value {
            Value::Object(map.iter().map(|(k, &v)| (k.clone(), Value::Number(v as f64))).collect())
        }
        let mut o = BTreeMap::new();
        o.insert("tick".to_string(), Value::Number(self.tick as f64));
        o.insert("guard_transitions".to_string(), counts(&self.guard_transitions));
        o.insert("guard_opens".to_string(), counts(&self.guard_opens));
        o.insert("guard_closes".to_string(), counts(&self.guard_closes));
        o.insert("trip_reasons".to_string(), counts(&self.trip_reasons));
        o.insert("guard_fallbacks".to_string(), counts(&self.guard_fallbacks));
        o.insert("drift_checks".to_string(), counts(&self.drift_checks));
        o.insert("drift_fired".to_string(), counts(&self.drift_fired));
        o.insert("cache_hits".to_string(), counts(&self.cache_hits));
        o.insert("cache_misses".to_string(), counts(&self.cache_misses));
        o.insert("queries".to_string(), Value::Number(self.queries as f64));
        o.insert("regressions".to_string(), Value::Number(self.regressions as f64));
        o.insert("timeouts".to_string(), Value::Number(self.timeouts as f64));
        if let Some(h) = &self.latency {
            // Buckets dominate the rendering; the digest only needs the
            // mergeable state, which counts/min/max fully capture.
            o.insert("latency".to_string(), h.to_json());
        }
        o.insert(
            "tenants".to_string(),
            Value::Object(
                self.tenants
                    .iter()
                    .map(|(t, c)| {
                        let mut v = BTreeMap::new();
                        v.insert("admitted".to_string(), Value::Number(c.admitted as f64));
                        v.insert("shed".to_string(), Value::Number(c.shed as f64));
                        v.insert("rejected".to_string(), Value::Number(c.rejected as f64));
                        (format!("{t:06}"), Value::Object(v))
                    })
                    .collect(),
            ),
        );
        o.insert("max_queue_depth".to_string(), Value::Number(self.max_queue_depth as f64));
        o.insert("candidates_trained".to_string(), Value::Number(self.candidates_trained as f64));
        o.insert("gate_verdicts".to_string(), Value::Number(self.gate_verdicts as f64));
        o.insert("gate_rejections".to_string(), Value::Number(self.gate_rejections as f64));
        o.insert("promotions".to_string(), Value::Number(self.promotions as f64));
        o.insert("rollbacks".to_string(), Value::Number(self.rollbacks as f64));
        o.insert("generation".to_string(), Value::Number(self.generation as f64));
        o.insert("index_probes".to_string(), counts(&self.index_probes));
        o.insert("index_misses".to_string(), counts(&self.index_misses));
        Value::Object(o)
    }

    /// The canonical rendering as a string (digest input).
    pub fn canonical_string(&self) -> String {
        self.to_canonical_json().to_string()
    }

    /// FNV-1a 64 over the canonical string — stable across processes,
    /// platforms, and thread counts.
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical_string().as_bytes())
    }

    /// Seals the snapshot for tamper-evident delivery to the controller.
    pub fn seal(self) -> SealedSnapshot {
        let digest = self.digest();
        SealedSnapshot { snapshot: self, digest }
    }
}

/// A snapshot plus the digest it had at sealing time. The chaos
/// harness's lying-sensor fault mutates `snapshot` without updating
/// `digest`; [`SealedSnapshot::verify`] is how a guarded controller
/// notices and discards the interval.
#[derive(Clone, Debug, PartialEq)]
pub struct SealedSnapshot {
    /// The sealed health snapshot (public so fault injectors can tamper
    /// with it — that is the point of the seal).
    pub snapshot: HealthSnapshot,
    /// FNV-1a digest of the canonical rendering at sealing time.
    pub digest: u64,
}

impl SealedSnapshot {
    /// True when the snapshot still matches its sealing digest.
    pub fn verify(&self) -> bool {
        self.snapshot.digest() == self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CacheLookup { cache: "plan_cache", hit: true },
            Event::CacheLookup { cache: "plan_cache", hit: true },
            Event::CacheLookup { cache: "plan_cache", hit: false },
            Event::QueryReport { latency_us: 120.0, expert_us: 100.0, regressed: false },
            Event::QueryReport { latency_us: 900.0, expert_us: 100.0, regressed: true },
            Event::GuardTransition {
                component: "card_estimator",
                from: "closed",
                to: "open",
                reason: "invalid_output",
            },
            Event::GuardTransition {
                component: "card_estimator",
                from: "open",
                to: "half_open",
                reason: "cooldown_elapsed",
            },
            Event::GuardFallback { component: "card_estimator", reason: "invalid_output" },
            Event::DriftVerdict { component: "card_estimator", fired: true },
            Event::DriftVerdict { component: "card_estimator", fired: false },
            Event::CandidateTrained { component: "card_estimator", version: 2, origin: "retrain" },
            Event::ValidationVerdict {
                component: "card_estimator",
                version: 2,
                promoted: false,
                candidate_score: 10.0,
                incumbent_score: 5.0,
                baseline_score: 5.0,
                tolerance: 0.25,
            },
            Event::Promotion { component: "card_estimator", version: 3, generation: 7 },
            Event::Rollback {
                component: "card_estimator",
                from_version: 3,
                to_version: 1,
                reason: "gate_rejected",
            },
            Event::ServeVerdict { tenant: 4, class: 0, verdict: "admitted", queue_depth: 12 },
            Event::ServeVerdict { tenant: 4, class: 2, verdict: "shed", queue_depth: 60 },
            Event::ServeVerdict { tenant: 9, class: 1, verdict: "rejected", queue_depth: 64 },
            Event::IndexProbe { index: "title_id_pgm", hit: true },
            Event::IndexProbe { index: "title_id_pgm", hit: false },
            Event::ExecTimeout { budget_us: 500.0 },
            // health-neutral events must be ignored
            Event::SpanStart { name: "evaluate" },
            Event::RunFlush { run_id: 0, entries: 128, index_promoted: true },
        ]
    }

    #[test]
    fn from_events_aggregates_every_dimension() {
        let evs = sample_events();
        let s = HealthSnapshot::from_events(3, evs.iter());
        assert_eq!(s.tick, 3);
        assert_eq!(s.cache_hit_rate("plan_cache"), Some(2.0 / 3.0));
        assert_eq!(s.cache_hit_rate("expert_latency"), None);
        assert_eq!(s.queries, 2);
        assert_eq!(s.regressions, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.trips("card_estimator"), 1);
        assert!(!s.breaker_net_open("card_estimator"), "open was exited");
        assert_eq!(s.trip_reasons.get("card_estimator/invalid_output"), Some(&1));
        assert_eq!(s.guard_fallbacks.get("card_estimator"), Some(&1));
        assert!(s.drift_alarmed("card_estimator"));
        assert_eq!(s.drift_checks.get("card_estimator"), Some(&2));
        assert_eq!(s.candidates_trained, 1);
        assert_eq!(s.gate_verdicts, 1);
        assert_eq!(s.gate_rejections, 1);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.generation, 7);
        assert_eq!(s.shed_rate(), Some(2.0 / 3.0));
        assert_eq!(s.max_queue_depth, 64);
        assert_eq!(s.index_miss_rate("title_id_pgm"), Some(0.5));
        assert_eq!(s.regression_rate(), Some(0.5));
        let p99 = s.p99_latency_us().unwrap();
        assert!((900.0..=1100.0).contains(&p99), "p99 near the slow query, got {p99}");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let evs = sample_events();
        let shards: Vec<HealthSnapshot> = evs
            .chunks(5)
            .enumerate()
            .map(|(i, c)| HealthSnapshot::from_events(i as u64, c.iter()))
            .collect();
        // ((a ⊕ b) ⊕ c) ⊕ ... left fold
        let mut left = HealthSnapshot::default();
        for s in &shards {
            left.merge(s);
        }
        // a ⊕ (b ⊕ (c ⊕ ...)) right fold
        let mut right = HealthSnapshot::default();
        for s in shards.iter().rev() {
            right.merge(s);
        }
        assert_eq!(left, right);
        assert_eq!(left.canonical_string(), right.canonical_string());
        assert_eq!(left.digest(), right.digest());
        // and both equal the unsharded snapshot at the max tick
        let whole = HealthSnapshot::from_events(shards.len() as u64 - 1, evs.iter());
        assert_eq!(left, whole);
    }

    #[test]
    fn merge_is_associative_across_par_shards() {
        // The real deployment shape: ml4db-par workers each build a
        // shard snapshot; the fold happens in shard-index order, so the
        // merged result must not depend on how par_map scheduled them.
        let evs = sample_events();
        let chunks: Vec<Vec<Event>> = evs.chunks(4).map(|c| c.to_vec()).collect();
        let shards: Vec<HealthSnapshot> =
            ml4db_par::par_map(&chunks, |c| HealthSnapshot::from_events(1, c.iter()));
        let mut folded = HealthSnapshot::default();
        for s in &shards {
            folded.merge(s);
        }
        let serial = HealthSnapshot::from_events(1, evs.iter());
        assert_eq!(folded, serial);
        assert_eq!(folded.digest(), serial.digest());
    }

    #[test]
    fn tick_and_generation_are_max_wins() {
        let mut a = HealthSnapshot::new(5);
        a.generation = 2;
        let mut b = HealthSnapshot::new(3);
        b.generation = 9;
        a.merge(&b);
        assert_eq!(a.tick, 5);
        assert_eq!(a.generation, 9);
    }

    #[test]
    fn sealed_snapshot_detects_tampering() {
        let evs = sample_events();
        let mut sealed = HealthSnapshot::from_events(2, evs.iter()).seal();
        assert!(sealed.verify());
        // A lying sensor inflates drift so the controller over-reacts.
        bump(&mut sealed.snapshot.drift_fired, "card_estimator", 100);
        assert!(!sealed.verify(), "corruption must break the digest");
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // Pinned value: the digest is part of the decision-log replay
        // contract, so it must never silently change.
        let empty = HealthSnapshot::new(0);
        assert_eq!(empty.digest(), fnv1a(empty.canonical_string().as_bytes()));
        let evs = sample_events();
        let a = HealthSnapshot::from_events(1, evs.iter());
        let b = HealthSnapshot::from_events(1, evs.iter());
        assert_eq!(a.digest(), b.digest());
    }
}
