//! The tracing half of the observability substrate: structured
//! [`Event`]s collected per query into a [`Trace`] — an
//! EXPLAIN-ANALYZE-style record of what every learned and classical
//! component did for each query (plan chosen, per-operator estimated vs
//! actual work, cache hits, guard state transitions, drift verdicts).
//!
//! # Determinism contract
//!
//! Events carry only `Copy` data and `&'static str` labels, and every
//! event is ordered by a **logical clock**: its position in the per-query
//! event list, assigned by call order on the one thread evaluating that
//! query. Wall-clock never appears in an event. Real timings are
//! aggregated separately per span name and serialized under the
//! top-level `"nondeterministic"` key, which
//! [`Trace::to_canonical_json`] omits and golden tests strip — so a
//! canonical trace is a pure function of the workload, byte-identical
//! across `ML4DB_THREADS` settings (for workloads of distinct queries;
//! see the crate docs for the duplicate-query caveat).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use serde_json::Value;

use crate::metrics::MetricsRegistry;

/// One structured observation, attributed to the current query context
/// (or the global stream when none is set). All fields are `Copy` so
/// emitting an event never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A memo-cache lookup (plan cache, expert-latency memo).
    CacheLookup {
        /// Which cache ("plan_cache", "expert_latency").
        cache: &'static str,
        /// Whether the lookup was served from cache.
        hit: bool,
    },
    /// A plan was selected for the current query under a hint set.
    PlanChosen {
        /// `HintSet::bits` of the hints in force.
        hint_bits: u32,
        /// The plan's estimated cost.
        est_cost: f64,
        /// The plan's estimated output rows.
        est_rows: f64,
        /// Number of joins in the plan.
        num_joins: u32,
        /// Whether the join tree is left-deep.
        left_deep: bool,
    },
    /// One physical operator finished: estimated vs actual cardinality
    /// and the operator's own simulated latency contribution.
    Operator {
        /// Operator name ("seq_scan", "hash_join", ...).
        op: &'static str,
        /// Planner-estimated output rows for this node.
        est_rows: f64,
        /// Planner-estimated cumulative cost at this node.
        est_cost: f64,
        /// Rows the operator actually produced.
        actual_rows: u64,
        /// This operator's own simulated latency (µs), children excluded.
        actual_us: f64,
    },
    /// Execution aborted on its simulated-latency budget.
    ExecTimeout {
        /// The budget that was exhausted (µs).
        budget_us: f64,
    },
    /// A plan executed to completion.
    Executed {
        /// Total simulated latency (µs).
        latency_us: f64,
        /// Output rows.
        rows: u64,
    },
    /// The expert baseline latency charged for the current query.
    ExpertLatency {
        /// Expert latency (µs).
        latency_us: f64,
    },
    /// Per-query evaluation summary row (mirrors `EvalReport`).
    QueryReport {
        /// Charged latency (µs).
        latency_us: f64,
        /// Expert baseline latency (µs).
        expert_us: f64,
        /// Whether this query counts as a ≥2× regression.
        regressed: bool,
    },
    /// A circuit breaker changed state.
    GuardTransition {
        /// Guarded component ("card_estimator", "steering", ...).
        component: &'static str,
        /// State before ("closed", "open", "half_open").
        from: &'static str,
        /// State after.
        to: &'static str,
        /// Why ("invalid_output", "cooldown_elapsed", ...).
        reason: &'static str,
    },
    /// A guarded call was judged a failure and served classical.
    GuardFallback {
        /// Guarded component.
        component: &'static str,
        /// The judged failure reason.
        reason: &'static str,
    },
    /// The drift detector delivered a verdict on one observation.
    DriftVerdict {
        /// Guarded component.
        component: &'static str,
        /// Whether a distribution shift was detected.
        fired: bool,
    },
    /// A retrained candidate model was registered in a lifecycle
    /// registry.
    CandidateTrained {
        /// Registry component ("card_estimator", "learned_index", ...).
        component: &'static str,
        /// Version id assigned to the candidate.
        version: u32,
        /// Where the candidate came from ("retrain", "seed", ...).
        origin: &'static str,
    },
    /// The validation gate scored a shadow candidate against the
    /// incumbent and the classical baseline on a holdout workload.
    ValidationVerdict {
        /// Registry component.
        component: &'static str,
        /// Candidate version id.
        version: u32,
        /// Whether the candidate cleared the gate.
        promoted: bool,
        /// Candidate holdout score (lower is better).
        candidate_score: f64,
        /// Incumbent holdout score.
        incumbent_score: f64,
        /// Classical-baseline holdout score.
        baseline_score: f64,
        /// Gate tolerance in force (candidate must be within
        /// `(1 + tolerance) ×` both references).
        tolerance: f64,
    },
    /// A candidate became the serving model.
    Promotion {
        /// Registry component.
        component: &'static str,
        /// Promoted version id.
        version: u32,
        /// Registry generation after the promotion (the plan-cache
        /// model-epoch input).
        generation: u64,
    },
    /// The serving model was rolled back to the last good version (or a
    /// gate rejection returned a candidate to the shelf).
    Rollback {
        /// Registry component.
        component: &'static str,
        /// Version rolled back from.
        from_version: u32,
        /// Version now serving.
        to_version: u32,
        /// Why ("gate_rejected", "drift", "invalid_output", ...).
        reason: &'static str,
    },
    /// The serving layer's admission controller decided one request's
    /// fate (see `ml4db-serve`).
    ServeVerdict {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Priority class (0 = most latency-sensitive).
        class: u8,
        /// "admitted", "shed", or "rejected".
        verdict: &'static str,
        /// Queue occupancy observed at decision time.
        queue_depth: u32,
    },
    /// A memtable flushed into an immutable sorted run.
    RunFlush {
        /// Run id (dense from 0).
        run_id: u32,
        /// Entries (values + tombstones) written.
        entries: u64,
        /// Whether the per-run learned index cleared the lifecycle gate
        /// (false = binary-search fallback serves the run).
        index_promoted: bool,
    },
    /// A learned-index probe was answered (hit) or fell through to the
    /// classical path (miss) — the controller's index-staleness signal.
    IndexProbe {
        /// Index name ("run_pgm", "title_id_pgm", ...).
        index: &'static str,
        /// Whether the probe was answered by the learned index.
        hit: bool,
    },
    /// A logical span opened.
    SpanStart {
        /// Span name.
        name: &'static str,
    },
    /// A logical span closed.
    SpanEnd {
        /// Span name.
        name: &'static str,
    },
}

impl Event {
    /// Stable event-type tag used in the JSON `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CacheLookup { .. } => "cache_lookup",
            Event::PlanChosen { .. } => "plan_chosen",
            Event::Operator { .. } => "operator",
            Event::ExecTimeout { .. } => "exec_timeout",
            Event::Executed { .. } => "executed",
            Event::ExpertLatency { .. } => "expert_latency",
            Event::QueryReport { .. } => "query_report",
            Event::GuardTransition { .. } => "guard_transition",
            Event::GuardFallback { .. } => "guard_fallback",
            Event::DriftVerdict { .. } => "drift_verdict",
            Event::CandidateTrained { .. } => "candidate_trained",
            Event::ValidationVerdict { .. } => "validation_verdict",
            Event::Promotion { .. } => "promotion",
            Event::Rollback { .. } => "rollback",
            Event::ServeVerdict { .. } => "serve_verdict",
            Event::RunFlush { .. } => "run_flush",
            Event::IndexProbe { .. } => "index_probe",
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
        }
    }

    /// Deterministic JSON rendering with the logical clock `seq`.
    pub fn to_json(&self, seq: u64) -> Value {
        let mut o: BTreeMap<String, Value> = BTreeMap::new();
        o.insert("seq".into(), Value::Number(seq as f64));
        o.insert("type".into(), Value::String(self.kind().into()));
        match *self {
            Event::CacheLookup { cache, hit } => {
                o.insert("cache".into(), Value::String(cache.into()));
                o.insert("hit".into(), Value::Bool(hit));
            }
            Event::PlanChosen { hint_bits, est_cost, est_rows, num_joins, left_deep } => {
                o.insert("hint_bits".into(), Value::Number(f64::from(hint_bits)));
                o.insert("est_cost".into(), Value::Number(est_cost));
                o.insert("est_rows".into(), Value::Number(est_rows));
                o.insert("num_joins".into(), Value::Number(f64::from(num_joins)));
                o.insert("left_deep".into(), Value::Bool(left_deep));
            }
            Event::Operator { op, est_rows, est_cost, actual_rows, actual_us } => {
                o.insert("op".into(), Value::String(op.into()));
                o.insert("est_rows".into(), Value::Number(est_rows));
                o.insert("est_cost".into(), Value::Number(est_cost));
                o.insert("actual_rows".into(), Value::Number(actual_rows as f64));
                o.insert("actual_us".into(), Value::Number(actual_us));
            }
            Event::ExecTimeout { budget_us } => {
                o.insert("budget_us".into(), Value::Number(budget_us));
            }
            Event::Executed { latency_us, rows } => {
                o.insert("latency_us".into(), Value::Number(latency_us));
                o.insert("rows".into(), Value::Number(rows as f64));
            }
            Event::ExpertLatency { latency_us } => {
                o.insert("latency_us".into(), Value::Number(latency_us));
            }
            Event::QueryReport { latency_us, expert_us, regressed } => {
                o.insert("latency_us".into(), Value::Number(latency_us));
                o.insert("expert_us".into(), Value::Number(expert_us));
                o.insert("regressed".into(), Value::Bool(regressed));
            }
            Event::GuardTransition { component, from, to, reason } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("from".into(), Value::String(from.into()));
                o.insert("to".into(), Value::String(to.into()));
                o.insert("reason".into(), Value::String(reason.into()));
            }
            Event::GuardFallback { component, reason } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("reason".into(), Value::String(reason.into()));
            }
            Event::DriftVerdict { component, fired } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("fired".into(), Value::Bool(fired));
            }
            Event::CandidateTrained { component, version, origin } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("version".into(), Value::Number(f64::from(version)));
                o.insert("origin".into(), Value::String(origin.into()));
            }
            Event::ValidationVerdict {
                component,
                version,
                promoted,
                candidate_score,
                incumbent_score,
                baseline_score,
                tolerance,
            } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("version".into(), Value::Number(f64::from(version)));
                o.insert("promoted".into(), Value::Bool(promoted));
                o.insert("candidate_score".into(), Value::Number(candidate_score));
                o.insert("incumbent_score".into(), Value::Number(incumbent_score));
                o.insert("baseline_score".into(), Value::Number(baseline_score));
                o.insert("tolerance".into(), Value::Number(tolerance));
            }
            Event::Promotion { component, version, generation } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("version".into(), Value::Number(f64::from(version)));
                o.insert("generation".into(), Value::Number(generation as f64));
            }
            Event::Rollback { component, from_version, to_version, reason } => {
                o.insert("component".into(), Value::String(component.into()));
                o.insert("from_version".into(), Value::Number(f64::from(from_version)));
                o.insert("to_version".into(), Value::Number(f64::from(to_version)));
                o.insert("reason".into(), Value::String(reason.into()));
            }
            Event::ServeVerdict { tenant, class, verdict, queue_depth } => {
                o.insert("tenant".into(), Value::Number(f64::from(tenant)));
                o.insert("class".into(), Value::Number(f64::from(class)));
                o.insert("verdict".into(), Value::String(verdict.into()));
                o.insert("queue_depth".into(), Value::Number(f64::from(queue_depth)));
            }
            Event::RunFlush { run_id, entries, index_promoted } => {
                o.insert("run_id".into(), Value::Number(f64::from(run_id)));
                o.insert("entries".into(), Value::Number(entries as f64));
                o.insert("index_promoted".into(), Value::Bool(index_promoted));
            }
            Event::IndexProbe { index, hit } => {
                o.insert("index".into(), Value::String(index.into()));
                o.insert("hit".into(), Value::Bool(hit));
            }
            Event::SpanStart { name } | Event::SpanEnd { name } => {
                o.insert("name".into(), Value::String(name.into()));
            }
        }
        Value::Object(o)
    }

    /// One-line human rendering for [`Trace::render`].
    fn render_line(&self) -> String {
        match *self {
            Event::CacheLookup { cache, hit } => {
                format!("{cache} {}", if hit { "hit" } else { "miss" })
            }
            Event::PlanChosen { hint_bits, est_cost, est_rows, num_joins, left_deep } => format!(
                "plan_chosen hints=0x{hint_bits:02x} est_cost={est_cost:.1} est_rows={est_rows:.1} joins={num_joins}{}",
                if left_deep { " left-deep" } else { "" }
            ),
            Event::Operator { op, est_rows, est_cost, actual_rows, actual_us } => format!(
                "{op:<16} est_rows={est_rows:<10.1} actual_rows={actual_rows:<8} est_cost={est_cost:.1} actual_us={actual_us:.2}"
            ),
            Event::ExecTimeout { budget_us } => format!("exec TIMED OUT at budget {budget_us:.1}µs"),
            Event::Executed { latency_us, rows } => {
                format!("executed rows={rows} latency={latency_us:.2}µs")
            }
            Event::ExpertLatency { latency_us } => format!("expert baseline {latency_us:.2}µs"),
            Event::QueryReport { latency_us, expert_us, regressed } => format!(
                "report latency={latency_us:.2}µs expert={expert_us:.2}µs{}",
                if regressed { " REGRESSED" } else { "" }
            ),
            Event::GuardTransition { component, from, to, reason } => {
                format!("guard[{component}] {from} -> {to} ({reason})")
            }
            Event::GuardFallback { component, reason } => {
                format!("guard[{component}] fallback ({reason})")
            }
            Event::DriftVerdict { component, fired } => {
                format!("drift[{component}] {}", if fired { "SHIFT DETECTED" } else { "stable" })
            }
            Event::CandidateTrained { component, version, origin } => {
                format!("lifecycle[{component}] candidate v{version} trained ({origin})")
            }
            Event::ValidationVerdict {
                component,
                version,
                promoted,
                candidate_score,
                incumbent_score,
                baseline_score,
                ..
            } => format!(
                "lifecycle[{component}] v{version} gate {}: cand={candidate_score:.2} inc={incumbent_score:.2} base={baseline_score:.2}",
                if promoted { "PASS" } else { "REJECT" }
            ),
            Event::Promotion { component, version, generation } => {
                format!("lifecycle[{component}] PROMOTED v{version} (gen {generation})")
            }
            Event::Rollback { component, from_version, to_version, reason } => {
                format!("lifecycle[{component}] ROLLBACK v{from_version} -> v{to_version} ({reason})")
            }
            Event::ServeVerdict { tenant, class, verdict, queue_depth } => {
                format!("serve[t{tenant}/c{class}] {verdict} depth={queue_depth}")
            }
            Event::RunFlush { run_id, entries, index_promoted } => format!(
                "run flush id={run_id} entries={entries} index={}",
                if index_promoted { "learned" } else { "binary-search" }
            ),
            Event::IndexProbe { index, hit } => {
                format!("index[{index}] probe {}", if hit { "hit" } else { "miss" })
            }
            Event::SpanStart { name } => format!("span {name} {{"),
            Event::SpanEnd { name } => format!("}} span {name}"),
        }
    }
}

/// Wall-clock aggregate for one span name — the only place real time
/// lives, and it never leaves the non-deterministic side channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallStat {
    /// Completed spans.
    pub count: u64,
    /// Total wall time across them (ns).
    pub total_ns: u128,
}

/// Top-level JSON key for the wall-clock side channel. Everything under
/// it is scheduling-dependent by construction; golden tests strip it.
pub const NONDETERMINISTIC_KEY: &str = "nondeterministic";

const SHARDS: usize = 16;

/// The process-global event/metric collector behind the crate-level API.
pub(crate) struct Collector {
    queries: [Mutex<BTreeMap<u64, Vec<Event>>>; SHARDS],
    global: Mutex<Vec<Event>>,
    metrics: Mutex<MetricsRegistry>,
    wall: Mutex<BTreeMap<&'static str, WallStat>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Observability must never wedge on a panicking worker: the stored
    // data is plain-old-data, valid wherever a panic interleaved.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) static COLLECTOR: Collector = Collector {
    queries: [const { Mutex::new(BTreeMap::new()) }; SHARDS],
    global: Mutex::new(Vec::new()),
    metrics: Mutex::new(MetricsRegistry::const_new()),
    wall: Mutex::new(BTreeMap::new()),
};

impl Collector {
    pub(crate) fn record_event(&self, qid: Option<u64>, ev: Event) {
        match qid {
            Some(q) => lock(&self.queries[(q % SHARDS as u64) as usize])
                .entry(q)
                .or_default()
                .push(ev),
            None => lock(&self.global).push(ev),
        }
    }

    pub(crate) fn with_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        f(&mut lock(&self.metrics));
    }

    pub(crate) fn record_wall(&self, name: &'static str, ns: u128) {
        let mut w = lock(&self.wall);
        let s = w.entry(name).or_default();
        s.count += 1;
        s.total_ns += ns;
    }

    pub(crate) fn drain(&self) -> Trace {
        let mut queries: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
        for shard in &self.queries {
            queries.append(&mut lock(shard));
        }
        Trace {
            queries,
            global: std::mem::take(&mut lock(&self.global)),
            metrics: std::mem::take(&mut lock(&self.metrics)),
            wall: std::mem::take(&mut lock(&self.wall)),
        }
    }

    pub(crate) fn clear(&self) {
        for shard in &self.queries {
            lock(shard).clear();
        }
        lock(&self.global).clear();
        *lock(&self.metrics) = MetricsRegistry::new();
        lock(&self.wall).clear();
    }
}

/// A drained trace: per-query event lists (sorted by query id), the
/// global event stream, merged metrics, and the wall-clock side channel.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events per query id (`Query::fingerprint`), sorted by id.
    pub queries: BTreeMap<u64, Vec<Event>>,
    /// Events emitted outside any query context, in emission order.
    pub global: Vec<Event>,
    /// Metrics accumulated while collecting.
    pub metrics: MetricsRegistry,
    /// Wall-clock aggregates per span name (non-deterministic).
    pub wall: BTreeMap<&'static str, WallStat>,
}

impl Trace {
    /// The query ids present, ascending.
    pub fn query_ids(&self) -> Vec<u64> {
        self.queries.keys().copied().collect()
    }

    /// Events recorded for one query (empty slice when absent).
    pub fn events_for(&self, qid: u64) -> &[Event] {
        self.queries.get(&qid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every event in the trace (all queries in id order, then global).
    pub fn all_events(&self) -> impl Iterator<Item = &Event> {
        self.queries.values().flatten().chain(self.global.iter())
    }

    /// Count of events whose [`Event::kind`] equals `kind`.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.all_events().filter(|e| e.kind() == kind).count()
    }

    /// Full JSON rendering, including the `"nondeterministic"` wall-clock
    /// side channel.
    pub fn to_json(&self) -> Value {
        let mut root = match self.to_canonical_json() {
            Value::Object(o) => o,
            _ => unreachable!("canonical trace is an object"),
        };
        let mut wall: BTreeMap<String, Value> = BTreeMap::new();
        for (name, stat) in &self.wall {
            let mut s = BTreeMap::new();
            s.insert("count".to_string(), Value::Number(stat.count as f64));
            s.insert("total_ns".to_string(), Value::Number(stat.total_ns as f64));
            wall.insert((*name).to_string(), Value::Object(s));
        }
        let mut nd = BTreeMap::new();
        nd.insert("wall_clock".to_string(), Value::Object(wall));
        root.insert(NONDETERMINISTIC_KEY.to_string(), Value::Object(nd));
        Value::Object(root)
    }

    /// Deterministic JSON rendering: everything except the wall-clock
    /// side channel. This is what golden tests snapshot byte-for-byte.
    pub fn to_canonical_json(&self) -> Value {
        let queries: Vec<Value> = self
            .queries
            .iter()
            .map(|(qid, events)| {
                let mut o: BTreeMap<String, Value> = BTreeMap::new();
                o.insert("query_id".into(), Value::String(format!("{qid:016x}")));
                o.insert(
                    "events".into(),
                    Value::Array(
                        events.iter().enumerate().map(|(i, e)| e.to_json(i as u64)).collect(),
                    ),
                );
                Value::Object(o)
            })
            .collect();
        let mut root: BTreeMap<String, Value> = BTreeMap::new();
        root.insert("queries".into(), Value::Array(queries));
        root.insert(
            "global".into(),
            Value::Array(self.global.iter().enumerate().map(|(i, e)| e.to_json(i as u64)).collect()),
        );
        root.insert("metrics".into(), self.metrics.to_json());
        Value::Object(root)
    }

    /// The canonical JSON as a string — the byte-identity unit of the
    /// golden tests and cross-thread-count assertions.
    pub fn canonical_string(&self) -> String {
        self.to_canonical_json().to_string()
    }

    /// EXPLAIN-ANALYZE-style human rendering of every per-query trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (qid, events) in &self.queries {
            let _ = writeln!(out, "query {qid:016x} ({} events)", events.len());
            for (i, e) in events.iter().enumerate() {
                let _ = writeln!(out, "  [{i:>3}] {}", e.render_line());
            }
        }
        if !self.global.is_empty() {
            let _ = writeln!(out, "global ({} events)", self.global.len());
            for (i, e) in self.global.iter().enumerate() {
                let _ = writeln!(out, "  [{i:>3}] {}", e.render_line());
            }
        }
        out
    }
}

/// Removes the non-deterministic side channel from a parsed trace
/// document in place — the normalization golden tests apply before
/// comparing a full trace against a canonical snapshot.
pub fn strip_nondeterministic(v: &mut Value) {
    if let Value::Object(o) = v {
        o.remove(NONDETERMINISTIC_KEY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_deterministic_and_tagged() {
        let e = Event::Operator {
            op: "hash_join",
            est_rows: 87.5,
            est_cost: 123.0,
            actual_rows: 91,
            actual_us: 8.25,
        };
        let j = e.to_json(3).to_string();
        assert_eq!(j, e.to_json(3).to_string());
        assert!(j.contains("\"type\":\"operator\""), "{j}");
        assert!(j.contains("\"seq\":3"), "{j}");
        assert!(j.contains("\"actual_rows\":91"), "{j}");
    }

    #[test]
    fn strip_removes_only_the_side_channel() {
        let mut t = Trace::default();
        t.queries.insert(7, vec![Event::CacheLookup { cache: "plan_cache", hit: true }]);
        t.wall.insert("evaluate", WallStat { count: 1, total_ns: 123 });
        let mut full = t.to_json();
        assert!(full.to_string().contains(NONDETERMINISTIC_KEY));
        strip_nondeterministic(&mut full);
        assert_eq!(full.to_string(), t.canonical_string());
    }

    #[test]
    fn render_mentions_every_query() {
        let mut t = Trace::default();
        t.queries.insert(1, vec![Event::ExpertLatency { latency_us: 5.0 }]);
        t.queries.insert(2, vec![Event::ExecTimeout { budget_us: 1.0 }]);
        let r = t.render();
        assert!(r.contains("query 0000000000000001"));
        assert!(r.contains("query 0000000000000002"));
        assert!(r.contains("TIMED OUT"));
    }
}
