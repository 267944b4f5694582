//! AutoSteer (Anneser et al. \[3\]) — removes Bao's last manual step: instead
//! of a hand-crafted hint-set collection, *discover* promising hint sets
//! per query with a greedy search over single-operator toggles, then merge
//! toggles whose effects compose.

use ml4db_plan::{HintSet, PlanNode, Query};

use crate::env::Env;

/// All single-toggle variations of the default hint set.
fn single_toggles() -> Vec<HintSet> {
    let base = HintSet::all();
    let mut out = Vec::new();
    for i in 0..5 {
        let mut h = base;
        match i {
            0 => h.hash_join = false,
            1 => h.nested_loop = false,
            2 => h.merge_join = false,
            3 => h.index_scan = false,
            _ => h.seq_scan = false,
        }
        if h.is_valid() {
            out.push(h);
        }
    }
    out
}

fn merge(a: HintSet, b: HintSet) -> HintSet {
    HintSet {
        hash_join: a.hash_join && b.hash_join,
        nested_loop: a.nested_loop && b.nested_loop,
        merge_join: a.merge_join && b.merge_join,
        index_scan: a.index_scan && b.index_scan,
        seq_scan: a.seq_scan && b.seq_scan,
    }
}

/// Accepted arms cost at most this multiple of the default plan's
/// estimated cost.
const COST_CAP: f64 = 10.0;

/// Result of one discovery run.
#[derive(Clone, Debug)]
pub struct Discovery {
    /// The dynamically discovered arm collection (default first).
    pub arms: Vec<HintSet>,
    /// Hint-set probes that actually changed the plan.
    pub effective_toggles: usize,
}

/// Discovers a per-query hint-set collection.
///
/// Greedy, as in the paper: probe each single toggle; keep the ones that
/// change the plan and whose predicted cost does not explode; then try
/// merging pairs of kept toggles, keeping merges that again change the plan.
/// Accepted candidates cost at most [`COST_CAP`] times the default plan's
/// estimate (a cheap guard against obviously terrible arms).
pub fn discover_hint_sets(env: &Env, query: &Query) -> Discovery {
    let default_plan = env.expert_plan(query);
    let Some(default_plan) = default_plan else {
        return Discovery { arms: vec![HintSet::all()], effective_toggles: 0 };
    };
    let base_sig = default_plan.signature();
    let base_cost = default_plan.est_cost.max(1.0);
    let consider = |plan: &PlanNode| -> bool {
        plan.signature() != base_sig && plan.est_cost <= base_cost * COST_CAP
    };
    // Probe every single toggle, in toggle order, on the calling thread.
    let mut kept: Vec<HintSet> = Vec::new();
    let mut effective = 0usize;
    let toggles = single_toggles();
    for (&h, plan) in toggles.iter().zip(env.plan_with_hints(query, &toggles)) {
        if let Some(plan) = plan {
            if plan.signature() != base_sig {
                effective += 1;
                if plan.est_cost <= base_cost * COST_CAP {
                    kept.push(h);
                }
            }
        }
    }
    // Greedy merge phase: candidate pairs come only from the kept
    // singles, so the full candidate list is known up front.
    let singles = kept.clone();
    let mut pairs: Vec<HintSet> = Vec::new();
    for i in 0..singles.len() {
        for j in i + 1..singles.len() {
            let m = merge(singles[i], singles[j]);
            if m.is_valid() && !kept.contains(&m) && !pairs.contains(&m) {
                pairs.push(m);
            }
        }
    }
    for (&m, plan) in pairs.iter().zip(env.plan_with_hints(query, &pairs)) {
        if plan.is_some_and(|plan| consider(&plan)) {
            kept.push(m);
        }
    }
    let mut arms = vec![HintSet::all()];
    arms.extend(kept);
    Discovery { arms, effective_toggles: effective }
}

/// AutoSteer = Bao with per-query discovered arms.
pub struct AutoSteer {
    /// The underlying bandit (shared model across queries).
    pub bandit: crate::bao::Bao,
}

impl AutoSteer {
    /// Creates an AutoSteer instance.
    pub fn new() -> Self {
        Self { bandit: crate::bao::Bao::new(vec![HintSet::all()]) }
    }

    /// One step: discover arms for this query, select with Thompson
    /// sampling, execute, observe. Returns `(chosen arm, latency)`.
    pub fn step<R: rand::Rng + ?Sized>(
        &mut self,
        env: &Env,
        query: &Query,
        rng: &mut R,
    ) -> (HintSet, f64) {
        let discovery = discover_hint_sets(env, query);
        self.bandit.arms = discovery.arms;
        let choice = self.bandit.choose(env, query, rng);
        let arm = self.bandit.arms[choice.arm];
        let latency = env.run(query, &choice.plan);
        self.bandit.observe(&choice.plan, latency);
        (arm, latency)
    }
}

impl Default for AutoSteer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use ml4db_storage::{CmpOp, Database};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(51);
        let mut db = joblite_db(150, &[], &mut rng);
        db.add_index("title", "year");
        db
    }

    fn query() -> Query {
        Query::new(&["title", "cast_info", "person"])
            .join(0, "id", 1, "movie_id")
            .join(1, "person_id", 2, "id")
            .filter(0, "year", CmpOp::Ge, 2010.0)
    }

    #[test]
    fn discovery_finds_alternative_arms() {
        let db = db();
        let env = Env::new(&db);
        let d = discover_hint_sets(&env, &query());
        assert!(d.arms.len() >= 2, "no alternatives discovered");
        assert_eq!(d.arms[0], HintSet::all(), "default arm always first");
        assert!(d.effective_toggles >= 1);
        // All discovered arms are valid and plannable.
        for &arm in &d.arms {
            assert!(arm.is_valid());
            assert!(env.plan_with_hint(&query(), arm).is_some());
        }
    }

    #[test]
    fn merge_composes_restrictions() {
        let a = HintSet { hash_join: false, ..HintSet::all() };
        let b = HintSet { index_scan: false, ..HintSet::all() };
        let m = merge(a, b);
        assert!(!m.hash_join && !m.index_scan && m.nested_loop);
    }

    #[test]
    fn autosteer_runs_and_learns() {
        let db = db();
        let env = Env::new(&db);
        let mut auto = AutoSteer::new();
        let mut rng = StdRng::seed_from_u64(1);
        let q = query();
        for _ in 0..8 {
            auto.step(&env, &q, &mut rng);
        }
        assert!(auto.bandit.window_len() == 8);
        // Any individual step is a Thompson draw and may legitimately
        // explore a bad arm, so judge learning by the exploit policy:
        // after repeated exposure the greedy (posterior-mean) choice
        // should be no worse than the expert default.
        let greedy = auto.bandit.choose_greedy(&env, &q);
        let learned = env.run(&q, &greedy.plan);
        let expert = env.run(&q, &env.expert_plan(&q).unwrap());
        assert!(learned <= expert * 1.5, "autosteer {learned} vs expert {expert}");
    }
}
