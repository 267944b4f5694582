//! Bao-style hint sets \[27\]: per-query switches that disable classes of
//! physical operators, steering the classical planner toward alternative
//! complete plans. The bandit optimizer's arms are exactly these.

use serde::{Deserialize, Serialize};

use crate::plan::{JoinAlgo, ScanAlgo};

/// Join algorithms in the order every planner tries them. The planners
/// keep a candidate only when it is strictly cheaper, so among equally
/// cheap algorithms the earliest here wins.
pub const JOIN_ORDER: [JoinAlgo; 3] = [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge];

/// A hint set: which operator classes the planner may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HintSet {
    /// Allow hash joins.
    pub hash_join: bool,
    /// Allow nested-loop joins.
    pub nested_loop: bool,
    /// Allow sort-merge joins.
    pub merge_join: bool,
    /// Allow index scans.
    pub index_scan: bool,
    /// Allow sequential scans.
    pub seq_scan: bool,
}

impl Default for HintSet {
    fn default() -> Self {
        Self::all()
    }
}

impl HintSet {
    /// Everything enabled (the optimizer's default behaviour).
    pub fn all() -> Self {
        Self {
            hash_join: true,
            nested_loop: true,
            merge_join: true,
            index_scan: true,
            seq_scan: true,
        }
    }

    /// True when at least one join algorithm and one scan algorithm remain —
    /// a hint set that disables everything can't produce plans.
    pub fn is_valid(self) -> bool {
        (self.hash_join || self.nested_loop || self.merge_join)
            && (self.index_scan || self.seq_scan)
    }

    /// Everything either hint set allows.
    pub fn union(self, other: HintSet) -> HintSet {
        HintSet {
            hash_join: self.hash_join || other.hash_join,
            nested_loop: self.nested_loop || other.nested_loop,
            merge_join: self.merge_join || other.merge_join,
            index_scan: self.index_scan || other.index_scan,
            seq_scan: self.seq_scan || other.seq_scan,
        }
    }

    /// Whether this hint set allows join algorithm `algo`.
    pub fn allows_join(self, algo: JoinAlgo) -> bool {
        match algo {
            JoinAlgo::Hash => self.hash_join,
            JoinAlgo::NestedLoop => self.nested_loop,
            JoinAlgo::SortMerge => self.merge_join,
        }
    }

    /// Whether this hint set allows scan algorithm `algo`.
    pub fn allows_scan(self, algo: ScanAlgo) -> bool {
        match algo {
            ScanAlgo::Seq => self.seq_scan,
            ScanAlgo::Index => self.index_scan,
        }
    }

    /// Join algorithms this hint set allows, in [`JOIN_ORDER`].
    pub fn allowed_joins(self) -> Vec<JoinAlgo> {
        JOIN_ORDER.into_iter().filter(|&algo| self.allows_join(algo)).collect()
    }

    /// Scan algorithms this hint set allows.
    pub fn allowed_scans(self) -> Vec<ScanAlgo> {
        let scans = [ScanAlgo::Seq, ScanAlgo::Index];
        scans.into_iter().filter(|&algo| self.allows_scan(algo)).collect()
    }

    /// A short stable label, e.g. `"hj+nl+mj/idx+seq"`.
    pub fn label(self) -> String {
        let mut joins = Vec::new();
        if self.hash_join {
            joins.push("hj");
        }
        if self.nested_loop {
            joins.push("nl");
        }
        if self.merge_join {
            joins.push("mj");
        }
        let mut scans = Vec::new();
        if self.index_scan {
            scans.push("idx");
        }
        if self.seq_scan {
            scans.push("seq");
        }
        format!("{}/{}", joins.join("+"), scans.join("+"))
    }

    /// Packs the hint set into its canonical 5-bit integer (the inverse
    /// of the enumeration order in [`all_hint_sets`]); used to fold hints
    /// into plan-cache keys.
    pub fn bits(self) -> u8 {
        (self.hash_join as u8)
            | (self.nested_loop as u8) << 1
            | (self.merge_join as u8) << 2
            | (self.index_scan as u8) << 3
            | (self.seq_scan as u8) << 4
    }

    /// Encodes the hint set as a 5-bit feature vector (Bao's arm features).
    pub fn features(self) -> [f32; 5] {
        [
            self.hash_join as u8 as f32,
            self.nested_loop as u8 as f32,
            self.merge_join as u8 as f32,
            self.index_scan as u8 as f32,
            self.seq_scan as u8 as f32,
        ]
    }
}

/// Enumerates every valid hint set (the exhaustive arm space AutoSteer
/// explores; 21 of the 32 combinations are valid).
pub fn all_hint_sets() -> Vec<HintSet> {
    let mut out = Vec::new();
    for bits in 0u8..32 {
        let h = HintSet {
            hash_join: bits & 1 != 0,
            nested_loop: bits & 2 != 0,
            merge_join: bits & 4 != 0,
            index_scan: bits & 8 != 0,
            seq_scan: bits & 16 != 0,
        };
        if h.is_valid() {
            out.push(h);
        }
    }
    out
}

/// The hand-crafted arm collection in the spirit of Bao's hint sets — six
/// arms: the default, four single-operator-class restrictions that
/// commonly fix optimizer mistakes, and hash-join-only.
pub fn bao_arms() -> Vec<HintSet> {
    vec![
        HintSet::all(),
        HintSet { nested_loop: false, ..HintSet::all() },
        HintSet { hash_join: false, ..HintSet::all() },
        HintSet { merge_join: false, ..HintSet::all() },
        HintSet { index_scan: false, ..HintSet::all() },
        HintSet { nested_loop: false, merge_join: false, ..HintSet::all() },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_hint_sets_are_valid_and_complete() {
        let sets = all_hint_sets();
        assert_eq!(sets.len(), 21, "7 join combos x 3 scan combos");
        assert!(sets.iter().all(|h| h.is_valid()));
        assert!(sets.contains(&HintSet::all()));
    }

    #[test]
    fn invalid_sets_rejected() {
        let no_joins = HintSet {
            hash_join: false,
            nested_loop: false,
            merge_join: false,
            ..HintSet::all()
        };
        assert!(!no_joins.is_valid());
        let no_scans =
            HintSet { index_scan: false, seq_scan: false, ..HintSet::all() };
        assert!(!no_scans.is_valid());
    }

    #[test]
    fn bao_arms_valid_and_distinct() {
        let arms = bao_arms();
        assert!(arms.iter().all(|h| h.is_valid()));
        let labels: std::collections::BTreeSet<String> =
            arms.iter().map(|h| h.label()).collect();
        assert_eq!(labels.len(), arms.len(), "duplicate arms");
    }

    #[test]
    fn features_roundtrip_label() {
        let h = HintSet { nested_loop: false, ..HintSet::all() };
        assert_eq!(h.features(), [1.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(h.label(), "hj+mj/idx+seq");
    }
}
