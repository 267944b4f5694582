//! Names and units of every metric the benchmark reports — the same
//! lists `BENCHMARK.json` declares (a unit test keeps them equal).
//!
//! A traced run reports *every* per-layer metric; a layer the workload
//! never crosses reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with the tracer off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("p50_us", "us"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve
    ("serve.admission.offer_ns", "ns"),
    ("serve.admission.pop_ns", "ns"),
    ("serve.submit_ns", "ns"),
    ("serve.take_ns", "ns"),
    ("serve.handoff_us", "us"),
    ("serve.open.slo_rate_per_s", "1/s"),
    ("serve.open.p99_us", "us"),
    ("serve.open.shed_rate", "ratio"),
    ("serve.open.gen_lag_us", "us"),
    // plan
    ("plan.validate_ns", "ns"),
    ("plan.cache.key_ns", "ns"),
    ("plan.cache.hit_ns", "ns"),
    ("plan.cache.hit_rate", "ratio"),
    ("plan.cache.entries", "count"),
    ("plan.enumerate.best_plan_ns", "ns"),
    ("plan.cost.cost_plan_ns", "ns"),
    ("plan.executor.execute_ns", "ns"),
    ("plan.executor.share", "ratio"),
    ("plan.executor.rows_out", "count"),
    ("plan.executor.sim_us", "us"),
    // optimizer
    ("optimizer.session.memo_hit_ns", "ns"),
    ("optimizer.session.memo_hit_rate", "ratio"),
    ("optimizer.bao.choose_ns", "ns"),
    ("optimizer.bao.features_ns", "ns"),
    ("optimizer.expert_latency_ns", "ns"),
    // nn, card, guard
    ("nn.blr.predict_ns", "ns"),
    ("card.mscn.estimate_ns", "ns"),
    ("card.classic.estimate_ns", "ns"),
    ("card.mscn.calls_per_plan", "count"),
    ("guard.steering.overhead_ns", "ns"),
    ("guard.steering.trips", "count"),
    ("guard.estimator.fallback_rate", "ratio"),
    // the learned path against its classical baseline (learned_plan)
    ("learned.inference_share", "ratio"),
    ("learned.wall_ratio_vs_classical", "ratio"),
    ("learned.sim_cost_ratio", "ratio"),
    // index, storage
    ("storage.lindex.probe_ns", "ns"),
    ("index.pgm.get_ns", "ns"),
    ("index.btree.get_ns", "ns"),
    ("index.pgm_over_btree", "ratio"),
    ("storage.durable.put_ns", "ns"),
    ("storage.durable.commit_us", "us"),
    ("storage.durable.flush_ms", "ms"),
    ("storage.durable.wal_bytes_per_put", "B"),
    ("storage.durable.fsyncs_per_commit", "count"),
    ("storage.durable.get_ns", "ns"),
    ("storage.durable.run_get_ns", "ns"),
    ("storage.durable.run_get_unindexed_ns", "ns"),
    ("storage.durable.runs", "count"),
    ("storage.durable.runs_probed_per_get", "count"),
    ("storage.durable.recover_ms", "ms"),
    ("storage.durable.write_amp", "ratio"),
    ("storage.durable.fs_commit_us", "us"),
    // the latency tail, demoted from end-to-end (see README)
    ("tail.p99_us", "us"),
    ("tail.percentile", "%"),
    // obs, par, the benchmark itself
    ("obs.collect_overhead_ratio", "ratio"),
    ("par.threads", "count"),
    ("bench.worker_threads", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_floor_ns", "ns"),
];

/// Values for the per-layer metrics one traced run measured.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a name [`PER_LAYER`] does not declare, or a non-finite
    /// value: both are harness bugs that must not reach the output.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared layer metric {name}"
        );
        assert!(value.is_finite(), "layer metric {name} is {value}");
        self.0.insert(name, value);
    }

    /// Every declared metric with its unit; unmeasured ones read 0.
    pub fn all(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &serde_json::Value) -> Vec<(String, String)> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc["end_to_end"]), own(END_TO_END));
        assert_eq!(declared(&doc["per_layer"]), own(PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn unmeasured_layers_read_zero() {
        let mut v = LayerValues::default();
        v.set("par.threads", 2.0);
        let all = v.all();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.iter().all(|&(n, _, x)| if n == "par.threads" {
            x == 2.0
        } else {
            x == 0.0
        }));
    }
}
