//! The metric names this benchmark prints, in print order. `BENCHMARK.json`
//! at the repo root lists the same names (a unit test holds the two
//! together); README.md says what each means and what should move it.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = [
    "engine_single",
    "engine_fleet",
    "wire_steady",
    "wire_saturate",
];

/// `(name, unit)`.
pub type Metric = (&'static str, &'static str);

/// What a user of the system sees. Every workload
/// reports every one of them, and none can read 0.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("points_per_sec", "1/s"),
    ("label_p50_us", "us"),
    ("label_p90_us", "us"),
    ("f1", "ratio"),
    ("bytes_per_session", "B"),
    ("rss_peak_mb", "MB"),
];

/// The single-layer readings of a traced run. A layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    ("nn.gate_matvec_ns", "ns"),
    ("nn.lstm_step_ns", "ns"),
    ("nn.gate_gemm_ns_per_lane", "ns"),
    ("nn.lstm_step_batch_ns_per_lane", "ns"),
    ("nn.gflops", "GFLOP/s"),
    ("engine.observe_ns_p50", "ns"),
    ("engine.observe_ns_p99", "ns"),
    ("engine.open_ns_p50", "ns"),
    ("engine.close_ns_p50", "ns"),
    ("engine.tick_ns_per_point_p50", "ns"),
    ("engine.batched_share", "ratio"),
    ("engine.lanes_per_round", "count"),
    ("engine.policy_share", "ratio"),
    ("engine.non_nn_share", "ratio"),
    ("engine.allocs_per_kpoint", "count"),
    ("door.submit_call_ns_p50", "ns"),
    ("door.label_p50_us", "us"),
    ("door.label_p90_us", "us"),
    ("door.mean_flush_batch", "count"),
    ("door.flushes_per_kpoint", "count"),
    ("door.queue_full_retries", "count"),
    ("door.points_per_sec", "1/s"),
    ("door.worker_cpu_us_per_point", "us"),
    ("proto.encode_ns_per_frame", "ns"),
    ("proto.decode_ns_per_frame", "ns"),
    ("proto.bytes_per_point", "B"),
    ("wire.label_p99_us", "us"),
    ("wire.label_raw_p99_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.conn_cpu_us_per_point", "us"),
    ("serve.pump_cpu_us_per_point", "us"),
    ("serve.pump_wakeups_per_kpoint", "count"),
    ("load.client_cpu_us_per_point", "us"),
    ("proc.cpu_us_per_point", "us"),
    ("waterfall.engine_us", "us"),
    ("waterfall.door_wait_us", "us"),
    ("waterfall.transport_us", "us"),
    ("setup.world_s", "s"),
    ("setup.train_s", "s"),
    ("setup.trace_s", "s"),
    ("setup.system_s", "s"),
    ("host.ref_ms", "ms"),
    ("host.raw_points_per_sec", "1/s"),
    ("host.steal_pct", "%"),
    ("host.clean_window_share", "ratio"),
    ("host.degraded", "count"),
    ("load.late_p99_us", "us"),
    ("load.sent_per_sec", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("check.fail_share", "ratio"),
];

/// Readings of one run, by name.
#[derive(Default)]
pub struct Readings(BTreeMap<&'static str, f64>);

impl Readings {
    /// # Panics
    /// On a name neither table knows: a typo must not vanish silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` of every reading that was set and is not in
    /// `table`, in the order of the tables.
    pub fn besides(&self, table: &[Metric]) -> Vec<(&'static str, f64, &'static str)> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|m| !table.contains(m))
            .filter_map(|&(name, unit)| Some((name, self.get(name)?, unit)))
            .collect()
    }

    /// `(name, value, unit)` for every name of `table`, in table order.
    /// Per-layer names nothing set read 0 (layer not exercised).
    ///
    /// # Panics
    /// If an end-to-end name was not set, or reads 0 or non-finite: those
    /// are promised for every workload.
    pub fn emit(&self, table: &'static [Metric]) -> Vec<(&'static str, f64, &'static str)> {
        let gated = table == END_TO_END;
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.0.get(name) {
                    Some(&v) => v,
                    None if gated => panic!("end-to-end metric {name} was not measured"),
                    None => 0.0,
                };
                assert!(value.is_finite(), "{name} is not finite");
                assert!(!gated || value != 0.0, "end-to-end metric {name} read 0");
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn emit_fills_unexercised_layers_with_zero() {
        let mut r = Readings::default();
        r.set("nn.gflops", 20.5);
        let rows = r.emit(PER_LAYER);
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("nn.gflops", 20.5, "GFLOP/s")));
        assert!(rows.contains(&("door.mean_flush_batch", 0.0, "count")));
        // What was set outside a table is what is printed besides it.
        assert_eq!(r.besides(END_TO_END), vec![("nn.gflops", 20.5, "GFLOP/s")]);
        assert!(r.besides(PER_LAYER).is_empty());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        Readings::default().emit(END_TO_END);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn a_misspelt_name_is_a_bug() {
        Readings::default().set("points_per_second", 1.0);
    }
}
