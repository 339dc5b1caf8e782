//! Metric names and units, and the result line a run ends with.
//!
//! `BENCHMARK.json` at the repository root names the same metrics with
//! their bounds; `tests/smoke.rs` holds the two lists together.

/// End-to-end metrics: reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("cpu_s_per_mevent", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: reported by every traced run. A metric whose layer
/// the workload's flow never enters is left unset and reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    // Spans in the ensemble workloads' own flow.
    ("core.pattern.build_s", "s"),
    ("core.resource.construct_s", "s"),
    ("core.resource.allocate_s", "s"),
    ("core.resource.run_s", "s"),
    ("core.resource.deallocate_s", "s"),
    ("core.resource.drop_s", "s"),
    ("core.run.eop.events_per_s", "events/s"),
    ("core.run.sal.events_per_s", "events/s"),
    // Spans in the serve workloads' own flow.
    ("workload.arrival.next_s", "s"),
    ("workload.arrival.count", "count"),
    ("workload.sink.write_s", "s"),
    ("workload.sink.writes", "count"),
    ("workload.sink.bytes", "bytes"),
    // Replay of the served sessions through the per-session pipeline.
    ("workload.arrival.build_pattern_s", "s"),
    ("core.resource.run_traced_s", "s"),
    ("core.trace_check.cross_check_s", "s"),
    ("sim.trace.to_jsonl_s", "s"),
    ("workload.runner.fnv64_s", "s"),
    ("workload.service.eval_cpu_s", "s"),
    ("workload.service.self_cpu_s", "s"),
    ("workload.service.eval_overlap", "ratio"),
    ("workload.service.sessions_per_s", "1/s"),
    // One-off comparisons.
    ("core.plugin_sim.parallel_speedup", "ratio"),
    ("core.run.eop_1m.events_per_s", "events/s"),
    ("core.run.eop_1m.sys_share", "ratio"),
    ("harness.trace_overhead_share", "ratio"),
    // Isolated probes.
    ("sim.event.hold_1k_ns", "ns"),
    ("sim.event.hold_100k_ns", "ns"),
    ("sim.event.fill_drain_ns", "ns"),
    ("sim.engine.dispatch_ns", "ns"),
    ("sim.trace.record_ns", "ns"),
    ("sim.trace.record_off_ns", "ns"),
    ("sim.trace.to_jsonl_ns_per_rec", "ns"),
    ("sim.pool.spawn_us", "us"),
    ("sim.pool.run_roundtrip_us", "us"),
    ("cluster.scheduler.select_fifo_us", "us"),
    ("cluster.scheduler.select_backfill_us", "us"),
    ("pilot.scheduler.assign_us", "us"),
    ("pilot.sim_runtime.units_per_s", "1/s"),
    ("core.session.tasks_per_s", "1/s"),
    ("core.trace_check.cross_check_ns_per_rec", "ns"),
    ("workload.trace.csv_parse_ns_per_row", "ns"),
    ("host.nproc", "count"),
    ("host.calib_mops", "Mops/s"),
];

/// Metric values of one run of one table.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the table"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Prints one readable line per metric of the table, then the result
/// object as the last line of standard output. Values are printed with
/// every digit measured; a metric the run never set (its layer is not on
/// the workload's path) reads 0.
pub fn print_result(metrics: &Metrics, attempted: u64, failed: u64) {
    let ordered: Vec<(&str, f64, &str)> = metrics
        .table
        .iter()
        .map(|(name, unit)| (*name, metrics.get(name).unwrap_or(0.0), *unit))
        .collect();
    for (name, value, unit) in &ordered {
        println!("metric {name} {value:?} {unit}");
    }
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed}");
    let body: Vec<String> = ordered
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
