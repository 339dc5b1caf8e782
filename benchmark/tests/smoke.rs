//! Runs the harness end to end at 1/100 of the body sizes and holds what
//! it prints against `BENCHMARK.json`: the two lists of metric names are
//! kept in different files, and a later change may edit neither, so they
//! must agree now.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// `(workload, metric) -> (value, unit)` from the lines `run` and `trace`
/// print, failing on a pair printed twice.
fn printed(form: &str) -> BTreeMap<(String, String), (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([form, "--smoke", "--seed", "7"])
        .output()
        .expect("running the harness");
    let stdout = String::from_utf8(out.stdout).expect("harness prints UTF-8");
    assert!(out.status.success(), "`{form} --smoke` failed:\n{stdout}");
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            [workload, "ops_failed", n] => assert_eq!(*n, "0", "{workload} failed operations"),
            [_, "ops_attempted", n] => assert!(n.parse::<u64>().unwrap() >= 1),
            [workload, metric, value, unit] => {
                let value: f64 = value.parse().expect("metric value is a number");
                let previous = metrics.insert(
                    (workload.to_string(), metric.to_string()),
                    (value, unit.to_string()),
                );
                assert!(previous.is_none(), "{workload} printed {metric} twice");
            }
            _ => panic!("unexpected line from `{form}`: {line}"),
        }
    }
    metrics
}

fn named(doc: &Value, section: &str) -> BTreeMap<String, String> {
    doc[section]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn check_section(
    printed: &BTreeMap<(String, String), (f64, String)>,
    workloads: &[String],
    named: &BTreeMap<String, String>,
) {
    for ((workload, metric), (value, unit)) in printed {
        assert!(workloads.contains(workload), "unknown workload {workload}");
        assert!(value.is_finite(), "{workload} {metric} is not finite");
        assert!(
            metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {metric} has a character outside [A-Za-z0-9_.-]"
        );
        assert_eq!(
            named.get(metric),
            Some(unit),
            "{metric}: BENCHMARK.json does not name it with unit {unit}"
        );
    }
    for workload in workloads {
        for metric in named.keys() {
            assert!(
                printed.contains_key(&(workload.clone(), metric.clone())),
                "{workload} did not print {metric}"
            );
        }
    }
}

#[test]
fn every_named_metric_is_printed_once_per_workload_and_no_other() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
        .expect("reading BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads.len(), 4);

    check_section(&printed("run"), &workloads, &named(&doc, "end_to_end"));
    check_section(&printed("trace"), &workloads, &named(&doc, "per_layer"));

    // Every stream file a run wrote is gone again.
    let leftovers: Vec<_> = std::fs::read_dir(manifest_dir.join("out"))
        .expect("the harness created its output directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stream files left behind: {leftovers:?}"
    );
}
