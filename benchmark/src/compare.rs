//! `compare A.json B.json`: two sets of runs (files written by
//! `run --out` or `trace --out`), one row per workload and metric.
//!
//! For a metric `BENCHMARK.json` gives a bound, the row ends in a verdict:
//!
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `unresolved`: it is not, but either side's spread (the distance
//!   between its quartiles over its median) is wider than the bound, and
//!   it is not the case that every run of B reads better than every run
//!   of A;
//! - `ok`: otherwise.
//!
//! Per-layer metrics have no bound and get no verdict.

use crate::host;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Runs of one metric on one workload, in file order.
type Samples = BTreeMap<(String, String), (String, Vec<f64>)>;

fn load(path: &str) -> Samples {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut samples = Samples::new();
    for run in doc["runs"]
        .as_array()
        .unwrap_or_else(|| panic!("{path}: no runs"))
    {
        let workload = run["workload"].as_str().expect("run names its workload");
        let metrics = run["result"]["metrics"]
            .as_object()
            .expect("run has metrics");
        for (name, m) in metrics {
            let value = m["value"].as_f64().expect("metric has a value");
            let unit = m["unit"].as_str().expect("metric has a unit").to_string();
            samples
                .entry((workload.to_string(), name.clone()))
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    samples
}

/// Direction and bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (bool, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    doc["end_to_end"]
        .as_array()
        .expect("BENCHMARK.json lists end_to_end")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("name").to_string();
            let lower_is_better = m["better"].as_str() == Some("lower");
            (name, (lower_is_better, m["bound"].as_f64().expect("bound")))
        })
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so that spreads computed here match
/// the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance over the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    let median = host::median(&mut values.to_vec());
    match quartiles(values) {
        Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (ma, mb) = (host::median(&mut a.to_vec()), host::median(&mut b.to_vec()));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        return "worse";
    }
    let every_b_better = b.iter().all(|&y| {
        a.iter()
            .all(|&x| if lower_is_better { y < x } else { y > x })
    });
    if spread(a).max(spread(b)) > bound && !every_b_better {
        return "unresolved";
    }
    "ok"
}

/// Prints the comparison; returns whether no row is `worse` or
/// `unresolved`.
pub fn run(path_a: &str, path_b: &str) -> bool {
    let (a, b) = (load(path_a), load(path_b));
    let bounds = bounds();
    println!(
        "{:<18} {:<40} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "iqr A", "iqr B"
    );
    let mut clean = true;
    for ((workload, metric), (unit, va)) in &a {
        let Some((_, vb)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (host::median(&mut va.clone()), host::median(&mut vb.clone()));
        let verdict = match bounds.get(metric) {
            Some(&(lower, bound)) => verdict(va, vb, lower, bound),
            None => "-",
        };
        clean &= matches!(verdict, "ok" | "-");
        let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
        println!(
            "{workload:<18} {:<40} {ma:>14.6} {mb:>14.6} {ratio:>8.4} {:>6.1}% {:>6.1}%  {verdict}",
            format!("{metric} [{unit}]"),
            100.0 * spread(va),
            100.0 * spread(vb),
        );
    }
    println!(
        "B/A is B's median over A's median; iqr is (q3 - q1) / median over the runs of one side"
    );
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&steady, &steady, true, 0.1), "ok");
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&steady, &slower, true, 0.1), "worse");
        assert_eq!(verdict(&steady, &slower, false, 0.1), "ok");
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&noisy, &steady, true, 0.1), "unresolved");
    }
}
