//! `entk check` must reject what `entk run` / `entk serve` reject, with the
//! same message, and keep accepting every spec shipped in `examples/specs/`.

use entk_cli::WorkloadSpec;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A spec both subcommands accept; each test breaks exactly one field.
fn valid_spec() -> Value {
    json!({
        "resource": { "name": "xsede.comet", "cores": 4, "walltime_secs": 100000 },
        "backend": "simulated",
        "pattern": { "kind": "bag", "n": 2,
                     "kernel": { "plugin": "misc.sleep", "args": { "secs": 1.0 } } }
    })
}

fn entk(subcommand: &str, spec: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_entk"))
        .arg(subcommand)
        .arg(spec)
        .output()
        .expect("entk binary runs")
}

/// Writes spec text under a per-test name (tests run in parallel).
fn write_spec(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("check-{name}.json"));
    std::fs::write(&path, text).expect("spec file writes");
    path
}

/// `check` fails with `needle` in its message — the very message the verb
/// that runs the document (`serve` for a stream spec, else `run`) stops on,
/// before printing anything, when it stops at all.
fn assert_rejected(name: &str, spec: &Value, needle: &str, run_agrees: bool) {
    assert_text_rejected(name, &spec.to_string(), needle, run_agrees);
}

/// [`assert_rejected`] for a spec given as text, where line numbers matter.
/// Returns the message for further checks.
fn assert_text_rejected(name: &str, text: &str, needle: &str, run_agrees: bool) -> String {
    let path = write_spec(name, text);
    let check = entk("check", &path);
    let message = String::from_utf8_lossy(&check.stderr).into_owned();
    assert!(!check.status.success(), "check accepted {name}");
    assert!(message.contains(needle), "{name}: {message}");
    if run_agrees {
        let stream =
            serde_json::from_str::<Value>(text).is_ok_and(|doc| doc.get("source").is_some());
        let run = entk(if stream { "serve" } else { "run" }, &path);
        assert!(!run.status.success(), "{name} ran");
        assert!(run.stdout.is_empty(), "{name} printed a report");
        assert_eq!(message, String::from_utf8_lossy(&run.stderr), "{name}");
    }
    message
}

#[test]
fn valid_spec_checks_ok() {
    let check = entk("check", &write_spec("valid", &valid_spec().to_string()));
    assert!(check.status.success());
    assert_eq!(
        String::from_utf8_lossy(&check.stdout),
        "ok: bag-of-tasks on xsede.comet (4 cores, backend simulated)\n"
    );
}

#[test]
fn unknown_backend_is_rejected() {
    let mut spec = valid_spec();
    spec["backend"] = json!("cloud");
    assert_rejected("backend", &spec, "unknown backend \"cloud\"", true);
}

#[test]
fn unknown_resource_is_rejected() {
    let mut spec = valid_spec();
    spec["resource"]["name"] = json!("xsede.nowhere");
    assert_rejected(
        "resource",
        &spec,
        "unknown resource \"xsede.nowhere\"",
        true,
    );
    // Federation members resolve too, not just the first resource.
    let mut spec = valid_spec();
    spec["backend"] = json!("federated");
    spec["federation"] = json!([{ "name": "xsede.nowhere", "cores": 4, "walltime_secs": 100 }]);
    assert_rejected("member", &spec, "unknown resource \"xsede.nowhere\"", true);
}

#[test]
fn out_of_range_core_count_is_rejected() {
    for (name, cores) in [("cores-big", 999_999), ("cores-zero", 0)] {
        let mut spec = valid_spec();
        spec["resource"]["cores"] = json!(cores);
        let needle = format!("requested {cores} cores; xsede.comet has");
        assert_rejected(name, &spec, &needle, true);
    }
}

#[test]
fn unknown_scheduler_is_rejected() {
    let mut spec = valid_spec();
    spec["tuning"] = json!({ "batch_policy": "priority" });
    assert_rejected(
        "scheduler",
        &spec,
        "unknown scheduler \"priority\" (registered:",
        true,
    );
}

#[test]
fn unknown_kernel_plugin_is_rejected() {
    // `run` used to go through and fail every task of the stage; the
    // loader refuses the template, so both stop on the registry's message.
    let mut spec = valid_spec();
    spec["pattern"]["kernel"]["plugin"] = json!("misc.nope");
    assert_rejected(
        "kernel",
        &spec,
        "unknown kernel plugin \"misc.nope\" (registered:",
        true,
    );
    let mut spec = valid_spec();
    spec["pattern"] = json!({
        "kind": "sal", "iterations": 1, "sims": 2,
        "simulation": { "plugin": "misc.sleep", "args": { "secs": 1.0 } },
        "analysis": { "plugin": "ana.nope" }
    });
    assert_rejected(
        "kernel-sal",
        &spec,
        "unknown kernel plugin \"ana.nope\"",
        true,
    );
}

fn example_spec(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(file);
    std::fs::read_to_string(path).expect("example spec reads")
}

/// A misspelt key used to be ignored, so `run` ran a different experiment
/// than the file describes. It fails with the key and its line, at top
/// level and in every nested object, and lists the key that was meant.
#[test]
fn typoed_keys_are_rejected_with_their_line() {
    let spec = example_spec("busy_machine.json");
    for (key, typo, line) in [
        ("tuning", "tunning", 5),
        ("seed", "sead", 4),
        ("pilots", "pilotz", 7),
        ("walltime_secs", "walltime", 2),
        ("runtime_secs", "runtime_sec", 12),
        ("n", "count", 18),
        ("plugin", "plugn", 19),
    ] {
        let text = spec.replace(&format!("\"{key}\""), &format!("\"{typo}\""));
        assert_ne!(text, spec, "{key} occurs in the example");
        let needle = format!("workload spec line {line}: unknown key \"{typo}\" (known keys: ");
        let message = assert_text_rejected(typo, &text, &needle, true);
        let known = message.split("known keys: ").nth(1).unwrap_or_default();
        assert!(known.contains(key), "{typo}: {message}");
    }
}

/// `check` and `serve` refuse values that can only be mistakes with the
/// same line-numbered usage error, before serving (and printing) anything.
/// `check` used to say `ok:` to a zero slot count, a zero queue bound and
/// a federation of fewer than two, and `serve` then failed with no line.
#[test]
fn stream_spec_mistakes_are_refused_before_serving() {
    let spec = example_spec("stream_poisson.json");
    let seed_line = "\"seed\": 42,\n";
    let after_seed = |line: &str| (seed_line, format!("{seed_line}  {line},\n"));
    let federated = |members: usize| {
        (
            "\"backend\": \"simulated\"",
            format!("\"backend\": \"federated\",\n  \"members\": {members}"),
        )
    };
    for (name, (from, to), needle) in [
        (
            "rate-high",
            after_seed("\"unit_failure_rate\": 2.0"),
            "workload spec line 3: unit_failure_rate must be a probability in [0, 1], got 2",
        ),
        (
            "rate-negative",
            after_seed("\"unit_failure_rate\": -1.0"),
            "workload spec line 3: unit_failure_rate must be a probability in [0, 1], got -1",
        ),
        (
            "half-life",
            after_seed("\"half_life_secs\": -60.0"),
            "workload spec line 3: half_life_secs must be finite and >= 0, got -60",
        ),
        (
            "fair-half-life",
            after_seed(
                "\"policy\": { \"name\": \"fair\", \"params\": { \"half_life_secs\": -60.0 } }",
            ),
            "workload spec line 3: half_life_secs must be finite and >= 0, got -60",
        ),
        (
            "resource",
            ("\"xsede.stampede\"", "\"nope\"".to_string()),
            "workload spec line 3: unknown resource \"nope\" (known platforms: xsede.comet,",
        ),
        (
            "slots-zero",
            ("\"slots\": 4", "\"slots\": 0".to_string()),
            "workload spec line 4: slots must be >= 1",
        ),
        (
            "queue-depth-zero",
            after_seed("\"max_queue_depth\": 0"),
            "workload spec line 3: max_queue_depth must be >= 1",
        ),
        (
            "members-zero",
            federated(0),
            "workload spec line 6: federated stream backend needs at least 2 members",
        ),
        (
            "members-one",
            federated(1),
            "workload spec line 6: federated stream backend needs at least 2 members",
        ),
        // A gap the arrival clock cannot hold used to saturate it: every
        // session arrived at the last instant, finishing before it started.
        (
            "gap-huge",
            (
                "\"mean_interarrival_secs\": 30.0",
                "\"mean_interarrival_secs\": 1e300".to_string(),
            ),
            "workload spec line 10: mean_interarrival_secs must be finite, > 0 and below \
             1.8e13 s, got 1e300",
        ),
        (
            "gap-infinite",
            (
                "\"mean_interarrival_secs\": 30.0",
                "\"mean_interarrival_secs\": 1e309".to_string(),
            ),
            "workload spec line 10: mean_interarrival_secs must be finite, > 0 and below \
             1.8e13 s, got inf",
        ),
    ] {
        let text = spec.replace(from, &to);
        assert_ne!(text, spec, "{from:?} occurs in the example");
        let message = assert_text_rejected(name, &text, needle, true);
        assert!(
            message.starts_with("error: usage error: "),
            "{name}: {message}"
        );
    }
}

/// An empty pattern or an impossible temperature ladder used to reach the
/// pattern constructors' asserts: exit 101 and a backtrace from both
/// subcommands. The loader refuses each as one line-numbered usage error.
#[test]
fn degenerate_patterns_are_usage_errors_not_panics() {
    let kernel = json!({ "plugin": "misc.sleep", "args": { "secs": 1.0 } });
    let sal = |iterations: usize, sims: usize| {
        json!({ "kind": "sal", "iterations": iterations, "sims": sims,
                "simulation": kernel.clone(), "analysis": kernel.clone() })
    };
    let exchange = |replicas: usize, cycles: usize, t_min: f64, t_max: f64| {
        json!({ "kind": "exchange", "replicas": replicas, "cycles": cycles,
                "t_min": t_min, "t_max": t_max, "kernel": kernel.clone() })
    };
    let cases = [
        (
            "bag-empty",
            json!({ "kind": "bag", "n": 0, "kernel": kernel.clone() }),
            "n must be at least 1, got 0",
        ),
        (
            "pipelines-empty",
            json!({ "kind": "pipelines", "n": 0, "stages": [kernel.clone()] }),
            "n must be at least 1, got 0",
        ),
        (
            "stages-empty",
            json!({ "kind": "pipelines", "n": 2, "stages": [] }),
            "stages must list at least one kernel",
        ),
        (
            "iterations-zero",
            sal(0, 2),
            "iterations must be at least 1, got 0",
        ),
        ("sims-zero", sal(1, 0), "sims must be at least 1, got 0"),
        (
            "replicas-zero",
            exchange(0, 1, 1.0, 2.0),
            "replicas must be at least 1, got 0",
        ),
        (
            "cycles-zero",
            exchange(2, 0, 1.0, 2.0),
            "cycles must be at least 1, got 0",
        ),
        (
            "ladder-inverted",
            exchange(2, 1, 2.0, 1.0),
            "t_max must be finite and above t_min (2), got 1",
        ),
        (
            "ladder-flat",
            exchange(2, 1, 2.0, 2.0),
            "t_max must be finite and above t_min (2), got 2",
        ),
        (
            "t-min-zero",
            exchange(2, 1, 0.0, 2.0),
            "t_min must be finite and > 0, got 0",
        ),
        (
            "t-min-negative",
            exchange(2, 1, -1.0, 2.0),
            "t_min must be finite and > 0, got -1",
        ),
        // 1e999 parses to infinity; a JSON value cannot hold it, so the
        // placeholder is swapped in the text.
        (
            "t-max-infinite",
            exchange(2, 1, 1.0, 12345.0),
            "t_max must be finite and above t_min (1), got inf",
        ),
        (
            "t-min-infinite",
            exchange(2, 1, 12345.0, 2.0),
            "t_min must be finite and > 0, got inf",
        ),
    ];
    for (name, pattern, needle) in cases {
        let mut spec = valid_spec();
        spec["pattern"] = pattern;
        let text = spec.to_string().replace("12345.0", "1e999");
        let needle = format!("error: usage error: workload spec line 1: {needle}\n");
        let message = assert_text_rejected(name, &text, &needle, true);
        assert_eq!(message, needle, "{name}: one line, no backtrace");
    }
}

/// Values `check` used to pass and `run` then broke on: with a zero wall
/// time the simulation drained before the pilot was up (a failed
/// `debug_assert` in a debug build), zero-gap background arrivals never let
/// virtual time advance (`run` never returned), and a negative or infinite
/// queue wait ran as no wait at all. The loader refuses each.
#[test]
fn impossible_resource_and_tuning_values_are_usage_errors() {
    let member =
        |walltime: u64| json!({ "name": "xsede.stampede", "cores": 4, "walltime_secs": walltime });
    let background = |interarrival: f64, cores: usize, runtime: f64| {
        json!({ "background": { "mean_interarrival_secs": interarrival, "cores": cores,
                                "runtime_secs": runtime } })
    };
    let cases = [
        (
            "walltime-zero",
            json!({ "resource": { "name": "xsede.comet", "cores": 4, "walltime_secs": 0 } }),
            "walltime_secs must be at least 1, got 0",
        ),
        (
            "member-walltime-zero",
            json!({ "backend": "federated", "federation": [member(100), member(0)] }),
            "federation[1].walltime_secs must be at least 1, got 0",
        ),
        (
            "interarrival-zero",
            json!({ "tuning": background(0.0, 8, 60.0) }),
            "mean_interarrival_secs must be finite and > 0, got 0",
        ),
        (
            "interarrival-infinite",
            json!({ "tuning": background(12345.0, 8, 60.0) }),
            "mean_interarrival_secs must be finite and > 0, got inf",
        ),
        (
            "runtime-zero",
            json!({ "tuning": background(30.0, 8, 0.0) }),
            "runtime_secs must be finite and > 0, got 0",
        ),
        (
            "background-cores-zero",
            json!({ "tuning": background(30.0, 0, 60.0) }),
            "background.cores must be at least 1, got 0",
        ),
        (
            "queue-wait-negative",
            json!({ "tuning": { "queue_wait_per_core": -1.0 } }),
            "queue_wait_per_core must be finite and >= 0, got -1",
        ),
        (
            "queue-wait-infinite",
            json!({ "tuning": { "queue_wait_per_core": 12345.0 } }),
            "queue_wait_per_core must be finite and >= 0, got inf",
        ),
        // The fork service asserts on it, so the loader has to refuse first.
        (
            "local-cores-zero",
            json!({ "backend": "local",
                    "resource": { "name": "xsede.comet", "cores": 0, "walltime_secs": 100 } }),
            "resource.cores must be at least 1, got 0",
        ),
    ];
    for (name, overrides, needle) in cases {
        let mut spec = valid_spec();
        for (key, value) in overrides.as_object().expect("overrides are an object") {
            spec[key.as_str()] = value.clone();
        }
        // As above: 1e999 parses to infinity, which a JSON value cannot hold.
        let text = spec.to_string().replace("12345.0", "1e999");
        let needle = format!("error: usage error: workload spec line 1: {needle}\n");
        let message = assert_text_rejected(name, &text, &needle, true);
        assert_eq!(message, needle, "{name}: one line, no backtrace");
    }
    // The line is the key's own.
    let text = example_spec("busy_machine.json").replace("120.0", "0.0");
    let needle = "workload spec line 10: mean_interarrival_secs must be finite and > 0, got 0";
    assert_text_rejected("interarrival-line", &text, needle, true);
}

fn entk_in(dir: &Path, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_entk"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("entk binary runs")
}

/// A top-level `"source"` makes a document a stream spec: `check` resolves
/// what `serve` resolves (and opens no sink file), `run` names the verb
/// that serves it.
#[test]
fn stream_specs_go_through_the_stream_loader() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check-stream");
    for (file, summary) in [
        (
            "serve_stream.json",
            "ok: stream of synthetic arrivals on xsede.stampede \
             (simulated, 2 slots, fair-share admission)\n",
        ),
        (
            "stream_poisson.json",
            "ok: stream of poisson arrivals on xsede.stampede \
             (simulated, 4 slots, fifo admission)\n",
        ),
        (
            "grid_registry.json",
            "ok: stream of burst arrivals on xsede.stampede \
             (simulated, 4 slots, fair-share admission)\n",
        ),
    ] {
        let path = specs.join(file);
        let check = entk_in(&dir, &["check", path.to_str().expect("utf-8 path")]);
        assert!(
            check.status.success(),
            "{file}: {}",
            String::from_utf8_lossy(&check.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&check.stdout), summary);
    }
    let left_behind = std::fs::read_dir(&dir).expect("scratch directory").count();
    assert_eq!(left_behind, 0, "check opened a sink file");

    // A stream spec's mistakes reach `check` with the stream loader's words.
    let text = example_spec("serve_stream.json").replace("\"fair\"", "\"fare\"");
    let message = assert_text_rejected("stream-policy", &text, "workload spec line 6: ", true);
    assert!(
        message.contains("unknown admission policy \"fare\""),
        "{message}"
    );
}

#[test]
fn run_names_a_stream_spec_instead_of_its_first_unknown_key() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/serve_stream.json");
    let run = entk("run", &path);
    let message = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success());
    assert!(run.stdout.is_empty(), "nothing was served");
    assert!(
        message.contains("is a stream spec")
            && message.contains("`entk serve`")
            && !message.contains("--workload"),
        "{message}"
    );
    assert!(!message.contains("unknown key"), "{message}");
    // And the other way round.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/charcount.json");
    let serve = entk("serve", &path);
    let message = String::from_utf8_lossy(&serve.stderr);
    assert!(!serve.status.success() && serve.stdout.is_empty());
    assert!(
        message.contains("is a single-session spec") && message.contains("`entk run`"),
        "{message}"
    );
}

/// Mistakes that loaded, printed `ok:` and then ran with the default they
/// were meant to replace (or failed every task): a misspelt key below the
/// first level, a kernel argument its plugin does not declare, mistypes or
/// cannot mean, a key the backend does not read. `check` and the verb that runs the document refuse each
/// with the mistake's own line — and, for a key, the keys its struct
/// declares, in declaration order — and produce nothing.
#[test]
fn nested_mistakes_are_refused_by_check_and_by_the_verb_that_runs_them() {
    let stream = example_spec("grid_registry.json");
    let session = example_spec("busy_machine.json");
    let pipelines = example_spec("charcount.json");
    let exchange = example_spec("remd.json");
    let edit = |text: &str, from: &str, to: &str| {
        let edited = text.replace(from, to);
        assert_ne!(edited, text, "{from:?} occurs in the example");
        edited
    };
    let unknown = |key: &str, known: &str| format!("unknown key \"{key}\" (known keys: {known})");
    let md_keys = "n_atoms, steps, temperature, seed, record_every, start";
    let bad_secs = |got: &str| {
        format!("kernel \"misc.sleep\": secs must be finite, >= 0 and below 1.8e13 s, got {got}")
    };
    let period = |secs: &str| {
        edit(
            &stream,
            "\"period_secs\": 120.0",
            &format!("\"period_secs\": {secs}"),
        )
    };
    let bad_period = |got: &str| {
        format!(
            "bad params for report sink \"gauges\": period_secs: must be at least 1e-6 s and \
             below 1.8e13 s, got {got}"
        )
    };
    let cases = [
        (
            "scheduler-param",
            "serve",
            edit(&stream, "\"aging_rate\"", "\"aging_rat\""),
            7,
            unknown("aging_rat", "aging_rate, core_penalty"),
        ),
        (
            "fault-param",
            "serve",
            edit(&stream, "\"max_retries\"", "\"max_retrys\""),
            8,
            unknown(
                "max_retrys",
                "max_retries, task_timeout_secs, backoff_base_secs, graceful",
            ),
        ),
        (
            "policy-param",
            "serve",
            edit(&stream, "\"half_life_secs\"", "\"half_life_sec\""),
            6,
            unknown("half_life_sec", "half_life_secs"),
        ),
        (
            "component-params-key",
            "serve",
            edit(&stream, "\"fair\", \"params\"", "\"fair\", \"parms\""),
            6,
            unknown("parms", "name, params"),
        ),
        (
            "sink-param",
            "serve",
            edit(&stream, "\"period_secs\"", "\"period_sec\""),
            11,
            unknown("period_sec", "path, period_secs"),
        ),
        (
            "source-param",
            "serve",
            edit(
                &stream,
                "\"tenants\": 8,",
                "\"tenants\": 8, \"tennants\": 9,",
            ),
            17,
            unknown("tennants", "sessions, tenants, burst_size, mean_gap_secs"),
        ),
        (
            "batch-policy-param",
            "run",
            edit(
                &session,
                "\"batch_policy\": \"backfill\"",
                "\"batch_policy\": { \"name\": \"priority_aging\", \
                 \"params\": { \"aging_rat\": 9.0 } }",
            ),
            6,
            unknown("aging_rat", "aging_rate, core_penalty"),
        ),
        (
            "kernel-args",
            "run",
            edit(&session, "\"secs\"", "\"sec\""),
            19,
            format!("kernel \"misc.sleep\": {}", unknown("sec", "secs")),
        ),
        // An optional argument: it ran with the default it meant to replace.
        (
            "kernel-optional-arg",
            "run",
            edit(&pipelines, "\"bytes\"", "\"byts\""),
            9,
            format!(
                "kernel \"misc.mkfile\": {}",
                unknown("byts", "path, bytes, base_secs")
            ),
        ),
        // The second template's own line, not the first `"bytes"`.
        (
            "kernel-arg-type",
            "run",
            edit(&pipelines, "1024 } }\n", "\"4 KiB\" } }\n"),
            10,
            "kernel \"misc.ccount\": bytes: expected unsigned integer, got String(\"4 KiB\")"
                .to_string(),
        ),
        (
            "kernel-arg-float-for-count",
            "run",
            edit(&exchange, "\"steps\": 3000", "\"steps\": 3000.5"),
            13,
            "kernel \"md.amber\": steps: expected unsigned integer, got ".to_string(),
        ),
        (
            "exchange-template-arg",
            "run",
            edit(&exchange, "\"steps\"", "\"stepz\""),
            13,
            format!("kernel \"md.amber\": {}", unknown("stepz", md_keys)),
        ),
        (
            "exchange-template-placeholder-key",
            "run",
            edit(
                &exchange,
                "\"seed\": \"$replica\"",
                "\"seed\": \"$replica\", \"replica\": \"$replica\"",
            ),
            14,
            format!("kernel \"md.amber\": {}", unknown("replica", md_keys)),
        ),
        // The kernel's `"seed"` on line 14, not the session's on line 4.
        (
            "kernel-arg-not-the-session-key",
            "run",
            edit(&exchange, "\"$replica\"", "-1"),
            14,
            "kernel \"md.amber\": seed: expected unsigned integer, got ".to_string(),
        ),
        (
            "kernel-zero-steps",
            "run",
            edit(&exchange, "\"steps\": 3000", "\"steps\": 0"),
            13,
            "kernel \"md.amber\": steps must be at least 1, got 0".to_string(),
        ),
        // Ran as zero-second tasks.
        (
            "kernel-negative-secs",
            "run",
            edit(&session, "\"secs\": 60.0", "\"secs\": -5.0"),
            19,
            bad_secs("-5.0"),
        ),
        // Every task died at the wall time.
        (
            "kernel-unbounded-secs",
            "run",
            edit(&session, "\"secs\": 60.0", "\"secs\": 1e300"),
            19,
            bad_secs("1e300"),
        ),
        (
            "federation-unread",
            "run",
            edit(
                &session,
                "\"seed\": 7,",
                "\"seed\": 7,\n  \"federation\": [{ \"name\": \"xsede.stampede\", \"cores\": 16, \
                 \"walltime_secs\": 100 }],",
            ),
            5,
            "federation is not read by the \"simulated\" backend".to_string(),
        ),
        (
            "local-tuning-unread",
            "run",
            edit(
                &session,
                "\"backend\": \"simulated\"",
                "\"backend\": \"local\"",
            ),
            6,
            "batch_policy is not read by the \"local\" backend".to_string(),
        ),
        (
            "federated-queue-wait",
            "run",
            edit(
                &session,
                "\"backend\": \"simulated\"",
                "\"backend\": \"federated\"",
            ),
            8,
            "queue_wait_per_core is not read by the \"federated\" backend".to_string(),
        ),
        // Loads nowhere: every task of the stage would fail at run.
        (
            "local-kernel-cores",
            "run",
            edit(
                &edit(
                    &pipelines,
                    "\"backend\": \"simulated\"",
                    "\"backend\": \"local\"",
                ),
                "\"misc.ccount\",",
                "\"misc.ccount\", \"cores\": 25,",
            ),
            10,
            "kernel \"misc.ccount\": cores must be within 1..=24 (resource.cores) on the \
             \"local\" backend, got 25"
                .to_string(),
        ),
        // Ran, each task bound to one core.
        (
            "simulated-kernel-zero-cores",
            "run",
            edit(
                &pipelines,
                "\"misc.ccount\",",
                "\"misc.ccount\", \"cores\": 0,",
            ),
            10,
            "kernel \"misc.ccount\": cores must be within 1..=24 (resource.cores per pilot) \
             on the \"simulated\" backend, got 0"
                .to_string(),
        ),
        // Ran, each task clamped to its pilot's 128 / 8 cores.
        (
            "simulated-kernel-cores-past-a-pilot",
            "run",
            edit(
                &session,
                "\"misc.sleep\",",
                "\"misc.sleep\", \"cores\": 17,",
            ),
            19,
            "kernel \"misc.sleep\": cores must be within 1..=16 (resource.cores per pilot) \
             on the \"simulated\" backend, got 17"
                .to_string(),
        ),
        (
            "federated-kernel-cores-past-the-largest-member",
            "run",
            edit(
                &edit(
                    &pipelines,
                    "\"backend\": \"simulated\"",
                    "\"backend\": \"federated\", \"federation\": [{ \"name\": \
                     \"xsede.stampede\", \"cores\": 32, \"walltime_secs\": 3600 }]",
                ),
                "\"misc.ccount\",",
                "\"misc.ccount\", \"cores\": 33,",
            ),
            10,
            "kernel \"misc.ccount\": cores must be within 1..=32 (the largest member's cores \
             per pilot) on the \"federated\" backend, got 33"
                .to_string(),
        ),
        // `serve` failed opening the sink, with no line.
        (
            "gauges-negative-period",
            "serve",
            period("-1.0"),
            11,
            bad_period("-1.0"),
        ),
        // Clamped to one sample per microsecond of virtual time.
        (
            "gauges-sub-microsecond-period",
            "serve",
            period("1e-9"),
            11,
            bad_period("1e-9"),
        ),
        // Clamped to 2^64 µs: one sample at t = 0, one at 18446744073709.55 s.
        (
            "gauges-unbounded-period",
            "serve",
            period("1e300"),
            11,
            bad_period("1e300"),
        ),
        (
            "gauges-infinite-period",
            "serve",
            period("1e309"),
            11,
            bad_period("inf"),
        ),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check-nested");
    for (name, verb, text, line, needle) in cases {
        let path = write_spec(name, &text);
        let path = path.to_str().expect("utf-8 path");
        let check = entk_in(&dir, &["check", path]);
        let message = String::from_utf8_lossy(&check.stderr).into_owned();
        assert!(!check.status.success(), "check accepted {name}");
        let at = format!("error: usage error: workload spec line {line}: ");
        assert!(message.starts_with(&at), "{name}: {message}");
        assert!(message.contains(&needle), "{name}: {message}");
        let ran = entk_in(&dir, &[verb, path]);
        assert!(!ran.status.success(), "{verb} accepted {name}");
        assert!(ran.stdout.is_empty(), "{verb} {name} produced a report");
        assert_eq!(message, String::from_utf8_lossy(&ran.stderr), "{name}");
    }
    let left_behind = std::fs::read_dir(&dir).expect("scratch directory").count();
    assert_eq!(left_behind, 0, "a refused document created a file");
}

/// Runs `entk` like [`entk_in`], but kills it and fails the test once
/// `secs` of wall time pass, so a hang costs seconds and not the suite.
fn entk_within(dir: &Path, args: &[&str], secs: u64) -> Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    std::fs::create_dir_all(dir).expect("scratch directory");
    // Files, not pipes: a child that fills a pipe nobody reads would hang.
    let (out, err) = (dir.join("STDOUT.txt"), dir.join("STDERR.txt"));
    let file = |path: &Path| Stdio::from(std::fs::File::create(path).expect("output file"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_entk"))
        .args(args)
        .current_dir(dir)
        .stdout(file(&out))
        .stderr(file(&err))
        .spawn()
        .expect("entk binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("entk {args:?} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    Output {
        status,
        stdout: std::fs::read(out).expect("stdout file"),
        stderr: std::fs::read(err).expect("stderr file"),
    }
}

/// A checkpoint file is input from outside the program too. Each row edits
/// a real checkpoint (20 sessions on 2 slots, taken at arrival boundary 10,
/// under fair share and under FIFO); `entk serve --resume` refuses it
/// naming the field, serves nothing and writes no `--jsonl` file. The
/// unedited checkpoint resumes.
#[test]
fn hostile_checkpoints_are_refused_naming_the_field() {
    for policy in ["fair", "fifo"] {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("check-checkpoint-{policy}"));
        let spec = write_spec(
            &format!("checkpoint-{policy}"),
            &format!(
                r#"{{ "seed": 7, "slots": 2, "policy": "{policy}", "half_life_secs": 600.0,
                     "source": {{ "kind": "synthetic", "sessions": 20, "tenants": 4 }} }}"#
            ),
        );
        let spec = spec.to_str().expect("utf-8 path");
        let stopped = entk_in(
            &dir,
            &[
                "serve",
                spec,
                "--checkpoint-at",
                "10",
                "--checkpoint",
                "CKPT.json",
            ],
        );
        assert!(stopped.status.success());
        let ckpt: Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("CKPT.json")).unwrap()).unwrap();
        let resume = |text: &str| {
            std::fs::write(dir.join("EDITED.json"), text).unwrap();
            std::fs::remove_file(dir.join("SUFFIX.jsonl")).ok();
            let args = [
                "serve",
                spec,
                "--resume",
                "EDITED.json",
                "--jsonl",
                "SUFFIX.jsonl",
            ];
            entk_within(&dir, &args, 20)
        };
        assert!(resume(&serde_json::to_string_pretty(&ckpt).unwrap())
            .status
            .success());
        let edit = |change: &dyn Fn(&mut Value)| {
            let mut edited = ckpt.clone();
            change(&mut edited);
            serde_json::to_string_pretty(&edited).unwrap()
        };
        let waiting = ckpt["pending"][1]
            .as_u64()
            .expect("sessions wait at the boundary");
        let slot = &ckpt["in_flight"][0];
        let (slot_session, slot_finish) = (&slot["session"], slot["finish_us"].as_u64().unwrap());
        // Both slots are still busy when the next session arrives, so a
        // clock at the first release is past that arrival.
        let earliest_finish = ckpt["in_flight"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["finish_us"].as_u64().unwrap())
            .min()
            .unwrap();
        let mut rows = vec![
            // Fair share panicked (`no entry found for key`); FIFO waited
            // forever for the session's second evaluation.
            (
                "pending-twice",
                edit(&|c| c["pending"].as_array_mut().unwrap().push(json!(waiting))),
                format!("checkpoint session {waiting} is listed in pending and again in pending"),
            ),
            // Resumed with exit 0.
            (
                "pending-and-deferred",
                edit(&|c| c["deferred"] = json!([waiting])),
                format!("checkpoint session {waiting} is listed in pending and again in deferred"),
            ),
            // Resumed with exit 0, printing start and finish 1.8e13 s for
            // sessions that ran for a minute.
            (
                "clock-and-finish-max",
                edit(&|c| {
                    c["clock_us"] = json!(u64::MAX);
                    for slot in c["in_flight"].as_array_mut().unwrap() {
                        slot["finish_us"] = json!(u64::MAX);
                    }
                }),
                format!(
                    "checkpoint in_flight finish_us {} of session {slot_session} differs from \
                     its record's finish_us {slot_finish}",
                    u64::MAX
                ),
            ),
            (
                "finish-off-by-one",
                edit(&|c| c["in_flight"][0]["finish_us"] = json!(slot_finish + 1)),
                format!(
                    "checkpoint in_flight finish_us {} of session {slot_session} differs from \
                     its record's finish_us {slot_finish}",
                    slot_finish + 1
                ),
            ),
            (
                "clock-before-last-arrival",
                edit(&|c| c["clock_us"] = json!(0)),
                "checkpoint clock_us 0 is before the last ingested arrival".to_string(),
            ),
            (
                "clock-after-next-arrival",
                edit(&|c| c["clock_us"] = json!(earliest_finish)),
                format!(
                    "checkpoint clock_us {earliest_finish} is after the next arrival still \
                     to ingest"
                ),
            ),
        ];
        if policy == "fair" {
            // Every tenant's balance set to `balance`, written as JSON text.
            let balances = |balance: &str| {
                edit(&|c| {
                    for pair in c["usage"].as_array_mut().unwrap() {
                        pair[1] = json!("BALANCE");
                    }
                })
                .replace("\"BALANCE\"", balance)
            };
            let usage = |got: &str| {
                format!("checkpoint usage balance of tenant 0 must be finite and >= 0, got {got}")
            };
            rows.extend([
                // Resumed with exit 0; the stream differed from line 3 and
                // p50 read 252.5 s instead of 300.7 s.
                ("negative-usage", balances("-1e300"), usage("-1e300")),
                ("infinite-usage", balances("1e309"), usage("inf")),
                ("negative-infinite-usage", balances("-1e309"), usage("-inf")),
                // Resumed with exit 0; the last row won.
                (
                    "tenant-twice",
                    edit(&|c| {
                        let usage = c["usage"].as_array_mut().unwrap();
                        usage.push(json!([usage[0][0], 1.0]));
                    }),
                    "checkpoint usage lists tenant 0 more than once".to_string(),
                ),
            ]);
        }
        for (name, text, needle) in rows {
            let out = resume(&text);
            let message = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{policy} {name} resumed");
            assert!(out.stdout.is_empty(), "{policy} {name} served");
            assert_eq!(
                message,
                format!("error: usage error: {needle}\n"),
                "{policy} {name}"
            );
            assert!(
                !dir.join("SUFFIX.jsonl").exists(),
                "{policy} {name} wrote rows"
            );
        }
    }
}

/// A flag the verb does not have used to be skipped, so `--polcy fifo`
/// served fair-share and `--jsn` printed text, both exiting 0; a second
/// positional was ignored; `--checkpoint` alone wrote nothing. Each is a
/// usage error listing the verb's flags, and nothing runs.
#[test]
fn command_line_mistakes_are_usage_errors_that_run_nothing() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check-flags");
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let stream = specs.join("serve_stream.json");
    let session = specs.join("charcount.json");
    let (stream, session) = (stream.to_str().unwrap(), session.to_str().unwrap());
    let serve_usage = "usage: entk serve <spec.json> [--policy <name>] [--strict] [--json] \
                       [--jsonl <path>] [--stream] [--checkpoint-at <K>] [--checkpoint <path>] \
                       [--resume <path>]\n";
    let run_usage = "usage: entk run <spec.json> [--json] [--trace <path>]\n";
    for (args, error, usage) in [
        (
            vec!["serve", stream, "--polcy", "fifo"],
            "error: unknown flag --polcy\n",
            serve_usage,
        ),
        (
            vec!["run", session, "--jsn"],
            "error: unknown flag --jsn\n",
            run_usage,
        ),
        (
            vec!["check", session, "extra", "--bogus"],
            "error: unexpected argument \"extra\" after spec ",
            "usage: entk check <spec.json>\n",
        ),
        (
            vec!["serve", stream, "--checkpoint", "c.json"],
            "error: --checkpoint needs --checkpoint-at\n",
            serve_usage,
        ),
        (
            vec!["serve", stream, "--checkpoint-at", "3"],
            "error: --checkpoint-at needs --checkpoint\n",
            serve_usage,
        ),
        (
            vec!["run", session, "--trace"],
            "error: --trace needs a <path>\n",
            run_usage,
        ),
        (
            vec!["serve", stream, "--jsonl", "--json"],
            "error: --jsonl needs a <path>\n",
            serve_usage,
        ),
        (vec!["run"], "error: missing <spec.json>\n", run_usage),
    ] {
        let out = entk_in(&dir, &args);
        let message = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        assert!(
            message.starts_with(error) && message.ends_with(usage),
            "{args:?}: {message}"
        );
    }
    let left_behind = std::fs::read_dir(&dir).expect("scratch directory").count();
    assert_eq!(left_behind, 0, "a refused command line wrote a file");
}

#[test]
fn shipped_single_session_specs_check_ok() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("spec file reads");
        // Stream and grid specs share the directory; `check` resolves them
        // through the stream loader (tested above).
        if WorkloadSpec::from_json(&text).is_err() {
            continue;
        }
        let check = entk("check", &path);
        let stdout = String::from_utf8_lossy(&check.stdout);
        assert!(
            check.status.success() && stdout.starts_with("ok: "),
            "{path:?}: {stdout}{}",
            String::from_utf8_lossy(&check.stderr)
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} single-session specs found");
}
