//! `entk check` must reject what `entk run` rejects, with the same message,
//! and keep accepting every single-session spec shipped in `examples/specs/`.

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

/// Writes `spec` under a per-test name (tests run in parallel).
fn write_spec(name: &str, spec: &Value) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("check-{name}.json"));
    std::fs::write(&path, spec.to_string()).expect("spec file writes");
    path
}

/// `check` fails with `needle` in its message — the very message `run`
/// stops on, when `run` stops at all.
fn assert_rejected(name: &str, spec: &Value, needle: &str, run_agrees: bool) {
    let path = write_spec(name, spec);
    let check = entk("check", &path);
    let message = String::from_utf8_lossy(&check.stderr).into_owned();
    assert!(!check.status.success(), "check accepted {name}");
    assert!(message.contains(needle), "{name}: {message}");
    if run_agrees {
        let run = entk("run", &path);
        assert!(!run.status.success());
        assert_eq!(message, String::from_utf8_lossy(&run.stderr));
    }
}

#[test]
fn valid_spec_checks_ok() {
    let check = entk("check", &write_spec("valid", &valid_spec()));
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
    // `run` does not stop here: it executes and fails every task of the
    // stage, so only `check` carries the registry's message.
    let mut spec = valid_spec();
    spec["pattern"]["kernel"]["plugin"] = json!("misc.nope");
    assert_rejected(
        "kernel",
        &spec,
        "unknown kernel plugin \"misc.nope\" (registered:",
        false,
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
        false,
    );
}

#[test]
fn shipped_single_session_specs_check_ok() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("spec file reads");
        // Stream and grid specs share the directory; they are not
        // `WorkloadSpec`s and `check` does not apply to them.
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
