//! A reader that stops early (`entk run spec.json --json | head -1`) used to
//! make every verb panic with "failed printing to stdout: Broken pipe", a
//! backtrace and exit 101. A closed stdout ends the output, not the verb.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_output_not_the_verb() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout");
    std::fs::create_dir_all(&dir).expect("test directory");
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let session = specs.join("charcount.json");
    let stream = specs.join("serve_stream.json");
    let (session, stream) = (session.to_str().unwrap(), stream.to_str().unwrap());
    for (args, writes) in [
        (
            vec!["run", session, "--json", "--trace", "T.jsonl"],
            Some("T.jsonl"),
        ),
        (vec!["serve", stream, "--jsonl", "S.jsonl"], Some("S.jsonl")),
        (vec!["check", session], None),
        (vec!["kernels"], None),
    ] {
        if let Some(file) = writes {
            std::fs::remove_file(dir.join(file)).ok();
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_entk"))
            .args(&args)
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("entk binary runs");
        // Close the read end before the verb prints its first byte.
        drop(child.stdout.take());
        let done = child.wait_with_output().expect("entk exits");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(done.status.code(), Some(0), "{args:?}: {stderr}");
        if let Some(file) = writes {
            let written = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
            assert!(written > 0, "{args:?} did not write {file}");
        }
    }
}
