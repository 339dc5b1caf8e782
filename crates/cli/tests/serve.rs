//! `entk serve` writes each stream line once, as it is emitted, in every
//! mode: the prefix written up to a checkpoint followed by the suffix a
//! resumed serve writes is the stream a plain serve writes, and the one
//! `--stream` writes.

use std::path::Path;
use std::process::Command;

#[test]
fn checkpoint_prefix_and_resumed_suffix_are_the_whole_stream() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-one-writer");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/serve_stream.json");
    let spec = spec.to_str().expect("utf-8 path");
    let serve = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_entk"))
            .arg("serve")
            .arg(spec)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("entk binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    serve(&[
        "--checkpoint-at",
        "12",
        "--checkpoint",
        "CKPT.json",
        "--jsonl",
        "P.jsonl",
    ]);
    serve(&["--resume", "CKPT.json", "--jsonl", "S.jsonl"]);
    serve(&["--jsonl", "F.jsonl"]);
    serve(&["--stream", "--jsonl", "STREAM.jsonl"]);
    let read = |file: &str| std::fs::read(dir.join(file)).expect("serve wrote the file");
    let (prefix, suffix, full) = (read("P.jsonl"), read("S.jsonl"), read("F.jsonl"));
    assert!(!prefix.is_empty() && !suffix.is_empty());
    assert_eq!([prefix, suffix].concat(), full);
    assert_eq!(read("STREAM.jsonl"), full);
}
