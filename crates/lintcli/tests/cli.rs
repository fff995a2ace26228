//! End-to-end tests for the `crew-lint` binary: exit-code contract and the
//! stable `--format json` schema.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crew-lint"))
}

fn write_spec(name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crew-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

const CLEAN: &str = r#"workflow Ok (id 1) {
    inputs 1;
    step A { program "p"; }
    step B { program "p"; }
    flow A -> B;
}
"#;

// A loop whose continue condition is the constant `true`: the one Error,
// loop-never-exits, anchors to the loop head `A`, declared on line 5 —
// the span the JSON diagnostics must carry.
const UNSOUND: &str = r#"workflow Bad (id 1) {
    inputs 1;
    step B { program "p"; }
    // The loop head.
    step A { program "p"; }
    flow A -> B;
    loop B -> A while true;
}
"#;

#[test]
fn clean_spec_exits_zero() {
    let path = write_spec("clean.laws", CLEAN);
    let out = bin().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"));
}

#[test]
fn error_finding_exits_one() {
    let path = write_spec("unsound.laws", UNSOUND);
    let out = bin().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("loop-never-exits"));
}

#[test]
fn unparseable_spec_exits_two() {
    let path = write_spec("broken.laws", "workflow Broken {{{");
    let out = bin().arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_exits_two() {
    let out = bin().arg("/nonexistent/nope.laws").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn no_args_is_usage_error() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_format_emits_stable_schema() {
    let path = write_spec("unsound-json.laws", UNSOUND);
    let out = bin()
        .args(["--format", "json"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "json keeps the exit contract");
    let text = stdout(&out);
    // Shape: one array of target objects with diagnostic objects inside.
    assert!(text.trim_start().starts_with('['), "array root: {text}");
    assert!(text.trim_end().ends_with(']'), "array root: {text}");
    assert!(text.contains("\"target\": "), "{text}");
    assert!(text.contains("\"errors\": 1"), "{text}");
    assert!(text.contains("\"warnings\": 0"), "{text}");
    assert!(text.contains("\"id\": \"loop-never-exits\""), "{text}");
    assert!(text.contains("\"severity\": \"error\""), "{text}");
    assert!(
        text.contains("\"span\": {\"line\": 5, \"col\": "),
        "loop-head span expected: {text}"
    );
    assert!(text.contains("\"message\": "), "{text}");
    // No human-format noise on stdout in json mode.
    assert!(!text.contains("error(s)"), "{text}");
}

#[test]
fn json_format_clean_target_has_empty_diagnostics() {
    let path = write_spec("clean-json.laws", CLEAN);
    let out = bin()
        .args(["--format", "json"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("\"diagnostics\": []"), "{text}");
    assert!(text.contains("\"errors\": 0"), "{text}");
}

#[test]
fn json_escapes_target_strings() {
    // The target path lands in the JSON document verbatim; a quote in the
    // filename must come back escaped so the document stays well-formed.
    let path = write_spec("we\"ird.laws", CLEAN);
    let out = bin()
        .args(["--format", "json"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("we\\\"ird.laws"), "{text}");
}

#[test]
fn json_covers_builtin_targets() {
    let out = bin()
        .args(["--format", "json", "--builtin"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("\"target\": \"builtin:order_processing\""),
        "{text}"
    );
    assert!(
        text.contains("\"target\": \"builtin:gen(seed=0,r=0)\""),
        "{text}"
    );
}

#[test]
fn bad_format_value_is_usage_error() {
    let out = bin().args(["--format", "yaml", "x.laws"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
