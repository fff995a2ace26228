//! `repro all` prints only simulated quantities — message counts, loads,
//! ticks — under fixed seeds, so its whole output repeats byte for byte.
//! This pins it against `repro_all.txt`: a change that moves any table or
//! figure fails here with the first line that differs. After an intended
//! change, regenerate the file with
//! `cargo run --release -p crew-bench --bin repro -- all > crates/bench/tests/repro_all.txt`.

use std::process::Command;

#[test]
fn repro_all_matches_its_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let want = include_str!("repro_all.txt");
    if got != want {
        let (line, g, w) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| (i + 1, g, w))
            .unwrap_or((got.lines().count().min(want.lines().count()) + 1, "", ""));
        panic!(
            "repro all moved at line {line} ({} lines now, {} pinned):\n  now:    {g}\n  pinned: {w}",
            got.lines().count(),
            want.lines().count()
        );
    }
}
