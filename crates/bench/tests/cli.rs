//! Bad command lines of `repro`, `conformance` and `amem-stats`, run as
//! the binaries: each exits 2 at once with the flag it refused and the
//! usage text on stderr, and nothing panics.

mod common;
use common::refuses;

#[test]
fn repro_refuses_bad_command_lines() {
    refuses(
        env!("CARGO_BIN_EXE_repro"),
        "usage: repro <name|all> [--scale",
        &[
            ("nope --scale 0.5", "unknown experiment `nope`"),
            ("", "no experiment named"),
            ("table1 --bogus", "--bogus"),
            ("table1 --out", "--out"),
            ("table1 --scale abc", "--scale \"abc\""),
            ("table1 --scale 0", "--scale \"0\""),
            ("table1 --scale 5", "--scale \"5\""),
            ("table1 --jobs 0", "--jobs \"0\""),
            ("all --jobs 0", "--jobs \"0\""),
            ("table1 --trials 0", "--trials \"0\""),
            ("table1 --timeout inf", "--timeout \"inf\""),
            ("table1 --fault bogus=1", "--fault \"bogus=1\""),
        ],
    );
}

#[test]
fn conformance_refuses_bad_command_lines() {
    refuses(
        env!("CARGO_BIN_EXE_conformance"),
        "usage: conformance [--seeds",
        &[
            ("--seeds abc", "--seeds \"abc\""),
            ("--seeds 0", "--seeds \"0\""),
            (
                "--config nope",
                "--config \"nope\": no such lane (lanes: pow2-mru",
            ),
            ("--seeds 1 --config nope", "pingpong-2s"),
            ("--bogus", "--bogus"),
            ("--replay", "--replay"),
        ],
    );
}

#[test]
fn amem_stats_refuses_bad_command_lines() {
    refuses(
        env!("CARGO_BIN_EXE_amem-stats"),
        "usage: amem-stats (--attribution",
        &[
            ("", "--attribution"),
            ("--attribution", "--attribution"),
            ("--attribution fig99", "--attribution \"fig99\""),
            ("--overhead fig1 --scale 0", "--scale \"0\""),
            ("--overhead fig1 --bogus", "--bogus"),
        ],
    );
}

/// A `repro` child that fails (here it cannot write under `--out`, a
/// plain file) makes `amem-stats` name it and exit 1, not panic.
#[test]
fn amem_stats_exits_1_when_its_repro_child_fails() {
    let out = std::env::temp_dir().join(format!("amem_stats_out_{}", std::process::id()));
    std::fs::write(&out, b"").unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_amem-stats"))
        .args(["--attribution", "table1", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("repro table1 failed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
