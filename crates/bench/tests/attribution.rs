//! `amem-stats --attribution`, as the binary: a cold single-worker figure
//! run whose leaf phases must cover 95-100.5% of its wall. Time spent
//! outside every leaf phase reads low; `par_map` workers that run beside
//! each other, each timing its own phases, read high.

use std::process::Command;

/// Run `amem-stats --attribution <fig>` at scale 1/16: it must exit 0 and
/// print a "leaf phases cover" line within 95-100.5%.
fn assert_leaf_coverage(fig: &str) {
    let out = std::env::temp_dir().join(format!("amem_attribution_{fig}_{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_amem-stats"))
        .args(["--attribution", fig, "--scale", "0.0625", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&out);
    let printed = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{printed}\n{stderr}");
    let line = printed
        .lines()
        .find(|l| l.contains("leaf phases cover"))
        .unwrap_or_else(|| panic!("no coverage line in {printed}"));
    let pct = line
        .split("cover ")
        .nth(1)
        .and_then(|rest| rest.split('%').next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("unreadable coverage line: {line}"));
    assert!((95.0..=100.5).contains(&pct), "{line}");
}

/// The calibration path: curve passes plus Eq. 4's line-mass walks, each
/// inside its phase.
#[test]
fn fig6_leaf_phases_cover_the_wall() {
    assert_leaf_coverage("fig6");
}

/// Six simulated sweep points on one worker.
#[test]
fn fig1_leaf_phases_cover_the_wall() {
    assert_leaf_coverage("fig1");
}
