//! The child-process check that the binaries of `crates/bench` and
//! `crates/serve` refuse a bad command line.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `exe` with each `(args, named)` of `table`: it must exit 2 within
/// seconds, print `named` and `usage` on stderr, and print no panic.
pub fn refuses(exe: &str, usage: &str, table: &[(&str, &str)]) {
    for &(args, named) in table {
        let mut child = Command::new(exe)
            .args(args.split_whitespace())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // A refusal is immediate; a run or daemon that starts is killed.
        let start = Instant::now();
        while child.try_wait().unwrap().is_none() && start.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill();
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{args}`: {stderr}");
        assert!(
            stderr.contains(named),
            "`{args}` does not name {named}: {stderr}"
        );
        assert!(stderr.contains(usage), "`{args}` prints no usage: {stderr}");
        assert!(!stderr.contains("panicked"), "`{args}`: {stderr}");
    }
}
