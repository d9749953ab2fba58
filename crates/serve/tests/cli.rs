//! Bad command lines of `amem_serve` and `amem_client`, run as the
//! binaries: each exits 2 at once with the flag it refused and the usage
//! text on stderr, starts no daemon and connects to none.

#[path = "../../bench/tests/common/mod.rs"]
mod common;
use common::refuses;

/// Each line binds an ephemeral port, should the daemon start.
#[test]
fn amem_serve_refuses_bad_command_lines() {
    refuses(
        env!("CARGO_BIN_EXE_amem_serve"),
        "usage: amem-serve [--addr",
        &[
            ("--addr 127.0.0.1:0 --bogus", "--bogus"),
            ("--addr 127.0.0.1:0 --workers", "--workers"),
            ("--addr 127.0.0.1:0 --workers x", "--workers \"x\""),
            (
                "--addr 127.0.0.1:0 --max-cache-mb 17592186044416",
                "--max-cache-mb \"17592186044416\"",
            ),
            (
                "--addr 127.0.0.1:0 --quota-burst 0.5",
                "--quota-burst \"0.5\"",
            ),
            (
                "--addr 127.0.0.1:0 --quota-rate nan",
                "--quota-rate \"nan\"",
            ),
            (
                "--addr 127.0.0.1:0 --quota-burst inf",
                "--quota-burst \"inf\"",
            ),
        ],
    );
}

/// `--local` sweeps run in-process, so none of these needs a daemon.
#[test]
fn amem_client_refuses_bad_command_lines() {
    refuses(
        env!("CARGO_BIN_EXE_amem_client"),
        "usage: amem-client [--addr",
        &[
            ("--scale 0 sweep --local", "--scale \"0\""),
            ("--scale 5 sweep --local", "--scale \"5\""),
            ("--scale abc sweep --local", "--scale \"abc\""),
            ("sweep --local --bogus", "--bogus"),
            ("sweep --local --csv", "--csv"),
            ("--priority urgent sweep --local", "--priority \"urgent\""),
            ("--local", "no command"),
            ("frobnicate", "frobnicate"),
        ],
    );
}
