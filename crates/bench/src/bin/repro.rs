#![forbid(unsafe_code)]
//! `repro <name|all> [flags]`: run one experiment of
//! [`amem_bench::repro::EXPERIMENTS`], or every one of them.

fn main() -> std::process::ExitCode {
    amem_bench::repro::main()
}
