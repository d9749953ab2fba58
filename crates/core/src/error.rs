//! Typed errors for the measurement pipeline.
//!
//! The paper's own phrasing — "not all combinations of mapping and
//! interference can be executed" — is a *user-reachable* condition, so the
//! platform run path reports it as a value instead of panicking. Errors
//! are `Clone + PartialEq` so the executor can hand one result (success or
//! failure) to every deduplicated waiter of an in-flight measurement.

use std::fmt;

/// Everything that can go wrong between asking for a measurement and
/// getting one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmemError {
    /// The mapping itself is impossible: more ranks per processor than
    /// the socket has cores (or zero).
    InvalidMapping {
        per_processor: usize,
        cores_per_socket: usize,
    },
    /// The mapping is valid but leaves too few free cores on some socket
    /// for the requested interference threads.
    InfeasibleMapping {
        socket: u32,
        free_cores: usize,
        needed: usize,
    },
    /// The workload instantiated no local ranks on the simulated node.
    EmptyWorkload { workload: String },
    /// A sweep produced no points (every level was infeasible).
    EmptySweep { workload: String },
    /// The measurement cache could not be read or written.
    Cache(String),
    /// A request this build cannot honour (e.g. a malformed fault spec).
    Unsupported(String),
    /// A single platform run exceeded its wall-clock budget.
    Timeout { limit_ms: u64 },
    /// A measurement kept failing after every allowed retry. `last` is
    /// the display form of the final underlying error (panics included:
    /// the executor converts a panicking platform into this variant so
    /// deduplicated waiters see a value, not a wedged condvar).
    Flaky { attempts: usize, last: String },
    /// A deliberately injected fault (see `FaultyPlatform`) — transient
    /// by construction, so the retry layer treats it like real flakiness.
    Injected(String),
    /// The platform returned a NaN/infinite headline statistic; the
    /// sample was discarded instead of poisoning downstream aggregation.
    NonFinite { what: String },
    /// A sweep is too degenerate for knee detection (fewer than three
    /// usable points), so no resource bracket can be derived from it.
    DegenerateSweep { workload: String, points: usize },
}

impl AmemError {
    /// Whether retrying the same request can plausibly succeed. Mapping
    /// and workload-shape errors are deterministic and never retried;
    /// timeouts, injected faults, non-finite samples, and cache I/O
    /// problems are worth another attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Self::Timeout { .. } | Self::Injected(_) | Self::NonFinite { .. } | Self::Cache(_)
        )
    }

    /// Whether a sweep should record this failure as a *degraded point*
    /// and carry on, rather than aborting the whole figure. Transient
    /// failures and exhausted retries degrade; structural errors (an
    /// impossible mapping was asked for) still abort.
    pub fn is_degradable(&self) -> bool {
        self.is_transient() || matches!(self, Self::Flaky { .. })
    }
}

impl fmt::Display for AmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidMapping {
                per_processor,
                cores_per_socket,
            } => write!(
                f,
                "cannot map {per_processor} ranks per processor on a \
                 {cores_per_socket}-core socket"
            ),
            Self::InfeasibleMapping {
                socket,
                free_cores,
                needed,
            } => write!(
                f,
                "socket {socket} has only {free_cores} free cores for \
                 {needed} interference threads"
            ),
            Self::EmptyWorkload { workload } => {
                write!(f, "workload '{workload}' produced no local ranks")
            }
            Self::EmptySweep { workload } => {
                write!(f, "sweep of '{workload}' has no feasible points")
            }
            Self::Cache(msg) => write!(f, "measurement cache: {msg}"),
            Self::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            Self::Timeout { limit_ms } => {
                write!(f, "run exceeded its {limit_ms} ms wall-clock budget")
            }
            Self::Flaky { attempts, last } => {
                write!(f, "still failing after {attempts} attempts: {last}")
            }
            Self::Injected(msg) => write!(f, "injected fault: {msg}"),
            Self::NonFinite { what } => {
                write!(f, "measurement produced a non-finite {what}")
            }
            Self::DegenerateSweep { workload, points } => write!(
                f,
                "sweep of '{workload}' has only {points} usable points — too few to bracket"
            ),
        }
    }
}

impl std::error::Error for AmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_condition() {
        let e = AmemError::InfeasibleMapping {
            socket: 1,
            free_cores: 2,
            needed: 5,
        };
        let s = e.to_string();
        assert!(s.contains("socket 1"), "{s}");
        assert!(s.contains("2 free cores"), "{s}");
        assert!(s.contains('5'), "{s}");
        assert!(AmemError::EmptyWorkload {
            workload: "mcb".into()
        }
        .to_string()
        .contains("mcb"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        // The executor hands the same error to every deduplicated waiter.
        let e = AmemError::Cache("corrupt entry".into());
        assert_eq!(e.clone(), e);
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn transience_classification() {
        assert!(AmemError::Timeout { limit_ms: 500 }.is_transient());
        assert!(AmemError::Injected("boom".into()).is_transient());
        assert!(AmemError::NonFinite {
            what: "seconds".into()
        }
        .is_transient());
        // Exhausted retries are terminal for the retry layer...
        let flaky = AmemError::Flaky {
            attempts: 3,
            last: "injected fault: boom".into(),
        };
        assert!(!flaky.is_transient());
        // ...but still degrade a sweep point instead of aborting it.
        assert!(flaky.is_degradable());
        // Structural errors do neither.
        let structural = AmemError::InvalidMapping {
            per_processor: 99,
            cores_per_socket: 8,
        };
        assert!(!structural.is_transient());
        assert!(!structural.is_degradable());
    }

    #[test]
    fn robustness_errors_display_their_numbers() {
        let s = AmemError::Timeout { limit_ms: 250 }.to_string();
        assert!(s.contains("250 ms"), "{s}");
        let s = AmemError::Flaky {
            attempts: 4,
            last: "injected".into(),
        }
        .to_string();
        assert!(s.contains('4') && s.contains("injected"), "{s}");
        let s = AmemError::DegenerateSweep {
            workload: "mcb".into(),
            points: 2,
        }
        .to_string();
        assert!(s.contains("mcb") && s.contains('2'), "{s}");
    }
}
