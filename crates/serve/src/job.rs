//! Durable, schema-versioned job records.
//!
//! Every submitted job is journaled to `<state>/jobs/job-<id>.json`
//! before it runs and rewritten on completion, so an operator can always
//! answer "what was in flight when the daemon died?". On startup, records
//! stuck in `Queued`/`Running` are marked `Failed` (orphaned by restart) —
//! the manifest-as-durable-record idea from the run harness, applied to
//! the service. Writes go through the cache layer's atomic publish, so
//! records are never torn.

use std::path::{Path, PathBuf};

use amem_core::write_atomic;
use serde::{Deserialize, Serialize};

use crate::protocol::{JobSpec, Priority};

/// Bumped on any incompatible record change; mismatched records are
/// ignored on recovery rather than misread.
pub const JOB_SCHEMA_VERSION: u32 = 1;

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
}

/// The durable form of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    pub schema_version: u32,
    pub id: u64,
    pub tenant: String,
    pub priority: Priority,
    pub status: JobStatus,
    /// Display form of the failure, when `status == Failed`.
    pub error: Option<String>,
    pub spec: JobSpec,
}

/// Writer/recoverer for the records directory. With no state dir the
/// store is a no-op (in-memory test servers don't journal).
pub struct JobStore {
    dir: Option<PathBuf>,
    recovered: usize,
}

impl JobStore {
    /// Open (creating the directory), then mark any `Queued`/`Running`
    /// records from a previous life as failed-by-restart.
    pub fn open(dir: Option<PathBuf>) -> Self {
        let mut store = Self { dir, recovered: 0 };
        if let Some(dir) = store.dir.clone() {
            let _ = std::fs::create_dir_all(&dir);
            store.recovered = store.recover(&dir);
        }
        store
    }

    /// Whether records go anywhere: a caller with no state directory can
    /// skip building them.
    pub fn is_journaling(&self) -> bool {
        self.dir.is_some()
    }

    /// Records orphaned by a crash/restart that were marked failed.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    fn recover(&self, dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut fixed = 0usize;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "json") {
                continue; // in-flight tmp scratch, or foreign debris
            }
            let Ok(json) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(mut rec) = serde_json::from_str::<JobRecord>(&json) else {
                continue;
            };
            if rec.schema_version != JOB_SCHEMA_VERSION {
                continue;
            }
            if matches!(rec.status, JobStatus::Queued | JobStatus::Running) {
                rec.status = JobStatus::Failed;
                rec.error = Some("orphaned by daemon restart".into());
                self.write_at(&path, &rec);
                fixed += 1;
            }
        }
        fixed
    }

    /// Journal one record (published atomically; failures are swallowed
    /// — the journal is an audit trail, not a correctness layer).
    pub fn write(&self, rec: &JobRecord) {
        if let Some(dir) = &self.dir {
            self.write_at(&dir.join(format!("job-{}.json", rec.id)), rec);
        }
    }

    fn write_at(&self, path: &Path, rec: &JobRecord) {
        if let Ok(json) = serde_json::to_string_pretty(rec) {
            let _ = write_atomic(path, &json);
        }
    }

    /// Read one record back (tests, operator tooling).
    pub fn load(&self, id: u64) -> Option<JobRecord> {
        let dir = self.dir.as_ref()?;
        let json = std::fs::read_to_string(dir.join(format!("job-{id}.json"))).ok()?;
        serde_json::from_str(&json).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WorkloadSpec;
    use amem_interfere::InterferenceMix;
    use amem_sim::config::MachineConfig;

    fn record(id: u64, status: JobStatus) -> JobRecord {
        let cfg = MachineConfig::xeon20mb().scaled(0.0625);
        JobRecord {
            schema_version: JOB_SCHEMA_VERSION,
            id,
            tenant: "t".into(),
            priority: Priority::Normal,
            status,
            error: None,
            spec: JobSpec::Measure {
                machine: cfg.clone(),
                workload: WorkloadSpec::Probe(amem_core::figures::fig1_probe(&cfg)),
                per_processor: 1,
                mix: InterferenceMix::none(),
            },
        }
    }

    #[test]
    fn records_round_trip_and_orphans_are_recovered() {
        let dir = std::env::temp_dir().join("amem_serve_jobstore_test");
        let _ = std::fs::remove_dir_all(&dir);

        let store = JobStore::open(Some(dir.clone()));
        assert_eq!(store.recovered(), 0, "fresh dir has no orphans");
        store.write(&record(1, JobStatus::Running));
        store.write(&record(2, JobStatus::Done));
        assert_eq!(store.load(1).unwrap().status, JobStatus::Running);

        // "Crash": reopen. The running record is failed-by-restart, the
        // finished one is untouched.
        let store = JobStore::open(Some(dir.clone()));
        assert_eq!(store.recovered(), 1);
        let orphan = store.load(1).unwrap();
        assert_eq!(orphan.status, JobStatus::Failed);
        assert!(orphan.error.unwrap().contains("restart"));
        assert_eq!(store.load(2).unwrap().status, JobStatus::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_state_dir_is_a_silent_noop() {
        let store = JobStore::open(None);
        store.write(&record(1, JobStatus::Queued));
        assert!(store.load(1).is_none());
        assert_eq!(store.recovered(), 0);
    }
}
