//! Run manifests: the reproducibility record every experiment leaves behind.
//!
//! Each reproduction binary writes a schema-versioned
//! `target/repro/<name>.manifest.json` capturing *everything needed to
//! re-run and compare*: the machine configuration, scale, seed,
//! interference spec, host wall time, simulated time, final aggregate
//! counters and the derived result tables. `repro all` then loads every
//! manifest in the directory and renders a cross-experiment comparison
//! report.
//!
//! Schema policy (see EXPERIMENTS.md): `schema_version` bumps on any
//! field removal or meaning change; additive fields keep the version.
//! Readers accept any version `<= SCHEMA_VERSION` (unknown old fields
//! simply deserialize into their defaults) and refuse newer ones.

use std::path::Path;

use amem_sim::config::MachineConfig;
use amem_sim::CoreCounters;
use serde::{Deserialize, Serialize};

use crate::report::Table;

/// Current manifest schema version. Bump on breaking changes only.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything one experiment run wants remembered.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version this manifest was written with.
    pub schema_version: u32,
    /// Experiment name (the binary name, e.g. `fig9_mcb_sweep`).
    pub name: String,
    /// Full machine configuration the run simulated.
    pub machine: MachineConfig,
    /// Geometry scale factor applied to the base machine (1.0 = full).
    pub scale: f64,
    /// RNG seed, when the experiment draws random numbers.
    pub seed: Option<u64>,
    /// Human-readable interference description (kind x count), if any.
    pub interference: Option<String>,
    /// Host wall-clock seconds the reproduction took.
    pub wall_seconds: f64,
    /// Simulated seconds of the headline run, when meaningful.
    pub sim_seconds: Option<f64>,
    /// Aggregate end-of-run counters of the headline run, when captured.
    pub final_counters: Option<CoreCounters>,
    /// The derived result tables (same data as the printed output/CSV).
    pub tables: Vec<Table>,
    /// Free-form notes (deviations, tolerances, pointers to figures).
    pub notes: Vec<String>,
    /// Measurement-cache counters of the run's executor, when it had one
    /// (additive in schema v1: absent in older manifests).
    pub cache: Option<crate::executor::CacheStats>,
    /// Robustness counters — trials, retries, timeouts, injected faults,
    /// rejected outliers, degraded sweep points — when the run used the
    /// trial/retry machinery (additive in schema v1; absent before).
    pub quality: Option<crate::trial::QualityStats>,
    /// Full metrics snapshot when the run collected metrics
    /// (`--metrics`). Additive in schema v1: absent both in older
    /// manifests and in default runs with the gate off.
    pub metrics: Option<amem_metrics::Snapshot>,
}

impl RunManifest {
    /// A fresh manifest at the current schema version.
    pub fn new(name: impl Into<String>, machine: MachineConfig) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            name: name.into(),
            machine,
            scale: 1.0,
            seed: None,
            interference: None,
            wall_seconds: 0.0,
            sim_seconds: None,
            final_counters: None,
            tables: Vec::new(),
            notes: Vec::new(),
            cache: None,
            quality: None,
            metrics: None,
        }
    }

    /// Pretty-JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifests are serializable")
    }

    /// Write to `path`, creating parent directories as needed.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Parse a manifest, refusing versions newer than this reader.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let m: RunManifest =
            serde_json::from_str(json).map_err(|e| format!("manifest parse error: {e:?}"))?;
        if m.schema_version > SCHEMA_VERSION {
            return Err(format!(
                "manifest '{}' has schema v{} but this reader only knows v{}",
                m.name, m.schema_version, SCHEMA_VERSION
            ));
        }
        Ok(m)
    }

    /// Load one manifest from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}

/// Load every `*.manifest.json` under `dir`, sorted by experiment name.
/// Unreadable or future-versioned manifests are returned as errors in the
/// second list rather than aborting the aggregation.
pub fn load_dir(dir: impl AsRef<Path>) -> (Vec<RunManifest>, Vec<String>) {
    let mut manifests = Vec::new();
    let mut errors = Vec::new();
    let entries = match std::fs::read_dir(dir.as_ref()) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("cannot list {}: {e}", dir.as_ref().display()));
            return (manifests, errors);
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_manifest = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".manifest.json"));
        if !is_manifest {
            continue;
        }
        match RunManifest::load(&path) {
            Ok(m) => manifests.push(m),
            Err(e) => errors.push(e),
        }
    }
    manifests.sort_by(|a, b| a.name.cmp(&b.name));
    (manifests, errors)
}

/// One row per run: the cross-experiment comparison `repro all` prints.
pub fn comparison_table(manifests: &[RunManifest]) -> Table {
    let mut t = Table::new(
        "Reproduction manifests",
        &[
            "experiment",
            "machine",
            "scale",
            "wall (s)",
            "sim (s)",
            "L3 miss",
            "cache",
            "tables",
        ],
    );
    for m in manifests {
        t.row(vec![
            m.name.clone(),
            m.machine.name.clone(),
            format!("{:.3}", m.scale),
            format!("{:.2}", m.wall_seconds),
            m.sim_seconds
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "-".into()),
            m.final_counters
                .map(|c| format!("{:.3}", c.l3_miss_rate()))
                .unwrap_or_else(|| "-".into()),
            m.cache
                .filter(|c| c.lookups() > 0)
                .map(|c| format!("{}/{}", c.hits(), c.lookups()))
                .unwrap_or_else(|| "-".into()),
            m.tables.len().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("demo_experiment", MachineConfig::xeon20mb().scaled(0.125));
        m.scale = 0.125;
        m.seed = Some(42);
        m.interference = Some("Storage x3".into());
        m.wall_seconds = 1.5;
        m.sim_seconds = Some(0.02);
        m.final_counters = Some(CoreCounters {
            loads: 100,
            l3_hits: 30,
            l3_misses: 10,
            cycles: 1000,
            ..Default::default()
        });
        let mut t = Table::new("demo", &["k", "s"]);
        t.row(vec!["0".into(), "1.0".into()]);
        m.tables.push(t);
        m.notes.push("unit-test manifest".into());
        m
    }

    #[test]
    fn roundtrips_through_json() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.name, m.name);
        assert_eq!(back.machine.name, m.machine.name);
        assert_eq!(back.seed, Some(42));
        assert_eq!(back.final_counters.unwrap().loads, 100);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(back.tables[0].rows[0][1], "1.0");
    }

    #[test]
    fn cache_stats_round_trip() {
        let mut m = sample();
        m.cache = Some(crate::executor::CacheStats {
            sim_runs: 3,
            mem_hits: 7,
            disk_hits: 2,
            dedup_hits: 1,
            stores: 3,
            curves: Some(crate::executor::CurveCacheStats {
                runs: 2,
                disk_hits: 4,
                ..Default::default()
            }),
        });
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.cache, m.cache);
        assert_eq!(back.cache.unwrap().hits(), 10);
        assert_eq!(back.cache.unwrap().curves().lookups(), 6);
    }

    #[test]
    fn quality_stats_round_trip() {
        let mut m = sample();
        m.quality = Some(crate::trial::QualityStats {
            trials: 30,
            retries: 4,
            timeouts: 1,
            faults: 2,
            non_finite: 1,
            outliers_rejected: 3,
            degraded_points: 1,
        });
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.quality, m.quality);
        // And a pre-robustness manifest without the key still loads.
        let json = sample().to_json().replace(",\n  \"quality\": null", "");
        assert!(!json.contains("\"quality\""));
        assert!(RunManifest::from_json(&json).unwrap().quality.is_none());
    }

    #[test]
    fn metrics_snapshot_round_trip_and_absence() {
        let mut m = sample();
        let reg = amem_metrics::Registry::new();
        reg.counter("amem_executor_requests_total", &[("outcome", "sim")])
            .add(4);
        reg.histogram("amem_executor_dedup_wait_ns", &[])
            .record(512);
        m.metrics = Some(reg.snapshot());
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.metrics, m.metrics);
        assert_eq!(
            back.metrics
                .as_ref()
                .unwrap()
                .counter("amem_executor_requests_total", &[("outcome", "sim")]),
            Some(4)
        );
        // A manifest written before the metrics field existed still loads.
        let json = sample().to_json().replace(",\n  \"metrics\": null", "");
        assert!(!json.contains("\"metrics\""));
        assert!(RunManifest::from_json(&json).unwrap().metrics.is_none());
    }

    #[test]
    fn manifests_without_cache_field_still_load() {
        // Additive schema policy: a v1 manifest written before the cache
        // field existed (no `cache` key at all) must deserialize.
        let json = sample().to_json().replace(",\n  \"cache\": null", "");
        assert!(!json.contains("cache"));
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(back.name, "demo_experiment");
        assert!(back.cache.is_none());
    }

    #[test]
    fn rejects_future_schema_versions() {
        let mut m = sample();
        m.schema_version = SCHEMA_VERSION + 1;
        let err = RunManifest::from_json(&m.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn load_dir_collects_and_sorts() {
        let dir = std::env::temp_dir().join("amem_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = sample();
        b.name = "bbb".into();
        b.write(dir.join("bbb.manifest.json")).unwrap();
        let mut a = sample();
        a.name = "aaa".into();
        a.write(dir.join("aaa.manifest.json")).unwrap();
        // A future-versioned manifest must surface as an error, not a panic.
        let mut f = sample();
        f.name = "future".into();
        f.schema_version = SCHEMA_VERSION + 7;
        f.write(dir.join("future.manifest.json")).unwrap();
        std::fs::write(dir.join("not-a-manifest.txt"), "ignored").unwrap();
        let (ms, errs) = load_dir(&dir);
        assert_eq!(
            ms.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            vec!["aaa", "bbb"]
        );
        assert_eq!(errs.len(), 1, "{errs:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparison_table_has_one_row_per_manifest() {
        let t = comparison_table(&[sample(), sample()]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "demo_experiment");
        assert_eq!(t.rows[0][2], "0.125");
    }
}
