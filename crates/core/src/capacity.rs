//! Effective-capacity calibration: how much L3 does `k` CSThrs leave?
//!
//! The Fig. 6 machinery of §III-C3: run the probabilistic probes against
//! `k` CSThrs, measure their L3 miss rates, invert Eq. 4, and average the
//! implied effective capacity over probe distributions and buffer sizes.
//! The paper's result on Xeon20MB: 0→20 MB, 1→15, 2→12, 3→7, 4→5(4),
//! 5→2.5(3) MB.
//!
//! Calibration is expensive (it is a grid of simulations), so the map can
//! also be constructed from the paper's published fractions
//! ([`CapacityMap::paper_xeon20mb`]) when the machine *is* the paper's.

use amem_probes::dist::{table2, AccessDist};
use amem_probes::ehr;
use amem_probes::probe::ProbeCfg;
use amem_sim::config::MachineConfig;
use serde::{Deserialize, Serialize};

use crate::curve::{CurveMode, CurveOpts, CurveRequest};
use crate::error::AmemError;
use crate::executor::Executor;
use crate::par_map;

/// Calibration options. Since the single-pass curve engine the grid
/// knobs and the curve-mode knobs are one builder: [`CurveOpts`].
pub type CalibrateOpts = CurveOpts;

/// Mean ± stddev effective capacity at one interference level.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CapacityPoint {
    pub cs_threads: usize,
    pub mean_bytes: f64,
    pub stddev_bytes: f64,
}

/// Map from CSThr count to effective available L3 capacity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapacityMap {
    pub points: Vec<CapacityPoint>,
}

impl CapacityMap {
    /// Lines of L3 left to a victim at each CSThr level `0..=max_cs`:
    /// each thread's streaming buffer occupies its share of the shared
    /// cache, floored at L3/32 (even under maximal interference the
    /// victim keeps a residual churn share — the paper's ladder bottoms
    /// out near 3–4% too, not at zero).
    pub fn level_ladder(cfg: &MachineConfig, max_cs: usize) -> Vec<u64> {
        let l3_lines = cfg.l3.lines();
        let line_bytes = cfg.l3.line_bytes as u64;
        let cs_lines = amem_interfere::CsThreadCfg::for_machine(cfg).buffer_bytes / line_bytes;
        (0..=max_cs as u64)
            .map(|k| l3_lines.saturating_sub(k * cs_lines).max(l3_lines >> 5))
            .collect()
    }

    /// Calibrate via the single-pass curve engine: [`capacity_grid`]
    /// over every `dist_step`-th Table II distribution and `opts.ratios`
    /// yields, per cell, the miss rate at *every* CSThr level's effective
    /// capacity at once — where the probe grid it replaced re-simulated
    /// each (cell, level) pair — and the ladder is the mean and spread
    /// over cells, distribution-major. Calibration and prediction go
    /// through this one entry point, fig6 through the same grid.
    ///
    /// Refused before any work, naming the field: a `max_cs` whose
    /// CSThrs cannot all sit beside the probe on one socket (the rule
    /// simulated mixes are held to), and the ratios [`capacity_grid`]
    /// refuses.
    pub fn calibrate(exec: &Executor, opts: &CalibrateOpts) -> Result<Self, AmemError> {
        let cfg = exec.platform().cfg();
        let beside_probe = (cfg.cores_per_socket as usize).saturating_sub(1);
        if opts.max_cs > beside_probe {
            return Err(AmemError::Unsupported(format!(
                "calibrate: max_cs {} exceeds the {beside_probe} cores a socket has beside the probe",
                opts.max_cs
            )));
        }
        let ladder = Self::level_ladder(cfg, opts.max_cs);
        let dists: Vec<AccessDist> = table2()
            .into_iter()
            .step_by(opts.dist_step.max(1))
            .map(|nd| nd.dist)
            .collect();
        let cells = capacity_grid(exec, &dists, &opts.ratios, &ladder, opts.mode)?;
        let points = (0..=opts.max_cs)
            .map(|k| {
                let vals: Vec<f64> = cells.iter().map(|cell| cell.caps[k]).collect();
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                let var =
                    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
                CapacityPoint {
                    cs_threads: k,
                    mean_bytes: mean,
                    stddev_bytes: var.sqrt(),
                }
            })
            .collect();
        Ok(Self { points })
    }

    /// The paper's measured Xeon20MB ladder (§III-C3 / §IV), expressed as
    /// fractions of the machine's L3 so it scales with the config:
    /// {20, 15, 12, 7, 5, 3} MB of 20. (The paper uses 4 MB for k=4 and
    /// 2.5 MB for k=5 in one place and 5/3 in another; we take the §IV
    /// values used for the application analysis.)
    pub fn paper_xeon20mb(cfg: &MachineConfig) -> Self {
        let fr = [1.0, 0.75, 0.60, 0.35, 0.20, 0.15];
        let l3 = cfg.l3.size_bytes as f64;
        Self {
            points: fr
                .iter()
                .enumerate()
                .map(|(k, f)| CapacityPoint {
                    cs_threads: k,
                    mean_bytes: f * l3,
                    stddev_bytes: 0.0,
                })
                .collect(),
        }
    }

    /// Effective capacity (bytes) available to applications at `k` CSThrs.
    /// Levels beyond the calibrated range clamp to the last point.
    pub fn available_bytes(&self, k: usize) -> f64 {
        self.points
            .iter()
            .find(|p| p.cs_threads == k)
            .or_else(|| self.points.last())
            .map(|p| p.mean_bytes)
            .unwrap_or(0.0)
    }

    /// Highest calibrated level.
    pub fn max_level(&self) -> usize {
        self.points.last().map(|p| p.cs_threads).unwrap_or(0)
    }
}

/// One (distribution, buffer ratio) cell of a capacity grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Eq. 4's effective capacity, in bytes, at each rung of the ladder.
    pub caps: Vec<f64>,
    /// The curve's worst per-point miss-rate CI95; 0 for an exact curve.
    pub max_ci95: f64,
}

/// The cells of a capacity grid, distribution-major (`dists.len()` runs
/// of `ratios.len()` cells): per cell, the probe's curve at the
/// `ladder`'s capacities (in lines) and Eq. 4's inversion at every rung,
/// with the cell's `Σg²` from [`Executor::sum_sq_line_mass`]. In exact
/// mode a distribution's buffer sizes share one draw sequence, so each
/// distribution is one [`Executor::run_curves`] batch; sampled cells
/// share nothing, so each is its own batch and they spread evenly over
/// the workers. Batches run in parallel; callers fold the cells in their
/// own order. Ratios are checked before any work
/// ([`CapacityMap::calibrate`] documents the refusals).
pub fn capacity_grid(
    exec: &Executor,
    dists: &[AccessDist],
    ratios: &[f64],
    ladder: &[u64],
    mode: CurveMode,
) -> Result<Vec<GridCell>, AmemError> {
    check_ratios(ratios)?;
    let cfg = exec.platform().cfg();
    let line_bytes = cfg.l3.line_bytes as u64;
    // Curves do not depend on the compute intensity: adds/load 1 stands
    // for every intensity.
    let probes: Vec<ProbeCfg> = dists
        .iter()
        .flat_map(|&dist| {
            ratios
                .iter()
                .map(move |&r| ProbeCfg::for_machine(cfg, dist, r, 1))
        })
        .collect();
    let per_batch = if mode == CurveMode::Exact {
        ratios.len()
    } else {
        1
    };
    let cells: Vec<Result<Vec<GridCell>, AmemError>> = par_map(probes.chunks(per_batch), |batch| {
        let _batch = amem_metrics::phase("grid/capacity batch");
        let reqs: Vec<CurveRequest> = batch
            .iter()
            .map(|p| CurveRequest::from_probe(p, line_bytes, ladder.to_vec(), mode))
            .collect();
        exec.run_curves(&reqs)
            .into_iter()
            .zip(batch)
            .map(|(curve, p)| {
                let curve = curve?;
                let ssq = exec.sum_sq_line_mass(&p.dist, p.buffer_bytes, line_bytes);
                let caps = ladder
                    .iter()
                    .map(|&c| {
                        let mr = curve.miss_rate_at((c * line_bytes) as f64);
                        ehr::effective_cache_bytes(mr, ssq, line_bytes)
                    })
                    .collect();
                Ok(GridCell {
                    caps,
                    max_ci95: curve.quality.map_or(0.0, |q| q.max_ci95),
                })
            })
            .collect()
    });
    let mut grid = Vec::with_capacity(probes.len());
    for batch in cells {
        grid.extend(batch?);
    }
    Ok(grid)
}

/// A grid needs at least one buffer ratio, each finite and positive.
fn check_ratios(ratios: &[f64]) -> Result<(), AmemError> {
    if ratios.is_empty() {
        return Err(AmemError::Unsupported(
            "capacity grid: ratios is empty".into(),
        ));
    }
    match ratios.iter().find(|r| !(r.is_finite() && **r > 0.0)) {
        Some(r) => Err(AmemError::Unsupported(format!(
            "capacity grid: ratios entry {r} is not finite and positive"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{ProbeWorkload, SimPlatform};
    use amem_interfere::InterferenceMix;

    fn cfg() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.0625)
    }

    #[test]
    fn paper_map_fractions() {
        let c = MachineConfig::xeon20mb();
        let m = CapacityMap::paper_xeon20mb(&c);
        let mb = |k: usize| m.available_bytes(k) / (1 << 20) as f64;
        assert!((mb(0) - 20.0).abs() < 1e-9);
        assert!((mb(1) - 15.0).abs() < 1e-9);
        assert!((mb(2) - 12.0).abs() < 1e-9);
        assert!((mb(3) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn beyond_range_clamps() {
        let m = CapacityMap::paper_xeon20mb(&MachineConfig::xeon20mb());
        assert_eq!(m.available_bytes(9), m.available_bytes(5));
        assert_eq!(m.max_level(), 5);
    }

    #[test]
    fn calibration_is_monotone_decreasing() {
        // Small grid at tiny scale: the ladder must decrease.
        let opts = CalibrateOpts::default()
            .with_dist_step(9) // Norm_4 and Uni: the two concentration edges
            .with_ratios(vec![2.5])
            .with_max_cs(3);
        let exec = Executor::memory_only(SimPlatform::new(cfg()));
        let m = CapacityMap::calibrate(&exec, &opts).expect("calibrate");
        assert_eq!(m.points.len(), 4);
        for w in m.points.windows(2) {
            assert!(
                w[1].mean_bytes < w[0].mean_bytes * 1.02,
                "capacity must fall with more CSThrs: {:?}",
                m.points
            );
        }
        // Uninterfered capacity lands near the real L3 (the model's
        // fully-associative assumption biases it a little low).
        let l3 = cfg().l3.size_bytes as f64;
        assert!(m.points[0].mean_bytes > 0.7 * l3);
        assert!(m.points[0].mean_bytes < 1.3 * l3);
    }

    /// `calibrate` with one option broken: the typed refusal, and proof
    /// that it came before any curve work.
    fn refusal(broken: CalibrateOpts) -> String {
        let exec = Executor::memory_only(SimPlatform::new(cfg()));
        let err = CapacityMap::calibrate(&exec, &broken).expect_err("a degenerate calibration");
        assert_eq!(
            exec.stats().curves().lookups(),
            0,
            "refused before any work"
        );
        match err {
            AmemError::Unsupported(msg) => msg,
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn empty_ratios_are_refused_typed() {
        let msg = refusal(CalibrateOpts::default().with_ratios(vec![]));
        assert!(msg.contains("ratios is empty"), "{msg}");
    }

    #[test]
    fn a_ratio_that_is_not_finite_and_positive_is_refused_typed() {
        for bad in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
            let msg = refusal(CalibrateOpts::default().with_ratios(vec![2.0, bad]));
            assert!(msg.contains(&format!("ratios entry {bad}")), "{msg}");
        }
    }

    #[test]
    fn more_csthrs_than_fit_beside_the_probe_are_refused_typed() {
        let beside = cfg().cores_per_socket as usize - 1;
        for max_cs in [beside + 1, 1 << 40, usize::MAX] {
            let msg = refusal(CalibrateOpts::default().with_max_cs(max_cs));
            assert!(msg.contains(&format!("max_cs {max_cs}")), "{msg}");
        }
        let exec = Executor::memory_only(SimPlatform::new(cfg()));
        let opts = CalibrateOpts::default()
            .with_dist_step(9)
            .with_max_cs(beside);
        let m = CapacityMap::calibrate(&exec, &opts).expect("the fullest socket calibrates");
        assert_eq!(m.max_level(), beside);
    }

    #[test]
    fn ladder_starts_full_falls_linearly_and_floors() {
        let c = cfg();
        let ladder = CapacityMap::level_ladder(&c, 8);
        let l3_lines = c.l3.lines();
        assert_eq!(ladder[0], l3_lines);
        for w in ladder.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // Each CSThr takes ~1/5 of the L3 (its buffer is 4 of 20 MB).
        assert!((ladder[1] as f64 / l3_lines as f64 - 0.8).abs() < 0.01);
        // Deep levels floor at the churn share, never zero.
        assert_eq!(*ladder.last().unwrap(), l3_lines >> 5);
    }

    impl CapacityMap {
        /// The pre-curve calibration path, kept as the oracle for the curve
        /// engine: run the full probe grid of (level × distribution × ratio)
        /// co-running simulations through the executor, one simulation per
        /// grid point. Unlike a curve, the simulation depends on the
        /// probe's `adds_per_load`.
        fn calibrate_probe_grid(
            exec: &Executor,
            opts: &CalibrateOpts,
            adds_per_load: u32,
        ) -> Result<Self, AmemError> {
            let cfg = exec.platform().cfg().clone();
            let dists: Vec<_> = table2()
                .into_iter()
                .step_by(opts.dist_step.max(1))
                .collect();
            let grid: Vec<(usize, usize, usize)> = (0..=opts.max_cs)
                .flat_map(|k| {
                    let ratios = 0..opts.ratios.len();
                    dists
                        .iter()
                        .enumerate()
                        .flat_map(move |(di, _)| ratios.clone().map(move |ri| (k, di, ri)))
                        .collect::<Vec<_>>()
                })
                .collect();
            let caps: Vec<(usize, Result<f64, AmemError>)> = par_map(&grid, |&(k, di, ri)| {
                let dist = dists[di].dist;
                let p = ProbeCfg::for_machine(&cfg, dist, opts.ratios[ri], adds_per_load);
                let cap = exec
                    .run(&ProbeWorkload(p), 1, InterferenceMix::storage(k))
                    .map(|m| {
                        let ssq = ehr::sum_sq_line_mass(&dist, p.buffer_bytes, 4, 64);
                        ehr::effective_cache_bytes(m.l3_miss_rate, ssq, cfg.l3.line_bytes as u64)
                    });
                (k, cap)
            });
            let caps: Vec<(usize, f64)> = caps
                .into_iter()
                .map(|(k, c)| c.map(|c| (k, c)))
                .collect::<Result<_, _>>()?;
            let points = (0..=opts.max_cs)
                .map(|k| {
                    let vals: Vec<f64> = caps
                        .iter()
                        .filter(|(kk, _)| *kk == k)
                        .map(|(_, c)| *c)
                        .collect();
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                        / vals.len() as f64;
                    CapacityPoint {
                        cs_threads: k,
                        mean_bytes: mean,
                        stddev_bytes: var.sqrt(),
                    }
                })
                .collect();
            Ok(Self { points })
        }
    }

    #[test]
    fn curve_calibration_agrees_with_the_probe_grid_at_k0() {
        // At k=0 both paths ask "what capacity explains the probe's miss
        // rate on the uncontended machine" — the curve pass on the exact
        // line trace and the cycle-level simulation must agree closely.
        let opts = CalibrateOpts::default()
            .with_dist_step(9)
            .with_ratios(vec![2.5])
            .with_max_cs(0);
        let exec = Executor::memory_only(SimPlatform::new(cfg()));
        let curve = CapacityMap::calibrate(&exec, &opts).expect("curve calibrate");
        let grid = CapacityMap::calibrate_probe_grid(&exec, &opts, 1).expect("grid calibrate");
        let (a, b) = (curve.points[0].mean_bytes, grid.points[0].mean_bytes);
        assert!(
            (a / b - 1.0).abs() < 0.2,
            "curve {a:.3e} vs grid {b:.3e} bytes"
        );
    }
}
