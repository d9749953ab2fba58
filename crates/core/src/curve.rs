//! First-class miss-ratio-curve requests.
//!
//! PR 6's profiler showed the §III-C3 probe grid re-simulates the same
//! access stream once per CSThr level × capacity point — ~99% of fig6's
//! wall. The Mattson inclusion property makes that redundant: *one*
//! stack-distance traversal of the probe's line trace yields the miss
//! rate at **every** capacity (see [`amem_sim::stackdist`]). This module
//! promotes that pass to the unit of work the executor caches:
//! a [`CurveRequest`] names the trace and the capacity grid, and
//! [`crate::executor::Executor::run_curve`] returns the whole
//! [`MissRatioCurve`] — one cache entry per curve instead of one per
//! grid point.
//!
//! Two modes ([`CurveMode`]):
//!
//! * `Exact` — full stream, exact stack distances. Deterministic and
//!   bit-stable; the conformance lockstep suite proves it equal to naive
//!   per-point fully-associative LRU simulation.
//! * `Sampled { rate }` — Examem-style spatial sampling: the stream is
//!   generated directly from the conditional distribution over a
//!   hash-sampled subset of lines ([`amem_probes::trace`]), so the
//!   stream and the pass shrink by ~`rate`. Choosing the lines and
//!   Eq. 4's `Σg²` still visit every buffer line, so a calibration at
//!   rate 0.1 costs 0.19× the exact one (45 against 239 ms of
//!   `core.capacity.calibrate` self time on the benchmark grid), not
//!   0.1×. The sampling error bound is recorded in [`CurveQuality`].

use serde::{Deserialize, Serialize};

use crate::error::AmemError;
use crate::mrc::MissRatioCurve;
use amem_probes::dist::AccessDist;
use amem_probes::probe::ProbeCfg;
use amem_probes::trace;

/// Version of the curve serde/cache-entry format. Bump to orphan stale
/// curve entries; per-point measurement entries are versioned separately
/// by [`crate::executor::CACHE_SCHEMA_VERSION`].
pub const CURVE_SCHEMA_VERSION: u32 = 1;

/// Default spatial sampling rate of `--curve-mode sampled`.
pub const DEFAULT_SAMPLE_RATE: f64 = 0.01;

/// How to traverse the trace.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CurveMode {
    /// Full trace, exact stack distances.
    #[default]
    Exact,
    /// Spatially sample lines at `rate`: a stream ~`rate` as long (0.19×
    /// the exact calibration's cost at rate 0.1, see the module docs),
    /// with error `O(1/√sampled_accesses)` recorded in [`CurveQuality`].
    Sampled { rate: f64 },
}

impl CurveMode {
    /// The line-sampling rate this mode asks for (1.0 for exact).
    pub fn rate(&self) -> f64 {
        match *self {
            CurveMode::Exact => 1.0,
            CurveMode::Sampled { rate } => rate,
        }
    }

    /// Parse a `--curve-mode` argument: `exact`, `sampled`, or
    /// `sampled:<rate>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(CurveMode::Exact),
            "sampled" => Ok(CurveMode::Sampled {
                rate: DEFAULT_SAMPLE_RATE,
            }),
            _ => {
                if let Some(r) = s.strip_prefix("sampled:") {
                    let rate: f64 = r
                        .parse()
                        .map_err(|_| format!("bad sample rate {r:?} in --curve-mode"))?;
                    if !(rate > 0.0 && rate <= 1.0) {
                        return Err(format!("sample rate {rate} not in (0, 1]"));
                    }
                    Ok(CurveMode::Sampled { rate })
                } else {
                    Err(format!(
                        "unknown curve mode {s:?} (expected exact|sampled|sampled:<rate>)"
                    ))
                }
            }
        }
    }
}

/// Sampling-error metadata attached to a sampled curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurveQuality {
    /// Rate requested by the mode.
    pub rate_nominal: f64,
    /// Fraction of distinct lines actually sampled (the distance
    /// scaling factor used).
    pub rate_actual: f64,
    /// Measured accesses in the sampled sub-trace.
    pub sampled_accesses: u64,
    /// Distribution-free 95% half-width of the per-point miss-rate
    /// estimate (see `StackDistHistogram::max_ci95`).
    pub max_ci95: f64,
}

/// Everything that determines a curve, and nothing that doesn't.
///
/// Deliberately *excludes* `adds_per_load` and `mlp`: `Compute` ops never
/// touch memory, so every compute intensity interleaving the same loads
/// shares one curve — fig6's three intensity levels become one cache
/// entry by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveRequest {
    pub dist: AccessDist,
    pub buffer_bytes: u64,
    pub warm_accesses: u64,
    pub measure_accesses: u64,
    pub seed: u64,
    pub line_bytes: u64,
    /// Capacities (in lines) to evaluate the curve at.
    pub capacities_lines: Vec<u64>,
    pub mode: CurveMode,
}

impl CurveRequest {
    /// A request covering a probe configuration. Timing-only probe knobs
    /// (`adds_per_load`, `mlp`) are dropped — see the type docs.
    pub fn from_probe(
        probe: &ProbeCfg,
        line_bytes: u64,
        capacities_lines: Vec<u64>,
        mode: CurveMode,
    ) -> Self {
        Self {
            dist: probe.dist,
            buffer_bytes: probe.buffer_bytes,
            warm_accesses: probe.warm_accesses,
            measure_accesses: probe.measure_accesses,
            seed: probe.seed,
            line_bytes,
            capacities_lines,
            mode,
        }
    }

    /// The probe configuration whose line trace this request names.
    fn probe_cfg(&self) -> ProbeCfg {
        ProbeCfg {
            dist: self.dist,
            buffer_bytes: self.buffer_bytes,
            adds_per_load: 1,
            warm_accesses: self.warm_accesses,
            measure_accesses: self.measure_accesses,
            mlp: 2,
            seed: self.seed,
        }
    }

    /// Reject a request the pass cannot honour, naming the field, before
    /// any work is done on it.
    fn validate(&self) -> Result<(), AmemError> {
        let reject = |what: String| Err(AmemError::Unsupported(format!("curve request: {what}")));
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 4 {
            return reject(format!(
                "line_bytes {} is not a power of two >= 4",
                self.line_bytes
            ));
        }
        if self.buffer_bytes < 4 {
            return reject(format!(
                "buffer_bytes {} holds no 4-byte element",
                self.buffer_bytes
            ));
        }
        if let CurveMode::Sampled { rate } = self.mode {
            if !(rate > 0.0 && rate <= 1.0) {
                return reject(format!("mode sample rate {rate} is not in (0, 1]"));
            }
        }
        if self.capacities_lines.is_empty() {
            return reject("capacities_lines is empty".into());
        }
        if let Some(c) = self
            .capacities_lines
            .iter()
            .find(|c| c.checked_mul(self.line_bytes).is_none())
        {
            return reject(format!(
                "capacities_lines entry {c} overflows u64 bytes at line_bytes {}",
                self.line_bytes
            ));
        }
        if self
            .warm_accesses
            .checked_add(self.measure_accesses)
            .is_none()
        {
            return reject(format!(
                "warm_accesses {} + measure_accesses {} overflows u64",
                self.warm_accesses, self.measure_accesses
            ));
        }
        Ok(())
    }

    /// Whether `self` and `other` draw one sequence of positions: both
    /// exact, equal in every field but `buffer_bytes` and
    /// `capacities_lines`. The buffer only scales a draw into an
    /// element, so such requests can share their draws.
    fn shares_draws(&self, other: &CurveRequest) -> bool {
        self.mode == CurveMode::Exact
            && other.mode == CurveMode::Exact
            && self.dist == other.dist
            && self.warm_accesses == other.warm_accesses
            && self.measure_accesses == other.measure_accesses
            && self.seed == other.seed
            && self.line_bytes == other.line_bytes
    }

    /// Run the single-pass engine: the batch computation behind
    /// [`crate::Executor::run_curves`], for one request.
    pub fn compute(&self) -> Result<MissRatioCurve, AmemError> {
        Self::compute_batch(&[self])
            .pop()
            .expect("one result per request")
    }

    /// Run the single-pass engine for each request, results in request
    /// order. Pure CPU work — no simulator machine is built, so a result
    /// is independent of the execution platform. Each request is
    /// validated first; a malformed one is refused with its own error and
    /// costs the others nothing. Exact requests equal in every field but
    /// `buffer_bytes` and `capacities_lines` form one group whose
    /// positions are drawn once ([`trace::exact_histograms`]); each member
    /// still gets its own pass, and its curve is built before the next
    /// pass starts. A lone request streams its lines into the pass and
    /// holds no trace. Sampled mode falls back to exact when the buffer is
    /// too small to sample (the quality block then reports
    /// `rate_actual = 1.0`).
    pub(crate) fn compute_batch(reqs: &[&CurveRequest]) -> Vec<Result<MissRatioCurve, AmemError>> {
        let mut out: Vec<Option<Result<MissRatioCurve, AmemError>>> =
            reqs.iter().map(|r| r.validate().err().map(Err)).collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, req) in reqs.iter().enumerate().filter(|&(i, _)| out[i].is_none()) {
            match groups.iter_mut().find(|g| reqs[g[0]].shares_draws(req)) {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }
        for group in groups {
            let _pass = amem_metrics::phase("curve_pass");
            let head = reqs[group[0]];
            if let CurveMode::Sampled { rate } = head.mode {
                out[group[0]] = Some(Ok(head.sampled_curve(rate)));
                continue;
            }
            let probes: Vec<ProbeCfg> = group.iter().map(|&i| reqs[i].probe_cfg()).collect();
            trace::exact_histograms(&probes, head.line_bytes, |m, hist| {
                let req = reqs[group[m]];
                out[group[m]] = Some(Ok(MissRatioCurve::from_stack_distances(
                    &hist,
                    &req.capacities_lines,
                    req.line_bytes,
                )));
            });
        }
        out.into_iter()
            .map(|r| r.expect("every request is refused or computed"))
            .collect()
    }

    /// The sampled pass at `rate_nominal`, with its quality block.
    fn sampled_curve(&self, rate_nominal: f64) -> MissRatioCurve {
        let probe = self.probe_cfg();
        let (stream, rate) = trace::sampled_lines(&probe, self.line_bytes, rate_nominal)
            .unwrap_or_else(|| (trace::lines(&probe, self.line_bytes), 1.0));
        let hist = stream.histogram(rate);
        let mut curve =
            MissRatioCurve::from_stack_distances(&hist, &self.capacities_lines, self.line_bytes);
        curve.quality = Some(CurveQuality {
            rate_nominal,
            rate_actual: rate,
            sampled_accesses: hist.measured,
            max_ci95: hist.max_ci95(),
        });
        curve
    }
}

/// One builder for everything calibration needs: the grid resolution
/// knobs of the old `CalibrateOpts` plus the curve mode.
#[derive(Debug, Clone)]
pub struct CurveOpts {
    /// Use every `dist_step`-th Table II distribution (1 = all ten).
    pub dist_step: usize,
    /// Probe buffer sizes as ratios of the L3.
    pub ratios: Vec<f64>,
    /// Calibrate 0..=max_cs CSThr levels.
    pub max_cs: usize,
    /// Exact or sampled traversal.
    pub mode: CurveMode,
}

impl Default for CurveOpts {
    fn default() -> Self {
        Self {
            dist_step: 3,
            ratios: vec![2.0, 3.0],
            max_cs: 5,
            mode: CurveMode::Exact,
        }
    }
}

impl CurveOpts {
    pub fn with_mode(mut self, mode: CurveMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn with_max_cs(mut self, max_cs: usize) -> Self {
        self.max_cs = max_cs;
        self
    }

    pub fn with_ratios(mut self, ratios: Vec<f64>) -> Self {
        self.ratios = ratios;
        self
    }

    pub fn with_dist_step(mut self, dist_step: usize) -> Self {
        self.dist_step = dist_step;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_probes::dist::AccessDist;

    fn request(mode: CurveMode) -> CurveRequest {
        CurveRequest {
            dist: AccessDist::Exponential { rate: 6.0 },
            buffer_bytes: 2 << 20,
            warm_accesses: 30_000,
            measure_accesses: 30_000,
            seed: 7,
            line_bytes: 64,
            capacities_lines: vec![1024, 4096, 8192, 16384, 32768],
            mode,
        }
    }

    #[test]
    fn parse_modes() {
        assert_eq!(CurveMode::parse("exact").unwrap(), CurveMode::Exact);
        assert_eq!(
            CurveMode::parse("sampled").unwrap(),
            CurveMode::Sampled {
                rate: DEFAULT_SAMPLE_RATE
            }
        );
        assert_eq!(
            CurveMode::parse("sampled:0.1").unwrap(),
            CurveMode::Sampled { rate: 0.1 }
        );
        assert!(CurveMode::parse("sampled:2.0").is_err());
        assert!(CurveMode::parse("grid").is_err());
    }

    #[test]
    fn exact_curve_is_monotone_and_unqualified() {
        let c = request(CurveMode::Exact).compute().unwrap();
        assert!(c.quality.is_none());
        assert_eq!(c.schema_version, CURVE_SCHEMA_VERSION);
        assert_eq!(c.points.len(), 5);
        for w in c.points.windows(2) {
            assert!(w[1].miss_rate <= w[0].miss_rate + 1e-12);
        }
    }

    #[test]
    fn sampled_curve_carries_quality_and_tracks_exact() {
        let exact = request(CurveMode::Exact).compute().unwrap();
        let sampled = request(CurveMode::Sampled { rate: 0.05 })
            .compute()
            .unwrap();
        let q = sampled.quality.expect("sampled curves carry quality");
        assert_eq!(q.rate_nominal, 0.05);
        assert!(q.rate_actual > 0.0 && q.rate_actual < 1.0);
        assert!(q.max_ci95 > 0.0);
        for (e, s) in exact.points.iter().zip(&sampled.points) {
            assert_eq!(e.capacity_bytes, s.capacity_bytes);
            assert!(
                (e.miss_rate - s.miss_rate).abs() < 0.06,
                "cap {}: {} vs {}",
                e.capacity_bytes,
                e.miss_rate,
                s.miss_rate
            );
        }
    }

    #[test]
    fn streaming_pass_equals_the_materialised_trace_route() {
        // A lone curve holds no trace; collecting the same stream and
        // running the pass over the trace must give the same JSON.
        use amem_probes::trace::{line_trace, sampled_line_trace};
        use amem_sim::stackdist::StackDistHistogram;
        for mode in [CurveMode::Exact, CurveMode::Sampled { rate: 0.1 }] {
            let req = request(mode);
            let probe = req.probe_cfg();
            let (trace, rate) = match mode {
                CurveMode::Exact => (line_trace(&probe, 64), 1.0),
                CurveMode::Sampled { rate } => sampled_line_trace(&probe, 64, rate).unwrap(),
            };
            let hist = StackDistHistogram::compute(&trace, rate);
            let mut want = MissRatioCurve::from_stack_distances(&hist, &req.capacities_lines, 64);
            if let CurveMode::Sampled { rate: rate_nominal } = mode {
                want.quality = Some(CurveQuality {
                    rate_nominal,
                    rate_actual: rate,
                    sampled_accesses: hist.measured,
                    max_ci95: hist.max_ci95(),
                });
            }
            assert_eq!(
                serde_json::to_string(&req.compute().unwrap()).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "{mode:?}"
            );
        }
    }

    /// Exact requests of one distribution at `buffers`, as a group
    /// shares them: equal in every field but buffer size and capacities.
    fn group(dist: AccessDist, buffers: &[u64]) -> Vec<CurveRequest> {
        buffers
            .iter()
            .map(|&buffer_bytes| {
                let lines = buffer_bytes / 64;
                CurveRequest {
                    dist,
                    buffer_bytes,
                    warm_accesses: 9_000,
                    measure_accesses: 11_000,
                    seed: 0x009B_0BE5,
                    line_bytes: 64,
                    capacities_lines: vec![1, lines / 8, lines / 3, lines, 2 * lines],
                    mode: CurveMode::Exact,
                }
            })
            .collect()
    }

    #[test]
    fn shared_draws_give_each_request_its_own_curve_bit_for_bit() {
        // Groups of 1, 3, 8 and 22 buffer sizes per Table II
        // distribution — the 8-group repeats a size, and sizes include
        // partial lines and partial elements — against one lone,
        // streamed `compute` per request.
        let sizes: Vec<u64> = (0..22).map(|i| (96 << 10) + i * 37_001).collect();
        let mut eight = sizes[..7].to_vec();
        eight.push(sizes[2]);
        for nd in amem_probes::dist::table2() {
            for buffers in [&sizes[5..6], &sizes[..3], &eight[..], &sizes[..]] {
                let reqs = group(nd.dist, buffers);
                let refs: Vec<&CurveRequest> = reqs.iter().collect();
                let shared = CurveRequest::compute_batch(&refs);
                assert_eq!(shared.len(), reqs.len());
                for (req, got) in reqs.iter().zip(shared) {
                    let want = req.compute().unwrap();
                    assert_eq!(
                        got.unwrap(),
                        want,
                        "{} buffer {} in a group of {}",
                        nd.name,
                        req.buffer_bytes,
                        buffers.len()
                    );
                }
            }
        }
    }

    #[test]
    fn a_batch_refuses_the_malformed_and_computes_the_rest() {
        // One bad member of a group costs the others nothing, and
        // groups, sampled requests and refusals come back in order.
        let mut reqs = group(AccessDist::Uniform, &[1 << 16, 3 << 16, 5 << 16]);
        reqs[1].capacities_lines.clear();
        reqs.push(request(CurveMode::Sampled { rate: 0.1 }));
        reqs.push(request(CurveMode::Exact));
        let refs: Vec<&CurveRequest> = reqs.iter().collect();
        let got = CurveRequest::compute_batch(&refs);
        for (i, (req, got)) in reqs.iter().zip(got).enumerate() {
            match i {
                1 => assert!(
                    matches!(got, Err(AmemError::Unsupported(ref m)) if m.contains("capacities_lines"))
                ),
                _ => assert_eq!(got.unwrap(), req.compute().unwrap(), "request {i}"),
            }
        }
    }

    /// `run_curve` on a request with one field broken: the typed refusal.
    fn refusal(broken: impl FnOnce(&mut CurveRequest)) -> String {
        use crate::platform::SimPlatform;
        let mut req = request(CurveMode::Exact);
        broken(&mut req);
        let exec = crate::Executor::memory_only(SimPlatform::new(
            amem_sim::MachineConfig::xeon20mb().scaled(0.0625),
        ));
        match exec.run_curve(&req) {
            Err(AmemError::Unsupported(msg)) => msg,
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn bad_line_bytes_is_refused_typed() {
        assert!(refusal(|r| r.line_bytes = 48).contains("line_bytes 48"));
        assert!(refusal(|r| r.line_bytes = 2).contains("line_bytes 2"));
        assert!(refusal(|r| r.line_bytes = 0).contains("line_bytes 0"));
    }

    #[test]
    fn capacity_whose_byte_size_overflows_is_refused_typed() {
        let huge = u64::MAX / 64 + 1;
        let msg = refusal(|r| r.capacities_lines.push(huge));
        assert!(
            msg.contains(&format!("capacities_lines entry {huge}")),
            "{msg}"
        );
        let msg = refusal(|r| r.capacities_lines = vec![u64::MAX]);
        assert!(msg.contains("capacities_lines"), "{msg}");
    }

    #[test]
    fn access_count_that_overflows_is_refused_typed() {
        for mode in [CurveMode::Exact, CurveMode::Sampled { rate: 0.1 }] {
            let msg = refusal(|r| {
                r.mode = mode;
                r.warm_accesses = u64::MAX;
            });
            assert!(msg.contains("warm_accesses"), "{mode:?}: {msg}");
            assert!(msg.contains("measure_accesses"), "{mode:?}: {msg}");
        }
    }

    #[test]
    fn buffer_below_one_element_is_refused_typed() {
        assert!(refusal(|r| r.buffer_bytes = 3).contains("buffer_bytes 3"));
    }

    #[test]
    fn sample_rate_outside_unit_interval_is_refused_typed() {
        for rate in [0.0, -0.5, 1.5, f64::NAN] {
            let msg = refusal(|r| r.mode = CurveMode::Sampled { rate });
            assert!(msg.contains("sample rate"), "{rate}: {msg}");
        }
    }

    #[test]
    fn empty_capacity_list_is_refused_typed() {
        assert!(refusal(|r| r.capacities_lines.clear()).contains("capacities_lines"));
    }

    #[test]
    fn tiny_buffer_sampled_falls_back_to_exact() {
        let mut r = request(CurveMode::Sampled { rate: 0.001 });
        r.buffer_bytes = 256;
        r.warm_accesses = 100;
        r.measure_accesses = 100;
        r.capacities_lines = vec![1, 2, 4];
        let c = r.compute().unwrap();
        let q = c.quality.expect("fallback still reports quality");
        assert_eq!(q.rate_actual, 1.0);
        assert_eq!(q.max_ci95, 0.0);
    }

    #[test]
    fn compute_intensity_does_not_enter_the_request() {
        use amem_probes::probe::ProbeCfg;
        use amem_sim::MachineConfig;
        let cfg = MachineConfig::xeon20mb().scaled(0.125);
        let p1 = ProbeCfg::for_machine(&cfg, AccessDist::Uniform, 2.0, 1);
        let p100 = ProbeCfg::for_machine(&cfg, AccessDist::Uniform, 2.0, 100);
        let r1 = CurveRequest::from_probe(&p1, 64, vec![100], CurveMode::Exact);
        let r100 = CurveRequest::from_probe(&p100, 64, vec![100], CurveMode::Exact);
        assert_eq!(r1, r100, "intensities share one curve by construction");
    }

    #[test]
    fn curve_serde_roundtrip_and_legacy_default() {
        let c = request(CurveMode::Sampled { rate: 0.1 }).compute().unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: MissRatioCurve = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        // A payload missing the optional quality block still loads (the
        // field is additive); a payload missing the version does not —
        // the cache treats a parse failure as an ordinary miss.
        let unqualified =
            r#"{"schema_version":1,"points":[{"capacity_bytes":64.0,"miss_rate":0.5}]}"#;
        let old: MissRatioCurve = serde_json::from_str(unqualified).unwrap();
        assert!(old.quality.is_none());
        assert!(serde_json::from_str::<MissRatioCurve>(r#"{"points":[]}"#).is_err());
    }
}
