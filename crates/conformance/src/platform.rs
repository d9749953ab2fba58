//! The reference machine behind the ordinary [`Platform`] trait.
//!
//! Wrapping [`SimPlatform`] rather than reimplementing it means the whole
//! measurement pipeline — rank mapping, feasibility checks, interference
//! placement, post-`Mark` aggregation — is shared code; only the machine
//! that simulates the placed jobs differs. A conformance cross-check of a
//! full measurement is then one platform swap away in any experiment.

use amem_core::error::AmemError;
use amem_core::platform::{Measurement, Platform, SimPlatform, Workload};
use amem_interfere::InterferenceMix;
use amem_sim::config::MachineConfig;
use amem_sim::engine::RunLimit;

use crate::refmachine;

/// Cache-key salt for reference measurements. Bump when the reference
/// models change behaviour (they should only when the production contract
/// does).
const REFERENCE_SALT: &str = "reference-v1";

/// A [`SimPlatform`] that executes every measurement through the
/// reference machine ([`refmachine::run`]) instead of the production
/// engine. The reference records no telemetry, so sampling and tracing
/// settings are ignored.
#[derive(Debug, Clone)]
pub struct ReferencePlatform {
    inner: SimPlatform,
}

impl ReferencePlatform {
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            inner: SimPlatform::new(cfg),
        }
    }

    pub fn with_limit(mut self, limit: RunLimit) -> Self {
        self.inner = self.inner.with_limit(limit);
        self
    }
}

impl Platform for ReferencePlatform {
    fn cfg(&self) -> &MachineConfig {
        self.inner.cfg()
    }

    fn limit(&self) -> &RunLimit {
        self.inner.limit()
    }

    fn run(
        &self,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Result<Measurement, AmemError> {
        self.inner
            .measure_with(workload, per_processor, mix, refmachine::run)
    }

    /// Reference measurements are deterministic (cacheable), but must
    /// never be served from — or written into — the production cache
    /// namespace: same request, different model.
    fn cache_salt(&self) -> Option<String> {
        Some(REFERENCE_SALT.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amem_core::platform::{LuleshWorkload, McbWorkload, ProbeWorkload};
    use amem_miniapps::{LuleshCfg, McbCfg};
    use amem_probes::dist::AccessDist;
    use amem_probes::probe::ProbeCfg;

    /// One measurement through both platforms: every bit the
    /// measurement reports and the whole event signature must be equal.
    fn assert_same_measurement(
        cfg: &MachineConfig,
        workload: &dyn Workload,
        per_processor: usize,
        mix: InterferenceMix,
    ) -> Measurement {
        let prod = SimPlatform::new(cfg.clone());
        let refp = ReferencePlatform::new(cfg.clone());
        let a = prod.run(workload, per_processor, mix).unwrap();
        let b = refp.run(workload, per_processor, mix).unwrap();
        let name = workload.name();
        assert_eq!(a.report.wall_cycles, b.report.wall_cycles, "{name}");
        assert_eq!(
            a.report.event_signature(),
            b.report.event_signature(),
            "{name}"
        );
        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{name}");
        assert_eq!(a.l3_miss_rate.to_bits(), b.l3_miss_rate.to_bits(), "{name}");
        let (abw, bbw) = (a.app_bandwidth_gbs, b.app_bandwidth_gbs);
        assert_eq!(abw.to_bits(), bbw.to_bits(), "{name}");
        a
    }

    #[test]
    fn reference_platform_measures_like_production() {
        // Whole measurements must be *identical* through both platforms —
        // the platform-level statement of conformance — on a probe under
        // a CSThr, and on the paper's two mini-apps at workload shapes:
        // MCB under BWThrs and Lulesh under CSThrs, both with barriers
        // and with ranks on a second node (remote transfers).
        let cfg = MachineConfig::xeon20mb().scaled(0.03125);
        let probe = ProbeWorkload(ProbeCfg::for_machine(
            &cfg,
            AccessDist::Exponential { rate: 6.0 },
            2.0,
            1,
        ));
        assert_same_measurement(&cfg, &probe, 1, InterferenceMix::storage(1));

        let mcb = McbWorkload(McbCfg {
            ranks: 8,
            steps: 3,
            ..McbCfg::new(&cfg, 20_000)
        });
        let m = assert_same_measurement(&cfg, &mcb, 2, InterferenceMix::bandwidth(2));
        assert_spans_nodes_with_barriers(&m);

        let lulesh = LuleshWorkload(LuleshCfg {
            ranks: 8,
            steps: 3,
            ..LuleshCfg::new(LuleshCfg::scaled_edge(&cfg, 22))
        });
        let m = assert_same_measurement(&cfg, &lulesh, 2, InterferenceMix::storage(2));
        assert_spans_nodes_with_barriers(&m);
    }

    /// The mini-app inputs must reach the barrier and remote-transfer
    /// paths, or the test above proves less than it says.
    fn assert_spans_nodes_with_barriers(m: &Measurement) {
        let c = m.report.primary_counters();
        assert!(c.barrier_cycles > 0, "no barrier waited");
        assert!(c.net_cycles > 0, "no remote transfer");
    }

    #[test]
    fn reference_platform_is_salted_and_deterministic() {
        let p = ReferencePlatform::new(MachineConfig::xeon20mb().scaled(0.0625));
        assert!(p.deterministic());
        assert_eq!(p.cache_salt().as_deref(), Some("reference-v1"));
    }
}
