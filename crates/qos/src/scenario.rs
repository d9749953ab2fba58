//! Co-schedule scenarios: named apps pinned to cores, run solo, shared
//! ("naive"), shared-with-estimation, or shared-with-enforcement.
//!
//! A scenario is the qos crate's unit of experiment. Apps are infinite
//! interference-style streams (so service *rate* over a fixed cycle
//! budget is the natural performance metric — exactly MISE's
//! request-service-rate); the simulator makes ground truth exact:
//!
//! * **solo rate** — the app's rate with the machine to itself;
//! * **naive rate** — its rate co-scheduled with everyone, no controller;
//! * **true slowdown** — solo / naive, the quantity the online estimator
//!   must reproduce from inside a single shared run.
//!
//! All runs go through [`amem_sim::machine::Machine`] directly — never
//! the executor cache — because controller state is deliberately not
//! part of any cache key.

use amem_interfere::{BwThread, BwThreadCfg, CsThread, CsThreadCfg};
use amem_sim::config::CoreId;
use amem_sim::control::{Actuation, CoreView, EpochController};
use amem_sim::machine::Machine;
use amem_sim::stream::AccessStream;
use amem_sim::{CoreCounters, Job, MachineConfig, RunLimit, RunReport};

use crate::controller::{CtlApp, QosController, QosCtlCfg};
use crate::policy::QosPolicy;

/// What an app runs. All kinds are infinite streams.
#[derive(Debug, Clone)]
pub enum AppKind {
    /// Cache-resident random walker: a CSThr whose buffer fits in the
    /// L3 (default: 1/5 of it). Latency-bound on L3 hits; the canonical
    /// *resident* victim of a cache thrasher.
    Resident(CsThreadCfg),
    /// DRAM-latency-bound random walker: a CSThr buffer much larger than
    /// the L3, so almost every access misses. The canonical
    /// *latency-sensitive* victim of a bandwidth hog.
    DramBound(CsThreadCfg),
    /// Streaming bandwidth hog (BWThr).
    Stream(BwThreadCfg),
}

/// One application: a name, a stream kind, and the cores it occupies.
#[derive(Debug, Clone)]
pub struct App {
    pub name: String,
    pub kind: AppKind,
    pub cores: Vec<CoreId>,
}

impl App {
    /// A cache-resident victim on one core.
    pub fn resident(name: &str, m: &MachineConfig, core: CoreId, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            kind: AppKind::Resident(CsThreadCfg::for_machine(m).with_seed(seed)),
            cores: vec![core],
        }
    }

    /// A DRAM-bound victim on one core (buffer = 32× L3, so almost none
    /// of the working set is ever resident and performance is dominated
    /// by DRAM latency and bandwidth, not cache capacity — the mix
    /// reaches steady state quickly and its slowdown is the
    /// bandwidth-mediated kind the MISE probe can see; see DESIGN.md on
    /// capacity blindness).
    pub fn dram_bound(name: &str, m: &MachineConfig, core: CoreId, seed: u64) -> Self {
        let cfg = CsThreadCfg {
            buffer_bytes: 32 * m.l3.size_bytes,
            ..CsThreadCfg::for_machine(m).with_seed(seed)
        };
        Self {
            name: name.to_string(),
            kind: AppKind::DramBound(cfg),
            cores: vec![core],
        }
    }

    /// A streaming bandwidth hog on one core.
    pub fn stream(name: &str, m: &MachineConfig, core: CoreId) -> Self {
        Self {
            name: name.to_string(),
            kind: AppKind::Stream(BwThreadCfg::for_machine(m)),
            cores: vec![core],
        }
    }

    fn build_stream(&self, machine: &mut Machine, nth_core: u64) -> Box<dyn AccessStream> {
        match &self.kind {
            AppKind::Resident(cfg) | AppKind::DramBound(cfg) => {
                let cfg = cfg.with_seed(cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(nth_core));
                Box::new(CsThread::new(machine, &cfg))
            }
            AppKind::Stream(cfg) => Box::new(BwThread::new(machine, cfg)),
        }
    }
}

/// A co-schedule on one machine, run for a fixed cycle budget.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub machine: MachineConfig,
    pub apps: Vec<App>,
    /// Cycle budget per run (every app is a background job; the budget
    /// is the only stop condition).
    pub max_cycles: u64,
}

/// Per-app outcome of one run.
#[derive(Debug, Clone)]
pub struct AppRate {
    pub name: String,
    /// Service rate: memory accesses retired per cycle, summed over the
    /// app's cores.
    pub rate: f64,
}

/// A [`NullController`](amem_sim::NullController) that additionally
/// snapshots per-core counters at every boundary, so baseline (solo and
/// naive) rates can be measured over the same post-warmup window — and
/// under the same epoch-bounded dispatch semantics — as controlled runs.
struct Recorder {
    epoch_cycles: u64,
    warmup_epochs: u64,
    start: Option<(u64, Vec<CoreCounters>)>,
    last: Option<(u64, Vec<CoreCounters>)>,
}

impl Recorder {
    fn new(epoch_cycles: u64, warmup_epochs: u64) -> Self {
        Self {
            epoch_cycles,
            warmup_epochs: warmup_epochs.max(1),
            start: None,
            last: None,
        }
    }

    /// Steady-state rate of the app occupying `cores` (flat indices).
    fn rate(&self, cores: &[usize]) -> Option<f64> {
        let (t0, c0) = self.start.as_ref()?;
        let (t1, c1) = self.last.as_ref()?;
        let dt = t1.saturating_sub(*t0);
        if dt == 0 {
            return None;
        }
        let acc: u64 = cores
            .iter()
            .map(|&c| c1[c].delta_since(&c0[c]).accesses())
            .sum();
        Some(acc as f64 / dt as f64)
    }
}

impl EpochController for Recorder {
    fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    fn on_epoch(&mut self, epoch: u64, now: u64, cores: &[CoreView]) -> Vec<Actuation> {
        let snap = (now, cores.iter().map(|c| c.counters).collect::<Vec<_>>());
        if self.start.is_none() && epoch + 1 >= self.warmup_epochs {
            self.start = Some(snap.clone());
        }
        self.last = Some(snap);
        Vec::new()
    }
}

/// Everything a shared run produces.
pub struct RunOutcome {
    pub report: RunReport,
    pub rates: Vec<AppRate>,
    /// The controller, when one drove the run (estimates, decision log).
    pub controller: Option<QosController>,
}

impl Scenario {
    pub fn new(machine: MachineConfig, apps: Vec<App>, max_cycles: u64) -> Self {
        let mut seen: Vec<usize> = Vec::new();
        for a in &apps {
            for c in &a.cores {
                let f = c.flat(&machine);
                assert!(!seen.contains(&f), "core {c:?} assigned twice");
                seen.push(f);
            }
        }
        Self {
            machine,
            apps,
            max_cycles,
        }
    }

    fn limit(&self) -> RunLimit {
        RunLimit {
            max_cycles: Some(self.max_cycles),
            ..RunLimit::default()
        }
    }

    fn build_jobs(&self, machine: &mut Machine, only: Option<usize>) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (i, app) in self.apps.iter().enumerate() {
            if only.is_some_and(|o| o != i) {
                continue;
            }
            for (k, &core) in app.cores.iter().enumerate() {
                let stream = app.build_stream(machine, k as u64);
                jobs.push(Job::background(stream, core));
            }
        }
        jobs
    }

    /// Build the full co-schedule's jobs against `machine`. Public so
    /// the conformance lane can drive the engine directly — including
    /// through the planted epoch off-by-one — with exactly the jobs a
    /// controlled run would use.
    pub fn jobs(&self, machine: &mut Machine) -> Vec<Job> {
        self.build_jobs(machine, None)
    }

    /// The controller-side view of the apps (name + flat cores), in app
    /// order — what [`Scenario::run_controlled`] hands to
    /// [`QosController::new`].
    pub fn ctl_apps(&self) -> Vec<CtlApp> {
        self.apps
            .iter()
            .map(|a| CtlApp {
                name: a.name.clone(),
                cores: a.cores.iter().map(|c| c.flat(&self.machine)).collect(),
            })
            .collect()
    }

    fn rates_of(&self, report: &RunReport, only: Option<usize>) -> Vec<AppRate> {
        // Jobs were pushed in app order, so attribute them back the same
        // way.
        let mut rates = Vec::new();
        let mut ji = 0usize;
        for (i, app) in self.apps.iter().enumerate() {
            if only.is_some_and(|o| o != i) {
                continue;
            }
            let mut acc = 0u64;
            let mut cycles = 0u64;
            for _ in &app.cores {
                let j = &report.jobs[ji];
                acc += j.counters.accesses();
                cycles = cycles.max(j.counters.cycles);
                ji += 1;
            }
            rates.push(AppRate {
                name: app.name.clone(),
                rate: if cycles == 0 {
                    0.0
                } else {
                    acc as f64 / cycles as f64
                },
            });
        }
        rates
    }

    /// Run one app by itself; returns its solo service rate.
    ///
    /// Solo and naive runs attach an observing-only controller with the
    /// default epoch schedule: attaching any controller switches the
    /// engine to epoch-bounded dispatch, and ground truth must be
    /// measured under the same dispatch semantics — and over the same
    /// post-warmup window — as the controlled run it calibrates.
    pub fn run_solo(&self, app_idx: usize) -> f64 {
        let cfg = self.default_cfg();
        let mut machine = Machine::new(self.machine.clone());
        let jobs = self.build_jobs(&mut machine, Some(app_idx));
        let mut rec = Recorder::new(cfg.epoch_cycles, self.measure_warmup(&cfg));
        let report = machine.run_controlled(jobs, self.limit(), &mut rec);
        let flat = self.flat_cores(app_idx);
        rec.rate(&flat)
            .unwrap_or_else(|| self.rates_of(&report, Some(app_idx))[0].rate)
    }

    /// Run the full co-schedule with no enforcement or probing (the naive
    /// schedule); see [`Scenario::run_solo`] for why a controller is
    /// still attached.
    pub fn run_naive(&self) -> RunOutcome {
        let cfg = self.default_cfg();
        let mut machine = Machine::new(self.machine.clone());
        let jobs = self.build_jobs(&mut machine, None);
        let mut rec = Recorder::new(cfg.epoch_cycles, self.measure_warmup(&cfg));
        let report = machine.run_controlled(jobs, self.limit(), &mut rec);
        let rates = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppRate {
                name: a.name.clone(),
                rate: rec
                    .rate(&self.flat_cores(i))
                    .unwrap_or_else(|| self.rates_of(&report, None)[i].rate),
            })
            .collect();
        RunOutcome {
            report,
            rates,
            controller: None,
        }
    }

    /// The default controller tuning for this scenario's machine.
    pub fn default_cfg(&self) -> QosCtlCfg {
        QosCtlCfg::for_machine(&self.machine)
    }

    /// First epoch of the steady-state measurement window: the back half
    /// of the run. Co-schedules keep drifting long after the caches warm
    /// (shared-cache occupancy equilibrates over ~10^6 cycles at the
    /// scales used here), so rates averaged from the nominal warmup
    /// boundary onward still dilute the steady state with the ramp.
    fn measure_warmup(&self, cfg: &QosCtlCfg) -> u64 {
        (self.max_cycles / cfg.epoch_cycles.max(1) / 2).max(cfg.warmup_epochs)
    }

    fn flat_cores(&self, app_idx: usize) -> Vec<usize> {
        self.apps[app_idx]
            .cores
            .iter()
            .map(|c| c.flat(&self.machine))
            .collect()
    }

    /// Run the full co-schedule under a [`QosController`]. With
    /// [`QosPolicy::none`] this is estimation-only (the probing epochs
    /// perturb the run slightly; no enforcement happens).
    pub fn run_controlled(&self, policy: &QosPolicy, ctl_cfg: QosCtlCfg) -> RunOutcome {
        let mut ctl_cfg = ctl_cfg;
        if ctl_cfg.measure_warmup_epochs == 0 {
            ctl_cfg.measure_warmup_epochs = self.measure_warmup(&ctl_cfg);
        }
        let mut machine = Machine::new(self.machine.clone());
        let jobs = self.build_jobs(&mut machine, None);
        let mut ctl = QosController::new(self.ctl_apps(), policy, ctl_cfg);
        let report = machine.run_controlled(jobs, self.limit(), &mut ctl);
        let rates = match ctl.window_rates() {
            Some(w) => self
                .apps
                .iter()
                .zip(w)
                .map(|(a, rate)| AppRate {
                    name: a.name.clone(),
                    rate,
                })
                .collect(),
            None => self.rates_of(&report, None),
        };
        RunOutcome {
            report,
            rates,
            controller: Some(ctl),
        }
    }

    /// Exact ground-truth slowdown of every app: solo rate / naive shared
    /// rate. Returns `(name, truth)` pairs in app order.
    pub fn true_slowdowns(&self) -> Vec<(String, f64)> {
        let naive = self.run_naive();
        self.apps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let solo = self.run_solo(i);
                (a.name.clone(), solo / naive.rates[i].rate)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.0625)
    }

    #[test]
    fn solo_rate_is_reproducible_and_positive() {
        let m = m();
        let s = Scenario::new(
            m.clone(),
            vec![App::dram_bound("v", &m, CoreId::new(0, 0), 7)],
            200_000,
        );
        let a = s.run_solo(0);
        let b = s.run_solo(0);
        assert!(a > 0.0);
        assert_eq!(a, b, "solo runs are deterministic");
    }

    /// One STREAM hog takes about a sixth of the channel (one BWThr uses
    /// 2.8 of 17 GB/s in the paper), which a DRAM-latency-bound victim
    /// does not feel; six hogs saturate it.
    #[test]
    fn sharing_reduces_rate() {
        let m = m();
        let with_hogs = |n: u32| {
            let mut apps = vec![App::dram_bound("v", &m, CoreId::new(0, 0), 7)];
            for i in 0..n {
                apps.push(App::stream(&format!("hog{i}"), &m, CoreId::new(0, 1 + i)));
            }
            Scenario::new(m.clone(), apps, 400_000)
        };
        let one = with_hogs(1);
        let solo = one.run_solo(0);
        assert!(one.run_naive().rates[0].rate <= solo);

        let six = with_hogs(6);
        assert!(six.run_naive().rates[0].rate < solo);
        let truth = &six.true_slowdowns()[0];
        assert!(truth.1 > 1.0, "slowdown {}", truth.1);
    }
}
