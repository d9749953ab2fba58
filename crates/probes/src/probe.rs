//! The Fig. 4 probe benchmark.
//!
//! ```c
//! int* buf = malloc(sizeof(int) * bufSize);
//! for (int i = 0; i < N_ACCESSES; i++) {
//!     int value = buf[X()];
//!     // some computation involving value
//! }
//! ```
//!
//! `X()` samples a Table II distribution; the computation is 1, 10 or 100
//! integer additions (the paper's three "memory access frequency"
//! levels). The stream runs a warm-up phase (to reach the steady state the
//! analytic model assumes), emits an [`Op::Mark`] to snapshot counters,
//! then the measurement phase. The measured L3 miss rate after the mark
//! feeds Eq. 4's inversion.

use amem_sim::config::{CoreId, MachineConfig};
use amem_sim::engine::{Job, RunLimit};
use amem_sim::machine::Machine;
use amem_sim::rng::Xoshiro256;
use amem_sim::stream::{AccessStream, Op};
use serde::{Deserialize, Serialize};

use crate::dist::{AccessDist, Sampler};

/// Integer ALU throughput assumed when converting "integer additions"
/// into cycles (3-wide issue, as on the paper's Sandy Bridge cores).
pub const ADDS_PER_CYCLE: u32 = 3;

/// Configuration of one probe run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProbeCfg {
    pub dist: AccessDist,
    /// Buffer size in bytes (paper sweeps 30–74 MB against a 20 MB L3,
    /// i.e. 1.5×–3.7× the LLC).
    pub buffer_bytes: u64,
    /// Integer additions between consecutive loads (1, 10 or 100).
    pub adds_per_load: u32,
    /// Warm-up accesses before the counter mark.
    pub warm_accesses: u64,
    /// Measured accesses after the mark.
    pub measure_accesses: u64,
    /// Out-of-order overlap for the independent random loads.
    pub mlp: u8,
    pub seed: u64,
}

impl ProbeCfg {
    /// A probe sized relative to a machine: `buffer_ratio` × L3 capacity,
    /// with warm-up and measurement phases long enough for steady state
    /// (several multiples of the LLC line count).
    pub fn for_machine(
        cfg: &MachineConfig,
        dist: AccessDist,
        buffer_ratio: f64,
        adds_per_load: u32,
    ) -> Self {
        assert!(buffer_ratio > 0.0);
        let l3_lines = cfg.l3.lines();
        Self {
            dist,
            buffer_bytes: (cfg.l3.size_bytes as f64 * buffer_ratio) as u64,
            adds_per_load,
            warm_accesses: 3 * l3_lines,
            measure_accesses: 3 * l3_lines,
            mlp: 2,
            seed: 0x009B_0BE5,
        }
    }

    /// Compute cycles per load implied by `adds_per_load`.
    pub fn compute_cycles(&self) -> u32 {
        (self.adds_per_load / ADDS_PER_CYCLE).max(1)
    }

    /// `Σ g(ℓ)²` of this probe's distribution over its buffer at the
    /// given line size (the distribution-dependent constant of Eq. 4).
    pub fn sum_sq_line_mass(&self, line_bytes: u64) -> f64 {
        crate::ehr::sum_sq_line_mass(&self.dist, self.buffer_bytes, 4, line_bytes)
    }

    /// Closed-form Eq. 4 expectation for this probe on a fully
    /// associative cache of `cache_lines` lines — the analytic twin of
    /// the measured post-`Mark` hit rate, evaluated with no simulation.
    /// The conformance oracles assert the simulator converges to this.
    pub fn expected_hit_rate(&self, cache_lines: u64, line_bytes: u64) -> f64 {
        crate::ehr::expected_hit_rate(cache_lines, self.sum_sq_line_mass(line_bytes))
    }
}

/// The probe as a simulator stream: warm-up → `Mark` → measure → `Done`.
pub struct ProbeStream {
    base: u64,
    elems: u64,
    sampler: Sampler,
    rng: Xoshiro256,
    compute: u32,
    remaining_warm: u64,
    remaining_measure: u64,
    marked: bool,
    pending_compute: bool,
    mlp: u8,
}

impl ProbeStream {
    pub fn new(machine: &mut Machine, cfg: &ProbeCfg) -> Self {
        assert!(cfg.buffer_bytes >= 64);
        let base = machine.alloc(cfg.buffer_bytes);
        Self {
            base,
            elems: cfg.buffer_bytes / 4,
            sampler: cfg.dist.sampler(),
            rng: Xoshiro256::seed_from_u64(cfg.seed),
            compute: cfg.compute_cycles(),
            remaining_warm: cfg.warm_accesses,
            remaining_measure: cfg.measure_accesses,
            marked: false,
            pending_compute: false,
            mlp: cfg.mlp,
        }
    }

    #[inline]
    fn sample_load(&mut self) -> Op {
        let idx = self.sampler.sample_index(&mut self.rng, self.elems);
        Op::Load(self.base + idx * 4)
    }
}

impl AccessStream for ProbeStream {
    fn next_op(&mut self) -> Op {
        if self.pending_compute {
            self.pending_compute = false;
            return Op::Compute(self.compute);
        }
        if self.remaining_warm > 0 {
            self.remaining_warm -= 1;
        } else if !self.marked {
            self.marked = true;
            return Op::Mark;
        } else if self.remaining_measure > 0 {
            self.remaining_measure -= 1;
        } else {
            return Op::Done;
        }
        self.pending_compute = true;
        self.sample_load()
    }

    /// Batch generation emitting load/compute pairs in tight per-phase
    /// loops; the op sequence is identical to repeated [`Self::next_op`]
    /// (guarded by `next_batch_matches_next_op`).
    fn next_batch(&mut self, out: &mut Vec<Op>, max: usize) {
        let mut n = 0;
        while n < max {
            if self.pending_compute {
                self.pending_compute = false;
                out.push(Op::Compute(self.compute));
                n += 1;
                continue;
            }
            let phase = if self.remaining_warm > 0 {
                &mut self.remaining_warm
            } else if !self.marked {
                self.marked = true;
                out.push(Op::Mark);
                n += 1;
                continue;
            } else if self.remaining_measure > 0 {
                &mut self.remaining_measure
            } else {
                out.push(Op::Done);
                return;
            };
            let pairs = ((max - n) / 2).min(*phase as usize);
            *phase -= pairs as u64;
            let odd_load = n + 2 * pairs < max && *phase > 0;
            if odd_load {
                *phase -= 1;
            }
            for _ in 0..pairs {
                let load = self.sample_load();
                out.push(load);
                out.push(Op::Compute(self.compute));
            }
            n += 2 * pairs;
            if odd_load {
                // The pair straddles the batch boundary: emit the load now,
                // owe the compute to the next batch.
                let load = self.sample_load();
                out.push(load);
                self.pending_compute = true;
                n += 1;
            }
        }
    }

    fn mlp(&self) -> u8 {
        self.mlp
    }

    fn label(&self) -> &str {
        "probe"
    }
}

/// Result of one probe run.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeResult {
    /// L3 miss rate over the measurement phase.
    pub l3_miss_rate: f64,
    /// Measurement-phase wall time in seconds.
    pub seconds: f64,
    /// Measurement-phase Eq. 1 bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Full measurement-phase counters.
    pub counters: amem_sim::CoreCounters,
}

/// Run a probe on core (0,0) of a fresh machine, with the given extra
/// background jobs (interference threads) built by `extra`.
///
/// `extra` receives the machine so interference buffers allocate from the
/// same address space.
pub fn run_probe(
    cfg: &MachineConfig,
    probe: &ProbeCfg,
    extra: impl FnOnce(&mut Machine) -> Vec<Job>,
) -> ProbeResult {
    let mut m = Machine::new(cfg.clone());
    let stream = ProbeStream::new(&mut m, probe);
    let mut jobs = vec![Job::primary(Box::new(stream), CoreId::new(0, 0))];
    jobs.extend(extra(&mut m));
    let r = m.run(jobs, RunLimit::default());
    let c = r.jobs[0].after_last_mark();
    ProbeResult {
        l3_miss_rate: c.l3_miss_rate(),
        seconds: cfg.seconds(c.cycles),
        bandwidth_gbs: c.bandwidth_gbs(cfg.l3.line_bytes, cfg.freq_ghz),
        counters: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{table2, AccessDist};
    use crate::ehr;

    fn cfg() -> MachineConfig {
        MachineConfig::xeon20mb().scaled(0.125)
    }

    #[test]
    fn stream_shape_load_compute_mark_done() {
        let mut m = Machine::new(cfg());
        let p = ProbeCfg {
            dist: AccessDist::Uniform,
            buffer_bytes: 4096,
            adds_per_load: 10,
            warm_accesses: 2,
            measure_accesses: 3,
            mlp: 1,
            seed: 1,
        };
        let mut s = ProbeStream::new(&mut m, &p);
        let mut ops = Vec::new();
        loop {
            let op = s.next_op();
            ops.push(op);
            if op == Op::Done {
                break;
            }
        }
        let loads = ops.iter().filter(|o| matches!(o, Op::Load(_))).count();
        let marks = ops.iter().filter(|o| matches!(o, Op::Mark)).count();
        let computes = ops.iter().filter(|o| matches!(o, Op::Compute(_))).count();
        assert_eq!(loads, 5);
        assert_eq!(marks, 1);
        assert_eq!(computes, 5);
        // Mark comes after the warm loads and their computes.
        let mark_pos = ops.iter().position(|o| matches!(o, Op::Mark)).unwrap();
        assert_eq!(mark_pos, 4);
    }

    #[test]
    fn next_batch_matches_next_op() {
        let p = ProbeCfg {
            dist: AccessDist::Exponential { rate: 4.0 },
            buffer_bytes: 8192,
            adds_per_load: 10,
            warm_accesses: 11,
            measure_accesses: 7,
            mlp: 2,
            seed: 42,
        };
        let mut serial_src = ProbeStream::new(&mut Machine::new(cfg()), &p);
        let mut serial = Vec::new();
        loop {
            let op = serial_src.next_op();
            serial.push(op);
            if op == Op::Done {
                break;
            }
        }
        // Odd batch sizes force the load/compute pair to straddle batch
        // boundaries; 1 degenerates to one op per call.
        for batch_size in [1, 3, 7, 256] {
            let mut s = ProbeStream::new(&mut Machine::new(cfg()), &p);
            let mut ops = Vec::new();
            while ops.last() != Some(&Op::Done) {
                let before = ops.len();
                s.next_batch(&mut ops, batch_size);
                assert!(ops.len() - before <= batch_size);
            }
            assert_eq!(ops, serial, "batch_size={batch_size}");
        }
    }

    #[test]
    fn uniform_probe_measured_miss_rate_matches_eq4() {
        // Uniform is the distribution where Eq. 4 is exact (no per-line
        // saturation, no associativity hot spots): the measured rate must
        // land near the prediction.
        let c = cfg();
        let ratio = 2.5;
        let p = ProbeCfg::for_machine(&c, AccessDist::Uniform, ratio, 1);
        let r = run_probe(&c, &p, |_| Vec::new());
        let ssq = ehr::sum_sq_line_mass(&AccessDist::Uniform, p.buffer_bytes, 4, 64);
        let predicted = ehr::expected_miss_rate(c.l3.lines(), ssq);
        assert!(
            (r.l3_miss_rate - predicted).abs() < 0.1,
            "measured {:.3} vs predicted {:.3}",
            r.l3_miss_rate,
            predicted
        );
    }

    #[test]
    fn bigger_buffers_miss_more() {
        let c = cfg();
        let d = AccessDist::Exponential { rate: 6.0 };
        let mr = |ratio: f64| {
            run_probe(&c, &ProbeCfg::for_machine(&c, d, ratio, 1), |_| Vec::new()).l3_miss_rate
        };
        let small = mr(1.6);
        let large = mr(3.6);
        assert!(large > small + 0.05, "small={small:.3} large={large:.3}");
    }

    #[test]
    fn compute_intensity_slows_but_preserves_miss_rate() {
        let c = cfg();
        let d = AccessDist::Triangular { mode: 0.6 };
        let p1 = ProbeCfg::for_machine(&c, d, 2.0, 1);
        let p100 = ProbeCfg::for_machine(&c, d, 2.0, 100);
        let r1 = run_probe(&c, &p1, |_| Vec::new());
        let r100 = run_probe(&c, &p100, |_| Vec::new());
        assert!(r100.seconds > r1.seconds * 1.1);
        assert!((r100.l3_miss_rate - r1.l3_miss_rate).abs() < 0.05);
    }

    #[test]
    fn all_table2_probes_run_and_span_miss_rates() {
        // The paper: across distributions and sizes, L3 miss rates range
        // from <10% to >80%. Check the spread exists at two sizes.
        let c = cfg();
        let mut rates = Vec::new();
        for nd in table2() {
            for ratio in [1.6, 3.6] {
                let p = ProbeCfg::for_machine(&c, nd.dist, ratio, 1);
                rates.push(run_probe(&c, &p, |_| Vec::new()).l3_miss_rate);
            }
        }
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 0.35, "most concentrated case mr={min:.3}");
        assert!(max > 0.6, "most dispersed case mr={max:.3}");
    }
}
