//! Machine-free line traces of the Fig. 4 probe.
//!
//! The single-pass curve engine needs the probe's *cache-line reference
//! sequence*, not its timing: which line each load touches, in order,
//! with the warm-up/measure boundary. [`LineStream`] generates it one
//! line at a time, in two flavours:
//!
//! * [`lines`] replays the exact `ProbeStream` RNG sequence at line
//!   granularity — same seed, same `sample_index` calls, so the line
//!   sequence is bit-identical to what a simulated run would issue
//!   (`Compute` ops never touch memory and the probe buffer is
//!   page-aligned, so relative line ids carry all the information).
//! * [`sampled_lines`] is the Examem-style sampled mode. It exploits
//!   that probe accesses are i.i.d.: the subsequence restricted to a
//!   hash-sampled subset of lines is itself i.i.d. from the conditional
//!   distribution over those lines. So instead of generating the full
//!   stream and filtering (which would leave generation cost dominating),
//!   it draws the short sub-stream *directly* from the conditional CDF,
//!   evaluated at the edges of sampled lines only. The stream scales with
//!   the rate; choosing the lines still hashes every line of the buffer.
//!
//! A lone curve feeds its stream straight into the stack-distance engine
//! ([`LineStream::histogram`]) and holds no trace. Exact probes that
//! differ only in buffer size draw the same positions in `[0, 1)` — the
//! buffer only scales a draw into an element — so [`exact_histograms`]
//! draws a group's positions once and holds them, 8 bytes per access,
//! while each member's pass reads them back. [`line_trace`] and
//! [`sampled_line_trace`] collect the streams for callers that want the
//! sequence itself.

use amem_sim::rng::Xoshiro256;
use amem_sim::stackdist::{line_sampled, LineTrace, StackDist, StackDistHistogram};
use amem_sim::stream::OP_BATCH;

use crate::dist::{frac_index, Sampler};
use crate::ehr;
use crate::probe::ProbeCfg;

/// How a [`LineStream`] turns one RNG draw into a line id.
enum Draw {
    /// `sampler.sample_index` over `elems` elements, `1 << shift` per
    /// line.
    Exact {
        sampler: Sampler,
        elems: u64,
        shift: u32,
    },
    /// Inverse of the conditional CDF over the sampled `lines` (`cum` is
    /// their running mass, `cum.last() == mass`).
    Sampled {
        lines: Vec<u64>,
        cum: Vec<f64>,
        mass: f64,
    },
}

/// The probe's relative-line reference sequence: `warm` warm-up accesses,
/// then the measured ones. Resumable at any point — it is an iterator.
pub struct LineStream {
    rng: Xoshiro256,
    draw: Draw,
    /// Accesses before the mark, in total, and issued so far.
    warm: u64,
    len: u64,
    pos: u64,
}

impl LineStream {
    /// Drain the stream into the stack-distance engine. `rate` is the
    /// line-sampling rate the stream was built with (1.0 for [`lines`]).
    pub fn histogram(self, rate: f64) -> StackDistHistogram {
        let warm = self.warm.saturating_sub(self.pos);
        pass(self, warm, rate)
    }

    /// Collect the stream (from its start) into a trace.
    fn into_trace(self) -> LineTrace {
        LineTrace {
            mark: self.warm as usize,
            lines: self.collect(),
        }
    }
}

impl Iterator for LineStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.pos == self.len {
            return None;
        }
        self.pos += 1;
        Some(match &self.draw {
            Draw::Exact {
                sampler,
                elems,
                shift,
            } => sampler.sample_index(&mut self.rng, *elems) >> shift,
            Draw::Sampled { lines, cum, mass } => {
                let u = self.rng.next_f64() * mass;
                lines[cum.partition_point(|&c| c <= u).min(lines.len() - 1)]
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.len - self.pos) as usize;
        (left, Some(left))
    }
}

/// The probe's relative-line access stream: `warm + measure` draws from
/// `cfg.dist`, mapped to line ids.
///
/// Uses the same seed and the same `sample_index` call sequence as
/// [`crate::probe::ProbeStream`], so line ids here equal the stream's
/// `(addr - base) >> log2(line_bytes)` exactly.
pub fn lines(cfg: &ProbeCfg, line_bytes: u64) -> LineStream {
    let (elems, shift) = exact_geometry(cfg, line_bytes);
    LineStream {
        rng: Xoshiro256::seed_from_u64(cfg.seed),
        draw: Draw::Exact {
            sampler: cfg.dist.sampler(),
            elems,
            shift,
        },
        warm: cfg.warm_accesses,
        len: cfg.warm_accesses + cfg.measure_accesses,
        pos: 0,
    }
}

/// An exact probe's elements, and log2 of its elements per line.
fn exact_geometry(cfg: &ProbeCfg, line_bytes: u64) -> (u64, u32) {
    assert!(line_bytes.is_power_of_two() && line_bytes >= 4);
    let elems = cfg.buffer_bytes / 4;
    assert!(elems > 0, "buffer must hold at least one element");
    (elems, (line_bytes / 4).trailing_zeros())
}

/// Exact histograms of probes that share one draw sequence — the same
/// `dist`, `seed` and phase lengths, any buffer sizes: `each(i, h)` with
/// the histogram `h` of `lines(&cfgs[i], line_bytes)`, member by member,
/// so each can be consumed before the next pass allocates its engine.
///
/// A lone probe is [`LineStream::histogram`] and holds nothing. A group
/// draws its positions once into a buffer of `warm + measure` `f64`s;
/// every member maps the same positions through its own element count,
/// the map a fresh draw takes, so each histogram is bit-identical to its
/// stream's.
pub fn exact_histograms(
    cfgs: &[ProbeCfg],
    line_bytes: u64,
    mut each: impl FnMut(usize, StackDistHistogram),
) {
    let [head, rest @ ..] = cfgs else {
        return;
    };
    if rest.is_empty() {
        each(0, lines(head, line_bytes).histogram(1.0));
        return;
    }
    assert!(
        rest.iter().all(|c| c.dist == head.dist
            && c.seed == head.seed
            && c.warm_accesses == head.warm_accesses
            && c.measure_accesses == head.measure_accesses),
        "a group of probes shares one draw sequence"
    );
    let sampler = head.dist.sampler();
    let mut rng = Xoshiro256::seed_from_u64(head.seed);
    let draws: Vec<f64> = (0..head.warm_accesses + head.measure_accesses)
        .map(|_| sampler.sample_frac(&mut rng))
        .collect();
    for (i, cfg) in cfgs.iter().enumerate() {
        let (elems, shift) = exact_geometry(cfg, line_bytes);
        let lines = draws.iter().map(|&f| frac_index(f, elems) >> shift);
        each(i, pass(lines, cfg.warm_accesses, 1.0));
    }
}

/// The one exact-or-sampled stack-distance pass over a line sequence:
/// the first `warm` lines warm the engine, the rest are measured.
fn pass(mut lines: impl Iterator<Item = u64>, warm: u64, rate: f64) -> StackDistHistogram {
    let mut pass = StackDist::new();
    let mut warm_left = warm;
    // In batches: the generator (float math, rejection loops) and the
    // pass (dependent loads) each run tighter alone than interleaved
    // access by access — 43 against 62 ns per access, end to end.
    let mut batch = [0u64; OP_BATCH];
    loop {
        let mut n = 0;
        for (slot, line) in batch.iter_mut().zip(lines.by_ref()) {
            *slot = line;
            n += 1;
        }
        if n == 0 {
            return pass.finish(rate);
        }
        // Warm-up and measured accesses in loops of their own, so each
        // inlines `access` with its `measured` flag a constant.
        let w = warm_left.min(n as u64) as usize;
        warm_left -= w as u64;
        for &line in &batch[..w] {
            pass.access(line, false);
        }
        for &line in &batch[w..n] {
            pass.access(line, true);
        }
    }
}

/// [`lines`], collected: mark at the warm/measure boundary.
pub fn line_trace(cfg: &ProbeCfg, line_bytes: u64) -> LineTrace {
    lines(cfg, line_bytes).into_trace()
}

/// Direct generation of the spatially-sampled sub-stream at `rate`.
///
/// Lines are selected by the same stateless hash as
/// [`amem_sim::stackdist::line_sampled`]; the sub-stream length is the
/// expected number of accesses landing on sampled lines, and each draw
/// inverts the conditional CDF over the sampled lines (binary search).
/// Returns the sub-stream plus the *actual* fraction of distinct lines
/// sampled (the distance scaling factor), or `None` when fewer than two
/// lines survive — callers should fall back to exact mode then.
pub fn sampled_lines(cfg: &ProbeCfg, line_bytes: u64, rate: f64) -> Option<(LineStream, f64)> {
    assert!(rate > 0.0 && rate <= 1.0, "sample rate must be in (0, 1]");
    assert!(line_bytes.is_power_of_two() && line_bytes >= 4);
    // Cumulative mass over the sampled lines only. The CDF is evaluated
    // at the edges of sampled lines alone — the same floats as
    // `ehr::line_masses`, at a cost in proportion to the rate.
    let mut sampled: Vec<u64> = Vec::new();
    let mut cum: Vec<f64> = Vec::new();
    let mut p_s = 0.0f64;
    let n_lines = cfg.buffer_bytes.div_ceil(line_bytes);
    let edge = ehr::line_edge_cdf(&cfg.dist, cfg.buffer_bytes, line_bytes);
    for l in (0..n_lines).filter(|&l| line_sampled(l, rate)) {
        p_s += edge(l + 1) - edge(l);
        sampled.push(l);
        cum.push(p_s);
    }
    if sampled.len() < 2 || p_s <= 0.0 {
        return None;
    }
    let actual_rate = sampled.len() as f64 / n_lines as f64;
    // An access lands on a sampled line with probability p_s; the
    // sub-stream keeps the expected count from each phase.
    let warm = (cfg.warm_accesses as f64 * p_s).round() as u64;
    let measure = ((cfg.measure_accesses as f64 * p_s).round() as u64).max(1);
    let stream = LineStream {
        rng: Xoshiro256::seed_from_u64(cfg.seed),
        draw: Draw::Sampled {
            lines: sampled,
            cum,
            mass: p_s,
        },
        warm,
        len: warm + measure,
        pos: 0,
    };
    Some((stream, actual_rate))
}

/// [`sampled_lines`], collected.
pub fn sampled_line_trace(cfg: &ProbeCfg, line_bytes: u64, rate: f64) -> Option<(LineTrace, f64)> {
    sampled_lines(cfg, line_bytes, rate).map(|(s, actual)| (s.into_trace(), actual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::AccessDist;
    use amem_sim::machine::Machine;
    use amem_sim::stackdist::StackDistHistogram;
    use amem_sim::stream::{AccessStream, Op};
    use amem_sim::MachineConfig;

    fn probe(dist: AccessDist, buffer_bytes: u64, warm: u64, measure: u64) -> ProbeCfg {
        ProbeCfg {
            dist,
            buffer_bytes,
            adds_per_load: 1,
            warm_accesses: warm,
            measure_accesses: measure,
            mlp: 2,
            seed: 0x009B_0BE5,
        }
    }

    #[test]
    fn line_trace_matches_probe_stream_addresses() {
        // Drain a real ProbeStream and check the relative line sequence
        // is identical — the guarantee the curve engine rests on.
        let cfg = probe(AccessDist::Exponential { rate: 6.0 }, 1 << 16, 500, 700);
        let mut m = Machine::new(MachineConfig::xeon20mb().scaled(0.125));
        let mut s = crate::probe::ProbeStream::new(&mut m, &cfg);
        let line_bytes = 64u64;
        let mut stream_lines = Vec::new();
        let mut mark_at = 0usize;
        loop {
            match s.next_op() {
                Op::Load(a) => stream_lines.push(a >> line_bytes.trailing_zeros()),
                Op::Mark => mark_at = stream_lines.len(),
                Op::Done => break,
                _ => {}
            }
        }
        // The stream's addresses are base-offset; normalize to relative
        // lines (base is page-aligned, so the offset is a whole number
        // of lines).
        let base = 0x1000_0000u64 >> 6;
        let rel: Vec<u64> = stream_lines.iter().map(|&l| l - base).collect();
        let t = line_trace(&cfg, line_bytes);
        assert_eq!(t.lines, rel);
        assert_eq!(t.mark, mark_at);
        assert_eq!(t.mark, 500);
    }

    #[test]
    fn streams_are_resumable_and_equal_their_collected_traces() {
        // Pulling a stream in pieces of any size and feeding the engine
        // piecewise gives the histogram of the one-shot pass and of the
        // collected trace: 16384 lines, several window compactions.
        let cfg = probe(
            AccessDist::Exponential { rate: 4.0 },
            1 << 20,
            30_000,
            30_000,
        );
        let streams: [(&dyn Fn() -> LineStream, f64); 2] = [
            (&|| lines(&cfg, 64), 1.0),
            (&|| sampled_lines(&cfg, 64, 0.1).unwrap().0, 0.1),
        ];
        for (make, rate) in streams {
            let whole = StackDistHistogram::compute(&make().into_trace(), rate);
            assert!(whole.distinct_lines > 1000, "{}", whole.distinct_lines);
            assert_eq!(make().histogram(rate), whole);
            for piece in [1, 7, OP_BATCH] {
                let mut stream = make();
                let warm = stream.warm;
                let mut pass = StackDist::new();
                let mut at = 0;
                while stream.pos < stream.len {
                    for line in stream.by_ref().take(piece) {
                        pass.access(line, at >= warm);
                        at += 1;
                    }
                }
                assert_eq!(pass.finish(rate), whole, "pieces of {piece}");
            }
        }
    }

    #[test]
    fn sampled_trace_curve_tracks_exact_curve() {
        let cfg = probe(
            AccessDist::Normal {
                mu: 0.5,
                sigma: 0.25,
            },
            4 << 20,
            40_000,
            40_000,
        );
        let exact = StackDistHistogram::compute(&line_trace(&cfg, 64), 1.0);
        let (st, r) = sampled_line_trace(&cfg, 64, 0.05).expect("enough lines at 5%");
        assert!(r > 0.02 && r < 0.1, "actual rate {r}");
        let approx = StackDistHistogram::compute(&st, r);
        let total_lines = (4u64 << 20) / 64;
        for frac in [0.1, 0.3, 0.5, 0.8, 1.2] {
            let c = (total_lines as f64 * frac) as u64;
            let (e, a) = (exact.miss_rate_at_lines(c), approx.miss_rate_at_lines(c));
            assert!(
                (e - a).abs() < 0.06,
                "cap {c}: exact {e:.4} vs sampled {a:.4}"
            );
        }
    }

    #[test]
    fn sampled_masses_are_the_running_sum_of_line_masses_bit_for_bit() {
        // The sampled draw's cumulative masses — CDF edges of sampled
        // lines only — against a running sum over `ehr::line_masses`,
        // which carries the CDF across every line. Includes a buffer
        // whose last line is partial.
        use crate::dist::{extensions, table2};
        for nd in table2().into_iter().chain(extensions()) {
            for buffer in [2 << 20, 1000 * 1000 + 36] {
                let cfg = probe(nd.dist, buffer, 1000, 1000);
                let masses = ehr::line_masses(&nd.dist, buffer, 4, 64);
                for rate in [0.01, 0.1, 1.0] {
                    let (stream, actual) = sampled_lines(&cfg, 64, rate).unwrap();
                    let Draw::Sampled { lines, cum, mass } = stream.draw else {
                        panic!("a sampled stream draws from sampled lines");
                    };
                    let mut want_lines = Vec::new();
                    let mut want_cum = Vec::new();
                    let mut running = 0.0f64;
                    for (l, g) in masses.iter().enumerate() {
                        if line_sampled(l as u64, rate) {
                            running += g;
                            want_lines.push(l as u64);
                            want_cum.push(running.to_bits());
                        }
                    }
                    let what = format!("{} buffer {buffer} rate {rate}", nd.name);
                    assert_eq!(lines, want_lines, "{what}");
                    let cum: Vec<u64> = cum.iter().map(|c| c.to_bits()).collect();
                    assert_eq!(cum, want_cum, "{what}");
                    assert_eq!(mass.to_bits(), running.to_bits(), "{what}");
                    assert_eq!(actual, lines.len() as f64 / masses.len() as f64, "{what}");
                }
            }
        }
    }

    #[test]
    fn sampled_trace_is_much_shorter() {
        let cfg = probe(AccessDist::Uniform, 4 << 20, 50_000, 50_000);
        let (st, _) = sampled_line_trace(&cfg, 64, 0.01).unwrap();
        let full = (cfg.warm_accesses + cfg.measure_accesses) as usize;
        assert!(
            st.lines.len() < full / 20,
            "{} of {} accesses",
            st.lines.len(),
            full
        );
    }

    #[test]
    fn sampled_trace_falls_back_on_tiny_buffers() {
        // A one-line buffer cannot be spatially sampled.
        let cfg = probe(AccessDist::Uniform, 64, 10, 10);
        assert!(sampled_line_trace(&cfg, 64, 0.01).is_none());
    }

    #[test]
    fn rate_one_samples_every_line() {
        let cfg = probe(AccessDist::Triangular { mode: 0.6 }, 1 << 16, 100, 100);
        let (st, r) = sampled_line_trace(&cfg, 64, 1.0).unwrap();
        assert_eq!(r, 1.0);
        assert_eq!(st.lines.len(), 200);
        // All lines in range.
        let n_lines = (1u64 << 16) / 64;
        assert!(st.lines.iter().all(|&l| l < n_lines));
    }
}
