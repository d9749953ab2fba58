//! Wire protocol: newline-delimited JSON over TCP, schema-versioned.
//!
//! One request per line, one response per line, in order. The payload
//! types reuse the library's own serializations (`Measurement`, `Sweep`,
//! `CapacityMap`, `MissRatioCurve`), which is what makes the daemon's
//! results byte-identical to library calls: the server serializes the
//! exact structs the `Executor` returned, and a client reprint of those
//! structs is the same text a local run would have produced
//! (DESIGN.md §15).

use std::io::{BufRead, Read, Write};
use std::sync::Arc;

use amem_core::curve::CurveRequest;
use amem_core::platform::{LuleshWorkload, McbWorkload, Measurement, ProbeWorkload, Workload};
use amem_core::{CacheStats, CapacityMap, MissRatioCurve, Sweep};
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_miniapps::{LuleshCfg, McbCfg};
use amem_probes::probe::ProbeCfg;
use amem_sim::config::MachineConfig;
use serde::{Deserialize, Serialize};

/// Bumped on any incompatible wire change; the server rejects mismatched
/// requests with a typed error instead of guessing.
pub const PROTOCOL_VERSION: u32 = 1;

/// Scheduling class. Within one priority, *queued* jobs run FIFO per
/// tenant. A job whose results are all in memory is not queued — the
/// frontend answers it — so it does not wait behind its tenant's, or a
/// higher class's, queued computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Priority {
    High,
    #[default]
    Normal,
    Low,
}

impl Priority {
    /// Lane index, highest first.
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority '{other}' (want high/normal/low)")),
        }
    }
}

/// A workload by configuration — the same configs the library's
/// `Workload` impls wrap, so the daemon builds the identical workload
/// (and therefore the identical cache key) a library caller would.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkloadSpec {
    Mcb(McbCfg),
    Lulesh(LuleshCfg),
    Probe(ProbeCfg),
}

impl WorkloadSpec {
    /// Instantiate the library workload this spec describes.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Mcb(cfg) => Box::new(McbWorkload(*cfg)),
            WorkloadSpec::Lulesh(cfg) => Box::new(LuleshWorkload(*cfg)),
            WorkloadSpec::Probe(cfg) => Box::new(ProbeWorkload(*cfg)),
        }
    }
}

/// One unit of measurement work. Every variant maps 1:1 onto a library
/// entry point (`Executor::run`, `run_sweep`, `CapacityMap::calibrate`,
/// `Executor::run_curve`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobSpec {
    Measure {
        machine: MachineConfig,
        workload: WorkloadSpec,
        per_processor: usize,
        mix: InterferenceMix,
    },
    Sweep {
        machine: MachineConfig,
        workload: WorkloadSpec,
        per_processor: usize,
        kind: InterferenceKind,
        max_count: usize,
    },
    Calibrate {
        machine: MachineConfig,
        max_cs: usize,
    },
    Curve {
        request: CurveRequest,
    },
}

impl JobSpec {
    /// Short kind tag for metrics labels and job records.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Measure { .. } => "measure",
            JobSpec::Sweep { .. } => "sweep",
            JobSpec::Calibrate { .. } => "calibrate",
            JobSpec::Curve { .. } => "curve",
        }
    }

    /// The machine the job simulates; a curve job simulates none.
    pub fn machine(&self) -> Option<&MachineConfig> {
        match self {
            JobSpec::Measure { machine, .. }
            | JobSpec::Sweep { machine, .. }
            | JobSpec::Calibrate { machine, .. } => Some(machine),
            JobSpec::Curve { .. } => None,
        }
    }

    /// The routing key: requests for the same measurement content must
    /// land on the same shard, so they reach the same shard-owned
    /// `Executor` and its in-flight dedup. A measure point and the sweep
    /// that contains it share a key on purpose — interference level and
    /// sweep extent are deliberately excluded so overlapping work
    /// converges on one executor. Nothing here is printed as JSON but the
    /// workload's own cache key: the machine is left out (the shard keys
    /// its executors by machine, compared by value), and a curve routes
    /// by the numbers that set its trace.
    pub fn route_key(&self) -> String {
        match self {
            JobSpec::Measure {
                workload,
                per_processor,
                ..
            }
            | JobSpec::Sweep {
                workload,
                per_processor,
                ..
            } => {
                let w = workload.build();
                format!(
                    "{}|pp={per_processor}",
                    w.cache_key().unwrap_or_else(|| w.name()),
                )
            }
            JobSpec::Calibrate { .. } => "calibrate".into(),
            JobSpec::Curve { request } => format!(
                "curve|{}|{}|{}|{}",
                request.buffer_bytes, request.seed, request.warm_accesses, request.measure_accesses
            ),
        }
    }
}

/// What the client wants done on this line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Command {
    /// Liveness check; answered inline by the frontend.
    Ping,
    /// Service-wide counters and aggregated cache stats.
    Stats,
    /// Prometheus text of the daemon's metrics registry.
    Metrics,
    /// Drain: finish everything queued, refuse new jobs, then exit.
    Shutdown,
    /// Enqueue a measurement job and wait for its result. Boxed: a
    /// `JobSpec` embeds a full `MachineConfig`, and `Ping` shouldn't pay
    /// for it.
    Submit(Box<JobSpec>),
}

/// One request line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Must equal [`PROTOCOL_VERSION`].
    pub v: u32,
    /// Quota accounting identity; any non-empty string.
    pub tenant: String,
    pub priority: Priority,
    /// Test-only deterministic fault injection for this job's executor
    /// (`FaultSpec` syntax). Only honored when the daemon was started
    /// with fault injection allowed; injected results are never cached.
    pub fault: Option<String>,
    pub command: Command,
}

impl Request {
    /// A plain request with default tenant/priority.
    pub fn new(command: Command) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            tenant: "default".into(),
            priority: Priority::Normal,
            fault: None,
            command,
        }
    }
}

/// One response line: either `result` or `error` is set, never both.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    pub v: u32,
    /// Durable job id (0 for control commands).
    pub id: u64,
    pub error: Option<String>,
    pub result: Option<JobResult>,
}

impl Response {
    pub fn ok(id: u64, result: JobResult) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            id,
            error: None,
            result: Some(result),
        }
    }

    pub fn err(id: u64, error: impl Into<String>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            id,
            error: Some(error.into()),
            result: None,
        }
    }
}

/// A successful result payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobResult {
    Pong,
    Measurement(Measurement),
    Sweep(Sweep),
    Capacity(CapacityMap),
    Curve(MissRatioCurve),
    Stats(ServeStats),
    Metrics {
        text: String,
    },
    /// Shutdown acknowledged after the queue fully drained.
    Drained {
        jobs_completed: u64,
    },
}

/// What a worker hands the frontend for a finished job: the job
/// variants of [`JobResult`], with what the executor returned still
/// behind its `Arc` — a cache hit is shared with the executor's memory
/// layer, never copied. Serializes to the same bytes as the
/// [`JobResult`] of the same name.
#[derive(Debug, Serialize)]
pub enum JobOutput {
    Measurement(Arc<Measurement>),
    Sweep(Sweep),
    Capacity(CapacityMap),
    Curve(Arc<MissRatioCurve>),
}

/// The [`Response`] line of a finished job, as the server writes it.
#[derive(Debug, Serialize)]
pub(crate) struct JobReply {
    v: u32,
    id: u64,
    error: Option<String>,
    result: Option<JobOutput>,
}

impl JobReply {
    pub(crate) fn new(id: u64, outcome: Result<JobOutput, String>) -> Self {
        let (result, error) = match outcome {
            Ok(output) => (Some(output), None),
            Err(e) => (None, Some(e)),
        };
        Self {
            v: PROTOCOL_VERSION,
            id,
            error,
            result,
        }
    }
}

/// Service-wide counters, plus cache stats aggregated over every
/// shard-owned executor (the denominator of the exported hit rate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeStats {
    /// Request lines received, all kinds.
    pub requests: u64,
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    /// Jobs a connection thread executed itself because every result was
    /// already in memory (counted in `jobs_completed` too). Clients built
    /// before this field skip it like any unknown key.
    pub frontend_jobs: u64,
    /// Jobs currently queued (not yet picked up by a worker).
    pub queue_depth: u64,
    /// Times the scheduler skipped a job because its tenant was over
    /// its token-bucket quota.
    pub quota_deferrals: u64,
    pub shards: usize,
    /// Executors instantiated across all shards.
    pub executors: usize,
    /// Aggregated measurement-cache stats across all executors.
    pub cache: CacheStats,
    /// Shared-store footprint (entries / bytes) at last scan.
    pub store_entries: u64,
    pub store_bytes: u64,
    /// Entries evicted for the size cap and the age cap.
    pub evictions_size: u64,
    pub evictions_age: u64,
    /// Orphaned tmp scratch files reclaimed at startup.
    pub tmp_reclaimed: u64,
    pub uptime_secs: f64,
}

impl ServeStats {
    /// Cache hit rate in percent over all executor lookups.
    pub fn hit_rate_percent(&self) -> f64 {
        100.0 * self.cache.hit_rate()
    }
}

/// Serialize one message as a JSON line and flush it.
pub fn write_line<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    write_line_via(w, msg, &mut String::new())
}

/// [`write_line`] through a buffer the connection keeps, so a reply
/// costs no allocation once the buffer has grown to fit one.
pub(crate) fn write_line_via<W: Write, T: Serialize>(
    w: &mut W,
    msg: &T,
    line: &mut String,
) -> std::io::Result<()> {
    line.clear();
    serde_json::append(line, msg);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Longest request line (newline included) the server reads. Real
/// requests are a few KB — a machine config plus a workload spec — so
/// anything past this is hostile or broken, and is refused before it is
/// buffered.
pub(crate) const MAX_REQUEST_LINE: usize = 1 << 20;

/// Read one JSON-line message; `Ok(None)` on clean EOF. Blank lines are
/// skipped so interactive use (telnet, netcat) stays forgiving.
pub fn read_line<R: BufRead, T: Deserialize>(r: &mut R) -> std::io::Result<Option<T>> {
    read_line_within(r, usize::MAX, &mut String::new())
}

/// [`read_line`] into a buffer the connection keeps, refusing a line
/// longer than `max` bytes with `ErrorKind::InvalidInput` (malformed
/// JSON is `InvalidData`). At most `max + 1` bytes of a refused line are
/// read; the rest stays in the stream, so the caller must drop the
/// connection.
pub(crate) fn read_line_within<R: BufRead, T: Deserialize>(
    r: &mut R,
    max: usize,
    line: &mut String,
) -> std::io::Result<Option<T>> {
    let budget = (max as u64).saturating_add(1);
    loop {
        line.clear();
        if r.by_ref().take(budget).read_line(line)? == 0 {
            return Ok(None);
        }
        if line.len() > max {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("request line exceeds {max} bytes"),
            ));
        }
        if !line.trim().is_empty() {
            break;
        }
    }
    serde_json::from_str(line.trim())
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let cfg = MachineConfig::xeon20mb().scaled(0.0625);
        let req = Request {
            v: PROTOCOL_VERSION,
            tenant: "t0".into(),
            priority: Priority::High,
            fault: Some("seed=1,panic=1.0".into()),
            command: Command::Submit(Box::new(JobSpec::Sweep {
                machine: cfg.clone(),
                workload: WorkloadSpec::Probe(amem_core::figures::fig1_probe(&cfg)),
                per_processor: 1,
                kind: InterferenceKind::Storage,
                max_count: 5,
            })),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.priority, Priority::High);
        match back.command {
            Command::Submit(spec) => {
                assert_eq!(spec.kind(), "sweep");
                assert_eq!(spec.route_key(), req_route_key(&req));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    fn req_route_key(req: &Request) -> String {
        match &req.command {
            Command::Submit(spec) => spec.route_key(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn overlapping_measure_and_sweep_share_a_route_key() {
        let cfg = MachineConfig::xeon20mb().scaled(0.0625);
        let w = WorkloadSpec::Probe(amem_core::figures::fig1_probe(&cfg));
        let measure = JobSpec::Measure {
            machine: cfg.clone(),
            workload: w.clone(),
            per_processor: 1,
            mix: InterferenceMix::storage(3),
        };
        let sweep = JobSpec::Sweep {
            machine: cfg.clone(),
            workload: w,
            per_processor: 1,
            kind: InterferenceKind::Storage,
            max_count: 5,
        };
        assert_eq!(
            measure.route_key(),
            sweep.route_key(),
            "a point and the sweep containing it must share an executor"
        );
    }

    #[test]
    fn line_codec_round_trips_and_skips_blanks() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Response::ok(7, JobResult::Pong)).unwrap();
        buf.splice(0..0, b"\n  \n".iter().copied());
        let mut r = std::io::BufReader::new(&buf[..]);
        let resp: Response = read_line(&mut r).unwrap().expect("one message");
        assert_eq!(resp.id, 7);
        assert!(matches!(resp.result, Some(JobResult::Pong)));
        let eof: Option<Response> = read_line(&mut r).unwrap();
        assert!(eof.is_none(), "clean EOF");
    }

    #[test]
    fn job_replies_are_the_bytes_of_the_response_they_stand_for() {
        let curve = MissRatioCurve {
            schema_version: amem_core::CURVE_SCHEMA_VERSION,
            points: vec![],
            quality: None,
        };
        let reply = JobReply::new(9, Ok(JobOutput::Curve(Arc::new(curve.clone()))));
        assert_eq!(
            serde_json::to_string(&reply).unwrap(),
            serde_json::to_string(&Response::ok(9, JobResult::Curve(curve))).unwrap()
        );
        let refusal = JobReply::new(3, Err("no".into()));
        assert_eq!(
            serde_json::to_string(&refusal).unwrap(),
            serde_json::to_string(&Response::err(3, "no")).unwrap()
        );
    }

    /// A request line as real as they come: the largest workload config,
    /// a fault spec, a tenant that needs escaping.
    fn request_line() -> String {
        let cfg = MachineConfig::xeon20mb();
        let req = Request {
            v: PROTOCOL_VERSION,
            tenant: "tenant/\"quoted\"\\é".into(),
            priority: Priority::Low,
            fault: Some("seed=1,timeout=0.1,error=0.1,nan=0.1,noise=0.03".into()),
            command: Command::Submit(Box::new(JobSpec::Measure {
                machine: cfg.clone(),
                workload: WorkloadSpec::Mcb(McbCfg::new(&cfg, 20_000)),
                per_processor: 2,
                mix: InterferenceMix::storage(3),
            })),
        };
        serde_json::to_string(&req).unwrap()
    }

    fn decode(line: &[u8]) -> std::io::Result<Option<Request>> {
        read_line(&mut &line[..])
    }

    /// Every proper prefix of a request is a refusal, never a panic; so
    /// is the line with one byte overwritten, unless the damage left a
    /// well-formed request — which then survives a re-encode and decode.
    fn mangled_requests_fail_typed(seed: u64) {
        let line = request_line();
        assert!(decode(line.as_bytes()).unwrap().is_some());
        for cut in 1..line.len() {
            assert!(decode(&line.as_bytes()[..cut]).is_err(), "prefix of {cut}");
        }

        const HOSTILE: &[u8] = b"{}[]\",:\\ \x00\x7f\xff\xc3-9eE.tfn";
        let mut rng = amem_sim::rng::SplitMix64::new(seed);
        let mut refused = 0;
        for _ in 0..200 {
            let at = (rng.next_u64() % line.len() as u64) as usize;
            let mut bytes = line.clone().into_bytes();
            let with = HOSTILE[(rng.next_u64() % HOSTILE.len() as u64) as usize];
            if bytes[at] == with {
                continue;
            }
            bytes[at] = with;
            match decode(&bytes) {
                Err(_) => refused += 1,
                Ok(parsed) => {
                    let parsed = parsed.expect("the line is not blank");
                    let again = serde_json::to_string(&parsed).unwrap();
                    assert!(decode(again.as_bytes()).is_ok(), "byte {at} <- {with:#x}");
                }
            }
        }
        assert!(refused >= 100, "only {refused} of 200 corruptions refused");
    }

    #[test]
    fn mangled_requests_fail_typed_seed_1() {
        mangled_requests_fail_typed(1);
    }

    /// The CI `Codec` step runs this one too (`-- --include-ignored`).
    #[test]
    #[ignore = "a second seed for the CI codec step"]
    fn mangled_requests_fail_typed_seed_2() {
        mangled_requests_fail_typed(2);
    }

    #[test]
    fn version_and_priority_parse() {
        assert_eq!(Priority::parse("high").unwrap().lane(), 0);
        assert_eq!(Priority::parse("normal").unwrap().lane(), 1);
        assert_eq!(Priority::parse("low").unwrap().lane(), 2);
        assert!(Priority::parse("urgent").is_err());
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
