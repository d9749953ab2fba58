//! A blocking client for the daemon's JSON-lines protocol.
//!
//! One `Client` holds one TCP connection; requests are serialized on the
//! wire in order, and each call blocks until its response line arrives.
//! For concurrent jobs open several clients — the daemon's frontends are
//! stateless, so dedup and quotas behave identically either way.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use amem_core::{CapacityMap, Measurement, MissRatioCurve, Sweep};

use crate::protocol::{
    read_line_within, write_line_via, Command, JobResult, JobSpec, Priority, Request, Response,
    ServeStats, PROTOCOL_VERSION,
};

/// A connected client. Tenant/priority/fault are connection-level
/// defaults stamped onto every request it sends.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The request and response lines, reused from call to call.
    line_out: String,
    line_in: String,
    /// Quota identity sent with every request.
    pub tenant: String,
    pub priority: Priority,
    /// Test-only fault spec forwarded with submissions (the daemon
    /// refuses it unless started with fault injection allowed).
    pub fault: Option<String>,
}

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // A request is one write of a whole line: never hold its tail
        // back waiting for the ACK of its head.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            line_out: String::new(),
            line_in: String::new(),
            tenant: "default".into(),
            priority: Priority::Normal,
            fault: None,
        })
    }

    /// Send one command and wait for its response line.
    pub fn request(&mut self, command: Command) -> std::io::Result<Response> {
        let req = Request {
            v: PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
            priority: self.priority,
            fault: self.fault.clone(),
            command,
        };
        write_line_via(&mut self.writer, &req, &mut self.line_out)?;
        read_line_within(&mut self.reader, usize::MAX, &mut self.line_in)?
            .ok_or_else(|| bad_data("connection closed before a response arrived"))
    }

    /// Send a command and unwrap the success payload; the daemon's typed
    /// error (quota refusal, job failure, version mismatch) becomes an
    /// `InvalidData` error carrying its message.
    fn expect_ok(&mut self, command: Command) -> std::io::Result<JobResult> {
        let resp = self.request(command)?;
        match (resp.result, resp.error) {
            (Some(result), _) => Ok(result),
            (None, Some(error)) => Err(bad_data(error)),
            (None, None) => Err(bad_data("malformed response: neither result nor error")),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.expect_ok(Command::Ping)? {
            JobResult::Pong => Ok(()),
            other => Err(bad_data(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Service-wide counters and aggregated cache stats.
    pub fn stats(&mut self) -> std::io::Result<ServeStats> {
        match self.expect_ok(Command::Stats)? {
            JobResult::Stats(s) => Ok(s),
            other => Err(bad_data(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Prometheus text of the daemon's metrics registry.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        match self.expect_ok(Command::Metrics)? {
            JobResult::Metrics { text } => Ok(text),
            other => Err(bad_data(format!("expected Metrics, got {other:?}"))),
        }
    }

    /// Drain the daemon: blocks until every queued job finished, then
    /// returns how many jobs the daemon completed over its lifetime.
    pub fn shutdown(&mut self) -> std::io::Result<u64> {
        match self.expect_ok(Command::Shutdown)? {
            JobResult::Drained { jobs_completed } => Ok(jobs_completed),
            other => Err(bad_data(format!("expected Drained, got {other:?}"))),
        }
    }

    /// Submit any job and wait for its raw result.
    pub fn submit(&mut self, spec: JobSpec) -> std::io::Result<JobResult> {
        self.expect_ok(Command::Submit(Box::new(spec)))
    }

    /// Submit a measure job; the returned `Measurement` is byte-identical
    /// to what a local `Executor::run` would have produced.
    pub fn measure(&mut self, spec: JobSpec) -> std::io::Result<Measurement> {
        match self.submit(spec)? {
            JobResult::Measurement(m) => Ok(m),
            other => Err(bad_data(format!("expected Measurement, got {other:?}"))),
        }
    }

    /// Submit a sweep job.
    pub fn sweep(&mut self, spec: JobSpec) -> std::io::Result<Sweep> {
        match self.submit(spec)? {
            JobResult::Sweep(s) => Ok(s),
            other => Err(bad_data(format!("expected Sweep, got {other:?}"))),
        }
    }

    /// Submit a calibrate job.
    pub fn calibrate(&mut self, spec: JobSpec) -> std::io::Result<CapacityMap> {
        match self.submit(spec)? {
            JobResult::Capacity(c) => Ok(c),
            other => Err(bad_data(format!("expected Capacity, got {other:?}"))),
        }
    }

    /// Submit a curve job.
    pub fn curve(&mut self, spec: JobSpec) -> std::io::Result<MissRatioCurve> {
        match self.submit(spec)? {
            JobResult::Curve(c) => Ok(c),
            other => Err(bad_data(format!("expected Curve, got {other:?}"))),
        }
    }
}
