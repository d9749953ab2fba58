//! Epoch-driven resource control: the seam between the engine and a QoS
//! controller.
//!
//! The engine's scheduler is a deterministic single-threaded loop; a
//! controller plugs into it at fixed *epoch* boundaries (every
//! [`EpochController::epoch_cycles`] simulated cycles). At each boundary
//! the engine hands the controller a read-only snapshot of every core
//! ([`CoreView`]: cumulative counters plus the current knob settings) and
//! applies whatever [`Actuation`]s come back before dispatching the next
//! core. Because the snapshot is taken at a deterministic point in the pop
//! order, identical `(jobs, limit, controller)` inputs always produce
//! identical decision sequences — the conformance `qos` lane holds the
//! engine to exactly that.
//!
//! Two knobs exist, mirroring real-hardware mechanisms:
//!
//! * [`Knob::L3WayMask`] — the simulated Intel CAT allocation mask
//!   already carried by [`crate::engine::Job::l3_way_mask`], now
//!   re-drivable mid-run;
//! * [`Knob::Throttle`] — a per-core token bucket on DRAM line fetches
//!   ([`crate::dram::LineThrottle`]), the simulated analogue of memory
//!   bandwidth allocation (Intel MBA).
//!
//! Both are execution-time knobs, deliberately excluded from
//! [`crate::engine::RunLimit`] and therefore from every content-addressed
//! cache key: a controller rides on the engine builder
//! ([`crate::engine::Engine::with_controller`]), never on the request.

use serde::{Deserialize, Serialize};

use crate::counters::CoreCounters;
use crate::dram::ThrottleCfg;

/// Read-only per-core snapshot handed to the controller at each epoch.
#[derive(Debug, Clone)]
pub struct CoreView {
    /// Flat core index (socket-major, as used by `Job::core.flat`).
    pub core: usize,
    /// Socket this core belongs to.
    pub socket: usize,
    /// Index of the job running on this core (`None` for idle cores).
    pub job: Option<usize>,
    /// Whether that job is a primary (measured) job.
    pub primary: bool,
    /// Whether the core has finished (or was never occupied).
    pub done: bool,
    /// This core's local clock.
    pub time: u64,
    /// Cumulative counters since the start of the run; controllers diff
    /// successive snapshots to get per-epoch rates.
    pub counters: CoreCounters,
    /// Current CAT way mask.
    pub l3_way_mask: u32,
    /// Current bandwidth-throttle setting, if any.
    pub throttle: Option<ThrottleCfg>,
}

/// One actuator setting. Serializable so controllers can keep
/// byte-comparable decision logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Knob {
    /// Restrict L3 fills on this core to the set ways (must select at
    /// least one way the L3 has; the engine rejects the actuation otherwise).
    L3WayMask(u32),
    /// Install (or retune) the DRAM line token bucket on this core.
    Throttle(ThrottleCfg),
    /// Remove the token bucket: full-speed DRAM access.
    Unthrottle,
}

/// A knob applied to one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Actuation {
    /// Flat core index.
    pub core: usize,
    pub knob: Knob,
}

/// A mid-run resource controller, invoked by the engine at every epoch
/// boundary. Implementations keep their own state (estimates, decision
/// logs) across calls; the engine borrows the controller mutably for the
/// duration of the run, so the caller gets the state back afterwards.
pub trait EpochController {
    /// Epoch length in simulated cycles (values below 1 are treated as 1).
    fn epoch_cycles(&self) -> u64;

    /// Called once per epoch boundary, in epoch order, with `now` = the
    /// boundary's cycle number and a snapshot of every core. Returns the
    /// actuations to apply before the next dispatch.
    fn on_epoch(&mut self, epoch: u64, now: u64, cores: &[CoreView]) -> Vec<Actuation>;
}

/// A controller that observes epochs but never actuates.
///
/// Attaching any controller switches the engine to epoch-bounded
/// dispatch (loads whose MLP stall jumps past the dispatch horizon are
/// re-issued once the other cores catch up), which orders shared-channel
/// bookings more finely than the free-running default. Baseline runs
/// that will be *compared against* controlled runs should attach a
/// `NullController` with the same epoch length so both sides run under
/// identical dispatch semantics.
#[derive(Debug, Clone, Copy)]
pub struct NullController {
    epoch_cycles: u64,
}

impl NullController {
    pub fn new(epoch_cycles: u64) -> Self {
        Self {
            epoch_cycles: epoch_cycles.max(1),
        }
    }
}

impl EpochController for NullController {
    fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    fn on_epoch(&mut self, _epoch: u64, _now: u64, _cores: &[CoreView]) -> Vec<Actuation> {
        Vec::new()
    }
}
