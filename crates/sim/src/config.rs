//! Machine geometry: cache shapes, latencies, channel bandwidth, topology.
//!
//! The canonical configuration is [`MachineConfig::xeon20mb`], reproducing
//! Table I of the paper (2-socket, 8-core Intel Xeon E5-2670: 32 KB 8-way
//! L1D and 256 KB 8-way L2 per core, 20 MB 20-way shared L3 per socket,
//! 64-byte lines) plus the quantities the paper measures around it
//! (≈17 GB/s LLC↔DRAM STREAM bandwidth at 2.6 GHz).
//!
//! Every configuration supports uniform [`MachineConfig::scaled`] shrinking:
//! capacities scale, latencies and bandwidth stay fixed, so capacity-relative
//! behaviour (the shapes of every figure) is preserved while simulation cost
//! drops linearly. Experiment drivers express buffer sizes relative to the
//! L3, so a scaled machine regenerates the same curves faster.

use serde::{Deserialize, Serialize};

use crate::cache::{InsertPolicy, Replacement};
use crate::tlb::TlbConfig;

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Load-to-use latency in core cycles for a hit at this level.
    pub latency: u32,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Where newly-filled lines are inserted in the recency order.
    pub insert: InsertPolicy,
    /// Hash the set index (Intel "complex addressing"). Real LLCs spread
    /// page-aligned buffers across sets; without this, same-offset
    /// accesses to page-aligned buffers collide in a handful of sets.
    pub hash_sets: bool,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        (self.size_bytes / (self.line_bytes as u64 * self.ways as u64)) as u32
    }

    /// Capacity in lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }
}

/// Identifies a core by socket and core-within-socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreId {
    pub socket: u32,
    pub core: u32,
}

impl CoreId {
    pub fn new(socket: u32, core: u32) -> Self {
        Self { socket, core }
    }

    /// Flat index given a machine configuration.
    pub fn flat(&self, cfg: &MachineConfig) -> usize {
        (self.socket * cfg.cores_per_socket + self.core) as usize
    }
}

/// Interconnect model for cross-node (MPI-style) transfers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// One-way message latency in core cycles.
    pub latency_cycles: u32,
    /// Wire bandwidth in bytes per core cycle.
    pub bytes_per_cycle: f64,
}

/// Full machine description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable name, used in reports.
    pub name: String,
    /// Number of sockets (each socket has a private L3 and DRAM channel).
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Core clock frequency in GHz (converts cycles to seconds).
    pub freq_ghz: f64,
    /// Private, per-core first-level data cache.
    pub l1: CacheConfig,
    /// Private, per-core second-level cache.
    pub l2: CacheConfig,
    /// Shared, per-socket last-level cache.
    pub l3: CacheConfig,
    /// Fixed portion of a DRAM access (row activation etc.), in cycles.
    pub dram_latency: u32,
    /// Raw DRAM channel bandwidth per socket, bytes per core cycle.
    pub dram_bytes_per_cycle: f64,
    /// Whether the L3 is inclusive of L1/L2 (evictions back-invalidate).
    pub inclusive_l3: bool,
    /// Stride prefetcher enabled.
    pub prefetch: bool,
    /// Prefetch degree (lines fetched ahead per trained miss, max 4).
    pub prefetch_degree: u32,
    /// Cross-node interconnect.
    pub net: NetConfig,
    /// Per-core data TLB. The shipped Xeon20MB preset disables it and
    /// folds average translation cost into `dram_latency` (the
    /// calibrated 2.8 GB/s-per-BWThr number already includes it); switch
    /// to [`TlbConfig::xeon_dtlb`] to model translation explicitly (see
    /// the `tlb_effects` example).
    pub tlb: TlbConfig,
}

impl MachineConfig {
    /// The paper's testbed: Table I plus measured quantities.
    ///
    /// `dram_bytes_per_cycle` is chosen so that an 8-core STREAM triad
    /// measures ≈17 GB/s (the paper's quoted machine bandwidth); the raw
    /// channel rate is slightly higher because real STREAM never reaches
    /// the pin bandwidth either.
    pub fn xeon20mb() -> Self {
        Self {
            name: "Xeon20MB".to_string(),
            sockets: 2,
            cores_per_socket: 8,
            freq_ghz: 2.6,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                line_bytes: 64,
                ways: 8,
                latency: 4,
                replacement: Replacement::Lru,
                insert: InsertPolicy::Mru,
                hash_sets: false,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                line_bytes: 64,
                ways: 8,
                latency: 12,
                replacement: Replacement::Lru,
                insert: InsertPolicy::Mru,
                hash_sets: false,
            },
            l3: CacheConfig {
                size_bytes: 20 << 20,
                line_bytes: 64,
                ways: 20,
                latency: 38,
                replacement: Replacement::Lru,
                // Classic LRU, every fill at MRU (no shipped stream hints
                // otherwise). (a) BWThr's cyclic walk over a footprint
                // slightly exceeding the L3 thrashes completely (LRU's
                // cyclic pathology), so it consumes bandwidth at a constant
                // rate regardless of co-runners (Fig. 7); (b) a CSThr's
                // hot, re-touched set stays above a moderate streamer in
                // the recency stack, so one or two BWThrs do not displace
                // its storage (Fig. 8). Data re-touched less often is
                // displaced: one BWThr makes MCB and Lulesh miss in the L3.
                insert: InsertPolicy::Mru,
                hash_sets: true,
            },
            dram_latency: 200,
            // 7.0 B/cycle * 2.6 GHz = 18.2 GB/s raw; STREAM measures ~17.
            dram_bytes_per_cycle: 7.0,
            inclusive_l3: true,
            prefetch: true,
            prefetch_degree: 4,
            net: NetConfig {
                // InfiniBand QDR: ~1.3 us latency, 40 Gb/s = 5 GB/s wire.
                latency_cycles: 3400,
                bytes_per_cycle: 5.0 / 2.6,
            },
            tlb: TlbConfig::disabled(),
        }
    }

    /// A larger contemporary server part: 18 cores and a 45 MB L3 per
    /// socket with more memory bandwidth (an E5-2699 v3-like shape).
    /// Useful for cross-machine prediction experiments.
    pub fn xeon45mb() -> Self {
        let mut c = Self::xeon20mb();
        c.name = "Xeon45MB".to_string();
        c.cores_per_socket = 18;
        c.freq_ghz = 2.3;
        c.l3.size_bytes = 45 << 20;
        c.l3.ways = 20;
        // 4 channels of DDR4-2133-ish: ~60 GB/s per socket.
        c.dram_bytes_per_cycle = 26.0;
        c
    }

    /// The paper's motivating future machine: an exascale-style node with
    /// an order of magnitude less cache and bandwidth per core (§I).
    pub fn exascale_node() -> Self {
        let mut c = Self::xeon20mb();
        c.name = "ExascaleNode".to_string();
        c.cores_per_socket = 16;
        // 2 MB of LLC for 16 cores: 1/8 the capacity per core.
        c.l3.size_bytes = 2 << 20;
        c.l3.ways = 16;
        // Bandwidth per core also slashed.
        c.dram_bytes_per_cycle = 3.5;
        c
    }

    /// Uniformly scale all cache capacities by `f` (0 < f <= 1).
    ///
    /// Latencies, bandwidth and topology are unchanged, so behaviour that
    /// depends on *ratios* of working set to capacity is preserved while
    /// simulations get cheaper. Sizes are rounded so `sets()` stays integral.
    pub fn scaled(&self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        let mut c = self.clone();
        let scale_cache = |cc: &CacheConfig| -> CacheConfig {
            let mut out = *cc;
            let raw = (cc.size_bytes as f64 * f) as u64;
            let set_bytes = cc.line_bytes as u64 * cc.ways as u64;
            // Round to a power-of-two number of sets, at least 1 set.
            let sets = (raw / set_bytes).max(1);
            let sets_p2 = 1u64 << (63 - sets.leading_zeros() as u64);
            out.size_bytes = sets_p2 * set_bytes;
            out
        };
        c.l1 = scale_cache(&self.l1);
        c.l2 = scale_cache(&self.l2);
        c.l3 = scale_cache(&self.l3);
        if (f - 1.0).abs() > f64::EPSILON {
            c.name = format!("{}x{:.3}", self.name, f);
        }
        c
    }

    /// Total cores across sockets.
    pub fn total_cores(&self) -> usize {
        (self.sockets * self.cores_per_socket) as usize
    }

    /// Socket index of a flat core index.
    pub fn socket_of(&self, flat_core: usize) -> usize {
        flat_core / self.cores_per_socket as usize
    }

    /// Convert a cycle count to seconds.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Convert (bytes, cycles) to GB/s.
    pub fn gbs(&self, bytes: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 / self.seconds(cycles) / 1e9
    }

    /// Raw DRAM channel bandwidth in GB/s (per socket).
    pub fn raw_dram_gbs(&self) -> f64 {
        self.dram_bytes_per_cycle * self.freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let m = MachineConfig::xeon20mb();
        assert_eq!(m.l1.size_bytes, 32 * 1024);
        assert_eq!(m.l1.ways, 8);
        assert_eq!(m.l2.size_bytes, 256 * 1024);
        assert_eq!(m.l2.ways, 8);
        assert_eq!(m.l3.size_bytes, 20 * 1024 * 1024);
        assert_eq!(m.l3.ways, 20);
        assert_eq!(m.l1.line_bytes, 64);
        // Set counts are integral and powers of two for this geometry.
        assert_eq!(m.l1.sets(), 64);
        assert_eq!(m.l2.sets(), 512);
        assert_eq!(m.l3.sets(), 16384);
        assert_eq!(m.total_cores(), 16);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let m = MachineConfig::xeon20mb();
        let s = m.scaled(0.25);
        assert_eq!(s.l3.size_bytes, 5 * 1024 * 1024);
        assert_eq!(s.l1.size_bytes, 8 * 1024);
        assert_eq!(s.l2.size_bytes, 64 * 1024);
        // Latencies and bandwidth unchanged.
        assert_eq!(s.l3.latency, m.l3.latency);
        assert_eq!(s.dram_bytes_per_cycle, m.dram_bytes_per_cycle);
        // Sets still powers of two.
        assert!(s.l3.sets().is_power_of_two());
    }

    #[test]
    fn scale_one_is_identity_sizes() {
        let m = MachineConfig::xeon20mb();
        let s = m.scaled(1.0);
        assert_eq!(s.l3.size_bytes, m.l3.size_bytes);
        assert_eq!(s.l1.size_bytes, m.l1.size_bytes);
    }

    #[test]
    fn unit_conversions() {
        let m = MachineConfig::xeon20mb();
        // 2.6e9 cycles == 1 second.
        assert!((m.seconds(2_600_000_000) - 1.0).abs() < 1e-12);
        // 17 GB in 1 s = 17 GB/s.
        let gbs = m.gbs(17_000_000_000, 2_600_000_000);
        assert!((gbs - 17.0).abs() < 1e-9);
        assert!((m.raw_dram_gbs() - 18.2).abs() < 1e-9);
    }

    #[test]
    fn core_ids_flatten() {
        let m = MachineConfig::xeon20mb();
        assert_eq!(CoreId::new(0, 0).flat(&m), 0);
        assert_eq!(CoreId::new(0, 7).flat(&m), 7);
        assert_eq!(CoreId::new(1, 0).flat(&m), 8);
        assert_eq!(m.socket_of(9), 1);
        assert_eq!(m.socket_of(7), 0);
    }

    #[test]
    #[should_panic]
    fn invalid_scale_panics() {
        MachineConfig::xeon20mb().scaled(0.0);
    }

    #[test]
    fn alternative_presets_are_consistent() {
        let big = MachineConfig::xeon45mb();
        assert_eq!(big.l3.size_bytes, 45 << 20);
        assert!(big.l3.sets() >= 1);
        assert!(big.raw_dram_gbs() > MachineConfig::xeon20mb().raw_dram_gbs());
        let exa = MachineConfig::exascale_node();
        // The paper's premise: much less cache and bandwidth per core.
        let per_core_cache = |m: &MachineConfig| m.l3.size_bytes as f64 / m.cores_per_socket as f64;
        let per_core_bw = |m: &MachineConfig| m.raw_dram_gbs() / m.cores_per_socket as f64;
        let base = MachineConfig::xeon20mb();
        assert!(per_core_cache(&exa) < per_core_cache(&base) / 8.0);
        assert!(per_core_bw(&exa) < per_core_bw(&base) / 2.0);
    }
}
