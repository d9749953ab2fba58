#![forbid(unsafe_code)]
//! # amem-miniapps — the paper's application proxies
//!
//! §IV of *Casas & Bronevetsky, IPDPS 2014* studies two LLNL codes:
//!
//! * **MCB** — the Monte Carlo Benchmark: neutron transport through fuel
//!   assemblies. Memory signature: a few-MB mesh of tallies per process
//!   accessed at random (the measured 4–7 MB working set, flat across
//!   particle counts), streaming passes over particle state, particle
//!   exchange between neighbouring ranks, and per-particle tracking
//!   compute that grows with the input. Proxy: [`mcb`].
//! * **Lulesh** — the Shock Hydrodynamics Challenge Problem: explicit
//!   finite-difference sweeps over ~40 per-element fields on an `s³`
//!   subdomain per rank (3.4 MB at 22³ → 14.9 MB at 36³ — exactly the
//!   paper's measured 3.5 → 15 MB growth), plus face exchanges. Proxy:
//!   [`lulesh`].
//!
//! Both are bulk-synchronous [`amem_sim::AccessStream`] rank programs: the
//! caller places local ranks on cores via [`amem_sim::cluster::RankMap`];
//! communication with ranks on other (unsimulated) nodes becomes
//! `RemoteXfer` network ops, same-node communication becomes memcpys
//! through the shared caches — the distinction that produces the paper's
//! mapping effects (Figs. 9–12).

pub mod lulesh;
pub mod mcb;

pub use lulesh::{LuleshCfg, LuleshRank};
pub use mcb::{McbCfg, McbRank};
