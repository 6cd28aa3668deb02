//! The three case-study systems of the paper's §6.2 — a web-server mmap
//! cache (thttpd), a network-flow accounting daemon (IpCap) and a map-tile
//! cache (ZTopo) — plus the workload generators and the non-comment
//! line-counter used to regenerate Table 1.
//!
//! Each system comes in two functionally equivalent flavours behind one
//! trait:
//!
//! * a **baseline** module, hand-coded the way the original C/C++ programs
//!   kept their data (open-coded maps plus manually maintained side
//!   structures and invariants), and
//! * a **synthesized** module, which delegates all data management to a
//!   [`relic_core::SynthRelation`] and a decomposition.
//!
//! The equivalence tests in each module and the `parity`/`table1` harnesses
//! in `relic-bench` reproduce the paper's claims: same observable behaviour,
//! comparable performance, and less hand-written code.
//!
//! Since the original inputs (live HTTP traffic, gateway packet captures,
//! USGS topo tiles, the NW-USA road network) are unavailable, every workload
//! here is generated deterministically from a seed: Zipf-popular request
//! streams for thttpd ([`thttpd::request_stream`]) and packet traces for
//! IpCap ([`ipcap::packet_trace`]), a panning random walk for ZTopo
//! ([`ztopo::pan_workload`]), a grid with shortcut edges for the road
//! network ([`graph::road_network`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod graph;
pub mod ipcap;
pub mod loc;
pub mod served;
pub mod thttpd;
pub mod zipf;
pub mod ztopo;

/// Resolves column `name` in the catalog recovered from `dir`, so opening a
/// directory that holds some other durable relation is a typed error, not a
/// panic. `what` names the table the caller expected ("a flow table").
pub(crate) fn recovered_col(
    rel: &relic_persist::DurableRelation,
    dir: &std::path::Path,
    what: &str,
    name: &str,
) -> Result<relic_spec::ColId, relic_persist::PersistError> {
    rel.catalog().col(name).ok_or_else(|| {
        relic_persist::PersistError::Corrupt(format!(
            "{}: not {what}: no column `{name}`",
            dir.display()
        ))
    })
}
