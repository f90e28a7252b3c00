//! # sbgt-net — the network front door and shard fabric for `sbgt-service`
//!
//! PR 4 made SBGT a multi-cohort *service*; this crate makes it a
//! multi-process *system*. Three layers, bottom up:
//!
//! * [`frame`] — a length-prefixed, versioned binary wire protocol.
//!   Floats travel as raw IEEE-754 bits, so a report read over TCP is
//!   **bit-for-bit** the report the shard computed. Every malformed input
//!   is a typed [`frame::DecodeError`] (torn, oversized, unknown kind,
//!   bad magic/version, corrupt payload) — never a panic.
//! * [`server`] / [`client`] — one [`server::ShardServer`] wraps one
//!   [`sbgt_service::SurveillanceService`] behind the wire verbs (submit,
//!   place-cohort, poll-reports, stats, drain, handoff, shutdown); the
//!   blocking [`client::ShardClient`] is the caller side. Both ends are
//!   plain blocking `std::net` — the server a fixed set of connection
//!   threads — and read frames through the same loop.
//! * [`ring`] / [`fabric`] — consistent-hash placement of cohorts onto
//!   shards, and a [`fabric::FabricRouter`] that forms cohorts
//!   client-side, places them by cohort id, and **rebalances by
//!   checkpoint handoff**: draining a shard freezes its live cohorts into
//!   `SBGTCKPT` blobs that resume byte-exactly on whichever shard the
//!   shrunken ring assigns them.
//!
//! On top of the fabric sits **fleet observability**: work-carrying
//! requests propagate a deterministic [`sbgt_engine::TraceContext`]
//! (derived from the cohort id, so the wire bytes are identical with
//! tracing on or off), shards answer [`frame::Request::ObsExport`] with a
//! compact binary [`frame::ObsFrame`] (Prometheus samples + native
//! histogram buckets + span-ring snapshot), and a
//! [`fabric::FleetScraper`] merges the exports into one fleet Prometheus
//! page and one Chrome trace whose per-cohort trees span processes.
//!
//! The paper's determinism contract survives the network: scheduling,
//! sharding, and migration decide *where and when* a cohort's rounds run,
//! never *what* they compute.

#![forbid(unsafe_code)]

pub mod client;
pub mod fabric;
pub mod frame;
pub mod ring;
pub mod server;

pub use client::ShardClient;
pub use fabric::{FabricConfig, FabricCounters, FabricRouter, FleetScraper};
pub use frame::{
    DecodeError, ObsFrame, ObsHist, ObsLane, Request, Response, MAX_PAYLOAD, WIRE_VERSION,
};
pub use ring::{HashRing, RingError, DEFAULT_VNODES};
pub use server::ShardServer;
