//! # ssp-gateway
//!
//! The external-client subsystem of the socket cluster: a blocking
//! protocol client, a seed-deterministic load generator, and an
//! in-process scripted load for deterministic latency measurements.
//!
//! The cluster side (acceptor, admission queue, dedup ledger,
//! proposal-tail riding) lives in `ssp-runtime`'s `GatewayListener`
//! and `ssp-engine`'s serving loops; this crate is everything that
//! stands *outside* the replica group and drives it:
//!
//! - [`GatewayClient`]: one client session — submit, follow
//!   `Redirect`, absorb `Busy`, reconnect with capped backoff, and
//!   resubmit idempotently until the cluster acks with the deciding
//!   `(instance, round)`. A node holds a submission until its next
//!   instance boundary, where it admits, redirects or re-acks it; an
//!   ack wait that expires on a live session resubmits at once.
//! - [`run_load`]: open-loop (`--rate`) or closed-loop
//!   (`--concurrency`) load against a live cluster, with per-class
//!   client-observed latency histograms.
//! - [`run_inproc_load`]: the same client population as a scripted
//!   [`ExternalSource`](ssp_engine::ExternalSource) driving
//!   `serve_sharded_with` directly — ack rounds are deterministic per
//!   seed, which is how the paper's Theorem 5.2 latency gap (`A1`/`RS`
//!   deciding in round 1 failure-free vs `t + 1` for any `RWS`
//!   algorithm) is measured as *client-observed* p50 rounds.
//!
//! Exactly-once across failures is the contract under test: request
//! identities `(client, req)` are never reused, the cluster dedups
//! them against its decided ledger, and a resubmission after a
//! `kill -9` re-acks the original decision coordinates instead of
//! applying twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod hist;
pub mod inproc;
pub mod load;

pub use client::{Ack, ClientConfig, ClientStats, GatewayClient};
pub use hist::{ClassStats, LatencyHistogram, RoundHistogram};
pub use inproc::{run_inproc_load, InprocLoadConfig, InprocReport, ScriptedLoad};
pub use load::{load_op, run_load, LoadConfig, LoadMode, LoadReport, LOAD_KEY_BASE};
