//! # wave-serve
//!
//! A std-only verification **service** on top of the `wave` verifier —
//! the request-level infrastructure layer that VERIFAS (Li–Deutsch–
//! Vianu, VLDB 2017) showed turns the PODS 2004 decidability result
//! into a practical system:
//!
//! * [`engine`] — fingerprint → cache → schedule → verify. Structurally
//!   identical requests collide on a canonical 128-bit fingerprint
//!   (`wave_logic::fingerprint`), repeat verifications are O(1) cache
//!   hits replaying **byte-identical** outcomes.
//! * [`cache`] — in-memory LRU with a byte budget, optionally persisted
//!   as line-delimited JSON.
//! * [`scheduler`] — bounded job queue over a `std::thread` worker pool
//!   with explicit admission control; per-job deadlines arm a
//!   `CancelToken` that the search loops poll, so a runaway job ends in
//!   `Verdict::Cancelled`, never a hang or a panic.
//! * [`json`] / [`codec`] — hand-rolled JSON and the wire schema
//!   (durations as integer microseconds; kind-tagged verdicts).
//! * [`server`] / [`client`] — newline-delimited JSON over
//!   `std::net::TcpListener`, plus an in-process [`client::LocalClient`]
//!   speaking the identical protocol.
//! * [`registry`] — named services (the paper's running examples).
//! * [`tiers`] — digest-keyed incremental re-verification: a verdict
//!   tier keyed by the property's cone-sliced service and an LTL→Büchi
//!   automaton tier keyed by the formula, so an edit the property
//!   cannot observe replays the prior verdict without a search.
//!
//! A node verifies every request it is sent. Fleet placement lives in
//! `wave-fleet`'s router, the one component that places and forwards
//! requests; a client may still send to any node directly and gets the
//! same correct verdict, only without the fleet-wide cache
//! concentration the router's placement buys.
//!
//! The `wave-serve` binary exposes `serve` / `submit` / `stats`
//! subcommands; see the README quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod codec;
pub mod crc32;
pub mod engine;
pub mod faults;
pub mod json;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod tiers;

pub use cache::ResultCache;
pub use client::{LocalClient, RetryPolicy, TcpClient, VerifyReply};
pub use codec::{Mode, Request, VerifyRequest};
pub use engine::{Engine, EngineOptions, SubmitError, SubmitResult};
pub use faults::{Fault, FaultInjector, Faults, Hook};
pub use json::Json;
pub use scheduler::Scheduler;
pub use server::Server;
