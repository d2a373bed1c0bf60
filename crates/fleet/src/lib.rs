//! wave-fleet: a sharded multi-node verification fleet.
//!
//! One `wave-serve` node verifies one request at a time per worker and
//! caches what it proved. This crate scales that out: a front-end
//! [`router::Router`] places the **128-bit canonical content
//! fingerprint** of every request on one of N nodes by rendezvous
//! hashing ([`ring::Ring`]: the member with the highest
//! `mix128(fp ^ seed(id))` owns it), so identical content always lands
//! on the same node and the engine's request coalescing becomes
//! fleet-wide — a thundering herd on one hot property costs exactly one
//! verification no matter how many front-end clients stampede.
//!
//! The router is the only code that places or forwards requests. Nodes
//! hold no placement and verify whatever they are sent, so a client
//! may still send to any node directly and get a correct verdict — it
//! only loses the cache concentration the router's placement buys.
//!
//! Completed results replicate by **shipping the journal**: the
//! [`shipper::Shipper`] tails each node's CRC-framed NDJSON cache
//! journal and ships new complete lines to its successors (the next
//! members in id order, wrapping round), which re-journal and ship them
//! onward, through a validating `replicate` wire command. Because the
//! journal *is* the replication log, there is no second serialization
//! format to drift, and a node kill is survivable: the router drops
//! the node from the placement (epoch bump) and replays its journal
//! into the survivors, so the fleet keeps every verdict the dead node
//! ever persisted.
//!
//! The invariant hierarchy mirrors the rest of the workspace: a fleet
//! may lose *cached* work (a dropped ship, a torn journal tail) — it
//! re-verifies cold — but it must never serve a wrong verdict, install
//! a corrupted replay, or hang a client.
//!
//! Fleets come in two shapes: [`local::LocalFleet`] (in-process nodes,
//! for benchmarks and counter-level tests) and [`local::ProcessFleet`]
//! (child processes, for real-`SIGKILL` drills). The `wave-fleet`
//! binary exposes `node` (one fleet member), `up` (boot a whole fleet
//! behind one front-end port), and `flap` (the kill/restart chaos
//! campaign).
//!
//! Membership is a **heartbeat plane** ([`heartbeat::Heartbeat`]): the
//! router probes every member's cheap `health` command on a jittered
//! interval, suspects after K missed beats, and confirms with one
//! direct probe before any kill. Restarted nodes re-enter through
//! [`router::Router::join`] — peers' journals replay in *before* the
//! placement takes the node back, so a re-join never loses a verdict
//! and never re-verifies already-paid content.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flap;
pub mod heartbeat;
pub mod local;
pub mod ring;
pub mod router;
pub mod shipper;
