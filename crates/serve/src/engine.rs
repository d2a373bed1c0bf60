//! The service engine: one [`Engine`] owns the result cache, the
//! incremental tiers and the worker pool, and answers verify requests.
//!
//! # The submit pipeline
//!
//! [`Engine::submit_service`] parses the property, then runs the request
//! through named stages, in order: `gate`, `probe`, `admit`,
//! `dead_or_quarantined`, `join_or_lead`, `tier_probe` and `run_cold`.
//! Each stage either ends the submit with an `Answer` naming its outcome
//! class or hands the next stage what it needs (a `std::ops::ControlFlow`),
//! and each stage's doc says what it checks and why it sits where it
//! does. One function, `finish`, turns every answer into the caller's
//! result and bumps that class's counter (the ledger is on [`Counters`]).
//!
//! # Fleet participation and failure hardening
//!
//! [`EngineOptions::shard`] names the node in every reply, and
//! [`Engine::apply_replicated`] installs a result shipped from another
//! node's journal after validating that the bytes decode to a cacheable
//! outcome and re-encode byte-identically. A job that panics its worker
//! (chaos testing injects it) is contained by the pool's `catch_unwind`
//! and reported as a typed `Internal` error; repeated panics on the same
//! fingerprint quarantine it ([`Verdict::Poisoned`]). Fault-injection
//! hooks ([`crate::faults`]) sit at the deadline clock, the queue door
//! and the worker run, so `wave-chaos` can drive all of this
//! deterministically.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::ControlFlow::{self, Break, Continue};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wave_core::classify::ServiceClass;
use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::fingerprint::{Canonical, Fingerprint, Fnv128};
use wave_logic::parser::parse_property;
use wave_logic::temporal::Property;
use wave_verifier::precheck::{self, ADMISSION_VERSION};
use wave_verifier::symbolic::{
    is_error_free, verify_ltl, CancelToken, SearchStats, SymbolicOptions, Verdict, VerifyOutcome,
};

use crate::cache::ResultCache;
use crate::codec::{outcome_to_json, Mode, VerifyRequest};
use crate::faults::{Fault, Faults, Hook};
use crate::registry;
use crate::scheduler::Scheduler;

/// Worker panics on the same fingerprint before the request is
/// quarantined and answered [`Verdict::Poisoned`] without running.
pub const QUARANTINE_AFTER: u32 = 2;

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Worker threads in the pool (min 1).
    pub workers: usize,
    /// Bounded queue capacity (pending jobs; min 1). It is also the
    /// soft load budget: when `queued + running` reaches it, submits are
    /// shed with a typed `Overloaded` (retry-after) instead of waiting to
    /// slam into the hard `QueueFull` wall.
    pub queue_capacity: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Optional NDJSON persistence file for the cache.
    pub persist: Option<PathBuf>,
    /// Fault-injection plane consulted at every hook point (inert by
    /// default; installed by `wave-chaos`).
    pub faults: Faults,
    /// This node's shard id in a fleet (reported in every reply; `0`
    /// for a standalone engine).
    pub shard: u32,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workers: 2,
            queue_capacity: 64,
            cache_bytes: 8 * 1024 * 1024,
            persist: None,
            faults: Faults::none(),
            shard: 0,
        }
    }
}

/// Why a submit produced no outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The request named a service the registry does not know.
    UnknownService(String),
    /// The property text failed to parse.
    BadProperty(String),
    /// Static analysis refused the request before any verification ran:
    /// the service is outside the decidable classes, or the lint report
    /// carries error-severity diagnostics.
    NotAdmissible {
        /// The class the service was classified into.
        class: ServiceClass,
        /// The one-line refusal reason.
        reason: String,
        /// The full lint report, serialized as canonical JSON.
        report_json: String,
    },
    /// The bounded queue was at capacity.
    QueueFull,
    /// The engine is draining: in-flight jobs are finishing, new work
    /// is refused.
    Draining,
    /// The engine is past its soft load budget; retry after the hinted
    /// backoff.
    Overloaded {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// The verifier rejected the request (e.g. not input-bounded).
    Verifier(String),
    /// The job died without reporting (worker panic — contained by the
    /// pool, surfaced as a typed failure, counted toward quarantine).
    Internal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownService(s) => {
                write!(
                    f,
                    "unknown service: {s} (known: {})",
                    registry::names().join(", ")
                )
            }
            SubmitError::BadProperty(e) => write!(f, "bad property: {e}"),
            SubmitError::NotAdmissible { reason, .. } => {
                write!(f, "not admissible: {reason}")
            }
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::Draining => write!(f, "draining: not accepting new jobs"),
            SubmitError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms} ms")
            }
            SubmitError::Verifier(e) => write!(f, "verifier error: {e}"),
            SubmitError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A successful submit: the fingerprint, whether the cache served it,
/// and the outcome's canonical encoding (the bytes the wire carries —
/// byte-identical between a cold run and every later hit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitResult {
    /// Canonical fingerprint of the request content.
    pub fingerprint: Fingerprint,
    /// True when the outcome was replayed from the cache.
    pub cache_hit: bool,
    /// True when the verdict was replayed from the digest-keyed
    /// incremental tier (see [`crate::tiers`]): the submission was a
    /// cold miss on its full fingerprint, but the property's cone-sliced
    /// service matched a prior run, so the stored verdict was reused
    /// without a search.
    pub incremental: bool,
    /// The decidable class admission control placed the service in.
    pub class: ServiceClass,
    /// The engine's shard id (see [`EngineOptions::shard`]).
    pub shard: u32,
    /// How many submissions shared one verification run: for the leader
    /// and every follower of a coalesced run, the final follower count;
    /// `0` when nothing coalesced.
    pub coalesced_waiters: u64,
    /// Canonical JSON encoding of the `VerifyOutcome`.
    pub outcome_bytes: Vec<u8>,
}

/// Monotonic engine counters (reported by the `stats` command).
///
/// The outcome ledger: every submission counted in `submitted` lands in
/// exactly one outcome class, so `submitted` is the sum of `cache_hits`,
/// `incremental_hits`, `coalesced`, `cache_misses`, `dead_on_arrival`,
/// `quarantined`, `admission_rejections`, `drain_rejections` and
/// `load_shed`. The other counters are flags that overlap those classes
/// (`cancelled`, `cold_cancelled`, `queue_rejections`, `worker_panics`)
/// or count other work.
#[derive(Default)]
pub struct Counters {
    /// Verify submissions accepted for processing (the property parsed).
    pub submitted: AtomicU64,
    /// Submissions answered from the cache.
    pub cache_hits: AtomicU64,
    /// Submissions that took the cold path: they ran a verification, or
    /// were refused at the queue (`QueueFull`), or lost their worker to a
    /// panic (`Internal`).
    pub cache_misses: AtomicU64,
    /// `Cancelled` answers that a deadline cut short: cold verifications
    /// that ended in `Verdict::Cancelled` (also in `cache_misses`) and
    /// followers that left a coalesced run on their own deadline (also
    /// in `coalesced`). Not an outcome class of its own.
    pub cancelled: AtomicU64,
    /// The cold verifications among `cancelled`: runs that ended in
    /// `Verdict::Cancelled` and so left nothing cached for the next
    /// submission of their fingerprint.
    pub cold_cancelled: AtomicU64,
    /// Submissions rejected because the queue was full.
    pub queue_rejections: AtomicU64,
    /// Submissions refused by static analysis before any verification.
    pub admission_rejections: AtomicU64,
    /// Submissions whose deadline had expired by the end of admission:
    /// answered with a synthetic `Cancelled` under the null fingerprint,
    /// never cached and never queued.
    pub dead_on_arrival: AtomicU64,
    /// Jobs that panicked their worker (contained; typed `Internal`).
    pub worker_panics: AtomicU64,
    /// Submissions answered `Verdict::Poisoned` because their
    /// fingerprint is quarantined after repeated worker panics.
    pub quarantined: AtomicU64,
    /// Submissions refused because the engine was draining.
    pub drain_rejections: AtomicU64,
    /// Submissions shed with `Overloaded` under the soft load budget.
    pub load_shed: AtomicU64,
    /// Submissions answered by joining an identical in-flight run
    /// instead of verifying (followers of a coalesced run), including
    /// followers that left on their own deadline before the run ended.
    pub coalesced: AtomicU64,
    /// Replicated results installed into the cache from another node's
    /// shipped journal.
    pub replicated_applied: AtomicU64,
    /// Replicated results that matched cached bytes exactly (no-op).
    pub replicated_refreshed: AtomicU64,
    /// Replicated results rejected by validation (corrupt, non-canonical
    /// or non-cacheable bytes).
    pub replicated_dropped: AtomicU64,
    /// Rules removed by property-directed slicing, summed over every
    /// cold verification this node ran (cache hits replay the stored
    /// outcome and do not re-count).
    pub sliced_rules_total: AtomicU64,
    /// Relations removed by property-directed slicing, summed over
    /// every cold verification this node ran.
    pub sliced_relations_total: AtomicU64,
    /// Submissions answered from the incremental verdict tier: the
    /// cone-sliced service matched a prior run, so the verdict replayed
    /// without consuming any search budget.
    pub incremental_hits: AtomicU64,
    /// Cold LTL runs that probed the verdict tier and missed.
    pub incremental_misses: AtomicU64,
}

/// The outcome classes of the ledger (see [`Counters`]); `Engine::finish`
/// maps each to its counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Hit,
    Tier,
    Coalesced,
    Cold,
    DeadOnArrival,
    Quarantined,
    Admission,
    Drain,
    Shed,
}

/// One verify submission's inputs, as the pipeline's stages read them.
struct Submission<'r> {
    req: &'r VerifyRequest,
    service: Service,
    sources: ServiceSources,
    property: Option<Property>,
}

/// How a stage ends a submit: its outcome class and what the caller
/// gets.
struct Answer(Outcome, Result<Reply, SubmitError>);

/// A submit's reply, before `Engine::finish` adds the envelope.
struct Reply {
    fingerprint: Fingerprint,
    class: ServiceClass,
    waiters: u64,
    bytes: Vec<u8>,
}

impl Reply {
    /// The reply carrying `bytes`, or the typed error the run ended in.
    fn of(
        fingerprint: Fingerprint,
        class: ServiceClass,
        waiters: u64,
        bytes: Result<Vec<u8>, SubmitError>,
    ) -> Result<Reply, SubmitError> {
        bytes.map(|bytes| Reply {
            fingerprint,
            class,
            waiters,
            bytes,
        })
    }
}

/// The canonical encoding of an outcome: the bytes the wire carries and
/// the cache stores.
fn encode(outcome: &VerifyOutcome) -> Vec<u8> {
    outcome_to_json(outcome).encode().into_bytes()
}

/// The encoding of a verdict no search produced (`Cancelled` for an
/// expired deadline, `Poisoned` for a quarantined fingerprint). It is a
/// non-answer about this request only, so it is never cached.
fn synthetic(verdict: Verdict) -> Vec<u8> {
    encode(&VerifyOutcome {
        verdict,
        stats: SearchStats::default(),
    })
}

/// One in-flight verification, shared between its leader and the
/// followers coalescing onto it.
#[derive(Default)]
struct RunSlot {
    /// The leader's result once it finishes (`None` while it runs);
    /// followers clone it.
    result: Mutex<Option<Result<Vec<u8>, SubmitError>>>,
    cv: Condvar,
    /// Followers that joined this run (final once the slot is published,
    /// because joining and publishing both hold the runs-map lock).
    waiters: AtomicU64,
}

/// Publishes the leader's slot on drop, whatever the exit path: the
/// happy path publishes the real result first, so the drop fallback
/// only fires on an unexpected unwind — where it turns would-be-hung
/// followers into typed `Internal` errors.
struct LeaderGuard<'a> {
    engine: &'a Engine,
    fp: Fingerprint,
    class: ServiceClass,
    slot: Arc<RunSlot>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Publishes `result` and answers the leader with it: removes the
    /// slot from the runs map (under the map lock, so no further follower
    /// can join), then wakes every follower with the result. The reply
    /// carries the final follower count.
    fn reply(&mut self, result: Result<Vec<u8>, SubmitError>) -> Result<Reply, SubmitError> {
        self.published = true;
        let mut runs = self.engine.runs.lock().expect("runs poisoned");
        runs.remove(&self.fp.0);
        drop(runs);
        let waiters = self.slot.waiters.load(Ordering::SeqCst);
        *self.slot.result.lock().expect("slot poisoned") = Some(result.clone());
        self.slot.cv.notify_all();
        Reply::of(self.fp, self.class, waiters, result)
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            let unwound = "coalescing leader unwound without publishing";
            let _ = self.reply(Err(SubmitError::Internal(unwound.into())));
        }
    }
}

/// The verification service engine.
pub struct Engine {
    cache: Mutex<ResultCache>,
    sched: Scheduler,
    faults: Faults,
    /// `queue_capacity`: at this load, submits are shed.
    soft_load_limit: usize,
    draining: AtomicBool,
    /// Submissions currently between acceptance and completion (cache
    /// misses only — hits never occupy a worker).
    inflight: Mutex<usize>,
    idle: Condvar,
    /// Worker panics per fingerprint, for quarantine.
    panics: Mutex<HashMap<u128, u32>>,
    /// In-flight verification runs, keyed by fingerprint: the coalesce
    /// point where duplicate submissions join a leader instead of
    /// re-verifying.
    runs: Mutex<HashMap<u128, Arc<RunSlot>>>,
    /// This node's shard id (reported in every reply).
    shard: u32,
    /// Digest-keyed incremental tiers: per-property verdicts keyed by
    /// the cone-sliced service, plus the shared LTL→Büchi automaton
    /// cache (see [`crate::tiers`]).
    tiers: crate::tiers::TierStore,
    /// Monotonic counters for the `stats` report.
    pub counters: Counters,
}

/// Computes the canonical fingerprint of a request's *content*. The
/// domain tag versions the scheme: bump it when the canonical form
/// changes, so stale persisted caches can never serve wrong bytes.
pub fn request_fingerprint(
    service: &Service,
    property: Option<&Property>,
    mode: Mode,
    node_limit: usize,
) -> Fingerprint {
    let normalized = SymbolicOptions {
        node_limit,
        ..SymbolicOptions::default()
    }
    .normalized();
    let mut h = Fnv128::new();
    // v6: the breadth-first search for safety-shaped properties changed
    // the counters, `Holds { explored }` and the lassos, so bytes stored
    // under v5 differ from what a fresh run answers. (v5 did the same
    // for store subsumption, and added the `pruned` stats key; v4 put
    // the admission rules' version in the domain, because cache hits
    // replay without re-running admission; v3 added the `incremental`
    // stats flag, v2 sliced_rules/sliced_relations.)
    h.write_str("wave-serve/fp/v6");
    h.write_u64(u64::from(ADMISSION_VERSION));
    service.canon(&mut h);
    match mode {
        Mode::Ltl => {
            h.write_u8(0x01);
            property.expect("ltl mode carries a property").canon(&mut h);
        }
        Mode::ErrorFree => h.write_u8(0x02),
    }
    h.write_len(normalized.node_limit);
    Fingerprint(h.finish())
}

/// The fingerprint a fleet router places a request by: identical to
/// [`request_fingerprint`] for well-formed requests, so placement and
/// caching agree on every node. Content that cannot be resolved
/// (unknown service, unparsable property) places by raw text — any
/// node produces the typed refusal, the placement just has to be
/// deterministic.
pub fn routing_fingerprint(req: &VerifyRequest) -> u128 {
    if let Some(service) = registry::resolve(&req.service) {
        let property = match req.mode {
            Mode::ErrorFree => None,
            Mode::Ltl => parse_property(&req.property).ok(),
        };
        if property.is_some() || req.mode == Mode::ErrorFree {
            return request_fingerprint(&service, property.as_ref(), req.mode, req.node_limit).0;
        }
    }
    let mut h = Fnv128::new();
    h.write_str("wave-fleet/unroutable/v1");
    h.write_str(&req.service);
    h.write_str(&req.property);
    h.finish()
}

/// RAII in-flight tracker: counted from acceptance to completion so
/// drain can wait for exactly the jobs it promised to finish.
struct InflightGuard<'a>(&'a Engine);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut n = self.0.inflight.lock().expect("inflight poisoned");
        *n -= 1;
        if *n == 0 {
            self.0.idle.notify_all();
        }
    }
}

impl Engine {
    /// Builds an engine: starts the worker pool and (optionally) loads
    /// the persisted cache.
    pub fn new(opts: EngineOptions) -> Engine {
        let mut cache = ResultCache::new(opts.cache_bytes).with_faults(opts.faults.clone());
        if let Some(path) = opts.persist {
            cache = cache.with_persistence(path);
        }
        Engine {
            cache: Mutex::new(cache),
            sched: Scheduler::new(opts.workers, opts.queue_capacity),
            faults: opts.faults,
            soft_load_limit: opts.queue_capacity.max(1),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(0),
            idle: Condvar::new(),
            panics: Mutex::new(HashMap::new()),
            runs: Mutex::new(HashMap::new()),
            shard: opts.shard,
            // In memory only: the result journal is the one store a
            // restart reloads.
            tiers: crate::tiers::TierStore::new(opts.cache_bytes, None),
            counters: Counters::default(),
        }
    }

    /// The incremental tier store (verdict tier + automaton cache).
    pub fn tiers(&self) -> &crate::tiers::TierStore {
        &self.tiers
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.sched.workers()
    }

    /// This node's shard id (0 for a standalone engine).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Jobs waiting in the scheduler queue.
    pub fn queued(&self) -> usize {
        self.sched.queued()
    }

    /// Jobs currently occupying a worker.
    pub fn running(&self) -> usize {
        self.sched.running()
    }

    /// The installed fault plane (inert unless chaos is driving).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Current cache entry count and byte usage `(entries, bytes,
    /// budget, evictions)`.
    pub fn cache_usage(&self) -> (usize, usize, usize, u64) {
        let c = self.cache.lock().expect("cache poisoned");
        (c.len(), c.bytes(), c.budget(), c.evictions())
    }

    /// Journal health `(journal_bytes, compactions, recovered, dropped,
    /// persistent)`.
    pub fn journal_stats(&self) -> (usize, u64, u64, u64, bool) {
        let c = self.cache.lock().expect("cache poisoned");
        (
            c.journal_bytes(),
            c.compactions(),
            c.recovered_records(),
            c.dropped_records(),
            c.persistent(),
        )
    }

    /// The cache journal's generation stamp (the `.gen` sidecar value;
    /// bumped by compaction). Part of the `health` reply so the probe
    /// plane can see journal turnover without reading the file.
    pub fn journal_generation(&self) -> u64 {
        self.cache.lock().expect("cache poisoned").generation()
    }

    /// Starts a graceful drain: in-flight jobs finish, every subsequent
    /// submit is refused with [`SubmitError::Draining`]. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// True once [`Engine::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Submissions currently accepted but not yet completed.
    pub fn in_flight(&self) -> usize {
        *self.inflight.lock().expect("inflight poisoned")
    }

    /// Blocks until no submission is in flight or `timeout` elapses;
    /// returns whether the engine is fully idle. Pair with
    /// [`Engine::begin_drain`] for a bounded graceful shutdown.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut n = self.inflight.lock().expect("inflight poisoned");
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(n, deadline - now)
                .expect("inflight poisoned");
            n = guard;
        }
        true
    }

    /// The soft-budget check: `Some(retry_after_ms)` when the engine
    /// should shed this submission.
    fn overloaded(&self) -> Option<u64> {
        let load = self.sched.load();
        // Hint grows with the backlog, capped at 2 s.
        let excess = load.checked_sub(self.soft_load_limit)? as u64;
        Some((100 + excess * 50).min(2_000))
    }

    /// True when `fp` is quarantined by repeated worker panics.
    fn is_quarantined(&self, fp: Fingerprint) -> bool {
        self.panics
            .lock()
            .expect("panics poisoned")
            .get(&fp.0)
            .is_some_and(|n| *n >= QUARANTINE_AFTER)
    }

    /// Records a worker panic against `fp`; returns the strike count.
    fn record_panic(&self, fp: Fingerprint) -> u32 {
        self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
        let mut p = self.panics.lock().expect("panics poisoned");
        let n = p.entry(fp.0).or_insert(0);
        *n += 1;
        *n
    }

    /// Processes one verify request to completion (blocking the calling
    /// thread; concurrency comes from concurrent callers sharing the
    /// bounded pool).
    pub fn submit(&self, req: &VerifyRequest) -> Result<SubmitResult, SubmitError> {
        let (service, sources) = registry::resolve_with_sources(&req.service)
            .ok_or_else(|| SubmitError::UnknownService(req.service.clone()))?;
        self.submit_service(service, sources, req)
    }

    /// Processes a verify request for an **inline** service (not in the
    /// registry) — the entry point the `wave-chaos` campaign uses to
    /// replay `wave-qa`-generated cases through the full pipeline. The
    /// request's `service` name is ignored; everything else applies.
    pub fn submit_service(
        &self,
        service: Service,
        sources: ServiceSources,
        req: &VerifyRequest,
    ) -> Result<SubmitResult, SubmitError> {
        let property = match req.mode {
            Mode::ErrorFree => None,
            Mode::Ltl => Some(
                parse_property(&req.property)
                    .map_err(|e| SubmitError::BadProperty(e.to_string()))?,
            ),
        };
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let sub = Submission {
            req,
            service,
            sources,
            property,
        };
        // A cold run is counted before it runs, so `stats` shows a
        // verification while it is in flight.
        match self.stages(&sub) {
            Break(Answer(outcome, reply)) => self.finish(outcome, || reply),
            Continue((leader, cancel, tier_key)) => self.finish(Outcome::Cold, || {
                self.run_cold(leader, sub, cancel, tier_key)
            }),
        }
    }

    /// Stages 1 to 6, in order: what passes them all goes cold with the
    /// leader's slot, the armed deadline and the verdict-tier key.
    fn stages(
        &self,
        sub: &Submission,
    ) -> ControlFlow<Answer, (LeaderGuard<'_>, CancelToken, Option<Fingerprint>)> {
        let cancel = self.gate(sub.req.deadline_us)?;
        let fp = self.probe(sub, &cancel)?;
        let class = self.admit(sub)?;
        self.dead_or_quarantined(fp, class, &cancel)?;
        let mut leader = self.join_or_lead(fp, class, &cancel)?;
        let tier_key = self.tier_probe(&mut leader, sub)?;
        Continue((leader, cancel, tier_key))
    }

    /// The outcome ledger: bumps the counter of `outcome`'s class, then
    /// builds the caller's result from `reply`. The only place a
    /// [`SubmitResult`] is built and an outcome-class counter moves.
    fn finish(
        &self,
        outcome: Outcome,
        reply: impl FnOnce() -> Result<Reply, SubmitError>,
    ) -> Result<SubmitResult, SubmitError> {
        let c = &self.counters;
        let class_counter = match outcome {
            Outcome::Hit => &c.cache_hits,
            Outcome::Tier => &c.incremental_hits,
            Outcome::Coalesced => &c.coalesced,
            Outcome::Cold => &c.cache_misses,
            Outcome::DeadOnArrival => &c.dead_on_arrival,
            Outcome::Quarantined => &c.quarantined,
            Outcome::Admission => &c.admission_rejections,
            Outcome::Drain => &c.drain_rejections,
            Outcome::Shed => &c.load_shed,
        };
        class_counter.fetch_add(1, Ordering::Relaxed);
        let reply = reply()?;
        Ok(SubmitResult {
            fingerprint: reply.fingerprint,
            cache_hit: outcome == Outcome::Hit,
            incremental: outcome == Outcome::Tier,
            class: reply.class,
            shard: self.shard,
            coalesced_waiters: reply.waiters,
            outcome_bytes: reply.bytes,
        })
    }

    /// Stage 1. A draining engine finishes what it accepted and refuses
    /// everything new, even cheap cache hits, so clients migrate
    /// promptly. Past the soft budgets a submit is shed with a typed
    /// retry-after before the hard `QueueFull` wall (or the memory
    /// ceiling) is hit. Then the deadline is armed: the whole pipeline
    /// runs on the caller's clock, which the chaos plane may skew.
    fn gate(&self, mut deadline_us: u64) -> ControlFlow<Answer, CancelToken> {
        if self.is_draining() {
            return Break(Answer(Outcome::Drain, Err(SubmitError::Draining)));
        }
        if let Some(retry_after_ms) = self.overloaded() {
            let refusal = SubmitError::Overloaded { retry_after_ms };
            return Break(Answer(Outcome::Shed, Err(refusal)));
        }
        if let Fault::SkewDeadline { mul, div } = self.faults.decide(Hook::DeadlineArm, 0) {
            deadline_us = deadline_us
                .saturating_mul(mul.max(1) as u64)
                .checked_div(div.max(1) as u64)
                .unwrap_or(deadline_us);
        }
        Continue(if deadline_us > 0 {
            CancelToken::with_deadline(Duration::from_micros(deadline_us))
        } else {
            CancelToken::never()
        })
    }

    /// Stage 2. The content fingerprint is computed once and reused by
    /// every later stage. Only admitted content is ever cached, and the
    /// fingerprint carries the admission rules' version, so a hit
    /// replays without running admission again; its class is the one
    /// admission derived. An already-expired request skips the probe and
    /// is refused or answered dead on arrival later, as if it had missed.
    fn probe(&self, sub: &Submission, cancel: &CancelToken) -> ControlFlow<Answer, Fingerprint> {
        let (service, req) = (&sub.service, sub.req);
        let fp = request_fingerprint(service, sub.property.as_ref(), req.mode, req.node_limit);
        if cancel.is_cancelled() {
            return Continue(fp);
        }
        let hit = self.cache.lock().expect("cache poisoned").get(fp);
        match hit {
            Some(bytes) => {
                let class = wave_core::classify::classify(service).class();
                Break(Answer(Outcome::Hit, Reply::of(fp, class, 0, Ok(bytes))))
            }
            None => Continue(fp),
        }
    }

    /// Stage 3. Static analysis gates every miss *before* the worker
    /// pool, so an inadmissible submit never consumes cache space or
    /// verification budget. Only the lint passes that can refuse run
    /// here; a refusal carries the full lint report.
    fn admit(&self, sub: &Submission) -> ControlFlow<Answer, ServiceClass> {
        match precheck::admit(&sub.service, Some(&sub.sources), sub.property.as_ref()) {
            Ok(class) => Continue(class),
            Err(pre) => {
                let refusal = SubmitError::NotAdmissible {
                    class: pre.class,
                    reason: pre
                        .refusal()
                        .expect("admit refuses only inadmissible requests"),
                    report_json: pre.report.to_json(),
                };
                Break(Answer(Outcome::Admission, Err(refusal)))
            }
        }
    }

    /// Stage 4. An expired deadline can never produce an answer: it gets
    /// no queue slot, and its synthetic outcome carries the all-zero
    /// fingerprint, which no real request content produces. Then a
    /// fingerprint that keeps panicking workers is answered `Poisoned`
    /// instead of being handed to yet another worker. Both come after
    /// the cache, so a once-successful outcome still replays.
    fn dead_or_quarantined(
        &self,
        fp: Fingerprint,
        class: ServiceClass,
        cancel: &CancelToken,
    ) -> ControlFlow<Answer> {
        if cancel.is_cancelled() {
            let reply = Reply::of(Fingerprint(0), class, 0, Ok(synthetic(Verdict::Cancelled)));
            return Break(Answer(Outcome::DeadOnArrival, reply));
        }
        if self.is_quarantined(fp) {
            let reply = Reply::of(fp, class, 0, Ok(synthetic(Verdict::Poisoned)));
            return Break(Answer(Outcome::Quarantined, reply));
        }
        Continue(())
    }

    /// Stage 5, the coalesce point. An identical fingerprint already in
    /// flight makes this submission a follower of that run. Joining
    /// increments the slot's waiter count *under the runs-map lock*, and
    /// publishing removes the slot under the same lock first, so the
    /// count a publish reads is final. The leader then re-checks the
    /// cache: a previous leader may have cached this very fingerprint
    /// since our miss, and serving it closes that race.
    fn join_or_lead(
        &self,
        fp: Fingerprint,
        class: ServiceClass,
        cancel: &CancelToken,
    ) -> ControlFlow<Answer, LeaderGuard<'_>> {
        let slot = {
            let mut runs = self.runs.lock().expect("runs poisoned");
            match runs.entry(fp.0) {
                Entry::Occupied(o) => {
                    let slot = Arc::clone(o.get());
                    slot.waiters.fetch_add(1, Ordering::SeqCst);
                    drop(runs);
                    let reply = self.wait_coalesced(fp, class, cancel, &slot);
                    return Break(Answer(Outcome::Coalesced, reply));
                }
                Entry::Vacant(v) => Arc::clone(v.insert(Arc::default())),
            }
        };
        let mut leader = LeaderGuard {
            engine: self,
            fp,
            class,
            slot,
            published: false,
        };
        let hit = self.cache.lock().expect("cache poisoned").get(fp);
        match hit {
            Some(bytes) => Break(Answer(Outcome::Hit, leader.reply(Ok(bytes)))),
            None => Continue(leader),
        }
    }

    /// Blocks a follower on the leader's slot until the run publishes or
    /// the follower's own deadline expires. A follower that gives up is
    /// answered with a synthetic `Cancelled` (never cached): its clock
    /// is its own, and the leader keeps running for everyone else.
    fn wait_coalesced(
        &self,
        fp: Fingerprint,
        class: ServiceClass,
        cancel: &CancelToken,
        slot: &RunSlot,
    ) -> Result<Reply, SubmitError> {
        let mut state = slot.result.lock().expect("slot poisoned");
        loop {
            if let Some(result) = &*state {
                let waiters = slot.waiters.load(Ordering::SeqCst);
                return Reply::of(fp, class, waiters, result.clone());
            }
            if cancel.is_cancelled() {
                slot.waiters.fetch_sub(1, Ordering::SeqCst);
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                return Reply::of(fp, class, 0, Ok(synthetic(Verdict::Cancelled)));
            }
            let ten_ms = Duration::from_millis(10);
            state = slot
                .cv
                .wait_timeout(state, ten_ms)
                .expect("slot poisoned")
                .0;
        }
    }

    /// Stage 6, LTL only (`is_error_free` never slices). The verdict tier
    /// is keyed by exactly the cone-sliced service the search would
    /// consume, so after an edit the property cannot observe, the prior
    /// verdict replays without a search. The outcome is cached under the
    /// submission's *full* fingerprint, so later identical submissions
    /// are plain hits and replication ships it like any cold result.
    fn tier_probe(
        &self,
        leader: &mut LeaderGuard<'_>,
        sub: &Submission,
    ) -> ControlFlow<Answer, Option<Fingerprint>> {
        let Some(property) = &sub.property else {
            return Continue(None);
        };
        let sliced = wave_core::slice::slice(&sub.service, property);
        let key = crate::tiers::verdict_tier_key(&sliced.service, property, sub.req.node_limit);
        let Some(verdict) = self.tiers.probe_verdict(key) else {
            self.counters
                .incremental_misses
                .fetch_add(1, Ordering::Relaxed);
            return Continue(Some(key));
        };
        let bytes = encode(&VerifyOutcome {
            verdict,
            stats: SearchStats {
                sliced_rules: sliced.report.sliced_rules(),
                sliced_relations: sliced.report.sliced_relations(),
                incremental: true,
                ..SearchStats::default()
            },
        });
        let mut cache = self.cache.lock().expect("cache poisoned");
        cache.insert(leader.fp, bytes.clone());
        drop(cache);
        Break(Answer(Outcome::Tier, leader.reply(Ok(bytes))))
    }

    /// Stage 7, the cold path: runs the verification on the worker pool,
    /// keeps the result and publishes it to the followers. The
    /// submission is in flight until the result is kept, so drain waits
    /// for the cache write.
    fn run_cold(
        &self,
        mut leader: LeaderGuard<'_>,
        sub: Submission,
        cancel: CancelToken,
        tier_key: Option<Fingerprint>,
    ) -> Result<Reply, SubmitError> {
        let fp = leader.fp;
        *self.inflight.lock().expect("inflight poisoned") += 1;
        let inflight = InflightGuard(self);
        let result = self.verify_on_pool(sub, cancel, fp);
        let result = result.map(|outcome| self.keep_cold(fp, tier_key, &outcome));
        drop(inflight);
        leader.reply(result)
    }

    /// Schedules the verification on the already-armed token (queue wait
    /// consumes the caller's deadline like every other stage) and blocks
    /// for its outcome. A full queue refuses, and chaos can slam the door
    /// at the same spot. A job that dies without reporting panicked its
    /// worker (contained by the pool's `catch_unwind`): the strike is
    /// recorded, and enough strikes quarantine the fingerprint.
    fn verify_on_pool(
        &self,
        sub: Submission,
        cancel: CancelToken,
        fp: Fingerprint,
    ) -> Result<VerifyOutcome, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let (service, property, node_limit) = (sub.service, sub.property, sub.req.node_limit);
        let job_faults = self.faults.clone();
        let automata = self.tiers.automata();
        let job = move || {
            // Worker hook: chaos can panic or stall the job mid-run.
            match job_faults.decide(Hook::WorkerRun, 0) {
                Fault::Panic => panic!("chaos: injected worker panic"),
                Fault::Delay(d) => std::thread::sleep(d),
                _ => {}
            }
            let opts = SymbolicOptions {
                node_limit,
                cancel,
                automata: Some(automata),
                ..SymbolicOptions::default()
            };
            // Only LTL mode carries a property.
            let result = match &property {
                Some(property) => verify_ltl(&service, property, &opts),
                None => is_error_free(&service, &opts),
            };
            let _ = tx.send(result);
        };
        let door = self.faults.decide(Hook::QueueSubmit, 0);
        if door == Fault::QueueFull || self.sched.submit(job).is_err() {
            self.counters
                .queue_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        match rx.recv() {
            Err(_) => {
                let strikes = self.record_panic(fp);
                Err(SubmitError::Internal(format!(
                    "verification job died (worker panic, strike {strikes}/{QUARANTINE_AFTER} \
                     toward quarantine)"
                )))
            }
            Ok(r) => r.map_err(|e| SubmitError::Verifier(e.to_string())),
        }
    }

    /// Keeps a cold outcome and returns its bytes: the verdict tier takes
    /// conclusive verdicts, and the bytes are cached unless the run was
    /// cancelled, so a deadline-specific non-answer never shadows a
    /// later run.
    fn keep_cold(
        &self,
        fp: Fingerprint,
        tier_key: Option<Fingerprint>,
        out: &VerifyOutcome,
    ) -> Vec<u8> {
        let c = &self.counters;
        let (rules, relations) = (out.stats.sliced_rules, out.stats.sliced_relations);
        c.sliced_rules_total
            .fetch_add(rules as u64, Ordering::Relaxed);
        c.sliced_relations_total
            .fetch_add(relations as u64, Ordering::Relaxed);
        if let Some(key) = tier_key {
            self.tiers.store_verdict(key, &out.verdict);
        }
        let bytes = encode(out);
        if out.verdict == Verdict::Cancelled {
            c.cancelled.fetch_add(1, Ordering::Relaxed);
            c.cold_cancelled.fetch_add(1, Ordering::Relaxed);
        } else {
            let mut cache = self.cache.lock().expect("cache poisoned");
            cache.insert(fp, bytes.clone());
        }
        bytes
    }

    /// Installs a result shipped from another node's journal.
    ///
    /// The bytes are validated before touching the cache: they must
    /// decode to a `VerifyOutcome`, carry a cacheable verdict (never
    /// `Cancelled` or `Poisoned` — those are deadline- or node-specific
    /// non-answers) and re-encode byte-identically (so a replica can
    /// never replay non-canonical bytes). Bytes already cached verbatim
    /// are a no-op refresh — which also keeps journal shipping
    /// idempotent: re-shipping a line a node already holds does not
    /// re-journal it into a ship-back loop.
    ///
    /// Returns `true` when the result was newly installed.
    pub fn apply_replicated(&self, fp: Fingerprint, bytes: &[u8]) -> Result<bool, String> {
        let drop_it = |why: String| {
            self.counters
                .replicated_dropped
                .fetch_add(1, Ordering::Relaxed);
            Err(why)
        };
        if fp == Fingerprint(0) {
            return drop_it("replicated record carries the null fingerprint".into());
        }
        let text = match std::str::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => return drop_it(format!("replicated bytes are not utf-8: {e}")),
        };
        let json = match crate::json::Json::parse(text) {
            Ok(j) => j,
            Err(e) => return drop_it(format!("replicated bytes are not json: {e}")),
        };
        let outcome = match crate::codec::outcome_from_json(&json) {
            Ok(o) => o,
            Err(e) => return drop_it(format!("replicated bytes are not an outcome: {e}")),
        };
        if matches!(outcome.verdict, Verdict::Cancelled | Verdict::Poisoned) {
            return drop_it(format!(
                "replicated verdict {:?} is not cacheable",
                outcome.verdict
            ));
        }
        if encode(&outcome) != bytes {
            return drop_it("replicated bytes are not canonical".into());
        }
        let mut cache = self.cache.lock().expect("cache poisoned");
        if cache.peek_identical(fp, bytes) {
            self.counters
                .replicated_refreshed
                .fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        cache.insert(fp, bytes.to_vec());
        self.counters
            .replicated_applied
            .fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{outcome_from_json, VerifyRequest};
    use crate::json::Json;
    use std::sync::Arc;

    fn req(service: &str, property: &str) -> VerifyRequest {
        VerifyRequest {
            service: service.into(),
            property: property.into(),
            mode: Mode::Ltl,
            node_limit: 0,
            threads: 1,
            deadline_us: 0,
            check_owner: false,
        }
    }

    #[test]
    fn routing_fingerprint_is_the_cache_key_or_a_raw_text_hash() {
        let r = req("toggle", "G (P | Q)");
        let e = Engine::new(EngineOptions::default());
        let served = e.submit(&r).unwrap();
        assert_eq!(routing_fingerprint(&r), served.fingerprint.0);
        let unknown = req("no_such_service", "G true");
        assert_eq!(routing_fingerprint(&unknown), routing_fingerprint(&unknown));
        assert_ne!(routing_fingerprint(&unknown), routing_fingerprint(&r));
    }

    #[test]
    fn second_submit_is_a_byte_identical_cache_hit() {
        let e = Engine::new(EngineOptions::default());
        let r1 = e.submit(&req("toggle", "G (P | Q)")).unwrap();
        let r2 = e.submit(&req("toggle", "G (P | Q)")).unwrap();
        assert!(!r1.cache_hit);
        assert!(r2.cache_hit);
        assert_eq!(r1.fingerprint, r2.fingerprint);
        assert_eq!(r1.outcome_bytes, r2.outcome_bytes, "hit must replay bytes");
        let out = outcome_from_json(
            &Json::parse(std::str::from_utf8(&r2.outcome_bytes).unwrap()).unwrap(),
        )
        .unwrap();
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn node_limit_zero_and_default_share_a_fingerprint() {
        let e = Engine::new(EngineOptions::default());
        let r1 = e.submit(&req("toggle", "F Q")).unwrap();
        let mut r = req("toggle", "F Q");
        r.node_limit = 500_000; // the documented default
        let r2 = e.submit(&r).unwrap();
        assert!(r2.cache_hit, "normalized budgets must collide");
        assert_eq!(r1.fingerprint, r2.fingerprint);
    }

    #[test]
    fn threads_do_not_split_the_cache() {
        let e = Engine::new(EngineOptions::default());
        let r1 = e.submit(&req("login", "G (!CP | logged_in)")).unwrap();
        let mut r = req("login", "G (!CP | logged_in)");
        r.threads = 4;
        let r2 = e.submit(&r).unwrap();
        assert!(r2.cache_hit, "ignored threads cannot split the cache");
        assert_eq!(r1.outcome_bytes, r2.outcome_bytes);
    }

    #[test]
    fn cancelled_runs_are_not_cached() {
        let e = Engine::new(EngineOptions::default());
        // `ship` has arity 2 in full_site; the admission gate (W015)
        // refuses any property that gets the arity wrong.
        let mut r = req("full_site", "");
        r.property = "forall p q . G (!ship(p, q) | paid)".into();
        r.deadline_us = 1; // 1 µs: cannot finish
        let r1 = e.submit(&r).unwrap();
        let out = outcome_from_json(
            &Json::parse(std::str::from_utf8(&r1.outcome_bytes).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled, "{out:?}");
        // Same request without a deadline must be a miss, not a replay
        // of the cancelled run.
        r.deadline_us = 0;
        r.node_limit = 2_000; // keep the cold run cheap
        let r2 = e.submit(&r).unwrap();
        assert!(!r2.cache_hit);
    }

    #[test]
    fn expired_deadline_is_dead_on_arrival() {
        let e = Engine::new(EngineOptions::default());
        let mut r = req("full_site", "");
        r.property = "forall p q . G (!ship(p, q) | paid)".into();
        r.deadline_us = 1; // expires during parse/admission
        let r1 = e.submit(&r).unwrap();
        let out = outcome_from_json(
            &Json::parse(std::str::from_utf8(&r1.outcome_bytes).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled, "{out:?}");
        assert!(!r1.cache_hit);
        assert_eq!(r1.fingerprint, Fingerprint(0), "no fingerprint computed");
        // No cache traffic, no queued job — only the DOA counter moves.
        let c = &e.counters;
        assert_eq!(c.dead_on_arrival.load(Ordering::Relaxed), 1);
        assert_eq!(c.cache_misses.load(Ordering::Relaxed), 0);
        assert_eq!(c.cache_hits.load(Ordering::Relaxed), 0);
        let (entries, _, _, _) = e.cache_usage();
        assert_eq!(entries, 0);
        // The same request with a sane deadline runs cold: the DOA
        // answer was never cached.
        r.deadline_us = 0;
        r.node_limit = 2_000;
        let r2 = e.submit(&r).unwrap();
        assert!(!r2.cache_hit);
        assert_ne!(r2.fingerprint, Fingerprint(0));
    }

    #[test]
    fn expired_resubmit_of_a_cached_request_is_dead_on_arrival() {
        let e = Engine::new(EngineOptions::default());
        let mut r = req("full_site", "forall p q . G (!ship(p, q) | paid)");
        r.node_limit = 2_000;
        let cold = e.submit(&r).unwrap();
        assert!(!cold.cache_hit);
        // The answer is cached, but an expired request never reaches the
        // probe: it is admitted and answered dead on arrival as before.
        r.deadline_us = 1; // expires while fingerprinting full_site
        let doa = e.submit(&r).unwrap();
        assert!(!doa.cache_hit);
        assert_eq!(doa.fingerprint, Fingerprint(0));
        assert_eq!(decode(&doa.outcome_bytes).verdict, Verdict::Cancelled);
        let c = &e.counters;
        assert_eq!(c.dead_on_arrival.load(Ordering::Relaxed), 1);
        assert_eq!(c.cache_hits.load(Ordering::Relaxed), 0);
        r.deadline_us = 0;
        assert!(e.submit(&r).unwrap().cache_hit);
    }

    #[test]
    fn hits_report_the_class_of_their_cold_run() {
        let cases = [
            ("audit_site", "G (!ADMIN | F HP)"),
            ("checkout_bench", "forall p . G (!ship(p) | paid)"),
            ("checkout_core", "forall p . G (!ship(p) | paid)"),
            ("full_site", "forall p q . G (!ship(p, q) | paid)"),
            ("login", "G (!CP | logged_in)"),
            ("navigation", "G (!CP | F HP)"),
            ("toggle", "G (P | Q)"),
        ];
        // Every registry service with an admissible LTL property.
        for name in registry::names() {
            assert!(
                *name == "unrestricted" || cases.iter().any(|(s, _)| s == name),
                "{name} has no case"
            );
        }
        let e = Engine::new(EngineOptions::default());
        for (service, property) in cases {
            let mut r = req(service, property);
            r.node_limit = 2_000;
            let cold = e.submit(&r).unwrap();
            let hit = e.submit(&r).unwrap();
            assert!(!cold.cache_hit && hit.cache_hit, "{service}");
            assert_eq!(hit.class, cold.class, "{service}");
            assert_eq!(hit.outcome_bytes, cold.outcome_bytes, "{service}");
        }
    }

    /// Journals a record for the toggle's `G (P | Q)` under the key an
    /// earlier fingerprint scheme gave it, and checks that a fresh engine
    /// loads it but never replays it.
    fn assert_old_scheme_is_not_replayed(
        tag: &str,
        old_key: &dyn Fn(&Service, &Property) -> Fingerprint,
    ) {
        let r = req("toggle", "G (P | Q)");
        let service = registry::resolve("toggle").unwrap();
        let property = parse_property(&r.property).unwrap();
        let old = old_key(&service, &property);
        let bytes = Engine::new(EngineOptions::default())
            .submit(&r)
            .unwrap()
            .outcome_bytes;

        let dir = std::env::temp_dir().join(format!("wave-engine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("cache.ndjson");
        std::fs::write(
            &journal,
            format!("{}\n", crate::cache::persist_line(old, &bytes)),
        )
        .unwrap();
        let e = Engine::new(EngineOptions {
            persist: Some(journal),
            ..EngineOptions::default()
        });
        let (_, _, recovered, dropped, _) = e.journal_stats();
        assert_eq!((recovered, dropped), (1, 0), "the {tag} record loads");
        let reply = e.submit(&r).unwrap();
        assert!(!reply.cache_hit, "a {tag}-keyed record must not replay");
        assert!(!reply.incremental);
        assert_ne!(reply.fingerprint, old);
        assert_eq!(e.counters.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(
            decode(&reply.outcome_bytes).verdict,
            decode(&bytes).verdict,
            "the cold run answers the same"
        );
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_keyed_under_the_v3_domain_are_not_replayed() {
        // The v3 scheme: no admission version in the domain.
        assert_old_scheme_is_not_replayed("v3", &|service, property| {
            let mut h = Fnv128::new();
            h.write_str("wave-serve/fp/v3");
            service.canon(&mut h);
            h.write_u8(0x01);
            property.canon(&mut h);
            h.write_len(SymbolicOptions::default().normalized().node_limit);
            Fingerprint(h.finish())
        });
    }

    /// A key of the v4 or later scheme: the admission version follows
    /// the domain.
    fn admission_versioned_key(
        domain: &str,
        service: &Service,
        property: &Property,
    ) -> Fingerprint {
        let mut h = Fnv128::new();
        h.write_str(domain);
        h.write_u64(u64::from(ADMISSION_VERSION));
        service.canon(&mut h);
        h.write_u8(0x01);
        property.canon(&mut h);
        h.write_len(SymbolicOptions::default().normalized().node_limit);
        Fingerprint(h.finish())
    }

    #[test]
    fn records_keyed_under_the_v4_domain_are_not_replayed() {
        // The v4 scheme: counters and `explored` from before store
        // subsumption.
        assert_old_scheme_is_not_replayed("v4", &|service, property| {
            admission_versioned_key("wave-serve/fp/v4", service, property)
        });
    }

    #[test]
    fn records_keyed_under_the_v5_domain_are_not_replayed() {
        // The v5 scheme: counters, `explored` and lassos of the nested
        // DFS, from before the breadth-first safety search.
        assert_old_scheme_is_not_replayed("v5", &|service, property| {
            admission_versioned_key("wave-serve/fp/v5", service, property)
        });
    }

    #[test]
    fn inadmissible_service_is_refused_without_verification_budget() {
        let e = Engine::new(EngineOptions::default());
        let err = e.submit(&req("unrestricted", "G s")).unwrap_err();
        let SubmitError::NotAdmissible {
            class,
            reason,
            report_json,
        } = err
        else {
            panic!("expected NotAdmissible");
        };
        assert_eq!(class, wave_core::classify::ServiceClass::Unrestricted);
        assert!(reason.contains("undecidable"), "{reason}");
        assert!(report_json.contains("\"W004\""), "{report_json}");
        // Refused before the cache and the pool: no miss, no hit, no
        // queued job — only the admission counter moves.
        let c = &e.counters;
        assert_eq!(c.admission_rejections.load(Ordering::Relaxed), 1);
        assert_eq!(c.cache_misses.load(Ordering::Relaxed), 0);
        assert_eq!(c.cache_hits.load(Ordering::Relaxed), 0);
        let (entries, _, _, _) = e.cache_usage();
        assert_eq!(entries, 0);
        // An admissible request still works and reports its class.
        let ok = e.submit(&req("toggle", "G (P | Q)")).unwrap();
        assert_eq!(
            ok.class,
            wave_core::classify::ServiceClass::FullyPropositional
        );
    }

    #[test]
    fn unknown_service_and_bad_property_are_reported() {
        let e = Engine::new(EngineOptions::default());
        assert!(matches!(
            e.submit(&req("nope", "G true")),
            Err(SubmitError::UnknownService(_))
        ));
        assert!(matches!(
            e.submit(&req("toggle", "G (((")),
            Err(SubmitError::BadProperty(_))
        ));
    }

    #[test]
    fn properties_nested_at_the_parser_cap_are_served() {
        // Every pass after the parser (lint, fingerprint, slice, NNF/PNF,
        // LTL→Büchi, search) walks the tree on a worker or connection
        // stack; at the parser's cap each must still return. (A chain of
        // untils at the cap is accepted too; the automaton of its
        // negation has 2^129 states, so the tableau budget answers it.)
        use wave_logic::parser::MAX_NESTING;
        let n = MAX_NESTING;
        let e = Engine::new(EngineOptions::default());
        for property in [
            format!("{}paid", "X ".repeat(n)),
            format!("{}paid{}", "(".repeat(n), ")".repeat(n)),
            format!("paid{}", " -> paid".repeat(n)),
            format!("{}paid{}", "!(".repeat(n / 2), ")".repeat(n / 2)),
            format!("{}paid", "paid U ".repeat(n)),
        ] {
            let r = e
                .submit(&req("checkout_core", &property))
                .unwrap_or_else(|err| panic!("{property}: {err}"));
            assert!(!r.outcome_bytes.is_empty());
        }
        // One level deeper is a typed refusal, before any other stage.
        let deeper = format!("{}paid", "X ".repeat(n + 1));
        assert!(matches!(
            e.submit(&req("checkout_core", &deeper)),
            Err(SubmitError::BadProperty(_))
        ));
    }

    #[test]
    fn error_free_mode_ignores_property() {
        let e = Engine::new(EngineOptions::default());
        let r = VerifyRequest {
            service: "toggle".into(),
            property: String::new(),
            mode: Mode::ErrorFree,
            node_limit: 0,
            threads: 1,
            deadline_us: 0,
            check_owner: false,
        };
        let r1 = e.submit(&r).unwrap();
        let out = outcome_from_json(
            &Json::parse(std::str::from_utf8(&r1.outcome_bytes).unwrap()).unwrap(),
        )
        .unwrap();
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn draining_engine_refuses_new_submits() {
        let e = Engine::new(EngineOptions::default());
        let warm = e.submit(&req("toggle", "G (P | Q)")).unwrap();
        assert!(!warm.cache_hit);
        e.begin_drain();
        assert!(e.is_draining());
        // Even a request that would be a cache hit is refused.
        let err = e.submit(&req("toggle", "G (P | Q)")).unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        assert_eq!(e.counters.drain_rejections.load(Ordering::Relaxed), 1);
        // Nothing in flight: the drain completes immediately.
        assert!(e.await_idle(Duration::from_secs(5)));
        assert_eq!(e.in_flight(), 0);
    }

    /// A plane that panics every worker job.
    struct PanicEveryJob;
    impl crate::faults::FaultInjector for PanicEveryJob {
        fn decide(&self, hook: Hook, _len: usize) -> Fault {
            if hook == Hook::WorkerRun {
                Fault::Panic
            } else {
                Fault::None
            }
        }
    }

    #[test]
    fn repeated_worker_panics_quarantine_the_fingerprint() {
        let e = Engine::new(EngineOptions {
            faults: Faults::new(Arc::new(PanicEveryJob)),
            ..EngineOptions::default()
        });
        let r = req("toggle", "G (P | Q)");
        // Strikes 1..QUARANTINE_AFTER: typed internal failures.
        for strike in 1..=QUARANTINE_AFTER {
            let err = e.submit(&r).unwrap_err();
            assert!(
                matches!(err, SubmitError::Internal(ref m) if m.contains("worker panic")),
                "strike {strike}: {err:?}"
            );
        }
        assert_eq!(
            e.counters.worker_panics.load(Ordering::Relaxed),
            QUARANTINE_AFTER as u64
        );
        // Next submit: quarantined, answered with the typed verdict —
        // no worker consumed, pool intact.
        let res = e.submit(&r).unwrap();
        let out = outcome_from_json(
            &Json::parse(std::str::from_utf8(&res.outcome_bytes).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(out.verdict, Verdict::Poisoned);
        assert!(!res.cache_hit);
        assert_eq!(e.counters.quarantined.load(Ordering::Relaxed), 1);
        // The poisoned verdict is not cached: the counter keeps moving
        // on every resubmit.
        let _ = e.submit(&r).unwrap();
        assert_eq!(e.counters.quarantined.load(Ordering::Relaxed), 2);
        let (entries, _, _, _) = e.cache_usage();
        assert_eq!(entries, 0, "nothing cached for a quarantined job");
    }

    /// Delays only the first worker job it sees (later jobs run clean),
    /// pinning one worker down for a deterministic busy window.
    struct DelayFirstJob(std::sync::Mutex<bool>);
    impl crate::faults::FaultInjector for DelayFirstJob {
        fn decide(&self, hook: Hook, _len: usize) -> Fault {
            if hook == Hook::WorkerRun {
                let mut first = self.0.lock().unwrap();
                if *first {
                    *first = false;
                    return Fault::Delay(Duration::from_millis(3_000));
                }
            }
            Fault::None
        }
    }

    #[test]
    fn soft_load_limit_sheds_with_retry_after() {
        // A 1-worker engine with a queue capacity, and so a soft load
        // limit, of 1: while one job occupies the worker, any further
        // submit is shed with a typed retry-after. The first job is
        // pinned down by an injected delay, so the busy window is
        // deterministic.
        let e = Arc::new(Engine::new(EngineOptions {
            workers: 1,
            queue_capacity: 1,
            faults: Faults::new(Arc::new(DelayFirstJob(std::sync::Mutex::new(true)))),
            ..EngineOptions::default()
        }));
        let slow = Arc::clone(&e);
        let handle = std::thread::spawn(move || slow.submit(&req("toggle", "F Q")));
        // Wait until the slow job is accepted and in flight.
        for _ in 0..400 {
            if e.in_flight() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(e.in_flight() >= 1, "slow job never went in flight");
        // Probe while the worker sleeps: the submit must be shed (the
        // tiny pop-to-running gap in the scheduler can race one probe,
        // so retry a few times).
        let mut shed = None;
        for _ in 0..200 {
            match e.submit(&req("toggle", "G (P | Q)")) {
                Err(SubmitError::Overloaded { retry_after_ms }) => {
                    shed = Some(retry_after_ms);
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let hint = shed.expect("a submit must be shed while the worker is busy");
        assert!(hint >= 100, "hint {hint} carries a usable backoff");
        assert!(e.counters.load_shed.load(Ordering::Relaxed) >= 1);
        let _ = handle.join().unwrap();
    }

    /// Delays every worker job by a fixed window, giving a herd of
    /// followers time to pile onto the leader's slot.
    struct DelayEveryJob(Duration);
    impl crate::faults::FaultInjector for DelayEveryJob {
        fn decide(&self, hook: Hook, _len: usize) -> Fault {
            if hook == Hook::WorkerRun {
                Fault::Delay(self.0)
            } else {
                Fault::None
            }
        }
    }

    #[test]
    fn thundering_herd_coalesces_into_one_verification() {
        let e = Arc::new(Engine::new(EngineOptions {
            workers: 4,
            shard: 2,
            faults: Faults::new(Arc::new(DelayEveryJob(Duration::from_millis(600)))),
            ..EngineOptions::default()
        }));
        // Leader first; wait until it is verifiably in flight (past the
        // coalesce point), then release the herd.
        let leader = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || e.submit(&req("toggle", "G (P | Q)")))
        };
        for _ in 0..400 {
            if e.in_flight() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(e.in_flight() >= 1, "leader never went in flight");
        const HERD: usize = 4;
        let followers: Vec<_> = (0..HERD)
            .map(|_| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || e.submit(&req("toggle", "G (P | Q)")))
            })
            .collect();
        let lead = leader.join().unwrap().unwrap();
        let herd: Vec<_> = followers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        // One verification total; every follower joined it and saw the
        // same bytes, fingerprint and final waiter count.
        let c = &e.counters;
        assert_eq!(c.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(c.coalesced.load(Ordering::Relaxed), HERD as u64);
        assert_eq!(c.cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(lead.coalesced_waiters, HERD as u64);
        assert_eq!(lead.shard, 2);
        for f in &herd {
            assert_eq!(f.outcome_bytes, lead.outcome_bytes, "bytes must be shared");
            assert_eq!(f.fingerprint, lead.fingerprint);
            assert_eq!(f.coalesced_waiters, HERD as u64);
            assert_eq!(f.shard, 2);
            assert!(!f.cache_hit);
        }
        // The slot is gone: a later submit is a plain cache hit.
        let after = e.submit(&req("toggle", "G (P | Q)")).unwrap();
        assert!(after.cache_hit);
        assert_eq!(after.coalesced_waiters, 0);
    }

    #[test]
    fn apply_replicated_validates_installs_and_refreshes() {
        let src = Engine::new(EngineOptions::default());
        let r = src.submit(&req("toggle", "G (P | Q)")).unwrap();
        let (fp, bytes) = (r.fingerprint, r.outcome_bytes);

        let dst = Engine::new(EngineOptions::default());
        // First ship installs, second is an idempotent refresh.
        assert_eq!(dst.apply_replicated(fp, &bytes), Ok(true));
        assert_eq!(dst.apply_replicated(fp, &bytes), Ok(false));
        let c = &dst.counters;
        assert_eq!(c.replicated_applied.load(Ordering::Relaxed), 1);
        assert_eq!(c.replicated_refreshed.load(Ordering::Relaxed), 1);
        // The replica now answers the same request as a byte-identical
        // cache hit — no verification ran here.
        let hit = dst.submit(&req("toggle", "G (P | Q)")).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.outcome_bytes, bytes);
        assert_eq!(c.cache_misses.load(Ordering::Relaxed), 0);

        // Rejections: null fingerprint, garbage, non-canonical bytes,
        // non-cacheable verdicts.
        assert!(dst.apply_replicated(Fingerprint(0), &bytes).is_err());
        assert!(dst.apply_replicated(Fingerprint(9), b"not json").is_err());
        let mut padded = b" ".to_vec();
        padded.extend_from_slice(&bytes);
        assert!(
            dst.apply_replicated(Fingerprint(9), &padded).is_err(),
            "non-canonical bytes must be dropped"
        );
        for verdict in [Verdict::Cancelled, Verdict::Poisoned] {
            let o = VerifyOutcome {
                verdict,
                stats: SearchStats::default(),
            };
            let enc = outcome_to_json(&o).encode().into_bytes();
            assert!(dst.apply_replicated(Fingerprint(9), &enc).is_err());
        }
        assert_eq!(c.replicated_dropped.load(Ordering::Relaxed), 5);
        let (entries, _, _, _) = dst.cache_usage();
        assert_eq!(entries, 1, "only the valid record was installed");
    }

    /// A plane that skews every armed deadline to zero time.
    struct CrushDeadlines;
    impl crate::faults::FaultInjector for CrushDeadlines {
        fn decide(&self, hook: Hook, _len: usize) -> Fault {
            if hook == Hook::DeadlineArm {
                Fault::SkewDeadline { mul: 1, div: 1000 }
            } else {
                Fault::None
            }
        }
    }

    #[test]
    fn skewed_deadline_still_yields_a_typed_cancelled() {
        let e = Engine::new(EngineOptions {
            faults: Faults::new(Arc::new(CrushDeadlines)),
            ..EngineOptions::default()
        });
        // A generous 2 s deadline crushed 1000× arrives already (or
        // nearly) expired: the answer must be a clean Cancelled either
        // way — dead-on-arrival or mid-search.
        let mut r = req("full_site", "forall p q . G (!ship(p, q) | paid)");
        r.deadline_us = 2_000_000;
        let res = e.submit(&r).unwrap();
        let out = outcome_from_json(
            &Json::parse(std::str::from_utf8(&res.outcome_bytes).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled, "{out:?}");
    }

    fn decode(bytes: &[u8]) -> VerifyOutcome {
        outcome_from_json(&Json::parse(std::str::from_utf8(bytes).unwrap()).unwrap()).unwrap()
    }

    const FIG2: &str = "forall p . G (!ship(p) | paid)";

    #[test]
    fn out_of_cone_edit_replays_the_verdict_from_the_tier() {
        let e = Engine::new(EngineOptions::default());
        let (service, sources) =
            registry::resolve_with_sources("checkout_bench").expect("registered");
        let r = req("checkout_bench", FIG2);

        let cold = e
            .submit_service(service.clone(), sources.clone(), &r)
            .unwrap();
        assert!(!cold.cache_hit && !cold.incremental);
        let cold_out = decode(&cold.outcome_bytes);
        assert!(cold_out.holds(), "{cold_out:?}");

        // One-rule edit the property cannot observe: the CP page's
        // `flag0` toggle rules are outside the Fig. 2 cone (no target,
        // action or property relation reads a flag). Dropping the
        // deletion half changes the full-service fingerprint but not the
        // cone-sliced service.
        let mut edited = service.clone();
        let cp = edited.pages.get_mut("CP").expect("CP page");
        let rule = cp
            .state_rules
            .iter_mut()
            .find(|s| s.relation == "flag0")
            .expect("flag0 state rule");
        assert!(rule.delete.take().is_some());

        let warm = e
            .submit_service(edited.clone(), sources.clone(), &r)
            .unwrap();
        assert_ne!(
            warm.fingerprint, cold.fingerprint,
            "the edit must change the submission fingerprint"
        );
        assert!(!warm.cache_hit, "tier replay is not a whole-submission hit");
        assert!(warm.incremental, "unchanged cone must replay from the tier");
        let warm_out = decode(&warm.outcome_bytes);
        // Byte-identical *verdict* — and zero search spend: the replay
        // consumed no nodes, no memo entries, no wall time.
        assert_eq!(warm_out.verdict, cold_out.verdict);
        assert!(warm_out.stats.incremental);
        assert_eq!(warm_out.stats.nodes_interned, 0);
        assert_eq!(warm_out.stats.search_wall.as_micros(), 0);
        assert!(
            warm_out.stats.sliced_rules > 0,
            "slice report is still real"
        );
        assert_eq!(e.counters.incremental_hits.load(Ordering::Relaxed), 1);
        assert_eq!(e.counters.cache_misses.load(Ordering::Relaxed), 1);

        // The synthesized outcome was installed in the result cache
        // under the edited submission's fingerprint: a resubmit is a
        // plain byte-identical hit, eligible for fleet replication.
        let again = e.submit_service(edited, sources, &r).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.outcome_bytes, warm.outcome_bytes);
    }

    #[test]
    fn in_cone_edit_misses_the_tier_and_searches_cold() {
        let e = Engine::new(EngineOptions::default());
        let (service, sources) =
            registry::resolve_with_sources("checkout_bench").expect("registered");
        let r = req("checkout_bench", FIG2);
        let cold = e
            .submit_service(service.clone(), sources.clone(), &r)
            .unwrap();
        assert!(decode(&cold.outcome_bytes).holds());

        // Removing the `ship` action rule is squarely inside the cone —
        // `ship` is the property's own relation — so the sliced service
        // changes and the tier must refuse to answer.
        let mut edited = service.clone();
        edited
            .pages
            .get_mut("UPP")
            .expect("UPP page")
            .action_rules
            .clear();
        let res = e.submit_service(edited, sources, &r).unwrap();
        assert!(!res.cache_hit && !res.incremental);
        let out = decode(&res.outcome_bytes);
        assert!(!out.stats.incremental);
        assert!(out.stats.nodes_interned > 0, "a real search ran");
        assert_eq!(e.counters.incremental_hits.load(Ordering::Relaxed), 0);
        assert_eq!(e.counters.incremental_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn restart_retranslates_the_automaton_once_and_journals_none() {
        let dir = std::env::temp_dir().join(format!("wave-engine-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("cache.ndjson");
        let persisted = || {
            Engine::new(EngineOptions {
                persist: Some(journal.clone()),
                ..EngineOptions::default()
            })
        };
        let (service, sources) =
            registry::resolve_with_sources("checkout_bench").expect("registered");
        let r = req("checkout_bench", FIG2);
        let e = persisted();
        let cold = e
            .submit_service(service.clone(), sources.clone(), &r)
            .unwrap();
        assert!(decode(&cold.outcome_bytes).holds());
        drop(e);

        // The same in-cone edit as above, on a fresh engine over the same
        // journal: neither the result cache nor the verdict tier can
        // answer, and the automaton tier starts empty.
        let mut edited = service;
        edited
            .pages
            .get_mut("UPP")
            .expect("UPP page")
            .action_rules
            .clear();
        let e = persisted();
        let res = e.submit_service(edited.clone(), sources, &r).unwrap();
        assert!(!res.cache_hit && !res.incremental);
        assert_eq!(e.tiers().verdict_misses(), 1);
        assert_eq!(e.tiers().automaton_misses(), 1, "translated once");
        let property = parse_property(FIG2).unwrap();
        let scratch = verify_ltl(&edited, &property, &SymbolicOptions::default()).unwrap();
        assert_eq!(
            crate::codec::verdict_to_json(&decode(&res.outcome_bytes).verdict).encode(),
            crate::codec::verdict_to_json(&scratch.verdict).encode()
        );
        drop(e);

        // Only the result journal and its generation sidecar are on
        // disk: neither tier journals.
        let mut journals: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .collect();
        journals.sort();
        assert_eq!(journals, ["cache.ndjson", "cache.ndjson.gen"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_free_mode_never_touches_the_tiers() {
        let e = Engine::new(EngineOptions::default());
        let mut r = req("checkout_bench", "");
        r.mode = Mode::ErrorFree;
        let res = e.submit(&r).unwrap();
        assert!(!res.cache_hit && !res.incremental);
        assert_eq!(e.counters.incremental_hits.load(Ordering::Relaxed), 0);
        assert_eq!(e.counters.incremental_misses.load(Ordering::Relaxed), 0);
        assert_eq!(e.tiers().verdict_hits() + e.tiers().verdict_misses(), 0);
    }

    /// Polls `cond` every 5 ms for up to 5 s.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..1_000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    /// `(submitted, sum of the outcome-class counters)`: equal when every
    /// accepted submit landed in exactly one class.
    fn ledger(c: &Counters) -> (u64, u64) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let classes = [
            &c.cache_hits,
            &c.incremental_hits,
            &c.coalesced,
            &c.cache_misses,
            &c.dead_on_arrival,
            &c.admission_rejections,
            &c.drain_rejections,
            &c.load_shed,
            &c.quarantined,
        ];
        (get(&c.submitted), classes.into_iter().map(get).sum())
    }

    #[test]
    fn every_exit_lands_in_exactly_one_outcome_class() {
        // Cold, hit, tier, dead on arrival, admission refusal and drain.
        let plain = Engine::new(EngineOptions::default());
        assert!(!plain.submit(&req("checkout_core", FIG2)).unwrap().cache_hit);
        assert!(plain.submit(&req("checkout_core", FIG2)).unwrap().cache_hit);
        assert!(
            plain
                .submit(&req("checkout_bench", FIG2))
                .unwrap()
                .incremental
        );
        let mut expired = req("full_site", "forall p q . G (!ship(p, q) | paid)");
        expired.deadline_us = 1;
        assert_eq!(plain.submit(&expired).unwrap().fingerprint, Fingerprint(0));
        let refused = plain.submit(&req("unrestricted", "G s"));
        assert!(matches!(refused, Err(SubmitError::NotAdmissible { .. })));
        plain.begin_drain();
        let drained = plain.submit(&req("toggle", "G (P | Q)"));
        assert_eq!(drained, Err(SubmitError::Draining));

        // Cold runs that lose their worker, then quarantine.
        let panicky = Engine::new(EngineOptions {
            faults: Faults::new(Arc::new(PanicEveryJob)),
            ..EngineOptions::default()
        });
        let r = req("toggle", "G (P | Q)");
        for _ in 0..QUARANTINE_AFTER {
            assert!(matches!(panicky.submit(&r), Err(SubmitError::Internal(_))));
        }
        let poisoned = panicky.submit(&r).unwrap();
        assert_eq!(decode(&poisoned.outcome_bytes).verdict, Verdict::Poisoned);

        // One worker, a queue capacity (so a soft load limit) of two and
        // slow jobs: a leader, a follower that waits for it, a follower
        // that leaves on its own deadline, a second leader queued behind
        // the first, and a shed.
        let busy = Arc::new(Engine::new(EngineOptions {
            workers: 1,
            queue_capacity: 2,
            faults: Faults::new(Arc::new(DelayEveryJob(Duration::from_millis(800)))),
            ..EngineOptions::default()
        }));
        let spawn = |r: VerifyRequest| {
            let e = Arc::clone(&busy);
            std::thread::spawn(move || e.submit(&r))
        };
        let waiters = || {
            let runs = busy.runs.lock().unwrap();
            runs.values()
                .map(|s| s.waiters.load(Ordering::SeqCst))
                .sum::<u64>()
        };
        let leader = spawn(r.clone());
        wait_for("the leader's job", || busy.running() == 1);
        let follower = spawn(r.clone());
        wait_for("the follower to join", || waiters() == 1);
        let mut impatient = r.clone();
        impatient.deadline_us = 200_000;
        let left = busy.submit(&impatient).unwrap();
        assert_eq!(decode(&left.outcome_bytes).verdict, Verdict::Cancelled);
        assert_ne!(
            left.fingerprint,
            Fingerprint(0),
            "joined, not dead on arrival"
        );
        assert_eq!(waiters(), 1, "the leader is still running");
        let second = spawn(req("toggle", "F Q"));
        wait_for("the second leader to queue", || busy.queued() == 1);
        let shed = busy.submit(&req("toggle", "G P"));
        assert!(
            matches!(shed, Err(SubmitError::Overloaded { .. })),
            "{shed:?}"
        );
        let lead = leader.join().unwrap().unwrap();
        assert_eq!(lead.coalesced_waiters, 1);
        assert_eq!(
            follower.join().unwrap().unwrap().outcome_bytes,
            lead.outcome_bytes
        );
        assert!(!second.join().unwrap().unwrap().cache_hit);

        for (name, e) in [("plain", &plain), ("panicky", &panicky), ("busy", &*busy)] {
            let (submitted, classes) = ledger(&e.counters);
            assert_eq!(submitted, classes, "{name}: submitted vs outcome classes");
        }
        let c = &busy.counters;
        assert_eq!(c.cache_misses.load(Ordering::Relaxed), 2);
        assert_eq!(c.coalesced.load(Ordering::Relaxed), 2);
        let cancelled = c.cancelled.load(Ordering::Relaxed);
        assert_eq!(cancelled, 1, "a flag over the coalesced follower");
        assert_eq!(c.load_shed.load(Ordering::Relaxed), 1);
        assert_eq!(ledger(&plain.counters).0, 6);
        assert_eq!(ledger(&panicky.counters).0, 3);
        assert_eq!(ledger(&busy.counters).0, 5);
    }

    #[test]
    fn quarantine_is_checked_after_the_cache() {
        // Bytes installed for a quarantined fingerprint (here by
        // replication) replay as a plain hit, not as `Poisoned`.
        let r = req("toggle", "G (P | Q)");
        let clean = Engine::new(EngineOptions::default()).submit(&r).unwrap();
        let e = Engine::new(EngineOptions {
            faults: Faults::new(Arc::new(PanicEveryJob)),
            ..EngineOptions::default()
        });
        for _ in 0..QUARANTINE_AFTER {
            assert!(matches!(e.submit(&r), Err(SubmitError::Internal(_))));
        }
        let poisoned = e.submit(&r).unwrap();
        assert_eq!(decode(&poisoned.outcome_bytes).verdict, Verdict::Poisoned);
        assert_eq!(poisoned.fingerprint, clean.fingerprint);
        let installed = e.apply_replicated(clean.fingerprint, &clean.outcome_bytes);
        assert_eq!(installed, Ok(true));
        let hit = e.submit(&r).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.outcome_bytes, clean.outcome_bytes);
        assert_eq!(e.counters.quarantined.load(Ordering::Relaxed), 1);
    }
}
