//! Clients: in-process and TCP.
//!
//! [`LocalClient`] drives an [`Engine`] directly through the same
//! line-level protocol the TCP server speaks, so in-process callers and
//! remote callers observe byte-identical responses. [`TcpClient`] is a
//! blocking newline-delimited-JSON session over `std::net::TcpStream`,
//! hardened against the network faults chaos testing injects:
//!
//! * every read carries a **timeout** (default 120 s): a stalled or
//!   half-dead server yields a typed [`ClientError::Timeout`], never a
//!   hung client;
//! * responses are accumulated **byte-wise** across reads, so a server
//!   that dribbles a line out in fragments is reassembled correctly —
//!   and a timeout mid-line never silently discards the partial data
//!   (the session is marked broken instead, because a late response
//!   could otherwise desynchronize every subsequent round trip);
//! * [`TcpClient::verify_with_retry`] reconnects and resubmits under a
//!   [`RetryPolicy`] (exponential backoff, decorrelated jitter, a total
//!   sleep budget). Resubmitting is **safe** because verify requests
//!   are idempotent: the engine keys them by canonical fingerprint, so
//!   a duplicate submit is a cache hit replaying byte-identical
//!   outcome bytes, never a second divergent answer.
//!
//! Forwarders do not open a connection per request: [`SessionPool`]
//! keeps idle sessions per node address and reuses them under the rules
//! documented there.

use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wave_logic::fingerprint::Fingerprint;
use wave_rng::{Rng, SplitMix64};
use wave_verifier::symbolic::VerifyOutcome;

use crate::codec::{outcome_from_json, Request, VerifyRequest};
use crate::engine::Engine;
use crate::json::Json;
use crate::server::{handle_line, write_line};

/// Default per-read timeout for TCP sessions.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A decoded successful `verify` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReply {
    /// Canonical fingerprint of the request content.
    pub fingerprint: Fingerprint,
    /// Whether the cache served the outcome.
    pub cache_hit: bool,
    /// Whether the verdict replayed from the incremental tier (a
    /// digest-keyed reuse across an out-of-cone edit; `false` when the
    /// server predates the field).
    pub incremental: bool,
    /// The decidable class admission control reported (wire name, e.g.
    /// `"input_bounded"`); empty when talking to a server that predates
    /// the field.
    pub class: String,
    /// The shard id of the node that answered (`0` standalone, or when
    /// the server predates the field).
    pub shard: u32,
    /// Submissions that shared this verification run (see
    /// `SubmitResult::coalesced_waiters`; `0` when the server predates
    /// the field).
    pub coalesced_waiters: u64,
    /// The decoded outcome.
    pub outcome: VerifyOutcome,
    /// The raw outcome object's canonical encoding (byte-identity
    /// checks compare this).
    pub outcome_text: String,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// No complete response line arrived within the read timeout. The
    /// session is broken afterwards: a late response could desync every
    /// later round trip, so reconnect (or use
    /// [`TcpClient::verify_with_retry`], which does).
    Timeout,
    /// The server is draining and refused the request (kind
    /// `draining`). Retrying the same server is pointless until it
    /// restarts.
    Draining,
    /// The server shed the request under load (kind `retry_after`) and
    /// suggested a backoff.
    RetryAfter {
        /// Suggested wait before resubmitting, in milliseconds.
        after_ms: u64,
    },
    /// The node's membership view places this request on another node
    /// (kind `wrong_shard`; only possible for `check_owner` requests).
    /// The fix is a view refresh, not a backoff: the refusing node's
    /// `members` reply carries the fresher view.
    WrongShard {
        /// The refusing node's view epoch.
        epoch: u64,
        /// The owner that node's view computes.
        owner: u32,
    },
    /// The server answered `ok: false` (semantic refusal).
    Server(String),
    /// The response line was not valid protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for a response line"),
            ClientError::Draining => write!(f, "server is draining; not accepting new jobs"),
            ClientError::RetryAfter { after_ms } => {
                write!(f, "server overloaded; retry after {after_ms} ms")
            }
            ClientError::WrongShard { epoch, owner } => {
                write!(
                    f,
                    "wrong shard: owner is node {owner} at view epoch {epoch}"
                )
            }
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Decodes one response line for a `verify` request.
fn decode_verify_line(line: &str) -> Result<VerifyReply, ClientError> {
    let v = Json::parse(line).map_err(|e| ClientError::Protocol(e.to_string()))?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => {
            // Flow-control refusals are kind-tagged: map them to typed
            // errors so callers can back off or migrate mechanically.
            match v.get("kind").and_then(Json::as_str) {
                Some("draining") => return Err(ClientError::Draining),
                Some("retry_after") => {
                    let after_ms = v
                        .get("retry_after_ms")
                        .and_then(Json::as_int)
                        .map_or(1_000, |n| n.max(0) as u64);
                    return Err(ClientError::RetryAfter { after_ms });
                }
                Some("wrong_shard") => {
                    let epoch = v
                        .get("epoch")
                        .and_then(Json::as_int)
                        .map_or(0, |n| n.max(0) as u64);
                    let owner = v
                        .get("owner")
                        .and_then(Json::as_int)
                        .map_or(0, |n| n.max(0) as u32);
                    return Err(ClientError::WrongShard { epoch, owner });
                }
                _ => {}
            }
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error");
            // Admission refusals attach the lint report; surface its
            // error count so the message is actionable without the raw
            // line.
            let msg = match v
                .get("lint")
                .and_then(|l| l.get("errors"))
                .and_then(Json::as_int)
            {
                Some(n) => format!("{msg} ({n} lint error(s); run wave-lint for details)"),
                None => msg.to_string(),
            };
            return Err(ClientError::Server(msg));
        }
        None => return Err(ClientError::Protocol("missing \"ok\"".into())),
    }
    let fingerprint = v
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(Fingerprint::from_hex)
        .ok_or_else(|| ClientError::Protocol("missing fingerprint".into()))?;
    let cache_hit = v
        .get("cache_hit")
        .and_then(Json::as_bool)
        .ok_or_else(|| ClientError::Protocol("missing cache_hit".into()))?;
    let incremental = v
        .get("incremental")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let class = v
        .get("class")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let shard = v
        .get("shard")
        .and_then(Json::as_int)
        .map_or(0, |n| n.max(0) as u32);
    let coalesced_waiters = v
        .get("coalesced_waiters")
        .and_then(Json::as_int)
        .map_or(0, |n| n.max(0) as u64);
    let outcome_json = v
        .get("outcome")
        .ok_or_else(|| ClientError::Protocol("missing outcome".into()))?;
    let outcome =
        outcome_from_json(outcome_json).map_err(|e| ClientError::Protocol(e.to_string()))?;
    Ok(VerifyReply {
        fingerprint,
        cache_hit,
        incremental,
        class,
        shard,
        coalesced_waiters,
        outcome,
        outcome_text: outcome_json.encode(),
    })
}

/// Decodes one response line for a `drain` request: whether the server
/// reached idle within its deadline.
fn decode_drain_line(line: &str) -> Result<bool, ClientError> {
    let v = Json::parse(line).map_err(|e| ClientError::Protocol(e.to_string()))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unspecified error");
        return Err(ClientError::Server(msg.to_string()));
    }
    v.get("drained")
        .and_then(Json::as_bool)
        .ok_or_else(|| ClientError::Protocol("missing drained".into()))
}

/// In-process client: same protocol, no socket.
pub struct LocalClient {
    engine: Arc<Engine>,
}

impl LocalClient {
    /// Wraps an engine.
    pub fn new(engine: Arc<Engine>) -> Self {
        LocalClient { engine }
    }

    /// Runs one verify request to completion.
    pub fn verify(&self, req: &VerifyRequest) -> Result<VerifyReply, ClientError> {
        let line = Request::Verify(req.clone()).encode();
        decode_verify_line(&handle_line(&self.engine, &line))
    }

    /// Fetches the server counters as JSON.
    pub fn stats(&self) -> Result<Json, ClientError> {
        let line = Request::Stats.encode();
        let v = Json::parse(&handle_line(&self.engine, &line))
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("missing stats".into()))
    }

    /// Starts a graceful drain and waits up to `deadline` for in-flight
    /// jobs; returns whether the engine reached idle.
    pub fn drain(&self, deadline: Duration) -> Result<bool, ClientError> {
        let line = Request::Drain {
            deadline_ms: deadline.as_millis().min(u64::MAX as u128) as u64,
        }
        .encode();
        decode_drain_line(&handle_line(&self.engine, &line))
    }
}

/// Reconnect-and-resubmit policy for [`TcpClient::verify_with_retry`]:
/// exponential backoff with decorrelated jitter, bounded by a per-sleep
/// cap, an attempt count and a total sleep budget.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included; min 1).
    pub max_attempts: u32,
    /// First backoff (and the jitter floor).
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Upper bound on *cumulative* backoff sleep: once spent, the next
    /// failure is final even if attempts remain.
    pub budget: Duration,
    /// Seed for the jitter stream — same seed, same sleep sequence, so
    /// chaos campaigns replay deterministically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            budget: Duration::from_secs(10),
            seed: 0x7761_7665, // "wave"
        }
    }
}

impl RetryPolicy {
    /// Is `err` worth a reconnect-and-resubmit? Transport failures,
    /// timeouts, garbled lines (a torn write ends the line mid-JSON)
    /// and explicit retry-after hints are; semantic refusals and a
    /// draining server are not.
    fn retryable(err: &ClientError) -> bool {
        matches!(
            err,
            ClientError::Io(_)
                | ClientError::Timeout
                | ClientError::Protocol(_)
                | ClientError::RetryAfter { .. }
        )
    }
}

/// The shared reconnect loop behind [`TcpClient::verify_with_retry`]
/// and [`TcpClient::verify_with_failover`]: exponential backoff with
/// decorrelated jitter, a per-sleep cap, an attempt count and a total
/// sleep budget. `migrate_on_draining` additionally treats a `Draining`
/// refusal as retryable (sound only when attempts rotate across nodes).
fn retry_loop(
    policy: &RetryPolicy,
    migrate_on_draining: bool,
    mut attempt_once: impl FnMut(u32) -> Result<VerifyReply, ClientError>,
) -> Result<VerifyReply, ClientError> {
    let mut rng = SplitMix64::seed_from_u64(policy.seed);
    let mut slept = Duration::ZERO;
    // Decorrelated jitter state: next sleep is uniform in
    // [base, prev * 3], capped.
    let mut prev = policy.base;
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        let err = match attempt_once(attempt) {
            Ok(reply) => return Ok(reply),
            Err(e) => e,
        };
        let retryable = RetryPolicy::retryable(&err)
            || (migrate_on_draining && matches!(err, ClientError::Draining));
        if !retryable || attempt + 1 == attempts {
            return Err(err);
        }
        // Decorrelated jitter (Brooker): sleep ~ U[base, prev*3],
        // clamped to the cap; a server hint raises the floor (a
        // shedding server knows its own recovery time, so the hint may
        // legitimately exceed the per-sleep cap).
        let lo = policy.base.as_millis().max(1) as u64;
        let hi = prev.as_millis().saturating_mul(3).max(lo as u128 + 1) as u64;
        let mut sleep_ms = rng.gen_range(lo..hi).min(policy.cap.as_millis() as u64);
        if let ClientError::RetryAfter { after_ms } = &err {
            sleep_ms = sleep_ms.max(*after_ms);
        }
        // Clamp every sleep — hint-driven or jittered — to the budget
        // that is actually left. Without the clamp a `retry_after_ms`
        // hint larger than the remaining budget would either sleep the
        // client past its own deadline or (checked up front) burn the
        // whole remaining budget deciding not to sleep; with it, the
        // client sleeps at most what the caller allowed and spends the
        // final slice on one last attempt. When nothing is left, fail
        // fast with the real error instead of a zero-length sleep loop.
        let remaining = policy.budget.saturating_sub(slept);
        let sleep = Duration::from_millis(sleep_ms).min(remaining);
        if sleep.is_zero() {
            return Err(err);
        }
        std::thread::sleep(sleep);
        slept += sleep;
        prev = sleep.max(policy.base);
        last_err = Some(err);
    }
    Err(last_err.unwrap_or(ClientError::Timeout))
}

/// A blocking TCP session with a running server.
pub struct TcpClient {
    stream: TcpStream,
    /// Bytes received but not yet consumed as a complete line — a
    /// response split across TCP segments reassembles here.
    pending: Vec<u8>,
    /// Set after a read timeout: a late response may still arrive, so
    /// every later round trip on this session could pair a request with
    /// the *previous* request's answer. Broken sessions refuse to
    /// continue; reconnect instead.
    broken: bool,
}

impl TcpClient {
    /// Connects to a server with the default read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpClient> {
        Self::connect_timeout(addr, DEFAULT_READ_TIMEOUT)
    }

    /// Connects with an explicit per-read timeout (`Duration::ZERO` is
    /// rejected by the OS; use a large value for "effectively none").
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
    ) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        // Requests are whole lines written at once (see
        // `server::write_line`); Nagle would only delay them.
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream,
            pending: Vec::new(),
            broken: false,
        })
    }

    /// Adjusts the per-read timeout mid-session.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Sends one raw line and reads one response line.
    pub fn round_trip(&mut self, line: &str) -> Result<String, ClientError> {
        if self.broken {
            return Err(ClientError::Protocol(
                "session broken by an earlier timeout; reconnect".into(),
            ));
        }
        write_line(&mut self.stream, line)?;
        loop {
            // A complete line may already be buffered (servers may batch
            // multiple responses into one segment).
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line_bytes: Vec<u8> = self.pending.drain(..=pos).collect();
                line_bytes.pop(); // the newline
                if line_bytes.last() == Some(&b'\r') {
                    line_bytes.pop();
                }
                return String::from_utf8(line_bytes)
                    .map_err(|_| ClientError::Protocol("response line is not UTF-8".into()));
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                // Unix reports a read timeout as WouldBlock, Windows as
                // TimedOut; either way the partial bytes stay buffered
                // and the session is poisoned.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    self.broken = true;
                    return Err(ClientError::Timeout);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Runs one verify request to completion.
    pub fn verify(&mut self, req: &VerifyRequest) -> Result<VerifyReply, ClientError> {
        let line = self.round_trip(&Request::Verify(req.clone()).encode())?;
        decode_verify_line(&line)
    }

    /// Runs one verify request with reconnect-and-resubmit under
    /// `policy`. Each attempt gets a **fresh connection** (a timed-out
    /// session is desynchronized and must not be reused); between
    /// attempts the client sleeps with exponential backoff and
    /// decorrelated jitter, honouring any server `retry_after_ms` hint.
    /// Safe to call for the same request repeatedly: submits are
    /// idempotent by fingerprint.
    pub fn verify_with_retry(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        req: &VerifyRequest,
        policy: &RetryPolicy,
    ) -> Result<VerifyReply, ClientError> {
        retry_loop(policy, false, |_| {
            TcpClient::connect_timeout(&addr, read_timeout)
                .map_err(ClientError::Io)
                .and_then(|mut c| c.verify(req))
        })
    }

    /// Like [`TcpClient::verify_with_retry`], but across a **list of
    /// nodes**: attempt `i` targets `addrs[i % addrs.len()]` on a fresh
    /// connection, so a node that dies mid-frame (EOF, torn line,
    /// timeout) fails the request over to the next node instead of
    /// retrying a corpse — and a `Draining` refusal migrates too, since
    /// another node can still answer. A desynced session is never
    /// reused: every attempt starts clean, and resubmitting is safe
    /// because verifies are idempotent by fingerprint.
    pub fn verify_with_failover(
        addrs: &[std::net::SocketAddr],
        read_timeout: Duration,
        req: &VerifyRequest,
        policy: &RetryPolicy,
    ) -> Result<VerifyReply, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Protocol("no addresses to fail over".into()));
        }
        retry_loop(policy, addrs.len() > 1, |attempt| {
            let addr = addrs[attempt as usize % addrs.len()];
            TcpClient::connect_timeout(addr, read_timeout)
                .map_err(ClientError::Io)
                .and_then(|mut c| c.verify(req))
        })
    }

    /// Ships CRC-framed journal lines to the server's replication
    /// endpoint; returns `(applied, refreshed, dropped)` counts.
    pub fn replicate(&mut self, lines: &[String]) -> Result<(u64, u64, u64), ClientError> {
        let line = self.round_trip(
            &Request::Replicate {
                lines: lines.to_vec(),
            }
            .encode(),
        )?;
        let v = Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error");
            return Err(ClientError::Server(msg.to_string()));
        }
        let count = |key: &str| -> Result<u64, ClientError> {
            v.get(key)
                .and_then(Json::as_int)
                .map(|n| n.max(0) as u64)
                .ok_or_else(|| ClientError::Protocol(format!("missing {key}")))
        };
        Ok((count("applied")?, count("refreshed")?, count("dropped")?))
    }

    /// Fetches the server counters as JSON.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let line = self.round_trip(&Request::Stats.encode())?;
        let v = Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error");
            return Err(ClientError::Server(msg.to_string()));
        }
        v.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("missing stats".into()))
    }

    /// Starts a graceful drain on the server and waits (server-side) up
    /// to `deadline` for in-flight jobs; returns whether the server
    /// reached idle. The read timeout must exceed the deadline.
    pub fn drain(&mut self, deadline: Duration) -> Result<bool, ClientError> {
        let line = self.round_trip(
            &Request::Drain {
                deadline_ms: deadline.as_millis().min(u64::MAX as u128) as u64,
            }
            .encode(),
        )?;
        decode_drain_line(&line)
    }

    /// Probes the cheap liveness endpoint.
    pub fn health(&mut self) -> Result<HealthReply, ClientError> {
        let line = self.round_trip(&Request::Health.encode())?;
        let v = Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error");
            return Err(ClientError::Server(msg.to_string()));
        }
        let int = |key: &str| -> Result<i64, ClientError> {
            v.get(key)
                .and_then(Json::as_int)
                .ok_or_else(|| ClientError::Protocol(format!("health: missing {key}")))
        };
        Ok(HealthReply {
            shard: int("shard")?.max(0) as u32,
            epoch: int("epoch")?.max(0) as u64,
            journal_bytes: int("journal_bytes")?.max(0) as u64,
            generation: int("generation")?.max(0) as u64,
        })
    }

    /// Fetches the node's installed membership view.
    pub fn members(&mut self) -> Result<crate::view::MemberView, ClientError> {
        let line = self.round_trip(&Request::Members.encode())?;
        let v = Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error");
            return Err(ClientError::Server(msg.to_string()));
        }
        let view = v
            .get("view")
            .ok_or_else(|| ClientError::Protocol("members: missing view".into()))?;
        crate::view::MemberView::from_json(view).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Pushes a membership view to the node; returns the epoch now in
    /// force there (higher when the node already held a fresher view).
    pub fn install_view(&mut self, view: &crate::view::MemberView) -> Result<u64, ClientError> {
        let line = self.round_trip(&Request::InstallView { view: view.clone() }.encode())?;
        let v = Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error");
            return Err(ClientError::Server(msg.to_string()));
        }
        v.get("epoch")
            .and_then(Json::as_int)
            .map(|n| n.max(0) as u64)
            .ok_or_else(|| ClientError::Protocol("install_view: missing epoch".into()))
    }
}

/// Idle sessions a [`SessionPool`] keeps per address. A session that
/// finishes while its address already holds this many is closed.
pub const IDLE_SESSIONS_PER_ADDR: usize = 4;

/// Idle TCP sessions to forward verifies over, keyed by node address:
/// the one session-reuse implementation behind `Router::submit` and
/// [`RoutedClient::verify`]. A connection per request costs a
/// handshake, a server thread and a teardown, several times the price
/// of a cache hit.
///
/// Reuse rules:
///
/// * a session goes back to the pool only after a **complete reply
///   line** — an answer or a typed refusal (`wrong_shard`, overload,
///   draining) alike. A session that saw a transport error or a
///   timeout is dropped: a late reply would desync it;
/// * a **reused** session that fails at the transport level was most
///   likely closed by the peer while it sat idle, so the request is
///   retried once on a fresh connection (and the address's other idle
///   sessions, likely just as stale, are closed). Only a fresh
///   connection's failure reaches the caller, so a stale socket never
///   passes for a dead node. Retrying is safe because verifies are
///   idempotent by fingerprint;
/// * owners [`purge`](SessionPool::purge) an address when its
///   membership changes: a retired in-process node keeps listening, so
///   a leftover session would still reach the retired engine.
///
/// Liveness probes must not come from here: a probe has to show that
/// the listener accepts, not that an old socket still answers.
pub struct SessionPool {
    read_timeout: Duration,
    idle: Mutex<HashMap<SocketAddr, Vec<TcpClient>>>,
}

impl SessionPool {
    /// An empty pool whose sessions use `read_timeout` per read.
    pub fn new(read_timeout: Duration) -> SessionPool {
        SessionPool {
            read_timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Runs one verify request at `addr` over an idle session when one
    /// is pooled, a fresh connection otherwise (see the reuse rules).
    pub fn verify(
        &self,
        addr: SocketAddr,
        req: &VerifyRequest,
    ) -> Result<VerifyReply, ClientError> {
        let line = Request::Verify(req.clone()).encode();
        if let Some(mut session) = self.take(addr) {
            match session.round_trip(&line) {
                Ok(reply) => {
                    self.put(addr, session);
                    return decode_verify_line(&reply);
                }
                Err(ClientError::Io(_)) => self.purge(addr),
                Err(e) => return Err(e),
            }
        }
        let mut session = TcpClient::connect_timeout(addr, self.read_timeout)?;
        let reply = session.round_trip(&line)?;
        self.put(addr, session);
        decode_verify_line(&reply)
    }

    /// [`TcpClient::verify_with_retry`] over pooled sessions: the same
    /// retry loop, each attempt made by [`SessionPool::verify`].
    pub fn verify_with_retry(
        &self,
        addr: SocketAddr,
        req: &VerifyRequest,
        policy: &RetryPolicy,
    ) -> Result<VerifyReply, ClientError> {
        retry_loop(policy, false, |_| self.verify(addr, req))
    }

    /// Closes every idle session to `addr`.
    pub fn purge(&self, addr: SocketAddr) {
        self.idle
            .lock()
            .expect("session pool poisoned")
            .remove(&addr);
    }

    /// Closes the idle sessions of every address `keep` rejects.
    pub fn retain(&self, keep: impl Fn(&SocketAddr) -> bool) {
        self.idle
            .lock()
            .expect("session pool poisoned")
            .retain(|addr, _| keep(addr));
    }

    /// Idle sessions pooled for `addr`.
    pub fn idle(&self, addr: SocketAddr) -> usize {
        self.idle
            .lock()
            .expect("session pool poisoned")
            .get(&addr)
            .map_or(0, Vec::len)
    }

    fn take(&self, addr: SocketAddr) -> Option<TcpClient> {
        self.idle
            .lock()
            .expect("session pool poisoned")
            .get_mut(&addr)?
            .pop()
    }

    fn put(&self, addr: SocketAddr, session: TcpClient) {
        let mut idle = self.idle.lock().expect("session pool poisoned");
        let slot = idle.entry(addr).or_default();
        if slot.len() < IDLE_SESSIONS_PER_ADDR {
            slot.push(session);
        }
    }
}

/// A decoded `health` reply — the heartbeat plane's observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthReply {
    /// The answering node's shard id.
    pub shard: u32,
    /// Its installed view epoch (`0` before any push).
    pub epoch: u64,
    /// Its cache journal size in bytes.
    pub journal_bytes: u64,
    /// Its journal generation stamp (the `.gen` sidecar value).
    pub generation: u64,
}

/// How many consecutive stale-view refusals a [`RoutedClient`] absorbs
/// before giving up on checked routing and failing over unchecked.
const MAX_STALE_RETRIES: usize = 4;

/// A self-routing client: holds an epoch-tagged membership view,
/// computes ring placement locally, and talks **straight to owner
/// nodes** — no router on the request path, so a dead router costs
/// routed clients nothing.
///
/// Staleness is handled by protocol, not by coordination: requests go
/// out with `check_owner` set, and a node whose view disagrees refuses
/// with `wrong_shard`, at which point the client refetches the view
/// (the refusing node itself serves the fresher one) and retries. If no
/// fresh-enough view can be obtained — or the computed owner is
/// unreachable — the client falls back to **unchecked failover** across
/// every member it knows: any node computes correct verdicts, ownership
/// only concentrates the cache, so availability never hinges on view
/// agreement.
pub struct RoutedClient {
    /// Addresses tried for view fetches when no member is known (or
    /// none is reachable): typically the initial node list, optionally
    /// including the router front end.
    bootstrap: Vec<std::net::SocketAddr>,
    read_timeout: Duration,
    retry: RetryPolicy,
    view: Option<(crate::view::MemberView, crate::ring::Ring)>,
    /// Sessions to the members, reused across checked attempts.
    sessions: SessionPool,
}

impl RoutedClient {
    /// A routed client bootstrapping its view from `bootstrap`.
    pub fn new(bootstrap: Vec<std::net::SocketAddr>) -> RoutedClient {
        RoutedClient {
            bootstrap,
            read_timeout: DEFAULT_READ_TIMEOUT,
            retry: RetryPolicy::default(),
            view: None,
            sessions: SessionPool::new(DEFAULT_READ_TIMEOUT),
        }
    }

    /// Sets the per-read timeout used for every connection.
    pub fn with_read_timeout(mut self, timeout: Duration) -> RoutedClient {
        self.read_timeout = timeout;
        self.sessions = SessionPool::new(timeout);
        self
    }

    /// Sets the retry policy used by the unchecked-failover fallback.
    pub fn with_retry(mut self, policy: RetryPolicy) -> RoutedClient {
        self.retry = policy;
        self
    }

    /// The epoch of the held view (`0` before the first fetch).
    pub fn view_epoch(&self) -> u64 {
        self.view.as_ref().map_or(0, |(v, _)| v.epoch)
    }

    /// Refetches the membership view from every known member plus the
    /// bootstrap list, keeping the **highest epoch** seen — so one
    /// reachable up-to-date node (e.g. the one that just refused us
    /// with `wrong_shard`) is enough to catch up, router dead or not.
    pub fn refresh_view(&mut self) -> Result<u64, ClientError> {
        let mut candidates: Vec<std::net::SocketAddr> = Vec::new();
        if let Some((view, _)) = &self.view {
            candidates.extend(view.members.iter().map(|m| m.addr));
        }
        for addr in &self.bootstrap {
            if !candidates.contains(addr) {
                candidates.push(*addr);
            }
        }
        let mut best: Option<crate::view::MemberView> = None;
        let mut last_err = ClientError::Protocol("no membership source configured".into());
        for addr in candidates {
            match TcpClient::connect_timeout(addr, self.read_timeout)
                .map_err(ClientError::Io)
                .and_then(|mut c| c.members())
            {
                Ok(view) => {
                    if best.as_ref().is_none_or(|b| view.epoch > b.epoch) {
                        best = Some(view);
                    }
                }
                Err(e) => last_err = e,
            }
        }
        match best {
            Some(view) => {
                let epoch = view.epoch;
                let ring = view.ring();
                // Sessions to addresses that left the view would only
                // ever reach a departed node.
                self.sessions
                    .retain(|addr| view.members.iter().any(|m| m.addr == *addr));
                self.view = Some((view, ring));
                Ok(epoch)
            }
            None => Err(last_err),
        }
    }

    /// Routes one verify request to completion without a router:
    /// checked attempt at the locally-computed owner, view refresh on
    /// `wrong_shard`, unchecked failover across all known members when
    /// checked routing cannot converge or the owner is unreachable.
    pub fn verify(&mut self, req: &VerifyRequest) -> Result<VerifyReply, ClientError> {
        if self.view.is_none() {
            self.refresh_view()?;
        }
        let mut checked = req.clone();
        checked.check_owner = true;
        let fp = crate::view::routing_fingerprint(req);
        for _ in 0..MAX_STALE_RETRIES {
            let Some((view, ring)) = &self.view else {
                break;
            };
            if ring.is_empty() {
                break;
            }
            let owner = ring.owner(fp);
            let Some(addr) = view.addr_of(owner) else {
                break;
            };
            let held_epoch = view.epoch;
            match self.sessions.verify(addr, &checked) {
                Ok(reply) => return Ok(reply),
                Err(ClientError::WrongShard { epoch, .. }) => {
                    // The refuser's view disagrees with ours. Refreshing
                    // keeps the highest epoch reachable — including the
                    // refuser's. If that still is not fresher than what
                    // we already routed by, views genuinely disagree at
                    // our freshest knowledge; stop checking and fail
                    // over unchecked.
                    let refreshed = self.refresh_view()?;
                    if refreshed <= held_epoch && refreshed < epoch {
                        break;
                    }
                }
                Err(ClientError::Io(_) | ClientError::Timeout) => {
                    // Owner unreachable: the membership may have moved
                    // on without us. Refresh best-effort, then fail over
                    // unchecked — a request must not hang on one corpse.
                    let _ = self.refresh_view();
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let addrs: Vec<std::net::SocketAddr> = match &self.view {
            Some((view, _)) if !view.members.is_empty() => {
                view.members.iter().map(|m| m.addr).collect()
            }
            _ => self.bootstrap.clone(),
        };
        TcpClient::verify_with_failover(&addrs, self.read_timeout, req, &self.retry)
    }
}
