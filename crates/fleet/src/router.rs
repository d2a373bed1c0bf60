//! The front-end router: fingerprint → owning node → forward.
//!
//! The router is the only code that places requests. Routing is
//! **content-addressed**: the router computes the same canonical
//! fingerprint the engine computes (same resolution, same
//! normalization) and hands it to the rendezvous placement in
//! [`crate::ring`], so every identical request lands on the same node —
//! which is what turns per-node request coalescing into *fleet-wide*
//! coalescing: one hot property means one owner, one leader, one
//! verification, however many clients stampede. Nodes do not know the
//! placement and verify whatever they are sent, so a client that
//! bypasses the router still gets a correct verdict, only without the
//! cache concentration.
//!
//! # Failure model
//!
//! Forwards travel over pooled sessions ([`SessionPool`]). A reused
//! session that fails at the transport level is first retried on a
//! fresh connection, so a socket that went stale while idle never
//! counts against the node. A forward that fails at the transport
//! level on a fresh connection (dead socket, timeout, EOF mid-frame)
//! is retried once more; if the node still does not answer it is
//! **marked dead**: removed from the placement (epoch bump), its
//! journal replayed to the survivors (every completed result it had
//! persisted is re-installed through the validating replication path),
//! and the request fails over to the new owner.
//! Typed refusals (admission, bad property, overload with retry-after)
//! are relayed to the caller — they are answers, not failures.
//!
//! The [`Hook::FleetForward`] fault point lets `wave-chaos` drop or
//! delay forwards (a soft partition): a dropped forward fails over for
//! that request only, without declaring the owner dead. Rendezvous
//! placement sends it to the member that would own it if the owner
//! died, so a soft partition and a death fail over to the same node.
//!
//! # Membership (wave-mesh)
//!
//! The router is the membership **authority**: every change (death,
//! retire, re-join) bumps the placement epoch. The heartbeat plane
//! ([`crate::heartbeat`]) feeds suspicion in ([`Router::set_suspect`])
//! and executes deaths through [`Router::mark_dead`]; a restarted or
//! new node comes back through [`Router::join`], which replays the
//! existing members' journals into the joiner **before** adding it to
//! the placement — the inverse of the death path, and the order is what
//! guarantees a re-join never costs a verdict: by the time any
//! fingerprint moves onto the joiner, every outcome the fleet persisted
//! for it is already installed there.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use wave_serve::client::{ClientError, RetryPolicy, SessionPool, TcpClient, VerifyReply};
use wave_serve::codec::VerifyRequest;
use wave_serve::faults::{Fault, Faults, Hook};

use crate::ring::Ring;
use crate::shipper::tail_lines;

pub use wave_serve::engine::routing_fingerprint;

/// One fleet member as the router sees it.
#[derive(Clone, Debug)]
pub struct NodeHandle {
    /// Shard id (also the engine's `shard` and the placement id).
    pub id: u32,
    /// Where the node's wave-serve protocol listens.
    pub addr: SocketAddr,
    /// The node's cache journal, when the router can read it — enables
    /// journal replay after a kill. `None` for remote nodes.
    pub journal: Option<PathBuf>,
}

/// Monotonic router counters.
#[derive(Default)]
pub struct RouterCounters {
    /// Requests forwarded to an owner node.
    pub forwards: AtomicU64,
    /// Requests re-routed to a successor (dropped forward or dead
    /// owner).
    pub failovers: AtomicU64,
    /// Nodes declared dead after failed forwards (or by a kill drill).
    pub nodes_marked_dead: AtomicU64,
    /// Journal records replayed to survivors after node deaths.
    pub replayed_records: AtomicU64,
    /// Nodes that joined (or re-joined) a running fleet.
    pub rejoins: AtomicU64,
}

struct RouterState {
    ring: Ring,
    nodes: HashMap<u32, NodeHandle>,
    /// Missed-heartbeat counts for members under suspicion. Alive
    /// members are absent; a member is only ever *executed* through
    /// `mark_dead`, after the confirm probe also fails.
    suspects: HashMap<u32, u32>,
    /// Members declared dead and not (yet) re-joined.
    dead: HashSet<u32>,
}

/// The fleet front end.
pub struct Router {
    state: Mutex<RouterState>,
    faults: Faults,
    read_timeout: Duration,
    retry: RetryPolicy,
    /// Idle sessions for forwards. Membership changes purge the
    /// address they touch; probes, replays and stats always open a
    /// fresh connection.
    sessions: SessionPool,
    /// Monotonic counters for fleet stats.
    pub counters: RouterCounters,
}

impl Router {
    /// A router over the given nodes, with a fault plane for the
    /// forward/ship hook points (pass [`Faults::none`] in production).
    pub fn new(nodes: Vec<NodeHandle>, faults: Faults) -> Router {
        let ring = Ring::new(nodes.iter().map(|n| n.id));
        let nodes = nodes.into_iter().map(|n| (n.id, n)).collect();
        let read_timeout = Duration::from_secs(30);
        Router {
            state: Mutex::new(RouterState {
                ring,
                nodes,
                suspects: HashMap::new(),
                dead: HashSet::new(),
            }),
            faults,
            read_timeout,
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(20),
                cap: Duration::from_millis(200),
                budget: Duration::from_secs(2),
                seed: 0x666c_6565, // "flee(t)"
            },
            sessions: SessionPool::new(read_timeout),
            counters: RouterCounters::default(),
        }
    }

    /// Live node handles, ascending by id.
    pub fn nodes(&self) -> Vec<NodeHandle> {
        let st = self.state.lock().expect("router poisoned");
        let mut out: Vec<NodeHandle> = st.nodes.values().cloned().collect();
        out.sort_by_key(|n| n.id);
        out
    }

    /// The forwarding session pool (idle-session counts per address).
    pub fn sessions(&self) -> &SessionPool {
        &self.sessions
    }

    /// The current placement epoch (bumped by every membership change).
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("router poisoned").ring.epoch()
    }

    /// Records `missed` consecutive missed heartbeats for a member.
    /// Suspicion is bookkeeping only: the member stays in the placement
    /// and keeps serving until [`mark_dead`](Router::mark_dead).
    pub fn set_suspect(&self, id: u32, missed: u32) {
        let mut st = self.state.lock().expect("router poisoned");
        if st.nodes.contains_key(&id) {
            st.suspects.insert(id, missed);
        }
    }

    /// Clears suspicion after a successful heartbeat or confirm probe.
    pub fn clear_suspect(&self, id: u32) {
        let mut st = self.state.lock().expect("router poisoned");
        st.suspects.remove(&id);
    }

    /// The successors a node ships its journal to, as live handles.
    /// Deterministic in the member set, so replication converges: the
    /// R=1 successor relation is a single cycle over the members in id
    /// order, and receivers re-journal what they install.
    pub fn successors_of(&self, id: u32, r: usize) -> Vec<NodeHandle> {
        let st = self.state.lock().expect("router poisoned");
        st.ring
            .successors(id, r)
            .into_iter()
            .filter_map(|s| st.nodes.get(&s).cloned())
            .collect()
    }

    /// Admits a node (new, or restarted after a death) into the fleet.
    ///
    /// Order matters and is the whole correctness argument:
    ///
    /// 1. **Replay first.** Every current member's journal is tailed
    ///    and replicated into the joiner through the validating path,
    ///    recording the cursor reached per peer. The joiner restarts
    ///    from its own on-disk journal too, so nothing it paid for
    ///    before the crash is lost either.
    /// 2. **Then re-place.** The placement adds the node (epoch bump);
    ///    fingerprints move onto the joiner only now, when every
    ///    persisted verdict for them is already installed there.
    /// 3. **Delta replay.** Lines the peers appended during step 1 are
    ///    shipped from the recorded cursors — the race window between
    ///    replay and re-placement is closed by a second, idempotent
    ///    pass.
    ///
    /// Idempotent for an already-present member (refreshes the handle's
    /// address without an epoch bump).
    pub fn join(&self, handle: NodeHandle) {
        let (already, peers) = {
            let st = self.state.lock().expect("router poisoned");
            let peers: Vec<NodeHandle> = st
                .nodes
                .values()
                .filter(|n| n.id != handle.id)
                .cloned()
                .collect();
            (st.nodes.contains_key(&handle.id), peers)
        };
        // Whatever listened at the joiner's address before is not the
        // joiner: forwards to it start on fresh connections.
        self.sessions.purge(handle.addr);
        // Step 1: replay every peer's journal into the joiner, keeping
        // the cursor each replay reached.
        let mut cursors: Vec<(PathBuf, wave_serve::cache::JournalCursor)> = Vec::new();
        for peer in &peers {
            if let Some(path) = &peer.journal {
                let (lines, cursor) = tail_lines(path, wave_serve::cache::JournalCursor::default());
                self.ship_lines(&handle, &lines);
                cursors.push((path.clone(), cursor));
            }
        }
        // Step 2: re-place. The epoch bumps exactly once per join.
        {
            let mut st = self.state.lock().expect("router poisoned");
            if already {
                st.nodes.insert(handle.id, handle.clone());
            } else {
                st.ring.add_node(handle.id);
                st.nodes.insert(handle.id, handle.clone());
            }
            st.dead.remove(&handle.id);
            st.suspects.remove(&handle.id);
        }
        // Step 3: delta replay from the recorded cursors (receivers
        // skip byte-identical records, so overlap is harmless).
        for (path, cursor) in cursors {
            let (lines, _) = tail_lines(&path, cursor);
            self.ship_lines(&handle, &lines);
        }
        if !already {
            self.counters.rejoins.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Ships journal lines to one node through the validating
    /// replication path, honoring the `FleetShip` fault hook. Every
    /// replay — join, retire, death — ships through here.
    fn ship_lines(&self, to: &NodeHandle, lines: &[String]) {
        if lines.is_empty() {
            return;
        }
        let payload: usize = lines.iter().map(String::len).sum();
        match self.faults.decide(Hook::FleetShip, payload) {
            Fault::Delay(d) => std::thread::sleep(d),
            // A dropped replay loses cached results, never answers.
            Fault::Drop => return,
            _ => {}
        }
        if let Ok(mut c) = TcpClient::connect_timeout(to.addr, self.read_timeout) {
            if let Ok((applied, _, _)) = c.replicate(lines) {
                self.counters
                    .replayed_records
                    .fetch_add(applied, Ordering::Relaxed);
            }
        }
    }

    /// The node a request would be forwarded to right now.
    pub fn owner_of(&self, req: &VerifyRequest) -> Option<u32> {
        let st = self.state.lock().expect("router poisoned");
        st.ring.owner_excluding(routing_fingerprint(req), &[])
    }

    /// Routes one request to completion: forward to the owner, fail
    /// over past dropped forwards and dead nodes, relay the answer.
    pub fn submit(&self, req: &VerifyRequest) -> Result<VerifyReply, ClientError> {
        let fp = routing_fingerprint(req);
        // Nodes this *request* must skip (dropped forwards), on top of
        // membership (which deaths shrink as we go).
        let mut skip: Vec<u32> = Vec::new();
        loop {
            let target = {
                let st = self.state.lock().expect("router poisoned");
                match st.ring.owner_excluding(fp, &skip) {
                    Some(id) => st.nodes[&id].clone(),
                    None => {
                        return Err(ClientError::Protocol(
                            "no live node can take this request".into(),
                        ))
                    }
                }
            };
            match self.faults.decide(Hook::FleetForward, 0) {
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Drop => {
                    // Soft partition: this forward is lost. Fail over for
                    // this request only; the owner is not declared dead.
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    skip.push(target.id);
                    continue;
                }
                _ => {}
            }
            self.counters.forwards.fetch_add(1, Ordering::Relaxed);
            match self
                .sessions
                .verify_with_retry(target.addr, req, &self.retry)
            {
                Ok(reply) => return Ok(reply),
                // Transport-dead after retries: declare the node dead,
                // replay its journal, fail over to the successor.
                Err(ClientError::Io(_)) | Err(ClientError::Timeout) => {
                    self.mark_dead(target.id);
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    skip.retain(|id| *id != target.id); // no longer a member
                }
                // Everything else is an answer (refusal, protocol
                // violation worth surfacing), not a dead node.
                Err(e) => return Err(e),
            }
        }
    }

    /// Gracefully retires a live node: its journal is replayed to the
    /// peers **before** the placement drops it, so a request re-routed
    /// to the new owner always finds the cached outcome — administrative
    /// decommission never costs a re-verification (the wave-load
    /// retire-mid drill pins `cold_runs ≤ distinct + cancelled +
    /// failovers` across it). [`mark_dead`](Router::mark_dead) replays
    /// only *after* removal — correct for a crash, where the node is
    /// already gone, but a window where re-routed requests re-verify
    /// cold if the node was alive. The second replay inside
    /// `mark_dead` then catches any line the node appended between the
    /// pre-ship and the removal (receivers skip byte-identical
    /// records, so replaying twice is idempotent).
    pub fn retire(&self, id: u32) {
        let (handle, peers) = {
            let st = self.state.lock().expect("router poisoned");
            let Some(handle) = st.nodes.get(&id).cloned() else {
                return;
            };
            let peers: Vec<NodeHandle> =
                st.nodes.values().filter(|n| n.id != id).cloned().collect();
            (handle, peers)
        };
        self.replay_journal(&handle, &peers);
        self.mark_dead(id);
    }

    /// Declares a node dead: out of the placement, journal replayed to
    /// the survivors. Idempotent; also the entry point for kill drills.
    pub fn mark_dead(&self, id: u32) {
        let (handle, survivors) = {
            let mut st = self.state.lock().expect("router poisoned");
            let Some(handle) = st.nodes.remove(&id) else {
                return;
            };
            // A retired in-process node keeps listening: an idle
            // session would still reach its engine.
            self.sessions.purge(handle.addr);
            st.ring.remove_node(id);
            st.suspects.remove(&id);
            st.dead.insert(id);
            let survivors: Vec<NodeHandle> = st.nodes.values().cloned().collect();
            (handle, survivors)
        };
        self.counters
            .nodes_marked_dead
            .fetch_add(1, Ordering::Relaxed);
        self.replay_journal(&handle, &survivors);
    }

    /// Replays a dead node's persisted journal to every survivor via
    /// the validating replication path. Only complete CRC-framed lines
    /// ship; the receivers re-validate every frame, so a torn or
    /// corrupted journal can lose records but never install wrong ones.
    fn replay_journal(&self, dead: &NodeHandle, survivors: &[NodeHandle]) {
        let Some(path) = &dead.journal else {
            return;
        };
        let (lines, _) = tail_lines(path, wave_serve::cache::JournalCursor::default());
        for peer in survivors {
            self.ship_lines(peer, &lines);
        }
    }

    /// Per-node `stats` replies plus router counters, as JSON text:
    /// `{"router":{...},"nodes":[{"id":0,"stats":{...}},...]}`.
    pub fn fleet_stats(&self) -> String {
        use wave_serve::json::Json;
        let mut nodes = Vec::new();
        for handle in self.nodes() {
            let stats = TcpClient::connect_timeout(handle.addr, self.read_timeout)
                .ok()
                .and_then(|mut c| c.stats().ok())
                .unwrap_or(Json::Null);
            nodes.push(Json::Obj(vec![
                ("id".into(), Json::Int(handle.id as i64)),
                ("stats".into(), stats),
            ]));
        }
        let c = &self.counters;
        let (alive, suspect, dead, ring_epoch) = {
            let st = self.state.lock().expect("router poisoned");
            (
                st.nodes.len().saturating_sub(st.suspects.len()),
                st.suspects.len(),
                st.dead.len(),
                st.ring.epoch(),
            )
        };
        Json::Obj(vec![
            (
                "router".into(),
                Json::Obj(vec![
                    (
                        "forwards".into(),
                        Json::Int(c.forwards.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "failovers".into(),
                        Json::Int(c.failovers.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "nodes_marked_dead".into(),
                        Json::Int(c.nodes_marked_dead.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "replayed_records".into(),
                        Json::Int(c.replayed_records.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "rejoins".into(),
                        Json::Int(c.rejoins.load(Ordering::Relaxed) as i64),
                    ),
                    ("members_alive".into(), Json::Int(alive as i64)),
                    ("members_suspect".into(), Json::Int(suspect as i64)),
                    ("members_dead".into(), Json::Int(dead as i64)),
                    ("ring_epoch".into(), Json::Int(ring_epoch as i64)),
                    ("epoch".into(), Json::Int(ring_epoch as i64)),
                ]),
            ),
            ("nodes".into(), Json::Arr(nodes)),
        ])
        .encode()
    }
}
