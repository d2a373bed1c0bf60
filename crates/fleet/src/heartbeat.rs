//! The heartbeat membership plane: cheap liveness probes, K-missed-beat
//! suspicion, and confirm-before-kill.
//!
//! A background thread probes every member's `health` command on a
//! seeded-jittered interval (jitter keeps probes from synchronizing
//! into a thundering herd against loaded nodes). A failed probe is a
//! *missed beat*, not a death: the member moves alive → suspect and
//! stays in the placement. Only after `K_MISSED` (3) consecutive misses
//! does the prober escalate — and even then it runs **one more
//! synchronous confirm probe that bypasses the fault plane** before
//! calling [`Router::mark_dead`]. The confirm is what makes the plane
//! safe under chaos: a node whose probes are being dropped or corrupted
//! by [`Hook::FleetHealth`] faults is slow-to-observe, not dead, and the
//! direct confirm sees it answer. A member is only ever executed when
//! a real connection to a real port fails twice over.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wave_serve::client::TcpClient;
use wave_serve::faults::{Fault, Faults, Hook};

use crate::router::{NodeHandle, Router};

/// Consecutive missed beats before the confirm-before-kill probe.
const K_MISSED: u32 = 3;

/// Connect/read timeout for a single probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// Tuning for the heartbeat prober.
#[derive(Clone, Debug)]
pub struct HeartbeatOptions {
    /// Base probe interval; actual sleeps jitter in `[interval/2,
    /// 3*interval/2)` from the seed.
    pub interval: Duration,
    /// Seed for the probe jitter (deterministic schedules in drills).
    pub seed: u64,
}

impl Default for HeartbeatOptions {
    fn default() -> HeartbeatOptions {
        HeartbeatOptions {
            interval: Duration::from_millis(100),
            seed: 0x6265_6174, // "beat"
        }
    }
}

/// Monotonic heartbeat counters (exposed for drills).
#[derive(Default)]
pub struct HeartbeatCounters {
    /// Probes attempted (including faulted ones).
    pub probes: AtomicU64,
    /// Probes that missed (fault or transport failure).
    pub missed: AtomicU64,
    /// Confirm probes that saved a suspect from execution.
    pub confirms_cleared: AtomicU64,
    /// Confirm probes that failed: members actually marked dead.
    pub kills: AtomicU64,
}

/// A running heartbeat prober. Dropping stops it.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Counters shared with the prober thread.
    pub counters: Arc<HeartbeatCounters>,
}

impl Heartbeat {
    /// Starts the prober over the router's live members. The fault
    /// plane applies to ordinary probes only — confirm probes go
    /// straight to the socket, by design.
    pub fn start(router: Arc<Router>, faults: Faults, opts: HeartbeatOptions) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(HeartbeatCounters::default());
        let thread_stop = Arc::clone(&stop);
        let thread_counters = Arc::clone(&counters);
        let handle = std::thread::Builder::new()
            .name("wave-heartbeat".into())
            .spawn(move || run(router, faults, opts, thread_stop, thread_counters))
            .expect("spawn heartbeat thread");
        Heartbeat {
            stop,
            handle: Some(handle),
            counters,
        }
    }

    /// Stops the prober and joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.halt();
    }
}

/// xorshift64* — enough randomness for probe jitter, zero dependencies.
fn next_jitter(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn run(
    router: Arc<Router>,
    faults: Faults,
    opts: HeartbeatOptions,
    stop: Arc<AtomicBool>,
    counters: Arc<HeartbeatCounters>,
) {
    let mut jitter = opts.seed | 1;
    let mut missed: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    while !stop.load(Ordering::Relaxed) {
        // Jittered sleep in [interval/2, 3*interval/2), in small slices
        // so a stop request is honored promptly.
        let base = opts.interval.as_millis().max(1) as u64;
        let sleep_ms = base / 2 + next_jitter(&mut jitter) % base.max(1);
        let mut slept = 0;
        while slept < sleep_ms && !stop.load(Ordering::Relaxed) {
            let slice = (sleep_ms - slept).min(20);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let members = router.nodes();
        missed.retain(|id, _| members.iter().any(|m| m.id == *id));
        for member in members {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            probe_member(&router, &faults, &counters, &mut missed, &member);
        }
    }
}

fn probe_member(
    router: &Router,
    faults: &Faults,
    counters: &HeartbeatCounters,
    missed: &mut std::collections::HashMap<u32, u32>,
    member: &NodeHandle,
) {
    counters.probes.fetch_add(1, Ordering::Relaxed);
    // The fault plane sits on the *probe path*, not the node: a Drop or
    // Corrupt fault means this beat is lost in flight, a Delay means a
    // slow network leg.
    let beat = match faults.decide(Hook::FleetHealth, 0) {
        Fault::Drop | Fault::Corrupt { .. } => false,
        Fault::Delay(d) => {
            std::thread::sleep(d);
            probe(member)
        }
        _ => probe(member),
    };
    if beat {
        missed.remove(&member.id);
        router.clear_suspect(member.id);
    } else {
        counters.missed.fetch_add(1, Ordering::Relaxed);
        let n = missed.entry(member.id).or_insert(0);
        *n += 1;
        router.set_suspect(member.id, *n);
        if *n >= K_MISSED {
            // Confirm-before-kill: one synchronous probe that
            // deliberately bypasses the fault plane. A slow node
            // under load is never executed for a dropped packet.
            if probe(member) {
                counters.confirms_cleared.fetch_add(1, Ordering::Relaxed);
                missed.remove(&member.id);
                router.clear_suspect(member.id);
            } else {
                counters.kills.fetch_add(1, Ordering::Relaxed);
                missed.remove(&member.id);
                router.mark_dead(member.id);
            }
        }
    }
}

/// One direct probe: fresh connection, `health` round trip. True when
/// the node answered with a well-formed health reply.
fn probe(member: &NodeHandle) -> bool {
    TcpClient::connect_timeout(member.addr, PROBE_TIMEOUT).is_ok_and(|mut c| c.health().is_ok())
}
