//! Launching fleets: in-process ([`LocalFleet`]) for benchmarks and
//! tests that need engine-counter introspection, and child-process
//! ([`ProcessFleet`]) for drills that need a *real* `SIGKILL` — a dead
//! process, a torn journal, a socket that resets mid-frame.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::faults::Faults;
use wave_serve::server::Server;

use crate::heartbeat::{Heartbeat, HeartbeatOptions};
use crate::router::{NodeHandle, Router};
use crate::shipper::Shipper;

/// Fleet-wide launch options.
#[derive(Clone)]
pub struct FleetOptions {
    /// Worker threads per node.
    pub workers_per_node: usize,
    /// Result-cache byte budget per node.
    pub cache_bytes: usize,
    /// Fault plane for the router and shipper (fleet hooks).
    pub fleet_faults: Faults,
    /// Fault plane for each node's engine (worker/journal hooks).
    pub node_faults: Faults,
    /// How often the shipper tails and ships journals.
    pub ship_interval: Duration,
    /// Journal directory; a fresh temp dir when `None`.
    pub dir: Option<PathBuf>,
    /// Heartbeat prober tuning; `None` disables the membership plane
    /// (drills that drive `mark_dead`/`join` by hand).
    pub heartbeat: Option<HeartbeatOptions>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            workers_per_node: 2,
            cache_bytes: 8 * 1024 * 1024,
            fleet_faults: Faults::none(),
            node_faults: Faults::none(),
            ship_interval: Duration::from_millis(100),
            dir: None,
            heartbeat: Some(HeartbeatOptions::default()),
        }
    }
}

static LAUNCHES: AtomicU64 = AtomicU64::new(0);

/// A fresh per-launch scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let n = LAUNCHES.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wave-fleet-{tag}-{}-{n}", std::process::id()))
}

/// The journal path for node `id` under `dir`.
pub fn journal_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("node-{id}.ndjson"))
}

/// An in-process fleet: each node is an [`Engine`] plus a TCP accept
/// loop on an ephemeral port, with a journal file in a scratch dir.
pub struct LocalFleet {
    router: Arc<Router>,
    shipper: Shipper,
    heartbeat: Option<Heartbeat>,
    engines: Vec<Arc<Engine>>,
    opts: FleetOptions,
    dir: PathBuf,
}

impl LocalFleet {
    /// Boots `n` nodes and the router/shipper over them.
    pub fn launch(n: usize, opts: FleetOptions) -> io::Result<LocalFleet> {
        assert!(n > 0, "a fleet needs at least one node");
        let dir = opts.dir.clone().unwrap_or_else(|| scratch_dir("local"));
        std::fs::create_dir_all(&dir)?;
        let mut handles = Vec::new();
        let mut engines = Vec::new();
        for id in 0..n as u32 {
            let journal = journal_path(&dir, id);
            let engine = Arc::new(Engine::new(EngineOptions {
                workers: opts.workers_per_node,
                cache_bytes: opts.cache_bytes,
                persist: Some(journal.clone()),
                faults: opts.node_faults.clone(),
                shard: id,
                ..EngineOptions::default()
            }));
            let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))?;
            let addr = server.local_addr()?;
            std::thread::Builder::new()
                .name(format!("fleet-node-{id}"))
                .spawn(move || {
                    let _ = server.run();
                })?;
            handles.push(NodeHandle {
                id,
                addr,
                journal: Some(journal),
            });
            engines.push(engine);
        }
        let router = Arc::new(Router::new(handles, opts.fleet_faults.clone()));
        let shipper = Shipper::start(
            Arc::clone(&router),
            opts.fleet_faults.clone(),
            opts.ship_interval,
        );
        let heartbeat = opts
            .heartbeat
            .clone()
            .map(|hb| Heartbeat::start(Arc::clone(&router), opts.fleet_faults.clone(), hb));
        Ok(LocalFleet {
            router,
            shipper,
            heartbeat,
            engines,
            opts,
            dir,
        })
    }

    /// The fleet front end.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The background replication pump.
    pub fn shipper(&self) -> &Shipper {
        &self.shipper
    }

    /// The node engines, by shard id — for counter assertions.
    pub fn engines(&self) -> &[Arc<Engine>] {
        &self.engines
    }

    /// The journal scratch directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Gracefully retires a node: pre-ships its journal to the peers,
    /// then re-ranges — a decommission, not a crash, so re-routed
    /// requests find the cached outcomes already installed. (For real
    /// `SIGKILL`, use [`ProcessFleet`]; for crash semantics, call
    /// `router().mark_dead(id)` directly.)
    pub fn retire(&self, id: u32) {
        self.router.retire(id);
    }

    /// The heartbeat prober, when the membership plane is on.
    pub fn heartbeat(&self) -> Option<&Heartbeat> {
        self.heartbeat.as_ref()
    }

    /// Re-joins a previously retired/dead node: a fresh engine restarts
    /// from the **same on-disk journal** (everything it paid for before
    /// the death is warm again), then [`Router::join`] replays the
    /// peers' journals into it before re-adding it to the placement —
    /// so the re-join never costs a verdict and never re-verifies paid
    /// content.
    pub fn rejoin(&mut self, id: u32) -> io::Result<()> {
        let journal = journal_path(&self.dir, id);
        let engine = Arc::new(Engine::new(EngineOptions {
            workers: self.opts.workers_per_node,
            cache_bytes: self.opts.cache_bytes,
            persist: Some(journal.clone()),
            faults: self.opts.node_faults.clone(),
            shard: id,
            ..EngineOptions::default()
        }));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))?;
        let addr = server.local_addr()?;
        std::thread::Builder::new()
            .name(format!("fleet-node-{id}-rejoin"))
            .spawn(move || {
                let _ = server.run();
            })?;
        self.router.join(NodeHandle {
            id,
            addr,
            journal: Some(journal),
        });
        if let Some(slot) = self.engines.get_mut(id as usize) {
            *slot = engine;
        } else {
            self.engines.push(engine);
        }
        Ok(())
    }
}

/// A child-process fleet: each node is a `wave-fleet node` process,
/// killable with a real `SIGKILL` mid-request.
pub struct ProcessFleet {
    router: Arc<Router>,
    shipper: Option<Shipper>,
    heartbeat: Option<Heartbeat>,
    children: HashMap<u32, Child>,
    bin: PathBuf,
    workers: usize,
    dir: PathBuf,
}

impl ProcessFleet {
    /// Spawns `n` node processes from the `wave-fleet` binary at `bin`
    /// (tests use `env!("CARGO_BIN_EXE_wave-fleet")`) and boots the
    /// router/shipper over them.
    pub fn spawn(bin: &Path, n: usize, opts: FleetOptions) -> io::Result<ProcessFleet> {
        assert!(n > 0, "a fleet needs at least one node");
        let dir = opts.dir.clone().unwrap_or_else(|| scratch_dir("proc"));
        std::fs::create_dir_all(&dir)?;
        let mut handles = Vec::new();
        let mut children = HashMap::new();
        for id in 0..n as u32 {
            let journal = journal_path(&dir, id);
            let (child, addr) = spawn_node(bin, id, &journal, opts.workers_per_node)?;
            handles.push(NodeHandle {
                id,
                addr,
                journal: Some(journal),
            });
            children.insert(id, child);
        }
        let router = Arc::new(Router::new(handles, opts.fleet_faults.clone()));
        let shipper = Shipper::start(
            Arc::clone(&router),
            opts.fleet_faults.clone(),
            opts.ship_interval,
        );
        let heartbeat = opts
            .heartbeat
            .clone()
            .map(|hb| Heartbeat::start(Arc::clone(&router), opts.fleet_faults.clone(), hb));
        Ok(ProcessFleet {
            router,
            shipper: Some(shipper),
            heartbeat,
            children,
            bin: bin.to_path_buf(),
            workers: opts.workers_per_node,
            dir,
        })
    }

    /// The fleet front end.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The journal scratch directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `SIGKILL`s node `id` and tells the router it is dead (removal
    /// from the placement + journal replay). Returns false if the node was
    /// already gone.
    pub fn kill(&mut self, id: u32) -> bool {
        let Some(mut child) = self.children.remove(&id) else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        self.router.mark_dead(id);
        true
    }

    /// `SIGKILL`s node `id` **without** telling the router — the
    /// heartbeat-detection drill: the membership plane, not the test,
    /// must notice the death. Returns false if already gone.
    pub fn kill_silent(&mut self, id: u32) -> bool {
        let Some(mut child) = self.children.remove(&id) else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        true
    }

    /// The heartbeat prober, when the membership plane is on.
    pub fn heartbeat(&self) -> Option<&Heartbeat> {
        self.heartbeat.as_ref()
    }

    /// Restarts a killed node from its **on-disk journal** and re-joins
    /// it through [`Router::join`]: peers' journals replay in first,
    /// then the placement takes it back — the node comes back warm and
    /// the fleet never re-verifies paid content.
    pub fn restart(&mut self, id: u32) -> io::Result<()> {
        let journal = journal_path(&self.dir, id);
        let (child, addr) = spawn_node(&self.bin, id, &journal, self.workers)?;
        self.children.insert(id, child);
        self.router.join(NodeHandle {
            id,
            addr,
            journal: Some(journal),
        });
        Ok(())
    }

    /// Stops the membership plane and shipper, then kills every
    /// remaining node.
    pub fn shutdown(mut self) {
        self.heartbeat.take(); // drop joins the prober thread
        self.shipper.take(); // drop joins the pump thread
        for (_, mut child) in self.children.drain() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ProcessFleet {
    fn drop(&mut self) {
        self.heartbeat.take();
        self.shipper.take();
        for (_, child) in self.children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one `wave-fleet node` child on an ephemeral port and scrapes
/// the advertised address from its first stdout line.
fn spawn_node(
    bin: &Path,
    id: u32,
    journal: &Path,
    workers: usize,
) -> io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(bin)
        .arg("node")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shard")
        .arg(id.to_string())
        .arg("--journal")
        .arg(journal)
        .arg("--workers")
        .arg(workers.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("node {id} exited before advertising its address"),
            ));
        }
        if let Some(at) = line.find("listening on ") {
            let addr = line[at + "listening on ".len()..].trim();
            let addr: SocketAddr = addr.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad advertised addr: {e}"),
                )
            })?;
            return Ok((child, addr));
        }
    }
}
