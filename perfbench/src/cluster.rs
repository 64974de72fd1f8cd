//! The system under test: two in-process `MemNodeServer`s (the server
//! code `memnoded` runs) on Unix sockets, a wire-mode `MinuetCluster` in
//! front of them, and the bulk-loaded records.

use minuet_core::{MinuetCluster, TreeConfig};
use minuet_obs::{ObsConfig, ObsSnapshot};
use minuet_sinfonia::{
    ClusterConfig, DurabilityConfig, Endpoint, MemNode, MemNodeId, MemNodeServer, ServerOptions,
    SyncMode, WireConfig,
};
use minuet_workload::encode_key;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Memnodes in every workload.
pub const MEMNODES: usize = 2;
/// Records bulk-loaded before every workload.
pub const RECORDS: u64 = 200_000;
/// Bytes of one YCSB key.
pub const KEY_BYTES: u64 = 14;
/// Bytes of every value.
pub const VALUE_BYTES: usize = 8;
/// Auto-checkpoint threshold of durable memnodes: the default of
/// `DurabilityConfig::checkpoint_log_bytes`.
pub const CHECKPOINT_LOG_BYTES: u64 = 8 << 20;
/// How often the checkpointer polls retained log bytes, as the
/// in-process cluster's checkpoint thread does.
const CHECKPOINT_POLL: Duration = Duration::from_millis(5);
/// Capacity of the client trace buffer: each traced op is claimed by its
/// own client right after it ends, so a few slots per client suffice.
pub const TRACE_BUFFER: usize = 64;

/// How one workload's cluster is built.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Memnodes log every mutation (write(2), never fsync) and
    /// checkpoint at [`CHECKPOINT_LOG_BYTES`].
    pub durable: bool,
    /// Proxy node-cache capacity, in nodes.
    pub node_cache: usize,
}

/// The benches' tree configuration: 4 kB nodes.
pub fn tree_config(spec: ClusterSpec) -> TreeConfig {
    TreeConfig {
        layout: minuet_core::LayoutParams {
            node_payload: 4096,
            slots_per_mem: 1 << 15,
            max_snapshots: 1 << 16,
        },
        node_cache_capacity: spec.node_cache,
        ..TreeConfig::default()
    }
}

/// The loaded records, sorted by key. Values derive from `seed`.
pub fn records(seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..RECORDS)
        .map(|r| (encode_key(r), (r ^ seed).to_le_bytes().to_vec()))
        .collect();
    pairs.sort();
    pairs
}

/// A running cluster with its loaded tree.
pub struct Cluster {
    pub mc: Arc<MinuetCluster>,
    pub servers: Vec<MemNodeServer>,
    pub checkpointer: Option<Checkpointer>,
    /// Cluster start plus bulk load.
    pub setup: Duration,
    /// The `bulk_load` call alone.
    pub bulk_load: Duration,
    dir: PathBuf,
}

impl Cluster {
    /// Starts the servers and the cluster in `dir` (a fresh directory for
    /// sockets and logs) and bulk-loads `pairs`.
    pub fn start(
        spec: ClusterSpec,
        dir: &Path,
        pairs: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let cfg = tree_config(spec);
        let capacity = MinuetCluster::required_node_capacity(&cfg, 1, MEMNODES);
        let t0 = Instant::now();
        let mut servers = Vec::new();
        let mut endpoints = Vec::new();
        for i in 0..MEMNODES {
            let id = MemNodeId(i as u16);
            let node = if spec.durable {
                let dcfg = DurabilityConfig {
                    dir: Some(dir.join("wal")),
                    sync: SyncMode::None,
                    checkpoint_log_bytes: CHECKPOINT_LOG_BYTES,
                };
                MemNode::durable(id, capacity, &dcfg)
                    .map_err(|e| format!("opening the log of memnode {i}: {e}"))?
            } else {
                MemNode::new(id, capacity)
            };
            let ep = Endpoint::Unix(dir.join(format!("m{i}.sock")));
            let server = MemNodeServer::spawn(Arc::new(node), &ep, ServerOptions::default())
                .map_err(|e| format!("starting memnode {i} on {ep}: {e}"))?;
            servers.push(server);
            endpoints.push(ep);
        }
        let sin = ClusterConfig::with_memnodes(MEMNODES)
            .with_wire_transport(endpoints, WireConfig::default())
            .with_obs(ObsConfig {
                sample_every: 0,
                slow_op_ns: 0,
                trace_buffer: TRACE_BUFFER,
            });
        let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);
        let t_load = Instant::now();
        let loaded = mc
            .proxy()
            .bulk_load(0, pairs)
            .map_err(|e| format!("bulk load: {e}"))?;
        let bulk_load = t_load.elapsed();
        let setup = t0.elapsed();
        if loaded as u64 != RECORDS {
            return Err(format!("bulk load stored {loaded} of {RECORDS} records"));
        }
        let checkpointer = spec
            .durable
            .then(|| Checkpointer::spawn(servers.iter().map(|s| s.node().clone()).collect()));
        Ok(Cluster {
            mc,
            servers,
            checkpointer,
            setup,
            bulk_load,
            dir: dir.to_path_buf(),
        })
    }

    /// Registry snapshots of every memnode, in id order.
    pub fn memnode_snapshots(&self) -> Vec<ObsSnapshot> {
        self.servers
            .iter()
            .map(|s| s.node().obs.registry.snapshot())
            .collect()
    }

    /// Checkpoints taken by every memnode so far.
    pub fn checkpoints(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.node().checkpoint_count())
            .sum()
    }

    /// Stops the checkpointer, the cluster and the servers, and removes
    /// the directory.
    pub fn stop(self) -> Result<(), String> {
        let Cluster {
            mc,
            servers,
            checkpointer,
            dir,
            ..
        } = self;
        let ckpt_err = checkpointer.map(Checkpointer::stop).unwrap_or(Ok(()));
        drop(mc);
        for s in &servers {
            s.shutdown();
        }
        drop(servers);
        let _ = std::fs::remove_dir_all(&dir);
        ckpt_err
    }
}

/// The durable memnodes' auto-checkpoint. Neither `memnoded` nor a wire
/// cluster runs one, so the benchmark applies the in-process cluster's
/// policy to the servers' nodes: checkpoint a node whose retained log
/// exceeds [`CHECKPOINT_LOG_BYTES`].
pub struct Checkpointer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), String>>,
    /// Wall time of each checkpoint taken, in nanoseconds.
    pub times: Arc<Mutex<Vec<u64>>>,
}

impl Checkpointer {
    fn spawn(nodes: Vec<Arc<MemNode>>) -> Checkpointer {
        let stop = Arc::new(AtomicBool::new(false));
        let times = Arc::new(Mutex::new(Vec::new()));
        let (stop2, times2) = (stop.clone(), times.clone());
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(CHECKPOINT_POLL);
                for node in &nodes {
                    if node.wal_retained_bytes() <= CHECKPOINT_LOG_BYTES {
                        continue;
                    }
                    let t = Instant::now();
                    match node.checkpoint() {
                        Ok(true) => times2
                            .lock()
                            .expect("checkpoint times lock poisoned")
                            .push(t.elapsed().as_nanos() as u64),
                        Ok(false) => {}
                        Err(e) => return Err(format!("checkpoint of memnode {}: {e}", node.id.0)),
                    }
                }
            }
            Ok(())
        });
        Checkpointer {
            stop,
            handle,
            times,
        }
    }

    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .join()
            .unwrap_or_else(|_| Err("checkpointer panicked".to_string()))
    }
}
