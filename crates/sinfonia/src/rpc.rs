//! The memnode RPC surface as an object-safe trait.
//!
//! [`NodeRpc`] abstracts "a memnode the coordinator can talk to": the
//! in-process [`MemNode`] implements it directly (an RPC is a function
//! call, instrumented by [`crate::transport::Transport`]), and
//! [`crate::client::RemoteNode`] implements it over the binary wire
//! protocol ([`crate::wire`]). The cluster stores [`NodeHandle`]s, so the
//! whole coordinator stack — minitransaction execution, recovery,
//! migration fencing, the B-tree above — runs unchanged in either mode;
//! [`crate::cluster::ClusterConfig::transport`] is the only switch.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::lock::TxId;
use crate::memnode::{MemNode, ReplStatus, SingleResult, Unavailable, Vote};
use crate::minitx::{LockPolicy, Shard};
use crate::recovery::NodeMeta;
use crate::wal::WalSegment;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// A shared handle to a memnode, local or remote.
pub type NodeHandle = Arc<dyn NodeRpc>;

/// One member of a batched execution (see [`NodeRpc::exec_batch`]).
pub struct BatchItem<'a, 'b> {
    /// Coordinator-assigned minitransaction id.
    pub txid: TxId,
    /// Lock contention policy.
    pub policy: LockPolicy,
    /// The items destined for this memnode.
    pub shard: &'a Shard<'b>,
}

/// The full memnode surface a coordinator uses, object-safe so local and
/// wire-backed nodes are interchangeable behind [`NodeHandle`].
///
/// Error convention: data-plane calls return [`Unavailable`] when the
/// node is crashed **or unreachable** — a dead connection and a dead
/// process are indistinguishable to a client, and the execution layer's
/// retry/recovery machinery treats them identically.
pub trait NodeRpc: Send + Sync {
    /// This node's id.
    fn id(&self) -> MemNodeId;

    /// Address-space capacity in bytes.
    fn capacity(&self) -> u64;

    /// One-phase (collapsed) minitransaction execution.
    fn exec_single(
        &self,
        txid: TxId,
        shard: &Shard<'_>,
        policy: LockPolicy,
    ) -> Result<SingleResult, Unavailable>;

    /// Executes a batch of independent minitransactions destined for this
    /// node in one round trip, returning per-member results in order.
    /// `service` is the modeled per-shard service time (zero when
    /// disabled; ignored by remote nodes, whose service time is real).
    ///
    /// The default implementation loops [`NodeRpc::exec_single`]; the wire
    /// client overrides it to pack the whole batch into one frame.
    fn exec_batch(
        &self,
        items: &[BatchItem<'_, '_>],
        service: Duration,
    ) -> Vec<Result<SingleResult, Unavailable>> {
        items
            .iter()
            .map(|it| {
                self.occupy(service);
                self.exec_single(it.txid, it.shard, it.policy)
            })
            .collect()
    }

    /// Two-phase prepare: lock, compare, stage. `participants` is the full
    /// participant set, logged for in-doubt resolution.
    fn prepare(
        &self,
        txid: TxId,
        shard: &Shard<'_>,
        policy: LockPolicy,
        participants: &[MemNodeId],
    ) -> Result<Vote, Unavailable>;

    /// Two-phase commit decision (idempotent for unknown ids).
    fn commit(&self, txid: TxId) -> Result<(), Unavailable>;

    /// Two-phase abort decision (idempotent for unknown ids).
    fn abort(&self, txid: TxId) -> Result<(), Unavailable>;

    /// Unsynchronized raw read (bootstrap / GC scans).
    fn raw_read(&self, off: u64, len: u32) -> Result<Bytes, Unavailable>;

    /// Raw bootstrap write.
    fn raw_write(&self, off: u64, data: &[u8]) -> Result<(), Unavailable>;

    /// True if the node is currently crashed (or unreachable).
    fn is_crashed(&self) -> bool;

    /// True while the node's elastic join is in progress.
    fn is_joining(&self) -> bool;

    /// Sets / clears the joining fence.
    fn set_joining(&self, joining: bool);

    /// True while the node is draining for decommissioning.
    fn is_retiring(&self) -> bool;

    /// Sets / clears the retiring fence.
    fn set_retiring(&self, retiring: bool);

    /// Drops any client-side cache of this node's crashed/joining/retiring
    /// flags, forcing the next check to re-learn them (membership-gate
    /// transitions call this). In-process handles read the live atomics
    /// directly and have nothing to drop.
    fn invalidate_cached_flags(&self) {}

    /// Injects a crash (volatile state dropped).
    fn crash(&self);

    /// Recovers from the mirror / disk.
    fn recover(&self);

    /// Models one server's occupancy for an injected service time. Remote
    /// nodes ignore this: their service time is real.
    fn occupy(&self, d: Duration);

    /// Number of currently prepared (in-doubt) transactions.
    fn in_doubt(&self) -> Result<usize, Unavailable> {
        Ok(self.node_meta()?.staged.len())
    }

    /// Recovery metadata for in-doubt resolution. A crashed or
    /// unreachable node has none to give: it answers [`Unavailable`],
    /// never an empty set that would read as "voted no".
    fn node_meta(&self) -> Result<NodeMeta, Unavailable>;

    /// Takes a checkpoint; `Ok(false)` when skipped.
    fn checkpoint(&self) -> io::Result<bool>;

    /// Compares primary and backup images over the probe ranges (test
    /// support).
    fn mirror_consistent(&self, probe: &[(u64, u32)]) -> bool;

    /// Point-in-time snapshot of every metric the node's observability
    /// plane registers (`memnode.*`, `wal.*`, …) — the one channel for a
    /// memnode's counts. Default: empty, for handles with no plane.
    fn obs_snapshot(&self) -> minuet_obs::ObsSnapshot {
        minuet_obs::ObsSnapshot::default()
    }

    /// Recent traces from the node's ring buffer (the slow-op buffer when
    /// `slow`), oldest first. Default: empty.
    fn trace_dump(&self, _max: u32, _slow: bool) -> Vec<minuet_obs::Trace> {
        Vec::new()
    }

    /// Records an epoch announcement (forward-only register); returns the
    /// register's value before the mark. Advisory — see
    /// [`MemNode::epoch_mark`].
    fn epoch_mark(&self, epoch: u64, closing: bool) -> Result<u64, Unavailable>;

    /// Reads up to `max` raw framed redo-log bytes from logical offset
    /// `from`, for replication shipping. Empty (zero tail) on non-durable
    /// nodes.
    fn wal_fetch(&self, from: u64, max: u32) -> Result<WalSegment, Unavailable>;

    /// Incorporates a chunk of a primary's log stream starting at source
    /// offset `from` (see [`MemNode::repl_apply`]); returns the follower's
    /// status after the chunk.
    fn repl_apply(&self, from: u64, frames: &[u8]) -> Result<ReplStatus, Unavailable>;

    /// This node's replication status (watermark / applied txid / tail).
    fn repl_status(&self) -> Result<ReplStatus, Unavailable>;

    /// Downcast to the in-process memnode, when this handle is local.
    fn as_local(&self) -> Option<&MemNode> {
        None
    }
}

impl NodeRpc for MemNode {
    fn id(&self) -> MemNodeId {
        self.id
    }

    fn capacity(&self) -> u64 {
        MemNode::capacity(self)
    }

    fn exec_single(
        &self,
        txid: TxId,
        shard: &Shard<'_>,
        policy: LockPolicy,
    ) -> Result<SingleResult, Unavailable> {
        MemNode::exec_single(self, txid, shard, policy)
    }

    fn prepare(
        &self,
        txid: TxId,
        shard: &Shard<'_>,
        policy: LockPolicy,
        participants: &[MemNodeId],
    ) -> Result<Vote, Unavailable> {
        MemNode::prepare(self, txid, shard, policy, participants)
    }

    fn commit(&self, txid: TxId) -> Result<(), Unavailable> {
        MemNode::commit(self, txid)
    }

    fn abort(&self, txid: TxId) -> Result<(), Unavailable> {
        MemNode::abort(self, txid)
    }

    fn raw_read(&self, off: u64, len: u32) -> Result<Bytes, Unavailable> {
        MemNode::raw_read(self, off, len)
    }

    fn raw_write(&self, off: u64, data: &[u8]) -> Result<(), Unavailable> {
        MemNode::raw_write(self, off, data)
    }

    fn is_crashed(&self) -> bool {
        MemNode::is_crashed(self)
    }

    fn is_joining(&self) -> bool {
        MemNode::is_joining(self)
    }

    fn set_joining(&self, joining: bool) {
        MemNode::set_joining(self, joining)
    }

    fn is_retiring(&self) -> bool {
        MemNode::is_retiring(self)
    }

    fn set_retiring(&self, retiring: bool) {
        MemNode::set_retiring(self, retiring)
    }

    fn crash(&self) {
        MemNode::crash(self)
    }

    fn recover(&self) {
        MemNode::recover(self)
    }

    fn occupy(&self, d: Duration) {
        MemNode::occupy(self, d)
    }

    fn node_meta(&self) -> Result<NodeMeta, Unavailable> {
        MemNode::node_meta(self)
    }

    fn checkpoint(&self) -> io::Result<bool> {
        MemNode::checkpoint(self)
    }

    fn mirror_consistent(&self, probe: &[(u64, u32)]) -> bool {
        MemNode::mirror_consistent(self, probe)
    }

    fn obs_snapshot(&self) -> minuet_obs::ObsSnapshot {
        MemNode::obs_snapshot(self)
    }

    fn trace_dump(&self, max: u32, slow: bool) -> Vec<minuet_obs::Trace> {
        if slow {
            self.obs.slow(max as usize)
        } else {
            self.obs.recent(max as usize)
        }
    }

    fn epoch_mark(&self, epoch: u64, closing: bool) -> Result<u64, Unavailable> {
        MemNode::epoch_mark(self, epoch, closing)
    }

    fn wal_fetch(&self, from: u64, max: u32) -> Result<WalSegment, Unavailable> {
        MemNode::wal_fetch(self, from, max)
    }

    fn repl_apply(&self, from: u64, frames: &[u8]) -> Result<ReplStatus, Unavailable> {
        MemNode::repl_apply(self, from, frames)
    }

    fn repl_status(&self) -> Result<ReplStatus, Unavailable> {
        MemNode::repl_status(self)
    }

    fn as_local(&self) -> Option<&MemNode> {
        Some(self)
    }
}
