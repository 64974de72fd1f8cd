//! Elastic scale-out: online memnode addition, live node migration, and
//! drain — exercised under concurrent workloads and crash injection.
//!
//! The deterministic stress test gives every writer a disjoint key range
//! and a fixed operation sequence, so the final tree must equal a
//! single-threaded model regardless of interleaving with the background
//! add/rebalance; snapshots frozen mid-migration are re-scanned after the
//! dust settles and must be byte-identical.

use minuet::core::alloc::{AllocState, FreeSegment, NIL_SLOT};
use minuet::dyntx::decode_obj;
use minuet::sinfonia::{ClusterConfig, DurabilityConfig, MemNodeId, SyncMode};
use minuet::{occupancy, MinuetCluster, NodePtr, TreeConfig};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;
type Scanned = Vec<(u64, Vec<(Vec<u8>, Vec<u8>)>)>;

fn key(writer: usize, i: u64) -> Vec<u8> {
    format!("w{writer}-{i:05}").into_bytes()
}

#[test]
fn rebalance_stress_matches_model() {
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.max_memnodes = 4;
    let mc = MinuetCluster::new(2, 1, cfg);

    const WRITERS: usize = 3;
    const OPS: u64 = 500;
    let stop = Arc::new(AtomicBool::new(false));

    // Background elasticity: grow the cluster and rebalance while the
    // workload runs.
    let elastic = {
        let mc = mc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            // Grow unconditionally (the workload may finish first); keep
            // rebalancing while it runs, and once more after it stops.
            for _ in 0..2 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                mc.add_memnode().unwrap();
                mc.rebalance().unwrap();
            }
            while !stop.load(Ordering::Relaxed) {
                mc.rebalance().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            mc.rebalance().unwrap()
        })
    };

    // Scanner: freezes snapshots mid-run and records what each returned.
    let scanner = {
        let mc = mc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut seen: Scanned = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let info = p.create_snapshot(0).unwrap();
                let got = p.scan_at(0, info.frozen_sid, b"", usize::MAX).unwrap();
                seen.push((info.frozen_sid, got));
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            seen
        })
    };

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let mc = mc.clone();
        handles.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut model: Model = BTreeMap::new();
            let mut rng: u64 = 0xC0FFEE ^ (w as u64);
            for i in 0..OPS {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let k = key(w, rng % 200);
                if rng.is_multiple_of(5) {
                    let got = p.remove(0, &k).unwrap();
                    let want = model.remove(&k);
                    assert_eq!(got, want, "writer {w} op {i}");
                } else {
                    let v = i.to_le_bytes().to_vec();
                    let got = p.put(0, k.clone(), v.clone()).unwrap();
                    let want = model.insert(k, v);
                    assert_eq!(got, want, "writer {w} op {i}");
                }
            }
            model
        }));
    }

    let mut expect: Model = BTreeMap::new();
    for h in handles {
        expect.extend(h.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    let final_report = elastic.join().unwrap();
    let snaps = scanner.join().unwrap();
    let _ = final_report;

    // Final state equals the single-threaded model.
    let mut p = mc.proxy();
    let got = p.scan_serializable(0, b"", usize::MAX).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        expect.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
    assert_eq!(got, want);

    // Historical snapshots taken mid-migration still read exactly what
    // they read when frozen.
    assert!(!snaps.is_empty());
    for (sid, then) in &snaps {
        let now = p.scan_at(0, *sid, b"", usize::MAX).unwrap();
        assert_eq!(&now, then, "snapshot {sid} diverged after migrations");
    }

    // The cluster actually grew and absorbed load.
    assert_eq!(mc.n_memnodes(), 4);
    let occ = occupancy(&mc, 0).unwrap();
    assert!(
        occ[2].live > 0 && occ[3].live > 0,
        "added memnodes absorbed no load: {occ:?}"
    );
    assert!(mc.migration.snapshot().completed > 0);
}

#[test]
fn drain_empties_memnode_under_concurrent_load() {
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.max_memnodes = 3;
    // Transport-selectable: under MINUET_TRANSPORT=wire the drain's
    // retiring flip travels as a `SetRetiring` RPC and every client
    // learns it through the piggybacked flag cache, so this exercises
    // cache invalidation against a live membership change.
    let mc = common::cluster(3, 1, cfg);
    {
        let mut p = mc.proxy();
        for i in 0..400u64 {
            p.put(0, key(0, i), vec![1]).unwrap();
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for w in 0..2 {
        let mc = mc.clone();
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut rng: u64 = 7 + w;
            let mut failed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let k = key(0, rng % 400);
                if rng.is_multiple_of(3) {
                    if p.put(0, k, rng.to_le_bytes().to_vec()).is_err() {
                        failed += 1;
                    }
                } else if p.get(0, &k).is_err() {
                    failed += 1;
                }
            }
            failed
        }));
    }

    let drained = MemNodeId(1);
    let moved = mc.drain(drained).unwrap();
    assert!(moved > 0);
    stop.store(true, Ordering::Relaxed);
    let failures: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(failures, 0, "operations failed during drain");

    // With the workload quiesced the drained memnode holds zero live
    // slots (in-place updates on it stopped once everything migrated,
    // and retiring placement keeps new allocations away).
    let moved2 = mc.drain(drained).unwrap(); // sweep up any late CoW stragglers
    let _ = moved2;
    let occ = occupancy(&mc, 0).unwrap();
    assert_eq!(occ[drained.index()].live, 0, "{occ:?}");
    assert!(occ[drained.index()].retiring);

    // Everything still reads.
    let mut p = mc.proxy();
    let got = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(got.len(), 400);
}

#[test]
fn add_memnode_guardrails() {
    // Layout ceiling.
    let cfg = TreeConfig::small_nodes(8); // max_memnodes = 0 → fixed size
    let mc = MinuetCluster::new(2, 1, cfg);
    assert!(matches!(
        mc.add_memnode(),
        Err(minuet::Error::ClusterAtCapacity { max: 2 })
    ));

    // FullValidation mode cannot scale out (its replicated seqno table is
    // the all-memnode coupling the paper's §3 criticizes).
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.max_memnodes = 4;
    cfg.mode = minuet::ConcurrencyMode::FullValidation;
    let mc = MinuetCluster::new(2, 1, cfg);
    assert!(matches!(
        mc.add_memnode(),
        Err(minuet::Error::ElasticityUnsupported(_))
    ));
}

/// Walks a memnode's free list, returning every slot it carries.
/// Panics on a malformed list.
fn free_list_slots(mc: &MinuetCluster, tree: u32, mem: MemNodeId) -> Vec<u32> {
    let layout = *mc.layout(tree);
    let node = mc.sinfonia.node(mem);
    let state_raw = node.raw_read(layout.alloc_state(mem).off, 64).unwrap();
    let state = AllocState::decode(&decode_obj(&state_raw).data);
    let mut out = Vec::new();
    let mut cur = state.free_head;
    while cur != NIL_SLOT {
        let obj = layout.node_obj(NodePtr { mem, slot: cur });
        let raw = node.raw_read(obj.off, obj.cap).unwrap();
        let seg = FreeSegment::decode(&decode_obj(&raw).data)
            .expect("free-list head slot must decode as a segment");
        out.push(cur);
        out.extend_from_slice(&seg.slots);
        cur = seg.next;
    }
    assert_eq!(out.len() as u32, state.free_count, "free_count mismatch");
    out
}

#[test]
fn crash_between_reserve_and_swap_recovers_cleanly() {
    let dur = DurabilityConfig::ephemeral(
        "migrate-crash",
        SyncMode::GroupCommit {
            window: Duration::ZERO,
        },
    );
    let dir = dur.dir.clone().unwrap();
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.max_memnodes = 2;
    let sin_cfg = ClusterConfig {
        memnodes: 2,
        ..ClusterConfig::default()
    }
    .with_durability(dur.clone());

    let mut model: Model = BTreeMap::new();
    let src;
    {
        let mc = MinuetCluster::with_cluster_config(sin_cfg.clone(), 1, cfg.clone());
        let mut p = mc.proxy();
        for i in 0..200u64 {
            let k = key(0, i);
            let v = i.to_le_bytes().to_vec();
            p.put(0, k.clone(), v.clone()).unwrap();
            model.insert(k, v);
        }
        // Pick a live node on memnode 0 and run ONLY the reserve phase —
        // then "crash" the whole cluster before the swap.
        let occ = occupancy(&mc, 0).unwrap();
        assert!(occ[0].live > 0);
        src = find_live_slot(&mc, MemNodeId(0));
        let target = p.migrate_reserve(0, src, MemNodeId(1)).unwrap();
        assert_eq!(target.mem, MemNodeId(1));
        mc.sinfonia.crash(MemNodeId(0));
        mc.sinfonia.crash(MemNodeId(1));
        // Cluster object dropped with both memnodes crashed: only the
        // durable state survives.
    }

    let (mc, resolution) = MinuetCluster::restart_from_disk(sin_cfg, 1, cfg).unwrap();
    let _ = resolution;
    let mut p = mc.proxy();

    // The tree is exactly as committed: no key lost, none duplicated.
    let got = p.scan_serializable(0, b"", usize::MAX).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
    assert_eq!(got, want);

    // The orphaned reservation is visible, then reclaimed — exactly once.
    let occ = occupancy(&mc, 0).unwrap();
    assert_eq!(occ[1].migrating, 1, "{occ:?}");
    let reclaimed = p.reclaim_orphaned_reservations(0).unwrap();
    assert_eq!(reclaimed, 1);
    let occ = occupancy(&mc, 0).unwrap();
    assert_eq!(occ[1].migrating, 0);

    // Allocator invariants: free lists are duplicate-free, sized as
    // advertised, and disjoint from live nodes — no leak, no double free.
    for mem in [MemNodeId(0), MemNodeId(1)] {
        let freed = free_list_slots(&mc, 0, mem);
        let unique: HashSet<u32> = freed.iter().copied().collect();
        assert_eq!(unique.len(), freed.len(), "slot on a free list twice");
        let live = live_slot_set(&mc, mem);
        assert!(
            unique.is_disjoint(&live),
            "freed slot still holds a live node"
        );
    }

    // And the interrupted migration can simply be redone to completion.
    let moved = p.migrate_node(0, src, MemNodeId(1)).unwrap();
    assert!(moved.is_some());
    let got = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(got, want);

    drop(p);
    drop(mc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_cluster_recovers_elastic_growth() {
    // Grow a durable cluster online, rebalance onto the new memnode,
    // crash everything — then restart with the ORIGINAL config. Recovery
    // must discover the added memnode from its on-disk state (membership
    // growth is persisted by the node's redo log); otherwise every node
    // migrated onto it would be lost.
    let dur = DurabilityConfig::ephemeral(
        "elastic-growth",
        SyncMode::GroupCommit {
            window: Duration::ZERO,
        },
    );
    let dir = dur.dir.clone().unwrap();
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.max_memnodes = 3;
    let sin_cfg = ClusterConfig {
        memnodes: 2,
        ..ClusterConfig::default()
    }
    .with_durability(dur.clone());

    let mut model: Model = BTreeMap::new();
    {
        let mc = MinuetCluster::with_cluster_config(sin_cfg.clone(), 1, cfg.clone());
        let mut p = mc.proxy();
        for i in 0..300u64 {
            let k = key(0, i);
            let v = i.to_le_bytes().to_vec();
            p.put(0, k.clone(), v.clone()).unwrap();
            model.insert(k, v);
        }
        mc.add_memnode().unwrap();
        let report = mc.rebalance().unwrap();
        assert!(report.moved > 0);
        let occ = occupancy(&mc, 0).unwrap();
        assert!(occ[2].live > 0, "{occ:?}");
        for id in [0, 1, 2] {
            mc.sinfonia.crash(MemNodeId(id));
        }
    }

    // Restart with the pre-growth config: memnodes = 2.
    let (mc, _res) = MinuetCluster::restart_from_disk(sin_cfg, 1, cfg).unwrap();
    assert_eq!(mc.n_memnodes(), 3, "elastic growth lost by recovery");
    let mut p = mc.proxy();
    let got = p.scan_serializable(0, b"", usize::MAX).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
    assert_eq!(got, want);
    // The recovered member is fully seeded (no leftover join marker), so
    // it serves replicated reads and future joins are not blocked.
    assert!(mc.sinfonia.joining_node().is_none());

    drop(p);
    drop(mc);
    let _ = std::fs::remove_dir_all(&dir);
}

fn find_live_slot(mc: &Arc<MinuetCluster>, mem: MemNodeId) -> NodePtr {
    let layout = *mc.layout(0);
    let node = mc.sinfonia.node(mem);
    let state_raw = node.raw_read(layout.alloc_state(mem).off, 64).unwrap();
    let bump = AllocState::decode(&decode_obj(&state_raw).data).bump;
    for slot in 0..bump {
        let ptr = NodePtr { mem, slot };
        let obj = layout.node_obj(ptr);
        let raw = node.raw_read(obj.off, obj.cap).unwrap();
        if minuet::Node::decode(&decode_obj(&raw).data).is_ok() {
            return ptr;
        }
    }
    panic!("no live slot on {mem}");
}

fn live_slot_set(mc: &Arc<MinuetCluster>, mem: MemNodeId) -> HashSet<u32> {
    let layout = *mc.layout(0);
    let node = mc.sinfonia.node(mem);
    let state_raw = node.raw_read(layout.alloc_state(mem).off, 64).unwrap();
    let bump = AllocState::decode(&decode_obj(&state_raw).data).bump;
    (0..bump)
        .filter(|&slot| {
            let obj = layout.node_obj(NodePtr { mem, slot });
            let raw = node.raw_read(obj.off, obj.cap).unwrap();
            minuet::Node::decode(&decode_obj(&raw).data).is_ok()
        })
        .collect()
}
