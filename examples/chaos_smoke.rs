//! A short randomized chaos run against a durable in-process cluster:
//! concurrent writers under a seeded nemesis arming WAL/checkpoint
//! failpoints and crash-recovering memnodes, followed by a model check
//! (every acked write present, post-storm writes succeed, snapshot scans
//! stable) and a power-cycle from disk.
//!
//! ```sh
//! cargo run --release --example chaos_smoke            # fresh seed
//! MINUET_CHAOS_SEED=42 cargo run --example chaos_smoke # replay
//! ```
//!
//! The seed is printed on every run; a failed run replays exactly.

use minuet::core::{Error, MinuetCluster, TreeConfig};
use minuet::faults::{self, Action, Arm, Site};
use minuet::sinfonia::{ClusterConfig, DurabilityConfig, MemNodeId, OpDeadline, SyncMode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
const KEYS: u64 = 8;
const RUN_MS: u64 = 500;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn key(w: usize, k: u64) -> Vec<u8> {
    format!("w{w}k{k:03}").into_bytes()
}

fn main() {
    let seed = std::env::var("MINUET_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xDEAD_BEEF)
        });
    println!("chaos_smoke seed {seed} (replay: MINUET_CHAOS_SEED={seed})");

    let durability = DurabilityConfig::ephemeral(
        &format!("chaos-smoke-{seed:x}"),
        SyncMode::GroupCommit {
            window: Duration::ZERO,
        },
    );
    let dir = durability.dir.clone().expect("ephemeral dir");
    let tree_cfg = TreeConfig::small_nodes(8);
    let sin = ClusterConfig {
        memnodes: 2,
        durability,
        ..Default::default()
    };
    let mc = MinuetCluster::with_cluster_config(sin, 1, tree_cfg.clone());

    // Preload (seq 1) so the storm works against a real tree.
    let mut p = mc.proxy();
    for w in 0..WORKERS {
        for k in 0..KEYS {
            p.put(0, key(w, k), 1u64.to_le_bytes().to_vec())
                .expect("preload");
        }
    }
    drop(p);

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let (mc, stop) = (mc.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut rng = Rng(seed ^ (w as u64 + 1));
            // Per-key last acked seq; the model this smoke checks.
            let mut acked = vec![1u64; KEYS as usize];
            let mut issued = vec![1u64; KEYS as usize];
            let mut oks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let ki = rng.below(KEYS) as usize;
                let seq = issued[ki] + 1;
                issued[ki] = seq;
                let _scope = (rng.below(100) < 25)
                    .then(|| OpDeadline::after(Duration::from_millis(50 + rng.below(150))).enter());
                match p.put(0, key(w, ki as u64), seq.to_le_bytes().to_vec()) {
                    Ok(_) => {
                        acked[ki] = seq;
                        oks += 1;
                    }
                    Err(Error::Unavailable(_))
                    | Err(Error::DeadlineExceeded)
                    | Err(Error::TooManyRetries { .. }) => {}
                    Err(e) => panic!("worker {w}: unexpected error {e}"),
                }
            }
            (acked, issued, oks)
        }));
    }

    // The nemesis: bounded WAL/checkpoint fault bursts + node blips.
    let menu = [
        (Site::WalAppend, Action::Err),
        (Site::WalAppend, Action::NoSpace),
        (Site::WalAppend, Action::ShortWrite(5)),
        (Site::WalFsync, Action::Err),
        (Site::WalFsync, Action::Delay(Duration::from_millis(3))),
        (Site::CkptWrite, Action::NoSpace),
        (Site::CkptRename, Action::Err),
    ];
    let mut rng = Rng(seed ^ 0x4E4D_E515);
    let deadline = std::time::Instant::now() + Duration::from_millis(RUN_MS);
    while std::time::Instant::now() < deadline {
        match rng.below(4) {
            0 | 1 => {
                let (site, action) = menu[rng.below(menu.len() as u64) as usize];
                faults::arm(site, Arm::new(action).times(1 + rng.below(3) as u32));
                std::thread::sleep(Duration::from_millis(10 + rng.below(25)));
                faults::disarm_all();
            }
            2 => {
                let id = MemNodeId(rng.below(2) as u16);
                mc.sinfonia.crash(id);
                std::thread::sleep(Duration::from_millis(5 + rng.below(20)));
                mc.sinfonia.recover(id);
            }
            _ => std::thread::sleep(Duration::from_millis(10 + rng.below(20))),
        }
    }
    faults::disarm_all();
    for i in 0..2 {
        mc.sinfonia.crash_and_recover(MemNodeId(i));
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_oks = 0u64;
    let mut models = Vec::new();
    for h in handles {
        let (acked, issued, oks) = h.join().expect("worker panicked");
        total_oks += oks;
        models.push((acked, issued));
    }

    // Model check: final value within [last acked, max issued].
    let mut p = mc.proxy();
    for (w, (acked, issued)) in models.iter().enumerate() {
        for k in 0..KEYS as usize {
            let got = p
                .get(0, &key(w, k as u64))
                .expect("post-storm read")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .expect("preloaded key vanished");
            assert!(
                got >= acked[k] && got <= issued[k],
                "key w{w}k{k}: found {got}, acked {}, issued {}",
                acked[k],
                issued[k]
            );
        }
    }

    // Healed: writes succeed, and a frozen snapshot scans stably.
    p.put(0, b"post".to_vec(), b"storm".to_vec())
        .expect("post-storm write");
    let snap = p.create_snapshot(0).expect("snapshot");
    let s1 = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    let s2 = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    assert_eq!(s1, s2, "snapshot scan unstable");
    drop(p);
    drop(mc);

    println!(
        "chaos_smoke seed {seed}: OK ({total_oks} acked ops, {} keys)",
        WORKERS * KEYS as usize
    );
    let _ = std::fs::remove_dir_all(dir);
}
