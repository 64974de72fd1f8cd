//! Property tests for redo-log robustness: a log whose tail is torn
//! (truncated mid-frame) or corrupted at an arbitrary byte must recover
//! to the state after some *prefix* of the committed transactions —
//! truncating at the last valid record, never panicking.

use minuet_sinfonia::{
    ClusterConfig, DurabilityConfig, ItemRange, MemNodeId, Minitransaction, SinfoniaCluster,
    SyncMode,
};
use proptest::prelude::*;
use std::time::Duration;

/// Commits `ntx` minitransactions, each writing slot `i` := `i + 1`, then
/// returns the cluster config and wal file path.
fn build_log(ntx: u64) -> (ClusterConfig, std::path::PathBuf, std::path::PathBuf) {
    let durability = DurabilityConfig {
        checkpoint_log_bytes: 0,
        ..DurabilityConfig::ephemeral(
            "prop-wal",
            SyncMode::GroupCommit {
                window: Duration::ZERO,
            },
        )
    };
    let dir = durability.dir.clone().unwrap();
    let cfg = ClusterConfig {
        memnodes: 1,
        capacity_per_node: 1 << 20,
        durability,
        ..Default::default()
    };
    let c = SinfoniaCluster::new(cfg.clone());
    for i in 0..ntx {
        let mut m = Minitransaction::new();
        m.write(
            ItemRange::new(MemNodeId(0), i * 8, 8),
            (i + 1).to_le_bytes().to_vec(),
        );
        assert!(c.execute(&m).unwrap().committed());
    }
    drop(c);
    let wal = minuet_sinfonia::recovery::wal_path(&dir, MemNodeId(0));
    (cfg, dir, wal)
}

/// Recovery must succeed and yield exactly the writes of transactions
/// `0..k` for some `k <= ntx` (a clean prefix — no holes, no garbage).
fn assert_prefix_state(cfg: ClusterConfig, ntx: u64) {
    let (c, res) = SinfoniaCluster::restart_from_disk(cfg).expect("recovery must not fail");
    assert_eq!(res.committed + res.aborted, 0);
    let node = c.node(MemNodeId(0));
    let mut seen_zero = false;
    for i in 0..ntx {
        let raw = node.raw_read(i * 8, 8).unwrap();
        let v = u64::from_le_bytes(raw.try_into().unwrap());
        if v == 0 {
            seen_zero = true;
        } else {
            assert!(!seen_zero, "hole before slot {i}: non-prefix recovery");
            assert_eq!(v, i + 1, "slot {i} holds garbage");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..Default::default() })]

    /// Truncating the log at any byte recovers a clean prefix.
    #[test]
    fn truncated_tail_recovers_prefix(ntx in 3u64..10, cut_pm in 0u64..1000) {
        let (cfg, dir, wal) = build_log(ntx);
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = len * cut_pm / 1000;
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        assert_prefix_state(cfg, ntx);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Flipping any single byte recovers a clean prefix (the CRC framing
    /// rejects the damaged record and everything after it).
    #[test]
    fn corrupted_byte_recovers_prefix(ntx in 3u64..10, pos_pm in 0u64..1000) {
        let (cfg, dir, wal) = build_log(ntx);
        let mut buf = std::fs::read(&wal).unwrap();
        let pos = ((buf.len() as u64 - 1) * pos_pm / 1000) as usize;
        buf[pos] ^= 0xA5;
        std::fs::write(&wal, &buf).unwrap();
        assert_prefix_state(cfg, ntx);
        let _ = std::fs::remove_dir_all(dir);
    }
}
