//! Self-time attribution of one op's program trace.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. Spans arrive in completion order, so a span's children are
//! the spans deeper than it that closed since its previous sibling. A
//! server span counts as a child of the `rtt` span that carried it: the
//! wire client grafts the server's spans after the `rtt` closes, one
//! level below it, so each is matched to the latest open `rtt` one level
//! above. The self time of an `rtt` is then the time no server span
//! covers: syscalls, wake-ups, and server work outside any span.

use minuet_obs::{SpanKind, Trace};

/// Stages an op's time is attributed to. All but `Rtt` hold self time,
/// and those self times plus `Unattributed` sum to the op total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Route,
    Traverse,
    Apply,
    Commit,
    Backoff,
    Fetch,
    /// Inclusive `rtt` time (the one stage that is not a self time).
    Rtt,
    /// Self time of `rtt`.
    Kernel,
    Framing,
    SrvDecode,
    SrvLockWait,
    SrvExec,
    SrvWalAppend,
    SrvFsync,
    SrvEncode,
    /// Self time of span kinds outside this list (epoch waits, replication).
    Other,
    /// Op total minus the top-level spans.
    Unattributed,
}

/// Every stage, in report order (the order of the enum).
pub const STAGES: [Stage; 17] = [
    Stage::Route,
    Stage::Traverse,
    Stage::Apply,
    Stage::Commit,
    Stage::Backoff,
    Stage::Fetch,
    Stage::Rtt,
    Stage::Kernel,
    Stage::Framing,
    Stage::SrvDecode,
    Stage::SrvLockWait,
    Stage::SrvExec,
    Stage::SrvWalAppend,
    Stage::SrvFsync,
    Stage::SrvEncode,
    Stage::Other,
    Stage::Unattributed,
];

impl Stage {
    /// Metric name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Route => "route",
            Stage::Traverse => "traverse",
            Stage::Apply => "apply",
            Stage::Commit => "commit",
            Stage::Backoff => "backoff",
            Stage::Fetch => "fetch",
            Stage::Rtt => "rtt",
            Stage::Kernel => "kernel",
            Stage::Framing => "framing",
            Stage::SrvDecode => "srv_decode",
            Stage::SrvLockWait => "srv_lock_wait",
            Stage::SrvExec => "srv_exec",
            Stage::SrvWalAppend => "srv_wal_append",
            Stage::SrvFsync => "srv_fsync",
            Stage::SrvEncode => "srv_encode",
            Stage::Other => "other",
            Stage::Unattributed => "unattributed",
        }
    }

    fn of(kind: Option<SpanKind>) -> Stage {
        match kind {
            Some(SpanKind::Route) => Stage::Route,
            Some(SpanKind::Traverse) => Stage::Traverse,
            Some(SpanKind::Apply) => Stage::Apply,
            Some(SpanKind::Commit) => Stage::Commit,
            Some(SpanKind::Backoff) => Stage::Backoff,
            Some(SpanKind::Fetch) => Stage::Fetch,
            Some(SpanKind::Rtt) => Stage::Kernel,
            Some(SpanKind::Framing) => Stage::Framing,
            Some(SpanKind::SrvDecode) => Stage::SrvDecode,
            Some(SpanKind::SrvLockWait) => Stage::SrvLockWait,
            Some(SpanKind::SrvExec) => Stage::SrvExec,
            Some(SpanKind::SrvWalAppend) => Stage::SrvWalAppend,
            Some(SpanKind::SrvFsync) => Stage::SrvFsync,
            Some(SpanKind::SrvEncode) => Stage::SrvEncode,
            _ => Stage::Other,
        }
    }
}

fn is_server(kind: Option<SpanKind>) -> bool {
    matches!(
        kind,
        Some(
            SpanKind::SrvDecode
                | SpanKind::SrvLockWait
                | SpanKind::SrvExec
                | SpanKind::SrvWalAppend
                | SpanKind::SrvFsync
                | SpanKind::SrvEncode
                | SpanKind::ReplApply
        )
    )
}

/// Per-stage nanoseconds of one op, indexed like [`STAGES`].
pub type Breakdown = [i64; STAGES.len()];

/// A closed span not yet claimed by its parent.
struct Open {
    depth: u8,
    dur: i64,
    rtt: bool,
}

/// Attributes `trace` to stages. `None` when the trace lost spans to the
/// per-trace cap, which would hide top-level spans.
pub fn attribute(trace: &Trace) -> Option<Breakdown> {
    if trace.dropped > 0 {
        return None;
    }
    let mut out: Breakdown = [0; STAGES.len()];
    let mut open: Vec<Open> = Vec::new();
    for s in &trace.spans {
        let kind = s.kind();
        let dur = s.dur_ns as i64;
        let mut children = 0i64;
        while open.last().is_some_and(|o| o.depth > s.depth) {
            children += open.pop().map_or(0, |o| o.dur);
        }
        out[Stage::of(kind) as usize] += dur - children;
        if kind == Some(SpanKind::Rtt) {
            out[Stage::Rtt as usize] += dur;
        }
        // The carrier is the latest rtt one level up; the client's reply
        // framing span may sit between them at the rtt's own level.
        let carried = is_server(kind)
            && open
                .iter()
                .rev()
                .take_while(|o| o.depth + 1 >= s.depth)
                .any(|o| o.rtt && o.depth + 1 == s.depth);
        if carried {
            out[Stage::Kernel as usize] -= dur;
            continue;
        }
        open.push(Open {
            depth: s.depth,
            dur,
            rtt: kind == Some(SpanKind::Rtt),
        });
    }
    let top: i64 = open.iter().map(|o| o.dur).sum();
    out[Stage::Unattributed as usize] = trace.total_ns as i64 - top;
    Some(out)
}

/// Sum of the stages that tile the op: every stage but inclusive `rtt`.
pub fn tiled_total(b: &Breakdown) -> i64 {
    STAGES
        .iter()
        .zip(b)
        .filter(|(s, _)| **s != Stage::Rtt)
        .map(|(_, v)| *v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minuet_obs::SpanRecord;

    fn rec(kind: SpanKind, depth: u8, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            kind: kind as u8,
            tag: 0,
            depth,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn server_spans_are_children_of_their_rtt() {
        // traverse(100) ⊃ fetch(80) ⊃ [framing 5, rtt 60, framing 5];
        // the server's decode 2, exec 20 ⊃ wal 8, encode 3 follow the rtt.
        let spans = vec![
            rec(SpanKind::Framing, 3, 5),
            rec(SpanKind::Rtt, 3, 60),
            rec(SpanKind::Framing, 3, 5),
            rec(SpanKind::SrvDecode, 4, 2),
            rec(SpanKind::SrvWalAppend, 5, 8),
            rec(SpanKind::SrvExec, 4, 20),
            rec(SpanKind::SrvEncode, 4, 3),
            rec(SpanKind::Fetch, 2, 80),
            rec(SpanKind::Traverse, 1, 100),
            rec(SpanKind::Commit, 1, 30),
        ];
        let t = Trace {
            trace_id: 1,
            op_tag: 1,
            total_ns: 140,
            spans,
            dropped: 0,
        };
        let b = attribute(&t).unwrap();
        let at = |s: Stage| b[s as usize];
        assert_eq!(at(Stage::Traverse), 20);
        assert_eq!(at(Stage::Fetch), 10);
        assert_eq!(at(Stage::Rtt), 60);
        assert_eq!(at(Stage::Kernel), 60 - 2 - 20 - 3);
        assert_eq!(at(Stage::SrvExec), 12);
        assert_eq!(at(Stage::SrvWalAppend), 8);
        assert_eq!(at(Stage::Commit), 30);
        assert_eq!(at(Stage::Unattributed), 10);
        assert_eq!(tiled_total(&b), 140);
    }
}
