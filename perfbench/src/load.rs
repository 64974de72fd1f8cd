//! Closed-loop clients: each owns one proxy, draws its ops from a seeded
//! `OpGenerator`, and waits for every reply before sending the next.

use crate::cluster::{RECORDS, VALUE_BYTES};
use crate::spans::{self, Breakdown};
use minuet_core::{op_tag, Proxy, ProxyStats};
use minuet_obs::{current_ctx, ObsPlane, Trace};
use minuet_sinfonia::{with_op_net, OpNet};
use minuet_workload::{KeyDist, OpGenerator, Operation, SharedState, WorkloadSpec};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys each analytics scan asks for.
pub const SCAN_LEN: usize = 10_000;
/// Staleness bound of analytics snapshots.
pub const SCAN_STALENESS: Duration = Duration::from_secs(1);

/// What a client does.
#[derive(Clone, Copy, Debug)]
pub enum Role {
    /// YCSB point ops: gets with probability `read`, puts otherwise.
    Ycsb { read: f64, dist: KeyDist },
    /// `snapshot_for_scan`, then a [`SCAN_LEN`]-key `scan_at` from a
    /// uniformly random start.
    Analytics,
}

impl Role {
    fn spec(self) -> WorkloadSpec {
        let spec = match self {
            Role::Ycsb { read, dist } => {
                WorkloadSpec::mix(RECORDS, read, 1.0 - read, 0.0, 0.0).with_dist(dist)
            }
            Role::Analytics => WorkloadSpec::mix(RECORDS, 0.0, 0.0, 0.0, 1.0),
        };
        spec.with_scan_len(SCAN_LEN)
    }
}

/// Op kinds reported separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Scan = 2,
}

pub const KINDS: [Kind; 3] = [Kind::Get, Kind::Put, Kind::Scan];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Scan => "scan",
        }
    }
}

/// One acknowledged (or failed) put, for the read-back check.
#[derive(Clone, Debug)]
pub struct PutRec {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
    /// Nanoseconds since the run's origin.
    pub invoke: u64,
    /// `None` when the put returned an error: it may or may not have
    /// taken effect.
    pub ack: Option<u64>,
}

/// The sorted loaded keys and the clock every client stamps puts with.
pub struct Ground {
    pub keys: Vec<Vec<u8>>,
    pub origin: Instant,
}

impl Ground {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Checks one scan: exactly `min(SCAN_LEN, keys ≥ start)` keys, equal
    /// to the loaded keys from `start` on (so strictly ascending), each
    /// with a value of the stored size.
    pub fn check_scan(&self, start: &[u8], got: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
        let from = self.keys.partition_point(|k| k.as_slice() < start);
        let want = &self.keys[from..(from + SCAN_LEN).min(self.keys.len())];
        if got.len() != want.len() {
            return Err(format!(
                "scan from {} returned {} keys, expected {}",
                String::from_utf8_lossy(start),
                got.len(),
                want.len()
            ));
        }
        if let Some(i) =
            (0..got.len()).find(|&i| got[i].0 != want[i] || got[i].1.len() != VALUE_BYTES)
        {
            return Err(format!(
                "scan from {} diverges at position {i}",
                String::from_utf8_lossy(start)
            ));
        }
        Ok(())
    }
}

/// One successful measured op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, ns since the run's origin.
    pub done: u64,
    /// Latency, ns.
    pub lat: u64,
    /// Keys returned (1 for point ops).
    pub keys: u64,
}

/// Failed output checks: a count and the first few messages.
#[derive(Default)]
pub struct Errors {
    pub count: u64,
    pub first: Vec<String>,
}

impl Errors {
    const KEPT: usize = 10;

    pub fn push(&mut self, e: String) {
        self.count += 1;
        if self.first.len() < Self::KEPT {
            self.first.push(e);
        }
    }

    pub fn merge(&mut self, o: &Errors) {
        self.count += o.count;
        let room = Self::KEPT.saturating_sub(self.first.len());
        self.first.extend(o.first.iter().take(room).cloned());
    }
}

/// Window phases, set by the main thread and read by the clients.
pub const WARMUP: u8 = 0;
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;

/// Everything one client observed. Samples and counters cover measured
/// ops only; `attempted`, `failed`, `puts` and `errors` cover every op.
#[derive(Default)]
pub struct ClientOut {
    /// Each successful measured op, by [`Kind`].
    pub samples: [Vec<Sample>; 3],
    /// Network counters summed over successful measured ops, by [`Kind`].
    pub net: [OpNet; 3],
    /// Wall time of `snapshot_for_scan` calls that created a snapshot.
    pub snap_create: Vec<u64>,
    pub gen_ns: u64,
    pub gen_ops: u64,
    pub stats: ProxyStats,
    pub attempted: u64,
    pub failed: u64,
    pub puts: Vec<PutRec>,
    pub errors: Errors,
    /// Traced window only: per-op stage breakdown and op total, by kind.
    pub traces: [Vec<(Breakdown, u64)>; 2],
    /// Traced ops whose trace could not be attributed.
    pub traces_lost: u64,
    /// The benchmark's own spans (traced window only), ns.
    pub spans_next_op: Vec<u64>,
    pub spans_snapshot: Vec<u64>,
    pub spans_scan_at: Vec<u64>,
}

impl ClientOut {
    /// Folds `o` into `self`.
    pub fn merge(&mut self, o: ClientOut) {
        for k in 0..3 {
            self.samples[k].extend(o.samples[k].iter().copied());
            let (a, b) = (&mut self.net[k], o.net[k]);
            a.round_trips += b.round_trips;
            a.messages += b.messages;
            a.bytes_out += b.bytes_out;
            a.bytes_in += b.bytes_in;
        }
        for k in 0..2 {
            self.traces[k].extend(o.traces[k].iter().copied());
        }
        self.snap_create.extend(o.snap_create);
        self.gen_ns += o.gen_ns;
        self.gen_ops += o.gen_ops;
        self.stats = combine(self.stats, o.stats, false);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.puts.extend(o.puts);
        self.errors.merge(&o.errors);
        self.traces_lost += o.traces_lost;
        self.spans_next_op.extend(o.spans_next_op);
        self.spans_snapshot.extend(o.spans_snapshot);
        self.spans_scan_at.extend(o.spans_scan_at);
    }
}

/// Field-wise `a + b` (or `a - b` with `sub`) of the counters reported.
fn combine(a: ProxyStats, b: ProxyStats, sub: bool) -> ProxyStats {
    let f = |x: u64, y: u64| if sub { x.wrapping_sub(y) } else { x + y };
    ProxyStats {
        ops: f(a.ops, b.ops),
        retries: f(a.retries, b.retries),
        retries_validation: f(a.retries_validation, b.retries_validation),
        retries_fence: f(a.retries_fence, b.retries_fence),
        retries_stale_tip: f(a.retries_stale_tip, b.retries_stale_tip),
        leaf_cache_hits: f(a.leaf_cache_hits, b.leaf_cache_hits),
        leaf_cache_misses: f(a.leaf_cache_misses, b.leaf_cache_misses),
        cow_copies: f(a.cow_copies, b.cow_copies),
        splits: f(a.splits, b.splits),
        ..ProxyStats::default()
    }
}

/// Seeds one client's generator from the workload seed.
pub fn client_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 of (seed, stream): distinct, well-mixed per client.
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One closed-loop client.
pub struct Client<'a> {
    proxy: &'a mut Proxy,
    gen: OpGenerator,
    ground: &'a Ground,
    obs: Arc<ObsPlane>,
    phase: &'a AtomicU8,
    traced: bool,
}

impl<'a> Client<'a> {
    pub fn new(
        proxy: &'a mut Proxy,
        role: Role,
        seed: u64,
        ground: &'a Ground,
        phase: &'a AtomicU8,
        traced: bool,
    ) -> Client<'a> {
        let spec = role.spec();
        let gen = OpGenerator::new(&spec, &SharedState::new(&spec), seed);
        let obs = proxy.cluster().sinfonia.obs().clone();
        Client {
            proxy,
            gen,
            ground,
            obs,
            phase,
            traced,
        }
    }

    /// Runs until the phase reaches [`STOP`].
    pub fn run(mut self) -> ClientOut {
        let mut out = ClientOut::default();
        let mut start_stats = None;
        loop {
            let phase = self.phase.load(Ordering::Acquire);
            if phase == STOP {
                break;
            }
            let measuring = phase == MEASURE;
            if measuring && start_stats.is_none() {
                start_stats = Some(self.proxy.stats);
            }
            let g0 = Instant::now();
            let op = self.gen.next_op();
            let gen_ns = g0.elapsed().as_nanos() as u64;
            if measuring {
                out.gen_ns += gen_ns;
                out.gen_ops += 1;
                if self.traced {
                    out.spans_next_op.push(gen_ns);
                }
            }
            self.step(op, measuring, &mut out);
        }
        if let Some(s0) = start_stats {
            out.stats = combine(self.proxy.stats, s0, true);
        }
        out
    }

    fn step(&mut self, op: Operation, measuring: bool, out: &mut ClientOut) {
        out.attempted += 1;
        match op {
            Operation::Read { key } => {
                let (res, lat, net, trace) = self.timed(op_tag::GET, |p| p.get(0, &key));
                match res {
                    Ok(Some(v)) if v.len() == VALUE_BYTES => {
                        if measuring {
                            self.record(out, Kind::Get, lat, 1, net, trace);
                        }
                    }
                    Ok(v) => out.errors.push(format!(
                        "get {} returned {:?}, expected an {VALUE_BYTES}-byte value",
                        String::from_utf8_lossy(&key),
                        v
                    )),
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("get failed: {e}"));
                    }
                }
            }
            Operation::Update { key, value } => {
                let invoke = self.ground.now();
                let (res, lat, net, trace) =
                    self.timed(op_tag::PUT, |p| p.put(0, key.clone(), value.clone()));
                let ack = res.is_ok().then(|| self.ground.now());
                match res {
                    Ok(_) => {
                        if measuring {
                            self.record(out, Kind::Put, lat, 1, net, trace);
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("put failed: {e}"));
                    }
                }
                out.puts.push(PutRec {
                    key,
                    value,
                    invoke,
                    ack,
                });
            }
            Operation::Scan { start, .. } => {
                let t0 = Instant::now();
                let mc = self.proxy.cluster().clone();
                let scs = mc.scs(0);
                let created0 = scs.stats.created.load(Ordering::Relaxed);
                let snap = scs.snapshot_for_scan(self.proxy, 0, SCAN_STALENESS);
                let snap_ns = t0.elapsed().as_nanos() as u64;
                let created = scs.stats.created.load(Ordering::Relaxed) != created0;
                let t_scan = Instant::now();
                let res = snap.and_then(|(sid, _)| {
                    let (r, net) = with_op_net(|| self.proxy.scan_at(0, sid, &start, SCAN_LEN));
                    r.map(|rows| (rows, net))
                });
                let scan_ns = t_scan.elapsed().as_nanos() as u64;
                let lat = t0.elapsed().as_nanos() as u64;
                match res {
                    Ok((rows, net)) => {
                        if let Err(e) = self.ground.check_scan(&start, &rows) {
                            out.errors.push(e);
                        } else if measuring {
                            if created {
                                out.snap_create.push(snap_ns);
                            }
                            if self.traced {
                                out.spans_snapshot.push(snap_ns);
                                out.spans_scan_at.push(scan_ns);
                            }
                            self.record(out, Kind::Scan, lat, rows.len() as u64, net, None);
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("snapshot scan failed: {e}"));
                    }
                }
            }
            other => out
                .errors
                .push(format!("unexpected generated op {other:?}")),
        }
    }

    /// Runs one proxy call, timing it and counting its network traffic.
    /// In a traced window the benchmark opens the op's trace itself (the
    /// proxy's own op boundary then joins it), so it knows the trace id
    /// and claims exactly its own trace from the shared buffer.
    fn timed<R>(
        &mut self,
        tag: u8,
        f: impl FnOnce(&mut Proxy) -> R,
    ) -> (R, u64, OpNet, Option<Trace>) {
        let proxy = &mut *self.proxy;
        if !self.traced {
            let t0 = Instant::now();
            let (r, net) = with_op_net(|| f(proxy));
            return (r, t0.elapsed().as_nanos() as u64, net, None);
        }
        let t0 = Instant::now();
        let guard = self.obs.op(tag);
        let id = current_ctx().map(|c| c.trace_id);
        let (r, net) = with_op_net(|| f(proxy));
        drop(guard);
        let lat = t0.elapsed().as_nanos() as u64;
        let trace = id.and_then(|id| claim(&self.obs, id));
        (r, lat, net, trace)
    }

    fn record(
        &self,
        out: &mut ClientOut,
        kind: Kind,
        lat: u64,
        keys: u64,
        net: OpNet,
        trace: Option<Trace>,
    ) {
        out.samples[kind as usize].push(Sample {
            done: self.ground.now(),
            lat,
            keys,
        });
        let n = &mut out.net[kind as usize];
        n.round_trips += net.round_trips;
        n.messages += net.messages;
        n.bytes_out += net.bytes_out;
        n.bytes_in += net.bytes_in;
        if self.traced && kind != Kind::Scan {
            match trace.as_ref().and_then(spans::attribute) {
                Some(b) => out.traces[kind as usize].push((b, trace.map_or(0, |t| t.total_ns))),
                None => out.traces_lost += 1,
            }
        }
    }
}

/// Finds trace `id` among the newest buffered traces. The other client
/// records at most a few traces between this op's end and the lookup.
fn claim(obs: &ObsPlane, id: u64) -> Option<Trace> {
    [2, crate::cluster::TRACE_BUFFER]
        .into_iter()
        .find_map(|n| obs.recent(n).into_iter().find(|t| t.trace_id == id))
}
