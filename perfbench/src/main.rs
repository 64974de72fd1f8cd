//! Minuet's benchmark: a wire-mode `MinuetCluster` over Unix sockets to
//! two in-process `MemNodeServer`s, driven by closed-loop clients.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb_b --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run it from the repository root. Each run sets the cluster up
//! [`SETUPS`] times (reporting the median as `setup_s`), warms up, then
//! measures one window of `--seconds`. With `--trace 1` a second, traced
//! window follows the untraced one and the run prints per-layer metrics
//! instead of end-to-end ones. After the windows, with no puts running:
//! both proxies read back every key written, and a retention pass takes a
//! final snapshot, moves the watermark to it, and sweeps GC repeatedly
//! while the other proxy runs a probe of snapshot scans.
//!
//! Each op's latency is exact, and each timing is computed per time slice
//! (one second in the windows, [`POST_SLICES`] per post-window phase);
//! the run reports the better quartile of the slices, since interference
//! from other tenants of the host only ever slows a slice down. The
//! post-window phases keep both client threads busy, as the windows do. Where a workload's window has
//! no op of a kind, they supply it: `htap_scan` takes its get latency
//! from the read-back, the ycsb workloads their scan figures from the
//! probe. The last line of stdout is the result object; everything else
//! goes to stderr.

mod cluster;
mod load;
mod report;
mod spans;

use cluster::{Cluster, ClusterSpec, KEY_BYTES, RECORDS, VALUE_BYTES};
use load::{
    client_seed, Client, ClientOut, Errors, Ground, Kind, PutRec, Role, Sample, KINDS, MEASURE,
    STOP,
};
use minuet_core::{NodePtr, Proxy, SweepStats};
use minuet_obs::ObsSnapshot;
use minuet_sinfonia::MemNodeId;
use minuet_workload::KeyDist;
use report::{delta, median, pct, quantile, ratio, wire_requests, Metrics};
use spans::STAGES;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Unmeasured closed-loop time before each window: proxy caches fill.
const WARMUP: Duration = Duration::from_secs(1);
/// Least duration and count of the GC sweeps, which the scan probe
/// accompanies.
const POST_SPAN: Duration = Duration::from_secs(3);
const POST_MIN_SWEEPS: usize = 5;
/// Time slices a post-window phase's timings are taken over (the windows use
/// one-second slices).
const POST_SLICES: usize = 10;
/// Where runs keep sockets and logs, relative to the repository root.
const RUN_DIR: &str = "perfbench/run";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    YcsbB,
    YcsbAWal,
    HtapScan,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "ycsb_b" => Some(Workload::YcsbB),
            "ycsb_a_wal" => Some(Workload::YcsbAWal),
            "htap_scan" => Some(Workload::HtapScan),
            _ => None,
        }
    }

    fn cluster(self) -> ClusterSpec {
        match self {
            Workload::YcsbB | Workload::HtapScan => ClusterSpec {
                durable: false,
                node_cache: minuet_core::cache::DEFAULT_CACHE_CAPACITY,
            },
            Workload::YcsbAWal => ClusterSpec {
                durable: true,
                node_cache: 1024,
            },
        }
    }

    fn roles(self) -> Vec<Role> {
        match self {
            Workload::YcsbB => vec![
                Role::Ycsb {
                    read: 0.95,
                    dist: KeyDist::ScrambledZipfian,
                };
                2
            ],
            Workload::YcsbAWal => vec![
                Role::Ycsb {
                    read: 0.5,
                    dist: KeyDist::Uniform,
                };
                2
            ],
            Workload::HtapScan => vec![
                Role::Ycsb {
                    read: 0.0,
                    dist: KeyDist::Uniform,
                },
                Role::Analytics,
            ],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let args = Args {
        workload: Workload::parse(get("--workload")?)
            .ok_or("--workload must be ycsb_b, ycsb_a_wal or htap_scan")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    };
    if args.seconds == 0 || kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds (≥ 1) and --trace".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <ycsb_b|ycsb_a_wal|htap_scan> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    if !Path::new("perfbench").is_dir() {
        return Err("run from the repository root".into());
    }
    eprintln!(
        "perfbench: workload {:?} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let dir = PathBuf::from(RUN_DIR).join(std::process::id().to_string());
    let pairs = cluster::records(args.seed);
    let ground = Ground {
        keys: pairs.iter().map(|(k, _)| k.clone()).collect(),
        origin: Instant::now(),
    };
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(c) = last.take() {
            Cluster::stop(c)?;
        }
        let c = Cluster::start(args.workload.cluster(), &dir, pairs.clone())?;
        setups.push(c.setup.as_nanos() as u64);
        loads.push(c.bulk_load.as_nanos() as u64);
        last = Some(c);
    }
    let cluster = last.ok_or("no cluster was set up")?;
    let measured = measure(args, &cluster, &ground, &mut setups, &mut loads);
    let stopped = cluster.stop();
    let _ = std::fs::remove_dir(RUN_DIR);
    let (metrics, correct, attempted, failed) = measured?;
    stopped?;
    metrics.print_table(if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    });
    println!("{}", metrics.result_json(correct, attempted, failed));
    Ok(())
}

/// Counter snapshots and samples of one measured window.
struct Window {
    out: ClientOut,
    /// Window bounds, ns since the run's origin.
    start: u64,
    end: u64,
    reg: [ObsSnapshot; 2],
    mem: [Vec<ObsSnapshot>; 2],
    checkpoints: u64,
    ckpt_ns: Vec<u64>,
}

impl Window {
    fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
    fn ops(&self, k: Kind) -> f64 {
        self.out.samples[k as usize].len() as f64
    }
    /// The transactional ops: gets and puts (on `htap_scan`, the
    /// updater's puts).
    fn point_samples(&self) -> Vec<Sample> {
        let [gets, puts, _] = &self.out.samples;
        gets.iter().chain(puts).copied().collect()
    }
    fn mem_delta(&self, name: &str) -> f64 {
        delta(&self.mem[0], &self.mem[1], name) as f64
    }
    fn reg_delta(&self, name: &str) -> f64 {
        delta(&self.reg[..1], &self.reg[1..], name) as f64
    }
}

/// Runs the workload's clients for [`WARMUP`] plus `--seconds`,
/// measuring the latter. The traced window draws other ops than the
/// untraced one.
fn run_window(
    cluster: &Cluster,
    proxies: &mut [Proxy],
    args: &Args,
    ground: &Ground,
    traced: bool,
) -> Result<Window, String> {
    let roles = args.workload.roles();
    let obs = cluster.mc.sinfonia.obs();
    let ckpt_times = || {
        cluster.checkpointer.as_ref().map_or(Vec::new(), |c| {
            c.times
                .lock()
                .expect("checkpoint times lock poisoned")
                .clone()
        })
    };
    let phase = AtomicU8::new(load::WARMUP);
    std::thread::scope(|s| {
        let handles: Vec<_> = proxies
            .iter_mut()
            .zip(roles)
            .enumerate()
            .map(|(i, (p, role))| {
                let seed = client_seed(args.seed, traced as u64 * 16 + i as u64);
                let phase = &phase;
                s.spawn(move || Client::new(p, role, seed, ground, phase, traced).run())
            })
            .collect();
        std::thread::sleep(WARMUP);
        let reg0 = obs.registry.snapshot();
        let mem0 = cluster.memnode_snapshots();
        let ck0 = (cluster.checkpoints(), ckpt_times().len());
        let start = ground.now();
        phase.store(MEASURE, Ordering::Release);
        std::thread::sleep(Duration::from_secs(args.seconds));
        phase.store(STOP, Ordering::Release);
        let end = ground.now();
        let mut out = ClientOut::default();
        for h in handles {
            out.merge(h.join().map_err(|_| "a client panicked".to_string())?);
        }
        Ok(Window {
            out,
            start,
            end,
            reg: [reg0, obs.registry.snapshot()],
            mem: [mem0, cluster.memnode_snapshots()],
            checkpoints: cluster.checkpoints() - ck0.0,
            ckpt_ns: ckpt_times()[ck0.1..].to_vec(),
        })
    })
}

/// One GC sweep of the retention pass.
struct Sweep {
    stats: SweepStats,
    ns: u64,
    /// Socket requests the sweep sent.
    requests: u64,
}

impl Sweep {
    fn slots_per_s(&self) -> f64 {
        ratio(self.stats.scanned as f64, self.ns as f64 / 1e9)
    }
}

/// Results of the phases after the windows.
#[derive(Default)]
struct After {
    readback: Vec<Sample>,
    probe: ClientOut,
    sweeps: Vec<Sweep>,
    watermark_ns: u64,
    space_amp: f64,
    attempted: u64,
    failed: u64,
    errors: Errors,
}

/// Reads back every key written and checks it holds the value of the put
/// acknowledged last, or of a put that overlapped that one. Each proxy
/// reads its share of the keys, concurrently.
fn read_back(proxies: &mut [Proxy], ground: &Ground, puts: &[PutRec], after: &mut After) {
    let mut by_key: BTreeMap<&[u8], Vec<&PutRec>> = BTreeMap::new();
    for p in puts {
        by_key.entry(&p.key).or_default().push(p);
    }
    let by_key: Vec<(&[u8], Vec<&PutRec>)> = by_key.into_iter().collect();
    let n = proxies.len();
    let parts: Vec<After> = std::thread::scope(|s| {
        let handles: Vec<_> = proxies
            .iter_mut()
            .enumerate()
            .map(|(i, proxy)| {
                let share = by_key.iter().skip(i).step_by(n);
                s.spawn(move || {
                    let mut part = After::default();
                    for (key, recs) in share {
                        read_one(proxy, ground, key, recs, &mut part);
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read-back thread panicked"))
            .collect()
    });
    for part in parts {
        after.readback.extend(part.readback);
        after.attempted += part.attempted;
        after.failed += part.failed;
        after.errors.merge(&part.errors);
    }
}

fn read_one(proxy: &mut Proxy, ground: &Ground, key: &[u8], recs: &[&PutRec], out: &mut After) {
    let last = recs
        .iter()
        .filter(|r| r.ack.is_some())
        .max_by_key(|r| r.ack);
    // Values a linearizable store may hold: the last acked put's, any put
    // acked after it began, and any put whose outcome is unknown.
    let allowed: Vec<&[u8]> = recs
        .iter()
        .filter(|r| match (r.ack, last) {
            (Some(ack), Some(l)) => ack >= l.invoke,
            _ => true,
        })
        .map(|r| r.value.as_slice())
        .collect();
    out.attempted += 1;
    let t0 = Instant::now();
    match proxy.get(0, key) {
        Ok(Some(v)) if last.is_none() || allowed.contains(&v.as_slice()) => {
            out.readback.push(Sample {
                done: ground.now(),
                lat: t0.elapsed().as_nanos() as u64,
                keys: 1,
            });
        }
        Ok(v) => out.errors.push(format!(
            "read-back of {} found {v:?}, not a value of its last puts",
            String::from_utf8_lossy(key)
        )),
        Err(e) => {
            out.failed += 1;
            out.errors.push(format!("read-back get failed: {e}"));
        }
    }
}

/// The retention pass: a final snapshot and the watermark moved to it;
/// then, while `probe` runs snapshot scans on the other proxy, GC sweeps
/// for [`POST_SPAN`] (the first reclaims, the rest find nothing new);
/// then the space the live nodes take. Scans start only once the
/// watermark has moved, so none reads a snapshot the sweeps may reclaim.
fn retention(
    cluster: &Cluster,
    proxies: &mut [Proxy],
    probe: impl FnOnce(&mut Proxy, &AtomicU8) -> ClientOut + Send,
    after: &mut After,
) -> Result<(), String> {
    let mc = &cluster.mc;
    let obs = mc.sinfonia.obs();
    let [gc, scanner] = proxies else {
        return Err("the retention pass needs two proxies".into());
    };
    after.attempted += 2;
    let (sid, _) = mc
        .scs(0)
        .create(gc, 0)
        .map_err(|e| format!("final snapshot: {e}"))?;
    let t = Instant::now();
    gc.set_watermark(0, sid)
        .map_err(|e| format!("set_watermark: {e}"))?;
    after.watermark_ns = t.elapsed().as_nanos() as u64;
    let phase = AtomicU8::new(MEASURE);
    let (swept, scanned) = std::thread::scope(|s| {
        let scans = s.spawn(|| probe(scanner, &phase));
        let swept = sweeps(gc, obs, after);
        phase.store(STOP, Ordering::Release);
        (swept, scans.join())
    });
    after.probe = scanned.map_err(|_| "the scan probe panicked".to_string())?;
    swept?;
    after.attempted += 1;
    let occ = minuet_core::occupancy(mc, 0).map_err(|e| format!("occupancy: {e}"))?;
    let live: u64 = occ.iter().map(|o| o.live as u64).sum();
    if live == 0 {
        return Err("occupancy found no live nodes".into());
    }
    let slot = mc
        .layout(0)
        .node_obj(NodePtr {
            mem: MemNodeId(0),
            slot: 0,
        })
        .cap as f64;
    let user = (RECORDS * (KEY_BYTES + VALUE_BYTES as u64)) as f64;
    after.space_amp = live as f64 * slot / user;
    Ok(())
}

/// GC sweeps for at least [`POST_SPAN`] and [`POST_MIN_SWEEPS`] sweeps.
fn sweeps(proxy: &mut Proxy, obs: &minuet_obs::ObsPlane, after: &mut After) -> Result<(), String> {
    let t0 = Instant::now();
    while t0.elapsed() < POST_SPAN || after.sweeps.len() < POST_MIN_SWEEPS {
        after.attempted += 1;
        let w0 = wire_requests(&obs.registry.snapshot());
        let t = Instant::now();
        let stats = proxy.gc_sweep(0).map_err(|e| format!("gc_sweep: {e}"))?;
        let ns = t.elapsed().as_nanos() as u64;
        let requests = wire_requests(&obs.registry.snapshot()) - w0;
        if stats.scanned == 0 {
            return Err("a GC sweep scanned no slots".into());
        }
        after.sweeps.push(Sweep {
            stats,
            ns,
            requests,
        });
    }
    Ok(())
}

type Outcome = (Metrics, bool, u64, u64);

fn measure(
    args: &Args,
    cluster: &Cluster,
    ground: &Ground,
    setups: &mut [u64],
    loads: &mut [u64],
) -> Result<Outcome, String> {
    let htap = args.workload == Workload::HtapScan;
    let mut proxies: Vec<Proxy> = args
        .workload
        .roles()
        .iter()
        .map(|_| cluster.mc.proxy())
        .collect();
    let obs = cluster.mc.sinfonia.obs();
    let base = run_window(cluster, &mut proxies, args, ground, false)?;
    let traced = if args.trace {
        obs.set_sampling(1);
        let w = run_window(cluster, &mut proxies, args, ground, true);
        obs.set_sampling(0);
        Some(w?)
    } else {
        None
    };
    let windows: Vec<&Window> = std::iter::once(&base).chain(&traced).collect();

    let mut after = After::default();
    let puts: Vec<PutRec> = windows
        .iter()
        .flat_map(|w| w.out.puts.iter().cloned())
        .collect();
    read_back(&mut proxies, ground, &puts, &mut after);
    let seed = client_seed(args.seed, 99);
    let probe = |p: &mut Proxy, phase: &AtomicU8| {
        Client::new(p, Role::Analytics, seed, ground, phase, false).run()
    };
    if let Err(e) = retention(cluster, &mut proxies, probe, &mut after) {
        after.failed += 1;
        after.errors.push(e);
    }

    let mut errors = Errors::default();
    for w in &windows {
        errors.merge(&w.out.errors);
    }
    errors.merge(&after.errors);
    errors.merge(&after.probe.errors);
    let attempted = windows.iter().map(|w| w.out.attempted).sum::<u64>()
        + after.attempted
        + after.probe.attempted;
    let failed =
        windows.iter().map(|w| w.out.failed).sum::<u64>() + after.failed + after.probe.failed;

    let mut m = Metrics::default();
    match &traced {
        Some(t) => per_layer(&mut m, htap, &base, t, &after, loads, &mut errors),
        None => end_to_end(&mut m, htap, &base, &after, setups),
    }
    eprintln!(
        "\nwindow {:.2}s: {} gets, {} puts, {} scans; {failed} failed of {attempted} attempted \
         (fail_ratio {:.6}); {} read-back gets; {} scan probes; {} slots per sweep",
        base.secs(),
        base.ops(Kind::Get),
        base.ops(Kind::Put),
        base.ops(Kind::Scan),
        ratio(failed as f64, attempted as f64),
        after.readback.len(),
        after.probe.samples[Kind::Scan as usize].len(),
        after.sweeps.first().map_or(0, |s| s.stats.scanned)
    );
    for e in &errors.first {
        eprintln!("check failed: {e}");
    }
    if errors.count > 0 {
        eprintln!("{} checks failed", errors.count);
    }
    Ok((m, errors.count == 0, attempted, failed))
}

/// Cuts `[start, end)` into `slices` equal time slices and puts each
/// sample in the slice it completed in (one completing after `end` joins
/// the last). Returns the slices and their width in seconds.
fn slices_of(samples: &[Sample], start: u64, end: u64, slices: usize) -> (Vec<Vec<Sample>>, f64) {
    let width = (end.saturating_sub(start) / slices as u64).max(1);
    let mut out = vec![Vec::new(); slices];
    for s in samples {
        let i = (s.done.saturating_sub(start) / width) as usize;
        out[i.min(slices - 1)].push(*s);
    }
    (out, width as f64 / 1e9)
}

/// Whether a larger value of a timing is better (a rate) or worse (a
/// latency).
#[derive(Clone, Copy)]
enum Better {
    Higher,
    Lower,
}

impl Better {
    /// Interference from other tenants of the host only ever slows a
    /// slice down, so a timing takes the better quartile of its slices:
    /// the upper quartile of a rate, the lower quartile of a latency.
    fn of(self, per_slice: Vec<f64>) -> f64 {
        match self {
            Better::Higher => quantile(per_slice, 0.75),
            Better::Lower => quantile(per_slice, 0.25),
        }
    }
}

/// The better quartile, across the time slices of `[start, end)`, of
/// `stat` over each non-empty slice's samples.
fn slice_value(
    samples: &[Sample],
    start: u64,
    end: u64,
    slices: usize,
    better: Better,
    stat: impl Fn(&[Sample], f64) -> f64,
) -> f64 {
    let (slices, width) = slices_of(samples, start, end, slices);
    better.of(slices
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b, width))
        .collect())
}

fn lat_pct(b: &[Sample], p: f64) -> f64 {
    let mut v: Vec<u64> = b.iter().map(|s| s.lat).collect();
    pct(&mut v, p)
}

/// Keys per second the scanning client received while it was busy.
fn keys_rate(b: &[Sample], _: f64) -> f64 {
    let keys: u64 = b.iter().map(|s| s.keys).sum();
    let busy: u64 = b.iter().map(|s| s.lat).sum();
    ratio(keys as f64, busy as f64 / 1e9)
}

fn end_to_end(m: &mut Metrics, htap: bool, w: &Window, after: &After, setups: &mut [u64]) {
    let slices = w.secs().round().max(1.0) as usize;
    // Slices of the window, or of a post-window phase's own span.
    let timing =
        |v: &[Sample], post: bool, better: Better, stat: &dyn Fn(&[Sample], f64) -> f64| {
            if post {
                let start = v.iter().map(|s| s.done - s.lat).min().unwrap_or(0);
                let end = v.iter().map(|s| s.done).max().unwrap_or(0);
                slice_value(v, start, end, POST_SLICES, better, stat)
            } else {
                slice_value(v, w.start, w.end, slices, better, stat)
            }
        };
    use Better::{Higher, Lower};
    let p50 = |b: &[Sample], _: f64| lat_pct(b, 50.0);
    let p99 = |b: &[Sample], _: f64| lat_pct(b, 99.0);
    // Each workload's window lacks one op kind; a post-window phase supplies it.
    let gets = if htap {
        &after.readback
    } else {
        &w.out.samples[Kind::Get as usize]
    };
    let scans = if htap {
        &w.out.samples[Kind::Scan as usize]
    } else {
        &after.probe.samples[Kind::Scan as usize]
    };
    let puts = &w.out.samples[Kind::Put as usize];
    let ops = w.point_samples();
    m.put(
        "ops_s",
        timing(&ops, false, Higher, &|b, secs| b.len() as f64 / secs),
        "1/s",
    );
    m.put("get_p50_us", timing(gets, htap, Lower, &p50) / 1e3, "us");
    m.put("get_p99_us", timing(gets, htap, Lower, &p99) / 1e3, "us");
    m.put("put_p50_us", timing(puts, false, Lower, &p50) / 1e3, "us");
    m.put("put_p99_us", timing(puts, false, Lower, &p99) / 1e3, "us");
    m.put(
        "scan_keys_s",
        timing(scans, !htap, Higher, &keys_rate),
        "1/s",
    );
    m.put("scan_p50_ms", timing(scans, !htap, Lower, &p50) / 1e6, "ms");
    let rates: Vec<f64> = after.sweeps.iter().map(Sweep::slots_per_s).collect();
    m.put("gc_slots_s", Higher.of(rates.clone()), "1/s");
    m.put("space_amp", after.space_amp, "ratio");
    m.put("setup_s", median(setups) / 1e9, "s");

    let (per_slice, _) = slices_of(&ops, w.start, w.end, slices);
    let counts: Vec<usize> = per_slice.iter().map(Vec::len).collect();
    eprintln!(
        "\n{} gets ({}), {} puts, {} scans ({}), {} set-ups; timings are the better \
         quartile of {slices} one-second slices, {POST_SLICES} after the window\n\
         transactional ops per slice: {counts:?}\nGC sweep slots/s: {rates:.0?}",
        gets.len(),
        if htap { "read-back" } else { "window" },
        puts.len(),
        scans.len(),
        if htap { "window" } else { "probe" },
        setups.len()
    );
}

fn per_layer(
    m: &mut Metrics,
    htap: bool,
    w: &Window,
    t: &Window,
    after: &After,
    loads: &mut [u64],
    errors: &mut Errors,
) {
    let st = w.out.stats;
    let gets = w.ops(Kind::Get);
    let puts = w.ops(Kind::Put);
    let point = gets + puts;
    let per_op = |x: u64| ratio(x as f64, point);

    // core
    m.put("core.retries_per_op", per_op(st.retries), "count");
    m.put(
        "core.retries_validation_per_op",
        per_op(st.retries_validation),
        "count",
    );
    m.put(
        "core.retries_stale_tip_per_op",
        per_op(st.retries_stale_tip),
        "count",
    );
    m.put(
        "core.retries_fence_per_op",
        per_op(st.retries_fence),
        "count",
    );
    let leaf = (st.leaf_cache_hits + st.leaf_cache_misses) as f64;
    m.put(
        "core.leaf_cache_hit_ratio",
        ratio(st.leaf_cache_hits as f64, leaf),
        "ratio",
    );
    let (hits, misses) = (w.reg_delta("cache.hits"), w.reg_delta("cache.misses"));
    m.put(
        "core.node_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.put(
        "core.cache_evictions_per_op",
        ratio(w.reg_delta("cache.evictions"), point),
        "count",
    );
    m.put(
        "core.cow_copies_per_put",
        ratio(st.cow_copies as f64, puts),
        "count",
    );
    m.put(
        "core.splits_per_put",
        ratio(st.splits as f64, puts),
        "count",
    );
    let mut creates = w.out.snap_create.clone();
    m.put("core.snapshot_create_ms", median(&mut creates) / 1e6, "ms");
    m.put("core.snapshot_creates", creates.len() as f64, "count");
    let scans = if htap { &w.out } else { &after.probe };
    let scan_keys: u64 = scans.samples[Kind::Scan as usize]
        .iter()
        .map(|s| s.keys)
        .sum();
    let scan_rts = scans.net[Kind::Scan as usize].round_trips as f64;
    m.put(
        "core.scan_rts_per_kkey",
        ratio(scan_rts, scan_keys as f64 / 1e3),
        "count",
    );
    if let Some(first) = after.sweeps.first() {
        let slots = first.stats.scanned as f64;
        m.put(
            "core.gc_rts_per_slot",
            ratio(first.requests as f64, slots),
            "count",
        );
        m.put(
            "core.gc_us_per_slot",
            ratio(first.ns as f64 / 1e3, slots),
            "us",
        );
        m.put(
            "core.gc_freed_ratio",
            ratio(first.stats.freed as f64, slots),
            "ratio",
        );
    }

    // dyntx and the memnode
    let single = w.mem_delta("memnode.single_commits");
    let commits = w.mem_delta("memnode.commits");
    let aborts = w.mem_delta("memnode.aborts");
    m.put(
        "dyntx.abort_ratio",
        ratio(aborts, single + commits + aborts),
        "ratio",
    );
    m.put(
        "memnode.single_commit_ratio",
        ratio(single, single + commits),
        "ratio",
    );
    let (fast, fast_miss) = (
        w.mem_delta("memnode.read_fastpath"),
        w.mem_delta("memnode.read_fastpath_misses"),
    );
    m.put(
        "memnode.read_fastpath_ratio",
        ratio(fast, fast + fast_miss),
        "ratio",
    );
    m.put(
        "memnode.busy_per_op",
        ratio(w.mem_delta("memnode.busy"), point),
        "count",
    );

    // transport and wire, per op kind
    for k in KINDS {
        let src = if k == Kind::Scan { scans } else { &w.out };
        let n = src.samples[k as usize].len() as f64;
        let net = src.net[k as usize];
        let name = k.name();
        m.put(
            format!("net.{name}.rts_per_op"),
            ratio(net.round_trips as f64, n),
            "count",
        );
        m.put(
            format!("net.{name}.msgs_per_op"),
            ratio(net.messages as f64, n),
            "count",
        );
        m.put(
            format!("net.{name}.bytes_out_per_op"),
            ratio(net.bytes_out as f64, n),
            "B",
        );
        m.put(
            format!("net.{name}.bytes_in_per_op"),
            ratio(net.bytes_in as f64, n),
            "B",
        );
    }

    // WAL and checkpoints
    m.put(
        "wal.bytes_per_put",
        ratio(w.mem_delta("wal.bytes"), puts),
        "B",
    );
    m.put(
        "wal.appends_per_put",
        ratio(w.mem_delta("wal.appends"), puts),
        "count",
    );
    m.put(
        "wal.fsyncs_per_put",
        ratio(w.mem_delta("wal.fsyncs"), puts),
        "count",
    );
    m.put(
        "wal.checkpoints_per_s",
        w.checkpoints as f64 / w.secs(),
        "1/s",
    );
    let mut ckpt = w.ckpt_ns.clone();
    m.put("ckpt.write_ms", median(&mut ckpt) / 1e6, "ms");

    // traced client, wire and server stages
    for k in [Kind::Get, Kind::Put] {
        let traces = &t.out.traces[k as usize];
        let name = k.name();
        let untiled = traces
            .iter()
            .filter(|(b, total)| spans::tiled_total(b) != *total as i64)
            .count();
        if untiled > 0 {
            errors.push(format!(
                "{untiled} traced {name}s do not tile their op total"
            ));
        }
        let mut totals: Vec<u64> = traces.iter().map(|b| b.1).collect();
        m.put(
            format!("trace.{name}.total_us"),
            median(&mut totals) / 1e3,
            "us",
        );
        let mut means = Vec::new();
        for s in STAGES {
            let mut v: Vec<u64> = traces
                .iter()
                .map(|b| b.0[s as usize].max(0) as u64)
                .collect();
            m.put(
                format!("trace.{name}.{}_us", s.name()),
                median(&mut v) / 1e3,
                "us",
            );
            let sum: i64 = traces.iter().map(|b| b.0[s as usize]).sum();
            means.push(format!(
                "{} {:.1}",
                s.name(),
                ratio(sum as f64, traces.len() as f64) / 1e3
            ));
        }
        m.put(
            format!("trace.{name}.samples"),
            traces.len() as f64,
            "count",
        );
        let total: u64 = totals.iter().sum();
        eprintln!(
            "\ntraced {name}, mean µs per op (self times plus unattributed tile the total; \
             rtt is inclusive): total {:.1}; {}",
            ratio(total as f64, traces.len() as f64) / 1e3,
            means.join(", ")
        );
    }
    m.put("trace.lost_traces", t.out.traces_lost as f64, "count");

    // the benchmark's own spans
    let p50 = |v: &[u64]| median(&mut v.to_vec());
    let lat = |k: Kind| -> Vec<u64> { t.out.samples[k as usize].iter().map(|s| s.lat).collect() };
    m.put("bench.next_op_us", p50(&t.out.spans_next_op) / 1e3, "us");
    m.put("bench.get_us", p50(&lat(Kind::Get)) / 1e3, "us");
    m.put("bench.put_us", p50(&lat(Kind::Put)) / 1e3, "us");
    m.put(
        "bench.snapshot_for_scan_us",
        p50(&t.out.spans_snapshot) / 1e3,
        "us",
    );
    m.put("bench.scan_at_ms", p50(&t.out.spans_scan_at) / 1e6, "ms");
    m.put(
        "bench.set_watermark_us",
        after.watermark_ns as f64 / 1e3,
        "us",
    );
    let sweeps: Vec<u64> = after.sweeps.iter().map(|s| s.ns).collect();
    m.put("bench.gc_sweep_ms", p50(&sweeps) / 1e6, "ms");
    m.put("bench.bulk_load_ms", median(loads) / 1e6, "ms");

    // harness
    m.put(
        "workload.gen_ns_per_op",
        ratio(w.out.gen_ns as f64, w.out.gen_ops as f64),
        "ns",
    );
    let ops_s = |x: &Window| x.point_samples().len() as f64 / x.secs();
    m.put(
        "obs.trace_overhead",
        1.0 - ratio(ops_s(t), ops_s(w)),
        "ratio",
    );
    let get_samples = if htap {
        after.readback.len() as f64
    } else {
        gets
    };
    m.put("harness.get_samples", get_samples, "count");
    m.put("harness.put_samples", puts, "count");
    m.put(
        "harness.scan_samples",
        scans.samples[Kind::Scan as usize].len() as f64,
        "count",
    );
}
