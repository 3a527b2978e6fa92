//! The serving workloads: `hit` and `miss` drive an in-process
//! `occu_serve::Server` over HTTP from this process.

use crate::client::{answers, Answer, Conn};
use crate::layers::{self, ReplayItem};
use crate::stats::{median, percentile, ratio, supported_tail, trimmed_mean};
use crate::stream::{self, Key};
use crate::{cpu_ms, out_dir, peak_rss_mb, slo_us, Args, Outcome, Phase, Workload};
use occu_core::features::featurize;
use occu_core::{DnnOccu, DnnOccuConfig, OccuPredictor};
use occu_serve::{DrainStats, ModelRegistry, ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the served weights. It is fixed rather than drawn from the
/// run seed: the seed shapes the traffic, while the deployed model stays
/// one exact set of weights, so `val_mre_pct` is one number per commit
/// and any change to the served numerics moves it.
const WEIGHTS_SEED: u64 = 17;

/// Client connections (and threads) driving the server.
const CLIENTS: usize = 2;

/// One in this many successful timed requests is kept for the oracle.
const SAMPLE_EVERY: u64 = 16;

/// Batch size of the accuracy probes.
const PROBE_BATCH: usize = 32;

/// The weights file and loaded model for one run; the file lives under
/// `perfbench/out/` and is removed when the fixture drops.
struct Fixture {
    dir: PathBuf,
    path: PathBuf,
    model: DnnOccu,
}

impl Fixture {
    fn create() -> Result<Fixture, String> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let model = DnnOccu::new(DnnOccuConfig::fast(), WEIGHTS_SEED);
        let path = dir.join("weights.json");
        std::fs::write(&path, model.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(Fixture { dir, path, model })
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The set-up requests: one spec per zoo model, so every plan a timed
/// request can need is compiled, then for `hit` its working set. `hit`
/// compiles them all too: otherwise the plans held, and so the server's
/// memory, would depend on which models the seed's working set draws.
fn warm_specs(w: Workload, seed: u64) -> Vec<Key> {
    let mut keys = stream::warm_keys();
    if w == Workload::Hit {
        keys.extend(stream::hit_working_set(seed));
    }
    keys
}

/// Loads the weights, starts the server with `ServeConfig` defaults and
/// warms it; returns it with the set-up seconds.
fn setup(w: Workload, seed: u64, fx: &Fixture, phase: &mut Phase) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let registry = ModelRegistry::load(&fx.path).map_err(|e| e.to_string())?;
    let server =
        Server::start(ServeConfig::default(), Arc::new(registry)).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let mut conn = None;
    for key in warm_specs(w, seed) {
        let result = send(&mut conn, &addr, "/predict", &key.spec(None));
        phase.attempted += 1;
        match result {
            Ok((200, _)) => phase.succeeded += 1,
            Ok((status, _)) => *phase.http.entry(status).or_default() += 1,
            Err(()) => phase.transport += 1,
        }
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// One request on a keep-alive connection, reconnecting first if the
/// last one failed. `Err` is a transport failure.
fn send(conn: &mut Option<Conn>, addr: &str, path: &str, body: &str) -> Result<(u16, String), ()> {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let c = conn.as_mut().ok_or(())?;
    c.post(path, body).map_err(|_| *conn = None)
}

/// What one client thread saw in the timed window.
#[derive(Default)]
struct Log {
    /// The workload's latency limit, microseconds.
    slo_us: f64,
    phase: Phase,
    /// Latency of each successful request, microseconds.
    lat_us: Vec<f64>,
    /// Requests answered 200 within `slo_us`.
    within_slo: u64,
    cached: u64,
    uncached: u64,
    /// Sampled answers with the keys they answer, for the oracle.
    samples: Vec<(Key, Answer)>,
    /// (completion second in the window, latency us) of each successful
    /// request, for the per-slice figures.
    done: Vec<(f64, f64)>,
}

impl Log {
    fn record(&mut self, key: Key, result: Result<(u16, String), ()>, lat_us: f64, done_s: f64) {
        self.phase.attempted += 1;
        match result {
            Err(()) => self.phase.transport += 1,
            Ok((200, body)) => {
                let got = answers(&body);
                let &[a] = got.as_slice() else {
                    self.phase.mismatch += 1;
                    return;
                };
                self.phase.succeeded += 1;
                self.lat_us.push(lat_us);
                if lat_us <= self.slo_us {
                    self.within_slo += 1;
                }
                self.done.push((done_s, lat_us));
                if a.cached {
                    self.cached += 1;
                } else {
                    self.uncached += 1;
                }
                if self.phase.succeeded % SAMPLE_EVERY == 1 {
                    self.samples.push((key, a));
                }
            }
            Ok((status, _)) => *self.phase.http.entry(status).or_default() += 1,
        }
    }

    fn new(w: Workload) -> Log {
        Log {
            slo_us: slo_us(w),
            ..Log::default()
        }
    }

    fn merge(logs: Vec<Log>) -> Log {
        let mut all = Log::default();
        for l in logs {
            all.phase.merge(&l.phase);
            all.lat_us.extend(l.lat_us);
            all.within_slo += l.within_slo;
            all.cached += l.cached;
            all.uncached += l.uncached;
            all.samples.extend(l.samples);
            all.done.extend(l.done);
        }
        all.lat_us.sort_by(f64::total_cmp);
        all
    }
}

/// The request a closed-loop client sends next: (request id, key), or
/// `None` when the stream has run out.
type NextFn<'a> = dyn Fn(usize, u64) -> Option<(u64, Key)> + Sync + 'a;

/// Process CPU milliseconds at each slice boundary of the window.
fn cpu_sampler(start: Instant, seconds: f64) -> Vec<f64> {
    (0..=SLICES)
        .map(|k| {
            let at = start + Duration::from_secs_f64(seconds * k as f64 / SLICES as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_ms()
        })
        .collect()
}

/// Closed loop: each client sends its next request as soon as the
/// last one is answered, until `seconds` pass. Returns the merged log,
/// the CPU samples and the window length.
fn closed_loop(
    addr: &str,
    w: Workload,
    seconds: f64,
    next: &NextFn<'_>,
    traced: bool,
) -> (Log, Vec<f64>, f64) {
    let start = Instant::now();
    let (logs, cpu): (Vec<Log>, Vec<f64>) = std::thread::scope(|s| {
        let sampler = s.spawn(move || cpu_sampler(start, seconds));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut log = Log::new(w);
                    let mut conn = None;
                    let mut i = 0u64;
                    while start.elapsed().as_secs_f64() < seconds {
                        let Some((id, key)) = next(c, i) else {
                            break;
                        };
                        let body = key.spec(None);
                        let _span = client_span(traced, id);
                        let t0 = Instant::now();
                        let result = send(&mut conn, addr, "/predict", &body);
                        let lat = t0.elapsed().as_secs_f64() * 1e6;
                        log.record(key, result, lat, start.elapsed().as_secs_f64());
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, sampler.join().expect("cpu sampler panicked"))
    });
    (Log::merge(logs), cpu, start.elapsed().as_secs_f64())
}

/// The root span of one client request (inert in measuring runs).
fn client_span(traced: bool, id: u64) -> occu_obs::SpanGuard {
    if traced {
        occu_obs::span!("client.request", request_id = id)
    } else {
        occu_obs::SpanGuard::noop()
    }
}

/// The in-process oracle: the tape interpreter on the served weights,
/// memoized per key.
struct Oracle<'a> {
    model: &'a DnnOccu,
    memo: HashMap<Key, f32>,
}

impl<'a> Oracle<'a> {
    fn new(fx: &'a Fixture) -> Self {
        Oracle {
            model: &fx.model,
            memo: HashMap::new(),
        }
    }

    /// Counts answers that differ bitwise from the oracle.
    fn mismatches(&mut self, samples: &[(Key, Answer)]) -> u64 {
        let mut bad = 0;
        for (key, a) in samples {
            let model = self.model;
            let want = *self
                .memo
                .entry(*key)
                .or_insert_with(|| model.predict(&featurize(&key.graph(), &key.device_spec())));
            if want.to_bits() != a.occupancy.to_bits() {
                bad += 1;
            }
        }
        bad
    }
}

/// Accuracy probes: every zoo model on two devices at one fixed batch
/// size.
fn probe_specs() -> Vec<Key> {
    [0, stream::DEVICES.len() - 1]
        .into_iter()
        .flat_map(|device| {
            (0..occu_models::ModelId::ALL.len()).map(move |model| Key {
                model,
                batch: PROBE_BATCH,
                device,
            })
        })
        .collect()
}

/// Sends the probes; returns their phase tally, answers, and the MRE
/// (percent) of the served predictions against the simulator's labels.
fn probe(addr: &str, w: Workload) -> (Phase, Vec<(Key, Answer)>, f64) {
    let mut log = Log::new(w);
    let mut conn = None;
    let mut answered = Vec::new();
    for key in probe_specs() {
        let result = send(&mut conn, addr, "/predict", &key.spec(None));
        if let Ok((200, body)) = &result {
            if let Some(a) = answers(body).first() {
                answered.push((key, *a));
            }
        }
        log.record(key, result, 0.0, 0.0);
    }
    let truth: Vec<f32> = answered
        .iter()
        .map(|(k, _)| {
            occu_gpusim::profile_graph(&k.graph(), &k.device_spec()).mean_occupancy as f32
        })
        .collect();
    let pred: Vec<f32> = answered.iter().map(|(_, a)| a.occupancy).collect();
    let mre = if pred.is_empty() {
        f64::NAN
    } else {
        f64::from(occu_core::mre(&pred, &truth)) * 100.0
    };
    (log.phase, answered, mre)
}

/// Parses the Prometheus text of `/metrics` into series -> value.
fn scrape(addr: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(mut conn) = Conn::open(addr) else {
        return out;
    };
    let Ok((200, body)) = conn.get("/metrics") else {
        return out;
    };
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        if let Some((series, value)) = line.rsplit_once(' ') {
            let v = match value {
                "NaN" => f64::NAN,
                "+Inf" => f64::INFINITY,
                v => v.parse().unwrap_or(f64::NAN),
            };
            out.insert(series.to_string(), v);
        }
    }
    out
}

/// Sum over every series of one family (all label sets).
fn family(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.iter()
        .filter(|(s, _)| {
            s.as_str() == name || s.strip_prefix(name).is_some_and(|r| r.starts_with('{'))
        })
        .map(|(_, v)| *v)
        .sum()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let fx = Fixture::create()?;
    let mut out = Outcome::default();

    // The timed traffic. The `miss` stream is shared by every window of
    // the run, so no key repeats across repetitions either.
    let seed = args.seed;
    let ws = stream::hit_working_set(seed);
    let orders: Vec<Vec<usize>> = (0..CLIENTS).map(|c| stream::hit_order(seed, c)).collect();
    let miss = stream::miss_stream(seed);
    let miss_next = AtomicU64::new(0);
    let next: Box<NextFn<'_>> = match w {
        Workload::Hit => Box::new(|c: usize, i: u64| {
            let o = &orders[c];
            Some((i * CLIENTS as u64 + c as u64, ws[o[i as usize % o.len()]]))
        }),
        _ => Box::new(|_, _| {
            let idx = miss_next.fetch_add(1, Ordering::Relaxed);
            miss.get(idx as usize).map(|&k| (idx, k))
        }),
    };
    let window = |addr: &str, seconds: f64, traced: bool| {
        closed_loop(addr, w, seconds, next.as_ref(), traced)
    };
    // A client that finds the stream empty stops early, which would
    // shrink the measured window without any failure showing.
    let check_stream = |out: &mut Outcome| {
        if w == Workload::Miss {
            let taken = miss_next.load(Ordering::Relaxed);
            out.detail("miss_keys", miss.len());
            out.detail("miss_keys_sent", taken.min(miss.len() as u64));
            out.check(taken < miss.len() as u64, || {
                format!(
                    "miss: all {} keys were sent before the window ended",
                    miss.len()
                )
            });
        }
    };

    let mut setup_phase = Phase::default();
    if args.trace {
        let (server, _) = setup(w, seed, &fx, &mut setup_phase)?;
        out.phase("setup", setup_phase);
        traced_run(args, server, &fx, &mut out, &window)?;
        check_stream(&mut out);
        return Ok(out);
    }

    // Each repetition boots a fresh server (timed as set-up) and measures
    // its share of the window on it. How one server's threads land on
    // the cores shifts its tail by up to half, so the figures average
    // over repetitions (dropping the two highest and the two lowest).
    let span = args.seconds / REPS as f64;
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup_times = Vec::new();
    let (mut probe_phase, mut probes, mut mre) = (Phase::default(), Vec::new(), f64::NAN);
    for r in 0..REPS {
        let (server, secs) = setup(w, seed, &fx, &mut setup_phase)?;
        setup_times.push(secs);
        let addr = server.local_addr().to_string();
        let (log, cpu, secs) = window(&addr, span, false);
        if r == 0 {
            // One server through one window. Each later boot adds what
            // earlier servers left in the allocator plus the benchmark's
            // own logs (3-10 MB a boot on `hit`), which is not the
            // service's footprint.
            out.metrics.insert("peak_rss_mb", peak_rss_mb());
        }
        if r + 1 == REPS {
            (probe_phase, probes, mre) = probe(&addr, w);
        }
        Server::shutdown(server);
        let sl = Slices::of(&log, &cpu, span);
        reps.push(Rep { sl, log, secs });
    }
    out.metrics.insert("setup_s", median(&setup_times));
    out.detail("setup_reps_s", format!("{setup_times:?}"));
    out.phase("setup", setup_phase);
    check_stream(&mut out);

    // Outputs, outside the timed windows.
    let rep_of = |f: &dyn Fn(&Rep) -> f64| trimmed_mean(&reps.iter().map(f).collect::<Vec<_>>());
    let throughput = rep_of(&|r| r.sl.throughput);
    let cpu_per_op = rep_of(&|r| r.sl.cpu_per_op);
    let p50 = rep_of(&|r| r.sl.p50);
    let rep_p99: Vec<Option<f64>> = reps
        .iter()
        .map(|r| r.sl.p99.or_else(|| whole_p99(&r.log.lat_us)))
        .collect();
    out.detail(
        "rep_throughput",
        format!(
            "{:?}",
            reps.iter().map(|r| r.sl.throughput).collect::<Vec<_>>()
        ),
    );
    let p99s: Vec<String> = rep_p99
        .iter()
        .map(|p| p.map_or("null".to_string(), |v| v.to_string()))
        .collect();
    out.detail("rep_p99_us", format!("[{}]", p99s.join(", ")));
    let secs_total: f64 = reps.iter().map(|r| r.secs).sum();
    let log = Log::merge(reps.into_iter().map(|r| r.log).collect());

    let mut oracle = Oracle::new(&fx);
    let mut timed = log.phase.clone();
    timed.mismatch += oracle.mismatches(&log.samples);
    probe_phase.mismatch += oracle.mismatches(&probes);
    out.detail("oracle_checked", log.samples.len() + probes.len());

    let hit_ratio = ratio(log.cached as f64, (log.cached + log.uncached) as f64);
    out.detail("hit_ratio", hit_ratio);
    check_hit_ratio(w, &log, &mut out);
    let n = log.lat_us.len();
    let tail = supported_tail(n);
    out.detail("latency_samples", n);
    let profile: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| format!("\"p{p}\": {}", percentile(&log.lat_us, p)))
        .collect();
    out.detail("latency_profile_us", format!("{{{}}}", profile.join(", ")));
    out.detail("tail_percentile", tail.unwrap_or(0.0));
    out.check(tail.is_some_and(|p| p >= 99.0), || {
        format!("{n} latency samples leave fewer than 10 beyond p99")
    });

    out.metrics.insert("throughput_ops_s", throughput);
    out.metrics.insert("cpu_ms_per_op", cpu_per_op);
    out.metrics.insert("latency_p50_us", p50);
    let p99 = if rep_p99.iter().all(Option::is_some) {
        out.detail("p99_over", crate::json_str("repetitions, trimmed mean"));
        trimmed_mean(&rep_p99.iter().flatten().copied().collect::<Vec<_>>())
    } else {
        out.detail("p99_over", crate::json_str("all repetitions pooled"));
        percentile(&log.lat_us, 99.0)
    };
    out.metrics.insert("latency_p99_us", p99);
    out.metrics.insert(
        "slo_attainment",
        ratio(log.within_slo as f64, log.phase.attempted as f64),
    );
    out.metrics.insert("val_mre_pct", mre);
    out.detail("window_s", secs_total);
    out.detail("predictions_ok", log.phase.succeeded);
    out.phase("timed", timed);
    out.phase("probe", probe_phase);
    Ok(out)
}

/// The workload's hit-ratio invariant: every timed `hit` request is a
/// cache hit, every `miss` request a miss.
fn check_hit_ratio(w: Workload, log: &Log, out: &mut Outcome) {
    match w {
        Workload::Hit => out.check(log.uncached == 0, || {
            format!("hit: {} timed predictions missed the cache", log.uncached)
        }),
        _ => out.check(log.cached == 0, || {
            format!("miss: {} timed predictions hit the cache", log.cached)
        }),
    }
}

/// Server boots (each timed as set-up) per measuring run; the window is
/// split evenly across them.
const REPS: usize = 10;

/// One repetition's measurements.
struct Rep {
    log: Log,
    sl: Slices,
    secs: f64,
}

/// p99 over one repetition, when it has at least 10 samples beyond it.
fn whole_p99(sorted: &[f64]) -> Option<f64> {
    supported_tail(sorted.len())
        .filter(|&p| p >= 99.0)
        .map(|_| percentile(sorted, 99.0))
}

/// Time slices of the timed window. Rates, CPU per op and latency
/// percentiles are taken per slice and combined across slices robustly
/// (latencies: median; rates: mean of the middle six), so a few slow
/// seconds of the host move one slice, not the figure.
const SLICES: usize = 10;

/// Per-slice figures combined across slices.
struct Slices {
    throughput: f64,
    cpu_per_op: f64,
    p50: f64,
    /// Only when every slice has at least 10 samples beyond its p99.
    p99: Option<f64>,
}

impl Slices {
    fn of(log: &Log, cpu: &[f64], seconds: f64) -> Slices {
        let len = seconds / SLICES as f64;
        let mut items = [0u64; SLICES];
        let mut lats: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
        for &(done_s, lat) in &log.done {
            let k = ((done_s / len) as usize).min(SLICES - 1);
            items[k] += 1;
            lats[k].push(lat);
        }
        for l in &mut lats {
            l.sort_by(f64::total_cmp);
        }
        let per = |f: &dyn Fn(usize) -> f64| median(&(0..SLICES).map(f).collect::<Vec<_>>());
        let mid = |f: &dyn Fn(usize) -> f64| trimmed_mean(&(0..SLICES).map(f).collect::<Vec<_>>());
        let p99_ok = lats
            .iter()
            .all(|l| supported_tail(l.len()).is_some_and(|p| p >= 99.0));
        Slices {
            throughput: mid(&|k| items[k] as f64 / len),
            cpu_per_op: mid(&|k| ratio(cpu[k + 1] - cpu[k], items[k] as f64)),
            p50: per(&|k| percentile(&lats[k], 50.0)),
            p99: p99_ok.then(|| per(&|k| percentile(&lats[k], 99.0))),
        }
    }
}

type WindowFn<'a> = dyn Fn(&str, f64, bool) -> (Log, Vec<f64>, f64) + 'a;

/// The traced run: an untraced half window, a traced half window with
/// `/metrics`, server counters and kernel dispatch read as deltas
/// around it, then (server stopped) the layer replay.
fn traced_run(
    args: &Args,
    server: Server,
    fx: &Fixture,
    out: &mut Outcome,
    window: &WindowFn<'_>,
) -> Result<(), String> {
    let addr = server.local_addr().to_string();
    let half = args.seconds / 2.0;
    let (plain, _, plain_secs) = window(&addr, half, false);

    let m0 = scrape(&addr);
    let s0 = server.stats();
    let d0 = occu_tensor::dispatch_counts();
    let (log, _, secs) = window(&addr, half, true);
    let d1 = occu_tensor::dispatch_counts();
    let s1 = server.stats();
    let m1 = scrape(&addr);
    Server::shutdown(server);

    let w = args.workload;
    let mut oracle = Oracle::new(fx);
    let mut timed = plain.phase.clone();
    timed.merge(&log.phase);
    timed.mismatch += oracle.mismatches(&plain.samples) + oracle.mismatches(&log.samples);
    out.phase("timed", timed);
    check_hit_ratio(w, &plain, out);
    check_hit_ratio(w, &log, out);
    out.metrics.insert(
        "obs.trace_overhead_ratio",
        ratio(
            plain.phase.succeeded as f64 / plain_secs,
            log.phase.succeeded as f64 / secs,
        ),
    );
    // The server's stage percentiles cover its last `SERVER_WINDOW`
    // requests, which on `miss` reach back into the untraced half; the
    // client p50 the gap is taken against covers the same requests.
    let mut done: Vec<(f64, f64)> = plain.done.clone();
    done.extend(log.done.iter().map(|&(t, lat)| (plain_secs + t, lat)));
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut recent: Vec<f64> = done
        .iter()
        .rev()
        .take(SERVER_WINDOW)
        .map(|&(_, lat)| lat)
        .collect();
    recent.sort_by(f64::total_cmp);
    serve_layer_metrics(out, &m0, &m1, &s0, &s1, percentile(&recent, 50.0));
    out.metrics.insert(
        "tensor.dispatch_simd_calls",
        d1.simd().saturating_sub(d0.simd()) as f64,
    );
    out.metrics.insert(
        "tensor.dispatch_scalar_calls",
        d1.scalar.saturating_sub(d0.scalar) as f64,
    );

    // Replay the workload's own requests through the public functions
    // of the layers its timed phase runs. Every `hit` answer comes from
    // the cache, so only the fleet LRU is replayed there.
    if w == Workload::Miss {
        let items: Vec<ReplayItem<'_>> = stream::miss_stream(args.seed)
            .into_iter()
            .take(REPLAY_ITEMS)
            .enumerate()
            .map(|(i, key)| ReplayItem {
                request_id: i as u64,
                model: key.model_id(),
                config: {
                    let mut c = key.model_id().default_config();
                    c.batch_size = key.batch;
                    c
                },
                device: key.device_spec(),
                weights: &fx.model,
            })
            .collect();
        layers::replay(&items, w, out);
    }
    layers::fleet_primitives(&key_stream(w, args.seed), w == Workload::Miss, out);
    layers::write_trace(args, out)
}

/// Requests the server's rolling latency windows hold (`occu-serve`
/// telemetry).
const SERVER_WINDOW: usize = 4096;

/// Requests the `miss` replay re-runs: the first ones of the stream,
/// with the request ids their client spans carry.
const REPLAY_ITEMS: usize = 24;

/// The workload's key stream, for the fleet primitives: the `hit`
/// cycle or the `miss` permutation.
fn key_stream(w: Workload, seed: u64) -> Vec<Key> {
    const N: usize = 20_000;
    match w {
        Workload::Hit => {
            let ws = stream::hit_working_set(seed);
            let order = stream::hit_order(seed, 0);
            (0..N).map(|i| ws[order[i % order.len()]]).collect()
        }
        _ => stream::miss_stream(seed).into_iter().take(N).collect(),
    }
}

/// Per-layer metrics of `occu-serve` and `occu-fleet` from the
/// `/metrics` and `Server::stats()` deltas around the traced window.
fn serve_layer_metrics(
    out: &mut Outcome,
    m0: &BTreeMap<String, f64>,
    m1: &BTreeMap<String, f64>,
    s0: &DrainStats,
    s1: &DrainStats,
    client_p50_us: f64,
) {
    let delta = |name: &str| family(m1, name) - family(m0, name);
    // Stage percentiles come from the server's rolling windows (the
    // last 4096 requests at the scrape), not from deltas.
    let stage = |s: &str| {
        m1.get(&format!("serve_stage_us{{stage=\"{s}\",quantile=\"0.5\"}}"))
            .copied()
            .unwrap_or(0.0)
    };
    let names = [
        ("queue_wait", "serve.stage.queue_wait_p50_us"),
        ("parse", "serve.stage.parse_p50_us"),
        ("cache_lookup", "serve.stage.cache_lookup_p50_us"),
        ("featurize", "serve.stage.featurize_p50_us"),
        ("batch_dwell", "serve.stage.batch_dwell_p50_us"),
        ("predict", "serve.stage.predict_p50_us"),
        ("serialize", "serve.stage.serialize_p50_us"),
        ("write", "serve.stage.write_p50_us"),
    ];
    for (s, metric) in names {
        out.metrics.insert(metric, stage(s));
    }
    let server_p50 = m1
        .get("serve_request_total_us{quantile=\"0.5\"}")
        .copied()
        .unwrap_or(0.0);
    out.metrics.insert("serve.server_total_p50_us", server_p50);
    out.metrics
        .insert("serve.client_gap_p50_us", client_p50_us - server_p50);
    out.metrics.insert(
        "serve.batch_size_mean",
        ratio(
            delta("serve_batch_size_sum"),
            delta("serve_batch_size_count"),
        ),
    );
    out.metrics
        .insert("serve.requests", (s1.requests - s0.requests) as f64);
    out.metrics
        .insert("serve.errors", (s1.errors - s0.errors) as f64);
    out.metrics
        .insert("serve.throttled", (s1.throttled - s0.throttled) as f64);
    out.metrics
        .insert("serve.rejected", (s1.rejected - s0.rejected) as f64);

    let lookups = delta("serve_cache_hits") + delta("serve_cache_misses");
    out.metrics.insert(
        "fleet.l1_hit_ratio",
        ratio(delta("serve_shard_l1_hits"), lookups),
    );
    out.metrics.insert("fleet.l1_lookups", lookups);
    let l2 = delta("serve_l2_hits") + delta("serve_l2_misses");
    out.metrics
        .insert("fleet.l2_hit_ratio", ratio(delta("serve_l2_hits"), l2));
    out.metrics.insert("fleet.l2_lookups", l2);
    let plans = delta("serve_plan_hits") + delta("serve_plan_compiles");
    out.metrics.insert(
        "fleet.plan_hit_ratio",
        ratio(delta("serve_plan_hits"), plans),
    );
    out.metrics.insert("fleet.plan_lookups", plans);
    out.metrics
        .insert("fleet.plan_compiles", delta("serve_plan_compiles"));
}
