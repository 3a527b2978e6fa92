//! The predictor service's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hit|miss|train --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no benchmark-side
//! tracing; `--trace 1` is a separate run that records spans and prints
//! the per-layer metrics. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds provenance, failure accounting and workload parameters. See
//! `perfbench/README.md` for the workloads and the metric-layer table.

mod client;
mod layers;
mod serve;
mod stats;
mod stream;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, (name, unit), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("slo_attainment", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("val_mre_pct", "%"),
];

/// Per-layer metrics, (name, unit), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("serve.stage.queue_wait_p50_us", "us"),
    ("serve.stage.parse_p50_us", "us"),
    ("serve.stage.cache_lookup_p50_us", "us"),
    ("serve.stage.featurize_p50_us", "us"),
    ("serve.stage.batch_dwell_p50_us", "us"),
    ("serve.stage.predict_p50_us", "us"),
    ("serve.stage.serialize_p50_us", "us"),
    ("serve.stage.write_p50_us", "us"),
    ("serve.server_total_p50_us", "us"),
    ("serve.client_gap_p50_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.throttled", "count"),
    ("serve.rejected", "count"),
    ("fleet.l1_hit_ratio", "ratio"),
    ("fleet.l1_lookups", "count"),
    ("fleet.l2_hit_ratio", "ratio"),
    ("fleet.l2_lookups", "count"),
    ("fleet.plan_hit_ratio", "ratio"),
    ("fleet.plan_lookups", "count"),
    ("fleet.plan_compiles", "count"),
    ("fleet.lru_get_ns", "ns"),
    ("fleet.fair_queue_push_pop_ns", "ns"),
    ("models.build_us", "us"),
    ("graph.fingerprint_us", "us"),
    ("core.featurize_us", "us"),
    ("core.plan_compile_us.f32", "us"),
    ("core.plan_predict_us.f32", "us"),
    ("core.interp_predict_us", "us"),
    ("plan.instrs", "count"),
    ("plan.weight_bytes", "bytes"),
    ("plan.fresh_allocs_steady", "count"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_calls_per_pred", "count"),
    ("tensor.gemm_par_calls_per_pred", "count"),
    ("tensor.gemm_bytes_per_pred", "bytes"),
    ("tensor.dispatch_simd_calls", "count"),
    ("tensor.dispatch_scalar_calls", "count"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("gpusim.label_us", "us"),
    ("core.dataset_generate_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// The latency limit `slo_attainment` counts against, in microseconds,
/// set to the scale of each workload's operation: the server's default
/// `slo_us` for `hit`, a limit the model-running `miss` path can meet,
/// and one for labelling a single training sample.
pub fn slo_us(w: Workload) -> f64 {
    match w {
        Workload::Hit => 5_000.0,
        Workload::Miss => 25_000.0,
        Workload::Train => 500.0,
    }
}

/// Which traffic a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hit,
    Miss,
    Train,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "hit" => Some(Workload::Hit),
            "miss" => Some(Workload::Miss),
            "train" => Some(Workload::Train),
            _ => None,
        }
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hit => "hit",
            Workload::Miss => "miss",
            Workload::Train => "train",
        }
    }
}

/// One run's command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds: get("seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 1.0)
            .ok_or("--seconds must be a number >= 1")?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// Requests of one phase, split by outcome class.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub succeeded: u64,
    /// Non-200 answers by status; 429 and 503 count here.
    pub http: BTreeMap<u16, u64>,
    /// Requests that got no answer (connection error or closed).
    pub transport: u64,
    /// Answers that differ from the in-process oracle.
    pub mismatch: u64,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.http.values().sum::<u64>() + self.transport + self.mismatch
    }

    /// Folds another tally of the same phase into this one.
    pub fn merge(&mut self, o: &Phase) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        for (s, n) in &o.http {
            *self.http.entry(*s).or_default() += n;
        }
        self.transport += o.transport;
        self.mismatch += o.mismatch;
    }

    fn to_json(&self) -> String {
        let http: Vec<String> = self
            .http
            .iter()
            .map(|(s, n)| format!("\"{s}\": {n}"))
            .collect();
        format!(
            "{{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"http\": {{{}}}, \"transport\": {}, \"mismatch\": {}}}",
            self.attempted,
            self.succeeded,
            self.failed(),
            http.join(", "),
            self.transport,
            self.mismatch
        )
    }
}

/// What a workload hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Request accounting per phase, in run order.
    pub phases: Vec<(&'static str, Phase)>,
    /// Invariants that did not hold; any entry fails the run.
    pub broken: Vec<String>,
    /// Workload parameters and side facts, as JSON members.
    pub details: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    pub fn detail(&mut self, key: &'static str, json: impl ToString) {
        self.details.push((key, json.to_string()));
    }

    pub fn phase(&mut self, name: &'static str, phase: Phase) {
        self.phases.push((name, phase));
    }
}

/// Quotes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where runs keep weights files and traces: `perfbench/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Process CPU time (user + system, all threads including exited
/// ones) in milliseconds, from `/proc/self/stat`.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, in USER_HZ (100/s) ticks.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the tree was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let Ok(head) = std::fs::read_to_string(root.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(root.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"host_cores\": {cores}, \"kernel_isa\": {}, \"quant_isa\": {}, \"rayon_num_threads\": {}, \"git_revision\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"slo_us\": {}}}",
        json_str(occu_tensor::active_isa().name()),
        json_str(occu_tensor::quant_isa().name()),
        json_str(&rayon),
        json_str(&git_revision()),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        slo_us(args.workload)
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload hit|miss|train --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::Train => train::run(&args),
        _ => serve::run(&args),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = Phase::default();
    for (_, p) in &out.phases {
        total.merge(p);
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        // Layers the workload does not run read 0 and are listed.
        let idle = layers::not_applicable(args.workload);
        for m in &idle {
            if out.metrics.insert(m, 0.0).is_some() {
                out.broken
                    .push(format!("{m} is both measured and not applicable"));
            }
        }
        out.detail("not_applicable", format!("{idle:?}"));
    }
    let mut broken = out.broken.clone();
    if total.failed() > 0 {
        broken.push(format!(
            "{} of {} operations failed",
            total.failed(),
            total.attempted
        ));
    }
    let mut metrics = Vec::new();
    for (name, unit) in table {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )),
            Some(v) => broken.push(format!("metric {name} is not finite ({v})")),
            None => broken.push(format!("metric {name} was not measured")),
        }
    }
    let phases: Vec<String> = out
        .phases
        .iter()
        .map(|(n, p)| format!("{}: {}", json_str(n), p.to_json()))
        .collect();
    let details: Vec<String> = out
        .details
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let broken_json: Vec<String> = broken.iter().map(|b| json_str(b)).collect();
    println!(
        "{{\"provenance\": {}, \"phases\": {{{}}}, \"details\": {{{}}}, \"broken\": [{}]}}",
        provenance(&args),
        phases.join(", "),
        details.join(", "),
        broken_json.join(", ")
    );
    for b in &broken {
        eprintln!("broken: {b}");
    }
    let correct = broken.is_empty();
    let shown = if correct {
        metrics.join(", ")
    } else {
        String::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{shown}}}}}",
        total.attempted.max(1),
        total.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units this binary emits are exactly the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn emitted_metric_names_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(workloads, ["hit", "miss", "train"]);
        for w in workloads {
            assert!(Workload::parse(w).is_some());
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let ok = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = ok("--workload miss --seed 4 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Miss, 4, 12.0, true)
        );
        assert!(ok("--workload nope --seed 4 --seconds 12 --trace 0").is_err());
        assert!(ok("--workload mix --seed 4 --seconds 12 --trace 0").is_err());
        assert!(ok("--workload hit --seed 4 --seconds 12").is_err());
        assert!(ok("--workload hit --seed 4 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload hit --seed 4 --seconds 12 --trace 0 --extra 1").is_err());
    }
}
