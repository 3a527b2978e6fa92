//! Per-layer attribution, measured from outside: the workload's own
//! inputs replayed through each layer's public functions, one span per
//! layer call, plus GEMM kernel timings on the shapes those plans run.
//! Nothing in the program is instrumented for this.

use crate::stats::median;
use crate::stream::Key;
use crate::{json_str, out_dir, Args, Outcome, Workload};
use occu_core::features::{featurize, GLOBAL_FEAT_DIM};
use occu_core::train::occupancy_to_target;
use occu_core::{DnnOccu, DnnOccuConfig, OccuPredictor, Precision, EDGE_FEAT_DIM, NODE_FEAT_DIM};
use occu_fleet::{FairQueue, LruCache};
use occu_gpusim::DeviceSpec;
use occu_models::{ModelConfig, ModelId};
use occu_nn::{GradBuffer, Tape};
use occu_tensor::{Matrix, SeededRng};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One input of the replay, tagged with the id of the client request
/// that carried it so both spans share an identifier.
pub struct ReplayItem<'a> {
    pub request_id: u64,
    pub model: ModelId,
    pub config: ModelConfig,
    pub device: DeviceSpec,
    pub weights: &'a DnnOccu,
}

/// Runs `f` inside a span named `name`; returns its result and wall
/// time in microseconds.
fn timed<T>(
    name: &'static str,
    times: &mut BTreeMap<&'static str, Vec<f64>>,
    f: impl FnOnce() -> T,
) -> T {
    let _span = occu_obs::span!(name);
    let t0 = Instant::now();
    let v = std::hint::black_box(f());
    times
        .entry(name)
        .or_default()
        .push(t0.elapsed().as_secs_f64() * 1e6);
    v
}

/// One GEMM of a forward pass: `(m x k) * (k x n)`; `weight` marks the
/// `Linear` products whose right operand is a compiled weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gemm {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub weight: bool,
}

/// The GEMMs one forward pass executes for a graph of `n` nodes and
/// `e` edge rows, derived from the model configuration and the layer
/// order of `DnnOccu::forward` (ANEE, Graphormer, set decoder, head).
pub fn gemm_shapes(cfg: &DnnOccuConfig, n: usize, e: usize) -> Vec<Gemm> {
    let d = cfg.hidden;
    let hd = d / cfg.heads;
    let mut v = Vec::new();
    let lin = |v: &mut Vec<Gemm>, m, k, n| {
        v.push(Gemm {
            m,
            k,
            n,
            weight: true,
        })
    };
    let act = |v: &mut Vec<Gemm>, m, k, n| {
        v.push(Gemm {
            m,
            k,
            n,
            weight: false,
        })
    };
    let mha = |v: &mut Vec<Gemm>, x: usize, y: usize| {
        lin(v, x, d, d);
        lin(v, y, d, d);
        lin(v, y, d, d);
        for _ in 0..cfg.heads {
            act(v, x, hd, y); // scores = q_h k_h^T
            act(v, x, y, hd); // attn v_h
        }
        lin(v, x, d, d);
    };
    let ffn = |v: &mut Vec<Gemm>, rows: usize| {
        lin(v, rows, d, 2 * d);
        lin(v, rows, 2 * d, d);
    };
    // ANEE: W_u on nodes, the attention vector on edge pairs, W_e and
    // W_m on edges.
    lin(&mut v, n, NODE_FEAT_DIM, d);
    act(&mut v, e, 2 * d, 1);
    lin(&mut v, e, EDGE_FEAT_DIM, d);
    lin(&mut v, e, d, d);
    for _ in 0..cfg.graphormer_layers {
        mha(&mut v, n, n);
        ffn(&mut v, n);
    }
    if cfg.use_set_decoder {
        let k = cfg.pma_seeds;
        ffn(&mut v, n);
        mha(&mut v, k, n);
        ffn(&mut v, k);
        for _ in 0..cfg.decoder_sab_layers {
            mha(&mut v, k, k);
            ffn(&mut v, k);
        }
        ffn(&mut v, k);
    }
    lin(&mut v, 1, d + GLOBAL_FEAT_DIM, 2 * d);
    lin(&mut v, 1, 2 * d, 64);
    lin(&mut v, 1, 64, 1);
    v
}

/// Whether the f32 kernel fans this product out across threads (one
/// scoped-thread spawn per call): the blocked path past the
/// parallel threshold, with more than one worker.
fn spawns_threads(g: &Gemm) -> bool {
    rayon::current_num_threads() > 1
        && occu_tensor::use_blocked(g.m, g.k, g.n)
        && occu_tensor::should_parallelize(g.m, g.k, g.n)
}

/// Mean wall time of `f` in microseconds over enough calls to fill
/// about a millisecond (at least three), after one warm call.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t0.elapsed().as_secs_f64() < 1e-3 {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Aggregate rate (GFLOP/s) of the weight GEMMs of the given shapes,
/// each weighted by how often the forward passes run it, through the
/// public prepacked f32 kernel.
fn gemm_rate(shapes: &BTreeMap<Gemm, usize>) -> f64 {
    let mut rng = SeededRng::new(5);
    let (mut flops, mut t32) = (0.0, 0.0);
    for (g, &count) in shapes {
        let a = Matrix::randn(g.m, g.k, 1.0, &mut rng);
        let w = Matrix::randn(g.k, g.n, 0.1, &mut rng);
        let packed = w.prepack_b();
        let mut out = Matrix::zeros(g.m, g.n);
        let c = count as f64;
        flops += c * 2.0 * (g.m * g.k * g.n) as f64;
        t32 += c * per_call_us(|| a.matmul_prepacked_into(&packed, &mut out));
    }
    flops / t32 / 1e3
}

/// Per-layer metrics of the server and fleet (read from `/metrics`,
/// `Server::stats()` and the fleet primitives).
const SERVER_LAYERS: [&str; 24] = [
    "serve.stage.queue_wait_p50_us",
    "serve.stage.parse_p50_us",
    "serve.stage.cache_lookup_p50_us",
    "serve.stage.featurize_p50_us",
    "serve.stage.batch_dwell_p50_us",
    "serve.stage.predict_p50_us",
    "serve.stage.serialize_p50_us",
    "serve.stage.write_p50_us",
    "serve.server_total_p50_us",
    "serve.client_gap_p50_us",
    "serve.batch_size_mean",
    "serve.requests",
    "serve.errors",
    "serve.throttled",
    "serve.rejected",
    "fleet.l1_hit_ratio",
    "fleet.l1_lookups",
    "fleet.l2_hit_ratio",
    "fleet.l2_lookups",
    "fleet.plan_hit_ratio",
    "fleet.plan_lookups",
    "fleet.plan_compiles",
    "fleet.lru_get_ns",
    "fleet.fair_queue_push_pop_ns",
];

/// Layers every model-running path uses: graph build, featurize and the
/// f32 GEMMs of a forward pass.
const MODEL_LAYERS: [&str; 6] = [
    "models.build_us",
    "core.featurize_us",
    "tensor.gemm_gflops",
    "tensor.gemm_calls_per_pred",
    "tensor.gemm_par_calls_per_pred",
    "tensor.gemm_bytes_per_pred",
];

/// Layers only the serving model path uses: fingerprint and the
/// compiled plan.
const PLAN_LAYERS: [&str; 6] = [
    "graph.fingerprint_us",
    "core.plan_compile_us.f32",
    "core.plan_predict_us.f32",
    "plan.instrs",
    "plan.weight_bytes",
    "plan.fresh_allocs_steady",
];

/// Layers only training uses: labelling, the tape interpreter, forward
/// and backward, dataset generation.
const TRAINING_LAYERS: [&str; 5] = [
    "gpusim.label_us",
    "core.interp_predict_us",
    "nn.forward_us",
    "nn.backward_us",
    "core.dataset_generate_s",
];

/// The per-layer metrics a workload's timed phase does not exercise.
/// The traced run reports them as 0 and lists them, rather than timing
/// layers the workload never runs.
pub fn not_applicable(w: Workload) -> Vec<&'static str> {
    match w {
        // Every answer comes from the cache: no model, plan or kernel
        // layer runs, and nothing reaches a shard's fair queue.
        Workload::Hit => [&MODEL_LAYERS[..], &PLAN_LAYERS, &TRAINING_LAYERS]
            .concat()
            .into_iter()
            .chain(["fleet.fair_queue_push_pop_ns"])
            .collect(),
        Workload::Miss => TRAINING_LAYERS.to_vec(),
        Workload::Train => [&SERVER_LAYERS[..], &PLAN_LAYERS].concat(),
    }
}

/// The replay: per-layer spans and medians over `items` through the
/// layers workload `w` runs (`miss`: build, fingerprint, featurize, the
/// f32 plan; `train`: build, labelling, featurize, the interpreter,
/// one tape forward and backward), plus f32 kernel rates and GEMM counts
/// on their shapes.
pub fn replay(items: &[ReplayItem<'_>], w: Workload, out: &mut Outcome) {
    let serving = w == Workload::Miss;
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut instrs, mut weight_bytes, mut fresh) = (Vec::new(), Vec::new(), 0u64);
    let (mut calls, mut par_calls, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut weight_shapes: BTreeMap<Gemm, usize> = BTreeMap::new();
    let mut plan_vs_interp = 0u64;
    for item in items {
        let _root = occu_obs::span!("replay.request", request_id = item.request_id);
        let graph = timed("models.build", &mut times, || {
            item.model.build(&item.config)
        });
        if serving {
            timed("graph.fingerprint", &mut times, || graph.fingerprint());
        }
        let label = (!serving).then(|| {
            timed("gpusim.label", &mut times, || {
                occu_gpusim::profile_graph(&graph, &item.device)
            })
        });
        let fg = timed("core.featurize", &mut times, || {
            featurize(&graph, &item.device)
        });

        if let Some(label) = label {
            timed("core.interp_predict", &mut times, || {
                item.weights.predict(&fg)
            });
            // One training step on this input, split at the tape boundary.
            let mut tape = Tape::new();
            let y = timed("nn.forward", &mut times, || {
                item.weights.forward(&mut tape, &fg)
            });
            let target = tape.constant(Matrix::from_vec(
                1,
                1,
                vec![occupancy_to_target(label.mean_occupancy as f32)],
            ));
            let loss = tape.mse_loss(y, target);
            let mut grads = GradBuffer::for_store(item.weights.store());
            timed("nn.backward", &mut times, || {
                tape.backward_into(loss, item.weights.store(), &mut grads)
            });
        } else {
            let plan = timed("core.plan_compile.f32", &mut times, || {
                item.weights.compile_plan_for_with(&fg, Precision::F32)
            });
            plan.predict(&fg);
            let a0 = occu_tensor::arena_total_fresh_allocs();
            let p32 = timed("core.plan_predict.f32", &mut times, || plan.predict(&fg));
            fresh += occu_tensor::arena_total_fresh_allocs() - a0;
            // Outside any span: the interpreter is the oracle here.
            if p32.to_bits() != item.weights.predict(&fg).to_bits() {
                plan_vs_interp += 1;
            }
            let stats = plan.stats();
            instrs.push(stats.instrs as f64);
            weight_bytes.push(stats.weight_bytes as f64);
        }

        let shapes = gemm_shapes(item.weights.config(), fg.num_nodes(), fg.edge_src.len());
        calls.push(shapes.len() as f64);
        par_calls.push(shapes.iter().filter(|g| spawns_threads(g)).count() as f64);
        bytes.push(
            shapes
                .iter()
                .map(|g| 4.0 * (g.m * g.k + g.k * g.n + g.m * g.n) as f64)
                .sum(),
        );
        for g in shapes.into_iter().filter(|g| g.weight) {
            *weight_shapes.entry(g).or_default() += 1;
        }
    }

    for (span, metric) in [
        ("models.build", "models.build_us"),
        ("graph.fingerprint", "graph.fingerprint_us"),
        ("gpusim.label", "gpusim.label_us"),
        ("core.featurize", "core.featurize_us"),
        ("core.interp_predict", "core.interp_predict_us"),
        ("core.plan_compile.f32", "core.plan_compile_us.f32"),
        ("core.plan_predict.f32", "core.plan_predict_us.f32"),
        ("nn.forward", "nn.forward_us"),
        ("nn.backward", "nn.backward_us"),
    ] {
        if let Some(v) = times.get(span) {
            out.metrics.insert(metric, median(v));
        }
    }
    if serving {
        out.metrics.insert("plan.instrs", median(&instrs));
        out.metrics
            .insert("plan.weight_bytes", median(&weight_bytes));
        out.metrics.insert("plan.fresh_allocs_steady", fresh as f64);
        out.check(plan_vs_interp == 0, || {
            format!("{plan_vs_interp} f32 plan predictions differ from the interpreter")
        });
    }
    out.metrics
        .insert("tensor.gemm_calls_per_pred", median(&calls));
    out.metrics
        .insert("tensor.gemm_par_calls_per_pred", median(&par_calls));
    out.metrics
        .insert("tensor.gemm_bytes_per_pred", median(&bytes));
    out.metrics
        .insert("tensor.gemm_gflops", gemm_rate(&weight_shapes));
    out.detail("replay_items", items.len());
    out.detail(
        "gemm_counts_from",
        json_str("shapes derived from the model configuration; bytes are operand+result f32 sizes"),
    );
    out.detail("gemm_weight_shapes", weight_shapes.len());
}

/// `occu-fleet` primitives timed on the workload's key stream: an LRU
/// of the server's L1-slice size keyed like the server's cache and,
/// when `queue` (the workload reaches the shard collectors), a
/// single-lane fair queue.
pub fn fleet_primitives(keys: &[Key], queue: bool, out: &mut Outcome) {
    let defaults = occu_serve::ServeConfig::default();
    let mut lru: LruCache<(String, String, usize, String, u64), f32> =
        LruCache::new(defaults.cache_cap / defaults.shards);
    let wire: Vec<(String, String, usize, String, u64)> = keys
        .iter()
        .map(|k| {
            (
                "default".to_string(),
                k.model_id().name().to_string(),
                k.batch,
                k.device_name().to_string(),
                1,
            )
        })
        .collect();
    for k in &wire {
        if lru.get(k).is_none() {
            lru.insert(k.clone(), 0.5);
        }
    }
    let t0 = Instant::now();
    let mut found = 0usize;
    for k in &wire {
        found += usize::from(std::hint::black_box(lru.get(k)).is_some());
    }
    out.metrics.insert(
        "fleet.lru_get_ns",
        t0.elapsed().as_secs_f64() * 1e9 / wire.len().max(1) as f64,
    );
    out.detail("lru_get_found", found);

    if queue {
        let q: FairQueue<usize> = FairQueue::new(1024, &[1]);
        let t0 = Instant::now();
        for i in 0..keys.len() {
            let _ = q.push(0, i);
            std::hint::black_box(q.try_pop());
        }
        out.metrics.insert(
            "fleet.fair_queue_push_pop_ns",
            t0.elapsed().as_secs_f64() * 1e9 / keys.len().max(1) as f64,
        );
    }
}

/// Drains every recorded span, computes self time (span time minus the
/// part of it its child spans cover) and writes the trace as JSONL to
/// `perfbench/out/trace-<workload>.jsonl` (the latest traced run).
pub fn write_trace(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let spans = occu_obs::take_spans();
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut self_by_name: BTreeMap<String, f64> = BTreeMap::new();
    let mut text = String::new();
    for s in &spans {
        let (start, end) = (s.start_us, s.start_us + s.dur_us);
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let self_us = (s.dur_us - covered).max(0.0);
        *self_by_name.entry(s.name.clone()).or_default() += self_us;
        let fields: Vec<String> = s
            .fields
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    occu_obs::FieldVal::Str(x) => json_str(x),
                    occu_obs::FieldVal::Num(x) => x.to_string(),
                };
                format!("{}: {v}", json_str(k))
            })
            .collect();
        text.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"thread\": {}, \"name\": {}, \"start_us\": {}, \"dur_us\": {}, \"self_us\": {self_us}, \"fields\": {{{}}}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            json_str(&s.name),
            s.start_us,
            s.dur_us,
            fields.join(", ")
        ));
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", args.workload.name()));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.detail("trace_file", json_str(&path.display().to_string()));
    out.detail("trace_spans", spans.len());
    let selfs: Vec<String> = self_by_name
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    out.detail("self_us_by_span", format!("{{{}}}", selfs.join(", ")));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_applicable_lists_declared_metrics_once() {
        for w in [Workload::Hit, Workload::Miss, Workload::Train] {
            let idle = not_applicable(w);
            let distinct: std::collections::BTreeSet<&str> = idle.iter().copied().collect();
            assert_eq!(distinct.len(), idle.len(), "{w:?} lists a metric twice");
            for m in idle {
                assert!(
                    crate::PER_LAYER.iter().any(|(n, _)| *n == m),
                    "{m} is not a per-layer metric"
                );
            }
        }
    }

    #[test]
    fn gemm_model_counts_every_linear_layer() {
        // Each Linear registers one `*.weight` parameter; the model's
        // weight GEMMs must match them one for one.
        let model = DnnOccu::new(DnnOccuConfig::fast(), 1);
        let store = model.store();
        let linears = store
            .ids()
            .filter(|&id| store.name(id).ends_with(".w"))
            .count();
        let modelled = gemm_shapes(model.config(), 10, 9)
            .iter()
            .filter(|g| g.weight)
            .count();
        assert!(linears > 0);
        assert_eq!(
            modelled,
            linears,
            "parameter names: {:?}",
            store
                .ids()
                .map(|id| store.name(id).to_string())
                .collect::<Vec<_>>()
        );
    }
}
