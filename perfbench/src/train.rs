//! The `train` workload: dataset generation, `Trainer::fit` at default
//! parallelism, held-out MRE, and per-sample labelling latency.

use crate::layers::{self, ReplayItem};
use crate::stats::{median, percentile, ratio, supported_tail};
use crate::stream::{shuffle, Rng};
use crate::{cpu_ms, peak_rss_mb, slo_us, Args, Outcome, Phase, Workload};
use occu_core::dataset::{make_sample, SEEN_MODELS};
use occu_core::{Dataset, DnnOccu, DnnOccuConfig, OccuPredictor, TrainConfig, Trainer};
use occu_gpusim::DeviceSpec;
use std::time::Instant;

/// Configurations sampled per seen model.
pub const CONFIGS_PER_MODEL: usize = 4;
/// Share of the dataset held out for `val_mre_pct`.
pub const TEST_FRACTION: f64 = 0.25;
/// Epochs per fit.
pub const EPOCHS: usize = 25;
/// Seed of the training dataset and of the initial weights. Fixed, not
/// drawn from the run seed: at this size the held-out MRE varies by a
/// factor of four between datasets, so a seeded dataset would make
/// `val_mre_pct` too noisy to guard anything. With both fixed it is one
/// exact number per commit. The run seed orders the labelling stream.
pub const DATA_SEED: u64 = 1;

/// Dataset generations per measuring run; `setup_s` is their median.
/// One takes under 10 ms on a 2-core host whose speed shifts in
/// stretches of about 100 ms, so the repetitions span about a second.
const SETUP_REPS: usize = 150;
/// Labelled samples timed per run, at least (p99 needs 1000).
const MIN_LABELS: usize = 1000;

/// The training dataset on the A100.
pub fn dataset() -> Dataset {
    Dataset::generate(
        &SEEN_MODELS,
        CONFIGS_PER_MODEL,
        &DeviceSpec::a100(),
        DATA_SEED,
    )
}

/// One fit from the fixed initial weights; returns the model and the
/// fit's wall seconds.
fn fit(train: &Dataset) -> Result<(DnnOccu, f64), String> {
    let mut model = DnnOccu::new(DnnOccuConfig::fast(), DATA_SEED);
    let trainer = Trainer::new(TrainConfig {
        epochs: EPOCHS,
        seed: DATA_SEED,
        ..TrainConfig::default()
    });
    let t0 = Instant::now();
    trainer.fit(&mut model, train).map_err(|e| e.to_string())?;
    Ok((model, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut data = Dataset::default();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        data = dataset();
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_times);
    out.metrics.insert("setup_s", setup_s);
    out.phase(
        "setup",
        Phase {
            attempted: SETUP_REPS as u64,
            succeeded: SETUP_REPS as u64,
            ..Phase::default()
        },
    );
    let (train, val) = data.split(TEST_FRACTION).map_err(|e| e.to_string())?;
    let sample_epochs = (train.len() * EPOCHS) as f64;
    out.detail(
        "train",
        format!(
            "{{\"models\": {}, \"configs_per_model\": {CONFIGS_PER_MODEL}, \"train\": {}, \"held_out\": {}, \"epochs\": {EPOCHS}, \"data_seed\": {DATA_SEED}, \"workers\": {}}}",
            SEEN_MODELS.len(),
            train.len(),
            val.len(),
            occu_core::Parallelism::default().resolve()
        ),
    );
    if args.trace {
        return traced(args, &train, setup_s, out);
    }
    // The labelling stream: the dataset's own configurations, relabelled
    // one by one after the fits in a seeded order. Freshly drawn ones
    // would make the latency figures depend on which graph sizes a seed
    // draws (seeds moved p50 by half).
    let mut order: Vec<usize> = (0..data.len()).collect();
    shuffle(&mut order, &mut Rng::new(args.seed, 30));

    let untrained = DnnOccu::new(DnnOccuConfig::fast(), DATA_SEED)
        .evaluate(&val)
        .mre_percent();
    let start = Instant::now();
    let cpu0 = cpu_ms();
    let mut fits = Vec::new();
    let mut trained = None;
    while fits.is_empty() || start.elapsed().as_secs_f64() + fits[0] < args.seconds * 0.9 {
        let (model, secs) = fit(&train)?;
        fits.push(secs);
        trained.get_or_insert(model);
    }
    let cpu = cpu_ms() - cpu0;
    let mut lat = Vec::new();
    let dev = DeviceSpec::a100();
    while lat.len() < MIN_LABELS || start.elapsed().as_secs_f64() < args.seconds {
        let s = &data.samples[order[lat.len() % order.len()]];
        let t0 = Instant::now();
        std::hint::black_box(make_sample(s.model, s.config, &dev));
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let rss = peak_rss_mb();
    let within = lat
        .iter()
        .filter(|&&l| l <= slo_us(Workload::Train))
        .count();
    lat.sort_by(f64::total_cmp);

    let model = trained.expect("at least one fit");
    let mre = f64::from(model.evaluate(&val).mre_percent());
    out.check(mre.is_finite() && mre < f64::from(untrained), || {
        format!("trained val MRE {mre:.2}% is not below the untrained model's {untrained:.2}%")
    });
    out.check(supported_tail(lat.len()).is_some_and(|p| p >= 99.0), || {
        "too few labelling samples for p99".to_string()
    });
    out.detail("untrained_val_mre_pct", untrained);
    out.detail("fit_s", format!("{fits:?}"));
    out.detail("latency_samples", lat.len());
    out.detail(
        "latency_is",
        crate::json_str("per-sample labelling: model build + gpusim profile + featurize"),
    );

    out.metrics.insert(
        "throughput_ops_s",
        median(&fits.iter().map(|s| sample_epochs / s).collect::<Vec<_>>()),
    );
    out.metrics.insert("latency_p50_us", percentile(&lat, 50.0));
    out.metrics.insert("latency_p99_us", percentile(&lat, 99.0));
    out.metrics
        .insert("slo_attainment", ratio(within as f64, lat.len() as f64));
    out.metrics
        .insert("cpu_ms_per_op", cpu / (sample_epochs * fits.len() as f64));
    out.metrics.insert("peak_rss_mb", rss);
    out.metrics.insert("val_mre_pct", mre);
    let n = (fits.len() + lat.len()) as u64;
    out.phase(
        "timed",
        Phase {
            attempted: n,
            succeeded: n,
            ..Phase::default()
        },
    );
    Ok(out)
}

/// The traced run: one fit with recording off and one with it on (the
/// trainer's own spans), kernel dispatch read as deltas around the
/// traced fit, then the layer replay on training samples.
fn traced(args: &Args, train: &Dataset, setup_s: f64, mut out: Outcome) -> Result<Outcome, String> {
    let (_, plain) = fit(train)?;
    occu_obs::enable();
    let d0 = occu_tensor::dispatch_counts();
    let (model, traced) = fit(train)?;
    let d1 = occu_tensor::dispatch_counts();
    out.phase(
        "timed",
        Phase {
            attempted: 2,
            succeeded: 2,
            ..Phase::default()
        },
    );
    out.metrics
        .insert("obs.trace_overhead_ratio", traced / plain);
    out.metrics.insert(
        "tensor.dispatch_simd_calls",
        d1.simd().saturating_sub(d0.simd()) as f64,
    );
    out.metrics.insert(
        "tensor.dispatch_scalar_calls",
        d1.scalar.saturating_sub(d0.scalar) as f64,
    );
    out.metrics.insert("core.dataset_generate_s", setup_s);

    let items: Vec<ReplayItem<'_>> = train
        .samples
        .iter()
        .take(24)
        .enumerate()
        .map(|(i, s)| ReplayItem {
            request_id: i as u64,
            model: s.model,
            config: s.config,
            device: DeviceSpec::a100(),
            weights: &model,
        })
        .collect();
    layers::replay(&items, Workload::Train, &mut out);
    layers::write_trace(args, &mut out)?;
    Ok(out)
}
