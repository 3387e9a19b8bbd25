//! Wall-clock benchmarks of the dynamic-resolution decision path (feature extraction,
//! scale-model prediction), the analytic kernel autotuner, the plan stage in isolation
//! (`planning` group: `sample_curves` plus one-request and 32-request `plan` latency —
//! the PR 3 acceptance numbers), the batched serving layer (resolution-bucketed
//! scheduling across the 112–448 ladder at batch sizes 1/8/32), and the persistent
//! pool's dispatch overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use rescnn_bench::load::{run_slo_load, ArrivalTrace, FaultPlan};
use rescnn_core::{
    extract_features, BatchOptions, CalibrationCurves, DynamicResolutionPipeline, PipelineConfig,
    ResolutionLatencyModel, ScaleModel, ScaleModelConfig, ScaleModelTrainer, SloOptions,
    TrainingExample, FEATURE_COUNT,
};
use rescnn_data::{DatasetKind, DatasetSpec};
use rescnn_hwsim::{AutoTuner, CpuProfile, TunerConfig};
use rescnn_imaging::{crop_and_resize, render_scene, CropRatio, SceneSpec};
use rescnn_models::ModelKind;
use rescnn_oracle::AccuracyOracle;
use rescnn_projpeg::{ProgressiveImage, ScanPlan};
use rescnn_tensor::parallel::for_each_chunk;

/// The paper's full candidate-resolution ladder.
const LADDER: [usize; 7] = [112, 168, 224, 280, 336, 392, 448];

/// Builds the ResNet-50 pipeline the serving/planning benches share.
fn ladder_pipeline() -> DynamicResolutionPipeline {
    let ladder = LADDER.to_vec();
    let config = ScaleModelConfig { resolutions: ladder.clone(), epochs: 30, ..Default::default() };
    let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet50, DatasetKind::CarsLike);
    let train = DatasetSpec::cars_like().with_len(60).with_max_dimension(96).build(1);
    let scale_model = trainer.train(&train, 3).expect("scale model trains");
    DynamicResolutionPipeline::new(
        PipelineConfig::new(ModelKind::ResNet50, DatasetKind::CarsLike).with_resolutions(ladder),
        scale_model,
        AccuracyOracle::new(7),
    )
    .expect("pipeline assembles")
}

fn pipeline_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    let image = render_scene(&SceneSpec::new(472, 405, 9).with_detail(0.5)).unwrap();
    let preview = crop_and_resize(&image, CropRatio::new(0.75).unwrap(), 112).unwrap();
    group.bench_function("feature_extraction_112", |b| {
        b.iter(|| extract_features(&preview).unwrap())
    });

    let examples: Vec<TrainingExample> = (0..64)
        .map(|i| TrainingExample {
            features: (0..FEATURE_COUNT).map(|f| ((i * 7 + f) % 13) as f64 / 13.0).collect(),
            labels: vec![i % 2 == 0; 7],
        })
        .collect();
    let model = ScaleModel::train(&ScaleModelConfig::default(), &examples).unwrap();
    let features = examples[0].features.clone();
    group.bench_function("scale_model_predict", |b| b.iter(|| model.choose_resolution(&features)));

    let profile = CpuProfile::intel_4790k();
    let arch = ModelKind::ResNet18.arch(1000);
    let layer = arch.conv_layers(224).unwrap()[5];
    let tuner = AutoTuner::new(TunerConfig::default());
    group.bench_function("autotune_one_layer", |b| b.iter(|| tuner.tune_layer(&layer, &profile)));
    group.finish();
}

/// Batched serving across the paper's full 112–448 resolution ladder: one
/// scheduler drain (plan → bucket → execute) over a 32-request mixed-resolution
/// queue, swept over batch sizes 1/8/32. Batch 1 degenerates to sequential
/// serving, so the spread between the three is the value of resolution-bucketed
/// batching itself.
fn serving_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);

    let pipeline = ladder_pipeline();
    let queue = DatasetSpec::cars_like().with_len(32).with_max_dimension(96).build(99);

    for max_batch in [1usize, 8, 32] {
        group.bench_function(format!("batched_evaluate_32req_b{max_batch}"), |b| {
            b.iter(|| {
                pipeline
                    .evaluate_batched(&queue, BatchOptions::default().with_max_batch(max_batch))
                    .expect("serving succeeds")
            })
        });
    }
    group.finish();
}

/// Plan-stage latency, the serving-bench bottleneck PR 3 targets: the per-request
/// quality/read-curve computation (progressive decode + crop/resize + SSIM at the
/// preview and every candidate resolution) in isolation (`sample_curves` over the
/// full 112–448 ladder on a representative 472×405 source), plus the end-to-end
/// `plan` stage (render + encode + curves + scale model) for one request and a
/// 32-request queue.
fn planning_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning");
    group.sample_size(10);

    let image = render_scene(&SceneSpec::new(472, 405, 9).with_detail(0.5)).unwrap();
    let encoded = ProgressiveImage::encode(&image, 90, ScanPlan::standard()).unwrap();
    let crop = CropRatio::new(0.75).unwrap();
    group.bench_function("sample_curves_112_448_ladder", |b| {
        b.iter(|| CalibrationCurves::sample_curves(&image, &encoded, crop, &LADDER).unwrap())
    });

    let pipeline = ladder_pipeline();
    let queue = DatasetSpec::cars_like().with_len(32).with_max_dimension(96).build(99);
    group.bench_function("plan_one_request", |b| {
        b.iter(|| pipeline.plan(&queue[0]).expect("planning succeeds"))
    });
    group.bench_function("plan_32_requests", |b| {
        b.iter(|| {
            queue
                .iter()
                .map(|sample| pipeline.plan(sample).expect("planning succeeds"))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// Dispatch overhead of the persistent pool (wake parked workers) on a job whose
/// compute is negligible, so the measurement is almost pure dispatch cost.
fn dispatch_overhead_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    let mut data = vec![0u64; 1 << 10];
    group.bench_function("pool_dispatch_16_chunks", |b| {
        b.iter(|| {
            for_each_chunk(&mut data, 64, true, |index, chunk| {
                chunk[0] = chunk[0].wrapping_add(index as u64);
            })
        })
    });
    group.finish();
}

/// One SLO scheduler drain over a bursty 24-request trace with 5% stream
/// corruption: plan → virtual-clock admission (degrade/shed) → bucketed
/// execution with per-request fault isolation. Measures the serving core's
/// end-to-end overhead on top of the plain batched path above.
fn slo_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("slo");
    group.sample_size(10);

    let pipeline = ladder_pipeline();
    let data = DatasetSpec::cars_like().with_len(24).with_max_dimension(96).build(99);
    let latency = ResolutionLatencyModel::analytic(&pipeline).expect("latency model builds");
    let top_ms = latency.estimate_ms(448).max(1.0);
    let trace = ArrivalTrace::bursty(24, 6, 4.0 * top_ms, 3.0 * top_ms);
    let faults = FaultPlan::corruption(0.05, 7);
    let options = SloOptions::default().with_latency_model(latency);
    group.bench_function("slo_drain_24req_bursty_corrupt5", |b| {
        b.iter(|| {
            run_slo_load(&pipeline, &data, &trace, &faults, options.clone())
                .expect("drain never aborts on per-request faults")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    pipeline_benchmarks,
    planning_benchmarks,
    serving_benchmarks,
    dispatch_overhead_benchmarks,
    slo_benchmarks
);
criterion_main!(benches);
