//! Serving set-up shared by the batch and open-loop stages, and the traced
//! replay of the per-layer primitives a plan walks.

use std::sync::Arc;
use std::time::Instant;

use rescnn_core::{
    extract_features, CalibrationCurves, DynamicResolutionPipeline, PipelineConfig, ScaleModel,
    ScaleModelConfig, ScaleModelTrainer, StorageCalibrator,
};
use rescnn_data::{Dataset, DatasetKind, DatasetSpec, Sample};
use rescnn_imaging::{crop_and_resize_cow, CropRatio, Image, SsimConfig, SsimReference};
use rescnn_models::ModelKind;
use rescnn_oracle::AccuracyOracle;
use rescnn_projpeg::{ProgressiveDecoder, ProgressiveImage};

use crate::report::{Metrics, Outcome};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{mix, BoxResult};

/// The full candidate ladder the pipelines serve.
pub const SERVE_LADDER: [usize; 7] = [112, 168, 224, 280, 336, 392, 448];
/// Storage quality the requests are pre-encoded at.
pub const ENCODE_QUALITY: u8 = 90;
const TRAIN_SAMPLES: usize = 64;
const CALIBRATION_SAMPLES: usize = 12;
/// Frame cap of the training and calibration splits.
const SPLIT_MAX_DIMENSION: usize = 256;
/// Seed of the deployed program's own data: the scale model's training
/// split, the storage-calibration split and the oracle. Like the backbone's
/// weight seed it is fixed, so every run serves the same program and only
/// the request traffic follows `--seed`.
const PROGRAM_SEED: u64 = 2021;

/// Program set-up of the serving stages: a trained scale model, a calibrated
/// storage policy, and the two pipelines built on them.
pub struct ServingSetup {
    pub scale_model: ScaleModel,
    /// ResNet-50 pipeline with the calibrated storage policy (open loop).
    pub calibrated: Arc<DynamicResolutionPipeline>,
    /// ResNet-50 pipeline with the default read-all policy (batch).
    pub read_all: DynamicResolutionPipeline,
    pub setup_s: f64,
}

/// Trains the scale model, calibrates storage on a separate split and builds
/// both pipelines.
pub fn set_up(kind: DatasetKind) -> BoxResult<ServingSetup> {
    let seed = PROGRAM_SEED;
    // Split generation is benchmark input, so it is made before the clock runs.
    let train = DatasetSpec::for_kind(kind)
        .with_len(TRAIN_SAMPLES)
        .with_max_dimension(SPLIT_MAX_DIMENSION)
        .build(mix(seed, 1, 0));
    let split = DatasetSpec::for_kind(kind)
        .with_len(CALIBRATION_SAMPLES)
        .with_max_dimension(SPLIT_MAX_DIMENSION)
        .build(mix(seed, 2, 0));
    let start = Instant::now();
    let trainer = ScaleModelTrainer::new(
        ScaleModelConfig {
            resolutions: SERVE_LADDER.to_vec(),
            seed: mix(seed, 3, 0),
            ..Default::default()
        },
        ModelKind::ResNet50,
        kind,
    );
    let scale_model = trainer.train(&train, 4)?;
    let base = PipelineConfig::new(ModelKind::ResNet50, kind);
    let curves = CalibrationCurves::compute(
        &split,
        ModelKind::ResNet50,
        base.crop,
        &SERVE_LADDER,
        ENCODE_QUALITY,
    )?;
    let policy =
        StorageCalibrator::default().calibrate(&curves, &AccuracyOracle::new(mix(seed, 4, 0)));
    let oracle_seed = mix(seed, 5, 0);
    let calibrated = Arc::new(DynamicResolutionPipeline::new(
        base.clone().with_storage(policy),
        scale_model.clone(),
        AccuracyOracle::new(oracle_seed),
    )?);
    let read_all = DynamicResolutionPipeline::new(
        base,
        scale_model.clone(),
        AccuracyOracle::new(oracle_seed),
    )?;
    Ok(ServingSetup { scale_model, calibrated, read_all, setup_s: start.elapsed().as_secs_f64() })
}

/// Seeded request samples with their pre-encoded storage streams.
pub fn requests(
    kind: DatasetKind,
    len: usize,
    max_dimension: usize,
    seed: u64,
) -> BoxResult<(Dataset, Vec<ProgressiveImage>)> {
    let data =
        DatasetSpec::for_kind(kind).with_len(len).with_max_dimension(max_dimension).build(seed);
    let encoded =
        data.iter().map(|s| s.encode_progressive(ENCODE_QUALITY)).collect::<Result<_, _>>()?;
    Ok((data, encoded))
}

/// Per-call timings of the primitives one plan walks.
#[derive(Default)]
struct PrimitiveTimes {
    render_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    full_decode_ms: Vec<f64>,
    crop_resize_ms: Vec<f64>,
    ssim_ref_ms: Vec<f64>,
    ssim_score_ms: Vec<f64>,
    features_ms: Vec<f64>,
    scale_model_us: Vec<f64>,
    scans_read: Vec<f64>,
}

fn timed<R>(into: &mut Vec<f64>, scale: f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    into.push(t.elapsed().as_secs_f64() * scale);
    out
}

/// One storage walk (`advance` per scan until the SSIM threshold holds, or a
/// full decode when the policy reads everything), timing each primitive.
/// Returns the scans applied and the presented frame.
fn walk(
    decoder: &mut ProgressiveDecoder<'_>,
    reference: &SsimReference,
    crop: CropRatio,
    res: usize,
    threshold: Option<f64>,
    t: &mut PrimitiveTimes,
) -> BoxResult<(usize, Image)> {
    let num_scans = decoder.image().num_scans();
    match threshold {
        Some(threshold) => loop {
            let scans = decoder.scans_applied() + 1;
            let frame = timed(&mut t.advance_ms, 1e3, || decoder.advance())?;
            let presented =
                timed(&mut t.crop_resize_ms, 1e3, || crop_and_resize_cow(frame, crop, res))?;
            let quality = timed(&mut t.ssim_score_ms, 1e3, || reference.score(&presented))?;
            if quality >= threshold || scans == num_scans {
                return Ok((scans, presented.into_owned()));
            }
        },
        None => {
            // A decoder already past the last scan has nothing left to decode.
            let frame = if decoder.remaining_scans() == 0 {
                decoder.advance_to(num_scans)?
            } else {
                timed(&mut t.full_decode_ms, 1e3, || decoder.advance_to(num_scans))?
            };
            let presented =
                timed(&mut t.crop_resize_ms, 1e3, || crop_and_resize_cow(frame, crop, res))?;
            timed(&mut t.ssim_score_ms, 1e3, || reference.score(&presented))?;
            Ok((num_scans, presented.into_owned()))
        }
    }
}

fn reference(
    original: &Image,
    crop: CropRatio,
    res: usize,
    t: &mut PrimitiveTimes,
) -> BoxResult<SsimReference> {
    let target = timed(&mut t.crop_resize_ms, 1e3, || crop_and_resize_cow(original, crop, res))?;
    Ok(timed(&mut t.ssim_ref_ms, 1e3, || SsimReference::new(&target, SsimConfig::default()))?)
}

/// Replays the planner's primitive calls for one request (render, preview
/// walk, features, scale model, and the chosen rung's walk), returning the
/// chosen resolution and scans read so the caller can check the replay
/// against the pipeline's own plan.
fn replay_one(
    pipeline: &DynamicResolutionPipeline,
    scale_model: &ScaleModel,
    sample: &Sample,
    encoded: &ProgressiveImage,
    t: &mut PrimitiveTimes,
) -> BoxResult<(usize, usize)> {
    let config = pipeline.config();
    let crop = config.crop;
    let storage = &config.storage;
    let preview_res = scale_model.preview_resolution();
    let original = timed(&mut t.render_ms, 1e3, || sample.render())?;
    let preview_ref = reference(&original, crop, preview_res, t)?;
    let mut decoder = encoded.progressive_decoder()?;
    let (preview_scans, preview_image) =
        walk(&mut decoder, &preview_ref, crop, preview_res, storage.threshold_for(preview_res), t)?;
    let features = timed(&mut t.features_ms, 1e3, || extract_features(&preview_image))?;
    let chosen = timed(&mut t.scale_model_us, 1e6, || scale_model.choose_resolution(&features));
    let scans_read = if chosen == preview_res {
        preview_scans
    } else {
        let chosen_ref = reference(&original, crop, chosen, t)?;
        match storage.threshold_for(chosen) {
            None => {
                walk(&mut decoder, &chosen_ref, crop, chosen, None, t)?;
                encoded.num_scans()
            }
            Some(threshold) => {
                let mut fresh = encoded.progressive_decoder()?;
                let (scans, _) = walk(&mut fresh, &chosen_ref, crop, chosen, Some(threshold), t)?;
                if preview_scans > scans {
                    // The deeper preview prefix is what gets presented.
                    let frame =
                        timed(&mut t.advance_ms, 1e3, || decoder.advance_to(preview_scans))?;
                    let presented = timed(&mut t.crop_resize_ms, 1e3, || {
                        crop_and_resize_cow(frame, crop, chosen)
                    })?;
                    timed(&mut t.ssim_score_ms, 1e3, || chosen_ref.score(&presented))?;
                }
                preview_scans.max(scans)
            }
        }
    };
    t.scans_read.push(scans_read as f64);
    Ok((chosen, scans_read))
}

/// Traced-run per-layer numbers for one serving stage (`stage` is `open` or
/// `batch`): the stage calls `plan_with_storage` and `execute` timed on the
/// stage's own request inputs, and the primitives each plan walks, replayed
/// on the same inputs. Spans go to `tracer`, one request id per input.
pub fn trace_primitives(
    stage: &str,
    pipeline: &DynamicResolutionPipeline,
    scale_model: &ScaleModel,
    inputs: &[(&Sample, &ProgressiveImage)],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    per_layer: &mut Metrics,
) -> BoxResult<()> {
    let mut plan_ms = Vec::new();
    let mut execute_us = Vec::new();
    let mut t = PrimitiveTimes::default();
    for (request, (sample, encoded)) in inputs.iter().enumerate() {
        let request = Some(request as u64);
        let stage_span = tracer.open(&format!("{stage}.request"), None, request);
        let start = Instant::now();
        let (plan, _) = tracer.span("core.plan_with_storage", stage_span, request, || {
            pipeline.plan_with_storage(sample, (*encoded).clone())
        });
        plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let plan = plan?;
        let start = Instant::now();
        let (record, _) =
            tracer.span("core.execute", stage_span, request, || pipeline.execute(sample, &plan));
        execute_us.push(start.elapsed().as_secs_f64() * 1e6);
        record?;

        let start = Instant::now();
        let (chosen, scans) = replay_one(pipeline, scale_model, sample, encoded, &mut t)?;
        tracer.record("replay.plan_primitives", start, Instant::now(), stage_span, request);
        tracer.close(stage_span);
        outcome.check(chosen == plan.chosen_resolution && scans == plan.scans_read(), || {
            format!(
                "{stage}: primitive replay chose {chosen}²/{scans} scans, the plan {}²/{} scans",
                plan.chosen_resolution,
                plan.scans_read()
            )
        });
    }
    per_layer.set(format!("core.plan_ms.p50.{stage}"), quantile(&plan_ms, 0.5), "ms");
    per_layer.set(format!("core.plan_ms.p90.{stage}"), quantile(&plan_ms, 0.9), "ms");
    per_layer.set(format!("core.execute_us.{stage}"), median(&execute_us), "us");
    per_layer.set(format!("data.render_ms.{stage}"), median(&t.render_ms), "ms");
    if stage == "open" {
        per_layer.set("projpeg.advance_ms.open", median(&t.advance_ms), "ms");
    } else {
        per_layer.set("projpeg.full_decode_ms.batch", median(&t.full_decode_ms), "ms");
    }
    per_layer.set(format!("projpeg.scans_read.{stage}"), mean(&t.scans_read), "count");
    per_layer.set(format!("imaging.crop_resize_ms.{stage}"), median(&t.crop_resize_ms), "ms");
    per_layer.set(format!("imaging.ssim_ref_ms.{stage}"), median(&t.ssim_ref_ms), "ms");
    per_layer.set(format!("imaging.ssim_score_ms.{stage}"), median(&t.ssim_score_ms), "ms");
    per_layer.set(format!("core.features_ms.{stage}"), median(&t.features_ms), "ms");
    per_layer.set(format!("core.scale_model_us.{stage}"), median(&t.scale_model_us), "us");
    Ok(())
}
