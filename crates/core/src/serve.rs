//! Batched serving: resolution-bucketed scheduling of concurrent inference
//! requests over the persistent engine worker pool.
//!
//! The paper's thesis is that resolution is the dominant lever on CNN serving
//! cost; a production deployment therefore sees *mixed-resolution* traffic — the
//! scale model sends easy images to 112² and hard ones to 448². Executing such a
//! queue one request at a time wastes the batch-level parallelism the persistent
//! pool makes cheap. The [`BatchScheduler`] instead:
//!
//! 1. **Plans** every queued request ([`DynamicResolutionPipeline::plan`]): the
//!    preview read + scale-model stage commits each request to a backbone
//!    resolution. Planning itself is data-parallel across requests.
//! 2. **Buckets** the plans by chosen resolution, so each batch is
//!    shape-homogeneous — the layout that lets a backbone execute it as one
//!    batched forward pass.
//! 3. **Executes** each bucket in batches of at most
//!    [`max_batch`](BatchOptions::max_batch), splitting the thread budget between
//!    sample-level (outer) and kernel-level (inner) parallelism with
//!    [`split_parallelism`]: a full batch runs one sample per worker, a partial
//!    batch keeps every worker on one sample at a time.
//! 4. **Reports** per-bucket latency/throughput ([`BucketStats`]) plus an
//!    aggregate [`PipelineReport`] that is *identical* — bitwise, including float
//!    accumulation order — to what the sequential
//!    [`evaluate`](DynamicResolutionPipeline::evaluate) path produces, because
//!    records are folded in submission order regardless of bucket or batch
//!    scheduling.
//!
//! # Fault isolation
//!
//! A serving queue is multi-tenant: one request carrying a truncated or
//! bit-flipped progressive stream (see
//! [`BatchScheduler::submit_with_storage`]), or one whose stage panics, must
//! never take the rest of its batch down. Each request's plan and execute
//! stages therefore run under [`parallel_map_isolated`]: a failure — including
//! a caught panic, surfaced as [`CoreError::Panicked`] — becomes a
//! [`RequestError`] in [`ServeReport::errors`] while every other request
//! completes and is folded into the partial report. Set
//! [`BatchOptions::strict`] to restore fail-fast semantics (the error with the
//! lowest submission index is returned).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use rescnn_data::{Dataset, Sample};
use rescnn_projpeg::ProgressiveImage;
use rescnn_tensor::{num_threads, parallel_map_isolated, split_parallelism, EngineContext};

use crate::error::{CoreError, Result};
use crate::pipeline::{DynamicResolutionPipeline, InferencePlan, InferenceRecord, PipelineReport};

/// Tuning knobs for the batch scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchOptions {
    /// Maximum requests executed as one batch (clamped to at least 1).
    pub max_batch: usize,
    /// Total worker-thread budget for the scheduler (`None` uses the pipeline's
    /// engine context, falling back to the engine default).
    pub threads: Option<usize>,
    /// When `true`, the first per-request failure (in submission order) aborts
    /// the run and is returned as the run's error. When `false` (the default),
    /// failures are isolated into [`ServeReport::errors`] and every healthy
    /// request still completes.
    pub strict: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { max_batch: 8, threads: None, strict: false }
    }
}

impl BatchOptions {
    /// Creates options with the given batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Bounds the scheduler's total thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Selects fail-fast (`true`) or isolate-and-continue (`false`) handling of
    /// per-request failures.
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }
}

/// A per-request failure isolated out of a serving run, keyed by the request's
/// submission index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestError {
    /// The request's position in submission order.
    pub index: usize,
    /// Identifier of the sample the request carried.
    pub sample_id: u64,
    /// What went wrong; panics are contained as [`CoreError::Panicked`].
    pub error: CoreError,
}

/// Latency/throughput accounting for one resolution bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketStats {
    /// The bucket's backbone resolution.
    pub resolution: usize,
    /// Requests routed to this bucket.
    pub requests: usize,
    /// Batches the bucket was executed in.
    pub batches: usize,
    /// Conv layer shapes whose dispatch algorithm was resolved once for the
    /// whole bucket (instead of per layer per request) and carried as the
    /// calibration of the context the bucket executes in.
    pub dispatch_shapes: usize,
    /// Sample-level (outer) parallelism used for the bucket's full batches.
    pub outer_parallelism: usize,
    /// Kernel-level (inner) parallelism paired with `outer_parallelism`.
    pub inner_parallelism: usize,
    /// Wall-clock seconds spent executing the bucket.
    pub total_seconds: f64,
    /// Mean wall-clock latency per batch, in milliseconds.
    pub mean_batch_latency_ms: f64,
    /// Requests per second achieved within the bucket.
    pub throughput_rps: f64,
}

/// The outcome of draining a [`BatchScheduler`] queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Aggregate accuracy/cost report over the requests that completed,
    /// identical to the sequential [`evaluate`](DynamicResolutionPipeline::evaluate)
    /// over the same requests in the same submission order (a *partial* report
    /// when [`errors`](Self::errors) is non-empty).
    pub report: PipelineReport,
    /// Per-resolution-bucket latency/throughput, ascending by resolution.
    pub buckets: Vec<BucketStats>,
    /// Requests that failed, ascending by submission index; empty on a fully
    /// healthy run. Each failure was isolated — it never aborted its batch.
    pub errors: Vec<RequestError>,
    /// Wall-clock seconds spent in the planning stage (preview + scale model).
    pub planning_seconds: f64,
    /// Thread budget the scheduler distributed.
    pub threads: usize,
}

/// Groups queued inference requests by chosen resolution and executes them as
/// homogeneous batches over the persistent worker pool.
///
/// # Examples
/// ```no_run
/// use rescnn_core::{BatchOptions, BatchScheduler, DynamicResolutionPipeline};
/// # fn demo(pipeline: &DynamicResolutionPipeline, data: &rescnn_data::Dataset)
/// #     -> rescnn_core::Result<()> {
/// let mut scheduler = BatchScheduler::new(pipeline, BatchOptions::default());
/// scheduler.submit_all(data);
/// let outcome = scheduler.run()?;
/// for bucket in &outcome.buckets {
///     println!("{}²: {:.1} req/s", bucket.resolution, bucket.throughput_rps);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchScheduler<'a> {
    pipeline: &'a DynamicResolutionPipeline,
    options: BatchOptions,
    queue: Vec<QueuedRequest<'a>>,
}

/// One queued request: the sample plus, optionally, an externally supplied
/// storage state (the path by which corrupt streams reach the scheduler).
#[derive(Debug)]
struct QueuedRequest<'a> {
    sample: &'a Sample,
    storage: Option<ProgressiveImage>,
}

impl<'a> BatchScheduler<'a> {
    /// Creates a scheduler serving one pipeline.
    pub fn new(pipeline: &'a DynamicResolutionPipeline, options: BatchOptions) -> Self {
        BatchScheduler { pipeline, options, queue: Vec::new() }
    }

    /// Enqueues one request, returning its position in the queue. Results are
    /// always reported in submission order.
    pub fn submit(&mut self, sample: &'a Sample) -> usize {
        self.queue.push(QueuedRequest { sample, storage: None });
        self.queue.len() - 1
    }

    /// Enqueues one request whose progressive stream is supplied by the caller
    /// instead of re-encoded from the rendered sample — how externally stored
    /// (possibly corrupt or truncated) streams enter the scheduler. A stream
    /// error is isolated to this request; see [`ServeReport::errors`].
    pub fn submit_with_storage(&mut self, sample: &'a Sample, storage: ProgressiveImage) -> usize {
        self.queue.push(QueuedRequest { sample, storage: Some(storage) });
        self.queue.len() - 1
    }

    /// Enqueues every sample of a dataset in order.
    pub fn submit_all(&mut self, dataset: &'a Dataset) {
        self.queue.extend(dataset.iter().map(|sample| QueuedRequest { sample, storage: None }));
    }

    /// Number of requests currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The scheduler's total thread budget.
    fn thread_budget(&self) -> usize {
        self.options
            .threads
            .or(self.pipeline.config().engine_threads)
            .unwrap_or_else(num_threads)
            .max(1)
    }

    /// Drains the queue: plans, buckets, executes, and aggregates.
    ///
    /// Per-request failures — codec errors from corrupt streams, stage panics
    /// (contained as [`CoreError::Panicked`]) — are isolated into
    /// [`ServeReport::errors`] while every other request completes, unless
    /// [`BatchOptions::strict`] asks for fail-fast.
    ///
    /// # Errors
    /// Returns an error if the queue is empty, or — in strict mode only — the
    /// per-request failure with the lowest submission index.
    pub fn run(&mut self) -> Result<ServeReport> {
        if self.queue.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        let queue = std::mem::take(&mut self.queue);
        let threads = self.thread_budget();
        let max_batch = self.options.max_batch.max(1);

        // Stage 1: plan every request (data-parallel across the queue), each
        // under its own fault-isolation boundary.
        let planning_start = Instant::now();
        let context = self.pipeline.engine_context();
        let plans = run_batch_isolated(&context, threads, queue.len(), |index| {
            let entry = &queue[index];
            match &entry.storage {
                Some(encoded) => {
                    self.pipeline.plan_with_storage_unscoped(entry.sample, encoded.clone())
                }
                None => self.pipeline.plan_unscoped(entry.sample),
            }
        });
        let planning_seconds = planning_start.elapsed().as_secs_f64();
        let mut errors: Vec<RequestError> = Vec::new();
        let mut plan_slots: Vec<Option<InferencePlan>> = Vec::with_capacity(queue.len());
        for (index, outcome) in plans.into_iter().enumerate() {
            match outcome {
                Ok(plan) => plan_slots.push(Some(plan)),
                Err(error) => {
                    errors.push(RequestError { index, sample_id: queue[index].sample.id, error });
                    plan_slots.push(None);
                }
            }
        }

        // Stage 2: bucket the planned requests by chosen resolution (BTreeMap ⇒
        // ascending buckets). Failed plans never reach a bucket.
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (index, plan) in plan_slots.iter().enumerate() {
            if let Some(plan) = plan {
                buckets.entry(plan.chosen_resolution).or_default().push(index);
            }
        }

        // Stage 3: execute each bucket in homogeneous batches. The bucket's
        // conv-dispatch table is resolved once per (resolution, calibration
        // generation) — not per request — and becomes the calibration of the
        // context the bucket executes in (the pool carries it onto workers), so
        // all of a bucket's requests see one consistent table even if a boot
        // sweep upgrades the pipeline's table mid-bucket.
        let mut records: Vec<Option<InferenceRecord>> = vec![None; queue.len()];
        let mut bucket_stats = Vec::with_capacity(buckets.len());
        for (&resolution, members) in &buckets {
            let (outer, inner) = split_parallelism(max_batch.min(members.len()), threads);
            let dispatch = self.pipeline.bucket_dispatch(resolution);
            let dispatch_shapes = dispatch.len();
            let bucket_context = context.clone().with_calibration(dispatch);
            let bucket_start = Instant::now();
            let mut batches = 0usize;
            for batch in members.chunks(max_batch) {
                let outcomes = run_batch_isolated(&bucket_context, threads, batch.len(), |slot| {
                    let index = batch[slot];
                    let plan = plan_slots[index].as_ref().expect("bucketed requests have plans");
                    self.pipeline.execute_unscoped(queue[index].sample, plan)
                });
                for (slot, outcome) in outcomes.into_iter().enumerate() {
                    let index = batch[slot];
                    match outcome {
                        Ok(record) => records[index] = Some(record),
                        Err(error) => errors.push(RequestError {
                            index,
                            sample_id: queue[index].sample.id,
                            error,
                        }),
                    }
                }
                batches += 1;
            }
            let total_seconds = bucket_start.elapsed().as_secs_f64();
            bucket_stats.push(BucketStats {
                resolution,
                requests: members.len(),
                batches,
                dispatch_shapes,
                outer_parallelism: outer,
                inner_parallelism: inner,
                total_seconds,
                mean_batch_latency_ms: total_seconds * 1e3 / batches.max(1) as f64,
                throughput_rps: members.len() as f64 / total_seconds.max(1e-12),
            });
        }
        // The decoded storage state is the bulk of the scheduler's memory; release
        // it before aggregation.
        drop(plan_slots);

        // Failures arrive plan-stage-first then bucket-by-bucket; report them in
        // submission order. In strict mode the earliest one aborts the run.
        errors.sort_by_key(|e| e.index);
        if self.options.strict {
            if let Some(first) = errors.first() {
                return Err(first.error.clone());
            }
        }

        // Stage 4: fold the completed records in submission order through the
        // same `PipelineReport::from_records` the sequential evaluate path uses,
        // so the identical-results guarantee is structural, whatever the
        // batching did. On a run with failures this yields a *partial* report
        // over exactly the requests that completed.
        let records: Vec<InferenceRecord> = records.into_iter().flatten().collect();
        let report = PipelineReport::from_records("dynamic".to_string(), &records);
        Ok(ServeReport { report, buckets: bucket_stats, errors, planning_seconds, threads })
    }
}

/// Runs `f(i)` for `i` in `0..count` with the scheduler's inner/outer thread
/// split and a per-task fault-isolation boundary, returning the outcomes in
/// index order. Every task runs in `context` (usually the pipeline's
/// [`EngineContext`], plus a bucket's dispatch table or a cancellation token),
/// which [`parallel_map_isolated`] carries onto pool workers; the inner thread
/// budget replaces the context's own setting for the duration of the batch. A
/// task that panics yields [`CoreError::Panicked`] in its own slot — the pool,
/// the other tasks, and any scoped state are unaffected.
pub(crate) fn run_batch_isolated<T, F>(
    context: &EngineContext,
    threads: usize,
    count: usize,
    f: F,
) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    context.scope(|| {
        parallel_map_isolated(count, threads, f)
            .into_iter()
            .map(|outcome| match outcome {
                Ok(result) => result,
                // Cooperative cancellations (a token installed around the batch,
                // e.g. by the SLO watchdog) are refused at the task boundary and
                // reported as such, not as panics.
                Err(message) if message.starts_with("cancelled") => {
                    Err(CoreError::Cancelled { reason: message })
                }
                Err(message) => Err(CoreError::Panicked { message }),
            })
            .collect()
    })
}

impl DynamicResolutionPipeline {
    /// Evaluates the dynamic pipeline over a dataset through the batch scheduler.
    ///
    /// The returned [`ServeReport::report`] is identical to the sequential
    /// [`evaluate`](Self::evaluate) — batching is an execution detail and must
    /// never change results — while [`ServeReport::buckets`] adds the per-bucket
    /// latency/throughput the serving layer is measured by.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty, or — in strict mode — the
    /// earliest per-sample failure.
    pub fn evaluate_batched(
        &self,
        dataset: &Dataset,
        options: BatchOptions,
    ) -> Result<ServeReport> {
        let mut scheduler = BatchScheduler::new(self, options);
        scheduler.submit_all(dataset);
        scheduler.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale_model::{ScaleModelConfig, ScaleModelTrainer};
    use crate::PipelineConfig;
    use rescnn_data::{DatasetKind, DatasetSpec};
    use rescnn_imaging::CropRatio;
    use rescnn_models::ModelKind;
    use rescnn_oracle::AccuracyOracle;

    fn build_pipeline(resolutions: Vec<usize>) -> DynamicResolutionPipeline {
        let config =
            ScaleModelConfig { resolutions: resolutions.clone(), epochs: 30, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(60).with_max_dimension(96).build(1);
        let scale_model = trainer.train(&train, 3).unwrap();
        let pipeline_config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike)
            .with_crop(CropRatio::new(0.56).unwrap())
            .with_resolutions(resolutions);
        DynamicResolutionPipeline::new(pipeline_config, scale_model, AccuracyOracle::new(77))
            .unwrap()
    }

    #[test]
    fn batched_report_is_identical_to_sequential_for_every_batch_size() {
        let pipeline = build_pipeline(vec![112, 224, 336]);
        let data = DatasetSpec::cars_like().with_len(24).with_max_dimension(96).build(123);
        let sequential = pipeline.evaluate(&data).unwrap();
        for max_batch in [1usize, 3, 8, 32] {
            let served = pipeline
                .evaluate_batched(&data, BatchOptions::default().with_max_batch(max_batch))
                .unwrap();
            assert_eq!(served.report, sequential, "batch size {max_batch} changed the report");
            let bucketed: usize = served.buckets.iter().map(|b| b.requests).sum();
            assert_eq!(bucketed, data.len(), "every request must land in a bucket");
            for bucket in &served.buckets {
                assert!(sequential.resolution_histogram.contains_key(&bucket.resolution));
                assert_eq!(
                    sequential.resolution_histogram[&bucket.resolution], bucket.requests,
                    "bucket sizes must match the sequential resolution histogram"
                );
                assert!(bucket.batches >= 1);
                assert!(bucket.batches <= bucket.requests.div_ceil(max_batch));
                assert!(bucket.throughput_rps > 0.0);
                assert!(bucket.outer_parallelism * bucket.inner_parallelism <= served.threads);
            }
        }
    }

    #[test]
    fn batched_results_are_stable_across_thread_budgets() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(10).with_max_dimension(72).build(7);
        let options = BatchOptions::default().with_max_batch(4);
        let baseline = pipeline.evaluate_batched(&data, options.with_threads(1)).unwrap();
        for threads in [2usize, 4, 7] {
            let served = pipeline.evaluate_batched(&data, options.with_threads(threads)).unwrap();
            assert_eq!(served.report, baseline.report, "{threads} threads changed results");
            assert_eq!(served.threads, threads);
        }
    }

    #[test]
    fn buckets_resolve_their_dispatch_tables_once() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(8).with_max_dimension(72).build(11);
        let served = pipeline.evaluate_batched(&data, BatchOptions::default()).unwrap();
        for bucket in &served.buckets {
            // Every bucket resolved the backbone's full per-shape algo table.
            let layers = pipeline
                .config()
                .backbone
                .arch(rescnn_data::DatasetKind::CarsLike.num_classes())
                .conv_layers(bucket.resolution)
                .unwrap();
            let unique: std::collections::HashSet<_> = layers
                .iter()
                .map(|l| rescnn_tensor::ConvShapeKey::new(l.params, l.input))
                .collect();
            assert_eq!(bucket.dispatch_shapes, unique.len());
            // The cached table is reused (same Arc) while the calibration
            // generation is unchanged.
            let first = pipeline.bucket_dispatch(bucket.resolution);
            let second = pipeline.bucket_dispatch(bucket.resolution);
            assert!(std::sync::Arc::ptr_eq(&first, &second));
        }
    }

    #[test]
    fn bucket_dispatch_cache_invalidates_on_new_calibration() {
        let pipeline = build_pipeline(vec![112]);
        let before = pipeline.bucket_dispatch(112);
        // Upgrading the pipeline's table bumps its generation; the cache
        // re-resolves, and the upgrade steers the re-resolved table.
        let layer = &pipeline
            .config()
            .backbone
            .arch(rescnn_data::DatasetKind::CarsLike.num_classes())
            .conv_layers(112)
            .unwrap()[1];
        let key = rescnn_tensor::ConvShapeKey::new(layer.params, layer.input);
        let mut upgrade = rescnn_tensor::AlgoCalibration::new();
        upgrade.set(key, rescnn_tensor::ConvAlgo::Direct);
        pipeline.calibration_handle().write().unwrap().merge(&upgrade);
        let after = pipeline.bucket_dispatch(112);
        assert!(!std::sync::Arc::ptr_eq(&before, &after), "stale bucket table survived");
        assert_eq!(after.get(&key), Some(rescnn_tensor::ConvAlgo::Direct));
        assert_ne!(before.get(&key), Some(rescnn_tensor::ConvAlgo::Direct));
    }

    /// The execution stage's zero-allocation property must hold across warm
    /// scheduler runs: a drained queue re-submitted and re-run advances the
    /// engine's tracked allocation counter (kernel scratch + activation arena)
    /// by zero.
    #[test]
    fn warm_scheduler_runs_do_not_allocate_tracked_buffers() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(6).with_max_dimension(72).build(3);
        let options = BatchOptions::default().with_max_batch(3);
        // Warm-up run populates every pool.
        let baseline = pipeline.evaluate_batched(&data, options).unwrap();
        let warm = rescnn_tensor::scratch::heap_allocations();
        let again = pipeline.evaluate_batched(&data, options).unwrap();
        assert_eq!(
            rescnn_tensor::scratch::heap_allocations() - warm,
            0,
            "a warm BatchScheduler run must not allocate scratch or arena buffers"
        );
        assert_eq!(again.report, baseline.report);
    }

    #[test]
    fn scheduler_queue_bookkeeping() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(4).with_max_dimension(64).build(2);
        let mut scheduler = BatchScheduler::new(&pipeline, BatchOptions::default());
        assert!(matches!(scheduler.run(), Err(CoreError::EmptyDataset)));
        assert_eq!(scheduler.submit(&data[0]), 0);
        assert_eq!(scheduler.submit(&data[1]), 1);
        assert_eq!(scheduler.queued(), 2);
        let outcome = scheduler.run().unwrap();
        assert_eq!(outcome.report.num_samples, 2);
        assert_eq!(scheduler.queued(), 0, "run drains the queue");
        assert!(matches!(scheduler.run(), Err(CoreError::EmptyDataset)));
    }

    #[test]
    fn options_clamp_and_default() {
        let options = BatchOptions::default();
        assert_eq!(options.max_batch, 8);
        assert_eq!(options.threads, None);
        assert!(!options.strict);
        assert_eq!(BatchOptions::default().with_max_batch(0).max_batch, 1);
        assert_eq!(BatchOptions::default().with_threads(0).threads, Some(1));
        assert!(BatchOptions::default().with_strict(true).strict);
    }

    #[test]
    fn corrupt_streams_are_isolated_to_their_own_requests() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(8).with_max_dimension(72).build(19);
        let quality = pipeline.config().encode_quality;
        let corrupt: Vec<usize> = vec![1, 5];

        let mut scheduler = BatchScheduler::new(&pipeline, BatchOptions::default());
        for (index, sample) in data.iter().enumerate() {
            if corrupt.contains(&index) {
                // Keep only 3 bytes of the first scan: the preview decode fails.
                let stream = sample.encode_progressive(quality).unwrap().with_truncated_scan(0, 3);
                scheduler.submit_with_storage(sample, stream);
            } else {
                scheduler.submit(sample);
            }
        }
        let served = scheduler.run().unwrap();

        // The failures are per-request records, in submission order.
        assert_eq!(served.errors.len(), corrupt.len());
        for (error, &index) in served.errors.iter().zip(&corrupt) {
            assert_eq!(error.index, index);
            assert_eq!(error.sample_id, data[index].id);
            assert!(matches!(error.error, CoreError::Codec(_)), "got {:?}", error.error);
        }
        // Every healthy request completed, and the partial report is identical
        // to serving the healthy subset alone.
        assert_eq!(served.report.num_samples, data.len() - corrupt.len());
        let mut healthy = BatchScheduler::new(&pipeline, BatchOptions::default());
        for (index, sample) in data.iter().enumerate() {
            if !corrupt.contains(&index) {
                healthy.submit(sample);
            }
        }
        let healthy = healthy.run().unwrap();
        assert!(healthy.errors.is_empty());
        assert_eq!(served.report, healthy.report);
    }

    #[test]
    fn strict_mode_reports_the_earliest_failure_in_submission_order() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(4).with_max_dimension(64).build(5);
        let quality = pipeline.config().encode_quality;
        let mut scheduler =
            BatchScheduler::new(&pipeline, BatchOptions::default().with_strict(true));
        scheduler.submit(&data[0]);
        scheduler.submit_with_storage(
            &data[1],
            data[1].encode_progressive(quality).unwrap().with_truncated_scan(0, 1),
        );
        scheduler.submit(&data[2]);
        scheduler.submit_with_storage(
            &data[3],
            data[3].encode_progressive(quality).unwrap().with_truncated_scan(0, 1),
        );
        match scheduler.run() {
            Err(CoreError::Codec(_)) => {}
            other => panic!("strict mode must fail fast with the codec error, got {other:?}"),
        }
    }

    #[test]
    fn healthy_storage_submissions_match_the_internal_encode_path() {
        let pipeline = build_pipeline(vec![112, 224]);
        let data = DatasetSpec::cars_like().with_len(6).with_max_dimension(72).build(23);
        let quality = pipeline.config().encode_quality;
        let baseline = pipeline.evaluate_batched(&data, BatchOptions::default()).unwrap();
        let mut scheduler = BatchScheduler::new(&pipeline, BatchOptions::default());
        for sample in &data {
            scheduler.submit_with_storage(sample, sample.encode_progressive(quality).unwrap());
        }
        let served = scheduler.run().unwrap();
        assert!(served.errors.is_empty());
        assert_eq!(served.report, baseline.report, "caller-supplied healthy streams must match");
    }
}
