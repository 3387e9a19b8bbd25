//! Batch stage: offline closed loop through `BatchScheduler::submit_with_storage`
//! plus `run` (max batch 8, thread budget = the engine's default) over seeded
//! samples capped at 512 px, pre-encoded, under the default read-all storage
//! policy.

use std::time::{Duration, Instant};

use rescnn_core::{BatchOptions, BatchScheduler, PipelineReport, ServeReport};
use rescnn_data::{Dataset, DatasetKind};
use rescnn_projpeg::ProgressiveImage;

use crate::report::{Metrics, Outcome};
use crate::serving::{self, ServingSetup, SERVE_LADDER};
use crate::stats::{median, print_samples};
use crate::trace::Tracer;
use crate::{mix, BoxResult};

const REQUESTS: usize = 32;
const MAX_DIMENSION: usize = 512;
const MAX_BATCH: usize = 8;
/// Requests whose plan primitives the traced run replays.
const TRACED_REQUESTS: usize = 12;

/// The stage's inputs and what its repetitions measured so far.
pub struct Batch {
    data: Dataset,
    encoded: Vec<ProgressiveImage>,
    untraced_rps: Vec<f64>,
    traced_rps: Vec<f64>,
    reports: Vec<ServeReport>,
    first: Option<PipelineReport>,
}

impl Batch {
    /// Makes the seeded, pre-encoded requests.
    pub fn new(kind: DatasetKind, seed: u64) -> BoxResult<Self> {
        let (data, encoded) = serving::requests(kind, REQUESTS, MAX_DIMENSION, mix(seed, 6, 0))?;
        Ok(Batch {
            data,
            encoded,
            untraced_rps: Vec::new(),
            traced_rps: Vec::new(),
            reports: Vec::new(),
            first: None,
        })
    }

    /// Serves the whole request set repeatedly (at least once) while the next
    /// repetition fits the `budget`. Every repetition's report must equal the first. A traced run
    /// alternates traced and untraced repetitions.
    pub fn slot(
        &mut self,
        setup: &ServingSetup,
        budget: Duration,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
    ) -> BoxResult<()> {
        let start = Instant::now();
        loop {
            let rep = self.reports.len();
            let traced_rep = tracer.enabled() && rep % 2 == 1;
            let t = Instant::now();
            let run = || {
                let mut scheduler = BatchScheduler::new(
                    &setup.read_all,
                    BatchOptions::default().with_max_batch(MAX_BATCH),
                );
                for (sample, stream) in self.data.iter().zip(&self.encoded) {
                    scheduler.submit_with_storage(sample, stream.clone());
                }
                scheduler.run()
            };
            let served = if traced_rep {
                tracer.span("serve.batch_run", None, Some(rep as u64), run).0?
            } else {
                run()?
            };
            let rps = REQUESTS as f64 / t.elapsed().as_secs_f64();
            outcome.attempted += REQUESTS as u64;
            outcome.failed += served.errors.len() as u64;
            outcome.check(served.errors.is_empty(), || {
                format!("batch: {} requests failed", served.errors.len())
            });
            match &self.first {
                None => self.first = Some(served.report.clone()),
                Some(report) => outcome.check(&served.report == report, || {
                    "batch: report differs between repetitions".to_string()
                }),
            }
            if traced_rep {
                self.traced_rps.push(rps);
            } else {
                self.untraced_rps.push(rps);
            }
            self.reports.push(served);
            // Stop unless another repetition ends (about) within the budget.
            if start.elapsed() + t.elapsed() / 2 >= budget {
                return Ok(());
            }
        }
    }

    /// Checks the batched report against sequential evaluation of the same
    /// samples and returns the reported throughput with its repetition count:
    /// requests served by the untraced repetitions over their summed wall
    /// time (for the reason `Backbone::forward_ms` gives for a mean).
    pub fn finish(&self, setup: &ServingSetup, outcome: &mut Outcome) -> BoxResult<(f64, usize)> {
        let sequential = setup.read_all.evaluate(&self.data)?;
        outcome.check(self.first.as_ref() == Some(&sequential), || {
            "batch: PipelineReport differs from sequential evaluate".to_string()
        });
        print_samples("throughput_rps", &self.untraced_rps);
        let seconds: f64 = self.untraced_rps.iter().map(|rps| REQUESTS as f64 / rps).sum();
        let reps = self.untraced_rps.len();
        Ok(((reps * REQUESTS) as f64 / seconds, reps))
    }

    /// Traced-run per-layer numbers: scheduler counts, per-bucket rates, the
    /// tracing overhead, and the plan primitives replayed on the stage's inputs.
    pub fn trace(
        &self,
        setup: &ServingSetup,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
        per_layer: &mut Metrics,
    ) -> BoxResult<()> {
        let untraced = median(&self.untraced_rps);
        let traced = median(&self.traced_rps);
        per_layer.set("trace.overhead.batch_rps", traced - untraced, "1/s");
        let plan_ms: Vec<f64> = self.reports.iter().map(|r| r.planning_seconds * 1e3).collect();
        per_layer.set("serve.plan_ms", median(&plan_ms), "ms");
        let last = self.reports.last().ok_or("batch stage never ran")?;
        per_layer.set("serve.buckets", last.buckets.len() as f64, "count");
        per_layer.set(
            "serve.batches",
            last.buckets.iter().map(|b| b.batches as f64).sum(),
            "count",
        );
        for res in SERVE_LADDER {
            let rps: Vec<f64> = self
                .reports
                .iter()
                .map(|r| {
                    r.buckets.iter().find(|b| b.resolution == res).map_or(0.0, |b| b.throughput_rps)
                })
                .collect();
            per_layer.set(format!("serve.bucket_rps.{res}"), median(&rps), "1/s");
        }
        let inputs: Vec<_> = self.data.iter().zip(&self.encoded).take(TRACED_REQUESTS).collect();
        serving::trace_primitives(
            "batch",
            &setup.read_all,
            &setup.scale_model,
            &inputs,
            tracer,
            outcome,
            per_layer,
        )
    }
}
