//! Open-loop stage: one `SloServer` (default `SloOptions`, analytic latency
//! model) over the full 112–448 ladder with a ResNet-50 backbone and a
//! calibrated storage policy. Seeded Poisson arrivals come from one submitter
//! thread and one consumer thread drains completions. Requests are samples
//! capped at 256 px, pre-encoded and submitted with
//! `ServerRequest::with_storage` and a 250 ms deadline slack.
//!
//! Two fixed-rate steps (`r5`, `r10`) give the latency figures. Each is
//! submitted in pieces spread over the run (between the other stages'
//! slots), so the host's contention phases weigh about equally on every run.
//! An upward ladder of rates after them gives the highest sustainable rate.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rescnn_core::{
    Completion, DynamicResolutionPipeline, Rejected, ResolutionLatencyModel, ServerConfig,
    ServerRequest, SloOutcome, SloServer, SubmitError,
};
use rescnn_data::{DatasetKind, Sample};
use rescnn_models::{ModelKind, Network};
use rescnn_oracle::{AccuracyOracle, EvalContext};
use rescnn_projpeg::ProgressiveImage;
use rescnn_tensor::{Shape, Tensor};

use crate::backbone::WEIGHT_SEED;
use crate::report::{Metrics, Outcome};
use crate::serving::{self, ServingSetup, SERVE_LADDER};
use crate::stats::{max, median, print_samples, quantile};
use crate::trace::Tracer;
use crate::{mix, BoxResult, SplitMix, ROUNDS, SETUP_REPEATS};

/// Deadline slack of every request, and the latency limit on p90.
pub const SLACK_MS: f64 = 250.0;
/// Seed of the image store the requests draw from: a fixed set of samples,
/// like the program's own data, served in seeded orders at seeded times.
const STORE_SEED: u64 = 0x5707e;
const MAX_DIMENSION: usize = 256;
/// Rates of the upward ladder above `r10` (req/s).
const LADDER_RPS: [f64; 3] = [13.0, 16.0, 19.0];
/// A rate passes while at most this share of its requests miss the limit
/// (the p90 ≤ limit criterion, with missed requests counted as late).
const MISS_SHARE_LIMIT: f64 = 0.1;
/// A step whose last completion arrives later than this after its last due
/// time has a growing backlog.
const BACKLOG_DRAIN_MS: f64 = 2.0 * SLACK_MS;
/// Requests whose plan primitives the traced run replays.
const TRACED_REQUESTS: usize = 16;

/// One request of a step: when it is due (offset from the step start) and
/// the fully built request, made before the clock runs.
struct Planned {
    due_ms: f64,
    request: ServerRequest,
}

/// One request per entry of `samples` (indices into `pool`), with seeded
/// Poisson arrivals at `rate`.
fn plan_step(
    pool: &[(Arc<Sample>, ProgressiveImage)],
    samples: &[usize],
    rate: f64,
    seed: u64,
) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed);
    let mut clock = 0.0f64;
    samples
        .iter()
        .map(|&index| {
            clock += -(1.0 - rng.next_f64()).ln() / rate * 1e3;
            let (sample, stream) = &pool[index];
            let request =
                ServerRequest::new(Arc::clone(sample), SLACK_MS).with_storage(stream.clone());
            Planned { due_ms: clock, request }
        })
        .collect()
}

/// A seeded permutation of `0..len` (Fisher–Yates).
fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// What one rate step measured.
#[derive(Default)]
pub struct StepStats {
    pub sent: usize,
    pub completed: usize,
    pub degraded: usize,
    pub shed: usize,
    pub expired: usize,
    pub failed: usize,
    pub refused: usize,
    /// Due-to-receipt latency per completed request.
    pub latency_ms: Vec<f64>,
    pub within_deadline: usize,
    /// Σ oracle top-1 probability of what was served (0 for a request
    /// that was not served).
    pub expected_correct: f64,
    pub read_fraction: Vec<f64>,
    pub residence_ms: Vec<f64>,
    pub delivery_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub queue_depth_max: usize,
    /// Last receipt minus last due time.
    pub drain_ms: f64,
}

impl StepStats {
    /// Folds another piece of the same rate step into this one.
    fn merge(&mut self, other: StepStats) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.expired += other.expired;
        self.failed += other.failed;
        self.refused += other.refused;
        self.latency_ms.extend(other.latency_ms);
        self.within_deadline += other.within_deadline;
        self.expected_correct += other.expected_correct;
        self.read_fraction.extend(other.read_fraction);
        self.residence_ms.extend(other.residence_ms);
        self.delivery_ms.extend(other.delivery_ms);
        self.late_ms.extend(other.late_ms);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.drain_ms = self.drain_ms.max(other.drain_ms);
    }

    /// Latency quantile over completed requests.
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }
    /// Share of sent requests that missed the latency limit or were not served.
    fn miss_share(&self) -> f64 {
        1.0 - self.within_deadline as f64 / self.sent.max(1) as f64
    }
    fn passes(&self) -> bool {
        self.miss_share() <= MISS_SHARE_LIMIT && self.drain_ms <= BACKLOG_DRAIN_MS
    }
}

/// A started server plus the channel its consumer thread forwards receipts on.
struct Live {
    server: SloServer,
    receipts: mpsc::Receiver<(Completion, Instant)>,
    consumer: std::thread::JoinHandle<()>,
}

fn start_server(pipeline: &Arc<DynamicResolutionPipeline>) -> BoxResult<(Live, f64)> {
    let start = Instant::now();
    let mut server = SloServer::start(Arc::clone(pipeline), ServerConfig::default())?;
    while !server.is_ready() {
        std::thread::sleep(Duration::from_micros(100));
    }
    let setup_s = start.elapsed().as_secs_f64();
    let stream = server.completions().ok_or("fresh server has no completion stream")?;
    let (tx, receipts) = mpsc::channel();
    let consumer = std::thread::spawn(move || {
        while let Some(completion) = stream.recv() {
            if tx.send((completion, Instant::now())).is_err() {
                break;
            }
        }
    });
    Ok((Live { server, receipts, consumer }, setup_s))
}

fn stop_server(live: Live, outcome: &mut Outcome) -> BoxResult<usize> {
    live.server.drain();
    let report = live.server.join()?;
    live.consumer.join().map_err(|_| "completion consumer panicked")?;
    outcome.check(report.drained_gracefully, || "open: server did not drain gracefully".into());
    let stray = live.receipts.try_iter().count();
    outcome.check(stray == 0, || {
        format!("open: {stray} completions arrived after every ticket settled")
    });
    Ok(report.hard_cancelled)
}

/// Submits one step on schedule and collects every accepted ticket's single
/// completion, checking each outcome.
fn run_step(
    live: &Live,
    pipeline: &DynamicResolutionPipeline,
    step: Vec<Planned>,
    label: &str,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> BoxResult<StepStats> {
    let mut stats = StepStats { sent: step.len(), ..Default::default() };
    let config = pipeline.config();
    // `probability_correct` does not depend on the oracle's training seed.
    let oracle = AccuracyOracle::new(0);
    // ticket -> (sample, due instant, submit instant)
    let mut accepted: HashMap<u64, (Arc<Sample>, Instant, Instant)> = HashMap::new();
    let epoch = Instant::now();
    let mut last_due = epoch;
    for planned in step {
        let due = epoch + Duration::from_secs_f64(planned.due_ms / 1e3);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        last_due = due;
        let submitted = Instant::now();
        stats.late_ms.push((submitted - due).as_secs_f64() * 1e3);
        let sample = Arc::clone(&planned.request.sample);
        match live.server.submit(planned.request) {
            Ok(ticket) => {
                accepted.insert(ticket.0, (sample, due, submitted));
            }
            Err(SubmitError::QueueFull { .. }) => stats.refused += 1,
            Err(other) => {
                stats.failed += 1;
                outcome.check(false, || format!("open {label}: submit failed: {other}"));
            }
        }
        stats.queue_depth_max = stats.queue_depth_max.max(live.server.queue_depth());
    }
    let mut settled: HashMap<u64, usize> = HashMap::new();
    let mut last_receipt = last_due;
    let timeout = Duration::from_secs(30);
    while settled.len() < accepted.len() {
        let (completion, received) = live.receipts.recv_timeout(timeout).map_err(|_| {
            format!(
                "open {label}: {} accepted tickets never settled",
                accepted.len() - settled.len()
            )
        })?;
        let count = settled.entry(completion.ticket.0).or_insert(0);
        *count += 1;
        outcome.check(*count == 1, || {
            format!("open {label}: ticket {} settled twice", completion.ticket.0)
        });
        let Some((sample, due, submitted)) = accepted.get(&completion.ticket.0) else {
            outcome.check(false, || {
                format!("open {label}: completion for unknown ticket {}", completion.ticket.0)
            });
            continue;
        };
        let (due, submitted) = (*due, *submitted);
        last_receipt = last_receipt.max(received);
        let latency = (received - due).as_secs_f64() * 1e3;
        let residence = completion.wall_latency_ms;
        stats.residence_ms.push(residence);
        stats.delivery_ms.push((received - submitted).as_secs_f64() * 1e3 - residence);
        tracer.record(
            "server.submit_to_receive",
            submitted,
            received,
            None,
            Some(completion.ticket.0),
        );
        match &completion.outcome {
            SloOutcome::Completed(done) => {
                stats.completed += 1;
                stats.latency_ms.push(latency);
                if latency <= SLACK_MS {
                    stats.within_deadline += 1;
                }
                let ctx = EvalContext {
                    model: config.backbone,
                    dataset: config.dataset,
                    resolution: done.record.chosen_resolution,
                    crop: config.crop,
                    quality: done.record.quality,
                };
                stats.expected_correct += oracle.probability_correct(sample, &ctx);
                if done.served_resolution < done.planned_resolution {
                    stats.degraded += 1;
                }
                let fraction = done.record.read_fraction();
                stats.read_fraction.push(fraction);
                outcome.check(done.served_resolution <= done.planned_resolution, || {
                    format!(
                        "open {label}: served {}² above planned {}²",
                        done.served_resolution, done.planned_resolution
                    )
                });
                outcome.check(fraction <= 1.0, || {
                    format!("open {label}: read fraction {fraction} > 1")
                });
            }
            SloOutcome::Rejected(Rejected::DeadlineExceeded) => {
                stats.expired += 1;
            }
            SloOutcome::Rejected(_) => {
                stats.shed += 1;
            }
            SloOutcome::Failed(_) => {
                stats.failed += 1;
            }
        }
    }
    stats.drain_ms = (last_receipt - last_due).as_secs_f64() * 1e3;
    print_samples(&format!("latency_ms.{label}"), &stats.latency_ms);
    outcome.attempted += stats.sent as u64;
    outcome.failed += (stats.failed + stats.refused) as u64;
    println!(
        "# open {label:<6} sent {:>4} completed {:>4} degraded {:>3} shed {:>3} expired {:>3} failed {:>2} refused {:>2} \
         missed {:.3} p50 {:>7.1} p90 {:>7.1} ms  late p90 {:.2} max {:.2} ms  drain {:.0} ms",
        stats.sent,
        stats.completed,
        stats.degraded,
        stats.shed,
        stats.expired,
        stats.failed,
        stats.refused,
        stats.miss_share(),
        stats.p(0.5),
        stats.p(0.9),
        quantile(&stats.late_ms, 0.9),
        max(&stats.late_ms),
        stats.drain_ms,
    );
    Ok(stats)
}

/// Highest sustainable rate: the rate at which the share of requests missing
/// the limit crosses [`MISS_SHARE_LIMIT`] (p90 crossing the limit), linearly
/// interpolated between the last passing and the first failing ladder rate.
fn max_rate(steps: &[(f64, &StepStats)]) -> f64 {
    let Some(fail) = steps.iter().position(|(_, s)| !s.passes()) else {
        return steps.last().map_or(0.0, |(rate, _)| *rate);
    };
    let (r1, s1) = &steps[fail];
    // A failure from backlog alone still lies beyond the limit.
    let m1 = s1.miss_share().max(MISS_SHARE_LIMIT + 0.01);
    let (r0, m0) =
        if fail == 0 { (0.0, 0.0) } else { (steps[fail - 1].0, steps[fail - 1].1.miss_share()) };
    r0 + (r1 - r0) * (MISS_SHARE_LIMIT - m0) / (m1 - m0)
}

/// Shares of the stage's seconds: `r5` and `r10` together, and each ladder
/// rung.
const FIXED_SHARE: f64 = 0.85;
const RUNG_SHARE: f64 = 0.05;

/// The open-loop stage: a live server, every step's pre-built requests, and
/// the statistics gathered so far.
pub struct OpenLoop {
    live: Live,
    pub setup_s: f64,
    /// Pre-built pieces of `r5` and `r10`, one per round.
    r5: Vec<Vec<Planned>>,
    r10: Vec<Vec<Planned>>,
    ladder: Vec<(f64, Vec<Planned>)>,
    /// Accumulated untraced `r5` and `r10` statistics.
    pub steps: Vec<(String, StepStats)>,
    /// `r10` pieces submitted with tracing on (traced runs only).
    traced_r10: StepStats,
    /// Inputs the traced run replays.
    traced_inputs: Vec<(Arc<Sample>, ProgressiveImage)>,
}

impl OpenLoop {
    /// Makes every step's requests from the seed, then starts the server
    /// (repeated; the last start serves) and measures start-to-ready.
    pub fn start(
        setup: &ServingSetup,
        kind: DatasetKind,
        seed: u64,
        seconds: f64,
        outcome: &mut Outcome,
    ) -> BoxResult<Self> {
        // `r5` and `r10` get equal time: `r5` serves every stored image once
        // and `r10` twice, each pass in its own seeded order, so every run
        // serves the same mix and only order and arrival times follow the
        // seed.
        let per_piece = (5.0 * seconds * FIXED_SHARE / 2.0 / ROUNDS as f64).round().max(1.0);
        let store_len = per_piece as usize * ROUNDS;
        let (data, encoded) = serving::requests(kind, store_len, MAX_DIMENSION, STORE_SEED)?;
        let pool: Vec<(Arc<Sample>, ProgressiveImage)> =
            data.iter().cloned().map(Arc::new).zip(encoded.iter().cloned()).collect();
        let passes = |count: usize, stream: u64| -> Vec<usize> {
            (0..count)
                .flat_map(|pass| permutation(store_len, mix(seed, stream, pass as u64)))
                .collect()
        };
        let r5_order = passes(1, 5);
        let r10_order = passes(2, 10);
        let (mut r5, mut r10) = (Vec::new(), Vec::new());
        for (round, (a, b)) in r5_order
            .chunks(store_len / ROUNDS)
            .zip(r10_order.chunks(2 * store_len / ROUNDS))
            .enumerate()
        {
            r5.push(plan_step(&pool, a, 5.0, mix(seed, 8, round as u64)));
            r10.push(plan_step(&pool, b, 10.0, mix(seed, 9, round as u64)));
        }
        let ladder = LADDER_RPS
            .iter()
            .map(|&rate| {
                let count = (rate * seconds * RUNG_SHARE).round() as usize;
                let order: Vec<usize> = passes(count.div_ceil(store_len), rate as u64 + 100);
                (rate, plan_step(&pool, &order[..count], rate, mix(seed, 11, rate as u64)))
            })
            .collect();

        let mut setups = Vec::new();
        let mut live = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(previous) = live.take() {
                stop_server(previous, outcome)?;
            }
            let (started, setup_s) = start_server(&setup.calibrated)?;
            setups.push(setup_s);
            live = Some(started);
        }
        Ok(OpenLoop {
            live: live.expect("at least one server start"),
            setup_s: median(&setups),
            r5,
            r10,
            ladder,
            steps: vec![
                ("r5".to_string(), StepStats::default()),
                ("r10".to_string(), StepStats::default()),
            ],
            traced_r10: StepStats::default(),
            traced_inputs: pool.into_iter().take(TRACED_REQUESTS).collect(),
        })
    }

    /// Submits round `round`'s pieces of `r5` and `r10`. In a traced run the
    /// odd rounds' `r10` pieces record spans, for the tracing overhead.
    pub fn round(
        &mut self,
        setup: &ServingSetup,
        round: usize,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
    ) -> BoxResult<()> {
        let mut off = Tracer::new(false);
        let r5 = std::mem::take(&mut self.r5[round]);
        let stats = run_step(&self.live, &setup.calibrated, r5, "r5", &mut off, outcome)?;
        self.steps[0].1.merge(stats);
        let r10 = std::mem::take(&mut self.r10[round]);
        if tracer.enabled() && round % 2 == 1 {
            let stats =
                run_step(&self.live, &setup.calibrated, r10, "r10-traced", tracer, outcome)?;
            self.traced_r10.merge(stats);
        } else {
            let stats = run_step(&self.live, &setup.calibrated, r10, "r10", &mut off, outcome)?;
            self.steps[1].1.merge(stats);
        }
        Ok(())
    }

    /// Climbs the ladder past `r10` while every rate passes, then drains and
    /// joins the server (hard-cancelled requests count as failed).
    pub fn finish(mut self, setup: &ServingSetup, outcome: &mut Outcome) -> BoxResult<OpenStats> {
        let mut off = Tracer::new(false);
        let mut ladder_stats = Vec::new();
        if self.steps.iter().all(|(_, s)| s.passes()) {
            for (rate, step) in std::mem::take(&mut self.ladder) {
                // Let the server settle before the next rate.
                std::thread::sleep(Duration::from_millis(200));
                let stats = run_step(
                    &self.live,
                    &setup.calibrated,
                    step,
                    &format!("{rate}/s"),
                    &mut off,
                    outcome,
                )?;
                let passes = stats.passes();
                ladder_stats.push((rate, stats));
                if !passes {
                    break;
                }
            }
        }
        let rungs: Vec<(f64, &StepStats)> = [(5.0, &self.steps[0].1), (10.0, &self.steps[1].1)]
            .into_iter()
            .chain(ladder_stats.iter().map(|(rate, s)| (*rate, s)))
            .collect();
        let max_rate_rps = max_rate(&rungs);
        println!("# open max rate {max_rate_rps:.2} req/s");
        let hard_cancelled = stop_server(self.live, outcome)?;
        outcome.failed += hard_cancelled as u64;
        Ok(OpenStats {
            steps: self.steps,
            max_rate_rps,
            traced_r10: self.traced_r10,
            traced_inputs: self.traced_inputs,
        })
    }
}

/// The open-loop statistics once the server has stopped.
pub struct OpenStats {
    pub steps: Vec<(String, StepStats)>,
    pub max_rate_rps: f64,
    traced_r10: StepStats,
    traced_inputs: Vec<(Arc<Sample>, ProgressiveImage)>,
}

impl OpenStats {
    /// Traced-run per-layer numbers: server and admission counts per rate,
    /// generator lateness, the tracing overhead, latency-model drift, and
    /// the plan primitives replayed on the stage's inputs.
    pub fn trace(
        &self,
        setup: &ServingSetup,
        tracer: &mut Tracer,
        outcome: &mut Outcome,
        per_layer: &mut Metrics,
    ) -> BoxResult<()> {
        per_layer.set("server.max_rate_rps", self.max_rate_rps, "1/s");
        for (label, s) in &self.steps {
            let sent = s.sent.max(1) as f64;
            per_layer.set(
                format!("server.residence_ms.p50.{label}"),
                quantile(&s.residence_ms, 0.5),
                "ms",
            );
            per_layer.set(
                format!("server.residence_ms.p90.{label}"),
                quantile(&s.residence_ms, 0.9),
                "ms",
            );
            per_layer.set(format!("server.delivery_ms.{label}"), median(&s.delivery_ms), "ms");
            per_layer.set(
                format!("server.queue_depth_max.{label}"),
                s.queue_depth_max as f64,
                "count",
            );
            per_layer.set(format!("server.queue_full.{label}"), s.refused as f64, "count");
            per_layer.set(format!("slo.degraded_share.{label}"), s.degraded as f64 / sent, "ratio");
            per_layer.set(format!("slo.shed_share.{label}"), s.shed as f64 / sent, "ratio");
            per_layer.set(format!("slo.expired_share.{label}"), s.expired as f64 / sent, "ratio");
            per_layer.set(format!("loadgen.late_ms.p90.{label}"), quantile(&s.late_ms, 0.9), "ms");
            per_layer.set(format!("loadgen.late_ms.max.{label}"), max(&s.late_ms), "ms");
        }
        per_layer.set(
            "trace.overhead_ms.latency_p50_r10",
            self.traced_r10.p(0.5) - self.steps[1].1.p(0.5),
            "ms",
        );
        trace_estimates(&setup.calibrated, per_layer)?;
        let inputs: Vec<_> = self.traced_inputs.iter().map(|(s, e)| (s.as_ref(), e)).collect();
        serving::trace_primitives(
            "open",
            &setup.calibrated,
            &setup.scale_model,
            &inputs,
            tracer,
            outcome,
            per_layer,
        )
    }
}

/// `hwsim.estimate_ratio.<res>`: the analytic latency model's per-rung charge
/// over a measured warm ResNet-50 forward (median of three) at the engine's
/// default threads.
fn trace_estimates(pipeline: &DynamicResolutionPipeline, per_layer: &mut Metrics) -> BoxResult<()> {
    let model = ResolutionLatencyModel::analytic(pipeline)?;
    let config = pipeline.config();
    let net = Network::new(ModelKind::ResNet50, config.dataset.num_classes(), WEIGHT_SEED);
    for res in SERVE_LADDER {
        let x = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64);
        net.forward(&x)?;
        let mut times = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            net.forward(&x)?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let measured = median(&times);
        per_layer.set(
            format!("hwsim.estimate_ratio.{res}"),
            model.estimate_ms(res) / measured,
            "ratio",
        );
    }
    Ok(())
}
