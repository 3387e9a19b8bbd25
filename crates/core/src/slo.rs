//! SLO-aware serving: deadlines, admission control, load-shedding via
//! resolution degradation, and per-request fault isolation.
//!
//! The paper's central lever — resolution — is exactly the knob a serving
//! system can turn *per request, at admission time* when it is about to miss a
//! deadline: executing at 224² instead of 448² cuts backbone cost roughly 4×
//! while the calibrated storage policy keeps delivered SSIM above a
//! deployment-chosen floor. The [`SloScheduler`] builds that policy on top of
//! the resolution-bucketed [`BatchScheduler`](crate::BatchScheduler) machinery:
//!
//! 1. **Plan.** Every request is planned (preview read + scale model) under a
//!    per-request fault-isolation boundary, committing it to a *planned*
//!    resolution. A corrupt stream or a panic becomes a
//!    [`SloOutcome::Failed`] record; every other request proceeds.
//! 2. **Admit.** Requests are walked in arrival order over a deterministic
//!    *virtual clock*: a single virtual server whose per-request service time
//!    comes from a [`ResolutionLatencyModel`] (calibrated measurements when
//!    available, the analytic roofline otherwise). A request whose queueing
//!    delay alone exceeds its deadline has already expired
//!    ([`Rejected::DeadlineExceeded`]). Otherwise the scheduler picks the
//!    *largest* resolution — never above the plan's — whose estimated service
//!    fits the remaining slack **and** whose re-planned delivered SSIM meets
//!    [`SloOptions::ssim_floor`]; picking below the planned resolution is
//!    *degradation*, counted in [`SloReport::degraded`]. Only when no such
//!    resolution exists is the request shed ([`Rejected::Overloaded`]).
//! 3. **Execute.** Admitted requests are bucketed by their final resolution and
//!    executed as homogeneous batches over the persistent pool, again with
//!    per-request isolation: one panicking or failing request yields its own
//!    [`SloOutcome::Failed`] while the rest of its batch completes.
//!
//! # Resilient lifecycle (all opt-in)
//!
//! Four policies extend the lifecycle without touching its determinism; with
//! every policy `None` the scheduler behaves exactly as before, bit for bit:
//!
//! * **Retry with demotion** ([`RetryPolicy`]): a failed attempt is
//!   re-admitted after a virtual-clock backoff, preferentially *one rung
//!   below* the resolution that failed (bounded by the SSIM floor) — recovery
//!   uses the same lever as load-shedding.
//! * **Circuit breaking** ([`CircuitBreakerPolicy`]): requests tagged with a
//!   [`SourceId`] are gated per source; repeated failures trip an open state
//!   that sheds that source *before any decode or plan compute*
//!   ([`Rejected::CircuitOpen`]), then a half-open probe tests recovery after
//!   a cooldown.
//! * **Watchdog cancellation** ([`WatchdogPolicy`]): an admission whose
//!   charged service would overrun the latency-model estimate is capped and
//!   the execution cooperatively cancelled — a pre-fired
//!   [`CancellationToken`](rescnn_tensor::CancellationToken) is refused at the
//!   execute stage's task boundary, so no backbone compute is spent.
//! * **Precision demotion** ([`SloOptions::with_precision_demotion`]): a rung
//!   whose f32 estimate misses the deadline may serve quantized (int8) *at the
//!   same resolution* — tried before the walk steps a rung down — but only at
//!   resolutions the end-to-end accuracy gate
//!   ([`PrecisionGate`](crate::PrecisionGate)) admitted; demoted requests
//!   execute under a scoped int8 dispatch table and are counted in
//!   [`SloReport::precision_demoted`].
//! * **Memory-budget backpressure** ([`SloOptions::memory_budget_bytes`]):
//!   rungs whose planned activation-arena peak
//!   ([`DynamicResolutionPipeline::arena_peak_bytes`]) exceeds the budget are
//!   skipped at admission — the budget demotes down the ladder exactly like a
//!   deadline, shedding only when no rung fits.
//!
//! Because every admission decision is a pure function of the plans, the
//! latency model, and the requests' virtual arrival/deadline stamps — never of
//! wall-clock time — the entire report (outcomes, degradations, sheds,
//! retries, breaker trips, latency percentiles) is bitwise reproducible across
//! thread budgets; [`SloReport::wall_seconds`] is the only
//! wall-clock-dependent field.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use rescnn_data::Sample;
use rescnn_hwsim::{CalibratedCostModel, CpuProfile};
use rescnn_projpeg::ProgressiveImage;

use crate::error::{CoreError, Result};
use crate::lifecycle::{
    CircuitBreaker, CircuitBreakerPolicy, RetryPolicy, SourceId, WatchdogPolicy,
};
use crate::pipeline::{DynamicResolutionPipeline, InferencePlan, InferenceRecord, PipelineReport};
use crate::precision::PrecisionGate;
use crate::serve::{run_batch_isolated, BatchOptions};
use crate::trace::{ServingTrace, TraceDecision, TraceRequest};

/// Cancellation reason the drain deadline settles stragglers with. Shared with
/// trace replay so a replayed hard-cancel settles byte-identical errors.
pub(crate) const DRAIN_CANCEL_REASON: &str =
    "server drain deadline exceeded; pending work cancelled before execution";

/// The precision-demotion policy: the accuracy gate that says *where*
/// quantized execution is allowed, and the service-time model that says what
/// it costs. See [`SloOptions::with_precision_demotion`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PrecisionDemotion {
    /// End-to-end accuracy gate; rungs it did not admit never run quantized,
    /// no matter how late the queue is running.
    pub gate: PrecisionGate,
    /// Estimated quantized service milliseconds per resolution (the int8
    /// counterpart of [`SloOptions::latency`]).
    pub latency: ResolutionLatencyModel,
}

/// One serving request with its SLO contract, timed on the virtual clock.
#[derive(Debug, Clone)]
pub struct SloRequest<'a> {
    /// The sample to serve.
    pub sample: &'a Sample,
    /// Caller-supplied progressive stream (possibly corrupt); `None` encodes
    /// from the rendered sample.
    storage: Option<ProgressiveImage>,
    /// Arrival time on the virtual clock, in milliseconds.
    pub arrival_ms: f64,
    /// Absolute completion deadline on the virtual clock, in milliseconds.
    pub deadline_ms: f64,
    /// Multiplier on the request's estimated service time (a fault-injection
    /// hook: latency spikes, slow tenants). `1.0` is nominal.
    pub cost_multiplier: f64,
    /// Originating source (client/tenant), for per-source circuit breaking.
    /// `None` opts the request out of breaker gating.
    pub source: Option<SourceId>,
}

impl<'a> SloRequest<'a> {
    /// A request arriving at `arrival_ms` that must complete by `deadline_ms`.
    pub fn new(sample: &'a Sample, arrival_ms: f64, deadline_ms: f64) -> Self {
        SloRequest {
            sample,
            storage: None,
            arrival_ms,
            deadline_ms,
            cost_multiplier: 1.0,
            source: None,
        }
    }

    /// Tags the request with its originating source for per-source circuit
    /// breaking.
    pub fn with_source(mut self, source: SourceId) -> Self {
        self.source = Some(source);
        self
    }

    /// Serves a caller-supplied stored stream instead of re-encoding the sample
    /// — the path by which corrupt or truncated streams enter the scheduler.
    pub fn with_storage(mut self, storage: ProgressiveImage) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Scales the request's estimated service time (≥ 0; a fault-injection
    /// latency spike).
    pub fn with_cost_multiplier(mut self, multiplier: f64) -> Self {
        self.cost_multiplier = multiplier.max(0.0);
        self
    }

    pub(crate) fn into_queued(self) -> QueuedRequest<'a> {
        QueuedRequest {
            sample: SampleRef::Borrowed(self.sample),
            storage: self.storage,
            arrival_ms: self.arrival_ms,
            deadline_ms: self.deadline_ms,
            cost_multiplier: self.cost_multiplier,
            source: self.source,
        }
    }
}

/// How a queued request holds its sample: borrowed for the duration of a batch
/// drain ([`SloScheduler`]), shared for requests that outlive their submitter
/// (the real-clock [`SloServer`](crate::SloServer)).
#[derive(Debug, Clone)]
pub(crate) enum SampleRef<'a> {
    /// Borrowed from the caller.
    Borrowed(&'a Sample),
    /// Shared ownership across threads.
    Shared(Arc<Sample>),
}

impl SampleRef<'_> {
    fn get(&self) -> &Sample {
        match self {
            SampleRef::Borrowed(sample) => sample,
            SampleRef::Shared(sample) => sample,
        }
    }
}

/// A request as the admission core owns it — the meeting point of the
/// borrowed-sample batch path and the owned-sample server path.
#[derive(Debug, Clone)]
pub(crate) struct QueuedRequest<'a> {
    pub(crate) sample: SampleRef<'a>,
    pub(crate) storage: Option<ProgressiveImage>,
    pub(crate) arrival_ms: f64,
    pub(crate) deadline_ms: f64,
    pub(crate) cost_multiplier: f64,
    pub(crate) source: Option<SourceId>,
}

/// Deterministic per-resolution service-time estimates, in milliseconds.
///
/// The admission controller needs an *a-priori* cost for "one request at
/// resolution r" that never depends on wall-clock noise; this model supplies
/// it, either from explicit estimates or from a
/// [`CalibratedCostModel`](rescnn_hwsim::CalibratedCostModel) (exact
/// measurements where swept, the analytic roofline elsewhere).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResolutionLatencyModel {
    /// Estimated milliseconds per request, keyed by resolution.
    entries: BTreeMap<usize, f64>,
}

impl ResolutionLatencyModel {
    /// Builds the model from explicit `(resolution, milliseconds)` estimates.
    pub fn from_estimates(estimates: impl IntoIterator<Item = (usize, f64)>) -> Self {
        ResolutionLatencyModel {
            entries: estimates.into_iter().map(|(r, ms)| (r, ms.max(0.0))).collect(),
        }
    }

    /// Predicts each resolution's forward cost for `pipeline`'s backbone from a
    /// cost model (calibrated or purely analytic).
    ///
    /// # Errors
    /// Returns an error if a resolution is unservable by the backbone.
    pub fn from_cost_model(
        model: &CalibratedCostModel,
        pipeline: &DynamicResolutionPipeline,
    ) -> Result<Self> {
        let config = pipeline.config();
        let arch = config.backbone.arch(config.dataset.num_classes());
        let mut entries = BTreeMap::new();
        for &resolution in &config.resolutions {
            let layers = arch.conv_layers(resolution).map_err(|e| CoreError::InvalidConfig {
                reason: format!("latency model at {resolution}: {e}"),
            })?;
            entries.insert(resolution, model.predict_forward_seconds(&layers) * 1e3);
        }
        Ok(ResolutionLatencyModel { entries })
    }

    /// The analytic-roofline model for the host CPU — the default when no
    /// calibration has been recorded.
    ///
    /// # Errors
    /// Returns an error if a resolution is unservable by the backbone.
    pub fn analytic(pipeline: &DynamicResolutionPipeline) -> Result<Self> {
        Self::from_cost_model(&CalibratedCostModel::new(CpuProfile::host()), pipeline)
    }

    /// Estimated service milliseconds at `resolution` (the nearest modelled
    /// resolution at or above it when the exact one is absent, the largest
    /// modelled one otherwise, `0` for an empty model).
    pub fn estimate_ms(&self, resolution: usize) -> f64 {
        if let Some(ms) = self.entries.get(&resolution) {
            return *ms;
        }
        self.entries
            .range(resolution..)
            .next()
            .or_else(|| self.entries.iter().next_back())
            .map_or(0.0, |(_, ms)| *ms)
    }
}

/// Why a request was rejected without executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Rejected {
    /// The request's queueing delay alone exceeded its deadline: it expired
    /// before the server could start it.
    DeadlineExceeded,
    /// Even the cheapest acceptable resolution (the SSIM floor's bucket) could
    /// not finish within the deadline; the request was shed to protect the
    /// rest of the queue.
    Overloaded,
    /// The request's source had its circuit breaker open: it was shed at the
    /// gate, before any decode or plan compute was spent on it.
    CircuitOpen,
}

/// What happened to one request, in submission order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SloOutcome {
    /// The request executed; timing and the (possibly degraded) resolution are
    /// in the payload.
    Completed(CompletedRequest),
    /// Admission control rejected the request.
    Rejected(Rejected),
    /// The request's own plan/execute stage failed (codec error on its stream,
    /// contained panic, …); every other request was unaffected.
    Failed(CoreError),
}

/// Timing and outcome detail of a completed request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompletedRequest {
    /// The inference outcome (resolution, bytes, correctness, quality).
    pub record: InferenceRecord,
    /// Resolution the scale model originally planned.
    pub planned_resolution: usize,
    /// Resolution actually served (≤ planned; `<` means degraded).
    pub served_resolution: usize,
    /// When service began on the virtual clock.
    pub virtual_start_ms: f64,
    /// When service finished on the virtual clock.
    pub virtual_finish_ms: f64,
    /// Virtual finish minus the *original* arrival: the latency the client
    /// observed, backoff and failed attempts included.
    pub virtual_latency_ms: f64,
    /// Retries it took to complete (0 = succeeded on the first attempt; > 0
    /// means a failure was recovered by [`RetryPolicy`]).
    pub retries: usize,
}

/// Policy knobs for the SLO scheduler.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SloOptions {
    /// Batching/thread/strictness knobs shared with the batch scheduler.
    pub batch: BatchOptions,
    /// Minimum delivered SSIM a degraded request may be served at. `None`
    /// allows degrading to the cheapest resolution of the ladder.
    pub ssim_floor: Option<f64>,
    /// Service-time estimates; `None` builds the analytic model for the host.
    pub latency: Option<ResolutionLatencyModel>,
    /// Fault-injection hook: panic inside the execute stage of every `n`-th
    /// admitted request (1-based submission count; first attempts only, so
    /// retries model recovery from a transient fault). Exercises the panic
    /// containment path deterministically; `None` in production.
    pub chaos_panic_every: Option<usize>,
    /// Fault-injection hook: panic inside the execute stage of exactly these
    /// submission indices (first attempts only). Kept sorted and deduplicated;
    /// empty in production.
    pub chaos_panic_requests: Vec<usize>,
    /// Bounded retry with virtual-clock backoff and resolution demotion;
    /// `None` (the default) fails requests on their first error.
    pub retry: Option<RetryPolicy>,
    /// Per-[`SourceId`] circuit breaking; `None` (the default) never gates.
    pub breaker: Option<CircuitBreakerPolicy>,
    /// Watchdog cancellation of executions overrunning the latency-model
    /// estimate; `None` (the default) lets overruns run (and be charged) in
    /// full.
    pub watchdog: Option<WatchdogPolicy>,
    /// Activation-arena byte budget: admission skips rungs whose planned peak
    /// exceeds it, demoting down the ladder like a deadline. `None` (the
    /// default) never constrains.
    pub memory_budget_bytes: Option<usize>,
    /// Precision demotion: when a rung's f32 estimate misses the deadline,
    /// admission tries the quantized estimate *at the same rung* — but only
    /// where the accuracy gate admits it — before stepping down the
    /// resolution ladder. `None` (the default) never trades precision.
    pub precision: Option<PrecisionDemotion>,
}

impl SloOptions {
    /// Sets the batching options.
    pub fn with_batch(mut self, batch: BatchOptions) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the minimum delivered SSIM degradation may serve at.
    pub fn with_ssim_floor(mut self, floor: f64) -> Self {
        self.ssim_floor = Some(floor);
        self
    }

    /// Supplies explicit service-time estimates.
    pub fn with_latency_model(mut self, model: ResolutionLatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Enables deterministic panic injection (every `n`-th request).
    pub fn with_chaos_panic_every(mut self, n: usize) -> Self {
        self.chaos_panic_every = Some(n.max(1));
        self
    }

    /// Enables deterministic panic injection at exactly these submission
    /// indices (first attempts only).
    pub fn with_chaos_panic_requests(mut self, mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        self.chaos_panic_requests = indices;
        self
    }

    /// Enables bounded retry with demotion.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Enables per-source circuit breaking.
    pub fn with_breaker(mut self, policy: CircuitBreakerPolicy) -> Self {
        self.breaker = Some(policy);
        self
    }

    /// Enables watchdog cancellation of estimate-overrunning executions.
    pub fn with_watchdog(mut self, policy: WatchdogPolicy) -> Self {
        self.watchdog = Some(policy);
        self
    }

    /// Caps the activation-arena bytes admission may plan for.
    pub fn with_memory_budget_bytes(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Enables precision demotion: resolution stays the primary lever, but a
    /// rung whose f32 estimate misses the deadline may run quantized —
    /// keeping its resolution — when `gate` admits that rung and the `latency`
    /// model says the quantized forward fits the slack. Preserves the rung
    /// order of the ladder walk: int8-at-rung-r is tried *before* f32 at the
    /// next rung down, because serving full resolution at reduced precision
    /// degrades accuracy less than dropping a resolution rung (the gate
    /// guarantees as much, or it would not have admitted the rung).
    pub fn with_precision_demotion(
        mut self,
        gate: PrecisionGate,
        latency: ResolutionLatencyModel,
    ) -> Self {
        self.precision = Some(PrecisionDemotion { gate, latency });
        self
    }
}

/// The outcome of draining an [`SloScheduler`] queue.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloReport {
    /// Aggregate accuracy/cost report over the *completed* requests, folded in
    /// submission order.
    pub report: PipelineReport,
    /// Per-request outcome, in submission order.
    pub outcomes: Vec<SloOutcome>,
    /// Requests submitted.
    pub total: usize,
    /// Requests that executed to completion.
    pub completed: usize,
    /// Completed requests served below their planned resolution.
    pub degraded: usize,
    /// Requests shed by admission control ([`Rejected::Overloaded`]).
    pub shed: usize,
    /// Requests that expired in the queue ([`Rejected::DeadlineExceeded`]).
    pub expired: usize,
    /// Requests isolated after their own stage failed or panicked (their final
    /// attempt, when retrying).
    pub faulted: usize,
    /// Completed requests whose first attempt failed — failures the
    /// [`RetryPolicy`] converted into completions.
    pub recovered: usize,
    /// Retry attempts scheduled across the run.
    pub retry_attempts: usize,
    /// Requests shed at the gate by an open circuit breaker
    /// ([`Rejected::CircuitOpen`]); disjoint from [`shed`](Self::shed).
    pub breaker_shed: usize,
    /// Times any source's breaker tripped open.
    pub breaker_trips: usize,
    /// Executions cancelled by the watchdog before spending compute.
    pub watchdog_cancelled: usize,
    /// Completed requests served below a rung the memory budget vetoed.
    pub memory_demoted: usize,
    /// Completed requests served on the quantized (int8) arm because their
    /// rung's f32 estimate missed the deadline.
    pub precision_demoted: usize,
    /// Completed requests / total — the headline goodput.
    pub goodput: f64,
    /// Shed requests / total.
    pub shed_rate: f64,
    /// Requests that did not complete within their deadline / total
    /// (expired + shed + breaker-shed + faulted; admitted requests meet their
    /// deadline by construction of the admission test).
    pub slo_violation_rate: f64,
    /// Median virtual latency of completed requests, in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile virtual latency of completed requests, in milliseconds.
    pub p99_latency_ms: f64,
    /// Mean delivered SSIM over completed requests.
    pub mean_delivered_ssim: f64,
    /// Largest queueing backlog any request saw at arrival, in virtual ms.
    pub peak_backlog_ms: f64,
    /// Real wall-clock seconds the run took (informational only; every other
    /// field is wall-clock-independent).
    pub wall_seconds: f64,
    /// Thread budget the scheduler distributed.
    pub threads: usize,
}

/// Deadline- and load-aware serving scheduler over one pipeline.
///
/// # Examples
/// ```no_run
/// use rescnn_core::{DynamicResolutionPipeline, SloOptions, SloRequest, SloScheduler};
/// # fn demo(pipeline: &DynamicResolutionPipeline, data: &rescnn_data::Dataset)
/// #     -> rescnn_core::Result<()> {
/// let mut scheduler = SloScheduler::new(pipeline, SloOptions::default().with_ssim_floor(0.85));
/// for (i, sample) in data.iter().enumerate() {
///     let arrival = i as f64 * 2.0;
///     scheduler.submit(SloRequest::new(sample, arrival, arrival + 50.0));
/// }
/// let outcome = scheduler.run()?;
/// println!("goodput {:.3}, degraded {}, shed {}", outcome.goodput, outcome.degraded, outcome.shed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SloScheduler<'a> {
    pipeline: &'a DynamicResolutionPipeline,
    options: SloOptions,
    queue: Vec<SloRequest<'a>>,
}

/// The plan a retry inherits from its failed predecessor: execute-stage
/// failures keep their (possibly degraded) plan and demote from its rung;
/// plan-stage failures carry nothing and re-plan from scratch.
#[derive(Debug)]
struct PriorAttempt {
    plan: InferencePlan,
    served_resolution: usize,
    planned_resolution: usize,
}

/// One scheduled attempt of a request's lifecycle: attempt 0 is the original
/// admission, higher attempts are retries re-admitted after a virtual-clock
/// backoff.
#[derive(Debug)]
struct PendingAttempt {
    /// Submission index.
    index: usize,
    /// 0-based attempt number.
    attempt: usize,
    /// Arrival on the virtual clock (the original arrival for attempt 0, the
    /// prior failure's finish plus backoff for retries).
    arrival_ms: f64,
    prior: Option<PriorAttempt>,
    /// The error that scheduled this retry (`None` only for attempt 0).
    last_error: Option<CoreError>,
}

/// Post-admission state of one attempt.
#[derive(Debug)]
struct AdmittedAttempt {
    /// Position in the round's attempt list.
    slot: usize,
    /// Admission sequence within the round (virtual-server order), the order
    /// execute outcomes are fed to the circuit breakers in.
    seq: usize,
    plan: InferencePlan,
    planned_resolution: usize,
    virtual_start_ms: f64,
    virtual_finish_ms: f64,
    /// Watchdog-flagged: charged the capped overrun and cooperatively
    /// cancelled before any backbone compute.
    cancelled: bool,
    /// Admitted onto the quantized arm (precision demotion): executes under
    /// the int8 bucket-dispatch table and was charged the int8 estimate.
    int8: bool,
}

/// Plan-stage verdict for one attempt under breaker gating.
#[derive(Debug)]
enum Gate {
    /// Shed at the gate by an open breaker; no decode or plan compute spent.
    Shed,
    /// Admitted past the gate; the plan stage ran.
    Plan(Result<InferencePlan>),
}

/// One breaker-gated planning group: a source's attempts walked sequentially
/// (so gating sees failures inline, in arrival order), or a single unsourced
/// attempt.
#[derive(Debug)]
struct PlanGroup {
    source: Option<SourceId>,
    breaker: Option<CircuitBreaker>,
    /// Positions in the round's attempt list, ascending by (arrival, index).
    slots: Vec<usize>,
}

impl<'a> SloScheduler<'a> {
    /// Creates a scheduler serving one pipeline.
    pub fn new(pipeline: &'a DynamicResolutionPipeline, options: SloOptions) -> Self {
        SloScheduler { pipeline, options, queue: Vec::new() }
    }

    /// Enqueues one request, returning its submission index. Outcomes are
    /// always reported in submission order.
    pub fn submit(&mut self, request: SloRequest<'a>) -> usize {
        self.queue.push(request);
        self.queue.len() - 1
    }

    /// Number of requests currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    fn thread_budget(&self) -> usize {
        thread_budget(self.pipeline, &self.options)
    }

    /// Drains the queue: plans, admits over the virtual clock, executes, and
    /// aggregates.
    ///
    /// # Errors
    /// Returns an error only if the queue is empty or no latency model could be
    /// built; per-request failures are isolated into [`SloOutcome::Failed`].
    pub fn run(&mut self) -> Result<SloReport> {
        Ok(self.run_inner(false)?.0)
    }

    /// Like [`run`](Self::run), additionally recording a replayable
    /// [`ServingTrace`] of the drain.
    ///
    /// # Errors
    /// Same as [`run`](Self::run).
    pub fn run_recorded(&mut self) -> Result<(SloReport, ServingTrace)> {
        let (report, trace) = self.run_inner(true)?;
        Ok((report, trace.expect("a recording run produces a trace")))
    }

    fn run_inner(&mut self, record: bool) -> Result<(SloReport, Option<ServingTrace>)> {
        if self.queue.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        let wall_start = Instant::now();
        let queue = std::mem::take(&mut self.queue);
        let threads = self.thread_budget();
        let mut core = AdmissionCore::new(self.pipeline, self.options.clone(), threads, record)?;
        for request in queue {
            core.submit(request.into_queued());
        }
        // A batch drain is the degenerate real-clock run: every step happens
        // at `now = ∞`, so each step drains everything currently pending (all
        // first attempts in round 0, each round's retries thereafter) —
        // exactly the rounds loop this core was extracted from, bit for bit.
        while core.has_pending() {
            core.admit_step(f64::INFINITY);
        }
        Ok(core.finish(wall_start.elapsed().as_secs_f64()))
    }

    /// Replays a recorded [`ServingTrace`] through the virtual-clock core.
    ///
    /// Queued requests supply the payloads (samples, caller-supplied storage)
    /// in submission order; the trace supplies every timing input — the
    /// arrival/deadline/cost/source stamps, the submission/step interleaving,
    /// and each step's `now`. For a gracefully drained trace
    /// ([`ServingTrace::replayable`]) the admission decisions of the returned
    /// report — and the returned re-recorded trace's
    /// [`decisions`](ServingTrace::decisions) — are bitwise identical to the
    /// live run's, across thread budgets.
    ///
    /// # Errors
    /// Returns an error if the queued request count does not match the trace,
    /// the queue is empty, or no latency model could be built.
    pub fn replay(&mut self, trace: &ServingTrace) -> Result<(SloReport, ServingTrace)> {
        if self.queue.len() != trace.requests.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "replay: {} queued requests but the trace recorded {}",
                    self.queue.len(),
                    trace.requests.len()
                ),
            });
        }
        if self.queue.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        let wall_start = Instant::now();
        let queue = std::mem::take(&mut self.queue);
        let threads = self.thread_budget();
        let mut core = AdmissionCore::new(self.pipeline, self.options.clone(), threads, true)?;
        let mut feed = queue
            .into_iter()
            .zip(trace.requests.iter())
            .map(|(request, stamps)| {
                let mut queued = request.into_queued();
                queued.arrival_ms = stamps.arrival_ms;
                queued.deadline_ms = stamps.deadline_ms;
                queued.cost_multiplier = stamps.cost_multiplier;
                queued.source = stamps.source.map(SourceId);
                (queued, stamps.enqueued_step)
            })
            .peekable();
        for (step, &now_ms) in trace.steps.iter().enumerate() {
            while let Some((queued, _)) = feed.next_if(|(_, enqueued)| *enqueued <= step) {
                core.submit(queued);
            }
            core.admit_step(now_ms);
        }
        // Requests recorded after the final step (arrivals the live run never
        // stepped past) plus any hand-authored tail.
        for (queued, _) in feed {
            core.submit(queued);
        }
        if trace.hard_cancelled {
            core.cancel_pending(DRAIN_CANCEL_REASON);
        } else {
            while core.has_pending() {
                core.admit_step(f64::INFINITY);
            }
        }
        let (report, replayed) = core.finish(wall_start.elapsed().as_secs_f64());
        Ok((report, replayed.expect("a replay records its own trace")))
    }
}

/// The scheduler's thread budget: explicit batch option, else the pipeline's
/// engine context, else the engine default.
pub(crate) fn thread_budget(pipeline: &DynamicResolutionPipeline, options: &SloOptions) -> usize {
    options
        .batch
        .threads
        .or(pipeline.config().engine_threads)
        .unwrap_or_else(rescnn_tensor::num_threads)
        .max(1)
}

/// The incremental admission core: one shared virtual server stepped by
/// explicit `now` values.
///
/// Both serving modes drive this one state machine. The batch
/// [`SloScheduler::run`] submits everything and steps at `now = ∞` until the
/// pending set drains — the original run-to-completion rounds loop. The
/// real-clock [`SloServer`](crate::SloServer) submits requests as they arrive
/// and steps at wall `now`, so a request joins whatever resolution bucket is
/// forming at the next step (continuous batching) instead of waiting for a
/// full drain. Every admission decision is a pure function of the submitted
/// stamps and the step sequence — never of the wall clock — which is what
/// makes recorded runs replayable bitwise.
#[derive(Debug)]
pub(crate) struct AdmissionCore<'a> {
    pipeline: &'a DynamicResolutionPipeline,
    options: SloOptions,
    threads: usize,
    latency: ResolutionLatencyModel,
    arena_peaks: Option<BTreeMap<usize, usize>>,
    queue: Vec<QueuedRequest<'a>>,
    outcomes: Vec<Option<SloOutcome>>,
    memory_demoted_flag: Vec<bool>,
    precision_demoted_flag: Vec<bool>,
    breakers: BTreeMap<SourceId, CircuitBreaker>,
    pending: Vec<PendingAttempt>,
    server_free_ms: f64,
    peak_backlog_ms: f64,
    retry_attempts: usize,
    watchdog_cancelled: usize,
    trace: Option<ServingTrace>,
}

impl<'a> AdmissionCore<'a> {
    /// Resolves the fallible admission inputs up front — the latency model
    /// and, when a memory budget is set, every rung's planned
    /// activation-arena peak — keeping the per-request walk infallible (and
    /// letting the server fail in `start()` rather than on its worker
    /// thread).
    pub(crate) fn resolve_models(
        pipeline: &DynamicResolutionPipeline,
        options: &SloOptions,
    ) -> Result<(ResolutionLatencyModel, Option<BTreeMap<usize, usize>>)> {
        let latency = match &options.latency {
            Some(model) => model.clone(),
            None => ResolutionLatencyModel::analytic(pipeline)?,
        };
        let arena_peaks: Option<BTreeMap<usize, usize>> = match options.memory_budget_bytes {
            Some(_) => {
                let mut peaks = BTreeMap::new();
                for &resolution in &pipeline.config().resolutions {
                    peaks.insert(resolution, pipeline.arena_peak_bytes(resolution)?);
                }
                Some(peaks)
            }
            None => None,
        };
        Ok((latency, arena_peaks))
    }

    pub(crate) fn new(
        pipeline: &'a DynamicResolutionPipeline,
        options: SloOptions,
        threads: usize,
        record: bool,
    ) -> Result<Self> {
        let (latency, arena_peaks) = Self::resolve_models(pipeline, &options)?;
        Ok(Self::with_resolved(pipeline, options, threads, record, latency, arena_peaks))
    }

    pub(crate) fn with_resolved(
        pipeline: &'a DynamicResolutionPipeline,
        options: SloOptions,
        threads: usize,
        record: bool,
        latency: ResolutionLatencyModel,
        arena_peaks: Option<BTreeMap<usize, usize>>,
    ) -> Self {
        AdmissionCore {
            pipeline,
            options,
            threads,
            latency,
            arena_peaks,
            queue: Vec::new(),
            outcomes: Vec::new(),
            memory_demoted_flag: Vec::new(),
            precision_demoted_flag: Vec::new(),
            breakers: BTreeMap::new(),
            pending: Vec::new(),
            server_free_ms: 0.0,
            peak_backlog_ms: 0.0,
            retry_attempts: 0,
            watchdog_cancelled: 0,
            trace: record.then(ServingTrace::default),
        }
    }

    /// Accepts one request, scheduling its first attempt. Returns the
    /// submission index (the server's ticket value).
    pub(crate) fn submit(&mut self, request: QueuedRequest<'a>) -> usize {
        let index = self.queue.len();
        if let Some(trace) = &mut self.trace {
            trace.requests.push(TraceRequest {
                arrival_ms: request.arrival_ms,
                deadline_ms: request.deadline_ms,
                cost_multiplier: request.cost_multiplier,
                source: request.source.map(|s| s.0),
                enqueued_step: trace.steps.len(),
            });
        }
        self.pending.push(PendingAttempt {
            index,
            attempt: 0,
            arrival_ms: request.arrival_ms,
            prior: None,
            last_error: None,
        });
        self.queue.push(request);
        self.outcomes.push(None);
        self.memory_demoted_flag.push(false);
        self.precision_demoted_flag.push(false);
        index
    }

    /// Whether any attempt (first or retry) is still pending.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether any pending attempt is eligible at `now_ms`.
    pub(crate) fn has_eligible(&self, now_ms: f64) -> bool {
        self.pending.iter().any(|attempt| attempt.arrival_ms <= now_ms)
    }

    /// Earliest pending arrival (the time the event loop should wake by).
    pub(crate) fn next_pending_arrival(&self) -> Option<f64> {
        self.pending.iter().map(|attempt| attempt.arrival_ms).min_by(f64::total_cmp)
    }

    /// The settled outcome of request `index`, when terminal.
    pub(crate) fn outcome(&self, index: usize) -> Option<&SloOutcome> {
        self.outcomes.get(index).and_then(Option::as_ref)
    }

    /// Settles every still-pending attempt as drain-cancelled without
    /// executing it, returning the indices settled (ascending). Marks the
    /// trace hard-cancelled: the tail of this run is no longer bitwise
    /// replayable.
    pub(crate) fn cancel_pending(&mut self, reason: &str) -> Vec<usize> {
        let drained = std::mem::take(&mut self.pending);
        let mut settled: Vec<usize> = Vec::with_capacity(drained.len());
        for attempt in drained {
            self.outcomes[attempt.index] =
                Some(SloOutcome::Failed(CoreError::Cancelled { reason: reason.to_string() }));
            settled.push(attempt.index);
        }
        settled.sort_unstable();
        if !settled.is_empty() {
            self.mark_hard_cancelled();
        }
        settled
    }

    /// Records that the run's drain deadline fired (in-flight executions were
    /// refused by a wall-timed token), so replay is best-effort from here.
    pub(crate) fn mark_hard_cancelled(&mut self) {
        if let Some(trace) = &mut self.trace {
            trace.hard_cancelled = true;
        }
    }

    /// Plans one request (preview read + scale model), honouring its
    /// caller-supplied storage when present.
    fn plan_request(&self, index: usize) -> Result<InferencePlan> {
        let request = &self.queue[index];
        match &request.storage {
            Some(encoded) => {
                self.pipeline.plan_with_storage_unscoped(request.sample.get(), encoded.clone())
            }
            None => self.pipeline.plan_unscoped(request.sample.get()),
        }
    }

    /// Runs one admission round over every pending attempt whose arrival is
    /// at or before `now_ms`: plan (under per-request isolation and breaker
    /// gating) → admit over the virtual clock → execute as homogeneous
    /// resolution buckets → settle, scheduling retries. Returns the indices
    /// of requests whose outcome became *terminal* this step (a provisional
    /// failure with a retry scheduled is not terminal), ascending.
    ///
    /// At `now_ms = ∞` one step is exactly one round of the original
    /// run-to-completion loop. At finite `now_ms` the step additionally
    /// enforces the wall-clock deadline: an eligible request whose deadline
    /// has already passed on the stepping clock expires without compute.
    pub(crate) fn admit_step(&mut self, now_ms: f64) -> Vec<usize> {
        let mut round: Vec<PendingAttempt> = Vec::new();
        let mut deferred: Vec<PendingAttempt> = Vec::new();
        for attempt in std::mem::take(&mut self.pending) {
            if attempt.arrival_ms <= now_ms {
                round.push(attempt);
            } else {
                deferred.push(attempt);
            }
        }
        self.pending = deferred;
        if round.is_empty() {
            return Vec::new();
        }
        if let Some(trace) = &mut self.trace {
            trace.steps.push(now_ms);
        }
        let pipeline = self.pipeline;
        let threads = self.threads;
        let context = pipeline.engine_context();
        let max_batch = self.options.batch.max_batch.max(1);

        // Stage 1: plan every attempt that needs one (retries of execute
        // failures keep their plan) under per-request isolation.
        let need_plan: Vec<usize> = round
            .iter()
            .enumerate()
            .filter(|(_, attempt)| attempt.prior.is_none())
            .map(|(slot, _)| slot)
            .collect();
        let mut gates: Vec<Option<Gate>> = Vec::new();
        gates.resize_with(round.len(), || None);
        if let Some(policy) = &self.options.breaker {
            // Breaker gating needs each source's attempts walked in
            // arrival order with failures fed inline, so planning is
            // grouped per source (one isolated task per group — groups
            // still plan in parallel); unsourced attempts are ungated
            // singletons. A shed attempt is never decoded or planned.
            let mut sourced: BTreeMap<SourceId, Vec<usize>> = BTreeMap::new();
            let mut groups: Vec<PlanGroup> = Vec::new();
            for &slot in &need_plan {
                match self.queue[round[slot].index].source {
                    Some(source) => sourced.entry(source).or_default().push(slot),
                    None => {
                        groups.push(PlanGroup { source: None, breaker: None, slots: vec![slot] })
                    }
                }
            }
            for (source, mut slots) in sourced {
                slots.sort_by(|&a, &b| {
                    round[a]
                        .arrival_ms
                        .total_cmp(&round[b].arrival_ms)
                        .then_with(|| round[a].index.cmp(&round[b].index))
                });
                let breaker = self
                    .breakers
                    .entry(source)
                    .or_insert_with(|| CircuitBreaker::new(policy.clone()))
                    .clone();
                groups.push(PlanGroup { source: Some(source), breaker: Some(breaker), slots });
            }
            let group_outcomes = run_batch_isolated(&context, threads, groups.len(), |g| {
                let group = &groups[g];
                let mut breaker = group.breaker.clone();
                let mut walked: Vec<(usize, Gate)> = Vec::with_capacity(group.slots.len());
                for &slot in &group.slots {
                    let attempt = &round[slot];
                    if let Some(b) = breaker.as_mut() {
                        if !b.admit(attempt.arrival_ms) {
                            walked.push((slot, Gate::Shed));
                            continue;
                        }
                    }
                    // Panics are contained per member, not per group:
                    // one poisoned stream must not fail its source's
                    // healthy neighbours.
                    let planned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.plan_request(attempt.index)
                    }))
                    .unwrap_or_else(|payload| {
                        Err(CoreError::Panicked { message: rescnn_tensor::panic_message(payload) })
                    });
                    if let Some(b) = breaker.as_mut() {
                        match &planned {
                            Ok(_) => b.note_progress(),
                            Err(_) => b.record_failure(attempt.arrival_ms),
                        }
                    }
                    walked.push((slot, Gate::Plan(planned)));
                }
                Ok((walked, breaker))
            });
            for (g, outcome) in group_outcomes.into_iter().enumerate() {
                let group = &groups[g];
                match outcome {
                    Ok((walked, breaker)) => {
                        if let (Some(source), Some(breaker)) = (group.source, breaker) {
                            self.breakers.insert(source, breaker);
                        }
                        for (slot, gate) in walked {
                            gates[slot] = Some(gate);
                        }
                    }
                    // The walk itself failing (members are caught
                    // individually) fails the whole group.
                    Err(error) => {
                        for &slot in &group.slots {
                            gates[slot] = Some(Gate::Plan(Err(error.clone())));
                        }
                    }
                }
            }
        } else {
            // No breaker: the flat data-parallel plan stage (identical in
            // structure — and in round 0, in per-task work — to the
            // policy-free scheduler).
            let planned = run_batch_isolated(&context, threads, need_plan.len(), |i| {
                self.plan_request(round[need_plan[i]].index)
            });
            for (i, outcome) in planned.into_iter().enumerate() {
                gates[need_plan[i]] = Some(Gate::Plan(outcome));
            }
        }

        // Resolve gates: sheds and final plan failures settle now; plan
        // failures with retry budget re-plan next round from scratch.
        let mut viable: Vec<(usize, InferencePlan)> = Vec::new();
        for (slot, attempt) in round.iter().enumerate() {
            if let Some(prior) = &attempt.prior {
                viable.push((slot, prior.plan.clone()));
                continue;
            }
            match gates[slot].take().expect("every plan-needing attempt was gated") {
                Gate::Shed => {
                    self.outcomes[attempt.index] =
                        Some(SloOutcome::Rejected(Rejected::CircuitOpen));
                }
                Gate::Plan(Ok(plan)) => viable.push((slot, plan)),
                Gate::Plan(Err(error)) => {
                    if let Some(policy) = &self.options.retry {
                        if attempt.attempt < policy.max_retries {
                            let next_arrival =
                                attempt.arrival_ms + policy.backoff_for(attempt.attempt);
                            if next_arrival < self.queue[attempt.index].deadline_ms {
                                self.pending.push(PendingAttempt {
                                    index: attempt.index,
                                    attempt: attempt.attempt + 1,
                                    arrival_ms: next_arrival,
                                    prior: None,
                                    last_error: Some(error.clone()),
                                });
                                self.retry_attempts += 1;
                            }
                        }
                    }
                    // Provisional when a retry was scheduled: the retry's
                    // outcome overwrites it.
                    self.outcomes[attempt.index] = Some(SloOutcome::Failed(error));
                }
            }
        }

        // Stage 2: admission over the virtual clock, in arrival order
        // (ties break by submission index, keeping the walk fully
        // deterministic).
        viable.sort_by(|a, b| {
            round[a.0]
                .arrival_ms
                .total_cmp(&round[b.0].arrival_ms)
                .then_with(|| round[a.0].index.cmp(&round[b.0].index))
        });
        let ladder = &pipeline.config().resolutions;
        let mut admitted: Vec<AdmittedAttempt> = Vec::new();
        for (slot, plan) in viable {
            let attempt = &round[slot];
            let request = &self.queue[attempt.index];
            let virtual_start = self.server_free_ms.max(attempt.arrival_ms);
            self.peak_backlog_ms = self.peak_backlog_ms.max(virtual_start - attempt.arrival_ms);
            // Wall-clock deadline enforcement: on a real-clock step whose
            // `now` has already passed the deadline, the request expires
            // without compute. Batch drains step at `now = ∞` (not finite),
            // so their admission test is the virtual-only one, bit for bit.
            let wall_expired = now_ms.is_finite() && now_ms >= request.deadline_ms;
            if wall_expired || virtual_start >= request.deadline_ms {
                self.outcomes[attempt.index] = Some(if attempt.attempt == 0 {
                    SloOutcome::Rejected(Rejected::DeadlineExceeded)
                } else {
                    // The backoff ran the clock out: keep the failure that
                    // scheduled this retry.
                    SloOutcome::Failed(
                        attempt
                            .last_error
                            .clone()
                            .expect("retries carry the error that scheduled them"),
                    )
                });
                continue;
            }
            let planned_resolution = match &attempt.prior {
                Some(prior) => prior.planned_resolution,
                None => plan.chosen_resolution,
            };
            // Candidate rungs. First attempts (and re-plans) walk the
            // ladder downward from the planned resolution — the largest
            // bucket that fits the slack, the memory budget, and the SSIM
            // floor wins, and a floor violation ends the walk (cheaper
            // rungs only read less). A demoting retry instead prefers one
            // rung *below* the resolution that failed, falling back to
            // that rung itself (here a floor violation moves on: the
            // fallback is the higher-quality option).
            let (candidates, floor_break): (Vec<usize>, bool) = match &attempt.prior {
                Some(prior) => {
                    let served = prior.served_resolution;
                    let demote =
                        self.options.retry.as_ref().is_some_and(|policy| policy.demote_on_retry);
                    let mut rungs = Vec::with_capacity(2);
                    if demote {
                        if let Some(below) = ladder.iter().copied().filter(|&r| r < served).max() {
                            rungs.push(below);
                        }
                    }
                    rungs.push(served);
                    (rungs, false)
                }
                None => {
                    let mut rungs: Vec<usize> =
                        ladder.iter().copied().filter(|&r| r <= planned_resolution).collect();
                    rungs.sort_unstable_by(|a, b| b.cmp(a));
                    (rungs, true)
                }
            };
            // Injected cost spikes model transient faults: they fire on
            // first attempts only, so a retry is charged the nominal
            // estimate.
            let multiplier = if attempt.attempt == 0 { request.cost_multiplier } else { 1.0 };
            let mut placed = false;
            let mut memory_skipped = false;
            for resolution in candidates {
                if let (Some(peaks), Some(budget)) =
                    (&self.arena_peaks, self.options.memory_budget_bytes)
                {
                    if peaks.get(&resolution).copied().unwrap_or(0) > budget {
                        // Over the arena budget: demote down the ladder
                        // instead of risking the allocation.
                        memory_skipped = true;
                        continue;
                    }
                }
                // Precision tiers at this rung: f32 first; when demotion
                // is enabled *and* the accuracy gate admits the rung, the
                // quantized arm is tried next — before the walk steps down
                // the resolution ladder, because serving full resolution
                // at gated-reduced precision degrades accuracy less than
                // dropping a rung.
                let mut tiers: Vec<(f64, bool)> =
                    vec![(self.latency.estimate_ms(resolution), false)];
                if let Some(precision) = &self.options.precision {
                    if precision.gate.admits(resolution) {
                        tiers.push((precision.latency.estimate_ms(resolution), true));
                    }
                }
                let mut fit: Option<(f64, bool, bool)> = None;
                for (estimate_ms, int8) in tiers {
                    let mut service_ms = estimate_ms * multiplier;
                    let mut cancelled = false;
                    if let Some(watchdog) = &self.options.watchdog {
                        let cap_ms = estimate_ms * watchdog.overrun_factor;
                        if service_ms > cap_ms {
                            // Overrun: charge only the cap (one runaway
                            // must not blow every queued deadline) and
                            // cancel the execution before it spends
                            // compute.
                            service_ms = cap_ms;
                            cancelled = true;
                        }
                    }
                    if virtual_start + service_ms <= request.deadline_ms {
                        fit = Some((service_ms, cancelled, int8));
                        break;
                    }
                }
                let Some((service_ms, cancelled, int8)) = fit else {
                    continue;
                };
                let final_plan = if resolution == plan.chosen_resolution {
                    plan.clone()
                } else {
                    match pipeline.replan_at(request.sample.get(), &plan, resolution) {
                        Ok(replanned) => replanned,
                        Err(error) => {
                            self.outcomes[attempt.index] = Some(SloOutcome::Failed(error));
                            placed = true;
                            break;
                        }
                    }
                };
                if let Some(floor) = self.options.ssim_floor {
                    if resolution != planned_resolution && final_plan.quality() < floor {
                        if floor_break {
                            break;
                        }
                        continue;
                    }
                }
                self.server_free_ms = virtual_start + service_ms;
                if memory_skipped {
                    self.memory_demoted_flag[attempt.index] = true;
                }
                self.precision_demoted_flag[attempt.index] = int8;
                if cancelled {
                    self.watchdog_cancelled += 1;
                }
                admitted.push(AdmittedAttempt {
                    slot,
                    seq: admitted.len(),
                    plan: final_plan,
                    planned_resolution,
                    virtual_start_ms: virtual_start,
                    virtual_finish_ms: self.server_free_ms,
                    cancelled,
                    int8,
                });
                placed = true;
                break;
            }
            if !placed {
                self.outcomes[attempt.index] = Some(if attempt.attempt == 0 {
                    SloOutcome::Rejected(Rejected::Overloaded)
                } else {
                    SloOutcome::Failed(
                        attempt
                            .last_error
                            .clone()
                            .expect("retries carry the error that scheduled them"),
                    )
                });
            }
        }

        // Stage 3: execute. Watchdog-doomed attempts run under a
        // pre-fired cancellation token — the execute task is refused at
        // its task boundary, so the cancellation path is exercised
        // end-to-end while spending zero backbone compute. Everything
        // else executes as homogeneous resolution buckets under
        // per-request isolation, mirroring the batch scheduler.
        let (doomed, normal): (Vec<AdmittedAttempt>, Vec<AdmittedAttempt>) =
            admitted.into_iter().partition(|entry| entry.cancelled);
        let mut executed: Vec<(AdmittedAttempt, Result<InferenceRecord>)> =
            Vec::with_capacity(doomed.len() + normal.len());
        if !doomed.is_empty() {
            let token = rescnn_tensor::CancellationToken::new();
            token.cancel();
            let cancelled = context.clone().with_cancellation(token);
            let results = run_batch_isolated(&cancelled, threads, doomed.len(), |slot| {
                let entry = &doomed[slot];
                pipeline
                    .execute_unscoped(self.queue[round[entry.slot].index].sample.get(), &entry.plan)
            });
            let factor = self.options.watchdog.as_ref().map_or(f64::INFINITY, |w| w.overrun_factor);
            for (entry, raw) in doomed.into_iter().zip(results) {
                debug_assert!(
                    matches!(raw, Err(CoreError::Cancelled { .. })),
                    "a pre-fired token must refuse the task, got {raw:?}"
                );
                // Replace the mechanism's task-local message with the
                // watchdog context (stable across reruns and budgets).
                let reason = format!(
                    "watchdog: estimated service at {}\u{b2} exceeded {factor}x the \
                     latency-model estimate; execution cancelled before start",
                    entry.plan.chosen_resolution
                );
                executed.push((entry, Err(CoreError::Cancelled { reason })));
            }
        }
        // Buckets are keyed by (resolution, precision): a demoted request
        // executes under the int8 dispatch table, a nominal one under the
        // f32 table — never mixed in one scoped batch.
        let mut buckets: BTreeMap<(usize, bool), Vec<usize>> = BTreeMap::new();
        for (pos, entry) in normal.iter().enumerate() {
            buckets.entry((entry.plan.chosen_resolution, entry.int8)).or_default().push(pos);
        }
        let mut normal_results: Vec<Option<Result<InferenceRecord>>> = Vec::new();
        normal_results.resize_with(normal.len(), || None);
        for (&(resolution, int8), members) in &buckets {
            let dispatch = if int8 {
                pipeline.bucket_dispatch_int8(resolution)
            } else {
                pipeline.bucket_dispatch(resolution)
            };
            let bucket_context = context.clone().with_calibration(dispatch);
            for batch in members.chunks(max_batch) {
                let results = run_batch_isolated(&bucket_context, threads, batch.len(), |slot| {
                    let entry = &normal[batch[slot]];
                    let attempt = &round[entry.slot];
                    // Chaos panics model transient faults and fire on
                    // first attempts only — a retry of a chaos-panicked
                    // request genuinely recovers.
                    if attempt.attempt == 0 {
                        if let Some(every) = self.options.chaos_panic_every {
                            if (attempt.index + 1).is_multiple_of(every) {
                                panic!("chaos: injected panic in request {}", attempt.index);
                            }
                        }
                        if self.options.chaos_panic_requests.binary_search(&attempt.index).is_ok() {
                            panic!("chaos: injected panic in request {}", attempt.index);
                        }
                    }
                    pipeline.execute_unscoped(self.queue[attempt.index].sample.get(), &entry.plan)
                });
                for (slot, result) in results.into_iter().enumerate() {
                    normal_results[batch[slot]] = Some(result);
                }
            }
        }
        for (pos, entry) in normal.into_iter().enumerate() {
            let result = normal_results[pos].take().expect("every admitted attempt was executed");
            executed.push((entry, result));
        }

        // Settle outcomes and feed the breakers in admission order (the
        // deterministic virtual-server order), then schedule retries.
        executed.sort_by_key(|(entry, _)| entry.seq);
        for (entry, result) in executed {
            let attempt = &round[entry.slot];
            let request = &self.queue[attempt.index];
            if let (Some(policy), Some(source)) = (&self.options.breaker, request.source) {
                let breaker = self
                    .breakers
                    .entry(source)
                    .or_insert_with(|| CircuitBreaker::new(policy.clone()));
                match &result {
                    Ok(_) => breaker.record_success(),
                    Err(_) => breaker.record_failure(entry.virtual_finish_ms),
                }
            }
            match result {
                Ok(record) => {
                    self.outcomes[attempt.index] = Some(SloOutcome::Completed(CompletedRequest {
                        record,
                        planned_resolution: entry.planned_resolution,
                        served_resolution: entry.plan.chosen_resolution,
                        virtual_start_ms: entry.virtual_start_ms,
                        virtual_finish_ms: entry.virtual_finish_ms,
                        virtual_latency_ms: entry.virtual_finish_ms - request.arrival_ms,
                        retries: attempt.attempt,
                    }));
                }
                Err(error) => {
                    if let Some(policy) = &self.options.retry {
                        if attempt.attempt < policy.max_retries {
                            let next_arrival =
                                entry.virtual_finish_ms + policy.backoff_for(attempt.attempt);
                            if next_arrival < request.deadline_ms {
                                self.pending.push(PendingAttempt {
                                    index: attempt.index,
                                    attempt: attempt.attempt + 1,
                                    arrival_ms: next_arrival,
                                    prior: Some(PriorAttempt {
                                        served_resolution: entry.plan.chosen_resolution,
                                        planned_resolution: entry.planned_resolution,
                                        plan: entry.plan,
                                    }),
                                    last_error: Some(error.clone()),
                                });
                                self.retry_attempts += 1;
                            }
                        }
                    }
                    // Provisional when a retry was scheduled; final
                    // otherwise.
                    self.outcomes[attempt.index] = Some(SloOutcome::Failed(error));
                }
            }
        }

        // A request settled terminally this step iff it was in the round and
        // no retry re-entered it into the pending set.
        let mut settled: Vec<usize> = round.iter().map(|attempt| attempt.index).collect();
        settled.retain(|&index| !self.pending.iter().any(|p| p.index == index));
        settled.sort_unstable();
        debug_assert!(
            settled.iter().all(|&index| self.outcomes[index].is_some()),
            "a settled request must hold a terminal outcome"
        );
        settled
    }

    /// Aggregates the settled outcomes into an [`SloReport`] (and the recorded
    /// trace, when recording), in submission order. Every accepted request
    /// must have settled.
    pub(crate) fn finish(self, wall_seconds: f64) -> (SloReport, Option<ServingTrace>) {
        debug_assert!(self.pending.is_empty(), "finish() with attempts still pending");
        let AdmissionCore {
            threads,
            outcomes,
            memory_demoted_flag,
            precision_demoted_flag,
            breakers,
            peak_backlog_ms,
            retry_attempts,
            watchdog_cancelled,
            mut trace,
            ..
        } = self;
        let outcomes: Vec<SloOutcome> = outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every request has an outcome"))
            .collect();
        if let Some(trace) = &mut trace {
            trace.decisions = outcomes
                .iter()
                .enumerate()
                .map(|(index, outcome)| {
                    TraceDecision::from_outcome(outcome, precision_demoted_flag[index])
                })
                .collect();
        }
        let total = outcomes.len();
        let mut completed_records: Vec<InferenceRecord> = Vec::new();
        let mut latencies: Vec<f64> = Vec::new();
        let mut ssim_sum = 0.0f64;
        let (mut completed, mut shed, mut expired, mut faulted) = (0usize, 0usize, 0usize, 0usize);
        let (mut breaker_shed, mut recovered, mut memory_demoted) = (0usize, 0usize, 0usize);
        let mut precision_demoted = 0usize;
        for (index, outcome) in outcomes.iter().enumerate() {
            match outcome {
                SloOutcome::Completed(done) => {
                    completed += 1;
                    ssim_sum += done.record.quality;
                    latencies.push(done.virtual_latency_ms);
                    completed_records.push(done.record);
                    if done.retries > 0 {
                        recovered += 1;
                    }
                    if memory_demoted_flag[index] {
                        memory_demoted += 1;
                    }
                    if precision_demoted_flag[index] {
                        precision_demoted += 1;
                    }
                }
                SloOutcome::Rejected(Rejected::Overloaded) => shed += 1,
                SloOutcome::Rejected(Rejected::DeadlineExceeded) => expired += 1,
                SloOutcome::Rejected(Rejected::CircuitOpen) => breaker_shed += 1,
                SloOutcome::Failed(_) => faulted += 1,
            }
        }
        let breaker_trips = breakers.values().map(CircuitBreaker::trips).sum();
        // Only requests that actually completed count as degraded (a degraded
        // admission that then faulted is a fault, not a degradation).
        let degraded = outcomes
            .iter()
            .filter(
                |o| matches!(o, SloOutcome::Completed(c) if c.served_resolution < c.planned_resolution),
            )
            .count();
        latencies.sort_by(f64::total_cmp);
        let report = PipelineReport::from_records("slo".to_string(), &completed_records);
        let totalf = total.max(1) as f64;
        let report = SloReport {
            report,
            outcomes,
            total,
            completed,
            degraded,
            shed,
            expired,
            faulted,
            recovered,
            retry_attempts,
            breaker_shed,
            breaker_trips,
            watchdog_cancelled,
            memory_demoted,
            precision_demoted,
            goodput: completed as f64 / totalf,
            shed_rate: shed as f64 / totalf,
            slo_violation_rate: (shed + breaker_shed + expired + faulted) as f64 / totalf,
            p50_latency_ms: percentile(&latencies, 0.50),
            p99_latency_ms: percentile(&latencies, 0.99),
            mean_delivered_ssim: if completed > 0 { ssim_sum / completed as f64 } else { 0.0 },
            peak_backlog_ms,
            wall_seconds,
            threads,
        };
        (report, trace)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_lookup_rounds_up_then_falls_back() {
        let model = ResolutionLatencyModel::from_estimates([(112, 4.0), (224, 16.0)]);
        assert_eq!(model.estimate_ms(112), 4.0);
        assert_eq!(model.estimate_ms(150), 16.0, "unknown resolutions round up");
        assert_eq!(model.estimate_ms(448), 16.0, "beyond the ladder falls back to the largest");
        let empty = ResolutionLatencyModel::from_estimates([]);
        assert_eq!(empty.estimate_ms(224), 0.0);
        let negative = ResolutionLatencyModel::from_estimates([(64, -3.0)]);
        assert_eq!(negative.estimate_ms(64), 0.0, "estimates clamp to non-negative");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&values, 0.50), 2.0);
        assert_eq!(percentile(&values, 0.99), 4.0);
        assert_eq!(percentile(&values, 0.25), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn options_builders() {
        let options = SloOptions::default();
        assert!(options.ssim_floor.is_none());
        assert!(options.latency.is_none());
        assert!(options.chaos_panic_every.is_none());
        let options = SloOptions::default()
            .with_ssim_floor(0.9)
            .with_latency_model(ResolutionLatencyModel::from_estimates([(112, 1.0)]))
            .with_chaos_panic_every(0);
        assert_eq!(options.ssim_floor, Some(0.9));
        assert_eq!(options.chaos_panic_every, Some(1), "chaos interval clamps to 1");
        assert!(options.latency.is_some());
    }

    #[test]
    fn request_builders_clamp() {
        let sample =
            rescnn_data::DatasetSpec::cars_like().with_len(1).with_max_dimension(48).build(1);
        let request = SloRequest::new(&sample[0], 1.0, 9.0).with_cost_multiplier(-2.0);
        assert_eq!(request.cost_multiplier, 0.0);
        assert_eq!(request.arrival_ms, 1.0);
        assert_eq!(request.deadline_ms, 9.0);
        assert!(request.storage.is_none());
    }
}
