//! The rescnn benchmark: one run measures the ResNet-50 backbone forward
//! ladder, offline batch serving and open-loop SLO serving on inputs made from
//! `--seed`, checks every output, and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <imagenet|cars> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes the recorded spans and the per-op ledger
//! (also printed as `# ledger` lines) to `perfbench/out/`. The process exits
//! nonzero if any output check fails. `perfbench/METRICS.md` describes the
//! workloads and every metric.

mod backbone;
mod batch;
mod open_loop;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use rescnn_data::DatasetKind;

use backbone::Backbone;
use batch::Batch;
use open_loop::OpenLoop;
use report::{Metrics, Outcome};
use stats::median;
use trace::Tracer;

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Program set-ups repeated per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 3;
/// Where a traced run writes its spans and per-op ledger (relative to the
/// checkout root the benchmark runs from).
const OUT_DIR: &str = "perfbench/out";

/// Shares of `--seconds` given to the three stages.
const BACKBONE_SHARE: f64 = 0.4;
const BATCH_SHARE: f64 = 0.1;
const OPEN_SHARE: f64 = 0.5;
/// The run interleaves the stages in this many rounds (a backbone slot, a
/// batch slot, then a piece of each open-loop rate), so contention from the
/// host's other tenants, which comes in phases of seconds, falls on every
/// stage alike rather than on whichever ran at the time.
pub const ROUNDS: usize = 8;

/// Deterministic splitmix64 stream: every seeded choice the benchmark makes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform below `bound` (≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Derives an independent seed from `(seed, a, b)`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    SplitMix::new(
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
    )
    .next_u64()
}

struct Args {
    workload: String,
    kind: DatasetKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = match workload.as_str() {
        "imagenet" => DatasetKind::ImageNetLike,
        "cars" => DatasetKind::CarsLike,
        other => return Err(format!("unknown workload {other} (imagenet or cars)")),
    };
    Ok(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(45.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size (VmHWM) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn run(args: &Args) -> BoxResult<(Outcome, Metrics)> {
    let slot = |share: f64| Duration::from_secs_f64(args.seconds * share / ROUNDS as f64);
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let mut per_layer = Metrics::default();
    let mut e2e = Metrics::default();

    // Set-up of every stage, each repeated; inputs are made from the seed.
    let mut backbone = Backbone::set_up(args.seed, &mut outcome)?;
    let mut serving_setups = Vec::new();
    let mut serving = None;
    for _ in 0..SETUP_REPEATS {
        let built = serving::set_up(args.kind)?;
        serving_setups.push(built.setup_s);
        serving = Some(built);
    }
    let serving = serving.expect("at least one serving set-up");
    let mut batch = Batch::new(args.kind, args.seed)?;
    let mut open =
        OpenLoop::start(&serving, args.kind, args.seed, args.seconds * OPEN_SHARE, &mut outcome)?;

    for round in 0..ROUNDS {
        backbone.slot(slot(BACKBONE_SHARE), &mut tracer, &mut outcome);
        batch.slot(&serving, slot(BATCH_SHARE), &mut tracer, &mut outcome)?;
        open.round(&serving, round, &mut tracer, &mut outcome)?;
    }
    let server_setup_s = open.setup_s;
    let open = open.finish(&serving, &mut outcome)?;
    let (throughput, reps) = batch.finish(&serving, &mut outcome)?;

    for (res, ms, count) in backbone.forward_ms() {
        e2e.set(format!("forward_ms.{res}"), ms, "ms");
        println!("# backbone {res}²: {ms:.2} ms (mean of {count} forwards)");
    }
    e2e.set("throughput_rps", throughput, "1/s");
    println!("# batch: {throughput:.2} req/s over {reps} repetitions");
    let (mut sent, mut good, mut correct) = (0usize, 0usize, 0.0f64);
    let mut fractions = Vec::new();
    for (label, step) in &open.steps {
        // Per-layer rather than end-to-end: see `perfbench/METRICS.md`.
        per_layer.set(format!("open.latency_p50_ms.{label}"), step.p(0.5), "ms");
        per_layer.set(format!("open.latency_p90_ms.{label}"), step.p(0.9), "ms");
        println!("# open {label}: {} requests sent, {} completed", step.sent, step.completed);
        sent += step.sent;
        good += step.within_deadline;
        correct += step.expected_correct;
        fractions.extend_from_slice(&step.read_fraction);
    }
    let sent = sent.max(1) as f64;
    e2e.set("goodput_share", good as f64 / sent, "ratio");
    e2e.set("accuracy", correct / sent, "ratio");
    e2e.set("read_fraction", stats::mean(&fractions), "ratio");

    e2e.set("setup_s", backbone.setup_s + median(&serving_setups) + server_setup_s, "s");
    e2e.set("peak_rss_mib", peak_rss_mib(), "MiB");
    let attempted = outcome.attempted.max(1) as f64;
    e2e.set("success_share", 1.0 - outcome.failed as f64 / attempted, "ratio");

    if !args.trace {
        return Ok((outcome, e2e));
    }
    let ledger = backbone.trace(&mut per_layer)?;
    batch.trace(&serving, &mut tracer, &mut outcome, &mut per_layer)?;
    open.trace(&serving, &mut tracer, &mut outcome, &mut per_layer)?;
    let out = PathBuf::from(OUT_DIR);
    let spans = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&spans)?;
    let ledger_path = out.join(format!("ledger-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&ledger_path, ledger.join("\n") + "\n")?;
    println!(
        "# wrote {} spans to {}, per-op ledger to {}",
        tracer.len(),
        spans.display(),
        ledger_path.display()
    );
    for (name, (value, unit)) in e2e.iter() {
        println!("# untraced {name} = {value:.4} {unit}");
    }
    Ok((outcome, per_layer))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((outcome, metrics)) => {
            let correct = outcome.correct();
            println!("{}", report::result_json(&outcome, &metrics));
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}
