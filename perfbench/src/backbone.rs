//! Backbone stage: ResNet-50 (1000 classes, fixed weight seed) `Network::forward`
//! at batch 1, closed loop, one caller, engine threads = 1, cycling the paper's
//! 112² / 224² / 448² ladder on seeded random inputs under default dispatch
//! (no calibration table installed).

use std::time::{Duration, Instant};

use rescnn_models::{ModelKind, Network};
use rescnn_tensor::{
    installed_algo_calibration, planned_conv_algo, scratch, ActivationArena, ConvAlgo,
    ConvEpilogue, EngineContext, PreparedLayer, Shape, Tensor,
};

use crate::report::{Metrics, Outcome};
use crate::stats::{mean, median, print_samples};
use crate::trace::Tracer;
use crate::{mix, SETUP_REPEATS};

/// The resolutions the stage cycles through.
const LADDER: [usize; 3] = [112, 224, 448];
/// Distinct seeded inputs per resolution.
const INPUTS_PER_RES: usize = 2;
/// Forwards per resolution in one ladder cycle: each resolution gets about
/// the same time, so the small ones get more samples.
const FORWARDS_PER_CYCLE: [usize; 3] = [4, 2, 1];
/// Weight seed of the network (fixed, so every run times the same weights).
pub const WEIGHT_SEED: u64 = 50;
const NUM_CLASSES: usize = 1000;
/// Timed repetitions of each conv layer in the per-op ledger.
const OP_REPEATS: usize = 3;
/// Algorithms reported by name in the per-layer conv metrics: the ones
/// default dispatch picks for ResNet-50. Every other algorithm is counted
/// under `other`, so a dispatch change shows in `tensor.conv_calls.*`.
const NAMED_ALGOS: [(ConvAlgo, &str); 2] =
    [(ConvAlgo::Gemm1x1, "gemm1x1"), (ConvAlgo::Im2colPacked, "im2col_packed")];

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Program set-up: network build plus one warm-up forward per resolution.
struct Built {
    net: Network,
    build_s: f64,
    first_forward_ms: Vec<f64>,
    setup_s: f64,
}

fn build(inputs: &[Vec<Tensor>]) -> rescnn_models::Result<Built> {
    let start = Instant::now();
    let net = Network::new(ModelKind::ResNet50, NUM_CLASSES, WEIGHT_SEED);
    let build_s = start.elapsed().as_secs_f64();
    let mut first_forward_ms = Vec::new();
    for per_res in inputs {
        let t = Instant::now();
        net.forward(&per_res[0])?;
        first_forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Built { net, build_s, first_forward_ms, setup_s: start.elapsed().as_secs_f64() })
}

fn pinned<R>(f: impl FnOnce() -> R) -> R {
    EngineContext::new().with_threads(1).scope(f)
}

/// The set-up stage and the forward times measured so far. Timing happens in
/// slots spread over the run (see [`Backbone::slot`]), so a few seconds of
/// contention from other tenants of the host cannot cover all of them.
pub struct Backbone {
    net: Network,
    inputs: Vec<Vec<Tensor>>,
    /// The run's first output for every input.
    first: Vec<Vec<Tensor>>,
    pub setup_s: f64,
    build_s: Vec<f64>,
    cold_first_forward_ms: Vec<f64>,
    /// Untraced forward times per resolution (ms).
    times: Vec<Vec<f64>>,
    traced_times: Vec<Vec<f64>>,
    cycle: usize,
}

impl Backbone {
    /// Makes the seeded inputs, runs the (repeated) set-up, and checks every
    /// resolution's output against the reference executor.
    pub fn set_up(seed: u64, outcome: &mut Outcome) -> rescnn_models::Result<Self> {
        pinned(|| Self::set_up_pinned(seed, outcome))
    }

    fn set_up_pinned(seed: u64, outcome: &mut Outcome) -> rescnn_models::Result<Self> {
        // Inputs come from the seed and are made before anything is timed.
        let inputs: Vec<Vec<Tensor>> = LADDER
            .iter()
            .map(|&res| {
                (0..INPUTS_PER_RES)
                    .map(|i| {
                        Tensor::random_uniform(
                            Shape::chw(3, res, res),
                            1.0,
                            mix(seed, res as u64, i as u64),
                        )
                    })
                    .collect()
            })
            .collect();
        let mut setups = Vec::new();
        let mut build_s = Vec::new();
        let mut cold_first_forward_ms = Vec::new();
        let mut built = None;
        for rep in 0..SETUP_REPEATS {
            let b = build(&inputs)?;
            setups.push(b.setup_s);
            build_s.push(b.build_s);
            if rep == 0 {
                cold_first_forward_ms = b.first_forward_ms.clone();
            }
            built = Some(b);
        }
        let net = built.expect("at least one set-up").net;

        // Reference outputs: the run's first forward of every input, and (one
        // input per resolution) bitwise agreement with the reference
        // executor, the tolerance the parity suites pin.
        let mut first = Vec::new();
        for (r, per_res) in inputs.iter().enumerate() {
            let outs: Vec<Tensor> =
                per_res.iter().map(|x| net.forward(x)).collect::<Result<_, _>>()?;
            let reference = net.forward_reference(&per_res[0])?;
            outcome.check(outs[0].as_slice() == reference.as_slice(), || {
                format!("backbone {}²: forward differs from forward_reference", LADDER[r])
            });
            first.push(outs);
        }
        Ok(Backbone {
            net,
            inputs,
            first,
            setup_s: median(&setups),
            build_s,
            cold_first_forward_ms,
            times: vec![Vec::new(); LADDER.len()],
            traced_times: vec![Vec::new(); LADDER.len()],
            cycle: 0,
        })
    }

    /// Closed loop for one slot: cycles the ladder (at least once) while the
    /// next cycle fits the `budget`, checking every output bitwise against the first. A
    /// traced run alternates traced and untraced cycles, so the tracing
    /// overhead is measured on the same host state.
    pub fn slot(&mut self, budget: Duration, tracer: &mut Tracer, outcome: &mut Outcome) {
        pinned(|| {
            let start = Instant::now();
            loop {
                let cycle_start = Instant::now();
                self.run_cycle(tracer, outcome);
                // Stop unless another cycle ends (about) within the budget.
                if start.elapsed() + cycle_start.elapsed() / 2 >= budget {
                    break;
                }
            }
        })
    }

    fn run_cycle(&mut self, tracer: &mut Tracer, outcome: &mut Outcome) {
        let cycle = self.cycle;
        self.cycle += 1;
        let traced_cycle = tracer.enabled() && cycle % 2 == 1;
        let parent = if traced_cycle {
            tracer.open("backbone.cycle", None, Some(cycle as u64))
        } else {
            None
        };
        for (r, per_res) in self.inputs.iter().enumerate() {
            for k in 0..FORWARDS_PER_CYCLE[r] {
                let i = (cycle + k) % INPUTS_PER_RES;
                let x = &per_res[i];
                outcome.attempted += 1;
                let t = Instant::now();
                let y = if traced_cycle {
                    tracer
                        .span("models.forward", parent, Some(cycle as u64), || self.net.forward(x))
                        .0
                } else {
                    self.net.forward(x)
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match y {
                    Ok(y) => {
                        outcome.check(y.as_slice() == self.first[r][i].as_slice(), || {
                            format!(
                                "backbone {}²: forward not bitwise equal to the first",
                                LADDER[r]
                            )
                        });
                        if traced_cycle {
                            self.traced_times[r].push(ms);
                        } else {
                            self.times[r].push(ms);
                        }
                    }
                    Err(e) => {
                        outcome.failed += 1;
                        outcome.check(false, || {
                            format!("backbone {}²: forward failed: {e}", LADDER[r])
                        });
                    }
                }
            }
        }
        tracer.close(parent);
    }

    /// The reported forward time per resolution: the mean of the run's
    /// untraced forwards, with the sample count. The host's other tenants
    /// slow every kernel by up to ~40% in phases of seconds, so a run's
    /// forward times fall in two clusters; the median (or any quantile) jumps
    /// between them with the share of the run each phase happened to cover,
    /// while the mean moves in proportion to that share.
    pub fn forward_ms(&self) -> Vec<(usize, f64, usize)> {
        LADDER
            .iter()
            .zip(&self.times)
            .map(|(&res, times)| {
                print_samples(&format!("forward_ms.{res}"), times);
                (res, mean(times), times.len())
            })
            .collect()
    }

    /// Traced-run per-layer numbers (see [`trace_layers`]); returns the
    /// per-op ledger rows.
    pub fn trace(&self, per_layer: &mut Metrics) -> rescnn_models::Result<Vec<String>> {
        pinned(|| {
            trace_layers(
                &self.net,
                &self.inputs,
                &self.times,
                &self.traced_times,
                &self.cold_first_forward_ms,
                &self.build_s,
                per_layer,
            )
        })
    }
}

/// Per-layer numbers for the traced run: the per-op ledger (every conv layer
/// of `arch.conv_layers(res)` timed alone under its `planned_conv_algo`,
/// engine threads = 1), allocation counts, arena peaks, build and
/// first-forward times. Returns the ledger rows as JSON lines.
fn trace_layers(
    net: &Network,
    inputs: &[Vec<Tensor>],
    times: &[Vec<f64>],
    traced_times: &[Vec<f64>],
    cold_first_forward_ms: &[f64],
    builds: &[f64],
    per_layer: &mut Metrics,
) -> rescnn_models::Result<Vec<String>> {
    let arch = ModelKind::ResNet50.arch(NUM_CLASSES);
    let calibration = installed_algo_calibration().map_or(0, |t| t.len());
    println!(
        "# dispatch table: {calibration} calibrated shapes installed (0 = default heuristics)"
    );
    println!("# per-op ledger, engine threads = 1");
    println!("#        res layer   in_c  out_c k s p g   in_hw algo              ms    GMAC/s");
    per_layer.set("models.build_s", median(builds), "s");
    let mut rows = Vec::new();
    for (r, &res) in LADDER.iter().enumerate() {
        let x = &inputs[r][0];
        let before = scratch::heap_allocations();
        net.forward(x)?;
        per_layer.set(
            format!("tensor.heap_allocs.{res}"),
            (scratch::heap_allocations() - before) as f64,
            "count",
        );
        let mut arena = ActivationArena::new();
        net.forward_with_arena(x, &mut arena)?;
        per_layer.set(format!("models.arena_peak_mib.{res}"), mib(arena.peak_live_bytes()), "MiB");
        per_layer.set(format!("models.first_forward_ms.{res}"), cold_first_forward_ms[r], "ms");
        // The whole forward, timed next to its ops so self time compares like
        // with like on a host whose speed drifts.
        let mut forward_now = Vec::with_capacity(OP_REPEATS);
        for _ in 0..OP_REPEATS {
            let t = Instant::now();
            net.forward(x)?;
            forward_now.push(t.elapsed().as_secs_f64() * 1e3);
        }

        let mut ms_by: Vec<f64> = vec![0.0; NAMED_ALGOS.len()];
        let mut macs_by: Vec<f64> = vec![0.0; NAMED_ALGOS.len()];
        let mut calls_by: Vec<f64> = vec![0.0; NAMED_ALGOS.len() + 1];
        let mut conv_total_ms = 0.0;
        for (index, layer) in arch.conv_layers(res)?.iter().enumerate() {
            let p = layer.params;
            let weight = Tensor::random_uniform(
                Shape::new(p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel),
                0.05,
                mix(WEIGHT_SEED, res as u64, index as u64),
            );
            let prepared = PreparedLayer::new(weight, None, p)?;
            let input = Tensor::random_uniform(layer.input, 1.0, mix(res as u64, index as u64, 7));
            let mut out = Tensor::zeros(p.output_shape(layer.input)?);
            let algo = planned_conv_algo(&p, layer.input);
            prepared.forward_with_algo_into(&input, algo, ConvEpilogue::default(), &mut out)?;
            let mut samples = Vec::with_capacity(OP_REPEATS);
            for _ in 0..OP_REPEATS {
                let t = Instant::now();
                prepared.forward_with_algo_into(&input, algo, ConvEpilogue::default(), &mut out)?;
                samples.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let ms = median(&samples);
            let macs = layer.macs() as f64;
            let gmac_per_s = macs / (ms * 1e-3) / 1e9;
            conv_total_ms += ms;
            match NAMED_ALGOS.iter().position(|(a, _)| *a == algo) {
                Some(slot) => {
                    ms_by[slot] += ms;
                    macs_by[slot] += macs;
                    calls_by[slot] += 1.0;
                }
                None => calls_by[NAMED_ALGOS.len()] += 1.0,
            }
            let hw = format!("{}x{}", layer.input.h, layer.input.w);
            let algo_name = format!("{algo:?}");
            println!(
                "# ledger {res:>5} {index:>5} {:>6} {:>6} {} {} {} {} {hw:>7} {algo_name:<13} {ms:>8.3} {gmac_per_s:>9.2}",
                p.in_channels, p.out_channels, p.kernel, p.stride, p.padding, p.groups,
            );
            rows.push(format!(
                "{{\"res\":{res},\"layer\":{index},\"in_c\":{},\"out_c\":{},\"kernel\":{},\"stride\":{},\"pad\":{},\"groups\":{},\"in_hw\":\"{hw}\",\"algo\":\"{algo_name}\",\"ms\":{ms:?},\"gmac_per_s\":{gmac_per_s:?}}}",
                p.in_channels, p.out_channels, p.kernel, p.stride, p.padding, p.groups,
            ));
        }
        for (slot, (_, name)) in NAMED_ALGOS.iter().enumerate() {
            per_layer.set(format!("tensor.conv_ms.{res}.{name}"), ms_by[slot], "ms");
            let gmacs =
                if ms_by[slot] > 0.0 { macs_by[slot] / (ms_by[slot] * 1e-3) / 1e9 } else { 0.0 };
            per_layer.set(format!("tensor.conv_gmacs.{res}.{name}"), gmacs, "GMAC/s");
            per_layer.set(format!("tensor.conv_calls.{res}.{name}"), calls_by[slot], "count");
        }
        per_layer.set(
            format!("tensor.conv_calls.{res}.other"),
            calls_by[NAMED_ALGOS.len()],
            "count",
        );
        per_layer.set(format!("models.self_ms.{res}"), median(&forward_now) - conv_total_ms, "ms");
        if res == 224 {
            let traced = median(&traced_times[r]);
            let untraced = median(&times[r]);
            per_layer.set("trace.overhead_ms.forward_224", traced - untraced, "ms");
        }
    }
    Ok(rows)
}
