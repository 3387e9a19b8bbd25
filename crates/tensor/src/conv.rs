//! 2-D convolution kernels and the resolution-aware dispatch layer.
//!
//! Executable implementations, from slowest to fastest:
//!
//! * [`conv2d_direct`] — a reference seven-loop implementation, used to validate the others.
//! * [`conv2d_tiled`] — an output-tiled direct implementation parameterized by
//!   [`ConvTiling`], used by the benchmark harness to demonstrate (with real wall-clock
//!   measurements) that the best tiling depends on the input resolution, the mechanism
//!   behind the paper's §VI.
//! * [`conv2d_im2col`] — the seed's allocation-heavy im2col + blocked-GEMM lowering, kept
//!   as the measured baseline the engine is compared against.
//! * The **packed engine** ([`conv2d_with_algo`]) — packed, multi-threaded kernels built
//!   on [`engine`](crate::engine): a direct-GEMM fast path for 1×1 stride-1 convolutions
//!   ([`ConvAlgo::Gemm1x1`]), a dedicated shift-and-accumulate depthwise kernel
//!   ([`ConvAlgo::Depthwise`]), a Winograd F(2×2, 3×3) arm for stride-1 dense 3×3
//!   layers ([`ConvAlgo::Winograd`], implemented in [`winograd`](crate::winograd)),
//!   and a packing-aware im2col for everything else ([`ConvAlgo::Im2colPacked`]).
//!
//! The Winograd arm trades multiplies for transforms: ~2.25× fewer MACs than im2col +
//! GEMM on the shapes it supports, bitwise deterministic across thread counts, but —
//! because it legitimately reassociates the arithmetic — only *tolerance*-equal to the
//! other paths. Its contract, pinned by `tests/winograd_parity.rs`, is elementwise
//! agreement with [`ConvAlgo::Im2colPacked`] within `1e-4` at unit-scale activations.
//!
//! [`conv2d`] — the entry point the model zoo uses — routes through [`select_algo`],
//! and [`conv2d_dispatch`] additionally reports which algorithm ran so autotuners and
//! benchmarks can sweep algorithm × tiling per resolution.
//!
//! Default selection is **measurement-aware**: an [`AlgoCalibration`] table — built by
//! `rescnn-hwsim`'s measured tuner from wall-clock sweeps — maps exact layer shapes to
//! their measured-fastest algorithm. A table steers dispatch only inside an
//! [`EngineContext`](crate::EngineContext) that carries it
//! ([`with_calibration`](crate::EngineContext::with_calibration)); [`select_algo`]
//! consults the calling context's table before falling back to the static heuristics.
//! An algorithm pinned in the context
//! ([`with_algo`](crate::EngineContext::with_algo)) takes precedence over
//! calibration.
//!
//! Weights are stored as `O × I/g × K × K` tensors (encoded in the NCHW [`Shape`] as
//! `n = O`, `c = I/g`, `h = w = K`).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::context::EngineContext;
use crate::engine::{self, FusedActivation, NR};
use crate::error::{Result, TensorError};
use crate::gemm::{gemm_blocked, GemmBlocking, MatDims};
use crate::shape::{Conv2dParams, Shape};
use crate::tensor::Tensor;
use crate::winograd::{conv2d_winograd_fused_into, WinogradFilter};
use crate::{parallel, scratch};

/// Validates that a weight tensor matches the convolution parameters.
pub(crate) fn validate_weight(params: &Conv2dParams, weight: &Tensor) -> Result<()> {
    params.validate()?;
    let ws = weight.shape();
    let expected = Shape::new(
        params.out_channels,
        params.in_channels / params.groups,
        params.kernel,
        params.kernel,
    );
    if ws != expected {
        return Err(TensorError::ShapeMismatch {
            left: ws.as_array().to_vec(),
            right: expected.as_array().to_vec(),
            op: "conv2d weight",
        });
    }
    Ok(())
}

pub(crate) fn validate_bias(params: &Conv2dParams, bias: Option<&[f32]>) -> Result<()> {
    if let Some(b) = bias {
        if b.len() != params.out_channels {
            return Err(TensorError::LengthMismatch {
                expected: params.out_channels,
                actual: b.len(),
            });
        }
    }
    Ok(())
}

/// Reference direct convolution.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent with
/// the input shape.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    let mut out = Tensor::zeros(oshape);

    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding as isize;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;

    for n in 0..ishape.n {
        for oc in 0..params.out_channels {
            let group = oc / out_per_group;
            let base = bias.map_or(0.0, |b| b[oc]);
            for oh in 0..oshape.h {
                for ow in 0..oshape.w {
                    let mut acc = base;
                    for icg in 0..in_per_group {
                        let ic = group * in_per_group + icg;
                        for kh in 0..k {
                            let ih = (oh * stride + kh) as isize - pad;
                            if ih < 0 || ih >= ishape.h as isize {
                                continue;
                            }
                            for kw in 0..k {
                                let iw = (ow * stride + kw) as isize - pad;
                                if iw < 0 || iw >= ishape.w as isize {
                                    continue;
                                }
                                acc += input.get(n, ic, ih as usize, iw as usize)
                                    * weight.get(oc, icg, kh, kw);
                            }
                        }
                    }
                    out.set(n, oc, oh, ow, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Lowers one image (batch element) and channel group of the input into a column matrix of
/// shape `(in_per_group * k * k) × (out_h * out_w)`, row-major.
///
/// This is the seed's materializing lowering, kept for the baseline path; the engine
/// uses the packing-aware stripe variant internally instead.
///
/// # Errors
/// Returns an error if the parameters are inconsistent with the input shape.
pub fn im2col(
    input: &Tensor,
    params: &Conv2dParams,
    batch: usize,
    group: usize,
) -> Result<Vec<f32>> {
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    let k = params.kernel;
    let in_per_group = params.in_channels / params.groups;
    let cols = oshape.h * oshape.w;
    let rows = in_per_group * k * k;
    let mut out = vec![0.0_f32; rows * cols];
    let pad = params.padding as isize;

    for icg in 0..in_per_group {
        let ic = group * in_per_group + icg;
        let plane = input.plane(batch, ic);
        for kh in 0..k {
            for kw in 0..k {
                let row = (icg * k + kh) * k + kw;
                let dst = &mut out[row * cols..(row + 1) * cols];
                let mut col = 0;
                for oh in 0..oshape.h {
                    let ih = (oh * params.stride + kh) as isize - pad;
                    if ih < 0 || ih >= ishape.h as isize {
                        col += oshape.w;
                        continue;
                    }
                    let src_row = &plane[ih as usize * ishape.w..(ih as usize + 1) * ishape.w];
                    for ow in 0..oshape.w {
                        let iw = (ow * params.stride + kw) as isize - pad;
                        if iw >= 0 && iw < ishape.w as isize {
                            dst[col] = src_row[iw as usize];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// im2col + blocked GEMM convolution: the seed's default execution path, preserved as
/// the baseline that the packed engine's speedups are measured against.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent with
/// the input shape.
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    let mut out = Tensor::zeros(oshape);

    let k = params.kernel;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;
    let cols = oshape.h * oshape.w;
    let rows = in_per_group * k * k;
    let dims = MatDims::new(out_per_group, cols, rows);

    for n in 0..ishape.n {
        for g in 0..params.groups {
            let col_matrix = im2col(input, params, n, g)?;
            // Weight slice for this group, already contiguous: rows of length `rows`.
            let wstart = g * out_per_group * rows;
            let wslice = &weight.as_slice()[wstart..wstart + out_per_group * rows];
            let mut gemm_out = vec![0.0_f32; out_per_group * cols];
            gemm_blocked(dims, GemmBlocking::default(), wslice, &col_matrix, &mut gemm_out);
            for ocg in 0..out_per_group {
                let oc = g * out_per_group + ocg;
                let base = bias.map_or(0.0, |b| b[oc]);
                let dst = out.plane_mut(n, oc);
                let src = &gemm_out[ocg * cols..(ocg + 1) * cols];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + base;
                }
            }
        }
    }
    Ok(out)
}

/// Loop tiling configuration for [`conv2d_tiled`].
///
/// The tiled implementation iterates output channels in blocks of `oc_tile` and output rows
/// in blocks of `oh_tile`, keeping the corresponding weight slice and input rows hot in
/// cache. Different resolutions favour different tile shapes — the effect the paper's
/// autotuning exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvTiling {
    /// Output-channel block size.
    pub oc_tile: usize,
    /// Output-row block size.
    pub oh_tile: usize,
    /// Output-column block size.
    pub ow_tile: usize,
}

impl Default for ConvTiling {
    fn default() -> Self {
        ConvTiling { oc_tile: 16, oh_tile: 8, ow_tile: 64 }
    }
}

impl ConvTiling {
    /// Creates a tiling configuration, clamping zero extents to one.
    pub fn new(oc_tile: usize, oh_tile: usize, ow_tile: usize) -> Self {
        ConvTiling { oc_tile: oc_tile.max(1), oh_tile: oh_tile.max(1), ow_tile: ow_tile.max(1) }
    }
}

/// Output-tiled direct convolution (dense groups only; grouped inputs fall back to the
/// reference path).
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent with
/// the input shape.
pub fn conv2d_tiled(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    tiling: ConvTiling,
) -> Result<Tensor> {
    if params.groups != 1 {
        return conv2d_direct(input, weight, bias, params);
    }
    validate_weight(params, weight)?;
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = params.output_shape(ishape)?;
    let mut out = Tensor::zeros(oshape);
    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding as isize;
    let wdata = weight.as_slice();
    let ksq = k * k;
    let wrow = params.in_channels * ksq;

    for n in 0..ishape.n {
        let mut oc0 = 0;
        while oc0 < params.out_channels {
            let oc1 = (oc0 + tiling.oc_tile).min(params.out_channels);
            let mut oh0 = 0;
            while oh0 < oshape.h {
                let oh1 = (oh0 + tiling.oh_tile).min(oshape.h);
                let mut ow0 = 0;
                while ow0 < oshape.w {
                    let ow1 = (ow0 + tiling.ow_tile).min(oshape.w);
                    for oc in oc0..oc1 {
                        let base = bias.map_or(0.0, |b| b[oc]);
                        let wslice = &wdata[oc * wrow..(oc + 1) * wrow];
                        for oh in oh0..oh1 {
                            for ow in ow0..ow1 {
                                let mut acc = base;
                                for ic in 0..params.in_channels {
                                    let plane = input.plane(n, ic);
                                    let wk = &wslice[ic * ksq..(ic + 1) * ksq];
                                    for kh in 0..k {
                                        let ih = (oh * stride + kh) as isize - pad;
                                        if ih < 0 || ih >= ishape.h as isize {
                                            continue;
                                        }
                                        let irow = &plane
                                            [ih as usize * ishape.w..(ih as usize + 1) * ishape.w];
                                        let wkr = &wk[kh * k..(kh + 1) * k];
                                        for (kw, &wv) in wkr.iter().enumerate() {
                                            let iw = (ow * stride + kw) as isize - pad;
                                            if iw >= 0 && iw < ishape.w as isize {
                                                acc += irow[iw as usize] * wv;
                                            }
                                        }
                                    }
                                }
                                out.set(n, oc, oh, ow, acc);
                            }
                        }
                    }
                    ow0 = ow1;
                }
                oh0 = oh1;
            }
            oc0 = oc1;
        }
    }
    Ok(out)
}

/// Identifies one executable convolution algorithm.
///
/// [`select_algo`] picks among the engine paths; the legacy paths stay addressable so
/// autotuners and benchmarks can sweep every implementation at every resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvAlgo {
    /// Reference seven-loop kernel.
    Direct,
    /// Seed baseline: materializing im2col + cache-blocked GEMM, one allocation per call.
    Im2col,
    /// Engine: packing-aware im2col stripes + packed parallel GEMM.
    Im2colPacked,
    /// Engine: direct GEMM over the input planes for 1×1 stride-1 pad-0 convolutions
    /// (no im2col materialization at all).
    Gemm1x1,
    /// Engine: dedicated shift-and-accumulate depthwise kernel.
    Depthwise,
    /// Engine: Winograd F(2×2, 3×3) minimal-filtering convolution for stride-1 dense
    /// 3×3 layers (~2.25× fewer multiplies than im2col + GEMM). Bitwise deterministic
    /// across thread counts; agrees with [`ConvAlgo::Im2colPacked`] elementwise within
    /// `1e-4` at unit-scale activations (it reassociates arithmetic, so bitwise
    /// equality with the GEMM paths is not part of the contract). See
    /// [`winograd`](crate::winograd).
    Winograd,
    /// Engine: Winograd F(4×4, 3×3) — the α=6 minimal-filtering variant (~4× fewer
    /// multiplies than im2col + GEMM, ~1.78× fewer than F(2×2)). Same eligibility and
    /// determinism contract as [`ConvAlgo::Winograd`], but the larger transform
    /// stencils loosen the elementwise agreement with [`ConvAlgo::Im2colPacked`] to
    /// [`WINOGRAD_F4_TOLERANCE`](crate::winograd::WINOGRAD_F4_TOLERANCE) at unit
    /// scale — calibration sweeps gate it per shape on the measured unit error.
    WinogradF4,
    /// Engine: int8-quantized u8×i8 GEMM for dense (groups == 1) layers —
    /// per-output-channel symmetric weight scales folded at prepack time,
    /// per-tensor asymmetric activation quantization, i32 accumulation with a
    /// fused f32 dequant + epilogue writeback (VNNI / `vpmaddubsw` / portable
    /// kernel tiers, all bitwise interchangeable). Quantization is an
    /// *approximation*, so this arm is never a heuristic default: dispatch
    /// reaches it only through an installed calibration table (gated per shape
    /// on [`int8_unit_error`](crate::quant::int8_unit_error) against
    /// [`INT8_TOLERANCE`](crate::quant::INT8_TOLERANCE), plus the serving
    /// layer's end-to-end accuracy budget) or an explicit override. See
    /// [`quant`](crate::quant).
    Int8,
}

impl ConvAlgo {
    /// Every algorithm, in sweep order.
    pub const ALL: [ConvAlgo; 8] = [
        ConvAlgo::Direct,
        ConvAlgo::Im2col,
        ConvAlgo::Im2colPacked,
        ConvAlgo::Gemm1x1,
        ConvAlgo::Depthwise,
        ConvAlgo::Winograd,
        ConvAlgo::WinogradF4,
        ConvAlgo::Int8,
    ];

    /// Whether this algorithm can execute the given convolution shape.
    pub fn supports(self, params: &Conv2dParams) -> bool {
        match self {
            ConvAlgo::Direct | ConvAlgo::Im2col | ConvAlgo::Im2colPacked => true,
            ConvAlgo::Gemm1x1 => params.kernel == 1 && params.stride == 1 && params.padding == 0,
            ConvAlgo::Depthwise => {
                params.groups == params.in_channels && params.in_channels == params.out_channels
            }
            ConvAlgo::Winograd | ConvAlgo::WinogradF4 => {
                params.kernel == 3 && params.stride == 1 && params.groups == 1
            }
            ConvAlgo::Int8 => params.groups == 1,
        }
    }

    /// Parses the [`Display`](std::fmt::Display) name back into an algorithm —
    /// the inverse used by on-disk calibration tables.
    pub fn from_name(name: &str) -> Option<ConvAlgo> {
        ConvAlgo::ALL.iter().copied().find(|algo| algo.to_string() == name)
    }
}

impl std::fmt::Display for ConvAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ConvAlgo::Direct => "direct",
            ConvAlgo::Im2col => "im2col",
            ConvAlgo::Im2colPacked => "im2col_packed",
            ConvAlgo::Gemm1x1 => "gemm_1x1",
            ConvAlgo::Depthwise => "depthwise",
            ConvAlgo::Winograd => "winograd",
            ConvAlgo::WinogradF4 => "winograd_f4",
            ConvAlgo::Int8 => "int8_packed",
        };
        f.write_str(name)
    }
}

/// Identifies one convolution workload for calibrated dispatch: the convolution
/// parameters plus the input's spatial extent. The batch size is deliberately not
/// part of the key — per-element algorithm preference is a property of the layer
/// shape, and sweeps measure at batch 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShapeKey {
    /// Convolution parameters of the layer.
    pub params: Conv2dParams,
    /// Input spatial height.
    pub height: usize,
    /// Input spatial width.
    pub width: usize,
}

impl ConvShapeKey {
    /// Builds the key for a convolution applied to `input`.
    pub fn new(params: Conv2dParams, input: Shape) -> Self {
        ConvShapeKey { params, height: input.h, width: input.w }
    }
}

/// A measurement-derived dispatch table: for each exact layer shape, the algorithm
/// that was measured fastest on this host.
///
/// Built by `rescnn-hwsim`'s calibrated cost model from `MeasuredTuner` sweeps
/// (and persistable to disk there, so serving starts warm), then carried by an
/// [`EngineContext`](crate::EngineContext)
/// ([`with_calibration`](crate::EngineContext::with_calibration)).
/// [`select_algo`] consults the calling context's table before its static
/// heuristics; a pinned algorithm still wins, and entries whose algorithm cannot
/// execute the shape are ignored defensively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlgoCalibration {
    choices: HashMap<ConvShapeKey, ConvAlgo>,
}

impl AlgoCalibration {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the preferred algorithm for one layer shape (replacing any earlier
    /// entry for the same shape).
    pub fn set(&mut self, key: ConvShapeKey, algo: ConvAlgo) {
        self.choices.insert(key, algo);
    }

    /// The calibrated algorithm for a layer shape, if one was recorded.
    pub fn get(&self, key: &ConvShapeKey) -> Option<ConvAlgo> {
        self.choices.get(key).copied()
    }

    /// Number of calibrated shapes.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Iterates over every calibrated `(shape, algorithm)` pair (unspecified order;
    /// persistence layers sort by key fields for stable output).
    pub fn entries(&self) -> impl Iterator<Item = (&ConvShapeKey, ConvAlgo)> {
        self.choices.iter().map(|(key, &algo)| (key, algo))
    }
}

/// The calling context's calibration table, if any (`None` under default
/// dispatch).
pub fn installed_algo_calibration() -> Option<Arc<AlgoCalibration>> {
    EngineContext::with_current(|context| context.calibration().cloned())
}

/// The calibrated algorithm for `(params, input)` when the calling context
/// carries a table, the entry exists, and its algorithm can actually execute
/// the shape.
fn calibrated_algo(params: &Conv2dParams, input: Shape) -> Option<ConvAlgo> {
    let key = ConvShapeKey::new(*params, input);
    let algo =
        EngineContext::with_current(|context| context.calibration().and_then(|t| t.get(&key)))?;
    algo.supports(params).then_some(algo)
}

/// Chooses the engine algorithm for a convolution shape.
///
/// Dispatch rules, in priority order:
/// 1. An entry for this exact shape in the calling context's [`AlgoCalibration`]
///    table — the algorithm wall-clock sweeps measured fastest on this host — wins
///    (when it can execute the shape).
/// 2. 1×1 stride-1 pad-0 convolutions (the majority of ResNet-50 layers) skip im2col
///    entirely — the input planes already are the GEMM right-hand side.
/// 3. Depthwise convolutions (`groups == in == out`, the MobileNetV2 workhorse) run the
///    dedicated shift-and-accumulate kernel; lowering them to GEMM would spend
///    `k²`-fold more memory traffic for rank-1 matrix products.
/// 4. Everything else runs packing-aware im2col stripes + packed GEMM, with stripe
///    heights sized from the output resolution so packed panels stay cache-resident.
///    ([`ConvAlgo::Winograd`] is never a *heuristic* default: whether its transform
///    overhead pays off is shape- and host-dependent, which is exactly what the
///    calibration table measures.)
pub fn select_algo(params: &Conv2dParams, input: Shape) -> ConvAlgo {
    if let Some(algo) = calibrated_algo(params, input) {
        return algo;
    }
    if ConvAlgo::Gemm1x1.supports(params) {
        ConvAlgo::Gemm1x1
    } else if ConvAlgo::Depthwise.supports(params) {
        ConvAlgo::Depthwise
    } else {
        ConvAlgo::Im2colPacked
    }
}

/// Runs a convolution with an explicit algorithm. Shapes the algorithm does not
/// support fall back to [`ConvAlgo::Im2colPacked`] (which handles every shape), so
/// sweeps never have to special-case eligibility.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent
/// with the input shape.
pub fn conv2d_with_algo(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    algo: ConvAlgo,
) -> Result<Tensor> {
    let algo = if algo.supports(params) { algo } else { ConvAlgo::Im2colPacked };
    match algo {
        ConvAlgo::Direct => conv2d_direct(input, weight, bias, params),
        ConvAlgo::Im2col => conv2d_im2col(input, weight, bias, params),
        ConvAlgo::Im2colPacked => conv2d_im2col_packed(input, weight, bias, params),
        ConvAlgo::Gemm1x1 => conv2d_gemm_1x1(input, weight, bias, params),
        ConvAlgo::Depthwise => conv2d_depthwise(input, weight, bias, params),
        ConvAlgo::Winograd => crate::winograd::conv2d_winograd(input, weight, bias, params),
        ConvAlgo::WinogradF4 => crate::winograd::conv2d_winograd_f4(input, weight, bias, params),
        ConvAlgo::Int8 => crate::quant::conv2d_int8(input, weight, bias, params),
    }
}

/// The algorithm [`conv2d_dispatch`] would run for `(params, input)` in the
/// calling context: the algorithm the context pins
/// ([`EngineContext::with_algo`](crate::EngineContext::with_algo)) when it supports
/// the shape, else the calibrated/heuristic [`select_algo`] choice.
///
/// Exposed so callers that keep per-algorithm cached state (e.g. the model zoo's
/// cached Winograd filter transforms) can see the decision without running the
/// convolution.
pub fn planned_conv_algo(params: &Conv2dParams, input: Shape) -> ConvAlgo {
    match EngineContext::with_current(EngineContext::algo) {
        Some(forced) if forced.supports(params) => forced,
        _ => select_algo(params, input),
    }
}

/// Runs a convolution through the dispatch layer, reporting which algorithm executed.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent
/// with the input shape.
pub fn conv2d_dispatch(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<(Tensor, ConvAlgo)> {
    let algo = planned_conv_algo(params, input.shape());
    conv2d_with_algo(input, weight, bias, params, algo).map(|out| (out, algo))
}

/// Default convolution entry point: resolution-aware dispatch into the packed engine.
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent with
/// the input shape.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    conv2d_dispatch(input, weight, bias, params).map(|(out, _)| out)
}

/// A convolution layer prepared once for the serving hot path: weights prepacked
/// into GEMM panel layout per channel group ([`engine::PreparedGemmA`]), the
/// bias captured, and — for Winograd-eligible layers — the transformed filter
/// bank cached (lazily, the first time dispatch actually picks
/// [`ConvAlgo::Winograd`]).
///
/// A `PreparedLayer` forward skips every per-call weight-packing pass and can
/// fuse the block tail ([`ConvEpilogue`]: residual add + activation) into the
/// kernel's output write. Both transformations are pure data movement /
/// reassociation-free, so prepared forwards are **bitwise identical** to the
/// unprepared `conv2d_with_algo` path per algorithm (pinned by
/// `tests/prepacked_parity.rs`).
///
/// The raw weights are retained for the fallback algorithms
/// ([`ConvAlgo::Direct`], [`ConvAlgo::Im2col`]) and the Winograd filter
/// transform, so memory cost is roughly 2× the weights for GEMM-dispatched
/// layers.
#[derive(Debug, Clone)]
pub struct PreparedLayer {
    params: Conv2dParams,
    weight: Tensor,
    bias: Option<Vec<f32>>,
    /// Per-group prepacked GEMM left operands (`out_per_group` rows over
    /// `in_per_group * k * k`), shared by the 1×1 and packed-im2col paths.
    gemm: Vec<engine::PreparedGemmA>,
    /// Lazily-built Winograd F(2×2) filter transform (eligible layers only).
    winograd: OnceLock<WinogradFilter>,
    /// Lazily-built Winograd F(4×4) filter transform (eligible layers only).
    winograd_f4: OnceLock<WinogradFilter>,
    /// Lazily-built int8-quantized weight panels (dense layers only), so
    /// deployments that never enable the int8 arm pay nothing for it.
    int8: OnceLock<crate::quant::QuantizedConv>,
    /// Calibration-recorded activation range for the int8 path; absent ranges
    /// fall back to a dynamic per-call min/max scan.
    int8_range: Option<(f32, f32)>,
}

impl PreparedLayer {
    /// Prepares a layer: validates the shapes and prepacks the per-group weight
    /// panels.
    ///
    /// # Errors
    /// Returns an error if the weight shape or bias length are inconsistent
    /// with the parameters.
    pub fn new(weight: Tensor, bias: Option<Vec<f32>>, params: Conv2dParams) -> Result<Self> {
        validate_weight(&params, &weight)?;
        validate_bias(&params, bias.as_deref())?;
        let k = params.kernel;
        let in_per_group = params.in_channels / params.groups;
        let out_per_group = params.out_channels / params.groups;
        let rows = in_per_group * k * k;
        let wdata = weight.as_slice();
        // Depthwise-dispatched layers never consume GEMM panels (their kernel
        // reads raw weights, and MR-padding 1-row groups would cost ~6× the
        // weight memory); an explicit GEMM-algo override on such a layer falls
        // back to on-the-fly packing instead.
        let gemm = if ConvAlgo::Depthwise.supports(&params) {
            Vec::new()
        } else {
            (0..params.groups)
                .map(|g| {
                    let wslice = &wdata[g * out_per_group * rows..(g + 1) * out_per_group * rows];
                    engine::PreparedGemmA::prepare(wslice, rows, out_per_group, rows)
                })
                .collect()
        };
        Ok(PreparedLayer {
            params,
            weight,
            bias,
            gemm,
            winograd: OnceLock::new(),
            winograd_f4: OnceLock::new(),
            int8: OnceLock::new(),
            int8_range: None,
        })
    }

    /// The layer's convolution parameters.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// The raw (unpacked) weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The per-channel bias, if any.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// The prepacked dense (single-group) GEMM left operand, if this layer
    /// carries packed panels. Used by the chain executor's pointwise consumer.
    pub(crate) fn dense_gemm_lhs(&self) -> Option<engine::GemmLhs<'_>> {
        if self.params.groups == 1 {
            self.gemm.first().map(engine::PreparedGemmA::as_lhs)
        } else {
            None
        }
    }

    /// The cached Winograd filter transform, building it on first use.
    ///
    /// # Errors
    /// Returns an error if the layer is not Winograd-eligible.
    pub fn winograd_filter(&self) -> Result<&WinogradFilter> {
        if !ConvAlgo::Winograd.supports(&self.params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.params.kernel, self.params.stride, self.params.groups],
                right: vec![3, 1, 1],
                op: "winograd requires kernel=3 stride=1 groups=1",
            });
        }
        Ok(self.winograd.get_or_init(|| {
            WinogradFilter::prepare(&self.weight, &self.params).expect("eligibility checked above")
        }))
    }

    /// The cached Winograd F(4×4, 3×3) filter transform, building it on first
    /// use.
    ///
    /// # Errors
    /// Returns an error if the layer is not Winograd-eligible.
    pub fn winograd_filter_f4(&self) -> Result<&WinogradFilter> {
        if !ConvAlgo::WinogradF4.supports(&self.params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.params.kernel, self.params.stride, self.params.groups],
                right: vec![3, 1, 1],
                op: "winograd_f4 requires kernel=3 stride=1 groups=1",
            });
        }
        Ok(self.winograd_f4.get_or_init(|| {
            WinogradFilter::prepare_f4(&self.weight, &self.params)
                .expect("eligibility checked above")
        }))
    }

    /// The cached int8-quantized weight panels, quantizing on first use.
    ///
    /// # Errors
    /// Returns an error if the layer is not int8-eligible (grouped).
    pub fn int8_weights(&self) -> Result<&crate::quant::QuantizedConv> {
        if !ConvAlgo::Int8.supports(&self.params) {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.params.groups],
                right: vec![1],
                op: "int8 conv requires groups=1",
            });
        }
        Ok(self.int8.get_or_init(|| {
            crate::quant::QuantizedConv::prepare(&self.weight, &self.params)
                .expect("eligibility checked above")
        }))
    }

    /// Records the calibration-observed activation range consumed by the int8
    /// path (see `Network::calibrate_int8_ranges` in `rescnn-models`). Without
    /// it, int8 forwards derive the range from each input dynamically.
    pub fn set_int8_range(&mut self, lo: f32, hi: f32) {
        self.int8_range = Some((lo, hi));
    }

    /// The recorded int8 activation range, if calibration ran.
    pub fn int8_range(&self) -> Option<(f32, f32)> {
        self.int8_range
    }

    /// Bytes resident beyond the raw weights (packed panels + any cached
    /// Winograd banks or int8 panels).
    pub fn prepacked_bytes(&self) -> usize {
        self.gemm.iter().map(engine::PreparedGemmA::resident_bytes).sum::<usize>()
            + self.winograd.get().map_or(0, WinogradFilter::resident_bytes)
            + self.winograd_f4.get().map_or(0, WinogradFilter::resident_bytes)
            + self.int8.get().map_or(0, crate::quant::QuantizedConv::resident_bytes)
    }

    /// Runs the layer through dispatch with a fused epilogue, writing into a
    /// caller-provided output tensor (every element of which is overwritten —
    /// arena-recycled buffers with stale contents are fine). Returns the
    /// algorithm that executed.
    ///
    /// # Errors
    /// Returns an error if the input, output, or residual shapes are
    /// inconsistent with the layer.
    pub fn forward_fused_into(
        &self,
        input: &Tensor,
        epilogue: ConvEpilogue<'_>,
        out: &mut Tensor,
    ) -> Result<ConvAlgo> {
        let algo = planned_conv_algo(&self.params, input.shape());
        self.forward_with_algo_into(input, algo, epilogue, out)?;
        Ok(algo)
    }

    /// Runs the layer with an explicit algorithm (shapes the algorithm cannot
    /// execute fall back to [`ConvAlgo::Im2colPacked`], mirroring
    /// [`conv2d_with_algo`]), writing into `out` with the fused epilogue.
    ///
    /// The engine algorithms run fully prepacked and fused; the reference
    /// algorithms ([`ConvAlgo::Direct`], [`ConvAlgo::Im2col`]) execute their
    /// historical allocating path followed by separate epilogue passes —
    /// semantically (and bitwise) the same composition.
    ///
    /// # Errors
    /// Returns an error if the input, output, or residual shapes are
    /// inconsistent with the layer.
    pub fn forward_with_algo_into(
        &self,
        input: &Tensor,
        algo: ConvAlgo,
        epilogue: ConvEpilogue<'_>,
        out: &mut Tensor,
    ) -> Result<()> {
        let algo = if algo.supports(&self.params) { algo } else { ConvAlgo::Im2colPacked };
        let bias = self.bias.as_deref();
        // Layers whose default dispatch never hits a GEMM path carry no panels;
        // an explicit GEMM-algo override packs on the fly from the raw weights.
        let gemm_weights = if self.gemm.is_empty() {
            ConvWeights::Raw(self.weight.as_slice())
        } else {
            ConvWeights::Packed(&self.gemm)
        };
        match algo {
            ConvAlgo::Im2colPacked => {
                im2col_packed_into(input, gemm_weights, bias, &self.params, epilogue, out)
            }
            ConvAlgo::Gemm1x1 => {
                gemm_1x1_into(input, gemm_weights, bias, &self.params, epilogue, out)
            }
            ConvAlgo::Depthwise => {
                depthwise_into(input, self.weight.as_slice(), bias, &self.params, epilogue, out)
            }
            ConvAlgo::Winograd => {
                let filter = self.winograd_filter()?;
                conv2d_winograd_fused_into(
                    input,
                    filter,
                    bias,
                    &self.params,
                    epilogue.activation,
                    epilogue.residual,
                    out,
                )
            }
            ConvAlgo::WinogradF4 => {
                let filter = self.winograd_filter_f4()?;
                crate::winograd::conv2d_winograd_f4_fused_into(
                    input,
                    filter,
                    bias,
                    &self.params,
                    epilogue.activation,
                    epilogue.residual,
                    out,
                )
            }
            ConvAlgo::Int8 => {
                let qconv = self.int8_weights()?;
                crate::quant::int8_packed_into(
                    input,
                    qconv,
                    bias,
                    &self.params,
                    epilogue,
                    self.int8_range,
                    out,
                )
            }
            ConvAlgo::Direct | ConvAlgo::Im2col => {
                let oshape = validate_into(&self.params, input, &epilogue, out)?;
                let tmp = if algo == ConvAlgo::Direct {
                    conv2d_direct(input, &self.weight, bias, &self.params)?
                } else {
                    conv2d_im2col(input, &self.weight, bias, &self.params)?
                };
                debug_assert_eq!(tmp.shape(), oshape);
                out.as_mut_slice().copy_from_slice(tmp.as_slice());
                apply_epilogue_separately(out, &epilogue);
                Ok(())
            }
        }
    }

    /// Runs the layer through dispatch with a fused epilogue, allocating the
    /// output.
    ///
    /// # Errors
    /// See [`PreparedLayer::forward_fused_into`].
    pub fn forward_fused(&self, input: &Tensor, epilogue: ConvEpilogue<'_>) -> Result<Tensor> {
        let mut out = Tensor::zeros(self.params.output_shape(input.shape())?);
        self.forward_fused_into(input, epilogue, &mut out)?;
        Ok(out)
    }

    /// Plain prepared forward: dispatch, no fused tail.
    ///
    /// # Errors
    /// See [`PreparedLayer::forward_fused_into`].
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_fused(input, ConvEpilogue::default())
    }
}

/// The unfused composition of a [`ConvEpilogue`]: separate residual-add and
/// activation passes over the finished convolution output. Used by the
/// reference algorithms; bitwise identical to the fused kernels' epilogues.
fn apply_epilogue_separately(out: &mut Tensor, epilogue: &ConvEpilogue<'_>) {
    match (epilogue.residual, epilogue.activation) {
        (None, FusedActivation::None) => {}
        (Some(skip), act) => {
            for (o, &s) in out.as_mut_slice().iter_mut().zip(skip.as_slice()) {
                *o = act.apply(*o + s);
            }
        }
        (None, act) => {
            for o in out.as_mut_slice().iter_mut() {
                *o = act.apply(*o);
            }
        }
    }
}

/// Valid output range `[lo, hi)` along one spatial axis for a fixed kernel offset:
/// the positions whose sampled input index lands inside `[0, input_extent)`.
pub(crate) fn valid_out_range(
    input_extent: usize,
    out_extent: usize,
    kernel_offset: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    let lo = if kernel_offset >= padding { 0 } else { (padding - kernel_offset).div_ceil(stride) };
    let last_valid = input_extent - 1 + padding;
    if last_valid < kernel_offset {
        return (0, 0);
    }
    let hi = ((last_valid - kernel_offset) / stride + 1).min(out_extent);
    (lo.min(hi), hi)
}

/// Packs an im2col stripe (output rows `[oh0, oh1)`) directly into the engine's
/// `NR`-column panel layout, skipping the intermediate row-major column matrix
/// entirely. `dst` must arrive zeroed (padding positions are never written).
#[allow(clippy::too_many_arguments)]
fn im2col_pack_stripe(
    input: &Tensor,
    params: &Conv2dParams,
    batch: usize,
    group: usize,
    oshape: Shape,
    oh0: usize,
    oh1: usize,
    dst: &mut [f32],
) {
    let ishape = input.shape();
    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding;
    let in_per_group = params.in_channels / params.groups;
    let rows = in_per_group * k * k;
    let panel_stride = rows * NR;

    for icg in 0..in_per_group {
        let plane = input.plane(batch, group * in_per_group + icg);
        for kh in 0..k {
            let (oh_lo, oh_hi) = valid_out_range(ishape.h, oshape.h, kh, stride, pad);
            for kw in 0..k {
                let row = (icg * k + kh) * k + kw;
                let (ow_lo, ow_hi) = valid_out_range(ishape.w, oshape.w, kw, stride, pad);
                if ow_lo >= ow_hi {
                    continue;
                }
                for oh in oh_lo.max(oh0)..oh_hi.min(oh1) {
                    let ih = oh * stride + kh - pad;
                    let src_row = &plane[ih * ishape.w..(ih + 1) * ishape.w];
                    let j0 = (oh - oh0) * oshape.w + ow_lo;
                    let mut within = j0 % NR;
                    let mut index = (j0 / NR) * panel_stride + row * NR + within;
                    if stride == 1 {
                        // Contiguous source: copy in panel-aligned runs instead of
                        // scattering element by element.
                        let mut iw = ow_lo + kw - pad;
                        let mut remaining = ow_hi - ow_lo;
                        while remaining > 0 {
                            let run = (NR - within).min(remaining);
                            dst[index..index + run].copy_from_slice(&src_row[iw..iw + run]);
                            iw += run;
                            remaining -= run;
                            index += run + if within + run == NR { panel_stride - NR } else { 0 };
                            within = (within + run) % NR;
                        }
                    } else {
                        let mut iw = ow_lo * stride + kw - pad;
                        for _ in ow_lo..ow_hi {
                            dst[index] = src_row[iw];
                            iw += stride;
                            within += 1;
                            index += 1;
                            if within == NR {
                                within = 0;
                                index += panel_stride - NR;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Output-row stripe height keeping one packed im2col stripe within the engine's
/// scratch budget (resolution-aware: taller stripes at low resolution, shorter at
/// high resolution).
pub(crate) fn stripe_height(rows: usize, oshape: Shape) -> usize {
    (engine::MAX_B_PANEL_ELEMS / (rows * oshape.w).max(1)).clamp(1, oshape.h)
}

/// The weight operand of an engine GEMM convolution: raw row-major weights
/// (packed into panels per call) or per-group panels prepacked once by
/// [`PreparedLayer`].
#[derive(Debug, Clone, Copy)]
enum ConvWeights<'a> {
    Raw(&'a [f32]),
    Packed(&'a [engine::PreparedGemmA]),
}

impl<'a> ConvWeights<'a> {
    /// The GEMM left operand for one channel group (`rows_per_group` output
    /// rows over a shared dimension of `k`).
    fn group_lhs(&self, group: usize, rows_per_group: usize, k: usize) -> engine::GemmLhs<'a> {
        match *self {
            ConvWeights::Raw(data) => engine::GemmLhs::Rows {
                data: &data[group * rows_per_group * k..(group + 1) * rows_per_group * k],
                lda: k,
            },
            ConvWeights::Packed(groups) => groups[group].as_lhs(),
        }
    }
}

/// The fused tail of a convolution: an optional residual operand added to the
/// output and a pointwise activation, executed inside the kernel's output write
/// (GEMM epilogue, Winograd output transform, or the depthwise kernel's final
/// plane sweep) instead of separate passes over the feature map.
///
/// Fusion order matches the separate-pass composition (`act(conv + residual)`)
/// exactly, so fused and unfused execution are bitwise identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Activation applied to the final value.
    pub activation: FusedActivation,
    /// Residual operand (must match the output shape) added before the
    /// activation — the ResNet block tail.
    pub residual: Option<&'a Tensor>,
}

impl<'a> ConvEpilogue<'a> {
    /// An epilogue applying only an activation.
    pub fn activation(activation: FusedActivation) -> Self {
        ConvEpilogue { activation, residual: None }
    }

    /// Adds a residual operand.
    pub fn with_residual(mut self, residual: &'a Tensor) -> Self {
        self.residual = Some(residual);
        self
    }
}

/// Validates an `_into` call's output (and optional residual) tensor against the
/// convolution's output shape, returning that shape.
pub(crate) fn validate_into(
    params: &Conv2dParams,
    input: &Tensor,
    epilogue: &ConvEpilogue<'_>,
    out: &Tensor,
) -> Result<Shape> {
    let oshape = params.output_shape(input.shape())?;
    if out.shape() != oshape {
        return Err(TensorError::ShapeMismatch {
            left: out.shape().as_array().to_vec(),
            right: oshape.as_array().to_vec(),
            op: "conv output buffer",
        });
    }
    if let Some(residual) = epilogue.residual {
        if residual.shape() != oshape {
            return Err(TensorError::ShapeMismatch {
                left: residual.shape().as_array().to_vec(),
                right: oshape.as_array().to_vec(),
                op: "conv residual",
            });
        }
    }
    Ok(oshape)
}

/// Engine path for general convolutions: packing-aware im2col stripes + packed
/// parallel GEMM, with zero steady-state allocations (all working memory comes from
/// the thread-local scratch arena).
///
/// # Errors
/// Returns an error if the parameters, weight shape, or bias length are inconsistent
/// with the input shape.
pub fn conv2d_im2col_packed(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    im2col_packed_into(
        input,
        ConvWeights::Raw(weight.as_slice()),
        bias,
        params,
        ConvEpilogue::default(),
        &mut out,
    )?;
    Ok(out)
}

/// Core of the packed-im2col path; every element of `out` is overwritten.
fn im2col_packed_into(
    input: &Tensor,
    weights: ConvWeights<'_>,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut Tensor,
) -> Result<()> {
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = validate_into(params, input, &epilogue, out)?;

    let k = params.kernel;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;
    let rows = in_per_group * k * k;
    let plane = oshape.h * oshape.w;
    let region_len = out_per_group * plane;
    let stripe_oh = stripe_height(rows, oshape);
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(Tensor::as_slice);
    let out_data = out.as_mut_slice();
    for n in 0..ishape.n {
        for g in 0..params.groups {
            let lhs = weights.group_lhs(g, out_per_group, rows);
            let group_bias = bias.map(|b| &b[g * out_per_group..(g + 1) * out_per_group]);
            let region_start = (n * params.groups + g) * region_len;
            let region = &mut out_data[region_start..region_start + region_len];
            let group_skip = residual.map(|s| &s[region_start..region_start + region_len]);
            let mut oh0 = 0;
            while oh0 < oshape.h {
                let oh1 = (oh0 + stripe_oh).min(oshape.h);
                let stripe_cols = (oh1 - oh0) * oshape.w;
                let mut bpack = scratch::take(stripe_cols.div_ceil(NR) * rows * NR);
                im2col_pack_stripe(input, params, n, g, oshape, oh0, oh1, &mut bpack);
                engine::parallel_packed_gemm(
                    lhs,
                    out_per_group,
                    rows,
                    &bpack,
                    stripe_cols,
                    region,
                    plane,
                    oh0 * oshape.w,
                    engine::Epilogue {
                        bias: group_bias,
                        residual: group_skip,
                        activation: epilogue.activation,
                    },
                    false,
                    parallel,
                );
                scratch::give(bpack);
                oh0 = oh1;
            }
        }
    }
    Ok(())
}

/// Engine fast path for 1×1 stride-1 pad-0 convolutions: the input planes of each
/// group already form the GEMM right-hand side, so the convolution is a single packed
/// GEMM per (batch, group) with no lowering step at all.
///
/// # Errors
/// Returns an error if the shape is not a 1×1 stride-1 pad-0 convolution, or if the
/// parameters, weight shape, or bias length are inconsistent with the input shape.
pub fn conv2d_gemm_1x1(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    gemm_1x1_into(
        input,
        ConvWeights::Raw(weight.as_slice()),
        bias,
        params,
        ConvEpilogue::default(),
        &mut out,
    )?;
    Ok(out)
}

/// Core of the 1×1 fast path; every element of `out` is overwritten.
fn gemm_1x1_into(
    input: &Tensor,
    weights: ConvWeights<'_>,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut Tensor,
) -> Result<()> {
    if !ConvAlgo::Gemm1x1.supports(params) {
        return Err(TensorError::ShapeMismatch {
            left: vec![params.kernel, params.stride, params.padding],
            right: vec![1, 1, 0],
            op: "conv2d_gemm_1x1 requires kernel=1 stride=1 padding=0",
        });
    }
    validate_bias(params, bias)?;
    let ishape = input.shape();
    validate_into(params, input, &epilogue, out)?;

    let hw = ishape.h * ishape.w;
    let in_per_group = params.in_channels / params.groups;
    let out_per_group = params.out_channels / params.groups;
    // Column stripes bound packed-B scratch for high-resolution feature maps.
    let stripe_cols_max =
        (engine::MAX_B_PANEL_ELEMS / in_per_group.max(1)).div_ceil(NR).max(1) * NR;
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(Tensor::as_slice);
    let in_data = input.as_slice();
    let out_data = out.as_mut_slice();
    for n in 0..ishape.n {
        for g in 0..params.groups {
            let lhs = weights.group_lhs(g, out_per_group, in_per_group);
            let group_bias = bias.map(|b| &b[g * out_per_group..(g + 1) * out_per_group]);
            let in_start = (n * params.groups + g) * in_per_group * hw;
            let in_region = &in_data[in_start..in_start + in_per_group * hw];
            let out_start = (n * params.groups + g) * out_per_group * hw;
            let region_len = out_per_group * hw;
            let out_region = &mut out_data[out_start..out_start + region_len];
            let group_skip = residual.map(|s| &s[out_start..out_start + region_len]);
            let mut j0 = 0;
            while j0 < hw {
                let width = stripe_cols_max.min(hw - j0);
                let mut bpack = scratch::take_uninit(width.div_ceil(NR) * in_per_group * NR);
                engine::pack_b(in_region, in_per_group, hw, j0, width, &mut bpack);
                engine::parallel_packed_gemm(
                    lhs,
                    out_per_group,
                    in_per_group,
                    &bpack,
                    width,
                    out_region,
                    hw,
                    j0,
                    engine::Epilogue {
                        bias: group_bias,
                        residual: group_skip,
                        activation: epilogue.activation,
                    },
                    false,
                    parallel,
                );
                scratch::give(bpack);
                j0 += width;
            }
        }
    }
    Ok(())
}

/// Engine kernel for depthwise convolutions (`groups == in_channels == out_channels`):
/// per-channel shift-and-accumulate over contiguous rows, vectorizable at stride 1,
/// parallel over output planes.
///
/// # Errors
/// Returns an error if the shape is not depthwise, or if the parameters, weight
/// shape, or bias length are inconsistent with the input shape.
pub fn conv2d_depthwise(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    validate_weight(params, weight)?;
    if !ConvAlgo::Depthwise.supports(params) {
        return Err(TensorError::InvalidGrouping {
            in_channels: params.in_channels,
            out_channels: params.out_channels,
            groups: params.groups,
        });
    }
    let mut out = Tensor::zeros(params.output_shape(input.shape())?);
    depthwise_into(input, weight.as_slice(), bias, params, ConvEpilogue::default(), &mut out)?;
    Ok(out)
}

/// Core of the depthwise kernel; every element of `out` is overwritten. The
/// epilogue (residual + activation) runs as a final sweep over each plane while
/// it is still cache-resident — one fused pass instead of separate full-tensor
/// sweeps after the convolution.
fn depthwise_into(
    input: &Tensor,
    wdata: &[f32],
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    epilogue: ConvEpilogue<'_>,
    out: &mut Tensor,
) -> Result<()> {
    if !ConvAlgo::Depthwise.supports(params) {
        return Err(TensorError::InvalidGrouping {
            in_channels: params.in_channels,
            out_channels: params.out_channels,
            groups: params.groups,
        });
    }
    validate_bias(params, bias)?;
    let ishape = input.shape();
    let oshape = validate_into(params, input, &epilogue, out)?;

    let k = params.kernel;
    let stride = params.stride;
    let pad = params.padding;
    let ksq = k * k;
    let channels = params.in_channels;
    let out_plane = oshape.h * oshape.w;
    let parallel = params.macs(ishape).unwrap_or(0) >= engine::PARALLEL_MIN_MACS;

    let residual = epilogue.residual.map(Tensor::as_slice);
    let activation = epilogue.activation;
    let in_data = input.as_slice();
    let in_plane = ishape.h * ishape.w;
    parallel::for_each_chunk(out.as_mut_slice(), out_plane, parallel, |plane_index, dst| {
        let n = plane_index / channels;
        let c = plane_index % channels;
        let src = &in_data[(n * channels + c) * in_plane..(n * channels + c + 1) * in_plane];
        let wk = &wdata[c * ksq..(c + 1) * ksq];
        dst.fill(bias.map_or(0.0, |b| b[c]));
        for kh in 0..k {
            let (oh_lo, oh_hi) = valid_out_range(ishape.h, oshape.h, kh, stride, pad);
            for kw in 0..k {
                let w = wk[kh * k + kw];
                let (ow_lo, ow_hi) = valid_out_range(ishape.w, oshape.w, kw, stride, pad);
                if ow_lo >= ow_hi {
                    continue;
                }
                for oh in oh_lo..oh_hi {
                    let ih = oh * stride + kh - pad;
                    let iw0 = ow_lo * stride + kw - pad;
                    let dst_row = &mut dst[oh * oshape.w + ow_lo..oh * oshape.w + ow_hi];
                    if stride == 1 {
                        let src_row = &src[ih * ishape.w + iw0..][..ow_hi - ow_lo];
                        for (d, &s) in dst_row.iter_mut().zip(src_row) {
                            *d += w * s;
                        }
                    } else {
                        let src_row = &src[ih * ishape.w..(ih + 1) * ishape.w];
                        let mut iw = iw0;
                        for d in dst_row.iter_mut() {
                            *d += w * src_row[iw];
                            iw += stride;
                        }
                    }
                }
            }
        }
        // Fused tail while the plane is still hot.
        match (residual, activation) {
            (None, FusedActivation::None) => {}
            (skip, act) => {
                let skip = skip.map(|s| &s[plane_index * out_plane..(plane_index + 1) * out_plane]);
                match skip {
                    Some(skip) => {
                        for (d, &s) in dst.iter_mut().zip(skip) {
                            *d = act.apply(*d + s);
                        }
                    }
                    None => {
                        for d in dst.iter_mut() {
                            *d = act.apply(*d);
                        }
                    }
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input(shape: Shape, seed: u64) -> Tensor {
        Tensor::random_uniform(shape, 1.0, seed)
    }

    fn sample_weight(params: &Conv2dParams, seed: u64) -> Tensor {
        let shape = Shape::new(
            params.out_channels,
            params.in_channels / params.groups,
            params.kernel,
            params.kernel,
        );
        Tensor::random_uniform(shape, 0.5, seed)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        let diff = a.max_abs_diff(b).unwrap();
        assert!(diff < tol, "tensors differ by {diff}");
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 convolution with identity weights is a channel-wise copy.
        let params = Conv2dParams::new(3, 3, 1, 1, 0);
        let input = sample_input(Shape::chw(3, 9, 9), 1);
        let weight =
            Tensor::from_fn(Shape::new(3, 3, 1, 1), |o, i, _, _| if o == i { 1.0 } else { 0.0 });
        let out = conv2d_direct(&input, &weight, None, &params).unwrap();
        assert_close(&out, &input, 1e-6);
        let fast = conv2d_gemm_1x1(&input, &weight, None, &params).unwrap();
        assert_close(&fast, &input, 1e-6);
    }

    #[test]
    fn bias_is_added() {
        let params = Conv2dParams::new(1, 2, 1, 1, 0);
        let input = Tensor::ones(Shape::chw(1, 2, 2));
        let weight = Tensor::zeros(Shape::new(2, 1, 1, 1));
        let out = conv2d_direct(&input, &weight, Some(&[3.0, -1.0]), &params).unwrap();
        assert_eq!(out.plane(0, 0), &[3.0; 4]);
        assert_eq!(out.plane(0, 1), &[-1.0; 4]);
        let fast = conv2d_gemm_1x1(&input, &weight, Some(&[3.0, -1.0]), &params).unwrap();
        assert_eq!(fast.plane(0, 0), &[3.0; 4]);
        assert_eq!(fast.plane(0, 1), &[-1.0; 4]);
    }

    #[test]
    fn im2col_matches_direct_dense() {
        for (k, stride, pad, h) in
            [(3, 1, 1, 11), (3, 2, 1, 13), (1, 1, 0, 9), (7, 2, 3, 17), (5, 1, 2, 10)]
        {
            let params = Conv2dParams::new(4, 6, k, stride, pad);
            let input = sample_input(Shape::new(2, 4, h, h), 42 + k as u64);
            let weight = sample_weight(&params, 7 + k as u64);
            let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.1).collect();
            let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
            let lowered = conv2d_im2col(&input, &weight, Some(&bias), &params).unwrap();
            assert_close(&direct, &lowered, 1e-3);
            let packed = conv2d_im2col_packed(&input, &weight, Some(&bias), &params).unwrap();
            assert_close(&direct, &packed, 1e-3);
        }
    }

    #[test]
    fn im2col_matches_direct_grouped_and_depthwise() {
        let params = Conv2dParams::new(8, 8, 3, 1, 1).with_groups(4);
        let input = sample_input(Shape::chw(8, 10, 10), 5);
        let weight = sample_weight(&params, 6);
        let direct = conv2d_direct(&input, &weight, None, &params).unwrap();
        let lowered = conv2d_im2col(&input, &weight, None, &params).unwrap();
        assert_close(&direct, &lowered, 1e-3);
        let packed = conv2d_im2col_packed(&input, &weight, None, &params).unwrap();
        assert_close(&direct, &packed, 1e-3);

        let dw = Conv2dParams::depthwise(6, 3, 2, 1);
        let input = sample_input(Shape::chw(6, 15, 15), 9);
        let weight = sample_weight(&dw, 10);
        let direct = conv2d_direct(&input, &weight, None, &dw).unwrap();
        let lowered = conv2d_im2col(&input, &weight, None, &dw).unwrap();
        assert_close(&direct, &lowered, 1e-3);
        let dedicated = conv2d_depthwise(&input, &weight, None, &dw).unwrap();
        assert_close(&direct, &dedicated, 1e-3);
    }

    #[test]
    fn tiled_matches_direct_for_various_tilings() {
        let params = Conv2dParams::new(3, 5, 3, 1, 1);
        let input = sample_input(Shape::chw(3, 12, 12), 3);
        let weight = sample_weight(&params, 4);
        let bias = vec![0.5; 5];
        let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
        for tiling in [
            ConvTiling::default(),
            ConvTiling::new(1, 1, 1),
            ConvTiling::new(2, 5, 3),
            ConvTiling::new(100, 100, 100),
            ConvTiling::new(0, 0, 0),
        ] {
            let tiled = conv2d_tiled(&input, &weight, Some(&bias), &params, tiling).unwrap();
            assert_close(&direct, &tiled, 1e-4);
        }
    }

    #[test]
    fn tiled_falls_back_for_grouped() {
        let params = Conv2dParams::depthwise(4, 3, 1, 1);
        let input = sample_input(Shape::chw(4, 8, 8), 11);
        let weight = sample_weight(&params, 12);
        let direct = conv2d_direct(&input, &weight, None, &params).unwrap();
        let tiled = conv2d_tiled(&input, &weight, None, &params, ConvTiling::default()).unwrap();
        assert_close(&direct, &tiled, 1e-5);
    }

    #[test]
    fn weight_shape_is_validated() {
        let params = Conv2dParams::new(3, 4, 3, 1, 1);
        let input = sample_input(Shape::chw(3, 8, 8), 1);
        let bad_weight = Tensor::zeros(Shape::new(4, 3, 5, 5));
        assert!(conv2d_direct(&input, &bad_weight, None, &params).is_err());
        assert!(conv2d_im2col(&input, &bad_weight, None, &params).is_err());
        assert!(conv2d_im2col_packed(&input, &bad_weight, None, &params).is_err());
        let good_weight = sample_weight(&params, 2);
        assert!(conv2d_direct(&input, &good_weight, Some(&[0.0; 3]), &params).is_err());
        assert!(conv2d_im2col_packed(&input, &good_weight, Some(&[0.0; 3]), &params).is_err());
    }

    #[test]
    fn strided_output_shape() {
        let params = Conv2dParams::new(3, 8, 3, 2, 1);
        let input = sample_input(Shape::chw(3, 224, 224), 0);
        let out = conv2d(&input, &sample_weight(&params, 1), None, &params).unwrap();
        assert_eq!(out.shape(), Shape::new(1, 8, 112, 112));
    }

    #[test]
    fn dispatch_selects_the_documented_algorithms() {
        let shape = Shape::chw(16, 32, 32);
        assert_eq!(select_algo(&Conv2dParams::new(16, 32, 1, 1, 0), shape), ConvAlgo::Gemm1x1);
        assert_eq!(select_algo(&Conv2dParams::depthwise(16, 3, 1, 1), shape), ConvAlgo::Depthwise);
        assert_eq!(select_algo(&Conv2dParams::new(16, 32, 3, 1, 1), shape), ConvAlgo::Im2colPacked);
        // 1x1 stride-2 must not take the fast path (it subsamples).
        assert_eq!(select_algo(&Conv2dParams::new(16, 32, 1, 2, 0), shape), ConvAlgo::Im2colPacked);
    }

    #[test]
    fn dispatch_reports_and_matches_reference() {
        for params in [
            Conv2dParams::new(5, 7, 3, 1, 1),
            Conv2dParams::new(5, 7, 1, 1, 0),
            Conv2dParams::depthwise(6, 3, 1, 1),
        ] {
            let input = sample_input(Shape::chw(params.in_channels, 14, 14), 3);
            let weight = sample_weight(&params, 4);
            let (out, algo) = conv2d_dispatch(&input, &weight, None, &params).unwrap();
            assert_eq!(algo, select_algo(&params, input.shape()));
            let reference = conv2d_direct(&input, &weight, None, &params).unwrap();
            assert_close(&out, &reference, 1e-3);
        }
    }

    #[test]
    fn forced_algo_overrides_and_falls_back() {
        let params = Conv2dParams::new(4, 4, 3, 1, 1);
        let input = sample_input(Shape::chw(4, 10, 10), 1);
        let weight = sample_weight(&params, 2);
        let pinned = |algo| {
            EngineContext::new()
                .with_algo(algo)
                .scope(|| conv2d_dispatch(&input, &weight, None, &params).unwrap().1)
        };
        assert_eq!(pinned(ConvAlgo::Direct), ConvAlgo::Direct);
        // A pinned algo that cannot run this shape falls back to auto-dispatch.
        assert_eq!(pinned(ConvAlgo::Gemm1x1), ConvAlgo::Im2colPacked);
        let (_, algo) = conv2d_dispatch(&input, &weight, None, &params).unwrap();
        assert_eq!(algo, ConvAlgo::Im2colPacked);
    }

    #[test]
    fn algo_support_matrix() {
        let dense = Conv2dParams::new(8, 16, 3, 1, 1);
        let pointwise = Conv2dParams::new(8, 16, 1, 1, 0);
        let depthwise = Conv2dParams::depthwise(8, 3, 1, 1);
        assert!(ConvAlgo::Im2colPacked.supports(&dense));
        assert!(!ConvAlgo::Gemm1x1.supports(&dense));
        assert!(ConvAlgo::Gemm1x1.supports(&pointwise));
        assert!(ConvAlgo::Depthwise.supports(&depthwise));
        assert!(!ConvAlgo::Depthwise.supports(&dense));
        assert_eq!(ConvAlgo::Gemm1x1.to_string(), "gemm_1x1");
        // The Winograd arm covers stride-1 dense 3x3 layers only.
        assert!(ConvAlgo::Winograd.supports(&dense));
        assert!(!ConvAlgo::Winograd.supports(&pointwise));
        assert!(!ConvAlgo::Winograd.supports(&depthwise));
        assert!(!ConvAlgo::Winograd.supports(&Conv2dParams::new(8, 16, 3, 2, 1)));
        for algo in ConvAlgo::ALL {
            assert_eq!(ConvAlgo::from_name(&algo.to_string()), Some(algo));
        }
        assert_eq!(ConvAlgo::from_name("made_up"), None);
    }

    #[test]
    fn calibration_steers_default_dispatch_but_not_overrides() {
        let params = Conv2dParams::new(4, 4, 3, 1, 1);
        let input_shape = Shape::chw(4, 12, 12);
        let other_shape = Shape::chw(4, 20, 20);

        let mut table = AlgoCalibration::new();
        assert!(table.is_empty());
        table.set(ConvShapeKey::new(params, input_shape), ConvAlgo::Winograd);
        // An entry whose algorithm cannot execute its shape must be ignored.
        let pointwise = Conv2dParams::new(4, 4, 1, 1, 0);
        table.set(ConvShapeKey::new(pointwise, input_shape), ConvAlgo::Depthwise);
        assert_eq!(table.len(), 2);
        assert_eq!(table.entries().count(), 2);

        assert!(installed_algo_calibration().is_none(), "default dispatch has no table");
        let calibrated = EngineContext::new().with_calibration(table);
        calibrated.scope(|| {
            assert_eq!(installed_algo_calibration().map(|t| t.len()), Some(2));

            // Calibrated shape: the measured choice becomes the default.
            assert_eq!(select_algo(&params, input_shape), ConvAlgo::Winograd);
            assert_eq!(planned_conv_algo(&params, input_shape), ConvAlgo::Winograd);
            let input = sample_input(input_shape, 1);
            let weight = sample_weight(&params, 2);
            let (out, algo) = conv2d_dispatch(&input, &weight, None, &params).unwrap();
            assert_eq!(algo, ConvAlgo::Winograd);
            let reference = conv2d_direct(&input, &weight, None, &params).unwrap();
            assert!(out.max_abs_diff(&reference).unwrap() < 1e-4);

            // Uncalibrated shape: heuristics still apply.
            assert_eq!(select_algo(&params, other_shape), ConvAlgo::Im2colPacked);
            // Unsupported calibrated entry: ignored, heuristics apply.
            assert_eq!(select_algo(&pointwise, input_shape), ConvAlgo::Gemm1x1);

            // An explicit pin still beats calibration.
            let pinned = EngineContext::new()
                .with_algo(ConvAlgo::Im2colPacked)
                .scope(|| planned_conv_algo(&params, input_shape));
            assert_eq!(pinned, ConvAlgo::Im2colPacked);
        });
        // The table ends with its scope and never reaches another thread.
        assert!(installed_algo_calibration().is_none());
        assert_eq!(select_algo(&params, input_shape), ConvAlgo::Im2colPacked);
        let elsewhere = calibrated.scope(|| {
            std::thread::spawn(move || select_algo(&params, input_shape)).join().unwrap()
        });
        assert_eq!(elsewhere, ConvAlgo::Im2colPacked);
    }

    #[test]
    fn calibration_scope_is_unwind_safe() {
        let params = Conv2dParams::new(4, 4, 3, 1, 1);
        let shape = Shape::chw(4, 12, 12);
        let key = ConvShapeKey::new(params, shape);
        let table_with = |algo| {
            let mut table = AlgoCalibration::new();
            table.set(key, algo);
            EngineContext::new().with_calibration(table)
        };
        let inner = table_with(ConvAlgo::Winograd);

        // A panic inside the scope must restore the previous table (here:
        // none), exactly like a normal return — a serving request that dies
        // mid-bucket cannot leave its bucket's dispatch table installed on the
        // worker that ran it.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.scope(|| {
                assert_eq!(select_algo(&params, shape), ConvAlgo::Winograd);
                panic!("request died inside the scope");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(
            select_algo(&params, shape),
            ConvAlgo::Im2colPacked,
            "scoped table survived a panic"
        );

        // Nested scopes unwind layer by layer: the outer scope stays installed
        // after the inner one panics.
        table_with(ConvAlgo::Direct).scope(|| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.scope(|| panic!("inner died"))
            }));
            assert!(caught.is_err());
            assert_eq!(select_algo(&params, shape), ConvAlgo::Direct, "outer scope lost");
        });
        assert_eq!(select_algo(&params, shape), ConvAlgo::Im2colPacked);
    }

    #[test]
    fn grouped_1x1_takes_fast_path_correctly() {
        let params = Conv2dParams::new(8, 12, 1, 1, 0).with_groups(4);
        let input = sample_input(Shape::new(2, 8, 9, 9), 13);
        let weight = sample_weight(&params, 14);
        let bias: Vec<f32> = (0..12).map(|i| 0.05 * i as f32).collect();
        let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
        let fast = conv2d_gemm_1x1(&input, &weight, Some(&bias), &params).unwrap();
        assert_close(&direct, &fast, 1e-3);
    }

    #[test]
    fn depthwise_strided_and_padded() {
        for (k, stride, pad, h) in [(3, 1, 1, 13), (3, 2, 1, 16), (5, 2, 2, 19), (3, 3, 0, 15)] {
            let params = Conv2dParams::depthwise(5, k, stride, pad);
            let input = sample_input(Shape::new(2, 5, h, h), 100 + k as u64);
            let weight = sample_weight(&params, 200 + stride as u64);
            let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.2).collect();
            let direct = conv2d_direct(&input, &weight, Some(&bias), &params).unwrap();
            let dedicated = conv2d_depthwise(&input, &weight, Some(&bias), &params).unwrap();
            assert_close(&direct, &dedicated, 1e-4);
        }
    }

    #[test]
    fn wrong_shape_for_specialized_kernels_errors() {
        let not_1x1 = Conv2dParams::new(4, 4, 3, 1, 1);
        let input = sample_input(Shape::chw(4, 8, 8), 1);
        let weight = sample_weight(&not_1x1, 2);
        assert!(conv2d_gemm_1x1(&input, &weight, None, &not_1x1).is_err());
        assert!(conv2d_depthwise(&input, &weight, None, &not_1x1).is_err());
    }
}
