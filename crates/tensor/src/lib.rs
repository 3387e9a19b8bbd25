//! # rescnn-tensor
//!
//! A small, dependency-light NCHW `f32` tensor library providing the convolution,
//! pooling, normalization, and linear-algebra kernels that the rest of the
//! resolution-characterization workspace is built on.
//!
//! The crate intentionally offers *multiple executable implementations* of convolution
//! ([`conv2d_direct`], [`conv2d_im2col`], [`conv2d_tiled`], and the packed engine
//! paths behind [`conv2d_with_algo`]) so the benchmark harness can measure, with real
//! wall-clock time, how kernel implementation choices interact with the input
//! resolution — the phenomenon the paper's §VI (operator autotuning) is about.
//!
//! # Engine architecture
//!
//! The hot path is a packed, multi-threaded convolution engine layered as:
//!
//! 1. **Microkernel** ([`engine`]) — an `MR × NR` f32 accumulator tile (6×32 with
//!    AVX-512, 6×16 with AVX2, see [`engine::MR`]/[`engine::NR`]) held in registers
//!    while streaming over the shared dimension; compiled with
//!    `-C target-cpu=native` it lowers to hand-scheduled FMA intrinsics.
//! 2. **Packing** ([`engine::pack_a_panel`] / [`engine::pack_b`]) — operands are
//!    repacked into panel layouts read at stride 1 by the microkernel. The im2col
//!    lowering writes *directly* into packed-B panels ("packing-aware im2col"), so no
//!    intermediate column matrix is ever materialized.
//! 3. **Scratch arena** ([`scratch`]) — packing buffers and im2col stripes are
//!    recycled through a thread-local pool: steady-state forward passes perform zero
//!    per-layer heap allocations.
//! 4. **Parallelism** ([`parallel`]) — output rows/planes are split into disjoint
//!    chunks executed on a lazily-initialized **persistent worker pool** (parked
//!    workers, job-queue handoff; per-call cost is a wakeup rather than a thread
//!    spawn). Every element is produced by exactly one task in one fixed
//!    accumulation order, so results are bitwise identical across thread counts.
//!    The worker budget comes from the calling [`EngineContext`], else the
//!    process default read once from `RESCNN_THREADS`.
//! 5. **Dispatch** ([`select_algo`]) — 1×1 stride-1 convolutions route straight to
//!    GEMM over the input planes ([`ConvAlgo::Gemm1x1`]), depthwise shapes to a
//!    dedicated shift-and-accumulate kernel ([`ConvAlgo::Depthwise`]), everything
//!    else to packed im2col stripes ([`ConvAlgo::Im2colPacked`]). A Winograd
//!    F(2×2, 3×3) arm ([`ConvAlgo::Winograd`], module [`winograd`]) covers stride-1
//!    dense 3×3 layers with ~2.25× fewer multiplies; it becomes the default for a
//!    shape when the calling context's measurement-derived [`AlgoCalibration`]
//!    table (see [`EngineContext::with_calibration`]) says it was fastest there.
//!    The chosen algorithm is observable via [`conv2d_dispatch`] and can be pinned
//!    with [`EngineContext::with_algo`] so autotuners and benchmarks can sweep
//!    algorithm × tiling per resolution.
//! 6. **Engine context** ([`EngineContext`]) — the thread budget, algorithm pin,
//!    calibration table, [`ChainMode`], [`CancellationToken`] and allocation
//!    counter are one scoped value that the worker pool carries onto its workers.
//!    There is no process-wide setter, so concurrent pipelines with different
//!    settings never race.
//!
//! # Examples
//! ```
//! use rescnn_tensor::{conv2d, Conv2dParams, Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Conv2dParams::new(3, 8, 3, 2, 1);
//! let input = Tensor::random_uniform(Shape::chw(3, 32, 32), 1.0, 0);
//! let weight = Tensor::kaiming(Shape::new(8, 3, 3, 3), 27, 1);
//! let out = conv2d(&input, &weight, None, &params)?;
//! assert_eq!(out.shape(), Shape::new(1, 8, 16, 16));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod cancel;
pub mod chain;
mod context;
mod conv;
pub mod engine;
mod error;
mod gemm;
mod ops;
pub mod parallel;
pub mod quant;
pub mod scratch;
mod shape;
mod tensor;
pub mod winograd;

pub use arena::{with_thread_arena, ActivationArena};
pub use cancel::CancellationToken;
pub use chain::{
    chain_enabled, chain_mode, chain_plan, conv2d_chain_fused_into, ChainConsumer, ChainMode,
    ChainPlan,
};
pub use context::EngineContext;
pub use conv::{
    conv2d, conv2d_depthwise, conv2d_direct, conv2d_dispatch, conv2d_gemm_1x1, conv2d_im2col,
    conv2d_im2col_packed, conv2d_tiled, conv2d_with_algo, im2col, installed_algo_calibration,
    planned_conv_algo, select_algo, AlgoCalibration, ConvAlgo, ConvEpilogue, ConvShapeKey,
    ConvTiling, PreparedLayer,
};
pub use engine::{Epilogue, FusedActivation, GemmLhs, PreparedGemmA, PreparedGemmB};
pub use error::{Result, TensorError};
pub use gemm::{gemm_blocked, gemm_naive, gemm_packed, matmul, GemmBlocking, MatDims};
pub use ops::{
    add_relu_in_place, avg_pool2d, avg_pool2d_into, batch_norm, global_avg_pool,
    global_avg_pool_into, linear, linear_prepared, linear_prepared_into, max_pool2d,
    max_pool2d_into, relu, relu6, relu6_in_place, relu_in_place, sigmoid, softmax,
};
pub use parallel::{
    num_threads, panic_message, parallel_map_isolated, shutdown_pool, split_parallelism,
    DrainReport,
};
pub use quant::{
    conv2d_int8, int8_unit_error, tensor_range, ActQuant, QuantizedConv, INT8_TOLERANCE,
    INT8_WEIGHT_QMAX,
};
#[doc(hidden)]
pub use quant::{int8_microkernel_dispatch, int8_microkernel_reference};
pub use shape::{conv_output_extent, Conv2dParams, Pool2dParams, Shape};
pub use tensor::Tensor;
pub use winograd::{
    conv2d_winograd, conv2d_winograd_f4, conv2d_winograd_f4_fused_into,
    conv2d_winograd_f4_prepared, conv2d_winograd_fused_into, conv2d_winograd_prepared,
    winograd_f4_unit_error, WinogradFilter, WINOGRAD_F4_TOLERANCE,
};

/// Commonly used items, intended for glob import.
pub mod prelude {
    pub use crate::{
        conv2d, Conv2dParams, ConvAlgo, ConvTiling, EngineContext, Pool2dParams, Shape, Tensor,
        TensorError,
    };
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_conv_case() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
        // (in_ch, out_ch, kernel, stride, pad, spatial)
        (
            1usize..4,
            1usize..5,
            prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
            1usize..3,
            0usize..3,
            6usize..14,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn conv_output_extent_is_consistent((i, k, s, p) in (1usize..64, 1usize..8, 1usize..4, 0usize..4)) {
            if let Ok(out) = conv_output_extent(i, k, s, p) {
                // Re-derive: last window start fits inside padded input.
                prop_assert!( (out - 1) * s + k <= i + 2 * p );
                prop_assert!(out >= 1);
            } else {
                prop_assert!(i + 2 * p < k || s == 0);
            }
        }

        #[test]
        fn engine_dispatch_matches_direct((ic, oc, k, s, p, hw) in small_conv_case()) {
            prop_assume!(hw + 2 * p >= k);
            let params = Conv2dParams::new(ic, oc, k, s, p);
            let input = Tensor::random_uniform(Shape::chw(ic, hw, hw), 1.0, (ic * 7 + hw) as u64);
            let weight = Tensor::random_uniform(Shape::new(oc, ic, k, k), 0.7, (oc * 5 + k) as u64);
            let direct = conv2d_direct(&input, &weight, None, &params).unwrap();
            let (engine_out, algo) = conv2d_dispatch(&input, &weight, None, &params).unwrap();
            prop_assert!(algo == select_algo(&params, input.shape()));
            prop_assert!(direct.max_abs_diff(&engine_out).unwrap() < 1e-3);
        }

        #[test]
        fn im2col_conv_matches_direct((ic, oc, k, s, p, hw) in small_conv_case()) {
            prop_assume!(hw + 2 * p >= k);
            let params = Conv2dParams::new(ic, oc, k, s, p);
            let input = Tensor::random_uniform(Shape::chw(ic, hw, hw), 1.0, (ic * 31 + hw) as u64);
            let wshape = Shape::new(oc, ic, k, k);
            let weight = Tensor::random_uniform(wshape, 0.7, (oc * 17 + k) as u64);
            let direct = conv2d_direct(&input, &weight, None, &params).unwrap();
            let lowered = conv2d_im2col(&input, &weight, None, &params).unwrap();
            prop_assert!(direct.max_abs_diff(&lowered).unwrap() < 1e-3);
        }

        #[test]
        fn tiled_conv_matches_direct((ic, oc, k, s, p, hw) in small_conv_case(),
                                      (t0, t1, t2) in (1usize..8, 1usize..8, 1usize..8)) {
            prop_assume!(hw + 2 * p >= k);
            let params = Conv2dParams::new(ic, oc, k, s, p);
            let input = Tensor::random_uniform(Shape::chw(ic, hw, hw), 1.0, (ic + oc) as u64);
            let weight = Tensor::random_uniform(Shape::new(oc, ic, k, k), 0.7, k as u64);
            let direct = conv2d_direct(&input, &weight, None, &params).unwrap();
            let tiled = conv2d_tiled(&input, &weight, None, &params, ConvTiling::new(t0, t1, t2)).unwrap();
            prop_assert!(direct.max_abs_diff(&tiled).unwrap() < 1e-3);
        }

        #[test]
        fn gemm_blocked_matches_naive((m, n, k) in (1usize..20, 1usize..20, 1usize..20),
                                       (mb, nb, kb) in (1usize..8, 1usize..8, 1usize..8)) {
            let dims = MatDims::new(m, n, k);
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 13 % 17) as f32) - 8.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 19) as f32) - 9.0).collect();
            let mut naive = vec![0.0; m * n];
            gemm_naive(dims, &a, &b, &mut naive);
            let mut blocked = vec![0.0; m * n];
            gemm_blocked(dims, GemmBlocking { mb, nb, kb }, &a, &b, &mut blocked);
            for (x, y) in naive.iter().zip(&blocked) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn softmax_is_a_distribution(vals in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
            let c = vals.len();
            let t = Tensor::from_vec(Shape::new(1, c, 1, 1), vals).unwrap();
            let s = softmax(&t).unwrap();
            let sum: f32 = s.as_slice().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }

        #[test]
        fn relu_is_idempotent_and_nonnegative(vals in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let len = vals.len();
            let t = Tensor::from_vec(Shape::new(1, 1, 1, len), vals).unwrap();
            let r = relu(&t);
            prop_assert!(r.min() >= 0.0);
            prop_assert_eq!(relu(&r), r.clone());
        }

        #[test]
        fn global_avg_pool_bounded_by_extrema(hw in 1usize..16, c in 1usize..4) {
            let t = Tensor::random_uniform(Shape::chw(c, hw, hw), 5.0, hw as u64);
            let g = global_avg_pool(&t);
            prop_assert!(g.max() <= t.max() + 1e-5);
            prop_assert!(g.min() >= t.min() - 1e-5);
        }
    }
}
