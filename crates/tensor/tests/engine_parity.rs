//! Parity suite for the packed convolution engine.
//!
//! Every engine path (packed im2col, 1×1 GEMM fast path, dedicated depthwise kernel,
//! packed GEMM) is validated against the reference seven-loop [`conv2d_direct`] over
//! randomized strided / padded / grouped / depthwise / 1×1 shapes at multiple
//! resolutions, and the multi-threaded paths are pinned to bitwise-identical results
//! across thread counts.

use rescnn_tensor::{
    conv2d_direct, conv2d_dispatch, conv2d_with_algo, gemm_packed, select_algo, Conv2dParams,
    ConvAlgo, EngineContext, MatDims, Shape, Tensor, INT8_TOLERANCE,
};

const TOLERANCE: f32 = 1e-3;

/// Small deterministic generator for shape fuzzing (independent of the tensor RNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.next(options.len())]
    }
}

fn assert_matches_direct(params: &Conv2dParams, input_shape: Shape, seed: u64) {
    let input = Tensor::random_uniform(input_shape, 1.0, seed);
    let weight = Tensor::random_uniform(
        Shape::new(
            params.out_channels,
            params.in_channels / params.groups,
            params.kernel,
            params.kernel,
        ),
        0.6,
        seed ^ 0xABCD,
    );
    let bias: Vec<f32> = (0..params.out_channels).map(|i| (i as f32 - 2.0) * 0.11).collect();
    let reference = conv2d_direct(&input, &weight, Some(&bias), params).unwrap();
    let (engine, algo) = conv2d_dispatch(&input, &weight, Some(&bias), params).unwrap();
    let diff = reference.max_abs_diff(&engine).unwrap();
    assert!(
        diff < TOLERANCE,
        "engine ({algo}) diverged by {diff} for {params:?} at input {input_shape}"
    );
}

#[test]
fn randomized_dense_shapes_match_direct() {
    let mut rng = Lcg(0x5EED);
    for case in 0..60 {
        let kernel = rng.pick(&[1usize, 3, 5, 7]);
        let stride = rng.pick(&[1usize, 2, 3]);
        let padding = rng.next(kernel); // padding < kernel keeps windows valid
        let in_channels = 1 + rng.next(9);
        let out_channels = 1 + rng.next(12);
        let resolution = rng.pick(&[7usize, 12, 19, 28, 33]);
        if resolution + 2 * padding < kernel {
            continue;
        }
        let params = Conv2dParams::new(in_channels, out_channels, kernel, stride, padding);
        let batch = 1 + rng.next(2);
        assert_matches_direct(
            &params,
            Shape::new(batch, in_channels, resolution, resolution),
            case as u64,
        );
    }
}

#[test]
fn randomized_grouped_shapes_match_direct() {
    let mut rng = Lcg(0x6EED);
    for case in 0..30 {
        let groups = rng.pick(&[2usize, 3, 4]);
        let in_channels = groups * (1 + rng.next(4));
        let out_channels = groups * (1 + rng.next(5));
        let kernel = rng.pick(&[1usize, 3, 5]);
        let stride = rng.pick(&[1usize, 2]);
        let padding = rng.next(kernel);
        let resolution = rng.pick(&[9usize, 14, 21, 30]);
        if resolution + 2 * padding < kernel {
            continue;
        }
        let params = Conv2dParams::new(in_channels, out_channels, kernel, stride, padding)
            .with_groups(groups);
        assert_matches_direct(
            &params,
            Shape::new(1 + rng.next(2), in_channels, resolution, resolution),
            0x1000 + case as u64,
        );
    }
}

#[test]
fn randomized_depthwise_shapes_match_direct() {
    let mut rng = Lcg(0x7EED);
    for case in 0..30 {
        let channels = 1 + rng.next(12);
        let kernel = rng.pick(&[3usize, 5]);
        let stride = rng.pick(&[1usize, 2, 3]);
        let padding = rng.next(kernel);
        let resolution = rng.pick(&[8usize, 15, 22, 31]);
        if resolution + 2 * padding < kernel {
            continue;
        }
        let params = Conv2dParams::depthwise(channels, kernel, stride, padding);
        assert_eq!(
            select_algo(&params, Shape::chw(channels, resolution, resolution)),
            ConvAlgo::Depthwise
        );
        assert_matches_direct(
            &params,
            Shape::new(1 + rng.next(2), channels, resolution, resolution),
            0x2000 + case as u64,
        );
    }
}

#[test]
fn pointwise_shapes_take_gemm_path_and_match() {
    let mut rng = Lcg(0x8EED);
    for case in 0..25 {
        let in_channels = 1 + rng.next(24);
        let out_channels = 1 + rng.next(24);
        let resolution = rng.pick(&[6usize, 13, 27, 41]);
        let params = Conv2dParams::new(in_channels, out_channels, 1, 1, 0);
        assert_eq!(
            select_algo(&params, Shape::chw(in_channels, resolution, resolution)),
            ConvAlgo::Gemm1x1
        );
        assert_matches_direct(
            &params,
            Shape::new(1 + rng.next(3), in_channels, resolution, resolution),
            0x3000 + case as u64,
        );
    }
}

#[test]
fn resolution_ladder_matches_direct() {
    // The paper's ladder, scaled down in channel count to keep the reference
    // seven-loop kernel affordable in a test.
    for resolution in [28usize, 42, 56, 84, 112] {
        let params = Conv2dParams::new(8, 12, 3, 1, 1);
        assert_matches_direct(&params, Shape::chw(8, resolution, resolution), resolution as u64);
        let strided = Conv2dParams::new(8, 12, 3, 2, 1);
        assert_matches_direct(&strided, Shape::chw(8, resolution, resolution), resolution as u64);
    }
}

#[test]
fn every_algo_agrees_on_every_supported_shape() {
    let cases = [
        Conv2dParams::new(6, 10, 3, 1, 1),
        Conv2dParams::new(6, 10, 1, 1, 0),
        Conv2dParams::depthwise(7, 3, 2, 1),
        Conv2dParams::new(8, 8, 5, 2, 2).with_groups(2),
    ];
    for (index, params) in cases.iter().enumerate() {
        let input = Tensor::random_uniform(
            Shape::new(2, params.in_channels, 17, 17),
            1.0,
            50 + index as u64,
        );
        let weight = Tensor::random_uniform(
            Shape::new(
                params.out_channels,
                params.in_channels / params.groups,
                params.kernel,
                params.kernel,
            ),
            0.5,
            60 + index as u64,
        );
        let reference = conv2d_direct(&input, &weight, None, params).unwrap();
        for algo in ConvAlgo::ALL {
            if !algo.supports(params) {
                continue;
            }
            let out = conv2d_with_algo(&input, &weight, None, params, algo).unwrap();
            let diff = reference.max_abs_diff(&out).unwrap();
            // The quantized arm is exact only up to its characterized bound
            // (its own suite, int8_parity.rs, pins it per shape); every f32
            // arm must agree to reassociation-level precision.
            let bound = if algo == ConvAlgo::Int8 { INT8_TOLERANCE } else { TOLERANCE };
            assert!(diff < bound, "{algo} diverged by {diff} on {params:?}");
        }
    }
}

/// Same input must produce bitwise-identical output for every thread count: the
/// engine partitions outputs into disjoint chunks with a fixed per-element
/// accumulation order, so scheduling must never change results.
#[test]
fn multi_thread_results_are_bitwise_identical() {
    let params = Conv2dParams::new(16, 32, 3, 1, 1);
    let input = Tensor::random_uniform(Shape::new(2, 16, 56, 56), 1.0, 11);
    let weight = Tensor::random_uniform(Shape::new(32, 16, 3, 3), 0.5, 12);
    let pointwise = Conv2dParams::new(16, 24, 1, 1, 0);
    let pw_weight = Tensor::random_uniform(Shape::new(24, 16, 1, 1), 0.5, 13);
    let depthwise = Conv2dParams::depthwise(16, 3, 1, 1);
    let dw_weight = Tensor::random_uniform(Shape::new(16, 1, 3, 3), 0.5, 14);

    let mut baselines: Option<(Tensor, Tensor, Tensor, Vec<f32>)> = None;
    for threads in [1usize, 2, 3, 8] {
        let (dense, pw, dw, gemm_out) = EngineContext::new().with_threads(threads).scope(|| {
            let dense = conv2d_dispatch(&input, &weight, None, &params).unwrap().0;
            let pw = conv2d_dispatch(&input, &pw_weight, None, &pointwise).unwrap().0;
            let dw = conv2d_dispatch(&input, &dw_weight, None, &depthwise).unwrap().0;
            let dims = MatDims::new(61, 301, 97);
            let a: Vec<f32> = (0..dims.m * dims.k).map(|i| (i as f32 * 0.11).sin()).collect();
            let b: Vec<f32> = (0..dims.k * dims.n).map(|i| (i as f32 * 0.17).cos()).collect();
            let mut gemm_out = vec![0.0f32; dims.m * dims.n];
            gemm_packed(dims, &a, &b, &mut gemm_out);
            (dense, pw, dw, gemm_out)
        });
        match &baselines {
            None => baselines = Some((dense, pw, dw, gemm_out)),
            Some((dense0, pw0, dw0, gemm0)) => {
                assert_eq!(
                    dense0.as_slice(),
                    dense.as_slice(),
                    "dense conv differs at {threads} threads"
                );
                assert_eq!(pw0.as_slice(), pw.as_slice(), "1x1 conv differs at {threads} threads");
                assert_eq!(
                    dw0.as_slice(),
                    dw.as_slice(),
                    "depthwise conv differs at {threads} threads"
                );
                assert_eq!(gemm0, &gemm_out, "packed gemm differs at {threads} threads");
            }
        }
    }
}

/// Repeated runs on the same thread count must also be identical (no dependence on
/// work-queue scheduling order).
#[test]
fn repeated_runs_are_bitwise_identical() {
    let params = Conv2dParams::new(24, 48, 3, 2, 1);
    let input = Tensor::random_uniform(Shape::chw(24, 64, 64), 1.0, 21);
    let weight = Tensor::random_uniform(Shape::new(48, 24, 3, 3), 0.5, 22);
    EngineContext::new().with_threads(4).scope(|| {
        let first = conv2d_dispatch(&input, &weight, None, &params).unwrap().0;
        for _ in 0..5 {
            let again = conv2d_dispatch(&input, &weight, None, &params).unwrap().0;
            assert_eq!(first.as_slice(), again.as_slice());
        }
    });
}
