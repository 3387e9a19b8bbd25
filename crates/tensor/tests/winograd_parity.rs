//! Winograd F(2×2, 3×3) acceptance suite: numerical parity against the packed
//! im2col engine path and bitwise determinism across thread counts.
//!
//! The contract (documented on `ConvAlgo::Winograd` and in the `winograd`
//! module): Winograd legitimately reassociates arithmetic, so it is *not*
//! bitwise equal to the GEMM paths — the pinned bound is elementwise agreement
//! within `1e-4` at unit-scale activations — but across thread counts and
//! repeat runs it must be **bitwise identical**, like every other engine path.
//! CI re-runs this suite under `RESCNN_THREADS=1,2,4`.

use rescnn_tensor::{
    conv2d_im2col_packed, conv2d_winograd, conv2d_winograd_prepared, conv2d_with_algo,
    Conv2dParams, ConvAlgo, EngineContext, FusedActivation, Shape, Tensor, WinogradFilter,
};

fn sample(params: &Conv2dParams, n: usize, h: usize, w: usize, seed: u64) -> (Tensor, Tensor) {
    let input = Tensor::random_uniform(Shape::new(n, params.in_channels, h, w), 1.0, seed);
    let weight = Tensor::random_uniform(
        Shape::new(params.out_channels, params.in_channels, 3, 3),
        0.5,
        seed ^ 0x5a5a,
    );
    (input, weight)
}

#[test]
fn tolerance_against_packed_im2col_across_shapes_and_paddings() {
    // Swept shapes include non-multiple-of-2 output extents (odd inputs, odd
    // outputs after padding), rectangular frames, pad 0/1/2, batches > 1, and
    // channel counts from 1 to 48 — every case exercises the edge-tile clipping
    // of the 2×2 output tiles.
    let cases: &[(usize, usize, usize, usize, usize, usize)] = &[
        // (in_ch, out_ch, batch, h, w, pad)
        (1, 1, 1, 4, 4, 0),
        (1, 3, 1, 5, 5, 1),
        (3, 8, 1, 7, 9, 1),
        (8, 4, 2, 11, 13, 1),
        (16, 16, 1, 12, 12, 0),
        (5, 7, 1, 9, 6, 2),
        (48, 32, 1, 17, 15, 1),
        (4, 4, 3, 8, 21, 1),
        (2, 2, 1, 3, 3, 1),
    ];
    for &(ic, oc, n, h, w, pad) in cases {
        let params = Conv2dParams::new(ic, oc, 3, 1, pad);
        let (input, weight) = sample(&params, n, h, w, (ic * h + oc * w) as u64);
        let bias: Vec<f32> = (0..oc).map(|i| 0.05 * i as f32 - 0.1).collect();
        let packed = conv2d_im2col_packed(&input, &weight, Some(&bias), &params).unwrap();
        let wino = conv2d_winograd(&input, &weight, Some(&bias), &params).unwrap();
        assert_eq!(packed.shape(), wino.shape());
        let diff = packed.max_abs_diff(&wino).unwrap();
        assert!(
            diff <= 1e-4,
            "winograd vs im2col_packed drift {diff} for ic={ic} oc={oc} n={n} {h}x{w} pad={pad}"
        );
    }
}

#[test]
fn bitwise_deterministic_across_thread_counts() {
    // Large enough to clear the engine's parallelism threshold, with
    // non-multiple-of-2 output extents so edge tiles are in play.
    let params = Conv2dParams::new(32, 48, 3, 1, 1);
    let (input, weight) = sample(&params, 1, 57, 61, 7);
    let bias: Vec<f32> = (0..48).map(|i| (i as f32) * 0.01).collect();
    let filter = WinogradFilter::prepare(&weight, &params).unwrap();

    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4] {
        outputs.push(EngineContext::new().with_threads(threads).scope(|| {
            conv2d_winograd_prepared(&input, &filter, Some(&bias), &params, FusedActivation::Relu)
                .unwrap()
        }));
    }
    assert_eq!(outputs[0].as_slice(), outputs[1].as_slice(), "1 vs 2 threads must agree bitwise");
    assert_eq!(outputs[0].as_slice(), outputs[2].as_slice(), "1 vs 4 threads must agree bitwise");

    // Repeat runs at the ambient thread count are bitwise stable too (scratch
    // arena reuse must not leak state between calls).
    let again =
        conv2d_winograd_prepared(&input, &filter, Some(&bias), &params, FusedActivation::Relu)
            .unwrap();
    assert_eq!(outputs[0].as_slice(), again.as_slice());
}

#[test]
fn prepared_filter_matches_on_the_fly_transform_bitwise() {
    let params = Conv2dParams::new(6, 10, 3, 1, 1);
    let (input, weight) = sample(&params, 2, 14, 10, 3);
    let filter = WinogradFilter::prepare(&weight, &params).unwrap();
    let on_the_fly = conv2d_winograd(&input, &weight, None, &params).unwrap();
    let prepared =
        conv2d_winograd_prepared(&input, &filter, None, &params, FusedActivation::None).unwrap();
    assert_eq!(on_the_fly.as_slice(), prepared.as_slice());
}

#[test]
fn conv2d_with_algo_falls_back_for_unsupported_shapes() {
    // The sweep entry point must never fail on ineligible shapes: they fall
    // back to the packed engine path, exactly like the other specialized arms.
    let strided = Conv2dParams::new(4, 4, 3, 2, 1);
    let (input, weight) = sample(&strided, 1, 12, 12, 5);
    let out = conv2d_with_algo(&input, &weight, None, &strided, ConvAlgo::Winograd).unwrap();
    let packed = conv2d_im2col_packed(&input, &weight, None, &strided).unwrap();
    assert_eq!(out.as_slice(), packed.as_slice());
}

#[test]
fn fused_activations_match_separate_passes() {
    let params = Conv2dParams::new(5, 6, 3, 1, 1);
    let (input, weight) = sample(&params, 1, 15, 11, 9);
    let bias: Vec<f32> = (0..6).map(|i| 0.2 - 0.07 * i as f32).collect();
    let filter = WinogradFilter::prepare(&weight, &params).unwrap();
    let plain =
        conv2d_winograd_prepared(&input, &filter, Some(&bias), &params, FusedActivation::None)
            .unwrap();
    let relu =
        conv2d_winograd_prepared(&input, &filter, Some(&bias), &params, FusedActivation::Relu)
            .unwrap();
    let relu6 =
        conv2d_winograd_prepared(&input, &filter, Some(&bias), &params, FusedActivation::Relu6)
            .unwrap();
    for ((&x, &r), &r6) in plain.as_slice().iter().zip(relu.as_slice()).zip(relu6.as_slice()) {
        assert_eq!(r.to_bits(), x.max(0.0).to_bits());
        assert_eq!(r6.to_bits(), x.clamp(0.0, 6.0).to_bits());
    }
}
