//! Int8 quantized-arm acceptance suite: the characterized accuracy contract
//! against the f32 packed im2col engine, bitwise microkernel-tier parity,
//! bitwise determinism across thread counts, the zero-allocation warm path,
//! and the gate-off guarantee that f32 forwards are untouched.
//!
//! The arm trades exactness for u8×i8 arithmetic: per-output-channel symmetric
//! weight scales ([`INT8_WEIGHT_QMAX`] keeps every `maddubs` pair sum inside
//! i16, so all kernel tiers are bitwise identical) and a per-tensor asymmetric
//! activation range. Its agreement with the f32 paths is therefore bounded by
//! the pinned [`INT8_TOLERANCE`] at unit-scale activations, characterized here
//! across the serving ladder's stage shapes — the same bound the calibration
//! gate (`MeasuredTuner::admits_int8` in `rescnn-hwsim`) keys on. Across
//! thread counts and repeat runs the kernel must remain **bitwise identical**,
//! like every other engine path. CI re-runs this suite under
//! `RESCNN_THREADS=1,2,4`.

use rescnn_tensor::{
    conv2d_im2col_packed, conv2d_int8, int8_microkernel_dispatch, int8_microkernel_reference,
    int8_unit_error, scratch, select_algo, tensor_range, ActQuant, Conv2dParams, ConvAlgo,
    ConvEpilogue, EngineContext, FusedActivation, PreparedLayer, Shape, Tensor, INT8_TOLERANCE,
    INT8_WEIGHT_QMAX,
};

fn sample(params: &Conv2dParams, n: usize, h: usize, w: usize, seed: u64) -> (Tensor, Tensor) {
    let input = Tensor::random_uniform(Shape::new(n, params.in_channels, h, w), 1.0, seed);
    let weight = Tensor::random_uniform(
        Shape::new(params.out_channels, params.in_channels, params.kernel, params.kernel),
        0.5,
        seed ^ 0x5a5a,
    );
    (input, weight)
}

/// Activation quantization round trip: the zero-point is exact (padding fill
/// depends on it) and every in-range value reconstructs within half a step.
#[test]
fn activation_round_trip_is_within_half_a_step_and_zero_is_exact() {
    for (lo, hi) in [(-1.0f32, 1.0f32), (0.0, 6.0), (-0.25, 3.75), (-5.0, 0.0), (0.1, 0.9)] {
        let q = ActQuant::from_range(lo, hi);
        assert_eq!(
            q.quantize(0.0),
            q.zero_point,
            "0.0 must map to the zero-point exactly for range [{lo}, {hi}]"
        );
        for i in 0..=64 {
            let x = lo + (hi - lo) * i as f32 / 64.0;
            let code = q.quantize(x);
            let back = (code as i32 - q.zero_point as i32) as f32 * q.scale;
            assert!(
                (x - back).abs() <= q.scale * 0.5 + 1e-6,
                "round trip of {x} through [{lo}, {hi}] drifted to {back} (scale {})",
                q.scale
            );
        }
    }
    // Degenerate ranges must not produce NaN scales.
    let degenerate = ActQuant::from_range(0.0, 0.0);
    assert!(degenerate.scale.is_finite() && degenerate.scale > 0.0);
}

/// Whatever SIMD tier this build dispatches to must agree **bitwise** with the
/// portable reference on in-contract operands (weights within
/// [`INT8_WEIGHT_QMAX`], activations spanning all of u8).
#[test]
fn microkernel_tiers_agree_bitwise_with_the_portable_reference() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for quads in [0usize, 1, 2, 3, 7, 13, 32] {
        // Oversized panels are fine: both kernels read the same leading
        // `quads` chunks of the same layout.
        let apanel: Vec<i32> = (0..quads.max(1) * 8)
            .map(|_| {
                let bytes: [i8; 4] = std::array::from_fn(|_| {
                    (next() % (2 * INT8_WEIGHT_QMAX as u64 + 1)) as i32 as i8
                        - INT8_WEIGHT_QMAX as i8
                });
                i32::from_le_bytes(bytes.map(|b| b as u8))
            })
            .collect();
        let bpanel: Vec<u8> = (0..quads.max(1) * 32 * 4).map(|_| (next() & 0xff) as u8).collect();
        let reference = int8_microkernel_reference(quads, &apanel, &bpanel);
        let dispatched = int8_microkernel_dispatch(quads, &apanel, &bpanel);
        assert_eq!(
            reference, dispatched,
            "dispatched microkernel tier diverged from the portable reference at quads={quads}"
        );
    }
}

/// The characterization satellite: every ResNet-family stage shape of the
/// serving ladder must measure within the pinned bound, and the probe itself
/// must be a pure function of the shape (bit-stable across calls) since the
/// calibration gate keys on it.
#[test]
fn characterized_unit_error_stays_within_pinned_bound_across_ladder_shapes() {
    let stages: &[(usize, usize, usize, usize)] = &[
        (64, 64, 3, 56),
        (128, 128, 3, 28),
        (256, 256, 3, 14),
        (512, 512, 3, 7),
        (256, 64, 1, 56),
        (1024, 256, 1, 14),
    ];
    for &(ic, oc, k, s) in stages {
        let params = Conv2dParams::new(ic, oc, k, 1, k / 2);
        let shape = Shape::chw(ic, s, s);
        let err = int8_unit_error(&params, shape).unwrap();
        assert!(
            err > 0.0,
            "int8 must genuinely quantize for {ic}→{oc} k={k}@{s}² (a zero probe means it ran \
             a fallback path and the pin is meaningless)"
        );
        assert!(
            err <= INT8_TOLERANCE,
            "int8 unit error {err} exceeds the pinned bound {INT8_TOLERANCE} for \
             {ic}→{oc} k={k}@{s}² — the characterized contract regressed"
        );
        let again = int8_unit_error(&params, shape).unwrap();
        assert_eq!(err.to_bits(), again.to_bits(), "the gate probe must be shape-pure");
        println!("int8 unit error {ic}->{oc} k={k}@{s}²: {err:.3} (bound {INT8_TOLERANCE})");
    }
}

/// Quantized convolution agrees with the f32 packed engine within the pinned
/// bound across edge geometries the stage shapes do not cover: 1×1 and 3×3,
/// pad 0/1/2, rectangular frames, batches > 1, odd channel counts.
#[test]
fn tolerance_against_packed_im2col_across_shapes_and_paddings() {
    let cases: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        // (in_ch, out_ch, kernel, batch, h, w, pad)
        (1, 1, 3, 1, 6, 6, 0),
        (3, 8, 3, 1, 9, 11, 1),
        (8, 4, 3, 2, 13, 15, 1),
        (16, 16, 1, 1, 16, 16, 0),
        (5, 7, 3, 1, 10, 7, 2),
        (48, 32, 3, 1, 19, 17, 1),
        (4, 4, 3, 3, 8, 22, 1),
        (33, 17, 1, 1, 12, 9, 0),
    ];
    for &(ic, oc, k, n, h, w, pad) in cases {
        let params = Conv2dParams::new(ic, oc, k, 1, pad);
        let (input, weight) = sample(&params, n, h, w, (ic * h + oc * w) as u64);
        let bias: Vec<f32> = (0..oc).map(|i| 0.05 * i as f32 - 0.1).collect();
        let packed = conv2d_im2col_packed(&input, &weight, Some(&bias), &params).unwrap();
        let quantized = conv2d_int8(&input, &weight, Some(&bias), &params).unwrap();
        assert_eq!(packed.shape(), quantized.shape());
        let diff = packed.max_abs_diff(&quantized).unwrap();
        assert!(
            diff <= INT8_TOLERANCE,
            "int8 vs im2col_packed drift {diff} for ic={ic} oc={oc} k={k} n={n} {h}x{w} pad={pad}"
        );
    }
}

#[test]
fn bitwise_deterministic_across_thread_counts() {
    // Large enough to clear the engine's parallelism threshold.
    let params = Conv2dParams::new(32, 48, 3, 1, 1);
    let (input, weight) = sample(&params, 1, 57, 61, 7);
    let bias: Vec<f32> = (0..48).map(|i| (i as f32) * 0.01).collect();
    let mut prepared = PreparedLayer::new(weight, Some(bias), params).unwrap();
    let (lo, hi) = tensor_range(&input);
    prepared.set_int8_range(lo, hi);
    let mut out = Tensor::zeros(params.output_shape(input.shape()).unwrap());

    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4] {
        EngineContext::new().with_threads(threads).scope(|| {
            prepared
                .forward_with_algo_into(
                    &input,
                    ConvAlgo::Int8,
                    ConvEpilogue::activation(FusedActivation::Relu),
                    &mut out,
                )
                .unwrap()
        });
        outputs.push(out.as_slice().to_vec());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads must agree bitwise");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 threads must agree bitwise");

    // Repeat runs at the ambient thread count are bitwise stable too (scratch
    // arena reuse must not leak state between calls, and the dynamic-range
    // fallback of `conv2d_int8` must agree with the static-range prepared
    // path given the same observed range).
    prepared
        .forward_with_algo_into(
            &input,
            ConvAlgo::Int8,
            ConvEpilogue::activation(FusedActivation::Relu),
            &mut out,
        )
        .unwrap();
    assert_eq!(outputs[0], out.as_slice());
}

/// The serving contract: once the layer is prepared (weights quantized, the
/// activation range calibrated) and the scratch arena is warm, the quantized
/// forward allocates nothing on any thread.
#[test]
fn warm_quantized_path_does_not_allocate() {
    let params = Conv2dParams::new(32, 64, 3, 1, 1);
    let (input, weight) = sample(&params, 1, 96, 96, 11);
    let mut prepared = PreparedLayer::new(weight, None, params).unwrap();
    let (lo, hi) = tensor_range(&input);
    prepared.set_int8_range(lo, hi);
    prepared.int8_weights().unwrap(); // quantize + prepack outside the counted region
    let mut out = Tensor::zeros(params.output_shape(input.shape()).unwrap());
    let epilogue = || ConvEpilogue::activation(FusedActivation::Relu);
    for _ in 0..5 {
        prepared.forward_with_algo_into(&input, ConvAlgo::Int8, epilogue(), &mut out).unwrap();
    }

    let warm = scratch::heap_allocations();
    for _ in 0..5 {
        prepared.forward_with_algo_into(&input, ConvAlgo::Int8, epilogue(), &mut out).unwrap();
    }
    let steady = scratch::heap_allocations();
    assert_eq!(
        steady - warm,
        0,
        "steady-state quantized convolutions must not allocate scratch on any thread"
    );
}

/// Gate-off guarantee: the arm is never selected heuristically, and merely
/// preparing a layer's int8 weights does not perturb the f32 forward — bitwise.
#[test]
fn gate_off_leaves_f32_forwards_bitwise_identical() {
    // No shape ever selects Int8 without installed calibration.
    for (ic, oc, k, s) in [(64usize, 64usize, 3usize, 56usize), (256, 64, 1, 56), (3, 64, 7, 224)] {
        let params = Conv2dParams::new(ic, oc, k, 1, k / 2);
        assert_ne!(
            select_algo(&params, Shape::chw(ic, s, s)),
            ConvAlgo::Int8,
            "heuristic dispatch must never pick the quantized arm"
        );
    }

    let params = Conv2dParams::new(16, 24, 3, 1, 1);
    let (input, weight) = sample(&params, 1, 30, 26, 19);
    let mut out = Tensor::zeros(params.output_shape(input.shape()).unwrap());

    let baseline = PreparedLayer::new(weight.clone(), None, params).unwrap();
    let algo = baseline
        .forward_fused_into(&input, ConvEpilogue::activation(FusedActivation::None), &mut out)
        .unwrap();
    assert_ne!(algo, ConvAlgo::Int8);
    let f32_out = out.as_slice().to_vec();

    // Same layer with the quantized side prepared: dispatch and output are
    // untouched.
    let mut quant_ready = PreparedLayer::new(weight, None, params).unwrap();
    let (lo, hi) = tensor_range(&input);
    quant_ready.set_int8_range(lo, hi);
    quant_ready.int8_weights().unwrap();
    let algo = quant_ready
        .forward_fused_into(&input, ConvEpilogue::activation(FusedActivation::None), &mut out)
        .unwrap();
    assert_ne!(algo, ConvAlgo::Int8, "int8 prepack must not change dispatch");
    assert_eq!(f32_out, out.as_slice(), "int8 prepack must not perturb the f32 forward");
}
