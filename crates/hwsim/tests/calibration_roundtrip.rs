//! The measured-dispatch feedback loop, end to end: sweep real kernels with the
//! `MeasuredTuner`, persist the calibrated cost model to disk, reload it, and
//! verify that an engine context carrying its dispatch table makes
//! `conv2d_dispatch` pick the measured-fastest algorithm per shape — with
//! explicit overrides still winning.

use rescnn_hwsim::{CalibratedCostModel, CpuProfile, MeasuredSweepConfig, MeasuredTuner};
use rescnn_models::ConvLayerShape;
use rescnn_tensor::{
    conv2d_dispatch, installed_algo_calibration, planned_conv_algo, select_algo, Conv2dParams,
    ConvAlgo, ConvShapeKey, EngineContext, Shape, Tensor,
};

/// Small layers keep the wall-clock sweep fast: one Winograd-eligible 3×3 and
/// one pointwise layer (which Winograd cannot execute).
fn swept_layers() -> Vec<ConvLayerShape> {
    vec![
        ConvLayerShape { params: Conv2dParams::new(8, 8, 3, 1, 1), input: Shape::chw(8, 24, 24) },
        ConvLayerShape { params: Conv2dParams::new(8, 16, 1, 1, 0), input: Shape::chw(8, 24, 24) },
    ]
}

#[test]
fn measured_calibration_round_trips_and_steers_dispatch() {
    let layers = swept_layers();
    let tuner = MeasuredTuner::new(MeasuredSweepConfig {
        reps: 1,
        max_threads: 1,
        seed: 3,
        ..Default::default()
    });
    let mut model = CalibratedCostModel::new(CpuProfile::host());
    model.calibrate_layers(&tuner, &layers);
    assert!(!model.is_empty(), "sweeps must record measurements");
    // Every supported algorithm was measured, Winograd included on the 3×3 layer.
    assert!(model.measured_seconds(&layers[0], ConvAlgo::Winograd).is_some());
    assert!(model.measured_seconds(&layers[0], ConvAlgo::Im2colPacked).is_some());
    assert!(model.measured_seconds(&layers[1], ConvAlgo::Winograd).is_none());
    assert!(model.measured_seconds(&layers[1], ConvAlgo::Gemm1x1).is_some());

    // Persist → reload: measurements and the derived dispatch table survive.
    let path =
        std::env::temp_dir().join(format!("rescnn-hwsim-roundtrip-{}.txt", std::process::id()));
    model.save(&path).unwrap();
    let reloaded = CalibratedCostModel::load(&path, CpuProfile::host()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.len(), model.len());
    assert_eq!(reloaded.dispatch_table(), model.dispatch_table());

    // Scope the reloaded table: conv2d_dispatch now runs the measured-fastest
    // algorithm for each swept shape.
    assert!(installed_algo_calibration().is_none());
    let calibrated = EngineContext::new().with_calibration(reloaded.dispatch_table());
    calibrated.scope(|| {
        assert!(installed_algo_calibration().is_some());
        steers_dispatch(&reloaded, &layers);
    });

    // Leaving the scope restores heuristic-only dispatch.
    assert!(installed_algo_calibration().is_none());
    assert_eq!(select_algo(&layers[0].params, layers[0].input), ConvAlgo::Im2colPacked);
}

/// Checks, inside a context carrying `reloaded`'s dispatch table, that dispatch
/// follows the measurements and that explicit pins still win.
fn steers_dispatch(reloaded: &CalibratedCostModel, layers: &[ConvLayerShape]) {
    for layer in layers {
        let fastest = reloaded.best_algo(layer);
        assert!(fastest.supports(&layer.params));
        assert_eq!(
            select_algo(&layer.params, layer.input),
            fastest,
            "calibrated dispatch must pick the measured-fastest algorithm"
        );
        let input = Tensor::random_uniform(layer.input, 1.0, 11);
        let weight = Tensor::random_uniform(
            Shape::new(
                layer.params.out_channels,
                layer.params.in_channels,
                layer.params.kernel,
                layer.params.kernel,
            ),
            0.5,
            12,
        );
        let (_, ran) = conv2d_dispatch(&input, &weight, None, &layer.params).unwrap();
        assert_eq!(ran, fastest);
    }

    // An uncalibrated shape keeps the static heuristics.
    let unseen = Conv2dParams::new(8, 8, 3, 1, 1);
    let unseen_input = Shape::chw(8, 40, 40);
    assert!(installed_algo_calibration()
        .unwrap()
        .get(&ConvShapeKey::new(unseen, unseen_input))
        .is_none());
    assert_eq!(select_algo(&unseen, unseen_input), ConvAlgo::Im2colPacked);

    // A pinned algorithm still beats the calibrated default.
    let layer = &layers[0];
    for pin in [ConvAlgo::Direct, ConvAlgo::Im2col] {
        let pinned = EngineContext::new()
            .with_algo(pin)
            .scope(|| planned_conv_algo(&layer.params, layer.input));
        assert_eq!(pinned, pin);
    }
}
