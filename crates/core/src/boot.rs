//! Sweep-once-on-boot serving calibration.
//!
//! A serving deployment wants measurement-driven conv dispatch
//! ([`rescnn_tensor::AlgoCalibration`]) without blocking start-up on a
//! wall-clock sweep and without shipping a pre-measured file for every host
//! type. [`start_boot_calibration`] runs the [`MeasuredTuner`] sweep for the
//! deployed backbone's layer shapes — at every resolution the deployment
//! serves — on a background thread, then merges the measured-fastest table into
//! the pipeline's own calibration (in one locked step) the moment it is ready.
//!
//! Until the sweep finishes, the pipeline keeps its current defaults
//! (heuristics or the table it loaded at construction), so serving starts
//! instantly and upgrades itself in place; the pipeline's per-bucket dispatch
//! caches notice the upgrade via its calibration generation and re-resolve.
//! Other pipelines in the process are unaffected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use rescnn_hwsim::{CalibratedCostModel, CpuProfile, MeasuredSweepConfig, MeasuredTuner};
use rescnn_models::ModelKind;
use rescnn_tensor::{ConvAlgo, ConvShapeKey};

use crate::error::{CoreError, Result};
use crate::pipeline::{DynamicResolutionPipeline, PipelineCalibration};

/// What the boot sweep measures.
#[derive(Debug, Clone)]
pub struct BootCalibrationConfig {
    /// Backbone whose layer shapes are swept.
    pub backbone: ModelKind,
    /// Resolutions the deployment serves (one sweep covers all buckets; shapes
    /// shared between resolutions are measured once).
    pub resolutions: Vec<usize>,
    /// Sweep parameters (repetitions, threads, prepacked timing).
    pub sweep: MeasuredSweepConfig,
    /// When set, the measured model is persisted here afterwards, so later
    /// processes can warm-start via
    /// [`PipelineConfig::with_conv_calibration`](crate::PipelineConfig::with_conv_calibration).
    pub persist_path: Option<String>,
}

impl BootCalibrationConfig {
    /// A sweep over the given backbone and resolution ladder with default
    /// sweep parameters and no persistence.
    pub fn new(backbone: ModelKind, resolutions: Vec<usize>) -> Self {
        BootCalibrationConfig {
            backbone,
            resolutions,
            sweep: MeasuredSweepConfig::default(),
            persist_path: None,
        }
    }

    /// Persists the measured model after installation.
    pub fn with_persist_path(mut self, path: impl Into<String>) -> Self {
        self.persist_path = Some(path.into());
        self
    }
}

/// Handle to a background boot-calibration sweep.
#[derive(Debug)]
pub struct BootCalibration {
    ready: Arc<AtomicBool>,
    outcome: SweepOutcome,
}

/// Where the sweep ran: its own thread (the normal case) or inline on the
/// caller when the thread could not be spawned (resource exhaustion must
/// degrade to a slower boot, not a panic).
#[derive(Debug)]
enum SweepOutcome {
    Thread(JoinHandle<Result<usize>>),
    Inline(Result<usize>),
}

impl BootCalibration {
    /// Whether the sweep has finished (and, on success, upgraded the pipeline).
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Blocks until the sweep finishes, returning the number of calibrated
    /// layer shapes it measured.
    ///
    /// # Errors
    /// Returns an error if the sweep failed (unservable resolution, persistence
    /// failure) or its thread panicked.
    pub fn wait(self) -> Result<usize> {
        match self.outcome {
            SweepOutcome::Thread(handle) => handle.join().map_err(|_| {
                CoreError::InvalidConfig { reason: "boot calibration panicked".into() }
            })?,
            SweepOutcome::Inline(outcome) => outcome,
        }
    }
}

/// Starts the boot sweep on a background thread and returns immediately.
///
/// Serving can begin at once; the measured dispatch table is merged into
/// `pipeline`'s calibration (shared by all its clones) when the sweep
/// completes — measured shapes win, every other entry is kept. Call
/// [`BootCalibration::wait`] to block on it (tests, offline tooling) or drop
/// the handle to let it finish detached.
pub fn start_boot_calibration(
    config: BootCalibrationConfig,
    pipeline: &DynamicResolutionPipeline,
) -> BootCalibration {
    let target = pipeline.calibration_handle();
    let ready = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&ready);
    let spawn_config = config.clone();
    let spawn_target = Arc::clone(&target);
    let spawned =
        std::thread::Builder::new().name("rescnn-boot-calibration".into()).spawn(move || {
            let outcome = sweep_into(&spawn_config, &spawn_target);
            flag.store(true, Ordering::Release);
            outcome
        });
    match spawned {
        Ok(handle) => BootCalibration { ready, outcome: SweepOutcome::Thread(handle) },
        Err(_) => {
            // Out of threads: degrade to a synchronous sweep instead of panicking.
            let outcome = sweep_into(&config, &target);
            ready.store(true, Ordering::Release);
            BootCalibration { ready, outcome: SweepOutcome::Inline(outcome) }
        }
    }
}

/// The sweep body (also runnable synchronously by tooling): measures every
/// Winograd-eligible layer shape of the backbone across the resolution ladder
/// (the only shapes where dispatch is genuinely host-dependent — the 1×1 and
/// depthwise fast paths are structurally dominant), merges the
/// measured-fastest table into `pipeline`'s calibration, and optionally
/// persists the measured model. Returns the number of measured shapes.
///
/// # Errors
/// Returns an error if a resolution is too small for the backbone or the
/// persist path cannot be written.
pub fn run_boot_sweep(
    config: &BootCalibrationConfig,
    pipeline: &DynamicResolutionPipeline,
) -> Result<usize> {
    sweep_into(config, &pipeline.calibration_handle())
}

/// [`run_boot_sweep`] against the pipeline's shared calibration.
fn sweep_into(
    config: &BootCalibrationConfig,
    target: &RwLock<PipelineCalibration>,
) -> Result<usize> {
    // Class count does not affect conv layer shapes; use the ImageNet default.
    let arch = config.backbone.arch(1000);
    let tuner = MeasuredTuner::new(config.sweep);
    let mut model = CalibratedCostModel::new(CpuProfile::host());
    let mut seen = std::collections::HashSet::new();
    for &resolution in &config.resolutions {
        let layers = arch.conv_layers(resolution).map_err(|e| CoreError::InvalidConfig {
            reason: format!("boot sweep at {resolution}: {e}"),
        })?;
        for layer in &layers {
            if ConvAlgo::Winograd.supports(&layer.params)
                && seen.insert(ConvShapeKey::new(layer.params, layer.input))
            {
                for algo in [ConvAlgo::Im2colPacked, ConvAlgo::Winograd] {
                    let kernel = tuner.measure_algo(layer, algo, 1);
                    model.record(layer, kernel.algo, kernel.seconds);
                }
                // The α=6 arm joins the sweep only where its characterized
                // numerical gate admits the shape (see `MeasuredSweepConfig::
                // f4_tolerance`); rejected shapes keep the F(2×2)/im2col duel.
                if tuner.admits_f4(layer) {
                    let kernel = tuner.measure_algo(layer, ConvAlgo::WinogradF4, 1);
                    model.record(layer, kernel.algo, kernel.seconds);
                }
            }
        }
    }
    let measured = model.dispatch_table();
    // Merge in one locked step: boot measurements win for the shapes they
    // cover, everything else is preserved, and a concurrent upgrader can never
    // be lost to a read-modify-write race.
    target.write().unwrap_or_else(|e| e.into_inner()).merge(&measured);
    if let Some(path) = &config.persist_path {
        model.save(path).map_err(|e| CoreError::InvalidConfig {
            reason: format!("persisting boot calibration to {path}: {e}"),
        })?;
    }
    Ok(measured.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineConfig, ScaleModelConfig, ScaleModelTrainer};
    use rescnn_data::{DatasetKind, DatasetSpec};
    use rescnn_oracle::AccuracyOracle;
    use rescnn_tensor::{installed_algo_calibration, select_algo, AlgoCalibration};

    fn pipeline() -> DynamicResolutionPipeline {
        let config =
            ScaleModelConfig { resolutions: vec![112, 224], epochs: 5, ..Default::default() };
        let trainer = ScaleModelTrainer::new(config, ModelKind::ResNet18, DatasetKind::CarsLike);
        let train = DatasetSpec::cars_like().with_len(12).with_max_dimension(64).build(1);
        let scale_model = trainer.train(&train, 2).unwrap();
        let config = PipelineConfig::new(ModelKind::ResNet18, DatasetKind::CarsLike);
        DynamicResolutionPipeline::new(config, scale_model, AccuracyOracle::new(0)).unwrap()
    }

    #[test]
    fn boot_sweep_installs_and_persists_a_measured_table() {
        let pipeline = pipeline();
        // Pre-install an entry the sweep does not cover: the merge must keep it.
        let exotic_params = rescnn_tensor::Conv2dParams::new(19, 19, 3, 1, 1);
        let exotic_shape = rescnn_tensor::Shape::chw(19, 41, 41);
        let mut pre = AlgoCalibration::new();
        pre.set(ConvShapeKey::new(exotic_params, exotic_shape), ConvAlgo::Winograd);
        pipeline.calibration_handle().write().unwrap().merge(&pre);

        let path = std::env::temp_dir()
            .join(format!("rescnn-boot-calibration-{}.txt", std::process::id()));
        let config = BootCalibrationConfig::new(ModelKind::ResNet18, vec![24, 32])
            .with_persist_path(path.to_string_lossy().to_string());
        let sweep = MeasuredSweepConfig { reps: 1, ..Default::default() };
        let boot = start_boot_calibration(BootCalibrationConfig { sweep, ..config }, &pipeline);
        let shapes = boot.wait().expect("boot sweep succeeds");
        assert!(shapes > 0, "resnet18 has winograd-eligible shapes at 24/32");

        let installed = pipeline.calibration().expect("sweep upgrades the pipeline's table");
        assert!(installed.len() > shapes, "merge must keep the pre-installed entry");
        assert_eq!(
            installed.get(&ConvShapeKey::new(exotic_params, exotic_shape)),
            Some(ConvAlgo::Winograd)
        );
        // Every installed backbone entry steers the pipeline's dispatch — and
        // only the pipeline's: default dispatch outside its context is untouched.
        let arch = ModelKind::ResNet18.arch(1000);
        let context = pipeline.engine_context();
        let mut steered = 0;
        for layer in arch.conv_layers(32).unwrap() {
            if let Some(algo) = installed.get(&ConvShapeKey::new(layer.params, layer.input)) {
                assert_eq!(context.scope(|| select_algo(&layer.params, layer.input)), algo);
                steered += 1;
            }
        }
        assert!(steered > 0);
        assert!(installed_algo_calibration().is_none(), "the sweep leaked out of the pipeline");
        assert!(path.exists(), "sweep persists the measured model");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn boot_sweep_rejects_impossible_resolutions() {
        let pipeline = pipeline();
        let config = BootCalibrationConfig::new(ModelKind::ResNet18, vec![0]);
        let boot = start_boot_calibration(config, &pipeline);
        assert!(boot.wait().is_err());
        assert!(pipeline.calibration().is_none(), "a failed sweep must not touch the table");
    }

    #[test]
    fn readiness_flag_flips_after_completion() {
        let pipeline = pipeline();
        let sweep = MeasuredSweepConfig { reps: 1, ..Default::default() };
        let config = BootCalibrationConfig {
            sweep,
            ..BootCalibrationConfig::new(ModelKind::ResNet18, vec![16])
        };
        let boot = start_boot_calibration(config, &pipeline);
        // Serving would proceed here; poll until the background sweep lands.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !boot.is_ready() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(boot.is_ready(), "sweep must finish well within the deadline");
        // At 16² the post-stem spatial extents still leave eligible 3×3 layers.
        assert!(boot.wait().unwrap() > 0);
    }
}
