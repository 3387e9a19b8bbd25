//! Network-level parity and allocation-regression suite for the prepared
//! execution stage (prepacked weights + fused epilogues + activation arena).
//!
//! Runs in CI's `RESCNN_THREADS={1,2,4}` determinism matrix: the prepared path
//! must be bitwise identical to the PR-4-era reference execution at every
//! thread count, and warm forwards must perform zero heap allocations
//! (`rescnn_tensor::scratch::heap_allocations` covers both the kernel scratch
//! pool and the activation arena, counted per engine context — so the tests in
//! this binary run concurrently without moving each other's counts).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rescnn_models::{ModelKind, Network};
use rescnn_tensor::{scratch, ActivationArena, ConvAlgo, EngineContext, Shape, Tensor};

#[test]
fn prepared_forward_matches_reference_across_families() {
    for (kind, res) in
        [(ModelKind::ResNet18, 56usize), (ModelKind::ResNet50, 48), (ModelKind::MobileNetV2, 48)]
    {
        let net = Network::new(kind, 6, 9);
        let input = Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64);
        let fast = net.forward(&input).unwrap();
        let reference = net.forward_reference(&input).unwrap();
        assert_eq!(
            fast.as_slice(),
            reference.as_slice(),
            "{kind} prepared forward diverged from reference at {res}²"
        );
    }
}

#[test]
fn prepared_forward_matches_reference_under_winograd_dispatch() {
    // Forcing Winograd routes every dense stride-1 3×3 layer through the fused
    // (bias + residual + activation) Winograd output transform in the prepared
    // path, vs the PR-4 fused-bias-activation + separate add_relu composition
    // in the reference. Both must agree bitwise.
    let net = Network::new(ModelKind::ResNet18, 4, 17);
    let input = Tensor::random_uniform(Shape::chw(3, 56, 56), 1.0, 23);
    let context = EngineContext::new().with_algo(ConvAlgo::Winograd);
    let fast = context.scope(|| net.forward(&input).unwrap());
    let reference = context.scope(|| net.forward_reference(&input).unwrap());
    assert_eq!(fast.as_slice(), reference.as_slice());
}

/// Warm forwards must not allocate: the kernel scratch pool and the activation
/// arena both reach steady state after warm-up, leaving only the returned
/// logits vector per request (a plain `Vec`, not pool-tracked).
#[test]
fn warm_forwards_perform_zero_tracked_allocations() {
    let net = Network::new(ModelKind::ResNet18, 5, 3);
    let input = Tensor::random_uniform(Shape::chw(3, 64, 64), 1.0, 7);
    for _ in 0..5 {
        net.forward(&input).unwrap();
    }
    let warm = scratch::heap_allocations();
    for _ in 0..5 {
        net.forward(&input).unwrap();
    }
    assert_eq!(
        scratch::heap_allocations() - warm,
        0,
        "steady-state forwards must not allocate scratch or activation buffers"
    );
}

/// Batched forwards reach the same steady state on pool workers (their
/// thread-local arenas persist across dispatches).
#[test]
fn warm_batched_forwards_perform_zero_tracked_allocations() {
    let net = Network::new(ModelKind::ResNet18, 4, 5);
    let inputs: Vec<Tensor> =
        (0..8).map(|i| Tensor::random_uniform(Shape::chw(3, 48, 48), 1.0, i)).collect();
    for _ in 0..5 {
        net.forward_batch(&inputs).unwrap();
    }
    let warm = scratch::heap_allocations();
    for _ in 0..5 {
        net.forward_batch(&inputs).unwrap();
    }
    assert_eq!(
        scratch::heap_allocations() - warm,
        0,
        "warm homogeneous batches must not allocate on any worker"
    );
}

/// The arena planner's reservation covers a real forward exactly: after
/// reserving from the plan, even the *first* forward at that resolution
/// performs zero tracked allocations.
#[test]
fn arena_plan_reservation_makes_first_forward_allocation_free() {
    let net = Network::new(ModelKind::ResNet50, 4, 11);
    let shape = Shape::chw(3, 56, 56);
    let input = Tensor::random_uniform(shape, 1.0, 31);

    // Warm the kernel scratch pool and the lazy per-layer caches with a
    // throwaway arena, so the measurement isolates the *activation* buffers.
    let mut throwaway = ActivationArena::new();
    net.forward_with_arena(&input, &mut throwaway).unwrap();
    drop(throwaway);

    let plan = net.arena_plan(shape).unwrap();
    assert!(!plan.buffer_elems.is_empty());
    let mut arena = ActivationArena::new();
    plan.reserve(&mut arena);
    let reserved = scratch::heap_allocations();
    let out = net.forward_with_arena(&input, &mut arena).unwrap();
    assert_eq!(
        scratch::heap_allocations() - reserved,
        0,
        "a plan-reserved arena must serve the first forward without allocating"
    );
    // And the planned execution is still the same bits.
    let reference = net.forward_reference(&input).unwrap();
    assert_eq!(out.as_slice(), reference.as_slice());
}

/// Mixed-resolution serving: one arena grows to the per-bucket maxima and then
/// serves every bucket allocation-free.
#[test]
fn mixed_resolution_buckets_reach_steady_state() {
    let net = Network::new(ModelKind::ResNet18, 3, 2);
    let mut arena = ActivationArena::new();
    let inputs: Vec<Tensor> = [32usize, 48, 64, 48, 32]
        .iter()
        .map(|&res| Tensor::random_uniform(Shape::chw(3, res, res), 1.0, res as u64))
        .collect();
    for input in &inputs {
        net.forward_with_arena(input, &mut arena).unwrap();
    }
    let warm = scratch::heap_allocations();
    for input in &inputs {
        net.forward_with_arena(input, &mut arena).unwrap();
    }
    assert_eq!(scratch::heap_allocations() - warm, 0, "warm mixed-resolution serving allocated");
    assert!(arena.resident_bytes() > 0);
}

/// The accounted live-byte high-water mark of a real forward never exceeds
/// the arena planner's peak-live figure — the upper bound the serving core's
/// memory-budget admission (`SloOptions::memory_budget_bytes`) relies on.
#[test]
fn measured_peak_live_bytes_never_exceed_the_planned_peak() {
    for (kind, hw) in [(ModelKind::ResNet18, 56usize), (ModelKind::MobileNetV2, 48)] {
        let net = Network::new(kind, 4, 11);
        let shape = Shape::chw(3, hw, hw);
        let input = Tensor::random_uniform(shape, 1.0, 7);
        let planned = net.arena_plan(shape).unwrap().peak_live_bytes;
        let mut arena = ActivationArena::new();
        net.forward_with_arena(&input, &mut arena).unwrap();
        let measured = arena.peak_live_bytes();
        assert!(measured > 0, "{kind}: a forward must account live activation bytes");
        assert!(
            measured <= planned,
            "{kind} at {hw}²: measured peak {measured} exceeds planned peak {planned}"
        );
    }
}

/// Allocation counts belong to one computation: a sibling thread allocating
/// scratch in a loop must not move the count of a warm forward measured inside a
/// 2-thread context, and a cold forward in the same context is counted.
#[test]
fn warm_forward_count_ignores_a_sibling_thread_and_sees_pool_workers() {
    let net = Network::new(ModelKind::ResNet18, 5, 13);
    let input = Tensor::random_uniform(Shape::chw(3, 64, 64), 1.0, 17);
    let cold_input = Tensor::random_uniform(Shape::chw(3, 88, 88), 1.0, 19);
    let stop = AtomicBool::new(false);
    let sibling_takes = AtomicU64::new(0);
    let (warm, cold) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                // Dropped rather than given back, so every take allocates.
                drop(scratch::take(1024));
                sibling_takes.fetch_add(1, Ordering::Relaxed);
            }
        });
        let counts = EngineContext::new().with_threads(2).scope(|| {
            for _ in 0..5 {
                net.forward(&input).unwrap();
            }
            let before = scratch::heap_allocations();
            let sibling_before = sibling_takes.load(Ordering::Relaxed);
            net.forward(&input).unwrap();
            // Make sure the sibling allocated inside the measured window.
            while sibling_takes.load(Ordering::Relaxed) == sibling_before {
                std::hint::spin_loop();
            }
            let warm = scratch::heap_allocations() - before;

            // A resolution no thread has served yet: the forward allocates; the
            // tensor crate's pool tests pin that the chunks pool workers run
            // for it count here too.
            let before = scratch::heap_allocations();
            net.forward(&cold_input).unwrap();
            (warm, scratch::heap_allocations() - before)
        });
        stop.store(true, Ordering::Relaxed);
        counts
    });
    assert_eq!(warm, 0, "a sibling thread's allocations leaked into this forward's count");
    assert!(cold > 0, "a cold forward must count");
}
