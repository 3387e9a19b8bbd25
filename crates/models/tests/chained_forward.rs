//! Network-level acceptance suite for cache-resident layer chaining: chained
//! conv→conv execution inside basic/bottleneck blocks must be bitwise
//! identical to the unchained reference, stay bitwise stable while the chain
//! decision itself flips with the thread count, and serve warm (and
//! plan-reserved first) forwards without a single tracked heap allocation at
//! the paper's 224² and 448² operating points.
//!
//! Runs in CI's `RESCNN_THREADS={1,2,4}` determinism matrix alongside
//! `prepacked_forward`.

use rescnn_models::{ArchSpec, BlockSpec, ModelKind, Network};
use rescnn_tensor::{scratch, ActivationArena, ChainMode, ConvAlgo, EngineContext, Shape, Tensor};

/// A thin residual network exercising both chain shapes — a basic block
/// (3×3 → 3×3, both Winograd-eligible) and a stride-1 bottleneck
/// (3×3 → 1×1 pointwise drain) — with channel counts small enough for
/// debug-mode runs at 448².
fn chain_arch() -> ArchSpec {
    ArchSpec {
        kind: ModelKind::ResNet18,
        blocks: vec![
            BlockSpec::BasicBlock { in_ch: 3, out_ch: 8, stride: 1 },
            BlockSpec::Bottleneck { in_ch: 8, mid_ch: 4, out_ch: 8, stride: 1 },
            BlockSpec::GlobalAvgPool,
            BlockSpec::Classifier { in_features: 8, num_classes: 4 },
        ],
        num_classes: 4,
    }
}

#[test]
fn chained_forward_matches_reference_bitwise() {
    let net = Network::from_arch(&chain_arch(), 13);
    let input = Tensor::random_uniform(Shape::chw(3, 56, 56), 1.0, 41);
    for algo in [ConvAlgo::Winograd, ConvAlgo::WinogradF4] {
        let context = EngineContext::new().with_algo(algo).with_chain_mode(ChainMode::Force);
        let chained = context.scope(|| net.forward(&input).unwrap());
        // The reference path never chains: layer-at-a-time, PR-4-era kernels.
        let reference = context.scope(|| net.forward_reference(&input).unwrap());
        assert_eq!(
            chained.as_slice(),
            reference.as_slice(),
            "chained forward under {algo} diverged from the unchained reference"
        );
    }
}

#[test]
fn chain_decision_reaches_the_arena_planner() {
    let net = Network::from_arch(&chain_arch(), 13);
    let shape = Shape::chw(3, 56, 56);
    let context = EngineContext::new().with_algo(ConvAlgo::Winograd);
    let forced =
        context.clone().with_chain_mode(ChainMode::Force).scope(|| net.arena_plan(shape).unwrap());
    let unchained =
        context.with_chain_mode(ChainMode::Off).scope(|| net.arena_plan(shape).unwrap());
    // The chained plan stages ring bands instead of full mid activations; if
    // the two plans were identical, chaining never engaged and every parity
    // assertion in this suite would be vacuous.
    assert_ne!(
        forced.buffer_elems, unchained.buffer_elems,
        "forcing the chain mode must change the planned buffer set"
    );
}

/// The chain decision flips with the thread count under [`ChainMode::Auto`]
/// (tile chaining is a single-core locality play), but the bits must not:
/// chained and unchained execution share every FLOP and its order.
#[test]
fn auto_mode_is_bitwise_identical_across_thread_counts() {
    let net = Network::from_arch(&chain_arch(), 29);
    let input = Tensor::random_uniform(Shape::chw(3, 48, 48), 1.0, 3);
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4] {
        let context = EngineContext::new().with_algo(ConvAlgo::Winograd).with_threads(threads);
        outputs.push(context.scope(|| net.forward(&input).unwrap()));
    }
    assert_eq!(outputs[0].as_slice(), outputs[1].as_slice(), "1 vs 2 threads must agree bitwise");
    assert_eq!(outputs[0].as_slice(), outputs[2].as_slice(), "1 vs 4 threads must agree bitwise");
}

/// The allocation-regression satellite: at both paper operating points the
/// planner's reservation covers chained execution exactly — the first forward
/// from a plan-reserved arena and every warm forward after it perform zero
/// tracked heap allocations.
#[test]
fn chained_forwards_stay_allocation_free_at_224_and_448() {
    let net = Network::from_arch(&chain_arch(), 7);
    let context =
        EngineContext::new().with_algo(ConvAlgo::Winograd).with_chain_mode(ChainMode::Force);
    for res in [224usize, 448] {
        let shape = Shape::chw(3, res, res);
        let input = Tensor::random_uniform(shape, 1.0, res as u64);

        // Warm the kernel scratch pool and lazy per-layer caches with a
        // throwaway arena, isolating the planned activation/band buffers.
        let mut throwaway = ActivationArena::new();
        context.scope(|| net.forward_with_arena(&input, &mut throwaway).unwrap());
        drop(throwaway);

        let plan = context.scope(|| net.arena_plan(shape).unwrap());
        let mut arena = ActivationArena::new();
        plan.reserve(&mut arena);
        let reserved = scratch::heap_allocations();
        context.scope(|| net.forward_with_arena(&input, &mut arena).unwrap());
        assert_eq!(
            scratch::heap_allocations() - reserved,
            0,
            "plan-reserved chained forward at {res}² must not allocate"
        );

        let warm = scratch::heap_allocations();
        context.scope(|| net.forward_with_arena(&input, &mut arena).unwrap());
        assert_eq!(
            scratch::heap_allocations() - warm,
            0,
            "warm chained forward at {res}² must not allocate"
        );
    }
}
