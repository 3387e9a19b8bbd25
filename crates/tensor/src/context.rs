//! The engine context: every piece of state that steers a kernel call, carried
//! as one value.
//!
//! An [`EngineContext`] holds six things:
//!
//! * the worker-thread **budget** ([`num_threads`](crate::num_threads));
//! * an **algorithm pin** that overrides convolution dispatch
//!   ([`planned_conv_algo`](crate::planned_conv_algo));
//! * the dispatch **calibration** table ([`AlgoCalibration`]) that steers default
//!   dispatch ([`select_algo`](crate::select_algo));
//! * the [`ChainMode`] of conv→conv chaining ([`chain_enabled`](crate::chain_enabled));
//! * a [`CancellationToken`] the parallel dispatchers check at every chunk boundary;
//! * an **allocation counter** that every scratch and activation-arena pool miss
//!   advances ([`heap_allocations`](crate::scratch::heap_allocations)).
//!
//! A context is installed on the calling thread for the dynamic extent of
//! [`EngineContext::scope`]; fields a scope leaves unset inherit the enclosing
//! scope. The worker pool installs the submitting thread's context on a worker for
//! every job that worker joins, so kernel chunks and batch tasks see the caller's
//! state — and count their allocations against the caller's counter — whichever
//! thread runs them.
//!
//! Outside every scope a thread runs under its *root* context: the process default
//! budget (read once from `RESCNN_THREADS`, else the host's available parallelism),
//! heuristic dispatch, [`ChainMode::Auto`], no token, and an allocation counter of
//! its own. Nothing here is process-wide, so concurrent callers — two pipelines
//! with different tables, two tests measuring allocations — never observe each
//! other.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cancel::CancellationToken;
use crate::chain::ChainMode;
use crate::conv::{AlgoCalibration, ConvAlgo};

/// Scoped engine state: thread budget, algorithm pin, calibration table, chain
/// mode, cancellation token and allocation counter.
///
/// Contexts are plain values: build one per pipeline or per request and
/// [`scope`](EngineContext::scope) every kernel-bearing call.
///
/// # Examples
/// ```
/// use rescnn_tensor::{num_threads, EngineContext};
///
/// let outside = num_threads();
/// let inside = EngineContext::new().with_threads(2).scope(num_threads);
/// assert_eq!(inside, 2);
/// assert_eq!(num_threads(), outside, "the budget ends with the scope");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineContext {
    threads: Option<usize>,
    algo: Option<ConvAlgo>,
    calibration: Option<Arc<AlgoCalibration>>,
    chain: Option<ChainMode>,
    cancel: Option<CancellationToken>,
    allocations: Option<Arc<AtomicU64>>,
}

thread_local! {
    /// The context in effect on this thread. It starts as the thread's root
    /// context, which owns the thread's allocation counter.
    static CURRENT: RefCell<EngineContext> = RefCell::new(EngineContext {
        allocations: Some(Arc::default()),
        ..EngineContext::default()
    });
}

impl EngineContext {
    /// A context that sets nothing (inherits everything).
    pub fn new() -> Self {
        EngineContext::default()
    }

    /// Bounds kernel parallelism within the scope (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Pins the convolution algorithm within the scope. Shapes the algorithm
    /// cannot execute still fall back to default dispatch.
    pub fn with_algo(mut self, algo: ConvAlgo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Steers default dispatch with a measured calibration table within the
    /// scope. The table replaces the enclosing scope's table; explicit algorithm
    /// pins still win over it.
    pub fn with_calibration(mut self, table: impl Into<Arc<AlgoCalibration>>) -> Self {
        self.calibration = Some(table.into());
        self
    }

    /// Sets the [`ChainMode`] within the scope.
    pub fn with_chain_mode(mut self, mode: ChainMode) -> Self {
        self.chain = Some(mode);
        self
    }

    /// Makes kernels within the scope — on this thread and on every pool worker
    /// serving it — stop at their next chunk boundary once `token` fires.
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The thread budget this context sets (`None` inherits).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The algorithm this context pins (`None` inherits).
    pub fn algo(&self) -> Option<ConvAlgo> {
        self.algo
    }

    /// The calibration table this context installs (`None` inherits).
    pub fn calibration(&self) -> Option<&Arc<AlgoCalibration>> {
        self.calibration.as_ref()
    }

    /// The chain mode this context sets (`None` inherits).
    pub fn chain_mode(&self) -> Option<ChainMode> {
        self.chain
    }

    /// The cancellation token this context carries (`None` inherits).
    pub fn cancellation(&self) -> Option<&CancellationToken> {
        self.cancel.as_ref()
    }

    /// The context in effect on the current thread, with every enclosing scope
    /// already folded in.
    pub fn current() -> Self {
        Self::with_current(Self::clone)
    }

    /// Runs `f` with this context installed on the current thread, restoring the
    /// enclosing context afterwards (also on panic). Fields this context leaves
    /// unset inherit the enclosing scope's values; allocations keep counting
    /// against the enclosing counter.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let merged = Self::with_current(|outer| EngineContext {
            threads: self.threads.or(outer.threads),
            algo: self.algo.or(outer.algo),
            calibration: self.calibration.as_ref().or(outer.calibration.as_ref()).cloned(),
            chain: self.chain.or(outer.chain),
            cancel: self.cancel.as_ref().or(outer.cancel.as_ref()).cloned(),
            allocations: self.allocations.as_ref().or(outer.allocations.as_ref()).cloned(),
        });
        merged.install(f)
    }

    /// Runs `f` with exactly this context installed — no merging — and restores
    /// the previous one afterwards (also on panic). The pool uses it to put a
    /// submitter's (already merged) context on a worker.
    pub(crate) fn install<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<EngineContext>);
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(previous) = self.0.take() {
                    CURRENT.with(|cell| *cell.borrow_mut() = previous);
                }
            }
        }
        let previous = CURRENT.with(|cell| cell.replace(self));
        let _restore = Restore(Some(previous));
        f()
    }

    /// Reads the current context without cloning it. `f` must not enter a scope.
    pub(crate) fn with_current<R>(f: impl FnOnce(&EngineContext) -> R) -> R {
        CURRENT.with(|cell| f(&cell.borrow()))
    }

    /// Counts one heap allocation against the current context.
    pub(crate) fn record_allocation() {
        Self::with_current(|context| {
            if let Some(counter) = &context.allocations {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Heap allocations counted against the current context so far.
    pub(crate) fn allocations() -> u64 {
        Self::with_current(|context| {
            context.allocations.as_ref().map_or(0, |counter| counter.load(Ordering::Relaxed))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num_threads;

    #[test]
    fn scope_overrides_and_restores_threads() {
        let outside = num_threads();
        let seen = EngineContext::new().with_threads(2).scope(num_threads);
        assert_eq!(seen, 2);
        assert_eq!(num_threads(), outside);
    }

    #[test]
    fn nested_scopes_layer_and_unwind() {
        EngineContext::new().with_threads(3).with_algo(ConvAlgo::Direct).scope(|| {
            assert_eq!(num_threads(), 3);
            EngineContext::new().with_threads(5).with_chain_mode(ChainMode::Off).scope(|| {
                // Inner scope overrides threads but inherits the algorithm.
                assert_eq!(num_threads(), 5);
                assert_eq!(EngineContext::current().algo(), Some(ConvAlgo::Direct));
                assert_eq!(crate::chain_mode(), ChainMode::Off);
            });
            assert_eq!(num_threads(), 3);
            assert_eq!(crate::chain_mode(), ChainMode::Auto);
        });
        let root = EngineContext::current();
        assert_eq!((root.threads(), root.algo()), (None, None));
    }

    #[test]
    fn scope_restores_after_panic() {
        let result = std::panic::catch_unwind(|| {
            EngineContext::new().with_threads(7).scope(|| panic!("kernel exploded"))
        });
        assert!(result.is_err());
        assert_eq!(EngineContext::current().threads(), None);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(EngineContext::new().with_threads(0).threads(), Some(1));
    }

    #[test]
    fn contexts_are_isolated_per_thread() {
        EngineContext::new().with_threads(2).scope(|| {
            let other = std::thread::spawn(|| EngineContext::current().threads()).join().unwrap();
            assert_eq!(other, None, "scopes must not leak across threads");
            assert_eq!(num_threads(), 2);
        });
    }

    #[test]
    fn allocation_counters_are_per_thread_and_inherited_by_scopes() {
        let before = EngineContext::allocations();
        EngineContext::new().with_threads(3).scope(EngineContext::record_allocation);
        assert_eq!(EngineContext::allocations() - before, 1, "scopes count against the root");
        std::thread::spawn(|| {
            for _ in 0..10 {
                EngineContext::record_allocation();
            }
        })
        .join()
        .unwrap();
        assert_eq!(EngineContext::allocations() - before, 1, "another thread's count leaked");
    }
}
