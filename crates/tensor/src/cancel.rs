//! Cooperative cancellation for in-flight parallel work.
//!
//! A [`CancellationToken`] is a cheap, cloneable flag a supervisor (e.g. a
//! serving watchdog) sets to tell an execution it has become pointless — its
//! deadline is blown, its request was superseded — so the engine stops
//! spending compute on it. Cancellation is *cooperative*: nothing is
//! interrupted mid-kernel. Instead the parallel dispatchers
//! ([`for_each_chunk`](crate::parallel::for_each_chunk),
//! [`for_each_task`](crate::parallel::for_each_task)) read the token of the
//! calling [`EngineContext`](crate::EngineContext) once per dispatch and check
//! it at every chunk boundary, skipping the remaining chunk bodies once it
//! fires. A dispatch that observed a cancellation leaves its output buffers
//! partially written — the caller that installed the token must discard the
//! result (the serving layer turns it into a typed `Cancelled` error and never
//! reads the data).
//!
//! Tokens travel in the context, not by argument:
//! [`EngineContext::with_cancellation`](crate::EngineContext::with_cancellation)
//! installs one for a scope, and the worker pool carries the submitter's
//! context onto every worker that serves it — so a token installed around a
//! batched execution is observed at chunk granularity arbitrarily deep in the
//! kernel stack, without any kernel signature knowing about it. With no token
//! installed (the common case) the per-chunk check is a `None` test — kernels
//! pay no atomic traffic.
//!
//! Cancellation never changes *completed* results: a chunk either runs in
//! full or not at all, and uncancelled dispatches are bitwise identical to
//! runs without any token installed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag, checked cooperatively at chunk boundaries.
///
/// # Examples
/// ```
/// use rescnn_tensor::CancellationToken;
///
/// let token = CancellationToken::new();
/// assert!(!token.is_cancelled());
/// let watcher = token.clone();
/// token.cancel();
/// assert!(watcher.is_cancelled(), "clones observe the shared flag");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; all clones observe the flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineContext;

    fn current_token() -> Option<CancellationToken> {
        EngineContext::current().cancellation().cloned()
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(current_token().is_none());
        let outer = CancellationToken::new();
        EngineContext::new().with_cancellation(outer).scope(|| {
            assert!(!current_token().expect("outer installed").is_cancelled());
            let inner = CancellationToken::new();
            inner.cancel();
            EngineContext::new().with_cancellation(inner).scope(|| {
                assert!(current_token().expect("inner installed").is_cancelled());
            });
            assert!(
                !current_token().expect("outer restored").is_cancelled(),
                "inner scope must restore the outer token"
            );
        });
        assert!(current_token().is_none());
    }

    #[test]
    fn scope_restores_across_panics() {
        let token = CancellationToken::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            EngineContext::new().with_cancellation(token).scope(|| panic!("boom"));
        }));
        assert!(caught.is_err());
        assert!(current_token().is_none(), "panic must not leak the token");
    }
}
