//! Thread-local scratch-buffer arena.
//!
//! The packed convolution engine needs per-call working memory (packed A/B panels,
//! im2col stripes). Allocating it per layer is what made the seed path
//! allocation-bound, so buffers are recycled through a small thread-local pool:
//! [`take`] hands out a zeroed buffer (reusing a retired allocation when one is big
//! enough) and [`give`] retires it again. In steady state a network forward pass
//! performs zero heap allocations for packing or im2col.
//!
//! Arenas are thread-local, so the property depends on thread lifetime: with the
//! persistent worker pool in [`parallel`](crate::parallel), worker threads — and
//! therefore their arenas — survive across dispatches, and the zero-allocation
//! property holds on workers too.
//!
//! Every pool miss counts one allocation against the calling
//! [`EngineContext`](crate::EngineContext)'s counter, read back with
//! [`heap_allocations`]. A pool worker runs each job in its submitter's context,
//! so the counter sees exactly one computation — the calling thread plus the
//! workers serving it — and nothing another thread does at the same time.

use std::cell::RefCell;

use crate::context::EngineContext;

/// Heap allocations counted against the calling context so far: misses of this
/// module's pools and of the activation [`arena`](crate::arena), on this thread
/// and on every pool worker that ran a job for it.
///
/// Read it before and after a computation: in steady state (after a warm-up
/// pass has populated every participating thread's arena) the difference is
/// zero — the engine's zero-allocation property. Outside every scope the
/// counter is the calling thread's own.
pub fn heap_allocations() -> u64 {
    EngineContext::allocations()
}

/// Retired buffers are only reused for requests at least this fraction of their
/// capacity, so one huge early request cannot pin memory for tiny later ones.
const MIN_UTILIZATION: f32 = 0.25;

/// Maximum number of retired buffers kept per thread.
const POOL_SLOTS: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zero-filled buffer of exactly `len` elements from the thread-local pool,
/// allocating only if no retired buffer is large enough.
pub fn take(len: usize) -> Vec<f32> {
    take_impl(len, true)
}

/// Takes a buffer of exactly `len` elements **without** zeroing reused memory:
/// contents are unspecified (stale values from earlier kernels, or zeros on a
/// fresh allocation).
///
/// For buffers whose every consumed element is overwritten before being read —
/// fully-written packed panels, GEMM outputs in overwrite mode — the [`take`]
/// memset is pure waste that scales with the feature-map size; this variant
/// skips it. Callers must not use it for buffers with *semantic* zero padding
/// (e.g. im2col destinations, where unwritten positions represent the
/// convolution's zero padding). Packed-panel tail lanes that stale values can
/// reach are harmless: the microkernel computes garbage in those lanes and the
/// writeback discards them.
pub fn take_uninit(len: usize) -> Vec<f32> {
    take_impl(len, false)
}

fn take_impl(len: usize, zero: bool) -> Vec<f32> {
    let reused = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let position = pool.iter().position(|buffer| {
            buffer.capacity() >= len && (len as f32) >= (buffer.capacity() as f32) * MIN_UTILIZATION
        });
        position.map(|index| pool.swap_remove(index))
    });
    match reused {
        Some(mut buffer) => {
            if zero {
                buffer.clear();
                buffer.resize(len, 0.0);
            } else {
                // Truncate-then-resize initializes only the region beyond the
                // buffer's previous length; the stale prefix stays as-is.
                if buffer.len() > len {
                    buffer.truncate(len);
                }
                if buffer.len() < len {
                    buffer.resize(len, 0.0);
                }
            }
            buffer
        }
        None => {
            EngineContext::record_allocation();
            vec![0.0; len]
        }
    }
}

thread_local! {
    /// Byte-buffer pool for the int8 engine's quantized im2col panels — separate
    /// from the f32 pool (a `Vec<f32>` cannot be reinterpreted as `Vec<u8>`
    /// without an allocation-contract violation) but counting its misses the
    /// same way, so one counter pins the whole engine's zero-allocation steady
    /// state across both numeric regimes.
    static BYTE_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a byte buffer of exactly `len` elements from the thread-local byte
/// pool, allocating only on a pool miss. Contents are **unspecified** (stale
/// bytes from earlier kernels, or zeros on a fresh allocation): the quantized
/// im2col packer fills its panels with the activation zero-point before
/// writing, so a zeroing pass here would be pure waste.
pub fn take_bytes(len: usize) -> Vec<u8> {
    let reused = BYTE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let position = pool.iter().position(|buffer| {
            buffer.capacity() >= len && (len as f32) >= (buffer.capacity() as f32) * MIN_UTILIZATION
        });
        position.map(|index| pool.swap_remove(index))
    });
    match reused {
        Some(mut buffer) => {
            buffer.resize(len, 0);
            buffer
        }
        None => {
            EngineContext::record_allocation();
            vec![0u8; len]
        }
    }
}

/// Returns a buffer obtained from [`take_bytes`] to the byte pool for reuse.
pub fn give_bytes(buffer: Vec<u8>) {
    if buffer.capacity() == 0 {
        return;
    }
    BYTE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_SLOTS {
            pool.push(buffer);
        } else if let Some(smallest) =
            pool.iter().enumerate().min_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
        {
            if pool[smallest].capacity() < buffer.capacity() {
                pool[smallest] = buffer;
            }
        }
    });
}

/// Returns a buffer obtained from [`take`] to the pool for reuse.
pub fn give(buffer: Vec<f32>) {
    if buffer.capacity() == 0 {
        return;
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_SLOTS {
            pool.push(buffer);
        } else if let Some(smallest) =
            pool.iter().enumerate().min_by_key(|(_, b)| b.capacity()).map(|(i, _)| i)
        {
            if pool[smallest].capacity() < buffer.capacity() {
                pool[smallest] = buffer;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_and_reused() {
        let mut buffer = take(256);
        assert!(buffer.iter().all(|&x| x == 0.0));
        buffer[0] = 7.0;
        let ptr = buffer.as_ptr();
        give(buffer);
        let again = take(200);
        assert!(again.iter().all(|&x| x == 0.0), "reused buffer must be re-zeroed");
        assert_eq!(again.as_ptr(), ptr, "pool should reuse the retired allocation");
        give(again);
    }

    #[test]
    fn oversized_buffers_are_not_wasted_on_tiny_requests() {
        give(vec![0.0; 1 << 20]);
        let tiny = take(16);
        assert!(tiny.capacity() < 1 << 20, "tiny request must not consume the huge buffer");
        give(tiny);
    }
}
