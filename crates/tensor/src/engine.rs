//! The packed GEMM execution core.
//!
//! This module implements the register-blocked microkernel and panel packing that
//! every fast execution path (packed GEMM, 1×1 convolution, packed im2col
//! convolution) is built on:
//!
//! * **Microkernel** — an [`MR`]`×`[`NR`] f32 accumulator tile kept entirely in
//!   registers while streaming over the shared dimension. With
//!   `-C target-cpu=native` (set in `.cargo/config.toml`) the inner loop compiles to
//!   FMA vector code.
//! * **Packing** — A is repacked into `MR`-row column-major panels and B into
//!   `NR`-column row-major panels, so the microkernel reads both operands at stride
//!   1 regardless of the original layouts. Panels live in the thread-local
//!   [`scratch`](crate::scratch) arena and are reused across layers.
//! * **Parallelism** — output rows are split into panel-aligned chunks executed on
//!   the persistent worker pool ([`parallel::for_each_chunk`]): per-call dispatch
//!   cost is a worker wakeup, and long-lived workers keep their scratch arenas warm
//!   across calls. Each output element is produced by exactly one task in one fixed
//!   accumulation order, so results are bitwise identical for every thread count.
//!
//! The convolution dispatch layer in [`conv`](crate::conv) lowers convolutions onto
//! [`packed_gemm_strided`]; dense GEMM callers use the [`crate::gemm_packed`]
//! wrapper.

use crate::{parallel, scratch};

/// True when the AVX-512 microkernel is compiled in.
const HAS_AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// Microkernel tile height (rows of A / C).
pub const MR: usize = 6;

/// Microkernel tile width (columns of B / C): two vectors per accumulator row —
/// 6×32 with AVX-512 (12 zmm accumulators), 6×16 with AVX2 (12 ymm accumulators
/// plus two B vectors and one broadcast fit the 16 registers). The tile shape is
/// fixed at compile time because the packed-panel layouts depend on it.
pub const NR: usize = if HAS_AVX512 { 32 } else { 16 };

/// Shared-dimension block size: one `KC × NR` B block (16–32 KiB) stays L1-resident
/// while it is reused across every row tile of a worker's chunk.
pub const KC: usize = 256;

/// Row-chunk height handed to one worker task: several microkernel tiles, so each
/// L1-resident B block amortizes across [`MC`]` / `[`MR`] tiles.
pub const MC: usize = 8 * MR;

/// Work (in multiply–accumulates) below which spawning worker threads costs more
/// than it saves.
pub const PARALLEL_MIN_MACS: u64 = 1 << 20;

/// Number of f32 elements a packed B stripe may occupy (4 MiB), bounding scratch
/// memory for high-resolution layers.
pub const MAX_B_PANEL_ELEMS: usize = 1 << 20;

/// Pointwise activation fused into a kernel's output write (the GEMM epilogue or
/// the Winograd output transform), saving the separate full-tensor pass a caller
/// would otherwise run after the convolution.
///
/// Applying the same function in a fused or a separate pass is bitwise
/// equivalent (it is pointwise on the already-final value), so fusion never
/// changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusedActivation {
    /// No activation: `y`.
    #[default]
    None,
    /// `max(y, 0)`.
    Relu,
    /// `clamp(y, 0, 6)` (the MobileNetV2 activation).
    Relu6,
}

impl FusedActivation {
    /// Applies the activation to one already-final value.
    #[inline]
    pub fn apply(self, y: f32) -> f32 {
        match self {
            FusedActivation::None => y,
            FusedActivation::Relu => y.max(0.0),
            FusedActivation::Relu6 => y.clamp(0.0, 6.0),
        }
    }
}

/// The fused tail of an overwrite-mode GEMM: per-row bias, an optional residual
/// add, and a pointwise activation, all applied in the output write of the final
/// KC slice instead of separate sweeps over the destination.
///
/// Ordering matches the separate-pass composition exactly — partial sums
/// accumulate across KC slices, then `y += residual`, then `y = activation(y)` —
/// so a fused epilogue is bitwise identical to running the convolution followed
/// by `add_relu_in_place`-style passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-row constants added to every element of the row (`None` = 0.0),
    /// indexed relative to the call's `row0`.
    pub bias: Option<&'a [f32]>,
    /// Residual operand added elementwise after the reduction completes,
    /// indexed exactly like the destination window (`r * row_stride +
    /// col_offset + j`).
    pub residual: Option<&'a [f32]>,
    /// Activation applied last.
    pub activation: FusedActivation,
}

impl<'a> Epilogue<'a> {
    /// An epilogue that only adds the per-row bias (the historical Overwrite
    /// behaviour).
    pub fn with_bias(bias: Option<&'a [f32]>) -> Self {
        Epilogue { bias, residual: None, activation: FusedActivation::None }
    }
}

/// How C rows are written back by [`packed_gemm_strided`].
#[derive(Debug, Clone, Copy)]
pub enum WriteMode<'a> {
    /// `C[r][j] = activation(acc + bias[r] + residual[r][j])` — used by
    /// convolutions, whose output tiles are computed in a single pass over the
    /// full shared dimension. Bias is added on the first KC slice; residual and
    /// activation apply on the last.
    Overwrite {
        /// The fused output tail.
        epilogue: Epilogue<'a>,
    },
    /// `C[r][j] += acc` — the historical GEMM contract (callers pre-initialize C).
    Accumulate,
}

/// The left-hand GEMM operand: either plain row-major data packed on the fly
/// (per KC slice, into scratch), or panels prepacked once by
/// [`PreparedGemmA::prepare`] — the layout weights are stored in so the hot
/// path never repacks them.
#[derive(Debug, Clone, Copy)]
pub enum GemmLhs<'a> {
    /// Row-major data with leading dimension `lda`; packed into panels per call.
    Rows {
        /// The matrix data.
        data: &'a [f32],
        /// Leading dimension (elements between consecutive rows).
        lda: usize,
    },
    /// Prepacked full-K panels: tile `t` (rows `[t*MR, t*MR+MR)`) occupies
    /// `panels[t*k*MR .. (t+1)*k*MR]` with element `(r, p)` at `p*MR + r`.
    /// `row0` must be `MR`-aligned when this variant is used.
    Packed {
        /// The packed panel buffer.
        panels: &'a [f32],
        /// Shared dimension the panels were packed for.
        k: usize,
    },
}

/// A left-hand GEMM operand packed once into microkernel panel layout.
///
/// In this engine convolution weights are the *left* operand of every lowered
/// GEMM (`C[out_ch][pixels] = W[out_ch][k] · im2col[k][pixels]`), so this is the
/// type conv/FC weights are prepacked into at model-load time: the per-call
/// [`pack_a_panel`] pass — identical for every forward, since weights never
/// change — disappears from the hot path. Packing is pure data movement, so
/// results are bitwise identical to the pack-per-call path.
#[derive(Debug, Clone)]
pub struct PreparedGemmA {
    panels: Vec<f32>,
    rows: usize,
    k: usize,
}

impl PreparedGemmA {
    /// Packs `rows × k` row-major data (leading dimension `lda`) into full-K
    /// `MR`-row panels. Tail rows of the last tile are zero-padded.
    pub fn prepare(a: &[f32], lda: usize, rows: usize, k: usize) -> Self {
        let tiles = rows.div_ceil(MR);
        let mut panels = vec![0.0f32; tiles * k * MR];
        for tile in 0..tiles {
            let tile_rows = MR.min(rows - tile * MR);
            pack_a_panel(a, tile * MR, tile_rows, 0, k, lda, &mut panels[tile * k * MR..]);
        }
        PreparedGemmA { panels, rows, k }
    }

    /// Logical rows the panels cover.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shared dimension the panels were packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The operand view [`packed_gemm_strided`] consumes.
    pub fn as_lhs(&self) -> GemmLhs<'_> {
        GemmLhs::Packed { panels: &self.panels, k: self.k }
    }

    /// Bytes resident in the packed panels.
    pub fn resident_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }
}

/// A right-hand GEMM operand packed once into [`pack_b`]'s `NR`-column panels.
///
/// Fully-connected weights are the *right* operand of the batched linear layer
/// (`logits[n][o] = x[n][i] · Wᵀ[i][o]`), so the classifier prepacks `Wᵀ` here
/// once instead of packing it on every forward.
#[derive(Debug, Clone)]
pub struct PreparedGemmB {
    panels: Vec<f32>,
    k: usize,
    cols: usize,
}

impl PreparedGemmB {
    /// Packs row-major `k × cols` data into `NR`-column panels.
    pub fn prepare(b: &[f32], k: usize, cols: usize) -> Self {
        let mut panels = vec![0.0f32; cols.div_ceil(NR) * k * NR];
        pack_b(b, k, cols, 0, cols, &mut panels);
        PreparedGemmB { panels, k, cols }
    }

    /// Packs the *transpose* of row-major `rows × k` data (so logical panel
    /// element `(p, j)` is `w[j*k + p]`) — the layout a fully-connected weight
    /// matrix `W[out][in]` needs to serve as the right operand `Wᵀ[in][out]`.
    pub fn prepare_transposed(w: &[f32], rows: usize, k: usize) -> Self {
        debug_assert!(w.len() >= rows * k);
        let cols = rows;
        let mut panels = vec![0.0f32; cols.div_ceil(NR) * k * NR];
        for j in 0..cols {
            let panel = j / NR;
            let within = j % NR;
            for p in 0..k {
                panels[panel * k * NR + p * NR + within] = w[j * k + p];
            }
        }
        PreparedGemmB { panels, k, cols }
    }

    /// The packed panel buffer, in the layout [`packed_gemm_strided`] expects.
    pub fn panels(&self) -> &[f32] {
        &self.panels
    }

    /// Shared dimension the panels were packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical columns the panels cover.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Packs `count` columns of row-major `src` (logical `rows × src_cols`, starting at
/// column `col0`) into `NR`-wide panels: panel `p` holds columns
/// `[p*NR, p*NR+NR)` as `rows` consecutive `NR`-element groups. Tail columns are
/// zero-padded (the destination must arrive zeroed, as [`scratch::take`]
/// guarantees).
pub fn pack_b(
    src: &[f32],
    rows: usize,
    src_cols: usize,
    col0: usize,
    count: usize,
    dst: &mut [f32],
) {
    let panels = count.div_ceil(NR);
    debug_assert!(dst.len() >= panels * rows * NR);
    for panel in 0..panels {
        let j0 = panel * NR;
        let width = NR.min(count - j0);
        let panel_dst = &mut dst[panel * rows * NR..(panel + 1) * rows * NR];
        for p in 0..rows {
            let src_row = &src[p * src_cols + col0 + j0..p * src_cols + col0 + j0 + width];
            panel_dst[p * NR..p * NR + width].copy_from_slice(src_row);
        }
    }
}

/// Packs up to [`MR`] rows × `count` columns of row-major `a` (leading dimension
/// `lda`, starting at `(row0, col0)`) into a column-major panel: element `(r, p)`
/// lands at `dst[p*MR + r]`. Missing tail rows are zero-padded (destination must
/// arrive zeroed).
pub fn pack_a_panel(
    a: &[f32],
    row0: usize,
    rows: usize,
    col0: usize,
    count: usize,
    lda: usize,
    dst: &mut [f32],
) {
    debug_assert!(rows <= MR && dst.len() >= count * MR);
    for r in 0..rows {
        let row = &a[(row0 + r) * lda + col0..(row0 + r) * lda + col0 + count];
        for (p, &value) in row.iter().enumerate() {
            dst[p * MR + r] = value;
        }
    }
}

/// The register-tiled inner kernel: accumulates `apanel · bpanel` over `k` steps
/// into an `MR × NR` tile. Panels must be laid out by [`pack_a_panel`] / [`pack_b`].
///
/// On x86-64 builds with AVX2+FMA enabled (the workspace builds with
/// `-C target-cpu=native`) this statically dispatches to a hand-scheduled intrinsics
/// kernel holding all 12 accumulator vectors in registers; other targets use a
/// portable loop that auto-vectorizes.
#[inline]
fn microkernel(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        microkernel_avx512(k, apanel, bpanel)
    }
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(target_feature = "avx512f")
    ))]
    {
        microkernel_avx2(k, apanel, bpanel)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
    {
        microkernel_portable(k, apanel, bpanel)
    }
}

/// AVX-512 microkernel: 12 × `__m512` accumulators (6 rows × 32 columns), two B
/// loads and six A broadcasts per k-step.
///
/// Safety: only compiled when AVX-512F is statically enabled, so the intrinsics are
/// always executable; the `unsafe` blocks cover raw-pointer panel reads, whose
/// bounds (`k * MR` / `k * NR` elements) are asserted on entry.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn microkernel_avx512(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    use core::arch::x86_64::{
        __m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    unsafe {
        let mut acc: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..k {
            let b_lo = _mm512_loadu_ps(bp);
            let b_hi = _mm512_loadu_ps(bp.add(16));
            macro_rules! fma_row {
                ($r:literal) => {
                    let a = _mm512_set1_ps(*ap.add($r));
                    acc[$r][0] = _mm512_fmadd_ps(a, b_lo, acc[$r][0]);
                    acc[$r][1] = _mm512_fmadd_ps(a, b_hi, acc[$r][1]);
                };
            }
            fma_row!(0);
            fma_row!(1);
            fma_row!(2);
            fma_row!(3);
            fma_row!(4);
            fma_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let mut out = [[0.0f32; NR]; MR];
        for r in 0..MR {
            _mm512_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
            _mm512_storeu_ps(out[r].as_mut_ptr().add(16), acc[r][1]);
        }
        out
    }
}

#[allow(dead_code)]
#[inline]
fn microkernel_portable(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (avals, bvals) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(k) {
        let mut b = [0.0f32; NR];
        b.copy_from_slice(bvals);
        for r in 0..MR {
            let a = avals[r];
            for c in 0..NR {
                // `mul_add` lowers to a hardware FMA when the target has one; rustc
                // never contracts `a * b + c` on its own.
                if cfg!(target_feature = "fma") {
                    acc[r][c] = a.mul_add(b[c], acc[r][c]);
                } else {
                    acc[r][c] += a * b[c];
                }
            }
        }
    }
    acc
}

/// AVX2+FMA microkernel: 12 × `__m256` accumulators (6 rows × 16 columns), two B
/// loads and six A broadcasts per k-step — FMA-port bound rather than load bound.
///
/// Safety: only compiled when AVX2 and FMA are statically enabled, so the intrinsics
/// are always executable; the `unsafe` blocks cover raw-pointer panel reads, whose
/// bounds (`k * MR` / `k * NR` elements) are asserted on entry.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
#[inline]
fn microkernel_avx2(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    use core::arch::x86_64::{
        __m256, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    assert!(apanel.len() >= k * MR && bpanel.len() >= k * NR);
    unsafe {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        let mut ap = apanel.as_ptr();
        let mut bp = bpanel.as_ptr();
        for _ in 0..k {
            let b_lo = _mm256_loadu_ps(bp);
            let b_hi = _mm256_loadu_ps(bp.add(8));
            // Fully unrolled over rows so every accumulator stays pinned to a register.
            macro_rules! fma_row {
                ($r:literal) => {
                    let a = _mm256_broadcast_ss(&*ap.add($r));
                    acc[$r][0] = _mm256_fmadd_ps(a, b_lo, acc[$r][0]);
                    acc[$r][1] = _mm256_fmadd_ps(a, b_hi, acc[$r][1]);
                };
            }
            fma_row!(0);
            fma_row!(1);
            fma_row!(2);
            fma_row!(3);
            fma_row!(4);
            fma_row!(5);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let mut out = [[0.0f32; NR]; MR];
        for r in 0..MR {
            _mm256_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
            _mm256_storeu_ps(out[r].as_mut_ptr().add(8), acc[r][1]);
        }
        out
    }
}

/// Writes one output row's epilogue slice: combine the accumulator with the
/// partial sum (or bias on a single-slice reduction), add the optional residual,
/// apply the activation. Monomorphized per activation so the inner loop is
/// branch-free.
#[inline]
fn write_row_epilogue(
    out_row: &mut [f32],
    acc_row: &[f32],
    first_slice: bool,
    base: f32,
    skip_row: Option<&[f32]>,
    activation: FusedActivation,
) {
    match activation {
        FusedActivation::None => {
            write_row_epilogue_with(out_row, acc_row, first_slice, base, skip_row, |y| y)
        }
        FusedActivation::Relu => {
            write_row_epilogue_with(out_row, acc_row, first_slice, base, skip_row, |y| y.max(0.0))
        }
        FusedActivation::Relu6 => {
            write_row_epilogue_with(out_row, acc_row, first_slice, base, skip_row, |y| {
                y.clamp(0.0, 6.0)
            })
        }
    }
}

#[inline]
fn write_row_epilogue_with(
    out_row: &mut [f32],
    acc_row: &[f32],
    first_slice: bool,
    base: f32,
    skip_row: Option<&[f32]>,
    act: impl Fn(f32) -> f32,
) {
    match skip_row {
        Some(skip) => {
            for ((o, &v), &s) in out_row.iter_mut().zip(acc_row).zip(skip) {
                let partial = if first_slice { v + base } else { *o + v };
                *o = act(partial + s);
            }
        }
        None => {
            for (o, &v) in out_row.iter_mut().zip(acc_row) {
                let partial = if first_slice { v + base } else { *o + v };
                *o = act(partial);
            }
        }
    }
}

/// Computes `rows` rows of `C = A · B` against pre-packed B panels, writing into a
/// strided destination.
///
/// * `lhs` — the left operand: row-major data packed per KC slice into scratch, or
///   panels prepacked once by [`PreparedGemmA`] (in which case `row0` must be
///   `MR`-aligned and the packed `k` must match). Rows `[row0, row0+rows)` are
///   consumed.
/// * `bpack` — B packed by [`pack_b`]: `cols` logical columns over a shared
///   dimension of `k`.
/// * `dst` — destination window. Logical element `(r, j)` (with `r` relative to
///   `row0`) is stored at `dst[r * row_stride + col_offset + j]`.
///
/// In [`WriteMode::Overwrite`] the epilogue's bias lands on the first KC slice and
/// its residual + activation on the last, so partial sums accumulate exactly as
/// the unfused path would before the pointwise tail runs — fused output is
/// bitwise identical to conv-then-separate-passes.
///
/// The caller guarantees `dst` is large enough; out-of-range tile tails are never
/// touched.
#[allow(clippy::too_many_arguments)]
pub fn packed_gemm_strided(
    lhs: GemmLhs<'_>,
    row0: usize,
    rows: usize,
    k: usize,
    bpack: &[f32],
    cols: usize,
    dst: &mut [f32],
    row_stride: usize,
    col_offset: usize,
    mode: WriteMode<'_>,
) {
    let col_panels = cols.div_ceil(NR);
    let tiles = rows.div_ceil(MR);
    let kc_step = KC;
    // One A block (on-the-fly packing only): every tile of this chunk over one
    // column slice, packed once per slice and reused across all B panels (it
    // stays cache-resident). Prepacked operands skip this buffer entirely.
    let mut apack = match lhs {
        GemmLhs::Rows { .. } => Some(scratch::take(tiles * kc_step * MR)),
        GemmLhs::Packed { panels, k: packed_k } => {
            assert_eq!(packed_k, k, "prepacked panels were built for a different k");
            assert!(row0.is_multiple_of(MR), "prepacked GEMM requires MR-aligned row chunks");
            assert!(panels.len() >= (row0 / MR + tiles) * k * MR, "prepacked panels too short");
            None
        }
    };
    let mut pc = 0;
    while pc < k {
        let kc = kc_step.min(k - pc);
        let first_slice = pc == 0;
        let last_slice = pc + kc == k;
        // Tiles pack densely at the current slice's `kc * MR` stride, so only the
        // region actually consumed needs (re-)zeroing — and only when a partial
        // tail tile leaves padding rows that packing does not overwrite. This
        // matters for short shared dimensions (e.g. the Winograd per-point GEMMs,
        // k = in_channels), where zeroing the full KC-sized buffer per call would
        // cost more than the packing itself.
        let tile_stride = kc * MR;
        if let (GemmLhs::Rows { data, lda }, Some(apack)) = (lhs, apack.as_mut()) {
            if !rows.is_multiple_of(MR) && !first_slice {
                apack[..tiles * tile_stride].iter_mut().for_each(|x| *x = 0.0);
            }
            for tile in 0..tiles {
                let tile_rows = MR.min(rows - tile * MR);
                pack_a_panel(
                    data,
                    row0 + tile * MR,
                    tile_rows,
                    pc,
                    kc,
                    lda,
                    &mut apack[tile * tile_stride..(tile + 1) * tile_stride],
                );
            }
        }
        for panel in 0..col_panels {
            let j0 = panel * NR;
            let width = NR.min(cols - j0);
            // The KC × NR slice of this B panel: L1-resident across all row tiles.
            let bslice = &bpack[panel * k * NR + pc * NR..panel * k * NR + (pc + kc) * NR];
            for tile in 0..tiles {
                let tile_rows = MR.min(rows - tile * MR);
                let atile: &[f32] = match (&lhs, &apack) {
                    (GemmLhs::Rows { .. }, Some(apack)) => {
                        &apack[tile * tile_stride..(tile + 1) * tile_stride]
                    }
                    (GemmLhs::Packed { panels, .. }, _) => {
                        let t = row0 / MR + tile;
                        &panels[t * k * MR + pc * MR..t * k * MR + (pc + kc) * MR]
                    }
                    _ => unreachable!("apack exists exactly for the Rows variant"),
                };
                let acc = microkernel(kc, atile, bslice);
                for r in 0..tile_rows {
                    let start = (tile * MR + r) * row_stride + col_offset + j0;
                    let out_row = &mut dst[start..start + width];
                    match mode {
                        WriteMode::Overwrite { epilogue } if last_slice => {
                            let base = if first_slice {
                                epilogue.bias.map_or(0.0, |b| b[tile * MR + r])
                            } else {
                                0.0
                            };
                            let skip_row = epilogue.residual.map(|s| &s[start..start + width]);
                            write_row_epilogue(
                                out_row,
                                &acc[r][..width],
                                first_slice,
                                base,
                                skip_row,
                                epilogue.activation,
                            );
                        }
                        WriteMode::Overwrite { epilogue } if first_slice => {
                            let base = epilogue.bias.map_or(0.0, |b| b[tile * MR + r]);
                            for (o, &v) in out_row.iter_mut().zip(&acc[r][..width]) {
                                *o = v + base;
                            }
                        }
                        // Middle KC slices accumulate onto the partial sums, as does
                        // every slice in Accumulate mode.
                        _ => {
                            for (o, &v) in out_row.iter_mut().zip(&acc[r][..width]) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
        pc += kc;
    }
    if let Some(apack) = apack {
        scratch::give(apack);
    }
}

/// Splits the rows of a C region into `MR`-aligned chunks and runs
/// [`packed_gemm_strided`] on worker threads. `region` must hold `m` rows of
/// `row_stride` elements each; row `r` of the product lands at
/// `region[r * row_stride + col_offset ..]`. The epilogue's `bias` is indexed by
/// absolute row and its `residual` exactly like `region` (it must have the same
/// length); both are sliced per chunk here.
#[allow(clippy::too_many_arguments)]
pub fn parallel_packed_gemm(
    lhs: GemmLhs<'_>,
    m: usize,
    k: usize,
    bpack: &[f32],
    cols: usize,
    region: &mut [f32],
    row_stride: usize,
    col_offset: usize,
    epilogue: Epilogue<'_>,
    accumulate: bool,
    parallel: bool,
) {
    // Chunk height balances B-block reuse (taller chunks amortize each L1-resident
    // KC × NR slice across more row tiles) against load balance (enough chunks to
    // feed every worker). Small or heavily-threaded products fall back to single
    // tiles.
    let threads = parallel::num_threads();
    let rows_per_chunk = if !parallel || m >= threads * MC { MC } else { MR };
    let chunk_len = rows_per_chunk * row_stride;
    let want_parallel = parallel && (m as u64) * (k as u64) * (cols as u64) >= PARALLEL_MIN_MACS;
    if let Some(residual) = epilogue.residual {
        debug_assert_eq!(residual.len(), region.len(), "residual must mirror the region");
    }
    parallel::for_each_chunk(region, chunk_len, want_parallel, |chunk_index, chunk| {
        let row0 = chunk_index * rows_per_chunk;
        let rows = rows_per_chunk.min(m - row0);
        let mode = if accumulate {
            WriteMode::Accumulate
        } else {
            let start = chunk_index * chunk_len;
            WriteMode::Overwrite {
                epilogue: Epilogue {
                    bias: epilogue.bias.map(|b| &b[row0..row0 + rows]),
                    residual: epilogue.residual.map(|s| &s[start..start + chunk.len()]),
                    activation: epilogue.activation,
                },
            }
        };
        packed_gemm_strided(lhs, row0, rows, k, bpack, cols, chunk, row_stride, col_offset, mode);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
            }
        }
        out
    }

    #[test]
    fn pack_b_round_trips_columns() {
        let rows = 3usize;
        let cols = 10usize;
        let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let panels = cols.div_ceil(NR);
        let mut packed = vec![0.0; panels * rows * NR];
        pack_b(&src, rows, cols, 0, cols, &mut packed);
        for j in 0..cols {
            for p in 0..rows {
                let panel = j / NR;
                let within = j % NR;
                assert_eq!(packed[panel * rows * NR + p * NR + within], src[p * cols + j]);
            }
        }
    }

    #[test]
    fn strided_gemm_matches_reference() {
        let (m, n, k) = (13, 21, 17);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5) % 19) as f32 - 9.0).collect();
        let expect = reference(m, n, k, &a, &b);

        let panels = n.div_ceil(NR);
        let mut bpack = vec![0.0; panels * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        // Write into a strided destination with a column offset.
        let row_stride = n + 5;
        let col_offset = 3;
        let mut dst = vec![-1.0; m * row_stride + col_offset];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut dst,
            row_stride,
            col_offset,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(None) },
        );
        for i in 0..m {
            for j in 0..n {
                let got = dst[i * row_stride + col_offset + j];
                assert!((got - expect[i * n + j]).abs() < 1e-3, "({i},{j}): {got}");
            }
        }
        // Elements outside the window must be untouched.
        assert!(dst[..col_offset].iter().all(|&x| x == -1.0));

        // The prepacked left operand must reproduce the on-the-fly path bitwise.
        let prepared = PreparedGemmA::prepare(&a, k, m, k);
        assert_eq!(prepared.rows(), m);
        assert_eq!(prepared.k(), k);
        assert!(prepared.resident_bytes() > 0);
        let mut pre = vec![-1.0; m * row_stride + col_offset];
        packed_gemm_strided(
            prepared.as_lhs(),
            0,
            m,
            k,
            &bpack,
            n,
            &mut pre,
            row_stride,
            col_offset,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(None) },
        );
        assert_eq!(pre, dst, "prepacked lhs must be bitwise identical");
    }

    #[test]
    fn bias_and_accumulate_modes() {
        let (m, n, k) = (9, 6, 4);
        let a = vec![1.0; m * k];
        let b = vec![2.0; k * n];
        let bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let mut bpack = vec![0.0; n.div_ceil(NR) * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        let mut dst = vec![0.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut dst,
            n,
            0,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(Some(&bias)) },
        );
        for i in 0..m {
            assert!(dst[i * n..(i + 1) * n].iter().all(|&x| (x - (8.0 + i as f32)).abs() < 1e-6));
        }

        let mut acc_dst = vec![1.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut acc_dst,
            n,
            0,
            WriteMode::Accumulate,
        );
        assert!(acc_dst.iter().all(|&x| (x - 9.0).abs() < 1e-6));
    }

    #[test]
    fn fused_epilogue_matches_separate_passes_bitwise() {
        // Multi-slice reduction (k > KC) so bias lands on the first slice and the
        // residual + activation on the last.
        let (m, n, k) = (11, 37, KC + 17);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 29) % 23) as f32 * 0.05 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 31) % 19) as f32 * 0.05 - 0.45).collect();
        let bias: Vec<f32> = (0..m).map(|i| (i as f32 - 5.0) * 0.3).collect();
        let skip: Vec<f32> = (0..m * n).map(|i| ((i * 13) % 11) as f32 * 0.2 - 1.0).collect();
        let mut bpack = vec![0.0; n.div_ceil(NR) * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        // Unfused: plain biased GEMM, then the separate residual + ReLU sweep.
        let mut plain = vec![0.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut plain,
            n,
            0,
            WriteMode::Overwrite { epilogue: Epilogue::with_bias(Some(&bias)) },
        );
        let separate: Vec<f32> = plain.iter().zip(&skip).map(|(&o, &s)| (o + s).max(0.0)).collect();

        let mut fused = vec![0.0; m * n];
        packed_gemm_strided(
            GemmLhs::Rows { data: &a, lda: k },
            0,
            m,
            k,
            &bpack,
            n,
            &mut fused,
            n,
            0,
            WriteMode::Overwrite {
                epilogue: Epilogue {
                    bias: Some(&bias),
                    residual: Some(&skip),
                    activation: FusedActivation::Relu,
                },
            },
        );
        for (f, s) in fused.iter().zip(&separate) {
            assert_eq!(f.to_bits(), s.to_bits(), "fused epilogue must be bitwise identical");
        }
    }

    #[test]
    fn fused_activation_applies() {
        assert_eq!(FusedActivation::None.apply(-3.0), -3.0);
        assert_eq!(FusedActivation::Relu.apply(-3.0), 0.0);
        assert_eq!(FusedActivation::Relu.apply(2.0), 2.0);
        assert_eq!(FusedActivation::Relu6.apply(9.0), 6.0);
    }

    #[test]
    fn prepared_gemm_b_transposed_matches_pack_b() {
        let (k, cols) = (5usize, 7usize);
        // Row-major cols × k weight (the FC convention), and its transpose k × cols.
        let w: Vec<f32> = (0..cols * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut wt = vec![0.0f32; k * cols];
        for j in 0..cols {
            for p in 0..k {
                wt[p * cols + j] = w[j * k + p];
            }
        }
        let from_rows = PreparedGemmB::prepare(&wt, k, cols);
        let transposed = PreparedGemmB::prepare_transposed(&w, cols, k);
        assert_eq!(from_rows.panels(), transposed.panels());
        assert_eq!(transposed.k(), k);
        assert_eq!(transposed.cols(), cols);
    }

    #[test]
    fn parallel_driver_is_deterministic_across_thread_counts() {
        let (m, n, k) = (40usize, 120usize, 230usize);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13) % 31) as f32 * 0.1 - 1.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 11) % 29) as f32 * 0.1 - 1.4).collect();
        let mut bpack = vec![0.0; n.div_ceil(NR) * k * NR];
        pack_b(&b, k, n, 0, n, &mut bpack);

        let mut results = Vec::new();
        for threads in [1usize, 2, 5] {
            let mut out = vec![0.0f32; m * n];
            crate::EngineContext::new().with_threads(threads).scope(|| {
                parallel_packed_gemm(
                    GemmLhs::Rows { data: &a, lda: k },
                    m,
                    k,
                    &bpack,
                    n,
                    &mut out,
                    n,
                    0,
                    Epilogue::default(),
                    false,
                    true,
                )
            });
            results.push(out);
        }
        assert_eq!(results[0], results[1], "1 vs 2 threads must agree bitwise");
        assert_eq!(results[0], results[2], "1 vs 5 threads must agree bitwise");
        let expect = reference(m, n, k, &a, &b);
        for (x, y) in results[0].iter().zip(&expect) {
            assert!((x - y).abs() < 1e-2);
        }
    }
}
