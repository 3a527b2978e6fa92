//! Cache-blocked, register-tiled GEMM with packed panels.
//!
//! The kernel follows the classic BLIS/GotoBLAS decomposition: the
//! output is swept in `NC`-wide column blocks, the shared dimension in
//! `KC`-deep panels, and the rows in `MC`-tall blocks. For each
//! `(jc, pc)` pair the corresponding `kc x nc` slab of `B` is packed
//! into a contiguous buffer laid out as `NR`-wide column panels; for
//! each `ic` the `mc x kc` slab of `A` is packed into `MR`-tall row
//! strips. The innermost micro-kernel then multiplies one `MR x kc`
//! strip against one `kc x NR` panel entirely out of those packed
//! buffers, keeping an `MR x NR` accumulator tile in registers.
//!
//! The micro-kernel itself is dispatched at runtime via
//! [`micro_kernel_for`]: explicit AVX2 (or NEON) kernels from
//! [`crate::simd`] when the CPU has them, otherwise the scalar
//! fallback below — plain safe Rust over `chunks_exact` slices, which
//! LLVM auto-vectorizes to whatever the *compile-time* target allows
//! (baseline x86-64 means SSE2). The explicit kernels exist precisely
//! because the same binary must run on the baseline target yet use
//! the wide units when present.
//!
//! # Determinism
//!
//! Every output element accumulates its `k` products in strictly
//! ascending `k` order through a single accumulator chain: the micro
//! kernel loads the current `C` tile, adds the `kc` products of the
//! current panel in order, and stores the tile back, so successive
//! `pc` panels extend the same left-to-right summation chain. Rust
//! does not licence FP contraction or reassociation, so the blocked
//! kernel produces results bit-identical to a scalar
//! `s += a[i][k] * b[k][j]` loop — see the `naive_` oracles in
//! `ops.rs` and the equivalence proptests.
//!
//! The strided `View` type lets all three transpose variants
//! (`A*B`, `A*B^T`, `A^T*B`) route through the same packed kernel;
//! transposition is absorbed by the packing step.
//!
//! # Threading
//!
//! Every GEMM runs serially on the caller's thread. The products a
//! prediction issues are small enough that forking threads per call
//! cost more than it saved; parallelism comes from the callers
//! instead (one collector thread per serving shard, per-group batch
//! fan-out, per-sample training fan-out, ensemble prediction).

use crate::dispatch::Isa;
use std::cell::RefCell;

/// Row-block height processed per A-packing step (fits L2 with KC).
pub const MC: usize = 64;
/// Depth of one packed panel pair (the k-extent held in cache).
pub const KC: usize = 256;
/// Column-block width of one packed B slab (fits L2/L3).
pub const NC: usize = 256;
/// Micro-kernel tile height (rows per packed A strip).
pub const MR: usize = 4;
/// Micro-kernel tile width (columns per packed B panel).
pub const NR: usize = 8;

/// Multiply-add count above which the blocked/packed kernel beats the
/// streaming loop's lower fixed cost.
pub const BLOCKED_MIN_MULADDS: usize = 16 * 1024;

/// Whether a `(m, k) x (k, n)` product routes to the blocked packed
/// kernel (versus the streaming loop): enough rows to fill a
/// micro-kernel strip and enough total work to amortize packing.
///
/// This is the single definition of the dispatch gate — the three
/// `matmul*_into` entry points, the kernel study in `occu-bench`, and
/// the gate-straddling proptests all call it, so the boundary cannot
/// drift between the kernel and its tests.
pub const fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= MR && m.saturating_mul(k).saturating_mul(n) >= BLOCKED_MIN_MULADDS
}

/// Whether a `(m, k) x (k, n)` product fans out across threads:
/// always `false`, because no f32 GEMM does (see the module docs'
/// "Threading" section). Kept so callers that count parallel calls
/// keep compiling and read zero.
pub fn should_parallelize(_m: usize, _k: usize, _n: usize) -> bool {
    false
}

/// A strided read-only view of a row-major buffer; element `(r, c)`
/// lives at `data[r * row_stride + c * col_stride]`. Transposed
/// operands swap the strides instead of materializing the transpose.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> View<'a> {
    /// Plain row-major view of a `rows x cols` buffer.
    pub(crate) fn normal(data: &'a [f32], cols: usize) -> Self {
        Self { data, row_stride: cols, col_stride: 1 }
    }

    /// Logical transpose of a row-major buffer whose storage has
    /// `storage_cols` columns: element `(r, c)` of the view reads
    /// element `(c, r)` of the storage.
    pub(crate) fn transposed(data: &'a [f32], storage_cols: usize) -> Self {
        Self { data, row_stride: 1, col_stride: storage_cols }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.row_stride + c * self.col_stride]
    }
}

thread_local! {
    /// Per-thread packing buffers (A strips, B panels); grow-only, so
    /// steady-state GEMM performs no heap allocation.
    static PACK_BUFS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Packs the `mc x kc` slab of `a` starting at `(row0, pc)` into
/// `MR`-tall row strips, k-major within a strip:
/// `buf[strip*(kc*MR) + kk*MR + i]`. Short final strips are
/// zero-padded so the micro-kernel never branches on `k`.
fn pack_a(a: View, row0: usize, mc: usize, pc: usize, kc: usize, buf: &mut Vec<f32>) {
    let strips = mc.div_ceil(MR);
    buf.clear();
    buf.resize(strips * kc * MR, 0.0);
    for s in 0..strips {
        let i0 = s * MR;
        let rows = MR.min(mc - i0);
        let strip = &mut buf[s * kc * MR..(s + 1) * kc * MR];
        for (kk, dst) in strip.chunks_exact_mut(MR).enumerate() {
            for (i, d) in dst.iter_mut().take(rows).enumerate() {
                *d = a.at(row0 + i0 + i, pc + kk);
            }
        }
    }
}

/// Packs the `kc x nc` slab of `b` starting at `(pc, jc)` into
/// `NR`-wide column panels, k-major within a panel:
/// `buf[panel*(kc*NR) + kk*NR + j]`. Short final panels are
/// zero-padded.
fn pack_b(b: View, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut Vec<f32>) {
    let panels = nc.div_ceil(NR);
    buf.clear();
    buf.resize(panels * kc * NR, 0.0);
    for p in 0..panels {
        let j0 = p * NR;
        let cols = NR.min(nc - j0);
        let panel = &mut buf[p * kc * NR..(p + 1) * kc * NR];
        for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
            for (j, d) in dst.iter_mut().take(cols).enumerate() {
                *d = b.at(pc + kk, jc + j0 + j);
            }
        }
    }
}

/// `C[0..mr, 0..nr] += strip * panel` for one packed `MR x kc` strip
/// and `kc x NR` panel. The accumulator tile is loaded from `c`,
/// extended in ascending-`k` order, and stored back, so repeated calls
/// over successive `pc` panels continue a single summation chain per
/// element. Padded lanes (`i >= mr` / `j >= nr`) accumulate zeros and
/// are never stored.
/// The micro-kernel signature shared by the scalar oracle and the
/// SIMD kernels: `C[0..mr, 0..nr] += strip * panels`, where the packed
/// `B` slice spans [`KernelSel::panel_step`] adjacent panels (so `nr`
/// can reach `panel_step * NR`).
///
/// Declared `unsafe` because the SIMD entries carry `#[target_feature]`
/// attributes; the pointer a call site holds is only ever produced by
/// [`micro_kernel_for`], which verifies the feature at runtime before
/// handing out anything but the scalar kernel.
pub(crate) type MicroKernelFn =
    unsafe fn(usize, usize, &[f32], &[f32], &mut [f32], usize);

/// A resolved micro-kernel: the ISA actually selected, the kernel
/// entry point, and how many packed `NR`-panels one call consumes
/// (1 for the 8-wide kernels, 2 for the 512-bit and paired-FMA tiles).
#[derive(Clone, Copy)]
pub(crate) struct KernelSel {
    pub(crate) isa: Isa,
    pub(crate) kernel: MicroKernelFn,
    pub(crate) panel_step: usize,
}

/// Resolves the micro-kernel for `isa`, degrading down the ladder
/// (AVX-512 → AVX2 → scalar) when the requested feature is absent on
/// this host — which also makes handing the returned pointer to
/// [`gemm_into`] sound.
pub(crate) fn micro_kernel_for(isa: Isa) -> KernelSel {
    #[cfg(target_arch = "x86_64")]
    {
        if isa == Isa::Avx512
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return KernelSel {
                isa,
                kernel: crate::simd::x86::micro_kernel_avx512,
                panel_step: 2,
            };
        }
        if isa == Isa::Avx2Fma
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelSel { isa, kernel: crate::simd::x86::micro_kernel_fma, panel_step: 2 };
        }
        if matches!(isa, Isa::Avx2 | Isa::Avx2Fma | Isa::Avx512)
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return KernelSel {
                isa: Isa::Avx2,
                kernel: crate::simd::x86::micro_kernel_avx2,
                panel_step: 1,
            };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if isa == Isa::Neon && std::arch::is_aarch64_feature_detected!("neon") {
            return KernelSel {
                isa,
                kernel: crate::simd::arm::micro_kernel_neon,
                panel_step: 1,
            };
        }
    }
    let _ = isa;
    KernelSel { isa: Isa::Scalar, kernel: micro_kernel_scalar as MicroKernelFn, panel_step: 1 }
}

/// Scalar form of the micro-kernel — the always-available bitwise
/// oracle the SIMD kernels in [`crate::simd`] are validated against.
/// (Safe fn items coerce to the `unsafe` [`MicroKernelFn`] pointer.)
#[inline]
fn micro_kernel_scalar(mr: usize, nr: usize, pa_strip: &[f32], pb_panel: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
    }
    for (a, b) in pa_strip.chunks_exact(MR).zip(pb_panel.chunks_exact(NR)) {
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = a[i];
            for (j, acc_ij) in row.iter_mut().enumerate() {
                *acc_ij += ai * b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        c[i * ldc..i * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

/// The inner row sweep for one `(jc, pc)` block whose `B` slab is
/// already packed in `pb_buf`: packs `A` strips and fires the micro
/// kernel over every `(strip, panel-group)` pair. Shared verbatim by
/// the pack-on-the-fly path ([`gemm_into`]) and the prepacked-weight
/// path ([`gemm_prepacked_into`]), so the two are the same summation
/// chain by construction.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    a: View,
    pb_buf: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    pa_buf: &mut Vec<f32>,
    sel: KernelSel,
) {
    let panels = nc.div_ceil(NR);
    for ic in (0..m).step_by(MC) {
        let mc = MC.min(m - ic);
        pack_a(a, ic, mc, pc, kc, pa_buf);
        let strips = mc.div_ceil(MR);
        for s in 0..strips {
            let i0 = s * MR;
            let mr = MR.min(mc - i0);
            let pa_strip = &pa_buf[s * kc * MR..(s + 1) * kc * MR];
            // Wide kernels consume `panel_step` adjacent panels
            // per call; a trailing odd panel goes down alone
            // and the kernel narrows itself to one panel.
            let mut p = 0;
            while p < panels {
                let take = sel.panel_step.min(panels - p);
                let j0 = p * NR;
                let nr = (take * NR).min(nc - j0);
                let pb_panels = &pb_buf[p * kc * NR..(p + take) * kc * NR];
                let c_off = (ic + i0) * n + jc + j0;
                // SAFETY: `sel` comes from `micro_kernel_for`,
                // which only returns a `#[target_feature]` kernel
                // after runtime detection confirmed the feature.
                unsafe { (sel.kernel)(mr, nr, pa_strip, pb_panels, &mut out[c_off..], n) };
                p += take;
            }
        }
    }
}

/// A `B` operand packed once, ahead of time, into the exact `(jc, pc)`
/// slab sequence [`gemm_into`] would produce on the fly — plus the raw
/// row-major values so small products can still take the streaming
/// loop bit-identically. Built by [`crate::Matrix::prepack_b`]; plans
/// compiled by `occu-plan` hold one per weight matrix so the per-call
/// `pack_b` cost disappears from the serving path.
///
/// The panel layout depends only on the blocking constants (`NR`-wide
/// k-major panels), never on the micro-kernel ISA: one packing serves
/// every rung of the dispatch ladder, including `OCCU_FORCE_SCALAR=1`.
#[derive(Clone, Debug)]
pub struct PackedB {
    pub(crate) k: usize,
    pub(crate) n: usize,
    /// Row-major copy of the original operand for the streaming path.
    pub(crate) raw: Vec<f32>,
    /// Packed slabs indexed `jc_index * kblocks + pc_index`, matching
    /// the `jc`-outer / `pc`-inner traversal of [`gemm_into`].
    slabs: Vec<Vec<f32>>,
}

impl PackedB {
    /// Packs the `k x n` view `b` (raw row-major copy in `raw`).
    pub(crate) fn pack(b: View, k: usize, n: usize, raw: Vec<f32>) -> Self {
        debug_assert_eq!(raw.len(), k * n);
        let mut slabs = Vec::new();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let mut buf = Vec::new();
                pack_b(b, pc, kc, jc, nc, &mut buf);
                slabs.push(buf);
            }
        }
        Self { k, n, raw, slabs }
    }

    /// Operand shape `(k, n)` this packing was built for.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Heap bytes held (raw copy + packed slabs).
    pub fn bytes(&self) -> usize {
        (self.raw.len() + self.slabs.iter().map(Vec::len).sum::<usize>())
            * std::mem::size_of::<f32>()
    }
}

/// [`gemm_into`] against a prepacked `B`: identical block traversal
/// and micro-kernel calls, with the per-call `pack_b` replaced by a
/// slab lookup. Bitwise-equal to the pack-on-the-fly path.
pub(crate) fn gemm_prepacked_into(
    a: View,
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sel: KernelSel,
) {
    let (kdim, n) = (pb.k, pb.n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let kblocks = kdim.div_ceil(KC).max(1);
    PACK_BUFS.with(|bufs| {
        let pa_buf = &mut bufs.borrow_mut().0;
        for (jci, jc) in (0..n).step_by(NC).enumerate() {
            let nc = NC.min(n - jc);
            for (pci, pc) in (0..kdim).step_by(KC).enumerate() {
                let kc = KC.min(kdim - pc);
                let pb_buf = &pb.slabs[jci * kblocks + pci];
                gemm_block(a, pb_buf, out, m, n, jc, nc, pc, kc, pa_buf, sel);
            }
        }
    });
}

/// `out += A * B` through the packed blocked kernel, where `A` is the
/// `m x kdim` view `a` and `B` the `kdim x n` view `b`. `out` must be
/// the full `m x n` row-major buffer (zeroed by the caller for a plain
/// product). Runs serially on the caller's thread.
pub(crate) fn gemm_into(
    a: View,
    b: View,
    m: usize,
    kdim: usize,
    n: usize,
    out: &mut [f32],
    sel: KernelSel,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    PACK_BUFS.with(|bufs| {
        let (pa_buf, pb_buf) = &mut *bufs.borrow_mut();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..kdim).step_by(KC) {
                let kc = KC.min(kdim - pc);
                pack_b(b, pc, kc, jc, nc, pb_buf);
                gemm_block(a, pb_buf, out, m, n, jc, nc, pc, kc, pa_buf, sel);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_shape_fans_out() {
        // Tall-skinny, plain large, tiny and single-row products all
        // run serially on the caller's thread.
        for (m, k, n) in [(4, 2048, 4), (128, 64, 96), (8, 8, 8), (1, 1 << 20, 64)] {
            assert!(!should_parallelize(m, k, n), "({m}, {k}, {n}) fans out");
        }
    }

    #[test]
    fn blocked_gate_is_single_sourced() {
        // Exactly at the muladd floor with enough rows: blocked.
        assert!(use_blocked(MR, 64, 64));
        // One muladd short of the floor: streaming.
        assert!(!use_blocked(MR, 64, 63));
        // Too few rows to fill a strip, however much total work.
        assert!(!use_blocked(MR - 1, 1 << 12, 1 << 12));
        // The gate must not overflow on absurd shapes.
        assert!(use_blocked(usize::MAX, usize::MAX, usize::MAX));
    }

    #[test]
    fn scalar_isa_resolves_to_scalar_kernel() {
        let sel = micro_kernel_for(Isa::Scalar);
        assert_eq!(sel.isa, Isa::Scalar);
        assert_eq!(sel.panel_step, 1);
        // Requesting an ISA this arch/host lacks degrades down the
        // ladder rather than handing out an uncallable kernel.
        #[cfg(not(target_arch = "aarch64"))]
        {
            let sel = micro_kernel_for(Isa::Neon);
            assert_eq!(sel.isa, Isa::Scalar);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let sel = micro_kernel_for(Isa::Avx2);
            assert_eq!(sel.isa, Isa::Scalar);
        }
        #[cfg(target_arch = "x86_64")]
        {
            // AVX-512 resolution: the paired-panel kernel on hosts
            // that have it, otherwise the AVX2 or scalar rung.
            let sel = micro_kernel_for(Isa::Avx512);
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                assert_eq!(sel.isa, Isa::Avx512);
                assert_eq!(sel.panel_step, 2);
            } else {
                assert_ne!(sel.isa, Isa::Avx512);
                assert_eq!(sel.panel_step, 1);
            }
        }
    }

    #[test]
    fn views_index_transposes() {
        // 2x3 storage; transposed view reads it as 3x2.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = View::normal(&data, 3);
        assert_eq!(v.at(1, 2), 6.0);
        let t = View::transposed(&data, 3);
        assert_eq!(t.at(2, 1), 6.0);
        assert_eq!(t.at(0, 1), 4.0);
    }
}
