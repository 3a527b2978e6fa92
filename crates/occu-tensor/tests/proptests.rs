//! Property-based tests for the tensor kernels.

use occu_tensor::{
    assert_close, matmul_i8_into_isa, Isa, Matrix, PackedI8, QuantIsa, QuantizedMatrix,
};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in [1, 12] and small-valued
/// elements (keeps float error bounded so tolerances stay tight).
fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-4.0f32..4.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Two chain-compatible matrices A (m x k), B (k x n).
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=10, 1usize..=10, 1usize..=10).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(-3.0f32..3.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = prop::collection::vec(-3.0f32..3.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// A matmul pair on the packed blocked kernel whose row count
/// straddles the `MC = 64` row-block height, so generated cases sweep
/// one or two A-packing blocks (and land right on the boundary), with
/// `n` leaving ragged `NR = 8` panel tails. Every f32 GEMM is serial;
/// the test names keep the `par_threshold` suffix of the row-parallel
/// gate this strategy was first written for.
fn threshold_matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (62usize..=66, 28usize..=36, 110usize..=135).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(-1.0f32..1.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = prop::collection::vec(-1.0f32..1.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// Shapes straddling BOTH blocked-GEMM dispatch gates: `m` spans the
/// `MR = 4` skinny-row cutoff and `m * k * n` spans
/// `BLOCKED_MIN_MULADDS = 16384`, so generated cases land on the
/// streaming path, the packed cache-blocked path, and the exact
/// boundaries between them.
fn blocked_threshold_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (2usize..=6, 24usize..=40, 96usize..=160).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(-2.0f32..2.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = prop::collection::vec(-2.0f32..2.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// Ragged shapes for the SIMD-vs-scalar equality sweep: `m` spans the
/// `MR = 4` strip tail (including `m < MR`, which streams), `k`
/// includes the `k = 1` degenerate, and `n` is never a multiple of
/// the 8/16-lane vector widths — so the wide kernels sweep partial
/// strips, odd trailing panels, and masked column tails. The products
/// straddle `BLOCKED_MIN_MULADDS`, landing on both the streaming and
/// packed paths.
fn ragged_simd_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    // `pick == 0` forces the `k = 1` degenerate (one in six cases).
    (1usize..=9, 0usize..=5, 48usize..=80, 33usize..=47).prop_flat_map(|(m, pick, kbase, n)| {
        let k = if pick == 0 { 1 } else { kbase };
        let a = prop::collection::vec(-2.0f32..2.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = prop::collection::vec(-2.0f32..2.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// A matrix for the quantize→dequantize round-trip property. Zero
/// rows are forced one in four cases so the exact-zero property is
/// exercised, not just stumbled into.
fn quant_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=9, 1usize..=40, 0usize..=3).prop_flat_map(|(r, c, zero_row)| {
        prop::collection::vec(-8.0f32..8.0, r * c).prop_map(move |mut data| {
            if zero_row == 0 {
                let zr = (r - 1).min(1);
                data[zr * c..(zr + 1) * c].fill(0.0);
            }
            Matrix::from_vec(r, c, data)
        })
    })
}

/// Unfused softmax reference: shift, exponentiate, sum, and divide as
/// four separate passes (vs the fused single sweep of
/// `softmax_rows_into`).
fn unfused_softmax(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let x = m.row(r);
        let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = x.iter().map(|&v| (v - max).exp()).collect();
        let total: f32 = exps.iter().sum();
        for (c, e) in exps.iter().enumerate() {
            out.set(r, c, e / total);
        }
    }
    out
}

/// Unfused layernorm reference: materialized mean and variance
/// passes, then a normalization pass.
fn unfused_layernorm(m: &Matrix, eps: f32) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    let n = m.cols() as f32;
    for r in 0..m.rows() {
        let x = m.row(r);
        let mean: f32 = x.iter().sum::<f32>() / n;
        let centered: Vec<f32> = x.iter().map(|&v| v - mean).collect();
        let var: f32 = centered.iter().map(|&d| d * d).sum::<f32>() / n;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (c, d) in centered.iter().enumerate() {
            out.set(r, c, d * inv_std);
        }
    }
    out
}

/// Textbook i-j-k triple loop: the unambiguous reference both matmul
/// dispatch paths (streaming i-k-j and packed blocked) must agree with.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity((a, b) in matmul_pair()) {
        // (AB)^T == B^T A^T
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-4);
    }

    #[test]
    fn matmul_matches_naive_across_par_threshold((a, b) in threshold_matmul_pair()) {
        // Row counts straddle the MC row-block height, so this
        // exercises one and two A-packing blocks and the exact
        // boundary between them. Every block extends the same per-row
        // accumulation order, so any divergence from the reference
        // beyond float tolerance means a blocking bug (stale rows,
        // wrong block offsets, bad panel tails).
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn matmul_transb_matches_naive_across_par_threshold((a, b) in threshold_matmul_pair()) {
        let bt = b.transpose();
        assert_close(&a.matmul_transb(&bt), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn prepacked_matmul_is_bitwise_equal((a, b) in blocked_threshold_pair()) {
        // Shapes straddle both dispatch gates, so the prepacked path
        // must agree bit-for-bit on the streaming loop, the packed
        // kernel, and the boundary between them.
        let packed = b.prepack_b();
        let mut plain = Matrix::zeros(a.rows(), b.cols());
        let mut pre = Matrix::zeros(a.rows(), b.cols());
        a.matmul_into(&b, &mut plain);
        a.matmul_prepacked_into(&packed, &mut pre);
        prop_assert_eq!(plain, pre);
    }

    #[test]
    fn prepacked_matmul_is_bitwise_equal_on_ragged_shapes((a, b) in ragged_simd_pair()) {
        let packed = b.prepack_b();
        let mut plain = Matrix::zeros(a.rows(), b.cols());
        let mut pre = Matrix::zeros(a.rows(), b.cols());
        a.matmul_into(&b, &mut plain);
        a.matmul_prepacked_into(&packed, &mut pre);
        prop_assert_eq!(plain, pre);
    }

    #[test]
    fn matmul_transb_consistent((a, b) in matmul_pair()) {
        let bt = b.transpose();
        assert_close(&a.matmul_transb(&bt), &a.matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_transa_consistent((a, b) in matmul_pair()) {
        let at = a.transpose();
        assert_close(&at.matmul_transa(&b), &a.matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_distributes_over_add((a, b) in matmul_pair(), scale in -2.0f32..2.0) {
        // A(B + sB) == AB + s*AB
        let b2 = b.scale(scale);
        let left = a.matmul(&b.add(&b2));
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&b2));
        assert_close(&left, &right, 1e-3);
    }

    #[test]
    fn add_commutes(m in small_matrix(8)) {
        let n = m.map(|x| x * 0.5 - 1.0);
        prop_assert_eq!(m.add(&n), n.add(&m));
    }

    #[test]
    fn scale_compose(m in small_matrix(8), s in -3.0f32..3.0, t in -3.0f32..3.0) {
        assert_close(&m.scale(s).scale(t), &m.scale(s * t), 1e-4);
    }

    #[test]
    fn softmax_rows_is_distribution(m in small_matrix(10)) {
        let s = m.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn vcat_preserves_rows(m in small_matrix(8)) {
        let v = m.vcat(&m);
        prop_assert_eq!(v.rows(), 2 * m.rows());
        prop_assert_eq!(v.slice_rows(0, m.rows()), m.clone());
        prop_assert_eq!(v.slice_rows(m.rows(), 2 * m.rows()), m);
    }

    #[test]
    fn hcat_preserves_cols(m in small_matrix(8)) {
        let h = m.hcat(&m);
        prop_assert_eq!(h.cols(), 2 * m.cols());
        for r in 0..m.rows() {
            prop_assert_eq!(&h.row(r)[..m.cols()], m.row(r));
            prop_assert_eq!(&h.row(r)[m.cols()..], m.row(r));
        }
    }

    #[test]
    fn sum_rows_matches_total(m in small_matrix(10)) {
        let total: f32 = m.sum();
        let by_cols: f32 = m.sum_rows().sum();
        prop_assert!((total - by_cols).abs() <= 1e-3 * (1.0 + total.abs()));
    }

    #[test]
    fn gather_rows_identity(m in small_matrix(8)) {
        let idx: Vec<usize> = (0..m.rows()).collect();
        prop_assert_eq!(m.gather_rows(&idx), m);
    }

    #[test]
    fn norm_scales_absolutely(m in small_matrix(8), s in -3.0f32..3.0) {
        let scaled = m.scale(s).norm();
        let expect = m.norm() * s.abs();
        prop_assert!((scaled - expect).abs() <= 1e-3 * (1.0 + expect));
    }

    #[test]
    fn blocked_matmul_is_bitwise_equal_to_naive((a, b) in blocked_threshold_pair()) {
        // Not a tolerance check: the packed cache-blocked kernel keeps
        // every output element on one ascending-k accumulation chain,
        // so it must reproduce the scalar oracle bit for bit on both
        // sides of the dispatch thresholds.
        prop_assert_eq!(a.matmul(&b), a.naive_matmul(&b));
    }

    #[test]
    fn blocked_matmul_transb_is_bitwise_equal_to_naive((a, b) in blocked_threshold_pair()) {
        let bt = b.transpose();
        prop_assert_eq!(a.matmul_transb(&bt), a.naive_matmul(&b));
    }

    #[test]
    fn blocked_matmul_transa_is_bitwise_equal_to_naive((a, b) in blocked_threshold_pair()) {
        let at = a.transpose();
        prop_assert_eq!(at.matmul_transa(&b), a.naive_matmul(&b));
    }

    #[test]
    fn simd_kernels_are_bitwise_equal_to_scalar_on_ragged_shapes((a, b) in ragged_simd_pair()) {
        // Every bitwise-exact ISA must reproduce the forced-scalar
        // blocked kernel exactly — ISAs absent on this host degrade
        // down the dispatch ladder and the property holds trivially.
        let (m, _) = a.shape();
        let n = b.cols();
        let mut scalar = Matrix::zeros(m, n);
        a.matmul_into_isa(&b, &mut scalar, Isa::Scalar);
        let bt = b.transpose();
        let mut scalar_tb = Matrix::zeros(m, n);
        a.matmul_transb_into_isa(&bt, &mut scalar_tb, Isa::Scalar);
        for isa in [Isa::Avx2, Isa::Avx512, Isa::Neon] {
            let mut out = Matrix::zeros(m, n);
            a.matmul_into_isa(&b, &mut out, isa);
            prop_assert_eq!(&out, &scalar, "{} matmul diverged from scalar", isa.name());
            let mut out_tb = Matrix::zeros(m, n);
            a.matmul_transb_into_isa(&bt, &mut out_tb, isa);
            prop_assert_eq!(&out_tb, &scalar_tb, "{} matmul_transb diverged from scalar", isa.name());
        }
    }

    #[test]
    fn fma_matmul_stays_within_error_budget((a, b) in ragged_simd_pair()) {
        // The FMA kernel keeps products unrounded, so it is held to a
        // relative-error budget against the naive oracle instead of
        // bit equality. On hosts without FMA it degrades to a bitwise
        // tier and passes trivially.
        let (m, _) = a.shape();
        let n = b.cols();
        let mut fma = Matrix::zeros(m, n);
        a.matmul_into_isa(&b, &mut fma, Isa::Avx2Fma);
        assert_close(&fma, &a.naive_matmul(&b), 1e-4);
    }

    #[test]
    fn softmax_rows_into_is_bitwise_equal_to_allocating(m in small_matrix(9)) {
        let mut out = Matrix::zeros(m.rows(), m.cols());
        m.softmax_rows_into(&mut out);
        prop_assert_eq!(out, m.softmax_rows());
    }

    #[test]
    fn fused_softmax_matches_unfused_reference(m in small_matrix(9)) {
        // small_matrix starts at dimension 1, so 1-row and 1-column
        // degenerates are generated here too.
        let mut fused = Matrix::zeros(m.rows(), m.cols());
        m.softmax_rows_into(&mut fused);
        assert_close(&fused, &unfused_softmax(&m), 1e-5);
    }

    #[test]
    fn fused_layernorm_matches_unfused_reference(m in small_matrix(9)) {
        let mut fused = Matrix::zeros(m.rows(), m.cols());
        m.layernorm_rows_into(1e-5, &mut fused);
        assert_close(&fused, &unfused_layernorm(&m, 1e-5), 1e-4);
        prop_assert_eq!(m.layernorm_rows(1e-5), fused);
    }

    #[test]
    fn quantize_dequantize_round_trip_is_bounded(m in quant_matrix()) {
        // Per-row symmetric quantization with half-away-from-zero
        // rounding: the round-trip error never exceeds half a scale
        // step, zero rows survive exactly (scale 0), and the
        // asymmetric i8::MIN code point is never emitted.
        let q = QuantizedMatrix::quantize(&m, 127);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let row = m.row(r);
            let bound = q.scales()[r] * 0.5 + q.scales()[r] * 1e-5;
            if row.iter().all(|&v| v == 0.0) {
                prop_assert_eq!(q.scales()[r], 0.0);
                prop_assert!(back.row(r).iter().all(|&v| v == 0.0));
                continue;
            }
            for (c, (&orig, &rt)) in row.iter().zip(back.row(r)).enumerate() {
                let err = (orig - rt).abs();
                prop_assert!(err <= bound, "row {} col {}: err {} > scale/2 {}", r, c, err, bound);
            }
        }
        prop_assert!(q.data().iter().all(|&v| v != i8::MIN));
    }

    #[test]
    fn int8_simd_is_bitwise_equal_to_scalar_on_ragged_shapes((a, b) in ragged_simd_pair()) {
        // ragged_simd_pair gives n % 16 != 0 (33..=47), the k = 1
        // degenerate, and m < MR strips — partial panels, padded
        // quads, and short row tiles all in play. The integer
        // accumulation is exact on every tier, so the SIMD kernels
        // must match the scalar i32 oracle bit for bit; absent tiers
        // degrade down the ladder and pass trivially.
        let (m, _) = a.shape();
        let n = b.cols();
        let p = PackedI8::pack(&b);
        let mut scalar = Matrix::zeros(m, n);
        matmul_i8_into_isa(&a, &p, &mut scalar, QuantIsa::Scalar);
        for isa in [QuantIsa::Avx2, QuantIsa::Vnni] {
            let mut out = Matrix::zeros(m, n);
            matmul_i8_into_isa(&a, &p, &mut out, isa);
            prop_assert_eq!(&out, &scalar, "{} int8 kernel diverged from scalar", isa.name());
        }
    }

    #[test]
    fn one_column_softmax_and_layernorm_are_exact(col in prop::collection::vec(-4.0f32..4.0, 1..=8)) {
        // Single-column rows are fully determined: softmax of one
        // element is exactly 1, and centering one element gives
        // exactly 0 — no tolerance allowed.
        let m = Matrix::from_vec(col.len(), 1, col);
        let mut s = Matrix::zeros(m.rows(), 1);
        m.softmax_rows_into(&mut s);
        prop_assert!(s.data().iter().all(|&x| x == 1.0));
        let mut l = Matrix::zeros(m.rows(), 1);
        m.layernorm_rows_into(1e-5, &mut l);
        prop_assert!(l.data().iter().all(|&x| x == 0.0));
    }
}

#[test]
fn prepacked_matmul_crosses_slab_boundaries_bitwise() {
    // k and n both exceed KC/NC = 256, so the prepacked B spans a
    // 2x2 grid of slabs — the slab indexing must reproduce the
    // jc-outer / pc-inner traversal exactly.
    let mut rng = occu_tensor::SeededRng::new(0xB10C);
    let (m, k, n) = (37, 300, 300);
    let a = Matrix::from_fn(m, k, |_, _| rng.uniform(-0.5, 0.5));
    let b = Matrix::from_fn(k, n, |_, _| rng.uniform(-0.5, 0.5));
    let packed = b.prepack_b();
    assert_eq!(packed.shape(), (k, n));
    assert!(packed.bytes() > k * n * 4);
    let mut plain = Matrix::zeros(m, n);
    let mut pre = Matrix::zeros(m, n);
    a.matmul_into(&b, &mut plain);
    a.matmul_prepacked_into(&packed, &mut pre);
    assert_eq!(plain, pre);
}
