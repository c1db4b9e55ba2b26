//! Explicit wide-f32 kernels for the scoring and update hot loops.
//!
//! This module owns every dense-f32 kernel in the workspace:
//!
//! * [`dot`] / [`dot_bias`] — the historical scalar kernels (4 independent
//!   accumulator lanes), moved here verbatim from `model.rs` so there is
//!   exactly one definition. [`MfModel::score`](crate::MfModel::score) still
//!   uses them, which keeps default training trajectories bit-identical to
//!   every release before the wide kernels existed.
//! * [`dot_wide`] / [`dot_bias_wide`] — the 8-lane wide kernels behind bulk
//!   scoring ([`scores_for_user`](crate::MfModel::scores_for_user) and the
//!   blocked [`scores_for_users`](crate::MfModel::scores_for_users) sweep).
//! * [`axpy_update`] / [`saxpy`] — elementwise factor-update kernels used by
//!   the SGD paths unconditionally (see "Reassociation" below).
//! * [`gather_rank_bits`] / [`bracket`] — the integer kernels of the DSS
//!   positive draw: the rank column (one order-preserving [`rank_bits`]
//!   word per observed item, fetched by an AVX2 gather) and the one-pass
//!   bracket that counts the words below a bound and packs those inside.
//!   They only move, flip and compare bits — no float arithmetic, whose
//!   NaN signs the compiler may change — so their two paths write the
//!   same words; the property tests check it on every length 0..=300.
//!
//! # Dispatch strategy
//!
//! Each wide kernel has two implementations with *identical arithmetic
//! structure*:
//!
//! 1. a **portable** path written over `[f32; 8]` lane arrays with fixed
//!    unroll and a fixed reduction tree (always compiled, the reference the
//!    property tests pin everything against), and
//! 2. an **AVX2** path (`#[target_feature(enable = "avx2")]`, x86-64 only,
//!    behind the `simd` cargo feature) selected at runtime via
//!    `is_x86_feature_detected!`.
//!
//! The AVX2 path deliberately uses `_mm256_mul_ps` + `_mm256_add_ps` rather
//! than fused multiply-add: FMA skips the intermediate rounding step that the
//! portable `a * b` / `acc + p` sequence performs, so fusing would break the
//! bit-identity contract between the two paths. Each AVX2 lane executes the
//! same IEEE-754 operation sequence as the corresponding portable lane, and
//! both paths finish with the same scalar reduction tree, so on any input the
//! two return values are equal *to the bit*. `simd_kernels.rs` proptests
//! enforce this across lengths 0..=257.
//!
//! # Reassociation
//!
//! An 8-lane dot product sums in a different order than a scalar loop (or
//! the old 4-lane kernel), so `dot_wide` is *not* bit-equal to [`dot`] —
//! wide scoring is a reassociation. Policy:
//!
//! * **Inference scoring** uses the wide kernels by default; correctness is
//!   pinned against the portable wide kernel, not against historical output.
//! * **Training** keeps the scalar [`dot`] inside `sgd_step` unless the
//!   opt-in `simd_training` config flag is set, so default training runs
//!   (and the `threads = 1` bit-identity guarantee) are unchanged.
//! * **Elementwise updates** ([`axpy_update`], [`saxpy`]) never reassociate
//!   — lane `t` only ever touches element `t` — so they are bit-identical
//!   to the scalar loops they replace and are used unconditionally.

#![allow(unsafe_code)]

use clapf_data::{ItemId, UserId};

/// Lane width of the wide kernels (f32 elements per vector register).
pub const LANES: usize = 8;

/// Scalar dense dot product; the historical scoring kernel.
///
/// Accumulates four independent lanes so the compiler can keep the
/// multiply-adds in flight instead of serializing on one accumulator
/// (f32 addition is not associative, so a single-lane loop forms a
/// dependency chain the optimizer must preserve). This is the kernel
/// [`MfModel::score`](crate::MfModel::score) uses, and its exact operation
/// order is load-bearing: default training trajectories depend on it.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 4];
    let a4 = a.chunks_exact(4);
    let b4 = b.chunks_exact(4);
    let mut tail = 0.0f32;
    for (x, y) in a4.remainder().iter().zip(b4.remainder()) {
        tail += x * y;
    }
    for (ca, cb) in a4.zip(b4) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// `dot(user, item) + bias`, the full scalar scoring kernel. The bias is
/// added after the lane reduction — the exact operation order of the
/// historical `dot(...) + bias` call sites — so hoisting it here changes
/// no bits.
#[inline]
pub fn dot_bias(a: &[f32], b: &[f32], bias: f32) -> f32 {
    dot(a, b) + bias
}

/// The fixed reduction tree shared by every wide-dot path: pairwise over
/// the 8 lanes, `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
#[inline]
fn reduce8(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Portable 8-lane wide dot product — the reference implementation the
/// arch-gated path must match bit-for-bit.
///
/// Two independent 8-lane accumulators consume 16 elements per iteration
/// (two dependency chains keep the adds pipelined), an 8-wide cleanup chunk
/// folds into the first accumulator, and the final `< 8` elements accumulate
/// into a scalar tail. Reduction order is fixed:
/// `(reduce8(acc0) + reduce8(acc1)) + tail`.
#[inline]
pub fn dot_wide_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let a16 = a.chunks_exact(2 * LANES);
    let b16 = b.chunks_exact(2 * LANES);
    let (ra, rb) = (a16.remainder(), b16.remainder());
    for (ca, cb) in a16.zip(b16) {
        for l in 0..LANES {
            acc0[l] += ca[l] * cb[l];
            acc1[l] += ca[LANES + l] * cb[LANES + l];
        }
    }
    let a8 = ra.chunks_exact(LANES);
    let b8 = rb.chunks_exact(LANES);
    let (ta, tb) = (a8.remainder(), b8.remainder());
    for (ca, cb) in a8.zip(b8) {
        for l in 0..LANES {
            acc0[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ta.iter().zip(tb) {
        tail += x * y;
    }
    (reduce8(acc0) + reduce8(acc1)) + tail
}

/// Wide dot product with runtime dispatch: AVX2 when the CPU has it (and
/// the `simd` feature is on), the portable 8-lane kernel otherwise. The two
/// paths return bit-identical results (see the module docs).
#[inline]
pub fn dot_wide(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: dispatch is guarded by the runtime AVX2 check.
        return unsafe { avx2::dot_wide(a, b) };
    }
    dot_wide_portable(a, b)
}

/// The arch-gated wide dot, exposed for differential testing: `Some` when
/// the AVX2 path is compiled in and the CPU supports it, `None` otherwise.
pub fn dot_wide_arch(a: &[f32], b: &[f32]) -> Option<f32> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: guarded by the runtime AVX2 check.
        return Some(unsafe { avx2::dot_wide(a, b) });
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = (a, b);
    None
}

/// `dot_wide(user, item) + bias`, the wide scoring kernel behind bulk
/// inference ([`scores_for_user`](crate::MfModel::scores_for_user) and the
/// blocked batch sweep).
#[inline]
pub fn dot_bias_wide(a: &[f32], b: &[f32], bias: f32) -> f32 {
    dot_wide(a, b) + bias
}

/// Elementwise SGD row update `row[t] += step · grad[t] − decay · row[t]`.
///
/// Lane `t` reads and writes only element `t`, so the wide path is
/// bit-identical to the scalar loop it replaces and is safe to use
/// unconditionally — including inside default (non-SIMD-training) fits.
#[inline]
pub fn axpy_update(row: &mut [f32], grad: &[f32], step: f32, decay: f32) {
    debug_assert_eq!(row.len(), grad.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: guarded by the runtime AVX2 check; `row`/`grad` are
        // equal-length slices.
        unsafe { avx2::axpy_update(row.as_mut_ptr(), grad, row.len(), step, decay) };
        return;
    }
    axpy_update_portable(row, grad, step, decay);
}

/// Portable reference for [`axpy_update`].
#[inline]
pub fn axpy_update_portable(row: &mut [f32], grad: &[f32], step: f32, decay: f32) {
    for (w, &g) in row.iter_mut().zip(grad) {
        *w += step * g - decay * *w;
    }
}

/// Elementwise accumulation `out[t] += c · x[t]` (the gradient-assembly
/// kernel of `sgd_step`). Same no-reassociation argument as
/// [`axpy_update`]: bit-identical to the scalar loop, used unconditionally.
#[inline]
pub fn saxpy(out: &mut [f32], c: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: guarded by the runtime AVX2 check; equal-length slices.
        unsafe { avx2::saxpy(out.as_mut_ptr(), c, x, out.len()) };
        return;
    }
    saxpy_portable(out, c, x);
}

/// Portable reference for [`saxpy`].
#[inline]
pub fn saxpy_portable(out: &mut [f32], c: f32, x: &[f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o += c * v;
    }
}

/// Raw-pointer form of [`axpy_update`] for the Hogwild shared-model view,
/// which must not materialize a `&mut [f32]` over memory other threads are
/// concurrently updating. Arithmetic and dispatch are identical to
/// [`axpy_update`], so a single-threaded run through this kernel matches
/// the safe one bit-for-bit.
///
/// Under contention, the AVX2 path widens the torn-write granularity from
/// one `f32` to one 32-byte store; the Hogwild contract in `shared.rs`
/// already covers torn row updates, and lane `t` still only ever touches
/// element `t`.
///
/// # Safety
/// `row` must be valid for reads and writes of `grad.len()` consecutive
/// `f32`s. Concurrent unsynchronized access is the caller's documented
/// Hogwild trade-off.
#[inline]
pub unsafe fn axpy_update_raw(row: *mut f32, grad: &[f32], step: f32, decay: f32) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: AVX2 checked; validity of `row` is the caller's contract.
        unsafe { avx2::axpy_update(row, grad, grad.len(), step, decay) };
        return;
    }
    // SAFETY: validity of `row` is the caller's contract.
    unsafe {
        for (q, &g) in grad.iter().enumerate() {
            let p = row.add(q);
            let w = p.read();
            p.write(w + (step * g - decay * w));
        }
    }
}

/// The order-preserving `u32` image of `value` that the DSS rank keys are
/// built from: unsigned integer order on the result is the float order of
/// `value` (ascending, or descending when `descending`). -0.0 folds into
/// 0.0, since the two compare equal as floats, and a NaN lands beyond the
/// infinity of its sign instead of failing a comparison. The fold works
/// on the bits, not as `value + 0.0`: float arithmetic may return a NaN
/// of either sign, and the optimizer may rewrite `-v + 0.0` as `0.0 - v`.
/// The sign flip is branch-free: a negative float's bits are inverted, a
/// non-negative one's get the top bit set.
#[inline]
pub fn rank_bits(value: f32, descending: bool) -> u32 {
    let bits = value.to_bits();
    let bits = if bits == 0x8000_0000 { 0 } else { bits };
    let ordered = bits ^ ((bits as i32 >> 31) as u32 | 0x8000_0000);
    ordered ^ descending_mask(descending)
}

/// All ones when `descending`: XOR with it reverses the unsigned order.
#[inline]
fn descending_mask(descending: bool) -> u32 {
    0u32.wrapping_sub(u32::from(descending))
}

/// Portable reference for [`gather_rank_bits`]: `out[t]` becomes
/// `rank_bits(±table[items[t]·dim + q], descending)`, negated when
/// `negate`. Panics when an item's row lies outside `table`.
pub fn gather_rank_bits_portable(
    table: &[f32],
    dim: usize,
    q: usize,
    items: &[ItemId],
    negate: bool,
    descending: bool,
    out: &mut Vec<u32>,
) {
    assert!(q < dim, "factor {q} out of range for dim {dim}");
    let column = &table[q..];
    out.clear();
    out.extend(items.iter().map(|&t| {
        let v = column[t.index() * dim];
        rank_bits(if negate { -v } else { v }, descending)
    }));
}

/// The rank column of the DSS positive draw: one [`rank_bits`] word per
/// item, read from factor `q` of the row-major `dim`-wide `table`. The
/// AVX2 path fetches eight factors per `_mm256_i32gather_ps` and applies
/// the same negate, zero fold and sign flip lane by lane, so both paths
/// write the same words.
pub fn gather_rank_bits(
    table: &[f32],
    dim: usize,
    q: usize,
    items: &[ItemId],
    negate: bool,
    descending: bool,
    out: &mut Vec<u32>,
) {
    if !gather_rank_bits_arch(table, dim, q, items, negate, descending, out) {
        gather_rank_bits_portable(table, dim, q, items, negate, descending, out);
    }
}

/// The arch-gated [`gather_rank_bits`], exposed for differential testing:
/// fills `out` and returns `true` when the AVX2 path is compiled in, the
/// CPU supports it and every gather index fits its `i32` lane; returns
/// `false` without touching `out` otherwise.
pub fn gather_rank_bits_arch(
    table: &[f32],
    dim: usize,
    q: usize,
    items: &[ItemId],
    negate: bool,
    descending: bool,
    out: &mut Vec<u32>,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() && q < dim && table.len() <= i32::MAX as usize {
        let max_id = items.iter().map(|t| t.0).max().unwrap_or(0) as usize;
        let in_table = max_id
            .checked_mul(dim)
            .and_then(|s| s.checked_add(q))
            .is_some_and(|last| last < table.len());
        if items.is_empty() || in_table {
            out.clear();
            out.reserve(items.len());
            // SAFETY: AVX2 checked above. Every index `id·dim + q` is at
            // most `max_id·dim + q < table.len() ≤ i32::MAX`, so each
            // gather reads inside `table` and its `i32` offset does not
            // overflow; `out` has capacity for `items.len()` words, which
            // the kernel writes before `set_len` exposes them.
            unsafe {
                avx2::gather_rank_bits(
                    table.as_ptr(),
                    dim as i32,
                    q as i32,
                    items,
                    if negate { 0x8000_0000 } else { 0 },
                    descending_mask(descending),
                    out.as_mut_ptr(),
                );
                out.set_len(items.len());
            }
            return true;
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = (table, dim, q, items, negate, descending, out);
    false
}

/// Portable reference for [`bracket`].
pub fn bracket_portable(vals: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) -> (usize, usize) {
    // Every word is written and only the kept ones advance the cursor: no
    // branch on the words.
    out.clear();
    out.resize(vals.len(), 0);
    let (mut below, mut kept) = (0, 0);
    for &v in vals {
        out[kept] = v;
        kept += usize::from(lo <= v && v <= hi);
        below += usize::from(v < lo);
    }
    out.truncate(kept);
    (below, kept)
}

/// One pass that brackets `vals` by `[lo, hi]` (unsigned, inclusive):
/// returns `(below, kept)`, the count of values under `lo` and of those
/// inside the bracket, and leaves the `kept` bracketed values in `out` in
/// input order. The AVX2 path compares eight values at a time after a
/// sign flip (AVX2 has only signed compares), turns the in-bracket lanes
/// into a bit mask and packs them to the front of the register through a
/// 256-entry permutation table, so both paths write the same `out`.
pub fn bracket(vals: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) -> (usize, usize) {
    bracket_arch(vals, lo, hi, out).unwrap_or_else(|| bracket_portable(vals, lo, hi, out))
}

/// The arch-gated [`bracket`], exposed for differential testing: `Some`
/// when the AVX2 path is compiled in and the CPU supports it, `None`
/// (leaving `out` untouched) otherwise.
pub fn bracket_arch(vals: &[u32], lo: u32, hi: u32, out: &mut Vec<u32>) -> Option<(usize, usize)> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() && std::is_x86_feature_detected!("popcnt") {
        out.clear();
        out.reserve(vals.len());
        // SAFETY: AVX2 and POPCNT checked above; `out` has capacity for
        // `vals.len()` words, the most the kernel writes (see its
        // `# Safety`), and `set_len` exposes only the `kept` it wrote.
        let (below, kept) = unsafe { avx2::bracket(vals, lo, hi, out.as_mut_ptr()) };
        // SAFETY: the kernel initialised `out[..kept]`, `kept ≤ vals.len()`.
        unsafe { out.set_len(kept) };
        return Some((below, kept));
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = (vals, lo, hi, out);
    None
}

/// Runtime AVX2 capability check (cached by the standard library's feature
/// detection after the first call).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn avx2_available() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// Whether bulk scoring currently dispatches to an arch-specific vector
/// path (as opposed to the portable 8-lane kernel). Recorded by the scale
/// bench so throughput numbers are attributable.
pub fn arch_dispatch_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        avx2_available()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// The AVX2 kernels. Every function mirrors its portable counterpart
/// operation-for-operation; see the module docs for why that (and the
/// absence of FMA) is load-bearing.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    use super::LANES;
    use clapf_data::ItemId;
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_andnot_si256,
        _mm256_castps256_ps128, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmpeq_epi32,
        _mm256_cmpgt_epi32, _mm256_cvtepu8_epi32,
        _mm256_extractf128_ps, _mm256_hadd_ps, _mm256_i32gather_ps, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_movemask_ps, _mm256_mul_ps, _mm256_mullo_epi32, _mm256_or_si256,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_srai_epi32, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_ps, _mm256_xor_si256, _mm_add_ps, _mm_add_ss, _mm_cvtsi64_si128, _mm_cvtss_f32, _mm_hadd_ps,
        _mm_movehdup_ps, _mm_storeu_ps,
    };

    /// Mirrors `dot_wide_portable`: two ymm accumulators over 16-element
    /// chunks, an 8-wide cleanup chunk, a scalar tail, and the same final
    /// reduction tree (the accumulators are stored back to `[f32; 8]` and
    /// reduced with the identical scalar expression).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_wide(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let pairs = n / (2 * LANES);
        for c in 0..pairs {
            let at0 = _mm256_loadu_ps(pa.add(c * 2 * LANES));
            let bt0 = _mm256_loadu_ps(pb.add(c * 2 * LANES));
            let at1 = _mm256_loadu_ps(pa.add(c * 2 * LANES + LANES));
            let bt1 = _mm256_loadu_ps(pb.add(c * 2 * LANES + LANES));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(at0, bt0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(at1, bt1));
        }
        let mut done = pairs * 2 * LANES;
        if n - done >= LANES {
            let at = _mm256_loadu_ps(pa.add(done));
            let bt = _mm256_loadu_ps(pb.add(done));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(at, bt));
            done += LANES;
        }
        let mut tail = 0.0f32;
        for t in done..n {
            tail += *pa.add(t) * *pb.add(t);
        }
        reduce2_ymm(acc0, acc1) + tail
    }

    /// `reduce8(a) + reduce8(b)` computed with vector horizontal adds.
    ///
    /// `hadd` performs exactly the adjacent-pair additions of the portable
    /// reduction tree: after two rounds, lane 0/4 hold `a`'s lower/upper
    /// 4-lane subtrees and lane 1/5 hold `b`'s. The cross-half `add_ps`
    /// completes `reduce8(a)` in lane 0 and `reduce8(b)` in lane 1, and the
    /// final `add_ss` joins them — every IEEE-754 addition has the same
    /// operands in the same order as the scalar expression, so the result
    /// is bit-identical to it at a fraction of the per-score cost.
    #[target_feature(enable = "avx2")]
    unsafe fn reduce2_ymm(a: __m256, b: __m256) -> f32 {
        let h = _mm256_hadd_ps(a, b);
        let h2 = _mm256_hadd_ps(h, h);
        let lo = _mm256_castps256_ps128(h2);
        let hi = _mm256_extractf128_ps::<1>(h2);
        let s = _mm_add_ps(lo, hi);
        _mm_cvtss_f32(_mm_add_ss(s, _mm_movehdup_ps(s)))
    }

    /// Four dot products against one shared right-hand side, plus a bias:
    /// the register-blocked micro-kernel of the batch scoring sweep. The
    /// item row `v` is loaded into registers **once** and consumed by four
    /// users, quartering the memory traffic that dominates large-catalogue
    /// scoring.
    ///
    /// Each user's arithmetic is the exact op sequence of [`dot_wide`]
    /// (same two-accumulator chunking, cleanup, tail and reduction tree;
    /// the four users are interleaved in time, never mixed), so
    /// `out[j] == dot_wide(us[j], v) + bias` *to the bit* — blocking over
    /// users changes throughput, not results.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot4_bias_wide(us: [&[f32]; 4], v: &[f32], bias: f32) -> [f32; 4] {
        let n = v.len();
        debug_assert!(us.iter().all(|u| u.len() == n));
        let pv = v.as_ptr();
        let pu = [us[0].as_ptr(), us[1].as_ptr(), us[2].as_ptr(), us[3].as_ptr()];
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        let pairs = n / (2 * LANES);
        for c in 0..pairs {
            let vt0 = _mm256_loadu_ps(pv.add(c * 2 * LANES));
            let vt1 = _mm256_loadu_ps(pv.add(c * 2 * LANES + LANES));
            for j in 0..4 {
                let ut0 = _mm256_loadu_ps(pu[j].add(c * 2 * LANES));
                let ut1 = _mm256_loadu_ps(pu[j].add(c * 2 * LANES + LANES));
                acc0[j] = _mm256_add_ps(acc0[j], _mm256_mul_ps(ut0, vt0));
                acc1[j] = _mm256_add_ps(acc1[j], _mm256_mul_ps(ut1, vt1));
            }
        }
        let mut done = pairs * 2 * LANES;
        if n - done >= LANES {
            let vt = _mm256_loadu_ps(pv.add(done));
            for j in 0..4 {
                let ut = _mm256_loadu_ps(pu[j].add(done));
                acc0[j] = _mm256_add_ps(acc0[j], _mm256_mul_ps(ut, vt));
            }
            done += LANES;
        }
        let mut out = reduce_quad(acc0, acc1);
        for (j, o) in out.iter_mut().enumerate() {
            let mut tail = 0.0f32;
            for t in done..n {
                tail += *pu[j].add(t) * *pv.add(t);
            }
            *o = (*o + tail) + bias;
        }
        out
    }

    /// `[reduce8(acc0[j]) + reduce8(acc1[j]); 4]` via a shared horizontal
    /// tree: each `hadd` level performs exactly the adjacent-pair additions
    /// of the portable reduction (level 1+2 inside `h_j`, the 4-lane
    /// subtree join in `g`, the low/high-half join in `s`, and the final
    /// acc0+acc1 join in the 128-bit `hadd`) — so each lane of the result
    /// is bit-identical to `reduce2_ymm(acc0[j], acc1[j])`, at a quarter
    /// of the per-user cost.
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_quad(acc0: [__m256; 4], acc1: [__m256; 4]) -> [f32; 4] {
        let h0 = _mm256_hadd_ps(acc0[0], acc1[0]);
        let h1 = _mm256_hadd_ps(acc0[1], acc1[1]);
        let h2 = _mm256_hadd_ps(acc0[2], acc1[2]);
        let h3 = _mm256_hadd_ps(acc0[3], acc1[3]);
        // g01 = [A0_lo, B0_lo, A1_lo, B1_lo | A0_hi, B0_hi, A1_hi, B1_hi]
        // where Aj/Bj are user j's acc0/acc1 4-lane subtrees.
        let g01 = _mm256_hadd_ps(h0, h1);
        let g23 = _mm256_hadd_ps(h2, h3);
        let s01 = _mm_add_ps(_mm256_castps256_ps128(g01), _mm256_extractf128_ps::<1>(g01));
        let s23 = _mm_add_ps(_mm256_castps256_ps128(g23), _mm256_extractf128_ps::<1>(g23));
        // s01 = [reduce8(acc0[0]), reduce8(acc1[0]), reduce8(acc0[1]), …]:
        // one last adjacent-pair add joins each user's two accumulators.
        let r = _mm_hadd_ps(s01, s23);
        let mut out = [0.0f32; 4];
        _mm_storeu_ps(out.as_mut_ptr(), r);
        out
    }

    /// `row[t] += step·grad[t] − decay·row[t]` over raw `row`. Elementwise,
    /// so bit-identical to the portable loop; callers guarantee `row` is
    /// valid for `len` floats.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_update(row: *mut f32, grad: &[f32], len: usize, step: f32, decay: f32) {
        debug_assert_eq!(grad.len(), len);
        let vs = _mm256_set1_ps(step);
        let vd = _mm256_set1_ps(decay);
        let chunks = len / LANES;
        for c in 0..chunks {
            let p = row.add(c * LANES);
            let w = _mm256_loadu_ps(p);
            let g = _mm256_loadu_ps(grad.as_ptr().add(c * LANES));
            // w + (step*g − decay*w), matching the scalar expression order.
            let delta = _mm256_sub_ps(_mm256_mul_ps(vs, g), _mm256_mul_ps(vd, w));
            _mm256_storeu_ps(p, _mm256_add_ps(w, delta));
        }
        for (t, &g) in grad.iter().enumerate().skip(chunks * LANES) {
            let p = row.add(t);
            let w = p.read();
            p.write(w + (step * g - decay * w));
        }
    }

    /// Mirrors `gather_rank_bits_portable` eight items at a time: gather
    /// factor `q` of each item's row, XOR the sign with `negate` (what
    /// scalar negation does), fold -0.0 into 0.0, flip by the sign word,
    /// XOR with `flip`. The last `< 8` items take the scalar `rank_bits`.
    ///
    /// # Safety
    /// The CPU must support AVX2. Every `items[t].0 · dim + q` must index
    /// inside the table at `table` and fit in an `i32`, and `out` must be
    /// valid for writes of `items.len()` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_rank_bits(
        table: *const f32,
        dim: i32,
        q: i32,
        items: &[ItemId],
        negate: u32,
        flip: u32,
        out: *mut u32,
    ) {
        let n = items.len();
        // `ItemId` is `repr(transparent)` over `u32`: eight ids load as
        // one vector of gather indices.
        let ids = items.as_ptr().cast::<__m256i>();
        let (vdim, vq) = (_mm256_set1_epi32(dim), _mm256_set1_epi32(q));
        let vneg = _mm256_set1_epi32(negate as i32);
        let top = _mm256_set1_epi32(i32::MIN);
        let vflip = _mm256_set1_epi32(flip as i32);
        for c in 0..n / LANES {
            let id = _mm256_loadu_si256(ids.add(c));
            let at = _mm256_add_epi32(_mm256_mullo_epi32(id, vdim), vq);
            let v = _mm256_i32gather_ps::<4>(table, at);
            let bits = _mm256_xor_si256(_mm256_castps_si256(v), vneg);
            // -0.0 (the sign bit alone) becomes 0.0.
            let bits = _mm256_andnot_si256(_mm256_cmpeq_epi32(bits, top), bits);
            let ordered =
                _mm256_xor_si256(bits, _mm256_or_si256(_mm256_srai_epi32::<31>(bits), top));
            let word = _mm256_xor_si256(ordered, vflip);
            _mm256_storeu_si256(out.cast::<__m256i>().add(c), word);
        }
        for (t, item) in items.iter().enumerate().skip(n / LANES * LANES) {
            let v = f32::from_bits(
                (*table.add(item.index() * dim as usize + q as usize)).to_bits() ^ negate,
            );
            out.add(t).write(super::rank_bits(v, false) ^ flip);
        }
    }

    /// For each 8-bit lane mask, the indices of its set lanes in order,
    /// one per byte (the rest zero): the `permutevar8x32` pattern that
    /// packs a register's selected lanes to its front.
    const COMPACT: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut lane, mut slot, mut packed) = (0, 0, 0u64);
            while lane < 8 {
                if mask >> lane & 1 == 1 {
                    packed |= (lane as u64) << (8 * slot);
                    slot += 1;
                }
                lane += 1;
            }
            table[mask] = packed;
            mask += 1;
        }
        table
    };

    /// Mirrors `bracket_portable`: counts `vals` under `lo`, packs those in
    /// `[lo, hi]` to `out` in input order, returns `(below, kept)`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and POPCNT, and `out` must be valid for
    /// writes of `vals.len()` words. (Each eight-lane store lands at
    /// `kept ≤ 8c` for chunk `c`, so it ends at or before `vals.len()`.)
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn bracket(vals: &[u32], lo: u32, hi: u32, out: *mut u32) -> (usize, usize) {
        let n = vals.len();
        let src = vals.as_ptr().cast::<__m256i>();
        let bias = _mm256_set1_epi32(i32::MIN);
        let vlo = _mm256_set1_epi32((lo ^ 0x8000_0000) as i32);
        let vhi = _mm256_set1_epi32((hi ^ 0x8000_0000) as i32);
        let (mut below, mut kept) = (0usize, 0usize);
        for c in 0..n / LANES {
            let raw = _mm256_loadu_si256(src.add(c));
            let x = _mm256_xor_si256(raw, bias);
            let under = _mm256_cmpgt_epi32(vlo, x);
            let over = _mm256_cmpgt_epi32(x, vhi);
            let under_bits = _mm256_movemask_ps(_mm256_castsi256_ps(under)) as u32;
            let out_bits = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(under, over)));
            let keep = !out_bits as u8;
            let perm = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(COMPACT[keep as usize] as i64));
            _mm256_storeu_si256(
                out.add(kept).cast::<__m256i>(),
                _mm256_permutevar8x32_epi32(raw, perm),
            );
            below += under_bits.count_ones() as usize;
            kept += keep.count_ones() as usize;
        }
        for &v in &vals[n / LANES * LANES..] {
            below += usize::from(v < lo);
            if lo <= v && v <= hi {
                out.add(kept).write(v);
                kept += 1;
            }
        }
        (below, kept)
    }

    /// `out[t] += c · x[t]` over raw `out`. Elementwise; bit-identical to
    /// the portable loop.
    #[target_feature(enable = "avx2")]
    pub unsafe fn saxpy(out: *mut f32, c: f32, x: &[f32], len: usize) {
        debug_assert_eq!(x.len(), len);
        let vc = _mm256_set1_ps(c);
        let chunks = len / LANES;
        for ch in 0..chunks {
            let p = out.add(ch * LANES);
            let o = _mm256_loadu_ps(p);
            let v = _mm256_loadu_ps(x.as_ptr().add(ch * LANES));
            _mm256_storeu_ps(p, _mm256_add_ps(o, _mm256_mul_ps(vc, v)));
        }
        for (t, &v) in x.iter().enumerate().skip(chunks * LANES) {
            let p = out.add(t);
            p.write(p.read() + c * v);
        }
    }
}

/// Cache-blocked batch scoring sweep shared by [`crate::MfModel`] and the
/// scale bench: scores `items × users-block` with the wide kernel, tiling
/// the item table so each tile stays L2-resident while every user in the
/// block consumes it.
///
/// `user_factors` and `item_factors` are the row-major `n × dim` tables,
/// and `outs[b]` (pre-sized to `n_items`) receives the scores of
/// `users[b]`. Every `(user, item)` score equals an independent
/// [`dot_bias_wide`] call to the bit — blocking (over item tiles for
/// cache residency, and over user quads so each item row is loaded once
/// per four users on AVX2) only changes traversal order, never
/// arithmetic.
pub(crate) fn blocked_scores(
    user_factors: &[f32],
    item_factors: &[f32],
    item_bias: &[f32],
    dim: usize,
    users: &[UserId],
    outs: &mut [Vec<f32>],
) {
    let n_items = item_bias.len();
    let uf = |u: UserId| &user_factors[u.index() * dim..(u.index() + 1) * dim];
    // Tile size targeting ~128 KiB of item rows: comfortably L2-resident
    // alongside the block's user rows and output slices.
    let tile = (128 * 1024 / (dim * std::mem::size_of::<f32>())).clamp(64, n_items.max(64));

    // On AVX2, users go through the 4-way micro-kernel in quads; the
    // leftover `users.len() % 4` (or everyone, off x86/AVX2) take the
    // per-user wide kernel. Results are bit-identical either way.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let n_quaded = if avx2_available() { users.len() / 4 * 4 } else { 0 };
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let n_quaded = 0usize;

    let mut start = 0usize;
    while start < n_items {
        let end = (start + tile).min(n_items);
        let rows = &item_factors[start * dim..end * dim];
        let biases = &item_bias[start..end];

        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        for (uq, oq) in users[..n_quaded]
            .chunks_exact(4)
            .zip(outs[..n_quaded].chunks_exact_mut(4))
        {
            let ufs = [uf(uq[0]), uf(uq[1]), uf(uq[2]), uf(uq[3])];
            for ((t, vf), &b) in rows.chunks_exact(dim).enumerate().zip(biases) {
                // SAFETY: n_quaded > 0 only under the runtime AVX2 check.
                let s = unsafe { avx2::dot4_bias_wide(ufs, vf, b) };
                oq[0][start + t] = s[0];
                oq[1][start + t] = s[1];
                oq[2][start + t] = s[2];
                oq[3][start + t] = s[3];
            }
        }

        for (out, &u) in outs[n_quaded..].iter_mut().zip(&users[n_quaded..]) {
            let uf = uf(u);
            let out = &mut out[start..end];
            for ((slot, vf), &b) in out.iter_mut().zip(rows.chunks_exact(dim)).zip(biases) {
                *slot = dot_bias_wide(uf, vf, b);
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(len: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
        // Deterministic, sign-mixed, non-trivial magnitudes.
        let gen = |salt: u32| {
            (0..len)
                .map(|t| {
                    let h = (t as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed ^ salt);
                    ((h % 2000) as f32 - 1000.0) / 977.0
                })
                .collect::<Vec<f32>>()
        };
        (gen(0x9E37), gen(0x85EB))
    }

    #[test]
    fn wide_dispatch_matches_portable_bitwise_all_lengths() {
        for len in 0..=257usize {
            let (a, b) = vecs(len, len as u32);
            let portable = dot_wide_portable(&a, &b);
            let dispatched = dot_wide(&a, &b);
            assert_eq!(dispatched.to_bits(), portable.to_bits(), "len {len}");
            if let Some(arch) = dot_wide_arch(&a, &b) {
                assert_eq!(arch.to_bits(), portable.to_bits(), "arch len {len}");
            }
        }
    }

    /// The 4-way register-blocked micro-kernel must equal four independent
    /// `dot_bias_wide` calls to the bit, at every length.
    #[test]
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn quad_kernel_is_bitwise_four_wide_dots() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        for len in 0..=257usize {
            let (v, u0) = vecs(len, len as u32);
            let (u1, u2) = vecs(len, len as u32 ^ 0xBEEF);
            let (u3, _) = vecs(len, len as u32 ^ 0x1234);
            let bias = 0.37f32;
            // SAFETY: guarded by the runtime AVX2 check above.
            let quad = unsafe { avx2::dot4_bias_wide([&u0, &u1, &u2, &u3], &v, bias) };
            for (j, u) in [&u0, &u1, &u2, &u3].into_iter().enumerate() {
                assert_eq!(
                    quad[j].to_bits(),
                    dot_bias_wide(u, &v, bias).to_bits(),
                    "user {j}, len {len}"
                );
            }
        }
    }

    #[test]
    fn wide_dot_is_accurate() {
        for len in [0usize, 1, 7, 8, 16, 20, 33, 257] {
            let (a, b) = vecs(len, 42);
            let exact: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| x as f64 * y as f64)
                .sum();
            for v in [dot(&a, &b), dot_wide(&a, &b)] {
                assert!(
                    (v as f64 - exact).abs() < 1e-3 * (1.0 + exact.abs()),
                    "len {len}: {v} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for len in 0..=67usize {
            let (mut row, grad) = vecs(len, 7 + len as u32);
            let mut reference = row.clone();
            axpy_update(&mut row, &grad, 0.05, 0.001);
            axpy_update_portable(&mut reference, &grad, 0.05, 0.001);
            for t in 0..len {
                assert_eq!(row[t].to_bits(), reference[t].to_bits(), "len {len} t {t}");
            }
        }
    }

    #[test]
    fn saxpy_matches_scalar_bitwise() {
        for len in 0..=67usize {
            let (mut out, x) = vecs(len, 91 + len as u32);
            let mut reference = out.clone();
            saxpy(&mut out, -0.37, &x);
            saxpy_portable(&mut reference, -0.37, &x);
            for t in 0..len {
                assert_eq!(out[t].to_bits(), reference[t].to_bits(), "len {len} t {t}");
            }
        }
    }

    #[test]
    fn raw_axpy_matches_safe_axpy() {
        let (mut a, grad) = vecs(37, 5);
        let mut b = a.clone();
        axpy_update(&mut a, &grad, 0.1, 0.01);
        // SAFETY: `b` is a live Vec of grad.len() floats.
        unsafe { axpy_update_raw(b.as_mut_ptr(), &grad, 0.1, 0.01) };
        for t in 0..37 {
            assert_eq!(a[t].to_bits(), b[t].to_bits());
        }
    }
}
