//! Property tests pinning the SIMD kernels to their scalar/portable
//! references, plus the end-to-end check that turning SIMD scoring on does
//! not change a single evaluation number relative to the portable kernel.
//!
//! The contract (DESIGN.md §13): the portable 8-lane kernel is the reference
//! for everything wide; the arch-gated (AVX2) path must match it *bit for
//! bit* on every input, including non-multiple-of-lane tails. Elementwise
//! kernels (`axpy_update`, `saxpy`) must match their scalar loops bit for
//! bit on both paths, because training uses them unconditionally.

use clapf_data::{InteractionsBuilder, ItemId, UserId};
use clapf_metrics::{evaluate_serial, BulkScorer, EvalConfig};
use clapf_mf::simd::{
    self, axpy_update, axpy_update_portable, bracket, bracket_arch, bracket_portable, dot_wide,
    dot_wide_arch, dot_wide_portable, gather_rank_bits, gather_rank_bits_arch,
    gather_rank_bits_portable, rank_bits, saxpy, saxpy_portable,
};
use clapf_mf::{Init, MfModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Equal-length f32 vector pairs across every tail shape the kernels have:
/// lengths 0..=257 cover empty, sub-lane, one-vector, the 16-element unroll
/// boundary and a 256+1 tail.
fn vec_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0usize..258, 0u32..2).prop_flat_map(|(len, magnitude)| {
        // Alternate between well-scaled values (the common case for
        // factors) and magnitude-spread values that make any accidental
        // reassociation visible.
        let elem = if magnitude == 0 {
            -2.0f32..2.0
        } else {
            -1e4f32..1e4
        };
        (
            proptest::collection::vec(elem.clone(), len),
            proptest::collection::vec(elem, len),
        )
    })
}

proptest! {
    /// Dispatched wide dot == portable wide dot, to the bit.
    #[test]
    fn dispatched_dot_matches_portable_bitwise((a, b) in vec_pair()) {
        prop_assert_eq!(
            dot_wide(&a, &b).to_bits(),
            dot_wide_portable(&a, &b).to_bits()
        );
    }

    /// The arch-gated path (when present on this CPU) == portable, to the
    /// bit. On machines without AVX2 this degenerates to the dispatch test,
    /// which is exactly the scalar-fallback guarantee.
    #[test]
    fn arch_dot_matches_portable_bitwise((a, b) in vec_pair()) {
        if let Some(arch) = dot_wide_arch(&a, &b) {
            prop_assert_eq!(arch.to_bits(), dot_wide_portable(&a, &b).to_bits());
        }
    }

    /// Wide and scalar dots agree numerically (they reassociate, so bitwise
    /// equality is not expected — closeness in f64 is).
    #[test]
    fn wide_dot_is_close_to_scalar((a, b) in vec_pair()) {
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let wide = dot_wide(&a, &b) as f64;
        let scalar = simd::dot(&a, &b) as f64;
        let scale = 1.0 + a.iter().zip(&b).map(|(&x, &y)| (x as f64 * y as f64).abs()).sum::<f64>();
        prop_assert!((wide - exact).abs() <= 1e-3 * scale, "wide {wide} vs exact {exact}");
        prop_assert!((scalar - exact).abs() <= 1e-3 * scale, "scalar {scalar} vs exact {exact}");
    }

    /// The elementwise row update never reassociates: dispatched == scalar
    /// loop, to the bit, for every length and tail.
    #[test]
    fn axpy_matches_scalar_bitwise(
        (row, grad) in vec_pair(),
        step in -0.5f32..0.5,
        decay in 0.0f32..0.1,
    ) {
        let mut wide = row.clone();
        let mut reference = row;
        axpy_update(&mut wide, &grad, step, decay);
        axpy_update_portable(&mut reference, &grad, step, decay);
        for (w, r) in wide.iter().zip(&reference) {
            prop_assert_eq!(w.to_bits(), r.to_bits());
        }
    }

    /// Same for the gradient-accumulation kernel.
    #[test]
    fn saxpy_matches_scalar_bitwise((out, x) in vec_pair(), c in -2.0f32..2.0) {
        let mut wide = out.clone();
        let mut reference = out;
        saxpy(&mut wide, c, &x);
        saxpy_portable(&mut reference, c, &x);
        for (w, r) in wide.iter().zip(&reference) {
            prop_assert_eq!(w.to_bits(), r.to_bits());
        }
    }
}

/// Exhaustive (non-proptest) sweep of every length 0..=257: the dispatched
/// kernel, the arch kernel and the portable kernel agree bitwise. Proptest
/// samples lengths; this loop guarantees no tail length is ever skipped.
#[test]
fn every_length_0_to_257_matches_bitwise() {
    let mut mism = 0u32;
    for len in 0..=257usize {
        let a: Vec<f32> = (0..len).map(|t| ((t * 37 + 11) % 23) as f32 - 11.0).collect();
        let b: Vec<f32> = (0..len).map(|t| ((t * 53 + 7) % 19) as f32 - 9.0).collect();
        let portable = dot_wide_portable(&a, &b);
        if dot_wide(&a, &b).to_bits() != portable.to_bits() {
            mism += 1;
        }
        if let Some(arch) = dot_wide_arch(&a, &b) {
            if arch.to_bits() != portable.to_bits() {
                mism += 1;
            }
        }
    }
    assert_eq!(mism, 0);
}

/// End-to-end pin: a full `evaluate` run through the model's SIMD scoring
/// path (dispatched wide kernels, blocked batch sweep) produces *exactly*
/// the report of a plain closure scorer computing every score with the
/// portable wide kernel. This is the "evaluate output is unchanged with
/// SIMD scoring on" guarantee — bit-identity is pinned against the
/// portable scalar-fallback kernel, not against historical outputs.
#[test]
fn evaluate_with_simd_scoring_is_pinned_to_portable_kernel() {
    let n_users = 40u32;
    let n_items = 73u32; // non-multiple-of-lane item table
    let dim = 20; // the paper's d, a 16+4 tail for the wide kernel
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let model = MfModel::new(n_users, n_items, dim, Init::SmallUniform { scale: 0.6 }, &mut rng);

    let mut tr = InteractionsBuilder::new(n_users, n_items);
    let mut te = InteractionsBuilder::new(n_users, n_items);
    for u in 0..n_users {
        for i in 0..n_items {
            match (u.wrapping_mul(31).wrapping_add(i * 7)) % 6 {
                0 => tr.push(UserId(u), ItemId(i)).unwrap(),
                1 => te.push(UserId(u), ItemId(i)).unwrap(),
                _ => {}
            }
        }
    }
    let train = tr.build().unwrap();
    let test = te.build().unwrap();

    // Reference scorer: per-user loop over the item table with the portable
    // wide kernel — no dispatch, no blocking, no batch path.
    let reference = |u: UserId, out: &mut Vec<f32>| {
        out.clear();
        for i in 0..n_items {
            let i = ItemId(i);
            out.push(dot_wide_portable(model.user(u), model.item(i)) + model.bias(i));
        }
    };

    let cfg = EvalConfig::default();
    let simd_report = evaluate_serial(&model, &train, &test, &cfg);
    let portable_report = evaluate_serial(&reference, &train, &test, &cfg);
    assert_eq!(simd_report, portable_report); // exact, not approximate
}

/// The batch (blocked) scorer exposed through `BulkScorer` matches per-user
/// SIMD scoring bitwise — the property the evaluator's block loop relies on.
#[test]
fn bulk_scorer_batch_is_bitwise_per_user() {
    let mut rng = SmallRng::seed_from_u64(99);
    let model = MfModel::new(50, 201, 16, Init::SmallUniform { scale: 0.4 }, &mut rng);
    let users: Vec<UserId> = (0..50).step_by(3).map(UserId).collect();
    let mut outs: Vec<Vec<f32>> = vec![Vec::new(); users.len()];
    BulkScorer::scores_into_batch(&model, &users, &mut outs);
    let mut single = Vec::new();
    for (b, &u) in users.iter().enumerate() {
        BulkScorer::scores_into(&model, u, &mut single);
        for i in 0..201 {
            assert_eq!(outs[b][i].to_bits(), single[i].to_bits(), "user {u} item {i}");
        }
    }
}

/// Factor values the rank words must order: signed zeros, infinities,
/// NaNs of both signs (one signalling), subnormals, and repeats.
const SPECIAL: [f32; 12] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -f32::NAN,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    0.5,
    -0.5,
    f32::MAX,
];

/// A row-major `rows × dim` table of factors, about a third of them special
/// values, the rest from a small pool (so values repeat) or continuous.
fn factor_table(rows: usize, dim: usize, g: &mut SmallRng) -> Vec<f32> {
    (0..rows * dim)
        .map(|_| match g.gen_range(0..3) {
            0 if g.gen_bool(0.1) => f32::from_bits(0x7f80_0001), // signalling NaN
            0 => SPECIAL[g.gen_range(0..SPECIAL.len())],
            1 => [-1.0f32, 0.25, 2.0][g.gen_range(0..3usize)],
            _ => g.gen_range(-3.0f32..3.0),
        })
        .collect()
}

/// The rank words' unsigned order is the float order with -0.0 == 0.0 and
/// NaNs beyond the infinity of their sign: `total_cmp` with -0.0 read as
/// 0.0.
#[test]
fn rank_bits_order_is_the_folded_total_order() {
    let mut g = SmallRng::seed_from_u64(41);
    let values = factor_table(400, 1, &mut g);
    let fold = |x: f32| if x == 0.0 { 0.0 } else { x };
    for &a in &values {
        for &b in &values[..40] {
            let want = fold(a).total_cmp(&fold(b));
            assert_eq!(rank_bits(a, false).cmp(&rank_bits(b, false)), want, "{a} vs {b}");
            assert_eq!(rank_bits(a, true).cmp(&rank_bits(b, true)), want.reverse(), "{a} vs {b}");
        }
    }
}

/// The rank-column gather: portable, dispatched and (where present) AVX2
/// paths write the same words for every list length 0..=300, both signs and
/// both directions, and the portable words are `rank_bits` of the factors.
#[test]
fn gather_rank_bits_paths_agree_on_every_length() {
    let mut g = SmallRng::seed_from_u64(42);
    let (rows, dim) = (350usize, 5usize);
    let table = factor_table(rows, dim, &mut g);
    let (mut portable, mut dispatched, mut arch) = (Vec::new(), Vec::new(), Vec::new());
    for len in 0..=300usize {
        let items: Vec<ItemId> = (0..len)
            .map(|t| ItemId(if t % 7 == 3 { 0 } else { g.gen_range(0..rows as u32) }))
            .collect();
        let q = len % dim;
        for negate in [false, true] {
            for descending in [false, true] {
                let case = format!("len {len} negate {negate} descending {descending}");
                let out = &mut portable;
                gather_rank_bits_portable(&table, dim, q, &items, negate, descending, out);
                for (t, &w) in items.iter().zip(&portable) {
                    let v = table[t.index() * dim + q];
                    assert_eq!(w, rank_bits(if negate { -v } else { v }, descending), "{case}");
                }
                gather_rank_bits(&table, dim, q, &items, negate, descending, &mut dispatched);
                assert_eq!(dispatched, portable, "{case}: dispatched");
                if gather_rank_bits_arch(&table, dim, q, &items, negate, descending, &mut arch) {
                    assert_eq!(arch, portable, "{case}: avx2");
                }
            }
        }
    }
}

/// An item whose row lies outside the table panics on the portable path
/// and is refused (never read) by the AVX2 path.
#[test]
fn gather_rank_bits_rejects_an_item_outside_the_table() {
    let table = vec![1.0f32; 4 * 3];
    let items: Vec<ItemId> = (0..9).map(|t| ItemId(if t == 8 { 4 } else { t % 4 })).collect();
    let mut out = Vec::new();
    assert!(!gather_rank_bits_arch(&table, 3, 1, &items, false, false, &mut out));
    let caught = std::panic::catch_unwind(|| {
        gather_rank_bits(&table, 3, 1, &items, false, false, &mut Vec::new())
    });
    assert!(caught.is_err(), "an out-of-range item must panic");
}

/// The bracket pass: portable, dispatched and (where present) AVX2 paths
/// return the same `(below, kept)` and keep the same words in input order,
/// for every length 0..=300, over repeated, extreme and random words and
/// brackets that are empty, inverted, a single value or everything.
#[test]
fn bracket_paths_agree_on_every_length() {
    let mut g = SmallRng::seed_from_u64(43);
    let (mut portable, mut dispatched, mut arch) = (Vec::new(), Vec::new(), Vec::new());
    for len in 0..=300usize {
        let vals: Vec<u32> = (0..len)
            .map(|_| match g.gen_range(0..4) {
                0 => [0, 1, u32::MAX, 0x8000_0000, 0x7fff_ffff][g.gen_range(0..5usize)],
                1 => g.gen_range(1000..1010),
                _ => g.gen(),
            })
            .collect();
        let pick = |g: &mut SmallRng| {
            if vals.is_empty() || g.gen_bool(0.2) {
                g.gen()
            } else {
                vals[g.gen_range(0..vals.len())]
            }
        };
        let mut brackets = vec![(0, u32::MAX), (1005, 1005), (u32::MAX, 0)];
        for _ in 0..4 {
            let (a, b) = (pick(&mut g), pick(&mut g));
            brackets.push((a.min(b), a.max(b)));
        }
        for (lo, hi) in brackets {
            let case = format!("len {len} [{lo:#x}, {hi:#x}]");
            let want = bracket_portable(&vals, lo, hi, &mut portable);
            assert_eq!(want.0, vals.iter().filter(|&&v| v < lo).count(), "{case}");
            let inside: Vec<u32> = vals.iter().copied().filter(|v| (lo..=hi).contains(v)).collect();
            assert_eq!((want.1, &portable), (inside.len(), &inside), "{case}");
            assert_eq!(bracket(&vals, lo, hi, &mut dispatched), want, "{case}: dispatched");
            assert_eq!(dispatched, portable, "{case}: dispatched");
            if let Some(got) = bracket_arch(&vals, lo, hi, &mut arch) {
                assert_eq!(got, want, "{case}: avx2");
                assert_eq!(arch, portable, "{case}: avx2");
            }
        }
    }
}

proptest! {
    /// Random lists and brackets: the dispatched bracket equals the
    /// portable one.
    #[test]
    fn bracket_dispatch_matches_portable(
        vals in proptest::collection::vec(0u32..64, 0..300),
        lo in 0u32..64,
        width in 0u32..64,
    ) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let hi = lo.saturating_add(width);
        prop_assert_eq!(bracket(&vals, lo, hi, &mut a), bracket_portable(&vals, lo, hi, &mut b));
        prop_assert_eq!(a, b);
    }
}
