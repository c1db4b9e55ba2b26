//! The Double Sampling Strategy (Sec 5.2 of the paper).
//!
//! DSS accelerates CLAPF by drawing *informative* items instead of uniform
//! ones, so that the gradient scale `1 − σ(R_{≻u})` (Eq. 23) stays away from
//! zero:
//!
//! * **Step 1** — model users/items by matrix factorization (the live model).
//! * **Step 2** — pick a random factor `q` and rank all items by their value
//!   in that factor (rankings are rebuilt by [`DssSampler::refresh`], a
//!   cadence the paper sets so the sorting cost amortizes like AoBPR/DNS).
//! * **Step 3** — look at `sgn(U_{u,q})`: when negative, the ranking is read
//!   in reverse (a large factor value then *lowers* the user's score).
//! * **Step 4** — geometric draws from that ranking:
//!   - CLAPF-MAP wants a **low-scoring observed** `k` (bottom of the list)
//!     and a **high-scoring unobserved** `j` (top of the list);
//!   - CLAPF-MRR wants both `k` and `j` **high-scoring** (top of the list).
//!
//! Disabling one of the two rank-aware draws yields the paper's Fig. 4
//! ablations ("Positive Sampling" / "Negative Sampling").

use crate::{sample_second_observed, sample_unobserved_uniform, DssStats, Geometric, TripleSampler};
use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::{simd, MfModel};
use clapf_telemetry::Stopwatch;
use rand::Rng;
use rand::RngCore;
use std::sync::Arc;

/// Which CLAPF instantiation the sampler serves; determines from which end
/// of the ranking the observed item `k` is drawn (Sec 5.2, Step 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DssMode {
    /// CLAPF-MAP: `k` from the *bottom* of the ranking (small `f_uk`).
    Map,
    /// CLAPF-MRR: `k` from the *top* of the ranking (large `f_uk`).
    Mrr,
}

/// Configuration of [`DssSampler`].
#[derive(Copy, Clone, Debug)]
pub struct DssConfig {
    /// Which CLAPF instantiation is being trained.
    pub mode: DssMode,
    /// Geometric tail for the observed-item draw, as a fraction of the
    /// user's observed count.
    pub positive_tail_fraction: f64,
    /// Geometric tail for the unobserved-item draw, as a fraction of the
    /// item count.
    pub negative_tail_fraction: f64,
    /// Rank-aware draw for `k`? (`false` = uniform, the "Negative Sampling"
    /// ablation keeps this off.)
    pub sample_positive: bool,
    /// Rank-aware draw for `j`? (`false` = uniform, the "Positive Sampling"
    /// ablation keeps this off.)
    pub sample_negative: bool,
}

impl DssConfig {
    /// Full DSS for the given mode.
    pub fn dss(mode: DssMode) -> Self {
        DssConfig {
            mode,
            positive_tail_fraction: 0.5,
            negative_tail_fraction: 0.15,
            sample_positive: true,
            sample_negative: true,
        }
    }
}

/// The Double Sampling Strategy sampler (and its single-sided ablations).
#[derive(Clone, Debug)]
pub struct DssSampler {
    config: DssConfig,
    /// `factor_lists[q]` = all items sorted *descending* by `V_{·,q}`.
    factor_lists: Vec<Vec<ItemId>>,
    /// Standard deviation of each item factor, for the importance-weighted
    /// factor draw (Step 2): a factor only identifies extreme items when
    /// both the user weighs it (`|U_{u,q}|`) and the items spread on it
    /// (`σ_q`) — the AoBPR scheme DSS builds on.
    factor_stds: Vec<f32>,
    dim: usize,
    /// The negative draw's geometric over the factor lists, built at each
    /// refresh (every list has the catalogue's length).
    negative_geom: Geometric,
    /// `positive_geoms[n]` is the positive draw's geometric over a list of
    /// `n` observed items, built the first time a list that long is drawn.
    positive_geoms: Vec<Geometric>,
    /// Scratch for `u64` rank keys, the positive draw's fallback selection
    /// and each refresh's sort.
    scratch: Vec<u64>,
    /// Scratch for the positive draw's rank column and its brackets. The
    /// four buffers are reused, so a warmed-up sampler draws and
    /// refreshes without allocating. Each clone (one per Hogwild worker)
    /// owns its own copies.
    ranks: Vec<u32>,
    bracketed: Vec<u32>,
    spare: Vec<u32>,
    /// Optional introspection sink. `Clone` shares the `Arc`, so every
    /// Hogwild worker's sampler clone records into the same counters.
    /// Recording never touches the RNG stream — an instrumented run draws
    /// the exact same triples as an uninstrumented one.
    stats: Option<Arc<DssStats>>,
}

impl DssSampler {
    /// Creates a sampler with the given configuration. Ranking lists are
    /// empty until the first [`refresh`](TripleSampler::refresh); until then
    /// draws fall back to uniform.
    pub fn new(config: DssConfig) -> Self {
        DssSampler {
            config,
            factor_lists: Vec::new(),
            factor_stds: Vec::new(),
            dim: 0,
            negative_geom: Geometric::default(),
            positive_geoms: Vec::new(),
            scratch: Vec::new(),
            ranks: Vec::new(),
            bracketed: Vec::new(),
            spare: Vec::new(),
            stats: None,
        }
    }

    /// Attaches an introspection sink: every subsequent draw records its
    /// geometric depth, every refresh its kind and wall time. Clones of the
    /// sampler (one per Hogwild worker) share the same stats.
    pub fn attach_stats(&mut self, stats: Arc<DssStats>) {
        self.stats = Some(stats);
    }

    /// The attached introspection sink, if any.
    pub fn stats(&self) -> Option<&Arc<DssStats>> {
        self.stats.as_ref()
    }

    /// Draws the ranking factor `q` for user `u` with probability
    /// ∝ `|U_{u,q}| · σ_q`, so the chosen factor actually discriminates the
    /// user's high- and low-scoring items.
    fn draw_factor(&self, model: &MfModel, u: UserId, rng: &mut dyn RngCore) -> usize {
        let user = model.user(u);
        let total: f32 = user
            .iter()
            .zip(&self.factor_stds)
            .map(|(w, s)| w.abs() * s)
            .sum();
        if total <= 0.0 || !total.is_finite() {
            return rng.gen_range(0..self.dim);
        }
        let mut t = rng.gen::<f32>() * total;
        for (q, (w, s)) in user.iter().zip(&self.factor_stds).enumerate() {
            t -= w.abs() * s;
            if t <= 0.0 {
                return q;
            }
        }
        self.dim - 1
    }

    /// Full DSS.
    pub fn dss(mode: DssMode) -> Self {
        Self::new(DssConfig::dss(mode))
    }

    /// Fig. 4 ablation: rank-aware positive item `k`, uniform negative `j`.
    pub fn positive_only(mode: DssMode) -> Self {
        Self::new(DssConfig {
            sample_negative: false,
            ..DssConfig::dss(mode)
        })
    }

    /// Fig. 4 ablation: uniform positive `k`, rank-aware negative `j`.
    pub fn negative_only(mode: DssMode) -> Self {
        Self::new(DssConfig {
            sample_positive: false,
            ..DssConfig::dss(mode)
        })
    }

    /// Draws the unobserved item `j` by geometric sampling from the top of
    /// the factor ranking (reversed when `sgn < 0`).
    fn draw_negative(
        &self,
        data: &Interactions,
        u: UserId,
        q: usize,
        positive_sign: bool,
        rng: &mut dyn RngCore,
    ) -> Option<ItemId> {
        let list = &self.factor_lists[q];
        let m = list.len();
        for _ in 0..32 {
            let r = self.negative_geom.draw(m, rng);
            let idx = if positive_sign { r } else { m - 1 - r };
            let j = list[idx];
            if !data.contains(u, j) {
                if let Some(s) = &self.stats {
                    s.negative_depth.record(r as f64);
                }
                return Some(j);
            }
            if let Some(s) = &self.stats {
                s.negative_rejections.inc();
            }
        }
        if let Some(s) = &self.stats {
            s.negative_fallbacks.inc();
        }
        sample_unobserved_uniform(data, u, rng)
    }

    /// Draws the second observed item `k` by geometric sampling over the
    /// user's observed items `I_u⁺`, ranked by their **live** factor-`q`
    /// values (not by the refreshed global list, which may be stale by up to
    /// one refresh interval). MAP reads from the bottom, MRR from the top; a
    /// negative user sign flips the reading direction. Ties break by
    /// ascending item id. If the drawn rank holds the anchor `i`, the next
    /// rank is taken instead (wrapping to rank 0).
    #[allow(clippy::too_many_arguments)]
    fn draw_positive(
        &mut self,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        i: ItemId,
        q: usize,
        positive_sign: bool,
        rng: &mut dyn RngCore,
    ) -> Option<ItemId> {
        let items = data.items_of(u);
        let n = items.len();
        match n {
            0 => return None,
            1 => return Some(items[0]),
            _ => {}
        }
        let r = self.positive_geometric(n).draw(n, rng);
        if let Some(s) = &self.stats {
            s.positive_depth.record(r as f64);
        }
        Some(self.item_at_rank(model, items, i, q, positive_sign, r))
    }

    /// The positive draw's geometric for a list of `n` items, from the
    /// per-length cache.
    fn positive_geometric(&mut self, n: usize) -> Geometric {
        let fraction = self.config.positive_tail_fraction;
        while self.positive_geoms.len() <= n {
            let len = self.positive_geoms.len();
            self.positive_geoms.push(Geometric::with_tail_fraction(len, fraction));
        }
        self.positive_geoms[n]
    }

    /// The item at rank `r` of `items` (at least two) under the positive
    /// draw's order, or the next rank's when that is the anchor `i`.
    ///
    /// Gathers the items' rank words ([`MfModel::item_rank_bits`]) and, for
    /// a list of at least [`BRACKET_MIN_LEN`], selects inside a bracket
    /// ([`bracket_select`]). A short list, a bracket that misses `r` or a
    /// drawn anchor takes the `u64` selection over [`rank_key`]s: one
    /// O(|I_u⁺|) `select_nth_unstable`, no sort. No allocation once the
    /// scratch buffers have grown to the largest user seen.
    fn item_at_rank(
        &mut self,
        model: &MfModel,
        items: &[ItemId],
        i: ItemId,
        q: usize,
        positive_sign: bool,
        r: usize,
    ) -> ItemId {
        let descending = self.config.mode == DssMode::Mrr;
        model.item_rank_bits(q, items, !positive_sign, descending, &mut self.ranks);
        if items.len() >= BRACKET_MIN_LEN {
            let (bracketed, spare) = (&mut self.bracketed, &mut self.spare);
            match bracket_select(&self.ranks, items, r, bracketed, spare) {
                Some(k) if k != i => return k,
                _ => {}
            }
        }
        let keys = &mut self.scratch;
        keys.clear();
        keys.extend(self.ranks.iter().zip(items).map(|(&h, &t)| key_of(h, t)));
        let (below, &mut at, above) = keys.select_nth_unstable(r);
        let k = key_item(at);
        if k != i {
            return k;
        }
        // Prefer a distinct second item: take the next rank — the smallest
        // key above `r`, or rank 0 (the smallest below) when `r` is last.
        let next = above.iter().min().or_else(|| below.iter().min());
        key_item(*next.expect("n ≥ 2 leaves a second rank"))
    }
}

/// Shortest observed list the positive draw brackets; shorter ones go
/// straight to the `u64` selection, which is as fast there.
const BRACKET_MIN_LEN: usize = 64;
/// Rank words sampled, at fixed strides, to place each bracket.
const BRACKET_SAMPLE: usize = 16;
/// Sample positions on each side of the target rank's that a bracket spans.
const BRACKET_REACH: usize = 3;
/// Bracketed words few enough to select among directly.
const BRACKET_DONE: usize = 32;

/// The item at rank `r` of `items` under the order of their rank words
/// `ranks` (ties by ascending id), or `None` when the first bracket
/// misses `r`.
///
/// Each bracket ([`bracket_around`]) keeps the words between two sample
/// words around the target rank and counts those below. The first one
/// narrows `ranks`; while more than [`BRACKET_DONE`] words remain, the
/// kept words are bracketed again (a miss or a bracket that keeps
/// everything, as on all-equal words, stops the narrowing). The rank's
/// word `v` is then selected among the kept words, and the item is the
/// `(r − #less)`-th occurrence of `v` in `ranks`: `items` is sorted by
/// id, so that is the id tie-break of the `u64` key order.
fn bracket_select(
    ranks: &[u32],
    items: &[ItemId],
    r: usize,
    bracketed: &mut Vec<u32>,
    spare: &mut Vec<u32>,
) -> Option<ItemId> {
    let below = bracket_around(ranks, r, bracketed);
    let mut nth = r.checked_sub(below).filter(|&nth| nth < bracketed.len())?;
    let mut less = below;
    while bracketed.len() > BRACKET_DONE {
        let below = bracket_around(bracketed, nth, spare);
        match nth.checked_sub(below) {
            Some(inner) if inner < spare.len() && spare.len() < bracketed.len() => {
                (nth, less) = (inner, less + below);
                std::mem::swap(bracketed, spare);
            }
            _ => break,
        }
    }
    let (smaller, &mut v, _) = bracketed.select_nth_unstable(nth);
    let occurrence = r - less - smaller.iter().filter(|&&w| w < v).count();
    Some(items[nth_occurrence(ranks, v, occurrence)])
}

/// Brackets `vals` around the position of its `nth`-smallest word: sorts
/// [`BRACKET_SAMPLE`] words taken at fixed strides (no RNG), spans the
/// sample words [`BRACKET_REACH`] positions either side of where `nth`
/// falls in the sample, and runs one [`simd::bracket`] pass. Leaves the
/// words inside in `out` and returns the count below.
fn bracket_around(vals: &[u32], nth: usize, out: &mut Vec<u32>) -> usize {
    let n = vals.len();
    let mut sample: [u32; BRACKET_SAMPLE] =
        std::array::from_fn(|j| vals[(2 * j + 1) * n / (2 * BRACKET_SAMPLE)]);
    sort_sample(&mut sample);
    let at = nth * BRACKET_SAMPLE / n;
    let lo = at.checked_sub(BRACKET_REACH).map_or(0, |j| sample[j]);
    let hi = sample.get(at + BRACKET_REACH).copied().unwrap_or(u32::MAX);
    simd::bracket(vals, lo, hi, out).0
}

/// Sorts the bracket sample with Batcher's odd–even merge network: a fixed
/// sequence of min/max exchanges, so no branch depends on the words (an
/// insertion sort mispredicts on about every other word here). The network
/// needs a power-of-two size.
fn sort_sample(s: &mut [u32; BRACKET_SAMPLE]) {
    const { assert!(BRACKET_SAMPLE.is_power_of_two()) };
    let n = BRACKET_SAMPLE;
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k > 0 {
            let mut j = k % p;
            while j + k < n {
                for i in j..j + k.min(n - j - k) {
                    if i / (2 * p) == (i + k) / (2 * p) {
                        let (a, b) = (s[i], s[i + k]);
                        (s[i], s[i + k]) = (a.min(b), a.max(b));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

/// The index of the `occurrence`-th (0-based) `v` in `ranks`, scanning
/// eight words at a time so the equality counts vectorize.
fn nth_occurrence(ranks: &[u32], v: u32, mut occurrence: usize) -> usize {
    let mut start = 0;
    for chunk in ranks.chunks(8) {
        let hits = chunk.iter().filter(|&&w| w == v).count();
        if occurrence < hits {
            break;
        }
        occurrence -= hits;
        start += chunk.len();
    }
    let (at, _) = ranks[start..]
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w == v)
        .nth(occurrence)
        .expect("the bracket counted this occurrence");
    start + at
}

/// Packs an observed item into a `u64` whose integer order is the positive
/// draw's rank order. The high 32 bits hold the signed factor value as
/// order-preserving bits ([`simd::rank_bits`], inverted when
/// `descending`); the low 32 bits hold the item id, so equal values
/// tie-break by ascending id. A NaN sorts beyond the infinity of its sign
/// instead of failing a comparison.
fn rank_key(value: f32, descending: bool, item: ItemId) -> u64 {
    key_of(simd::rank_bits(value, descending), item)
}

/// The `u64` key of an item whose rank word is `high`.
fn key_of(high: u32, item: ItemId) -> u64 {
    (u64::from(high) << 32) | u64::from(item.0)
}

/// The item a [`rank_key`] was built from.
fn key_item(key: u64) -> ItemId {
    ItemId(key as u32)
}

/// Re-sorts one factor's item list in place and recomputes that factor's
/// standard deviation. The list is sorted as [`rank_key`]s (descending
/// factor value, ascending id) in `keys` and the ids are written back.
/// The keys are distinct, so the order is independent of the list's
/// starting permutation — which lets refreshes start from the previous,
/// nearly-sorted list and profit from pdqsort's partial-run detection.
/// A NaN factor sorts beyond the infinity of its sign, as in the positive
/// draw.
fn refresh_factor(
    model: &MfModel,
    q: usize,
    list: &mut [ItemId],
    keys: &mut Vec<u64>,
    std_out: &mut f32,
) {
    keys.clear();
    keys.extend(list.iter().map(|&t| rank_key(model.item(t)[q], true, t)));
    keys.sort_unstable();
    for (slot, &key) in list.iter_mut().zip(keys.iter()) {
        *slot = key_item(key);
    }
    let m = model.n_items();
    let mean: f32 = (0..m).map(|i| model.item(ItemId(i))[q]).sum::<f32>() / m.max(1) as f32;
    let var: f32 = (0..m)
        .map(|i| {
            let v = model.item(ItemId(i))[q] - mean;
            v * v
        })
        .sum::<f32>()
        / m.max(1) as f32;
    *std_out = var.sqrt();
}

impl TripleSampler for DssSampler {
    fn refresh(&mut self, model: &MfModel) {
        // The stopwatch exists only when stats are attached: the
        // uninstrumented refresh stays free of clock reads.
        let sw = self.stats.as_ref().map(|_| Stopwatch::start());
        let d = model.dim();
        let m = model.n_items() as usize;
        // (Re)allocate the per-factor buffers only when the model geometry
        // changes; the steady-state path below re-sorts the previous lists
        // in place, so a warmed-up sampler refreshes without allocating.
        // Between consecutive refreshes the factor values move by a few SGD
        // steps, the lists are nearly sorted, and the in-place re-sort is
        // far cheaper than sorting from a random permutation.
        let cold = self.dim != d
            || self.factor_lists.len() != d
            || self.factor_lists.iter().any(|l| l.len() != m);
        self.negative_geom = Geometric::with_tail_fraction(m, self.config.negative_tail_fraction);
        if cold {
            self.dim = d;
            self.factor_lists = (0..d)
                .map(|_| (0..m as u32).map(ItemId).collect())
                .collect();
            self.factor_stds = vec![0.0; d];
        }
        for (q, (list, std_out)) in self
            .factor_lists
            .iter_mut()
            .zip(self.factor_stds.iter_mut())
            .enumerate()
        {
            refresh_factor(model, q, list, &mut self.scratch, std_out);
        }
        if let Some(s) = &self.stats {
            s.refreshes.inc();
            let secs = sw.expect("stopwatch started with stats").elapsed_secs();
            if cold {
                s.cold_refreshes.inc();
                s.cold_refresh_secs.record(secs);
            } else {
                s.warm_refresh_secs.record(secs);
            }
        }
    }

    fn complete(
        &mut self,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        i: ItemId,
        rng: &mut dyn RngCore,
    ) -> Option<(ItemId, ItemId)> {
        let ready = !self.factor_lists.is_empty();

        // Step 2/3: importance-weighted random factor, user sign.
        let q = if ready {
            self.draw_factor(model, u, rng)
        } else {
            0
        };
        let positive_sign = !ready || model.user(u)[q] >= 0.0;

        let k = if ready && self.config.sample_positive {
            self.draw_positive(data, model, u, i, q, positive_sign, rng)?
        } else {
            sample_second_observed(data, u, i, rng)?
        };
        let j = if ready && self.config.sample_negative {
            self.draw_negative(data, u, q, positive_sign, rng)?
        } else {
            sample_unobserved_uniform(data, u, rng)?
        };
        if let Some(s) = &self.stats {
            s.draws.inc();
        }
        Some((k, j))
    }

    fn name(&self) -> &'static str {
        match (self.config.sample_positive, self.config.sample_negative) {
            (true, true) => "DSS",
            (true, false) => "Positive",
            (false, true) => "Negative",
            (false, false) => "Uniform(degenerate)",
        }
    }

    fn fork(&self) -> Option<Box<dyn TripleSampler + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::InteractionsBuilder;
    use clapf_mf::Init;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// 1 user observing items 0..5 of 100; model where item factor value
    /// equals item id (single factor), user factor positive.
    fn fixture() -> (Interactions, MfModel) {
        let mut b = InteractionsBuilder::new(1, 100);
        for i in 0..5 {
            b.push(UserId(0), ItemId(i)).unwrap();
        }
        let data = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut model = MfModel::new(1, 100, 1, Init::Zeros, &mut rng);
        model.user_mut(UserId(0))[0] = 1.0;
        for i in 0..100u32 {
            model.item_mut(ItemId(i))[0] = i as f32;
        }
        (data, model)
    }

    #[test]
    fn refresh_sorts_items_descending_by_factor() {
        let (_, model) = fixture();
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model);
        assert_eq!(s.factor_lists.len(), 1);
        assert_eq!(s.factor_lists[0][0], ItemId(99));
        assert_eq!(s.factor_lists[0][99], ItemId(0));
    }

    #[test]
    fn refresh_places_a_nan_factor_beyond_infinity() {
        let (_, mut model) = fixture();
        model.item_mut(ItemId(3))[0] = f32::NAN;
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model);
        let list = &s.factor_lists[0];
        assert_eq!(list[0], ItemId(3), "a positive NaN ranks above +inf");
        let rest: Vec<u32> = list[1..].iter().map(|t| t.0).collect();
        let want: Vec<u32> = (0..100).rev().filter(|&i| i != 3).collect();
        assert_eq!(rest, want);
    }

    #[test]
    fn triples_have_correct_membership() {
        let (data, model) = fixture();
        for mut s in [
            DssSampler::dss(DssMode::Map),
            DssSampler::dss(DssMode::Mrr),
            DssSampler::positive_only(DssMode::Map),
            DssSampler::negative_only(DssMode::Map),
        ] {
            s.refresh(&model);
            let mut rng = SmallRng::seed_from_u64(1);
            for _ in 0..200 {
                let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
                assert!(data.contains(UserId(0), t.i));
                assert!(data.contains(UserId(0), t.k));
                assert!(!data.contains(UserId(0), t.j), "{}", s.name());
            }
        }
    }

    #[test]
    fn map_mode_draws_low_scoring_positives() {
        let (data, model) = fixture();
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sum_k = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
            sum_k += t.k.0 as u64;
        }
        // Observed items are 0..5 (scores = id); MAP should concentrate on
        // the low ids. Uniform would give mean 2.0.
        let mean = sum_k as f64 / n as f64;
        assert!(mean < 1.6, "mean k id = {mean}");
    }

    #[test]
    fn mrr_mode_draws_high_scoring_positives() {
        let (data, model) = fixture();
        let mut s = DssSampler::dss(DssMode::Mrr);
        s.refresh(&model);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum_k = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
            sum_k += t.k.0 as u64;
        }
        let mean = sum_k as f64 / n as f64;
        assert!(mean > 2.4, "mean k id = {mean}");
    }

    #[test]
    fn negatives_come_from_the_high_scoring_head() {
        let (data, model) = fixture();
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut sum_j = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
            sum_j += t.j.0 as u64;
        }
        // Unobserved ids are 5..100 (uniform mean ≈ 52); geometric-from-top
        // concentrates toward 99 (the default tail keeps a fat body, so the
        // mean sits well above uniform without hugging the maximum).
        let mean = sum_j as f64 / n as f64;
        assert!(mean > 70.0, "mean j id = {mean}");
    }

    #[test]
    fn negative_user_sign_reverses_the_list() {
        let (data, mut model) = fixture();
        model.user_mut(UserId(0))[0] = -1.0;
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut sum_j = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
            sum_j += t.j.0 as u64;
        }
        // With a negative user factor, high-factor items have *low* predicted
        // score, so DSS reads the list bottom-up: j concentrates toward id 5.
        let mean = sum_j as f64 / n as f64;
        assert!(mean < 35.0, "mean j id = {mean}");
    }

    #[test]
    fn unrefreshed_sampler_falls_back_to_uniform() {
        let (data, model) = fixture();
        let mut s = DssSampler::dss(DssMode::Map);
        let mut rng = SmallRng::seed_from_u64(6);
        let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
        assert!(!data.contains(UserId(0), t.j));
    }

    #[test]
    fn ablation_names() {
        assert_eq!(DssSampler::dss(DssMode::Map).name(), "DSS");
        assert_eq!(DssSampler::positive_only(DssMode::Map).name(), "Positive");
        assert_eq!(DssSampler::negative_only(DssMode::Map).name(), "Negative");
    }

    #[test]
    fn refresh_reuses_buffers_after_warmup() {
        let (_, mut model) = fixture();
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model); // warm-up allocates the per-factor buffers
        let ptrs: Vec<*const ItemId> = s.factor_lists.iter().map(|l| l.as_ptr()).collect();
        let caps: Vec<usize> = s.factor_lists.iter().map(|l| l.capacity()).collect();
        let outer_ptr = s.factor_lists.as_ptr();
        let stds_ptr = s.factor_stds.as_ptr();
        for round in 0..3 {
            // Perturb the model (same geometry) so the sort has real work.
            for i in 0..100u32 {
                model.item_mut(ItemId(i))[0] = ((i * 7 + round) % 100) as f32;
            }
            s.refresh(&model);
            assert_eq!(s.factor_lists.as_ptr(), outer_ptr);
            assert_eq!(s.factor_stds.as_ptr(), stds_ptr);
            for (q, l) in s.factor_lists.iter().enumerate() {
                assert_eq!(l.as_ptr(), ptrs[q], "factor {q} list reallocated");
                assert_eq!(l.capacity(), caps[q], "factor {q} capacity changed");
            }
        }
    }

    #[test]
    fn warm_refresh_matches_from_scratch_refresh() {
        let (_, model) = fixture();
        let mut rng = SmallRng::seed_from_u64(8);
        // Several model generations with d > 1 so the fan-out/serial choice
        // and the in-place re-sort both get exercised.
        let mut evolving = MfModel::new(3, 120, 4, Init::default(), &mut rng);
        let mut warm = DssSampler::dss(DssMode::Map);
        warm.refresh(&model); // different geometry first: forces a reshape
        for gen in 0..4u32 {
            for i in 0..120u32 {
                for q in 0..4 {
                    evolving.item_mut(ItemId(i))[q] =
                        (((i + gen) * (q as u32 + 13)) % 97) as f32 * 0.25 - 10.0;
                }
            }
            warm.refresh(&evolving);
            let mut fresh = DssSampler::dss(DssMode::Map);
            fresh.refresh(&evolving);
            assert_eq!(warm.factor_lists, fresh.factor_lists, "generation {gen}");
            assert_eq!(warm.factor_stds, fresh.factor_stds, "generation {gen}");
        }
    }

    #[test]
    fn attached_stats_do_not_change_the_draws() {
        // Instrumentation must be invisible to the RNG stream: the same
        // seed yields the same triple sequence with and without stats.
        let (data, model) = fixture();
        let mut plain = DssSampler::dss(DssMode::Map);
        let mut instrumented = DssSampler::dss(DssMode::Map);
        instrumented.attach_stats(crate::DssStats::new());
        plain.refresh(&model);
        instrumented.refresh(&model);
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        for _ in 0..500 {
            let a = plain.sample(&data, &model, UserId(0), &mut rng_a);
            let b = instrumented.sample(&data, &model, UserId(0), &mut rng_b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stats_capture_draw_depths_and_refresh_kinds() {
        let (data, model) = fixture();
        let stats = crate::DssStats::new();
        let mut s = DssSampler::dss(DssMode::Map);
        s.attach_stats(stats.clone());

        s.refresh(&model); // first refresh allocates: cold
        s.refresh(&model); // same geometry: warm
        assert_eq!(stats.refreshes.get(), 2);
        assert_eq!(stats.cold_refreshes.get(), 1);
        assert_eq!(stats.cold_refresh_secs.count(), 1);
        assert_eq!(stats.warm_refresh_secs.count(), 1);

        let mut rng = SmallRng::seed_from_u64(10);
        let n = 300;
        for _ in 0..n {
            s.sample(&data, &model, UserId(0), &mut rng).unwrap();
        }
        assert_eq!(stats.draws.get(), n);
        assert_eq!(stats.positive_depth.count(), n);
        // Every accepted negative is recorded; rejections are counted on
        // top (the fixture's observed head makes some rejections likely).
        assert_eq!(stats.negative_depth.count() + stats.negative_fallbacks.get(), n);
        // Depth means stay within the list sizes.
        assert!(stats.positive_depth.mean() < 5.0);
        assert!(stats.negative_depth.mean() < 100.0);
    }

    #[test]
    fn cloned_samplers_share_stats() {
        // The Hogwild trainer clones the sampler per worker; all clones
        // must feed one set of counters.
        let (data, model) = fixture();
        let stats = crate::DssStats::new();
        let mut s = DssSampler::dss(DssMode::Map);
        s.attach_stats(stats.clone());
        s.refresh(&model);
        let mut clone = s.clone();
        let mut rng = SmallRng::seed_from_u64(11);
        s.sample(&data, &model, UserId(0), &mut rng).unwrap();
        clone.sample(&data, &model, UserId(0), &mut rng).unwrap();
        assert_eq!(stats.draws.get(), 2);
    }

    #[test]
    fn single_item_user_degenerates() {
        let mut b = InteractionsBuilder::new(1, 10);
        b.push(UserId(0), ItemId(3)).unwrap();
        let data = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let model = MfModel::new(1, 10, 2, Init::default(), &mut rng);
        let mut s = DssSampler::dss(DssMode::Mrr);
        s.refresh(&model);
        let t = s.sample(&data, &model, UserId(0), &mut rng).unwrap();
        assert_eq!(t.i, ItemId(3));
        assert_eq!(t.k, ItemId(3));
        assert_ne!(t.j, ItemId(3));
    }

    /// The user's observed items in the order the positive draw ranks them,
    /// by a full sort: signed factor value (MAP ascending, MRR descending),
    /// ties by ascending id. The reference the selection must reproduce.
    fn sorted_by_reference(
        mode: DssMode,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        q: usize,
        positive_sign: bool,
    ) -> Vec<ItemId> {
        let mut keyed: Vec<(f32, ItemId)> = data
            .items_of(u)
            .iter()
            .map(|&t| {
                let v = model.item(t)[q];
                (if positive_sign { v } else { -v }, t)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| {
            // -0.0 and 0.0 are equal; NaNs order beyond the infinity of
            // their sign.
            let fold = |x: f32| if x == 0.0 { 0.0 } else { x };
            let ord = fold(a.0).total_cmp(&fold(b.0));
            match mode {
                DssMode::Map => ord.then(a.1.cmp(&b.1)),
                DssMode::Mrr => ord.reverse().then(a.1.cmp(&b.1)),
            }
        });
        keyed.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn selection_matches_the_full_sort_draw() {
        // 300 random worlds, one user each, whose factor values come mostly
        // from a small tie-heavy pool that holds both 0.0 and -0.0. Every
        // (mode, sign, factor, anchor) draw must pick the same item as the
        // full sort and leave the RNG at the same position.
        const POOL: [f32; 7] = [-1.5, -0.25, -0.0, 0.0, 0.25, 1.5, 3.0];
        let (mut worlds_of_two, mut signed_zero_ties, mut wraps, mut draws) = (0, 0, 0, 0);
        for world in 0..300u64 {
            let mut g = SmallRng::seed_from_u64(world);
            let n: usize = if world % 10 == 0 {
                2
            } else {
                g.gen_range(2..40)
            };
            let m = n as u32 + g.gen_range(1..20u32);
            let mut ids: Vec<u32> = (0..m).collect();
            ids.shuffle(&mut g);
            let mut b = InteractionsBuilder::new(1, m);
            for &t in &ids[..n] {
                b.push(UserId(0), ItemId(t)).unwrap();
            }
            let data = b.build().unwrap();
            let mut model = MfModel::new(1, m, 2, Init::Zeros, &mut g);
            for t in 0..m {
                for v in model.item_mut(ItemId(t)) {
                    *v = if g.gen_bool(0.8) {
                        POOL[g.gen_range(0..POOL.len())]
                    } else {
                        g.gen_range(-2.0f32..2.0)
                    };
                }
            }
            worlds_of_two += usize::from(n == 2);
            let items = data.items_of(UserId(0));
            for q in 0..2 {
                let has = |z: f32| {
                    items
                        .iter()
                        .any(|&t| model.item(t)[q].to_bits() == z.to_bits())
                };
                signed_zero_ties += usize::from(has(0.0) && has(-0.0));
                for mode in [DssMode::Map, DssMode::Mrr] {
                    let mut s = DssSampler::dss(mode);
                    let geom = Geometric::with_tail_fraction(n, s.config.positive_tail_fraction);
                    for positive_sign in [true, false] {
                        let order =
                            sorted_by_reference(mode, &data, &model, UserId(0), q, positive_sign);
                        for &anchor in items {
                            let mut rng = SmallRng::seed_from_u64(g.gen());
                            for _ in 0..6 {
                                let mut reference = rng.clone();
                                let r = geom.draw(n, &mut reference);
                                let want = if order[r] != anchor {
                                    order[r]
                                } else {
                                    wraps += usize::from(r + 1 == n);
                                    order[(r + 1) % n]
                                };
                                let got = s.draw_positive(
                                    &data,
                                    &model,
                                    UserId(0),
                                    anchor,
                                    q,
                                    positive_sign,
                                    &mut rng,
                                );
                                let case = format!(
                                    "world {world} {mode:?} q={q} sign={positive_sign} \
                                     anchor={anchor:?} r={r}"
                                );
                                assert_eq!(got, Some(want), "{case}");
                                assert_eq!(rng, reference, "{case}: RNG positions differ");
                                draws += 1;
                            }
                        }
                    }
                }
            }
        }
        // The edge cases the property exists for were actually exercised.
        assert!(worlds_of_two >= 30, "{worlds_of_two} worlds with n = 2");
        assert!(signed_zero_ties > 0, "no world held both 0.0 and -0.0");
        assert!(wraps > 0, "the anchor never sat at the drawn last rank");
        assert!(draws > 100_000, "{draws} draws");
    }

    #[test]
    fn long_lists_pick_the_full_sort_item_at_every_rank() {
        // Lists long enough to be bracketed, with factor values from
        // tie-heavy pools (signed zeros, infinities, NaNs, subnormals) or
        // from a continuous range. At every rank, in both modes and both
        // signs, the draw must return the full sort's item — or the next
        // one when that is the anchor. The bracket alone must agree with
        // the full sort whenever it hits.
        const TIES: [f32; 9] = [
            -1.5,
            -0.0,
            0.0,
            0.25,
            3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -1e-40,
        ];
        let nans = [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)];
        let (mut hits, mut misses, mut anchors, mut draws) = (0, 0, 0, 0);
        for world in 0..24u64 {
            let mut g = SmallRng::seed_from_u64(100 + world);
            let n = [BRACKET_MIN_LEN, BRACKET_MIN_LEN + 1, 100, 257, 300][world as usize % 5];
            let m = n as u32 + g.gen_range(1..200u32);
            let mut ids: Vec<u32> = (0..m).collect();
            ids.shuffle(&mut g);
            let mut b = InteractionsBuilder::new(1, m);
            for &t in &ids[..n] {
                b.push(UserId(0), ItemId(t)).unwrap();
            }
            let data = b.build().unwrap();
            let mut model = MfModel::new(1, m, 2, Init::Zeros, &mut g);
            for t in 0..m {
                for v in model.item_mut(ItemId(t)) {
                    *v = match world % 4 {
                        0 => g.gen_range(-2.0f32..2.0),
                        1 => TIES[g.gen_range(0..TIES.len())],
                        2 if g.gen_bool(0.05) => nans[g.gen_range(0..nans.len())],
                        2 => TIES[g.gen_range(0..4usize)],
                        _ => 0.5,
                    };
                }
            }
            let items = data.items_of(UserId(0));
            for q in 0..2 {
                for mode in [DssMode::Map, DssMode::Mrr] {
                    let mut s = DssSampler::dss(mode);
                    for positive_sign in [true, false] {
                        let order =
                            sorted_by_reference(mode, &data, &model, UserId(0), q, positive_sign);
                        for r in 0..n {
                            let anchor = items[g.gen_range(0..n)];
                            let want = if order[r] != anchor {
                                order[r]
                            } else {
                                anchors += 1;
                                order[(r + 1) % n]
                            };
                            let got = s.item_at_rank(&model, items, anchor, q, positive_sign, r);
                            let case =
                                format!("world {world} {mode:?} q={q} sign={positive_sign} r={r}");
                            assert_eq!(got, want, "{case}");
                            let (bracketed, spare) = (&mut s.bracketed, &mut s.spare);
                            match bracket_select(&s.ranks, items, r, bracketed, spare) {
                                Some(k) => {
                                    assert_eq!(k, order[r], "{case}: bracket");
                                    hits += 1;
                                }
                                None => misses += 1,
                            }
                            draws += 1;
                        }
                    }
                }
            }
        }
        // The bracket, its fallback and the anchor rule all ran.
        assert!(hits > draws / 2, "{hits} bracket hits of {draws}");
        assert!(misses > 0, "the bracket never missed");
        assert!(anchors > 0, "the anchor never sat at the drawn rank");
    }

    #[test]
    fn sample_network_sorts() {
        let mut g = SmallRng::seed_from_u64(13);
        for _ in 0..2_000 {
            let mut sample: [u32; BRACKET_SAMPLE] = std::array::from_fn(|_| {
                if g.gen_bool(0.3) {
                    g.gen_range(0..4)
                } else {
                    g.gen()
                }
            });
            let mut want = sample;
            want.sort_unstable();
            sort_sample(&mut sample);
            assert_eq!(sample, want);
        }
    }

    #[test]
    fn positive_draws_reuse_the_scratch_buffer_after_warmup() {
        let (data, model) = fixture();
        let mut s = DssSampler::dss(DssMode::Map);
        s.refresh(&model);
        let mut rng = SmallRng::seed_from_u64(12);
        s.sample(&data, &model, UserId(0), &mut rng).unwrap(); // warm-up grows the buffer
        let ptr = s.scratch.as_ptr();
        let cap = s.scratch.capacity();
        for _ in 0..200 {
            s.sample(&data, &model, UserId(0), &mut rng).unwrap();
            assert_eq!(s.scratch.as_ptr(), ptr, "scratch reallocated");
            assert_eq!(s.scratch.capacity(), cap, "scratch capacity changed");
        }
    }
}
