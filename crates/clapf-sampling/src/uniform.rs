//! Uniform sampling primitives and the baseline uniform triple sampler.

use crate::TripleSampler;
use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::MfModel;
use rand::Rng;
use rand::RngCore;

/// Draws a uniformly random observed `(u, i)` pair — the standard BPR
/// anchor draw.
pub fn sample_observed_pair(data: &Interactions, rng: &mut dyn RngCore) -> (UserId, ItemId) {
    let idx = rng.gen_range(0..data.n_pairs());
    data.pair_at(idx)
}

/// Draws a second observed item of `u`, uniformly, preferring one distinct
/// from `i`. Falls back to `i` itself when the user has a single observed
/// item (the listwise term of CLAPF then contributes a zero gradient, which
/// degrades gracefully to BPR for that user — see Sec 4.2).
pub fn sample_second_observed(
    data: &Interactions,
    u: UserId,
    i: ItemId,
    rng: &mut dyn RngCore,
) -> Option<ItemId> {
    let items = data.items_of(u);
    match items.len() {
        0 => None,
        1 => Some(items[0]),
        n => {
            // Rejection over a uniform index; at most 1/2 rejection chance
            // would be with n = 2, so a handful of tries suffices.
            for _ in 0..32 {
                let k = items[rng.gen_range(0..n)];
                if k != i {
                    return Some(k);
                }
            }
            // Deterministic fallback: the neighbour of i.
            let pos = items.binary_search(&i).unwrap_or(0);
            Some(items[(pos + 1) % n])
        }
    }
}

/// Draws an item unobserved by `u`, uniformly over `I \ I_u⁺`.
///
/// Rejection sampling over all items; with the sparsity of implicit data
/// (< 5% observed in all of Table 1) almost every draw is accepted.
/// Returns `None` if the user has observed everything.
pub fn sample_unobserved_uniform(
    data: &Interactions,
    u: UserId,
    rng: &mut dyn RngCore,
) -> Option<ItemId> {
    let m = data.n_items() as usize;
    if data.degree_of_user(u) >= m {
        return None;
    }
    loop {
        let j = ItemId(rng.gen_range(0..data.n_items()));
        if !data.contains(u, j) {
            return Some(j);
        }
    }
}

/// The "Uniform Sampling" strategy of Sec 6.4.3: `i` and `k` uniform from
/// the observed items, `j` uniform from the unobserved items.
#[derive(Copy, Clone, Debug, Default)]
pub struct UniformSampler;

impl TripleSampler for UniformSampler {
    fn refresh(&mut self, _model: &MfModel) {}

    fn complete(
        &mut self,
        data: &Interactions,
        _model: &MfModel,
        u: UserId,
        i: ItemId,
        rng: &mut dyn RngCore,
    ) -> Option<(ItemId, ItemId)> {
        let k = sample_second_observed(data, u, i, rng)?;
        let j = sample_unobserved_uniform(data, u, rng)?;
        Some((k, j))
    }

    fn name(&self) -> &'static str {
        "Uniform"
    }

    fn fork(&self) -> Option<Box<dyn TripleSampler + Send>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::InteractionsBuilder;
    use clapf_mf::{Init, MfModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> Interactions {
        let mut b = InteractionsBuilder::new(3, 6);
        for (u, i) in [(0, 0), (0, 1), (0, 2), (1, 3), (2, 0), (2, 5)] {
            b.push(UserId(u), ItemId(i)).unwrap();
        }
        b.build().unwrap()
    }

    fn model(d: &Interactions) -> MfModel {
        let mut rng = SmallRng::seed_from_u64(0);
        MfModel::new(d.n_users(), d.n_items(), 4, Init::default(), &mut rng)
    }

    #[test]
    fn observed_pair_is_always_observed() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let (u, i) = sample_observed_pair(&d, &mut rng);
            assert!(d.contains(u, i));
        }
    }

    #[test]
    fn observed_pair_covers_all_pairs() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(sample_observed_pair(&d, &mut rng));
        }
        assert_eq!(seen.len(), d.n_pairs());
    }

    #[test]
    fn second_observed_is_distinct_when_possible() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let k = sample_second_observed(&d, UserId(0), ItemId(1), &mut rng).unwrap();
            assert_ne!(k, ItemId(1));
            assert!(d.contains(UserId(0), k));
        }
    }

    #[test]
    fn second_observed_degenerates_for_single_item_user() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(4);
        let k = sample_second_observed(&d, UserId(1), ItemId(3), &mut rng).unwrap();
        assert_eq!(k, ItemId(3));
    }

    #[test]
    fn unobserved_is_never_observed() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(5);
        for u in [UserId(0), UserId(1), UserId(2)] {
            for _ in 0..100 {
                let j = sample_unobserved_uniform(&d, u, &mut rng).unwrap();
                assert!(!d.contains(u, j));
            }
        }
    }

    #[test]
    fn saturated_user_has_no_negative() {
        let mut b = InteractionsBuilder::new(1, 2);
        b.push(UserId(0), ItemId(0)).unwrap();
        b.push(UserId(0), ItemId(1)).unwrap();
        let d = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        assert!(sample_unobserved_uniform(&d, UserId(0), &mut rng).is_none());
    }

    #[test]
    fn uniform_triple_has_correct_membership() {
        let d = data();
        let m = model(&d);
        let mut s = UniformSampler;
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let t = s.sample(&d, &m, UserId(0), &mut rng).unwrap();
            assert!(d.contains(UserId(0), t.i));
            assert!(d.contains(UserId(0), t.k));
            assert!(!d.contains(UserId(0), t.j));
        }
        assert_eq!(s.name(), "Uniform");
    }

    #[test]
    fn user_without_items_yields_none() {
        let mut b = InteractionsBuilder::new(2, 3);
        b.push(UserId(0), ItemId(0)).unwrap();
        let d = b.build().unwrap();
        let m = model(&d);
        let mut s = UniformSampler;
        let mut rng = SmallRng::seed_from_u64(8);
        assert!(s.sample(&d, &m, UserId(1), &mut rng).is_none());
    }
}
