//! DNS — Dynamic Negative Sampling (Zhang et al., SIGIR 2013).
//!
//! The adaptive-sampling baseline the paper positions DSS against
//! (Sec 2.1/5.1): draw `X` candidate negatives uniformly and keep the one
//! the *current* model scores highest. Unlike AoBPR/DSS it needs no ranking
//! lists — the informativeness comes from the max over a small candidate
//! set — so `refresh` is a no-op and every draw costs `X` score
//! evaluations.
//!
//! Exposed as a [`TripleSampler`] so it can drive CLAPF training directly
//! and be compared against DSS in the convergence experiments; the second
//! observed item `k` is drawn uniformly (DNS is a negative-side strategy).

use crate::{sample_second_observed, sample_unobserved_uniform, TripleSampler};
use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::MfModel;
use rand::RngCore;

/// Dynamic Negative Sampling.
#[derive(Copy, Clone, Debug)]
pub struct DnsSampler {
    /// Number of uniform candidates per draw (the original paper uses a
    /// handful; larger = harder negatives).
    pub candidates: usize,
}

impl DnsSampler {
    /// DNS with the given candidate count (clamped to ≥ 1).
    pub fn new(candidates: usize) -> Self {
        DnsSampler {
            candidates: candidates.max(1),
        }
    }
}

impl Default for DnsSampler {
    fn default() -> Self {
        DnsSampler { candidates: 5 }
    }
}

impl TripleSampler for DnsSampler {
    fn refresh(&mut self, _model: &MfModel) {}

    fn complete(
        &mut self,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        i: ItemId,
        rng: &mut dyn RngCore,
    ) -> Option<(ItemId, ItemId)> {
        let k = sample_second_observed(data, u, i, rng)?;
        let mut best: Option<(f32, ItemId)> = None;
        for _ in 0..self.candidates {
            let cand = sample_unobserved_uniform(data, u, rng)?;
            let score = model.score(u, cand);
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, cand));
            }
        }
        best.map(|(_, j)| (k, j))
    }

    fn name(&self) -> &'static str {
        "DNS"
    }

    fn fork(&self) -> Option<Box<dyn TripleSampler + Send>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::InteractionsBuilder;
    use clapf_mf::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// 1 user observing items 0..5 of 100; model scores = item id.
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
    fn picks_the_hardest_of_its_candidates() {
        let (data, model) = fixture();
        let mut dns = DnsSampler::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sum = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let (_, j) = dns
                .complete(&data, &model, UserId(0), ItemId(0), &mut rng)
                .unwrap();
            assert!(!data.contains(UserId(0), j));
            sum += j.0 as u64;
        }
        // Max of 8 uniform draws from ~5..100 has mean ≈ 89; uniform ≈ 52.
        let mean = sum as f64 / n as f64;
        assert!(mean > 80.0, "mean j id = {mean}");
    }

    #[test]
    fn single_candidate_is_uniform() {
        let (data, model) = fixture();
        let mut dns = DnsSampler::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sum = 0u64;
        let n = 4_000;
        for _ in 0..n {
            let (_, j) = dns
                .complete(&data, &model, UserId(0), ItemId(0), &mut rng)
                .unwrap();
            sum += j.0 as u64;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 52.0).abs() < 4.0, "mean j id = {mean}");
    }

    #[test]
    fn zero_candidates_clamps_to_one() {
        assert_eq!(DnsSampler::new(0).candidates, 1);
        assert_eq!(DnsSampler::default().candidates, 5);
    }

    #[test]
    fn name_and_triple_contract() {
        let (data, model) = fixture();
        let mut dns = DnsSampler::default();
        dns.refresh(&model); // no-op
        assert_eq!(dns.name(), "DNS");
        let mut rng = SmallRng::seed_from_u64(3);
        let t = dns.sample(&data, &model, UserId(0), &mut rng).unwrap();
        assert!(data.contains(UserId(0), t.i));
        assert!(data.contains(UserId(0), t.k));
        assert!(!data.contains(UserId(0), t.j));
    }
}
