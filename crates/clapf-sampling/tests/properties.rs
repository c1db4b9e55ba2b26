//! Property-based tests for sampler contracts: every sampler, on every
//! dataset shape, produces triples with the right class membership.

use clapf_data::{Interactions, InteractionsBuilder, ItemId, UserId};
use clapf_mf::{Init, MfModel};
use clapf_sampling::{
    sample_observed_pair, sample_unobserved_uniform, DnsSampler, DssMode, DssSampler, Geometric,
    TripleSampler, UniformSampler,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_interactions() -> impl Strategy<Value = Interactions> {
    (2u32..15, 3u32..25).prop_flat_map(|(n_users, n_items)| {
        proptest::collection::hash_set((0..n_users, 0..n_items), 1..50).prop_filter_map(
            "nonempty",
            move |set| {
                let mut b = InteractionsBuilder::new(n_users, n_items);
                for (u, i) in &set {
                    b.push(UserId(*u), ItemId(*i)).ok()?;
                }
                b.build().ok()
            },
        )
    })
}

fn model_for(data: &Interactions, seed: u64) -> MfModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    MfModel::new(
        data.n_users(),
        data.n_items(),
        3,
        Init::Gaussian { std: 0.5 },
        &mut rng,
    )
}

fn check_sampler<S: TripleSampler>(
    sampler: &mut S,
    data: &Interactions,
    model: &MfModel,
    seed: u64,
) -> Result<(), TestCaseError> {
    sampler.refresh(model);
    let mut rng = SmallRng::seed_from_u64(seed);
    for u in data.users() {
        let degree = data.degree_of_user(u);
        if degree == 0 || degree >= data.n_items() as usize {
            continue;
        }
        for _ in 0..8 {
            let t = sampler
                .sample(data, model, u, &mut rng)
                .expect("user has positives and negatives");
            prop_assert!(data.contains(u, t.i), "{}: i not observed", sampler.name());
            prop_assert!(data.contains(u, t.k), "{}: k not observed", sampler.name());
            prop_assert!(!data.contains(u, t.j), "{}: j observed", sampler.name());
            if degree >= 2 {
                prop_assert!(t.k != t.i, "{}: k == i despite degree ≥ 2", sampler.name());
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn uniform_sampler_contract(data in arb_interactions(), seed in 0u64..300) {
        check_sampler(&mut UniformSampler, &data, &model_for(&data, seed), seed)?;
    }

    #[test]
    fn dss_sampler_contract(data in arb_interactions(), seed in 0u64..300) {
        let model = model_for(&data, seed);
        check_sampler(&mut DssSampler::dss(DssMode::Map), &data, &model, seed)?;
        check_sampler(&mut DssSampler::dss(DssMode::Mrr), &data, &model, seed)?;
        check_sampler(&mut DssSampler::positive_only(DssMode::Map), &data, &model, seed)?;
        check_sampler(&mut DssSampler::negative_only(DssMode::Map), &data, &model, seed)?;
    }

    #[test]
    fn dns_sampler_contract(data in arb_interactions(), seed in 0u64..300) {
        let model = model_for(&data, seed);
        check_sampler(&mut DnsSampler::new(4), &data, &model, seed)?;
    }

    #[test]
    fn observed_pair_is_uniform_over_pairs(data in arb_interactions(), seed in 0u64..100) {
        // Chi-square-lite: with enough draws every pair appears.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let n = data.n_pairs();
        for _ in 0..n * 60 {
            seen.insert(sample_observed_pair(&data, &mut rng));
        }
        prop_assert_eq!(seen.len(), n, "some pair never sampled");
    }

    #[test]
    fn unobserved_draw_covers_complement(data in arb_interactions(), seed in 0u64..100) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for u in data.users().take(4) {
            let unobserved = data.n_items() as usize - data.degree_of_user(u);
            if unobserved == 0 || unobserved > 12 {
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            for _ in 0..unobserved * 80 {
                if let Some(j) = sample_unobserved_uniform(&data, u, &mut rng) {
                    seen.insert(j);
                }
            }
            prop_assert_eq!(seen.len(), unobserved);
        }
    }

    #[test]
    fn geometric_mass_is_monotone(tail in 1.0f64..64.0, len in 2usize..200, seed in 0u64..100) {
        // Earlier ranks receive at least as much mass as much-later ranks.
        let g = Geometric::new(tail);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0usize; len];
        for _ in 0..4_000 {
            counts[g.draw(len, &mut rng)] += 1;
        }
        let head: usize = counts[..len.div_ceil(4)].iter().sum();
        let tail_mass: usize = counts[len - len.div_ceil(4)..].iter().sum();
        prop_assert!(head >= tail_mass, "head {head} < tail {tail_mass}");
    }
}
