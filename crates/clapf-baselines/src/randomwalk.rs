//! RandomWalk: neighborhood propagation over the user–item bipartite graph.
//!
//! The paper's description: "estimates the user's preference on an item via
//! a weighted average of all reachable users' preferences on that item",
//! with a *walk length* and a *reachable threshold* as hyper-parameters.
//!
//! We implement the deterministic expectation of those walks: a
//! user→item→user propagation round reaches every user that co-observed an
//! item with the source, weighted by the co-observation count; `hops` rounds
//! correspond to walk length `2·hops` (the paper searches walk lengths
//! {20, 40, 60, 80}, i.e. re-weighting of multi-hop neighbours — on the
//! datasets' densities one or two expectation rounds already saturate the
//! reachable set, which is why the paper "makes some tradeoffs between
//! efficiency and effectiveness" for this method). Neighbours whose overlap
//! falls below `threshold` are discarded, exactly the paper's reachability
//! threshold.

use clapf_core::Recommender;
use clapf_data::{Interactions, ItemId, UserId};

/// RandomWalk hyper-parameters.
#[derive(Copy, Clone, Debug)]
pub struct RandomWalkConfig {
    /// Propagation rounds (walk length = 2·hops).
    pub hops: usize,
    /// Minimum co-observation count for a user to count as reachable.
    pub threshold: usize,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        RandomWalkConfig {
            hops: 1,
            threshold: 2,
        }
    }
}

/// The RandomWalk trainer.
#[derive(Copy, Clone, Debug, Default)]
pub struct RandomWalk {
    /// Hyper-parameters.
    pub config: RandomWalkConfig,
}

/// Fitted RandomWalk model. Keeps the training interactions and computes
/// neighbourhood scores lazily per user (each evaluation scores a user once,
/// so caching per-user vectors would only cost memory).
#[derive(Clone, Debug)]
pub struct RandomWalkModel {
    config: RandomWalkConfig,
    train: Interactions,
}

impl RandomWalk {
    /// "Fits" the model (stores the graph; all computation is at scoring).
    pub fn fit(&self, data: &Interactions) -> RandomWalkModel {
        RandomWalkModel {
            config: self.config,
            train: data.clone(),
        }
    }
}

impl RandomWalkModel {
    /// The reachable-user weights of `u` after `hops` rounds of
    /// user→item→user propagation (each round distributes every user's mass
    /// to co-observing users, weighted by co-observation counts), then
    /// thresholded. Dense over user ids and accumulated in id order, so the
    /// floating-point sums — and hence the scores — are reproducible.
    fn reachable(&self, u: UserId) -> Vec<f64> {
        let n_users = self.train.n_users() as usize;
        let mut mass = vec![0.0f64; n_users];
        mass[u.index()] = 1.0;
        for _ in 0..self.config.hops.max(1) {
            let mut next = vec![0.0f64; n_users];
            for (v, &w) in mass.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                for &item in self.train.items_of(UserId(v as u32)) {
                    for &reached in self.train.users_of(item) {
                        next[reached.index()] += w;
                    }
                }
            }
            mass = next;
        }
        mass[u.index()] = 0.0; // a user is not her own neighbour
        for w in &mut mass {
            if *w < self.config.threshold as f64 {
                *w = 0.0;
            }
        }
        mass
    }
}

impl Recommender for RandomWalkModel {
    fn name(&self) -> String {
        "RandomWalk".into()
    }

    fn n_items(&self) -> u32 {
        self.train.n_items()
    }

    fn score(&self, u: UserId, i: ItemId) -> f32 {
        let mut out = Vec::new();
        self.scores_into(u, &mut out);
        out[i.index()]
    }

    fn scores_into(&self, u: UserId, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.train.n_items() as usize, 0.0);
        let neighbours = self.reachable(u);
        let total: f64 = neighbours.iter().sum();
        if total == 0.0 {
            return;
        }
        for (v, &w) in neighbours.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for &item in self.train.items_of(UserId(v as u32)) {
                out[item.index()] += (w / total) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::InteractionsBuilder;

    /// Two communities: users {0,1,2} like items {0,1,2}, users {3,4} like
    /// items {5,6}. User 0 has not seen item 2 yet.
    fn communities() -> Interactions {
        let mut b = InteractionsBuilder::new(5, 7);
        for (u, i) in [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 2),
            (3, 5),
            (3, 6),
            (4, 5),
            (4, 6),
        ] {
            b.push(UserId(u), ItemId(i)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn recommends_within_community() {
        let model = RandomWalk {
            config: RandomWalkConfig {
                hops: 1,
                threshold: 1,
            },
        }
        .fit(&communities());
        let mut scores = Vec::new();
        model.scores_into(UserId(0), &mut scores);
        // Item 2 (liked by the community) must beat items 5/6 (other community).
        assert!(scores[2] > scores[5]);
        assert!(scores[2] > scores[6]);
        assert_eq!(scores[5], 0.0);
    }

    #[test]
    fn threshold_prunes_weak_neighbours() {
        let data = communities();
        // User 2 shares 1 item with user 0 (item 0) and 2 with user 1.
        let strict = RandomWalk {
            config: RandomWalkConfig {
                hops: 1,
                threshold: 2,
            },
        }
        .fit(&data);
        let mut scores = Vec::new();
        strict.scores_into(UserId(2), &mut scores);
        // Only user 1 survives the threshold; its items are 0, 1, 2.
        assert!(scores[1] > 0.0);
        assert_eq!(scores[5], 0.0);
    }

    #[test]
    fn isolated_user_gets_zero_scores() {
        let mut b = InteractionsBuilder::new(3, 3);
        b.push(UserId(0), ItemId(0)).unwrap();
        b.push(UserId(1), ItemId(1)).unwrap();
        b.push(UserId(2), ItemId(2)).unwrap();
        let data = b.build().unwrap();
        let model = RandomWalk::default().fit(&data);
        let mut scores = Vec::new();
        model.scores_into(UserId(0), &mut scores);
        assert!(scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn two_hops_reach_further() {
        // Chain: u0-{i0}, u1-{i0,i1}, u2-{i1,i2}. With 1 hop u0 reaches u1
        // only; with 2 hops it also reaches u2 (via u1).
        let mut b = InteractionsBuilder::new(3, 3);
        for (u, i) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)] {
            b.push(UserId(u), ItemId(i)).unwrap();
        }
        let data = b.build().unwrap();
        let one = RandomWalk {
            config: RandomWalkConfig {
                hops: 1,
                threshold: 1,
            },
        }
        .fit(&data);
        let two = RandomWalk {
            config: RandomWalkConfig {
                hops: 2,
                threshold: 1,
            },
        }
        .fit(&data);
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        one.scores_into(UserId(0), &mut s1);
        two.scores_into(UserId(0), &mut s2);
        assert_eq!(s1[2], 0.0, "one hop should not reach item 2");
        assert!(s2[2] > 0.0, "two hops should reach item 2");
    }

    #[test]
    fn refits_score_bit_identically() {
        // Scores sum many neighbours' f32 contributions; the order of those
        // sums must not depend on anything but the data.
        use clapf_data::synthetic::{generate, WorldConfig};
        use rand::{rngs::SmallRng, SeedableRng};
        let world = WorldConfig {
            n_users: 120,
            n_items: 90,
            target_pairs: 2_400,
            ..WorldConfig::default()
        };
        let data = generate(&world, &mut SmallRng::seed_from_u64(3)).unwrap();
        let a = RandomWalk::default().fit(&data);
        let b = RandomWalk::default().fit(&data);
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        for u in data.users() {
            a.scores_into(u, &mut sa);
            b.scores_into(u, &mut sb);
            let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sa), bits(&sb), "user {u:?} scored differently");
        }
    }

    #[test]
    fn name_and_dims() {
        let model = RandomWalk::default().fit(&communities());
        assert_eq!(model.name(), "RandomWalk");
        assert_eq!(model.n_items(), 7);
        // score() agrees with scores_into().
        let mut s = Vec::new();
        model.scores_into(UserId(1), &mut s);
        assert_eq!(model.score(UserId(1), ItemId(2)), s[2]);
    }
}
