//! The core one-class interaction matrix.

use crate::storage::Buf;
use crate::{ItemId, UserId};

/// An immutable binary user–item interaction matrix in compressed sparse
/// form, indexed in *both* directions.
///
/// `Interactions` is the "implicit feedback" object of the paper: a set of
/// observed positive pairs `(u, i)` with everything else unobserved. Every
/// model in the workspace consumes this type; the split protocol produces
/// training, validation and test instances of it over the same id space.
///
/// Internally this is a CSR matrix (user → sorted item list) plus its
/// transpose (item → sorted user list). Per-user and per-item slices are
/// `O(1)` to obtain, membership checks are `O(log n)` binary searches.
///
/// The four index arrays are `Buf`s: heap-owned for matrices built in
/// memory, file-backed for matrices reopened with
/// [`open_csr`](Interactions::open_csr). Every accessor works identically
/// on both.
#[derive(Clone, Debug)]
pub struct Interactions {
    pub(crate) n_users: u32,
    pub(crate) n_items: u32,
    /// CSR offsets: items of user `u` live at `user_items[user_ptr[u]..user_ptr[u+1]]`.
    pub(crate) user_ptr: Buf<usize>,
    /// Concatenated, per-user-sorted item ids.
    pub(crate) user_items: Buf<ItemId>,
    /// CSC offsets: users of item `i` live at `item_users[item_ptr[i]..item_ptr[i+1]]`.
    pub(crate) item_ptr: Buf<usize>,
    /// Concatenated, per-item-sorted user ids.
    pub(crate) item_users: Buf<UserId>,
}

impl Interactions {
    /// Number of users in the id space (including users with no observed pairs).
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// Number of items in the id space (including items with no observed pairs).
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Total number of observed positive pairs (`|P|` in the paper).
    #[inline]
    pub fn n_pairs(&self) -> usize {
        self.user_items.len()
    }

    /// Fraction of the user×item matrix that is observed.
    pub fn density(&self) -> f64 {
        if self.n_users == 0 || self.n_items == 0 {
            return 0.0;
        }
        self.n_pairs() as f64 / (self.n_users as f64 * self.n_items as f64)
    }

    /// The observed items of user `u` (`I_u^+` in the paper), sorted by id.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn items_of(&self, u: UserId) -> &[ItemId] {
        let ui = u.index();
        &self.user_items[self.user_ptr[ui]..self.user_ptr[ui + 1]]
    }

    /// The users that observed item `i`, sorted by id.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn users_of(&self, i: ItemId) -> &[UserId] {
        let ii = i.index();
        &self.item_users[self.item_ptr[ii]..self.item_ptr[ii + 1]]
    }

    /// Number of observed items for user `u` (`n_u^+` in the paper).
    #[inline]
    pub fn degree_of_user(&self, u: UserId) -> usize {
        self.items_of(u).len()
    }

    /// Whether the pair `(u, i)` is observed. `O(log n_u^+)`.
    #[inline]
    pub fn contains(&self, u: UserId, i: ItemId) -> bool {
        self.items_of(u).binary_search(&i).is_ok()
    }

    /// Iterator over every user id in the id space.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.n_users).map(UserId)
    }

    /// Iterator over every item id in the id space.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.n_items).map(ItemId)
    }

    /// Iterator over all observed `(user, item)` pairs in user-major order.
    pub fn pairs(&self) -> impl Iterator<Item = (UserId, ItemId)> + '_ {
        self.users()
            .flat_map(move |u| self.items_of(u).iter().map(move |&i| (u, i)))
    }

    /// Popularity (observation count) of every item, indexable by `ItemId::index`.
    pub fn item_popularity(&self) -> Vec<usize> {
        (0..self.n_items as usize)
            .map(|i| self.item_ptr[i + 1] - self.item_ptr[i])
            .collect()
    }

    /// The `idx`-th observed pair in user-major order, `O(log n_users)`.
    ///
    /// Lets samplers draw a uniform observed pair without materializing the
    /// pair list.
    ///
    /// # Panics
    /// Panics if `idx >= n_pairs()`.
    pub fn pair_at(&self, idx: usize) -> (UserId, ItemId) {
        assert!(idx < self.n_pairs(), "pair index out of range");
        // First user whose range ends beyond idx.
        let u = self.user_ptr.partition_point(|&p| p <= idx) - 1;
        (UserId(u as u32), self.user_items[idx])
    }

    /// Collects the observed pairs into a vector; handy for shuffling during SGD.
    pub fn pairs_vec(&self) -> Vec<(UserId, ItemId)> {
        let mut v = Vec::with_capacity(self.n_pairs());
        v.extend(self.pairs());
        v
    }

    /// Builds an `Interactions` over the same id space from a subset of pairs.
    ///
    /// Used by the split protocol; pairs must be in range (they come from an
    /// existing instance, so they are).
    pub(crate) fn from_pairs(n_users: u32, n_items: u32, pairs: &[(UserId, ItemId)]) -> Self {
        let nu = n_users as usize;
        let ni = n_items as usize;

        let mut user_ptr = vec![0usize; nu + 1];
        for &(u, _) in pairs {
            user_ptr[u.index() + 1] += 1;
        }
        for i in 0..nu {
            user_ptr[i + 1] += user_ptr[i];
        }
        let mut cursor = user_ptr.clone();
        let mut user_items = vec![ItemId(0); pairs.len()];
        for &(u, i) in pairs {
            user_items[cursor[u.index()]] = i;
            cursor[u.index()] += 1;
        }
        for u in 0..nu {
            user_items[user_ptr[u]..user_ptr[u + 1]].sort_unstable();
        }

        let mut item_ptr = vec![0usize; ni + 1];
        for &(_, i) in pairs {
            item_ptr[i.index() + 1] += 1;
        }
        for i in 0..ni {
            item_ptr[i + 1] += item_ptr[i];
        }
        let mut cursor = item_ptr.clone();
        let mut item_users = vec![UserId(0); pairs.len()];
        for &(u, i) in pairs {
            item_users[cursor[i.index()]] = u;
            cursor[i.index()] += 1;
        }
        for i in 0..ni {
            item_users[item_ptr[i]..item_ptr[i + 1]].sort_unstable();
        }

        Interactions {
            n_users,
            n_items,
            user_ptr: user_ptr.into(),
            user_items: user_items.into(),
            item_ptr: item_ptr.into(),
            item_users: item_users.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InteractionsBuilder;

    fn small() -> Interactions {
        let mut b = InteractionsBuilder::new(3, 4);
        for (u, i) in [(0, 0), (0, 2), (1, 2), (1, 3), (2, 1)] {
            b.push(UserId(u), ItemId(i)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_and_density() {
        let d = small();
        assert_eq!(d.n_users(), 3);
        assert_eq!(d.n_items(), 4);
        assert_eq!(d.n_pairs(), 5);
        assert!((d.density() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn items_of_is_sorted() {
        let d = small();
        assert_eq!(d.items_of(UserId(0)), &[ItemId(0), ItemId(2)]);
        assert_eq!(d.items_of(UserId(1)), &[ItemId(2), ItemId(3)]);
        assert_eq!(d.items_of(UserId(2)), &[ItemId(1)]);
    }

    #[test]
    fn users_of_is_transpose() {
        let d = small();
        assert_eq!(d.users_of(ItemId(2)), &[UserId(0), UserId(1)]);
        assert_eq!(d.users_of(ItemId(0)), &[UserId(0)]);
        assert!(d.users_of(ItemId(1)).contains(&UserId(2)));
    }

    #[test]
    fn contains_agrees_with_lists() {
        let d = small();
        assert!(d.contains(UserId(0), ItemId(2)));
        assert!(!d.contains(UserId(0), ItemId(3)));
        assert!(!d.contains(UserId(2), ItemId(0)));
    }

    #[test]
    fn pairs_iterates_everything_once() {
        let d = small();
        let pairs: Vec<_> = d.pairs().collect();
        assert_eq!(pairs.len(), 5);
        assert!(pairs.contains(&(UserId(2), ItemId(1))));
    }

    #[test]
    fn popularity_matches_transpose() {
        let d = small();
        assert_eq!(d.item_popularity(), vec![1, 1, 2, 1]);
    }

    #[test]
    fn degree_accessors() {
        let d = small();
        assert_eq!(d.degree_of_user(UserId(1)), 2);
    }

    #[test]
    fn empty_user_has_empty_slice() {
        let mut b = InteractionsBuilder::new(2, 2);
        b.push(UserId(0), ItemId(0)).unwrap();
        let d = b.build().unwrap();
        assert!(d.items_of(UserId(1)).is_empty());
    }

    #[test]
    fn pair_at_enumerates_all_pairs() {
        let d = small();
        let by_index: Vec<_> = (0..d.n_pairs()).map(|i| d.pair_at(i)).collect();
        let by_iter: Vec<_> = d.pairs().collect();
        assert_eq!(by_index, by_iter);
    }

    #[test]
    #[should_panic(expected = "pair index out of range")]
    fn pair_at_out_of_range_panics() {
        small().pair_at(99);
    }

    #[test]
    fn zero_density_on_degenerate_dims() {
        let d = Interactions::from_pairs(0, 0, &[]);
        assert_eq!(d.density(), 0.0);
    }
}
