//! Writing interaction sets back to disk, and down-sampling utilities.
//!
//! Exports use the same CSV shape the loader reads (`user,item,rating`
//! with a constant positive rating), so a dataset round-trips through
//! [`crate::loader::load_ratings_reader`] — handy for handing synthetic
//! worlds to other tooling or for caching expensive generations.

use crate::{DataError, Interactions};
use rand::seq::SliceRandom;
use rand::Rng;
use std::io::Write;

/// Writes `data` as `user,item,rating` CSV (header included, rating fixed
/// at 5 so the paper's `> 3` binarization keeps every pair on reload).
pub fn write_csv<W: Write>(data: &Interactions, mut w: W) -> std::io::Result<()> {
    writeln!(w, "userId,itemId,rating")?;
    for (u, i) in data.pairs() {
        writeln!(w, "{},{},5", u.0, i.0)?;
    }
    Ok(())
}

/// Keeps a uniform random `fraction` of the observed pairs (id space
/// unchanged). Useful for learning-curve experiments.
///
/// # Errors
/// [`DataError::BadFraction`] unless `0 < fraction <= 1`;
/// [`DataError::Empty`] if nothing survives.
pub fn subsample_pairs<R: Rng>(
    data: &Interactions,
    fraction: f64,
    rng: &mut R,
) -> Result<Interactions, DataError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(DataError::BadFraction(fraction));
    }
    let mut pairs = data.pairs_vec();
    pairs.shuffle(rng);
    let keep = ((pairs.len() as f64) * fraction).round().max(1.0) as usize;
    pairs.truncate(keep.min(pairs.len()));
    if pairs.is_empty() {
        return Err(DataError::Empty);
    }
    let mut b = crate::InteractionsBuilder::with_capacity(data.n_users(), data.n_items(), keep);
    for (u, i) in pairs {
        b.push(u, i)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load_ratings_reader, Separator};
    use crate::{InteractionsBuilder, ItemId, UserId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> Interactions {
        let mut b = InteractionsBuilder::new(4, 5);
        for (u, i) in [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 4), (3, 3)] {
            b.push(UserId(u), ItemId(i)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn csv_round_trips_through_the_loader() {
        let d = data();
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let loaded =
            load_ratings_reader(std::io::Cursor::new(buf), Separator::Comma, 3.0).unwrap();
        assert_eq!(loaded.interactions.n_pairs(), d.n_pairs());
        // Raw ids are the original dense ids (as strings).
        let u0 = loaded.ids.dense_user("0").unwrap();
        assert_eq!(
            loaded.interactions.degree_of_user(u0),
            d.degree_of_user(UserId(0))
        );
    }

    #[test]
    fn subsample_keeps_requested_fraction() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(1);
        let half = subsample_pairs(&d, 0.5, &mut rng).unwrap();
        assert!((half.n_pairs() as i64 - 4).abs() <= 1, "{}", half.n_pairs());
        assert_eq!(half.n_users(), d.n_users());
        assert_eq!(half.n_items(), d.n_items());
        // Every kept pair existed before.
        for (u, i) in half.pairs() {
            assert!(d.contains(u, i));
        }
    }

    #[test]
    fn subsample_full_fraction_is_identity() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(2);
        let all = subsample_pairs(&d, 1.0, &mut rng).unwrap();
        assert_eq!(all.pairs_vec(), d.pairs_vec());
    }

    #[test]
    fn subsample_rejects_bad_fraction() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(subsample_pairs(&d, 0.0, &mut rng).is_err());
        assert!(subsample_pairs(&d, 1.5, &mut rng).is_err());
    }
}
