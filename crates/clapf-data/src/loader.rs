//! Parsers for real rating-file formats.
//!
//! When the actual MovieLens / Netflix dumps are present on disk, the
//! harness can run on them instead of the synthetic stand-ins. The paper's
//! pre-processing is applied here: a rating is kept as an observed positive
//! pair iff it is **strictly greater than 3** ("we take a pre-processing step
//! […] which only keeps the ratings larger than 3 as the observed positive
//! feedback"). Raw user/item ids are re-mapped to dense `0..n` ids.

use crate::{DataError, Interactions, InteractionsBuilder, ItemId, UserId};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

/// The rating threshold of the paper: keep `rating > 3.0`.
pub const PAPER_RATING_THRESHOLD: f64 = 3.0;

/// Field separator of a ratings file.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Separator {
    /// Tab-separated (`u.data` from ML100K).
    Tab,
    /// `::`-separated (`ratings.dat` from ML1M / ML10M).
    DoubleColon,
    /// Comma-separated (`ratings.csv` from ML20M and most exports).
    Comma,
}

impl Separator {
    fn split<'a>(&self, line: &'a str) -> Vec<&'a str> {
        match self {
            Separator::Tab => line.split('\t').collect(),
            Separator::DoubleColon => line.split("::").collect(),
            Separator::Comma => line.split(',').collect(),
        }
    }
}

/// Maps between raw (file) ids and the dense ids used by [`Interactions`].
#[derive(Clone, Debug, Default, serde::Deserialize)]
pub struct IdMap {
    user_to_dense: HashMap<String, u32>,
    item_to_dense: HashMap<String, u32>,
    dense_to_user: Vec<String>,
    dense_to_item: Vec<String>,
}

impl IdMap {
    /// Rebuilds a map from its raw ids in dense order (`users[d]` is the
    /// raw id of dense user `d`), as [`raw_users`](Self::raw_users) and
    /// [`raw_items`](Self::raw_items) list them.
    ///
    /// # Errors
    /// A description of the first raw id listed twice on one side.
    pub fn from_raw(users: Vec<String>, items: Vec<String>) -> Result<IdMap, String> {
        let index = |side: &str, raw: &[String]| {
            let mut map = HashMap::with_capacity(raw.len());
            for (d, r) in raw.iter().enumerate() {
                if map.insert(r.clone(), d as u32).is_some() {
                    return Err(format!("{side} id {r:?} is listed twice"));
                }
            }
            Ok(map)
        };
        Ok(IdMap {
            user_to_dense: index("user", &users)?,
            item_to_dense: index("item", &items)?,
            dense_to_user: users,
            dense_to_item: items,
        })
    }

    /// Every raw user id, indexed by dense id.
    pub fn raw_users(&self) -> &[String] {
        &self.dense_to_user
    }

    /// Every raw item id, indexed by dense id.
    pub fn raw_items(&self) -> &[String] {
        &self.dense_to_item
    }

    fn intern_user(&mut self, raw: &str) -> u32 {
        if let Some(&d) = self.user_to_dense.get(raw) {
            return d;
        }
        let d = self.dense_to_user.len() as u32;
        self.user_to_dense.insert(raw.to_owned(), d);
        self.dense_to_user.push(raw.to_owned());
        d
    }

    fn intern_item(&mut self, raw: &str) -> u32 {
        if let Some(&d) = self.item_to_dense.get(raw) {
            return d;
        }
        let d = self.dense_to_item.len() as u32;
        self.item_to_dense.insert(raw.to_owned(), d);
        self.dense_to_item.push(raw.to_owned());
        d
    }

    /// The raw id of a dense user id.
    pub fn raw_user(&self, u: UserId) -> Option<&str> {
        self.dense_to_user.get(u.index()).map(String::as_str)
    }

    /// The raw id of a dense item id.
    pub fn raw_item(&self, i: ItemId) -> Option<&str> {
        self.dense_to_item.get(i.index()).map(String::as_str)
    }

    /// The dense id of a raw user id.
    pub fn dense_user(&self, raw: &str) -> Option<UserId> {
        self.user_to_dense.get(raw).copied().map(UserId)
    }

    /// Number of distinct users seen.
    pub fn n_users(&self) -> u32 {
        self.dense_to_user.len() as u32
    }

    /// Number of distinct items seen.
    pub fn n_items(&self) -> u32 {
        self.dense_to_item.len() as u32
    }
}

/// Result of loading a ratings file: the binarized interactions and the id
/// mapping back to the raw identifiers.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// Binarized one-class interactions.
    pub interactions: Interactions,
    /// Raw ↔ dense id mapping.
    pub ids: IdMap,
    /// Number of input rows skipped by the rating threshold.
    pub skipped_by_threshold: usize,
}

/// Loads a `user <sep> item <sep> rating [<sep> timestamp]` file from a
/// reader, keeping ratings strictly above `threshold`.
///
/// Lines that are empty or start with `#` are ignored; a header line whose
/// first field is not numeric is ignored as well (ML20M's `ratings.csv` has
/// one).
pub fn load_ratings_reader<R: BufRead>(
    reader: R,
    sep: Separator,
    threshold: f64,
) -> Result<Loaded, DataError> {
    let mut ids = IdMap::default();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut skipped = 0usize;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields = sep.split(trimmed);
        if fields.len() < 3 {
            return Err(DataError::Parse {
                line: lineno + 1,
                message: format!("expected at least 3 fields, found {}", fields.len()),
            });
        }
        let rating: f64 = match fields[2].trim().parse() {
            Ok(r) => r,
            Err(_) => {
                if lineno == 0 {
                    continue; // header row
                }
                return Err(DataError::Parse {
                    line: lineno + 1,
                    message: format!("rating field {:?} is not a number", fields[2]),
                });
            }
        };
        if rating <= threshold {
            skipped += 1;
            continue;
        }
        let u = ids.intern_user(fields[0].trim());
        let i = ids.intern_item(fields[1].trim());
        pairs.push((u, i));
    }

    let mut builder = InteractionsBuilder::with_capacity(ids.n_users(), ids.n_items(), pairs.len());
    for (u, i) in pairs {
        builder.push(UserId(u), ItemId(i))?;
    }
    Ok(Loaded {
        interactions: builder.build()?,
        ids,
        skipped_by_threshold: skipped,
    })
}

/// Loads a ratings file from disk, inferring the separator from its name
/// (`.csv` → comma, `.dat` → `::`, everything else → tab).
pub fn load_ratings_path(path: &Path, threshold: f64) -> Result<Loaded, DataError> {
    let sep = match path.extension().and_then(|e| e.to_str()) {
        Some("csv") => Separator::Comma,
        Some("dat") => Separator::DoubleColon,
        _ => Separator::Tab,
    };
    let file = std::fs::File::open(path)?;
    load_ratings_reader(std::io::BufReader::new(file), sep, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn tab_format_binarizes_above_threshold() {
        let data = "1\t10\t5\t881250949\n1\t11\t3\t881250949\n2\t10\t4\t881250949\n";
        let loaded =
            load_ratings_reader(Cursor::new(data), Separator::Tab, PAPER_RATING_THRESHOLD)
                .unwrap();
        // rating 3 is dropped (strictly greater than 3 kept).
        assert_eq!(loaded.interactions.n_pairs(), 2);
        assert_eq!(loaded.skipped_by_threshold, 1);
        assert_eq!(loaded.ids.n_users(), 2);
        assert_eq!(loaded.ids.n_items(), 1); // item 11 was never kept
    }

    #[test]
    fn double_colon_format_parses() {
        let data = "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978298413\n";
        let loaded =
            load_ratings_reader(Cursor::new(data), Separator::DoubleColon, 3.0).unwrap();
        assert_eq!(loaded.interactions.n_pairs(), 2);
        let u0 = loaded.ids.dense_user("1").unwrap();
        assert_eq!(loaded.ids.raw_user(u0), Some("1"));
    }

    #[test]
    fn csv_header_is_skipped() {
        let data = "userId,movieId,rating,timestamp\n1,296,5.0,1147880044\n1,306,3.5,1147868817\n";
        let loaded = load_ratings_reader(Cursor::new(data), Separator::Comma, 3.0).unwrap();
        assert_eq!(loaded.interactions.n_pairs(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let data = "# a comment\n\n1\t2\t4\n";
        let loaded = load_ratings_reader(Cursor::new(data), Separator::Tab, 3.0).unwrap();
        assert_eq!(loaded.interactions.n_pairs(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let data = "1\t2\t4\nnot-a-line\n";
        let err = load_ratings_reader(Cursor::new(data), Separator::Tab, 3.0).unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_rating_mid_file_is_an_error() {
        let data = "1\t2\t4\n1\t3\tfive\n";
        assert!(matches!(
            load_ratings_reader(Cursor::new(data), Separator::Tab, 3.0),
            Err(DataError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let data = "42\t900\t5\n42\t901\t5\n7\t900\t4\n";
        let loaded = load_ratings_reader(Cursor::new(data), Separator::Tab, 3.0).unwrap();
        assert_eq!(loaded.ids.dense_user("42"), Some(UserId(0)));
        assert_eq!(loaded.ids.dense_user("7"), Some(UserId(1)));
        assert_eq!(loaded.ids.raw_item(ItemId(0)), Some("900"));
        assert_eq!(loaded.ids.raw_item(ItemId(1)), Some("901"));
        assert_eq!(loaded.ids.dense_user("999"), None);
    }

    #[test]
    fn all_below_threshold_is_empty_error() {
        let data = "1\t2\t1\n1\t3\t2\n";
        assert!(matches!(
            load_ratings_reader(Cursor::new(data), Separator::Tab, 3.0),
            Err(DataError::Empty)
        ));
    }
}
