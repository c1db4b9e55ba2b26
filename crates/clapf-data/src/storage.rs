//! File-backed CSR storage: write an [`Interactions`] once, reopen it
//! read-only through `mmap`.
//!
//! Million-scale synthetic worlds (see [`crate::stream`]) no longer fit the
//! "hold two index directions in `Vec`s" model comfortably: a 10M-pair
//! world costs ~100 MB of heap for the CSR alone, paid again by every
//! process that touches it. The `.csr` file format stores exactly those
//! four arrays, so reopening a world is one `mmap` call — the kernel pages
//! the arrays in on demand and the process's heap stays at the size of the
//! `Interactions` struct itself.
//!
//! # File format (version 1, all little-endian)
//!
//! | offset | bytes | content |
//! |---|---|---|
//! | 0 | 8 | magic `b"CLAPFCSR"` |
//! | 8 | 4 | version (`u32`, = 1) |
//! | 12 | 4 | reserved (zero) |
//! | 16 | 8 | `n_users` (`u64`) |
//! | 24 | 8 | `n_items` (`u64`) |
//! | 32 | 8 | `n_pairs` (`u64`) |
//! | 40 | 8·(n_users+1) | `user_ptr` (`u64`) |
//! | … | 8·(n_items+1) | `item_ptr` (`u64`) |
//! | … | 4·n_pairs | `user_items` (`u32`) |
//! | … | 4·n_pairs | `item_users` (`u32`) |
//!
//! Every array offset is a multiple of its element alignment (the header is
//! 40 bytes and mappings are page-aligned), which the mapped-slice casts
//! below rely on.
//!
//! # Validation policy
//!
//! [`Interactions::open_csr`] validates the header and the exact file size
//! only. Deep validation (monotone offset arrays, ids in range, sorted
//! rows) would fault every page of the mapping into memory, which defeats
//! the point of mapping a 10M-pair world lazily — so it is the separate,
//! opt-in [`Interactions::validate_csr`]. A corrupt file that passes the
//! shallow check cannot cause memory unsafety: all accesses go through
//! safe slice indexing and at worst panic on an out-of-range offset.
//!
//! # Portability
//!
//! The mmap path is gated on 64-bit little-endian Unix (where `usize`
//! matches the stored `u64` offsets and the raw `mmap(2)` declaration is
//! valid); everywhere else `open_csr` transparently falls back to
//! [`Interactions::load_csr_heap`], which reads the same format into heap
//! `Vec`s.

// The one unsafe surface of this crate: the mmap(2) FFI and the cast from
// mapped bytes to typed slices. Everything else in clapf-data stays safe.
#![allow(unsafe_code)]

use crate::{DataError, Interactions, ItemId, UserId};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a CLAPF CSR file.
pub const CSR_MAGIC: [u8; 8] = *b"CLAPFCSR";
/// Current CSR file format version.
pub const CSR_VERSION: u32 = 1;
const HEADER_BYTES: u64 = 40;

/// `cfg` predicate for the mmap fast path, spelled once.
macro_rules! mmap_supported {
    () => {
        cfg!(all(unix, target_pointer_width = "64", target_endian = "little"))
    };
}

#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
mod mapped {
    use std::os::raw::{c_int, c_void};
    use std::sync::Arc;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// One read-only, privately mapped file region, unmapped on drop.
    pub(super) struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the region is mapped PROT_READ/MAP_PRIVATE and never written
    // through; shared immutable access from any thread is fine, and the
    // munmap in Drop runs exactly once (Arc guards the region).
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file` read-only. `len` must not exceed the
        /// file size (the caller checks the size against the header).
        pub(super) fn map(file: &std::fs::File, len: usize) -> std::io::Result<Arc<MmapRegion>> {
            use std::os::unix::io::AsRawFd;
            debug_assert!(len > 0);
            // SAFETY: a fresh anonymous-address read-only mapping of an open
            // fd; the kernel validates the arguments and MAP_FAILED (-1) is
            // checked below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Arc::new(MmapRegion {
                ptr: ptr as *const u8,
                len,
            }))
        }

        /// Reinterprets `count` elements of `T` starting at byte `offset`.
        ///
        /// # Safety contract (checked by the caller)
        /// `offset` must be a multiple of `align_of::<T>()` (the format
        /// guarantees this), `offset + count·size_of::<T>()` must lie inside
        /// the mapping (the file-size check guarantees this), and `T` must
        /// be valid for any bit pattern (`u64`/`usize` and the
        /// `repr(transparent)` `u32` id newtypes are).
        pub(super) fn slice_at<T>(self: &Arc<Self>, offset: usize, count: usize) -> super::Buf<T> {
            assert!(offset % std::mem::align_of::<T>() == 0, "misaligned CSR array");
            assert!(
                offset + count * std::mem::size_of::<T>() <= self.len,
                "CSR array extends past the mapping"
            );
            super::Buf {
                inner: super::BufInner::Mapped {
                    region: Arc::clone(self),
                    // SAFETY: in-bounds by the assertion above.
                    ptr: unsafe { self.ptr.add(offset) } as *const T,
                    len: count,
                },
            }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

/// A read-only array that is either owned on the heap or borrowed from a
/// shared mapped file region. Dereferences to `[T]`, so the rest of the
/// crate is oblivious to the backing.
pub(crate) struct Buf<T> {
    inner: BufInner<T>,
}

enum BufInner<T> {
    Heap(Vec<T>),
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    Mapped {
        /// Keeps the mapping alive as long as any slice into it.
        region: std::sync::Arc<mapped::MmapRegion>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: Heap is a Vec (Send+Sync for Send+Sync T); Mapped is an immutable
// view into a Send+Sync region kept alive by the Arc.
unsafe impl<T: Send + Sync> Send for Buf<T> {}
unsafe impl<T: Send + Sync> Sync for Buf<T> {}

impl<T> std::ops::Deref for Buf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.inner {
            BufInner::Heap(v) => v,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            BufInner::Mapped { ptr, len, .. } => {
                // SAFETY: ptr/len were validated against the mapping bounds
                // at construction and the region outlives self.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        Buf {
            inner: BufInner::Heap(v),
        }
    }
}

impl<T: Clone> Clone for Buf<T> {
    fn clone(&self) -> Self {
        match &self.inner {
            BufInner::Heap(v) => Buf {
                inner: BufInner::Heap(v.clone()),
            },
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            BufInner::Mapped { region, ptr, len } => Buf {
                inner: BufInner::Mapped {
                    region: std::sync::Arc::clone(region),
                    ptr: *ptr,
                    len: *len,
                },
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buf")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl<T> Buf<T> {
    /// Whether this array borrows a mapped file rather than owning heap.
    pub(crate) fn is_mapped(&self) -> bool {
        match &self.inner {
            BufInner::Heap(_) => false,
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            BufInner::Mapped { .. } => true,
        }
    }
}

fn format_err(msg: impl Into<String>) -> DataError {
    DataError::Format(msg.into())
}

/// Byte size of a version-1 CSR file with the given shape.
fn file_size(n_users: u64, n_items: u64, n_pairs: u64) -> u64 {
    HEADER_BYTES + 8 * (n_users + 1) + 8 * (n_items + 1) + 4 * n_pairs + 4 * n_pairs
}

/// The four array offsets of a version-1 file, in layout order.
fn layout(n_users: u64, n_items: u64, n_pairs: u64) -> [(u64, u64); 4] {
    let user_ptr_at = HEADER_BYTES;
    let item_ptr_at = user_ptr_at + 8 * (n_users + 1);
    let user_items_at = item_ptr_at + 8 * (n_items + 1);
    let item_users_at = user_items_at + 4 * n_pairs;
    [
        (user_ptr_at, n_users + 1),
        (item_ptr_at, n_items + 1),
        (user_items_at, n_pairs),
        (item_users_at, n_pairs),
    ]
}

/// Writes one CSR header.
fn write_header<W: Write>(
    w: &mut W,
    n_users: u64,
    n_items: u64,
    n_pairs: u64,
) -> std::io::Result<()> {
    w.write_all(&CSR_MAGIC)?;
    w.write_all(&CSR_VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&n_users.to_le_bytes())?;
    w.write_all(&n_items.to_le_bytes())?;
    w.write_all(&n_pairs.to_le_bytes())
}

/// Reads and validates a CSR header, returning `(n_users, n_items, n_pairs)`.
fn read_header(bytes: &[u8]) -> Result<(u64, u64, u64), DataError> {
    if bytes.get(..8) != Some(&CSR_MAGIC[..]) {
        return Err(format_err("wrong magic (not a CLAPF CSR file)"));
    }
    if bytes.len() < HEADER_BYTES as usize {
        return Err(format_err("shorter than the CSR header"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != CSR_VERSION {
        return Err(format_err(format!(
            "unsupported version {version} (this build reads {CSR_VERSION})"
        )));
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let (n_users, n_items, n_pairs) = (word(16), word(24), word(32));
    if n_users > u32::MAX as u64 || n_items > u32::MAX as u64 {
        return Err(format_err("user/item count exceeds the u32 id space"));
    }
    Ok((n_users, n_items, n_pairs))
}

/// Streams one `u64` array as little-endian bytes.
pub(crate) fn write_u64s<W: Write>(w: &mut W, xs: &[usize]) -> std::io::Result<()> {
    for &x in xs {
        w.write_all(&(x as u64).to_le_bytes())?;
    }
    Ok(())
}

/// Streams one `u32` array as little-endian bytes.
pub(crate) fn write_u32s<W: Write>(w: &mut W, xs: &[u32]) -> std::io::Result<()> {
    for &x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Writes the header and both offset arrays — the common prefix of the
/// in-memory and the streaming writer. Returns the writer positioned at the
/// `user_items` array.
pub(crate) fn write_prefix<W: Write>(
    w: &mut W,
    n_users: u64,
    n_items: u64,
    user_ptr: &[usize],
    item_ptr: &[usize],
) -> std::io::Result<()> {
    let n_pairs = *user_ptr.last().expect("user_ptr is never empty") as u64;
    write_header(w, n_users, n_items, n_pairs)?;
    write_u64s(w, user_ptr)?;
    write_u64s(w, item_ptr)
}

impl Interactions {
    /// Serializes this matrix to the binary CSR format at `path`.
    ///
    /// The written file reopens with [`open_csr`](Interactions::open_csr)
    /// (zero-copy where supported) or
    /// [`load_csr_heap`](Interactions::load_csr_heap) (everywhere).
    ///
    /// # Errors
    /// Any I/O error from creating or writing the file.
    pub fn write_csr(&self, path: &Path) -> Result<(), DataError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_csr_to(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Streams this matrix in the CSR format to `w` — the body of
    /// [`write_csr`](Interactions::write_csr), also how other file formats
    /// embed a CSR section (see [`decode_csr`](Interactions::decode_csr)).
    ///
    /// # Errors
    /// Any I/O error from `w`.
    pub fn write_csr_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_prefix(
            w,
            self.n_users as u64,
            self.n_items as u64,
            &self.user_ptr,
            &self.item_ptr,
        )?;
        write_u32s(w, item_ids_as_u32(&self.user_items))?;
        write_u32s(w, user_ids_as_u32(&self.item_users))
    }

    /// Opens a CSR file written by [`write_csr`](Interactions::write_csr)
    /// or [`crate::stream::StreamWorld::write_csr`].
    ///
    /// On 64-bit little-endian Unix the four arrays are memory-mapped
    /// read-only: opening a 10M-pair world costs the header read plus one
    /// `mmap`, and pages fault in only as they are touched. Elsewhere this
    /// falls back to [`load_csr_heap`](Interactions::load_csr_heap).
    ///
    /// Validation is shallow (header + exact file size); see the module
    /// docs for the policy and [`validate_csr`](Interactions::validate_csr)
    /// for the deep scan.
    ///
    /// # Errors
    /// [`DataError::Format`] on a malformed header or wrong file size;
    /// [`DataError::Io`] on any I/O failure.
    pub fn open_csr(path: &Path) -> Result<Interactions, DataError> {
        if !mmap_supported!() {
            return Self::load_csr_heap(path);
        }
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        {
            let mut file = File::open(path)?;
            let mut header = [0u8; 40];
            file.read_exact(&mut header)?;
            let (n_users, n_items, n_pairs) = read_header(&header)?;
            let expected = file_size(n_users, n_items, n_pairs);
            let actual = file.metadata()?.len();
            if actual != expected {
                return Err(format_err(format!(
                    "file is {actual} bytes, header implies {expected}"
                )));
            }
            let region = mapped::MmapRegion::map(&file, expected as usize)?;
            let [up, ip, ui, iu] = layout(n_users, n_items, n_pairs);
            Ok(Interactions {
                n_users: n_users as u32,
                n_items: n_items as u32,
                user_ptr: region.slice_at::<usize>(up.0 as usize, up.1 as usize),
                item_ptr: region.slice_at::<usize>(ip.0 as usize, ip.1 as usize),
                // SAFETY of the cast: UserId/ItemId are repr(transparent)
                // over u32, so a u32 array reinterprets as an id array.
                user_items: region.slice_at::<ItemId>(ui.0 as usize, ui.1 as usize),
                item_users: region.slice_at::<UserId>(iu.0 as usize, iu.1 as usize),
            })
        }
        #[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
        unreachable!("mmap_supported! gate above")
    }

    /// Reads a CSR file fully into heap `Vec`s — the portable loader, also
    /// the reference the mmap tests compare against.
    ///
    /// # Errors
    /// As [`open_csr`](Interactions::open_csr).
    pub fn load_csr_heap(path: &Path) -> Result<Interactions, DataError> {
        let bytes = std::fs::read(path)?;
        let (d, used) = Self::decode_csr(&bytes)?;
        if used != bytes.len() {
            return Err(format_err("trailing bytes after the item_users array"));
        }
        // The heap loader reads every byte anyway, so deep validation here
        // is free of extra page traffic — unlike the mapped path.
        d.validate_csr()?;
        Ok(d)
    }

    /// Decodes the CSR section at the front of `bytes` into heap `Vec`s and
    /// returns it with the section's byte length — how other file formats
    /// read a section [`write_csr_to`](Interactions::write_csr_to) wrote.
    ///
    /// Total but shallow, like [`open_csr`](Interactions::open_csr): a short
    /// slice, a bad header or arrays that overrun `bytes` are errors (never
    /// a panic or an oversized allocation), while the array contents are
    /// left to [`validate_csr`](Interactions::validate_csr), which the
    /// caller must run before using the matrix.
    ///
    /// # Errors
    /// [`DataError::Format`] describing the first problem found.
    pub fn decode_csr(bytes: &[u8]) -> Result<(Interactions, usize), DataError> {
        let (n_users, n_items, n_pairs) = read_header(bytes)?;
        // Every pair takes 8 bytes, so this bound keeps `file_size` from
        // overflowing on a corrupt `n_pairs`.
        let size = (n_pairs <= bytes.len() as u64 / 8)
            .then(|| file_size(n_users, n_items, n_pairs))
            .filter(|&size| size <= bytes.len() as u64)
            .ok_or_else(|| format_err("CSR arrays overrun the input"))?;
        let [up, ip, ui, iu] = layout(n_users, n_items, n_pairs);
        let words = |(at, count): (u64, u64), width: usize| {
            bytes[at as usize..(at + count * width as u64) as usize].chunks_exact(width)
        };
        let u64s = |a| -> Buf<usize> {
            words(a, 8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
                .collect::<Vec<_>>()
                .into()
        };
        let u32s = |a| words(a, 4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")));
        let d = Interactions {
            n_users: n_users as u32,
            n_items: n_items as u32,
            user_ptr: u64s(up),
            item_ptr: u64s(ip),
            user_items: u32s(ui).map(ItemId).collect::<Vec<_>>().into(),
            item_users: u32s(iu).map(UserId).collect::<Vec<_>>().into(),
        };
        Ok((d, size as usize))
    }

    /// Whether this matrix borrows a mapped file (true) or owns its arrays
    /// on the heap (false).
    pub fn is_mapped(&self) -> bool {
        self.user_items.is_mapped()
    }

    /// Deep structural validation: monotone offset arrays ending at
    /// `n_pairs`, ids in range, per-row sorted strictly ascending, and the
    /// two directions containing the same number of pairs.
    ///
    /// On a mapped instance this faults every page of the file into memory
    /// — call it when integrity matters more than laziness.
    ///
    /// # Errors
    /// [`DataError::Format`] describing the first violation found.
    pub fn validate_csr(&self) -> Result<(), DataError> {
        let n_pairs = self.user_items.len();
        if self.item_users.len() != n_pairs {
            return Err(format_err("user→item and item→user pair counts differ"));
        }
        for (name, ptr, rows, ids) in [
            ("user_ptr", &self.user_ptr, self.n_users, self.n_items),
            ("item_ptr", &self.item_ptr, self.n_items, self.n_users),
        ] {
            if ptr.len() != rows as usize + 1 {
                return Err(format_err(format!("{name} has wrong length")));
            }
            if ptr[0] != 0 || ptr[rows as usize] != n_pairs {
                return Err(format_err(format!("{name} does not span 0..n_pairs")));
            }
            if ptr.windows(2).any(|w| w[0] > w[1]) {
                return Err(format_err(format!("{name} is not monotone")));
            }
            let flat: &[u32] = if name == "user_ptr" {
                item_ids_as_u32(&self.user_items)
            } else {
                user_ids_as_u32(&self.item_users)
            };
            for row in 0..rows as usize {
                let slice = &flat[ptr[row]..ptr[row + 1]];
                if slice.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format_err(format!(
                        "row {row} of {name} is not strictly sorted"
                    )));
                }
                if slice.last().is_some_and(|&last| last >= ids) {
                    return Err(format_err(format!("row {row} of {name} has an id out of range")));
                }
            }
        }
        Ok(())
    }
}

/// `&[ItemId] → &[u32]`. Sound because `ItemId` is `#[repr(transparent)]`
/// over `u32` (pinned in `ids.rs` for exactly this cast).
fn item_ids_as_u32(ids: &[ItemId]) -> &[u32] {
    unsafe { std::slice::from_raw_parts(ids.as_ptr() as *const u32, ids.len()) }
}

/// `&[UserId] → &[u32]`; see [`item_ids_as_u32`].
fn user_ids_as_u32(users: &[UserId]) -> &[u32] {
    unsafe { std::slice::from_raw_parts(users.as_ptr() as *const u32, users.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InteractionsBuilder;

    fn sample() -> Interactions {
        let mut b = InteractionsBuilder::new(4, 5);
        for (u, i) in [(0, 0), (0, 2), (1, 2), (1, 4), (2, 1), (3, 0), (3, 3)] {
            b.push(UserId(u), ItemId(i)).unwrap();
        }
        b.build().unwrap()
    }

    fn assert_same(a: &Interactions, b: &Interactions) {
        assert_eq!(a.n_users(), b.n_users());
        assert_eq!(a.n_items(), b.n_items());
        assert_eq!(a.n_pairs(), b.n_pairs());
        for u in a.users() {
            assert_eq!(a.items_of(u), b.items_of(u));
        }
        for i in a.items() {
            assert_eq!(a.users_of(i), b.users_of(i));
        }
    }

    #[test]
    fn round_trips_through_file_both_loaders() {
        let d = sample();
        let dir = std::env::temp_dir().join("clapf_storage_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csr");
        d.write_csr(&path).unwrap();

        let heap = Interactions::load_csr_heap(&path).unwrap();
        assert!(!heap.is_mapped());
        assert_same(&d, &heap);

        let opened = Interactions::open_csr(&path).unwrap();
        assert_eq!(opened.is_mapped(), mmap_supported!());
        assert_same(&d, &opened);
        opened.validate_csr().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_instance_clones_and_debugs() {
        let d = sample();
        let dir = std::env::temp_dir().join("clapf_storage_clone");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csr");
        d.write_csr(&path).unwrap();
        let opened = Interactions::open_csr(&path).unwrap();
        let cloned = opened.clone();
        drop(opened); // the clone must keep the mapping alive
        assert_same(&d, &cloned);
        let dbg = format!("{cloned:?}");
        assert!(dbg.contains("Interactions"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join("clapf_storage_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csr");
        std::fs::write(&path, b"NOTACSRFILE-----________").unwrap();
        for res in [
            Interactions::open_csr(&path),
            Interactions::load_csr_heap(&path),
        ] {
            match res {
                Err(DataError::Format(msg)) => assert!(msg.contains("magic"), "{msg}"),
                Err(DataError::Io(_)) => {} // short file: read_exact fails first
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let d = sample();
        let dir = std::env::temp_dir().join("clapf_storage_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.csr");
        d.write_csr(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(Interactions::open_csr(&path).is_err());
        assert!(Interactions::load_csr_heap(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let d = sample();
        let dir = std::env::temp_dir().join("clapf_storage_ver");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ver.csr");
        d.write_csr(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        match Interactions::open_csr(&path) {
            Err(DataError::Format(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected version rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_offsets_fail_deep_validation() {
        let d = sample();
        let dir = std::env::temp_dir().join("clapf_storage_deep");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.csr");
        d.write_csr(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Break one user_ptr entry (first array after the 40-byte header,
        // entry 1) without changing the file size.
        bytes[48] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Shallow open succeeds (size and header are fine)…
        let opened = Interactions::open_csr(&path).unwrap();
        // …but the deep scan reports the corruption.
        assert!(opened.validate_csr().is_err());
        // And the heap loader (which always validates) rejects outright.
        assert!(Interactions::load_csr_heap(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_csr_reads_an_embedded_section_and_rejects_every_prefix() {
        let d = sample();
        let mut bytes = b"lead".to_vec();
        d.write_csr_to(&mut bytes).unwrap();
        let section = bytes.len() - 4;
        bytes.extend_from_slice(b"tail");
        let (back, used) = Interactions::decode_csr(&bytes[4..]).unwrap();
        assert_eq!(used, section);
        back.validate_csr().unwrap();
        assert_same(&d, &back);
        for len in 0..section {
            assert!(Interactions::decode_csr(&bytes[4..4 + len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn file_size_formula_matches_writer() {
        let d = sample();
        let dir = std::env::temp_dir().join("clapf_storage_size");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("size.csr");
        d.write_csr(&path).unwrap();
        let expected = file_size(
            d.n_users() as u64,
            d.n_items() as u64,
            d.n_pairs() as u64,
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), expected);
        std::fs::remove_file(&path).ok();
    }
}
