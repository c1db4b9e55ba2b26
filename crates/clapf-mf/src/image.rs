//! The model image: the one binary format every saved model uses.
//!
//! A model bundle (`clapf fit --save`, what `clapf serve` loads) and a
//! training checkpoint are the same thing on disk up to their last
//! section: a header, the [`MfModel`] tables as raw `f32` arrays, then the
//! kind's own fields. Loading reads the file into heap `Vec`s in one pass;
//! there is no text parse and no intermediate document tree.
//!
//! # File format (version 1, all little-endian)
//!
//! | offset | bytes | content |
//! |---|---|---|
//! | 0 | 8 | magic `b"CLAPFIMG"` |
//! | 8 | 4 | version (`u32`, = 1) |
//! | 12 | 4 | kind (`u32`: 1 = bundle, 2 = checkpoint) |
//! | 16 | 4 | `n_users` (`u32`) |
//! | 20 | 4 | `n_items` (`u32`) |
//! | 24 | 4 | `dim` (`u32`) |
//! | 28 | 4 | reserved (zero) |
//! | 32 | 4·n_users·dim | user factors (`f32`, row-major) |
//! | … | 4·n_items·dim | item factors (`f32`, row-major) |
//! | … | 4·n_items | item biases (`f32`) |
//! | … | … | the kind's sections (below) |
//!
//! Offsets 16–31 and the three tables are the model's own block, written
//! and read by [`MfModel`] alone. The kind's sections use three encodings:
//! `u32`/`u64`/`f32` words, strings as a `u32` byte length followed by
//! UTF-8 bytes, and zero padding up to the next multiple of 8 where a
//! section wants aligned words. The sections are defined by their owners:
//! a bundle's in `clapf-serve`'s `bundle` module, a checkpoint's in
//! `clapf-core`'s `checkpoint` module. A file ends exactly where its last
//! section does.
//!
//! # Validation policy
//!
//! Decoding is total: a short file, a wrong magic, version or kind, a
//! length that overruns the file, bad UTF-8 or trailing bytes are an
//! `Err` describing the problem, never a panic, and no allocation is
//! larger than the bytes that back it. Whether the decoded values make
//! sense together (finite parameters, ids in range) is the caller's
//! `validate` step.

use crate::MfModel;

/// Magic bytes identifying a model image.
pub const IMAGE_MAGIC: [u8; 8] = *b"CLAPFIMG";
/// Current model-image format version.
pub const IMAGE_VERSION: u32 = 1;

/// What a model image holds after the model tables.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ImageKind {
    /// A servable model bundle.
    Bundle = 1,
    /// A resumable training checkpoint.
    Checkpoint = 2,
}

/// Builds one image in memory: the header and model tables on creation,
/// then the kind's sections in order.
pub struct ImageWriter {
    buf: Vec<u8>,
}

impl ImageWriter {
    /// Starts an image of `kind` around `model`.
    pub fn new(kind: ImageKind, model: &MfModel) -> Self {
        let mut w = ImageWriter { buf: Vec::new() };
        w.buf.extend_from_slice(&IMAGE_MAGIC);
        w.u32(IMAGE_VERSION);
        w.u32(kind as u32);
        model.write_tables(&mut w);
        w
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f32` array (no length prefix).
    pub fn f32s(&mut self, xs: &[f32]) {
        self.buf.reserve(4 * xs.len());
        for x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string section under 4 GiB"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Zero-pads to the next multiple of 8 bytes.
    pub fn align8(&mut self) {
        self.buf.resize(self.buf.len().next_multiple_of(8), 0);
    }

    /// The bytes so far, for section writers that stream into a
    /// `std::io::Write`.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// The finished image.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked cursor over an image being decoded. Every read fails
/// with a description instead of reading past the end.
pub struct ImageReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> ImageReader<'a> {
    /// Checks the header of `bytes` against `kind` and decodes the model
    /// tables; the reader is left at the first of the kind's sections.
    pub fn open(bytes: &'a [u8], kind: ImageKind) -> Result<(MfModel, Self), String> {
        if bytes.get(..8) != Some(&IMAGE_MAGIC[..]) {
            return Err("not a model image (bad magic)".into());
        }
        let mut r = ImageReader { bytes, at: 8 };
        let version = r.u32()?;
        if version != IMAGE_VERSION {
            return Err(format!(
                "model image version {version} (this build reads {IMAGE_VERSION})"
            ));
        }
        let found = r.u32()?;
        if found != kind as u32 {
            return Err(format!("model image of kind {found}, expected {kind:?}"));
        }
        let model = MfModel::read_tables(&mut r)?;
        Ok((model, r))
    }

    /// Takes the next `n` bytes.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("{what} overruns the file ({n} bytes at offset {})", self.at))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads `count` `f32`s.
    pub fn f32s(&mut self, count: usize, what: &str) -> Result<Vec<f32>, String> {
        let n = count
            .checked_mul(4)
            .ok_or_else(|| format!("{what} length overflows"))?;
        Ok(self
            .take(n, what)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32()? as usize;
        let b = self.take(len, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    /// Skips the zero padding up to the next multiple of 8 bytes.
    pub fn align8(&mut self) -> Result<(), String> {
        let pad = self.at.next_multiple_of(8) - self.at;
        if self.take(pad, "padding")?.iter().any(|&b| b != 0) {
            return Err("non-zero padding".into());
        }
        Ok(())
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    /// Skips `n` bytes that a section decoder consumed from [`rest`](Self::rest).
    pub fn skip(&mut self, n: usize) -> Result<(), String> {
        self.take(n, "section").map(drop)
    }

    /// Checks that the whole file was read.
    pub fn finish(self) -> Result<(), String> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the last section")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> MfModel {
        MfModel::new(3, 5, 4, Init::SmallUniform { scale: 0.5 }, &mut SmallRng::seed_from_u64(2))
    }

    fn image(m: &MfModel) -> Vec<u8> {
        let mut w = ImageWriter::new(ImageKind::Checkpoint, m);
        w.str("tail");
        w.align8();
        w.u64(7);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<(MfModel, String, u64), String> {
        let (m, mut r) = ImageReader::open(bytes, ImageKind::Checkpoint)?;
        let s = r.str("tail")?;
        r.align8()?;
        let x = r.u64()?;
        r.finish()?;
        Ok((m, s, x))
    }

    #[test]
    fn tables_round_trip_bit_exactly_and_re_encode_identically() {
        let m = model();
        let bytes = image(&m);
        assert_eq!(&bytes[..8], b"CLAPFIMG");
        assert_eq!(bytes.len() % 8, 0);
        let (back, s, x) = decode(&bytes).unwrap();
        assert_eq!((s.as_str(), x), ("tail", 7));
        assert_eq!(back.n_users(), 3);
        assert_eq!(back.n_items(), 5);
        assert_eq!(back.dim(), 4);
        assert_eq!(image(&back), bytes);
    }

    #[test]
    fn every_prefix_and_a_trailing_byte_are_errors() {
        let bytes = image(&model());
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes decoded");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).unwrap_err().contains("trailing"));
    }

    #[test]
    fn wrong_magic_version_kind_and_huge_dims_are_errors() {
        let bytes = image(&model());
        let patched = |at: usize, with: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + with.len()].copy_from_slice(with);
            decode(&b).unwrap_err()
        };
        assert!(patched(0, b"X").contains("not a model image"));
        assert!(patched(8, &9u32.to_le_bytes()).contains("version"));
        assert!(patched(12, &1u32.to_le_bytes()).contains("kind"));
        assert!(patched(16, &u32::MAX.to_le_bytes()).contains("overruns"));
        assert!(patched(28, &1u32.to_le_bytes()).contains("reserved"));
    }
}
