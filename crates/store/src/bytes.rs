//! Little-endian section codec.
//!
//! Every section payload is a sequence of length-prefixed primitive
//! arrays: a `u64` element count, the raw little-endian element bytes,
//! then zero padding up to the next 8-byte boundary. String lists add a
//! `count + 1` offset table over one concatenated UTF-8 blob, so decoding
//! a list of a million names is one offset-table adoption plus one blob
//! slice per entry — no per-character parsing.
//!
//! The reader bounds-checks *every* access and reports failures as
//! [`ValidationReport`] defects naming the section, never panicking on
//! hostile input: a truncated or bit-flipped file must come back as a
//! clean [`MedKbError::Validation`].

use std::io::{self, Write};
use std::iter;

use medkb_types::{MedKbError, Result, StringColumn, ValidationReport};

use crate::xxh::Xxh64;

/// Bytes a [`SectionWriter`] gathers before it hashes and writes them.
const STAGE_BYTES: usize = 64 * 1024;

/// Streams one little-endian section into a sink, hashing it on the way:
/// values gather in a small staging buffer that is checksummed and written
/// whenever it fills, so a section of any size costs [`STAGE_BYTES`] of
/// memory, never its own size.
///
/// The first write error is kept and every later write skipped, so the
/// section encoders need no error plumbing; [`SectionWriter::finish`]
/// reports it.
pub struct SectionWriter<'a> {
    sink: &'a mut dyn Write,
    stage: Vec<u8>,
    hash: Xxh64,
    written: u64,
    error: Option<io::Error>,
}

impl<'a> SectionWriter<'a> {
    /// An empty section written to `sink` and checksummed with `xxh64`
    /// under `seed`.
    pub fn new(sink: &'a mut dyn Write, seed: u64) -> Self {
        Self {
            sink,
            stage: Vec::with_capacity(STAGE_BYTES),
            hash: Xxh64::new(seed),
            written: 0,
            error: None,
        }
    }

    /// Hash and write the staged bytes, then `tail` (unstaged).
    fn spill(&mut self, tail: &[u8]) {
        for chunk in [&self.stage[..], tail] {
            self.hash.update(chunk);
            self.written += chunk.len() as u64;
            if self.error.is_none() {
                self.error = self.sink.write_all(chunk).err();
            }
        }
        self.stage.clear();
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.stage.len() + bytes.len() <= STAGE_BYTES {
            self.stage.extend_from_slice(bytes);
        } else {
            self.spill(bytes);
        }
    }

    /// Zero-pad to the next 8-byte boundary.
    pub fn pad8(&mut self) {
        let len = self.written as usize + self.stage.len();
        self.push(&[0; 8][..len.next_multiple_of(8) - len]);
    }

    /// Append one `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.push(&v.to_le_bytes());
    }

    /// Append one `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.push(&v.to_le_bytes());
    }

    /// Append one `f64` (exact bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed `u32` array.
    pub fn put_u32_slice(&mut self, s: &[u32]) {
        self.put_u32s(s.iter().copied());
    }

    /// [`SectionWriter::put_u32_slice`] from an iterator, for columns held
    /// as typed ids: the same bytes, without a `Vec<u32>` copy first.
    pub fn put_u32s(&mut self, values: impl ExactSizeIterator<Item = u32>) {
        self.put_u64(values.len() as u64);
        for v in values {
            self.put_u32(v);
        }
        self.pad8();
    }

    /// Append a length-prefixed `u64` array.
    pub fn put_u64_slice(&mut self, s: &[u64]) {
        self.put_u64(s.len() as u64);
        for &v in s {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed `f64` array (exact bit patterns).
    pub fn put_f64_slice(&mut self, s: &[f64]) {
        self.put_u64(s.len() as u64);
        for &v in s {
            self.put_f64(v);
        }
    }

    /// Append a length-prefixed `f32` array (exact bit patterns).
    pub fn put_f32_slice(&mut self, s: &[f32]) {
        self.put_u32s(s.iter().map(|v| v.to_bits()));
    }

    /// Append a length-prefixed raw byte blob of `len` bytes, given in
    /// `chunks`: one slice, or pieces streamed from the columns they encode.
    pub fn put_bytes<B: AsRef<[u8]>>(&mut self, len: usize, chunks: impl IntoIterator<Item = B>) {
        self.put_u64(len as u64);
        for chunk in chunks {
            self.push(chunk.as_ref());
        }
        self.pad8();
    }

    /// Append a string list: count, `count + 1` cumulative byte offsets,
    /// then the concatenated UTF-8 blob. Streams: `strings` is walked
    /// three times instead of being gathered into an arena first.
    pub fn put_strings<'s, I>(&mut self, strings: I)
    where
        I: Iterator<Item = &'s str> + Clone,
    {
        let (count, len) = strings.clone().fold((0, 0), |(n, len), s| (n + 1, len + s.len()));
        u32::try_from(len).expect("string list exceeds u32 offsets");
        let ends = strings.clone().scan(0, |end, s| {
            *end += s.len() as u32;
            Some(*end)
        });
        self.put_string_list(count, iter::once(0).chain(ends), len, strings.map(str::as_bytes));
    }

    /// [`SectionWriter::put_strings`] for strings already in one arena.
    pub fn put_string_column(&mut self, column: &StringColumn) {
        let text = column.text.as_bytes();
        self.put_string_list(column.len(), column.offsets.iter().copied(), text.len(), [text]);
    }

    /// The string-list layout: `count`, its `count + 1` `offsets`, then a
    /// blob of `len` bytes.
    fn put_string_list<'b>(
        &mut self,
        count: usize,
        offsets: impl Iterator<Item = u32>,
        len: usize,
        chunks: impl IntoIterator<Item = &'b [u8]>,
    ) {
        self.put_u64(count as u64);
        for o in offsets {
            self.put_u32(o);
        }
        self.pad8();
        self.put_bytes(len, chunks);
    }

    /// Pad, hash and write what is left; return the section's length and
    /// checksum, or the first error the sink reported.
    ///
    /// # Errors
    /// The first write error of this section.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.pad8();
        self.spill(&[]);
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok((self.written, self.hash.digest())),
        }
    }
}

/// Bounds-checked little-endian reader over one section payload.
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    /// A reader over `buf`, reporting defects against `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self { buf, pos: 0, section }
    }

    /// A validation failure naming this section.
    pub fn fail<T>(&self, message: impl Into<String>) -> Result<T> {
        let mut report = ValidationReport::new();
        report.defect(self.section, None, message);
        Err(MedKbError::Validation(report))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => self.fail(format!(
                "truncated: need {n} bytes at offset {}, section has {}",
                self.pos,
                self.buf.len()
            )),
        }
    }

    /// Skip padding up to the next 8-byte boundary.
    pub fn align8(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Read one `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte chunk")))
    }

    /// Read one `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte chunk")))
    }

    /// Read one `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an element count written by the length-prefixed array forms,
    /// rejecting counts that cannot fit in the remaining bytes.
    fn count(&mut self, elem_bytes: usize) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_bytes as u64).is_none_or(|total| total > remaining) {
            return self.fail(format!(
                "implausible element count {n} (× {elem_bytes} bytes) with {remaining} bytes left"
            ));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed `u32` array.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>> {
        let n = self.count(4)?;
        let bytes = self.take(n * 4)?;
        let out = bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("chunk"))).collect();
        self.align8();
        Ok(out)
    }

    /// Read a length-prefixed `u64` array.
    pub fn u64_slice(&mut self) -> Result<Vec<u64>> {
        let n = self.count(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("chunk"))).collect())
    }

    /// Read a length-prefixed `f64` array.
    pub fn f64_slice(&mut self) -> Result<Vec<f64>> {
        let n = self.count(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk"))))
            .collect())
    }

    /// Read a length-prefixed `f32` array.
    pub fn f32_slice(&mut self) -> Result<Vec<f32>> {
        let n = self.count(4)?;
        let bytes = self.take(n * 4)?;
        let out = bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("chunk"))))
            .collect();
        self.align8();
        Ok(out)
    }

    /// Read a length-prefixed raw byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.count(1)?;
        let out = self.take(n)?;
        self.align8();
        Ok(out)
    }

    /// Read a string list written by [`SectionWriter::put_strings`].
    pub fn strings(&mut self) -> Result<Vec<String>> {
        Ok(self.string_column()?.iter().map(String::from).collect())
    }

    /// Read a string list into one arena, checking that its offsets ascend
    /// from 0 to the blob's length, each on a character boundary.
    pub fn string_column(&mut self) -> Result<StringColumn> {
        let n = self.count(4)?; // offsets dominate the size floor
        let offsets_bytes = self.take((n + 1) * 4)?;
        let offsets: Vec<u32> = offsets_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk")))
            .collect();
        self.align8();
        let blob = self.bytes()?;
        if offsets.first() != Some(&0) || offsets.last().copied().unwrap_or(1) as usize != blob.len()
        {
            return self.fail("string offset table does not span the blob");
        }
        if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
            return self.fail(format!("string offsets out of order: {}..{}", w[0], w[1]));
        }
        let Ok(text) = std::str::from_utf8(blob) else {
            return self.fail("invalid UTF-8 in string blob");
        };
        if let Some(&o) = offsets.iter().find(|&&o| !text.is_char_boundary(o as usize)) {
            return self.fail(format!("string offset {o} splits a UTF-8 character"));
        }
        Ok(StringColumn { offsets, text: text.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        let mut w = SectionWriter::new(&mut buf, 3);
        w.put_u64(7);
        w.put_f64(-0.0);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_f64_slice(&[1.5, f64::NAN]);
        w.put_f32_slice(&[0.25]);
        w.put_strings(["alpha", "", "βήτα"].into_iter());
        w.put_string_column(&["alpha", "", "βήτα"].into_iter().collect());
        w.put_bytes(2, [[1u8], [2]]);
        let (len, checksum) = w.finish().unwrap();
        assert_eq!((len, checksum), (buf.len() as u64, crate::xxh64(&buf, 3)));
        assert_eq!(buf.len() % 8, 0);

        let mut r = SectionReader::new(&buf, "test");
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.u32_slice().unwrap(), vec![1, 2, 3]);
        let f = r.f64_slice().unwrap();
        assert_eq!(f[0], 1.5);
        assert!(f[1].is_nan());
        assert_eq!(r.f32_slice().unwrap(), vec![0.25]);
        assert_eq!(r.strings().unwrap(), vec!["alpha", "", "βήτα"]);
        assert_eq!(r.strings().unwrap(), vec!["alpha", "", "βήτα"]);
        assert_eq!(r.bytes().unwrap(), [1, 2]);
    }

    #[test]
    fn truncation_is_a_defect_not_a_panic() {
        let mut buf = Vec::new();
        let mut w = SectionWriter::new(&mut buf, 0);
        w.put_u32_slice(&[1, 2, 3, 4, 5]);
        w.finish().unwrap();
        // Cuts inside the trailing alignment padding still read the full
        // array; every cut inside the prefix or data must be a defect.
        for cut in 0..8 + 5 * 4 {
            let mut r = SectionReader::new(&buf[..cut], "test");
            match r.u32_slice() {
                Ok(v) => panic!("cut {cut} read data: {v:?}"),
                Err(MedKbError::Validation(report)) => assert!(!report.is_empty()),
                Err(other) => panic!("unexpected error kind: {other:?}"),
            }
        }
    }

    #[test]
    fn implausible_count_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = SectionReader::new(&buf, "test");
        assert!(matches!(r.u32_slice(), Err(MedKbError::Validation(_))));
    }
}
