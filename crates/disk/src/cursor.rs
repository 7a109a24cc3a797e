//! The one bounds-checked byte cursor both section parsers walk.

use crate::{Error, Result};

/// A bounds-checked walk over one section of the mapping. Every read is
/// checked against the section's declared extent and fails with the
/// crate's typed [`Error`], never a panic.
pub(crate) struct Cursor<'a> {
    sec: &'a [u8],
    /// File offset of `sec[0]`.
    base: usize,
    pos: usize,
    section: &'static str,
    /// The error variant this section's corruption is reported as.
    fail: fn(String) -> Error,
}

impl<'a> Cursor<'a> {
    /// Positions a cursor at the start of the `(offset, length)` extent
    /// the section table declared. The reader validated that table against
    /// the file length, but the extent is re-checked against the mapping
    /// before slicing: a short mapping must be a rejection.
    pub(crate) fn new(
        map: &'a [u8],
        (off, len): (u64, u64),
        section: &'static str,
        fail: fn(String) -> Error,
    ) -> Result<Self> {
        // An extent that does not fit the address space cannot lie inside
        // the mapping either.
        let fits = usize::try_from(off).ok().zip(usize::try_from(len).ok());
        let Some((base, sec)) =
            fits.and_then(|(base, len)| Some((base, map.get(base..base.checked_add(len)?)?)))
        else {
            return Err(fail(format!("{section} section extends past the file")));
        };
        Ok(Cursor { sec, base, pos: 0, section, fail })
    }

    /// Length of the section in bytes.
    pub(crate) fn section_len(&self) -> usize {
        self.sec.len()
    }

    /// File offset of the next unread byte.
    pub(crate) fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// An error of this section's variant.
    pub(crate) fn corrupt<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err((self.fail)(msg.into()))
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        match self.pos.checked_add(n).and_then(|end| self.sec.get(self.pos..end)) {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => self.corrupt(format!("{what} exceeds the {} section", self.section)),
        }
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes taken")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes taken")))
    }

    /// A `u64` count that must fit `usize`.
    pub(crate) fn len64(&mut self, what: &str) -> Result<usize> {
        match usize::try_from(self.u64(what)?) {
            Ok(n) => Ok(n),
            Err(_) => self.corrupt(format!("{what} overflows usize")),
        }
    }
}
