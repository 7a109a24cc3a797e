//! Integer identifiers for dictionary-encoded terms.

use std::fmt;

/// A dense integer key identifying one RDF term in a [`crate::Dictionary`].
///
/// `u32` is deliberate: the paper's evaluation tops out at 61M triples and
/// far fewer distinct terms, and index memory is itself an experiment
/// (Figure 15), so halving key width vs `u64` matters. Ids are allocated
/// contiguously from 0, so they double as indices into side tables.
///
/// `repr(transparent)` guarantees an `Id` is layout-identical to its
/// `u32`, so a column of little-endian `u32`s on disk (the `hexsnap`
/// format) can be reinterpreted as `&[Id]` by the mmap-backed reader.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Id(pub u32);

impl Id {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for Id {
    fn from(v: u32) -> Self {
        Id(v)
    }
}

/// A dictionary-encoded triple: three [`Id`] keys in (s, p, o) order.
///
/// This is the unit every store in the workspace ingests; the paper's six
/// indices, the COVP property tables and the triples table all hold these
/// keys rather than strings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdTriple {
    /// Subject key.
    pub s: Id,
    /// Predicate (property) key.
    pub p: Id,
    /// Object key.
    pub o: Id,
}

impl IdTriple {
    /// Creates an encoded triple.
    #[inline]
    pub fn new(s: Id, p: Id, o: Id) -> Self {
        IdTriple { s, p, o }
    }

    /// The components as a tuple.
    #[inline]
    pub fn as_tuple(self) -> (Id, Id, Id) {
        (self.s, self.p, self.o)
    }
}

impl fmt::Debug for IdTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.s, self.p, self.o)
    }
}

impl From<(Id, Id, Id)> for IdTriple {
    fn from((s, p, o): (Id, Id, Id)) -> Self {
        IdTriple { s, p, o }
    }
}

impl From<(u32, u32, u32)> for IdTriple {
    fn from((s, p, o): (u32, u32, u32)) -> Self {
        IdTriple { s: Id(s), p: Id(p), o: Id(o) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Id>(), 4);
        assert_eq!(std::mem::size_of::<IdTriple>(), 12);
    }

    #[test]
    fn ordering_is_spo() {
        let a = IdTriple::from((0, 5, 9));
        let b = IdTriple::from((0, 6, 0));
        let c = IdTriple::from((1, 0, 0));
        assert!(a < b && b < c);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Id(7).to_string(), "#7");
        assert_eq!(format!("{:?}", IdTriple::from((1, 2, 3))), "(#1, #2, #3)");
    }

    #[test]
    fn conversions() {
        assert_eq!(Id::from(3u32), Id(3));
        assert_eq!(Id(3).index(), 3usize);
        let t: IdTriple = (Id(1), Id(2), Id(3)).into();
        assert_eq!(t.as_tuple(), (Id(1), Id(2), Id(3)));
    }
}
