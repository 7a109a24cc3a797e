//! Write-ahead log for the live write path.
//!
//! The log is an append-only sequence of insert/remove records over
//! string-level [`Triple`]s, written ahead of every mutation applied to
//! an [`OverlayHexastore`](crate::OverlayHexastore). On restart the log
//! is replayed over the newest frozen snapshot generation; on a
//! successful compaction it is truncated back to its header.
//!
//! Records are string-level (one N-Triples line each) rather than
//! id-level on purpose: a crash can lose dictionary entries interned
//! after the last snapshot, so ids alone cannot name the terms a
//! recovering process must re-intern.
//!
//! ## On-disk format
//!
//! ```text
//! header : magic "hexwal\0\0" (8 bytes) | version u32 LE
//! record : len u32 LE | checksum u32 LE | body (len bytes)
//! body   : op u8 (0 = insert, 1 = remove) | N-Triples line (UTF-8)
//! ```
//!
//! The checksum is FNV-1a over the body. Replay is truncation-tolerant
//! at any byte: a record whose length prefix, body, or checksum cannot
//! be read intact ends the replay at the last clean record boundary —
//! never a panic, never an error for a torn tail. [`Wal::open`]
//! truncates the file back to that clean prefix so subsequent appends
//! start from a consistent state.

use crate::compress::fnv1a;
use crate::hexsnap::{Error, Result};
use rdf_model::{Triple, TripleRef};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes at the start of every WAL file.
pub const MAGIC: [u8; 8] = *b"hexwal\0\0";
/// Format version written by this build.
pub const VERSION: u32 = 1;
/// Byte length of the file header (magic + version).
pub const HEADER_LEN: u64 = 12;

/// Upper bound on a single record body; anything larger is treated as a
/// torn length prefix during replay (an N-Triples line is far smaller).
const MAX_RECORD: u32 = 1 << 24;

/// A single logged mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// The triple was inserted.
    Insert(Triple),
    /// The triple was removed.
    Remove(Triple),
}

impl WalOp {
    /// The triple this operation touches.
    pub fn triple(&self) -> &Triple {
        match self {
            WalOp::Insert(t) | WalOp::Remove(t) => t,
        }
    }
}

/// An open write-ahead log, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of verified header + clean records currently on disk.
    len: u64,
}

impl Wal {
    /// Creates (or truncates) the log at `path` and writes a fresh
    /// header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        Ok(Wal { file, path, len: HEADER_LEN })
    }

    /// Opens the log at `path`, replaying any clean prefix of records.
    ///
    /// A missing or empty file becomes a fresh log. A torn tail (torn
    /// header included) is truncated away so the returned [`Wal`]
    /// appends after the last intact record. A file whose bytes are
    /// *not* a prefix of a well-formed header — wrong magic or an
    /// unsupported version, complete or cut short — is an error: that
    /// file was never ours to rewrite.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<WalOp>)> {
        let path = path.as_ref().to_path_buf();
        // truncate(false): an existing log is replayed, never clobbered.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.seek(SeekFrom::End(0))?;
        if file_len < HEADER_LEN {
            // A short file is rewritten only if it is a torn prefix of
            // our own header — same stance as the complete-header check
            // below: anything else was never ours to clobber.
            if file_len > 0 {
                let mut header = [0u8; HEADER_LEN as usize];
                header[..8].copy_from_slice(&MAGIC);
                header[8..].copy_from_slice(&VERSION.to_le_bytes());
                let mut present = vec![0u8; file_len as usize];
                file.seek(SeekFrom::Start(0))?;
                file.read_exact(&mut present)?;
                if present != header[..file_len as usize] {
                    return Err(Error::Corrupt(format!(
                        "short non-WAL file at {}",
                        path.display()
                    )));
                }
            }
            // Missing or torn header: nothing to replay, start fresh.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            return Ok((Wal { file, path, len: HEADER_LEN }, Vec::new()));
        }
        file.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(Error::Corrupt(format!("bad WAL magic in {}", path.display())));
        }
        let mut version = [0u8; 4];
        file.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(Error::Version(version));
        }
        let (ops, clean_len) = replay_records(&mut file, file_len)?;
        // Drop any torn tail so appends resume at a record boundary.
        if clean_len < file_len {
            file.set_len(clean_len)?;
        }
        file.seek(SeekFrom::Start(clean_len))?;
        Ok((Wal { file, path, len: clean_len }, ops))
    }

    /// Path this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of verified header + records currently in the log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.len == HEADER_LEN
    }

    /// Appends one operation. The record is buffered by the OS; call
    /// [`Wal::sync`] to force it to stable storage.
    ///
    /// # Errors
    ///
    /// [`Error::Unloggable`], with the log untouched, when the triple's
    /// N-Triples line does not parse back to the triple. Blank-node labels
    /// and language tags are written verbatim, so `Term::blank("a b")`
    /// makes a record that checksums but that replay cannot decode — and
    /// replay ends at the first such record, which would drop it and
    /// every acknowledged write behind it as a torn tail.
    pub fn append(&mut self, op: &WalOp) -> Result<()> {
        let (tag, triple) = match op {
            WalOp::Insert(t) => (0u8, t),
            WalOp::Remove(t) => (1u8, t),
        };
        // One buffer: an 8-byte prefix patched in once the body (tag,
        // then the statement streamed by the N-Triples writer) is known.
        let mut record = String::from("\0\0\0\0\0\0\0\0");
        record.push(char::from(tag));
        write!(record, "{triple}").expect("writing to a String cannot fail");
        let line = &record[9..]; // behind the prefix and the one-byte tag
        if !matches!(rdf_model::parse_line(line, 1), Ok(Some(back)) if back == TripleRef::from(triple))
        {
            return Err(Error::Unloggable(format!("{line:?} does not parse back to its triple")));
        }
        let mut record = record.into_bytes();
        let (len, checksum) = ((record.len() - 8) as u32, fnv1a(&record[8..]));
        record[0..4].copy_from_slice(&len.to_le_bytes());
        record[4..8].copy_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&record)?;
        self.len += record.len() as u64;
        Ok(())
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Empties the log back to its header — called after a successful
    /// compaction has folded every logged operation into a new frozen
    /// generation.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.file.sync_data()?;
        self.len = HEADER_LEN;
        Ok(())
    }

    /// Reads the clean prefix of the log at `path` without opening it
    /// for writing. Returns the decoded operations and the byte length
    /// of the clean prefix (header included). A missing file replays as
    /// empty.
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<WalOp>, u64)> {
        let path = path.as_ref();
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e.into()),
        };
        let file_len = file.seek(SeekFrom::End(0))?;
        if file_len < HEADER_LEN {
            return Ok((Vec::new(), 0));
        }
        file.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(Error::Corrupt(format!("bad WAL magic in {}", path.display())));
        }
        let mut version = [0u8; 4];
        file.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(Error::Version(version));
        }
        replay_records(&mut file, file_len)
    }
}

/// Decodes records from the current position (just past the header) to
/// `file_len`, stopping at the first record that is torn, fails its
/// checksum, or does not parse — the clean-prefix contract.
fn replay_records(file: &mut File, file_len: u64) -> Result<(Vec<WalOp>, u64)> {
    let mut ops = Vec::new();
    let mut clean = HEADER_LEN;
    let mut prefix = [0u8; 8];
    loop {
        let remaining = file_len - clean;
        if remaining < 8 {
            break;
        }
        file.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix[0..4].try_into().unwrap());
        let checksum = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        if len > MAX_RECORD || u64::from(len) > remaining - 8 {
            break; // torn length prefix or torn body
        }
        let mut body = vec![0u8; len as usize];
        file.read_exact(&mut body)?;
        if fnv1a(&body) != checksum {
            break; // bit rot or a torn rewrite
        }
        let Some(op) = decode_body(&body) else {
            break; // checksummed garbage — treat as end of clean prefix
        };
        ops.push(op);
        clean += 8 + u64::from(len);
    }
    Ok((ops, clean))
}

/// Decodes one record body (op tag + N-Triples line) into a [`WalOp`].
fn decode_body(body: &[u8]) -> Option<WalOp> {
    let (&tag, line) = body.split_first()?;
    let line = std::str::from_utf8(line).ok()?;
    let triple = rdf_model::parse_line(line, 1).ok()??.to_owned();
    match tag {
        0 => Some(WalOp::Insert(triple)),
        1 => Some(WalOp::Remove(triple)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("hexwal-test-{}-{tag}-{n}.wal", std::process::id()))
    }

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://w/{i}")),
            Term::iri("http://w/p"),
            Term::literal(format!("value {i}")),
        )
    }

    fn sample_ops(n: usize) -> Vec<WalOp> {
        (0..n)
            .map(
                |i| {
                    if i % 3 == 2 {
                        WalOp::Remove(triple(i / 3))
                    } else {
                        WalOp::Insert(triple(i))
                    }
                },
            )
            .collect()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("roundtrip");
        let ops = sample_ops(20);
        let mut wal = Wal::create(&path).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        wal.sync().unwrap();
        let expected_len = wal.len_bytes();
        drop(wal);

        let (replayed, clean) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, ops);
        assert_eq!(clean, expected_len);

        // Re-opening replays the same ops and keeps appending cleanly.
        let (mut wal, reopened) = Wal::open(&path).unwrap();
        assert_eq!(reopened, ops);
        wal.append(&WalOp::Insert(triple(99))).unwrap();
        drop(wal);
        let (replayed, _) = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), ops.len() + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_triple_whose_line_does_not_parse_back_is_refused_and_the_log_is_unchanged() {
        let path = temp_path("unloggable");
        let ops = sample_ops(3);
        let mut wal = Wal::create(&path).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        let before = (wal.len_bytes(), std::fs::read(&path).unwrap());
        let p = Term::iri("http://w/p");
        for bad in [
            Triple::new(Term::blank("a b"), p.clone(), Term::literal("x")),
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::blank("")),
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::lang_literal("x", "not a tag")),
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::lang_literal("x", "")),
            // A label ending in '.' reads back without it, and these
            // are not LANGTAGs.
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::blank("b.")),
            Triple::new(Term::blank("b."), p.clone(), Term::literal("x")),
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::lang_literal("x", "-en")),
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::lang_literal("x", "12")),
            Triple::new(Term::iri("http://w/s"), p.clone(), Term::lang_literal("x", "en-")),
        ] {
            for op in [WalOp::Insert(bad.clone()), WalOp::Remove(bad)] {
                assert!(matches!(wal.append(&op), Err(Error::Unloggable(_))), "{op:?}");
                assert_eq!((wal.len_bytes(), std::fs::read(&path).unwrap()), before, "{op:?}");
            }
        }
        // The log still appends, and replays every accepted write.
        wal.append(&WalOp::Insert(triple(9))).unwrap();
        drop(wal);
        let (replayed, _) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, [&ops[..], &[WalOp::Insert(triple(9))]].concat());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_clean_prefix() {
        let path = temp_path("truncate");
        let ops = sample_ops(6);
        let mut wal = Wal::create(&path).unwrap();
        let mut boundaries = vec![wal.len_bytes()];
        for op in &ops {
            wal.append(op).unwrap();
            boundaries.push(wal.len_bytes());
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();

        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (replayed, clean) = Wal::replay(&path).unwrap();
            // The replayed ops are exactly the ops whose records fit
            // entirely inside the cut.
            let expect_intact = if (cut as u64) < HEADER_LEN {
                0
            } else {
                boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1
            };
            assert_eq!(replayed.len(), expect_intact, "cut at {cut}");
            assert_eq!(&replayed[..], &ops[..expect_intact], "cut at {cut}");
            if (cut as u64) >= HEADER_LEN {
                assert_eq!(clean, boundaries[expect_intact], "cut at {cut}");
            }
            // Opening truncates to the clean prefix and stays usable.
            let (mut wal, reopened) = Wal::open(&path).unwrap();
            assert_eq!(reopened.len(), expect_intact, "open cut at {cut}");
            wal.append(&WalOp::Insert(triple(7))).unwrap();
            drop(wal);
            let (after, _) = Wal::replay(&path).unwrap();
            assert_eq!(after.len(), expect_intact + 1, "append after cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_body_ends_the_clean_prefix() {
        let path = temp_path("corrupt");
        let ops = sample_ops(4);
        let mut wal = Wal::create(&path).unwrap();
        let mut boundaries = vec![wal.len_bytes()];
        for op in &ops {
            wal.append(op).unwrap();
            boundaries.push(wal.len_bytes());
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the third record's body.
        let mut corrupted = bytes.clone();
        let pos = boundaries[2] as usize + 9;
        corrupted[pos] ^= 0xff;
        std::fs::write(&path, &corrupted).unwrap();
        let (replayed, clean) = Wal::replay(&path).unwrap();
        assert_eq!(&replayed[..], &ops[..2]);
        assert_eq!(clean, boundaries[2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_an_error_not_a_reset() {
        let path = temp_path("magic");
        std::fs::write(&path, b"not a wal file at all").unwrap();
        assert!(matches!(Wal::replay(&path), Err(Error::Corrupt(_))));
        assert!(matches!(Wal::open(&path), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_foreign_file_is_an_error_not_a_reset() {
        let path = temp_path("short-foreign");
        // Shorter than the header, but not a prefix of it: some other
        // program's file, never ours to clobber.
        std::fs::write(&path, b"junk").unwrap();
        assert!(matches!(Wal::open(&path), Err(Error::Corrupt(_))));
        assert_eq!(std::fs::read(&path).unwrap(), b"junk", "file left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_own_header_resets_to_a_fresh_log() {
        for cut in 1..HEADER_LEN as usize {
            let path = temp_path("short-own");
            let mut header = Vec::new();
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            std::fs::write(&path, &header[..cut]).unwrap();
            let (wal, ops) = Wal::open(&path).unwrap();
            assert!(ops.is_empty(), "cut at {cut}");
            assert!(wal.is_empty(), "cut at {cut}");
            drop(wal);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn future_version_is_refused() {
        let path = temp_path("version");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::replay(&path), Err(Error::Version(99))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_empties_the_log_but_keeps_it_appendable() {
        let path = temp_path("reset");
        let mut wal = Wal::create(&path).unwrap();
        for op in sample_ops(5) {
            wal.append(&op).unwrap();
        }
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        wal.append(&WalOp::Insert(triple(42))).unwrap();
        drop(wal);
        let (replayed, _) = Wal::replay(&path).unwrap();
        assert_eq!(replayed, vec![WalOp::Insert(triple(42))]);
        std::fs::remove_file(&path).ok();
    }
}
