//! String-level convenience facade: any [`TripleStore`] bundled with its
//! [`Dictionary`].
//!
//! The paper's architecture is "six indices using identifiers (i.e., keys)
//! … plus a mapping table that maps these keys to their corresponding
//! strings" (§4.1). [`Dataset`] is exactly that bundle, generically: the
//! mapping table travels with *whatever* physical store holds the ids, so
//! applications work with [`Triple`]s and [`TriplePattern`]s directly —
//! against the slab-backed [`FrozenHexastore`], the writable
//! [`OverlayHexastore`] over one, or a reduced-index [`PartialHexastore`].
//!
//! [`GraphStore`] (= `Dataset<OverlayHexastore>`) is the read-write
//! default; [`FrozenGraphStore`] (= `Dataset<FrozenHexastore>`) is its
//! read-only base. [`Dataset::thaw`] wraps a frozen dataset in a clean
//! overlay in O(1); [`Dataset::freeze`] hands the base back, or builds
//! the compaction when writes are pending. The dictionary rides along
//! either way, and the `hexsnap` on-disk format is reachable directly
//! through [`Dataset::save`]/[`Dataset::load`] without touching id-level
//! APIs.

use crate::frozen::FrozenHexastore;
use crate::overlay::OverlayHexastore;
use crate::partial::PartialHexastore;
use crate::pattern::IdPattern;
use crate::stats::DatasetStats;
use crate::traits::{MutableStore, TripleStore};
use crate::wal::{Wal, WalOp};
use hex_dict::{Dictionary, IdTriple};
use rdf_model::{NtParseError, Term, TermPattern, Triple, TriplePattern};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// A triple store together with its dictionary — the full paper
/// architecture, generic over the physical store.
///
/// ```
/// use hexastore::{Dataset, GraphStore};
/// use rdf_model::{Term, Triple, TriplePattern, TermPattern};
///
/// let mut g = GraphStore::new();
/// g.insert(&Triple::new(
///     Term::iri("http://ex/ID2"),
///     Term::iri("http://ex/worksFor"),
///     Term::literal("MIT"),
/// ));
///
/// // "What relationship does ID2 have to MIT?" — an (s, ?, o) probe,
/// // the query Figure 1(b) of the paper poses.
/// let pattern = TriplePattern::new(
///     Term::iri("http://ex/ID2"),
///     TermPattern::var("rel"),
///     Term::literal("MIT"),
/// );
/// assert_eq!(g.matching(&pattern).len(), 1);
///
/// // The same question answered by the read-only slab form — the
/// // dictionary rides along through `freeze`.
/// let frozen = g.freeze();
/// assert_eq!(frozen.matching(&pattern).len(), 1);
/// ```
#[derive(Debug)]
pub struct Dataset<S> {
    dict: Dictionary,
    store: S,
    /// Monotonic mutation counter — bumped by every path that can
    /// change the stored triples or the dictionary, so derived caches
    /// (e.g. a query-plan cache) can detect staleness cheaply.
    version: u64,
    /// Process-unique identity, fresh for every constructed (or cloned)
    /// dataset. The version counter alone cannot key a cache: two
    /// independently loaded datasets both report version 0, so a cache
    /// validated on the number alone would serve one dataset's plans —
    /// with its interned ids baked in — against the other's dictionary.
    identity: u64,
}

/// The id-level test a match of `pat` must also pass: positions that
/// share a variable hold equal ids.
fn shared_hold(pat: &TriplePattern) -> impl Fn(IdTriple) -> bool {
    let [sp, so, po] = pat.shared_variables();
    move |t| (!sp || t.s == t.p) && (!so || t.s == t.o) && (!po || t.p == t.o)
}

/// Allocates the next process-unique [`Dataset::identity`].
fn next_identity() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl<S: Default> Default for Dataset<S> {
    fn default() -> Self {
        Dataset {
            dict: Dictionary::default(),
            store: S::default(),
            version: 0,
            identity: next_identity(),
        }
    }
}

impl<S: Clone> Clone for Dataset<S> {
    /// The clone gets a fresh [`identity`](Dataset::identity): it can
    /// mutate independently of the original, so the two must never
    /// alias an (identity, version) pair.
    fn clone(&self) -> Self {
        Dataset {
            dict: self.dict.clone(),
            store: self.store.clone(),
            version: self.version,
            identity: next_identity(),
        }
    }
}

/// The read-write default: an [`OverlayHexastore`] — pending writes over
/// a frozen base — with its dictionary. The in-memory half of
/// [`LiveGraphStore`], usable standalone when durability is not needed.
pub type GraphStore = Dataset<OverlayHexastore>;

/// The read-only slab-backed form: a [`FrozenHexastore`] with its
/// dictionary. Produced by [`Dataset::freeze`] or
/// [`FrozenGraphStore::load`]; made writable with [`Dataset::thaw`].
pub type FrozenGraphStore = Dataset<FrozenHexastore>;

/// A read-only, reduced-index [`PartialHexastore`] with its dictionary.
pub type PartialGraphStore = Dataset<PartialHexastore>;

impl<S: TripleStore> Dataset<S> {
    /// Reassembles a dataset from a dictionary and an id-level store.
    /// Every id in the store must already be interned in the dictionary.
    pub fn from_parts(dict: Dictionary, store: S) -> Self {
        Dataset { dict, store, version: 0, identity: next_identity() }
    }

    /// Splits the dataset back into its dictionary and id-level store.
    pub fn into_parts(self) -> (Dictionary, S) {
        (self.dict, self.store)
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The dictionary (term ⇄ id mapping table).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The underlying id-level store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        self.dict.triple_ids(t).is_some_and(|enc| self.store.contains(enc))
    }

    /// Converts a string-level pattern to an id-level one. `None` means a
    /// bound term was never interned, so nothing can match.
    pub fn encode_pattern(&self, pat: &TriplePattern) -> Option<IdPattern> {
        fn pos(dict: &Dictionary, tp: &TermPattern) -> Option<Option<hex_dict::Id>> {
            match tp {
                TermPattern::Bound(t) => dict.id_of(t).map(Some),
                TermPattern::Var(_) => Some(None),
            }
        }
        Some(IdPattern::new(
            pos(&self.dict, &pat.subject)?,
            pos(&self.dict, &pat.predicate)?,
            pos(&self.dict, &pat.object)?,
        ))
    }

    /// All triples matching a string-level pattern. Positions that share
    /// a variable must hold equal terms.
    pub fn matching(&self, pat: &TriplePattern) -> Vec<Triple> {
        let Some(id_pat) = self.encode_pattern(pat) else {
            return Vec::new();
        };
        let shared = shared_hold(pat);
        let mut out = Vec::new();
        self.store.for_each_matching(id_pat, &mut |t| {
            if shared(t) {
                out.push(self.dict.decode_triple(t).expect("store id missing from dictionary"));
            }
        });
        out
    }

    /// Count of triples matching a string-level pattern. When a variable
    /// repeats, the count walks the matches.
    pub fn count_matching(&self, pat: &TriplePattern) -> usize {
        let Some(id_pat) = self.encode_pattern(pat) else { return 0 };
        if pat.shared_variables() == [false; 3] {
            self.store.count_matching(id_pat)
        } else {
            let shared = shared_hold(pat);
            self.store.iter_matching(id_pat).filter(|&t| shared(t)).count()
        }
    }

    /// Serializes the whole store as an N-Triples document in spo id order.
    pub fn to_ntriples(&self) -> String {
        let mut out = String::new();
        self.store.for_each_matching(IdPattern::ALL, &mut |t| {
            let decoded = self.dict.decode_triple(t).expect("store id missing from dictionary");
            out.push_str(&decoded.to_string());
            out.push('\n');
        });
        out
    }

    /// All triples in the store, decoded.
    pub fn triples(&self) -> Vec<Triple> {
        self.matching(&TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        ))
    }

    /// Looks up a term's id, if interned.
    pub fn id_of(&self, term: &Term) -> Option<hex_dict::Id> {
        self.dict.id_of(term)
    }

    /// Deep heap usage: indices plus dictionary.
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes() + self.dict.heap_bytes()
    }

    /// Monotonic mutation counter: two equal readings with no
    /// intervening `&mut self` access mean the stored triples and the
    /// dictionary are unchanged. Plan caches key their validity on it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique identity of this dataset value, distinct for
    /// every construction *and* every clone. Caches that key on
    /// [`Dataset::version`] must pair it with this identity: version
    /// numbers coincide across independently created datasets (any two
    /// freshly loaded snapshots are both version 0), identities never
    /// do.
    pub fn identity(&self) -> u64 {
        self.identity
    }
}

impl<S: crate::stats::StatsSource> Dataset<S> {
    /// Summary statistics of the stored dataset (degree distributions,
    /// per-property counts) — the input of the statistics-driven query
    /// planner. Derived the cheapest way the store allows: a
    /// [`FrozenHexastore`] reads its already-built indices, other forms
    /// pay one linear pass (see [`crate::stats::StatsSource`]).
    pub fn stats(&self) -> DatasetStats {
        self.store.dataset_stats()
    }
}

impl<S: TripleStore + Default> Dataset<S> {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }
}

impl<S: MutableStore> Dataset<S> {
    /// Mutable access to the dictionary, for pre-interning terms.
    /// Counts as a mutation for [`Dataset::version`]: new interned
    /// terms can turn a statically-empty cached plan live.
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        self.version += 1;
        &mut self.dict
    }

    /// Inserts a triple, interning its terms. Returns `true` if new.
    pub fn insert(&mut self, t: &Triple) -> bool {
        self.version += 1;
        let enc = self.dict.encode_triple(t);
        self.store.insert(enc)
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        match self.dict.triple_ids(t) {
            Some(enc) => {
                self.version += 1;
                self.store.remove(enc)
            }
            None => false,
        }
    }

    /// Loads an N-Triples document, returning how many *new* triples were
    /// added (duplicates in the document are deduplicated, as in the
    /// paper's data cleaning).
    ///
    /// The tokenizer yields 32-byte statements — where the terms sit in
    /// `doc` — and the dictionary interns from views of them, so no owned
    /// term exists between the text and the ids and the parsed document
    /// weighs a fraction of its text. The document is encoded as one batch
    /// ([`Dictionary::encode_triples_parallel`]), so a load that at least
    /// doubles the dictionary leaves its buffers exact-sized.
    pub fn load_ntriples(&mut self, doc: &str) -> Result<usize, NtParseError> {
        let ids = self.dict.encode_triples_parallel(&rdf_model::parse_document(doc)?, 1);
        let mut added = 0;
        for enc in ids {
            self.version += 1;
            if self.store.insert(enc) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Loads a Turtle document (see [`rdf_model::parse_turtle`] for the
    /// supported subset), returning how many new triples were added.
    pub fn load_turtle(&mut self, doc: &str) -> Result<usize, rdf_model::TurtleParseError> {
        let triples = rdf_model::parse_turtle(doc)?;
        let mut added = 0;
        for t in &triples {
            if self.insert(t) {
                added += 1;
            }
        }
        Ok(added)
    }
}

impl Dataset<OverlayHexastore> {
    /// The dataset's read-only slab-backed form: the overlay's base when
    /// no write is pending (no copy), else its compaction
    /// ([`OverlayHexastore::freeze`]). The dictionary is cloned (cheap:
    /// terms are shared, not copied).
    pub fn freeze(&self) -> FrozenGraphStore {
        Dataset {
            dict: self.dict.clone(),
            store: self.store.freeze(),
            version: self.version,
            identity: next_identity(),
        }
    }

    /// Saves the dataset as a compact `hexsnap` file (dictionary + triple
    /// column; indices are rebuilt on [`GraphStore::load`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> crate::hexsnap::Result<()> {
        crate::hexsnap::save(path, &self.dict, &self.store)
    }

    /// Loads a compact `hexsnap` file, bulk-rebuilding the six indices.
    pub fn load(path: impl AsRef<std::path::Path>) -> crate::hexsnap::Result<GraphStore> {
        crate::hexsnap::load(path)
    }

    /// Folds the overlay's delta and tombstones into a new frozen base
    /// generation (see [`OverlayHexastore::compact`]). Query results
    /// are unchanged, so the [`Dataset::version`] reading stays valid.
    pub fn compact(&mut self) {
        self.store.compact();
    }
}

impl Dataset<FrozenHexastore> {
    /// Makes the dataset writable: the store becomes the base of a clean
    /// [`OverlayHexastore`], in O(1).
    pub fn thaw(self) -> GraphStore {
        Dataset {
            dict: self.dict,
            store: self.store.thaw(),
            version: self.version,
            identity: next_identity(),
        }
    }

    /// Saves the dataset as a query-ready `hexsnap` file *with* prebuilt
    /// slab sections, so [`FrozenGraphStore::load`] opens without
    /// rebuilding any index.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> crate::hexsnap::Result<()> {
        crate::hexsnap::save_frozen(path, &self.dict, &self.store)
    }

    /// Opens a `hexsnap` file straight into a query-ready read-only
    /// dataset: a direct slab read when the file carries a slab section
    /// (`FROZ` or `FRZC`), otherwise a frozen bulk build from the triple
    /// column.
    pub fn load(path: impl AsRef<std::path::Path>) -> crate::hexsnap::Result<FrozenGraphStore> {
        let (dict, store) = crate::hexsnap::load_frozen(path)?;
        Ok(Dataset { dict, store, version: 0, identity: next_identity() })
    }
}

/// File name of the write-ahead log inside a live store directory.
const WAL_FILE: &str = "wal.hexwal";

/// Fsyncs a directory so a just-renamed entry survives power loss. On
/// platforms where directories cannot be opened as files this is a
/// no-op — rename atomicity is the best available there.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// A durable, live-writable dataset: a [`GraphStore`] backed by
/// a directory of frozen snapshot *generations* plus a write-ahead log.
///
/// Every mutation is appended to the WAL before it touches the overlay,
/// so a crash at any byte loses at most the unsynced log tail.
/// [`LiveGraphStore::open`] (and its alias [`LiveGraphStore::recover`])
/// rebuilds the pre-crash state by loading the newest
/// `gen-NNNNNN.hexsnap` generation and replaying the WAL's clean prefix
/// over it. [`LiveGraphStore::compact`] folds the overlay into the next
/// frozen generation on disk, prunes older generations, and truncates
/// the log.
///
/// ```text
///  insert/remove ──► WAL append ──► overlay (delta / tombstones)
///                                      │ compact()
///                                      ▼
///               gen-000042.hexsnap (frozen slabs)   WAL truncated
/// ```
///
/// For concurrent serving, the live store also *publishes* each frozen
/// generation as an [`Arc<FrozenGraphStore>`] snapshot:
/// [`LiveGraphStore::subscribe`] hands out a [`SnapshotHandle`] that any
/// number of reader threads can [`SnapshotHandle::load`] from. Readers
/// query a consistent generation while the writer keeps inserting, and
/// [`LiveGraphStore::compact`] swaps the next generation into the slot
/// after its durable rename — an epoch-style handoff in which writers
/// never block readers and readers never observe a half-built store.
#[derive(Debug)]
pub struct LiveGraphStore {
    data: GraphStore,
    wal: Wal,
    dir: PathBuf,
    generation: u64,
    published: SnapshotSlot,
}

/// The shared publication slot between a [`LiveGraphStore`] and its
/// [`SnapshotHandle`]s: the generation number plus the snapshot serving
/// it. The lock is held only for the pointer swap/clone — never during
/// a query — so contention is a few nanoseconds per load.
type SnapshotSlot = Arc<RwLock<(u64, Arc<FrozenGraphStore>)>>;

/// A cloneable reader-side handle onto the snapshots a
/// [`LiveGraphStore`] publishes.
///
/// Obtained from [`LiveGraphStore::subscribe`]; safe to send to any
/// number of reader threads. Each [`SnapshotHandle::load`] returns the
/// latest published [`FrozenGraphStore`] behind an [`Arc`] — a
/// consistent, immutable generation the reader can query for as long as
/// it likes (the `Arc` keeps the slabs alive even after the writer
/// compacts past it), without ever blocking the writer.
#[derive(Clone, Debug)]
pub struct SnapshotHandle {
    slot: SnapshotSlot,
}

impl SnapshotHandle {
    /// The latest published snapshot. A reader that holds the returned
    /// `Arc` across several queries sees one consistent generation
    /// throughout; loading again observes any newer generation the
    /// writer has compacted in the meantime.
    pub fn load(&self) -> Arc<FrozenGraphStore> {
        self.slot.read().expect("snapshot slot poisoned").1.clone()
    }

    /// Like [`SnapshotHandle::load`], tagged with the generation number
    /// the snapshot was compacted into — the epoch a stress test (or a
    /// cache) can key expected contents on.
    pub fn load_tagged(&self) -> (u64, Arc<FrozenGraphStore>) {
        let guard = self.slot.read().expect("snapshot slot poisoned");
        (guard.0, guard.1.clone())
    }
}

/// Builds the publishable snapshot of the overlay's current frozen
/// base. Cheap: the slabs are Arc-shared by [`FrozenHexastore::clone`],
/// and dictionary terms are shared, not copied.
fn publishable(data: &GraphStore) -> Arc<FrozenGraphStore> {
    Arc::new(Dataset::from_parts(data.dict().clone(), data.store().base().clone()))
}

impl LiveGraphStore {
    /// Opens (or creates) a live store directory, replaying the WAL's
    /// clean prefix over the newest snapshot generation. A torn WAL
    /// tail is truncated away; a missing directory starts empty.
    ///
    /// ```
    /// use hexastore::LiveGraphStore;
    /// use rdf_model::{Term, Triple};
    ///
    /// let dir = std::env::temp_dir().join(format!("hexlive-doc-open-{}", std::process::id()));
    /// let t = Triple::new(
    ///     Term::iri("http://x/ID1"),
    ///     Term::iri("http://x/advisor"),
    ///     Term::iri("http://x/ID2"),
    /// );
    /// let mut live = LiveGraphStore::open(&dir)?;
    /// live.insert(&t)?; // appended to the WAL, then applied
    /// live.sync()?; // durability point
    /// drop(live); // "crash" without compacting
    ///
    /// // Reopening replays the WAL over the newest generation.
    /// let recovered = LiveGraphStore::open(&dir)?;
    /// assert!(recovered.contains(&t));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), hexastore::hexsnap::Error>(())
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> crate::hexsnap::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A crash between snapshot write and rename strands a
        // `gen-*.tmp`; it holds nothing the WAL replay cannot rebuild,
        // and left in place stale temp files would accumulate forever.
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str());
            if name.is_some_and(|n| n.starts_with("gen-") && n.ends_with(".tmp")) {
                std::fs::remove_file(&path).ok();
            }
        }
        let (generation, mut data) = match crate::hexsnap::newest_generation(&dir)? {
            Some((gen, path)) => {
                let (dict, frozen) = crate::hexsnap::load_frozen(path)?;
                (gen, Dataset::from_parts(dict, frozen.thaw()))
            }
            None => (0, GraphStore::new()),
        };
        let (wal, ops) = Wal::open(dir.join(WAL_FILE))?;
        for op in &ops {
            // String-level replay re-interns terms first seen after the
            // snapshot was written; id-level records could not.
            match op {
                WalOp::Insert(t) => {
                    data.insert(t);
                }
                WalOp::Remove(t) => {
                    data.remove(t);
                }
            }
        }
        let published = Arc::new(RwLock::new((generation, publishable(&data))));
        Ok(LiveGraphStore { data, wal, dir, generation, published })
    }

    /// Crash recovery is the normal open path — provided as an explicit
    /// alias so call sites can say what they mean.
    pub fn recover(dir: impl AsRef<Path>) -> crate::hexsnap::Result<Self> {
        Self::open(dir)
    }

    /// The queryable dataset view (dictionary + overlay store). Use it
    /// with any read API — `matching`, the query engine, statistics.
    pub fn dataset(&self) -> &GraphStore {
        &self.data
    }

    /// The directory holding the snapshot generations and the WAL.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The generation number of the frozen base currently serving
    /// reads (0 before the first compaction of a fresh store).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A handle reader threads use to fetch the latest published frozen
    /// snapshot — see the [type docs](LiveGraphStore) for the handoff
    /// protocol. Handles stay valid (and keep observing new
    /// generations) for the life of this store.
    ///
    /// The published snapshot is the newest durable frozen *generation*:
    /// overlay writes that have not been [`compact`](Self::compact)ed
    /// yet are visible through [`LiveGraphStore::dataset`] but not yet
    /// through the snapshot — they join it at the next compaction.
    pub fn subscribe(&self) -> SnapshotHandle {
        SnapshotHandle { slot: Arc::clone(&self.published) }
    }

    /// The currently published snapshot — shorthand for
    /// `subscribe().load()`.
    pub fn snapshot(&self) -> Arc<FrozenGraphStore> {
        self.published.read().expect("snapshot slot poisoned").1.clone()
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Triple) -> bool {
        self.data.contains(t)
    }

    /// Bytes currently in the WAL (header included) — the replay debt
    /// the next [`LiveGraphStore::open`] would pay.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Inserts a triple durably: WAL append first, then the overlay.
    /// Returns `true` if the triple was new. Call
    /// [`LiveGraphStore::sync`] to force the log to stable storage.
    ///
    /// # Errors
    ///
    /// [`Error::Unloggable`](crate::hexsnap::Error::Unloggable), with the
    /// store and the log unchanged, for a triple whose N-Triples line
    /// would not parse back at replay (a blank-node label with a space in
    /// it, a malformed language tag) — see [`Wal::append`].
    pub fn insert(&mut self, t: &Triple) -> crate::hexsnap::Result<bool> {
        if self.data.contains(t) {
            return Ok(false); // no-ops are not logged
        }
        self.wal.append(&WalOp::Insert(t.clone()))?;
        Ok(self.data.insert(t))
    }

    /// Removes a triple durably: WAL append first, then the overlay.
    /// Returns `true` if the triple was present.
    pub fn remove(&mut self, t: &Triple) -> crate::hexsnap::Result<bool> {
        if !self.data.contains(t) {
            return Ok(false);
        }
        self.wal.append(&WalOp::Remove(t.clone()))?;
        Ok(self.data.remove(t))
    }

    /// Forces all appended WAL records to stable storage.
    pub fn sync(&mut self) -> crate::hexsnap::Result<()> {
        self.wal.sync()
    }

    /// Folds the overlay into the next frozen generation on disk, then
    /// prunes older generations and truncates the WAL.
    ///
    /// The new generation is written to a temporary file, fsynced,
    /// renamed into place, and the directory entry fsynced — all before
    /// the log is touched — so a crash (power loss included) at any
    /// point leaves either the old generation + full WAL or the new
    /// generation (+ a WAL whose replay is a no-op) — never a torn
    /// snapshot, and never a durable truncation ahead of the snapshot
    /// that supersedes it.
    ///
    /// Once the new generation is durable it is also *published*:
    /// [`SnapshotHandle::load`] returns it from then on, while readers
    /// still holding the previous generation's `Arc` finish their
    /// queries on it undisturbed.
    ///
    /// ```
    /// use hexastore::LiveGraphStore;
    /// use rdf_model::{Term, Triple};
    ///
    /// let dir = std::env::temp_dir().join(format!("hexlive-doc-compact-{}", std::process::id()));
    /// let mut live = LiveGraphStore::open(&dir)?;
    /// let readers = live.subscribe(); // cloneable; send to reader threads
    ///
    /// let t = Triple::new(
    ///     Term::iri("http://x/ID2"),
    ///     Term::iri("http://x/worksFor"),
    ///     Term::literal("MIT"),
    /// );
    /// live.insert(&t)?;
    /// assert_eq!(readers.load().len(), 0); // snapshot still generation 0
    ///
    /// live.compact()?; // fold into gen-000001.hexsnap, truncate the WAL
    /// let snap = readers.load(); // now the published generation 1
    /// assert!(snap.contains(&t));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), hexastore::hexsnap::Error>(())
    /// ```
    pub fn compact(&mut self) -> crate::hexsnap::Result<()> {
        if self.data.store().is_dirty() {
            let next = self.generation + 1;
            // The overlay keeps its layers until the generation is
            // durable: a step that fails below leaves every logged write
            // pending, so a retry writes them again.
            let base = self.data.store().freeze();
            let path = crate::hexsnap::generation_path(&self.dir, next);
            let tmp = self.dir.join(format!("gen-{next:06}.tmp"));
            crate::hexsnap::save_frozen(&tmp, self.data.dict(), &base)?;
            // Durability order: snapshot bytes, then the rename's
            // directory entry, and only then (below) the WAL
            // truncation. Skipping either fsync lets the kernel make
            // the truncation durable before the snapshot it supersedes,
            // losing synced records on power loss.
            std::fs::File::open(&tmp)?.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            fsync_dir(&self.dir)?;
            self.data.store.install(base);
            self.generation = next;
            // Epoch handoff: only after the rename is durable does the
            // new generation become the published snapshot. Readers on
            // the previous Arc keep serving from it unharmed.
            *self.published.write().expect("snapshot slot poisoned") =
                (next, publishable(&self.data));
        }
        // The snapshot now owns every logged mutation (or the log's net
        // effect was empty): reset the log, then drop stale generations.
        self.wal.truncate()?;
        for (gen, path) in crate::hexsnap::generations(&self.dir)? {
            if gen < self.generation {
                std::fs::remove_file(path).ok(); // best-effort prune
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn triple(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut g = GraphStore::new();
        let t = triple("ID1", "advisor", "ID2");
        assert!(g.insert(&t));
        assert!(!g.insert(&t));
        assert!(g.contains(&t));
        assert_eq!(g.len(), 1);
        assert!(g.remove(&t));
        assert!(!g.contains(&t));
        assert!(g.is_empty());
    }

    #[test]
    fn remove_of_unknown_terms_is_false() {
        let mut g = GraphStore::new();
        assert!(!g.remove(&triple("a", "b", "c")));
    }

    #[test]
    fn matching_with_unknown_bound_term_is_empty() {
        let mut g = GraphStore::new();
        g.insert(&triple("s", "p", "o"));
        let pat = TriplePattern::new(iri("nope"), TermPattern::var("p"), TermPattern::var("o"));
        assert!(g.matching(&pat).is_empty());
        assert_eq!(g.count_matching(&pat), 0);
    }

    #[test]
    fn a_repeated_variable_requires_equal_terms() {
        // `?x <knows> ?x` matches self-loops only: (a knows a), not
        // (a knows b) — on the pattern itself and on every store form.
        let mut g = GraphStore::new();
        let (looped, other) = (triple("a", "knows", "a"), triple("a", "knows", "b"));
        assert!(g.insert(&looped) && g.insert(&other));
        let pat = TriplePattern::new(TermPattern::var("x"), iri("knows"), TermPattern::var("x"));
        assert!(pat.matches(&looped) && !pat.matches(&other));
        let frozen = g.freeze();
        assert_eq!(g.matching(&pat), vec![looped.clone()]);
        assert_eq!(frozen.matching(&pat), vec![looped]);
        assert_eq!(g.count_matching(&pat), 1);
        assert_eq!(frozen.count_matching(&pat), 1);
        // A variable in all three positions: only a triple whose three
        // terms are one.
        let all =
            TriplePattern::new(TermPattern::var("x"), TermPattern::var("x"), TermPattern::var("x"));
        assert_eq!(g.count_matching(&all), 0);
        assert!(g.insert(&triple("knows", "knows", "knows")));
        assert_eq!(g.count_matching(&all), 1);
    }

    #[test]
    fn figure1_query_what_relation_to_mit() {
        // Figure 1(b) upper query: SELECT A.property WHERE subj=ID2, obj=MIT
        let mut g = GraphStore::new();
        g.insert(&Triple::new(iri("ID1"), iri("bachelorFrom"), Term::literal("MIT")));
        g.insert(&Triple::new(iri("ID2"), iri("worksFor"), Term::literal("MIT")));
        g.insert(&Triple::new(iri("ID2"), iri("teacherOf"), Term::literal("DataBases")));
        let hits = g.matching(&TriplePattern::new(
            iri("ID2"),
            TermPattern::var("property"),
            Term::literal("MIT"),
        ));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].predicate, iri("worksFor"));
    }

    #[test]
    fn ntriples_load_and_dump_roundtrip() {
        let doc = "\
<http://x/ID3> <http://x/advisor> <http://x/ID2> .
<http://x/ID1> <http://x/teacherOf> \"AI\" .
<http://x/ID3> <http://x/advisor> <http://x/ID2> .
";
        let mut g = GraphStore::new();
        let added = g.load_ntriples(doc).unwrap();
        assert_eq!(added, 2, "duplicate line deduplicated");
        let dumped = g.to_ntriples();
        let mut g2 = GraphStore::new();
        g2.load_ntriples(&dumped).unwrap();
        assert_eq!(g2.len(), 2);
        let mut a = g.triples();
        let mut b = g2.triples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn load_turtle_shares_the_store() {
        let mut g = GraphStore::new();
        let added = g
            .load_turtle(
                "@prefix ex: <http://x/> .\nex:ID3 ex:advisor ex:ID2 .\nex:ID2 ex:worksFor \"MIT\" .",
            )
            .unwrap();
        assert_eq!(added, 2);
        assert!(g.contains(&Triple::new(iri("ID3"), iri("advisor"), iri("ID2"))));
        assert!(g.load_turtle("nonsense").is_err());
    }

    #[test]
    fn heap_bytes_counts_dictionary_and_indices() {
        let mut g = GraphStore::new();
        for i in 0..200 {
            g.insert(&triple(&format!("s{i}"), "p", &format!("o{i}")));
        }
        assert!(g.heap_bytes() > g.store().heap_bytes());
        assert!(g.heap_bytes() > g.dict().heap_bytes());
    }

    fn sample_graph() -> GraphStore {
        let mut g = GraphStore::new();
        for i in 0..40 {
            g.insert(&triple(&format!("s{}", i % 7), &format!("p{}", i % 3), &format!("o{i}")));
        }
        g
    }

    #[test]
    fn facade_freeze_and_thaw_are_loss_free() {
        let g = sample_graph();
        let frozen = g.freeze();
        assert_eq!(frozen.len(), g.len());
        // String-level queries answer identically on both forms.
        let pat = TriplePattern::new(iri("s1"), TermPattern::var("p"), TermPattern::var("o"));
        assert_eq!(frozen.matching(&pat), g.matching(&pat));
        assert_eq!(frozen.to_ntriples(), g.to_ntriples());
        let thawed = frozen.thaw();
        assert_eq!(thawed.to_ntriples(), g.to_ntriples());
        assert_eq!(thawed.dict().len(), g.dict().len());
    }

    #[test]
    fn facade_save_and_load_both_forms() {
        let g = sample_graph();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let compact = dir.join(format!("dataset_facade_{pid}.hexsnap"));
        let frozen_path = dir.join(format!("dataset_facade_{pid}_frozen.hexsnap"));

        g.save(&compact).unwrap();
        let reloaded = GraphStore::load(&compact).unwrap();
        assert_eq!(reloaded.to_ntriples(), g.to_ntriples());

        g.freeze().save(&frozen_path).unwrap();
        let frozen = FrozenGraphStore::load(&frozen_path).unwrap();
        assert_eq!(frozen.to_ntriples(), g.to_ntriples());
        // Loss-free all the way around: thaw the loaded snapshot and
        // compare against the original mutable store.
        assert_eq!(frozen.thaw().to_ntriples(), g.to_ntriples());

        std::fs::remove_file(&compact).ok();
        std::fs::remove_file(&frozen_path).ok();
    }

    #[test]
    fn into_parts_roundtrips() {
        let g = sample_graph();
        let ntriples = g.to_ntriples();
        let (dict, store) = g.into_parts();
        let rebuilt = GraphStore::from_parts(dict, store);
        assert_eq!(rebuilt.to_ntriples(), ntriples);
    }

    #[test]
    fn stats_reflect_the_store() {
        let g = sample_graph();
        let stats = g.stats();
        assert_eq!(stats.triples, g.len());
        assert_eq!(stats.distinct.1, 3, "three properties inserted");
        // The frozen form reports identical statistics.
        assert_eq!(g.freeze().stats(), stats);
    }

    #[test]
    fn version_counts_mutations_and_survives_form_changes() {
        let mut g = GraphStore::new();
        assert_eq!(g.version(), 0);
        g.insert(&triple("a", "b", "c"));
        let after_insert = g.version();
        assert!(after_insert > 0);
        // Reads leave the version alone.
        g.matching(&TriplePattern::new(iri("a"), TermPattern::var("p"), TermPattern::var("o")));
        assert_eq!(g.version(), after_insert);
        // A miss remove is not a mutation; a hit is.
        assert!(!g.remove(&triple("x", "y", "z")));
        assert_eq!(g.version(), after_insert);
        assert!(g.remove(&triple("a", "b", "c")));
        assert!(g.version() > after_insert);
        let v = g.version();
        g.dict_mut();
        assert!(g.version() > v, "dictionary access may intern new terms");
        // The version rides through freeze so caches stay comparable.
        assert_eq!(g.freeze().version(), g.version());
    }

    #[test]
    fn overlay_dataset_mutates_over_a_frozen_base() {
        let g = sample_graph();
        let ntriples = g.to_ntriples();
        let mut live = g.freeze().thaw();
        assert_eq!(live.to_ntriples(), ntriples);
        let extra = triple("new-s", "new-p", "new-o");
        assert!(live.insert(&extra));
        assert!(live.remove(&triple("s1", "p1", "o1")));
        assert!(live.contains(&extra));
        assert!(!live.contains(&triple("s1", "p1", "o1")));
        let before = live.to_ntriples();
        live.compact();
        assert!(!live.store().is_dirty());
        assert_eq!(live.to_ntriples(), before, "compaction must not change results");
    }

    fn live_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("hexlive-test-{}-{tag}-{n}", std::process::id()))
    }

    #[test]
    fn live_store_recovers_from_wal_after_crash() {
        let dir = live_dir("crash");
        let t1 = triple("ID1", "advisor", "ID2");
        let t2 = triple("ID2", "worksFor", "MIT");
        let t3 = triple("ID3", "takesCourse", "Course10");
        {
            let mut live = LiveGraphStore::open(&dir).unwrap();
            assert!(live.is_empty());
            assert!(live.insert(&t1).unwrap());
            assert!(live.insert(&t2).unwrap());
            assert!(live.insert(&t3).unwrap());
            assert!(live.remove(&t2).unwrap());
            assert!(!live.insert(&t1).unwrap(), "duplicate insert is a logged no-op");
            live.sync().unwrap();
            // Dropped without compacting: the WAL is the only record.
        }
        let recovered = LiveGraphStore::recover(&dir).unwrap();
        assert_eq!(recovered.len(), 2);
        assert!(recovered.contains(&t1));
        assert!(!recovered.contains(&t2));
        assert!(recovered.contains(&t3));
        assert_eq!(recovered.generation(), 0, "no snapshot was ever written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_store_compaction_rolls_generations_and_truncates_the_wal() {
        let dir = live_dir("compact");
        let mut live = LiveGraphStore::open(&dir).unwrap();
        for i in 0..25 {
            live.insert(&triple(&format!("s{i}"), "p", &format!("o{i}"))).unwrap();
        }
        live.compact().unwrap();
        assert_eq!(live.generation(), 1);
        assert!(live.wal_bytes() == crate::wal::HEADER_LEN, "WAL reset after compaction");
        assert!(crate::hexsnap::generation_path(&dir, 1).exists());

        // Write more, compact again: generation 2 replaces generation 1.
        live.remove(&triple("s0", "p", "o0")).unwrap();
        live.insert(&triple("s99", "p", "o99")).unwrap();
        live.compact().unwrap();
        assert_eq!(live.generation(), 2);
        assert!(!crate::hexsnap::generation_path(&dir, 1).exists(), "old generation pruned");
        drop(live);

        // Reopening from the snapshot alone restores the full state.
        let reopened = LiveGraphStore::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 2);
        assert_eq!(reopened.len(), 25);
        assert!(!reopened.contains(&triple("s0", "p", "o0")));
        assert!(reopened.contains(&triple("s99", "p", "o99")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_compaction_keeps_synced_writes_for_the_retry() {
        let dir = live_dir("compact-retry");
        let t = triple("s", "p", "o");
        let mut live = LiveGraphStore::open(&dir).unwrap();
        live.insert(&t).unwrap();
        live.sync().unwrap();
        // A directory where the snapshot's temp file goes fails its write.
        let blocker = dir.join("gen-000001.tmp");
        std::fs::create_dir(&blocker).unwrap();
        assert!(live.compact().is_err());
        assert_eq!(live.generation(), 0);
        assert!(live.dataset().store().is_dirty(), "the write is still pending");
        std::fs::remove_dir(&blocker).unwrap();
        live.compact().unwrap();
        assert_eq!(live.generation(), 1);
        drop(live);
        let reopened = LiveGraphStore::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert!(reopened.contains(&t));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_store_replays_wal_over_the_newest_generation() {
        let dir = live_dir("mixed");
        let kept = triple("base", "p", "kept");
        let masked = triple("base", "p", "masked");
        let fresh = triple("delta", "p", "fresh");
        {
            let mut live = LiveGraphStore::open(&dir).unwrap();
            live.insert(&kept).unwrap();
            live.insert(&masked).unwrap();
            live.compact().unwrap(); // generation 1 holds kept + masked
            live.remove(&masked).unwrap(); // WAL-only tombstone
            live.insert(&fresh).unwrap(); // WAL-only insert, new terms
            live.sync().unwrap();
        }
        let recovered = LiveGraphStore::open(&dir).unwrap();
        assert_eq!(recovered.generation(), 1);
        assert_eq!(recovered.len(), 2);
        assert!(recovered.contains(&kept));
        assert!(!recovered.contains(&masked));
        assert!(recovered.contains(&fresh), "new terms re-interned from the string-level WAL");
        assert_eq!(recovered.dataset().store().tombstone_len(), 1);
        assert_eq!(recovered.dataset().store().delta_len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_store_survives_a_torn_wal_tail() {
        let dir = live_dir("torn");
        let t1 = triple("a", "p", "b");
        let t2 = triple("c", "p", "d");
        {
            let mut live = LiveGraphStore::open(&dir).unwrap();
            live.insert(&t1).unwrap();
            live.insert(&t2).unwrap();
            live.sync().unwrap();
        }
        // Tear the last record mid-body, as an interrupted write would.
        let wal_path = dir.join(super::WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        let recovered = LiveGraphStore::recover(&dir).unwrap();
        assert!(recovered.contains(&t1));
        assert!(!recovered.contains(&t2), "torn record rolls back to the clean prefix");
        // The store stays writable after recovery.
        let mut recovered = recovered;
        assert!(recovered.insert(&t2).unwrap());
        drop(recovered);
        let reopened = LiveGraphStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_handoff_publishes_each_durable_generation() {
        let dir = live_dir("handoff");
        let mut live = LiveGraphStore::open(&dir).unwrap();
        let readers = live.subscribe();

        // Before any compaction the published snapshot is generation 0.
        let (gen0, snap0) = readers.load_tagged();
        assert_eq!(gen0, 0);
        assert!(snap0.is_empty());

        let t1 = triple("ID1", "advisor", "ID2");
        live.insert(&t1).unwrap();
        // Uncompacted writes are visible in the overlay, not the snapshot.
        assert!(live.contains(&t1));
        assert!(!readers.load().contains(&t1));

        live.compact().unwrap();
        let (gen1, snap1) = readers.load_tagged();
        assert_eq!(gen1, 1);
        assert!(snap1.contains(&t1));
        // The old Arc stays valid and unchanged: epoch readers finish
        // their queries on the generation they loaded.
        assert!(snap0.is_empty());

        // A clean compact publishes nothing new.
        live.compact().unwrap();
        assert_eq!(readers.load_tagged().0, 1);

        // Handles are cloneable and all observe the same slot, as does
        // the writer-side shorthand.
        let t2 = triple("ID2", "worksFor", "MIT");
        live.insert(&t2).unwrap();
        live.compact().unwrap();
        assert_eq!(readers.clone().load_tagged().0, 2);
        assert_eq!(live.snapshot().len(), 2);

        // Reopening restores the newest generation as the publication.
        drop(live);
        let reopened = LiveGraphStore::open(&dir).unwrap();
        let (gen, snap) = reopened.subscribe().load_tagged();
        assert_eq!(gen, 2);
        assert_eq!(snap.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_loads_share_the_slabs_across_threads() {
        let dir = live_dir("share");
        let mut live = LiveGraphStore::open(&dir).unwrap();
        for i in 0..50 {
            live.insert(&triple(&format!("s{i}"), "p", &format!("o{i}"))).unwrap();
        }
        live.compact().unwrap();
        let handle = live.subscribe();
        // Reader threads query concurrently through their own Arcs.
        let counts: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        let snap = handle.load();
                        snap.matching(&TriplePattern::new(
                            TermPattern::var("s"),
                            iri("p"),
                            TermPattern::var("o"),
                        ))
                        .len()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![50; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_store_open_sweeps_stale_snapshot_temp_files() {
        let dir = live_dir("tmp-sweep");
        let t1 = triple("a", "p", "b");
        {
            let mut live = LiveGraphStore::open(&dir).unwrap();
            live.insert(&t1).unwrap();
            live.compact().unwrap();
        }
        // Simulate a crash between snapshot write and rename: a stale
        // temp file for a generation that will never be reused.
        let stale = dir.join("gen-000099.tmp");
        std::fs::write(&stale, b"half a snapshot").unwrap();
        let reopened = LiveGraphStore::open(&dir).unwrap();
        assert!(!stale.exists(), "stale temp file swept on open");
        assert!(reopened.contains(&t1));
        assert_eq!(reopened.generation(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
