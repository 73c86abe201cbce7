//! Named shared corpora: one immutable, fully indexed instance per name, built once and shared
//! by every connection.
//!
//! A learning service over "very large databases" (the paper's motivating setting) cannot
//! rebuild documents and indexes per user: the whole point of `NodeIndex` is that it is
//! immutable and `Arc`-shareable. The [`CorpusStore`] realises that: the first
//! `CORPUS <name>` builds the instance (XMark documents + per-document [`NodeIndex`],
//! geographical graph + its typed road view, relation pair); every later request — on any
//! connection, for any session — receives clones of the same `Arc`s.
//!
//! Names are deterministic recipes, not uploads: a client and a test referring to `"tiny"` see
//! byte-identical data without shipping it over the wire (the XML half is
//! [`qbe_core::xml::xmark::corpus_by_name`]).
//!
//! When the store is given a data directory, each corpus's inputs (documents, graph, relation
//! pair) are additionally persisted as a `corpus-<name>.qbes` snapshot ([`qbe_core::store`]):
//! the first build writes the snapshot, and every later process opens it instead of
//! regenerating the inputs. Indexes and the typed view are derived from the inputs by the same
//! code on both paths, so a loaded corpus cannot carry an index that disagrees with its
//! documents.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use qbe_core::graph::{generate_geo_graph, typed_road_view, GeoConfig, PropertyGraph};
use qbe_core::relational::{generate_join_instance, JoinInstanceConfig, JoinPredicate, Relation};
use qbe_core::store::{snapshot, CorpusSnapshot, FileBackend, SnapshotReader};
use qbe_core::xml::xmark::corpus_by_name;
use qbe_core::xml::{NodeIndex, XmlTree};

/// The corpus names [`build_corpus`] understands, smallest first.
pub const CORPUS_NAMES: &[&str] = &["tiny", "small", "medium"];

/// One named instance: every substrate a session might learn over, pre-indexed and shareable.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The corpus name.
    pub name: String,
    /// XML documents (XMark) for twig sessions.
    pub docs: Arc<Vec<XmlTree>>,
    /// One [`NodeIndex`] per document, aligned with `docs`.
    pub indexes: Arc<Vec<NodeIndex>>,
    /// Geographical property graph for path sessions.
    pub graph: Arc<PropertyGraph>,
    /// The typed road view of `graph` (edge label = road type, one direction per road) —
    /// what `graph` model sessions (RPQ/2RPQ/CRPQ) learn over.
    pub typed_graph: Arc<PropertyGraph>,
    /// Left relation for join sessions.
    pub left: Arc<Relation>,
    /// Right relation for join sessions.
    pub right: Arc<Relation>,
    /// The join generator's reference predicate. Simulated clients (tests, benches, `--smoke`)
    /// use it as their hidden intent; real clients bring their own and never see this one.
    pub demo_join_goal: JoinPredicate,
}

impl Corpus {
    /// Total XML node count, the denominator twig sessions report against.
    pub fn xml_nodes(&self) -> usize {
        self.docs.iter().map(XmlTree::size).sum()
    }

    /// The serving form of a corpus's inputs: the node indexes and the typed road view are
    /// derived here, for a fresh build and a loaded snapshot alike.
    fn from_inputs(inputs: CorpusSnapshot) -> Corpus {
        let indexes = inputs.docs.iter().map(NodeIndex::build).collect();
        let typed_graph = typed_road_view(&inputs.graph);
        Corpus {
            name: inputs.name,
            docs: Arc::new(inputs.docs),
            indexes: Arc::new(indexes),
            graph: Arc::new(inputs.graph),
            typed_graph: Arc::new(typed_graph),
            left: Arc::new(inputs.left),
            right: Arc::new(inputs.right),
            demo_join_goal: inputs.demo_join_goal,
        }
    }
}

/// Build a named corpus from scratch. `None` for unknown names (see [`CORPUS_NAMES`]).
///
/// Deterministic: every invocation of the same name yields identical data, which is what lets
/// remote clients act as their own oracle — they rebuild the corpus locally and evaluate their
/// goal query against it instead of downloading documents.
pub fn build_corpus(name: &str) -> Option<Corpus> {
    let (xmark, cities, rows) = match name {
        "tiny" => ("xmark-tiny", 10, 12),
        "small" => ("xmark-small", 16, 30),
        "medium" => ("xmark-default", 256, 120),
        _ => return None,
    };
    let (left, right, demo_join_goal) = generate_join_instance(&JoinInstanceConfig {
        left_rows: rows,
        right_rows: rows,
        extra_attributes: 2,
        domain_size: 6,
        seed: 11,
    });
    Some(Corpus::from_inputs(CorpusSnapshot {
        name: name.to_string(),
        docs: corpus_by_name(xmark).expect("every corpus maps to a named XMark corpus"),
        graph: generate_geo_graph(&GeoConfig {
            cities,
            connectivity: 3,
            ..Default::default()
        }),
        left,
        right,
        demo_join_goal,
    }))
}

/// Why a corpus request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The name is not one of [`CORPUS_NAMES`].
    Unknown,
    /// A snapshot file existed but could not be opened or decoded. The message names the
    /// file and the corruption mode, suitable for an `-ERR` reply or a startup error.
    Load(String),
}

/// The owned, serialisable inputs of a [`Corpus`] (Arc-shared); derived data is left out.
pub fn corpus_to_snapshot(c: &Corpus) -> CorpusSnapshot {
    CorpusSnapshot {
        name: c.name.clone(),
        docs: (*c.docs).clone(),
        graph: (*c.graph).clone(),
        left: (*c.left).clone(),
        right: (*c.right).clone(),
        demo_join_goal: c.demo_join_goal.clone(),
    }
}

/// Rebuild the Arc-shared serving form from a decoded snapshot's inputs, deriving the node
/// indexes and the typed road view exactly as [`build_corpus`] does.
pub fn snapshot_to_corpus(s: CorpusSnapshot) -> Corpus {
    Corpus::from_inputs(s)
}

/// The snapshot file a corpus persists to inside a data directory.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("corpus-{name}.qbes"))
}

fn load_snapshot(path: &Path, name: &str) -> Result<Corpus, String> {
    let backend = FileBackend::open(path)
        .map_err(|e| format!("cannot open snapshot {}: {e}", path.display()))?;
    let reader =
        SnapshotReader::open(backend).map_err(|e| format!("snapshot {}: {e}", path.display()))?;
    let snap =
        CorpusSnapshot::decode(&reader).map_err(|e| format!("snapshot {}: {e}", path.display()))?;
    if snap.name != name {
        return Err(format!(
            "snapshot {} holds corpus {:?}, expected {:?}",
            path.display(),
            snap.name,
            name
        ));
    }
    Ok(snapshot_to_corpus(snap))
}

fn save_snapshot(dir: &Path, path: &Path, corpus: &Corpus) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    snapshot::write_atomic(path, &corpus_to_snapshot(corpus).encode())
}

/// Per-name slot: one initialiser runs, everyone else blocks on the cell and shares the result.
type Cell = Arc<OnceLock<Result<Arc<Corpus>, String>>>;

/// Cache of built corpora, shared by all connections of one server; optionally backed by
/// snapshot files in a data directory.
#[derive(Debug, Default)]
pub struct CorpusStore {
    dir: Option<PathBuf>,
    cells: Mutex<HashMap<String, Cell>>,
}

impl CorpusStore {
    /// An in-memory store (no persistence).
    pub fn new() -> CorpusStore {
        CorpusStore::default()
    }

    /// A store that opens `corpus-<name>.qbes` snapshots from `dir` when present and writes
    /// them after first builds. `None` behaves like [`CorpusStore::new`].
    pub fn with_dir(dir: Option<PathBuf>) -> CorpusStore {
        CorpusStore {
            dir,
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The shared corpus for `name`, loading its snapshot or building it on first request.
    ///
    /// Exactly one caller runs the expensive load/build per name — the map lock is held only
    /// long enough to hand out the per-name cell, and `OnceLock::get_or_init` makes every
    /// concurrent first request for the same corpus block on that one initialiser and share
    /// its `Arc` instead of racing to build twice (or serialising *different* corpora behind
    /// one global lock).
    pub fn get_or_load(&self, name: &str) -> Result<Arc<Corpus>, CorpusError> {
        // Validate before inserting a cell so garbage names cannot grow the map.
        if !CORPUS_NAMES.contains(&name) {
            return Err(CorpusError::Unknown);
        }
        let cell: Cell = {
            let mut cells = self
                .cells
                .lock()
                .expect("corpus cell map lock never poisoned");
            cells.entry(name.to_string()).or_default().clone()
        };
        cell.get_or_init(|| self.acquire(name))
            .clone()
            .map_err(CorpusError::Load)
    }

    /// The shared corpus for `name`, or `None` for unknown names and failed loads.
    pub fn get_or_build(&self, name: &str) -> Option<Arc<Corpus>> {
        self.get_or_load(name).ok()
    }

    fn acquire(&self, name: &str) -> Result<Arc<Corpus>, String> {
        let built =
            || Arc::new(build_corpus(name).expect("name already validated against CORPUS_NAMES"));
        let Some(dir) = &self.dir else {
            return Ok(built());
        };
        let path = snapshot_path(dir, name);
        if path.exists() {
            return load_snapshot(&path, name).map(Arc::new);
        }
        let corpus = built();
        if let Err(e) = save_snapshot(dir, &path, &corpus) {
            // Persistence is best-effort for corpora (they are deterministic recipes);
            // serving proceeds from the in-memory build.
            eprintln!(
                "qbe-server: warning: could not write snapshot {}: {e}",
                path.display()
            );
        }
        Ok(corpus)
    }

    /// Number of distinct corpora successfully loaded or built so far.
    pub fn built(&self) -> usize {
        self.cells
            .lock()
            .expect("corpus cell map lock never poisoned")
            .values()
            .filter(|cell| matches!(cell.get(), Some(Ok(_))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_data_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "qbe-server-corpus-{tag}-{}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(build_corpus("gigantic").is_none());
        assert!(CorpusStore::new().get_or_build("gigantic").is_none());
        assert!(matches!(
            CorpusStore::new().get_or_load("gigantic"),
            Err(CorpusError::Unknown)
        ));
    }

    #[test]
    fn store_builds_once_and_shares() {
        let store = CorpusStore::new();
        let a = store.get_or_build("tiny").unwrap();
        let b = store.get_or_build("tiny").unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must share, not rebuild"
        );
        assert!(Arc::ptr_eq(&a.docs, &b.docs));
        assert_eq!(store.built(), 1);
    }

    #[test]
    fn concurrent_first_requests_share_one_build() {
        let store = CorpusStore::new();
        let corpora: Vec<Arc<Corpus>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| store.get_or_load("tiny").unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &corpora[1..] {
            assert!(
                Arc::ptr_eq(&corpora[0], c),
                "all concurrent callers must share the single build"
            );
        }
        assert_eq!(store.built(), 1, "exactly one build ran");
    }

    #[test]
    fn data_dir_round_trips_a_corpus_through_its_snapshot() {
        let dir = temp_data_dir("roundtrip");
        let built = CorpusStore::with_dir(Some(dir.clone()))
            .get_or_load("tiny")
            .unwrap();
        let path = snapshot_path(&dir, "tiny");
        assert!(path.exists(), "first build persists the snapshot");

        let loaded = CorpusStore::with_dir(Some(dir.clone()))
            .get_or_load("tiny")
            .unwrap();
        assert_eq!(loaded.name, built.name);
        assert_eq!(*loaded.docs, *built.docs);
        assert_eq!(loaded.left.tuples(), built.left.tuples());
        assert_eq!(loaded.right.tuples(), built.right.tuples());
        assert_eq!(loaded.demo_join_goal, built.demo_join_goal);
        assert_eq!(loaded.graph.node_count(), built.graph.node_count());
        assert_eq!(
            loaded.typed_graph.edge_alphabet(),
            built.typed_graph.edge_alphabet()
        );
        assert_eq!(loaded.indexes.len(), built.indexes.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_with_retired_derived_sections_still_opens() {
        use qbe_core::store::corpus::section;
        use qbe_core::store::SnapshotWriter;

        let dir = temp_data_dir("retired");
        let built = CorpusStore::with_dir(Some(dir.clone()))
            .get_or_load("tiny")
            .unwrap();
        let path = snapshot_path(&dir, "tiny");
        // Lay the file out as earlier snapshots did: the four input sections in kind order,
        // with the retired kinds 3, 5, 6 and 7 (once indexes and the typed view) between them.
        let reader = SnapshotReader::open(FileBackend::open(&path).unwrap()).unwrap();
        let mut writer = SnapshotWriter::new();
        for kind in 1..=8u32 {
            let payload = match kind {
                section::META | section::DOCS | section::GRAPH | section::RELATIONS => {
                    reader.read_section(kind).unwrap()
                }
                retired => vec![retired as u8; 64 + retired as usize],
            };
            writer.section(kind, payload);
        }
        drop(reader);
        snapshot::write_atomic(&path, &writer.finish()).unwrap();

        let loaded = CorpusStore::with_dir(Some(dir.clone()))
            .get_or_load("tiny")
            .unwrap();
        assert_eq!(*loaded.docs, *built.docs);
        assert_eq!(loaded.indexes.len(), built.indexes.len());
        assert_eq!(loaded.graph.edge_count(), built.graph.edge_count());
        assert_eq!(loaded.left.tuples(), built.left.tuples());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_reported_not_silently_rebuilt() {
        let dir = temp_data_dir("corrupt");
        CorpusStore::with_dir(Some(dir.clone()))
            .get_or_load("tiny")
            .unwrap();
        let path = snapshot_path(&dir, "tiny");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X'; // break the magic
        std::fs::write(&path, &bytes).unwrap();
        match CorpusStore::with_dir(Some(dir.clone())).get_or_load("tiny") {
            Err(CorpusError::Load(msg)) => {
                assert!(msg.contains("magic"), "message names the corruption: {msg}");
                assert!(
                    msg.contains("corpus-tiny.qbes"),
                    "message names the file: {msg}"
                );
            }
            other => panic!("expected a load error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_holding_the_wrong_corpus_is_rejected() {
        let dir = temp_data_dir("wrongname");
        CorpusStore::with_dir(Some(dir.clone()))
            .get_or_load("tiny")
            .unwrap();
        // Masquerade the tiny snapshot as "small".
        std::fs::rename(snapshot_path(&dir, "tiny"), snapshot_path(&dir, "small")).unwrap();
        match CorpusStore::with_dir(Some(dir.clone())).get_or_load("small") {
            Err(CorpusError::Load(msg)) => {
                assert!(
                    msg.contains("expected"),
                    "message explains the mismatch: {msg}"
                );
            }
            other => panic!("expected a load error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_corpus_has_all_substrates() {
        let c = build_corpus("tiny").unwrap();
        assert_eq!(c.docs.len(), c.indexes.len());
        assert!(c.xml_nodes() > 50, "XMark tiny is small but not trivial");
        assert!(c.graph.node_count() >= 10);
        assert!(!c.left.is_empty() && !c.right.is_empty());
        for (doc, index) in c.docs.iter().zip(c.indexes.iter()) {
            assert_eq!(index.node_count(), doc.size());
        }
        assert_eq!(c.typed_graph.node_count(), c.graph.node_count());
        assert_eq!(c.typed_graph.edge_count() * 2, c.graph.edge_count());
        assert!(c.typed_graph.edge_alphabet().len() > 1);
    }

    #[test]
    fn corpora_are_deterministic() {
        let a = build_corpus("tiny").unwrap();
        let b = build_corpus("tiny").unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.left.tuples(), b.left.tuples());
    }
}
