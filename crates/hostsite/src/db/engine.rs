//! The [`Database`] façade: transactions, recovery, the memory cap and
//! the query cache, tied over the WAL / MVCC / index layers.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher as _, Hash as _, Hasher as _};
use std::sync::Arc;

use simnet::{FixedHasher, FixedState, TtlLru};

use super::fts::{query_terms, FtsIndex};
use super::index::Table;
use super::mvcc::VersionChain;
use super::wal::Wal;
use super::{float_key_bits, AsKey, DbError, DurabilityPolicy, JournalEntry, OrdKey, Row, Value};

/// Flat simulated cost of a cold full-text search: query parse, tf×idf
/// scoring and rank materialization on era-appropriate host hardware.
/// Milliseconds, not microseconds — searching is the most expensive
/// single DB operation the application programs run, which is exactly
/// why the memo exists.
const SEARCH_BASE_NS: u64 = 3_000_000;
/// Simulated cost per postings entry visited by a cold search.
const SEARCH_POSTING_NS: u64 = 50_000;
/// Simulated cost of serving a memoized search result.
const SEARCH_MEMO_HIT_NS: u64 = 100_000;
/// Maximum memoized search result sets. Query strings are a
/// high-cardinality key space (they mostly never revisit), so unlike the
/// `select_eq` cache the search memo must be capped: each entry weighs
/// one, and beyond the cap the least-recently-used entry is evicted.
const SEARCH_MEMO_CAP: usize = 64;

/// Inverse operations for transaction rollback.
#[derive(Debug, Clone)]
enum Undo {
    RemoveRow { table: Arc<str>, key: OrdKey },
    RestoreRow { table: Arc<str>, row: Arc<Row> },
    DropTable { name: Arc<str> },
}

/// A memoized result set, shared row handles in result order.
type ResultSet = Vec<Arc<Row>>;

/// A distinct `select_eq` query shape: the query cache's key.
#[derive(Debug, Clone, PartialEq)]
struct QueryShape {
    table: String,
    column: String,
    key: OrdKey,
}

/// Hashes the query shape `(table, column, value)` borrowed, so a
/// query-cache lookup builds no [`QueryShape`].
fn query_hash(table: &str, column: &str, value: &Value) -> u64 {
    let mut h = FixedHasher::default();
    table.hash(&mut h);
    column.hash(&mut h);
    // Mirror `Value::ord_key`'s normalisation (Bool → Int, floats →
    // monotone bits) so e.g. `Bool(true)` and `Int(1)` probes agree
    // with `OrdKey::matches_value`.
    match value {
        Value::Int(i) => (0u8, i).hash(&mut h),
        Value::Bool(b) => (0u8, i64::from(*b)).hash(&mut h),
        Value::Text(t) => (1u8, t.as_str()).hash(&mut h),
        Value::Float(f) => (2u8, float_key_bits(*f)).hash(&mut h),
    }
    h.finish()
}

/// A pinned read snapshot (see [`Database::begin_snapshot`]).
///
/// The snapshot observes the database exactly as of the commit version
/// it was opened at; concurrent writers proceed without blocking it and
/// without becoming visible to it. Close it with
/// [`Database::end_snapshot`] so dead row versions can be pruned.
#[derive(Debug)]
pub struct Snapshot {
    version: u64,
}

impl Snapshot {
    /// The commit version the snapshot is pinned at.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The embedded database engine.
///
/// A clone is an independent value: writes to either copy never show in
/// the other. It is also cheap. Each table's row map is copied, but row
/// images, schemas, secondary indexes, full-text postings and journal
/// payloads are shared behind `Arc` until a write reaches them. A fleet
/// seeds an application's database once and starts every host from a
/// clone of it.
///
/// ```
/// use hostsite::db::{Database, Value};
///
/// let mut db = Database::new();
/// db.create_table("products", &["sku", "name", "price"], &["name"])?;
/// db.insert("products", vec![1.into(), "widget".into(), Value::Float(4.99)])?;
/// let row = db.get("products", &1.into())?.unwrap();
/// assert_eq!(row[1], Value::Text("widget".into()));
/// # Ok::<(), hostsite::db::DbError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    tables: HashMap<Arc<str>, Table>,
    wal: Wal,
    memory_limit: Option<usize>,
    footprint: usize,
    tx_depth: u32,
    undo: Vec<Undo>,
    tx_journal: Vec<JournalEntry>,
    /// Memoized `select_eq` result sets, unbounded; interior mutability
    /// because the read path takes `&self`. Off by default so uncached
    /// behaviour is untouched.
    query_cache: RefCell<TtlLru<QueryShape, ResultSet>>,
    /// Memoized full-text search result sets keyed by `(table, query)`,
    /// capped at [`SEARCH_MEMO_CAP`] and gated by the same enable/TTL
    /// knobs as the query cache.
    search_memo: RefCell<TtlLru<(String, String), ResultSet>>,
    /// Simulated CPU accrued by [`Database::search`] since the last
    /// drain; interior mutability because the read path takes `&self`.
    search_cost_ns: Cell<u64>,
    query_cache_enabled: bool,
    /// Optional freshness window for cached query results; `None` (the
    /// default) keeps entries until a write invalidates them.
    query_cache_ttl_ns: Option<u64>,
    /// The engine's view of sim time, used only for TTL freshness.
    now_ns: u64,
    /// Monotone commit-version counter stamped onto row versions.
    commit_version: u64,
    /// Open snapshots: pinned commit version → open count.
    pinned: BTreeMap<u64, u32>,
    /// `(row, index)` entries rebuilt by the last recovery (derived
    /// projections are rebuilt from base rows, never replayed).
    index_entries_rebuilt: u64,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            wal: Wal::default(),
            memory_limit: None,
            footprint: 0,
            tx_depth: 0,
            undo: Vec::new(),
            tx_journal: Vec::new(),
            query_cache: RefCell::new(TtlLru::new(u64::MAX, usize::MAX)),
            search_memo: RefCell::new(TtlLru::new(u64::MAX, SEARCH_MEMO_CAP)),
            search_cost_ns: Cell::new(0),
            query_cache_enabled: false,
            query_cache_ttl_ns: None,
            now_ns: 0,
            commit_version: 0,
            pinned: BTreeMap::new(),
            index_entries_rebuilt: 0,
        }
    }
}

impl Database {
    /// Creates an unconstrained (server-side) database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an embedded database capped at `limit` bytes of row data —
    /// the small-footprint configuration for handheld devices (§7).
    pub fn with_memory_limit(limit: usize) -> Self {
        Database {
            memory_limit: Some(limit),
            ..Self::default()
        }
    }

    /// Approximate bytes of row data currently stored (live versions).
    pub fn footprint(&self) -> usize {
        self.footprint
    }

    /// The durable prefix of the write-ahead log — exactly what survives
    /// a crash. Under the default [`DurabilityPolicy`] every commit is
    /// flushed immediately, so this is the full history; under group
    /// commit the un-fsynced tail (see
    /// [`pending_journal_len`](Database::pending_journal_len)) is absent.
    pub fn journal(&self) -> &[JournalEntry] {
        self.wal.durable()
    }

    /// Entries committed but not yet fsynced — the durability window a
    /// crash would lose.
    pub fn pending_journal_len(&self) -> usize {
        self.wal.pending_len()
    }

    /// Forces an fsync of the pending tail, pricing it like any other.
    pub fn sync_journal(&mut self) {
        self.wal.sync();
    }

    /// Replaces the durability policy. The pending tail is flushed first
    /// under the old policy.
    pub fn set_durability(&mut self, policy: DurabilityPolicy) {
        self.wal.set_policy(policy);
    }

    /// The durability policy in force.
    pub fn durability(&self) -> DurabilityPolicy {
        self.wal.policy()
    }

    /// Total fsyncs the WAL has performed.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Returns and resets the simulated fsync cost accrued since the
    /// last drain. The host computer charges this to the request that
    /// triggered the flushes, so durability shows up as host CPU time.
    pub fn drain_commit_cost_ns(&mut self) -> u64 {
        self.wal.drain_cost_ns()
    }

    /// `(row, index)` entries the last [`Database::recover`] rebuilt.
    pub fn index_entries_rebuilt(&self) -> u64 {
        self.index_entries_rebuilt
    }

    /// Enables or disables the `select_eq` query cache. Disabling also
    /// flushes it. The cache changes no observable query results — writes
    /// invalidate the touched table's entries before they land in the
    /// journal — so flipping this knob never changes simulation numbers.
    pub fn set_query_cache(&mut self, enabled: bool) {
        self.query_cache_enabled = enabled;
        if !enabled {
            self.flush_query_cache();
        }
    }

    /// True when the query cache is on.
    pub fn query_cache_enabled(&self) -> bool {
        self.query_cache_enabled
    }

    /// Sets (or clears) the query-cache TTL. A cached result stored at
    /// `t` is fresh strictly before `t + ttl` and expired at exactly
    /// `t + ttl` — the same boundary rule as the page and content
    /// caches. `None` (the default) disables expiry: it is held as a TTL
    /// of `u64::MAX` ns, which no simulated run outlives.
    pub fn set_query_cache_ttl(&mut self, ttl_ns: Option<u64>) {
        self.query_cache_ttl_ns = ttl_ns;
        let ttl_ns = ttl_ns.unwrap_or(u64::MAX);
        self.query_cache.get_mut().set_ttl(ttl_ns);
        self.search_memo.get_mut().set_ttl(ttl_ns);
    }

    /// The query-cache TTL in force.
    pub fn query_cache_ttl_ns(&self) -> Option<u64> {
        self.query_cache_ttl_ns
    }

    /// Advances the engine's view of simulated time (TTL freshness).
    pub fn set_now_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Drops every cached query result and memoized search (all tables).
    pub fn flush_query_cache(&mut self) {
        self.query_cache.get_mut().clear();
        self.search_memo.get_mut().clear();
    }

    /// Drops cached query results *and* memoized search results for one
    /// table — the transactional invalidation hook called by every
    /// successful write. A write to the catalog must take the
    /// `select_eq` entries and the search memo down together; both are
    /// projections of the same base rows.
    fn invalidate_table(&self, table_name: &str) {
        if !self.query_cache_enabled {
            return;
        }
        let dropped = self
            .query_cache
            .borrow_mut()
            .retain(|shape, _| shape.table != table_name)
            + self
                .search_memo
                .borrow_mut()
                .retain(|(table, _), _| table != table_name);
        if dropped > 0 {
            obs::metrics::incr("host.db_cache.invalidations");
        }
    }

    /// Rebuilds a database by replaying a journal — crash recovery under
    /// the default durability policy.
    ///
    /// Replay goes through an internal, side-effect-free apply path: it
    /// records nothing to the new log (the input journal *is* the log),
    /// touches no query cache and bumps no observability counters —
    /// recovery is metrics-silent and idempotent. Secondary indexes are
    /// not replayed at all; they are rebuilt from the recovered base
    /// rows afterwards, as derived projections.
    ///
    /// # Errors
    ///
    /// Propagates any error the replayed operations raise (a corrupt
    /// journal) — as an `Err`, never a panic.
    pub fn recover(journal: &[JournalEntry]) -> Result<Database, DbError> {
        Self::recover_with_policy(journal, DurabilityPolicy::default())
    }

    /// [`Database::recover`], preserving a non-default durability policy
    /// across the crash.
    pub fn recover_with_policy(
        journal: &[JournalEntry],
        policy: DurabilityPolicy,
    ) -> Result<Database, DbError> {
        let mut db = Database::new();
        for entry in journal {
            db.apply_recovered(entry)?;
        }
        // Derived projections: rebuild every secondary index from the
        // recovered base rows.
        let mut rebuilt = 0u64;
        for table in db.tables.values_mut() {
            rebuilt += table.rebuild_indexes()?;
        }
        db.index_entries_rebuilt = rebuilt;
        db.wal.install_durable(journal.to_vec());
        db.wal.set_policy(policy);
        Ok(db)
    }

    /// Applies one journal entry to base storage with no side effects:
    /// no log append, no undo, no cache invalidation, no metrics, no
    /// incremental index maintenance.
    fn apply_recovered(&mut self, entry: &JournalEntry) -> Result<(), DbError> {
        match entry {
            JournalEntry::CreateTable {
                name,
                columns,
                indexes,
            } => self.add_table(name, columns, indexes)?,
            JournalEntry::Insert { table, row } => {
                {
                    let t = self.table(table)?;
                    Self::validate_row(t, table, row)?;
                    if t.live(&row[0]).is_some() {
                        return Err(DbError::DuplicateKey(row[0].to_string()));
                    }
                }
                self.footprint += Self::row_footprint(row);
                let version = self.next_version();
                let t = self.tables.get_mut(table).expect("checked above");
                t.rows
                    .entry(row[0].ord_key())
                    .or_default()
                    .install(Arc::clone(row), version, None);
            }
            JournalEntry::Update { table, row } => {
                let old = {
                    let t = self.table(table)?;
                    Self::validate_row(t, table, row)?;
                    t.live(&row[0]).cloned().ok_or(DbError::NotFound)?
                };
                self.footprint = self.footprint.saturating_sub(Self::row_footprint(&old));
                self.footprint += Self::row_footprint(row);
                let version = self.next_version();
                let t = self.tables.get_mut(table).expect("checked above");
                t.rows
                    .get_mut(&row[0].ord_key())
                    .expect("live row exists")
                    .install(Arc::clone(row), version, None);
            }
            JournalEntry::Delete { table, key } => {
                let old = {
                    let t = self.table(table)?;
                    t.live(key).cloned().ok_or(DbError::NotFound)?
                };
                self.footprint = self.footprint.saturating_sub(Self::row_footprint(&old));
                let version = self.next_version();
                let t = self.tables.get_mut(table).expect("checked above");
                let ord = key.ord_key();
                if let Some(chain) = t.rows.get_mut(&ord) {
                    chain.remove_live(version, None);
                    if chain.is_empty() {
                        t.rows.remove(&ord);
                    }
                }
            }
        }
        Ok(())
    }

    /// Creates a table. Column 0 is the primary key; `indexes` lists
    /// columns to maintain secondary indexes on.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] on duplicate name, [`DbError::SchemaMismatch`]
    /// on an empty column list, [`DbError::NoSuchColumn`] for unknown index
    /// columns.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: &[&str],
        indexes: &[&str],
    ) -> Result<(), DbError> {
        let name: Arc<str> = Arc::from(name);
        let columns: Arc<[String]> = columns.iter().map(|s| (*s).to_owned()).collect();
        let indexes: Arc<[String]> = indexes.iter().map(|s| (*s).to_owned()).collect();
        self.add_table(&name, &columns, &indexes)?;
        self.record(JournalEntry::CreateTable {
            name: Arc::clone(&name),
            columns,
            indexes,
        });
        if self.tx_depth > 0 {
            self.undo.push(Undo::DropTable { name });
        }
        Ok(())
    }

    /// Checks a new table's schema and adds the empty table: the shared
    /// step of [`Database::create_table`] and recovery.
    fn add_table(
        &mut self,
        name: &Arc<str>,
        columns: &Arc<[String]>,
        indexes: &[String],
    ) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        if columns.is_empty() {
            return Err(DbError::SchemaMismatch(
                "a table needs at least one column".into(),
            ));
        }
        if let Some(idx) = indexes.iter().find(|idx| !columns.contains(idx)) {
            return Err(DbError::NoSuchColumn {
                table: name.to_string(),
                column: idx.clone(),
            });
        }
        self.tables.insert(
            Arc::clone(name),
            Table::new(Arc::clone(name), Arc::clone(columns), indexes),
        );
        Ok(())
    }

    /// Lists table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().map(|k| k.to_string()).collect();
        names.sort();
        names
    }

    /// Number of (live) rows in `table`.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn len(&self, table: &str) -> Result<usize, DbError> {
        Ok(self
            .table(table)?
            .rows
            .values()
            .filter(|c| c.live().is_some())
            .count())
    }

    /// True when `table` has no rows.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn is_empty(&self, table: &str) -> Result<bool, DbError> {
        Ok(self.len(table)? == 0)
    }

    fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    fn validate_row(table: &Table, table_name: &str, row: &Row) -> Result<(), DbError> {
        if row.len() != table.columns.len() {
            return Err(DbError::SchemaMismatch(format!(
                "table {table_name:?} has {} columns, row has {}",
                table.columns.len(),
                row.len()
            )));
        }
        for v in row {
            if let Value::Float(f) = v {
                if f.is_nan() {
                    return Err(DbError::NanRejected);
                }
            }
        }
        Ok(())
    }

    fn charge(&mut self, bytes: usize) -> Result<(), DbError> {
        if let Some(limit) = self.memory_limit {
            if self.footprint + bytes > limit {
                return Err(DbError::OutOfMemory { limit });
            }
        }
        self.footprint += bytes;
        Ok(())
    }

    fn row_footprint(row: &Row) -> usize {
        row.iter().map(Value::footprint).sum()
    }

    fn record(&mut self, entry: JournalEntry) {
        if self.tx_depth > 0 {
            self.tx_journal.push(entry);
        } else {
            self.wal.commit(std::iter::once(entry));
        }
    }

    /// The next commit version, stamped onto the row versions a write
    /// installs.
    fn next_version(&mut self) -> u64 {
        self.commit_version += 1;
        self.commit_version
    }

    /// The smallest pinned commit version, or `None` with no open
    /// snapshots (dead row versions are then unreachable).
    fn oldest_pin(&self) -> Option<u64> {
        self.pinned.keys().next().copied()
    }

    /// Opens a read snapshot pinned at the current commit version. Reads
    /// through it (see [`Database::snapshot_get`]) observe a frozen,
    /// consistent view; writers proceed without blocking it. Close with
    /// [`Database::end_snapshot`].
    pub fn begin_snapshot(&mut self) -> Snapshot {
        let version = self.commit_version;
        *self.pinned.entry(version).or_insert(0) += 1;
        Snapshot { version }
    }

    /// Closes a snapshot, allowing row versions only it could see to be
    /// pruned by later writes.
    pub fn end_snapshot(&mut self, snapshot: Snapshot) {
        if let Some(count) = self.pinned.get_mut(&snapshot.version) {
            *count -= 1;
            if *count == 0 {
                self.pinned.remove(&snapshot.version);
            }
        }
    }

    /// Number of snapshots currently open.
    pub fn open_snapshots(&self) -> usize {
        self.pinned.values().map(|&c| c as usize).sum()
    }

    /// [`Database::get`] as of `snapshot`: the row image the pinned
    /// version observes, regardless of later writes.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn snapshot_get(
        &self,
        snapshot: &Snapshot,
        table_name: &str,
        key: &Value,
    ) -> Result<Option<Arc<Row>>, DbError> {
        Ok(self
            .table(table_name)?
            .rows
            .get(key as &dyn AsKey)
            .and_then(|chain| chain.visible_at(snapshot.version))
            .cloned())
    }

    /// [`Database::select`] as of `snapshot`.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn snapshot_select(
        &self,
        snapshot: &Snapshot,
        table_name: &str,
        predicate: impl Fn(&Row) -> bool,
    ) -> Result<Vec<Arc<Row>>, DbError> {
        Ok(self
            .table(table_name)?
            .rows
            .values()
            .filter_map(|chain| chain.visible_at(snapshot.version))
            .filter(|r| predicate(r.as_ref()))
            .cloned()
            .collect())
    }

    /// [`Database::select_eq`] as of `snapshot`. Always scans the version
    /// chains: secondary indexes are projections of the *live* state and
    /// cannot serve historical reads.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for unknown columns.
    pub fn snapshot_select_eq(
        &self,
        snapshot: &Snapshot,
        table_name: &str,
        column: &str,
        value: &Value,
    ) -> Result<Vec<Arc<Row>>, DbError> {
        let table = self.table(table_name)?;
        let ci = table
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table_name.to_owned(),
                column: column.to_owned(),
            })?;
        Ok(table
            .rows
            .values()
            .filter_map(|chain| chain.visible_at(snapshot.version))
            .filter(|r| r[ci] == *value)
            .cloned()
            .collect())
    }

    /// Inserts a row (column 0 is the primary key).
    ///
    /// # Errors
    ///
    /// [`DbError::DuplicateKey`] if the key exists, plus schema/memory
    /// errors.
    pub fn insert(&mut self, table_name: &str, row: Row) -> Result<(), DbError> {
        {
            let table = self.table(table_name)?;
            Self::validate_row(table, table_name, &row)?;
            if table.live(&row[0]).is_some() {
                return Err(DbError::DuplicateKey(row[0].to_string()));
            }
        }
        let bytes = Self::row_footprint(&row);
        self.charge(bytes)?;
        let version = self.next_version();
        let pin = self.oldest_pin();
        let key = row[0].ord_key();
        let table = self.tables.get_mut(table_name).expect("checked above");
        if let Err(e) = table.index_insert(&row) {
            self.footprint = self.footprint.saturating_sub(bytes);
            return Err(e);
        }
        // One image, shared by the version chain and the journal.
        let row = Arc::new(row);
        table
            .rows
            .entry(key.clone())
            .or_default()
            .install(Arc::clone(&row), version, pin);
        let name = Arc::clone(&table.name);
        self.invalidate_table(table_name);
        if self.tx_depth > 0 {
            self.undo.push(Undo::RemoveRow {
                table: Arc::clone(&name),
                key,
            });
        }
        self.record(JournalEntry::Insert { table: name, row });
        Ok(())
    }

    /// Fetches a row by primary key. The returned [`Arc`] is a shared
    /// handle into the row store — cloning it is a refcount bump, not a
    /// deep copy; callers that want to mutate clone the inner `Row`.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn get(&self, table_name: &str, key: &Value) -> Result<Option<Arc<Row>>, DbError> {
        Ok(self.table(table_name)?.live(key).cloned())
    }

    /// Replaces the row whose primary key equals `row[0]`.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] when no such row exists, plus schema/memory
    /// errors.
    pub fn update(&mut self, table_name: &str, row: Row) -> Result<(), DbError> {
        let old = {
            let table = self.table(table_name)?;
            Self::validate_row(table, table_name, &row)?;
            table.live(&row[0]).cloned().ok_or(DbError::NotFound)?
        };
        let old_bytes = Self::row_footprint(&old);
        let new_bytes = Self::row_footprint(&row);
        self.footprint = self.footprint.saturating_sub(old_bytes);
        if let Err(e) = self.charge(new_bytes) {
            self.footprint += old_bytes; // restore accounting
            return Err(e);
        }
        let version = self.next_version();
        let pin = self.oldest_pin();
        let key = row[0].ord_key();
        let table = self.tables.get_mut(table_name).expect("checked above");
        if let Err(e) = table.index_update(&old, &row) {
            self.footprint = self.footprint.saturating_sub(new_bytes) + old_bytes;
            return Err(e);
        }
        // One image, shared by the version chain and the journal.
        let row = Arc::new(row);
        table
            .rows
            .get_mut(&key)
            .expect("live row exists")
            .install(Arc::clone(&row), version, pin);
        let name = Arc::clone(&table.name);
        self.invalidate_table(table_name);
        if self.tx_depth > 0 {
            self.undo.push(Undo::RestoreRow {
                table: Arc::clone(&name),
                row: old,
            });
        }
        self.record(JournalEntry::Update { table: name, row });
        Ok(())
    }

    /// Deletes a row by primary key.
    ///
    /// # Errors
    ///
    /// [`DbError::NotFound`] when no such row exists.
    pub fn delete(&mut self, table_name: &str, key: &Value) -> Result<(), DbError> {
        let old = {
            let table = self.table(table_name)?;
            table.live(key).cloned().ok_or(DbError::NotFound)?
        };
        self.footprint = self.footprint.saturating_sub(Self::row_footprint(&old));
        let version = self.next_version();
        let pin = self.oldest_pin();
        let table = self.tables.get_mut(table_name).expect("checked above");
        if let Err(e) = table.index_remove(&old) {
            self.footprint += Self::row_footprint(&old);
            return Err(e);
        }
        let ord = key.ord_key();
        if let Some(chain) = table.rows.get_mut(&ord) {
            chain.remove_live(version, pin);
            if chain.is_empty() {
                table.rows.remove(&ord);
            }
        }
        let name = Arc::clone(&table.name);
        self.invalidate_table(table_name);
        if self.tx_depth > 0 {
            self.undo.push(Undo::RestoreRow {
                table: Arc::clone(&name),
                row: old,
            });
        }
        self.record(JournalEntry::Delete {
            table: name,
            key: key.clone(),
        });
        Ok(())
    }

    /// Full scan returning rows matching `predicate`, in primary-key order.
    /// Rows come back as shared handles ([`Arc<Row>`]), not copies.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn select(
        &self,
        table_name: &str,
        predicate: impl Fn(&Row) -> bool,
    ) -> Result<Vec<Arc<Row>>, DbError> {
        Ok(self
            .table(table_name)?
            .rows
            .values()
            .filter_map(VersionChain::live)
            .filter(|r| predicate(r.as_ref()))
            .cloned()
            .collect())
    }

    /// Index lookup: rows whose `column` equals `value`. Uses the
    /// secondary index when one exists, otherwise falls back to a scan
    /// (the trivial query planner). When the query cache is enabled the
    /// result set is memoized per table and served until the next write
    /// to that table invalidates it (or, with a TTL set, until it
    /// expires).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for unknown columns.
    pub fn select_eq(
        &self,
        table_name: &str,
        column: &str,
        value: &Value,
    ) -> Result<Vec<Arc<Row>>, DbError> {
        let table = self.table(table_name)?;
        let ci = table
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table_name.to_owned(),
                column: column.to_owned(),
            })?;
        // A lookup hashes the shape borrowed; the owned shape is built
        // only when a result is stored.
        let cache_hash = self
            .query_cache_enabled
            .then(|| query_hash(table_name, column, value));
        if let Some(hash) = cache_hash {
            let mut cache = self.query_cache.borrow_mut();
            let same_shape = |s: &QueryShape| {
                s.table == table_name && s.column == column && s.key.matches_value(value)
            };
            if let Some(rows) = cache.get(hash, same_shape, self.now_ns) {
                obs::metrics::incr("host.db_cache.hits");
                return Ok(rows.clone());
            }
        }
        let rows: Vec<Arc<Row>> = if let Some(index) = table.indexes.get(column) {
            index
                .get(value as &dyn AsKey)
                .map(|pks| pks.iter().filter_map(|pk| table.live(pk)).cloned().collect())
                .unwrap_or_default()
        } else {
            table
                .rows
                .values()
                .filter_map(VersionChain::live)
                .filter(|r| r[ci] == *value)
                .cloned()
                .collect()
        };
        if let Some(hash) = cache_hash {
            obs::metrics::incr("host.db_cache.misses");
            let shape = QueryShape {
                table: table_name.to_owned(),
                column: column.to_owned(),
                key: value.ord_key(),
            };
            self.query_cache
                .borrow_mut()
                .put(hash, shape, rows.clone(), 1, self.now_ns);
        }
        Ok(rows)
    }

    /// True when `column` has a secondary index on `table`.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn has_index(&self, table: &str, column: &str) -> Result<bool, DbError> {
        Ok(self.table(table)?.indexes.contains_key(column))
    }

    /// Registers a full-text index over `column` and builds it from the
    /// live rows, replacing any existing registration. Returns the
    /// `(term, primary key)` postings entry count built.
    ///
    /// Registration is engine configuration, like the query-cache knobs:
    /// it is **not** journaled, so a crash drops both the postings and
    /// the registration — the recovery path re-registers and pays the
    /// rebuild (see `crash_and_recover_db` pricing the entry count into
    /// `host.db.index_rebuild_ns`).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] / [`DbError::NoSuchColumn`] for unknown
    /// names.
    pub fn create_fts(&mut self, table_name: &str, column: &str) -> Result<u64, DbError> {
        let table = self
            .tables
            .get_mut(table_name)
            .ok_or_else(|| DbError::NoSuchTable(table_name.to_owned()))?;
        if table.column_index(column).is_none() {
            return Err(DbError::NoSuchColumn {
                table: table_name.to_owned(),
                column: column.to_owned(),
            });
        }
        let mut fts = FtsIndex::new(column);
        for chain in table.rows.values() {
            if let Some(row) = chain.live() {
                fts.insert_row(table_name, &table.columns, row)?;
            }
        }
        let entries = fts.entry_count();
        table.fts = Some(Arc::new(fts));
        Ok(entries)
    }

    /// True when `table` has a full-text index registered.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when the table does not exist.
    pub fn has_fts(&self, table: &str) -> Result<bool, DbError> {
        Ok(self.table(table)?.fts.is_some())
    }

    /// Every `(table, column)` full-text registration, sorted. The
    /// recovery path captures these before a crash and re-registers
    /// afterwards, since registrations are not journaled.
    pub fn fts_registrations(&self) -> Vec<(String, String)> {
        let mut regs: Vec<(String, String)> = self
            .tables
            .iter()
            .filter_map(|(name, t)| t.fts.as_ref().map(|f| (name.to_string(), f.column.clone())))
            .collect();
        regs.sort();
        regs
    }

    /// Full-text search over `table`'s registered index: rows matching at
    /// least one query term, ranked by fixed-point tf × idf descending
    /// with ties broken by primary key ascending. When the query cache is
    /// enabled the result set is memoized per `(table, query)` — capped,
    /// TTL-checked and invalidated by writes exactly like `select_eq`
    /// entries — and simulated CPU accrues for the host to drain (see
    /// [`Database::drain_search_cost_ns`]).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] for unknown tables,
    /// [`DbError::SchemaMismatch`] when no full-text index is registered.
    pub fn search(&self, table_name: &str, query: &str) -> Result<Vec<Arc<Row>>, DbError> {
        let table = self.table(table_name)?;
        let Some(fts) = table.fts.as_ref() else {
            return Err(DbError::SchemaMismatch(format!(
                "no full-text index on table {table_name:?}"
            )));
        };
        let memo_hash = self
            .query_cache_enabled
            .then(|| FixedState::default().hash_one((table_name, query)));
        if let Some(hash) = memo_hash {
            let mut memo = self.search_memo.borrow_mut();
            let same_query = |(t, q): &(String, String)| t == table_name && q == query;
            if let Some(rows) = memo.get(hash, same_query, self.now_ns) {
                obs::metrics::incr("host.db_cache.search_hits");
                self.search_cost_ns
                    .set(self.search_cost_ns.get() + SEARCH_MEMO_HIT_NS);
                return Ok(rows.clone());
            }
        }
        let mut lowered = String::new();
        let (scores, visited) = fts.candidates(&query_terms(query, &mut lowered));
        let rows = Self::rank(table, scores);
        self.search_cost_ns
            .set(self.search_cost_ns.get() + SEARCH_BASE_NS + SEARCH_POSTING_NS * visited);
        if let Some(hash) = memo_hash {
            obs::metrics::incr("host.db_cache.search_misses");
            let key = (table_name.to_owned(), query.to_owned());
            self.search_memo
                .borrow_mut()
                .put(hash, key, rows.clone(), 1, self.now_ns);
        }
        Ok(rows)
    }

    /// Brute-force reference for [`Database::search`]: builds a fresh
    /// postings projection from the live rows on every call and ranks
    /// with the identical scorer. No index, no memo, no metrics, no
    /// simulated cost — this exists so tests and the F12 experiment can
    /// assert the incrementally-maintained index byte-equals a
    /// from-scratch scan.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] / [`DbError::NoSuchColumn`] for unknown
    /// names.
    pub fn search_scan(
        &self,
        table_name: &str,
        column: &str,
        query: &str,
    ) -> Result<Vec<Arc<Row>>, DbError> {
        let table = self.table(table_name)?;
        let mut scratch = FtsIndex::new(column);
        for chain in table.rows.values() {
            if let Some(row) = chain.live() {
                scratch.insert_row(table_name, &table.columns, row)?;
            }
        }
        let mut lowered = String::new();
        let (scores, _) = scratch.candidates(&query_terms(query, &mut lowered));
        Ok(Self::rank(table, scores))
    }

    /// Materializes scored primary keys in rank order: score descending,
    /// primary key ascending on ties — the deterministic total order.
    fn rank(table: &Table, scores: BTreeMap<OrdKey, u64>) -> Vec<Arc<Row>> {
        let mut ranked: Vec<(u64, OrdKey)> = scores.into_iter().map(|(pk, s)| (s, pk)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        ranked
            .iter()
            .filter_map(|(_, pk)| table.live(pk))
            .cloned()
            .collect()
    }

    /// Returns and resets the simulated search CPU accrued since the
    /// last drain — the search twin of
    /// [`Database::drain_commit_cost_ns`]; the host charges it to the
    /// request that ran the searches.
    pub fn drain_search_cost_ns(&mut self) -> u64 {
        self.search_cost_ns.replace(0)
    }

    /// Runs `body` atomically: all of its writes commit together (one
    /// group-commit unit in the WAL), or — if it returns `Err` — none of
    /// them apply and the log is untouched.
    ///
    /// # Errors
    ///
    /// Returns the body's error after rolling back.
    ///
    /// # Panics
    ///
    /// Panics on nested transactions (single-writer engine).
    pub fn transaction<T, E>(
        &mut self,
        body: impl FnOnce(&mut Database) -> Result<T, E>,
    ) -> Result<T, E> {
        assert_eq!(self.tx_depth, 0, "nested transactions are not supported");
        self.tx_depth = 1;
        self.undo.clear();
        self.tx_journal.clear();
        let result = body(self);
        self.tx_depth = 0;
        match result {
            Ok(v) => {
                // Drained, not taken: the buffer keeps its capacity.
                self.wal.commit(self.tx_journal.drain(..));
                self.undo.clear();
                Ok(v)
            }
            Err(e) => {
                let undo = std::mem::take(&mut self.undo);
                // Rolling back mutates tables again, so any query results
                // cached *inside* the failed transaction are stale too —
                // re-invalidate every touched table after the replay.
                let touched: Vec<Arc<str>> = undo
                    .iter()
                    .map(|op| match op {
                        Undo::RemoveRow { table, .. } | Undo::RestoreRow { table, .. } => {
                            Arc::clone(table)
                        }
                        Undo::DropTable { name } => Arc::clone(name),
                    })
                    .collect();
                for op in undo.into_iter().rev() {
                    match op {
                        Undo::RemoveRow { table, key } => {
                            let version = self.next_version();
                            let pin = self.oldest_pin();
                            if let Some(t) = self.tables.get_mut(&table) {
                                let removed = t
                                    .rows
                                    .get_mut(&key)
                                    .and_then(|c| c.remove_live(version, pin));
                                if let Some(row) = removed {
                                    // Undo of an insert into a table that
                                    // passed create-time validation:
                                    // schema drift is impossible here.
                                    let _ = t.index_remove(&row);
                                    self.footprint =
                                        self.footprint.saturating_sub(Self::row_footprint(&row));
                                }
                                if t.rows.get(&key).is_some_and(VersionChain::is_empty) {
                                    t.rows.remove(&key);
                                }
                            }
                        }
                        Undo::RestoreRow { table, row } => {
                            let version = self.next_version();
                            let pin = self.oldest_pin();
                            if let Some(t) = self.tables.get_mut(&table) {
                                let key = row[0].ord_key();
                                let current = t
                                    .rows
                                    .get_mut(&key)
                                    .and_then(|c| c.remove_live(version, pin));
                                if let Some(current) = current {
                                    let _ = t.index_remove(&current);
                                    self.footprint = self
                                        .footprint
                                        .saturating_sub(Self::row_footprint(&current));
                                }
                                self.footprint += Self::row_footprint(&row);
                                let _ = t.index_insert(&row);
                                t.rows.entry(key).or_default().install(row, version, pin);
                            }
                        }
                        Undo::DropTable { name } => {
                            self.tables.remove(&name);
                        }
                    }
                }
                for table in touched {
                    self.invalidate_table(&table);
                }
                self.tx_journal.clear();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn products() -> Database {
        let mut db = Database::new();
        db.create_table("products", &["sku", "name", "price", "stock"], &["name"])
            .unwrap();
        db.insert(
            "products",
            vec![1.into(), "widget".into(), Value::Float(4.99), 10.into()],
        )
        .unwrap();
        db.insert(
            "products",
            vec![2.into(), "gadget".into(), Value::Float(9.99), 3.into()],
        )
        .unwrap();
        db
    }

    #[test]
    fn crud_round_trip() {
        let mut db = products();
        assert_eq!(db.len("products").unwrap(), 2);
        let row = db.get("products", &1.into()).unwrap().unwrap();
        assert_eq!(row[1], Value::Text("widget".into()));

        db.update(
            "products",
            vec![1.into(), "widget".into(), Value::Float(3.99), 9.into()],
        )
        .unwrap();
        let row = db.get("products", &1.into()).unwrap().unwrap();
        assert_eq!(row[2], Value::Float(3.99));

        db.delete("products", &2.into()).unwrap();
        assert_eq!(db.get("products", &2.into()).unwrap(), None);
        assert_eq!(db.len("products").unwrap(), 1);
    }

    #[test]
    fn duplicate_keys_and_missing_rows_error() {
        let mut db = products();
        let dup = db.insert(
            "products",
            vec![1.into(), "x".into(), Value::Float(0.0), 0.into()],
        );
        assert_eq!(dup, Err(DbError::DuplicateKey("1".into())));
        assert_eq!(db.delete("products", &99.into()), Err(DbError::NotFound));
        assert_eq!(
            db.update(
                "products",
                vec![99.into(), "x".into(), Value::Float(0.0), 0.into()]
            ),
            Err(DbError::NotFound)
        );
    }

    #[test]
    fn schema_is_enforced() {
        let mut db = products();
        assert!(matches!(
            db.insert("products", vec![3.into()]),
            Err(DbError::SchemaMismatch(_))
        ));
        assert_eq!(
            db.insert("nope", vec![1.into()]),
            Err(DbError::NoSuchTable("nope".into()))
        );
        assert_eq!(
            db.insert(
                "products",
                vec![3.into(), "n".into(), Value::Float(f64::NAN), 0.into()]
            ),
            Err(DbError::NanRejected)
        );
    }

    #[test]
    fn secondary_index_lookup_matches_scan() {
        let mut db = products();
        db.insert(
            "products",
            vec![3.into(), "widget".into(), Value::Float(5.99), 7.into()],
        )
        .unwrap();
        assert!(db.has_index("products", "name").unwrap());
        let by_index = db.select_eq("products", "name", &"widget".into()).unwrap();
        let by_scan = db
            .select("products", |r| r[1] == Value::Text("widget".into()))
            .unwrap();
        assert_eq!(by_index.len(), 2);
        let mut a: Vec<i64> = by_index
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => 0,
            })
            .collect();
        let mut b: Vec<i64> = by_scan
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => 0,
            })
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn index_tracks_updates_and_deletes() {
        let mut db = products();
        db.update(
            "products",
            vec![1.into(), "renamed".into(), Value::Float(4.99), 10.into()],
        )
        .unwrap();
        assert!(db
            .select_eq("products", "name", &"widget".into())
            .unwrap()
            .is_empty());
        assert_eq!(
            db.select_eq("products", "name", &"renamed".into())
                .unwrap()
                .len(),
            1
        );
        db.delete("products", &1.into()).unwrap();
        assert!(db
            .select_eq("products", "name", &"renamed".into())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unindexed_equality_falls_back_to_scan() {
        let db = products();
        assert!(!db.has_index("products", "stock").unwrap());
        let rows = db.select_eq("products", "stock", &3.into()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Text("gadget".into()));
    }

    #[test]
    fn transaction_commits_atomically() {
        let mut db = products();
        let result: Result<(), DbError> = db.transaction(|tx| {
            tx.update(
                "products",
                vec![1.into(), "widget".into(), Value::Float(4.99), 9.into()],
            )?;
            tx.update(
                "products",
                vec![2.into(), "gadget".into(), Value::Float(9.99), 2.into()],
            )?;
            Ok(())
        });
        result.unwrap();
        assert_eq!(
            db.get("products", &1.into()).unwrap().unwrap()[3],
            Value::Int(9)
        );
        assert_eq!(
            db.get("products", &2.into()).unwrap().unwrap()[3],
            Value::Int(2)
        );
    }

    #[test]
    fn failed_transaction_rolls_back_everything() {
        let mut db = products();
        let journal_before = db.journal().len();
        let result: Result<(), DbError> = db.transaction(|tx| {
            tx.insert(
                "products",
                vec![7.into(), "new".into(), Value::Float(1.0), 1.into()],
            )?;
            tx.update(
                "products",
                vec![1.into(), "poked".into(), Value::Float(0.0), 0.into()],
            )?;
            tx.delete("products", &2.into())?;
            Err(DbError::NotFound) // simulate business-rule failure
        });
        assert!(result.is_err());
        // All three writes undone.
        assert_eq!(db.get("products", &7.into()).unwrap(), None);
        assert_eq!(
            db.get("products", &1.into()).unwrap().unwrap()[1],
            Value::Text("widget".into())
        );
        assert!(db.get("products", &2.into()).unwrap().is_some());
        // Journal untouched.
        assert_eq!(db.journal().len(), journal_before);
        // Indexes consistent after rollback.
        assert_eq!(
            db.select_eq("products", "name", &"widget".into())
                .unwrap()
                .len(),
            1
        );
        assert!(db
            .select_eq("products", "name", &"poked".into())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn journal_recovery_reproduces_state() {
        let mut db = products();
        db.update(
            "products",
            vec![1.into(), "widget".into(), Value::Float(2.49), 4.into()],
        )
        .unwrap();
        db.delete("products", &2.into()).unwrap();
        db.insert(
            "products",
            vec![5.into(), "sprocket".into(), Value::Float(7.0), 2.into()],
        )
        .unwrap();

        let recovered = Database::recover(db.journal()).unwrap();
        assert_eq!(
            recovered.len("products").unwrap(),
            db.len("products").unwrap()
        );
        for key in [1i64, 5] {
            assert_eq!(
                recovered.get("products", &key.into()).unwrap(),
                db.get("products", &key.into()).unwrap()
            );
        }
        assert_eq!(recovered.get("products", &2.into()).unwrap(), None);
        // Indexes also rebuilt.
        assert_eq!(
            recovered
                .select_eq("products", "name", &"sprocket".into())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn memory_cap_rejects_growth_but_stays_consistent() {
        let mut db = Database::with_memory_limit(200);
        db.create_table("kv", &["k", "v"], &[]).unwrap();
        db.insert("kv", vec![1.into(), "small".into()]).unwrap();
        let big = "x".repeat(500);
        assert!(matches!(
            db.insert("kv", vec![2.into(), big.clone().into()]),
            Err(DbError::OutOfMemory { limit: 200 })
        ));
        assert_eq!(db.len("kv").unwrap(), 1);
        // Updates that would blow the cap are rejected and leave the row.
        assert!(matches!(
            db.update("kv", vec![1.into(), big.into()]),
            Err(DbError::OutOfMemory { .. })
        ));
        assert_eq!(
            db.get("kv", &1.into()).unwrap().unwrap()[1],
            Value::Text("small".into())
        );
        // Deleting reclaims space.
        let before = db.footprint();
        db.delete("kv", &1.into()).unwrap();
        assert!(db.footprint() < before);
    }

    #[test]
    fn footprint_tracks_inserts_and_deletes() {
        let mut db = Database::new();
        db.create_table("t", &["k", "v"], &[]).unwrap();
        assert_eq!(db.footprint(), 0);
        db.insert("t", vec![1.into(), "hello".into()]).unwrap();
        let after_one = db.footprint();
        assert!(after_one > 0);
        db.insert("t", vec![2.into(), "hello".into()]).unwrap();
        assert_eq!(db.footprint(), after_one * 2);
        db.delete("t", &1.into()).unwrap();
        assert_eq!(db.footprint(), after_one);
    }

    #[test]
    fn select_predicate_scans() {
        let db = products();
        let cheap = db
            .select("products", |r| matches!(r[2], Value::Float(p) if p < 5.0))
            .unwrap();
        assert_eq!(cheap.len(), 1);
        assert_eq!(cheap[0][1], Value::Text("widget".into()));
    }

    #[test]
    fn table_names_are_sorted() {
        let mut db = Database::new();
        db.create_table("zeta", &["k"], &[]).unwrap();
        db.create_table("alpha", &["k"], &[]).unwrap();
        assert_eq!(db.table_names(), vec!["alpha", "zeta"]);
        assert!(matches!(
            db.create_table("alpha", &["k"], &[]),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn query_cache_is_transparent_and_invalidated_by_writes() {
        let mut cached = products();
        cached.set_query_cache(true);
        let plain = products();
        // Warm the cache, then re-read: both reads equal the uncached DB.
        for _ in 0..2 {
            assert_eq!(
                cached
                    .select_eq("products", "name", &"widget".into())
                    .unwrap(),
                plain
                    .select_eq("products", "name", &"widget".into())
                    .unwrap()
            );
        }
        // A write to the table invalidates the memoized result.
        cached
            .update(
                "products",
                vec![1.into(), "renamed".into(), Value::Float(4.99), 10.into()],
            )
            .unwrap();
        assert!(cached
            .select_eq("products", "name", &"widget".into())
            .unwrap()
            .is_empty());
        assert_eq!(
            cached
                .select_eq("products", "name", &"renamed".into())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn query_cache_survives_rollback_without_staleness() {
        let mut db = products();
        db.set_query_cache(true);
        // Cache a result, mutate + re-cache inside a failing transaction,
        // then make sure the rollback did not leave the in-tx result
        // memoized.
        assert_eq!(
            db.select_eq("products", "name", &"widget".into())
                .unwrap()
                .len(),
            1
        );
        let result: Result<(), DbError> = db.transaction(|tx| {
            tx.update(
                "products",
                vec![1.into(), "poked".into(), Value::Float(0.0), 0.into()],
            )?;
            assert_eq!(tx.select_eq("products", "name", &"poked".into())?.len(), 1);
            Err(DbError::NotFound)
        });
        assert!(result.is_err());
        assert!(db
            .select_eq("products", "name", &"poked".into())
            .unwrap()
            .is_empty());
        assert_eq!(
            db.select_eq("products", "name", &"widget".into())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn query_cache_invalidation_is_table_scoped() {
        let mut db = products();
        db.set_query_cache(true);
        db.create_table("orders", &["id", "sku"], &["sku"]).unwrap();
        db.insert("orders", vec![1.into(), 1.into()]).unwrap();
        // Warm both tables' caches.
        db.select_eq("products", "name", &"widget".into()).unwrap();
        db.select_eq("orders", "sku", &1.into()).unwrap();
        let _guard = obs::metrics::enable();
        // A write to `orders` must not disturb the `products` entry: the
        // next products read is a hit, the next orders read a miss.
        db.insert("orders", vec![2.into(), 2.into()]).unwrap();
        db.select_eq("products", "name", &"widget".into()).unwrap();
        db.select_eq("orders", "sku", &1.into()).unwrap();
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("host.db_cache.hits"), 1);
        assert_eq!(metrics.counter("host.db_cache.misses"), 1);
        assert_eq!(metrics.counter("host.db_cache.invalidations"), 1);
    }

    #[test]
    fn reads_share_storage_instead_of_copying() {
        let db = products();
        let a = db.get("products", &1.into()).unwrap().unwrap();
        let b = db.get("products", &1.into()).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "get must hand out shared row handles");
        let selected = db.select("products", |_| true).unwrap();
        assert!(selected.iter().any(|r| Arc::ptr_eq(r, &a)));
    }

    #[test]
    fn float_keys_order_correctly() {
        let mut db = Database::new();
        db.create_table("m", &["temp", "label"], &[]).unwrap();
        for (t, l) in [(-2.5, "cold"), (0.0, "zero"), (3.25, "warm")] {
            db.insert("m", vec![Value::Float(t), l.into()]).unwrap();
        }
        let all = db.select("m", |_| true).unwrap();
        let labels: Vec<String> = all.iter().map(|r| r[1].to_string()).collect();
        assert_eq!(labels, vec!["cold", "zero", "warm"]);
        assert!(db.get("m", &Value::Float(0.0)).unwrap().is_some());
    }

    // --- WAL / durability ---

    #[test]
    fn group_commit_delays_durability_and_prices_fsyncs() {
        let mut db = Database::new();
        db.create_table("t", &["k", "v"], &[]).unwrap();
        db.set_durability(DurabilityPolicy::new(3, 1_000));
        let durable_before = db.journal().len();
        db.insert("t", vec![1.into(), "a".into()]).unwrap();
        db.insert("t", vec![2.into(), "b".into()]).unwrap();
        // Window of 3 not full: the tail is committed but not durable.
        assert_eq!(db.journal().len(), durable_before);
        assert_eq!(db.pending_journal_len(), 2);
        assert_eq!(db.drain_commit_cost_ns(), 0, "no fsync yet");
        db.insert("t", vec![3.into(), "c".into()]).unwrap();
        assert_eq!(db.journal().len(), durable_before + 3);
        assert_eq!(db.pending_journal_len(), 0);
        assert_eq!(db.drain_commit_cost_ns(), 1_000);
        // A crash now recovers all three rows; a crash before the third
        // insert would have lost the tail.
        let recovered = Database::recover(db.journal()).unwrap();
        assert_eq!(recovered.len("t").unwrap(), 3);
    }

    #[test]
    fn transaction_is_one_commit_in_the_group_window() {
        let mut db = Database::new();
        db.create_table("t", &["k"], &[]).unwrap();
        db.set_durability(DurabilityPolicy::new(2, 10));
        let ok: Result<(), DbError> = db.transaction(|tx| {
            tx.insert("t", vec![1.into()])?;
            tx.insert("t", vec![2.into()])?;
            tx.insert("t", vec![3.into()])?;
            Ok(())
        });
        ok.unwrap();
        // Three entries, one commit: the window of 2 is not full.
        assert_eq!(db.pending_journal_len(), 3);
        db.sync_journal();
        assert_eq!(db.pending_journal_len(), 0);
        assert_eq!(db.drain_commit_cost_ns(), 10);
    }

    #[test]
    fn zero_cost_policy_is_indistinguishable_from_default() {
        let mut explicit = products();
        explicit.set_durability(DurabilityPolicy::new(1, 0));
        explicit.insert("products", vec![9.into(), "z".into(), Value::Float(1.0), 1.into()])
            .unwrap();
        let mut plain = products();
        plain.insert("products", vec![9.into(), "z".into(), Value::Float(1.0), 1.into()])
            .unwrap();
        assert_eq!(explicit.journal(), plain.journal());
        assert_eq!(explicit.pending_journal_len(), 0);
        assert_eq!(explicit.drain_commit_cost_ns(), 0);
    }

    // --- recovery path (bugfix sweep) ---

    #[test]
    fn recovery_is_metrics_silent() {
        let mut db = products();
        db.set_query_cache(true);
        db.select_eq("products", "name", &"widget".into()).unwrap();
        db.delete("products", &2.into()).unwrap();
        let journal = db.journal().to_vec();
        let _guard = obs::metrics::enable();
        let recovered = Database::recover(&journal).unwrap();
        assert_eq!(recovered.len("products").unwrap(), 1);
        let metrics = obs::metrics::take();
        assert!(
            metrics.is_empty(),
            "replay must not bump live counters: {metrics:?}"
        );
    }

    #[test]
    fn recovery_is_idempotent_and_preserves_the_journal() {
        let mut db = products();
        db.update(
            "products",
            vec![2.into(), "gadget".into(), Value::Float(8.88), 1.into()],
        )
        .unwrap();
        let journal = db.journal().to_vec();
        let once = Database::recover(&journal).unwrap();
        // The recovered journal is the input journal, byte for byte — not
        // a re-recorded copy.
        assert_eq!(once.journal(), &journal[..]);
        let twice = Database::recover(once.journal()).unwrap();
        assert_eq!(twice.journal(), once.journal());
        assert_eq!(twice.table_names(), once.table_names());
        for t in twice.table_names() {
            assert_eq!(
                twice.select(&t, |_| true).unwrap(),
                once.select(&t, |_| true).unwrap()
            );
        }
        assert_eq!(twice.footprint(), once.footprint());
    }

    #[test]
    fn corrupt_journal_surfaces_err_not_panic() {
        // An index column the schema does not have: the old engine
        // panicked via expect() mid-recovery.
        let corrupt = vec![JournalEntry::CreateTable {
            name: "t".into(),
            columns: ["k".to_owned()].into(),
            indexes: ["ghost".to_owned()].into(),
        }];
        assert_eq!(
            Database::recover(&corrupt).unwrap_err(),
            DbError::NoSuchColumn {
                table: "t".into(),
                column: "ghost".into()
            }
        );
        // An update against a row that was never inserted.
        let corrupt = vec![
            JournalEntry::CreateTable {
                name: "t".into(),
                columns: ["k".to_owned()].into(),
                indexes: [].into(),
            },
            JournalEntry::Update {
                table: "t".into(),
                row: vec![1.into()].into(),
            },
        ];
        assert_eq!(Database::recover(&corrupt).unwrap_err(), DbError::NotFound);
        // A truncated-then-replayed duplicate insert.
        let corrupt = vec![
            JournalEntry::CreateTable {
                name: "t".into(),
                columns: ["k".to_owned()].into(),
                indexes: [].into(),
            },
            JournalEntry::Insert {
                table: "t".into(),
                row: vec![1.into()].into(),
            },
            JournalEntry::Insert {
                table: "t".into(),
                row: vec![1.into()].into(),
            },
        ];
        assert!(matches!(
            Database::recover(&corrupt),
            Err(DbError::DuplicateKey(_))
        ));
    }

    #[test]
    fn recovery_rebuilds_indexes_and_counts_entries() {
        let mut db = products(); // 2 rows, 1 index
        db.insert(
            "products",
            vec![3.into(), "widget".into(), Value::Float(1.0), 1.into()],
        )
        .unwrap();
        let recovered = Database::recover(db.journal()).unwrap();
        assert_eq!(recovered.index_entries_rebuilt(), 3);
        assert_eq!(
            recovered
                .select_eq("products", "name", &"widget".into())
                .unwrap()
                .len(),
            2
        );
    }

    // --- MVCC snapshots ---

    #[test]
    fn snapshot_reads_are_stable_across_writes() {
        let mut db = products();
        let snap = db.begin_snapshot();
        db.update(
            "products",
            vec![1.into(), "renamed".into(), Value::Float(9.99), 0.into()],
        )
        .unwrap();
        db.delete("products", &2.into()).unwrap();
        db.insert(
            "products",
            vec![3.into(), "new".into(), Value::Float(1.0), 1.into()],
        )
        .unwrap();
        // The snapshot still sees the world as of its pin.
        assert_eq!(
            db.snapshot_get(&snap, "products", &1.into()).unwrap().unwrap()[1],
            Value::Text("widget".into())
        );
        assert!(db
            .snapshot_get(&snap, "products", &2.into())
            .unwrap()
            .is_some());
        assert!(db
            .snapshot_get(&snap, "products", &3.into())
            .unwrap()
            .is_none());
        assert_eq!(
            db.snapshot_select(&snap, "products", |_| true).unwrap().len(),
            2
        );
        assert_eq!(
            db.snapshot_select_eq(&snap, "products", "name", &"widget".into())
                .unwrap()
                .len(),
            1
        );
        // Live reads see the new world.
        assert_eq!(
            db.get("products", &1.into()).unwrap().unwrap()[1],
            Value::Text("renamed".into())
        );
        // Closing the snapshot lets writes prune the old versions.
        db.end_snapshot(snap);
        assert_eq!(db.open_snapshots(), 0);
    }

    #[test]
    fn snapshot_versions_prune_once_released() {
        let mut db = Database::new();
        db.create_table("t", &["k", "v"], &[]).unwrap();
        db.insert("t", vec![1.into(), "v1".into()]).unwrap();
        let base = db.footprint();
        let snap = db.begin_snapshot();
        db.update("t", vec![1.into(), "v2-longer".into()]).unwrap();
        // Both versions are held while the snapshot is open.
        assert!(db.footprint() > base, "live footprint tracks the new row");
        assert_eq!(
            db.snapshot_get(&snap, "t", &1.into()).unwrap().unwrap()[1],
            Value::Text("v1".into())
        );
        db.end_snapshot(snap);
        // The next write prunes the now-unreachable v1 version.
        db.update("t", vec![1.into(), "v3".into()]).unwrap();
        let recovered = Database::recover(db.journal()).unwrap();
        assert_eq!(
            recovered.get("t", &1.into()).unwrap().unwrap()[1],
            Value::Text("v3".into())
        );
    }

    #[test]
    fn snapshots_survive_rolled_back_transactions() {
        let mut db = products();
        let snap = db.begin_snapshot();
        let result: Result<(), DbError> = db.transaction(|tx| {
            tx.delete("products", &1.into())?;
            Err(DbError::NotFound)
        });
        assert!(result.is_err());
        // Rollback restored the row; the snapshot still sees its image.
        assert!(db
            .snapshot_get(&snap, "products", &1.into())
            .unwrap()
            .is_some());
        assert!(db.get("products", &1.into()).unwrap().is_some());
        db.end_snapshot(snap);
    }

    // --- query-cache TTL (boundary audit) ---

    #[test]
    fn query_cache_entries_expire_at_exactly_the_ttl_boundary() {
        let mut db = products();
        db.set_query_cache(true);
        db.set_query_cache_ttl(Some(1_000));
        db.set_now_ns(0);
        let _guard = obs::metrics::enable();
        db.select_eq("products", "name", &"widget".into()).unwrap(); // miss
        db.set_now_ns(999);
        db.select_eq("products", "name", &"widget".into()).unwrap(); // hit
        db.set_now_ns(1_000); // exactly inserted_at + ttl: expired
        db.select_eq("products", "name", &"widget".into()).unwrap(); // miss
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("host.db_cache.hits"), 1);
        assert_eq!(metrics.counter("host.db_cache.misses"), 2);
    }

    // --- full-text search (tentpole) + search memo (boundary audit) ---

    fn searchable_products() -> Database {
        let mut db = products();
        db.create_fts("products", "name").unwrap();
        db
    }

    #[test]
    fn search_requires_a_registered_index() {
        let db = products();
        assert!(matches!(
            db.search("products", "widget"),
            Err(DbError::SchemaMismatch(_))
        ));
        assert_eq!(
            db.search("nope", "widget"),
            Err(DbError::NoSuchTable("nope".into()))
        );
    }

    #[test]
    fn search_matches_brute_force_scan_and_stays_incremental() {
        let mut db = searchable_products();
        db.insert(
            "products",
            vec![3.into(), "widget deluxe".into(), Value::Float(7.99), 2.into()],
        )
        .unwrap();
        db.delete("products", &2.into()).unwrap();
        db.update(
            "products",
            vec![1.into(), "basic widget".into(), Value::Float(4.99), 10.into()],
        )
        .unwrap();
        for q in ["widget", "deluxe widget", "gadget", "nothing at all", ""] {
            let indexed = db.search("products", q).unwrap();
            let scanned = db.search_scan("products", "name", q).unwrap();
            assert_eq!(indexed.len(), scanned.len(), "query {q:?}");
            for (a, b) in indexed.iter().zip(scanned.iter()) {
                assert_eq!(a, b, "query {q:?}");
            }
        }
        // The deleted row's terms are gone from the incremental index.
        assert!(db.search("products", "gadget").unwrap().is_empty());
    }

    #[test]
    fn search_ranks_by_score_then_primary_key() {
        let mut db = searchable_products();
        // Row 3 mentions "widget" twice → higher tf than rows 1 and 4,
        // which tie and must come out in primary-key order.
        db.insert(
            "products",
            vec![
                3.into(),
                "widget widget carrier".into(),
                Value::Float(1.0),
                1.into(),
            ],
        )
        .unwrap();
        db.insert(
            "products",
            vec![4.into(), "widget strap".into(), Value::Float(1.0), 1.into()],
        )
        .unwrap();
        let hits = db.search("products", "widget").unwrap();
        let keys: Vec<String> = hits.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(keys, vec!["3", "1", "4"]);
    }

    #[test]
    fn search_cost_accrues_and_drains_like_commit_cost() {
        let mut db = searchable_products();
        let cold = db.search("products", "widget").unwrap();
        assert_eq!(cold.len(), 1);
        let cold_ns = db.drain_search_cost_ns();
        assert!(cold_ns >= SEARCH_BASE_NS, "cold search pays the base cost");
        assert_eq!(db.drain_search_cost_ns(), 0, "drain resets");
        // With the memo enabled a repeat query costs the flat hit price.
        db.set_query_cache(true);
        db.search("products", "widget").unwrap();
        db.drain_search_cost_ns();
        db.search("products", "widget").unwrap();
        assert_eq!(db.drain_search_cost_ns(), SEARCH_MEMO_HIT_NS);
    }

    #[test]
    fn search_memo_expires_at_exactly_the_ttl_boundary() {
        let mut db = searchable_products();
        db.set_query_cache(true);
        db.set_query_cache_ttl(Some(1_000));
        db.set_now_ns(0);
        let _guard = obs::metrics::enable();
        db.search("products", "widget").unwrap(); // miss
        db.set_now_ns(999);
        db.search("products", "widget").unwrap(); // hit
        db.set_now_ns(1_000); // exactly stored_at + ttl: expired
        db.search("products", "widget").unwrap(); // miss
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("host.db_cache.search_hits"), 1);
        assert_eq!(metrics.counter("host.db_cache.search_misses"), 2);
    }

    #[test]
    fn search_memo_invalidation_is_table_scoped() {
        let mut db = searchable_products();
        db.set_query_cache(true);
        db.create_table("orders", &["id", "sku"], &["sku"]).unwrap();
        db.insert("orders", vec![1.into(), 1.into()]).unwrap();
        // Warm a select_eq entry and a search entry on `products`, plus a
        // select_eq entry on `orders`.
        db.select_eq("products", "name", &"widget".into()).unwrap();
        db.search("products", "widget").unwrap();
        db.select_eq("orders", "sku", &1.into()).unwrap();
        let _guard = obs::metrics::enable();
        // A write to `orders` leaves both `products` entries warm…
        db.insert("orders", vec![2.into(), 2.into()]).unwrap();
        db.select_eq("products", "name", &"widget".into()).unwrap();
        db.search("products", "widget").unwrap();
        // …while a catalog write takes the select_eq entry *and* the
        // memoized search down together.
        db.insert(
            "products",
            vec![3.into(), "widget mini".into(), Value::Float(2.0), 5.into()],
        )
        .unwrap();
        assert_eq!(db.search("products", "widget").unwrap().len(), 2);
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("host.db_cache.hits"), 1);
        assert_eq!(metrics.counter("host.db_cache.search_hits"), 1);
        assert_eq!(metrics.counter("host.db_cache.search_misses"), 1);
        assert_eq!(metrics.counter("host.db_cache.invalidations"), 2);
    }

    #[test]
    fn search_memo_survives_rollback_without_staleness() {
        let mut db = searchable_products();
        db.set_query_cache(true);
        assert_eq!(db.search("products", "widget").unwrap().len(), 1);
        let result: Result<(), DbError> = db.transaction(|tx| {
            tx.update(
                "products",
                vec![1.into(), "poked".into(), Value::Float(0.0), 0.into()],
            )?;
            assert_eq!(tx.search("products", "poked")?.len(), 1);
            Err(DbError::NotFound)
        });
        assert!(result.is_err());
        // The rollback re-invalidated: no memo of the in-tx result, and
        // the restored row is findable again.
        assert!(db.search("products", "poked").unwrap().is_empty());
        assert_eq!(db.search("products", "widget").unwrap().len(), 1);
    }

    #[test]
    fn search_memo_caps_and_evicts_least_recently_used_first() {
        let mut db = searchable_products();
        db.set_query_cache(true);
        let _guard = obs::metrics::enable();
        // Fill the memo past its cap with distinct queries, touching the
        // first entry along the way so it stays recently used.
        db.search("products", "widget").unwrap();
        for i in 0..SEARCH_MEMO_CAP {
            db.search("products", &format!("filler{i}")).unwrap();
            if i == SEARCH_MEMO_CAP / 2 {
                db.search("products", "widget").unwrap(); // keep warm
            }
        }
        // "widget" survived the cap; the stalest filler did not.
        db.search("products", "widget").unwrap();
        db.search("products", "filler0").unwrap();
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("host.db_cache.search_hits"), 2);
        assert!(metrics.counter("host.db_cache.search_misses") >= SEARCH_MEMO_CAP as u64);
    }

    #[test]
    fn fts_registration_drops_on_crash_and_rebuilds_from_base_rows() {
        let mut db = searchable_products();
        db.insert(
            "products",
            vec![3.into(), "widget case".into(), Value::Float(3.5), 9.into()],
        )
        .unwrap();
        assert!(db.has_fts("products").unwrap());
        // Crash: recovery replays the journal, which never saw the FTS
        // registration — it is a derived projection, like indexes.
        let mut recovered = Database::recover(db.journal()).unwrap();
        assert!(!recovered.has_fts("products").unwrap());
        // Re-registering rebuilds the postings from the base rows and
        // reports the entry count for rebuild pricing.
        let entries = recovered.create_fts("products", "name").unwrap();
        assert!(entries > 0);
        let before = db.search("products", "widget").unwrap();
        let after = recovered.search("products", "widget").unwrap();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert_eq!(a, b);
        }
    }
}
