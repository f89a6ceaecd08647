//! The database server: an embedded storage engine.
//!
//! §7: "Other than the server-side database servers, a growing trend is to
//! provide a mobile database or an embedded database … Embedded databases
//! have very small footprints, and must be able to run without the
//! services of a database administrator."
//!
//! This engine is the host computer's database server; the station's
//! `EmbeddedStore` is the small-footprint store. It provides typed
//! tables, a primary key, optional secondary indexes, ACID transactions
//! with undo-log rollback, and a write-ahead log from which a fresh
//! instance can be recovered after a crash. The host serves one request
//! at a time, so a read never overlaps a write and each row is one image.
//!
//! The engine is split along its storage layers (DESIGN.md §2.18):
//!
//! - `wal.rs`: the write-ahead log with sim-time group commit. A
//!   [`DurabilityPolicy`] prices each "fsync" in simulated nanoseconds and
//!   batches commits, so durability is a measurable cost instead of a free
//!   side effect — and the un-fsynced tail of the log is exactly what a
//!   crash loses.
//! - `index.rs`: secondary indexes as derived projections of the base
//!   rows — dropped wholesale on a crash and rebuilt from the recovered
//!   rows, never replayed.
//! - `engine.rs`: the [`Database`] façade tying the layers together
//!   with transactions and the query cache.
//!
//! Rows are stored and returned as [`Arc<Row>`](std::sync::Arc), so reads
//! hand out shared handles instead of deep copies, and the journal holds
//! the very image a write installed. A cloned [`Database`] shares row
//! images, schemas, secondary indexes, postings and journal payloads
//! with its original until a write copies the part it reaches: a cheap
//! value copy, which is how a fleet gives every host the application's
//! seeded database. An optional query cache
//! (see [`Database::set_query_cache`]) memoizes [`Database::select_eq`]
//! result sets per table and is invalidated transactionally: any `insert`,
//! `update`, or `delete` against a table drops that table's cached
//! queries — and only that table's.

use std::fmt;

use markup::Text;

mod engine;
mod fts;
mod index;
mod wal;

pub use engine::Database;
pub use wal::{DurabilityPolicy, JournalEntry};

/// A typed cell value.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// 64-bit float (totally ordered by its bits being non-NaN; NaN is
    /// rejected at the API boundary).
    Float(f64),
}

impl Value {
    /// Approximate in-memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(t) => 24 + t.len(),
        }
    }

    pub(crate) fn ord_key(&self) -> OrdKey {
        match self {
            Value::Int(i) => OrdKey::Int(*i),
            Value::Text(t) => OrdKey::Text(t.clone()),
            Value::Bool(b) => OrdKey::Int(i64::from(*b)),
            Value::Float(f) => OrdKey::Float(float_key_bits(*f)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// A value writes itself as its `Display` form: an integer in decimal,
/// text as it is, `true`/`false`, and a float through its `Display`.
impl Text for Value {
    fn write_to(&self, out: &mut String) {
        match self {
            Value::Int(i) => i.write_to(out),
            Value::Text(t) => out.push_str(t),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Float(x) => format_args!("{x}").write_to(out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => fmt::Display::fmt(i, f),
            Value::Text(t) => fmt::Display::fmt(t, f),
            Value::Bool(b) => fmt::Display::fmt(b, f),
            Value::Float(x) => fmt::Display::fmt(x, f),
        }
    }
}

/// Monotone bit mapping for float keys: negatives flip all bits,
/// positives flip the sign bit, so u64 order equals float order.
/// (-0.0 is normalised to 0.0 first.)
pub(crate) fn float_key_bits(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let bits = f.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Totally ordered key derived from a [`Value`] for index storage.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum OrdKey {
    Int(i64),
    Text(String),
    Float(u64),
}

impl OrdKey {
    /// True when `value.ord_key()` would equal `self` — compared without
    /// building the key (no `Text` clone).
    pub(crate) fn matches_value(&self, value: &Value) -> bool {
        self.key_ref() == value.key_ref()
    }
}

/// An [`OrdKey`] borrowed: the variants in the same order, so it orders
/// exactly like the key it views.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Int(i64),
    Text(&'a str),
    Float(u64),
}

/// Anything that views as an [`OrdKey`]: a key, or a [`Value`] normalised
/// as [`Value::ord_key`] does. An `OrdKey`-keyed map can be probed with
/// `&dyn AsKey`, so a lookup by value clones no `Text`.
pub(crate) trait AsKey {
    /// The borrowed key.
    fn key_ref(&self) -> KeyRef<'_>;
}

impl AsKey for OrdKey {
    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            OrdKey::Int(i) => KeyRef::Int(*i),
            OrdKey::Text(t) => KeyRef::Text(t),
            OrdKey::Float(bits) => KeyRef::Float(*bits),
        }
    }
}

impl AsKey for Value {
    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            Value::Int(i) => KeyRef::Int(*i),
            Value::Text(t) => KeyRef::Text(t),
            Value::Bool(b) => KeyRef::Int(i64::from(*b)),
            Value::Float(f) => KeyRef::Float(float_key_bits(*f)),
        }
    }
}

impl<'a> std::borrow::Borrow<dyn AsKey + 'a> for OrdKey {
    fn borrow(&self) -> &(dyn AsKey + 'a) {
        self
    }
}

impl PartialEq for dyn AsKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_ref() == other.key_ref()
    }
}

impl Eq for dyn AsKey + '_ {}

impl PartialOrd for dyn AsKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn AsKey + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key_ref().cmp(&other.key_ref())
    }
}

/// A row: one value per column, in schema order.
pub type Row = Vec<Value>;

/// Errors produced by the database.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The named table does not exist.
    NoSuchTable(String),
    /// The named column does not exist on the table.
    NoSuchColumn {
        /// The table the lookup targeted.
        table: String,
        /// The column that does not exist on it.
        column: String,
    },
    /// A row's arity or a value's type does not match the schema.
    SchemaMismatch(String),
    /// Primary-key uniqueness violated.
    DuplicateKey(String),
    /// No row with the given primary key.
    NotFound,
    /// A table with that name already exists.
    TableExists(String),
    /// NaN floats cannot be stored (they have no total order).
    NanRejected,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no column {column:?} on table {table:?}")
            }
            DbError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            DbError::NotFound => write!(f, "row not found"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::NanRejected => write!(f, "NaN values cannot be stored"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            Just(Value::Int(i64::MIN)),
            "[a-z &<é€]{0,8}".prop_map(Value::Text),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
            Just(Value::Float(-0.0)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A value's `Text` writes exactly what its `Display` writes.
        #[test]
        fn a_values_text_is_its_display(v in value()) {
            let mut text = String::new();
            v.write_to(&mut text);
            prop_assert_eq!(text, v.to_string());
        }
    }
}
