//! Tables and secondary indexes.
//!
//! A secondary index is a *derived projection* of the base rows — it is
//! maintained incrementally on the write path, dropped wholesale when a
//! crash discards the in-memory state, and rebuilt from the recovered
//! base rows (never replayed from the log). Index maintenance is
//! fallible: schema drift (an index naming a column the table does not
//! have, which only a corrupt journal can produce) surfaces as
//! [`DbError::NoSuchColumn`] instead of a panic, so recovery can abort
//! cleanly mid-replay.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use super::fts::FtsIndex;
use super::{AsKey, DbError, OrdKey, Row};

/// A secondary index: value key → primary keys, in insertion order.
pub(crate) type Bucketed = BTreeMap<OrdKey, Vec<OrdKey>>;

/// One table: schema, rows, and the derived secondary indexes.
///
/// Cloning a table copies only its row map. The name, the schema, the
/// secondary indexes and the full-text postings are shared behind `Arc`
/// until a write reaches them, which then copies that part
/// (`Arc::make_mut`), so a clone is a value copy that costs what the rows
/// cost.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    /// The table's name, shared with its journal entries.
    pub(crate) name: Arc<str>,
    /// Column names, shared with the table's `CreateTable` entry.
    pub(crate) columns: Arc<[String]>,
    /// Primary key → the row's one image, shared with readers and the
    /// journal.
    pub(crate) rows: BTreeMap<OrdKey, Arc<Row>>,
    /// column name → its secondary index.
    pub(crate) indexes: Arc<HashMap<String, Bucketed>>,
    /// Optional full-text index — a derived projection like `indexes`,
    /// maintained on the same write path and rebuilt, not replayed.
    pub(crate) fts: Option<Arc<FtsIndex>>,
}

impl Table {
    /// An empty table with an empty index on each of `indexes`.
    pub(crate) fn new(name: Arc<str>, columns: Arc<[String]>, indexes: &[String]) -> Self {
        Table {
            name,
            columns,
            rows: BTreeMap::new(),
            indexes: Arc::new(
                indexes
                    .iter()
                    .map(|c| (c.clone(), Bucketed::new()))
                    .collect(),
            ),
            fts: None,
        }
    }

    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The image of `key` (an [`OrdKey`] or a [`Value`]), if present.
    ///
    /// [`Value`]: super::Value
    pub(crate) fn live(&self, key: &dyn AsKey) -> Option<&Arc<Row>> {
        self.rows.get(key)
    }

    /// Adds `row` to every secondary index.
    ///
    /// On schema drift the earlier indexes keep their new entries — the
    /// caller (recovery) discards the whole database on error.
    pub(crate) fn index_insert(&mut self, row: &Row) -> Result<(), DbError> {
        let pk = row[0].ord_key();
        if !self.indexes.is_empty() {
            for (col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
                let ci = position(&self.name, &self.columns, col)?;
                index.entry(row[ci].ord_key()).or_default().push(pk.clone());
            }
        }
        if let Some(fts) = &mut self.fts {
            Arc::make_mut(fts).insert_row(&self.name, &self.columns, row)?;
        }
        Ok(())
    }

    /// Removes `row` from every secondary index.
    pub(crate) fn index_remove(&mut self, row: &Row) -> Result<(), DbError> {
        let pk = row[0].ord_key();
        if !self.indexes.is_empty() {
            for (col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
                let ci = position(&self.name, &self.columns, col)?;
                unlist(index, &row[ci].ord_key(), &pk);
            }
        }
        if let Some(fts) = &mut self.fts {
            Arc::make_mut(fts).remove_row(&self.name, &self.columns, row)?;
        }
        Ok(())
    }

    /// Re-indexes a row replaced by `new`: the same projections as
    /// [`Table::index_remove`] of `old` followed by
    /// [`Table::index_insert`] of `new`, minus the work that cannot change
    /// them. A secondary index is left alone when the value is unchanged
    /// and the key already ends its bucket (remove-then-push would put it
    /// back where it is); the postings, when the indexed text is
    /// unchanged. So an update of unindexed columns copies no shared
    /// index.
    pub(crate) fn index_update(&mut self, old: &Row, new: &Row) -> Result<(), DbError> {
        let Table {
            name,
            columns,
            indexes,
            fts,
            ..
        } = self;
        // Probed by the borrowed values: the check builds no key.
        let settled = |col: &str, index: &Bucketed| -> Result<bool, DbError> {
            let ci = position(name, columns, col)?;
            Ok(old[ci] == new[ci]
                && index
                    .get(&new[ci] as &dyn AsKey)
                    .and_then(|pks| pks.last())
                    .is_some_and(|last| last.key_ref() == new[0].key_ref()))
        };
        let all_settled = indexes
            .iter()
            .try_fold(true, |all, (col, index)| Ok(all && settled(col, index)?))?;
        if !all_settled {
            let pk = new[0].ord_key();
            for (col, index) in Arc::make_mut(indexes).iter_mut() {
                if !settled(col, index)? {
                    let ci = position(name, columns, col)?;
                    unlist(index, &old[ci].ord_key(), &pk);
                    index.entry(new[ci].ord_key()).or_default().push(pk.clone());
                }
            }
        }
        if let Some(fts) = fts {
            let ci = fts.column_index(name, columns)?;
            if old[ci] != new[ci] {
                let fts = Arc::make_mut(fts);
                fts.remove_row(name, columns, old)?;
                fts.insert_row(name, columns, new)?;
            }
        }
        Ok(())
    }

    /// Rebuilds every secondary index from the base rows — the
    /// recovery path's derived-projection rebuild. Buckets come out in
    /// primary-key order (the canonical from-scratch order). Returns the
    /// number of `(row, index)` entries written.
    pub(crate) fn rebuild_indexes(&mut self) -> Result<u64, DbError> {
        let mut entries = 0u64;
        for (col, index) in Arc::make_mut(&mut self.indexes).iter_mut() {
            let ci = position(&self.name, &self.columns, col)?;
            index.clear();
            for (pk, row) in &self.rows {
                index.entry(row[ci].ord_key()).or_default().push(pk.clone());
                entries += 1;
            }
        }
        if let Some(fts) = &mut self.fts {
            let fts = Arc::make_mut(fts);
            fts.clear();
            for row in self.rows.values() {
                fts.insert_row(&self.name, &self.columns, row)?;
            }
            entries += fts.entry_count();
        }
        Ok(entries)
    }
}

/// The position of index column `col` in `columns`; schema drift (only a
/// corrupt journal produces it) is an error, not a panic.
fn position(table: &str, columns: &[String], col: &str) -> Result<usize, DbError> {
    columns
        .iter()
        .position(|c| c == col)
        .ok_or_else(|| DbError::NoSuchColumn {
            table: table.to_owned(),
            column: col.to_owned(),
        })
}

/// Removes `pk` from `key`'s bucket, dropping the bucket once empty.
fn unlist(index: &mut Bucketed, key: &OrdKey, pk: &OrdKey) {
    if let Some(pks) = index.get_mut(key) {
        pks.retain(|p| p != pk);
        if pks.is_empty() {
            index.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t".into(),
            ["id".to_owned(), "name".to_owned()].into(),
            &["name".to_owned()],
        )
    }

    #[test]
    fn schema_drift_errors_instead_of_panicking() {
        let mut t = table();
        t.columns = ["id".to_owned()].into(); // simulate a corrupt-journal schema
        let row: Row = vec![1i64.into(), "x".into()];
        assert_eq!(
            t.index_insert(&row),
            Err(DbError::NoSuchColumn {
                table: "t".into(),
                column: "name".into()
            })
        );
        assert_eq!(
            t.index_remove(&row),
            Err(DbError::NoSuchColumn {
                table: "t".into(),
                column: "name".into()
            })
        );
        assert!(t.rebuild_indexes().is_err());
    }

    #[test]
    fn rebuild_equals_a_from_scratch_projection() {
        let mut t = table();
        for (id, name) in [(2i64, "b"), (1, "a"), (3, "a")] {
            let row: Row = vec![id.into(), name.into()];
            t.index_insert(&row).unwrap();
            t.rows.insert(row[0].ord_key(), Arc::new(row));
        }
        let incremental = Arc::clone(&t.indexes);
        let entries = t.rebuild_indexes().unwrap();
        assert_eq!(entries, 3);
        // Same keys and the same pk sets; rebuild order is pk order.
        assert_eq!(
            incremental["name"].keys().collect::<Vec<_>>(),
            t.indexes["name"].keys().collect::<Vec<_>>()
        );
        let a_key = super::super::Value::from("a").ord_key();
        let mut a: Vec<_> = incremental["name"][&a_key].clone();
        a.sort();
        assert_eq!(a, t.indexes["name"][&a_key]);
    }
}
