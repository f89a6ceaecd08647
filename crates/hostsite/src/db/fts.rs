//! Full-text search: a deterministic inverted index over one text column.
//!
//! The index is a *derived projection* of the base rows, exactly like the
//! secondary indexes in `index.rs`: postings are maintained incrementally
//! on the committed write path, dropped wholesale when a crash discards
//! in-memory state, and rebuilt from the recovered base rows — never
//! replayed from the log. Registration itself (`Database::create_fts`) is
//! engine configuration, like the query-cache knobs, and is not journaled.
//!
//! Scoring is integer-only so results are bit-identical on every platform
//! and at every thread count: tf × idf in 16.16 fixed point,
//! `idf_fp = ((doc_count + 1) << 16) / (df + 1)`, summed over the distinct
//! query terms (OR semantics). Ties break on the primary key, ascending —
//! the same canonical order the from-scratch rebuild produces.

use std::collections::BTreeMap;

use super::{DbError, OrdKey, Row};

/// Fixed-point shift for tf·idf scores: 16.16.
pub(crate) const SCORE_FP_SHIFT: u32 = 16;

/// Splits `text` into lowercase ASCII-alphanumeric runs. Every
/// non-alphanumeric byte is a separator, so `"Travel+Charger, v2"`
/// tokenizes to `["travel", "charger", "v2"]`. Deterministic and
/// allocation-minimal; no stemming, no stop words.
pub(crate) fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            current.push(ch.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Tokenizes a query and canonicalizes it: sorted, deduplicated terms.
/// Two queries with the same term set score identically regardless of
/// word order or repetition.
pub(crate) fn query_terms(query: &str) -> Vec<String> {
    let mut terms = tokenize(query);
    terms.sort();
    terms.dedup();
    terms
}

/// The inverted index for one table column: term → (primary key → term
/// frequency). Both maps are `BTreeMap` so iteration order — and thus
/// every derived count and score — is deterministic.
#[derive(Debug, Clone, Default)]
pub(crate) struct FtsIndex {
    /// The indexed column's name.
    pub(crate) column: String,
    postings: BTreeMap<String, BTreeMap<OrdKey, u32>>,
    doc_count: u64,
}

impl FtsIndex {
    pub(crate) fn new(column: &str) -> Self {
        FtsIndex {
            column: column.to_owned(),
            postings: BTreeMap::new(),
            doc_count: 0,
        }
    }

    pub(crate) fn column_index(
        &self,
        table_name: &str,
        columns: &[String],
    ) -> Result<usize, DbError> {
        columns
            .iter()
            .position(|c| *c == self.column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table_name.to_owned(),
                column: self.column.clone(),
            })
    }

    /// Adds `row`'s terms to the postings. Mirrors
    /// `Table::index_insert`'s error contract on schema drift.
    pub(crate) fn insert_row(
        &mut self,
        table_name: &str,
        columns: &[String],
        row: &Row,
    ) -> Result<(), DbError> {
        let ci = self.column_index(table_name, columns)?;
        let pk = row[0].ord_key();
        for token in tokenize(&row[ci].to_string()) {
            *self.postings.entry(token).or_default().entry(pk.clone()).or_insert(0) += 1;
        }
        self.doc_count += 1;
        Ok(())
    }

    /// Removes `row`'s terms from the postings.
    pub(crate) fn remove_row(
        &mut self,
        table_name: &str,
        columns: &[String],
        row: &Row,
    ) -> Result<(), DbError> {
        let ci = self.column_index(table_name, columns)?;
        let pk = row[0].ord_key();
        for token in tokenize(&row[ci].to_string()) {
            if let Some(bucket) = self.postings.get_mut(&token) {
                if let Some(tf) = bucket.get_mut(&pk) {
                    *tf = tf.saturating_sub(1);
                    if *tf == 0 {
                        bucket.remove(&pk);
                    }
                }
                if bucket.is_empty() {
                    self.postings.remove(&token);
                }
            }
        }
        self.doc_count = self.doc_count.saturating_sub(1);
        Ok(())
    }

    /// Drops all postings (crash path: the projection is discarded with
    /// the rest of the in-memory state).
    pub(crate) fn clear(&mut self) {
        self.postings.clear();
        self.doc_count = 0;
    }

    /// Total `(term, primary key)` postings entries — the unit the
    /// recovery path prices rebuilds in.
    pub(crate) fn entry_count(&self) -> u64 {
        self.postings.values().map(|b| b.len() as u64).sum()
    }

    /// Number of indexed documents.
    #[cfg(test)]
    pub(crate) fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Scores every row matching at least one of `terms` (OR semantics).
    /// Returns `(pk → fixed-point score, postings entries visited)`; the
    /// visit count is the deterministic work unit the engine prices
    /// search CPU in.
    pub(crate) fn candidates(&self, terms: &[String]) -> (BTreeMap<OrdKey, u64>, u64) {
        let mut scores: BTreeMap<OrdKey, u64> = BTreeMap::new();
        let mut visited = 0u64;
        for term in terms {
            let Some(bucket) = self.postings.get(term) else {
                continue;
            };
            let df = bucket.len() as u64;
            let idf_fp = ((self.doc_count + 1) << SCORE_FP_SHIFT) / (df + 1);
            for (pk, tf) in bucket {
                *scores.entry(pk.clone()).or_insert(0) += u64::from(*tf) * idf_fp;
                visited += 1;
            }
        }
        (scores, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64, name: &str) -> Row {
        vec![id.into(), name.into()]
    }

    fn columns() -> Vec<String> {
        vec!["id".into(), "name".into()]
    }

    #[test]
    fn tokenizer_lowercases_and_splits_on_non_alphanumerics() {
        assert_eq!(tokenize("Travel+Charger, v2"), vec!["travel", "charger", "v2"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("a--b"), vec!["a", "b"]);
    }

    #[test]
    fn query_terms_are_sorted_and_deduplicated() {
        assert_eq!(query_terms("charger travel charger"), vec!["charger", "travel"]);
    }

    #[test]
    fn rarer_terms_score_higher_than_common_ones() {
        let cols = columns();
        let mut fts = FtsIndex::new("name");
        for (id, name) in [(1, "case case"), (2, "case"), (3, "stylus")] {
            fts.insert_row("t", &cols, &row(id, name)).unwrap();
        }
        let (common, _) = fts.candidates(&query_terms("case"));
        let (rare, _) = fts.candidates(&query_terms("stylus"));
        // df("case") = 2, df("stylus") = 1 → the rare term's idf is larger.
        assert!(rare[&OrdKey::Int(3)] > common[&OrdKey::Int(2)]);
        // tf weighting: row 1 holds "case" twice.
        assert_eq!(common[&OrdKey::Int(1)], 2 * common[&OrdKey::Int(2)]);
    }

    #[test]
    fn incremental_updates_match_a_from_scratch_build() {
        let cols = columns();
        let mut incremental = FtsIndex::new("name");
        let rows = [(1, "travel charger"), (2, "spare stylus"), (3, "charger")];
        for (id, name) in rows {
            incremental.insert_row("t", &cols, &row(id, name)).unwrap();
        }
        // Edit row 2, delete row 3.
        incremental.remove_row("t", &cols, &row(2, "spare stylus")).unwrap();
        incremental.insert_row("t", &cols, &row(2, "stylus pack")).unwrap();
        incremental.remove_row("t", &cols, &row(3, "charger")).unwrap();

        let mut scratch = FtsIndex::new("name");
        for (id, name) in [(1, "travel charger"), (2, "stylus pack")] {
            scratch.insert_row("t", &cols, &row(id, name)).unwrap();
        }
        assert_eq!(incremental.postings, scratch.postings);
        assert_eq!(incremental.doc_count(), scratch.doc_count());
        assert_eq!(incremental.entry_count(), scratch.entry_count());
    }

    #[test]
    fn schema_drift_errors_instead_of_panicking() {
        let mut fts = FtsIndex::new("name");
        let cols = vec!["id".to_owned()];
        assert_eq!(
            fts.insert_row("t", &cols, &row(1, "x")),
            Err(DbError::NoSuchColumn {
                table: "t".into(),
                column: "name".into()
            })
        );
    }

    #[test]
    fn unknown_terms_visit_no_postings() {
        let cols = columns();
        let mut fts = FtsIndex::new("name");
        fts.insert_row("t", &cols, &row(1, "travel charger")).unwrap();
        let (scores, visited) = fts.candidates(&query_terms("charger zq7u001"));
        assert_eq!(scores.len(), 1);
        assert_eq!(visited, 1);
    }
}
