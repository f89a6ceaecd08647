//! Multi-version row storage.
//!
//! Each primary key maps to a [`VersionChain`]: row images stamped with
//! the half-open commit-version interval `[begin, end)` during which they
//! were the visible truth. The newest version of a live key has
//! `end == LIVE`. Snapshot reads pin a commit version `v` and observe the
//! unique version with `begin <= v < end` — later writers install new
//! versions without disturbing anything a pinned snapshot can see.
//!
//! Chains are pruned eagerly: every write that touches a chain drops
//! every version no pinned snapshot can still reach. With no snapshots
//! open a chain therefore collapses to at most its single live version,
//! and a fully dead key disappears from the table — the storage shape of
//! the engine before versioning existed.
//!
//! A chain holds its newest version inline and keeps older ones in a
//! vector only while a snapshot pins them. So cloning a table copies no
//! per-row buffer, and a write with no snapshot open replaces the live
//! image in place instead of pushing a version and pruning the old one.

use std::sync::Arc;

use super::Row;

/// `end` stamp of the currently visible version.
pub(crate) const LIVE: u64 = u64::MAX;

/// One row image and the commit-version interval it was visible for.
#[derive(Debug, Clone)]
pub(crate) struct RowVersion {
    /// First commit version that sees this image.
    pub(crate) begin: u64,
    /// First commit version that no longer sees it ([`LIVE`] = current).
    pub(crate) end: u64,
    /// The image itself, shared with readers.
    pub(crate) row: Arc<Row>,
}

/// The version history of one primary key: the newest version inline,
/// the older ones a pinned snapshot still reaches oldest first.
/// Invariant: `older` is empty when `newest` is `None`.
#[derive(Debug, Clone, Default)]
pub(crate) struct VersionChain {
    newest: Option<RowVersion>,
    older: Vec<RowVersion>,
}

impl VersionChain {
    /// The currently live image, if the key is not deleted.
    pub(crate) fn live(&self) -> Option<&Arc<Row>> {
        match &self.newest {
            Some(v) if v.end == LIVE => Some(&v.row),
            _ => None,
        }
    }

    /// The image a snapshot pinned at commit version `at` observes.
    pub(crate) fn visible_at(&self, at: u64) -> Option<&Arc<Row>> {
        self.newest
            .iter()
            .chain(self.older.iter().rev())
            .find(|v| v.begin <= at && at < v.end)
            .map(|v| &v.row)
    }

    /// Installs `row` as the live image at commit version `version`,
    /// closing the previous live version (if any) at the same stamp, then
    /// prunes what `oldest_pin` cannot reach (see [`VersionChain::prune`]).
    /// With no snapshot open the new image simply replaces the old ones.
    pub(crate) fn install(&mut self, row: Arc<Row>, version: u64, oldest_pin: Option<u64>) {
        let new = RowVersion {
            begin: version,
            end: LIVE,
            row,
        };
        if oldest_pin.is_none() {
            self.older.clear();
            self.newest = Some(new);
            return;
        }
        if let Some(mut previous) = self.newest.replace(new) {
            if previous.end == LIVE {
                previous.end = version;
            }
            self.older.push(previous);
        }
        self.prune(oldest_pin);
    }

    /// Deletes the live image at commit version `version`, returning it,
    /// then prunes what `oldest_pin` cannot reach.
    pub(crate) fn remove_live(
        &mut self,
        version: u64,
        oldest_pin: Option<u64>,
    ) -> Option<Arc<Row>> {
        let removed = match &mut self.newest {
            Some(v) if v.end == LIVE => {
                v.end = version;
                Some(Arc::clone(&v.row))
            }
            _ => None,
        };
        self.prune(oldest_pin);
        removed
    }

    /// Drops every dead version no pinned snapshot can reach.
    /// `oldest_pin` is the smallest pinned commit version, or `None` when
    /// no snapshot is open (every dead version is then unreachable).
    fn prune(&mut self, oldest_pin: Option<u64>) {
        let reachable = |v: &RowVersion| v.end == LIVE || oldest_pin.is_some_and(|pin| v.end > pin);
        self.older.retain(reachable);
        if !self.newest.as_ref().is_some_and(reachable) {
            // Every older version ended before the newest began, so
            // none of them is reachable either.
            debug_assert!(self.older.is_empty(), "versions are stamped in order");
            self.newest = None;
        }
    }

    /// True when no versions remain (the key can leave the table).
    pub(crate) fn is_empty(&self) -> bool {
        self.newest.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row(v: i64) -> Arc<Row> {
        Arc::new(vec![v.into()])
    }

    #[test]
    fn snapshots_see_the_pinned_image_through_updates_and_deletes() {
        // A snapshot pinned at 0 keeps every version reachable.
        let pin = Some(0);
        let mut chain = VersionChain::default();
        chain.install(row(1), 1, pin);
        assert!(chain.visible_at(0).is_none(), "born at 1, invisible at 0");
        chain.install(row(2), 2, pin);
        // A snapshot pinned at 1 still sees the old image; live moved on.
        assert_eq!(chain.visible_at(1).unwrap()[0], 1i64.into());
        assert_eq!(chain.live().unwrap()[0], 2i64.into());
        chain.remove_live(3, pin);
        assert!(chain.live().is_none());
        assert_eq!(chain.visible_at(2).unwrap()[0], 2i64.into());
        assert!(chain.visible_at(3).is_none(), "deleted at 3");
    }

    #[test]
    fn pruning_respects_the_oldest_pin_and_collapses_without_pins() {
        let mut chain = VersionChain::default();
        chain.install(row(1), 1, Some(0));
        chain.install(row(2), 2, Some(0));
        chain.install(row(3), 3, Some(2)); // pin at 2 still needs [2,3)
        assert!(chain.visible_at(2).is_some());
        assert!(chain.visible_at(1).is_none(), "[1,2) pruned: 2 > end");
        chain.install(row(4), 4, None);
        assert!(chain.live().is_some());
        assert!(chain.visible_at(3).is_none(), "no pin: only live remains");
        chain.remove_live(5, None);
        assert!(chain.is_empty(), "fully dead chain vanishes");
    }

    /// The chain as it was before its newest version moved inline: one
    /// vector, oldest first, pruned by `retain`.
    #[derive(Default)]
    struct Model(Vec<RowVersion>);

    impl Model {
        fn prune(&mut self, pin: Option<u64>) {
            match pin {
                None => self.0.retain(|v| v.end == LIVE),
                Some(pin) => self.0.retain(|v| v.end == LIVE || v.end > pin),
            }
        }

        fn install(&mut self, row: Arc<Row>, version: u64, pin: Option<u64>) {
            if let Some(last) = self.0.last_mut() {
                if last.end == LIVE {
                    last.end = version;
                }
            }
            self.0.push(RowVersion {
                begin: version,
                end: LIVE,
                row,
            });
            self.prune(pin);
        }

        fn remove_live(&mut self, version: u64, pin: Option<u64>) -> Option<Arc<Row>> {
            let removed = match self.0.last_mut() {
                Some(last) if last.end == LIVE => {
                    last.end = version;
                    Some(Arc::clone(&last.row))
                }
                _ => None,
            };
            self.prune(pin);
            removed
        }
    }

    /// `(begin, end, image)` of every version, oldest first.
    fn versions(chain: &VersionChain) -> Vec<(u64, u64, i64)> {
        chain
            .older
            .iter()
            .chain(&chain.newest)
            .map(|v| (v.begin, v.end, image(&v.row)))
            .collect()
    }

    fn image(row: &Row) -> i64 {
        match row[0] {
            super::super::Value::Int(i) => i,
            _ => unreachable!("test rows hold one int"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random installs and deletes, each at the next commit version
        /// (as the engine stamps them) and each pruned at a random pin
        /// or none, leave the chain equal to the vector model: the same
        /// versions, the same live image, the same image at every
        /// snapshot version, the same removed images and emptiness.
        #[test]
        fn an_inline_chain_equals_the_vector_model(
            ops in proptest::collection::vec((0u8..3, 0u64..8, any::<bool>()), 1..40),
        ) {
            let mut chain = VersionChain::default();
            let mut model = Model::default();
            let mut version = 0u64;
            for (op, pin_back, pinned) in ops {
                version += 1;
                // A pin is an earlier commit version still open.
                let pin = pinned.then(|| version.saturating_sub(1 + pin_back));
                if op == 0 {
                    prop_assert_eq!(
                        chain.remove_live(version, pin).map(|r| image(&r)),
                        model.remove_live(version, pin).map(|r| image(&r))
                    );
                } else {
                    chain.install(row(version as i64), version, pin);
                    model.install(row(version as i64), version, pin);
                }
                let expected: Vec<(u64, u64, i64)> =
                    model.0.iter().map(|v| (v.begin, v.end, image(&v.row))).collect();
                prop_assert_eq!(versions(&chain), expected);
                prop_assert_eq!(chain.is_empty(), model.0.is_empty());
                prop_assert_eq!(
                    chain.live().map(|r| image(r)),
                    model.0.last().filter(|v| v.end == LIVE).map(|v| image(&v.row))
                );
                for at in 0..=version {
                    let seen = model
                        .0
                        .iter()
                        .rev()
                        .find(|v| v.begin <= at && at < v.end)
                        .map(|v| image(&v.row));
                    prop_assert_eq!(chain.visible_at(at).map(|r| image(r)), seen);
                }
            }
        }
    }
}
