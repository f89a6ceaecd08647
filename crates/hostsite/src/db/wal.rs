//! The write-ahead log with sim-time group commit.
//!
//! Every committed operation is appended to the log before it is
//! considered durable. Under the default [`DurabilityPolicy`] (batch of
//! one, zero-cost fsync) each commit is flushed immediately and the log
//! behaves exactly like the journal it replaces. A non-trivial policy
//! accumulates commits in an in-memory tail and only moves them to the
//! durable prefix every `commit_batch` commits, charging `fsync_ns` of
//! simulated time per flush — so a crash loses the un-flushed tail, and
//! recovery replays the durable prefix in fsync-equivalent units.

use std::sync::Arc;

use super::Row;
use super::Value;

/// One durable operation, as recorded in the write-ahead log.
///
/// Names, schemas and row images are shared handles: an entry holds the
/// table's own name and column list, and the very row image the table
/// holds, so journaling a write copies nothing and cloning a log is a
/// refcount bump per entry.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// Table creation.
    CreateTable {
        /// Table name.
        name: Arc<str>,
        /// Column names; column 0 is the primary key.
        columns: Arc<[String]>,
        /// Secondary index columns.
        indexes: Arc<[String]>,
    },
    /// Row insertion.
    Insert {
        /// Table name.
        table: Arc<str>,
        /// The inserted row.
        row: Arc<Row>,
    },
    /// Row update (full-row image).
    Update {
        /// Table name.
        table: Arc<str>,
        /// The new row image.
        row: Arc<Row>,
    },
    /// Row deletion by primary key.
    Delete {
        /// Table name.
        table: Arc<str>,
        /// Primary key of the removed row.
        key: Value,
    },
}

/// How the write-ahead log trades durability for sim time.
///
/// `commit_batch` is the group-commit window: the log is fsynced once
/// every that many commits (a transaction counts as one commit however
/// many entries it carries). `fsync_ns` is the simulated cost of one
/// fsync, charged to the host CPU of the request that triggered it.
///
/// The default — batch of one, zero fsync cost — makes every write
/// immediately durable for free, which is bit-identical to the engine
/// before durability was priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Commits per fsync (clamped to at least 1).
    pub(crate) commit_batch: u32,
    /// Simulated nanoseconds charged per fsync.
    pub fsync_ns: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            commit_batch: 1,
            fsync_ns: 0,
        }
    }
}

impl DurabilityPolicy {
    /// A policy flushing every `commit_batch` commits at `fsync_ns` each.
    pub fn new(commit_batch: u32, fsync_ns: u64) -> Self {
        DurabilityPolicy {
            commit_batch: commit_batch.max(1),
            fsync_ns,
        }
    }

    /// True when the policy charges nothing and batches nothing — the
    /// configuration that must be byte-identical to the unpriced engine.
    pub fn is_zero_cost(&self) -> bool {
        self.commit_batch <= 1 && self.fsync_ns == 0
    }

    /// How many fsyncs a log of `entries` committed operations costs to
    /// replay: recovery re-groups the entries into commit batches, so the
    /// replay cost is measured in fsync-equivalents, not raw entries.
    pub fn fsync_equivalents(&self, entries: u64) -> u64 {
        entries.div_ceil(u64::from(self.commit_batch.max(1)))
    }
}

/// The log itself: one vector of entries whose first `durable_len` are
/// durable; the rest are the un-fsynced pending tail. A commit appends in
/// place and an fsync only moves the boundary, so under a batch of one
/// every commit lands straight in the durable prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Wal {
    entries: Vec<JournalEntry>,
    durable_len: usize,
    pending_commits: u32,
    policy: DurabilityPolicy,
    fsyncs: u64,
    accrued_cost_ns: u64,
}

impl Wal {
    /// The policy in force.
    pub(crate) fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// Replaces the policy. The pending tail is flushed first so entries
    /// committed under the old window never linger under the new one.
    pub(crate) fn set_policy(&mut self, policy: DurabilityPolicy) {
        self.sync();
        self.policy = policy;
    }

    /// Appends one commit (one or more entries that become durable
    /// together) and fsyncs when the group-commit window fills. An empty
    /// commit is a no-op.
    pub(crate) fn commit(&mut self, entries: impl IntoIterator<Item = JournalEntry>) {
        let before = self.entries.len();
        self.entries.extend(entries);
        if self.entries.len() == before {
            return;
        }
        self.pending_commits += 1;
        if self.pending_commits >= self.policy.commit_batch.max(1) {
            self.sync();
        }
    }

    /// Forces an fsync of the pending tail (a no-op when nothing is
    /// pending): the tail joins the durable prefix and one fsync's cost
    /// accrues.
    pub(crate) fn sync(&mut self) {
        self.pending_commits = 0;
        if self.durable_len == self.entries.len() {
            return;
        }
        self.durable_len = self.entries.len();
        self.fsyncs += 1;
        self.accrued_cost_ns = self.accrued_cost_ns.saturating_add(self.policy.fsync_ns);
    }

    /// The durable prefix — what survives a crash.
    pub(crate) fn durable(&self) -> &[JournalEntry] {
        &self.entries[..self.durable_len]
    }

    /// Entries sitting in the un-fsynced tail (lost on a crash).
    pub(crate) fn pending_len(&self) -> usize {
        self.entries.len() - self.durable_len
    }

    /// Installs an already-durable log during recovery, with no fsync
    /// accounting: replay re-prices durability at the recovery site.
    pub(crate) fn install_durable(&mut self, entries: Vec<JournalEntry>) {
        self.durable_len = entries.len();
        self.entries = entries;
        self.pending_commits = 0;
    }

    /// Total fsyncs performed.
    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Returns and resets the fsync cost accrued since the last drain —
    /// the host charges this to the request that triggered the flushes.
    pub(crate) fn drain_cost_ns(&mut self) -> u64 {
        std::mem::take(&mut self.accrued_cost_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: i64) -> JournalEntry {
        JournalEntry::Delete {
            table: "t".into(),
            key: k.into(),
        }
    }

    #[test]
    fn default_policy_flushes_every_commit_for_free() {
        let mut wal = Wal::default();
        wal.commit([entry(1)]);
        wal.commit([entry(2)]);
        assert_eq!(wal.durable().len(), 2);
        assert_eq!(wal.pending_len(), 0);
        assert_eq!(wal.fsyncs(), 2);
        assert_eq!(wal.drain_cost_ns(), 0);
    }

    #[test]
    fn group_commit_batches_and_prices_fsyncs() {
        let mut wal = Wal::default();
        wal.set_policy(DurabilityPolicy::new(3, 50));
        wal.commit([entry(1)]);
        wal.commit([entry(2), entry(3)]); // a transaction: one commit
        assert_eq!(wal.durable().len(), 0, "window not full yet");
        assert_eq!(wal.pending_len(), 3);
        wal.commit([entry(4)]);
        assert_eq!(wal.durable().len(), 4, "third commit fills the window");
        assert_eq!(wal.fsyncs(), 1);
        assert_eq!(wal.drain_cost_ns(), 50);
        assert_eq!(wal.drain_cost_ns(), 0, "drain resets");
    }

    #[test]
    fn sync_flushes_the_tail_and_empty_commits_are_free() {
        let mut wal = Wal::default();
        wal.set_policy(DurabilityPolicy::new(10, 7));
        wal.commit(Vec::new());
        assert_eq!(wal.fsyncs(), 0);
        wal.commit([entry(1)]);
        wal.sync();
        assert_eq!(wal.durable().len(), 1);
        assert_eq!(wal.fsyncs(), 1);
        wal.sync(); // nothing pending: no fsync, no cost
        assert_eq!(wal.fsyncs(), 1);
        assert_eq!(wal.drain_cost_ns(), 7);
    }

    #[test]
    fn fsync_equivalents_round_up_per_batch() {
        let p = DurabilityPolicy::new(4, 100);
        assert_eq!(p.fsync_equivalents(0), 0);
        assert_eq!(p.fsync_equivalents(1), 1);
        assert_eq!(p.fsync_equivalents(4), 1);
        assert_eq!(p.fsync_equivalents(5), 2);
        assert!(DurabilityPolicy::default().is_zero_cost());
        assert!(!p.is_zero_cost());
    }
}
