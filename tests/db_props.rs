//! Property tests for the durable storage engine (DESIGN.md §2.18).
//!
//! The crash-point sweep: truncate the write-ahead log of a randomized
//! workload at *every* record boundary and recover from the prefix. Each
//! recovery must yield exactly the state the same prefix produces when
//! replayed through the public write API — rows, footprint, and
//! secondary indexes (rebuilt from base rows) all agree, and the
//! recovered journal is the prefix byte for byte. That is the definition
//! of prefix consistency: a crash can lose a suffix of commits, never
//! corrupt what was durable.

use proptest::prelude::*;

use mcommerce::hostsite::db::{Database, DurabilityPolicy, JournalEntry, Value};

/// One randomized operation over a small key domain. Invalid ops (dup
/// insert, update/delete of a missing key) are skipped at apply time,
/// so every journal entry is a committed, replayable write.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: i64, name: u8, qty: i64 },
    Update { key: i64, name: u8, qty: i64 },
    Delete { key: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..8i64, 0..4u8, 0..100i64).prop_map(|(key, name, qty)| Op::Insert { key, name, qty }),
        (0..8i64, 0..4u8, 0..100i64).prop_map(|(key, name, qty)| Op::Update { key, name, qty }),
        (0..8i64,).prop_map(|(key,)| Op::Delete { key }),
    ]
}

fn name_of(tag: u8) -> &'static str {
    ["widget", "gadget", "sprocket", "gizmo"][tag as usize % 4]
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    db.create_table("items", &["id", "name", "qty"], &["name"])
        .unwrap();
    db
}

fn apply(db: &mut Database, op: &Op) {
    match *op {
        Op::Insert { key, name, qty } => {
            let _ = db.insert(
                "items",
                vec![key.into(), name_of(name).into(), qty.into()],
            );
        }
        Op::Update { key, name, qty } => {
            let _ = db.update(
                "items",
                vec![key.into(), name_of(name).into(), qty.into()],
            );
        }
        Op::Delete { key } => {
            let _ = db.delete("items", &key.into());
        }
    }
}

/// Replays one journal entry through the public write API — the
/// reference build every crash-point recovery is compared against.
fn replay_public(db: &mut Database, entry: &JournalEntry) {
    match entry {
        JournalEntry::CreateTable {
            name,
            columns,
            indexes,
        } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            let idxs: Vec<&str> = indexes.iter().map(String::as_str).collect();
            db.create_table(name, &cols, &idxs).unwrap();
        }
        JournalEntry::Insert { table, row } => db.insert(table, row.to_vec()).unwrap(),
        JournalEntry::Update { table, row } => db.update(table, row.to_vec()).unwrap(),
        JournalEntry::Delete { table, key } => db.delete(table, key).unwrap(),
    }
}

/// Full observable state: every row (pk order) plus every index
/// projection, probed through the public query API. Index buckets are
/// compared as *sets* (normalized to pk order here): a rebuild
/// canonicalizes each bucket to primary-key order, while incremental
/// maintenance keeps historical update order — both are valid
/// projections of the same base rows.
type Rows = Vec<Vec<Value>>;

/// One way to damage a journal. Indices are taken modulo its length.
#[derive(Debug, Clone)]
enum Damage {
    /// Swaps two entries.
    Swap(usize, usize),
    /// Drops every entry from `at` on.
    Truncate(usize),
    /// Drops one entry.
    Remove(usize),
    /// Repeats an entry right after itself.
    Duplicate(usize),
    /// Rewrites an entry (see [`mutated`]).
    Mutate(usize, u8),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Damage::Swap(a, b)),
        any::<usize>().prop_map(Damage::Truncate),
        any::<usize>().prop_map(Damage::Remove),
        any::<usize>().prop_map(Damage::Duplicate),
        (any::<usize>(), any::<u8>()).prop_map(|(at, how)| Damage::Mutate(at, how)),
    ]
}

/// `entry` rewritten one of several ways a corrupt journal could hold
/// it: an unknown table, a row one value short or long, a primary key
/// of another type or NaN, a schema with no columns or an index on a
/// column it does not have.
fn mutated(entry: &JournalEntry, how: u8) -> JournalEntry {
    let reshaped = |row: &[Value]| -> Vec<Value> {
        let mut row = row.to_vec();
        match how % 4 {
            0 => {
                row.pop();
            }
            1 => row.push(Value::Bool(true)),
            2 => {
                if let Some(pk) = row.first_mut() {
                    *pk = Value::Text("pk".into());
                }
            }
            _ => {
                if let Some(pk) = row.first_mut() {
                    *pk = Value::Float(f64::NAN);
                }
            }
        }
        row
    };
    match entry {
        _ if how % 5 == 4 => JournalEntry::Delete {
            table: "ghost".into(),
            key: Value::Int(1),
        },
        JournalEntry::CreateTable { name, columns, .. } => JournalEntry::CreateTable {
            name: name.clone(),
            columns: if how.is_multiple_of(2) { [].into() } else { columns.clone() },
            indexes: ["ghost".to_owned()].into(),
        },
        JournalEntry::Insert { table, row } => JournalEntry::Insert {
            table: table.clone(),
            row: reshaped(row).into(),
        },
        JournalEntry::Update { table, row } => JournalEntry::Update {
            table: table.clone(),
            row: reshaped(row).into(),
        },
        JournalEntry::Delete { table, .. } => JournalEntry::Delete {
            table: table.clone(),
            key: reshaped(&[Value::Int(0)]).pop().unwrap_or(Value::Bool(false)),
        },
    }
}

fn observe(db: &Database) -> (Rows, Vec<Rows>, usize) {
    let rows = db
        .select("items", |_| true)
        .unwrap()
        .iter()
        .map(|r| (**r).clone())
        .collect();
    let by_name = (0..4u8)
        .map(|tag| {
            let mut bucket: Rows = db
                .select_eq("items", "name", &name_of(tag).into())
                .unwrap()
                .iter()
                .map(|r| (**r).clone())
                .collect();
            bucket.sort_by_key(|row| match row[0] {
                Value::Int(pk) => pk,
                _ => i64::MAX,
            });
            bucket
        })
        .collect();
    (rows, by_name, db.footprint())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Truncating the WAL at every record boundary and recovering yields
    /// the prefix-consistent snapshot: identical to replaying the same
    /// prefix through the public API, with indexes rebuilt equal to a
    /// from-scratch build.
    #[test]
    fn crash_point_sweep_recovers_every_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut db = fresh_db();
        for op in &ops {
            apply(&mut db, op);
        }
        let journal = db.journal().to_vec();

        for cut in 0..=journal.len() {
            let prefix = &journal[..cut];
            let recovered = Database::recover(prefix).unwrap();
            // The recovered journal IS the prefix (idempotent recovery).
            prop_assert_eq!(recovered.journal(), prefix);

            // Reference: the same prefix replayed through the public
            // write API on a fresh engine (incremental index
            // maintenance, live counters, the works).
            let mut reference = Database::new();
            for entry in prefix {
                replay_public(&mut reference, entry);
            }
            if cut == 0 {
                prop_assert!(recovered.table_names().is_empty());
                continue;
            }
            prop_assert_eq!(recovered.table_names(), reference.table_names());
            prop_assert_eq!(observe(&recovered), observe(&reference));
        }
    }

    /// A shuffled, truncated or corrupted journal recovers to `Ok` or
    /// `Err`, never a panic; what does recover holds the journal it was
    /// given.
    #[test]
    fn damaged_journals_recover_or_err(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        damage in proptest::collection::vec(damage_strategy(), 1..6),
    ) {
        let mut db = fresh_db();
        for op in &ops {
            apply(&mut db, op);
        }
        let mut journal = db.journal().to_vec();
        for d in &damage {
            let n = journal.len().max(1);
            match *d {
                Damage::Swap(a, b) if !journal.is_empty() => journal.swap(a % n, b % n),
                Damage::Truncate(at) => journal.truncate(at % (n + 1)),
                Damage::Remove(at) if !journal.is_empty() => {
                    journal.remove(at % n);
                }
                Damage::Duplicate(at) if !journal.is_empty() => {
                    let entry = journal[at % n].clone();
                    journal.insert(at % n, entry);
                }
                Damage::Mutate(at, how) if !journal.is_empty() => {
                    journal[at % n] = mutated(&journal[at % n], how);
                }
                _ => {}
            }
        }
        if let Ok(recovered) = Database::recover(&journal) {
            prop_assert_eq!(recovered.journal(), &journal[..]);
        }
    }

    /// Group commit only ever loses a *suffix*: after any workload under
    /// any batch size, the durable journal is a prefix of the
    /// immediately-durable (batch=1) journal for the same ops, and the
    /// pending tail is exactly the rest.
    #[test]
    fn group_commit_loses_only_a_suffix(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        batch in 1..6u32,
    ) {
        let mut immediate = fresh_db();
        let mut batched = fresh_db();
        batched.set_durability(DurabilityPolicy::new(batch, 0));
        for op in &ops {
            apply(&mut immediate, op);
            apply(&mut batched, op);
        }
        let full = immediate.journal();
        let durable = batched.journal();
        prop_assert!(durable.len() <= full.len());
        prop_assert_eq!(durable, &full[..durable.len()]);
        prop_assert_eq!(
            durable.len() + batched.pending_journal_len(),
            full.len(),
            "durable prefix + pending tail account for every entry"
        );
        // Syncing drains the tail and converges the two logs.
        batched.sync_journal();
        prop_assert_eq!(batched.journal(), full);
    }
}
