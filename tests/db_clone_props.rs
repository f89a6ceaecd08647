//! Property tests for the seeded-database template (DESIGN.md §2.15,
//! §2.18; ADR 0003).
//!
//! A fleet seeds each application's database once per worker and starts
//! every island host from a clone of it. Two contracts make that sound:
//!
//! 1. *A clone is a value copy.* Whatever is written to a clone —
//!    inserts, updates, deletes, committed and rolled-back transactions,
//!    a crash and recovery — the template's rows, index buckets, search
//!    results and journal stay exactly as they were, and the clone ends
//!    up equal to a freshly seeded database given the same operations.
//!    A clone taken mid-sequence keeps the state it was taken at.
//! 2. *Skipped index maintenance changes nothing.* An update leaves a
//!    secondary index alone when the value is unchanged and the key
//!    already ends its bucket, and the postings alone when the indexed
//!    text is unchanged. Bucket order and search results must equal
//!    those of a reference that always removes and re-inserts the row.

use proptest::prelude::*;

use mcommerce::hostsite::db::{Database, DbError, DurabilityPolicy, JournalEntry, Value};
use mcommerce::hostsite::WebServer;

const ADJECTIVES: [&str; 4] = ["wireless", "leather", "spare", "travel"];
const NOUNS: [&str; 3] = ["case", "stylus", "charger"];
const TAGS: [&str; 3] = ["red", "green", "blue"];
const STATES: [&str; 2] = ["open", "done"];

fn name_of(word: u8) -> String {
    format!(
        "{} {}",
        ADJECTIVES[word as usize % ADJECTIVES.len()],
        NOUNS[word as usize / ADJECTIVES.len() % NOUNS.len()]
    )
}

fn table(orders: bool) -> &'static str {
    if orders {
        "orders"
    } else {
        "items"
    }
}

/// An `items` row (full-text name, indexed tag) or an `orders` row (two
/// indexed columns); the last column is never indexed.
fn row(orders: bool, key: i64, a: u8, b: u8, qty: i64) -> Vec<Value> {
    if orders {
        vec![
            key.into(),
            i64::from(a % 4).into(),
            STATES[b as usize % STATES.len()].into(),
            qty.into(),
        ]
    } else {
        vec![
            key.into(),
            name_of(a).into(),
            TAGS[b as usize % TAGS.len()].into(),
            qty.into(),
        ]
    }
}

/// The template: two tables whose secondary indexes hold duplicate
/// values, one with a full-text index.
fn seeded() -> Database {
    let mut db = Database::new();
    db.create_table("items", &["id", "name", "tag", "qty"], &["tag"])
        .unwrap();
    db.create_table(
        "orders",
        &["id", "item", "state", "qty"],
        &["item", "state"],
    )
    .unwrap();
    for key in 0..6i64 {
        db.insert("items", row(false, key, key as u8 * 5, key as u8, 10))
            .unwrap();
    }
    for key in 0..4i64 {
        db.insert("orders", row(true, key, key as u8, 0, 1))
            .unwrap();
    }
    db.create_fts("items", "name").unwrap();
    db
}

/// One write. Invalid ones (a duplicate insert, a missing row) fail the
/// same way on every copy.
#[derive(Debug, Clone)]
enum Write {
    Insert {
        orders: bool,
        key: i64,
        a: u8,
        b: u8,
    },
    Update {
        orders: bool,
        key: i64,
        a: u8,
        b: u8,
    },
    /// Re-writes a row with only its unindexed last column changed, the
    /// shape of a storefront purchase.
    Bump {
        orders: bool,
        key: i64,
    },
    Delete {
        orders: bool,
        key: i64,
    },
}

#[derive(Debug, Clone)]
enum Op {
    Write(Write),
    Transaction {
        writes: Vec<Write>,
        commit: bool,
    },
    Crash,
    /// Takes a clone of the database being written, to be checked at the
    /// end against what it held when taken.
    Fork,
}

fn write_strategy() -> impl Strategy<Value = Write> {
    prop_oneof![
        (any::<bool>(), 0..9i64, any::<u8>(), any::<u8>())
            .prop_map(|(orders, key, a, b)| Write::Insert { orders, key, a, b }),
        (any::<bool>(), 0..9i64, any::<u8>(), any::<u8>())
            .prop_map(|(orders, key, a, b)| Write::Update { orders, key, a, b }),
        (any::<bool>(), 0..9i64).prop_map(|(orders, key)| Write::Bump { orders, key }),
        (any::<bool>(), 0..9i64).prop_map(|(orders, key)| Write::Delete { orders, key }),
    ]
}

/// Six single writes, two transactions, a crash and a fork in ten.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..10u8,
        write_strategy(),
        proptest::collection::vec(write_strategy(), 1..5),
        any::<bool>(),
    )
        .prop_map(|(pick, write, writes, commit)| match pick {
            0..=5 => Op::Write(write),
            6 | 7 => Op::Transaction { writes, commit },
            8 => Op::Crash,
            _ => Op::Fork,
        })
}

fn apply(db: &mut Database, write: &Write) -> Result<(), DbError> {
    match *write {
        Write::Insert { orders, key, a, b } => db.insert(table(orders), row(orders, key, a, b, 1)),
        Write::Update { orders, key, a, b } => db.update(table(orders), row(orders, key, a, b, 1)),
        Write::Bump { orders, key } => {
            let mut image = db
                .get(table(orders), &key.into())?
                .ok_or(DbError::NotFound)?
                .to_vec();
            let Value::Int(qty) = image[3] else {
                return Err(DbError::NotFound);
            };
            image[3] = (qty + 1).into();
            db.update(table(orders), image)
        }
        Write::Delete { orders, key } => db.delete(table(orders), &key.into()),
    }
}

/// Applies `op` to the database `server` owns. A crash goes through the
/// web server, which re-registers the full-text index after recovery.
fn run(server: &mut WebServer, op: &Op) {
    match op {
        Op::Write(write) => {
            let _ = apply(server.db_mut(), write);
        }
        Op::Transaction { writes, commit } => {
            let _ = server.db_mut().transaction(|tx| {
                for write in writes {
                    let _ = apply(tx, write);
                }
                if *commit {
                    Ok(())
                } else {
                    Err(DbError::NotFound)
                }
            });
        }
        Op::Crash => {
            server.crash_and_recover_db().unwrap();
        }
        Op::Fork => {}
    }
}

fn pks(rows: &[std::sync::Arc<Vec<Value>>]) -> Vec<String> {
    rows.iter().map(|r| r[0].to_string()).collect()
}

fn queries() -> Vec<String> {
    let mut queries: Vec<String> = ADJECTIVES
        .iter()
        .chain(NOUNS.iter())
        .map(|w| (*w).to_owned())
        .collect();
    for a in ADJECTIVES {
        for n in NOUNS {
            queries.push(format!("{a} {n}"));
        }
    }
    queries.push("unobtainium".to_owned());
    queries
}

/// Everything a reader can see of the database: tables, rows, the order
/// of every index bucket, ranked search results, the journal, and the
/// engine's counters.
#[derive(Debug, PartialEq)]
struct Observed {
    tables: Vec<String>,
    rows: Vec<Vec<Vec<Value>>>,
    buckets: Vec<Vec<String>>,
    searches: Vec<Vec<String>>,
    fts: Vec<(String, String)>,
    journal: Vec<JournalEntry>,
    pending: usize,
    footprint: usize,
    fsyncs: u64,
}

fn observe(db: &Database) -> Observed {
    let rows = ["items", "orders"]
        .iter()
        .map(|t| {
            db.select(t, |_| true)
                .unwrap()
                .iter()
                .map(|r| r.to_vec())
                .collect()
        })
        .collect();
    let mut probes: Vec<(&str, &str, Value)> = Vec::new();
    for tag in TAGS {
        probes.push(("items", "tag", tag.into()));
    }
    for item in 0..4i64 {
        probes.push(("orders", "item", item.into()));
    }
    for state in STATES {
        probes.push(("orders", "state", state.into()));
    }
    let buckets = probes
        .iter()
        .map(|(t, c, v)| pks(&db.select_eq(t, c, v).unwrap()))
        .collect();
    let searches = queries()
        .iter()
        .map(|q| pks(&db.search("items", q).unwrap()))
        .collect();
    Observed {
        tables: db.table_names(),
        rows,
        buckets,
        searches,
        fts: db.fts_registrations(),
        journal: db.journal().to_vec(),
        pending: db.pending_journal_len(),
        footprint: db.footprint(),
        fsyncs: db.wal_fsyncs(),
    }
}

/// A host-side database as a fleet provisions it after the clone.
fn provisioned(db: Database, cached: bool, batch: u32) -> WebServer {
    let mut server = WebServer::new(db, 0);
    server.db_mut().set_query_cache(cached);
    server
        .db_mut()
        .set_durability(DurabilityPolicy::new(batch, 0));
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: writes to a clone never reach the template or an
    /// earlier clone, and a clone given a sequence of operations equals
    /// a freshly seeded database given the same sequence.
    #[test]
    fn a_cloned_database_is_a_value_copy(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        cached in any::<bool>(),
        batch in 1..4u32,
    ) {
        let template = seeded();
        let before = observe(&template);
        let mut clone = provisioned(template.clone(), cached, batch);
        let mut fresh = provisioned(seeded(), cached, batch);
        let mut forks = Vec::new();
        for op in &ops {
            run(&mut clone, op);
            run(&mut fresh, op);
            if let Op::Fork = op {
                let fork = clone.db().clone();
                let seen = observe(&fork);
                forks.push((fork, seen));
            }
        }
        prop_assert_eq!(observe(&template), before, "a write to the clone reached the template");
        prop_assert_eq!(observe(clone.db()), observe(fresh.db()));
        for (fork, seen) in &forks {
            prop_assert_eq!(&observe(fork), seen, "a later write reached an earlier clone");
        }
    }
}

/// The catalogue of contract 2: tag buckets `red` = [0, 2, 3],
/// `green` = [1, 4], `blue` = [5], and a full-text index on the name.
fn catalogue() -> Database {
    let mut db = Database::new();
    db.create_table("items", &["id", "name", "tag", "qty"], &["tag"])
        .unwrap();
    for (key, tag) in [0u8, 1, 0, 0, 1, 2].into_iter().enumerate() {
        db.insert("items", row(false, key as i64, key as u8 * 5, tag, 10))
            .unwrap();
    }
    db.create_fts("items", "name").unwrap();
    db
}

/// Updates `db` and, for the reference, deletes and re-inserts the row
/// (the remove-then-push maintenance every update used to do); then
/// compares rows, every bucket's order and every search.
fn update_both(
    db: &mut Database,
    reference: &mut Database,
    image: Vec<Value>,
) -> Result<(), String> {
    db.update("items", image.clone())
        .map_err(|e| e.to_string())?;
    reference
        .delete("items", &image[0])
        .map_err(|e| e.to_string())?;
    reference
        .insert("items", image)
        .map_err(|e| e.to_string())?;
    let rows = |db: &Database| -> Vec<Vec<Value>> {
        db.select("items", |_| true)
            .unwrap()
            .iter()
            .map(|r| r.to_vec())
            .collect()
    };
    if rows(db) != rows(reference) {
        return Err("rows differ".into());
    }
    for tag in TAGS {
        let got = pks(&db.select_eq("items", "tag", &tag.into()).unwrap());
        let want = pks(&reference.select_eq("items", "tag", &tag.into()).unwrap());
        if got != want {
            return Err(format!("bucket {tag}: {got:?}, reference {want:?}"));
        }
    }
    for q in queries() {
        let got = pks(&db.search("items", &q).unwrap());
        let want = pks(&reference.search("items", &q).unwrap());
        if got != want {
            return Err(format!("search {q:?}: {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}

/// Contract 2 on the named cases, in order.
#[test]
fn skipped_index_maintenance_keeps_bucket_order_and_postings() {
    let mut db = catalogue();
    let mut reference = catalogue();
    let red = |db: &Database| pks(&db.select_eq("items", "tag", &"red".into()).unwrap());
    let cases = [
        // An unindexed column of the key that ends its bucket: skipped.
        ("qty of 3, last in red", row(false, 3, 15, 0, 9)),
        // The same for a key inside its bucket: it moves to the end.
        ("qty of 0, first in red", row(false, 0, 0, 0, 9)),
        // A changed tag moves the key to the new bucket's end.
        ("tag of 2, red to green", row(false, 2, 10, 1, 10)),
        // A changed name re-indexes the postings, its tag bucket kept.
        ("name of 1, inside green", row(false, 1, 7, 1, 10)),
        ("name of 2, last in green", row(false, 2, 11, 1, 10)),
        // An unchanged name and tag, nothing else changed either.
        ("identical row of 4, inside green", row(false, 4, 20, 1, 10)),
        (
            "identical row of 5, alone in blue",
            row(false, 5, 25, 2, 10),
        ),
    ];
    for (case, image) in cases {
        if let Err(diff) = update_both(&mut db, &mut reference, image) {
            panic!("{case}: {diff}");
        }
    }
    assert_eq!(red(&db), ["3", "0"], "the bucket order the reference keeps");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 2 on random updates: any mix of changed and unchanged
    /// names and tags keeps every bucket and search equal to the
    /// remove-and-re-insert reference.
    #[test]
    fn updates_keep_buckets_and_postings_equal_to_remove_and_insert(
        updates in proptest::collection::vec((0..6i64, 0..3u8, 0..3u8, 0..3i64), 1..40),
    ) {
        let mut db = catalogue();
        let mut reference = catalogue();
        for (key, name, tag, qty) in updates {
            // Small domains so names, tags and rows often repeat.
            let image = row(false, key, key as u8 * 5 + name, tag, qty);
            if let Err(diff) = update_both(&mut db, &mut reference, image) {
                return Err(TestCaseError::fail(diff));
            }
        }
    }
}
