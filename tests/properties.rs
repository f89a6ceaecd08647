//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;

use mcommerce::hostsite::db::{Database, DbError, Value};
use mcommerce::markup::transcode::{html_to_chtml, html_to_wml, WmlOptions};
use mcommerce::markup::{chtml, html, parse, wbxml, wml, Element, Node};
use mcommerce::security::{Mac, PaymentGateway, PaymentRequest};

// ---------------------------------------------------------------------
// Markup strategies
// ---------------------------------------------------------------------

/// Text without markup-significant characters (the parser decodes
/// entities, so round-trips normalise them; plain text is the invariant).
fn text_strategy() -> impl Strategy<Value = String> {
    // Pre-collapsed text: the parser collapses whitespace runs (HTML
    // semantics), so cosmetic spacing is not a round-trip invariant.
    "[a-zA-Z0-9]([a-zA-Z0-9 ,.!?-]{0,38}[a-zA-Z0-9,.!?-])?"
        .prop_map(|s: String| s.split_whitespace().collect::<Vec<_>>().join(" "))
}

/// A small HTML body tree of bounded depth.
fn html_body_strategy() -> impl Strategy<Value = Element> {
    let leaf = prop_oneof![
        text_strategy().prop_map(|t| Element::new("p").with_text(t)),
        (text_strategy(), "[a-z]{1,10}").prop_map(|(t, href)| {
            Element::new("p").with_child(
                Element::new("a")
                    .with_attr("href", format!("/{href}"))
                    .with_text(t),
            )
        }),
        text_strategy().prop_map(|t| Element::new("h2").with_text(t)),
        proptest::collection::vec(text_strategy(), 1..4).prop_map(html::ul),
    ];
    proptest::collection::vec(leaf, 1..8).prop_map(|children| {
        let mut body = Element::new("body");
        for c in children {
            body.push_child(c);
        }
        Element::new("html")
            .with_child(Element::new("head").with_child(Element::new("title").with_text("T")))
            .with_child(body)
    })
}

fn normalise(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn markup_serialise_parse_round_trips(
        doc in html_body_strategy(),
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let text = doc.to_markup();
        let reparsed = parse::parse(&text).unwrap();
        prop_assert_eq!(doc, reparsed);
        // Arbitrary text and byte-mutated pages parse to `Ok` or `Err`,
        // never a panic.
        let mut bytes = text.into_bytes();
        for &(at, byte) in &flips {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        for input in [String::from_utf8_lossy(&junk), String::from_utf8_lossy(&bytes)] {
            let _ = parse::parse(&input);
            let _ = html::parse_html(&input);
        }
    }

    #[test]
    fn wml_translation_is_always_valid_and_preserves_text(doc in html_body_strategy()) {
        let deck = html_to_wml(&doc, &WmlOptions::default());
        wml::validate(&deck).unwrap();
        // Every individual text run in the body survives translation
        // (title is carried as a card attribute, so it is excluded).
        let deck_text = normalise(&deck.text_content());
        let mut stack = vec![doc.find("body").unwrap()];
        while let Some(e) = stack.pop() {
            for child in e.children() {
                match child {
                    Node::Text(t) => {
                        let t = normalise(t);
                        prop_assert!(
                            deck_text.contains(&t),
                            "lost {:?} from {:?}", t, deck_text
                        );
                    }
                    Node::Element(inner) => stack.push(inner),
                }
            }
        }
    }

    #[test]
    fn chtml_simplification_is_always_valid(doc in html_body_strategy()) {
        let compact = html_to_chtml(&doc);
        chtml::validate(&compact).unwrap();
        let before = normalise(&doc.text_content());
        let after = normalise(&compact.text_content());
        prop_assert_eq!(before, after, "filtering must not drop text");
    }

    #[test]
    fn wbxml_round_trips_every_translated_deck(
        doc in html_body_strategy(),
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let deck = html_to_wml(&doc, &WmlOptions::default());
        let binary = wbxml::encode(&deck);
        let back = wbxml::decode(&binary).unwrap();
        prop_assert_eq!(deck, back);
        // Arbitrary bytes and byte-mutated decks decode to `Ok` or
        // `Err`, never a panic.
        let mut mutated = binary.clone();
        for &(at, byte) in &flips {
            let at = at % mutated.len();
            mutated[at] = byte;
        }
        let _ = wbxml::decode(&junk);
        let _ = wbxml::decode(&mutated);
    }

    #[test]
    fn pagination_never_loses_paragraphs(
        paragraphs in proptest::collection::vec(text_strategy(), 1..40),
        budget in 300usize..2000,
    ) {
        let body: Vec<Node> = paragraphs.iter().map(|t| html::p(t).into()).collect();
        let doc = html::page("Long", body);
        let deck = html_to_wml(&doc, &WmlOptions { max_card_bytes: budget, ..Default::default() });
        wml::validate(&deck).unwrap();
        let text = normalise(&deck.text_content());
        for p in &paragraphs {
            prop_assert!(text.contains(&normalise(p)));
        }
    }
}

// ---------------------------------------------------------------------
// Database invariants
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DbOp {
    Insert(i64, String),
    Update(i64, String),
    Delete(i64),
}

fn db_ops_strategy() -> impl Strategy<Value = Vec<DbOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0i64..30, "[a-z]{1,12}").prop_map(|(k, v)| DbOp::Insert(k, v)),
            (0i64..30, "[a-z]{1,12}").prop_map(|(k, v)| DbOp::Update(k, v)),
            (0i64..30).prop_map(DbOp::Delete),
        ],
        0..40,
    )
}

fn apply(db: &mut Database, op: &DbOp) -> Result<(), DbError> {
    match op {
        DbOp::Insert(k, v) => db.insert("t", vec![(*k).into(), v.as_str().into()]),
        DbOp::Update(k, v) => db.update("t", vec![(*k).into(), v.as_str().into()]),
        DbOp::Delete(k) => db.delete("t", &(*k).into()),
    }
}

fn snapshot(db: &Database) -> Vec<(String, String)> {
    db.select("t", |_| true)
        .unwrap()
        .into_iter()
        .map(|r| (r[0].to_string(), r[1].to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rolled_back_transactions_leave_no_trace(ops in db_ops_strategy(), tx_ops in db_ops_strategy()) {
        let mut db = Database::new();
        db.create_table("t", &["k", "v"], &["v"]).unwrap();
        for op in &ops {
            let _ = apply(&mut db, op);
        }
        let before = snapshot(&db);
        let journal_before = db.journal().len();
        let footprint_before = db.footprint();
        let len_before = db.len("t").unwrap();

        // A transaction that does arbitrary work and then fails.
        let _ = db.transaction(|tx| -> Result<(), DbError> {
            for op in &tx_ops {
                let _ = apply(tx, op);
            }
            Err(DbError::NotFound)
        });

        prop_assert_eq!(snapshot(&db), before.clone());
        prop_assert_eq!(db.journal().len(), journal_before);
        prop_assert_eq!(db.footprint(), footprint_before);
        prop_assert_eq!(db.len("t").unwrap(), len_before);
        // Index stays consistent with the table after rollback: every
        // value, old or written inside the failed transaction, finds
        // exactly the keys that held it before.
        let tx_values = tx_ops.iter().filter_map(|op| match op {
            DbOp::Insert(_, v) | DbOp::Update(_, v) => Some(v.as_str()),
            DbOp::Delete(_) => None,
        });
        for v in before.iter().map(|(_, v)| v.as_str()).chain(tx_values) {
            let mut found: Vec<String> = db
                .select_eq("t", "v", &v.into())
                .unwrap()
                .iter()
                .map(|r| r[0].to_string())
                .collect();
            found.sort();
            let mut held: Vec<String> = before
                .iter()
                .filter(|(_, held)| held == v)
                .map(|(k, _)| k.clone())
                .collect();
            held.sort();
            prop_assert_eq!(found, held);
        }
    }

    #[test]
    fn journal_recovery_always_reproduces_live_state(ops in db_ops_strategy()) {
        let mut db = Database::new();
        db.create_table("t", &["k", "v"], &["v"]).unwrap();
        for op in &ops {
            let _ = apply(&mut db, op);
        }
        let recovered = Database::recover(db.journal()).unwrap();
        prop_assert_eq!(snapshot(&recovered), snapshot(&db));
        prop_assert_eq!(recovered.footprint(), db.footprint());
        prop_assert_eq!(recovered.len("t").unwrap(), db.len("t").unwrap());
    }

    #[test]
    fn footprint_is_exactly_the_sum_of_live_rows(ops in db_ops_strategy()) {
        let mut db = Database::new();
        db.create_table("t", &["k", "v"], &[]).unwrap();
        for op in &ops {
            let _ = apply(&mut db, op);
        }
        let expected: usize = db
            .select("t", |_| true)
            .unwrap()
            .iter()
            .map(|r| r.iter().map(Value::footprint).sum::<usize>())
            .sum();
        prop_assert_eq!(db.footprint(), expected);
    }
}

// ---------------------------------------------------------------------
// Security invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn macs_reject_any_bitflip(msg in proptest::collection::vec(any::<u8>(), 1..128), byte in 0usize..128, bit in 0u8..8) {
        let mac = Mac::new(b"property-key");
        let tag = mac.compute(&msg);
        let mut tampered = msg.clone();
        let idx = byte % tampered.len();
        tampered[idx] ^= 1 << bit;
        if tampered != msg {
            prop_assert!(!mac.verify(&tampered, &tag));
        }
        prop_assert!(mac.verify(&msg, &tag));
    }

    #[test]
    fn payment_totals_balance_exactly(amounts in proptest::collection::vec(1u64..5_000, 1..20)) {
        let client = Mac::new(b"c");
        let mut gw = PaymentGateway::new(client, Mac::new(b"g"));
        let opening = 1_000_000u64;
        gw.open_account("acct", opening);
        let mut settled = 0u64;
        for (i, &amount) in amounts.iter().enumerate() {
            let req = PaymentRequest::signed(&client, i as u64, amount, "acct", i as u64 + 1);
            if gw.authorize(&req).is_ok() {
                let receipt = gw.capture(i as u64).unwrap();
                prop_assert!(receipt.verify(gw.receipt_mac()));
                settled += amount;
            }
        }
        prop_assert_eq!(gw.balance("acct"), Some(opening - settled));
    }

    #[test]
    fn wtls_records_round_trip_and_reject_truncation(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 1usize..16,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (mut client, mut s2) = mcommerce::security::wtls::handshake(123, 456);
        // Arbitrary bytes are refused with `Err`, never a panic, and
        // leave the session able to open the next genuine record.
        prop_assert!(s2.open(&junk).is_err());
        let record = client.seal(&payload);
        // Truncated copies never verify...
        if record.len() > cut {
            let short = &record[..record.len() - cut];
            prop_assert!(s2.open(short).is_err());
        }
        // ...while the intact record opens to the exact payload.
        prop_assert_eq!(s2.open(&record).unwrap(), payload);
    }
}

// ---------------------------------------------------------------------
// Transport invariant: exact stream delivery under arbitrary loss
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_delivers_the_exact_stream_under_random_loss(
        len in 1usize..60_000,
        loss_pct in 0u32..12,
        seed in 0u64..1_000,
    ) {
        use mcommerce::netstack::node::Network;
        use mcommerce::netstack::{Ip, Subnet};
        use mcommerce::simnet::link::{LinkParams, LossModel};
        use mcommerce::simnet::rng::rng_for;
        use mcommerce::simnet::trace::Trace;
        use mcommerce::simnet::{SimDuration, Simulator};
        use mcommerce::transport::{SocketAddr, Tcp};
        use std::cell::RefCell;
        use std::rc::Rc;

        const A: Ip = Ip::new(10, 0, 0, 1);
        const B: Ip = Ip::new(10, 0, 0, 2);

        let mut sim = Simulator::new();
        let mut net = Network::new();
        let a = net.add_node("a", A);
        let b = net.add_node("b", B);
        let mut params = LinkParams::reliable(5_000_000, SimDuration::from_millis(8));
        params.queue_capacity = 4096;
        if loss_pct > 0 {
            params.loss = LossModel::Bernoulli { p: loss_pct as f64 / 100.0 };
        }
        let (ab, ba) = Network::connect(&a, A, &b, B, params);
        ab.set_rng(rng_for(seed, "prop.ab"));
        ba.set_rng(rng_for(seed, "prop.ba"));
        a.add_route(Subnet::DEFAULT, B);
        b.add_route(Subnet::DEFAULT, A);

        let tcp_a = Tcp::install(a, Trace::bounded(16));
        let tcp_b = Tcp::install(b, Trace::bounded(16));
        let got: Rc<RefCell<Vec<u8>>> = Rc::default();
        {
            let got = Rc::clone(&got);
            tcp_b.listen(80, move |_sim, conn| {
                let got = Rc::clone(&got);
                conn.on_data(move |_sim, data| got.borrow_mut().extend_from_slice(&data));
            });
        }
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let conn = tcp_a.connect(&mut sim, A, SocketAddr::new(B, 80));
        conn.send(&mut sim, &payload);
        sim.run();
        prop_assert_eq!(&*got.borrow(), &payload, "stream corrupted (loss {}%)", loss_pct);
    }
}
