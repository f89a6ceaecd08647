//! The per-shard transcode memo — arena-style reuse of translation
//! results across the users of one fleet shard.
//!
//! Every gateway translation (WAP's HTML → WML → WBXML chain, i-mode's
//! HTML → cHTML filter) is a *pure function* of the exact response body
//! and the translation mode: no clock, no randomness, no per-user
//! state. A fleet shard builds a fresh world per user, so the same
//! storefront page crosses the same gateway code millions of times —
//! and re-parsing it every time is pure waste. The memo caches the
//! translated deck keyed by `(mode, body bytes)`; hits hand back a
//! refcounted [`Bytes`] clone of the deck built the first time.
//!
//! # Why determinism survives
//!
//! A hit returns byte-identical content to what a fresh translation
//! would produce (the function is pure, and the key is the *entire*
//! input), so a system with a memo attached executes bit-for-bit the
//! same transactions as one without. Shards never share a memo across
//! threads — each worker owns one via [`SharedTranscodeMemo`] — so the
//! cross-thread digest gate of the F9 experiment is unaffected by
//! population, shard layout, or hit order.
//!
//! # Cost of a hit
//!
//! The memo is a [`simnet::BodyMemo`]: a repeated body that arrives as
//! the same refcounted slice (a gateway- or page-cache hit) is found by
//! address and length, without hashing its bytes, and distinct bodies
//! stop being inserted at `DEFAULT_MEMO_CAPACITY`.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use hostsite::Body;

/// The translation a gateway applied — part of the memo key, since the
/// same HTML translates differently per target encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranscodeMode {
    /// WAP: HTML → WML → WBXML binary deck.
    WmlBinary,
    /// WAP ablation: HTML → textual WML deck.
    WmlText,
    /// i-mode: HTML → cHTML filter.
    Chtml,
}

/// A memoised translation result.
#[derive(Debug, Clone)]
pub struct TranscodedDeck {
    /// The over-the-air payload the translation produced.
    pub(crate) content: Bytes,
    /// Whether the translation took the gateway's flagged path (WAP: the
    /// source HTML failed to parse and an error card was served; i-mode:
    /// the page needed filtering). Replayed into the owning gateway's
    /// counter on every hit, so counters stay identical with and without
    /// the memo.
    pub(crate) flagged: bool,
    /// The parsed form of `content`, when the translation had it in
    /// hand (see `Exchange::deck`). Hits replay the tree too, so the
    /// station-side decode skip survives memoisation.
    pub(crate) deck: Option<std::sync::Arc<markup::Element>>,
}

/// A bounded memo of pure translation results for one fleet shard,
/// keyed by `(mode, body bytes)`.
pub(crate) type TranscodeMemo = simnet::BodyMemo<TranscodeMode, TranscodedDeck>;

/// The handle a fleet shard passes to every gateway it builds: one memo,
/// shared by refcount within the shard's thread, never across threads.
pub type SharedTranscodeMemo = Rc<RefCell<TranscodeMemo>>;

/// Translates `body` under `mode` with `translate`, through the shard
/// memo when one is attached: a hit replays the deck the first
/// translation of the same bytes built, and a miss translates and keeps
/// the deck for the next probe.
pub(crate) fn transcode(
    memo: Option<&SharedTranscodeMemo>,
    mode: TranscodeMode,
    body: &Body,
    translate: impl FnOnce(&str) -> TranscodedDeck,
) -> TranscodedDeck {
    let Some(memo) = memo else {
        return translate(body.as_str());
    };
    let body_buf = body.as_bytes_buf();
    let mut memo = memo.borrow_mut();
    if let Some(deck) = memo.get(mode, &body_buf) {
        return deck;
    }
    let deck = translate(body.as_str());
    memo.insert(mode, body_buf, deck.clone());
    deck
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn body(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn memo_round_trips_by_mode_and_body() {
        let mut memo = TranscodeMemo::new();
        let html = body("<html><body><p>x</p></body></html>");
        assert!(memo.get(TranscodeMode::WmlBinary, &html).is_none());
        memo.insert(
            TranscodeMode::WmlBinary,
            html.clone(),
            TranscodedDeck {
                content: body("deck"),
                flagged: false,
                deck: None,
            },
        );
        let hit = memo.get(TranscodeMode::WmlBinary, &html).expect("hit");
        assert_eq!(hit.content.as_ref(), b"deck");
        assert!(!hit.flagged);
        // Same body under a different mode is a distinct entry.
        assert!(memo.get(TranscodeMode::Chtml, &html).is_none());
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn capacity_bounds_distinct_inserts() {
        let mut memo = TranscodeMemo::with_capacity(2);
        for i in 0..10 {
            memo.insert(
                TranscodeMode::WmlBinary,
                body(&format!("page {i}")),
                TranscodedDeck {
                    content: body("d"),
                    flagged: false,
                    deck: None,
                },
            );
        }
        assert_eq!(memo.len(), 2, "inserts stop at the bound");
        // The first two inputs stay resident.
        assert!(memo.get(TranscodeMode::WmlBinary, &body("page 0")).is_some());
        assert!(memo.get(TranscodeMode::WmlBinary, &body("page 9")).is_none());
    }

    /// A stand-in pure translation: the body reversed, tagged by mode.
    fn translate(mode: TranscodeMode, body: &[u8]) -> Vec<u8> {
        let mut out = vec![mode as u8];
        out.extend(body.iter().rev());
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // The gateway's memo protocol (probe, translate on a miss, store)
        // over equal-content bodies in distinct allocations, same-start
        // shorter views, shifted views, and more distinct bodies than the
        // memo holds: every result is the translation of the probed
        // bytes, and hits and misses are those of a content-only memo.
        #[test]
        fn identity_probes_match_a_content_only_memo(
            capacity in 1usize..10,
            contents in 1usize..20,
            probes in proptest::collection::vec(
                (0usize..3, 0usize..40, 0usize..3, 0usize..6), 1..150),
        ) {
            let modes = [TranscodeMode::WmlBinary, TranscodeMode::WmlText, TranscodeMode::Chtml];
            let pool: Vec<Bytes> = (0..2 * contents)
                .map(|i| body(&format!("<p>page {}</p>", i / 2)))
                .collect();
            let mut memo = TranscodeMemo::with_capacity(capacity);
            let mut reference: HashSet<(TranscodeMode, Vec<u8>)> = HashSet::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (mode, pick, view, cut) in probes {
                let mode = modes[mode];
                let whole = &pool[pick % pool.len()];
                let probe = match view {
                    0 => whole.clone(),
                    1 => whole.slice(..whole.len() - cut),
                    _ => whole.slice(cut..),
                };
                let key = (mode, probe.to_vec());
                if reference.contains(&key) {
                    hits += 1;
                } else {
                    misses += 1;
                }
                let content = match memo.get(mode, &probe) {
                    Some(deck) => deck.content,
                    None => {
                        let content = Bytes::from(translate(mode, &probe));
                        let deck = TranscodedDeck {
                            content: content.clone(),
                            flagged: false,
                            deck: None,
                        };
                        memo.insert(mode, probe.clone(), deck);
                        if reference.len() < capacity {
                            reference.insert(key);
                        }
                        content
                    }
                };
                prop_assert_eq!(content.to_vec(), translate(mode, &probe));
                prop_assert_eq!((memo.hits(), memo.misses()), (hits, misses));
                prop_assert!(memo.aliases() <= memo.capacity());
            }
        }
    }
}
