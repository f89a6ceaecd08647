//! The microbrowser.
//!
//! Mobile stations browse through a *microbrowser* (§7 calls host-side
//! programs aware of "the targets, browsers or microbrowsers, they
//! serve"). This one parses WML (textual or WBXML binary), cHTML or HTML,
//! enforces the device's content budget, lays text out into screen-width
//! lines, collects links and forms, and reports how long the parse+render
//! took on the device's CPU — the quantity the Table 2 experiment sweeps
//! across devices. It also keeps the station-side cookie jar (§7 notes
//! cookies are among the few client-side programs).

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use markup::dom::{Element, Node};
use markup::{wbxml, wml};
use simnet::SimDuration;

use crate::device::DeviceProfile;

/// Content types the microbrowser can be handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentKind {
    /// Textual WML deck.
    Wml,
    /// WBXML-encoded binary WML deck.
    WmlBinary,
    /// Compact HTML page.
    Chtml,
    /// Full HTML (desktop-grade; heavy for a handheld).
    Html,
}

/// Errors the browser can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum BrowserError {
    /// The payload exceeds the device's content budget.
    TooLarge {
        /// Payload size.
        size: usize,
        /// The device's budget.
        budget: usize,
    },
    /// The markup failed to parse.
    BadMarkup(String),
    /// A WML deck failed validation.
    BadWml(String),
}

impl std::fmt::Display for BrowserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrowserError::TooLarge { size, budget } => {
                write!(
                    f,
                    "content of {size} bytes exceeds device budget of {budget} bytes"
                )
            }
            BrowserError::BadMarkup(m) => write!(f, "unparseable markup: {m}"),
            BrowserError::BadWml(m) => write!(f, "invalid WML: {m}"),
        }
    }
}

impl std::error::Error for BrowserError {}

/// The outcome of rendering a page or deck card.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedPage {
    /// Page or card title.
    pub(crate) title: String,
    /// Laid-out text lines, each at most the device's line width.
    pub lines: Vec<String>,
    /// `(label, href)` of every link, in document order.
    pub(crate) links: Vec<(String, String)>,
    /// Names of input fields present.
    pub(crate) inputs: Vec<String>,
    /// Number of cards in the deck (1 for cHTML/HTML pages).
    pub(crate) card_count: usize,
    /// CPU time the parse+render took on this device.
    pub cost: SimDuration,
}

/// A rendered page plus its joined screen text and title — what the
/// memoised render path hands out, so the per-transaction `lines.join`
/// happens once per distinct payload instead of once per transaction.
/// Text and title are shared strings: a transaction's outcome takes a
/// reference to them rather than a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedView {
    /// The rendered page.
    pub page: RenderedPage,
    /// `page.lines` joined with `\n`, computed once.
    pub text: Arc<str>,
    /// `page.title` as a shared string.
    pub title: Arc<str>,
}

impl RenderedView {
    /// Builds the view for a freshly rendered page.
    pub fn of(page: RenderedPage) -> Self {
        let text = page.lines.join("\n").into();
        let title = page.title.as_str().into();
        RenderedView { page, text, title }
    }
}

/// A bounded, shard-local memo of pure render results.
///
/// [`Microbrowser::render`] is a pure function of `(content, kind)` and
/// the device profile: no clock, no randomness, no cookie-jar reads. A
/// fleet shard renders the same storefront deck once per user, so the
/// memo replays the first render — an `Rc` bump instead of a parse,
/// validate and layout pass. Hits are byte-identical to fresh renders,
/// so attaching a memo never changes a transaction; shards never share
/// one across threads, keeping fixed-seed runs digest-identical at any
/// thread count. A [`simnet::BodyMemo`]: a deck that arrives as the same
/// refcounted slice is found without hashing its bytes, and inserts stop
/// at the capacity bound so per-user unique decks (receipts) cannot grow
/// it O(users).
pub type RenderMemo = simnet::BodyMemo<ContentKind, Rc<RenderedView>>;

/// A microbrowser bound to a device profile.
#[derive(Debug)]
pub struct Microbrowser {
    device: DeviceProfile,
    cookies: BTreeMap<String, String>,
}

impl Microbrowser {
    /// Creates a browser for `device`.
    pub fn new(device: DeviceProfile) -> Self {
        Microbrowser {
            device,
            cookies: BTreeMap::new(),
        }
    }

    /// The device this browser runs on.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The cookie jar.
    pub fn cookies(&self) -> &BTreeMap<String, String> {
        &self.cookies
    }

    /// Stores cookies set by a response.
    pub fn accept_cookies<'a>(&mut self, cookies: impl IntoIterator<Item = (&'a str, &'a str)>) {
        for (k, v) in cookies {
            self.cookies.insert(k.to_owned(), v.to_owned());
        }
    }

    /// Parses and renders `content`, charging device-scaled CPU time.
    ///
    /// # Errors
    ///
    /// [`BrowserError::TooLarge`] when the payload exceeds the device
    /// budget, [`BrowserError::BadMarkup`]/[`BrowserError::BadWml`] on
    /// malformed content.
    pub fn render(&self, content: &[u8], kind: ContentKind) -> Result<RenderedPage, BrowserError> {
        self.render_prepared(content, kind, None)
    }

    /// [`Microbrowser::render`], optionally handed `content`'s already
    /// parsed/decoded tree (`Exchange::deck`) so the decode step is
    /// skipped. The caller guarantees the tree is exactly what decoding
    /// `content` would produce; size budget, validation, layout and the
    /// device cost model all still run against `content`.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Microbrowser::render`] produces.
    pub fn render_prepared(
        &self,
        content: &[u8],
        kind: ContentKind,
        prepared: Option<&Element>,
    ) -> Result<RenderedPage, BrowserError> {
        let budget = self.device.content_budget_bytes();
        if content.len() > budget {
            return Err(BrowserError::TooLarge {
                size: content.len(),
                budget,
            });
        }

        let decoded: Element;
        let root: &Element = match prepared {
            Some(root) => root,
            None => {
                decoded = match kind {
                    ContentKind::WmlBinary => {
                        wbxml::decode(content).map_err(|e| BrowserError::BadMarkup(e.to_string()))?
                    }
                    ContentKind::Wml | ContentKind::Chtml | ContentKind::Html => {
                        let text = std::str::from_utf8(content)
                            .map_err(|e| BrowserError::BadMarkup(e.to_string()))?;
                        markup::parse::parse(text)
                            .map_err(|e| BrowserError::BadMarkup(e.to_string()))?
                    }
                };
                &decoded
            }
        };

        let card_count = match kind {
            ContentKind::Wml | ContentKind::WmlBinary => {
                wml::validate(root).map_err(|e| BrowserError::BadWml(e.message))?;
                wml::card_ids(root).len()
            }
            _ => 1,
        };

        // Title: WML card title attr, else <title> element.
        let title = match kind {
            ContentKind::Wml | ContentKind::WmlBinary => root
                .find("card")
                .and_then(|c| c.attr("title"))
                .unwrap_or("")
                .to_owned(),
            _ => root
                .find("title")
                .map(|t| t.text_content())
                .unwrap_or_default(),
        };

        // For WML, render the first card; for pages, the body.
        let scope: &Element = match kind {
            ContentKind::Wml | ContentKind::WmlBinary => root.find("card").unwrap_or(root),
            _ => root.find("body").unwrap_or(root),
        };

        let mut links = Vec::new();
        let mut inputs = Vec::new();
        let mut raw_lines: Vec<String> = Vec::new();
        collect_content(scope, &mut raw_lines, &mut links, &mut inputs);

        // Wrap to the device's line width.
        let width = self.device.chars_per_line();
        let mut lines = Vec::new();
        for raw in &raw_lines {
            wrap_into(raw, width, &mut lines);
        }

        let text_bytes: usize = lines.iter().map(String::len).sum();
        let cost = self.device.parse_cost(content.len())
            + self.device.render_cost(root.element_count(), text_bytes);

        Ok(RenderedPage {
            title,
            lines,
            links,
            inputs,
            card_count,
            cost,
        })
    }

    /// [`Microbrowser::render`] through a shard-local [`RenderMemo`]:
    /// repeated payloads replay the first render (an `Rc` bump), new
    /// ones run the full pipeline and are stored up to the memo bound.
    /// Render errors are never memoised — they are rare and recomputing
    /// keeps the memo a plain success cache.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Microbrowser::render`] produces.
    pub fn render_memoized(
        &self,
        content: &bytes::Bytes,
        kind: ContentKind,
        prepared: Option<&Element>,
        memo: &mut RenderMemo,
    ) -> Result<Rc<RenderedView>, BrowserError> {
        if let Some(view) = memo.get(kind, content) {
            return Ok(view);
        }
        let view = Rc::new(RenderedView::of(self.render_prepared(content, kind, prepared)?));
        memo.insert(kind, content.clone(), Rc::clone(&view));
        Ok(view)
    }
}

/// Gathers block text lines, links and inputs from an element subtree.
fn collect_content(
    scope: &Element,
    lines: &mut Vec<String>,
    links: &mut Vec<(String, String)>,
    inputs: &mut Vec<String>,
) {
    // Block-level accumulation: each <p>/<h*>/<li> becomes a line seed.
    let mut current = String::new();
    collect_inline(scope, &mut current, lines, links, inputs);
    if !current.trim().is_empty() {
        lines.push(current.trim().to_owned());
    }
}

fn collect_inline(
    e: &Element,
    current: &mut String,
    lines: &mut Vec<String>,
    links: &mut Vec<(String, String)>,
    inputs: &mut Vec<String>,
) {
    for child in e.children() {
        match child {
            Node::Text(t) => current.push_str(t),
            Node::Element(inner) => match inner.tag() {
                "p" | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" | "li" | "div" | "tr" => {
                    if !current.trim().is_empty() {
                        lines.push(current.trim().to_owned());
                    }
                    current.clear();
                    collect_inline(inner, current, lines, links, inputs);
                    if !current.trim().is_empty() {
                        lines.push(current.trim().to_owned());
                    }
                    current.clear();
                }
                "br" => {
                    lines.push(current.trim().to_owned());
                    current.clear();
                }
                "a" => {
                    let label = inner.text_content();
                    current.push_str(&label);
                    links.push((label, inner.attr("href").unwrap_or("").to_owned()));
                }
                "input" => {
                    if let Some(name) = inner.attr("name") {
                        inputs.push(name.to_owned());
                    }
                }
                "go" => {
                    links.push((
                        "submit".to_owned(),
                        inner.attr("href").unwrap_or("").to_owned(),
                    ));
                }
                _ => collect_inline(inner, current, lines, links, inputs),
            },
        }
    }
}

/// Greedy word-wrap of `text` into `width`-character lines appended to `out`.
fn wrap_into(text: &str, width: usize, out: &mut Vec<String>) {
    let mut line = String::new();
    for word in text.split_whitespace() {
        if line.is_empty() {
            line = word.to_owned();
        } else if line.len() + 1 + word.len() <= width {
            line.push(' ');
            line.push_str(word);
        } else {
            out.push(std::mem::take(&mut line));
            line = word.to_owned();
        }
        // Hard-break pathological words.
        while line.len() > width {
            let head: String = line.chars().take(width).collect();
            out.push(head.clone());
            line = line[head.len()..].to_owned();
        }
    }
    if !line.is_empty() {
        out.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use markup::html;
    use markup::transcode::{html_to_wml, WmlOptions};

    fn sample_deck_bytes() -> Vec<u8> {
        let page = html::page(
            "Shop",
            vec![
                html::h1("Mobile Shop").into(),
                html::p("Everything you need while on the move").into(),
                html::a("/cart", "View cart").into(),
            ],
        );
        html_to_wml(&page, &WmlOptions::default())
            .to_markup()
            .into_bytes()
    }

    #[test]
    fn renders_wml_with_title_links_and_lines() {
        let browser = Microbrowser::new(DeviceProfile::palm_i705());
        let page = browser
            .render(&sample_deck_bytes(), ContentKind::Wml)
            .unwrap();
        assert_eq!(page.title, "Shop");
        assert_eq!(page.card_count, 1);
        assert!(page.lines.iter().any(|l| l.contains("Mobile Shop")));
        assert_eq!(page.links[0].1, "/cart");
        assert!(page.cost > SimDuration::ZERO);
    }

    #[test]
    fn lines_respect_device_width() {
        let browser = Microbrowser::new(DeviceProfile::palm_i705());
        let width = browser.device().chars_per_line();
        let page = browser
            .render(&sample_deck_bytes(), ContentKind::Wml)
            .unwrap();
        for line in &page.lines {
            assert!(line.len() <= width, "{line:?} exceeds {width}");
        }
    }

    #[test]
    fn binary_wml_renders_identically_to_text() {
        let deck_text = sample_deck_bytes();
        let deck = markup::parse::parse(std::str::from_utf8(&deck_text).unwrap()).unwrap();
        let binary = markup::wbxml::encode(&deck);
        let browser = Microbrowser::new(DeviceProfile::sony_clie_nr70v());
        let from_text = browser.render(&deck_text, ContentKind::Wml).unwrap();
        let from_binary = browser.render(&binary, ContentKind::WmlBinary).unwrap();
        assert_eq!(from_text.lines, from_binary.lines);
        assert_eq!(from_text.links, from_binary.links);
        // The binary payload parses faster (fewer bytes through the parser).
        assert!(from_binary.cost <= from_text.cost);
    }

    #[test]
    fn oversized_content_is_rejected() {
        let browser = Microbrowser::new(DeviceProfile::palm_i705());
        let budget = browser.device().content_budget_bytes();
        let huge = format!(
            "<wml><card id=\"a\"><p>{}</p></card></wml>",
            "x".repeat(budget)
        );
        let err = browser
            .render(huge.as_bytes(), ContentKind::Wml)
            .unwrap_err();
        assert!(matches!(err, BrowserError::TooLarge { .. }));
        // A roomier device loads the same deck fine.
        let big_browser = Microbrowser::new(DeviceProfile::toshiba_e740());
        assert!(big_browser
            .render(huge.as_bytes(), ContentKind::Wml)
            .is_ok());
    }

    #[test]
    fn slow_devices_pay_more_cpu_time_for_the_same_deck() {
        let deck = sample_deck_bytes();
        let slow = Microbrowser::new(DeviceProfile::palm_i705())
            .render(&deck, ContentKind::Wml)
            .unwrap();
        let fast = Microbrowser::new(DeviceProfile::toshiba_e740())
            .render(&deck, ContentKind::Wml)
            .unwrap();
        assert!(slow.cost > fast.cost * 5);
    }

    #[test]
    fn bad_markup_and_bad_wml_are_distinct_errors() {
        let browser = Microbrowser::new(DeviceProfile::ipaq_h3870());
        let err = browser
            .render(b"<wml><card>", ContentKind::Wml)
            .unwrap_err();
        assert!(matches!(err, BrowserError::BadMarkup(_)));
        let err = browser
            .render(b"<html><body>not wml</body></html>", ContentKind::Wml)
            .unwrap_err();
        assert!(matches!(err, BrowserError::BadWml(_)));
    }

    #[test]
    fn chtml_pages_render_with_inputs() {
        let page = html::page(
            "Order",
            vec![
                html::p("Enter SKU:").into(),
                html::form("/order", "sku", "Go").into(),
            ],
        );
        let chtml = markup::transcode::html_to_chtml(&page);
        let browser = Microbrowser::new(DeviceProfile::nokia_9290());
        let rendered = browser
            .render(chtml.to_markup().as_bytes(), ContentKind::Chtml)
            .unwrap();
        assert_eq!(rendered.title, "Order");
        assert!(rendered.inputs.contains(&"sku".to_owned()));
    }

    #[test]
    fn cookie_jar_accumulates() {
        let mut browser = Microbrowser::new(DeviceProfile::ipaq_h3870());
        browser.accept_cookies([("sid", "abc")]);
        browser.accept_cookies([("pref", "1"), ("sid", "def")]);
        assert_eq!(
            browser.cookies().get("sid").map(String::as_str),
            Some("def")
        );
        assert_eq!(browser.cookies().len(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        // Render through the memo over equal-content decks in distinct
        // allocations, same-start shorter views, shifted views (mostly
        // malformed, so errors are in play) and more distinct decks than
        // the memo holds: every result equals a fresh render, and hits
        // and misses are those of a content-only memo.
        #[test]
        fn memoized_renders_match_a_content_only_memo(
            capacity in 1usize..8,
            contents in 1usize..16,
            probes in proptest::collection::vec(
                (0u8..2, 0usize..32, 0usize..3, 0usize..12), 1..120),
        ) {
            let browser = Microbrowser::new(DeviceProfile::ipaq_h3870());
            let pool: Vec<bytes::Bytes> = (0..2 * contents)
                .map(|i| {
                    let page = html::page("Shop", vec![html::p(&format!("Item {}", i / 2)).into()]);
                    bytes::Bytes::from(html_to_wml(&page, &WmlOptions::default()).to_markup())
                })
                .collect();
            let mut memo = RenderMemo::with_capacity(capacity);
            let mut reference = std::collections::HashSet::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (html_kind, pick, view, cut) in probes {
                let kind = if html_kind == 1 { ContentKind::Html } else { ContentKind::Wml };
                let whole = &pool[pick % pool.len()];
                let probe = match view {
                    0 => whole.clone(),
                    1 => whole.slice(..whole.len() - cut),
                    _ => whole.slice(cut..),
                };
                let fresh = browser.render(&probe, kind);
                let key = (kind, probe.to_vec());
                if reference.contains(&key) {
                    hits += 1;
                } else {
                    misses += 1;
                    if fresh.is_ok() && reference.len() < capacity {
                        reference.insert(key);
                    }
                }
                let got = browser.render_memoized(&probe, kind, None, &mut memo);
                proptest::prop_assert_eq!(got.map(|v| v.page.clone()), fresh);
                proptest::prop_assert_eq!((memo.hits(), memo.misses()), (hits, misses));
                proptest::prop_assert!(memo.aliases() <= memo.capacity());
            }
        }
    }
}
