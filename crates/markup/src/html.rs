//! HTML: what the host computers' web servers produce.
//!
//! §7: the web server "manages the Web pages stored on the Web site's
//! database" and responds in HTML; the WAP gateway then translates to WML
//! (§5.1). This module provides the HTML parse entry point, the
//! [`PageWriter`] the host's application programs render with, and tree
//! builders for what needs a tree (gateway error cards, transcoder
//! fixtures).

use crate::dom::{push_escaped, Element, Node};
use crate::parse::{self, ParseMarkupError};
use crate::text::Text;

/// Parses an HTML document (well-formed subset; see [`crate::parse`]).
///
/// # Errors
///
/// Returns [`ParseMarkupError`] on malformed markup.
pub fn parse_html(input: &str) -> Result<Element, ParseMarkupError> {
    parse::parse(input)
}

/// Builds a minimal well-formed page: `<html><head><title>…</title></head>
/// <body>…</body></html>`.
///
/// ```
/// use markup::{html, Element, Node};
/// let page = html::page("Cart", vec![
///     Element::new("p").with_text("2 items").into(),
/// ]);
/// assert_eq!(page.find("title").unwrap().text_content(), "Cart");
/// ```
pub fn page(title: &str, body_children: Vec<Node>) -> Element {
    let mut body = Element::new("body");
    for child in body_children {
        body.push_child(child);
    }
    Element::new("html")
        .with_child(Element::new("head").with_child(Element::new("title").with_text(title)))
        .with_child(body)
}

/// Initial body-buffer size: every Commerce page fits (the largest, a
/// search listing the whole catalogue, is under 400 bytes), so the hot
/// pages never regrow their buffer.
const PAGE_CAPACITY: usize = 512;

/// Writes a page straight into its body bytes: exactly the markup
/// `page(title, nodes).to_markup()` produces for the same nodes, with no
/// tree in between. Texts and hrefs are any [`Text`] — a string, an
/// integer, a tuple of them — appended into the buffer and then escaped
/// in place, so a page allocates only its buffer.
///
/// ```
/// use markup::html::{self, PageWriter};
/// let mut w = PageWriter::new("Cart");
/// w.h1("Your cart").p((2, " items"));
/// let tree = html::page("Cart", vec![html::h1("Your cart").into(), html::p("2 items").into()]);
/// assert_eq!(w.finish(), tree.to_markup());
/// ```
#[derive(Debug)]
pub struct PageWriter {
    out: String,
    /// Whether `<body` has been closed by a first child; a body without
    /// children self-closes, as an empty element does.
    body_open: bool,
}

impl PageWriter {
    /// Starts a page: `<html><head><title>…</title></head><body`.
    pub fn new(title: impl Text) -> Self {
        let mut out = String::with_capacity(PAGE_CAPACITY);
        out.push_str("<html><head><title>");
        push_escaped(&mut out, title);
        out.push_str("</title></head><body");
        PageWriter {
            out,
            body_open: false,
        }
    }

    /// The buffer, positioned for the next body child.
    fn child(&mut self) -> &mut String {
        if !self.body_open {
            self.out.push('>');
            self.body_open = true;
        }
        &mut self.out
    }

    fn text_element(&mut self, tag: &str, text: impl Text) -> &mut Self {
        let out = self.child();
        out.push('<');
        out.push_str(tag);
        out.push('>');
        push_escaped(out, text);
        out.push_str("</");
        out.push_str(tag);
        out.push('>');
        self
    }

    /// A heading, as [`h1`].
    pub fn h1(&mut self, text: impl Text) -> &mut Self {
        self.text_element("h1", text)
    }

    /// A paragraph, as [`p`].
    pub fn p(&mut self, text: impl Text) -> &mut Self {
        self.text_element("p", text)
    }

    /// Preformatted text: `<pre>…</pre>`.
    pub fn pre(&mut self, text: impl Text) -> &mut Self {
        self.text_element("pre", text)
    }

    /// An anchor, as [`a`].
    pub fn a(&mut self, href: impl Text, text: impl Text) -> &mut Self {
        let out = self.child();
        out.push_str("<a href=\"");
        push_escaped(out, href);
        out.push_str("\">");
        push_escaped(out, text);
        out.push_str("</a>");
        self
    }

    /// A two-column table, as [`table`].
    pub fn table<K: Text, V: Text>(&mut self, rows: impl IntoIterator<Item = (K, V)>) -> &mut Self {
        let out = self.child();
        out.push_str("<table");
        let mut empty = true;
        for (k, v) in rows {
            if empty {
                out.push('>');
                empty = false;
            }
            out.push_str("<tr><td>");
            push_escaped(out, k);
            out.push_str("</td><td>");
            push_escaped(out, v);
            out.push_str("</td></tr>");
        }
        out.push_str(if empty { "/>" } else { "</table>" });
        self
    }

    /// A single-field form, as [`form`].
    pub fn form(
        &mut self,
        action: impl Text,
        field_name: impl Text,
        submit_label: impl Text,
    ) -> &mut Self {
        let out = self.child();
        out.push_str("<form action=\"");
        push_escaped(out, action);
        out.push_str("\" method=\"post\"><input type=\"text\" name=\"");
        push_escaped(out, field_name);
        out.push_str("\"/><input type=\"submit\" value=\"");
        push_escaped(out, submit_label);
        out.push_str("\"/></form>");
        self
    }

    /// Closes the body and the document and returns the markup.
    pub fn finish(mut self) -> String {
        self.out.push_str(if self.body_open {
            "</body></html>"
        } else {
            "/></html>"
        });
        self.out
    }
}

/// A heading element.
pub fn h1(text: &str) -> Element {
    Element::new("h1").with_text(text)
}

/// A paragraph element.
pub fn p(text: &str) -> Element {
    Element::new("p").with_text(text)
}

/// An anchor element.
pub fn a(href: &str, text: &str) -> Element {
    Element::new("a").with_attr("href", href).with_text(text)
}

/// An unordered list of text items.
pub fn ul<I: IntoIterator<Item = S>, S: Into<String>>(items: I) -> Element {
    let mut list = Element::new("ul");
    for item in items {
        list.push_child(Element::new("li").with_text(item));
    }
    list
}

/// A two-column table from `(key, value)` rows.
pub fn table<'a>(rows: impl IntoIterator<Item = (&'a str, &'a str)>) -> Element {
    let mut table = Element::new("table");
    for (k, v) in rows {
        table.push_child(
            Element::new("tr")
                .with_child(Element::new("td").with_text(k))
                .with_child(Element::new("td").with_text(v)),
        );
    }
    table
}

/// A single-field form posting to `action`.
pub fn form(action: &str, field_name: &str, submit_label: &str) -> Element {
    Element::new("form")
        .with_attr("action", action)
        .with_attr("method", "post")
        .with_child(
            Element::new("input")
                .with_attr("type", "text")
                .with_attr("name", field_name),
        )
        .with_child(
            Element::new("input")
                .with_attr("type", "submit")
                .with_attr("value", submit_label),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::MAX_DEPTH;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for levels in [5_000, 100_000] {
            assert!(parse_html(&"<div>".repeat(levels)).is_err());
        }
        let ok = format!("{}{}", "<div>".repeat(MAX_DEPTH), "</div>".repeat(MAX_DEPTH));
        assert!(parse_html(&ok).is_ok());
        assert!(parse_html(&format!("<div>{ok}</div>")).is_err());
    }

    #[test]
    fn page_has_canonical_shape() {
        let doc = page("Store", vec![p("welcome").into(), a("/buy", "buy").into()]);
        assert_eq!(doc.tag(), "html");
        let tags: Vec<&str> = doc
            .children()
            .iter()
            .filter_map(|c| c.as_element())
            .map(|e| e.tag())
            .collect();
        assert_eq!(tags, vec!["head", "body"]);
        assert!(doc.to_markup().contains("<title>Store</title>"));
    }

    #[test]
    fn page_round_trips_through_the_parser() {
        let doc = page(
            "Inventory",
            vec![
                h1("Items").into(),
                ul(["widget", "gadget"]).into(),
                table([("sku", "42"), ("qty", "7")]).into(),
                form("/track", "sku", "Track").into(),
            ],
        );
        let reparsed = parse_html(&doc.to_markup()).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn helpers_produce_expected_markup() {
        assert_eq!(p("x").to_markup(), "<p>x</p>");
        assert_eq!(a("/c", "go").to_markup(), r#"<a href="/c">go</a>"#);
        assert_eq!(ul(["i"]).to_markup(), "<ul><li>i</li></ul>");
        assert!(form("/a", "q", "Go")
            .to_markup()
            .contains(r#"type="submit""#));
    }

    #[test]
    fn writer_self_closes_empty_bodies_and_tables() {
        assert_eq!(
            PageWriter::new("").finish(),
            "<html><head><title></title></head><body/></html>"
        );
        let mut w = PageWriter::new("t");
        w.table(std::iter::empty::<(&str, &str)>()).p("");
        assert_eq!(
            w.finish(),
            "<html><head><title>t</title></head><body><table/><p></p></body></html>"
        );
    }

    /// Texts the writer must serialise exactly as the tree does: empty,
    /// whitespace-only, whitespace runs with tabs and newlines, the four
    /// escaped characters, and non-ASCII.
    fn text() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            "[ \t\n]{1,4}",
            "[a-c &<>\"\t\n]{0,12}",
            "[a-zé€日 ]{0,10}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_writer_is_the_tree_serialiser(
            title in text(),
            ops in collection::vec(
                (0u8..6, text(), text(), text(), collection::vec((text(), text()), 0..3)),
                0..7,
            ),
        ) {
            let mut w = PageWriter::new(&title);
            let mut nodes: Vec<Node> = Vec::new();
            for (kind, x, y, z, rows) in &ops {
                match kind {
                    0 => {
                        w.h1(x);
                        nodes.push(h1(x).into());
                    }
                    1 => {
                        // Two pieces through one formatter: escaping per
                        // piece must equal escaping the whole.
                        w.p(format_args!("{x}{y}"));
                        nodes.push(p(&format!("{x}{y}")).into());
                    }
                    2 => {
                        w.a(x, y);
                        nodes.push(a(x, y).into());
                    }
                    3 => {
                        w.pre(x);
                        nodes.push(Element::new("pre").with_text(x.as_str()).into());
                    }
                    4 => {
                        w.table(rows.iter().map(|(k, v)| (k, v)));
                        nodes.push(
                            table(rows.iter().map(|(k, v)| (k.as_str(), v.as_str()))).into(),
                        );
                    }
                    _ => {
                        w.form(x, y, z);
                        nodes.push(form(x, y, z).into());
                    }
                }
            }
            prop_assert_eq!(w.finish(), page(&title, nodes).to_markup());
        }

        /// A tuple's pieces are escaped as one text: given pieces holding
        /// `& < > "` anywhere, the writer writes what the `format_args!`
        /// form writes and what the tree serialises.
        #[test]
        fn tuples_write_what_format_args_wrote(
            pieces in collection::vec("[a-c&<>\"é ]{0,6}", 3),
            n in any::<i64>(),
        ) {
            let (x, y, z) = (&pieces[0], &pieces[1], &pieces[2]);
            let mut tuple = PageWriter::new((x, n));
            tuple
                .a((x, n, y), (y, '&', z))
                .p((z, x.as_str()))
                .table([((x, y), (n, z))])
                .form((x, y), (y, '"'), (z, n, x));
            let mut args = PageWriter::new(format_args!("{x}{n}"));
            args.a(format_args!("{x}{n}{y}"), format_args!("{y}&{z}"))
                .p(format_args!("{z}{x}"))
                .table([(format_args!("{x}{y}"), format_args!("{n}{z}"))])
                .form(
                    format_args!("{x}{y}"),
                    format_args!("{y}\""),
                    format_args!("{z}{n}{x}"),
                );
            let tree = page(
                &format!("{x}{n}"),
                vec![
                    a(&format!("{x}{n}{y}"), &format!("{y}&{z}")).into(),
                    p(&format!("{z}{x}")).into(),
                    table([(format!("{x}{y}").as_str(), format!("{n}{z}").as_str())]).into(),
                    form(&format!("{x}{y}"), &format!("{y}\""), &format!("{z}{n}{x}")).into(),
                ],
            );
            let tuple = tuple.finish();
            prop_assert_eq!(&tuple, &args.finish());
            prop_assert_eq!(tuple, tree.to_markup());
        }
    }
}
