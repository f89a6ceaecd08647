//! The element tree shared by HTML, WML and cHTML.

use std::borrow::Cow;
use std::fmt;

use crate::text::{find_any, Text};

/// A node in a markup document: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element with a tag, attributes and children.
    Element(Element),
    /// A text run (entity-decoded).
    Text(String),
}

impl Node {
    /// Builds a text node.
    pub fn text(s: impl Into<String>) -> Node {
        Node::Text(s.into())
    }

    /// The element inside this node, if it is one.
    pub(crate) fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }
}

impl From<Element> for Node {
    fn from(e: Element) -> Node {
        Node::Element(e)
    }
}

/// Deepest element nesting the decoders accept, the root being level 1:
/// [`crate::parse::parse`] and [`crate::wbxml::decode`] return `Err` on
/// anything deeper rather than overflowing the stack. Every walk over a
/// tree (drop, clone, comparison, serialisation, [`crate::wbxml::encode`],
/// transcoding) recurses once per level too, so none of them recurses
/// deeper than this on a decoded tree. The engines' documents nest a
/// handful of levels.
pub(crate) const MAX_DEPTH: usize = 128;

/// An element: tag name, ordered attributes, ordered children.
///
/// ```
/// use markup::{Element, Node};
/// let doc = Element::new("p")
///     .with_attr("class", "intro")
///     .with_child(Node::text("Hello "))
///     .with_child(Element::new("b").with_child(Node::text("mobile")));
/// assert_eq!(doc.text_content(), "Hello mobile");
/// assert_eq!(doc.to_markup(), r#"<p class="intro">Hello <b>mobile</b></p>"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    tag: Cow<'static, str>,
    attrs: Vec<(Cow<'static, str>, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given (lowercased) tag.
    ///
    /// Tag names are `Cow<'static, str>` so the builder idiom —
    /// `Element::new("p")` — stores the literal without allocating;
    /// parsers pass owned `String`s.
    pub fn new(tag: impl Into<Cow<'static, str>>) -> Self {
        let mut tag = tag.into();
        // Lowercase in place only when needed: builder and parser tags
        // are almost always lowercase already, and lowercasing
        // unconditionally would allocate on this very hot path.
        if tag.bytes().any(|b| b.is_ascii_uppercase()) {
            tag.to_mut().make_ascii_lowercase();
        }
        Element {
            tag,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The tag name (always lowercase).
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The tag as an owned handle — a pointer copy for literal-built
    /// elements, a clone for parsed ones. For re-tagging without going
    /// through a borrowed `&str`.
    pub(crate) fn tag_owned(&self) -> Cow<'static, str> {
        self.tag.clone()
    }

    /// The attribute list in document order.
    pub(crate) fn attrs(&self) -> &[(Cow<'static, str>, String)] {
        &self.attrs
    }

    /// The value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) an attribute.
    pub(crate) fn set_attr(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<String>,
    ) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Builder-style `Element::set_attr`.
    pub fn with_attr(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<String>,
    ) -> Self {
        self.set_attr(name, value);
        self
    }

    /// The child list.
    pub fn children(&self) -> &[Node] {
        &self.children
    }

    /// Appends a child node.
    pub fn push_child(&mut self, child: impl Into<Node>) {
        self.children.push(child.into());
    }

    /// Builder-style [`Element::push_child`].
    pub fn with_child(mut self, child: impl Into<Node>) -> Self {
        self.push_child(child);
        self
    }

    /// Builder-style text child.
    pub fn with_text(self, text: impl Into<String>) -> Self {
        self.with_child(Node::text(text))
    }

    /// Concatenated text content of the subtree.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                Node::Text(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
            }
        }
    }

    /// Depth-first iterator over all descendant elements (self included).
    pub(crate) fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }

    /// The first descendant (or self) with tag `tag`.
    pub fn find(&self, tag: &str) -> Option<&Element> {
        self.descendants().find(|e| e.tag == tag)
    }

    /// All descendants (or self) with tag `tag`.
    pub(crate) fn find_all<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.descendants().filter(move |e| e.tag == tag)
    }

    /// Number of elements in the subtree (self included).
    pub fn element_count(&self) -> usize {
        self.descendants().count()
    }

    /// Serialises to markup text with entity escaping.
    pub fn to_markup(&self) -> String {
        let mut out = String::with_capacity(self.markup_len());
        self.write_markup(&mut out);
        out
    }

    /// Lower bound on the serialised length (exact when nothing needs
    /// escaping) — sizes the output buffer in one allocation.
    fn markup_len(&self) -> usize {
        // "<tag/>" or "<tag></tag>".
        let mut len = 2 + self.tag.len()
            + if self.children.is_empty() {
                1
            } else {
                3 + self.tag.len()
            };
        for (k, v) in &self.attrs {
            len += 4 + k.len() + v.len();
        }
        for child in &self.children {
            len += match child {
                Node::Text(t) => t.len(),
                Node::Element(e) => e.markup_len(),
            };
        }
        len
    }

    fn write_markup(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.tag);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            push_escaped(out, v);
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                Node::Text(t) => push_escaped(out, t),
                Node::Element(e) => e.write_markup(out),
            }
        }
        out.push_str("</");
        out.push_str(&self.tag);
        out.push('>');
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markup())
    }
}

/// Iterator returned by [`Element::descendants`].
#[derive(Debug)]
pub(crate) struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<&'a Element> {
        let e = self.stack.pop()?;
        for child in e.children.iter().rev() {
            if let Node::Element(c) = child {
                self.stack.push(c);
            }
        }
        Some(e)
    }
}

/// Escapes `&`, `<`, `>` and `"` for serialisation straight into an
/// output buffer, for any [`Text`]: the text is appended raw and then
/// the span it took is escaped in place.
/// Escaping maps each character on its own, so this equals escaping
/// each piece of a tuple, or the pieces a formatter emits. A span with
/// nothing to escape, the usual case, costs one scan, a word at a time;
/// otherwise the span is rewritten escaped once, from its first escaped
/// character on.
pub(crate) fn push_escaped(out: &mut String, text: impl Text) {
    let start = out.len();
    text.write_to(out);
    let Some(first) = find_any(&out.as_bytes()[start..], [b'&', b'<', b'>', b'"']) else {
        return;
    };
    let (first, end) = (start + first, out.len());
    // Append the escaped rewrite of `first..end`, then drop the raw copy.
    // The cuts fall on ASCII bytes, so they are character boundaries.
    let mut run = first;
    for i in first..end {
        let escaped = match out.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.extend_from_within(run..i);
        out.push_str(escaped);
        run = i + 1;
    }
    out.extend_from_within(run..end);
    out.drain(first..end);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("html")
            .with_child(Element::new("head").with_child(Element::new("title").with_text("Shop")))
            .with_child(
                Element::new("body")
                    .with_child(Element::new("p").with_text("Buy "))
                    .with_child(
                        Element::new("a")
                            .with_attr("href", "/cart")
                            .with_text("now"),
                    ),
            )
    }

    #[test]
    fn builders_and_getters() {
        let e = Element::new("A").with_attr("Href", "/x");
        assert_eq!(e.tag(), "a"); // tag lowercased
        assert_eq!(e.attr("Href"), Some("/x")); // attr case preserved
        assert_eq!(e.attr("nope"), None);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("img");
        e.set_attr("src", "a.png");
        e.set_attr("src", "b.png");
        assert_eq!(e.attr("src"), Some("b.png"));
        assert_eq!(e.attrs().len(), 1);
    }

    #[test]
    fn text_content_concatenates_subtree() {
        assert_eq!(sample().text_content(), "ShopBuy now");
    }

    #[test]
    fn find_locates_descendants() {
        let doc = sample();
        assert_eq!(doc.find("title").unwrap().text_content(), "Shop");
        assert_eq!(doc.find("a").unwrap().attr("href"), Some("/cart"));
        assert!(doc.find("table").is_none());
        assert_eq!(doc.find_all("p").count(), 1);
        assert_eq!(doc.element_count(), 6);
    }

    #[test]
    fn descendants_are_depth_first_in_document_order() {
        let doc = sample();
        let tags: Vec<&str> = doc.descendants().map(|e| e.tag()).collect();
        assert_eq!(tags, vec!["html", "head", "title", "body", "p", "a"]);
    }

    #[test]
    fn serialisation_escapes_entities() {
        let e = Element::new("p")
            .with_attr("title", "a\"b")
            .with_text("1 < 2 & 3 > 2");
        assert_eq!(
            e.to_markup(),
            r#"<p title="a&quot;b">1 &lt; 2 &amp; 3 &gt; 2</p>"#
        );
    }

    #[test]
    fn empty_elements_self_close() {
        assert_eq!(Element::new("br").to_markup(), "<br/>");
    }
}
