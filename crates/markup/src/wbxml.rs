//! WBXML-style binary encoding of WML decks.
//!
//! WAP does not ship textual WML over the air: the gateway tokenises it
//! into WBXML, shrinking every known tag and attribute name to one byte.
//! That compression is a big part of why gateway translation wins on
//! narrow links (Table 3's trade-off), so the encoding is implemented for
//! real here. Token values are local to this implementation (stable, but
//! not the WAP Forum's registry values).
//!
//! Format:
//!
//! ```text
//! header:  version(0x03) publicid(0x01) charset(0x6A = UTF-8)
//! element: TAG byte            — bits: 0x80 = has attributes,
//!                                       0x40 = has content
//!          [attributes… END]    (if 0x80)
//!          [content…   END]     (if 0x40)
//! attr:    ATTR byte (or LITERAL + inline name) then STR_I value
//! text:    STR_I utf8-bytes 0x00
//! unknown: LITERAL + inline name
//! ```

use std::fmt;

use crate::dom::{Element, Node, MAX_DEPTH};

const VERSION: u8 = 0x03;
const PUBLIC_ID: u8 = 0x01;
const CHARSET_UTF8: u8 = 0x6A;

const END: u8 = 0x01;
const STR_I: u8 = 0x03;
const LITERAL: u8 = 0x04;

const FLAG_ATTRS: u8 = 0x80;
const FLAG_CONTENT: u8 = 0x40;
const TOKEN_MASK: u8 = 0x3F;

/// `(tag, token)` table. Tokens live in `0x05..=0x3F` after masking.
const TAG_TOKENS: [(&str, u8); 14] = [
    ("wml", 0x05),
    ("card", 0x06),
    ("p", 0x07),
    ("br", 0x08),
    ("a", 0x09),
    ("b", 0x0A),
    ("i", 0x0B),
    ("big", 0x0C),
    ("small", 0x0D),
    ("input", 0x0E),
    ("do", 0x0F),
    ("go", 0x10),
    ("select", 0x11),
    ("option", 0x12),
];

/// `(attribute, token)` table.
const ATTR_TOKENS: [(&str, u8); 8] = [
    ("id", 0x05),
    ("title", 0x06),
    ("href", 0x07),
    ("name", 0x08),
    ("value", 0x09),
    ("type", 0x0A),
    ("label", 0x0B),
    ("method", 0x0C),
];

fn tag_token(tag: &str) -> Option<u8> {
    TAG_TOKENS.iter().find(|(t, _)| *t == tag).map(|&(_, v)| v)
}

fn tag_for_token(token: u8) -> Option<&'static str> {
    TAG_TOKENS
        .iter()
        .find(|&&(_, v)| v == token)
        .map(|&(t, _)| t)
}

fn attr_token(name: &str) -> Option<u8> {
    ATTR_TOKENS
        .iter()
        .find(|(t, _)| *t == name)
        .map(|&(_, v)| v)
}

fn attr_for_token(token: u8) -> Option<&'static str> {
    ATTR_TOKENS
        .iter()
        .find(|&&(_, v)| v == token)
        .map(|&(t, _)| t)
}

/// Error produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeWbxmlError {
    /// Byte offset of the failure.
    pub(crate) offset: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl fmt::Display for DecodeWbxmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WBXML decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DecodeWbxmlError {}

/// Encodes an element tree (typically a WML deck) to binary.
///
/// ```
/// use markup::{wml, wbxml, Element};
/// let deck = wml::deck().with_child(
///     wml::card("home", "Hi").with_child(Element::new("p").with_text("Hello")),
/// );
/// let binary = wbxml::encode(&deck);
/// assert!(binary.len() < deck.to_markup().len());
/// assert_eq!(wbxml::decode(&binary)?, deck);
/// # Ok::<(), markup::wbxml::DecodeWbxmlError>(())
/// ```
pub fn encode(doc: &Element) -> Vec<u8> {
    let mut out = vec![VERSION, PUBLIC_ID, CHARSET_UTF8];
    encode_element(doc, &mut out);
    out
}

fn encode_element(e: &Element, out: &mut Vec<u8>) {
    let has_attrs = !e.attrs().is_empty();
    let has_content = !e.children().is_empty();
    let mut flags = 0u8;
    if has_attrs {
        flags |= FLAG_ATTRS;
    }
    if has_content {
        flags |= FLAG_CONTENT;
    }
    match tag_token(e.tag()) {
        Some(token) => out.push(token | flags),
        None => {
            out.push(LITERAL | flags);
            push_str(e.tag(), out);
        }
    }
    if has_attrs {
        for (name, value) in e.attrs() {
            match attr_token(name) {
                Some(token) => out.push(token),
                None => {
                    out.push(LITERAL);
                    push_str(name, out);
                }
            }
            out.push(STR_I);
            push_str(value, out);
        }
        out.push(END);
    }
    if has_content {
        for child in e.children() {
            match child {
                Node::Text(t) => {
                    out.push(STR_I);
                    push_str(t, out);
                }
                Node::Element(inner) => encode_element(inner, out),
            }
        }
        out.push(END);
    }
}

fn push_str(s: &str, out: &mut Vec<u8>) {
    debug_assert!(
        !s.as_bytes().contains(&0),
        "inline strings are NUL-terminated"
    );
    out.extend_from_slice(s.as_bytes());
    out.push(0);
}

/// Decodes binary WBXML back into an element tree.
///
/// # Errors
///
/// Returns [`DecodeWbxmlError`] on truncated input, bad headers,
/// unknown tokens or elements nested more than 128 levels deep.
pub fn decode(data: &[u8]) -> Result<Element, DecodeWbxmlError> {
    let mut d = Decoder { data, pos: 0 };
    d.expect(VERSION, "version")?;
    d.expect(PUBLIC_ID, "public id")?;
    d.expect(CHARSET_UTF8, "charset")?;
    let root = d.decode_element(1)?;
    if d.pos != d.data.len() {
        return Err(d.err("trailing bytes after document"));
    }
    Ok(root)
}

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn err(&self, message: impl Into<String>) -> DecodeWbxmlError {
        DecodeWbxmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, DecodeWbxmlError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8, what: &str) -> Result<(), DecodeWbxmlError> {
        let got = self.byte()?;
        if got != want {
            return Err(self.err(format!("bad {what}: {got:#04x}, expected {want:#04x}")));
        }
        Ok(())
    }

    fn read_str(&mut self) -> Result<String, DecodeWbxmlError> {
        let start = self.pos;
        while self.peek().ok_or_else(|| self.err("unterminated string"))? != 0 {
            self.pos += 1;
        }
        let s = String::from_utf8(self.data[start..self.pos].to_vec())
            .map_err(|_| self.err("invalid UTF-8 in string"))?;
        self.pos += 1; // NUL
        Ok(s)
    }

    /// Decodes the element at `depth` (the root is 1) and its subtree.
    fn decode_element(&mut self, depth: usize) -> Result<Element, DecodeWbxmlError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
        }
        let b = self.byte()?;
        let flags = b & (FLAG_ATTRS | FLAG_CONTENT);
        let token = b & TOKEN_MASK;
        let mut element = if token == LITERAL {
            Element::new(self.read_str()?)
        } else {
            let tag = tag_for_token(token)
                .ok_or_else(|| self.err(format!("unknown tag token {token:#04x}")))?;
            Element::new(tag)
        };

        if flags & FLAG_ATTRS != 0 {
            loop {
                let b = self.byte()?;
                if b == END {
                    break;
                }
                let name = if b == LITERAL {
                    self.read_str()?
                } else {
                    attr_for_token(b)
                        .ok_or_else(|| self.err(format!("unknown attr token {b:#04x}")))?
                        .to_owned()
                };
                self.expect(STR_I, "attribute value marker")?;
                let value = self.read_str()?;
                element.set_attr(name, value);
            }
        }

        if flags & FLAG_CONTENT != 0 {
            loop {
                match self.peek().ok_or_else(|| self.err("eof inside content"))? {
                    END => {
                        self.pos += 1;
                        break;
                    }
                    STR_I => {
                        self.pos += 1;
                        let text = self.read_str()?;
                        element.push_child(Node::text(text));
                    }
                    _ => {
                        let child = self.decode_element(depth + 1)?;
                        element.push_child(child);
                    }
                }
            }
        }
        Ok(element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcode::{html_to_wml, WmlOptions};
    use crate::{html, wml};

    fn sample_deck() -> Element {
        wml::deck()
            .with_child(
                wml::card("home", "Shop")
                    .with_child(Element::new("p").with_text("Welcome to the shop"))
                    .with_child(
                        Element::new("p").with_child(
                            Element::new("a")
                                .with_attr("href", "#cart")
                                .with_text("View cart"),
                        ),
                    ),
            )
            .with_child(wml::card("cart", "Cart").with_child(Element::new("p").with_text("Empty")))
    }

    /// A WBXML document of `levels` nested `<a>` elements, each opened
    /// with content; `close` appends the END bytes that close them all.
    fn nested(levels: usize, close: bool) -> Vec<u8> {
        let mut doc = vec![VERSION, PUBLIC_ID, CHARSET_UTF8];
        for _ in 0..levels {
            doc.extend_from_slice(&[LITERAL | FLAG_CONTENT, b'a', 0]);
        }
        if close {
            doc.extend(std::iter::repeat_n(END, levels));
        }
        doc
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for levels in [5_000, 100_000] {
            assert!(decode(&nested(levels, false)).is_err());
            assert!(decode(&nested(levels, true)).is_err());
        }
        let ok = decode(&nested(MAX_DEPTH, true)).expect("the bound itself decodes");
        assert_eq!(decode(&encode(&ok)).unwrap(), ok);
        assert!(decode(&nested(MAX_DEPTH + 1, true)).is_err());
    }

    #[test]
    fn round_trip_preserves_the_tree() {
        let deck = sample_deck();
        let binary = encode(&deck);
        let back = decode(&binary).unwrap();
        assert_eq!(deck, back);
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let deck = sample_deck();
        let text_len = deck.to_markup().len();
        let bin_len = encode(&deck).len();
        assert!(
            (bin_len as f64) < 0.8 * text_len as f64,
            "binary {bin_len} vs text {text_len}"
        );
    }

    #[test]
    fn translated_pages_round_trip() {
        let page = html::page(
            "Catalog",
            vec![
                html::h1("Items").into(),
                html::p("Things to buy").into(),
                html::a("/buy?id=1", "first item").into(),
            ],
        );
        let deck = html_to_wml(&page, &WmlOptions::default());
        let back = decode(&encode(&deck)).unwrap();
        assert_eq!(deck, back);
        wml::validate(&back).unwrap();
    }

    #[test]
    fn unknown_tags_and_attrs_use_literals() {
        let doc = Element::new("custom")
            .with_attr("data-x", "1")
            .with_child(Element::new("p").with_text("hi"));
        let back = decode(&encode(&doc)).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0x99, 0x01, 0x6A]).is_err()); // bad version
        assert!(decode(&[VERSION, PUBLIC_ID, CHARSET_UTF8]).is_err()); // no root
                                                                       // Truncated content.
        let deck = sample_deck();
        let mut binary = encode(&deck);
        binary.truncate(binary.len() - 3);
        assert!(decode(&binary).is_err());
        // Trailing junk.
        let mut binary = encode(&deck);
        binary.push(0x42);
        assert!(decode(&binary).is_err());
    }

    #[test]
    fn empty_element_encodes_minimally() {
        let e = Element::new("br");
        let binary = encode(&e);
        assert_eq!(binary.len(), 4); // 3-byte header + 1 tag byte
        assert_eq!(decode(&binary).unwrap(), e);
    }
}
