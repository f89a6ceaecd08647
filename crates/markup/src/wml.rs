//! WML — the Wireless Markup Language WAP serves (Table 3, "Host
//! Language: WML").
//!
//! A WML document is a *deck* of *cards*; the microbrowser displays one
//! card at a time, which is how WAP fits hypertext onto a four-line phone
//! screen. This module defines the vocabulary, deck/card builders and a
//! validator the gateway and the microbrowser both use.

use std::fmt;

use crate::dom::{Element, Node};

/// Tags allowed in our WML subset.
pub(crate) const WML_TAGS: [&str; 14] = [
    "wml", "card", "p", "br", "a", "b", "i", "big", "small", "input", "do", "go", "select",
    "option",
];

/// Error produced by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateWmlError {
    /// What is wrong with the document.
    pub message: String,
}

impl fmt::Display for ValidateWmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid WML: {}", self.message)
    }
}

impl std::error::Error for ValidateWmlError {}

/// Checks that `doc` is a structurally valid WML deck: root `<wml>`,
/// every child a `<card>` with a unique `id`, and only known tags inside.
///
/// # Errors
///
/// Returns [`ValidateWmlError`] describing the first violation found.
pub fn validate(doc: &Element) -> Result<(), ValidateWmlError> {
    let err = |m: String| Err(ValidateWmlError { message: m });
    if doc.tag() != "wml" {
        return err(format!("root must be <wml>, found <{}>", doc.tag()));
    }
    let mut ids = std::collections::HashSet::new();
    for child in doc.children() {
        let Node::Element(card) = child else {
            return err("deck may contain only <card> children".into());
        };
        if card.tag() != "card" {
            return err(format!("deck child must be <card>, found <{}>", card.tag()));
        }
        let Some(id) = card.attr("id") else {
            return err("every card needs an id".into());
        };
        if !ids.insert(id.to_owned()) {
            return err(format!("duplicate card id {id:?}"));
        }
    }
    for e in doc.descendants() {
        if !WML_TAGS.contains(&e.tag()) {
            return err(format!("tag <{}> is not WML", e.tag()));
        }
    }
    Ok(())
}

/// Builds an empty deck.
pub fn deck() -> Element {
    Element::new("wml")
}

/// Builds a card with the given id and title.
pub fn card(id: &str, title: &str) -> Element {
    Element::new("card")
        .with_attr("id", id)
        .with_attr("title", title)
}

/// The serialised (textual) size of a deck in bytes — what a deck-size
/// limit on a constrained device is measured against.
pub(crate) fn deck_bytes(doc: &Element) -> usize {
    doc.to_markup().len()
}

/// The ids of the cards in a deck, in order.
pub fn card_ids(doc: &Element) -> Vec<String> {
    doc.children()
        .iter()
        .filter_map(|c| c.as_element())
        .filter(|e| e.tag() == "card")
        .filter_map(|e| e.attr("id").map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_deck() -> Element {
        deck()
            .with_child(
                card("home", "Shop")
                    .with_child(Element::new("p").with_text("Welcome"))
                    .with_child(
                        Element::new("p").with_child(
                            Element::new("a")
                                .with_attr("href", "#cart")
                                .with_text("Cart"),
                        ),
                    ),
            )
            .with_child(card("cart", "Cart").with_child(Element::new("p").with_text("Empty")))
    }

    #[test]
    fn valid_deck_passes() {
        validate(&valid_deck()).unwrap();
        assert_eq!(card_ids(&valid_deck()), vec!["home", "cart"]);
    }

    #[test]
    fn wrong_root_fails() {
        let doc = Element::new("html");
        assert!(validate(&doc)
            .unwrap_err()
            .message
            .contains("root must be <wml>"));
    }

    #[test]
    fn non_card_child_fails() {
        let doc = deck().with_child(Element::new("p"));
        assert!(validate(&doc)
            .unwrap_err()
            .message
            .contains("must be <card>"));
    }

    #[test]
    fn missing_or_duplicate_ids_fail() {
        let doc = deck().with_child(Element::new("card"));
        assert!(validate(&doc).unwrap_err().message.contains("needs an id"));
        let doc = deck().with_child(card("x", "")).with_child(card("x", ""));
        assert!(validate(&doc)
            .unwrap_err()
            .message
            .contains("duplicate card id"));
    }

    #[test]
    fn foreign_tags_fail() {
        let doc = deck().with_child(card("c", "").with_child(Element::new("table")));
        assert!(validate(&doc)
            .unwrap_err()
            .message
            .contains("<table> is not WML"));
    }

    #[test]
    fn deck_bytes_matches_serialisation() {
        let d = valid_deck();
        assert_eq!(deck_bytes(&d), d.to_markup().len());
        assert!(deck_bytes(&d) > 50);
    }

    #[test]
    fn wml_parses_back_through_generic_parser() {
        let d = valid_deck();
        let reparsed = crate::parse::parse(&d.to_markup()).unwrap();
        assert_eq!(d, reparsed);
        validate(&reparsed).unwrap();
    }
}
