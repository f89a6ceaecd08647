//! Message authentication — the *integrity* and *authentication*
//! properties of §8.
//!
//! [`Mac`] is HMAC over the toy [`digest`]:
//! `H(k ⊕ opad || H(k ⊕ ipad || m))` with a 16-byte key, which is exactly
//! two of the hash's 8-byte blocks. So a `Mac` keeps the two hash states
//! that have absorbed its padded key blocks (the standard HMAC
//! precomputation), and a tag costs the message's blocks plus one more
//! digest of the inner result, with no buffer. A message may be streamed
//! in pieces ([`Mac::compute_streamed`]); its tag is bit-identical to the
//! tag of the concatenated bytes.

use crate::hash::{digest, Digest, DIGEST_BYTES};

/// A keyed message-authentication code (HMAC-style double hash over the
/// toy digest; simulation-grade). Equal keys make equal `Mac`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mac {
    /// The hash state after the inner padded key block `k ⊕ 0x36…`.
    inner: Digest,
    /// The hash state after the outer padded key block `k ⊕ 0x5c…`.
    outer: Digest,
}

impl Mac {
    /// Creates a MAC instance from key material of any length.
    pub fn new(key: &[u8]) -> Self {
        Self::from_key(digest(key))
    }

    /// The MAC whose 16-byte key is `key`: both padded key blocks are
    /// absorbed once, here.
    fn from_key(key: [u8; DIGEST_BYTES]) -> Self {
        let padded = |pad: u8| {
            let mut state = Digest::new();
            state.update(&key.map(|b| b ^ pad));
            state
        };
        Mac {
            inner: padded(0x36),
            outer: padded(0x5c),
        }
    }

    /// Derives a MAC key from a shared secret and a label (key
    /// separation: different labels yield independent keys).
    pub(crate) fn derive(secret: u64, label: &str) -> Self {
        let mut material = Digest::new();
        material
            .update(&secret.to_le_bytes())
            .update(label.as_bytes());
        Self::from_key(material.finish())
    }

    /// Computes the tag for `message`.
    ///
    /// ```
    /// use security::Mac;
    /// let mac = Mac::new(b"shared-key");
    /// let tag = mac.compute(b"amount=100");
    /// assert!(mac.verify(b"amount=100", &tag));
    /// assert!(!mac.verify(b"amount=900", &tag));
    /// ```
    pub fn compute(&self, message: &[u8]) -> [u8; DIGEST_BYTES] {
        self.compute_streamed(|m| {
            m.update(message);
        })
    }

    /// Computes the tag of the message `write` streams into the digest it
    /// is handed — the tag [`Mac::compute`] gives the concatenation of
    /// everything written.
    ///
    /// ```
    /// use security::Mac;
    /// let mac = Mac::new(b"shared-key");
    /// let tag = mac.compute_streamed(|m| {
    ///     m.update(b"amount=").update(b"100");
    /// });
    /// assert_eq!(tag, mac.compute(b"amount=100"));
    /// ```
    pub fn compute_streamed(&self, write: impl FnOnce(&mut Digest)) -> [u8; DIGEST_BYTES] {
        // HMAC shape: H(k_outer || H(k_inner || m)).
        let mut inner = self.inner;
        write(&mut inner);
        let mut outer = self.outer;
        outer.update(&inner.finish());
        outer.finish()
    }

    /// Verifies `tag` over `message`.
    pub fn verify(&self, message: &[u8], tag: &[u8; DIGEST_BYTES]) -> bool {
        self.verify_streamed(
            |m| {
                m.update(message);
            },
            tag,
        )
    }

    /// Verifies `tag` over the message `write` streams (see
    /// [`Mac::compute_streamed`]).
    pub(crate) fn verify_streamed(
        &self,
        write: impl FnOnce(&mut Digest),
        tag: &[u8; DIGEST_BYTES],
    ) -> bool {
        // Constant-time-style comparison (the habit matters even in a toy).
        self.compute_streamed(write)
            .iter()
            .zip(tag.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tag as `Mac` computed it before its key states were kept: the
    /// key digested from the material, each padded key block
    /// concatenated with its message into a buffer and hashed whole.
    fn concatenated_tag(key_material: &[u8], message: &[u8]) -> [u8; DIGEST_BYTES] {
        let key = digest(key_material);
        let mut inner = Vec::with_capacity(16 + message.len());
        inner.extend(key.iter().map(|b| b ^ 0x36));
        inner.extend_from_slice(message);
        let inner_digest = digest(&inner);
        let mut outer = Vec::with_capacity(32);
        outer.extend(key.iter().map(|b| b ^ 0x5c));
        outer.extend_from_slice(&inner_digest);
        digest(&outer)
    }

    proptest! {
        #[test]
        fn precomputed_key_states_equal_the_concatenating_mac(
            key in proptest::collection::vec(any::<u8>(), 0..40),
            message in proptest::collection::vec(any::<u8>(), 0..200),
            cut in 0usize..200,
        ) {
            let mac = Mac::new(&key);
            let reference = concatenated_tag(&key, &message);
            prop_assert_eq!(mac.compute(&message), reference);
            let cut = cut.min(message.len());
            let streamed = mac.compute_streamed(|m| {
                m.update(&message[..cut]).update(&message[cut..]);
            });
            prop_assert_eq!(streamed, reference);
            prop_assert!(mac.verify(&message, &reference));
            prop_assert_eq!(Mac::new(&key), mac, "equal keys make equal MACs");
        }

        #[test]
        fn derived_keys_equal_the_concatenated_material(
            secret in any::<u64>(),
            label in ".{0,24}",
            message in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut material = secret.to_le_bytes().to_vec();
            material.extend_from_slice(label.as_bytes());
            prop_assert_eq!(
                Mac::derive(secret, &label).compute(&message),
                concatenated_tag(&material, &message)
            );
        }
    }

    #[test]
    fn valid_tags_verify() {
        let mac = Mac::new(b"k");
        let tag = mac.compute(b"hello");
        assert!(mac.verify(b"hello", &tag));
    }

    #[test]
    fn any_single_bit_tamper_is_rejected() {
        let mac = Mac::new(b"payment-key");
        let msg = b"order=7;amount=1999;account=alice";
        let tag = mac.compute(msg);
        for byte in 0..msg.len() {
            let mut tampered = msg.to_vec();
            tampered[byte] ^= 0x01;
            assert!(!mac.verify(&tampered, &tag), "byte {byte}");
        }
        // Tampering with the tag itself also fails.
        let mut bad_tag = tag;
        bad_tag[0] ^= 0x80;
        assert!(!mac.verify(msg, &bad_tag));
    }

    #[test]
    fn different_keys_produce_different_tags() {
        let a = Mac::new(b"key-a");
        let b = Mac::new(b"key-b");
        assert_ne!(a.compute(b"m"), b.compute(b"m"));
        assert!(!b.verify(b"m", &a.compute(b"m")));
    }

    #[test]
    fn derived_keys_are_label_separated() {
        let enc = Mac::derive(42, "encrypt");
        let auth = Mac::derive(42, "authenticate");
        assert_ne!(enc.compute(b"x"), auth.compute(b"x"));
        // Same secret + label agree across parties.
        assert_eq!(Mac::derive(42, "encrypt"), enc);
    }
}
