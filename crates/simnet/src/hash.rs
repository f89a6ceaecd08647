//! One fixed hasher for the keys the simulator generates.
//!
//! Every table keyed by simulator data — the body memos, the gateway's
//! content cache, the host's page cache, the database's query cache
//! and search memo — hashes with [`FixedHasher`]. It has fixed keys, so
//! the same key hashes the same way in every process and a table's
//! growth and rehash pattern (and with it the allocation count of a
//! run) repeats exactly.
//!
//! It reads its input a word at a time: each 8-byte little-endian word
//! is folded into the state with FxHash's rotate, xor and multiply, and
//! [`Hasher::finish`] runs the byte count and any partial last word
//! through MurmurHash3's 64-bit finaliser, so both the low bits a
//! `HashMap` indexes by and the high bits it tags with are well mixed.
//! It is *streaming*: bytes are buffered across calls until a word is
//! full, so a key written in pieces hashes exactly like the same bytes
//! written at once.
//!
//! It is not keyed against collision attacks: use it only for keys the
//! simulator itself generates, never for crafted outside input.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` state with fixed keys: a [`FixedHasher`] per hash. Only for
/// maps whose keys the simulator generates itself, never for outside
/// input.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// FxHash's multiplier, odd, so a multiply by it is a bijection.
const WORD_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed, streaming, word-at-a-time [`Hasher`] (see the module docs).
///
/// ```
/// use std::hash::Hasher;
/// use simnet::FixedHasher;
///
/// let mut whole = FixedHasher::default();
/// whole.write(b"GET /shop|Html");
/// let mut pieces = FixedHasher::default();
/// for piece in ["GET", " /sh", "op|", "Html"] {
///     pieces.write(piece.as_bytes());
/// }
/// assert_eq!(whole.finish(), pieces.finish());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher {
    /// The whole words folded in so far.
    state: u64,
    /// The bytes past the last whole word, little-endian from bit 0;
    /// there are `len % 8` of them.
    tail: u64,
    /// Bytes written in all.
    len: u64,
}

/// Folds one word into the state.
#[inline]
fn fold(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(WORD_MUL)
}

/// MurmurHash3's 64-bit finaliser: every input bit reaches every output
/// bit.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Up to eight bytes as a little-endian word.
#[inline]
fn load(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl FixedHasher {
    /// Appends the `n` bytes of `bits` (1 ≤ `n` ≤ 8, little-endian,
    /// higher bits zero) to the stream.
    #[inline]
    fn push(&mut self, bits: u64, n: u32) {
        let fill = (self.len % 8) as u32;
        self.len += u64::from(n);
        self.tail |= bits << (8 * fill);
        if fill + n >= 8 {
            self.state = fold(self.state, self.tail);
            // The bytes that did not fit in the finished word.
            self.tail = if fill == 0 {
                0
            } else {
                bits >> (64 - 8 * fill)
            };
        }
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        let fill = (self.len % 8) as usize;
        if fill != 0 {
            let (head, rest) = bytes.split_at((8 - fill).min(bytes.len()));
            if !head.is_empty() {
                self.push(load(head), head.len() as u32);
            }
            bytes = rest;
        }
        // Either nothing is left, or the partial word was completed.
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.state = fold(
                self.state,
                u64::from_le_bytes(word.try_into().expect("8 bytes")),
            );
        }
        self.tail = load(words.remainder());
    }

    fn write_u8(&mut self, i: u8) {
        self.push(u64::from(i), 1);
    }

    fn write_u16(&mut self, i: u16) {
        self.push(u64::from(u16::from_le_bytes(i.to_ne_bytes())), 2);
    }

    fn write_u32(&mut self, i: u32) {
        self.push(u64::from(u32::from_le_bytes(i.to_ne_bytes())), 4);
    }

    fn write_u64(&mut self, i: u64) {
        self.push(u64::from_le_bytes(i.to_ne_bytes()), 8);
    }

    fn write_usize(&mut self, i: usize) {
        if usize::BITS == 64 {
            self.write_u64(i as u64);
        } else {
            self.write(&i.to_ne_bytes());
        }
    }

    fn finish(&self) -> u64 {
        let state = if self.len.is_multiple_of(8) {
            self.state
        } else {
            fold(self.state, self.tail)
        };
        avalanche(state ^ self.len)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FixedHasher::default();
        h.write(bytes);
        h.finish()
    }

    fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
        FixedState::default().hash_one(value)
    }

    #[test]
    fn recorded_values_pin_the_hash_across_processes() {
        // Recorded once; a changed value means every fixed-state table
        // changes its layout, and with it a run's allocation pattern.
        assert_eq!(hash_bytes(b""), 0);
        assert_eq!(hash_bytes(b"GET /shop|Html"), 0x7abf_8615_8d34_c564);
        assert_eq!(
            hash_one(&("products", "wireless headset")),
            0xca81_476c_28fd_f7db
        );
    }

    #[test]
    fn integer_writes_stream_like_their_bytes() {
        let mut ints = FixedHasher::default();
        let mut bytes = FixedHasher::default();
        ints.write_u8(7);
        bytes.write(&[7]);
        ints.write_u64(0x0102_0304_0506_0708);
        bytes.write(&0x0102_0304_0506_0708u64.to_ne_bytes());
        ints.write_u32(0xdead_beef);
        bytes.write(&0xdead_beefu32.to_ne_bytes());
        ints.write_u16(0xabcd);
        bytes.write(&0xabcdu16.to_ne_bytes());
        ints.write_usize(12345);
        bytes.write(&12345usize.to_ne_bytes());
        assert_eq!(ints.finish(), bytes.finish());
    }

    #[test]
    fn length_and_trailing_zero_bytes_change_the_hash() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abc\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(&[0; 8]), hash_bytes(&[0; 16]));
        assert_ne!(hash_one("ab"), hash_one("a"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]
        // Cutting the same bytes into any pieces — and writing some of
        // them as integers — hashes exactly like writing them at once.
        #[test]
        fn chunked_writes_hash_like_one_write(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            cuts in proptest::collection::vec(0usize..80, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut chunked = FixedHasher::default();
            for (i, piece) in cuts.windows(2).map(|w| &bytes[w[0]..w[1]]).enumerate() {
                match (i % 3, piece.len()) {
                    (1, 1) => chunked.write_u8(piece[0]),
                    (1, 2) => chunked.write_u16(u16::from_ne_bytes(piece.try_into().unwrap())),
                    (1, 4) => chunked.write_u32(u32::from_ne_bytes(piece.try_into().unwrap())),
                    (1, 8) => chunked.write_u64(u64::from_ne_bytes(piece.try_into().unwrap())),
                    _ => chunked.write(piece),
                }
            }
            proptest::prop_assert_eq!(chunked.finish(), hash_bytes(&bytes));
        }
    }
}
