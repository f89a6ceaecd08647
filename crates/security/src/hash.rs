//! A toy 128-bit Merkle–Damgård hash (simulation-grade).
//!
//! Built from two independent 64-bit mixing lanes over 8-byte blocks with
//! length strengthening. Collision-resistant enough for simulation and
//! property tests; **not** for real security.
//!
//! [`Digest`] hashes a message fed in pieces: it absorbs each full 8-byte
//! block as it arrives and keeps at most one partial block, so a message
//! streamed in any split hashes bit for bit like [`digest`] over the
//! concatenation, and nothing is allocated. A `Digest` is `Copy`: a state
//! that has absorbed a fixed prefix (an HMAC key block, say) can be kept
//! and resumed any number of times.

/// Digest size in bytes.
pub(crate) const DIGEST_BYTES: usize = 16;

const SEED_A: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

fn mix(mut h: u64, block: u64) -> u64 {
    h ^= block.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = h.rotate_left(27).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hashes `data` to a 16-byte digest.
///
/// ```
/// let a = security::hash::digest(b"hello");
/// let b = security::hash::digest(b"hello");
/// let c = security::hash::digest(b"hellp");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut d = Digest::new();
    d.update(data);
    d.finish()
}

/// A streaming [`digest`]: `update` any split of a message, then
/// `finish`.
///
/// ```
/// use security::hash::{digest, Digest};
/// let mut d = Digest::new();
/// d.update(b"hel").update(b"lo");
/// assert_eq!(d.finish(), digest(b"hello"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    a: u64,
    b: u64,
    /// Bytes absorbed so far; the last `len % 8` of them wait in `tail`.
    len: u64,
    /// The pending bytes, little-endian from bit 0; the bits above
    /// them are zero.
    tail: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The state of an empty message.
    pub fn new() -> Self {
        Digest {
            a: SEED_A,
            b: SEED_B,
            len: 0,
            tail: 0,
        }
    }

    /// Absorbs one block: `n` message bytes (`n` ≤ 8) read little-endian
    /// and zero-padded into `word`.
    fn block(&mut self, word: u64, n: usize) {
        let word = word ^ (n as u64) << 56;
        self.a = mix(self.a, word);
        self.b = mix(self.b, word.rotate_left(31));
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        let mut fill = (self.len % 8) as usize;
        self.len += data.len() as u64;
        if fill > 0 {
            while fill < 8 {
                let Some((&byte, rest)) = data.split_first() else {
                    return self;
                };
                self.tail |= u64::from(byte) << (8 * fill);
                fill += 1;
                data = rest;
            }
            self.block(self.tail, 8);
            self.tail = 0;
        }
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            self.block(u64::from_le_bytes(word.try_into().expect("8 bytes")), 8);
        }
        for (i, &byte) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(byte) << (8 * i);
        }
        self
    }

    /// The digest of everything absorbed.
    pub fn finish(mut self) -> [u8; DIGEST_BYTES] {
        let fill = (self.len % 8) as usize;
        if fill > 0 {
            self.block(self.tail, fill);
        }
        // Length strengthening + final avalanche.
        let (mut a, mut b) = (self.a, self.b);
        a = mix(a, self.len ^ SEED_B);
        b = mix(b, self.len.rotate_left(17) ^ SEED_A);
        a = mix(a, b);
        b = mix(b, a);

        let mut out = [0u8; DIGEST_BYTES];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The one-shot hash over a whole message, as it was before
    /// [`Digest`]: the oracle the streaming state must equal.
    fn concatenated(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut a = SEED_A;
        let mut b = SEED_B;
        for chunk in data.chunks(8) {
            let mut block = [0u8; 8];
            block[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(block) ^ (chunk.len() as u64) << 56;
            a = mix(a, word);
            b = mix(b, word.rotate_left(31));
        }
        a = mix(a, data.len() as u64 ^ SEED_B);
        b = mix(b, (data.len() as u64).rotate_left(17) ^ SEED_A);
        a = mix(a, b);
        b = mix(b, a);
        let mut out = [0u8; DIGEST_BYTES];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        out
    }

    #[test]
    fn every_two_way_split_of_every_length_to_200_equals_the_one_shot_hash() {
        let data: Vec<u8> = (0..=200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            let whole = concatenated(message);
            assert_eq!(digest(message), whole, "one piece, length {len}");
            for cut in 0..=len {
                let mut d = Digest::new();
                d.update(&message[..cut]).update(&message[cut..]);
                assert_eq!(d.finish(), whole, "length {len} cut at {cut}");
            }
        }
    }

    proptest! {
        #[test]
        fn any_split_streams_like_the_one_shot_hash(
            data in proptest::collection::vec(any::<u8>(), 0..=200),
            cuts in proptest::collection::vec(0usize..=200, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut d = Digest::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                d.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(d.finish(), concatenated(&data));
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_eq!(digest(b""), digest(b""));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = digest(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut tampered = base.clone();
                tampered[byte] ^= 1 << bit;
                assert_ne!(digest(&tampered), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn length_extension_inputs_differ() {
        // Same prefix, different lengths of trailing zeros.
        assert_ne!(digest(b"abc"), digest(b"abc\0"));
        assert_ne!(digest(b"abc\0"), digest(b"abc\0\0"));
    }

    #[test]
    fn no_collisions_over_small_corpus() {
        let mut seen = HashSet::new();
        for i in 0..20_000u32 {
            let d = digest(format!("message-{i}").as_bytes());
            assert!(seen.insert(d), "collision at {i}");
        }
    }

    #[test]
    fn output_is_well_distributed() {
        // Count leading-byte distribution buckets; crude avalanche check.
        let mut buckets = [0u32; 16];
        for i in 0..4096u32 {
            let d = digest(&i.to_le_bytes());
            buckets[(d[0] >> 4) as usize] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!((150..=400).contains(&count), "bucket {i}: {count}");
        }
    }
}
