//! Confidentiality: a stream cipher (simulation-grade).

/// A keystream cipher seeded from a 64-bit key and nonce (xorshift-based;
/// simulation-grade). Encrypt and decrypt are the same operation.
///
/// ```
/// use security::cipher::StreamCipher;
/// let mut enc = StreamCipher::new(7, 1);
/// let mut dec = StreamCipher::new(7, 1);
/// let ct = enc.apply(b"top secret");
/// assert_ne!(&ct, b"top secret");
/// assert_eq!(dec.apply(&ct), b"top secret");
/// ```
#[derive(Debug, Clone)]
pub struct StreamCipher {
    state: u64,
    buffer: u64,
    buffered: u8,
}

impl StreamCipher {
    /// Creates a cipher over `(key, nonce)`. Reusing a nonce under the
    /// same key reuses keystream — callers must not do that.
    pub fn new(key: u64, nonce: u64) -> Self {
        let mut state = key ^ nonce.rotate_left(32) ^ 0x853c_49e6_748f_ea9b;
        // Warm up the state.
        for _ in 0..4 {
            state = Self::step(state);
        }
        StreamCipher {
            state,
            buffer: 0,
            buffered: 0,
        }
    }

    fn step(mut s: u64) -> u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }

    fn next_byte(&mut self) -> u8 {
        if self.buffered == 0 {
            self.state = Self::step(self.state);
            self.buffer = self.state;
            self.buffered = 8;
        }
        let b = (self.buffer & 0xff) as u8;
        self.buffer >>= 8;
        self.buffered -= 1;
        b
    }

    /// XORs `data` with the keystream (encrypts or decrypts).
    pub fn apply(&mut self, data: &[u8]) -> Vec<u8> {
        data.iter().map(|&b| b ^ self.next_byte()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_round_trips_and_hides_plaintext() {
        let msg = b"authorize payment of $19.99 from alice";
        let ct = StreamCipher::new(1234, 1).apply(msg);
        assert_ne!(&ct[..], &msg[..]);
        assert_eq!(StreamCipher::new(1234, 1).apply(&ct), msg);
    }

    #[test]
    fn stream_wrong_key_or_nonce_garbles() {
        let msg = b"hello world hello world";
        let ct = StreamCipher::new(1, 100).apply(msg);
        assert_ne!(StreamCipher::new(2, 100).apply(&ct), msg);
        assert_ne!(StreamCipher::new(1, 101).apply(&ct), msg);
    }

    #[test]
    fn distinct_nonces_give_distinct_keystreams() {
        let zeros = vec![0u8; 64];
        let a = StreamCipher::new(9, 1).apply(&zeros);
        let b = StreamCipher::new(9, 2).apply(&zeros);
        assert_ne!(a, b);
    }
}
