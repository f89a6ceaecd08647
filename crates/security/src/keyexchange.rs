//! Diffie–Hellman key agreement over a 61-bit prime field
//! (simulation-grade — the group is far too small for real security, but
//! the protocol shape and message count are faithful).

/// The group modulus: 2^61 - 1 (a Mersenne prime).
pub(crate) const MODULUS: u64 = (1 << 61) - 1;
/// The generator.
pub(crate) const GENERATOR: u64 = 5;

/// Modular exponentiation by squaring.
fn modpow(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    let mut acc: u128 = 1;
    let mut b: u128 = base as u128 % modulus as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % modulus as u128;
        }
        b = b * b % modulus as u128;
        exp >>= 1;
    }
    base = acc as u64;
    base
}

/// One party's ephemeral DH key pair.
#[derive(Debug, Clone, Copy)]
pub struct KeyPair {
    secret: u64,
    /// The public value `g^secret mod p` sent to the peer.
    pub public: u64,
}

impl KeyPair {
    /// Derives a key pair from secret exponent material.
    ///
    /// # Panics
    ///
    /// Panics if `secret` is zero (a degenerate exponent).
    pub fn from_secret(secret: u64) -> Self {
        assert!(secret != 0, "DH secret must be nonzero");
        let secret = secret % (MODULUS - 1);
        let secret = if secret == 0 { 1 } else { secret };
        KeyPair {
            secret,
            public: modpow(GENERATOR, secret, MODULUS),
        }
    }

    /// Combines with the peer's public value into the shared secret.
    ///
    /// ```
    /// use security::keyexchange::KeyPair;
    /// let alice = KeyPair::from_secret(0x1234_5678);
    /// let bob = KeyPair::from_secret(0x9abc_def0);
    /// assert_eq!(alice.shared(bob.public), bob.shared(alice.public));
    /// ```
    pub fn shared(&self, peer_public: u64) -> u64 {
        modpow(peer_public, self.secret, MODULUS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_agree() {
        for (a, b) in [(2u64, 3u64), (12345, 67890), (u64::MAX - 1, 7)] {
            let alice = KeyPair::from_secret(a);
            let bob = KeyPair::from_secret(b);
            assert_eq!(alice.shared(bob.public), bob.shared(alice.public));
        }
    }

    #[test]
    fn eavesdropper_with_wrong_secret_disagrees() {
        let alice = KeyPair::from_secret(111);
        let bob = KeyPair::from_secret(222);
        let eve = KeyPair::from_secret(333);
        let shared = alice.shared(bob.public);
        assert_ne!(eve.shared(alice.public), shared);
        assert_ne!(eve.shared(bob.public), shared);
    }

    #[test]
    fn public_values_hide_secrets() {
        let kp = KeyPair::from_secret(42);
        assert_ne!(kp.public, 42);
        assert_ne!(kp.public, 0);
        assert!(kp.public < MODULUS);
    }

    #[test]
    fn modpow_matches_known_values() {
        assert_eq!(modpow(2, 10, 1_000_003), 1024);
        assert_eq!(modpow(5, 0, 97), 1);
        assert_eq!(modpow(7, 96, 97), 1); // Fermat's little theorem
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_secret_panics() {
        KeyPair::from_secret(0);
    }
}
