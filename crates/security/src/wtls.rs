//! A WTLS-style secure session.
//!
//! WAP secured its air link with WTLS (TLS adapted for wireless). This
//! module reproduces the session shape: a two-flight handshake agreeing
//! keys via Diffie–Hellman, key derivation separated by direction, then
//! sealed records — stream-encrypted, MAC'd, and sequence-numbered so
//! replayed or reordered records are rejected. The per-record byte
//! overhead is exposed so experiments can charge security's bandwidth
//! cost on narrow links.

use crate::cipher::StreamCipher;
use crate::hash::DIGEST_BYTES;
use crate::keyexchange::KeyPair;
use crate::mac::Mac;

/// Bytes of overhead each sealed record adds (header + sequence + MAC).
pub const RECORD_OVERHEAD: usize = 3 + 8 + DIGEST_BYTES;

/// Bytes exchanged by the handshake (two hello flights).
pub const HANDSHAKE_BYTES: usize = 2 * (8 + 8 + 3);

/// Which endpoint a session half belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The mobile station.
    Client,
    /// The gateway / server.
    Server,
}

/// Errors opening a sealed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Record too short to contain the frame.
    Truncated,
    /// MAC verification failed (tampering or wrong keys).
    BadMac,
    /// Sequence number is not the next expected (replay or reorder).
    BadSequence {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number found.
        found: u64,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::BadMac => write!(f, "record failed authentication"),
            RecordError::BadSequence { expected, found } => {
                write!(f, "bad sequence: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// One endpoint of an established WTLS-style session.
#[derive(Debug)]
pub struct WtlsSession {
    send_mac: Mac,
    recv_mac: Mac,
    send_key: u64,
    recv_key: u64,
    send_seq: u64,
    recv_seq: u64,
}

impl WtlsSession {
    /// Completes the handshake for one endpoint given its ephemeral
    /// secret and the peer's public value, returning the session.
    ///
    /// Both sides must call this with matching parameters (as the two
    /// hello flights provide); the derived keys are direction-separated.
    pub(crate) fn establish(role: Role, own_secret: u64, peer_public: u64) -> WtlsSession {
        let own = KeyPair::from_secret(own_secret);
        let master = own.shared(peer_public);
        let c2s_mac = Mac::derive(master, "mac.c2s");
        let s2c_mac = Mac::derive(master, "mac.s2c");
        let c2s_key = master ^ 0x6b65_795f_6332_7300; // "key_c2s"
        let s2c_key = master ^ 0x6b65_795f_7332_6300; // "key_s2c"
        match role {
            Role::Client => WtlsSession {
                send_mac: c2s_mac,
                recv_mac: s2c_mac,
                send_key: c2s_key,
                recv_key: s2c_key,
                send_seq: 0,
                recv_seq: 0,
            },
            Role::Server => WtlsSession {
                send_mac: s2c_mac,
                recv_mac: c2s_mac,
                send_key: s2c_key,
                recv_key: c2s_key,
                send_seq: 0,
                recv_seq: 0,
            },
        }
    }

    /// Seals `plaintext` into a record: `seq || ciphertext || mac`.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        let ct = StreamCipher::new(self.send_key, seq).apply(plaintext);
        let mut record = Vec::with_capacity(8 + ct.len() + DIGEST_BYTES);
        record.extend_from_slice(&seq.to_le_bytes());
        record.extend_from_slice(&ct);
        let tag = self.send_mac.compute(&record);
        record.extend_from_slice(&tag);
        record
    }

    /// Opens a sealed record from the peer, enforcing MAC and sequence.
    ///
    /// # Errors
    ///
    /// [`RecordError`] on truncation, bad MAC, or out-of-order sequence.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, RecordError> {
        if record.len() < 8 + DIGEST_BYTES {
            return Err(RecordError::Truncated);
        }
        let (body, tag_bytes) = record.split_at(record.len() - DIGEST_BYTES);
        let mut tag = [0u8; DIGEST_BYTES];
        tag.copy_from_slice(tag_bytes);
        if !self.recv_mac.verify(body, &tag) {
            return Err(RecordError::BadMac);
        }
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&body[..8]);
        let seq = u64::from_le_bytes(seq_bytes);
        if seq != self.recv_seq {
            return Err(RecordError::BadSequence {
                expected: self.recv_seq,
                found: seq,
            });
        }
        self.recv_seq += 1;
        Ok(StreamCipher::new(self.recv_key, seq).apply(&body[8..]))
    }

    /// Bytes a sealed record occupies for `plaintext_len` of payload.
    pub fn sealed_size(plaintext_len: usize) -> usize {
        plaintext_len + RECORD_OVERHEAD
    }
}

/// Establishes both halves of a session at once (test/simulation helper
/// standing in for the two hello flights on the wire).
pub fn handshake(client_secret: u64, server_secret: u64) -> (WtlsSession, WtlsSession) {
    let client_kp = KeyPair::from_secret(client_secret);
    let server_kp = KeyPair::from_secret(server_secret);
    (
        WtlsSession::establish(Role::Client, client_secret, server_kp.public),
        WtlsSession::establish(Role::Server, server_secret, client_kp.public),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_records_round_trip_both_directions() {
        let (mut client, mut server) = handshake(11, 22);
        let r1 = client.seal(b"GET /catalog");
        assert_eq!(server.open(&r1).unwrap(), b"GET /catalog");
        let r2 = server.seal(b"<wml>...</wml>");
        assert_eq!(client.open(&r2).unwrap(), b"<wml>...</wml>");
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_across_records() {
        let (mut client, _server) = handshake(11, 22);
        let a = client.seal(b"same payload");
        let b = client.seal(b"same payload");
        assert_ne!(&a[8..20], b"same payload"); // encrypted
        assert_ne!(a[8..], b[8..]); // per-record keystream
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut client, mut server) = handshake(11, 22);
        let mut record = client.seal(b"amount=100");
        record[10] ^= 0x01;
        assert_eq!(server.open(&record), Err(RecordError::BadMac));
    }

    #[test]
    fn replay_is_rejected() {
        let (mut client, mut server) = handshake(11, 22);
        let record = client.seal(b"pay once");
        assert!(server.open(&record).is_ok());
        assert_eq!(
            server.open(&record),
            Err(RecordError::BadSequence {
                expected: 1,
                found: 0
            })
        );
    }

    #[test]
    fn reorder_is_rejected() {
        let (mut client, mut server) = handshake(11, 22);
        let r0 = client.seal(b"first");
        let r1 = client.seal(b"second");
        assert_eq!(
            server.open(&r1),
            Err(RecordError::BadSequence {
                expected: 0,
                found: 1
            })
        );
        // The in-order record still works afterwards.
        assert!(server.open(&r0).is_ok());
    }

    #[test]
    fn wrong_peer_cannot_open() {
        let (mut client, _) = handshake(11, 22);
        let (_, mut wrong_server) = handshake(11, 33);
        let record = client.seal(b"hello");
        assert_eq!(wrong_server.open(&record), Err(RecordError::BadMac));
    }

    #[test]
    fn truncated_records_are_rejected() {
        let (mut client, mut server) = handshake(1, 2);
        let record = client.seal(b"x");
        assert_eq!(server.open(&record[..8]), Err(RecordError::Truncated));
    }

    #[test]
    fn overhead_accounting_matches_reality() {
        let (mut client, _) = handshake(1, 2);
        let record = client.seal(&[0u8; 100]);
        // seal() emits seq+ct+mac; sealed_size adds the 3-byte header the
        // transport would frame it with.
        assert_eq!(record.len() + 3, WtlsSession::sealed_size(100));
    }
}
