//! Mobile payment — the application §8 calls "another important issue".
//!
//! A two-phase card-style protocol: **authorize** (reserve funds against
//! an account) then **capture** (settle). Every message is MAC-signed,
//! requests carry nonces checked against a replay window, receipts are
//! verifiable offline, and every decision lands in an audit trail. The
//! mobile payments application in `mcommerce-core` drives this gateway
//! end to end over the simulated network.
//!
//! A MAC covers a message's canonical encoding, such as
//! `order=7;amount=1999;account=alice;nonce=42`. The encoding is streamed
//! straight into the MAC's hash state, numbers through a decimal writer,
//! so signing and checking a message allocates nothing.

use std::collections::{HashMap, HashSet};

use crate::hash::{Digest, DIGEST_BYTES};
use crate::mac::Mac;

/// Where a canonical encoding is written: a MAC's hash state, or a byte
/// buffer.
trait Encode {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]) -> &mut Self;

    /// Appends `n` in decimal, the bytes `format!("{n}")` makes.
    fn decimal(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20]; // u64::MAX has 20 digits
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.put(&digits[start..])
    }
}

impl Encode for Digest {
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.update(bytes)
    }
}

/// A signed payment authorization request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaymentRequest {
    /// Merchant order identifier.
    pub order_id: u64,
    /// Amount in cents.
    pub amount_cents: u64,
    /// Paying account name.
    pub account: String,
    /// Anti-replay nonce (unique per request).
    pub nonce: u64,
    /// MAC over the canonical encoding.
    pub tag: [u8; DIGEST_BYTES],
}

impl PaymentRequest {
    /// Writes `order={order_id};amount={amount_cents};account={account};nonce={nonce}`.
    fn canonical(
        out: &mut impl Encode,
        order_id: u64,
        amount_cents: u64,
        account: &str,
        nonce: u64,
    ) {
        out.put(b"order=")
            .decimal(order_id)
            .put(b";amount=")
            .decimal(amount_cents)
            .put(b";account=")
            .put(account.as_bytes())
            .put(b";nonce=")
            .decimal(nonce);
    }

    /// Builds and signs a request with the client's MAC key.
    pub fn signed(mac: &Mac, order_id: u64, amount_cents: u64, account: &str, nonce: u64) -> Self {
        let tag = mac.compute_streamed(|m| {
            Self::canonical(m, order_id, amount_cents, account, nonce);
        });
        PaymentRequest {
            order_id,
            amount_cents,
            account: account.to_owned(),
            nonce,
            tag,
        }
    }
}

/// A signed receipt returned on capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The order this receipt settles.
    pub(crate) order_id: u64,
    /// Amount settled, in cents.
    pub amount_cents: u64,
    /// Gateway authorization code.
    pub auth_code: u64,
    /// MAC over the receipt body, signed with the gateway key.
    pub(crate) tag: [u8; DIGEST_BYTES],
}

impl Receipt {
    /// Writes `receipt:order={order_id};amount={amount_cents};auth={auth_code}`.
    fn canonical(out: &mut impl Encode, order_id: u64, amount_cents: u64, auth_code: u64) {
        out.put(b"receipt:order=")
            .decimal(order_id)
            .put(b";amount=")
            .decimal(amount_cents)
            .put(b";auth=")
            .decimal(auth_code);
    }

    /// Verifies the receipt against the gateway's MAC key.
    pub fn verify(&self, gateway_mac: &Mac) -> bool {
        gateway_mac.verify_streamed(
            |m| Self::canonical(m, self.order_id, self.amount_cents, self.auth_code),
            &self.tag,
        )
    }
}

/// Why a payment was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaymentError {
    /// MAC check failed: tampering or wrong key.
    BadSignature,
    /// The nonce was seen before — replayed request.
    Replay,
    /// Unknown account.
    NoSuchAccount,
    /// Balance (minus holds) cannot cover the amount.
    InsufficientFunds {
        /// Funds available to authorize against, in cents.
        available: u64,
    },
    /// Capture for an order that was never authorized (or already captured).
    NoSuchAuthorization,
}

impl std::fmt::Display for PaymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaymentError::BadSignature => write!(f, "request failed authentication"),
            PaymentError::Replay => write!(f, "replayed request"),
            PaymentError::NoSuchAccount => write!(f, "unknown account"),
            PaymentError::InsufficientFunds { available } => {
                write!(f, "insufficient funds: {available} cents available")
            }
            PaymentError::NoSuchAuthorization => write!(f, "no open authorization for order"),
        }
    }
}

impl std::error::Error for PaymentError {}

/// One audit-trail record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// Authorization approved and funds held.
    Authorized {
        /// Order id.
        order_id: u64,
        /// Account charged.
        account: String,
        /// Amount held, in cents.
        amount_cents: u64,
    },
    /// An authorization hold was released without settling.
    Voided {
        /// Order id.
        order_id: u64,
    },
    /// Capture settled and receipt issued.
    Captured {
        /// Order id.
        order_id: u64,
        /// Authorization code on the receipt.
        auth_code: u64,
    },
    /// A request was refused.
    Refused {
        /// Order id.
        order_id: u64,
        /// The refusal reason, displayed.
        reason: String,
    },
}

/// The payment gateway: accounts, holds, replay window, audit trail.
#[derive(Debug)]
pub struct PaymentGateway {
    client_mac: Mac,
    gateway_mac: Mac,
    balances: HashMap<String, u64>,
    holds: HashMap<u64, (String, u64)>,
    seen_nonces: HashSet<u64>,
    next_auth_code: u64,
    audit: Vec<AuditEvent>,
}

impl PaymentGateway {
    /// Creates a gateway sharing `client_mac` with stations and holding
    /// its own `gateway_mac` for receipts.
    pub fn new(client_mac: Mac, gateway_mac: Mac) -> Self {
        PaymentGateway {
            client_mac,
            gateway_mac,
            balances: HashMap::new(),
            holds: HashMap::new(),
            seen_nonces: HashSet::new(),
            next_auth_code: 1,
            audit: Vec::new(),
        }
    }

    /// Opens an account with an initial balance.
    pub fn open_account(&mut self, account: &str, balance_cents: u64) {
        self.balances.insert(account.to_owned(), balance_cents);
    }

    /// An account's settled balance.
    pub fn balance(&self, account: &str) -> Option<u64> {
        self.balances.get(account).copied()
    }

    /// The audit trail so far.
    pub fn audit(&self) -> &[AuditEvent] {
        &self.audit
    }

    /// The gateway MAC, for receipt verification by clients.
    pub fn receipt_mac(&self) -> &Mac {
        &self.gateway_mac
    }

    fn refuse(&mut self, order_id: u64, err: PaymentError) -> PaymentError {
        self.audit.push(AuditEvent::Refused {
            order_id,
            reason: err.to_string(),
        });
        err
    }

    /// Phase 1 — authorize: verify, check replay and funds, place a hold.
    ///
    /// # Errors
    ///
    /// `PaymentError` describing the refusal; refused requests are
    /// audited but have no monetary effect.
    pub fn authorize(&mut self, req: &PaymentRequest) -> Result<(), PaymentError> {
        let signed = |m: &mut Digest| {
            PaymentRequest::canonical(m, req.order_id, req.amount_cents, &req.account, req.nonce);
        };
        if !self.client_mac.verify_streamed(signed, &req.tag) {
            return Err(self.refuse(req.order_id, PaymentError::BadSignature));
        }
        if !self.seen_nonces.insert(req.nonce) {
            return Err(self.refuse(req.order_id, PaymentError::Replay));
        }
        let Some(&balance) = self.balances.get(&req.account) else {
            return Err(self.refuse(req.order_id, PaymentError::NoSuchAccount));
        };
        let held: u64 = self
            .holds
            .values()
            .filter(|(acct, _)| *acct == req.account)
            .map(|(_, cents)| cents)
            .sum();
        let available = balance.saturating_sub(held);
        if available < req.amount_cents {
            return Err(self.refuse(req.order_id, PaymentError::InsufficientFunds { available }));
        }
        self.holds
            .insert(req.order_id, (req.account.clone(), req.amount_cents));
        self.audit.push(AuditEvent::Authorized {
            order_id: req.order_id,
            account: req.account.clone(),
            amount_cents: req.amount_cents,
        });
        Ok(())
    }

    /// Releases an authorization hold without settling (the merchant side
    /// failed after authorization — e.g. the item could not be reserved).
    ///
    /// # Errors
    ///
    /// `PaymentError::NoSuchAuthorization` when there is no open hold.
    pub fn void(&mut self, order_id: u64) -> Result<(), PaymentError> {
        if self.holds.remove(&order_id).is_none() {
            return Err(self.refuse(order_id, PaymentError::NoSuchAuthorization));
        }
        self.audit.push(AuditEvent::Voided { order_id });
        Ok(())
    }

    /// Phase 2 — capture: settle the hold and issue a signed receipt.
    ///
    /// # Errors
    ///
    /// `PaymentError::NoSuchAuthorization` when there is no open hold.
    pub fn capture(&mut self, order_id: u64) -> Result<Receipt, PaymentError> {
        let Some((account, amount_cents)) = self.holds.remove(&order_id) else {
            return Err(self.refuse(order_id, PaymentError::NoSuchAuthorization));
        };
        let balance = self
            .balances
            .get_mut(&account)
            .expect("hold implies account");
        *balance -= amount_cents;
        let auth_code = self.next_auth_code;
        self.next_auth_code += 1;
        let tag = self
            .gateway_mac
            .compute_streamed(|m| Receipt::canonical(m, order_id, amount_cents, auth_code));
        self.audit.push(AuditEvent::Captured {
            order_id,
            auth_code,
        });
        Ok(Receipt {
            order_id,
            amount_cents,
            auth_code,
            tag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Encode for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) -> &mut Self {
            self.extend_from_slice(bytes);
            self
        }
    }

    /// A `u64` from anywhere in its range, its ends included.
    fn any_u64() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(u64::MAX), 0u64..1_000, any::<u64>()]
    }

    proptest! {
        #[test]
        fn streamed_canonical_messages_equal_the_formatted_bytes(
            order_id in any_u64(),
            amount_cents in any_u64(),
            nonce in any_u64(),
            auth_code in any_u64(),
            account in "[ -~é☃]{0,32}",
        ) {
            let mut request = Vec::new();
            PaymentRequest::canonical(&mut request, order_id, amount_cents, &account, nonce);
            prop_assert_eq!(
                request,
                format!("order={order_id};amount={amount_cents};account={account};nonce={nonce}")
                    .into_bytes()
            );
            let mut receipt = Vec::new();
            Receipt::canonical(&mut receipt, order_id, amount_cents, auth_code);
            prop_assert_eq!(
                receipt,
                format!("receipt:order={order_id};amount={amount_cents};auth={auth_code}")
                    .into_bytes()
            );
        }

        #[test]
        fn streamed_tags_equal_tags_over_the_formatted_bytes(
            order_id in any_u64(),
            amount_cents in any_u64(),
            nonce in any_u64(),
            account in "[ -~é☃]{0,32}",
        ) {
            let mac = Mac::new(b"client-shared-key");
            let req = PaymentRequest::signed(&mac, order_id, amount_cents, &account, nonce);
            let formatted =
                format!("order={order_id};amount={amount_cents};account={account};nonce={nonce}");
            prop_assert_eq!(req.tag, mac.compute(formatted.as_bytes()));
        }
    }

    fn gateway() -> (PaymentGateway, Mac) {
        let client_mac = Mac::new(b"client-shared-key");
        let gw = PaymentGateway::new(client_mac, Mac::new(b"gateway-private-key"));
        (gw, client_mac)
    }

    #[test]
    fn authorize_then_capture_settles_funds() {
        let (mut gw, mac) = gateway();
        gw.open_account("alice", 10_000);
        let req = PaymentRequest::signed(&mac, 1, 1_999, "alice", 100);
        gw.authorize(&req).unwrap();
        assert_eq!(gw.balance("alice"), Some(10_000)); // held, not settled
        let receipt = gw.capture(1).unwrap();
        assert_eq!(gw.balance("alice"), Some(8_001));
        assert!(receipt.verify(gw.receipt_mac()));
        assert_eq!(receipt.amount_cents, 1_999);
    }

    #[test]
    fn tampered_amount_is_refused() {
        let (mut gw, mac) = gateway();
        gw.open_account("alice", 10_000);
        let mut req = PaymentRequest::signed(&mac, 1, 1_999, "alice", 100);
        req.amount_cents = 1; // attacker lowers the price
        assert_eq!(gw.authorize(&req), Err(PaymentError::BadSignature));
        assert_eq!(gw.balance("alice"), Some(10_000));
        assert!(matches!(
            gw.audit().last(),
            Some(AuditEvent::Refused { .. })
        ));
    }

    #[test]
    fn replayed_request_is_refused() {
        let (mut gw, mac) = gateway();
        gw.open_account("alice", 10_000);
        let req = PaymentRequest::signed(&mac, 1, 500, "alice", 42);
        gw.authorize(&req).unwrap();
        gw.capture(1).unwrap();
        // Same nonce again — even for a new order id.
        let replay = PaymentRequest::signed(&mac, 2, 500, "alice", 42);
        assert_eq!(gw.authorize(&replay), Err(PaymentError::Replay));
        assert_eq!(gw.balance("alice"), Some(9_500));
    }

    #[test]
    fn holds_count_against_available_funds() {
        let (mut gw, mac) = gateway();
        gw.open_account("bob", 1_000);
        gw.authorize(&PaymentRequest::signed(&mac, 1, 800, "bob", 1))
            .unwrap();
        let second = PaymentRequest::signed(&mac, 2, 300, "bob", 2);
        assert_eq!(
            gw.authorize(&second),
            Err(PaymentError::InsufficientFunds { available: 200 })
        );
        gw.capture(1).unwrap();
        // After settlement, remaining balance is 200 — still not enough.
        let third = PaymentRequest::signed(&mac, 3, 300, "bob", 3);
        assert!(matches!(
            gw.authorize(&third),
            Err(PaymentError::InsufficientFunds { .. })
        ));
        let fourth = PaymentRequest::signed(&mac, 4, 200, "bob", 4);
        gw.authorize(&fourth).unwrap();
    }

    #[test]
    fn unknown_account_and_double_capture_are_refused() {
        let (mut gw, mac) = gateway();
        let req = PaymentRequest::signed(&mac, 9, 100, "ghost", 7);
        assert_eq!(gw.authorize(&req), Err(PaymentError::NoSuchAccount));
        assert_eq!(gw.capture(9), Err(PaymentError::NoSuchAuthorization));
        gw.open_account("carol", 500);
        gw.authorize(&PaymentRequest::signed(&mac, 10, 100, "carol", 8))
            .unwrap();
        gw.capture(10).unwrap();
        assert_eq!(gw.capture(10), Err(PaymentError::NoSuchAuthorization));
    }

    #[test]
    fn forged_receipts_fail_verification() {
        let (mut gw, mac) = gateway();
        gw.open_account("alice", 1_000);
        gw.authorize(&PaymentRequest::signed(&mac, 1, 100, "alice", 1))
            .unwrap();
        let mut receipt = gw.capture(1).unwrap();
        receipt.amount_cents = 1; // doctored refund amount
        assert!(!receipt.verify(gw.receipt_mac()));
        // A receipt signed with the wrong key also fails.
        let fake = Mac::new(b"not-the-gateway");
        assert!(!Receipt {
            order_id: 1,
            amount_cents: 100,
            auth_code: 1,
            tag: fake.compute(b"whatever"),
        }
        .verify(gw.receipt_mac()));
    }

    #[test]
    fn void_releases_the_hold_without_settling() {
        let (mut gw, mac) = gateway();
        gw.open_account("dana", 1_000);
        gw.authorize(&PaymentRequest::signed(&mac, 5, 800, "dana", 50))
            .unwrap();
        // Held funds block a second authorization…
        assert!(matches!(
            gw.authorize(&PaymentRequest::signed(&mac, 6, 500, "dana", 51)),
            Err(PaymentError::InsufficientFunds { .. })
        ));
        gw.void(5).unwrap();
        // …and voiding releases them with no settlement.
        assert_eq!(gw.balance("dana"), Some(1_000));
        gw.authorize(&PaymentRequest::signed(&mac, 7, 500, "dana", 52))
            .unwrap();
        assert_eq!(gw.capture(5), Err(PaymentError::NoSuchAuthorization));
        assert!(gw
            .audit()
            .iter()
            .any(|e| matches!(e, AuditEvent::Voided { order_id: 5 })));
    }

    #[test]
    fn audit_trail_records_the_full_history() {
        let (mut gw, mac) = gateway();
        gw.open_account("alice", 1_000);
        gw.authorize(&PaymentRequest::signed(&mac, 1, 100, "alice", 1))
            .unwrap();
        gw.capture(1).unwrap();
        let _ = gw.authorize(&PaymentRequest::signed(&mac, 2, 9_999, "alice", 2));
        let audit = gw.audit();
        assert_eq!(audit.len(), 3);
        assert!(matches!(
            audit[0],
            AuditEvent::Authorized { order_id: 1, .. }
        ));
        assert!(matches!(audit[1], AuditEvent::Captured { order_id: 1, .. }));
        assert!(matches!(audit[2], AuditEvent::Refused { order_id: 2, .. }));
    }
}
