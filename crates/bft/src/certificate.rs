//! Quorum certificates: the externally-checkable evidence produced by the CBC.
//!
//! A certificate over some payload carries at least `2f + 1` validator
//! signatures of that payload's digest. A certificate is *final*: unlike a
//! proof-of-work proof, it cannot be contradicted later (Section 6.2).
//! [`Certificate::verify`] is Figure 6's check, written once: the CBC
//! manager contract runs it on status certificates and charges what it
//! reports, and block proofs run it on every block.

use std::fmt;

use xchain_sim::crypto::{Hash, KeyDirectory, Signature};
use xchain_sim::ids::ValidatorId;

use crate::validator::{validator_party_id, ValidatorSetInfo};

/// A quorum certificate: validator signatures over a payload digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The epoch of the validator set that produced the certificate.
    pub epoch: u64,
    /// Validator signatures over the payload digest. The certificate does
    /// not carry the digest: [`Certificate::verify`] checks the signatures
    /// against the digest of the payload it is shown.
    pub signatures: Vec<(ValidatorId, Signature)>,
}

/// The result of verifying a certificate: what failed, if anything, and the
/// work done to find out, which a contract charges as gas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CertCheck {
    /// Number of individual signature verifications performed (the dominant
    /// gas cost in the CBC commit phase, Figure 4).
    pub sig_verifications: u64,
    /// Number of Figure 6 `require`s evaluated, the failing one included:
    /// a contract pays one compute step for each.
    pub requires: u64,
    /// Why verification failed, if it did.
    pub failure: Option<CertFailure>,
}

impl CertCheck {
    /// Whether the certificate is valid.
    pub fn is_valid(&self) -> bool {
        self.failure.is_none()
    }

    /// One `require`: counts it, and fails with `failure` unless `cond`.
    fn require(&mut self, cond: bool, failure: CertFailure) -> Result<(), CertFailure> {
        self.requires += 1;
        if cond {
            Ok(())
        } else {
            Err(failure)
        }
    }
}

/// Reasons a certificate can fail verification (Figure 6's `require` checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertFailure {
    /// A validator id appears more than once.
    DuplicateSigner,
    /// A signer is not a member of the expected validator set.
    UnknownValidator,
    /// Fewer than `2f + 1` signatures.
    InsufficientQuorum,
    /// The epoch does not match the expected validator set.
    WrongEpoch,
    /// A signer's key is not the one registered for it, or its signature
    /// does not verify.
    BadSignature,
}

impl fmt::Display for CertFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CertFailure::DuplicateSigner => "duplicate validator signature",
            CertFailure::UnknownValidator => "signer is not a configured validator",
            CertFailure::InsufficientQuorum => "fewer than 2f+1 validator signatures",
            CertFailure::WrongEpoch => {
                "certificate epoch does not match the configured validator set"
            }
            CertFailure::BadSignature => "invalid validator signature",
        })
    }
}

impl Certificate {
    /// Builds a certificate from signatures over a payload digest: the CBC
    /// log streams each payload through an `FnvHasher` and has its quorum
    /// sign the digest.
    pub fn issue(epoch: u64, signatures: Vec<(ValidatorId, Signature)>) -> Self {
        Certificate { epoch, signatures }
    }

    /// Figure 6's check against an expected validator set and the digest of
    /// the payload the certificate should vouch for: the epoch matches,
    /// signers are unique (compared in place, with no allocation), every
    /// signer is a validator, there are at least `2f + 1` of them, and each
    /// of the first `2f + 1` signatures is by the key registered for its
    /// signer and verifies (verifying more than the quorum buys nothing).
    /// Stops at the first failed `require`, reporting how many `require`s
    /// and signature verifications it evaluated so callers can charge gas.
    pub fn verify(
        &self,
        expected: &ValidatorSetInfo,
        digest: Hash,
        keys: &KeyDirectory,
    ) -> CertCheck {
        let mut check = CertCheck::default();
        check.failure = self.figure6(expected, digest, keys, &mut check).err();
        check
    }

    fn figure6(
        &self,
        expected: &ValidatorSetInfo,
        digest: Hash,
        keys: &KeyDirectory,
        check: &mut CertCheck,
    ) -> Result<(), CertFailure> {
        check.require(self.epoch == expected.epoch, CertFailure::WrongEpoch)?;
        // line 6: no duplicate signers.
        for (i, (vid, _)) in self.signatures.iter().enumerate() {
            let duplicate = self.signatures[..i].iter().any(|(seen, _)| seen == vid);
            check.require(!duplicate, CertFailure::DuplicateSigner)?;
        }
        // line 7: only validators vote.
        let members = self
            .signatures
            .iter()
            .all(|(vid, _)| expected.contains(*vid));
        check.require(members, CertFailure::UnknownValidator)?;
        // line 8: enough validators vote.
        let quorum = expected.quorum();
        check.require(
            self.signatures.len() >= quorum,
            CertFailure::InsufficientQuorum,
        )?;
        // lines 9-11: verify 2f+1 signatures (expensive). Validator keys are
        // registered under synthetic party ids.
        for (vid, sig) in self.signatures.iter().take(quorum) {
            let pk = expected.public_key_of(*vid);
            let registered = keys.public_key_of(validator_party_id(*vid));
            check.require(pk.is_some() && registered == pk, CertFailure::BadSignature)?;
            check.sig_verifications += 1;
            let valid = pk == Some(sig.signer) && keys.verify_digest(sig, digest);
            check.require(valid, CertFailure::BadSignature)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorSet;
    use xchain_sim::crypto::hash_words;

    fn setup(f: usize) -> (ValidatorSet, KeyDirectory) {
        let set = ValidatorSet::new(0, f, 99);
        let mut dir = KeyDirectory::new();
        set.register_in(&mut dir);
        (set, dir)
    }

    fn certify(set: &ValidatorSet, payload: &[u64]) -> Certificate {
        let digest = hash_words(payload);
        Certificate::issue(set.epoch(), set.quorum_sign_digest(digest).unwrap())
    }

    #[test]
    fn valid_certificate_verifies_with_quorum_cost() {
        let (set, dir) = setup(2);
        let payload = [1, 2, 3];
        let cert = certify(&set, &payload);
        let check = cert.verify(&set.info(), hash_words(&payload), &dir);
        assert!(check.is_valid());
        // 2f+1 signatures with f = 2; the epoch, 5 distinct signers, the
        // members, the quorum and 2 per signature
        assert_eq!(check.sig_verifications, 5);
        assert_eq!(check.requires, 18);
        assert_eq!(check.failure, None);
    }

    #[test]
    fn wrong_payload_rejected() {
        let (set, dir) = setup(1);
        let cert = certify(&set, &[1, 2, 3]);
        let check = cert.verify(&set.info(), hash_words(&[1, 2, 4]), &dir);
        assert!(!check.is_valid());
        assert_eq!(check.failure, Some(CertFailure::BadSignature));
    }

    #[test]
    fn insufficient_quorum_rejected() {
        let (set, dir) = setup(1);
        let payload = [7];
        let mut sigs = set.quorum_sign_digest(hash_words(&payload)).unwrap();
        sigs.truncate(set.quorum() - 1);
        let cert = Certificate::issue(0, sigs);
        let check = cert.verify(&set.info(), hash_words(&payload), &dir);
        assert!(!check.is_valid());
        assert_eq!(check.failure, Some(CertFailure::InsufficientQuorum));
        assert_eq!(check.sig_verifications, 0);
    }

    #[test]
    fn duplicate_signers_rejected() {
        let (set, dir) = setup(1);
        let payload = [7];
        let mut sigs = set.quorum_sign_digest(hash_words(&payload)).unwrap();
        let dup = sigs[0];
        sigs.push(dup);
        let cert = Certificate::issue(0, sigs);
        let check = cert.verify(&set.info(), hash_words(&payload), &dir);
        assert!(!check.is_valid());
        assert_eq!(check.failure, Some(CertFailure::DuplicateSigner));
    }

    #[test]
    fn foreign_validator_rejected() {
        let (set, mut dir) = setup(1);
        let other = ValidatorSet::new(1, 1, 99);
        other.register_in(&mut dir);
        let payload = [7];
        let sigs = other.quorum_sign_digest(hash_words(&payload)).unwrap();
        let cert = Certificate::issue(0, sigs);
        let check = cert.verify(&set.info(), hash_words(&payload), &dir);
        assert!(!check.is_valid());
        assert_eq!(check.failure, Some(CertFailure::UnknownValidator));
    }

    #[test]
    fn wrong_epoch_rejected() {
        let (set, dir) = setup(1);
        let payload = [7];
        let mut cert = certify(&set, &payload);
        cert.epoch = 3;
        let check = cert.verify(&set.info(), hash_words(&payload), &dir);
        assert!(!check.is_valid());
        assert_eq!(check.failure, Some(CertFailure::WrongEpoch));
    }

    #[test]
    fn byzantine_minority_cannot_forge() {
        let (mut set, dir) = setup(1);
        let ids = set.member_ids();
        set.set_byzantine(vec![ids[0]]);
        let forged_payload = [666];
        let digest = hash_words(&forged_payload);
        let cert = Certificate::issue(0, set.byzantine_sign(digest));
        let check = cert.verify(&set.info(), digest, &dir);
        assert!(!check.is_valid());
        assert_eq!(check.failure, Some(CertFailure::InsufficientQuorum));
    }
}
