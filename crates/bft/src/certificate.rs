//! Quorum certificates: the externally-checkable evidence produced by the CBC.
//!
//! A certificate over some payload carries at least `2f + 1` validator
//! signatures of that payload's hash. A certificate is *final*: unlike a
//! proof-of-work proof, it cannot be contradicted later (Section 6.2).

use xchain_sim::crypto::{hash_words, Hash, KeyDirectory, Signature};
use xchain_sim::ids::ValidatorId;

use crate::validator::{validator_party_id, ValidatorSetInfo};

/// A quorum certificate: validator signatures over a payload hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The epoch of the validator set that produced the certificate.
    pub epoch: u64,
    /// The hash of the certified payload.
    pub payload_hash: Hash,
    /// Validator signatures over the payload words.
    pub signatures: Vec<(ValidatorId, Signature)>,
}

/// The result of verifying a certificate, including how many signature
/// verifications were performed (the dominant gas cost in the CBC commit
/// phase, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertCheck {
    /// Whether the certificate is valid.
    pub valid: bool,
    /// Number of individual signature verifications performed.
    pub sig_verifications: u64,
    /// Why verification failed, if it did.
    pub failure: Option<CertFailure>,
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
    /// At least one signature failed cryptographic verification.
    BadSignature,
}

impl Certificate {
    /// Builds a certificate from validator signatures over `payload`.
    pub fn new(epoch: u64, payload: &[u64], signatures: Vec<(ValidatorId, Signature)>) -> Self {
        Certificate::issue(epoch, hash_words(payload), signatures)
    }

    /// Builds a certificate from signatures over a pre-computed payload
    /// digest: the streaming issuance path used by the CBC log, which feeds
    /// each record through an `FnvHasher` instead of materializing the
    /// payload words. Equivalent to [`Certificate::new`] whenever
    /// `payload_hash == hash_words(payload)`.
    pub fn issue(
        epoch: u64,
        payload_hash: Hash,
        signatures: Vec<(ValidatorId, Signature)>,
    ) -> Self {
        Certificate {
            epoch,
            payload_hash,
            signatures,
        }
    }

    /// Verifies the certificate against an expected validator set and the
    /// payload it is supposed to certify. Mirrors the checks of Figure 6:
    /// unique signers, signers are validators, at least `2f + 1` of them, and
    /// each signature verifies. Returns the number of signature verifications
    /// actually performed so callers can charge gas accordingly.
    pub fn verify(
        &self,
        expected: &ValidatorSetInfo,
        payload: &[u64],
        keys: &KeyDirectory,
    ) -> CertCheck {
        let fail = |failure, sig_verifications| CertCheck {
            valid: false,
            sig_verifications,
            failure: Some(failure),
        };
        if self.epoch != expected.epoch {
            return fail(CertFailure::WrongEpoch, 0);
        }
        if hash_words(payload) != self.payload_hash {
            return fail(CertFailure::BadSignature, 0);
        }
        // no duplicate signers (Figure 6 line 6)
        let mut seen: Vec<ValidatorId> = Vec::with_capacity(self.signatures.len());
        for (vid, _) in &self.signatures {
            if seen.contains(vid) {
                return fail(CertFailure::DuplicateSigner, 0);
            }
            seen.push(*vid);
        }
        // only validators vote (line 7)
        if !self
            .signatures
            .iter()
            .all(|(vid, _)| expected.contains(*vid))
        {
            return fail(CertFailure::UnknownValidator, 0);
        }
        // enough validators vote (line 8)
        if self.signatures.len() < expected.quorum() {
            return fail(CertFailure::InsufficientQuorum, 0);
        }
        // verify exactly 2f+1 signatures (line 9-11): verifying more than the
        // quorum buys nothing, so a careful contract stops at the quorum.
        let mut verifications = 0;
        for (vid, sig) in self.signatures.iter().take(expected.quorum()) {
            verifications += 1;
            let Some(pk) = expected.public_key_of(*vid) else {
                return fail(CertFailure::UnknownValidator, verifications);
            };
            if sig.signer != pk {
                return fail(CertFailure::BadSignature, verifications);
            }
            let registered = keys.public_key_of(validator_party_id(*vid)) == Some(pk);
            if !registered || !keys.verify_digest(sig, self.payload_hash) {
                return fail(CertFailure::BadSignature, verifications);
            }
        }
        CertCheck {
            valid: true,
            sig_verifications: verifications,
            failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorSet;

    fn setup(f: usize) -> (ValidatorSet, KeyDirectory) {
        let set = ValidatorSet::new(0, f, 99);
        let mut dir = KeyDirectory::new();
        set.register_in(&mut dir);
        (set, dir)
    }

    fn certify(set: &ValidatorSet, payload: &[u64]) -> Certificate {
        Certificate::new(set.epoch(), payload, set.quorum_sign(payload).unwrap())
    }

    #[test]
    fn valid_certificate_verifies_with_quorum_cost() {
        let (set, dir) = setup(2);
        let payload = [1, 2, 3];
        let cert = certify(&set, &payload);
        let check = cert.verify(&set.info(), &payload, &dir);
        assert!(check.valid);
        assert_eq!(check.sig_verifications, 5); // 2f+1 with f = 2
        assert_eq!(check.failure, None);
    }

    #[test]
    fn wrong_payload_rejected() {
        let (set, dir) = setup(1);
        let cert = certify(&set, &[1, 2, 3]);
        let check = cert.verify(&set.info(), &[1, 2, 4], &dir);
        assert!(!check.valid);
        assert_eq!(check.failure, Some(CertFailure::BadSignature));
    }

    #[test]
    fn insufficient_quorum_rejected() {
        let (set, dir) = setup(1);
        let payload = [7];
        let mut sigs = set.quorum_sign(&payload).unwrap();
        sigs.truncate(set.quorum() - 1);
        let cert = Certificate::new(0, &payload, sigs);
        let check = cert.verify(&set.info(), &payload, &dir);
        assert!(!check.valid);
        assert_eq!(check.failure, Some(CertFailure::InsufficientQuorum));
        assert_eq!(check.sig_verifications, 0);
    }

    #[test]
    fn duplicate_signers_rejected() {
        let (set, dir) = setup(1);
        let payload = [7];
        let mut sigs = set.quorum_sign(&payload).unwrap();
        let dup = sigs[0];
        sigs.push(dup);
        let cert = Certificate::new(0, &payload, sigs);
        let check = cert.verify(&set.info(), &payload, &dir);
        assert!(!check.valid);
        assert_eq!(check.failure, Some(CertFailure::DuplicateSigner));
    }

    #[test]
    fn foreign_validator_rejected() {
        let (set, mut dir) = setup(1);
        let other = ValidatorSet::new(1, 1, 99);
        other.register_in(&mut dir);
        let payload = [7];
        let sigs = other.quorum_sign(&payload).unwrap();
        let cert = Certificate::new(0, &payload, sigs);
        let check = cert.verify(&set.info(), &payload, &dir);
        assert!(!check.valid);
        assert_eq!(check.failure, Some(CertFailure::UnknownValidator));
    }

    #[test]
    fn wrong_epoch_rejected() {
        let (set, dir) = setup(1);
        let payload = [7];
        let cert = Certificate::new(3, &payload, set.quorum_sign(&payload).unwrap());
        let check = cert.verify(&set.info(), &payload, &dir);
        assert!(!check.valid);
        assert_eq!(check.failure, Some(CertFailure::WrongEpoch));
    }

    #[test]
    fn byzantine_minority_cannot_forge() {
        let (mut set, dir) = setup(1);
        let ids = set.member_ids();
        set.set_byzantine(vec![ids[0]]);
        let forged_payload = [666];
        let sigs = set.byzantine_sign(&forged_payload);
        let cert = Certificate::new(0, &forged_payload, sigs);
        let check = cert.verify(&set.info(), &forged_payload, &dir);
        assert!(!check.valid);
        assert_eq!(check.failure, Some(CertFailure::InsufficientQuorum));
    }
}
