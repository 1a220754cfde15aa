//! Validator sets for the certified blockchain (CBC).
//!
//! Section 6.2: "Blocks are approved by a known set of 3f+1 validators, of
//! which at most f can deviate from the protocol. … Each block in a BFT
//! blockchain is vouched for by a certificate containing at least 2f+1
//! validator signatures of that block's hash."
//!
//! The CBC here runs a single epoch: one validator set certifies the whole
//! log, and escrow contracts are configured with its public description.
//! (The paper's periodic reconfiguration, where 2f+1 current validators
//! elect a new set, is not modelled: no deal spans one.) Consensus internals
//! are abstracted exactly as the paper does; what the deal protocols rely on
//! is the externally-checkable certificate structure, which this module
//! provides. Validators sign digests only.

use xchain_sim::crypto::{Hash, KeyDirectory, KeyPair, PublicKey, Signature};
use xchain_sim::ids::{PartyId, ValidatorId};
use xchain_sim::ledger::Blockchain;

/// Offset used to register validator keys in party key directories without
/// colliding with real party ids. Validators are not deal parties, but the
/// simulated signature scheme verifies through a [`KeyDirectory`], so each
/// validator is given a synthetic party id in a reserved range.
pub const VALIDATOR_PARTY_OFFSET: u32 = 0x8000_0000;

/// Returns the synthetic party id under which a validator's key is registered.
pub fn validator_party_id(v: ValidatorId) -> PartyId {
    PartyId(VALIDATOR_PARTY_OFFSET + v.0)
}

/// One epoch's validator set: `3f + 1` validators tolerating `f` Byzantine
/// members, with quorum size `2f + 1`.
#[derive(Debug, Clone)]
pub struct ValidatorSet {
    epoch: u64,
    f: usize,
    members: Vec<(ValidatorId, KeyPair)>,
    /// Indices of members that behave Byzantine in attack scenarios
    /// (equivocate, censor, or refuse to sign). At most `f` of them matter.
    byzantine: Vec<ValidatorId>,
}

/// The public, externally-checkable description of a validator set: what the
/// paper passes to escrow contracts "in place of the ellipses" at escrow time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatorSetInfo {
    /// The epoch the set certifies in (the CBC's single epoch is 0).
    /// Certificates name it, and contracts check it.
    pub epoch: u64,
    /// The fault-tolerance parameter `f`.
    pub f: usize,
    /// The validators and their public keys.
    pub members: Vec<(ValidatorId, PublicKey)>,
}

impl ValidatorSetInfo {
    /// The quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Looks up a validator's public key.
    pub fn public_key_of(&self, v: ValidatorId) -> Option<PublicKey> {
        self.members
            .iter()
            .find(|(id, _)| *id == v)
            .map(|(_, pk)| *pk)
    }

    /// True if `v` is a member of this set.
    pub fn contains(&self, v: ValidatorId) -> bool {
        self.members.iter().any(|(id, _)| *id == v)
    }
}

impl ValidatorSet {
    /// Creates the validator set for `epoch` with fault tolerance `f`
    /// (so `3f + 1` members), deriving keys deterministically from `seed`.
    pub fn new(epoch: u64, f: usize, seed: u64) -> Self {
        let n = 3 * f + 1;
        let members = (0..n as u32)
            .map(|i| {
                let vid = ValidatorId((epoch as u32) * 10_000 + i);
                let kp = KeyPair::derive(validator_party_id(vid), seed ^ 0xcbc0_0000_0000_0000);
                (vid, kp)
            })
            .collect();
        ValidatorSet {
            epoch,
            f,
            members,
            byzantine: Vec::new(),
        }
    }

    /// The epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fault-tolerance parameter `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Marks up to `f` validators as Byzantine (used by censorship /
    /// equivocation experiments). Marking more than `f` is allowed by the
    /// simulator but breaks the BFT assumption, which is precisely what some
    /// negative tests exercise.
    pub fn set_byzantine(&mut self, ids: Vec<ValidatorId>) {
        self.byzantine = ids;
    }

    /// The public description of the set: what parties pass to escrow
    /// contracts when escrowing ("passing the 3f+1 validators of the initial
    /// block as an extra argument to each of the deal's escrow contracts").
    pub fn info(&self) -> ValidatorSetInfo {
        ValidatorSetInfo {
            epoch: self.epoch,
            f: self.f,
            members: self
                .members
                .iter()
                .map(|(id, kp)| (*id, kp.public()))
                .collect(),
        }
    }

    /// Registers every validator's verification material in a key directory.
    pub fn register_in(&self, dir: &mut KeyDirectory) {
        for (vid, kp) in &self.members {
            dir.register(validator_party_id(*vid), kp);
        }
    }

    /// Registers every validator's verification material on a blockchain, so
    /// escrow contracts there can verify CBC certificates through the normal
    /// gas-metered path.
    pub fn register_on_chain(&self, chain: &mut Blockchain) {
        chain.register_keys(
            self.members
                .iter()
                .map(|(vid, kp)| (validator_party_id(*vid), kp)),
        );
    }

    /// Produces quorum signatures (from the first `2f + 1` non-Byzantine
    /// validators) over a payload digest, so certifying a record costs one
    /// streamed hash and no scratch allocations. Returns `None` if fewer
    /// than `2f + 1` validators are willing to sign — i.e. the honest quorum
    /// cannot be formed, which stalls the CBC (a liveness, never a safety,
    /// failure).
    pub fn quorum_sign_digest(&self, digest: Hash) -> Option<Vec<(ValidatorId, Signature)>> {
        let willing = self
            .members
            .iter()
            .filter(|(id, _)| !self.byzantine.contains(id));
        if willing.clone().count() < self.quorum() {
            return None;
        }
        Some(
            willing
                .take(self.quorum())
                .map(|(id, kp)| (*id, kp.sign_digest(digest)))
                .collect(),
        )
    }

    /// Produces signatures from *Byzantine* validators only, over an arbitrary
    /// digest. Used by attack scenarios to attempt forged certificates; the
    /// certificate checker must reject these because there are at most `f`
    /// such signatures, below quorum.
    pub fn byzantine_sign(&self, digest: Hash) -> Vec<(ValidatorId, Signature)> {
        self.members
            .iter()
            .filter(|(id, _)| self.byzantine.contains(id))
            .map(|(id, kp)| (*id, kp.sign_digest(digest)))
            .collect()
    }

    /// The validator ids in this set.
    pub fn member_ids(&self) -> Vec<ValidatorId> {
        self.members.iter().map(|(id, _)| *id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_sim::crypto::hash_words;

    #[test]
    fn sizes_follow_3f_plus_1() {
        for f in 1..=5 {
            let set = ValidatorSet::new(0, f, 1);
            assert_eq!(set.member_ids().len(), 3 * f + 1);
            assert_eq!(set.quorum(), 2 * f + 1);
            assert_eq!(set.info().members.len(), 3 * f + 1);
            assert_eq!(set.info().quorum(), 2 * f + 1);
        }
    }

    #[test]
    fn quorum_sign_produces_exactly_quorum_signatures() {
        let set = ValidatorSet::new(0, 2, 7);
        let sigs = set.quorum_sign_digest(hash_words(&[1, 2, 3])).unwrap();
        assert_eq!(sigs.len(), 5);
        let mut dir = KeyDirectory::new();
        set.register_in(&mut dir);
        for (vid, sig) in &sigs {
            assert_eq!(
                dir.public_key_of(validator_party_id(*vid)),
                Some(sig.signer)
            );
            assert!(dir.verify_words(sig, &[1, 2, 3]));
            assert!(!dir.verify_words(sig, &[1, 2, 4]));
        }
    }

    #[test]
    fn byzantine_members_cannot_form_quorum_alone() {
        let mut set = ValidatorSet::new(0, 1, 3);
        let ids = set.member_ids();
        set.set_byzantine(vec![ids[0]]);
        let forged = set.byzantine_sign(hash_words(&[9, 9]));
        assert_eq!(forged.len(), 1);
        assert!(forged.len() < set.quorum());
        // honest quorum still available
        assert!(set.quorum_sign_digest(hash_words(&[1])).is_some());
    }

    #[test]
    fn too_many_byzantine_stalls_quorum() {
        let mut set = ValidatorSet::new(0, 1, 3);
        let ids = set.member_ids();
        set.set_byzantine(ids[0..2].to_vec()); // 2 > f = 1
        assert!(set.quorum_sign_digest(hash_words(&[1])).is_none());
    }

    #[test]
    fn info_lookup_and_membership() {
        let set = ValidatorSet::new(2, 1, 11);
        let info = set.info();
        assert_eq!(info.epoch, 2);
        let ids = set.member_ids();
        assert!(info.contains(ids[0]));
        assert!(!info.contains(ValidatorId(999_999)));
        assert!(info.public_key_of(ids[1]).is_some());
        assert_eq!(info.public_key_of(ValidatorId(999_999)), None);
    }

    #[test]
    fn epochs_have_distinct_keys() {
        let a = ValidatorSet::new(0, 1, 5);
        let b = ValidatorSet::new(1, 1, 5);
        assert_ne!(a.info().members[0].1, b.info().members[0].1);
    }
}
