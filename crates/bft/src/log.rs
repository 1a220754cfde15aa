//! The certified blockchain (CBC): an append-only, quorum-certified shared log.
//!
//! Section 6: "there is no coordinator; instead we use a special blockchain,
//! the certified blockchain, or CBC, as a kind of shared log. … Instead of
//! voting to commit transfers of individual assets, as in the timelock
//! protocol, each party votes on the CBC whether to commit or abort the entire
//! deal. The CBC serves to record and order these votes."
//!
//! Every appended record forms a block certified by the log's one validator
//! set (2f+1 signatures over a digest streamed from the record). The log
//! runs a single epoch; its certificates still name it. The log supports
//! censorship attacks (validators ignoring selected parties, Section 9) and
//! extraction of the proofs that escrow contracts check. A deal's status on
//! the log is [`DealStatus::replay`] of its records, the same commit rule an
//! escrow contract applies to a block proof.

use std::collections::BTreeSet;

use xchain_sim::crypto::{FnvHasher, Hash};
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::time::Time;

use crate::certificate::Certificate;
use crate::proof::{BlockProof, DealStatus, StatusCertificate};
use crate::validator::ValidatorSet;

/// One record published on the CBC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbcRecord {
    /// `startDeal(D, plist)`: records the start of a deal and its participants.
    StartDeal {
        /// The deal identifier.
        deal: DealId,
        /// The participating parties.
        plist: Vec<PartyId>,
    },
    /// `commit(D, h, X)`: party `voter` votes to commit the deal started by
    /// the startDeal entry with hash `start_hash`.
    CommitVote {
        /// The deal identifier.
        deal: DealId,
        /// Hash of the definitive startDeal record.
        start_hash: Hash,
        /// The voting party.
        voter: PartyId,
    },
    /// `abort(D, h, X)`: party `voter` votes to abort the deal.
    AbortVote {
        /// The deal identifier.
        deal: DealId,
        /// Hash of the definitive startDeal record.
        start_hash: Hash,
        /// The voting party.
        voter: PartyId,
    },
}

impl CbcRecord {
    /// Streams the record's canonical encoding into a hasher, word by word:
    /// a kind tag (1 start, 2 commit, 3 abort), the deal, then the plist, or
    /// the start hash and the voter. It is the record's only encoding.
    pub fn write_into(&self, h: &mut FnvHasher) {
        match self {
            CbcRecord::StartDeal { deal, plist } => {
                h.write_u64(1);
                h.write_u64(deal.0);
                for p in plist {
                    h.write_u64(p.0 as u64);
                }
            }
            CbcRecord::CommitVote {
                deal,
                start_hash,
                voter,
            } => {
                h.write_u64(2);
                h.write_u64(deal.0);
                h.write_u64(start_hash.0);
                h.write_u64(voter.0 as u64);
            }
            CbcRecord::AbortVote {
                deal,
                start_hash,
                voter,
            } => {
                h.write_u64(3);
                h.write_u64(deal.0);
                h.write_u64(start_hash.0);
                h.write_u64(voter.0 as u64);
            }
        }
    }

    /// Hash of the record (used as `h`, the startDeal hash).
    pub fn hash(&self) -> Hash {
        let mut h = FnvHasher::new();
        self.write_into(&mut h);
        h.finish()
    }
}

/// A record together with its position, timestamp, and quorum certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedBlock {
    /// Position in the log.
    pub index: u64,
    /// CBC time at which the record was ordered.
    pub time: Time,
    /// The record itself.
    pub record: CbcRecord,
    /// The certificate over `(index, record)` produced by the quorum.
    pub certificate: Certificate,
}

impl CertifiedBlock {
    /// The digest the certificate signs: the index followed by the record's
    /// encoding, streamed through an [`FnvHasher`]. Issuance and every
    /// verification compute it the same way.
    pub fn certified_digest(index: u64, record: &CbcRecord) -> Hash {
        let mut h = FnvHasher::new();
        h.write_u64(index);
        record.write_into(&mut h);
        h.finish()
    }
}

/// Errors raised by the CBC log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbcError {
    /// The submitting party is being censored by the validators.
    Censored(PartyId),
    /// Fewer than `2f + 1` validators are willing to certify (too many
    /// Byzantine members): the CBC stalls.
    QuorumUnavailable,
    /// A vote referenced a deal or startDeal hash that is not on the log.
    UnknownDeal(DealId),
    /// The voter is not in the deal's plist (checked by validators).
    VoterNotInPlist(PartyId),
}

impl std::fmt::Display for CbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CbcError::Censored(p) => write!(f, "CBC validators are censoring {p}"),
            CbcError::QuorumUnavailable => write!(f, "CBC cannot form a certifying quorum"),
            CbcError::UnknownDeal(d) => write!(f, "no startDeal recorded for {d}"),
            CbcError::VoterNotInPlist(p) => write!(f, "{p} is not in the deal's plist"),
        }
    }
}

impl std::error::Error for CbcError {}

/// The certified blockchain.
pub struct CbcLog {
    validators: ValidatorSet,
    blocks: Vec<CertifiedBlock>,
    censored: BTreeSet<PartyId>,
}

impl CbcLog {
    /// Creates a CBC with fault tolerance `f` (so `3f + 1` validators).
    pub fn new(f: usize, seed: u64) -> Self {
        CbcLog {
            validators: ValidatorSet::new(0, f, seed),
            blocks: Vec::new(),
            censored: BTreeSet::new(),
        }
    }

    /// The validator set; its [`ValidatorSet::info`] is what escrow
    /// contracts are configured with.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// Configures the validators to censor (ignore) entries submitted by a
    /// party — the censorship threat discussed in Section 9.
    pub fn censor(&mut self, party: PartyId) {
        self.censored.insert(party);
    }

    /// The full certified log.
    pub fn blocks(&self) -> &[CertifiedBlock] {
        &self.blocks
    }

    /// Number of blocks on the log.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    fn append(
        &mut self,
        time: Time,
        submitter: PartyId,
        record: CbcRecord,
    ) -> Result<u64, CbcError> {
        if self.censored.contains(&submitter) {
            return Err(CbcError::Censored(submitter));
        }
        let index = self.blocks.len() as u64;
        // Streaming issuance: hash the certified payload once and sign the
        // digest — no scratch words `Vec`.
        let digest = CertifiedBlock::certified_digest(index, &record);
        let sigs = self
            .validators
            .quorum_sign_digest(digest)
            .ok_or(CbcError::QuorumUnavailable)?;
        let certificate = Certificate::issue(self.validators.epoch(), sigs);
        self.blocks.push(CertifiedBlock {
            index,
            time,
            record,
            certificate,
        });
        Ok(index)
    }

    /// Publishes `startDeal(D, plist)` on behalf of `caller` (who must be in
    /// the plist — Section 6: "The calling party must appear in the plist").
    /// Returns the block index and the startDeal hash `h`.
    pub fn start_deal(
        &mut self,
        time: Time,
        caller: PartyId,
        deal: DealId,
        plist: Vec<PartyId>,
    ) -> Result<(u64, Hash), CbcError> {
        if !plist.contains(&caller) {
            return Err(CbcError::VoterNotInPlist(caller));
        }
        let record = CbcRecord::StartDeal { deal, plist };
        let h = record.hash();
        let index = self.append(time, caller, record)?;
        Ok((index, h))
    }

    fn plist_of(&self, deal: DealId, start_hash: Hash) -> Result<&[PartyId], CbcError> {
        self.blocks
            .iter()
            .find_map(|b| match &b.record {
                CbcRecord::StartDeal { deal: d, plist }
                    if *d == deal && b.record.hash() == start_hash =>
                {
                    Some(plist.as_slice())
                }
                _ => None,
            })
            .ok_or(CbcError::UnknownDeal(deal))
    }

    /// Publishes a commit vote `commit(D, h, X)`.
    pub fn vote_commit(
        &mut self,
        time: Time,
        deal: DealId,
        start_hash: Hash,
        voter: PartyId,
    ) -> Result<u64, CbcError> {
        self.vote(time, deal, start_hash, voter, true)
    }

    /// Publishes an abort vote `abort(D, h, X)`.
    pub fn vote_abort(
        &mut self,
        time: Time,
        deal: DealId,
        start_hash: Hash,
        voter: PartyId,
    ) -> Result<u64, CbcError> {
        self.vote(time, deal, start_hash, voter, false)
    }

    /// Publishes a vote of a plist member on the deal started at `start_hash`.
    fn vote(
        &mut self,
        time: Time,
        deal: DealId,
        start_hash: Hash,
        voter: PartyId,
        commit: bool,
    ) -> Result<u64, CbcError> {
        if !self.plist_of(deal, start_hash)?.contains(&voter) {
            return Err(CbcError::VoterNotInPlist(voter));
        }
        let record = if commit {
            CbcRecord::CommitVote {
                deal,
                start_hash,
                voter,
            }
        } else {
            CbcRecord::AbortVote {
                deal,
                start_hash,
                voter,
            }
        };
        self.append(time, voter, record)
    }

    /// The deal's status: the commit rule, [`DealStatus::replay`], over the
    /// ordered log.
    pub fn deal_status(&self, deal: DealId, start_hash: Hash) -> Result<DealStatus, CbcError> {
        DealStatus::replay(deal, start_hash, &self.blocks).ok_or(CbcError::UnknownDeal(deal))
    }

    /// Requests a status certificate from the validators: the optimization of
    /// Section 6.2 where the quorum vouches for the deal's current state so
    /// contracts need only verify `2f + 1` signatures.
    pub fn status_certificate(
        &self,
        time: Time,
        deal: DealId,
        start_hash: Hash,
    ) -> Result<StatusCertificate, CbcError> {
        let status = self.deal_status(deal, start_hash)?;
        let digest = StatusCertificate::payload_digest(deal, start_hash, &status);
        let sigs = self
            .validators
            .quorum_sign_digest(digest)
            .ok_or(CbcError::QuorumUnavailable)?;
        let certificate = Certificate::issue(self.validators.epoch(), sigs);
        Ok(StatusCertificate {
            deal,
            start_hash,
            status,
            issued_at: time,
            certificate,
        })
    }

    /// Extracts the block-range proof for a deal: every certified block that
    /// mentions the deal, in log order. This is the "straightforward
    /// approach" of Section 6.2 whose verification cost the
    /// status-certificate optimization avoids.
    pub fn block_proof(&self, deal: DealId, start_hash: Hash) -> Result<BlockProof, CbcError> {
        // Ensure the deal exists.
        let _ = self.plist_of(deal, start_hash)?;
        let blocks = self
            .blocks
            .iter()
            .filter(|b| match &b.record {
                CbcRecord::StartDeal { deal: d, .. }
                | CbcRecord::CommitVote { deal: d, .. }
                | CbcRecord::AbortVote { deal: d, .. } => *d == deal,
            })
            .cloned()
            .collect();
        Ok(BlockProof {
            deal,
            start_hash,
            blocks,
        })
    }
}

impl std::fmt::Debug for CbcLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CbcLog")
            .field("epoch", &self.validators.epoch())
            .field("f", &self.validators.f())
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only log operations: no deal asks for its start record.
    impl CbcLog {
        /// The definitive (earliest) startDeal record for a deal, if any.
        fn definitive_start(&self, deal: DealId) -> Option<&CertifiedBlock> {
            self.blocks
                .iter()
                .find(|b| matches!(&b.record, CbcRecord::StartDeal { deal: d, .. } if *d == deal))
        }
    }

    fn parties(n: u32) -> Vec<PartyId> {
        (0..n).map(PartyId).collect()
    }

    #[test]
    fn start_deal_and_votes_commit() {
        let mut cbc = CbcLog::new(1, 5);
        let plist = parties(3);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), plist.clone())
            .unwrap();
        assert_eq!(cbc.deal_status(DealId(1), h).unwrap(), DealStatus::Active);
        cbc.vote_commit(Time(1), DealId(1), h, PartyId(0)).unwrap();
        cbc.vote_commit(Time(2), DealId(1), h, PartyId(1)).unwrap();
        assert_eq!(cbc.deal_status(DealId(1), h).unwrap(), DealStatus::Active);
        let idx = cbc.vote_commit(Time(3), DealId(1), h, PartyId(2)).unwrap();
        assert_eq!(
            cbc.deal_status(DealId(1), h).unwrap(),
            DealStatus::Committed {
                decisive_index: idx
            }
        );
    }

    #[test]
    fn abort_before_full_commit_wins() {
        let mut cbc = CbcLog::new(1, 5);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(3))
            .unwrap();
        cbc.vote_commit(Time(1), DealId(1), h, PartyId(0)).unwrap();
        let idx = cbc.vote_abort(Time(2), DealId(1), h, PartyId(1)).unwrap();
        cbc.vote_commit(Time(3), DealId(1), h, PartyId(1)).unwrap();
        cbc.vote_commit(Time(4), DealId(1), h, PartyId(2)).unwrap();
        assert_eq!(
            cbc.deal_status(DealId(1), h).unwrap(),
            DealStatus::Aborted {
                decisive_index: idx
            }
        );
    }

    #[test]
    fn abort_after_commit_is_ignored() {
        let mut cbc = CbcLog::new(1, 5);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        cbc.vote_commit(Time(1), DealId(1), h, PartyId(0)).unwrap();
        let idx = cbc.vote_commit(Time(2), DealId(1), h, PartyId(1)).unwrap();
        // Rescinding after the decisive commit has no effect.
        cbc.vote_abort(Time(3), DealId(1), h, PartyId(0)).unwrap();
        assert_eq!(
            cbc.deal_status(DealId(1), h).unwrap(),
            DealStatus::Committed {
                decisive_index: idx
            }
        );
    }

    #[test]
    fn votes_require_membership_and_known_deal() {
        let mut cbc = CbcLog::new(1, 5);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        assert_eq!(
            cbc.vote_commit(Time(1), DealId(1), h, PartyId(9)),
            Err(CbcError::VoterNotInPlist(PartyId(9)))
        );
        assert_eq!(
            cbc.vote_commit(Time(1), DealId(2), h, PartyId(0)),
            Err(CbcError::UnknownDeal(DealId(2)))
        );
        assert_eq!(
            cbc.start_deal(Time(0), PartyId(5), DealId(3), parties(2)),
            Err(CbcError::VoterNotInPlist(PartyId(5)))
        );
    }

    #[test]
    fn earliest_start_deal_is_definitive() {
        let mut cbc = CbcLog::new(1, 5);
        let (i1, _) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        let (_i2, _) = cbc
            .start_deal(Time(1), PartyId(1), DealId(1), parties(3))
            .unwrap();
        assert_eq!(cbc.definitive_start(DealId(1)).unwrap().index, i1);
    }

    #[test]
    fn censorship_blocks_submissions() {
        let mut cbc = CbcLog::new(1, 5);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        cbc.censor(PartyId(1));
        assert_eq!(
            cbc.vote_commit(Time(1), DealId(1), h, PartyId(1)),
            Err(CbcError::Censored(PartyId(1)))
        );
        // Parties nobody censors still get through.
        assert!(cbc.vote_commit(Time(2), DealId(1), h, PartyId(0)).is_ok());
    }

    #[test]
    fn certified_digests_are_pinned() {
        let records = [
            CbcRecord::StartDeal {
                deal: DealId(7),
                plist: parties(3),
            },
            CbcRecord::CommitVote {
                deal: DealId(7),
                start_hash: Hash(99),
                voter: PartyId(1),
            },
            CbcRecord::AbortVote {
                deal: DealId(7),
                start_hash: Hash(99),
                voter: PartyId(2),
            },
        ];
        let pinned = [
            0xfae8_08c1_7774_2098,
            0x5af7_e1e7_44ec_0ca4,
            0xdb0d_747b_1ea0_4e23,
        ];
        for (i, (r, digest)) in records.iter().zip(pinned).enumerate() {
            assert_eq!(CertifiedBlock::certified_digest(i as u64, r), Hash(digest));
        }
    }

    #[test]
    fn quorum_unavailable_stalls_log() {
        let mut cbc = CbcLog::new(1, 5);
        let ids = cbc.validators().member_ids();
        cbc.validators.set_byzantine(ids[0..2].to_vec());
        assert_eq!(
            cbc.start_deal(Time(0), PartyId(0), DealId(1), parties(2)),
            Err(CbcError::QuorumUnavailable)
        );
    }
}
