//! The certified blockchain (CBC): an append-only, quorum-certified shared log.
//!
//! Section 6: "there is no coordinator; instead we use a special blockchain,
//! the certified blockchain, or CBC, as a kind of shared log. … Instead of
//! voting to commit transfers of individual assets, as in the timelock
//! protocol, each party votes on the CBC whether to commit or abort the entire
//! deal. The CBC serves to record and order these votes."
//!
//! Every appended record forms a block certified by the current validator set
//! (2f+1 signatures), which names its epoch so proofs can be checked across
//! validator reconfigurations. The log supports censorship attacks
//! (validators ignoring selected parties, Section 9) and extraction of the
//! proofs that escrow contracts check.

use std::collections::BTreeSet;

use xchain_sim::crypto::{FnvHasher, Hash};
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::time::Time;

use crate::certificate::Certificate;
use crate::proof::{BlockProof, DealStatus, StatusCertificate};
use crate::validator::{ValidatorSet, ValidatorSetInfo};

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
    /// A validator reconfiguration: the current set elects the set for
    /// `new_epoch` (whose membership is published alongside).
    Reconfigure {
        /// The epoch being installed.
        new_epoch: u64,
    },
}

impl CbcRecord {
    /// Canonical word encoding used for hashing and certification.
    pub fn to_words(&self) -> Vec<u64> {
        match self {
            CbcRecord::StartDeal { deal, plist } => {
                let mut w = vec![1u64, deal.0];
                w.extend(plist.iter().map(|p| p.0 as u64));
                w
            }
            CbcRecord::CommitVote {
                deal,
                start_hash,
                voter,
            } => vec![2u64, deal.0, start_hash.0, voter.0 as u64],
            CbcRecord::AbortVote {
                deal,
                start_hash,
                voter,
            } => vec![3u64, deal.0, start_hash.0, voter.0 as u64],
            CbcRecord::Reconfigure { new_epoch } => vec![4u64, *new_epoch],
        }
    }

    /// Streams the canonical word encoding into a hasher without
    /// materializing it (block hashing runs once per appended record).
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
            CbcRecord::Reconfigure { new_epoch } => {
                h.write_u64(4);
                h.write_u64(*new_epoch);
            }
        }
    }

    /// Hash of the record (used as `h`, the startDeal hash). Streamed —
    /// equal to hashing [`CbcRecord::to_words`] but allocation-free.
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
    /// The certificate over `(index, record)` produced by the epoch's quorum.
    pub certificate: Certificate,
}

impl CertifiedBlock {
    /// The words the certificate signs: the index followed by the record words.
    /// Verification sites use this to rebuild the signed payload; issuance
    /// streams the same encoding through [`CertifiedBlock::certified_digest`].
    pub fn certified_words(index: u64, record: &CbcRecord) -> Vec<u64> {
        let mut w = vec![index];
        w.extend(record.to_words());
        w
    }

    /// The digest of [`CertifiedBlock::certified_words`], computed by
    /// streaming the index and record through an [`FnvHasher`] — the
    /// allocation-free certification path (no per-certification scratch
    /// `Vec`).
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
    /// Validator-set descriptions by epoch, including the current one, so
    /// block proofs spanning reconfigurations can be checked.
    epoch_infos: Vec<ValidatorSetInfo>,
    blocks: Vec<CertifiedBlock>,
    censored: BTreeSet<PartyId>,
}

impl CbcLog {
    /// Creates a CBC with fault tolerance `f` (so `3f + 1` validators).
    pub fn new(f: usize, seed: u64) -> Self {
        let validators = ValidatorSet::new(0, f, seed);
        CbcLog {
            epoch_infos: vec![validators.info()],
            validators,
            blocks: Vec::new(),
            censored: BTreeSet::new(),
        }
    }

    /// The validator set of the initial epoch: what parties pass to escrow
    /// contracts when escrowing ("passing the 3f+1 validators of the initial
    /// block as an extra argument to each of the deal's escrow contracts").
    pub fn initial_validators(&self) -> ValidatorSetInfo {
        self.epoch_infos[0].clone()
    }

    /// The current validator set description.
    pub fn current_validators(&self) -> ValidatorSetInfo {
        self.validators.info()
    }

    /// The current validator set.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// All epoch descriptions in order.
    pub fn epoch_infos(&self) -> &[ValidatorSetInfo] {
        &self.epoch_infos
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
        submitter: Option<PartyId>,
        record: CbcRecord,
    ) -> Result<u64, CbcError> {
        if let Some(p) = submitter {
            if self.censored.contains(&p) {
                return Err(CbcError::Censored(p));
            }
        }
        let index = self.blocks.len() as u64;
        // Streaming issuance: hash the certified payload once, sign the
        // digest, and stamp it on the certificate — no scratch words `Vec`.
        let digest = CertifiedBlock::certified_digest(index, &record);
        let sigs = self
            .validators
            .quorum_sign_digest(digest)
            .ok_or(CbcError::QuorumUnavailable)?;
        let certificate = Certificate::issue(self.validators.epoch(), digest, sigs);
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
        let index = self.append(time, Some(caller), record)?;
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
        if !self.plist_of(deal, start_hash)?.contains(&voter) {
            return Err(CbcError::VoterNotInPlist(voter));
        }
        self.append(
            time,
            Some(voter),
            CbcRecord::CommitVote {
                deal,
                start_hash,
                voter,
            },
        )
    }

    /// Publishes an abort vote `abort(D, h, X)`.
    pub fn vote_abort(
        &mut self,
        time: Time,
        deal: DealId,
        start_hash: Hash,
        voter: PartyId,
    ) -> Result<u64, CbcError> {
        if !self.plist_of(deal, start_hash)?.contains(&voter) {
            return Err(CbcError::VoterNotInPlist(voter));
        }
        self.append(
            time,
            Some(voter),
            CbcRecord::AbortVote {
                deal,
                start_hash,
                voter,
            },
        )
    }

    /// Computes the deal's status by scanning the ordered log: committed if
    /// every party in the plist voted commit before any abort vote was
    /// recorded; aborted if some abort vote was recorded before every party
    /// had voted commit; active otherwise.
    pub fn deal_status(&self, deal: DealId, start_hash: Hash) -> Result<DealStatus, CbcError> {
        let plist = self.plist_of(deal, start_hash)?;
        let mut committed: BTreeSet<PartyId> = BTreeSet::new();
        for block in &self.blocks {
            match &block.record {
                CbcRecord::CommitVote {
                    deal: d,
                    start_hash: h,
                    voter,
                } if *d == deal && *h == start_hash => {
                    committed.insert(*voter);
                    if plist.iter().all(|p| committed.contains(p)) {
                        return Ok(DealStatus::Committed {
                            decisive_index: block.index,
                        });
                    }
                }
                CbcRecord::AbortVote {
                    deal: d,
                    start_hash: h,
                    ..
                } if *d == deal && *h == start_hash => {
                    return Ok(DealStatus::Aborted {
                        decisive_index: block.index,
                    });
                }
                _ => {}
            }
        }
        Ok(DealStatus::Active)
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
        let payload = StatusCertificate::payload_words(deal, start_hash, &status);
        let sigs = self
            .validators
            .quorum_sign(&payload)
            .ok_or(CbcError::QuorumUnavailable)?;
        let certificate = Certificate::new(self.validators.epoch(), &payload, sigs);
        Ok(StatusCertificate {
            deal,
            start_hash,
            status,
            issued_at: time,
            certificate,
        })
    }

    /// Extracts the block-range proof for a deal: every certified block that
    /// mentions the deal (plus reconfiguration records), in log order. This is
    /// the "straightforward approach" of Section 6.2 whose verification cost
    /// the status-certificate optimization avoids.
    pub fn block_proof(&self, deal: DealId, start_hash: Hash) -> Result<BlockProof, CbcError> {
        // Ensure the deal exists.
        let _ = self.plist_of(deal, start_hash)?;
        let blocks =
            self.blocks
                .iter()
                .filter(|b| match &b.record {
                    CbcRecord::StartDeal { deal: d, .. } => *d == deal,
                    CbcRecord::CommitVote { deal: d, .. }
                    | CbcRecord::AbortVote { deal: d, .. } => *d == deal,
                    CbcRecord::Reconfigure { .. } => true,
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

    /// Test-only log operations: no deal reconfigures its validators or asks
    /// for its start record, but the log's certification must hold across
    /// epochs.
    impl CbcLog {
        /// Reconfigures the validator set: the current `2f + 1` quorum
        /// certifies the election of a fresh `3f + 1` set for the next epoch,
        /// derived from `seed`.
        fn reconfigure(&mut self, time: Time, seed: u64) -> Result<u64, CbcError> {
            let new_epoch = self.validators.epoch() + 1;
            let idx = self.append(time, None, CbcRecord::Reconfigure { new_epoch })?;
            let new_set = ValidatorSet::new(new_epoch, self.validators.f(), seed);
            self.epoch_infos.push(new_set.info());
            self.validators = new_set;
            Ok(idx)
        }

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
    fn every_block_is_certified_by_current_epoch() {
        let mut cbc = CbcLog::new(1, 5);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        cbc.vote_commit(Time(1), DealId(1), h, PartyId(0)).unwrap();
        cbc.reconfigure(Time(2), 5).unwrap();
        cbc.vote_commit(Time(3), DealId(1), h, PartyId(1)).unwrap();
        assert_eq!(cbc.blocks()[0].certificate.epoch, 0);
        assert_eq!(cbc.blocks()[3].certificate.epoch, 1);
        assert_eq!(cbc.epoch_infos().len(), 2);
        // certificates verify against their epoch
        let mut dir = xchain_sim::crypto::KeyDirectory::new();
        for epoch in 0..2 {
            ValidatorSet::new(epoch, 1, 5).register_in(&mut dir);
        }
        for block in cbc.blocks() {
            let info = &cbc.epoch_infos()[block.certificate.epoch as usize];
            let words = CertifiedBlock::certified_words(block.index, &block.record);
            assert!(block.certificate.verify(info, &words, &dir).valid);
        }
    }

    #[test]
    fn streamed_certified_digest_matches_buffered_words() {
        use xchain_sim::crypto::hash_words;
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
            CbcRecord::Reconfigure { new_epoch: 4 },
        ];
        for (i, r) in records.iter().enumerate() {
            assert_eq!(
                CertifiedBlock::certified_digest(i as u64, r),
                hash_words(&CertifiedBlock::certified_words(i as u64, r)),
                "{r:?}"
            );
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
