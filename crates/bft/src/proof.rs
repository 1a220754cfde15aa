//! Cross-chain proofs of commit and abort (Section 6.2), and the commit rule
//! both are judged by.
//!
//! Escrow contracts on asset blockchains cannot read the CBC; a party claiming
//! an asset (or a refund) must present evidence that the deal committed (or
//! aborted) on the CBC. Two forms are implemented:
//!
//! * [`StatusCertificate`] — the optimized form: the CBC's validator quorum
//!   signs the deal's current status, so the contract verifies `2f + 1`
//!   signatures.
//! * [`BlockProof`] — the straightforward form: the certified blocks
//!   mentioning the deal, which the contract replays to determine the
//!   decisive vote. Much more expensive to verify, which is exactly the
//!   trade-off the paper describes.
//!
//! The CBC runs a single epoch, so one validator set checks every block.
//! [`DealStatus::replay`] is the commit rule, written once: the log computes
//! a deal's status with it and a block proof's replay applies it.

use xchain_sim::crypto::{hash_words, Hash, KeyDirectory};
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::time::Time;

use crate::certificate::Certificate;
use crate::log::{CbcRecord, CertifiedBlock};
use crate::validator::ValidatorSetInfo;

/// The state of a deal as recorded on the CBC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DealStatus {
    /// Not yet decided: neither a full set of commit votes nor an abort vote.
    Active,
    /// Every party voted commit before any abort vote; the vote at
    /// `decisive_index` completed the set.
    Committed {
        /// Log index of the decisive (final missing) commit vote.
        decisive_index: u64,
    },
    /// Some party voted abort before every party had voted commit.
    Aborted {
        /// Log index of the decisive abort vote.
        decisive_index: u64,
    },
}

impl DealStatus {
    /// True if the deal committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, DealStatus::Committed { .. })
    }

    /// True if the deal aborted.
    pub fn is_aborted(&self) -> bool {
        matches!(self, DealStatus::Aborted { .. })
    }

    /// Numeric tag used in certified payloads.
    pub fn tag(&self) -> u64 {
        match self {
            DealStatus::Active => 0,
            DealStatus::Committed { .. } => 1,
            DealStatus::Aborted { .. } => 2,
        }
    }

    /// The commit rule of Section 6, over certified blocks in log order.
    /// The first `StartDeal` of `deal` whose hash is `start_hash` fixes the
    /// plist. After it, the deal commits at the vote that completes every
    /// plist member's commit vote, and aborts at an abort vote that comes
    /// first. Votes before the start, for another start hash or by a party
    /// outside the plist count for nothing, nor does anything after the
    /// decision. `None` if no such start is among the blocks.
    pub fn replay(deal: DealId, start_hash: Hash, blocks: &[CertifiedBlock]) -> Option<DealStatus> {
        let mut plist: Option<&[PartyId]> = None;
        // Which plist slots have voted commit, and how many have not.
        let mut voted = Vec::new();
        let mut missing = 0;
        for CertifiedBlock { index, record, .. } in blocks {
            match record {
                CbcRecord::StartDeal { deal: d, plist: p }
                    if plist.is_none() && *d == deal && record.hash() == start_hash =>
                {
                    plist = Some(p);
                    voted = vec![false; p.len()];
                    missing = p.len();
                }
                CbcRecord::CommitVote {
                    deal: d,
                    start_hash: h,
                    voter,
                } if *d == deal && *h == start_hash => {
                    let Some(p) = plist else { continue };
                    for (slot, member) in voted.iter_mut().zip(p) {
                        if member == voter && !*slot {
                            *slot = true;
                            missing -= 1;
                            if missing == 0 {
                                return Some(DealStatus::Committed {
                                    decisive_index: *index,
                                });
                            }
                        }
                    }
                }
                CbcRecord::AbortVote {
                    deal: d,
                    start_hash: h,
                    ..
                } if *d == deal && *h == start_hash && plist.is_some() => {
                    return Some(DealStatus::Aborted {
                        decisive_index: *index,
                    });
                }
                _ => {}
            }
        }
        plist.map(|_| DealStatus::Active)
    }
}

/// A validator-quorum certificate over the deal's status — the proof form the
/// CBC manager contract checks in the common case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusCertificate {
    /// The deal.
    pub deal: DealId,
    /// The definitive startDeal hash.
    pub start_hash: Hash,
    /// The certified status.
    pub status: DealStatus,
    /// When the certificate was issued (CBC time).
    pub issued_at: Time,
    /// The quorum certificate over [`Self::payload_digest`].
    pub certificate: Certificate,
}

impl StatusCertificate {
    /// The digest the validators sign: of the canonical payload `[0xCE27,
    /// deal, start hash, status tag, decisive index]`.
    pub fn payload_digest(deal: DealId, start_hash: Hash, status: &DealStatus) -> Hash {
        let decisive = match status {
            DealStatus::Active => 0,
            DealStatus::Committed { decisive_index } | DealStatus::Aborted { decisive_index } => {
                *decisive_index
            }
        };
        hash_words(&[0xCE27u64, deal.0, start_hash.0, status.tag(), decisive])
    }

    /// The digest of *this* certificate's payload: what its signatures must
    /// be over.
    pub fn digest(&self) -> Hash {
        Self::payload_digest(self.deal, self.start_hash, &self.status)
    }

    /// Verifies the certificate against a validator set (gas-free helper used
    /// off-chain; the on-chain path goes through the CBC manager contract so
    /// each signature verification is charged).
    pub fn verify(&self, validators: &ValidatorSetInfo, keys: &KeyDirectory) -> bool {
        self.certificate
            .verify(validators, self.digest(), keys)
            .is_valid()
    }
}

/// The straightforward proof: all certified blocks mentioning the deal, in
/// log order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProof {
    /// The deal.
    pub deal: DealId,
    /// The definitive startDeal hash.
    pub start_hash: Hash,
    /// The certified blocks, in log order.
    pub blocks: Vec<CertifiedBlock>,
}

/// Result of verifying a [`BlockProof`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockProofCheck {
    /// The status implied by the proof, if the proof verified.
    pub status: Option<DealStatus>,
    /// Total signature verifications performed (the contract pays 3000 gas each).
    pub sig_verifications: u64,
}

impl BlockProof {
    /// Replays the proof: checks that block indices strictly increase and
    /// verifies every block's certificate against `validators`, stopping at
    /// the first failure, then applies the commit rule
    /// ([`DealStatus::replay`]) to the ordered records.
    ///
    /// Returns the implied status and the number of signature verifications
    /// performed; `status == None` means the proof is invalid.
    pub fn verify(&self, validators: &ValidatorSetInfo, keys: &KeyDirectory) -> BlockProofCheck {
        let mut check = BlockProofCheck::default();
        let mut last_index = None;
        for block in &self.blocks {
            if last_index.is_some_and(|prev| block.index <= prev) {
                return check;
            }
            last_index = Some(block.index);
            let digest = CertifiedBlock::certified_digest(block.index, &block.record);
            let cert = block.certificate.verify(validators, digest, keys);
            check.sig_verifications += cert.sig_verifications;
            if !cert.is_valid() {
                return check;
            }
        }
        check.status = DealStatus::replay(self.deal, self.start_hash, &self.blocks);
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::CbcLog;
    use xchain_sim::ids::PartyId;

    fn parties(n: u32) -> Vec<PartyId> {
        (0..n).map(PartyId).collect()
    }

    fn directory(cbc: &CbcLog) -> KeyDirectory {
        let mut dir = KeyDirectory::new();
        cbc.validators().register_in(&mut dir);
        dir
    }

    #[test]
    fn status_certificate_roundtrip() {
        let mut cbc = CbcLog::new(2, 9);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(4), parties(3))
            .unwrap();
        for p in 0..3 {
            cbc.vote_commit(Time(p as u64 + 1), DealId(4), h, PartyId(p))
                .unwrap();
        }
        let cert = cbc.status_certificate(Time(5), DealId(4), h).unwrap();
        assert!(cert.status.is_committed());
        let dir = directory(&cbc);
        assert!(cert.verify(&cbc.validators().info(), &dir));

        // Tampering with the status breaks verification.
        let mut forged = cert.clone();
        forged.status = DealStatus::Aborted { decisive_index: 0 };
        assert!(!forged.verify(&cbc.validators().info(), &dir));
    }

    #[test]
    fn block_proof_commit_and_abort() {
        let mut cbc = CbcLog::new(1, 9);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        cbc.vote_commit(Time(1), DealId(1), h, PartyId(0)).unwrap();
        cbc.vote_commit(Time(2), DealId(1), h, PartyId(1)).unwrap();
        let proof = cbc.block_proof(DealId(1), h).unwrap();
        let dir = directory(&cbc);
        let check = proof.verify(&cbc.validators().info(), &dir);
        assert!(matches!(check.status, Some(DealStatus::Committed { .. })));
        // one certificate of 2f+1 = 3 signatures per block, 3 blocks
        assert_eq!(check.sig_verifications, 9);

        let mut cbc2 = CbcLog::new(1, 9);
        let (_, h2) = cbc2
            .start_deal(Time(0), PartyId(0), DealId(2), parties(2))
            .unwrap();
        cbc2.vote_abort(Time(1), DealId(2), h2, PartyId(1)).unwrap();
        let proof2 = cbc2.block_proof(DealId(2), h2).unwrap();
        let dir2 = directory(&cbc2);
        let check2 = proof2.verify(&cbc2.validators().info(), &dir2);
        assert!(matches!(check2.status, Some(DealStatus::Aborted { .. })));
    }

    #[test]
    fn block_proof_rejects_reordered_blocks() {
        let mut cbc = CbcLog::new(1, 9);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        cbc.vote_commit(Time(1), DealId(1), h, PartyId(0)).unwrap();
        cbc.vote_commit(Time(2), DealId(1), h, PartyId(1)).unwrap();
        let mut proof = cbc.block_proof(DealId(1), h).unwrap();
        proof.blocks.swap(1, 2);
        let dir = directory(&cbc);
        let check = proof.verify(&cbc.validators().info(), &dir);
        assert_eq!(check.status, None);
    }

    #[test]
    fn block_proof_cannot_hide_an_earlier_abort() {
        // A malicious party cannot simply omit the abort block: the omission
        // changes nothing about what the contract computes *from the blocks it
        // is shown*, but the honest counterparty can always present the
        // genuine (longer) proof; the contract accepts the first valid proof
        // presented. This test documents the weaker property actually enforced
        // per-proof: a proof with the abort present yields Aborted.
        let mut cbc = CbcLog::new(1, 9);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), DealId(1), parties(2))
            .unwrap();
        cbc.vote_abort(Time(1), DealId(1), h, PartyId(1)).unwrap();
        cbc.vote_commit(Time(2), DealId(1), h, PartyId(0)).unwrap();
        cbc.vote_commit(Time(3), DealId(1), h, PartyId(1)).unwrap();
        let proof = cbc.block_proof(DealId(1), h).unwrap();
        let dir = directory(&cbc);
        let check = proof.verify(&cbc.validators().info(), &dir);
        assert!(matches!(check.status, Some(DealStatus::Aborted { .. })));
    }

    /// A block certified by `cbc`'s validators at `index`, whatever the log
    /// itself would accept there: the quorum signs any record it is shown.
    fn certified(cbc: &CbcLog, index: u64, record: CbcRecord) -> CertifiedBlock {
        let digest = CertifiedBlock::certified_digest(index, &record);
        let sigs = cbc.validators().quorum_sign_digest(digest).unwrap();
        CertifiedBlock {
            index,
            time: Time(index),
            record,
            certificate: Certificate::issue(0, sigs),
        }
    }

    #[test]
    fn forged_block_proofs_replay_to_the_pinned_status() {
        let deal = DealId(1);
        let mut cbc = CbcLog::new(1, 9);
        let (_, h) = cbc
            .start_deal(Time(0), PartyId(0), deal, parties(2))
            .unwrap();
        let start = CbcRecord::StartDeal {
            deal,
            plist: parties(2),
        };
        let commit = |voter: u32, start_hash: Hash| CbcRecord::CommitVote {
            deal,
            start_hash,
            voter: PartyId(voter),
        };
        let abort = |voter: u32| CbcRecord::AbortVote {
            deal,
            start_hash: h,
            voter: PartyId(voter),
        };
        let forge = |start_hash, records: Vec<CbcRecord>| BlockProof {
            deal,
            start_hash,
            blocks: (0u64..)
                .zip(records)
                .map(|(i, r)| certified(&cbc, i, r))
                .collect(),
        };
        let expect = |status, sig_verifications| BlockProofCheck {
            status,
            sig_verifications,
        };
        let active = Some(DealStatus::Active);
        let committed = |decisive_index| Some(DealStatus::Committed { decisive_index });
        let rows: [(&str, BlockProof, BlockProofCheck); 6] = [
            (
                "a vote before StartDeal is ignored",
                forge(h, vec![commit(0, h), start.clone(), commit(1, h)]),
                expect(active, 9),
            ),
            (
                "a voter not in the plist is ignored",
                forge(h, vec![start.clone(), commit(0, h), commit(9, h)]),
                expect(active, 9),
            ),
            (
                "a duplicated commit vote counts once",
                forge(h, vec![start.clone(), commit(0, h), commit(0, h)]),
                expect(active, 9),
            ),
            (
                "an abort after the decisive commit is ignored",
                forge(h, vec![start.clone(), commit(0, h), commit(1, h), abort(0)]),
                expect(committed(2), 12),
            ),
            (
                "a vote for another start hash is ignored",
                forge(
                    h,
                    vec![start.clone(), commit(0, h), commit(1, Hash(h.0 ^ 1))],
                ),
                expect(active, 9),
            ),
            (
                "a wrong start hash names no deal",
                forge(Hash(h.0 ^ 1), vec![start, commit(0, h), commit(1, h)]),
                expect(None, 9),
            ),
        ];
        let (dir, validators) = (directory(&cbc), cbc.validators().info());
        for (name, proof, check) in rows {
            assert_eq!(proof.verify(&validators, &dir), check, "{name}");
        }
    }

    #[test]
    fn status_tags() {
        assert_eq!(DealStatus::Active.tag(), 0);
        assert_eq!(DealStatus::Committed { decisive_index: 5 }.tag(), 1);
        assert_eq!(DealStatus::Aborted { decisive_index: 5 }.tag(), 2);
        assert!(DealStatus::Committed { decisive_index: 5 }.is_committed());
        assert!(DealStatus::Aborted { decisive_index: 5 }.is_aborted());
        assert!(!DealStatus::Active.is_committed());
    }
}
