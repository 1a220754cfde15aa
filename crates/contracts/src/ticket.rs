//! A non-fungible ticket registry (the "ticket blockchain").
//!
//! Tickets are the paper's running example of a non-fungible asset. The
//! registry issues tickets with seat metadata; the metadata is what a buyer
//! inspects during the validation phase ("Carol checks … that the seats are
//! (at least as good as) the ones agreed upon").

use std::any::Any;
use std::collections::BTreeMap;

use xchain_sim::asset::AssetKind;
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{PartyId, TokenId};
use xchain_sim::intern::{InternedAsset, KindId, KindTable};
use xchain_sim::ledger::EventTag;

/// Seat metadata attached to one ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seat {
    /// Row number (lower is closer to the stage).
    pub row: u32,
    /// Seat number within the row.
    pub number: u32,
    /// Subjective quality grade, 0–100 (higher is better). Buyers compare this
    /// against the grade they agreed to during validation.
    pub grade: u8,
}

/// The ticket registry contract.
#[derive(Debug, Clone)]
pub struct TicketRegistry {
    kind: AssetKind,
    /// Interned id of `kind` on the hosting chain (set on install).
    kind_id: Option<KindId>,
    event_name: String,
    issuer: PartyId,
    next_token: u64,
    seats: BTreeMap<TokenId, Seat>,
}

impl TicketRegistry {
    /// Creates the registry; `issuer` (the event organiser) is the only party
    /// allowed to issue tickets.
    pub fn new(kind: impl Into<AssetKind>, event_name: impl Into<String>, issuer: PartyId) -> Self {
        TicketRegistry {
            kind: kind.into(),
            kind_id: None,
            event_name: event_name.into(),
            issuer,
            next_token: 1,
            seats: BTreeMap::new(),
        }
    }

    /// The asset kind of the tickets this registry issues.
    pub fn kind(&self) -> &AssetKind {
        &self.kind
    }

    /// The event the tickets admit to.
    pub fn event_name(&self) -> &str {
        &self.event_name
    }

    /// The seat metadata of a ticket, if it exists.
    pub fn seat(&self, token: TokenId) -> Option<&Seat> {
        self.seats.get(&token)
    }

    /// Number of tickets issued so far.
    pub fn issued(&self) -> usize {
        self.seats.len()
    }

    /// Issues a new ticket with the given seat to `to`, returning its token id.
    pub fn issue(
        &mut self,
        ctx: &mut CallCtx<'_>,
        to: PartyId,
        seat: Seat,
    ) -> ChainResult<TokenId> {
        let caller = ctx.caller_party()?;
        ctx.require(
            caller == self.issuer,
            "only the event organiser can issue tickets",
        )?;
        let token = TokenId(self.next_token);
        self.next_token += 1;
        ctx.charge_storage_write()?; // seat metadata
        self.seats.insert(token, seat);
        let kind = self
            .kind_id
            .unwrap_or_else(|| ctx.kinds().intern_kind(&self.kind));
        let asset = InternedAsset::NonFungible {
            kind,
            tokens: [token].into_iter().collect(),
        };
        ctx.mint_to_self(&asset)?;
        ctx.pay_out(to.into(), &asset)?;
        ctx.emit(EventTag::Other, [to.0 as u64, token.0])?;
        Ok(token)
    }

    /// True if every ticket in `tokens` has a grade of at least `min_grade` —
    /// the check a buyer performs during validation.
    pub fn all_at_least(&self, tokens: &[TokenId], min_grade: u8) -> bool {
        tokens.iter().all(|t| {
            self.seats
                .get(t)
                .map(|s| s.grade >= min_grade)
                .unwrap_or(false)
        })
    }
}

impl Contract for TicketRegistry {
    fn type_name(&self) -> &'static str {
        "ticket-registry"
    }
    fn on_install(&mut self, kinds: &KindTable) {
        self.kind_id = Some(kinds.intern_kind(&self.kind));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_sim::asset::Asset;
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::{Duration, Time};

    #[test]
    fn issue_and_inspect_tickets() {
        let mut chain = Blockchain::new(ChainId(0), "tickets", Duration(1));
        let bob = PartyId(1);
        let id = chain.install(TicketRegistry::new("ticket", "Hit Play", bob));
        let t1 = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |r: &mut TicketRegistry, ctx| {
                    r.issue(
                        ctx,
                        bob,
                        Seat {
                            row: 1,
                            number: 11,
                            grade: 95,
                        },
                    )
                },
            )
            .unwrap();
        let t2 = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |r: &mut TicketRegistry, ctx| {
                    r.issue(
                        ctx,
                        bob,
                        Seat {
                            row: 20,
                            number: 4,
                            grade: 40,
                        },
                    )
                },
            )
            .unwrap();
        assert_ne!(t1, t2);
        assert!(chain
            .holdings(Owner::Party(bob))
            .contains(&Asset::NonFungible {
                kind: "ticket".into(),
                tokens: [t1, t2].into_iter().collect(),
            }));
        let (good, issued) = chain
            .view(id, |r: &TicketRegistry| {
                (r.all_at_least(&[t1], 90), r.issued())
            })
            .unwrap();
        assert!(good);
        assert_eq!(issued, 2);
        assert!(!chain
            .view(id, |r: &TicketRegistry| r.all_at_least(&[t1, t2], 90))
            .unwrap());
        assert!(!chain
            .view(id, |r: &TicketRegistry| r.all_at_least(&[TokenId(99)], 1))
            .unwrap());
    }

    #[test]
    fn only_organiser_issues() {
        let mut chain = Blockchain::new(ChainId(0), "tickets", Duration(1));
        let id = chain.install(TicketRegistry::new("ticket", "Hit Play", PartyId(1)));
        let err = chain
            .call(
                Time(0),
                Owner::Party(PartyId(2)),
                id,
                |r: &mut TicketRegistry, ctx| {
                    r.issue(
                        ctx,
                        PartyId(2),
                        Seat {
                            row: 1,
                            number: 1,
                            grade: 50,
                        },
                    )
                },
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }
}
