//! A fungible-token issuance contract (the "coin blockchain"'s native asset).
//!
//! The simulator's ledger already tracks balances authoritatively; this
//! contract is the issuance authority for one [`AssetKind`]: it mints supply
//! (with gas charged like any other contract call), records metadata, and
//! tracks total supply, mirroring the ERC-20 token the paper's Figure 3
//! escrow manager wraps.

use std::any::Any;

use xchain_sim::asset::{Asset, AssetKind};
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::PartyId;
use xchain_sim::ledger::EventTag;

/// The fungible-token contract.
#[derive(Debug, Clone)]
pub struct TokenContract {
    kind: AssetKind,
    symbol: String,
    total_supply: u64,
    issuer: PartyId,
}

impl TokenContract {
    /// Creates the token contract; `issuer` is the only party allowed to mint.
    pub fn new(kind: impl Into<AssetKind>, symbol: impl Into<String>, issuer: PartyId) -> Self {
        TokenContract {
            kind: kind.into(),
            symbol: symbol.into(),
            total_supply: 0,
            issuer,
        }
    }

    /// The asset kind this contract issues.
    pub fn kind(&self) -> &AssetKind {
        &self.kind
    }

    /// The token's display symbol.
    pub fn symbol(&self) -> &str {
        &self.symbol
    }

    /// Total units ever minted.
    pub fn total_supply(&self) -> u64 {
        self.total_supply
    }

    /// Mints `amount` units to `to`. Only the issuer may mint.
    pub fn mint(&mut self, ctx: &mut CallCtx<'_>, to: PartyId, amount: u64) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(caller == self.issuer, "only the issuer can mint")?;
        ctx.require(amount > 0, "mint amount must be positive")?;
        ctx.charge_storage_write()?; // supply counter
        self.total_supply += amount;
        // Direct ledger credit: minting creates the units out of thin air, so
        // it is modelled as a ledger mint rather than a transfer.
        ctx.charge_storage_write()?;
        let asset = Asset::fungible(self.kind.clone(), amount);
        mint_via_ctx(ctx, to, &asset)?;
        ctx.emit(EventTag::Other, [to.0 as u64, amount])?;
        Ok(())
    }
}

/// Internal helper: the contract runtime does not expose arbitrary minting to
/// contracts (contracts may only move assets they own), so the token contract
/// first receives the newly created units and immediately pays them out.
fn mint_via_ctx(ctx: &mut CallCtx<'_>, to: PartyId, asset: &Asset) -> ChainResult<()> {
    // The escrow-free path: credit the recipient directly through the payout
    // API after granting the units to the contract.
    ctx.mint_to_self(asset)?;
    ctx.pay_out(to.into(), asset)
}

impl Contract for TokenContract {
    fn type_name(&self) -> &'static str {
        "token"
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
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::{Duration, Time};

    #[test]
    fn issuer_mints_and_supply_tracks() {
        let mut chain = Blockchain::new(ChainId(0), "coins", Duration(1));
        let issuer = PartyId(0);
        let carol = PartyId(2);
        let id = chain.install(TokenContract::new("coin", "XCN", issuer));
        chain
            .call(
                Time(0),
                Owner::Party(issuer),
                id,
                |t: &mut TokenContract, ctx| t.mint(ctx, carol, 101),
            )
            .unwrap();
        assert_eq!(
            chain.assets().balance(Owner::Party(carol), &"coin".into()),
            101
        );
        assert_eq!(
            chain
                .view(id, |t: &TokenContract| t.total_supply())
                .unwrap(),
            101
        );
        assert_eq!(
            chain
                .view(id, |t: &TokenContract| t.symbol().to_string())
                .unwrap(),
            "XCN"
        );
    }

    #[test]
    fn non_issuer_cannot_mint() {
        let mut chain = Blockchain::new(ChainId(0), "coins", Duration(1));
        let id = chain.install(TokenContract::new("coin", "XCN", PartyId(0)));
        let err = chain
            .call(
                Time(0),
                Owner::Party(PartyId(1)),
                id,
                |t: &mut TokenContract, ctx| t.mint(ctx, PartyId(1), 5),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        let err = chain
            .call(
                Time(0),
                Owner::Party(PartyId(0)),
                id,
                |t: &mut TokenContract, ctx| t.mint(ctx, PartyId(1), 0),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }
}
