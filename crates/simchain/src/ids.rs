//! Newtype identifiers used throughout the simulator.
//!
//! Every domain object (chain, party, contract, deal, …) is identified by a
//! small copyable id. Using dedicated newtypes rather than bare integers keeps
//! the APIs self-documenting and prevents accidentally mixing, say, a party id
//! with a chain id.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $inner:ty) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// Identifies one blockchain (ledger) in the multi-chain world.
    ChainId,
    "chain-",
    u32
);

define_id!(
    /// Identifies an autonomous party (a person, organisation, or off-chain agent).
    PartyId,
    "party-",
    u32
);

define_id!(
    /// Identifies a contract instance installed on some blockchain.
    ContractId,
    "contract-",
    u64
);

define_id!(
    /// Identifies a cross-chain deal. The paper treats `D` as a nonce, so deal
    /// ids are never reused within a simulation.
    DealId,
    "deal-",
    u64
);

define_id!(
    /// Identifies a non-fungible token instance (e.g. one theatre ticket seat).
    TokenId,
    "token-",
    u64
);

define_id!(
    /// Identifies a CBC validator.
    ValidatorId,
    "validator-",
    u32
);

/// The owner of an asset on a blockchain: either an external party or a
/// contract (the paper's escrow contracts *become* the owner of escrowed
/// assets, which is exactly how double spending is prevented).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Owner {
    /// An autonomous party.
    Party(PartyId),
    /// A contract instance (typically an escrow manager).
    Contract(ContractId),
}

impl Owner {
    /// Returns the party id if this owner is a party.
    pub fn as_party(self) -> Option<PartyId> {
        match self {
            Owner::Party(p) => Some(p),
            Owner::Contract(_) => None,
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Party(p) => write!(f, "{p}"),
            Owner::Contract(c) => write!(f, "{c}"),
        }
    }
}

impl From<PartyId> for Owner {
    fn from(p: PartyId) -> Self {
        Owner::Party(p)
    }
}

impl From<ContractId> for Owner {
    fn from(c: ContractId) -> Self {
        Owner::Contract(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_use_prefixes() {
        assert_eq!(ChainId(3).to_string(), "chain-3");
        assert_eq!(PartyId(0).to_string(), "party-0");
        assert_eq!(ContractId(7).to_string(), "contract-7");
        assert_eq!(DealId(42).to_string(), "deal-42");
        assert_eq!(TokenId(9).to_string(), "token-9");
        assert_eq!(ValidatorId(2).to_string(), "validator-2");
    }

    #[test]
    fn owner_projections() {
        let p = Owner::Party(PartyId(1));
        let c = Owner::Contract(ContractId(2));
        assert_eq!(p.as_party(), Some(PartyId(1)));
        assert_eq!(c.as_party(), None);
    }

    #[test]
    fn owner_from_impls() {
        assert_eq!(Owner::from(PartyId(5)), Owner::Party(PartyId(5)));
        assert_eq!(Owner::from(ContractId(5)), Owner::Contract(ContractId(5)));
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(ChainId(1) < ChainId(2));
        assert!(PartyId(3) > PartyId(0));
        assert_eq!(DealId::from(10).raw(), 10);
    }
}
