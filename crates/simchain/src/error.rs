//! Error types shared by the simulator substrate.

use std::fmt;

use crate::ids::{ChainId, ContractId, Owner, PartyId, TokenId};

/// Errors raised by ledger operations, contract calls and the simulation world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The referenced chain does not exist in the world.
    UnknownChain(ChainId),
    /// The referenced contract does not exist on the chain.
    UnknownContract(ContractId),
    /// A contract call was dispatched to a contract of a different concrete type.
    ContractTypeMismatch(ContractId),
    /// The owner does not hold enough of the fungible asset.
    InsufficientBalance {
        /// Who attempted to spend.
        owner: Owner,
        /// Asset kind name.
        kind: String,
        /// Amount requested.
        requested: u64,
        /// Amount actually held.
        available: u64,
    },
    /// The owner does not hold the referenced non-fungible token.
    NotTokenOwner {
        /// Who attempted to move the token.
        owner: Owner,
        /// Asset kind name.
        kind: String,
        /// The token in question.
        token: TokenId,
    },
    /// Crediting the owner would overflow its `u64` balance.
    BalanceOverflow {
        /// Who would have received the asset.
        owner: Owner,
        /// Asset kind name.
        kind: String,
    },
    /// A contract rejected a call (the analogue of Solidity's `require`).
    Require(String),
    /// A party attempted to act while offline (e.g. under a denial-of-service
    /// window configured in the network model).
    PartyOffline(PartyId),
    /// A signature failed verification.
    BadSignature,
    /// Anything else.
    Other(String),
}

impl ChainError {
    /// Convenience constructor mirroring Solidity's `require(cond, msg)`.
    pub fn require(msg: impl Into<String>) -> Self {
        ChainError::Require(msg.into())
    }
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownChain(c) => write!(f, "unknown chain {c}"),
            ChainError::UnknownContract(c) => write!(f, "unknown contract {c}"),
            ChainError::ContractTypeMismatch(c) => {
                write!(f, "contract {c} has a different concrete type")
            }
            ChainError::InsufficientBalance {
                owner,
                kind,
                requested,
                available,
            } => write!(
                f,
                "{owner} holds {available} of '{kind}' but tried to spend {requested}"
            ),
            ChainError::NotTokenOwner { owner, kind, token } => {
                write!(f, "{owner} does not own {token} of kind '{kind}'")
            }
            ChainError::BalanceOverflow { owner, kind } => {
                write!(
                    f,
                    "crediting {owner} would overflow its balance of '{kind}'"
                )
            }
            ChainError::Require(msg) => write!(f, "require failed: {msg}"),
            ChainError::PartyOffline(p) => write!(f, "{p} is offline and cannot act"),
            ChainError::BadSignature => write!(f, "signature verification failed"),
            ChainError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Result alias for ledger and contract operations.
pub type ChainResult<T> = Result<T, ChainError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ChainError::InsufficientBalance {
            owner: Owner::Party(PartyId(1)),
            kind: "coin".to_string(),
            requested: 100,
            available: 7,
        };
        let s = e.to_string();
        assert!(s.contains("party-1"));
        assert!(s.contains("coin"));
        assert!(s.contains("100"));
        assert!(s.contains('7'));
    }

    #[test]
    fn require_constructor() {
        let e = ChainError::require("voter not in plist");
        assert_eq!(e, ChainError::Require("voter not in plist".to_string()));
        assert!(e.to_string().contains("voter not in plist"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(ChainError::BadSignature);
        assert!(e.to_string().contains("signature"));
    }
}
