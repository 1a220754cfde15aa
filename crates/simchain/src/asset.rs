//! Assets: fungible amounts, non-fungible token sets, and bags of them.
//!
//! The paper's model (Section 3): "An asset may be fungible, like a sum of
//! money, or non-fungible, like a theater ticket." Each blockchain manages one
//! or more *asset kinds*; ownership of concrete asset units is tracked by the
//! ledger ([`crate::ledger::Blockchain`]).
//!
//! One vocabulary runs from a deal specification through the ledger and the
//! contracts to a deal's outcome: an [`Asset`] or an [`AssetBag`] names its
//! kind by an [`AssetKind`], a shared name.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ids::TokenId;

/// Names an asset class, e.g. `"coin"` or `"ticket"`. One blockchain may host
/// several kinds (e.g. several token contracts on the same chain).
///
/// The name is a shared `Arc<str>`: cloning a kind (into an [`AssetBag`], a
/// ledger entry or a cloned deal spec) bumps a reference count instead of
/// copying the string. Equality, ordering and hashing go by the name's
/// content, exactly as for a `String`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AssetKind(pub Arc<str>);

impl AssetKind {
    /// Creates a new asset kind from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        AssetKind(Arc::from(name.as_ref()))
    }

    /// The kind's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AssetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AssetKind {
    fn from(s: &str) -> Self {
        AssetKind::new(s)
    }
}

/// A concrete quantity of some asset kind: either a fungible amount or a set
/// of specific non-fungible tokens.
///
/// This is the unit in which deal specifications express transfers ("101
/// coins", "tickets 12 and 13").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Asset {
    /// A fungible amount of the given kind.
    Fungible {
        /// The asset class.
        kind: AssetKind,
        /// The amount, in indivisible units.
        amount: u64,
    },
    /// Specific non-fungible tokens of the given kind.
    NonFungible {
        /// The asset class.
        kind: AssetKind,
        /// The specific token instances.
        tokens: BTreeSet<TokenId>,
    },
}

impl Asset {
    /// Convenience constructor for a fungible amount.
    pub fn fungible(kind: impl Into<AssetKind>, amount: u64) -> Self {
        Asset::Fungible {
            kind: kind.into(),
            amount,
        }
    }

    /// Convenience constructor for a set of non-fungible tokens.
    pub fn non_fungible(kind: impl Into<AssetKind>, tokens: impl IntoIterator<Item = u64>) -> Self {
        Asset::NonFungible {
            kind: kind.into(),
            tokens: tokens.into_iter().map(TokenId).collect(),
        }
    }

    /// The asset's kind.
    pub fn kind(&self) -> &AssetKind {
        match self {
            Asset::Fungible { kind, .. } | Asset::NonFungible { kind, .. } => kind,
        }
    }

    /// True if the asset is empty (zero amount or no tokens).
    pub fn is_empty(&self) -> bool {
        match self {
            Asset::Fungible { amount, .. } => *amount == 0,
            Asset::NonFungible { tokens, .. } => tokens.is_empty(),
        }
    }

    /// A rough "value" used only for reporting and workload generation
    /// (fungible amount, or number of tokens).
    pub fn magnitude(&self) -> u64 {
        match self {
            Asset::Fungible { amount, .. } => *amount,
            Asset::NonFungible { tokens, .. } => tokens.len() as u64,
        }
    }
}

impl fmt::Display for Asset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Asset::Fungible { kind, amount } => write!(f, "{amount} {kind}"),
            Asset::NonFungible { kind, tokens } => {
                write!(f, "{kind}{{")?;
                for (i, t) in tokens.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", t.0)?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A multi-kind bag of assets: a party's holdings, an escrow's C-map entry,
/// or the "better off / worse off" difference the safety property compares.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AssetBag {
    fungible: BTreeMap<AssetKind, u64>,
    non_fungible: BTreeMap<AssetKind, BTreeSet<TokenId>>,
}

/// What [`AssetBag::tokens`] lends for a kind the bag does not hold.
static NO_TOKENS: BTreeSet<TokenId> = BTreeSet::new();

/// The entry of `kind` in a kind-keyed map, created empty on first use: the
/// kind's name is shared into the map only then, and every later call finds
/// the entry through the borrowed kind.
pub(crate) fn kind_entry<'m, V: Default>(
    map: &'m mut BTreeMap<AssetKind, V>,
    kind: &AssetKind,
) -> &'m mut V {
    if !map.contains_key(kind) {
        map.insert(kind.clone(), V::default());
    }
    map.get_mut(kind).expect("inserted above")
}

impl AssetBag {
    /// Creates an empty bag. A `const fn`, so an empty bag can be a `static`
    /// that lookups of unknown parties lend out.
    pub const fn new() -> Self {
        AssetBag {
            fungible: BTreeMap::new(),
            non_fungible: BTreeMap::new(),
        }
    }

    /// Adds an asset to the bag.
    pub fn add(&mut self, asset: &Asset) {
        match asset {
            Asset::Fungible { kind, amount } => self.add_fungible(kind, *amount),
            Asset::NonFungible { kind, tokens } => self.add_tokens(kind, tokens.iter().copied()),
        }
    }

    /// Adds `amount` units of a fungible kind.
    pub(crate) fn add_fungible(&mut self, kind: &AssetKind, amount: u64) {
        *kind_entry(&mut self.fungible, kind) += amount;
    }

    /// Adds tokens of a non-fungible kind.
    pub(crate) fn add_tokens(
        &mut self,
        kind: &AssetKind,
        tokens: impl IntoIterator<Item = TokenId>,
    ) {
        kind_entry(&mut self.non_fungible, kind).extend(tokens);
    }

    /// Removes an asset from the bag; returns false (and leaves the bag
    /// unchanged) if the bag does not contain it. A kind whose balance or
    /// token set becomes empty leaves the bag.
    pub fn remove(&mut self, asset: &Asset) -> bool {
        if !self.contains(asset) {
            return false;
        }
        match asset {
            Asset::Fungible { kind, amount } => {
                if let Some(held) = self.fungible.get_mut(kind) {
                    *held -= amount;
                    if *held == 0 {
                        self.fungible.remove(kind);
                    }
                }
            }
            Asset::NonFungible { kind, tokens } => {
                if let Some(held) = self.non_fungible.get_mut(kind) {
                    for t in tokens {
                        held.remove(t);
                    }
                    if held.is_empty() {
                        self.non_fungible.remove(kind);
                    }
                }
            }
        }
        true
    }

    /// True if the bag contains at least this asset.
    pub fn contains(&self, asset: &Asset) -> bool {
        match asset {
            Asset::Fungible { kind, amount } => self.balance(kind) >= *amount,
            Asset::NonFungible { kind, tokens } => tokens.is_subset(self.tokens(kind)),
        }
    }

    /// The fungible balance of a kind.
    pub fn balance(&self, kind: &AssetKind) -> u64 {
        self.fungible.get(kind).copied().unwrap_or(0)
    }

    /// The non-fungible tokens held of a kind (borrowed; empty if none).
    pub fn tokens(&self, kind: &AssetKind) -> &BTreeSet<TokenId> {
        self.non_fungible.get(kind).unwrap_or(&NO_TOKENS)
    }

    /// True if the bag holds nothing.
    pub fn is_empty(&self) -> bool {
        self.fungible.values().all(|v| *v == 0) && self.non_fungible.values().all(|s| s.is_empty())
    }

    /// Component-wise comparison: true if `self` holds at least everything in
    /// `other` (every fungible balance >= and every token set superset).
    /// This is the partial order used to check "no worse off".
    pub fn covers(&self, other: &AssetBag) -> bool {
        other
            .fungible
            .iter()
            .all(|(kind, amount)| self.balance(kind) >= *amount)
            && other
                .non_fungible
                .iter()
                .all(|(kind, tokens)| tokens.is_subset(self.tokens(kind)))
    }

    /// Everything in `self` that `other` does not cover: the component-wise
    /// saturating difference over fungible balances and token sets.
    pub fn minus(&self, other: &AssetBag) -> AssetBag {
        let mut out = AssetBag::new();
        for (kind, amount) in self.fungible_holdings() {
            let held = other.balance(kind);
            if amount > held {
                out.add_fungible(kind, amount - held);
            }
        }
        for (kind, tokens) in self.non_fungible_holdings() {
            let held = other.tokens(kind);
            if !tokens.is_subset(held) {
                out.add_tokens(kind, tokens.difference(held).copied());
            }
        }
        out
    }

    /// Iterates over all (kind, amount) fungible holdings.
    pub fn fungible_holdings(&self) -> impl Iterator<Item = (&AssetKind, u64)> {
        self.fungible.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates over all (kind, token set) non-fungible holdings.
    pub fn non_fungible_holdings(&self) -> impl Iterator<Item = (&AssetKind, &BTreeSet<TokenId>)> {
        self.non_fungible.iter()
    }
}

impl fmt::Display for AssetBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.fungible {
            if *v == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{v} {k}")?;
            first = false;
        }
        for (k, ts) in &self.non_fungible {
            if ts.is_empty() {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k} x{}", ts.len())?;
            first = false;
        }
        if first {
            write!(f, "(nothing)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asset_constructors_and_display() {
        let coins = Asset::fungible("coin", 101);
        let tickets = Asset::non_fungible("ticket", [12, 13]);
        assert_eq!(coins.kind().name(), "coin");
        assert_eq!(tickets.kind().name(), "ticket");
        assert_eq!(coins.to_string(), "101 coin");
        assert_eq!(tickets.to_string(), "ticket{12,13}");
        assert_eq!(coins.magnitude(), 101);
        assert_eq!(tickets.magnitude(), 2);
        assert!(!coins.is_empty());
        assert!(Asset::fungible("coin", 0).is_empty());
        assert!(Asset::non_fungible("ticket", []).is_empty());
    }

    #[test]
    fn bag_add_remove_contains() {
        let mut bag = AssetBag::new();
        bag.add(&Asset::fungible("coin", 100));
        bag.add(&Asset::fungible("coin", 1));
        bag.add(&Asset::non_fungible("ticket", [7]));
        assert_eq!(bag.balance(&"coin".into()), 101);
        assert!(bag.contains(&Asset::fungible("coin", 101)));
        assert!(!bag.contains(&Asset::fungible("coin", 102)));
        assert!(bag.contains(&Asset::non_fungible("ticket", [7])));
        assert!(!bag.contains(&Asset::non_fungible("ticket", [8])));

        assert!(bag.remove(&Asset::fungible("coin", 100)));
        assert_eq!(bag.balance(&"coin".into()), 1);
        assert!(!bag.remove(&Asset::fungible("coin", 100)));
        assert!(bag.remove(&Asset::non_fungible("ticket", [7])));
        assert!(!bag.contains(&Asset::non_fungible("ticket", [7])));
    }

    #[test]
    fn covers_is_a_partial_order() {
        let mut a = AssetBag::new();
        a.add(&Asset::fungible("coin", 100));
        a.add(&Asset::non_fungible("ticket", [1, 2]));
        let mut b = AssetBag::new();
        b.add(&Asset::fungible("coin", 50));
        b.add(&Asset::non_fungible("ticket", [1]));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
        assert!(a.covers(&AssetBag::new()));
    }

    #[test]
    fn emptied_kind_never_blocks_covers() {
        let mut a = AssetBag::new();
        a.add(&Asset::fungible("coin", 100));
        a.add(&Asset::non_fungible("ticket", [1, 2]));
        let mut c = AssetBag::new();
        c.add(&Asset::fungible("dust", 5));
        c.add(&Asset::non_fungible("relic", [9]));
        assert!(!a.covers(&c));
        assert!(c.remove(&Asset::fungible("dust", 5)));
        assert!(c.remove(&Asset::non_fungible("relic", [9])));
        assert!(a.covers(&c));
    }

    #[test]
    fn removal_drops_emptied_kinds() {
        let mut bag = AssetBag::new();
        bag.add(&Asset::fungible("coin", 100));
        bag.add(&Asset::fungible("coin", 1));
        bag.add(&Asset::non_fungible("ticket", [7]));
        assert!(bag.remove(&Asset::fungible("coin", 100)));
        assert!(bag.remove(&Asset::non_fungible("ticket", [7])));
        // What is left equals a bag that never held the removed assets.
        let mut left = AssetBag::new();
        left.add(&Asset::fungible("coin", 1));
        assert_eq!(bag, left);
        assert!(bag.remove(&Asset::fungible("coin", 1)));
        assert!(bag.is_empty());
        assert_eq!(bag, AssetBag::new());
    }

    #[test]
    fn minus_computes_losses_and_gains() {
        let (coin, ticket) = (AssetKind::new("coin"), AssetKind::new("ticket"));
        let bag = |coins: u64, tickets: &[u64]| {
            let mut b = AssetBag::new();
            b.add(&Asset::fungible(coin.clone(), coins));
            b.add(&Asset::non_fungible(
                ticket.clone(),
                tickets.iter().copied(),
            ));
            b
        };
        let a = bag(100, &[1, 2]);
        let b = bag(40, &[2]);
        let diff = a.minus(&b);
        assert_eq!(diff.balance(&coin), 60);
        assert_eq!(diff.tokens(&ticket), &BTreeSet::from([TokenId(1)]));
        assert!(b.minus(&b).is_empty());
        // The difference keeps no zero balance or empty token set.
        assert_eq!(b.minus(&a), AssetBag::new());
    }

    #[test]
    fn bag_display_and_emptiness() {
        let mut bag = AssetBag::new();
        assert!(bag.is_empty());
        assert_eq!(bag.to_string(), "(nothing)");
        bag.add(&Asset::fungible("coin", 5));
        bag.add(&Asset::non_fungible("ticket", [1]));
        assert!(!bag.is_empty());
        let s = bag.to_string();
        assert!(s.contains("5 coin"));
        assert!(s.contains("ticket x1"));
    }
}
