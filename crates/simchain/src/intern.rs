//! Asset-kind interning: the ids the ledger, contracts and plans key on.
//!
//! Asset kinds are *named* at the specification level ([`AssetKind`] wraps a
//! shared `Arc<str>` so deal specs stay human-readable), but ledger and
//! escrow operations run once per simulated transaction, and even a name
//! comparison per operation is wasted work. Each world therefore owns an
//! [`Interner`] that maps every kind name to a dense, `Copy` [`KindId`].
//!
//! * [`KindId`] — a `u32` handle, `Copy`/`Ord`/`Hash`; the ledger's map keys.
//! * [`Interner`] — the bidirectional name ↔ id table. It stores each name
//!   once, as an [`AssetKind`], so resolving an id back to a kind (holdings
//!   snapshots, reporting) bumps a reference count and copies no string.
//! * [`KindTable`] — a cheaply-cloneable shared handle (`Arc<RwLock<Interner>>`)
//!   owned by the [`crate::world::World`] and handed to every chain it
//!   creates, so a kind name resolves to the same id on all of a world's
//!   chains. Standalone [`crate::ledger::Blockchain`]s create their own.
//! * [`InternedAsset`] / [`InternedBag`] — [`Asset`] and [`AssetBag`] keyed
//!   on [`KindId`]: the one asset and bag type, with the id as its key.
//!
//! Whole assets and bags cross between names and ids in three places only:
//! [`KindTable::intern_asset`] (name → id) and the `resolve` methods of
//! [`InternedAsset`] and [`InternedBag`] (id → name). Interning happens at
//! the cold boundaries (planning, minting); everything after is `Copy` ids.
//! Ids are assigned in first-intern order, which is deterministic for a
//! deterministic setup, so identically-seeded worlds produce identical ids.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use crate::asset::{Asset, AssetBag, AssetKind};

/// A dense, `Copy` handle for an asset kind, valid within one [`Interner`]
/// (i.e. within one world, or one standalone chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindId(pub u32);

impl fmt::Display for KindId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kind#{}", self.0)
    }
}

/// The bidirectional asset-kind name ↔ [`KindId`] table. Both directions
/// hold the same shared [`AssetKind`]s, and the index is searched by `&str`
/// through `AssetKind: Borrow<str>`, so cloning the table copies no names.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<AssetKind>,
    index: BTreeMap<AssetKind, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `kind`, assigning the next free id on first use.
    /// A new kind is stored by sharing its name (`Arc<str>`), not copying it.
    pub fn intern(&mut self, kind: &AssetKind) -> KindId {
        if let Some(&id) = self.index.get(kind.name()) {
            return KindId(id);
        }
        let id = self.names.len() as u32;
        self.names.push(kind.clone());
        self.index.insert(kind.clone(), id);
        KindId(id)
    }

    /// The id previously assigned to `name`, if any. Never allocates.
    pub fn get(&self, name: &str) -> Option<KindId> {
        self.index.get(name).copied().map(KindId)
    }

    /// The kind behind an id, if the id was produced by this interner.
    pub fn resolve(&self, id: KindId) -> Option<&AssetKind> {
        self.names.get(id.0 as usize)
    }

    /// Number of interned kinds.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A shared handle to a world's [`Interner`].
///
/// The world owns the canonical table and every chain it creates holds a
/// clone of this handle, so `"coin"` means the same [`KindId`] on all of the
/// world's chains. Cloning the handle is an `Arc` bump. Reads take a shared
/// lock (an atomic op), writes happen only when a *new* kind name is first
/// interned — never on the per-transfer hot path.
#[derive(Clone, Default)]
pub struct KindTable {
    /// The interner sits behind its own `Arc`, so a [`KindTable::fork`]
    /// shares it until either table interns a new kind and only then
    /// copies it.
    inner: Arc<RwLock<Arc<Interner>>>,
}

impl KindTable {
    /// Creates a handle to a fresh, empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// A deep copy of the table: a *new* interner seeded with every
    /// assignment made so far, after which the two tables evolve
    /// independently. The copy is lazy: the fork shares the interner until
    /// one of the two tables interns a new kind, and the copy then shares
    /// the kinds' names (`Arc<str>`), so it copies no strings. This is how a pre-resolved `DealPlan` (in
    /// `xchain-deals`) hands every world built from it the same
    /// name → id assignments without sharing a lock: the plan interns its
    /// kinds once into a canonical table, and each world starts from a fork,
    /// so the plan's ids are valid on all of them by construction.
    pub fn fork(&self) -> KindTable {
        let shared = Arc::clone(&self.inner.read().expect("interner lock"));
        KindTable {
            inner: Arc::new(RwLock::new(shared)),
        }
    }

    /// Interns a kind name, copying it into the table on first use (see
    /// [`Interner::intern`]).
    pub fn intern(&self, name: &str) -> KindId {
        // Fast path: the name is almost always known already.
        self.get(name)
            .unwrap_or_else(|| self.intern_kind(&AssetKind::new(name)))
    }

    /// Interns a kind, sharing its name with the table on first use: how
    /// plans and contracts, which already hold an [`AssetKind`], intern
    /// without copying a string.
    pub fn intern_kind(&self, kind: &AssetKind) -> KindId {
        self.get(kind.name())
            .unwrap_or_else(|| self.with_interner_mut(|interner| interner.intern(kind)))
    }

    /// Runs `f` with the write lock held once, for callers that intern
    /// many kinds in a row (plan resolution). An interner only grows, so
    /// every id assigned before stays valid.
    pub fn with_interner_mut<R>(&self, f: impl FnOnce(&mut Interner) -> R) -> R {
        f(Arc::make_mut(
            &mut self.inner.write().expect("interner lock"),
        ))
    }

    /// The id previously assigned to `name`, if any. Never allocates.
    pub fn get(&self, name: &str) -> Option<KindId> {
        self.inner.read().expect("interner lock").get(name)
    }

    /// The [`AssetKind`] behind an id: a shared name, so this takes the read
    /// lock and bumps a reference count, but never allocates.
    pub fn resolve(&self, id: KindId) -> Option<AssetKind> {
        self.inner
            .read()
            .expect("interner lock")
            .resolve(id)
            .cloned()
    }

    /// Runs `f` with the read lock held once, for callers that resolve many
    /// ids in a row (holdings snapshots).
    pub(crate) fn with_interner<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.inner.read().expect("interner lock"))
    }

    /// The name behind an id, or `"?"` for unknown ids (error messages).
    pub fn name_of(&self, id: KindId) -> String {
        self.inner
            .read()
            .expect("interner lock")
            .resolve(id)
            .map_or("?", AssetKind::name)
            .to_string()
    }

    /// Interns the kind of an asset and returns the same asset keyed on the id.
    pub fn intern_asset(&self, asset: &Asset) -> InternedAsset {
        asset.map_kind(|kind| self.intern_kind(kind))
    }

    /// Number of interned kinds.
    pub fn len(&self) -> usize {
        self.inner.read().expect("interner lock").len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.inner.read().expect("interner lock").is_empty()
    }
}

impl fmt::Debug for KindTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KindTable")
            .field("kinds", &self.len())
            .finish()
    }
}

/// An [`Asset`] whose kind is interned: what contracts store and what the
/// ledger consumes. No kind name anywhere.
pub type InternedAsset = Asset<KindId>;

/// An [`AssetBag`] keyed on interned kinds: contract state (the escrow C
/// map), plan expectations and holdings scans, so per-transfer bag updates
/// never touch a kind name.
pub type InternedBag = AssetBag<KindId>;

impl InternedAsset {
    /// The name-keyed [`Asset`] this was interned from (reporting only).
    /// An id the table does not know resolves to the kind `"?"`.
    pub fn resolve(&self, kinds: &KindTable) -> Asset {
        self.map_kind(|id| kinds.resolve(*id).unwrap_or_else(|| AssetKind::new("?")))
    }
}

impl InternedBag {
    /// The name-keyed [`AssetBag`] view of this bag (reporting, holdings
    /// snapshots): takes the table's read lock once, and each kind costs a
    /// reference-count bump, not a name copy. Zero balances and empty token
    /// sets are dropped. Ids the table does not know resolve to the kind
    /// `"?"`.
    pub fn resolve(&self, kinds: &KindTable) -> AssetBag {
        kinds.with_interner(|interner| {
            let name = |id: &KindId| {
                interner
                    .resolve(*id)
                    .cloned()
                    .unwrap_or_else(|| AssetKind::new("?"))
            };
            let mut bag = AssetBag::new();
            for (kind, amount) in self.fungible_holdings() {
                if amount > 0 {
                    bag.add_fungible(&name(kind), amount);
                }
            }
            for (kind, tokens) in self.non_fungible_holdings() {
                if !tokens.is_empty() {
                    bag.add_tokens(&name(kind), tokens.iter().copied());
                }
            }
            bag
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let t = KindTable::new();
        let coin = t.intern("coin");
        let ticket = t.intern("ticket");
        assert_eq!(coin, KindId(0));
        assert_eq!(ticket, KindId(1));
        assert_eq!(t.intern("coin"), coin);
        assert_eq!(t.get("coin"), Some(coin));
        assert_eq!(t.get("gold"), None);
        assert_eq!(t.resolve(coin), Some(AssetKind::new("coin")));
        assert_eq!(t.resolve(KindId(9)), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn table_is_shared_between_clones() {
        let a = KindTable::new();
        let b = a.clone();
        let id = a.intern("coin");
        assert_eq!(b.get("coin"), Some(id));
    }

    #[test]
    fn fork_copies_assignments_then_diverges() {
        let a = KindTable::new();
        let coin = a.intern("coin");
        let b = a.fork();
        // Existing assignments carry over …
        assert_eq!(b.get("coin"), Some(coin));
        // … but new interning is independent in both directions.
        let gold_in_b = b.intern("gold");
        assert_eq!(a.get("gold"), None);
        let silver_in_a = a.intern("silver");
        assert_eq!(b.get("silver"), None);
        // Both assigned the same next id, each in its own table.
        assert_eq!(gold_in_b, silver_in_a);
    }

    #[test]
    fn interned_bag_covers_mirrors_asset_bag_covers() {
        let t = KindTable::new();
        let mut a = InternedBag::new();
        a.add(&t.intern_asset(&Asset::fungible("coin", 100)));
        a.add(&t.intern_asset(&Asset::non_fungible("ticket", [1, 2])));
        let mut b = InternedBag::new();
        b.add(&t.intern_asset(&Asset::fungible("coin", 50)));
        b.add(&t.intern_asset(&Asset::non_fungible("ticket", [1])));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
        assert!(a.covers(&InternedBag::new()));
        // A zero-amount leftover entry never blocks coverage.
        let mut c = InternedBag::new();
        c.add(&t.intern_asset(&Asset::fungible("dust", 5)));
        assert!(c.remove(&t.intern_asset(&Asset::fungible("dust", 5))));
        assert!(a.covers(&c));
    }

    #[test]
    fn interned_asset_roundtrips() {
        let t = KindTable::new();
        let coins = t.intern_asset(&Asset::fungible("coin", 101));
        let tickets = t.intern_asset(&Asset::non_fungible("ticket", [1, 2]));
        assert_eq!(coins.magnitude(), 101);
        assert_eq!(tickets.magnitude(), 2);
        assert!(!coins.is_empty());
        assert_ne!(coins.kind(), tickets.kind());
        assert_eq!(coins.resolve(&t), Asset::fungible("coin", 101));
        assert_eq!(tickets.resolve(&t), Asset::non_fungible("ticket", [1, 2]));
    }

    #[test]
    fn interned_bag_mirrors_asset_bag() {
        let t = KindTable::new();
        let mut bag = InternedBag::new();
        assert!(bag.is_empty());
        bag.add(&t.intern_asset(&Asset::fungible("coin", 100)));
        bag.add(&t.intern_asset(&Asset::fungible("coin", 1)));
        bag.add(&t.intern_asset(&Asset::non_fungible("ticket", [7])));
        assert!(bag.contains(&t.intern_asset(&Asset::fungible("coin", 101))));
        assert!(!bag.contains(&t.intern_asset(&Asset::fungible("coin", 102))));
        assert!(bag.remove(&t.intern_asset(&Asset::fungible("coin", 100))));
        assert!(!bag.remove(&t.intern_asset(&Asset::fungible("coin", 100))));
        assert!(bag.remove(&t.intern_asset(&Asset::non_fungible("ticket", [7]))));

        let resolved = bag.resolve(&t);
        assert_eq!(resolved.balance(&"coin".into()), 1);
        assert!(!resolved.contains(&Asset::non_fungible("ticket", [7])));
    }
}
