//! The blockchain ledger: asset ownership, contract hosting, and the public log.
//!
//! Each [`Blockchain`] is "a publicly-readable, tamper-proof distributed
//! ledger that tracks ownership of assets among various parties" (Section 3).
//! The simulator collapses the replication machinery: what the protocols need
//! from a chain is (a) authoritative asset ownership, (b) deterministic
//! contract execution with gas costs, (c) an append-only log that parties can
//! monitor, and (d) a notion of chain time with bounded observation latency.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::asset::{kind_entry, Asset, AssetBag, AssetKind};
use crate::contract::{CallCtx, Contract};
use crate::crypto::{KeyDirectory, KeyPair};
use crate::error::{ChainError, ChainResult};
use crate::gas::{GasMeter, GasUsage};
use crate::ids::{ChainId, ContractId, Owner, PartyId, TokenId};
use crate::time::{Duration, Time};

/// Authoritative record of who owns what on one chain.
///
/// Ownership is keyed on the [`AssetKind`] the deal specification already
/// shares: balances by kind and then owner, token owners by kind and then
/// token. Operations find a kind's entry through the borrowed kind, so a
/// kind's name is shared into the ledger once, when the kind first appears.
#[derive(Debug, Clone, Default)]
pub struct AssetLedger {
    fungible: BTreeMap<AssetKind, BTreeMap<Owner, u64>>,
    non_fungible: BTreeMap<AssetKind, BTreeMap<TokenId, Owner>>,
}

impl AssetLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates new units of an asset owned by `owner` (test/workload setup;
    /// real chains would do this in their native issuance rules). Fails,
    /// changing nothing, if a token already exists or the owner's balance
    /// would overflow.
    pub fn mint(&mut self, owner: Owner, asset: &Asset) -> ChainResult<()> {
        match asset {
            Asset::Fungible { kind, amount } => {
                credit(kind_entry(&mut self.fungible, kind), owner, kind, *amount)
            }
            Asset::NonFungible { kind, tokens } => {
                let owners = kind_entry(&mut self.non_fungible, kind);
                // Single pass through the entry API; on a duplicate, roll back
                // the tokens inserted earlier in this call so the mint stays
                // all-or-nothing.
                for (i, t) in tokens.iter().enumerate() {
                    match owners.entry(*t) {
                        Entry::Vacant(slot) => {
                            slot.insert(owner);
                        }
                        Entry::Occupied(_) => {
                            for minted in tokens.iter().take(i) {
                                owners.remove(minted);
                            }
                            return Err(ChainError::require(format!(
                                "token {t} of kind '{kind}' already minted"
                            )));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// The fungible balance of `owner` in `kind`.
    pub fn balance(&self, owner: Owner, kind: &AssetKind) -> u64 {
        self.fungible
            .get(kind)
            .and_then(|balances| balances.get(&owner))
            .copied()
            .unwrap_or(0)
    }

    /// The current owner of a non-fungible token, if it exists.
    pub fn token_owner(&self, kind: &AssetKind, token: TokenId) -> Option<Owner> {
        self.non_fungible.get(kind)?.get(&token).copied()
    }

    /// Transfers `asset` from `from` to `to`. Fails, changing nothing, if
    /// `from` does not hold it or `to`'s balance would overflow.
    pub fn transfer(&mut self, from: Owner, to: Owner, asset: &Asset) -> ChainResult<()> {
        match asset {
            Asset::Fungible { kind, amount } => self.transfer_fungible(from, to, kind, *amount),
            Asset::NonFungible { kind, tokens } => self.transfer_tokens(from, to, kind, tokens),
        }
    }

    /// Transfers `amount` units of a fungible kind.
    pub(crate) fn transfer_fungible(
        &mut self,
        from: Owner,
        to: Owner,
        kind: &AssetKind,
        amount: u64,
    ) -> ChainResult<()> {
        let have = self.balance(from, kind);
        if have < amount {
            return Err(ChainError::InsufficientBalance {
                owner: from,
                kind: kind.to_string(),
                requested: amount,
                available: have,
            });
        }
        // A self-transfer changes nothing, so it must not trip the credit's
        // overflow check.
        if amount == 0 || from == to {
            return Ok(());
        }
        let balances = self.fungible.get_mut(kind).expect("`from` holds `amount`");
        credit(balances, to, kind, amount)?;
        *balances.get_mut(&from).expect("`from` holds `amount`") -= amount;
        Ok(())
    }

    /// Transfers specific tokens of a non-fungible kind.
    pub(crate) fn transfer_tokens(
        &mut self,
        from: Owner,
        to: Owner,
        kind: &AssetKind,
        tokens: &BTreeSet<TokenId>,
    ) -> ChainResult<()> {
        for t in tokens {
            if self.token_owner(kind, *t) != Some(from) {
                return Err(ChainError::NotTokenOwner {
                    owner: from,
                    kind: kind.to_string(),
                    token: *t,
                });
            }
        }
        if let Some(owners) = self.non_fungible.get_mut(kind) {
            for t in tokens {
                owners.insert(*t, to);
            }
        }
        Ok(())
    }

    /// Everything `owner` holds on this chain.
    pub fn holdings(&self, owner: Owner) -> AssetBag {
        let mut bag = AssetBag::new();
        self.add_holdings_to(owner, &mut bag);
        bag
    }

    /// Adds everything `owner` holds on this chain to `bag`: its balance of
    /// each kind and one pass over each kind's tokens. Zero balances are
    /// left out. The single scan behind every holdings snapshot
    /// ([`AssetLedger::holdings`], [`crate::world::World::holdings`]).
    pub(crate) fn add_holdings_to(&self, owner: Owner, bag: &mut AssetBag) {
        for (kind, balances) in &self.fungible {
            let amount = balances.get(&owner).copied().unwrap_or(0);
            if amount > 0 {
                bag.add_fungible(kind, amount);
            }
        }
        for (kind, owners) in &self.non_fungible {
            for (&token, &o) in owners {
                if o == owner {
                    bag.add_tokens(kind, [token]);
                }
            }
        }
    }
}

/// Adds `amount` to `owner`'s entry in one kind's `balances`, failing if it
/// would overflow. A failure changes nothing: only an existing balance can
/// overflow.
fn credit(
    balances: &mut BTreeMap<Owner, u64>,
    owner: Owner,
    kind: &AssetKind,
    amount: u64,
) -> ChainResult<()> {
    let balance = balances.entry(owner).or_insert(0);
    *balance = balance
        .checked_add(amount)
        .ok_or_else(|| ChainError::BalanceOverflow {
            owner,
            kind: kind.to_string(),
        })?;
    Ok(())
}

/// What a log entry records, as a `Copy` enum: contracts emit the tag
/// directly ([`CallCtx::emit`]), so observers classify an entry without
/// reading a string. Events outside the deal vocabulary are
/// [`EventTag::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventTag {
    /// An escrow deposit locked in.
    Escrow = 0,
    /// A C-map transfer was performed.
    TentativeTransfer = 1,
    /// A timelock commit vote was accepted.
    CommitVote = 2,
    /// The escrow paid out its C map.
    EscrowCommitted = 3,
    /// The escrow refunded its A map.
    EscrowAborted = 4,
    /// An HTLC was funded (plays the escrow role).
    HtlcFunded = 5,
    /// An HTLC was claimed (plays the commit-vote role).
    HtlcClaimed = 6,
    /// An HTLC timed out and refunded.
    HtlcRefunded = 7,
    /// Any other event (token mints, ticket issues, test contracts, …).
    Other = 8,
}

/// A subscription over [`EventTag`]s: a tiny bitset observers use to skip log
/// entries they will never ingest (see [`Blockchain::log_from_filtered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogFilter(u16);

impl LogFilter {
    /// The empty filter (accepts nothing).
    pub const fn none() -> Self {
        LogFilter(0)
    }

    /// A filter accepting every tag, including [`EventTag::Other`].
    pub fn all() -> Self {
        LogFilter(u16::MAX)
    }

    /// This filter extended with one more tag.
    pub const fn with(self, tag: EventTag) -> Self {
        LogFilter(self.0 | (1 << tag as u16))
    }

    /// True if the filter accepts entries with this tag.
    pub fn accepts(&self, tag: EventTag) -> bool {
        self.0 & (1 << tag as u16) != 0
    }
}

/// One entry in a chain's public log. Contracts append entries via
/// [`CallCtx::emit`]; parties monitor chains by reading the log (subject to
/// the network model's observation delay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Monotonically increasing sequence number on this chain.
    pub seq: u64,
    /// Chain time at which the entry was appended.
    pub time: Time,
    /// The contract that emitted the entry, if any.
    pub contract: Option<ContractId>,
    /// The caller whose transaction produced the entry.
    pub caller: Owner,
    /// What the entry records.
    pub tag: EventTag,
    /// Numeric payload (ids, amounts, hashes).
    pub data: LogData,
}

/// A log entry's numeric payload: up to [`LogData::CAPACITY`] words stored
/// inline, so appending an entry never allocates. Reads as a `&[u64]`. The
/// unused words are always zero, so the derived equality is the payloads'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogData {
    len: u8,
    words: [u64; LogData::CAPACITY],
}

impl LogData {
    /// The most words one entry carries.
    pub const CAPACITY: usize = 4;

    /// A payload of `N ≤ CAPACITY` words; a larger `N` fails to compile.
    pub fn new<const N: usize>(data: [u64; N]) -> Self {
        const {
            assert!(
                N <= LogData::CAPACITY,
                "a log entry carries at most 4 words"
            )
        };
        let mut words = [0; LogData::CAPACITY];
        words[..N].copy_from_slice(&data);
        LogData {
            len: N as u8,
            words,
        }
    }
}

impl std::ops::Deref for LogData {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }
}

/// A per-observer position in a chain's log: the index of the first entry the
/// observer has *not* seen yet. Parties that monitor a chain keep one cursor
/// per chain and call [`Blockchain::log_from_filtered`], which returns only
/// the new entries and advances the cursor — O(new entries) instead of
/// re-scanning the whole log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCursor {
    next: usize,
}

impl LogCursor {
    /// A cursor positioned at the start of the log (sees everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of the next unseen entry.
    pub fn position(&self) -> usize {
        self.next
    }
}

/// A single simulated blockchain.
pub struct Blockchain {
    id: ChainId,
    /// `None` for a chain that goes by its id (see [`Blockchain::name`]).
    name: Option<String>,
    /// Chain time is quantized to this block interval ("most blockchains
    /// measure time imprecisely, usually by multiplying the current block
    /// height by the average block rate", Section 5).
    block_interval: Duration,
    assets: AssetLedger,
    /// Contracts live in `Option` slots so a call can *take* the box with one
    /// map lookup (and put it back the same way) instead of removing and
    /// re-inserting a tree node on every transaction. A slot is only ever
    /// `None` for the duration of the call executing its contract.
    contracts: BTreeMap<ContractId, Option<Box<dyn Contract>>>,
    next_contract: u64,
    gas: GasMeter,
    keys: KeyDirectory,
    log: Vec<LogEntry>,
    log_seq: u64,
}

impl Blockchain {
    /// Creates a chain with the given display name and block interval.
    pub fn new(id: ChainId, name: impl Into<String>, block_interval: Duration) -> Self {
        Self::named(id, Some(name.into()), block_interval)
    }

    /// Creates a chain; one without a name goes by its id.
    pub(crate) fn named(id: ChainId, name: Option<String>, block_interval: Duration) -> Self {
        Blockchain {
            id,
            name,
            block_interval: if block_interval.ticks() == 0 {
                Duration(1)
            } else {
                block_interval
            },
            assets: AssetLedger::new(),
            contracts: BTreeMap::new(),
            next_contract: 1,
            gas: GasMeter::unlimited(),
            keys: KeyDirectory::new(),
            log: Vec::new(),
            log_seq: 0,
        }
    }

    /// The chain id.
    pub fn id(&self) -> ChainId {
        self.id
    }

    /// The chain's display name: the one it was created with, or else its
    /// id (`chain-3`).
    pub fn name(&self) -> Cow<'_, str> {
        match &self.name {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(self.id.to_string()),
        }
    }

    /// Chain time derived from wall (world) time by block quantization.
    pub fn chain_time(&self, now: Time) -> Time {
        let q = self.block_interval.ticks();
        Time((now.ticks() / q) * q)
    }

    /// Registers a party's key so contracts on this chain can verify its
    /// signatures.
    pub fn register_key(&mut self, party: PartyId, kp: &KeyPair) {
        self.keys.register(party, kp);
    }

    /// Registers a known number of keys, growing the key directory once.
    pub fn register_keys<'a>(
        &mut self,
        keys: impl ExactSizeIterator<Item = (PartyId, &'a KeyPair)>,
    ) {
        self.keys.reserve(keys.len());
        for (party, kp) in keys {
            self.keys.register(party, kp);
        }
    }

    /// The chain's public-key directory.
    pub fn keys(&self) -> &KeyDirectory {
        &self.keys
    }

    /// Installs a contract and returns its id.
    pub fn install<C: Contract>(&mut self, contract: C) -> ContractId {
        let id = ContractId(((self.id.0 as u64) << 32) | self.next_contract);
        self.next_contract += 1;
        self.contracts.insert(id, Some(Box::new(contract)));
        id
    }

    /// Mints assets directly to an owner (workload setup).
    pub fn mint(&mut self, owner: Owner, asset: &Asset) -> ChainResult<()> {
        self.assets.mint(owner, asset)
    }

    /// Read-only access to the asset ledger.
    pub fn assets(&self) -> &AssetLedger {
        &self.assets
    }

    /// Everything `owner` holds on this chain.
    pub fn holdings(&self, owner: Owner) -> AssetBag {
        self.assets.holdings(owner)
    }

    /// Cumulative gas usage on this chain.
    pub fn gas_usage(&self) -> GasUsage {
        self.gas.usage()
    }

    /// The full public log.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Log entries the cursor has not seen yet, advancing the cursor past
    /// them. Repeated monitoring of a chain is O(new entries) instead of an
    /// O(whole log) re-scan.
    fn log_from(&self, cursor: &mut LogCursor) -> &[LogEntry] {
        let start = cursor.next.min(self.log.len());
        cursor.next = self.log.len();
        &self.log[start..]
    }

    /// The log entries the cursor has not seen yet whose [`EventTag`] the
    /// filter accepts. The cursor advances past *all* new entries —
    /// filtered-out ones are skipped, not deferred — so repeated monitoring
    /// of a chain is O(new entries), and a subscribed observer pays nothing
    /// for log traffic outside its vocabulary.
    pub fn log_from_filtered<'a>(
        &'a self,
        cursor: &mut LogCursor,
        filter: LogFilter,
    ) -> impl Iterator<Item = &'a LogEntry> {
        self.log_from(cursor)
            .iter()
            .filter(move |e| filter.accepts(e.tag))
    }

    /// Submits a transaction that calls contract `id`, dispatching on the
    /// concrete contract type `C`. The closure receives the downcast contract
    /// and a [`CallCtx`]; its result is the call's result. Charges the
    /// intrinsic call cost plus whatever the contract charges.
    ///
    /// A failed call (`Err`) still consumes the gas charged up to the failure
    /// point, like a reverted Ethereum transaction consumes gas.
    pub fn call<C, R>(
        &mut self,
        now: Time,
        caller: Owner,
        id: ContractId,
        f: impl FnOnce(&mut C, &mut CallCtx<'_>) -> ChainResult<R>,
    ) -> ChainResult<R>
    where
        C: Contract,
    {
        let slot = self
            .contracts
            .get_mut(&id)
            .ok_or(ChainError::UnknownContract(id))?;
        let mut boxed = slot.take().ok_or(ChainError::UnknownContract(id))?;
        if let Err((used, limit)) = self.gas.charge_call() {
            *self.contracts.get_mut(&id).expect("slot exists") = Some(boxed);
            return Err(ChainError::OutOfGas { used, limit });
        }
        let chain_now = self.chain_time(now);
        let result = {
            let concrete = match boxed.as_any_mut().downcast_mut::<C>() {
                Some(c) => c,
                None => {
                    *self.contracts.get_mut(&id).expect("slot exists") = Some(boxed);
                    return Err(ChainError::ContractTypeMismatch(id));
                }
            };
            let mut ctx = CallCtx {
                contract: id,
                caller,
                now: chain_now,
                gas: &mut self.gas,
                assets: &mut self.assets,
                keys: &self.keys,
                log: &mut self.log,
                log_seq: &mut self.log_seq,
            };
            f(concrete, &mut ctx)
        };
        *self.contracts.get_mut(&id).expect("slot exists") = Some(boxed);
        result
    }

    /// Reads contract state without submitting a transaction (an off-chain
    /// `eth_call`): free of gas, immutable access only.
    pub fn view<C, R>(&self, id: ContractId, f: impl FnOnce(&C) -> R) -> ChainResult<R>
    where
        C: Contract,
    {
        let boxed = self
            .contracts
            .get(&id)
            .and_then(|slot| slot.as_ref())
            .ok_or(ChainError::UnknownContract(id))?;
        let concrete = boxed
            .as_any()
            .downcast_ref::<C>()
            .ok_or(ChainError::ContractTypeMismatch(id))?;
        Ok(f(concrete))
    }
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("contracts", &self.contracts.len())
            .field("log_entries", &self.log.len())
            .field("gas", &self.gas.usage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Default)]
    struct Counter {
        value: u64,
    }

    impl Contract for Counter {
        fn type_name(&self) -> &'static str {
            "counter"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl Counter {
        fn bump(&mut self, ctx: &mut CallCtx<'_>, by: u64) -> ChainResult<u64> {
            ctx.charge_storage_write()?;
            self.value += by;
            ctx.emit(EventTag::Other, [self.value])?;
            Ok(self.value)
        }
    }

    fn chain() -> Blockchain {
        Blockchain::new(ChainId(0), "test-chain", Duration(10))
    }

    #[test]
    fn mint_transfer_and_holdings() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        let bob = Owner::Party(PartyId(1));
        l.mint(alice, &Asset::fungible("coin", 100)).unwrap();
        l.mint(bob, &Asset::non_fungible("ticket", [1, 2])).unwrap();
        assert_eq!(l.balance(alice, &"coin".into()), 100);
        assert_eq!(l.token_owner(&"ticket".into(), TokenId(1)), Some(bob));

        l.transfer(alice, bob, &Asset::fungible("coin", 40))
            .unwrap();
        assert_eq!(l.balance(alice, &"coin".into()), 60);
        assert_eq!(l.balance(bob, &"coin".into()), 40);

        l.transfer(bob, alice, &Asset::non_fungible("ticket", [1]))
            .unwrap();
        assert_eq!(l.token_owner(&"ticket".into(), TokenId(1)), Some(alice));

        let holdings = l.holdings(alice);
        assert_eq!(holdings.balance(&"coin".into()), 60);
        assert!(holdings.contains(&Asset::non_fungible("ticket", [1])));
        assert!(l
            .holdings(bob)
            .contains(&Asset::non_fungible("ticket", [2])));
        assert_eq!(l.holdings(bob).balance(&"coin".into()), 40);
    }

    #[test]
    fn transfer_rejects_overdraft_and_wrong_token_owner() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        let bob = Owner::Party(PartyId(1));
        l.mint(alice, &Asset::fungible("coin", 10)).unwrap();
        l.mint(alice, &Asset::non_fungible("ticket", [7])).unwrap();
        assert!(matches!(
            l.transfer(alice, bob, &Asset::fungible("coin", 11)),
            Err(ChainError::InsufficientBalance { .. })
        ));
        assert!(matches!(
            l.transfer(bob, alice, &Asset::non_fungible("ticket", [7])),
            Err(ChainError::NotTokenOwner { .. })
        ));
        // failed transfers change nothing
        assert_eq!(l.balance(alice, &"coin".into()), 10);
    }

    #[test]
    fn double_mint_of_token_rejected() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        let ticket = Asset::non_fungible("ticket", [1]);
        l.mint(alice, &ticket).unwrap();
        assert!(l.mint(alice, &ticket).is_err());
    }

    #[test]
    fn credits_that_would_overflow_are_rejected_without_effect() {
        let mut l = AssetLedger::new();
        let alice = Owner::Party(PartyId(0));
        let bob = Owner::Party(PartyId(1));
        let max = Asset::fungible("coin", u64::MAX);
        let one = Asset::fungible("coin", 1);
        l.mint(alice, &max).unwrap();
        l.mint(bob, &one).unwrap();
        let overflow = ChainError::BalanceOverflow {
            owner: alice,
            kind: "coin".into(),
        };
        assert_eq!(l.mint(alice, &one), Err(overflow.clone()));
        assert_eq!(l.transfer(bob, alice, &one), Err(overflow));
        assert_eq!(l.balance(alice, &"coin".into()), u64::MAX);
        assert_eq!(l.balance(bob, &"coin".into()), 1);
        // Moving a full balance to oneself is a no-op, not an overflow.
        l.transfer(alice, alice, &max).unwrap();
        assert_eq!(l.balance(alice, &"coin".into()), u64::MAX);
    }

    #[test]
    fn contract_calls_charge_gas_and_mutate_state() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(3));
        let v = c
            .call(Time(25), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 5)
            })
            .unwrap();
        assert_eq!(v, 5);
        let v = c
            .call(Time(31), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 2)
            })
            .unwrap();
        assert_eq!(v, 7);
        assert_eq!(c.view(id, |ctr: &Counter| ctr.value).unwrap(), 7);
        let usage = c.gas_usage();
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.storage_writes, 2);
        assert_eq!(usage.log_entries, 2);
        // chain time is quantized to the 10-tick block interval
        assert_eq!(c.log()[0].time, Time(20));
        assert_eq!(c.log()[1].time, Time(30));
    }

    #[test]
    fn call_unknown_or_mismatched_contract_fails() {
        let mut c = chain();
        let id = c.install(Counter::default());
        assert!(matches!(
            c.call(
                Time(0),
                Owner::Party(PartyId(0)),
                ContractId(999),
                |_: &mut Counter, _| Ok(())
            ),
            Err(ChainError::UnknownContract(_))
        ));

        struct Other;
        impl Contract for Other {
            fn type_name(&self) -> &'static str {
                "other"
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        assert!(matches!(
            c.call(
                Time(0),
                Owner::Party(PartyId(0)),
                id,
                |_: &mut Other, _| Ok(())
            ),
            Err(ChainError::ContractTypeMismatch(_))
        ));
        // contract survives the failed dispatch
        assert_eq!(c.view(id, |ctr: &Counter| ctr.value).unwrap(), 0);
    }

    #[test]
    fn log_from_returns_only_new_entries_and_advances_the_cursor() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(0));
        let mut cursor = LogCursor::new();
        assert!(c.log_from(&mut cursor).is_empty());
        for t in [5u64, 15] {
            c.call(Time(t), caller, id, |ctr: &mut Counter, ctx| {
                ctr.bump(ctx, 1)
            })
            .unwrap();
        }
        let fresh = c.log_from(&mut cursor);
        assert_eq!(fresh.len(), 2);
        assert_eq!(cursor.position(), 2);
        // Nothing new: the cursor does not re-deliver.
        assert!(c.log_from(&mut cursor).is_empty());
        c.call(Time(25), caller, id, |ctr: &mut Counter, ctx| {
            ctr.bump(ctx, 1)
        })
        .unwrap();
        let fresh = c.log_from(&mut cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].seq, 3); // seq numbers are 1-based
                                     // A second, independent cursor still sees everything.
        let mut other = LogCursor::new();
        assert_eq!(c.log_from(&mut other).len(), 3);
    }

    #[test]
    fn filtered_log_reads_skip_foreign_tags_but_advance_the_cursor() {
        let mut c = chain();
        let id = c.install(Counter::default());
        let caller = Owner::Party(PartyId(0));
        // The Counter emits EventTag::Other; emit one entry.
        c.call(Time(5), caller, id, |ctr: &mut Counter, ctx| {
            ctr.bump(ctx, 1)
        })
        .unwrap();
        assert_eq!(c.log()[0].tag, EventTag::Other);
        let mut cursor = LogCursor::new();
        let escrow_only = LogFilter::none().with(EventTag::Escrow);
        assert_eq!(c.log_from_filtered(&mut cursor, escrow_only).count(), 0);
        // The cursor advanced past the skipped entry: nothing is re-delivered.
        assert_eq!(cursor.position(), 1);
        assert_eq!(
            c.log_from_filtered(&mut cursor, LogFilter::all()).count(),
            0
        );
        // Filter membership behaves like a set.
        let f = LogFilter::none()
            .with(EventTag::Escrow)
            .with(EventTag::CommitVote);
        assert!(f.accepts(EventTag::Escrow));
        assert!(!f.accepts(EventTag::EscrowAborted));
        assert!(!LogFilter::none().accepts(EventTag::Escrow));
    }
}
