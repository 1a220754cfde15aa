//! The simulation world: a collection of independent blockchains, the parties
//! that act on them, a global logical clock, and the network timing model.
//!
//! The world is deliberately *not* an actor framework: the deal protocol
//! engines (in `xchain-deals`) decide who acts when, because the timing of
//! party actions *is* the protocol. The world provides the shared pieces:
//! chains, keys, time, observation delays, offline windows and gas totals.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::asset::AssetBag;
use crate::contract::{CallCtx, Contract};
use crate::crypto::KeyPair;
use crate::error::{ChainError, ChainResult};
use crate::gas::GasUsage;
use crate::ids::{ChainId, ContractId, Owner, PartyId};
use crate::intern::{InternedAsset, InternedBag, KindTable};
use crate::ledger::Blockchain;
use crate::network::{NetworkModel, OfflineSchedule};
use crate::time::{Duration, Time};

/// The multi-chain simulation world.
pub struct World {
    clock: Time,
    /// Indexed by [`ChainId`]: [`World::add_chain`] hands out dense ids.
    chains: Vec<Blockchain>,
    parties: BTreeMap<PartyId, KeyPair>,
    next_party: u32,
    network: NetworkModel,
    offline: OfflineSchedule,
    rng: StdRng,
    seed: u64,
    kinds: KindTable,
}

impl World {
    /// Creates a world with a deterministic seed and the default synchronous
    /// network model.
    pub fn new(seed: u64) -> Self {
        World::with_network(seed, NetworkModel::default())
    }

    /// Creates a world with an explicit network model.
    pub fn with_network(seed: u64, network: NetworkModel) -> Self {
        World::with_network_and_kinds(seed, network, KindTable::new())
    }

    /// Creates a world whose asset-kind table starts from `kinds` (typically
    /// a [`KindTable::fork`] of a pre-resolved deal plan's canonical table,
    /// so every id the plan assigned is valid on this world's chains). The
    /// table is adopted as-is: pass a fork, not a shared handle, unless you
    /// want later interning to flow back to the source.
    pub fn with_network_and_kinds(seed: u64, network: NetworkModel, kinds: KindTable) -> Self {
        World {
            clock: Time::ZERO,
            chains: Vec::new(),
            parties: BTreeMap::new(),
            next_party: 0,
            network,
            offline: OfflineSchedule::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            kinds,
        }
    }

    /// The seed this world was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The network model in force.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// The current global clock.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Advances the clock to `t` (no-op if `t` is in the past).
    pub fn advance_to(&mut self, t: Time) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Advances the clock by `d`.
    pub fn advance_by(&mut self, d: Duration) {
        self.clock += d;
    }

    // ------------------------------------------------------------------
    // Chains
    // ------------------------------------------------------------------

    /// The world-owned asset-kind interner. Every chain created by
    /// [`World::add_chain`] shares it, so a kind name resolves to the same
    /// [`crate::intern::KindId`] on all of this world's chains.
    pub fn kinds(&self) -> &KindTable {
        &self.kinds
    }

    /// Creates a new blockchain with the given name and block interval and
    /// returns its id. Existing parties' keys are registered on it, and it
    /// shares the world's kind table.
    pub fn add_chain(&mut self, name: &str, block_interval: Duration) -> ChainId {
        self.push_chain(Some(name.to_string()), block_interval)
    }

    /// Creates `count` chains that go by their ids (`chain-0`, `chain-1`,
    /// …), growing the chain list once. Like [`World::add_chain`], each
    /// chain registers the existing parties' keys, so a world that adds its
    /// parties first fills every key directory in one allocation.
    pub fn add_chains(&mut self, count: usize, block_interval: Duration) {
        self.chains.reserve(count);
        for _ in 0..count {
            self.push_chain(None, block_interval);
        }
    }

    fn push_chain(&mut self, name: Option<String>, block_interval: Duration) -> ChainId {
        let id = ChainId(self.chains.len() as u32);
        let mut chain = Blockchain::with_kinds(id, name, block_interval, self.kinds.clone());
        chain.register_keys(self.parties.iter().map(|(party, kp)| (*party, kp)));
        self.chains.push(chain);
        id
    }

    /// Immutable access to a chain.
    pub fn chain(&self, id: ChainId) -> ChainResult<&Blockchain> {
        self.chains
            .get(id.0 as usize)
            .ok_or(ChainError::UnknownChain(id))
    }

    /// Mutable access to a chain.
    pub fn chain_mut(&mut self, id: ChainId) -> ChainResult<&mut Blockchain> {
        self.chains
            .get_mut(id.0 as usize)
            .ok_or(ChainError::UnknownChain(id))
    }

    // ------------------------------------------------------------------
    // Parties
    // ------------------------------------------------------------------

    /// Creates a new party, derives its key pair, and registers the public key
    /// on every chain.
    pub fn add_party(&mut self) -> PartyId {
        let id = PartyId(self.next_party);
        self.next_party += 1;
        let kp = KeyPair::derive(id, self.seed);
        for chain in &mut self.chains {
            chain.register_key(id, &kp);
        }
        self.parties.insert(id, kp);
        id
    }

    /// Creates `n` parties, with the next `n` ids.
    pub fn add_parties(&mut self, n: usize) {
        for _ in 0..n {
            self.add_party();
        }
    }

    /// The key pair of a party. Protocol engines call this only on behalf of
    /// the party whose action they are simulating; that discipline is the
    /// simulation counterpart of "only the key holder can sign".
    pub fn key_pair(&self, party: PartyId) -> ChainResult<&KeyPair> {
        self.parties
            .get(&party)
            .ok_or_else(|| ChainError::Other(format!("unknown party {party}")))
    }

    /// All party ids in creation order.
    pub fn party_ids(&self) -> Vec<PartyId> {
        self.parties.keys().copied().collect()
    }

    /// True if the party exists in this world.
    pub fn has_party(&self, party: PartyId) -> bool {
        self.parties.contains_key(&party)
    }

    // ------------------------------------------------------------------
    // Availability / network
    // ------------------------------------------------------------------

    /// Marks a party offline during `[from, until)`.
    pub fn set_offline(&mut self, party: PartyId, from: Time, until: Time) {
        self.offline.add(party, from, until);
    }

    /// True if the party is offline at time `t`.
    pub fn is_offline(&self, party: PartyId, t: Time) -> bool {
        self.offline.is_offline(party, t)
    }

    /// The earliest time at or after `t` when the party can act again.
    pub fn next_online(&self, party: PartyId, t: Time) -> Time {
        self.offline.next_online(party, t)
    }

    /// Samples the time at which an event occurring at `event_time` becomes
    /// observable to a party, per the network model (and the party's offline
    /// windows: an offline party observes only once it is back).
    pub fn observation_time(&mut self, party: PartyId, event_time: Time) -> Time {
        let delay = self.network.sample_delay(event_time, &mut self.rng);
        let visible = event_time + delay;
        self.offline.next_online(party, visible)
    }

    /// Mutable access to the world RNG (adversary strategies and workload
    /// generators use this so runs stay reproducible from the world seed).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Convenience wrappers
    // ------------------------------------------------------------------

    /// Mints assets to an owner on a chain (workload setup).
    pub fn mint(&mut self, chain: ChainId, owner: Owner, asset: &InternedAsset) -> ChainResult<()> {
        self.chain_mut(chain)?.mint(owner, asset)
    }

    /// Submits a contract call from `caller` at the current clock, rejecting
    /// it if the caller is a party that is currently offline.
    pub fn call<C, R>(
        &mut self,
        chain: ChainId,
        caller: Owner,
        contract: ContractId,
        f: impl FnOnce(&mut C, &mut CallCtx<'_>) -> ChainResult<R>,
    ) -> ChainResult<R>
    where
        C: Contract,
    {
        if let Owner::Party(p) = caller {
            if self.offline.is_offline(p, self.clock) {
                return Err(ChainError::PartyOffline(p));
            }
        }
        let now = self.clock;
        self.chain_mut(chain)?.call(now, caller, contract, f)
    }

    /// Everything `owner` holds across all chains: every chain's entries
    /// for the owner fold into one id-keyed bag (the chains share the
    /// world's kind table), whose names are resolved once at the end.
    pub fn holdings(&self, owner: Owner) -> AssetBag {
        let mut bag = InternedBag::new();
        for chain in &self.chains {
            chain.assets().add_holdings_to(owner, &mut bag);
        }
        bag.resolve(&self.kinds)
    }

    /// Total gas used across all chains.
    pub fn total_gas(&self) -> GasUsage {
        self.chains
            .iter()
            .fold(GasUsage::ZERO, |acc, c| acc + c.gas_usage())
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("clock", &self.clock)
            .field("chains", &self.chains.len())
            .field("parties", &self.parties.len())
            .field("network", &self.network)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::Asset;

    #[test]
    fn world_setup_and_clock() {
        let mut w = World::new(7);
        let c1 = w.add_chain("coins", Duration(10));
        let p1 = w.add_party();
        let c2 = w.add_chain("tickets", Duration(10));
        assert_eq!(w.party_ids(), vec![p1]);
        // party key is registered on both chains, including the one created later
        assert!(w.chain(c1).unwrap().keys().public_key_of(p1).is_some());
        assert!(w.chain(c2).unwrap().keys().public_key_of(p1).is_some());

        assert_eq!(w.now(), Time(0));
        w.advance_by(Duration(50));
        w.advance_to(Time(30)); // no going back
        assert_eq!(w.now(), Time(50));
    }

    #[test]
    fn holdings_span_chains() {
        let mut w = World::new(1);
        let c1 = w.add_chain("coins", Duration(1));
        let c2 = w.add_chain("tickets", Duration(1));
        let p = w.add_party();
        let coins = w.kinds().intern_asset(&Asset::fungible("coin", 10));
        let ticket = w.kinds().intern_asset(&Asset::non_fungible("ticket", [1]));
        w.mint(c1, Owner::Party(p), &coins).unwrap();
        w.mint(c2, Owner::Party(p), &ticket).unwrap();
        let bag = w.holdings(Owner::Party(p));
        assert_eq!(bag.balance(&"coin".into()), 10);
        assert!(bag.contains(&Asset::non_fungible("ticket", [1])));
    }

    #[test]
    fn observation_time_respects_offline_windows() {
        let mut w = World::with_network(3, NetworkModel::synchronous(10));
        let _c = w.add_chain("x", Duration(1));
        let p = w.add_party();
        w.set_offline(p, Time(0), Time(100));
        let obs = w.observation_time(p, Time(5));
        assert!(obs >= Time(100));
        let q = w.add_party();
        let obs_q = w.observation_time(q, Time(5));
        assert!(obs_q > Time(5) && obs_q <= Time(15));
    }

    #[test]
    fn offline_party_cannot_call() {
        use crate::contract::Contract;
        use std::any::Any;

        struct Noop;
        impl Contract for Noop {
            fn type_name(&self) -> &'static str {
                "noop"
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut w = World::new(9);
        let c = w.add_chain("x", Duration(1));
        let p = w.add_party();
        let cid = w.chain_mut(c).unwrap().install(Noop);
        w.set_offline(p, Time(0), Time(10));
        let err = w
            .call(c, Owner::Party(p), cid, |_: &mut Noop, _| Ok(()))
            .unwrap_err();
        assert_eq!(err, ChainError::PartyOffline(p));
        w.advance_to(Time(10));
        assert!(w
            .call(c, Owner::Party(p), cid, |_: &mut Noop, _| Ok(()))
            .is_ok());
        assert_eq!(w.total_gas().calls, 1);
    }

    #[test]
    fn same_seed_same_observation_sequence() {
        let sample = |seed: u64| {
            let mut w = World::with_network(seed, NetworkModel::synchronous(100));
            let p = w.add_party();
            (0..10)
                .map(|i| w.observation_time(p, Time(i * 10)).ticks())
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(5), sample(5));
        assert_ne!(sample(5), sample(6));
    }
}
