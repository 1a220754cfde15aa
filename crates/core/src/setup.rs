//! World setup helpers shared by the protocol engines, tests, examples and the
//! benchmark harness: create the chains and parties a deal specification
//! references and mint the assets that parties are supposed to own at the
//! start.

use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::error::DealError;
use crate::plan::DealPlan;
use crate::spec::DealSpec;

/// Creates a world containing every chain and party the plan references,
/// with each escrow owner already holding the asset it is supposed to escrow.
/// Chains go by their ids (`chain-{i}`) and are created with a 1-tick block
/// interval so chain time tracks world time closely; the network model is
/// supplied by the caller. Parties are created before chains, so each
/// chain's key directory is filled at its final size in one allocation.
/// [`crate::Deal::run`], [`crate::Deal::build_world`] and the sweep
/// executor build worlds here.
pub fn world_for_plan(
    plan: &DealPlan,
    network: NetworkModel,
    seed: u64,
) -> Result<World, DealError> {
    let mut world = World::with_network(seed, network);
    let max_party = plan.spec().parties.iter().map(|p| p.0).max().unwrap_or(0);
    world.add_parties(max_party as usize + 1);
    let max_chain = plan.chains().iter().map(|c| c.0).max().unwrap_or(0);
    world.add_chains(max_chain as usize + 1, Duration(1));
    for e in &plan.spec().escrows {
        world
            .mint(e.chain, Owner::Party(e.owner), &e.asset)
            .map_err(DealError::Chain)?;
    }
    Ok(world)
}

/// Advances the world clock by one sampled observation delay (bounded by the
/// worst-case delay of the network model at the current time). The protocol
/// engines use this as their single time-stepping primitive between actions.
pub fn advance_one_observation(world: &mut World) {
    let now = world.now();
    let delay = world.network().sample_delay(now, world.rng());
    world.advance_by(delay);
}

/// Checks that every party of the spec exists in the world (a sanity check
/// the deal driver runs before executing).
pub fn check_parties_exist(world: &World, spec: &DealSpec) -> Result<(), DealError> {
    for p in &spec.parties {
        if !world.has_party(*p) {
            return Err(DealError::Config(format!(
                "{p} does not exist in the world"
            )));
        }
    }
    Ok(())
}

/// Checks that every chain of the spec exists in the world.
pub fn check_chains_exist(world: &World, spec: &DealSpec) -> Result<(), DealError> {
    for c in spec.chains() {
        if world.chain(c).is_err() {
            return Err(DealError::Config(format!(
                "{c} does not exist in the world"
            )));
        }
    }
    Ok(())
}

/// Applies the offline windows declared in party configurations to the world.
pub fn apply_offline_windows(world: &mut World, configs: &[crate::party::PartyConfig]) {
    for c in configs {
        if let Some((from, until)) = c.offline_window() {
            world.set_offline(c.id, from, until);
        }
    }
}

/// Returns the chains a party must interact with under the timelock protocol
/// when it behaves compliantly: the chains of its incoming assets (votes) and
/// outgoing assets (monitoring) only. Used to verify the decentralization
/// claim of Section 5.1.
pub fn chains_touched_by(spec: &DealSpec, party: PartyId) -> Vec<ChainId> {
    let mut chains = spec.incoming_chains_of(party);
    chains.extend(spec.outgoing_chains_of(party));
    chains.sort();
    chains.dedup();
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DealDriver;
    use crate::party::PartyConfig;
    use crate::spec::{EscrowSpec, TransferSpec};
    use crate::strategy::strategies;
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::DealId;
    use xchain_sim::time::Time;

    fn tiny_spec() -> DealSpec {
        DealSpec::new(
            DealId(1),
            vec![PartyId(0), PartyId(1)],
            vec![
                EscrowSpec {
                    owner: PartyId(0),
                    chain: ChainId(0),
                    asset: Asset::fungible("a", 5),
                },
                EscrowSpec {
                    owner: PartyId(1),
                    chain: ChainId(1),
                    asset: Asset::fungible("b", 7),
                },
            ],
            vec![
                TransferSpec {
                    from: PartyId(0),
                    to: PartyId(1),
                    chain: ChainId(0),
                    asset: Asset::fungible("a", 5),
                },
                TransferSpec {
                    from: PartyId(1),
                    to: PartyId(0),
                    chain: ChainId(1),
                    asset: Asset::fungible("b", 7),
                },
            ],
        )
    }

    #[test]
    fn world_setup_creates_chains_parties_and_assets() {
        let spec = tiny_spec();
        let plan = DealPlan::new(&spec).unwrap();
        let world = world_for_plan(&plan, NetworkModel::synchronous(10), 3).unwrap();
        check_parties_exist(&world, &spec).unwrap();
        check_chains_exist(&world, &spec).unwrap();
        assert!(world
            .chain(ChainId(0))
            .unwrap()
            .holdings(Owner::Party(PartyId(0)))
            .contains(&Asset::fungible("a", 5)));
        assert!(world
            .chain(ChainId(1))
            .unwrap()
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::fungible("b", 7)));
    }

    #[test]
    fn offline_windows_and_party_picking() {
        let spec = tiny_spec();
        let plan = DealPlan::new(&spec).unwrap();
        let mut world = world_for_plan(&plan, NetworkModel::synchronous(10), 3).unwrap();
        let configs = vec![PartyConfig::with_strategy(
            PartyId(0),
            strategies::offline_during(Time(0), Time(100)),
        )];
        apply_offline_windows(&mut world, &configs);
        assert!(world.is_offline(PartyId(0), Time(50)));
        // Party 1 is compliant and online, so it is preferred.
        let driver = DealDriver::new(&mut world, &plan, &configs).unwrap();
        assert_eq!(driver.online_party(), Some(PartyId(1)));
        // If everyone is offline, no one can be picked.
        driver.world.set_offline(PartyId(1), Time(0), Time(100));
        assert_eq!(driver.online_party(), None);
    }

    #[test]
    fn decentralization_chain_sets() {
        let spec = tiny_spec();
        assert_eq!(
            chains_touched_by(&spec, PartyId(0)),
            vec![ChainId(0), ChainId(1)]
        );
        let missing = check_parties_exist(&World::new(0), &spec);
        assert!(missing.is_err());
    }
}
