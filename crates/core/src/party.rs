//! Party identity and behaviour configuration.
//!
//! The paper classifies parties only as *compliant* (they follow the protocol)
//! or *deviating* (they do not, whether rationally or not), and deliberately
//! makes no assumption about how many parties deviate or how. A
//! [`PartyConfig`] therefore pairs a party with an open [`Strategy`] (see
//! [`crate::strategy`]) that answers its protocol decisions; the built-in
//! behaviours live in [`strategies`], and new adversaries are user code, not
//! core edits.

use std::fmt;
use std::sync::Arc;

use xchain_sim::ids::PartyId;
use xchain_sim::time::Time;

use crate::strategy::{strategies, Strategy};

/// The behaviour configuration of one party in a deal execution: the party
/// plus the [`Strategy`] that makes its decisions. Cloning shares the
/// strategy (an `Arc`), which is what a colluding coalition wants; per-run
/// state isolation is provided by [`fresh_configs`].
#[derive(Clone)]
pub struct PartyConfig {
    /// The party.
    pub id: PartyId,
    /// The behaviour driving it.
    pub strategy: Arc<dyn Strategy>,
}

impl fmt::Debug for PartyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartyConfig")
            .field("id", &self.id)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl PartyConfig {
    /// A compliant party.
    pub fn compliant(id: PartyId) -> Self {
        PartyConfig {
            id,
            strategy: strategies::compliant(),
        }
    }

    /// A party driven by an arbitrary strategy — the open adversary API.
    pub fn with_strategy(id: PartyId, strategy: Arc<dyn Strategy>) -> Self {
        PartyConfig { id, strategy }
    }

    /// True if the party follows the protocol exactly. Parties that go
    /// offline during the run are classified as deviating, matching the
    /// paper's treatment of parties that fail to act in time.
    pub fn is_compliant(&self) -> bool {
        self.strategy.is_compliant()
    }

    /// The offline window to register with the world, if the strategy models
    /// one.
    pub fn offline_window(&self) -> Option<(Time, Time)> {
        self.strategy.offline_window()
    }
}

/// Looks up a party's configuration, defaulting to compliant when absent.
pub fn config_of(configs: &[PartyConfig], id: PartyId) -> PartyConfig {
    configs
        .iter()
        .find(|c| c.id == id)
        .cloned()
        .unwrap_or_else(|| PartyConfig::compliant(id))
}

/// Clones a configuration set for one deal execution, giving stateful
/// strategies a clean interior state (via [`Strategy::fresh`]) while
/// preserving sharing: configs that held the *same* `Arc` — a coalition —
/// receive the same fresh instance. Stateless strategies are shared as-is.
/// [`crate::deal::Deal::run`] calls this before every execution, so repeated
/// runs of one session and concurrent sweep cells never see each other's
/// strategy state.
pub fn fresh_configs(configs: &[PartyConfig]) -> Vec<PartyConfig> {
    let mut replaced: Vec<(*const (), Arc<dyn Strategy>)> = Vec::new();
    configs
        .iter()
        .map(|c| {
            let key = Arc::as_ptr(&c.strategy) as *const ();
            let strategy = match replaced.iter().find(|(k, _)| *k == key) {
                Some((_, fresh)) => fresh.clone(),
                None => {
                    let fresh = c.strategy.fresh().unwrap_or_else(|| c.strategy.clone());
                    replaced.push((key, fresh.clone()));
                    fresh
                }
            };
            PartyConfig { id: c.id, strategy }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::Phase;
    use crate::strategy::{DealView, ObservationCtx, Vote};

    #[test]
    fn compliant_and_deviating_classification() {
        let c = PartyConfig::compliant(PartyId(0));
        assert!(c.is_compliant());
        assert_eq!(c.offline_window(), None);
        let d = PartyConfig::with_strategy(PartyId(1), strategies::withhold_vote());
        assert!(!d.is_compliant());
        let off =
            PartyConfig::with_strategy(PartyId(2), strategies::offline_during(Time(5), Time(10)));
        assert!(!off.is_compliant());
        assert_eq!(off.offline_window(), Some((Time(5), Time(10))));
    }

    #[test]
    fn config_lookup_defaults_to_compliant() {
        let configs = vec![PartyConfig::with_strategy(
            PartyId(1),
            strategies::withhold_vote(),
        )];
        assert!(config_of(&configs, PartyId(0)).is_compliant());
        assert!(!config_of(&configs, PartyId(1)).is_compliant());
    }

    #[test]
    fn fresh_configs_preserves_sharing_and_resets_state() {
        let shared = strategies::coalition([PartyId(0), PartyId(1)]);
        let solo = strategies::sore_loser();
        let configs = vec![
            PartyConfig::with_strategy(PartyId(0), shared.clone()),
            PartyConfig::with_strategy(PartyId(1), shared),
            PartyConfig::with_strategy(PartyId(2), solo),
        ];
        let fresh = fresh_configs(&configs);
        // The two coalition members still share one (new) instance …
        assert!(Arc::ptr_eq(&fresh[0].strategy, &fresh[1].strategy));
        // … which is not the prototype.
        assert!(!Arc::ptr_eq(&fresh[0].strategy, &configs[0].strategy));
        // Stateless strategies are shared as-is.
        assert!(Arc::ptr_eq(&fresh[2].strategy, &configs[2].strategy));
    }

    #[test]
    fn deviating_config_answers_through_its_strategy() {
        let spec = crate::builders::broker_spec();
        let view = DealView::default();
        let ctx = ObservationCtx {
            party: PartyId(0),
            phase: Phase::Commit,
            now: Time(0),
            spec: &spec,
            view: &view,
            validated: Some(true),
        };
        let c = PartyConfig::with_strategy(PartyId(0), strategies::refuse_escrow());
        assert!(!c.strategy.on_escrow(&ctx));
        let c = PartyConfig::with_strategy(PartyId(0), strategies::vote_abort());
        assert_eq!(c.strategy.on_vote(&ctx), Vote::Abort);
        let c = PartyConfig::with_strategy(PartyId(0), strategies::crash_after(Phase::Escrow));
        assert!(c.strategy.on_escrow(&ctx));
        assert!(!c.strategy.on_transfer(&ctx));
    }
}
