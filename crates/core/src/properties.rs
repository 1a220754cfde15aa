//! The paper's correctness properties, as executable checks over measured
//! deal outcomes.
//!
//! * **Property 1 (safety)**: for every compliant party X, if any of X's
//!   outgoing assets is transferred then all of X's incoming assets are
//!   transferred; and if any of X's incoming assets is not transferred then
//!   none of X's outgoing assets is transferred. We additionally check that a
//!   compliant party never relinquishes more than its agreed outgoing assets.
//! * **Property 2 (weak liveness)**: no asset belonging to a compliant party
//!   is locked up forever (every escrow holding a compliant party's deposit
//!   eventually resolves).
//! * **Property 3 (strong liveness)**: if all parties are compliant, all
//!   transfers happen.

use xchain_sim::asset::{AssetBag, AssetKind};
use xchain_sim::ids::{PartyId, TokenId};

use crate::outcome::{ChainResolution, DealOutcome};
use crate::party::{config_of, PartyConfig};
use crate::spec::DealSpec;

/// A violation of the safety property for one party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The compliant party that ended up worse off.
    pub party: PartyId,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

/// The result of checking Property 1 over an outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SafetyReport {
    /// All violations found (empty means the property holds).
    pub violations: Vec<SafetyViolation>,
}

impl SafetyReport {
    /// True if no compliant party was harmed.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What `p` holds after the whole deal, starting from `initial`:
/// `(initial + incoming) - outgoing`. Incoming assets may fund outgoing ones
/// (Alice pays Bob out of Carol's coins), so they are added before the
/// outgoing assets are subtracted.
fn full_deal(spec: &DealSpec, p: PartyId, initial: &AssetBag, outgoing: &AssetBag) -> AssetBag {
    let mut with_incoming = initial.clone();
    for t in spec.transfers.iter().filter(|t| t.to == p) {
        with_incoming.add(&t.asset);
    }
    with_incoming.minus(outgoing)
}

/// Checks Property 1 (safety) for every compliant party.
pub fn check_safety(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> SafetyReport {
    let mut report = SafetyReport::default();
    for &p in &spec.parties {
        if !config_of(configs, p).is_compliant() {
            continue;
        }
        let initial = outcome.initial_of(p);
        let fin = outcome.final_of(p);
        let lost = initial.minus(fin);
        let expected_out = spec.outgoing_of(p);

        // If any outgoing asset was transferred, all incoming assets must have
        // been transferred too. In holdings terms: a party that lost anything
        // must end up at least at the full-deal floor.
        if !lost.is_empty() {
            let floor = full_deal(spec, p, initial, &expected_out);
            if !fin.covers(&floor) {
                report.violations.push(SafetyViolation {
                    party: p,
                    detail: format!(
                        "paid {lost} but ended with {fin}, below the full-deal floor {floor}"
                    ),
                });
            }
        }
        if !expected_out.covers(&lost) {
            report.violations.push(SafetyViolation {
                party: p,
                detail: format!(
                    "relinquished {lost}, more than the agreed outgoing assets {expected_out}"
                ),
            });
        }
    }
    report
}

/// Checks Property 2 (weak liveness): every chain where a compliant party
/// escrowed assets must have resolved (committed or aborted) by the end of
/// the run.
pub fn check_weak_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    for e in &spec.escrows {
        if !config_of(configs, e.owner).is_compliant() {
            continue;
        }
        match outcome.resolutions.get(&e.chain) {
            Some(ChainResolution::Unresolved) | None => return false,
            _ => {}
        }
    }
    true
}

/// Checks Property 3 (strong liveness): meaningful only when every party is
/// compliant; in that case every party must end up with exactly
/// `initial - outgoing + incoming`.
pub fn check_strong_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    let all_compliant = spec
        .parties
        .iter()
        .all(|p| config_of(configs, *p).is_compliant());
    if !all_compliant {
        return true; // vacuously true; the property only constrains all-compliant runs
    }
    spec.parties.iter().all(|&p| {
        let fin = outcome.final_of(p);
        let expected = full_deal(spec, p, outcome.initial_of(p), &spec.outgoing_of(p));
        fin.covers(&expected) && expected.covers(fin)
    })
}

/// Conservation check used by the property-based tests: for every asset kind
/// the deal escrows, the deal's parties together hold the same fungible
/// supply (summed in `u128`, so no balance overflows the sum) and the same
/// tokens (compared as a sorted multiset) in the initial and the final
/// snapshots. Assets still held by an unresolved escrow contract are not in
/// any party's hands, so conservation is only required when the outcome is
/// fully resolved.
pub fn check_conservation(spec: &DealSpec, outcome: &DealOutcome) -> bool {
    if !outcome.fully_resolved() {
        return true;
    }
    // An escrowed kind is numbered by its first escrow. Kinds are shared
    // names, so the scan mostly compares pointers.
    let escrowed = |kind: &AssetKind| spec.escrows.iter().position(|e| e.asset.kind() == kind);
    // One walk over each party's bag: the supply per escrowed kind and the
    // (kind, token) pairs held.
    let supply = |holdings: fn(&DealOutcome, PartyId) -> &AssetBag| {
        let mut fungible = vec![0u128; spec.escrows.len()];
        let mut tokens: Vec<(usize, TokenId)> = Vec::new();
        for &p in &spec.parties {
            let bag = holdings(outcome, p);
            for (kind, amount) in bag.fungible_holdings() {
                if let Some(i) = escrowed(kind) {
                    fungible[i] += u128::from(amount);
                }
            }
            for (kind, held) in bag.non_fungible_holdings() {
                if let Some(i) = escrowed(kind) {
                    tokens.extend(held.iter().map(|&t| (i, t)));
                }
            }
        }
        tokens.sort_unstable();
        (fungible, tokens)
    };
    supply(DealOutcome::initial_of) == supply(DealOutcome::final_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{broker_spec, ring_spec};
    use crate::outcome::ProtocolKind;
    use crate::phases::PhaseMetrics;
    use crate::strategy::strategies;
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::{ChainId, DealId};
    use xchain_sim::time::Duration;

    fn outcome_with(
        initial: Vec<(PartyId, AssetBag)>,
        fin: Vec<(PartyId, AssetBag)>,
        resolutions: Vec<(ChainId, ChainResolution)>,
    ) -> DealOutcome {
        DealOutcome {
            protocol: ProtocolKind::Timelock,
            initial_holdings: initial.into_iter().collect(),
            final_holdings: fin.into_iter().collect(),
            resolutions: resolutions.into_iter().collect(),
            metrics: PhaseMetrics::new(),
            delta: Duration(100),
        }
    }

    fn bag(coins: u64, tickets: &[u64]) -> AssetBag {
        let mut b = AssetBag::new();
        if coins > 0 {
            b.add(&Asset::fungible("coin", coins));
        }
        if !tickets.is_empty() {
            b.add(&Asset::non_fungible("ticket", tickets.iter().copied()));
        }
        b
    }

    #[test]
    fn all_or_nothing_outcomes_are_safe() {
        let spec = broker_spec();
        let alice = PartyId(0);
        let bob = PartyId(1);
        let carol = PartyId(2);
        // "All" outcome.
        let all = outcome_with(
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (alice, bag(1, &[])),
                (bob, bag(100, &[])),
                (carol, bag(0, &[1, 2])),
            ],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Committed),
            ],
        );
        assert!(check_safety(&spec, &[], &all).holds());
        assert!(check_strong_liveness(&spec, &[], &all));
        assert!(check_conservation(&spec, &all));
        // "Nothing" outcome.
        let nothing = outcome_with(
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (ChainId(0), ChainResolution::Aborted),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_safety(&spec, &[], &nothing).holds());
        assert!(!check_strong_liveness(&spec, &[], &nothing));
        assert!(check_weak_liveness(&spec, &[], &nothing));
    }

    #[test]
    fn losing_assets_without_receiving_violates_safety() {
        let spec = broker_spec();
        let bob = PartyId(1);
        // Bob loses his tickets and receives nothing.
        let bad = outcome_with(
            vec![(bob, bag(0, &[1, 2]))],
            vec![(bob, bag(0, &[]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        let report = check_safety(&spec, &[], &bad);
        assert!(!report.holds());
        assert_eq!(report.violations[0].party, bob);
    }

    #[test]
    fn deviating_parties_are_not_protected() {
        let spec = broker_spec();
        let bob = PartyId(1);
        let configs = vec![PartyConfig::with_strategy(bob, strategies::withhold_vote())];
        let bad = outcome_with(
            vec![(bob, bag(0, &[1, 2]))],
            vec![(bob, bag(0, &[]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_safety(&spec, &configs, &bad).holds());
    }

    #[test]
    fn receiving_extra_from_deviating_parties_is_allowed() {
        let spec = broker_spec();
        let carol = PartyId(2);
        // Carol pays nothing (coins refunded) yet receives the tickets: the
        // paper explicitly allows this windfall outcome.
        let windfall = outcome_with(
            vec![(carol, bag(101, &[]))],
            vec![(carol, bag(101, &[1, 2]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_safety(&spec, &[], &windfall).holds());
    }

    #[test]
    fn paying_more_than_agreed_violates_safety() {
        let spec = broker_spec();
        let carol = PartyId(2);
        let bad = outcome_with(
            vec![(carol, bag(150, &[]))],
            vec![(carol, bag(0, &[1, 2]))], // lost 150 coins, agreed only 101
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Committed),
            ],
        );
        assert!(!check_safety(&spec, &[], &bad).holds());
    }

    #[test]
    fn weak_liveness_ignores_deviating_escrowers() {
        let spec = broker_spec();
        let bob = PartyId(1);
        let configs = vec![PartyConfig::with_strategy(bob, strategies::withhold_vote())];
        // The ticket chain never resolves, but only Bob (deviating) escrowed there.
        let outcome = outcome_with(
            vec![],
            vec![],
            vec![
                (ChainId(0), ChainResolution::Unresolved),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(check_weak_liveness(&spec, &configs, &outcome));
        // If Bob were compliant it would be a violation.
        assert!(!check_weak_liveness(&spec, &[], &outcome));
    }

    #[test]
    fn conservation_detects_created_coins() {
        let spec = broker_spec();
        let carol = PartyId(2);
        let bad = outcome_with(
            vec![(carol, bag(101, &[]))],
            vec![(carol, bag(300, &[]))],
            vec![
                (ChainId(0), ChainResolution::Committed),
                (ChainId(1), ChainResolution::Committed),
            ],
        );
        assert!(!check_conservation(&spec, &bad));
    }

    #[test]
    fn conservation_detects_vanished_tokens() {
        let spec = broker_spec();
        let (alice, bob, carol) = (PartyId(0), PartyId(1), PartyId(2));
        // Fully resolved, every coin accounted for, but ticket 2 is gone.
        let bad = outcome_with(
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1, 2])),
                (carol, bag(101, &[])),
            ],
            vec![
                (alice, bag(0, &[])),
                (bob, bag(0, &[1])),
                (carol, bag(101, &[])),
            ],
            vec![
                (ChainId(0), ChainResolution::Aborted),
                (ChainId(1), ChainResolution::Aborted),
            ],
        );
        assert!(!check_conservation(&spec, &bad));
        // A token that moves between parties is conserved.
        let moved = outcome_with(
            vec![(bob, bag(0, &[1, 2])), (carol, bag(101, &[]))],
            vec![(bob, bag(0, &[1])), (carol, bag(101, &[2]))],
            vec![(ChainId(0), ChainResolution::Committed)],
        );
        assert!(check_conservation(&spec, &moved));
    }

    #[test]
    fn conservation_detects_a_duplicated_token() {
        let spec = broker_spec();
        let (alice, bob, carol) = (PartyId(0), PartyId(1), PartyId(2));
        let initial = vec![
            (alice, bag(0, &[])),
            (bob, bag(0, &[1, 2])),
            (carol, bag(101, &[])),
        ];
        let resolved = vec![
            (ChainId(0), ChainResolution::Committed),
            (ChainId(1), ChainResolution::Committed),
        ];
        // Carol receives both tickets, and ticket 2 also lands in Alice's
        // final bag: every kind is still present, but one token twice.
        let duplicated = outcome_with(
            initial.clone(),
            vec![
                (alice, bag(1, &[2])),
                (bob, bag(100, &[])),
                (carol, bag(0, &[1, 2])),
            ],
            resolved.clone(),
        );
        assert!(!check_conservation(&spec, &duplicated));
        let honest = outcome_with(
            initial,
            vec![
                (alice, bag(1, &[])),
                (bob, bag(100, &[])),
                (carol, bag(0, &[1, 2])),
            ],
            resolved,
        );
        assert!(check_conservation(&spec, &honest));
    }

    #[test]
    fn conservation_sums_balances_past_u64() {
        let spec = ring_spec(DealId(91), 2);
        let (a, b) = (PartyId(0), PartyId(1));
        let holding = |amount| {
            let mut bag = AssetBag::new();
            bag.add(&Asset::fungible("asset-0", amount));
            bag
        };
        let holdings = vec![(a, holding(u64::MAX - 5)), (b, holding(10))];
        let resolved = vec![
            (ChainId(0), ChainResolution::Committed),
            (ChainId(1), ChainResolution::Committed),
        ];
        let same = outcome_with(holdings.clone(), holdings.clone(), resolved.clone());
        assert!(check_conservation(&spec, &same));
        let minted = outcome_with(
            holdings,
            vec![(a, holding(u64::MAX - 4)), (b, holding(10))],
            resolved,
        );
        assert!(!check_conservation(&spec, &minted));
    }
}
