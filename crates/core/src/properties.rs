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
//!
//! # Deciding a party's outcome
//!
//! Call a party's holdings at the start I and at the end F. Two exact tests
//! decide almost every outcome:
//!
//! * *unchanged*: F == I;
//! * *full deal*: F == (I + incoming) − outgoing,
//!
//! both compared kind by kind, where a kind a bag does not hold counts as
//! zero coins or no tokens (what [`AssetBag::covers`] in both directions
//! means). Either test proves Property 1 for the party: F == I means it
//! lost nothing, and F == the full deal means every loss is an agreed
//! outgoing asset and it ends at the full-deal floor. Strong liveness is
//! the full-deal test for every party.
//!
//! The tests read one walk of the spec's transfers and of the party's two
//! bags into a table on the stack, and allocate nothing. Kinds are compared
//! by name, which the kinds' shared names mostly settle by pointer. A party
//! that fails both tests (a violation, or a partial outcome such as a
//! windfall from deviating parties) is checked with [`AssetBag`]
//! arithmetic, which decides every case exactly and words the violation;
//! so is a party with more kinds in play than the table holds.
//! Conservation sums each escrowed kind's coins and token counts over one
//! walk of the parties' bags, without building a bag either.

use std::collections::BTreeSet;

use xchain_sim::asset::{Asset, AssetBag, AssetKind};
use xchain_sim::ids::{PartyId, TokenId};

use crate::outcome::{ChainResolution, DealOutcome};
use crate::party::PartyConfig;
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

/// True if `p` follows the protocol; a party without a configuration is
/// compliant, as in [`crate::party::config_of`].
fn is_compliant(configs: &[PartyConfig], p: PartyId) -> bool {
    configs
        .iter()
        .find(|c| c.id == p)
        .is_none_or(PartyConfig::is_compliant)
}

/// True if two kinds have the same name. Kinds cloned from one spec share
/// their name, so the pointer settles most comparisons; the names of one
/// deal's kinds mostly differ in their last character (`asset-1`,
/// `asset-2`), so that is compared before the whole names.
fn same_kind(a: &AssetKind, b: &AssetKind) -> bool {
    let (a, b) = (a.name().as_bytes(), b.name().as_bytes());
    std::ptr::eq(a, b) || (a.len() == b.len() && a.last() == b.last() && a == b)
}

/// How many asset kinds, and how many token transfers, one party's
/// [`Ledger`] holds: enough for the broker of Fig 4's n = 9 chain, which
/// has 8 kinds in play. A party with more takes the bag arithmetic.
const KINDS: usize = 8;
const TOKEN_MOVES: usize = 4;

/// How many escrowed kinds one walk of [`check_conservation`] sums.
const SUPPLIES: usize = 16;

/// What [`Kind`] lends for tokens a bag does not hold.
static NO_TOKENS: BTreeSet<TokenId> = BTreeSet::new();

/// One asset kind of a party's outcome: its coins at the start and the end,
/// the coins the deal's transfers move in and out of its hands, and its
/// tokens at the start and the end.
#[derive(Clone, Copy)]
struct Kind<'a> {
    kind: &'a AssetKind,
    initial: u64,
    fin: u64,
    incoming: u64,
    outgoing: u64,
    initial_tokens: &'a BTreeSet<TokenId>,
    final_tokens: &'a BTreeSet<TokenId>,
}

/// One transfer of tokens into (`incoming`) or out of a party's hands.
#[derive(Clone, Copy)]
struct TokenMove<'a> {
    kind: &'a AssetKind,
    incoming: bool,
    tokens: &'a BTreeSet<TokenId>,
}

/// One party's outcome kind by kind, in fixed tables on the stack.
struct Ledger<'a> {
    kinds: [Option<Kind<'a>>; KINDS],
    n_kinds: usize,
    moves: [Option<TokenMove<'a>>; TOKEN_MOVES],
    n_moves: usize,
}

impl<'a> Ledger<'a> {
    /// An empty ledger. `from_fn` writes only each slot's `None` tag, where
    /// copying an empty constant writes every byte of the tables.
    fn new() -> Self {
        Ledger {
            kinds: std::array::from_fn(|_| None),
            n_kinds: 0,
            moves: std::array::from_fn(|_| None),
            n_moves: 0,
        }
    }

    /// Reads party `p`'s transfers from one walk of the spec, then its
    /// initial and final bags. `None` if `p` has more kinds or token
    /// transfers in play than the tables hold, or moves more coins of a
    /// kind than a `u64` counts.
    fn read(
        &mut self,
        spec: &'a DealSpec,
        p: PartyId,
        initial: &'a AssetBag,
        fin: &'a AssetBag,
    ) -> Option<()> {
        // `|`, not `||`: most transfers involve neither end, and a branch on
        // each end is mispredicted often enough to show in the checks' cost.
        for t in spec
            .transfers
            .iter()
            .filter(|t| (t.to == p) | (t.from == p))
        {
            let k = self.kind(t.asset.kind())?;
            match &t.asset {
                Asset::Fungible { amount, .. } => {
                    if t.to == p {
                        k.incoming = k.incoming.checked_add(*amount)?;
                    }
                    if t.from == p {
                        k.outgoing = k.outgoing.checked_add(*amount)?;
                    }
                }
                Asset::NonFungible { kind, tokens } => {
                    if t.to == p {
                        self.token_move(kind, true, tokens)?;
                    }
                    if t.from == p {
                        self.token_move(kind, false, tokens)?;
                    }
                }
            }
        }
        for (kind, amount) in initial.fungible_holdings() {
            self.kind(kind)?.initial = amount;
        }
        for (kind, amount) in fin.fungible_holdings() {
            self.kind(kind)?.fin = amount;
        }
        for (kind, held) in initial.non_fungible_holdings() {
            self.kind(kind)?.initial_tokens = held;
        }
        for (kind, held) in fin.non_fungible_holdings() {
            self.kind(kind)?.final_tokens = held;
        }
        Some(())
    }

    /// The entry of `kind`, added empty on first sight; `None` if the table
    /// is full.
    fn kind(&mut self, kind: &'a AssetKind) -> Option<&mut Kind<'a>> {
        let known = self.kinds().position(|k| same_kind(k.kind, kind));
        let i = match known {
            Some(i) => i,
            None => {
                *self.kinds.get_mut(self.n_kinds)? = Some(Kind {
                    kind,
                    initial: 0,
                    fin: 0,
                    incoming: 0,
                    outgoing: 0,
                    initial_tokens: &NO_TOKENS,
                    final_tokens: &NO_TOKENS,
                });
                self.n_kinds += 1;
                self.n_kinds - 1
            }
        };
        self.kinds[i].as_mut()
    }

    /// Records one token transfer; `None` if the table is full.
    fn token_move(
        &mut self,
        kind: &'a AssetKind,
        incoming: bool,
        tokens: &'a BTreeSet<TokenId>,
    ) -> Option<()> {
        *self.moves.get_mut(self.n_moves)? = Some(TokenMove {
            kind,
            incoming,
            tokens,
        });
        self.n_moves += 1;
        Some(())
    }

    fn kinds(&self) -> impl Iterator<Item = &Kind<'a>> {
        self.kinds[..self.n_kinds].iter().flatten()
    }

    fn moves(&self) -> impl Iterator<Item = &TokenMove<'a>> + Clone {
        self.moves[..self.n_moves].iter().flatten()
    }

    /// F == I.
    fn unchanged(&self) -> bool {
        self.kinds()
            .all(|k| k.fin == k.initial && k.final_tokens == k.initial_tokens)
    }

    /// F == (I + incoming) − outgoing: per kind, the coins saturate at zero
    /// and the tokens are (I ∪ incoming) \ outgoing.
    fn full_deal(&self) -> bool {
        self.kinds().all(|k| {
            let coins = (u128::from(k.initial) + u128::from(k.incoming))
                .saturating_sub(u128::from(k.outgoing));
            u128::from(k.fin) == coins && self.full_deal_tokens(k)
        })
    }

    /// The tokens of `k` at the end are (I ∪ incoming) \ outgoing.
    fn full_deal_tokens(&self, k: &Kind<'a>) -> bool {
        // Most kinds are coins: skip the set walks when no tokens are in play.
        if self.n_moves == 0 && k.initial_tokens.is_empty() && k.final_tokens.is_empty() {
            return true;
        }
        let moves = self.moves().filter(|m| same_kind(m.kind, k.kind));
        let moved = |t: &TokenId, incoming: bool| {
            moves
                .clone()
                .any(|m| m.incoming == incoming && m.tokens.contains(t))
        };
        let received = moves.clone().filter(|m| m.incoming).flat_map(|m| m.tokens);
        // Every final token was held or received and not sent, and every
        // token held or received is kept unless sent.
        k.final_tokens
            .iter()
            .all(|t| !moved(t, false) && (k.initial_tokens.contains(t) || moved(t, true)))
            && k.initial_tokens
                .iter()
                .chain(received)
                .all(|t| k.final_tokens.contains(t) || moved(t, false))
    }
}

/// Decides party `p`'s outcome with the two exact tests: true if it is
/// unchanged or exactly the full deal (`full_deal_only` asks for the
/// latter), `None` if the party has more in play than a [`Ledger`] holds.
fn decide(
    spec: &DealSpec,
    p: PartyId,
    initial: &AssetBag,
    fin: &AssetBag,
    full_deal_only: bool,
) -> Option<bool> {
    let mut ledger = Ledger::new();
    ledger.read(spec, p, initial, fin)?;
    Some((!full_deal_only && ledger.unchanged()) || ledger.full_deal())
}

/// What `p` holds after the whole deal, starting from `initial`:
/// `(initial + incoming) - outgoing`. Incoming assets may fund outgoing ones
/// (Alice pays Bob out of Carol's coins), so they are added before the
/// outgoing assets are subtracted, kind by kind and, as in
/// [`Ledger::full_deal`], in 128 bits. `None` if a kind's floor is more
/// coins than a `u64` counts, which no holdings reach.
fn full_deal(
    spec: &DealSpec,
    p: PartyId,
    initial: &AssetBag,
    outgoing: &AssetBag,
) -> Option<AssetBag> {
    let incoming = spec.incoming_of(p);
    let mut floor = AssetBag::new();
    let coin_kinds: BTreeSet<&AssetKind> = initial
        .fungible_holdings()
        .chain(incoming.fungible_holdings())
        .map(|(kind, _)| kind)
        .collect();
    for kind in coin_kinds {
        let coins = (u128::from(initial.balance(kind)) + u128::from(incoming.balance(kind)))
            .saturating_sub(u128::from(outgoing.balance(kind)));
        floor.add(&Asset::fungible(kind.clone(), u64::try_from(coins).ok()?));
    }
    for (kind, tokens) in initial
        .non_fungible_holdings()
        .chain(incoming.non_fungible_holdings())
    {
        let kept = tokens.difference(outgoing.tokens(kind)).map(|t| t.0);
        floor.add(&Asset::non_fungible(kind.clone(), kept));
    }
    Some(floor)
}

/// Checks Property 1 (safety) for every compliant party.
///
/// A party whose outcome is unchanged (F == I) lost nothing. A party that
/// ends with exactly the full deal lost only agreed outgoing assets and
/// sits at the full-deal floor. Every other party is checked with bags.
pub fn check_safety(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> SafetyReport {
    let mut report = SafetyReport::default();
    for &p in &spec.parties {
        if !is_compliant(configs, p) {
            continue;
        }
        let initial = outcome.initial_of(p);
        let fin = outcome.final_of(p);
        if decide(spec, p, initial, fin, false) == Some(true) {
            continue;
        }
        let lost = initial.minus(fin);
        let expected_out = spec.outgoing_of(p);

        // If any outgoing asset was transferred, all incoming assets must have
        // been transferred too. In holdings terms: a party that lost anything
        // must end up at least at the full-deal floor.
        if !lost.is_empty() {
            let floor = full_deal(spec, p, initial, &expected_out);
            if !floor.as_ref().is_some_and(|floor| fin.covers(floor)) {
                let floor = floor.map_or_else(|| "(beyond a u64)".into(), |f| f.to_string());
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
    // Resolution first: only an unresolved chain needs its owner's config.
    spec.escrows.iter().all(|e| {
        matches!(
            outcome.resolutions.get(&e.chain),
            Some(ChainResolution::Committed | ChainResolution::Aborted)
        ) || !is_compliant(configs, e.owner)
    })
}

/// Checks Property 3 (strong liveness): meaningful only when every party is
/// compliant; in that case every party must end up with exactly
/// `initial - outgoing + incoming`.
pub fn check_strong_liveness(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
) -> bool {
    if !spec.parties.iter().all(|&p| is_compliant(configs, p)) {
        return true; // vacuously true; the property only constrains all-compliant runs
    }
    spec.parties.iter().all(|&p| {
        let initial = outcome.initial_of(p);
        let fin = outcome.final_of(p);
        match decide(spec, p, initial, fin, true) {
            Some(full_deal) => full_deal,
            None => full_deal(spec, p, initial, &spec.outgoing_of(p))
                .is_some_and(|expected| fin.covers(&expected) && expected.covers(fin)),
        }
    })
}

/// Conservation check used by the property-based tests: for every asset kind
/// the deal escrows, the deal's parties together hold the same fungible
/// supply (summed in 128 bits, so no balance overflows the sum) and the same
/// tokens, each as many times, in the initial and the final snapshots.
/// Assets still held by an unresolved escrow contract are not in any party's
/// hands, so conservation is only required when the outcome is fully
/// resolved.
pub fn check_conservation(spec: &DealSpec, outcome: &DealOutcome) -> bool {
    if !outcome.fully_resolved() {
        return true;
    }
    // Each walk of the parties' bags sums the kinds first escrowed by the
    // next `SUPPLIES` escrows.
    for first in (0..spec.escrows.len()).step_by(SUPPLIES) {
        let mut supply: [Option<Supply<'_>>; SUPPLIES] = std::array::from_fn(|_| None);
        let mut n = 0;
        for i in first..spec.escrows.len().min(first + SUPPLIES) {
            let kind = spec.escrows[i].asset.kind();
            if spec.escrows[..i]
                .iter()
                .any(|e| same_kind(e.asset.kind(), kind))
            {
                continue;
            }
            supply[n] = Some(Supply {
                kind,
                coins: 0,
                tokens: 0,
                held_tokens: false,
            });
            n += 1;
        }
        let supply = &mut supply[..n];
        for &p in &spec.parties {
            for (bag, sign) in [(outcome.initial_of(p), 1), (outcome.final_of(p), -1)] {
                for (kind, amount) in bag.fungible_holdings() {
                    if let Some(s) = Supply::of(supply, kind) {
                        s.coins += sign * i128::from(amount);
                    }
                }
                for (kind, held) in bag.non_fungible_holdings() {
                    if let Some(s) = Supply::of(supply, kind) {
                        s.tokens += sign * held.len() as i128;
                        s.held_tokens = true;
                    }
                }
            }
        }
        let conserved = supply.iter().flatten().all(|s| {
            s.coins == 0 && s.tokens == 0 && (!s.held_tokens || same_holders(spec, outcome, s.kind))
        });
        if !conserved {
            return false;
        }
    }
    true
}

/// One escrowed kind's supply: the parties' coins and token count at the
/// start minus those at the end, and whether any party held its tokens.
#[derive(Clone, Copy)]
struct Supply<'a> {
    kind: &'a AssetKind,
    coins: i128,
    tokens: i128,
    held_tokens: bool,
}

impl<'a> Supply<'a> {
    /// The supply of `kind` in `table`, if the table has it.
    fn of<'t>(table: &'t mut [Option<Supply<'a>>], kind: &AssetKind) -> Option<&'t mut Self> {
        let i = table
            .iter()
            .flatten()
            .position(|s| same_kind(s.kind, kind))?;
        table[i].as_mut()
    }
}

/// Whether every token of `kind` a party holds at the end is held by as
/// many parties at the start. With equal token counts, that makes the two
/// multisets equal: the final tokens then account for every token held at
/// the start.
fn same_holders(spec: &DealSpec, outcome: &DealOutcome, kind: &AssetKind) -> bool {
    let holders = |holdings: fn(&DealOutcome, PartyId) -> &AssetBag, t: &TokenId| {
        spec.parties
            .iter()
            .filter(|&&p| holdings(outcome, p).tokens(kind).contains(t))
            .count()
    };
    spec.parties.iter().all(|&p| {
        outcome
            .final_of(p)
            .tokens(kind)
            .iter()
            .all(|t| holders(DealOutcome::final_of, t) == holders(DealOutcome::initial_of, t))
    })
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

    fn bag_of(kind: &str, coins: u64) -> AssetBag {
        let mut b = AssetBag::new();
        b.add(&Asset::fungible(kind, coins));
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
    fn a_floor_beyond_a_u64_is_never_reached_on_the_bag_path() {
        // Bob holds nine more kinds than the ring moves, so both checks take
        // the bag path, and almost every asset-0 the ring pays him: his
        // floor is u64::MAX + 4 asset-0, which a `u64` sum wraps to 4.
        let spec = ring_spec(DealId(91), 2);
        let (alice, bob) = (PartyId(0), PartyId(1));
        let outcome = |bob_ends_with: u64| {
            let mut spare = AssetBag::new();
            for i in 0..9 {
                spare.add(&Asset::fungible(format!("spare-{i}").as_str(), 1));
            }
            let (mut initial, mut fin) = (spare.clone(), spare);
            initial.add(&Asset::fungible("asset-0", u64::MAX - 5));
            initial.add(&Asset::fungible("asset-1", 10));
            fin.add(&Asset::fungible("asset-0", bob_ends_with));
            outcome_with(
                vec![(alice, bag_of("asset-0", 10)), (bob, initial)],
                vec![(alice, bag_of("asset-1", 10)), (bob, fin)],
                vec![
                    (ChainId(0), ChainResolution::Committed),
                    (ChainId(1), ChainResolution::Committed),
                ],
            )
        };
        // The payout to Bob is refused: he paid his asset-1 for nothing.
        let refused = outcome(u64::MAX - 5);
        let report = check_safety(&spec, &[], &refused);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].party, bob);
        assert!(report.violations[0]
            .detail
            .ends_with("floor (beyond a u64)"));
        assert!(!check_strong_liveness(&spec, &[], &refused));
        // Ending at the wrapped floor is not the full deal either.
        assert!(!check_strong_liveness(&spec, &[], &outcome(4)));
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
