//! The open adversary API: party behaviour as a [`Strategy`] trait.
//!
//! The paper deliberately makes no assumption about *how* parties deviate —
//! they are "compliant or deviating, whether rationally or not" (Section 3).
//! Behaviour is therefore user code: a [`Strategy`] answers one question per
//! protocol decision point (escrow? transfer? accept validation? vote?
//! forward? claim?), and every answer is computed from an
//! [`ObservationCtx`] — the party's own view of the deal so far — so
//! strategies can be *adaptive and stateful*, not just static flags. The
//! protocol engines only ever call the hooks; a new attack never edits them.
//!
//! Observation is first-class for the parties that use it: every deal with a
//! deviating party keeps one [`ObservationHub`], holding a single shared
//! [`LogCursor`] per chain, so monitoring costs O(new entries) per decision,
//! never a re-scan of the whole log, and each entry is parsed once however
//! many parties watch. What a deviating party has seen (escrow lock-ins,
//! tentative transfers, commit votes, escrow resolutions) is exposed as its
//! own [`DealView`]. Compliant parties follow the protocol whatever they
//! observe, so they decide on an empty view, and a deal whose parties are
//! all compliant builds no hub.
//!
//! The [`strategies`] module holds the built-in behaviours. The classic
//! failure and attack modes the paper discusses — crashing or walking away
//! after any phase, refusing to escrow or transfer, withholding, aborting or
//! never forwarding votes, declaring dissatisfaction at validation, and
//! being offline during the commit window — are fixed answer tables
//! ([`strategies::compliant`], [`strategies::crash_after`], …). Three
//! adaptive adversaries ride along:
//!
//! * [`strategies::sore_loser`] — escrows, then abandons the deal exactly
//!   when it observes every counterparty's escrow lock in (the sore-loser
//!   attack family of Xue & Herlihy 2021);
//! * [`strategies::coalition`] — several parties sharing one strategy value
//!   (and its interior state): members pool what they observe and vote as a
//!   bloc, aborting everywhere if any single member is dissatisfied;
//! * [`strategies::rational_defector`] — commits iff the value it has
//!   observed locked in for it exceeds the value it gives up.
//!
//! [`LogCursor`]: xchain_sim::ledger::LogCursor

use std::fmt;
use std::sync::Arc;

use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::ledger::{EventTag, LogCursor, LogEntry, LogFilter};
use xchain_sim::time::Time;
use xchain_sim::world::World;

use crate::phases::Phase;
use crate::plan::DealPlan;
use crate::spec::DealSpec;

/// A party's answer at a commit decision point. An offline party sends
/// nothing, so the default is [`Vote::Withhold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Vote {
    /// Vote to commit the deal.
    Commit,
    /// Vote to abort the deal (meaningful on the CBC; under the timelock
    /// protocol there is no abort vote, so this behaves like withholding).
    Abort,
    /// Send no vote at all (walk away / free-ride on timeouts).
    #[default]
    Withhold,
}

/// What one party has observed of a deal so far, distilled from the chain
/// logs by the deal's [`ObservationHub`]. All collections are deduplicated
/// and in observation order: the deal's chains in subscription order, and
/// each chain's events in log order. The engines show a compliant party
/// ([`Strategy::is_compliant`]) an empty view: its hooks never read it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DealView {
    /// Escrow lock-ins observed: `(chain, escrowing party)`. Includes HTLC
    /// fundings, which play the same role in the swap protocol.
    pub escrows: Vec<(ChainId, PartyId)>,
    /// Tentative transfers observed: `(chain, sending party)`.
    pub transfers: Vec<(ChainId, PartyId)>,
    /// Parties whose commit votes (or HTLC claims) have been observed on some
    /// chain. CBC votes live on the certified log, not on asset chains, so
    /// they do not appear here.
    pub commit_votes: Vec<PartyId>,
    /// Escrow resolutions observed: `(chain, committed)` — `true` for a
    /// commit/claim, `false` for an abort/refund.
    pub resolutions: Vec<(ChainId, bool)>,
}

impl DealView {
    /// True if `party`'s escrow on `chain` has been observed locking in.
    pub fn escrowed(&self, chain: ChainId, party: PartyId) -> bool {
        self.escrows.contains(&(chain, party))
    }

    /// True if a commit vote (or claim) by `party` has been observed.
    pub fn has_voted(&self, party: PartyId) -> bool {
        self.commit_votes.contains(&party)
    }

    /// True if every escrow obligation of every party *other than* `me` has
    /// been observed locking in — the trigger condition of the sore-loser
    /// attack ("everyone else is now exposed").
    pub fn counterparty_escrows_locked(&self, spec: &DealSpec, me: PartyId) -> bool {
        let mut any = false;
        for e in spec.escrows.iter().filter(|e| e.owner != me) {
            any = true;
            if !self.escrowed(e.chain, e.owner) {
                return false;
            }
        }
        any
    }
}

/// A deal-relevant event distilled from one log entry. The hub parses each
/// entry **once** (on the shared ingest pass) into this `Copy` form, and the
/// per-party folds work on the parsed events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedEvent {
    /// An escrow (or HTLC funding) by the party locked in.
    Escrowed(PartyId),
    /// A tentative transfer performed by the party.
    Transferred(PartyId),
    /// A commit vote by (or HTLC claim from) the party became visible.
    Voted(PartyId),
    /// The chain's escrow resolved: `true` for commit/claim, `false` for
    /// abort/refund.
    Resolved(bool),
}

impl ObservedEvent {
    /// Parses one log entry into the event it contributes to a [`DealView`],
    /// if any, from the entry's [`EventTag`].
    pub fn parse(entry: &LogEntry) -> Option<ObservedEvent> {
        let caller = match entry.caller {
            Owner::Party(p) => Some(p),
            _ => None,
        };
        match entry.tag {
            EventTag::Escrow | EventTag::HtlcFunded => caller.map(ObservedEvent::Escrowed),
            EventTag::TentativeTransfer => caller.map(ObservedEvent::Transferred),
            // data = [deal, voter, path length]
            EventTag::CommitVote => entry
                .data
                .get(1)
                .map(|&voter| ObservedEvent::Voted(PartyId(voter as u32))),
            EventTag::HtlcClaimed => caller.map(ObservedEvent::Voted),
            EventTag::EscrowCommitted => Some(ObservedEvent::Resolved(true)),
            EventTag::EscrowAborted | EventTag::HtlcRefunded => {
                Some(ObservedEvent::Resolved(false))
            }
            EventTag::Other => None,
        }
    }

    /// Folds the event into a view: lock-ins, transfers and votes are
    /// recorded once each; every resolution is recorded.
    fn fold_into(self, view: &mut DealView, chain: ChainId) {
        match self {
            ObservedEvent::Escrowed(p) => {
                if !view.escrows.contains(&(chain, p)) {
                    view.escrows.push((chain, p));
                }
            }
            ObservedEvent::Transferred(p) => {
                if !view.transfers.contains(&(chain, p)) {
                    view.transfers.push((chain, p));
                }
            }
            ObservedEvent::Voted(p) => {
                if !view.commit_votes.contains(&p) {
                    view.commit_votes.push(p);
                }
            }
            ObservedEvent::Resolved(committed) => view.resolutions.push((chain, committed)),
        }
    }
}

/// Shared, tag-filtered deal monitoring: **one** log ingest pass per chain,
/// fanned out to every party's [`DealView`].
///
/// The engines keep one hub per deal that has a deviating party, and ask it
/// for deviating parties' contexts only. Each chain has a single shared
/// [`LogCursor`], and [`ObservationHub::ctx`] reads each new entry exactly
/// once, through a [`LogFilter`] covering only the deal vocabulary (entries
/// the views would never ingest — token mints, CBC bookkeeping, foreign
/// contracts — are skipped without being parsed). Parsed [`ObservedEvent`]s
/// are buffered per chain; a party's view folds them in at its next
/// decision, walking the chains in subscription order and each chain's
/// events in log order. A view therefore depends only on the log contents at
/// each of the party's decisions, never on when other parties decided.
///
/// The subscription (chains + parties) is derived from the [`DealPlan`], so
/// the hub is built once per deal execution alongside the plan.
#[derive(Debug, Clone)]
pub struct ObservationHub {
    chains: Vec<ChainId>,
    cursors: Vec<LogCursor>,
    /// Parsed events per chain (indexed like `chains`), in log order.
    events: Vec<Vec<ObservedEvent>>,
    parties: Vec<PartyId>,
    views: Vec<DealView>,
    /// `positions[party * chains + chain]`: how many of `events[chain]` the
    /// party's view has folded in.
    positions: Vec<usize>,
    /// Events ingested so far, over all chains.
    ingested: usize,
    /// `folded[party]`: how many of the ingested events the party's view has
    /// folded in; equal to `ingested` when the view is up to date.
    folded: Vec<usize>,
}

/// The deal vocabulary: every tag the views ingest (everything but
/// [`EventTag::Other`]).
const DEAL_FILTER: LogFilter = LogFilter::none()
    .with(EventTag::Escrow)
    .with(EventTag::TentativeTransfer)
    .with(EventTag::CommitVote)
    .with(EventTag::EscrowCommitted)
    .with(EventTag::EscrowAborted)
    .with(EventTag::HtlcFunded)
    .with(EventTag::HtlcClaimed)
    .with(EventTag::HtlcRefunded);

impl ObservationHub {
    /// A hub subscribed to the plan's chains on behalf of the plan's parties,
    /// filtering to the deal vocabulary.
    pub fn new(plan: &DealPlan) -> Self {
        let chains = plan.chains().to_vec();
        let parties = plan.spec().parties.clone();
        let (n_chains, n_parties) = (chains.len(), parties.len());
        ObservationHub {
            chains,
            cursors: vec![LogCursor::new(); n_chains],
            events: vec![Vec::new(); n_chains],
            parties,
            // Sized for everything the deal can show a party, so folding
            // never grows a view.
            views: (0..n_parties)
                .map(|_| DealView {
                    escrows: Vec::with_capacity(plan.spec().escrows.len()),
                    transfers: Vec::with_capacity(plan.spec().transfers.len()),
                    commit_votes: Vec::with_capacity(n_parties),
                    resolutions: Vec::with_capacity(n_chains),
                })
                .collect(),
            positions: vec![0; n_parties * n_chains],
            ingested: 0,
            folded: vec![0; n_parties],
        }
    }

    /// Reads every subscribed chain's new log entries once, then folds
    /// everything `party`'s view has not seen yet, and assembles the
    /// observation context for the party's decision. A decision with nothing
    /// new costs one log-length comparison per chain (a chain whose log has
    /// not grown past its cursor is never read), and the fold is skipped
    /// when the party's view already holds every ingested event.
    ///
    /// # Panics
    ///
    /// If `party` is not one of the plan's parties.
    pub fn ctx<'a>(
        &'a mut self,
        world: &World,
        spec: &'a DealSpec,
        party: PartyId,
        phase: Phase,
        validated: Option<bool>,
    ) -> ObservationCtx<'a> {
        let pix = self
            .parties
            .iter()
            .position(|&p| p == party)
            .expect("party subscribed to the hub");
        for (cix, &chain) in self.chains.iter().enumerate() {
            let events = &mut self.events[cix];
            if let Ok(c) = world.chain(chain) {
                // A chain whose log has not grown has nothing to filter.
                if c.log().len() == self.cursors[cix].position() {
                    continue;
                }
                let before = events.len();
                events.extend(
                    c.log_from_filtered(&mut self.cursors[cix], DEAL_FILTER)
                        .filter_map(ObservedEvent::parse),
                );
                self.ingested += events.len() - before;
            }
        }
        if self.folded[pix] < self.ingested {
            let view = &mut self.views[pix];
            for (cix, &chain) in self.chains.iter().enumerate() {
                let pos = &mut self.positions[pix * self.chains.len() + cix];
                for ev in &self.events[cix][*pos..] {
                    ev.fold_into(view, chain);
                }
                *pos = self.events[cix].len();
            }
            self.folded[pix] = self.ingested;
        }
        ObservationCtx {
            party,
            phase,
            now: world.now(),
            spec,
            view: &self.views[pix],
            validated,
        }
    }
}

/// Everything a strategy hook gets to see when making a decision: who it is,
/// where the protocol stands, what time it is, the deal being executed, and
/// the party's accumulated [`DealView`].
#[derive(Debug)]
pub struct ObservationCtx<'a> {
    /// The deciding party.
    pub party: PartyId,
    /// The protocol phase the decision belongs to.
    pub phase: Phase,
    /// The world clock at decision time.
    pub now: Time,
    /// The deal specification under execution.
    pub spec: &'a DealSpec,
    /// What this party has observed so far (cursor-fed, O(new entries)).
    /// Empty in the engines for a compliant party, whose hooks never read it.
    pub view: &'a DealView,
    /// The party's own mechanical validation verdict, once validation has
    /// run (`None` in earlier phases and in protocols without a validation
    /// phase, like the HTLC swap).
    pub validated: Option<bool>,
}

/// A party behaviour: one decision hook per protocol decision point, each fed
/// the party's [`ObservationCtx`]. Implementations must be `Send + Sync`
/// (sweeps execute deals on worker threads) and are shared via
/// `Arc<dyn Strategy>`; stateful strategies keep interior state behind a lock
/// and override [`Strategy::fresh`] so every deal execution starts clean.
///
/// The defaults implement the compliant party, so a custom adversary only
/// overrides the hooks where it deviates.
pub trait Strategy: Send + Sync {
    /// A short, stable, human-readable name. Sweep adversary axes and the
    /// experiment tables are labelled with it.
    fn name(&self) -> String;

    /// True if this strategy follows the protocol exactly. The paper's
    /// safety/liveness properties protect *compliant* parties only, so a
    /// deviating strategy must return `false` (the default) or the property
    /// checks would hold it to guarantees it forfeited.
    ///
    /// Returning `true` also promises hooks that do not read `ctx.view`: the
    /// engines build no view for a compliant party and hand it an empty one.
    fn is_compliant(&self) -> bool {
        false
    }

    /// True if the party is reachable and acting at `t`. Offline parties
    /// skip whatever actions fall inside their outage.
    fn is_online(&self, _t: Time) -> bool {
        true
    }

    /// The `[from, until)` outage to register with the world's offline
    /// schedule, if this strategy models one (denial of service, crash).
    fn offline_window(&self) -> Option<(Time, Time)> {
        None
    }

    /// Escrow phase: escrow the party's outgoing assets?
    fn on_escrow(&self, _ctx: &ObservationCtx<'_>) -> bool {
        true
    }

    /// Transfer phase: perform the party's tentative transfers?
    fn on_transfer(&self, _ctx: &ObservationCtx<'_>) -> bool {
        true
    }

    /// Validation phase: accept the incoming assets? `ctx.validated` carries
    /// the mechanical verdict (escrows present, deal info consistent); the
    /// default adopts it. Returning `false` declares dissatisfaction;
    /// returning `true` despite a failed mechanical check over-accepts.
    fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
        ctx.validated.unwrap_or(true)
    }

    /// Commit phase: how to vote. The default commits exactly when the
    /// party's validation succeeded (or when the protocol has no validation
    /// phase).
    fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
        if ctx.validated.unwrap_or(true) {
            Vote::Commit
        } else {
            Vote::Withhold
        }
    }

    /// Timelock commit phase: forward other parties' votes observed on
    /// outgoing-asset chains? The default forwards whenever the party itself
    /// votes commit.
    fn on_forward(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.on_vote(ctx) == Vote::Commit
    }

    /// HTLC swap: claim the counterparty's escrow (revealing or using the
    /// secret)? The default claims whenever the party would vote commit.
    fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.on_vote(ctx) == Vote::Commit
    }

    /// A fresh instance for a new deal execution. Stateless strategies (the
    /// default, `None`) are shared as-is; stateful ones return a clean copy
    /// so that repeated or concurrent runs never see another run's state.
    /// [`crate::party::fresh_configs`] preserves sharing: configs that held
    /// the *same* `Arc` (a coalition) receive the same fresh instance.
    fn fresh(&self) -> Option<Arc<dyn Strategy>> {
        None
    }
}

impl fmt::Debug for dyn Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Strategy({})", self.name())
    }
}

/// The built-in behaviours: the classic fixed-answer deviations and the
/// adaptive adversaries.
pub mod strategies {
    use std::borrow::Cow;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{LazyLock, Mutex};

    use super::*;

    /// The compliant strategy: every hook answers as the protocol says.
    /// Stateless, so every call returns a clone of one process-wide `Arc`
    /// (parties that default to compliant cost no allocation).
    pub fn compliant() -> Arc<dyn Strategy> {
        static COMPLIANT: LazyLock<Arc<dyn Strategy>> = LazyLock::new(|| {
            Arc::new(Fixed {
                compliant: true,
                ..Fixed::deviating("compliant")
            })
        });
        COMPLIANT.clone()
    }

    /// Stops participating after completing `phase` (crash / walk-away): it
    /// skips every later escrow, transfer and commit vote.
    pub fn crash_after(phase: Phase) -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            escrow: phase >= Phase::Escrow,
            transfer: phase >= Phase::Transfer,
            vote: if phase >= Phase::Commit {
                Vote::Commit
            } else {
                Vote::Withhold
            },
            ..Fixed::deviating(format!("crash-after-{phase}"))
        })
    }

    /// Never escrows its outgoing assets (joins the deal, then reneges), so
    /// it neither transfers nor votes either.
    pub fn refuse_escrow() -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            escrow: false,
            transfer: false,
            vote: Vote::Withhold,
            ..Fixed::deviating("refuse-escrow")
        })
    }

    /// Escrows but never performs its tentative transfers or votes.
    pub fn skip_transfers() -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            transfer: false,
            vote: Vote::Withhold,
            ..Fixed::deviating("skip-transfers")
        })
    }

    /// Performs every phase but never sends a commit vote.
    pub fn withhold_vote() -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            vote: Vote::Withhold,
            ..Fixed::deviating("withhold-vote")
        })
    }

    /// Timelock: sends its own commit votes but never forwards other
    /// parties' votes (free-rides on the forwarding work of others).
    pub fn never_forward() -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            forward: false,
            ..Fixed::deviating("never-forward")
        })
    }

    /// CBC: votes abort during the commit phase even though validation
    /// succeeded.
    pub fn vote_abort() -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            vote: Vote::Abort,
            ..Fixed::deviating("vote-abort")
        })
    }

    /// Declares its incoming assets unsatisfactory at validation and votes
    /// abort.
    pub fn reject_validation() -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            accept: false,
            vote: Vote::Abort,
            ..Fixed::deviating("reject-validation")
        })
    }

    /// Offline (crashed or under denial of service) during `[from, until)`,
    /// compliant otherwise. Going offline at the wrong moment is still a
    /// deviation: such a party can miss the window in which it must claim
    /// assets or forward votes.
    pub fn offline_during(from: Time, until: Time) -> Arc<dyn Strategy> {
        Arc::new(Fixed {
            offline: Some((from, until)),
            ..Fixed::deviating(format!("offline-{}..{}", from.0, until.0))
        })
    }

    /// A behaviour with one fixed answer per hook. A failed validation turns
    /// a commit vote into a withhold, and only a committing party forwards
    /// or claims.
    #[derive(Debug, Clone)]
    struct Fixed {
        name: Cow<'static, str>,
        compliant: bool,
        escrow: bool,
        transfer: bool,
        /// Whether the party accepts assets that passed validation.
        accept: bool,
        /// The vote after a successful validation.
        vote: Vote,
        forward: bool,
        offline: Option<(Time, Time)>,
    }

    impl Fixed {
        /// A deviating behaviour that nonetheless answers every hook
        /// compliantly: the base each built-in overrides.
        fn deviating(name: impl Into<Cow<'static, str>>) -> Fixed {
            Fixed {
                name: name.into(),
                compliant: false,
                escrow: true,
                transfer: true,
                accept: true,
                vote: Vote::Commit,
                forward: true,
                offline: None,
            }
        }
    }

    impl Strategy for Fixed {
        fn name(&self) -> String {
            self.name.to_string()
        }

        fn is_compliant(&self) -> bool {
            self.compliant
        }

        fn is_online(&self, t: Time) -> bool {
            self.offline
                .is_none_or(|(from, until)| !(from <= t && t < until))
        }

        fn offline_window(&self) -> Option<(Time, Time)> {
            self.offline
        }

        fn on_escrow(&self, _ctx: &ObservationCtx<'_>) -> bool {
            self.escrow
        }

        fn on_transfer(&self, _ctx: &ObservationCtx<'_>) -> bool {
            self.transfer
        }

        fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
            ctx.validated.unwrap_or(true) && self.accept
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            match self.vote {
                Vote::Commit if !ctx.validated.unwrap_or(true) => Vote::Withhold,
                vote => vote,
            }
        }

        fn on_forward(&self, ctx: &ObservationCtx<'_>) -> bool {
            self.forward && self.on_vote(ctx) == Vote::Commit
        }
    }

    // ------------------------------------------------------------------
    // The adaptive adversaries.
    // ------------------------------------------------------------------

    /// The sore-loser attacker: escrows its own assets like a compliant
    /// party, then abandons the deal (no transfers, no votes, no claims, no
    /// forwarding) *exactly when it observes every counterparty's escrow lock
    /// in* — maximizing how long everyone else's assets stay locked while
    /// risking only the timeout on its own. Until that trigger it behaves
    /// compliantly, so the attack is invisible in the early phases.
    pub fn sore_loser() -> Arc<dyn Strategy> {
        Arc::new(SoreLoser)
    }

    #[derive(Debug, Clone, Copy)]
    struct SoreLoser;

    impl SoreLoser {
        fn triggered(ctx: &ObservationCtx<'_>) -> bool {
            ctx.view.counterparty_escrows_locked(ctx.spec, ctx.party)
        }
    }

    impl Strategy for SoreLoser {
        fn name(&self) -> String {
            "sore-loser".into()
        }

        fn on_transfer(&self, ctx: &ObservationCtx<'_>) -> bool {
            !Self::triggered(ctx)
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            if Self::triggered(ctx) {
                Vote::Withhold
            } else if ctx.validated.unwrap_or(true) {
                Vote::Commit
            } else {
                Vote::Withhold
            }
        }

        fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
            !Self::triggered(ctx)
        }
    }

    /// A colluding coalition: every member's [`crate::party::PartyConfig`]
    /// holds the *same* strategy value, so the members share one interior
    /// state. Each member reports its validation verdict into that state and
    /// the group votes as a bloc: commit only if **every** member (present in
    /// the deal) validated successfully, abort everywhere otherwise — one
    /// dissatisfied member griefs the whole deal on behalf of the group.
    ///
    /// Clone the returned `Arc` into each member's config; per-run state
    /// isolation is handled by [`Strategy::fresh`] +
    /// [`crate::party::fresh_configs`] (sharing within one run is preserved).
    pub fn coalition(members: impl IntoIterator<Item = PartyId>) -> Arc<dyn Strategy> {
        Arc::new(Coalition {
            members: members.into_iter().collect(),
            state: Mutex::new(CoalitionState::default()),
        })
    }

    #[derive(Debug)]
    struct Coalition {
        members: BTreeSet<PartyId>,
        state: Mutex<CoalitionState>,
    }

    #[derive(Debug, Default)]
    struct CoalitionState {
        /// Validation verdicts reported by members, in engine order.
        verdicts: BTreeMap<PartyId, bool>,
    }

    impl Strategy for Coalition {
        fn name(&self) -> String {
            let members: Vec<String> = self.members.iter().map(|p| format!("{p}")).collect();
            format!("coalition({})", members.join("+"))
        }

        fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
            let verdict = ctx.validated.unwrap_or(false);
            self.state
                .lock()
                .expect("coalition state")
                .verdicts
                .insert(ctx.party, verdict);
            verdict
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            // A member with no recorded verdict counts as dissatisfied when a
            // validation phase ran (its report is simply missing) but as
            // satisfied when the protocol has none (the HTLC swap never calls
            // `on_validate`, signalled by `ctx.validated == None`), matching
            // the `unwrap_or(true)` convention of the other strategies.
            let missing_means = ctx.validated.is_none();
            let state = self.state.lock().expect("coalition state");
            let bloc_satisfied = self
                .members
                .iter()
                .filter(|m| ctx.spec.parties.contains(m))
                .all(|m| state.verdicts.get(m).copied().unwrap_or(missing_means));
            if bloc_satisfied && ctx.validated.unwrap_or(true) {
                Vote::Commit
            } else {
                Vote::Abort
            }
        }

        fn fresh(&self) -> Option<Arc<dyn Strategy>> {
            Some(Arc::new(Coalition {
                members: self.members.clone(),
                state: Mutex::new(CoalitionState::default()),
            }))
        }
    }

    /// The rational defector: cooperates mechanically (escrow, transfers,
    /// honest validation) but commits only when the deal is worth it —
    /// i.e. when the value of the incoming assets it has *observed locked in*
    /// strictly exceeds the value it relinquishes. Fungible assets are valued
    /// at their amount; each non-fungible token at `token_value`. Below the
    /// threshold (or when validation failed) it votes abort to recover its
    /// escrow as fast as the protocol allows.
    pub fn rational_defector(token_value: u64) -> Arc<dyn Strategy> {
        Arc::new(RationalDefector { token_value })
    }

    #[derive(Debug, Clone, Copy)]
    struct RationalDefector {
        token_value: u64,
    }

    impl RationalDefector {
        fn value(&self, asset: &Asset) -> u64 {
            match asset {
                Asset::Fungible { amount, .. } => *amount,
                Asset::NonFungible { tokens, .. } => tokens.len() as u64 * self.token_value,
            }
        }

        /// True if every escrow obligation the deal declares on `chain` has
        /// been observed locking in from its declared owner. A chain with no
        /// declared escrows backs nothing (no transfer there can execute),
        /// and a bystander's — or the defector's own — escrow on the chain
        /// does not stand in for a missing one.
        fn chain_backed(ctx: &ObservationCtx<'_>, chain: ChainId) -> bool {
            let mut any = false;
            for e in ctx.spec.escrows.iter().filter(|e| e.chain == chain) {
                any = true;
                if !ctx.view.escrowed(e.chain, e.owner) {
                    return false;
                }
            }
            any
        }

        /// Value of the party's incoming transfers whose chain is fully
        /// escrow-backed (unbacked promises count for nothing).
        fn observed_incoming(&self, ctx: &ObservationCtx<'_>) -> u64 {
            ctx.spec
                .transfers
                .iter()
                .filter(|t| t.to == ctx.party)
                .filter(|t| Self::chain_backed(ctx, t.chain))
                .map(|t| self.value(&t.asset))
                .sum()
        }

        fn promised_outgoing(&self, ctx: &ObservationCtx<'_>) -> u64 {
            ctx.spec
                .transfers
                .iter()
                .filter(|t| t.from == ctx.party)
                .map(|t| self.value(&t.asset))
                .sum()
        }

        fn worth_it(&self, ctx: &ObservationCtx<'_>) -> bool {
            self.observed_incoming(ctx) > self.promised_outgoing(ctx)
        }
    }

    impl Strategy for RationalDefector {
        fn name(&self) -> String {
            format!("rational-defector(token={})", self.token_value)
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            if ctx.validated.unwrap_or(true) && self.worth_it(ctx) {
                Vote::Commit
            } else {
                Vote::Abort
            }
        }

        fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
            self.worth_it(ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::strategies::*;
    use super::*;
    use crate::builders::broker_spec;

    /// A context over a canned view, for exercising hooks without a world.
    fn ctx<'a>(
        spec: &'a DealSpec,
        view: &'a DealView,
        party: PartyId,
        validated: Option<bool>,
    ) -> ObservationCtx<'a> {
        ObservationCtx {
            party,
            phase: Phase::Commit,
            now: Time(0),
            spec,
            view,
            validated,
        }
    }

    #[test]
    fn compliant_defaults_do_everything() {
        let spec = broker_spec();
        let view = DealView::default();
        let s = compliant();
        let c = ctx(&spec, &view, PartyId(0), Some(true));
        assert!(s.is_compliant());
        assert!(s.on_escrow(&c));
        assert!(s.on_transfer(&c));
        assert!(s.on_validate(&c));
        assert_eq!(s.on_vote(&c), Vote::Commit);
        assert!(s.on_forward(&c));
        assert!(s.on_claim(&c));
        // A failed validation turns the compliant vote into a withhold.
        let c = ctx(&spec, &view, PartyId(0), Some(false));
        assert_eq!(s.on_vote(&c), Vote::Withhold);
        assert!(!s.on_forward(&c));
    }

    /// The six hook answers of `s` at one validation verdict, one letter
    /// each: escrow `E`, transfer `T`, validate `V`, vote `C`ommit /
    /// `A`bort / `W`ithhold, forward `F`, claim `K`; `.` is a no.
    fn hook_code(s: &dyn Strategy, c: &ObservationCtx<'_>) -> String {
        let yes = |b: bool, letter: char| if b { letter } else { '.' };
        let vote = match s.on_vote(c) {
            Vote::Commit => 'C',
            Vote::Abort => 'A',
            Vote::Withhold => 'W',
        };
        [
            yes(s.on_escrow(c), 'E'),
            yes(s.on_transfer(c), 'T'),
            yes(s.on_validate(c), 'V'),
            vote,
            yes(s.on_forward(c), 'F'),
            yes(s.on_claim(c), 'K'),
        ]
        .into_iter()
        .collect()
    }

    /// Every built-in behaviour's complete hook table, pinned as literals:
    /// `compliant()`, the eleven single-party deviations the safety sweep
    /// runs (`adversary::all_deviations(100)`, in that order), and
    /// `crash_after(Phase::Commit)`, which answers every hook compliantly
    /// yet is classed as deviating.
    #[test]
    fn builtin_behaviours_answer_the_pinned_hook_table() {
        type Row = (
            Arc<dyn Strategy>,
            &'static str,
            bool,
            Option<(Time, Time)>,
            [bool; 3],
            [&'static str; 3],
        );
        let off = Some((Time(0), Time(5000)));
        // (strategy, name, is_compliant, offline_window, is_online at
        //  t = 0 / 4999 / 5000, hook codes at validated = Some(true) /
        //  Some(false) / None)
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            (compliant(), "compliant", true, None, [true; 3], ["ETVCFK", "ET.W..", "ETVCFK"]),
            (refuse_escrow(), "refuse-escrow", false, None, [true; 3], ["..VW..", "...W..", "..VW.."]),
            (skip_transfers(), "skip-transfers", false, None, [true; 3], ["E.VW..", "E..W..", "E.VW.."]),
            (withhold_vote(), "withhold-vote", false, None, [true; 3], ["ETVW..", "ET.W..", "ETVW.."]),
            (never_forward(), "never-forward", false, None, [true; 3], ["ETVC.K", "ET.W..", "ETVC.K"]),
            (vote_abort(), "vote-abort", false, None, [true; 3], ["ETVA..", "ET.A..", "ETVA.."]),
            (reject_validation(), "reject-validation", false, None, [true; 3], ["ET.A..", "ET.A..", "ET.A.."]),
            (crash_after(Phase::Clearing), "crash-after-clearing", false, None, [true; 3], ["..VW..", "...W..", "..VW.."]),
            (crash_after(Phase::Escrow), "crash-after-escrow", false, None, [true; 3], ["E.VW..", "E..W..", "E.VW.."]),
            (crash_after(Phase::Transfer), "crash-after-transfer", false, None, [true; 3], ["ETVW..", "ET.W..", "ETVW.."]),
            (crash_after(Phase::Validation), "crash-after-validation", false, None, [true; 3], ["ETVW..", "ET.W..", "ETVW.."]),
            (offline_during(Time(0), Time(5000)), "offline-0..5000", false, off, [false, false, true], ["ETVCFK", "ET.W..", "ETVCFK"]),
            (crash_after(Phase::Commit), "crash-after-commit", false, None, [true; 3], ["ETVCFK", "ET.W..", "ETVCFK"]),
        ];
        let spec = broker_spec();
        let view = DealView::default();
        for (s, name, compliant, window, online, codes) in table {
            assert_eq!(s.name(), name);
            assert_eq!(s.is_compliant(), compliant, "{name}");
            assert_eq!(s.offline_window(), window, "{name}");
            let at = [0, 4999, 5000].map(|t| s.is_online(Time(t)));
            assert_eq!(at, online, "{name}");
            for (validated, code) in [Some(true), Some(false), None].into_iter().zip(codes) {
                let c = ctx(&spec, &view, PartyId(0), validated);
                assert_eq!(
                    hook_code(&*s, &c),
                    code,
                    "{name} at validated = {validated:?}"
                );
            }
        }
    }

    #[test]
    fn sore_loser_abandons_once_counterparties_are_locked_in() {
        let spec = broker_spec();
        let s = sore_loser();
        let me = PartyId(0);
        // Nothing observed yet: behaves compliantly.
        let view = DealView::default();
        let c = ctx(&spec, &view, me, Some(true));
        assert!(s.on_escrow(&c));
        assert!(s.on_transfer(&c));
        assert_eq!(s.on_vote(&c), Vote::Commit);
        // Every counterparty escrow observed: abandon.
        let mut view = DealView::default();
        for e in spec.escrows.iter().filter(|e| e.owner != me) {
            view.escrows.push((e.chain, e.owner));
        }
        let c = ctx(&spec, &view, me, Some(true));
        assert!(s.on_escrow(&c)); // it still escrows — the bait
        assert!(!s.on_transfer(&c));
        assert_eq!(s.on_vote(&c), Vote::Withhold);
        assert!(!s.on_claim(&c));
    }

    #[test]
    fn coalition_votes_as_a_bloc_and_resets_with_fresh() {
        let spec = broker_spec();
        let members = [PartyId(0), PartyId(1)];
        let s = coalition(members);
        let view = DealView::default();
        // Member 0 validates successfully, member 1 does not.
        assert!(s.on_validate(&ctx(&spec, &view, PartyId(0), Some(true))));
        assert!(!s.on_validate(&ctx(&spec, &view, PartyId(1), Some(false))));
        // Both members now vote abort: the bloc is dissatisfied.
        assert_eq!(
            s.on_vote(&ctx(&spec, &view, PartyId(0), Some(true))),
            Vote::Abort
        );
        assert_eq!(
            s.on_vote(&ctx(&spec, &view, PartyId(1), Some(false))),
            Vote::Abort
        );
        // A fresh instance has clean state: with both verdicts good it commits.
        let f = s.fresh().expect("coalition is stateful");
        assert!(f.on_validate(&ctx(&spec, &view, PartyId(0), Some(true))));
        assert!(f.on_validate(&ctx(&spec, &view, PartyId(1), Some(true))));
        assert_eq!(
            f.on_vote(&ctx(&spec, &view, PartyId(0), Some(true))),
            Vote::Commit
        );
        // The old instance still remembers the bad verdict.
        assert_eq!(
            s.on_vote(&ctx(&spec, &view, PartyId(0), Some(true))),
            Vote::Abort
        );
    }

    #[test]
    fn coalition_claims_in_protocols_without_a_validation_phase() {
        // The HTLC swap never calls on_validate (ctx.validated is None), so
        // the members' missing verdicts must not read as dissatisfaction.
        let spec = broker_spec();
        let view = DealView::default();
        let s = coalition([PartyId(0), PartyId(1)]);
        let c = ctx(&spec, &view, PartyId(0), None);
        assert_eq!(s.on_vote(&c), Vote::Commit);
        assert!(s.on_claim(&c));
    }

    #[test]
    fn rational_defector_ignores_bystander_escrows() {
        // Only the *declared* escrow owners back a chain: the defector's own
        // escrow (or a third party's) on the incoming chain must not stand in
        // for the counterparty's missing one.
        let spec = broker_spec();
        let carol = PartyId(2);
        let generous = rational_defector(1_000);
        // Carol observes her own chain-1 escrow and a stray chain-0 escrow by
        // herself — but Bob (the declared ticket escrower) never escrowed.
        let mut view = DealView::default();
        for e in spec.escrows.iter().filter(|e| e.owner == carol) {
            view.escrows.push((e.chain, e.owner));
        }
        view.escrows.push((spec.escrows[0].chain, carol));
        assert_eq!(
            generous.on_vote(&ctx(&spec, &view, carol, Some(true))),
            Vote::Abort
        );
    }

    #[test]
    fn rational_defector_commits_only_above_its_threshold() {
        let spec = broker_spec();
        // Carol (party 2) pays 101 coins for 2 tickets.
        let carol = PartyId(2);
        let mut view = DealView::default();
        for e in &spec.escrows {
            view.escrows.push((e.chain, e.owner));
        }
        // Tickets valued at 100 each: 200 incoming > 101 outgoing → commit.
        let generous = rational_defector(100);
        assert_eq!(
            generous.on_vote(&ctx(&spec, &view, carol, Some(true))),
            Vote::Commit
        );
        // Tickets valued at 10 each: 20 < 101 → defect.
        let stingy = rational_defector(10);
        assert_eq!(
            stingy.on_vote(&ctx(&spec, &view, carol, Some(true))),
            Vote::Abort
        );
        // With no escrow observed backing the incoming chain, even generous
        // valuations defect: unbacked promises count for nothing.
        let empty = DealView::default();
        assert_eq!(
            generous.on_vote(&ctx(&spec, &empty, carol, Some(true))),
            Vote::Abort
        );
    }

    #[test]
    fn view_helpers_answer_lockin_questions() {
        let spec = broker_spec();
        let mut view = DealView::default();
        assert!(!view.counterparty_escrows_locked(&spec, PartyId(0)));
        for e in &spec.escrows {
            view.escrows.push((e.chain, e.owner));
        }
        assert!(view.counterparty_escrows_locked(&spec, PartyId(0)));
        assert!(view.escrowed(spec.escrows[0].chain, spec.escrows[0].owner));
        assert!(!view.has_voted(PartyId(1)));
        view.commit_votes.push(PartyId(1));
        assert!(view.has_voted(PartyId(1)));
    }
}
