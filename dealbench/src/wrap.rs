//! Benchmark-local wrappers that measure a layer from outside: a
//! [`DealEngine`] that times `execute` and a [`Strategy`] that counts and
//! times decision hooks. Both forward every trait method, so outcomes are
//! unchanged; the outcome digest checks that.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xchain_deals::engine::{DealEngine, EngineRun};
use xchain_deals::strategy::{strategies, ObservationCtx, Strategy, Vote};
use xchain_deals::{DealError, DealPlan, DealSpec, PartyConfig, ProtocolKind};
use xchain_sim::time::Time;
use xchain_sim::world::World;

/// Every this-many-th decision hook on a thread is timed; all are counted.
/// Timing each one would double the cost of a cheap hook.
const HOOK_SAMPLE: u64 = 8;

/// Decision hooks answered on one thread since the last [`take_hooks`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Hooks {
    pub decisions: u64,
    /// How many of them were timed, and their total time.
    pub timed: u64,
    pub ns: u64,
}

impl Hooks {
    /// Estimated time in all hooks: the timed ones' mean × every hook.
    pub fn estimated_ns(&self) -> f64 {
        self.ns as f64 * self.decisions as f64 / self.timed.max(1) as f64
    }
}

thread_local! {
    // Per thread, so sweep cells running side by side never mix counts: an
    // engine executes a cell on one thread from start to end.
    static HOOKS: Cell<Hooks> = const {
        Cell::new(Hooks { decisions: 0, timed: 0, ns: 0 })
    };
}

/// Returns and resets this thread's hook counters.
pub fn take_hooks() -> Hooks {
    HOOKS.with(|h| h.replace(Hooks::default()))
}

/// A strategy that answers through `inner`, counts each decision hook and
/// times a sample of them.
struct Counted(Arc<dyn Strategy>);

impl Counted {
    fn timed<T>(&self, hook: impl FnOnce(&dyn Strategy) -> T) -> T {
        let decisions = HOOKS.with(|h| {
            let mut c = h.get();
            c.decisions += 1;
            h.set(c);
            c.decisions
        });
        if !decisions.is_multiple_of(HOOK_SAMPLE) {
            return hook(&*self.0);
        }
        let start = Instant::now();
        let answer = hook(&*self.0);
        let ns = start.elapsed().as_nanos() as u64;
        HOOKS.with(|h| {
            let mut c = h.get();
            c.timed += 1;
            c.ns += ns;
            h.set(c);
        });
        answer
    }
}

impl Strategy for Counted {
    fn name(&self) -> String {
        self.0.name()
    }
    fn is_compliant(&self) -> bool {
        self.0.is_compliant()
    }
    fn is_online(&self, t: Time) -> bool {
        self.0.is_online(t)
    }
    fn offline_window(&self) -> Option<(Time, Time)> {
        self.0.offline_window()
    }
    fn on_escrow(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.timed(|s| s.on_escrow(ctx))
    }
    fn on_transfer(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.timed(|s| s.on_transfer(ctx))
    }
    fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.timed(|s| s.on_validate(ctx))
    }
    fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
        self.timed(|s| s.on_vote(ctx))
    }
    fn on_forward(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.timed(|s| s.on_forward(ctx))
    }
    fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.timed(|s| s.on_claim(ctx))
    }
    fn fresh(&self) -> Option<Arc<dyn Strategy>> {
        self.0
            .fresh()
            .map(|inner| Arc::new(Counted(inner)) as Arc<dyn Strategy>)
    }
}

/// Gives every party of `spec` an explicit, counted configuration: listed
/// parties keep their strategy, the rest get the compliant one that
/// `config_of` would have supplied. Configurations that shared one strategy
/// `Arc` (a coalition) share one wrapper, so `fresh_configs` keeps them
/// shared.
pub fn counted_configs(spec: &DealSpec, configs: &[PartyConfig]) -> Vec<PartyConfig> {
    let mut wrapped: Vec<(*const (), Arc<dyn Strategy>)> = Vec::new();
    let mut wrap = |inner: &Arc<dyn Strategy>| {
        let key = Arc::as_ptr(inner) as *const ();
        if let Some((_, w)) = wrapped.iter().find(|(k, _)| *k == key) {
            return w.clone();
        }
        let w: Arc<dyn Strategy> = Arc::new(Counted(inner.clone()));
        wrapped.push((key, w.clone()));
        w
    };
    let mut out: Vec<PartyConfig> = configs
        .iter()
        .map(|c| PartyConfig::with_strategy(c.id, wrap(&c.strategy)))
        .collect();
    let compliant = strategies::compliant();
    for &p in &spec.parties {
        if !configs.iter().any(|c| c.id == p) {
            out.push(PartyConfig::with_strategy(p, wrap(&compliant)));
        }
    }
    out
}

/// One timed `execute` call.
#[derive(Debug, Clone, Copy)]
pub struct TimedCall {
    /// The world seed, which names the sweep cell.
    pub seed: u64,
    pub start: Instant,
    pub ns: u64,
    pub hooks: Hooks,
}

/// An engine that times `execute` on `inner` and records it in `sink`.
pub struct Timed {
    inner: Box<dyn DealEngine + Send + Sync>,
    sink: Arc<Mutex<Vec<TimedCall>>>,
}

impl Timed {
    pub fn new(inner: Box<dyn DealEngine + Send + Sync>, sink: Arc<Mutex<Vec<TimedCall>>>) -> Self {
        Timed { inner, sink }
    }
}

impl DealEngine for Timed {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }
    fn label(&self) -> String {
        self.inner.label()
    }
    fn supports(&self, spec: &DealSpec) -> bool {
        self.inner.supports(spec)
    }
    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        take_hooks();
        let start = Instant::now();
        let run = self.inner.execute(world, plan, configs);
        let ns = start.elapsed().as_nanos() as u64;
        let cell = TimedCall {
            seed: world.seed(),
            start,
            ns,
            hooks: take_hooks(),
        };
        self.sink
            .lock()
            .expect("no thread panics holding the sink")
            .push(cell);
        run
    }
}
