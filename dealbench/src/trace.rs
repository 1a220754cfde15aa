//! The traced run: an in-memory span recorder, the attribution of each
//! `execute` span to the layers below it, and per-layer accumulators.
//!
//! Top-level spans per deal are `plan`, `setup`, `execute` and `checks`,
//! each timed around the benchmark's own call into that layer. Inside
//! `execute` the engine runs uninterrupted, so its children are attributed
//! as count × unit cost: counts from the deal's own gas counters and the
//! counting strategy, unit costs from the probes and from replays on the
//! deal's final world. What is left is reported as the engine's
//! `unattributed` self time rather than hidden.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use xchain_bft::proof::DealStatus;
use xchain_deals::engine::ProtocolExt;
use xchain_deals::phases::Phase;
use xchain_deals::strategy::ObservationHub;
use xchain_deals::{DealOutcome, DealPlan, ProtocolKind};
use xchain_sim::ids::Owner;
use xchain_sim::world::World;

use crate::probes::Probes;
use crate::wrap::Hooks;

/// Spans kept in memory (and written out); later spans only feed the
/// per-layer accumulators.
const MAX_SPANS: usize = 1 << 18;

/// A layer boundary the benchmark times or attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Plan,
    Setup,
    Execute,
    Checks,
    Holdings,
    Ctx,
    Hooks,
    LedgerCalls,
    CryptoVerify,
    CryptoSign,
    BftAppend,
    BftCertificate,
    Unattributed,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Plan => "plan",
            Layer::Setup => "setup",
            Layer::Execute => "execute",
            Layer::Checks => "checks",
            Layer::Holdings => "world.holdings",
            Layer::Ctx => "strategy.ctx",
            Layer::Hooks => "strategy.hooks",
            Layer::LedgerCalls => "ledger.calls",
            Layer::CryptoVerify => "crypto.verify",
            Layer::CryptoSign => "crypto.sign",
            Layer::BftAppend => "bft.append",
            Layer::BftCertificate => "bft.certificate",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// The engine prefix of per-layer metric names.
pub fn engine_name(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Timelock => "timelock",
        ProtocolKind::Cbc => "cbc",
        ProtocolKind::Swap => "swap",
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    deal: u64,
    layer: Layer,
    parent: Option<Layer>,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    /// Per-layer running (sum, count) by metric name.
    acc: BTreeMap<String, (f64, u64)>,
    pub probes: Probes,
}

impl Tracer {
    pub fn new(probes: Probes) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            acc: BTreeMap::new(),
            probes,
        }
    }

    fn push(
        &mut self,
        deal: u64,
        layer: Layer,
        parent: Option<Layer>,
        start: Instant,
        dur_ns: u64,
    ) {
        if self.spans.len() == MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            deal,
            layer,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
        });
    }

    /// Records a top-level span that started at `start` and ends now, and
    /// returns its duration.
    pub fn span(&mut self, deal: u64, layer: Layer, start: Instant) -> u64 {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.span_of(deal, layer, start, dur_ns);
        dur_ns
    }

    /// Records a top-level span of known duration.
    pub fn span_of(&mut self, deal: u64, layer: Layer, start: Instant, dur_ns: u64) {
        self.push(deal, layer, None, start, dur_ns);
    }

    /// Adds one reading to a per-layer mean.
    pub fn add(&mut self, name: &str, value: f64) {
        let e = self.acc.entry(name.to_string()).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// The mean of a per-layer metric, if any reading was added.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.acc.get(name).map(|(sum, n)| sum / *n as f64)
    }

    /// The sum of a per-layer metric's readings.
    pub fn sum(&self, name: &str) -> f64 {
        self.acc.get(name).map_or(0.0, |(sum, _)| *sum)
    }

    pub fn spans_recorded(&self) -> usize {
        self.spans.len()
    }

    pub fn spans_dropped(&self) -> u64 {
        self.dropped
    }

    /// Splits one `execute` span into its attributed children and the
    /// residual. `world` is the deal's final world; the holdings snapshot
    /// and the observation contexts are replayed on it to price them.
    #[allow(clippy::too_many_arguments)]
    pub fn attribute(
        &mut self,
        deal: u64,
        exec_start: Instant,
        exec_ns: u64,
        plan: &DealPlan,
        world: &World,
        outcome: &DealOutcome,
        ext: &ProtocolExt,
        hooks: Hooks,
    ) {
        let spec = plan.spec();
        let start = Instant::now();
        for &p in &spec.parties {
            black_box(world.holdings(Owner::Party(p)));
        }
        let holdings_ns = start.elapsed().as_nanos() as f64;

        let start = Instant::now();
        let mut hub = ObservationHub::new(plan);
        for k in 0..hooks.decisions as usize {
            let party = spec.parties[k % spec.parties.len()];
            let ctx = hub.ctx(world, spec, party, Phase::Commit, None);
            black_box(ctx.view);
        }
        let ctx_ns = start.elapsed().as_nanos() as f64;

        let gas = outcome.metrics.total_gas();
        // Each timelock commit-phase call carries a path signature built by
        // its caller: an upper bound on the signatures made.
        let signs = match outcome.protocol {
            ProtocolKind::Timelock => outcome.metrics.gas(Phase::Commit).calls,
            _ => 0,
        };
        let (appends, certificates) = match ext {
            ProtocolExt::Cbc { log, status, .. } => (
                log.len(),
                if matches!(status, DealStatus::Active) {
                    0
                } else {
                    plan.chains().len()
                },
            ),
            _ => (0, 0),
        };
        let p = self.probes;
        let children = [
            (Layer::Holdings, 2.0 * holdings_ns),
            (Layer::Ctx, ctx_ns),
            (Layer::Hooks, hooks.estimated_ns()),
            (Layer::LedgerCalls, gas.calls as f64 * p.call_ns),
            (
                Layer::CryptoVerify,
                gas.sig_verifications as f64 * p.verify_ns,
            ),
            (Layer::CryptoSign, signs as f64 * p.sign_ns),
            (Layer::BftAppend, appends as f64 * p.append_ns),
            (
                Layer::BftCertificate,
                certificates as f64 * p.certificate_ns,
            ),
        ];
        let mut attributed = 0.0;
        for (layer, ns) in children {
            if ns > 0.0 {
                self.push(deal, layer, Some(Layer::Execute), exec_start, ns as u64);
                attributed += ns;
            }
        }
        let residual = exec_ns as f64 - attributed;
        self.push(
            deal,
            Layer::Unattributed,
            Some(Layer::Execute),
            exec_start,
            residual.max(0.0) as u64,
        );

        let engine = engine_name(outcome.protocol);
        self.add(&format!("{engine}.execute_us"), exec_ns as f64 / 1e3);
        self.add(&format!("{engine}.unattributed_us"), residual / 1e3);
        self.add("world.holdings_us", holdings_ns / 1e3);
        self.add("strategy.ctx_us", ctx_ns / 1e3);
        self.add("strategy.decisions_per_deal", hooks.decisions as f64);
        self.add("strategy.hooks_timed", hooks.timed as f64);
        self.add("strategy.hook_ns_timed", hooks.ns as f64);
        self.add("ledger.calls_per_deal", gas.calls as f64);
        self.add("ledger.log_entries_per_deal", gas.log_entries as f64);
        self.add("ledger.storage_writes_per_deal", gas.storage_writes as f64);
        self.add("crypto.sig_verifies_per_deal", gas.sig_verifications as f64);
        for phase in Phase::ALL {
            let delta = outcome.metrics.duration(phase).in_units_of(outcome.delta);
            let gas = outcome.metrics.gas(phase).total() as f64;
            self.add(&format!("phase.{phase}.delta"), delta);
            self.add(&format!("phase.{phase}.gas"), gas);
        }
    }

    /// Writes every recorded span as tab-separated lines: deal, layer,
    /// parent layer (`-` at top level), start and duration in ns.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "deal\tlayer\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.deal,
                s.layer.name(),
                s.parent.map_or("-", Layer::name),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}
