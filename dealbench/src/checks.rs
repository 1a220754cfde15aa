//! Per-deal output checks and the outcome digest.

use xchain_deals::phases::Phase;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness,
};
use xchain_deals::{ChainResolution, DealOutcome, DealSpec, PartyConfig, ProtocolKind};
use xchain_sim::crypto::FnvHasher;

/// Safety, weak liveness and conservation on every deal; strong liveness
/// and commit-everywhere too when `strong` (every party compliant, network
/// synchronous). Returns the first check that failed.
pub fn deal_check(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
    strong: bool,
) -> Result<(), &'static str> {
    if !check_safety(spec, configs, outcome).holds() {
        return Err("safety");
    }
    if !check_weak_liveness(spec, configs, outcome) {
        return Err("weak liveness");
    }
    if !check_conservation(spec, outcome) {
        return Err("conservation");
    }
    if strong && !check_strong_liveness(spec, configs, outcome) {
        return Err("strong liveness");
    }
    if strong && !outcome.committed_everywhere() {
        return Err("commit everywhere");
    }
    Ok(())
}

/// The deterministic part of a workload's first deals: a digest of every
/// resolution, per-phase gas and simulated duration, plus the gas and Δ
/// totals behind `gas_per_deal` and `sim_delta_per_deal`. It covers a fixed
/// number of deals, so it is identical across runs with one seed, traced or
/// not, at any thread count.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Deals folded in so far.
    pub deals: usize,
    hasher: FnvHasher,
    gas: u64,
    delta: f64,
}

impl Window {
    pub fn new() -> Self {
        Window {
            deals: 0,
            hasher: FnvHasher::new(),
            gas: 0,
            delta: 0.0,
        }
    }

    /// Folds in the next deal's outcome (`None` for a deal that returned
    /// an error).
    pub fn add(&mut self, outcome: Option<&DealOutcome>) {
        let h = &mut self.hasher;
        h.write_u64(self.deals as u64);
        self.deals += 1;
        let Some(o) = outcome else {
            h.write_u64(u64::MAX);
            return;
        };
        h.write_u64(match o.protocol {
            ProtocolKind::Timelock => 1,
            ProtocolKind::Cbc => 2,
            ProtocolKind::Swap => 3,
        });
        for (chain, resolution) in &o.resolutions {
            h.write_u64(u64::from(chain.0));
            h.write_u64(match resolution {
                ChainResolution::Committed => 1,
                ChainResolution::Aborted => 2,
                ChainResolution::Unresolved => 3,
            });
        }
        for phase in Phase::ALL {
            h.write_u64(o.metrics.gas(phase).total());
            h.write_u64(o.metrics.duration(phase).ticks());
        }
        self.gas += o.metrics.total_gas().total();
        self.delta += o.metrics.total_duration().in_units_of(o.delta);
    }

    pub fn digest(&self) -> u64 {
        self.hasher.finish().0
    }

    pub fn gas_per_deal(&self) -> f64 {
        self.gas as f64 / self.deals.max(1) as f64
    }

    pub fn delta_per_deal(&self) -> f64 {
        self.delta / self.deals.max(1) as f64
    }

    /// Equal digests and totals.
    pub fn same_as(&self, other: &Window) -> bool {
        self.deals == other.deals
            && self.digest() == other.digest()
            && self.gas == other.gas
            && self.delta == other.delta
    }
}
