//! Benchmark of the deal observation machinery: the shared, tag-filtered
//! [`ObservationHub`] over the log of a real 9-party deal.
//!
//! `timelock_decisions` measures the per-decision pattern the engines use
//! (ingest + fold + context assembly for every party across several
//! simulated phases).
//!
//! Run with: `cargo bench -p xchain-bench --bench observation`

use xchain_bench::Suite;
use xchain_deals::builders::ring_spec;
use xchain_deals::phases::Phase;
use xchain_deals::plan::DealPlan;
use xchain_deals::strategy::ObservationHub;
use xchain_deals::{Deal, Protocol};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;

fn main() {
    println!("observation");
    let mut suite = Suite::from_args("observation");
    let n = 9u32;
    let spec = ring_spec(DealId(n as u64), n);
    let plan = DealPlan::new(&spec).expect("ring spec plans");
    // A fully-played deal: its world's logs carry every escrow, transfer,
    // vote and resolution entry a party would have monitored.
    let run = Deal::new(spec.clone())
        .network(NetworkModel::synchronous(100))
        .seed(3)
        .run(Protocol::timelock())
        .expect("ring deal runs");
    assert!(run.outcome.committed_everywhere());
    let world = &run.world;

    suite.bench(&format!("observation/timelock_decisions/{n}"), 200, || {
        // The engine's actual decision pattern: one context per party per
        // phase. The first ingests the whole log; the rest find nothing new
        // and cost one cursor check per chain.
        let mut hub = ObservationHub::new(&plan);
        let mut votes = 0usize;
        for phase in [Phase::Escrow, Phase::Transfer, Phase::Commit] {
            for &p in &spec.parties {
                let ctx = hub.ctx(world, &spec, p, phase, Some(true));
                votes += usize::from(ctx.view.has_voted(p));
            }
        }
        votes
    });

    suite.finish();
}
