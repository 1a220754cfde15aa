//! Allocation budgets of one deal's layers. For the paper's largest figure
//! deal (Fig 4's brokered chain at n = 9): how many heap allocations one
//! deal call and the four property checks make, under the timelock protocol
//! and under CBC with f = 2. For plan resolution (`DealPlan::new`, on that
//! chain and on a 3-party ring) and for one whole small `Deal::run`, which
//! also resolves its plan and builds its world. A change that puts per-deal
//! heap traffic back on these paths (copied kind names, cloned holdings,
//! cloned path signatures, boxed log payloads, regrown tables) fails here
//! before it shows up in a benchmark.
//!
//! The counting allocator below is this test binary's global allocator. It
//! counts per thread, so tests running side by side never mix their counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xchain_deals::builders::{brokered_chain_spec, ring_spec};
use xchain_deals::plan::DealPlan;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness,
};
use xchain_deals::{CbcOptions, Deal, Protocol};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the counter
// is a const-initialised thread-local without a destructor, so counting
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations of one compliant n = 9 brokered-chain deal under `protocol`:
/// `(inside run_planned, inside the four property checks)`.
fn deal_allocations(protocol: &Protocol) -> (u64, u64) {
    let deal = Deal::new(brokered_chain_spec(DealId(9_001), 9, 100))
        .network(NetworkModel::synchronous(100))
        .seed(7);
    let plan = deal.plan().expect("the spec plans");
    let (run, in_deal) = counted(|| deal.run_planned(&plan, protocol));
    let outcome = run.expect("the deal runs").outcome;
    let spec = deal.spec();
    let (holds, in_checks) = counted(|| {
        check_safety(spec, &[], &outcome).holds()
            && check_weak_liveness(spec, &[], &outcome)
            && check_conservation(spec, &outcome)
            && check_strong_liveness(spec, &[], &outcome)
    });
    assert!(holds, "every property holds on a compliant deal");
    assert!(outcome.committed_everywhere());
    (in_deal, in_checks)
}

/// Budgets about 15% above the counts this code makes under `cargo test`
/// (timelock deal 245, CBC deal 237, checks 62 each). Before shared kind
/// names, one-scan holdings snapshots, borrowing property checks and pooled
/// path signatures, the same deals made 875 (timelock) and 584 (CBC)
/// allocations in the deal call and 716 in the checks; before worlds
/// stopped regrowing their tables and the deal information was shared
/// across chains, 339 and 323; before assets were keyed by their names
/// instead of interned ids, 255 and 247.
const TIMELOCK_DEAL_BUDGET: u64 = 282;
const CBC_DEAL_BUDGET: u64 = 272;
const CHECKS_BUDGET: u64 = 70;

/// Budgets about 15% above the counts of `DealPlan::new` (79 on the n = 9
/// brokered chain, 28 on a 3-party ring) and of one timelock `Deal::run` of
/// that ring in a fresh session (122). Before the plan was resolved in one
/// pass, they were 128, 45 and 172; before assets were keyed by their names
/// instead of interned ids, 87, 34 and 132.
const PLAN_N9_BUDGET: u64 = 91;
const PLAN_RING3_BUDGET: u64 = 32;
const SMALL_RUN_BUDGET: u64 = 140;

#[test]
fn an_n9_deal_stays_within_its_allocation_budget() {
    let timelock = Protocol::timelock();
    let cbc = Protocol::Cbc(CbcOptions {
        f: 2,
        ..CbcOptions::default()
    });
    // Warm up: first-use initialisation (shared strategies, thread-locals)
    // is not per-deal cost.
    deal_allocations(&timelock);
    deal_allocations(&cbc);

    let (timelock_deal, timelock_checks) = deal_allocations(&timelock);
    let (cbc_deal, cbc_checks) = deal_allocations(&cbc);
    assert!(
        timelock_deal <= TIMELOCK_DEAL_BUDGET,
        "timelock deal call: {timelock_deal} allocations, budget {TIMELOCK_DEAL_BUDGET}"
    );
    assert!(
        cbc_deal <= CBC_DEAL_BUDGET,
        "CBC deal call: {cbc_deal} allocations, budget {CBC_DEAL_BUDGET}"
    );
    for (protocol, checks) in [("timelock", timelock_checks), ("CBC", cbc_checks)] {
        assert!(
            checks <= CHECKS_BUDGET,
            "{protocol} property checks: {checks} allocations, budget {CHECKS_BUDGET}"
        );
    }
}

#[test]
fn planning_and_a_small_deal_stay_within_their_allocation_budgets() {
    let n9 = brokered_chain_spec(DealId(9_001), 9, 100);
    let ring3 = ring_spec(DealId(3), 3);
    let session = || {
        Deal::new(ring3.clone())
            .network(NetworkModel::synchronous(100))
            .seed(7)
    };
    // Warm up, as above.
    session().run(Protocol::timelock()).expect("the ring runs");

    let (_, plan_n9) = counted(|| DealPlan::new(&n9).expect("the chain plans"));
    let (_, plan_ring3) = counted(|| DealPlan::new(&ring3).expect("the ring plans"));
    // A fresh session caches no plan, so the run resolves its own.
    let deal = session();
    let (run, small_run) = counted(|| deal.run(Protocol::timelock()));
    assert!(run.expect("the ring runs").outcome.committed_everywhere());
    assert!(
        plan_n9 <= PLAN_N9_BUDGET,
        "DealPlan::new, n = 9 chain: {plan_n9} allocations, budget {PLAN_N9_BUDGET}"
    );
    assert!(
        plan_ring3 <= PLAN_RING3_BUDGET,
        "DealPlan::new, 3-party ring: {plan_ring3} allocations, budget {PLAN_RING3_BUDGET}"
    );
    assert!(
        small_run <= SMALL_RUN_BUDGET,
        "Deal::run, 3-party ring: {small_run} allocations, budget {SMALL_RUN_BUDGET}"
    );
}
