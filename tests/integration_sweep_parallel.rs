//! Determinism of the parallel sweep executor: a fixed-seed sweep must
//! produce the *same* `SweepOutcome` — point labels, seeds, per-chain
//! resolutions, validation verdicts, and total gas — whether it runs on one
//! thread or eight, and re-running the same configuration must be
//! bit-identical. This is the contract that lets the experiments use every
//! core without giving up reproducibility.

use xchain_deals::builders::{auction_spec, broker_spec, ring_spec};
use xchain_harness::adversary::{single_deviator_configs, strategy_scenarios};
use xchain_harness::sweep::{standard_engines, Sweep, SweepOutcome};
use xchain_sim::crypto::FnvHasher;
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;

/// Builds the reference sweep: three workloads × three engines × two
/// networks × (compliant + all single-deviator) scenarios, fixed seed.
fn fixed_seed_sweep(threads: usize) -> SweepOutcome {
    Sweep::new()
        .spec("broker", broker_spec())
        .spec("ring n=3", ring_spec(DealId(3), 3))
        .spec("auction", auction_spec(DealId(4), &[30, 55]))
        .over_protocols(standard_engines(100))
        .over_networks(vec![
            ("sync".into(), NetworkModel::synchronous(100)),
            (
                "eventually sync".into(),
                NetworkModel::eventually_synchronous(300, 100, 600),
            ),
        ])
        .over_adversaries(|spec| {
            let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
            scenarios.extend(
                single_deviator_configs(spec, 100)
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (format!("deviator #{i}"), c)),
            );
            scenarios
        })
        .seed(20260729)
        .threads(threads)
        .run()
        .unwrap()
}

/// Flattens an outcome into a comparable fingerprint: every label and seed,
/// plus a debug rendering of each point's full outcome (per-chain
/// resolutions, holdings before/after, per-phase gas and durations).
fn fingerprint(outcome: &SweepOutcome) -> Vec<String> {
    outcome
        .points
        .iter()
        .map(|p| {
            format!(
                "{}|{}|{}|{}|seed={}|gas={:?}|outcome={:?}",
                p.spec,
                p.engine,
                p.network,
                p.adversary,
                p.seed,
                p.run.outcome.metrics.total_gas(),
                p.run.outcome
            )
        })
        .collect()
}

#[test]
fn parallel_sweep_is_deterministic_across_thread_counts() {
    let serial = fixed_seed_sweep(1);
    let parallel = fixed_seed_sweep(8);
    assert!(serial.points.len() > 100, "matrix should be non-trivial");
    assert_eq!(serial.skipped, parallel.skipped);
    let a = fingerprint(&serial);
    let b = fingerprint(&parallel);
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "point #{i} differs between threads(1) and threads(8)");
    }
}

#[test]
fn rerunning_the_same_seed_is_bit_identical() {
    let first = fixed_seed_sweep(8);
    let second = fixed_seed_sweep(8);
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(first.skipped, second.skipped);
}

#[test]
fn default_thread_count_matches_explicit_serial_run() {
    // No .threads(..) call: the sweep picks available parallelism; the
    // outcome must still match a serial run point for point.
    let auto = Sweep::new()
        .spec("broker", broker_spec())
        .over_protocols(standard_engines(100))
        .seed(5)
        .run()
        .unwrap();
    let serial = Sweep::new()
        .spec("broker", broker_spec())
        .over_protocols(standard_engines(100))
        .seed(5)
        .threads(1)
        .run()
        .unwrap();
    assert_eq!(fingerprint(&auto), fingerprint(&serial));
}

/// The sweep behind the strategy half of the golden test: the benchmark's
/// adversarial axis (every built-in deviation at every party, sore loser,
/// coalition, rational defector) over two- to five-party specs, all three
/// engines, and a network that loses synchrony before its GST.
fn strategy_sweep() -> SweepOutcome {
    Sweep::new()
        .spec("broker", broker_spec())
        .spec("ring n=5", ring_spec(DealId(5), 5))
        .spec("ring n=2", ring_spec(DealId(2), 2))
        .over_protocols(standard_engines(100))
        .over_networks(vec![
            ("sync".into(), NetworkModel::synchronous(100)),
            (
                "eventually sync".into(),
                NetworkModel::eventually_synchronous(500, 100, 1000),
            ),
        ])
        .over_adversaries(|spec| strategy_scenarios(spec, 100))
        .seed(20261017)
        .threads(2)
        .run()
        .unwrap()
}

/// Folds fingerprint lines into one FNV hash (each line terminated, so line
/// boundaries count).
fn digest<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> u64 {
    let mut h = FnvHasher::new();
    for line in lines {
        h.write(line.as_ref().as_bytes());
        h.write_u8(b'\n');
    }
    h.finish().0
}

/// Cross-commit golden values: both sweeps' outcomes, hashed. Every other
/// determinism and parity suite compares two paths of the *same* build; this
/// one pins the outcomes themselves, so an engine refactor that changes any
/// resolution, holding, gas figure, duration, validation verdict, CBC status
/// or swap flag fails here. The constants were recorded before the engines
/// moved onto the shared deal driver and must never be updated to make a
/// refactor pass.
#[test]
fn sweep_outcomes_match_the_recorded_golden_digests() {
    let fixed = digest(fingerprint(&fixed_seed_sweep(1)));
    let strategies = strategy_sweep();
    let lines = fingerprint(&strategies)
        .into_iter()
        .zip(&strategies.points)
        .map(|(line, p)| {
            format!(
                "{line}|validated={:?}|cbc={:?}|swapped={:?}",
                p.run.ext.validated(),
                p.run.ext.cbc_status(),
                p.run.ext.swapped()
            )
        });
    let strategic = digest(lines);
    println!("fixed=0x{fixed:016x} strategic=0x{strategic:016x}");
    assert_eq!(fixed, GOLDEN_FIXED_SEED_SWEEP, "fixed-seed sweep digest");
    assert_eq!(strategic, GOLDEN_STRATEGY_SWEEP, "strategy sweep digest");
}

const GOLDEN_FIXED_SEED_SWEEP: u64 = 0x8c95_e6c2_e026_4748;
const GOLDEN_STRATEGY_SWEEP: u64 = 0x0543_73b6_4ee2_2ad8;
