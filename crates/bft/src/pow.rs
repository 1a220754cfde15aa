//! The private-abort-block attack on a proof-of-work CBC (Section 6.2).
//!
//! The paper observes that a CBC can be built over proof-of-work consensus,
//! but such chains "lack finality: any proof might be contradicted by a later
//! proof". The concrete attack: as soon as a deal starts, Alice privately
//! mines a block containing her abort vote while publicly voting commit. If
//! she manages to assemble a private chain with enough confirmations she can
//! show escrow contracts on *her outgoing* chains a proof of abort, and
//! contracts on *her incoming* chains the legitimate proof of commit. The
//! mitigation is to require `k` confirmation blocks beyond the decisive vote,
//! with `k` scaled to the deal's value.
//!
//! The attack is a race between two block counters: each block is the
//! attacker's with probability `alpha` (its share of the hash power), and
//! the attacker wins if it mines its abort block and `k` confirmations,
//! `k + 1` blocks, before the honest chain mines the `k` confirmations of
//! the commit vote. This module simulates the race and gives its exact
//! success probability.

use rand::Rng;

/// Simulates one race, one `gen_bool(alpha)` draw per block, and returns
/// whether the attacker won it: whether its private fork reached
/// `confirmations + 1` blocks (the abort vote's block and its
/// confirmations) before the public chain accumulated `confirmations`
/// blocks on top of the decisive commit vote. With no confirmations
/// required, the commit proof is final the moment the vote is in, so the
/// attacker never wins and no block is drawn.
pub fn simulate_attack_trial<R: Rng + ?Sized>(alpha: f64, confirmations: u64, rng: &mut R) -> bool {
    let alpha = alpha.clamp(0.0, 1.0);
    let (mut attacker, mut honest) = (0u64, 0u64);
    while honest < confirmations {
        if rng.gen_bool(alpha) {
            attacker += 1;
            if attacker > confirmations {
                return true;
            }
        } else {
            honest += 1;
        }
    }
    false
}

/// Monte-Carlo estimate of the attack success probability over `trials`
/// races.
pub fn attack_success_rate<R: Rng + ?Sized>(
    alpha: f64,
    confirmations: u64,
    trials: u64,
    rng: &mut R,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let successes = (0..trials)
        .filter(|_| simulate_attack_trial(alpha, confirmations, rng))
        .count();
    successes as f64 / trials as f64
}

/// The exact probability that the attacker wins the race of
/// [`simulate_attack_trial`], for every `alpha` in `[0, 1]`: it wins with
/// its `(k + 1)`-th block after `j < k` honest blocks, so
/// `P = Σ_{j<k} C(k + j, j) · alpha^(k+1) · (1 − alpha)^j`
/// (0 for `k = 0`), summed to `f64` rounding while `alpha^(k+1)` does not
/// underflow. Nakamoto's `(alpha / (1 − alpha))^z` bound (Bitcoin paper,
/// §11) answers a different race, an attacker catching up from `z` blocks
/// behind with unlimited time, so it is no estimate of this one.
pub fn analytic_success_probability(alpha: f64, confirmations: u64) -> f64 {
    let alpha = alpha.clamp(0.0, 1.0);
    let k = confirmations as f64;
    let mut term = alpha.powf(k + 1.0);
    let mut p = 0.0;
    for j in 1..=confirmations {
        p += term;
        let j = j as f64;
        term *= (k + j) / j * (1.0 - alpha);
    }
    p.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn minority_attacker_rarely_wins_with_deep_confirmations() {
        let mut rng = StdRng::seed_from_u64(42);
        let weak = attack_success_rate(0.2, 8, 400, &mut rng);
        assert!(weak < 0.05, "weak attacker with deep confirmations: {weak}");
    }

    #[test]
    fn success_rate_decreases_with_confirmations() {
        let mut rng = StdRng::seed_from_u64(7);
        let shallow = attack_success_rate(0.35, 1, 600, &mut rng);
        let deep = attack_success_rate(0.35, 10, 600, &mut rng);
        assert!(
            shallow > deep,
            "shallow {shallow} should exceed deep {deep}"
        );
    }

    #[test]
    fn success_rate_increases_with_hash_power() {
        let mut rng = StdRng::seed_from_u64(11);
        let weak = attack_success_rate(0.15, 4, 600, &mut rng);
        let strong = attack_success_rate(0.45, 4, 600, &mut rng);
        assert!(strong > weak, "strong {strong} should exceed weak {weak}");
    }

    #[test]
    fn analytic_probability_behaves() {
        assert_eq!(analytic_success_probability(0.0, 6), 0.0);
        assert_eq!(analytic_success_probability(1.0, 6), 1.0);
        // A majority attacker is favoured but not certain: it needs k + 1
        // blocks before the honest chain mines k.
        let majority = analytic_success_probability(0.6, 6);
        assert_eq!(format!("{majority:.3}"), "0.665");
        let p1 = analytic_success_probability(0.3, 1);
        let p6 = analytic_success_probability(0.3, 6);
        assert!(p1 > p6);
        assert!(p6 > 0.0 && p6 < 1.0);
    }

    #[test]
    fn majority_attacker_usually_wins_the_race() {
        // With majority hash power the attacker out-mines the honest network
        // most of the time despite the one-block handicap (it needs k+1 blocks
        // before the honest chain reaches k confirmations).
        let mut rng = StdRng::seed_from_u64(3);
        let rate = attack_success_rate(0.7, 3, 200, &mut rng);
        assert!(rate > 0.55, "majority attacker should usually win: {rate}");
    }

    #[test]
    fn every_cell_of_the_pow_table_matches_the_exact_race() {
        // The grid, trial count and seed of the experiment's PoW table; its
        // cells share one generator in this order.
        let trials = 300;
        let mut rng = StdRng::seed_from_u64(33);
        for alpha in [0.10, 0.25, 0.33, 0.45] {
            for k in [1, 3, 6, 12] {
                let rate = attack_success_rate(alpha, k, trials, &mut rng);
                let p = analytic_success_probability(alpha, k);
                let n = trials as f64;
                let bound = 4.0 * (p * (1.0 - p) / n).sqrt() + 1.0 / n;
                assert!(
                    (rate - p).abs() <= bound,
                    "alpha {alpha}, k {k}: measured {rate}, exact {p}, bound {bound}"
                );
            }
        }
        // The exact column at alpha = 0.45, which grows from k = 1 to k = 6.
        let at = |k| analytic_success_probability(0.45, k);
        for (k, want) in [(1, 0.203), (3, 0.255), (6, 0.261), (12, 0.242)] {
            assert_eq!(format!("{:.3}", at(k)), format!("{want:.3}"), "k {k}");
        }
        assert!(at(6) > at(1));
        // The closed form stays exact for a majority attacker.
        assert_eq!(
            format!("{:.3}", analytic_success_probability(0.7, 3)),
            "0.744"
        );
        for k in [0, 1, 6, 12] {
            assert_eq!(analytic_success_probability(0.0, k), 0.0, "k {k}");
            let certain = if k == 0 { 0.0 } else { 1.0 };
            assert_eq!(analytic_success_probability(1.0, k), certain, "k {k}");
        }
        // k = 0: the commit proof needs no confirmations, so the race is
        // over before a block is drawn and the attacker never wins.
        for alpha in [0.0, 0.45, 1.0] {
            let mut untouched = rng.clone();
            assert_eq!(analytic_success_probability(alpha, 0), 0.0);
            assert!(!simulate_attack_trial(alpha, 0, &mut rng));
            assert_eq!(rng.next_u64(), untouched.next_u64(), "no block drawn");
        }
    }
}
