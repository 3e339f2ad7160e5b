//! `paper_err`: how far the simulator's answers sit from the paper's.
//!
//! Three BTS values of the paper, each reproduced with the definition the
//! `figures` binary uses on the raw (unoptimized) circuits: HELR ms per
//! iteration on INS-2 (`figures slowdown`, Table 5), ResNet-20 seconds on
//! INS-1 (`figures slowdown`, Table 6), and the best instance's
//! `T_mult,a/slot` at the default configuration (`figures fig7a`, 512 MiB
//! column). The figure is simulated and deterministic, so a host-only change
//! leaves it bit-identical and a fidelity fix lowers it.

use bts_circuit::Workload;
use bts_params::CkksInstance;
use bts_sim::{BtsConfig, Simulator};
use bts_workloads::{amortized_mult_per_slot, HelrConfig, HelrWorkload, ResNetWorkload};

/// HELR training time per iteration on INS-2, ms (Table 5).
pub const PAPER_HELR_MS_PER_ITER: f64 = 28.4;
/// ResNet-20 inference latency on INS-1, s (Table 6).
pub const PAPER_RESNET20_S: f64 = 1.91;
/// Best-instance amortized multiplication time per slot, ns (Fig. 6).
pub const PAPER_TMULT_A_SLOT_NS: f64 = 45.5;

/// Mean of `|ln(reproduced / paper)|` over `(reproduced, paper)` pairs.
pub fn paper_err(pairs: &[(f64, f64)]) -> f64 {
    pairs.iter().map(|(r, p)| (r / p).ln().abs()).sum::<f64>() / pairs.len() as f64
}

/// The three `(reproduced, paper)` pairs, in ms, s and ns.
pub fn reproduced_pairs() -> [(f64, f64); 3] {
    let ins2 = CkksInstance::ins2();
    let helr = HelrWorkload::default()
        .lower(&ins2)
        .expect("HELR lowers on INS-2");
    let helr_ms = Simulator::new(BtsConfig::bts_default(), ins2)
        .run(&helr.trace)
        .total_seconds
        * 1e3
        / HelrConfig::default().iterations as f64;

    let ins1 = CkksInstance::ins1();
    let resnet = ResNetWorkload::default()
        .lower(&ins1)
        .expect("ResNet-20 lowers on INS-1");
    let resnet_s = Simulator::new(BtsConfig::bts_default(), ins1)
        .run(&resnet.trace)
        .total_seconds;

    let tmult_ns = CkksInstance::evaluation_set()
        .into_iter()
        .map(|ins| amortized_mult_per_slot(&Simulator::new(BtsConfig::bts_default(), ins)).0)
        .fold(f64::INFINITY, f64::min)
        * 1e9;

    [
        (helr_ms, PAPER_HELR_MS_PER_ITER),
        (resnet_s, PAPER_RESNET20_S),
        (tmult_ns, PAPER_TMULT_A_SLOT_NS),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_err_matches_a_hand_computed_value() {
        // ln ratios +0.1, −0.2 and 0: mean |·| = 0.3 / 3 = 0.1.
        let pairs = [
            (28.4 * 0.1f64.exp(), 28.4),
            (1.91 * (-0.2f64).exp(), 1.91),
            (45.5, 45.5),
        ];
        assert!((paper_err(&pairs) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn paper_err_is_symmetric_in_over_and_under_estimates() {
        assert!((paper_err(&[(2.0, 1.0)]) - paper_err(&[(0.5, 1.0)])).abs() < 1e-15);
        assert_eq!(paper_err(&[(3.0, 3.0)]), 0.0);
    }
}
