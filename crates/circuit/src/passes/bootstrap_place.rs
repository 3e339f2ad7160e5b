//! Bootstrap placement as an optimization pass. [`crate::CircuitBuilder`]'s
//! greedy `ensure()` trigger refreshes whenever the level budget dips to the
//! requested depth *plus one reserve level* — the conservative rule FHE
//! applications schedule by, which necessarily over-provisions: the final
//! refresh of a circuit often guards a suffix that would have fit in the
//! levels already available. With the whole program in hand, this pass
//! deletes every such marker, latest first. A bootstrap expands to hundreds
//! of key-switches (the full CoeffToSlot → EvalMod → SlotToCoeff pipeline),
//! so each deletion is by far the largest single win any pass can deliver.
//!
//! One forward pass records every value's level; one backward sweep computes
//! `need[v]`, the fewest levels `v` must carry for every rescale downstream
//! of it (up to the next kept marker or modulus raise) to run at level ≥ 1.
//! A marker goes iff its input carries what its result needs, and then passes
//! that need on to its input. A deletion at or below the usable top level
//! only lowers later levels, so no marker the sweep kept can become deletable
//! and the sweep equals greedy latest-first deletion iterated to a fixpoint.
//! A deletion above it (after a modulus raise) raises later levels instead,
//! so the sweep restarts after one.
//!
//! Markers whose result is itself a circuit output are kept even when
//! removable: the caller asked for a refreshed, top-level ciphertext, and
//! handing back the exhausted input instead would change the circuit's
//! observable interface (this also keeps the `bootstrap` benchmark workload
//! meaningful).

use crate::error::CircuitError;
use crate::ir::{HeCircuit, HeInstr, HeInstrNode, ValueId};
use crate::passes::analysis;
use crate::passes::Pass;

/// Latest-first bootstrap deletion under the level budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootstrapPlacePass;

/// Which values are results of deleted markers (a dense table: ids have gaps
/// after CSE and DCE), and how many backward sweeps deciding that took.
fn place(circuit: &HeCircuit) -> (Vec<bool>, usize) {
    let ids = (circuit.inputs.iter().map(|i| i.id))
        .chain(circuit.nodes.iter().map(|n| n.result))
        .max()
        .map_or(0, |m| m as usize + 1);
    let top = circuit.instance.usable_top_level();
    let (mut gone, mut level, mut need) = (vec![false; ids], vec![0; ids], vec![0; ids]);
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        for input in &circuit.inputs {
            level[input.id as usize] = input.level;
        }
        for node in &circuit.nodes {
            let (a, b) = node.instr.operands();
            let la = level[a as usize];
            level[node.result as usize] = match node.instr {
                HeInstr::HMult { .. } | HeInstr::HAdd { .. } => {
                    la.min(level[b.expect("binary op") as usize])
                }
                HeInstr::Rescale { .. } => la.saturating_sub(1),
                HeInstr::ModRaise { .. } => circuit.instance.max_level(),
                HeInstr::Bootstrap { .. } if !gone[node.result as usize] => top,
                _ => la,
            };
        }
        need.fill(0);
        let mut raised = false;
        for node in circuit.nodes.iter().rev() {
            let (r, (a, b)) = (node.result as usize, node.instr.operands());
            let pass_on = match node.instr {
                HeInstr::Rescale { .. } => need[r] + 1,
                HeInstr::ModRaise { .. } => continue,
                HeInstr::Bootstrap { .. } if !gone[r] => {
                    if circuit.outputs.contains(&node.result) || level[a as usize] < need[r] {
                        continue;
                    }
                    gone[r] = true;
                    if level[a as usize] > top {
                        raised = true;
                        break;
                    }
                    need[r]
                }
                _ => need[r],
            };
            for v in std::iter::once(a).chain(b) {
                need[v as usize] = need[v as usize].max(pass_on);
            }
        }
        if !raised {
            return (gone, sweeps);
        }
    }
}

impl Pass for BootstrapPlacePass {
    fn name(&self) -> &'static str {
        "bootstrap-place"
    }

    fn run(&self, circuit: &HeCircuit) -> Result<HeCircuit, CircuitError> {
        circuit.validate()?;
        let (gone, _) = place(circuit);
        let mut redirect: Vec<ValueId> = (0..gone.len() as ValueId).collect();
        let mut nodes = Vec::with_capacity(circuit.nodes.len());
        for node in &circuit.nodes {
            let instr = node.instr.map_operands(|v| redirect[v as usize]);
            match instr {
                HeInstr::Bootstrap { a } if gone[node.result as usize] => {
                    redirect[node.result as usize] = a;
                }
                _ => nodes.push(HeInstrNode { instr, ..*node }),
            }
        }
        let mut out = HeCircuit {
            instance: circuit.instance.clone(),
            inputs: circuit.inputs.clone(),
            nodes,
            outputs: circuit.outputs.clone(),
        };
        analysis::relevel(&mut out)?;
        analysis::check(&out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use bts_params::CkksInstance;

    /// Burns `n` levels with square–rescale steps.
    fn burn(b: &mut CircuitBuilder, mut x: u32, n: usize) -> u32 {
        for _ in 0..n {
            let p = b.hmult(x, x).unwrap();
            x = b.rescale(p).unwrap();
        }
        x
    }

    #[test]
    fn redundant_trailing_bootstrap_is_removed() {
        // INS-1: 8 usable levels. Burn 7, ensure(1) triggers a refresh (the
        // reserve rule), then burn only 1 — the suffix would have fit.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let x = burn(&mut b, x, 7);
        let x = b.ensure(x, 1).unwrap();
        let x = burn(&mut b, x, 1);
        b.output(x);
        let circuit = b.build();
        assert_eq!(circuit.bootstrap_count(), 1);

        let out = BootstrapPlacePass.run(&circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 0, "suffix fits without the refresh");
        analysis::check(&out).unwrap();
        // The suffix now executes at the un-refreshed level.
        assert_eq!(out.nodes.last().unwrap().level, 1);
    }

    #[test]
    fn needed_bootstraps_stay_within_the_level_budget() {
        // Burn the full budget, refresh, burn the full budget again: the
        // refresh is load-bearing and must survive.
        let ins = CkksInstance::ins1();
        let top = ins.usable_top_level();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input();
        let x = burn(&mut b, x, top);
        let x = b.bootstrap(x).unwrap();
        let x = burn(&mut b, x, top);
        b.output(x);
        let circuit = b.build();

        let out = BootstrapPlacePass.run(&circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 1);
        analysis::check(&out).unwrap();
        for node in &out.nodes {
            assert!(node.level <= ins.max_level());
        }
    }

    #[test]
    fn output_bootstraps_are_never_removed() {
        // A refresh whose result is returned to the caller is interface, not
        // slack — even though nothing downstream needs the levels.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input_at(0);
        let refreshed = b.bootstrap(x).unwrap();
        b.output(refreshed);
        let circuit = b.build();
        let out = BootstrapPlacePass.run(&circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 1);
    }

    #[test]
    fn markers_at_or_below_the_usable_top_take_one_sweep() {
        // 1,000 explicit refreshes after suffixes of varying depth: some
        // deletable, some load-bearing, every input at or below the top.
        let ins = CkksInstance::ins1();
        let top = ins.usable_top_level();
        let mut b = CircuitBuilder::new(&ins);
        let mut x = b.input();
        for i in 0..1000 {
            x = burn(&mut b, x, 1 + i % top);
            x = b.bootstrap(x).unwrap();
        }
        x = burn(&mut b, x, 1);
        b.output(x);
        let circuit = b.build();

        let (gone, sweeps) = place(&circuit);
        assert_eq!(sweeps, 1);
        let deleted = gone.iter().filter(|&&g| g).count();
        assert!(0 < deleted && deleted < 1000, "{deleted} markers deleted");
    }

    #[test]
    fn deleting_a_marker_above_the_usable_top_sweeps_again() {
        // The first refresh takes a full-budget input: deleting it raises
        // every level downstream, which frees the second refresh too.
        let ins = CkksInstance::ins1();
        let mut b = CircuitBuilder::new(&ins);
        let x = b.input_at(ins.max_level());
        let x = b.bootstrap(x).unwrap();
        let x = burn(&mut b, x, ins.usable_top_level());
        let x = b.bootstrap(x).unwrap();
        let x = burn(&mut b, x, 1);
        b.output(x);
        let circuit = b.build();

        let (gone, sweeps) = place(&circuit);
        assert!(sweeps > 1, "{sweeps} sweep(s)");
        assert_eq!(gone.iter().filter(|&&g| g).count(), 2);
        let out = BootstrapPlacePass.run(&circuit).unwrap();
        assert_eq!(out.bootstrap_count(), 0);
    }
}
