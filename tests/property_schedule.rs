//! Property-based tests of the `bts-sched` scheduler invariants: for random
//! valid traces, `critical_path ≤ makespan ≤ serial`, schedules are
//! deterministic for a fixed trace/config, no functional-unit channel is
//! double-booked in any interval, and scheduled runs are never slower than
//! serial.

use proptest::prelude::*;

use bts::params::CkksInstance;
use bts::sched::{schedule_jobs, FuKind, MachineModel, ScheduleExt, TraceDag};
use bts::sim::{BtsConfig, Eviction, OpTrace, Simulator};

mod common;

/// Random valid traces with this suite's historical shape (bootstrap toggles
/// every ~11 ops, live pool of 24).
fn random_trace(ins: &CkksInstance, seed: u64, ops: usize) -> OpTrace {
    common::random_trace(ins, seed, ops, 11, 24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn critical_path_le_makespan_le_serial(seed in any::<u64>(), ops in 5usize..80) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        prop_assert!(trace.validate().is_ok());
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let run = sim.try_run_scheduled(&trace, Eviction::Lru).unwrap();
        let s = &run.schedule;
        let (serial, cp) = (s.jobs[0].serial_seconds, s.jobs[0].critical_path_seconds);
        let eps = 1e-9 * serial.max(1e-12);
        prop_assert!(cp <= s.makespan_seconds + eps,
            "cp {} > makespan {}", cp, s.makespan_seconds);
        prop_assert!(s.makespan_seconds <= serial + eps,
            "makespan {} > serial {}", s.makespan_seconds, serial);
        // The serial reference the schedule carries is the engine's total.
        prop_assert!((serial - run.report.total_seconds).abs() <= eps);
        prop_assert!(run.report.parallel_speedup().unwrap() >= 1.0);
        // And the schedule's own structural checker agrees.
        s.check_invariants().unwrap();
    }

    #[test]
    fn schedules_are_deterministic(seed in any::<u64>(), ops in 5usize..60) {
        let ins = CkksInstance::ins2();
        let trace = random_trace(&ins, seed, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let a = sim.try_run_scheduled(&trace, Eviction::Lru).unwrap();
        let b = sim.try_run_scheduled(&trace, Eviction::Lru).unwrap();
        prop_assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn no_unit_channel_is_double_booked(seed in any::<u64>(), ops in 5usize..80) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let (timings, _) = sim.try_run(&trace, Eviction::Lru).unwrap();
        let machine = MachineModel::from_config(sim.config());
        let schedule = schedule_jobs(machine, &[(0, &trace, &timings, 0.0)]);
        for kind in FuKind::ALL {
            for channel in 0..machine.channels(kind) {
                let mut intervals: Vec<(f64, f64)> = schedule.busy[kind.index()]
                    .iter()
                    .filter(|b| b.channel == channel)
                    .map(|b| (b.start_seconds, b.end_seconds))
                    .collect();
                intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for pair in intervals.windows(2) {
                    prop_assert!(
                        pair[1].0 >= pair[0].1 - 1e-18,
                        "{:?} channel {} overlap: {:?} then {:?}",
                        kind, channel, pair[0], pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn dependencies_and_barriers_are_respected(seed in any::<u64>(), ops in 5usize..60) {
        let ins = CkksInstance::ins1();
        let trace = random_trace(&ins, seed, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let run = sim.try_run_scheduled(&trace, Eviction::Lru).unwrap();
        let dag = TraceDag::from_trace(&trace);
        let s = &run.schedule;
        let eps = 1e-12 * s.serial_seconds().max(1e-12);
        for i in 0..dag.len() {
            for &d in dag.deps(i) {
                prop_assert!(
                    s.ops[i].start_seconds >= s.ops[d as usize].end_seconds - eps,
                    "op {} starts before its producer {}", i, d
                );
            }
            for j in 0..i {
                if dag.segment(j) < dag.segment(i) {
                    prop_assert!(
                        s.ops[i].start_seconds >= s.ops[j].end_seconds - eps,
                        "op {} crosses the barrier before op {}", i, j
                    );
                }
            }
        }
    }
}
