//! Property-based tests of the multi-DAG scheduling invariants behind
//! `bts-serve`: for any job mix, (a) per-job program order and bootstrap
//! barriers are respected, (b) no resource channel is oversubscribed,
//! (c) the merged makespan is at most the sum of serial runtimes (burst
//! arrivals) and at least the largest single-job critical path; plus release
//! respect under random arrivals, and determinism of full serve runs.

use proptest::prelude::*;

use bts::params::CkksInstance;
use bts::sched::{schedule_jobs, FuKind, MachineModel, TraceDag};
use bts::serve::{serve, QueuePolicy, ServeOptions, SyntheticArrivals};
use bts::sim::{BtsConfig, Eviction, OpTrace, Simulator};

mod common;
use common::random_trace;

/// A random mix of 1–4 jobs with per-job op counts derived from the seed.
fn random_job_mix(ins: &CkksInstance, seed: u64, jobs: usize, ops: usize) -> Vec<OpTrace> {
    (0..jobs)
        .map(|j| {
            let salt = (j as u64).wrapping_mul(0x9e3779b97f4a7c15);
            random_trace(ins, seed.wrapping_add(salt), ops, 9, 16)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn program_order_and_barriers_hold_for_any_job_mix(
        seed in any::<u64>(), jobs in 1usize..5, ops in 4usize..40
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.try_run(t, Eviction::Lru).unwrap().0).collect();
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), 0.0))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        multi.check_invariants().unwrap();

        let eps = 1e-12 * multi.serial_seconds().max(1e-12);
        for (j, trace) in traces.iter().enumerate() {
            let dag = TraceDag::from_trace(trace);
            let placed: Vec<_> = multi.ops.iter().filter(|o| o.job == j as u32).collect();
            prop_assert_eq!(placed.len(), trace.ops.len());
            for (i, op) in placed.iter().enumerate() {
                // (a) per-job program order of placement…
                prop_assert_eq!(op.index, i);
                // …data dependencies…
                for &d in dag.deps(i) {
                    prop_assert!(
                        op.start_seconds >= placed[d as usize].end_seconds - eps,
                        "job {} op {} starts before its producer {}", j, i, d
                    );
                }
                // …and per-job bootstrap barriers.
                for (k, earlier) in placed.iter().enumerate().take(i) {
                    if dag.segment(k) < dag.segment(i) {
                        prop_assert!(
                            op.start_seconds >= earlier.end_seconds - eps,
                            "job {} op {} crosses its barrier before op {}", j, i, k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_channel_is_oversubscribed_across_jobs(
        seed in any::<u64>(), jobs in 2usize..5, ops in 4usize..40
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.try_run(t, Eviction::Lru).unwrap().0).collect();
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), 0.0))
            .collect();
        let machine = MachineModel::from_config(sim.config());
        let multi = schedule_jobs(machine, &spec);
        for kind in FuKind::ALL {
            for channel in 0..machine.channels(kind) {
                let mut intervals: Vec<(f64, f64)> = multi.busy[kind.index()]
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
    fn makespan_is_bracketed_by_critical_path_and_serial_sum(
        seed in any::<u64>(), jobs in 1usize..5, ops in 4usize..40
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.try_run(t, Eviction::Lru).unwrap().0).collect();
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), 0.0))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        let serial_sum = multi.serial_seconds();
        let eps = 1e-9 * serial_sum.max(1e-12);
        prop_assert!(
            multi.makespan_seconds <= serial_sum + eps,
            "makespan {} exceeds serial sum {}", multi.makespan_seconds, serial_sum
        );
        let max_cp = multi
            .jobs
            .iter()
            .map(|j| j.critical_path_seconds)
            .fold(0.0f64, f64::max);
        prop_assert!(
            multi.makespan_seconds >= max_cp - eps,
            "makespan {} below the largest critical path {}", multi.makespan_seconds, max_cp
        );
    }

    #[test]
    fn release_times_are_respected(
        seed in any::<u64>(), jobs in 2usize..4, ops in 4usize..24,
        release_ms in 0.0f64..50.0
    ) {
        let ins = CkksInstance::ins1();
        let traces = random_job_mix(&ins, seed, jobs, ops);
        let sim = Simulator::new(BtsConfig::bts_default(), ins);
        let timings: Vec<_> = traces.iter().map(|t| sim.try_run(t, Eviction::Lru).unwrap().0).collect();
        // Staggered releases: job j may not start before j · release_ms.
        let spec: Vec<_> = traces
            .iter()
            .zip(&timings)
            .enumerate()
            .map(|(j, (t, tm))| (j as u32, t, tm.as_slice(), j as f64 * release_ms * 1e-3))
            .collect();
        let multi = schedule_jobs(MachineModel::from_config(sim.config()), &spec);
        multi.check_invariants().unwrap();
        for op in &multi.ops {
            let release = multi.job(op.job).unwrap().release_seconds;
            prop_assert!(op.start_seconds >= release - 1e-15);
        }
        let max_release = multi.jobs.iter().map(|j| j.release_seconds).fold(0.0f64, f64::max);
        prop_assert!(multi.makespan_seconds <= max_release + multi.serial_seconds() + 1e-9);
    }
}

proptest! {
    // Full serve runs lower real bootstrap circuits, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn serve_runs_are_deterministic_and_consistent(
        seed in any::<u64>(), policy_idx in 0usize..3
    ) {
        let ins = CkksInstance::ins1();
        let policy = QueuePolicy::ALL[policy_idx];
        let jobs = SyntheticArrivals::new(ins, seed)
            .mean_interarrival_seconds(5e-3)
            .tenants(2)
            .generate(4);
        let options = ServeOptions::new(2).with_policy(policy);
        let a = serve(&jobs, options.clone()).unwrap();
        let b = serve(&jobs, options).unwrap();
        prop_assert!((a.makespan_seconds - b.makespan_seconds).abs() < 1e-18);
        let max_admit = a.jobs.iter().map(|j| j.admitted_seconds).fold(0.0f64, f64::max);
        prop_assert!(a.makespan_seconds <= max_admit + a.sum_serial_seconds() + 1e-9);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            prop_assert!((x.finish_seconds - y.finish_seconds).abs() < 1e-18);
            // Lifecycle ordering: arrival ≤ admission ≤ finish, and a job is
            // never faster than its own critical path.
            prop_assert!(x.admitted_seconds >= x.arrival_seconds - 1e-15);
            prop_assert!(x.finish_seconds >= x.admitted_seconds - 1e-15);
            prop_assert!(
                x.service_seconds() >= x.critical_path_seconds - 1e-12,
                "job {} served below its critical path", x.id
            );
        }
        let fairness = a.tenant_fairness();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&fairness));
    }
}
